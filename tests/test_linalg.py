"""The reduced-echelon kernel, mod a prime and exact, against the reference
inverse in matrix_helpers and against each other."""

import argparse
import random
from fractions import Fraction

import pytest

from matrix_helpers import invert, mat_mul
from plates import oracle
from plates.characters import ENGINES, character, gcd_character
from plates.cli import build_parser
from plates.core import all_plates, standard_basis
from plates.expansion import qbasis_matrix
from plates.linalg import Echelon, inverse
from plates.oracle import SamplePlan, solve_in_basis

P = (1 << 61) - 1


def _rank(rows, width, modulus=None):
    ech = Echelon(width, modulus)
    for row in rows:
        ech.add_row(row)
    return ech.rank


def _random_01(rng, height, width):
    density = rng.choice((0.2, 0.5, 0.8))
    rows = [[int(rng.random() < density) for _ in range(width)] for _ in range(height)]
    if height > 1 and rng.random() < 0.3:  # force a repeated row
        rows[-1] = list(rows[rng.randrange(height - 1)])
    return rows


def test_rank_mod_p_equals_rank_over_q_for_01_matrices():
    # Hadamard's bound keeps every minor of a 0/1 matrix up to 6x6 far below P,
    # so no minor vanishes mod P that is nonzero over Q
    rng = random.Random(20160)
    for _ in range(400):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_01(rng, height, width)
        exact = _rank(rows, width)
        assert _rank(rows, width, P) == exact, rows
        if height == width:
            singular = invert([[Fraction(v) for v in row] for row in rows], Fraction(0), Fraction(1))
            assert (exact < width) == (singular is None), rows


def test_inverse_against_reference():
    rng = random.Random(61)
    tried = 0
    while tried < 150:
        m = rng.randint(1, 6)
        matrix = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        want = invert([[Fraction(v) for v in row] for row in matrix], Fraction(0), Fraction(1))
        if want is None:
            continue
        tried += 1
        # exact mode on an int matrix: Fractions throughout, never floats
        assert inverse(matrix) == want, matrix
        mod = inverse(matrix, P)
        product = mat_mul(mod, matrix, 0)
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        assert [[v % P for v in row] for row in product] == identity, matrix


@pytest.mark.parametrize(
    "matrix",
    [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],  # row 3 = row 1 + row 2
        [[1, 1, 0], [0, 0, 0], [0, 1, 1]],
    ],
)
def test_singular_matrix_has_no_inverse(matrix):
    assert inverse(matrix) is None
    assert inverse(matrix, P) is None


@pytest.mark.parametrize("n,r", [(2, 3), (3, 3)])
def test_qbasis_rank_over_cyclotomics(n, r):
    rows, basis = qbasis_matrix(n, r)
    size = len(basis)
    assert _rank(rows, size) == size
    repeated = rows[:-1] + [rows[0]]
    assert _rank(repeated, size) == size - 1


def test_every_basis_solve_takes_the_modular_path(monkeypatch):
    # without this a broken modular inverse would pass unseen: every solve
    # would still come out right from the exact fallback
    fast = oracle._BasisSolver._solve_fast
    results = []

    def recording(self, rhs):
        results.append(fast(self, rhs))
        return results[-1]

    monkeypatch.setattr(oracle._BasisSolver, "_solve_fast", recording)
    oracle._solver.cache_clear()
    basis = standard_basis(3, 3)
    plan = SamplePlan(3, 3)
    targets = list(all_plates(3, 3))
    for target in targets:
        solve_in_basis(target, basis, plan)
    assert len(results) == len(targets)
    assert all(coeffs is not None for coeffs in results)


def test_engine_table_drives_the_cli_and_agrees():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("character", "multiplicities"):
        engine = next(a for a in subs.choices[command]._actions if a.dest == "engine")
        assert tuple(engine.choices) == tuple(ENGINES)
    for n, r in ((3, 3), (4, 2)):
        want = gcd_character(n, r)
        for name in ENGINES:
            assert character(name, n, r) == want, name


def test_exact_fallback_gives_the_same_coefficients(monkeypatch):
    basis = standard_basis(3, 3)
    plan = SamplePlan(3, 3)
    targets = list(all_plates(3, 3))
    oracle._solver.cache_clear()
    fast = [solve_in_basis(t, basis, plan) for t in targets]
    exact_inverses = []

    def counting_inverse(matrix, modulus=None):
        if modulus is None:
            exact_inverses.append(matrix)
        return inverse(matrix, modulus)

    monkeypatch.setattr(oracle._BasisSolver, "_solve_fast", lambda self, rhs: None)
    monkeypatch.setattr(oracle, "inverse", counting_inverse)
    oracle._solver.cache_clear()
    assert [solve_in_basis(t, basis, plan) for t in targets] == fast
    assert len(exact_inverses) == 1  # built once, by the one cached solver


def test_a_wrong_modular_solution_falls_back_to_the_exact_one(monkeypatch):
    # the walk-wide check is the only certificate of the modular path: fast
    # coefficients off in one entry must be caught and replaced
    basis = standard_basis(3, 3)
    plan = SamplePlan(3, 3)
    targets = list(all_plates(3, 3))
    oracle._solver.cache_clear()
    exact = [solve_in_basis(t, basis, plan) for t in targets]
    fast = oracle._BasisSolver._solve_fast
    perturbed = []

    def off_by_one_entry(self, rhs):
        coeffs = fast(self, rhs)
        coeffs[len(perturbed) % len(coeffs)] += Fraction(1, 3)
        perturbed.append(coeffs)
        return coeffs

    monkeypatch.setattr(oracle._BasisSolver, "_solve_fast", off_by_one_entry)
    oracle._solver.cache_clear()
    assert [solve_in_basis(t, basis, plan) for t in targets] == exact
    assert len(perturbed) == len(targets)
