"""The reduced-echelon kernel, mod a prime and exact, against the reference
inverse in matrix_helpers and against each other."""

import argparse
import random
from fractions import Fraction

import pytest

from matrix_helpers import invert, mat_mul
from plates import oracle
from plates.characters import ENGINES, character
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


def test_engine_table_drives_the_cli_and_agrees():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("character", "multiplicities"):
        engine = next(a for a in subs.choices[command]._actions if a.dest == "engine")
        assert tuple(engine.choices) == tuple(ENGINES)
    for n, r in ((3, 3), (4, 2)):
        want = character("formula", n, r)
        for name in ENGINES:
            assert character(name, n, r) == want, name


def _record_inverses(monkeypatch, change=lambda inv: inv):
    """Route the oracle's inverses through ``change``, applied to modular ones
    only, and return the list of moduli they were asked for."""
    moduli = []

    def recording(matrix, modulus=None):
        moduli.append(modulus)
        inv = inverse(matrix, modulus)
        return inv if modulus is None else change(inv)

    monkeypatch.setattr(oracle, "inverse", recording)
    oracle._solver.cache_clear()
    return moduli


def _solve_all(n, r):
    basis = standard_basis(n, r)
    return [solve_in_basis(t, basis, SamplePlan(n, r)) for t in all_plates(n, r)]


def test_every_basis_keeps_its_modular_inverse(monkeypatch):
    # without this a broken modular inverse would pass unseen: every solve
    # would still come out right from the exact inverse
    slices = [(3, 3), (3, 4), (4, 3), (3, 5), (6, 2)]
    moduli = _record_inverses(monkeypatch)
    for n, r in slices:
        _solve_all(n, r)
    assert moduli == [P] * len(slices)


def _plus_one(inv):
    inv[0][0] = (inv[0][0] + 1) % P
    return inv


def _unreconstructible(inv):
    inv[-1][-1] = 2**40 + 12345
    assert oracle._rational_reconstruct(inv[-1][-1]) is None
    return inv


@pytest.mark.parametrize("change", [_plus_one, _unreconstructible])
def test_a_wrong_modular_inverse_is_rejected(monkeypatch, change):
    # a modular inverse is kept only when every entry reconstructs and the
    # integer check M * X = L * I holds: one wrong entry must be caught and
    # the exact inverse used
    slices = [(3, 3), (6, 2)]
    oracle._solver.cache_clear()
    want = [_solve_all(n, r) for n, r in slices]
    moduli = _record_inverses(monkeypatch, change)
    assert [_solve_all(n, r) for n, r in slices] == want
    assert moduli == [P, None] * len(slices)  # built once per cached solver


def test_a_singular_modular_inverse_takes_the_exact_path(monkeypatch):
    oracle._solver.cache_clear()
    want = _solve_all(3, 3)
    moduli = _record_inverses(monkeypatch, lambda inv: None)
    assert _solve_all(3, 3) == want
    assert moduli == [P, None]
