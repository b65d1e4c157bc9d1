"""The reduced-echelon kernel, mod a prime and exact, and the fraction-free
inverse, against the reference inverse in matrix_helpers and against each
other; and every cached basis solver's inverse, checked in integers."""

import argparse
import random
from fractions import Fraction
from math import lcm

import pytest

from matrix_helpers import invert, mat_mul
from plates import oracle
from plates.characters import ENGINES, character
from plates.cli import build_parser
from plates.core import all_plates, standard_basis
from plates.expansion import qbasis_matrix
from plates.linalg import Echelon, scaled_inverse
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


def _reference_scaled_inverse(matrix):
    """(L, L * M^-1) as sparse rows from matrix_helpers' Fraction inverse, or None."""
    inv = invert([[Fraction(v) for v in row] for row in matrix], Fraction(0), Fraction(1))
    if inv is None:
        return None
    scale = lcm(*(v.denominator for row in inv for v in row))
    return scale, [
        [(k, v.numerator * scale // v.denominator) for k, v in enumerate(row) if v] for row in inv
    ]


def test_inverse_against_reference():
    rng = random.Random(61)
    singular = scaled = 0
    for trial in range(600):
        if trial % 2:
            m = rng.randint(1, 6)
            matrix = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        else:
            matrix = _random_01(rng, *[rng.randint(1, 8)] * 2)
        # the matrix with its first and last rows swapped has the opposite
        # determinant, so both signs are checked
        swapped = [matrix[-1], *matrix[1:-1], matrix[0]] if len(matrix) > 1 else matrix
        for rows in (matrix, swapped):
            want = _reference_scaled_inverse(rows)
            assert scaled_inverse(rows) == want, rows
            singular += want is None
            scaled += want is not None and want[0] > 1
    assert singular and scaled


def test_echelon_reduces_m_beside_i_to_the_inverse():
    # reducing [M | I] leaves M^-1 in the right half: over Q in Fractions,
    # never floats, though M is given in ints, and mod P an inverse mod P
    rng = random.Random(62)
    for _ in range(150):
        m = rng.randint(1, 6)
        matrix = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        want = invert([[Fraction(v) for v in row] for row in matrix], Fraction(0), Fraction(1))
        if want is None:
            continue
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        for modulus in (None, P):
            ech = Echelon(2 * m, modulus)
            for row, unit in zip(matrix, identity):
                ech.add_row([*row, *unit])
            inv = [row[m:] for _, row in sorted(zip(ech.pivots, ech.rows))]
            if modulus is None:
                assert inv == want and all(type(v) is Fraction for row in inv for v in row), matrix
            else:
                product = mat_mul(inv, matrix, 0)
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
    assert scaled_inverse(matrix) is None


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


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (4, 3), (3, 5), (6, 2)])
def test_every_cached_solver_keeps_a_scaled_inverse(n, r):
    # the solver trusts its inverse, so M * X = L * I is checked here, in
    # integers, for the fitted rows M of the basis that every solve used
    basis = tuple(standard_basis(n, r))
    plan = SamplePlan(n, r)
    oracle._solver.cache_clear()
    for target in all_plates(n, r):
        solve_in_basis(target, basis, plan)
    solver = oracle._solver(basis, plan)
    assert oracle._solver.cache_info().misses == 1
    m = len(basis)
    matrix = [oracle._unpack(row, m) for *_, row in solver.fit]
    scaled = [[0] * m for _ in range(m)]
    for i, row in enumerate(solver.inverse):
        for k, x in row:
            scaled[i][k] = x
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    assert mat_mul(matrix, scaled, 0) == [[solver.scale * v for v in row] for row in identity]
    assert (solver.scale, solver.inverse) == _reference_scaled_inverse(matrix)
