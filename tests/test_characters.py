import itertools
import math
import random
from fractions import Fraction

import pytest

from plates import characters, translation
from plates.characters import (
    ENGINES,
    ClassFunction,
    NotACharacterError,
    character,
    character_inner_product,
    gcd_formula,
    irreducible_dimension,
    mn_character,
    multiplicities,
    plate_character,
    plate_trace,
)
from plates.combinatorics import (
    Permutation,
    parse_permutation,
    partitions,
    permutation_with_cycle_type,
)
from plates.core import apply_permutation, standard_basis
from plates.exactnum import CyclotomicNumber
from plates.expansion import diagonal_coefficient, expand, unmerged_slots
from matrix_helpers import action_matrix, invert, mat_mul
from reference import all_permutations, sym_power_character, trivial_multiplicity_series
from test_exactnum import given


def entries_as_fractions(m):
    return [[c.to_fraction() for c in row] for row in m.entries]


def test_action_matrix_examples():
    m = action_matrix(parse_permutation("(1 2)"), 2, 2)
    assert entries_as_fractions(m) == [[1, 1], [0, -1]]
    ident = action_matrix(Permutation.identity(3), 3, 2)
    size = len(ident.basis)
    assert entries_as_fractions(ident) == [
        [1 if i == j else 0 for j in range(size)] for i in range(size)
    ]


def test_action_matrix_entries_are_integers():
    rng = random.Random(19)
    for _ in range(10):
        n, r = rng.randint(2, 4), rng.randint(1, 3)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        for row in action_matrix(sigma, n, r).entries:
            assert all(c.to_fraction().denominator == 1 for c in row)


def test_action_is_homomorphism():
    rng = random.Random(13)
    perms3 = list(all_permutations(3))
    for r in (1, 2, 3):
        zero = CyclotomicNumber.zero(r)
        one = CyclotomicNumber.one(r)
        for _ in range(5):
            s, t = rng.choice(perms3), rng.choice(perms3)
            ms = [list(row) for row in action_matrix(s, 3, r).entries]
            mt = [list(row) for row in action_matrix(t, 3, r).entries]
            mst = action_matrix(s * t, 3, r).entries
            prod = mat_mul(ms, mt, zero)
            assert all(
                prod[i][j] == mst[i][j] for i in range(len(prod)) for j in range(len(prod))
            )
            inv = invert(ms, zero, one)
            m_inv = action_matrix(s.inverse(), 3, r).entries
            assert all(
                inv[i][j] == m_inv[i][j] for i in range(len(inv)) for j in range(len(inv))
            )


def test_diagonal_trace_equals_matrix_trace():
    for r in range(1, 5):
        for sigma in all_permutations(4):
            assert plate_trace(sigma, 4, r) == action_matrix(sigma, 4, r).trace(), (sigma, r)


def test_plate_character_values():
    assert plate_character(3, 3).as_dict() == {(1, 1, 1): 9, (2, 1): 3, (3,): 0}
    assert plate_character(3, 10).at((2, 1)) == 10
    for r in (1, 2, 3):
        assert all(v == 1 for _, v in plate_character(2, 1).values)


def _diagonal(sigma, p):
    return diagonal_coefficient(unmerged_slots(sigma, p.blocks), p.positions)


@pytest.mark.parametrize(
    "n, r", [(n, r) for n in range(1, 5) for r in range(1, 5)] + [(5, r) for r in range(1, 4)]
)
def test_diagonal_coefficient_equals_expand_coefficient(n, r):
    basis = standard_basis(n, r)
    for sigma in all_permutations(n):
        for p in basis:
            want = expand(apply_permutation(sigma, p)).coefficient(p).to_fraction()
            assert _diagonal(sigma, p) == want, (sigma, str(p))


def test_unmerged_slots_examples():
    swap, cycle = parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)
    # (1 2) . [[{1} {2} {3}]] = [[{2} {1} {3}]]: A = (slot 1, slot 0), B = (slot 2)
    assert unmerged_slots(swap, ((1,), (2,), (3,))) == (1, 0, 2)
    assert diagonal_coefficient((1, 0, 2), (1, 1, 1)) == -1
    assert diagonal_coefficient((1, 0, 2), (1, 2, 1)) == 0  # positions move with the lumps
    # (1 2) . [[{1} {3} {2}]] = [[{2} {3} {1}]]: all of A, in order
    assert unmerged_slots(swap, ((1,), (3,), (2,))) == (2, 1, 0)
    # (1 2 3) . [[{1} {2} {3}]] = [[{2} {3} {1}]]: A out of order
    assert unmerged_slots(cycle, ((1,), (2,), (3,))) is None
    assert unmerged_slots(Permutation.identity(2), ((2,), (1,))) is None  # not standard
    assert unmerged_slots(swap, ((1,), (2, 3))) is None  # {1} maps off the blocks
    assert diagonal_coefficient(None, (1, 1)) == 0


def test_plate_character_matches_closed_form():
    for n in range(1, 7):
        for r in range(1, 5):
            assert plate_character(n, r).as_dict() == character("formula", n, r).as_dict(), (n, r)


# Each character route, and the module-level names it can be reached by.
_ROUTES = {
    "plates": [(characters, "plate_trace")],
    "translation": [(characters, "ta_trace"), (translation, "ta_trace")],
    "diophantine": [(characters, "diophantine_count"), (translation, "diophantine_count")],
    "formula": [(characters, "gcd_formula")],
    "fixed-labels": [(translation, "fixed_label_count")],
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("n, r", [(4, 3), (5, 2)])
def test_each_character_route_runs_with_the_others_disabled(monkeypatch, route, n, r):
    # no route may reach another, by name or through the engine table
    expected = {lam: gcd_formula(lam, r) for lam in partitions(n)}

    def disabled(*args):
        raise RuntimeError(f"the {route} route called another route")

    for other, names in _ROUTES.items():
        if other != route:
            for module, name in names:
                monkeypatch.setattr(module, name, disabled)
            if other in ENGINES:
                monkeypatch.setitem(ENGINES, other, disabled)
    if route in ENGINES:
        values = character(route, n, r).as_dict()
    else:
        sigma = permutation_with_cycle_type
        values = {lam: translation.fixed_label_count(sigma(lam), n, r) for lam in partitions(n)}
    assert values == expected
    assert set(ENGINES) | {"fixed-labels"} == set(_ROUTES)


def test_every_engine_returns_ints():
    for n in range(1, 6):
        for r in range(1, 6):
            for engine in ENGINES:
                for lam, value in character(engine, n, r).values:
                    assert type(value) is int, (engine, n, r, lam, value)


def test_gcd_formula_examples():
    assert gcd_formula((3,), 3) == 0
    assert gcd_formula((2, 1), 10) == 10
    assert gcd_formula((1, 1, 1), 3) == 9
    assert all(gcd_formula(lam, 1) == 1 for lam in partitions(5))


def test_trace_invariant_under_qbasis_conjugation():
    from plates.expansion import qbasis_matrix

    for n in range(2, 4):
        for r in range(1, 4):
            q_rows, _ = qbasis_matrix(n, r)
            zero = CyclotomicNumber.zero(r)
            one = CyclotomicNumber.one(r)
            q_inv = invert([list(row) for row in q_rows], zero, one)
            assert q_inv is not None
            for lam in partitions(n):
                m = action_matrix(permutation_with_cycle_type(lam), n, r)
                rows = [list(row) for row in m.entries]
                conj = mat_mul(mat_mul([list(r_) for r_ in q_rows], rows, zero), q_inv, zero)
                trace = conj[0][0]
                for i in range(1, len(conj)):
                    trace = trace + conj[i][i]
                assert trace == m.trace()


# ---------------------------------------------------------------------------
# irreducible characters


S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def test_mn_against_classical_tables():
    for mu, row in S3_TABLE.items():
        assert mn_character(mu).as_dict() == row
    for mu, row in S4_TABLE.items():
        assert mn_character(mu).as_dict() == row


def test_mn_degenerate_rows():
    for n in range(1, 7):
        assert all(v == 1 for _, v in mn_character((n,)).values)
        sign = mn_character((1,) * n)
        for lam, v in sign.values:
            assert v == (-1) ** (n - len(lam))


def test_mn_orthonormality():
    for n in range(1, 7):
        chars = [mn_character(mu) for mu in partitions(n)]
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert character_inner_product(a, b) == (1 if i == j else 0)


def test_inner_product_rejects_misaligned_class_functions():
    chi = mn_character((2, 1))
    swapped = ClassFunction(3, (chi.values[1], chi.values[0], chi.values[2]))
    with pytest.raises(ValueError, match="not aligned"):
        character_inner_product(chi, swapped)
    with pytest.raises(ValueError):
        character_inner_product(chi, ClassFunction(3, chi.values[:2]))


def test_dimension_sum_of_squares():
    for n in range(1, 7):
        assert sum(irreducible_dimension(mu) ** 2 for mu in partitions(n)) == math.factorial(n)


# ---------------------------------------------------------------------------
# symmetric powers


def brute_fixed_monomials(k, n, lam):
    sigma = permutation_with_cycle_type(lam)
    count = 0
    for mono in itertools.combinations_with_replacement(range(1, n + 1), k):
        if tuple(sorted(sigma(i) for i in mono)) == mono:
            count += 1
    return count


def test_sym_power_examples():
    assert all(v == 1 for _, v in sym_power_character(0, 4).values)
    assert sym_power_character(2, 3).at((2, 1)) == 2
    assert sym_power_character(3, 3).at((3,)) == 1
    assert all(v == 0 for _, v in sym_power_character(-1, 3).values)


def test_sym_power_against_brute_force():
    for n in range(1, 6):
        for k in range(0, 5):
            chi = sym_power_character(k, n)
            for lam in partitions(n):
                assert chi.at(lam) == brute_fixed_monomials(k, n, lam), (k, n, lam)


# ---------------------------------------------------------------------------
# multiplicities


def test_multiplicity_tables():
    assert multiplicities(plate_character(3, 3)) == {(3,): 3, (2, 1): 3}
    assert multiplicities(plate_character(4, 3)) == {
        (4,): 5,
        (2, 2): 2,
        (3, 1): 5,
        (2, 1, 1): 1,
    }
    assert multiplicities(plate_character(3, 4)) == {(3,): 5, (2, 1): 5, (1, 1, 1): 1}


def test_multiplicity_dimension_audit():
    for n in range(1, 5):
        for r in range(1, 5):
            table = multiplicities(character("formula", n, r))
            total = sum(m * irreducible_dimension(mu) for mu, m in table.items())
            assert total == r ** (n - 1)


def test_multiplicities_reject_non_characters():
    half = ClassFunction.from_dict(2, {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    with pytest.raises(NotACharacterError, match="not a character"):
        multiplicities(half)
    negative = mn_character((2, 1)) - mn_character((3,)).scale(5)
    with pytest.raises(NotACharacterError):
        multiplicities(negative)


def test_trivial_multiplicity_series():
    assert trivial_multiplicity_series(3, 6) == [1, 2, 3, 5, 7, 9]
    assert trivial_multiplicity_series(4, 6) == [1, 2, 5, 8, 14, 20]
    # n=3, r=2 worked example: (1*4 + 3*2 + 2*1) / 6 = 2
    assert trivial_multiplicity_series(3, 2)[-1] == 2


# ---------------------------------------------------------------------------
# properties of the diagonal rule and the action, on random plates


def _sigma_tau_plate(st):
    """(sigma, tau, p): two permutations of S_n and a standard basis plate
    of (n, r), with n <= 6 and r <= 6."""

    def draw(nr):
        n, r = nr
        perm = st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))
        plate = st.integers(0, r ** (n - 1) - 1).map(lambda i: standard_basis(n, r)[i])
        return st.tuples(perm, perm, plate)

    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(draw)


@given(_sigma_tau_plate)
def test_diagonal_rule_on_random_plates(drawn):
    sigma, _, p = drawn
    want = expand(apply_permutation(sigma, p)).coefficient(p).to_fraction()
    assert _diagonal(sigma, p) == want


@given(_sigma_tau_plate)
def test_permutation_action_is_homomorphism(drawn):
    sigma, tau, p = drawn
    assert apply_permutation(sigma * tau, p) == apply_permutation(
        sigma, apply_permutation(tau, p)
    )
