import random
from fractions import Fraction
from itertools import product

import pytest

from plates import oracle
from plates.core import Plate, all_plates, evaluate, parse_plate, rotate, standard_basis
from plates.expansion import expand, oracle_expand
from plates.linalg import Echelon
from plates.oracle import (
    SamplePlan,
    SpanError,
    next_prime_above,
    rank_report,
    solve_in_basis,
    verify_identity_ae,
    _compositions,
    _flag_test,
    _gf2_insert,
    _holds,
    _row,
    _sample_numerators,
    _subset_sums,
)
from test_exactnum import given


def test_next_prime_above():
    assert next_prime_above(1) == 2
    assert next_prime_above(4) == 5
    assert next_prime_above(6) == 7


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(3, 2, denominator=3)  # must exceed n
    with pytest.raises(ValueError):
        SamplePlan(3, 2, denominator=8)  # must be prime
    assert SamplePlan(4, 2).resolved_denominator == 5


def _points(plan, count):
    """The first ``count`` sampled points a/D, as Fractions."""
    d = plan.resolved_denominator
    return [tuple(Fraction(a, d) for a in nums) for nums in _sample_numerators(plan, count)]


def _assert_generic_on_slice(points, r):
    for x in points:
        assert sum(x) == r
        assert all(v >= 0 for v in x)
        # no proper nonempty subset sums to an integer
        n = len(x)
        for mask in range(1, (1 << n) - 1):
            s = sum(x[i] for i in range(n) if mask >> i & 1)
            assert s.denominator != 1


def test_sampled_points_are_generic_and_on_slice():
    _assert_generic_on_slice(_points(SamplePlan(4, 3), 40), 3)


@pytest.mark.parametrize("n", [9, 10])
def test_sampling_at_large_n_draws_distinct_generic_points(n):
    # the default D = 11 has few generic points among all compositions, so a
    # rejection sampler stalled at n = 9 and found none at n = 10
    points = _points(SamplePlan(n, 3), 48)
    assert len(points) == len(set(points)) == 48
    _assert_generic_on_slice(points, 3)


def test_sampling_is_deterministic_with_prefix_property():
    plan = SamplePlan(3, 2, seed=5)
    first = _points(plan, 6)
    assert first == _points(plan, 6)
    assert first == _points(plan, 12)[:6]
    # a different seed gives different points
    assert first != _points(SamplePlan(3, 2, seed=6), 6)


def test_rank_examples():
    assert rank_report(standard_basis(2, 2), SamplePlan(2, 2)).rank == 2
    assert rank_report(standard_basis(3, 3), SamplePlan(3, 3)).rank == 9
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rank_report([p, p], SamplePlan(2, 2)).rank == 1
    report = rank_report(standard_basis(3, 2), SamplePlan(3, 2))
    assert report.denominator == 5 and report.rank == 4 and report.points_used > 0


def test_integer_flag_test_matches_evaluate():
    for n, r in ((3, 3), (4, 3), (5, 2)):
        plan = SamplePlan(n, r, seed=3)
        numerators = _sample_numerators(plan, 20)
        points = _points(plan, 20)
        # plates of other totals vanish at every point of the plan
        for other in (r - 1, r, r + 1):
            for p in all_plates(n, other):
                test = _flag_test(p, plan)
                for a, x in zip(numerators, points):
                    assert _holds(test, _subset_sums(a)) == evaluate(p, x), (str(p), x)


@pytest.mark.parametrize("prime", [2, 3])
def test_rank_is_exact_under_a_tiny_modulus(monkeypatch, prime):
    # ranks mod a tiny prime fall short of the rational rank, so every short
    # rank must come out exact from the Fraction fallback
    monkeypatch.setattr(oracle, "_P", prime)
    fallbacks = []

    class CountingEchelon(oracle.Echelon):
        def __init__(self, width, modulus=None):
            if modulus is None:  # the exact fallback, not the modular pass
                fallbacks.append(width)
            super().__init__(width, modulus)

    monkeypatch.setattr(oracle, "Echelon", CountingEchelon)
    assert rank_report(standard_basis(3, 3), SamplePlan(3, 3)).rank == 9
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rank_report([p, p], SamplePlan(2, 2)).rank == 1
    assert rank_report(list(all_plates(3, 2)), SamplePlan(3, 2)).rank == 4
    assert rank_report(list(all_plates(4, 2)), SamplePlan(4, 2)).rank == 8
    if prime == 2:
        assert fallbacks  # the GF(2) rank of all plates is short over Q


def test_rank_is_exact_when_gf2_accepts_no_row(monkeypatch):
    # with no rank mod 2, every rank must come from the mod-P replay at the
    # end of each lattice, and a short one from the Fraction fallback
    monkeypatch.setattr(oracle, "_gf2_insert", lambda pivots, row: False)
    assert rank_report(standard_basis(3, 3), SamplePlan(3, 3)).rank == 9
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rank_report([p, p], SamplePlan(2, 2)).rank == 1
    assert rank_report(list(all_plates(3, 2)), SamplePlan(3, 2)).rank == 4
    assert rank_report(list(all_plates(4, 2)), SamplePlan(4, 2)).rank == 8
    # the replay stops at the row that completes the rank
    for n, r, d, expected in ((4, 3, None, (27, 73, 5)), (6, 2, None, (32, 1244, 11)), (6, 2, 7, (12, 42, 7))):
        report = rank_report(standard_basis(n, r), SamplePlan(n, r, denominator=d))
        assert (report.rank, report.points_used, report.denominator) == expected, (n, r, d)


def test_mod_p_replay_finds_rank_that_gf2_misses():
    # real data, nothing patched: at (6, 3) and D = 7 the walked rows have
    # rank 67 mod 2, so the rank 69 comes from the mod-P replay
    basis, plan = standard_basis(6, 3), SamplePlan(6, 3, denominator=7)
    assert rank_report(basis, plan) == (69, 174, 7)
    tests = [_flag_test(p, plan) for p in basis]
    rows = [_row(tests, sums) for _, sums in _compositions(6, 3 * 7, 7)]
    pivots = {}
    for row in rows:
        _gf2_insert(pivots, row)
    assert (len(rows), len(pivots)) == (174, 67)


def test_short_rank_equal_to_the_distinct_rows_is_not_recounted(monkeypatch):
    # the mod-P rank 69 meets the 69 distinct rows, so no exact Echelon is built
    class ModularEchelon(oracle.Echelon):
        def __init__(self, width, modulus=None):
            assert modulus is not None, "exact recount"
            super().__init__(width, modulus)

    monkeypatch.setattr(oracle, "Echelon", ModularEchelon)
    assert rank_report(standard_basis(6, 3), SamplePlan(6, 3, denominator=7)) == (69, 174, 7)


def test_short_rank_below_the_distinct_rows_is_recounted(monkeypatch):
    # a modular pass that drops one row leaves rank 68 under 69 distinct
    # rows, and the exact recount restores 69
    refused, recounts = [], []

    class LossyEchelon(oracle.Echelon):
        def __init__(self, width, modulus=None):
            if modulus is None:
                recounts.append(width)
            super().__init__(width, modulus)

        def add_row(self, row):
            if self.modulus is not None and not refused:
                refused.append(row)
                return False
            return super().add_row(row)

    monkeypatch.setattr(oracle, "Echelon", LossyEchelon)
    assert rank_report(standard_basis(6, 3), SamplePlan(6, 3, denominator=7)) == (69, 174, 7)
    assert len(refused) == 1 and recounts == [243]


def _pack(row):
    return sum(v << j for j, v in enumerate(row))


def test_gf2_rank_is_the_rank_mod_2():
    rng = random.Random(11)
    # rank 2 mod 2 but 3 over Q: the rows sum to twice (1, 1, 1)
    matrices = [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]]
    for _ in range(60):
        width, height = rng.randint(1, 12), rng.randint(1, 16)
        density = rng.choice((0.1, 0.5, 0.9))
        matrices.append([[int(rng.random() < density) for _ in range(width)] for _ in range(height)])
    strict = 0
    for matrix in matrices:
        width = len(matrix[0])
        pivots = {}
        for row in matrix:
            _gf2_insert(pivots, _pack(row))
        mod2, exact = Echelon(width, 2), Echelon(width)
        for row in matrix:
            mod2.add_row(row)
            exact.add_row(row)
        assert len(pivots) == mod2.rank <= exact.rank, matrix
        strict += mod2.rank < exact.rank
    assert strict  # some matrix is short mod 2


@pytest.mark.parametrize(
    "n, r, d, rank, points_used, denominator",
    [
        (4, 3, None, 27, 73, 5),
        (4, 5, None, 125, 337, 5),
        (3, 5, None, 25, 145, 5),
        (5, 4, None, 256, 1126, 7),
        (6, 2, None, 32, 1244, 11),
        (7, 2, None, 64, 1576, 11),
        (6, 2, 7, 12, 42, 7),
    ],
)
def test_rank_stops_at_full_rank(n, r, d, rank, points_used, denominator):
    basis = standard_basis(n, r)
    report = rank_report(basis, SamplePlan(n, r, denominator=d))
    assert (report.rank, report.points_used, report.denominator) == (rank, points_used, denominator)
    # the walk does not depend on the seed
    assert rank_report(basis, SamplePlan(n, r, seed=1, denominator=d)) == report


def _brute_generic(a, d):
    """No proper nonempty subset of a/d sums to an integer."""
    return all(sum(v for i, v in enumerate(a) if m >> i & 1) % d for m in range(1, (1 << len(a)) - 1))


def _generic_compositions(n, r, d):
    """Brute force: every composition of r*d into n nonnegative parts that
    passes ``_brute_generic``."""
    total = r * d
    out = []
    for head in product(range(total + 1), repeat=n - 1):
        if sum(head) > total:
            continue
        a = (*head, total - sum(head))
        if _brute_generic(a, d):
            out.append(a)
    return sorted(out)


@pytest.mark.parametrize("d", [5, 7, 11])
def test_lattice_is_every_generic_composition_in_order(d):
    for n in range(1, 5):
        for r in range(1, 4):
            expected = _generic_compositions(n, r, d)
            walked = list(_compositions(n, r * d, d))
            assert [a for a, _ in walked] == expected, (n, r)
            for a, sums in walked:
                assert sums == _subset_sums(a), a
            # asked for more, the seeded descent draws every point once
            for seed in range(4):
                plan = SamplePlan(n, r, seed=seed, denominator=d)
                drawn = _sample_numerators(plan, len(expected) + 1)
                assert sorted(drawn) == expected, (n, r, seed)


def test_rank_matches_dimension():
    for n in range(1, 5):
        for r in range(1, 5):
            assert rank_report(standard_basis(n, r), SamplePlan(n, r)).rank == r ** (n - 1)


def test_solve_examples():
    plan = SamplePlan(2, 2)
    basis = standard_basis(2, 2)
    assert solve_in_basis(parse_plate("[[{2}_1 {1}_1]]"), basis, plan) == [1, -1]
    # a standard target is a unit coordinate vector
    assert solve_in_basis(parse_plate("[[{1}_1 {2}_1]]"), basis, plan) == [0, 1]


def test_solve_is_repeatable_and_sound():
    rng = random.Random(17)
    for _ in range(25):
        n, r = rng.randint(1, 4), rng.randint(1, 3)
        plan = SamplePlan(n, r)
        basis = standard_basis(n, r)
        target = rng.choice(list(all_plates(n, r)))
        coeffs = solve_in_basis(target, basis, plan)
        assert coeffs == solve_in_basis(target, basis, plan)
        combo = [(c, b) for c, b in zip(coeffs, basis) if c]
        ok, witness = verify_identity_ae(target, combo, plan)
        assert ok, witness


def test_oracle_expansion_at_n6_r2_reaches_the_next_prime():
    # the D = 7 lattice reaches rank 12 of 32; the solver walks on to D = 11
    # the way rank_report does, so every plate expands under the default plan
    for p in all_plates(6, 2):
        assert oracle_expand(p) == expand(p), str(p)


# every slice with 2 <= n <= 6, r <= 5 and a basis of at most 81 plates
ORACLE_SLICES = [(n, r) for n in range(2, 7) for r in range(1, 6) if r ** (n - 1) <= 81]


def random_slice_plates(st):
    return st.sampled_from(ORACLE_SLICES).flatmap(lambda s: st.sampled_from(list(all_plates(*s))))


@given(random_slice_plates)
def test_oracle_expansion_equals_shuffle_expansion(p):
    # (6, 2) is among the slices: its walk moves on from D = 7 to D = 11
    assert oracle_expand(p) == expand(p), str(p)


def test_solves_share_one_solver_across_seeds(monkeypatch):
    oracle._solver.cache_clear()
    basis = standard_basis(3, 3)
    targets = list(all_plates(3, 3))
    first = [solve_in_basis(t, basis, SamplePlan(3, 3, seed=0)) for t in targets]
    for seed in range(1, 4):
        assert [solve_in_basis(t, basis, SamplePlan(3, 3, seed=seed)) for t in targets] == first
    assert oracle._solver.cache_info().currsize == 1


def test_solve_rejects_a_basis_short_of_full_rank():
    p = parse_plate("[[{1}_1 {2}_1]]")
    with pytest.raises(SpanError, match="rank 1 < 2"):
        solve_in_basis(p, [p, p], SamplePlan(2, 2))
    # a pinned denominator whose lattice cannot reach every chamber
    with pytest.raises(SpanError, match="rank 12 < 32"):
        oracle_expand(parse_plate("[[{2}_1 {1,3,4,5,6}_1]]"), SamplePlan(6, 2, denominator=7))


def test_solve_detects_targets_outside_span():
    # the first half of the standard basis cannot express a generic plate
    plan = SamplePlan(3, 2)
    basis = standard_basis(3, 2)
    with pytest.raises(SpanError, match="almost-everywhere span"):
        solve_in_basis(parse_plate("[[{2,3}_1 {1}_1]]"), basis[:1], plan)


def test_solve_rejects_mismatched_slice():
    with pytest.raises(ValueError):
        solve_in_basis(parse_plate("[[{1}_1 {2}_1]]"), standard_basis(2, 3), SamplePlan(2, 3))
    with pytest.raises(ValueError, match="empty"):
        solve_in_basis(parse_plate("[[{1}_1 {2}_1]]"), [], SamplePlan(2, 2))


def test_ranks_and_solves_reject_a_plan_for_another_slice():
    # unchecked, the walk would score every plate 0 and report rank 0, and a
    # solve would fail as a SpanError instead of a usage error
    target = parse_plate("[[{1}_1 {2,3}_2]]")
    for plan in (SamplePlan(3, 2), SamplePlan(4, 3)):
        with pytest.raises(ValueError, match="plan's slice"):
            rank_report(standard_basis(3, 3), plan)
        with pytest.raises(ValueError, match="plan's slice"):
            solve_in_basis(target, standard_basis(3, 3), plan)
        with pytest.raises(ValueError, match="plan's slice"):
            oracle_expand(target, plan)
    with pytest.raises(ValueError, match="plan's slice"):
        rank_report([*standard_basis(3, 2), parse_plate("[[{1,2,3}_3]]")], SamplePlan(3, 2))
    # identity checks still score a plate of another total as 0
    assert verify_identity_ae(parse_plate("[[{1,2,3}_3]]"), [], SamplePlan(3, 2)) == (True, None)


def test_coefficients_fitted_on_half_predict_other_half():
    plan = SamplePlan(3, 3)
    basis = standard_basis(3, 3)
    target = parse_plate("[[{3}_1 {2}_1 {1}_1]]")
    coeffs = solve_in_basis(target, basis, plan)
    from plates.core import evaluate

    points = _points(plan, 60)
    for x in points[30:]:
        assert sum(c * evaluate(b, x) for c, b in zip(coeffs, basis)) == evaluate(target, x)


def test_verify_identity_examples():
    plan = SamplePlan(2, 2)
    lhs = parse_plate("[[{1,2}_2]]")
    two_cells = [(1, parse_plate("[[{1}_1 {2}_1]]")), (1, parse_plate("[[{2}_1 {1}_1]]"))]
    ok, witness = verify_identity_ae(lhs, two_cells, plan)
    assert ok and witness is None

    ok, witness = verify_identity_ae(lhs, parse_plate("[[{1}_1 {2}_1]]"), plan)
    assert not ok
    assert witness is not None and witness[0] < 1  # fails where x1 < 1

    plan32 = SamplePlan(3, 2)
    base = parse_plate("[[{1}_1 {2,3}_1]]")
    rotations = [(1, rotate(base, t)) for t in range(base.k)]
    ok, _ = verify_identity_ae(parse_plate("[[{1,2,3}_2]]"), rotations, plan32)
    assert ok


def test_cyclic_sum_relation_exhaustive_small():
    for n in range(1, 4):
        for r in range(1, 4):
            plan = SamplePlan(n, r)
            whole = Plate(n, (tuple(range(1, n + 1)),), (r,))
            for p in all_plates(n, r):
                rotations = [(1, rotate(p, t)) for t in range(p.k)]
                ok, witness = verify_identity_ae(whole, rotations, plan)
                assert ok, (str(p), witness)
