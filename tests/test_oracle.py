import random
from itertools import product

import pytest

from plates import oracle
from plates.core import Plate, all_plates, evaluate, parse_plate, rotate, standard_basis
from plates.oracle import (
    SamplePlan,
    SpanError,
    next_prime_above,
    rank_of_span,
    rank_report,
    sample_generic,
    solve_in_basis,
    verify_identity_ae,
    _flag_test,
    _holds,
    _is_generic,
    _lattice,
    _sample_numerators,
    _subset_sums,
)


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


def test_genericity_predicate():
    # (3/5, 7/5): x1 = 3/5 is not an integer -> generic
    assert _is_generic([3, 7], 5)
    # (1, 1) over denominator 5 -> (5/5, 5/5): x1 integer -> rejected
    assert not _is_generic([5, 5], 5)


def test_sampled_points_are_generic_and_on_slice():
    plan = SamplePlan(4, 3)
    d = plan.resolved_denominator
    for x in sample_generic(plan, 40):
        assert sum(x) == 3
        assert all(v >= 0 for v in x)
        # no proper nonempty subset sums to an integer
        n = len(x)
        for mask in range(1, (1 << n) - 1):
            s = sum(x[i] for i in range(n) if mask >> i & 1)
            assert s.denominator != 1


def test_sampling_is_deterministic_with_prefix_property():
    plan = SamplePlan(3, 2, seed=5)
    first = sample_generic(plan, 6)
    assert first == sample_generic(plan, 6)
    assert first == sample_generic(plan, 12)[:6]
    # a different seed gives different points
    assert first != sample_generic(SamplePlan(3, 2, seed=6), 6)


def test_rank_examples():
    assert rank_of_span(standard_basis(2, 2), SamplePlan(2, 2)) == 2
    assert rank_of_span(standard_basis(3, 3), SamplePlan(3, 3)) == 9
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rank_of_span([p, p], SamplePlan(2, 2)) == 1
    report = rank_report(standard_basis(3, 2), SamplePlan(3, 2))
    assert report.denominator == 5 and report.rank == 4 and report.points_used > 0


def test_integer_flag_test_matches_evaluate():
    for n, r in ((3, 3), (4, 3), (5, 2)):
        plan = SamplePlan(n, r, seed=3)
        numerators = _sample_numerators(plan, 20)
        points = sample_generic(plan, 20)
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
    assert rank_of_span(standard_basis(3, 3), SamplePlan(3, 3)) == 9
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rank_of_span([p, p], SamplePlan(2, 2)) == 1
    assert rank_of_span(list(all_plates(3, 2)), SamplePlan(3, 2)) == 4
    assert rank_of_span(list(all_plates(4, 2)), SamplePlan(4, 2)) == 8
    if prime == 2:
        assert fallbacks  # the GF(2) rank of all plates is short over Q


def test_rank_stops_at_full_rank():
    for seed in range(4):
        report = rank_report(standard_basis(4, 5), SamplePlan(4, 5, seed=seed))
        assert report.rank == 125 and report.denominator == 5, seed


def _generic_compositions(n, r, d):
    """Brute force: every composition of r*d into n nonnegative parts, kept
    when no proper nonempty subset of a/d sums to an integer."""
    total = r * d
    subsets = range(1, (1 << n) - 1)
    out = []
    for head in product(range(total + 1), repeat=n - 1):
        if sum(head) > total:
            continue
        a = (*head, total - sum(head))
        if all(sum(v for i, v in enumerate(a) if m >> i & 1) % d for m in subsets):
            out.append(a)
    return sorted(out)


@pytest.mark.parametrize("d", [5, 7])
def test_lattice_is_every_generic_composition_in_order(d):
    for n in range(1, 5):
        for r in range(1, 4):
            expected = _generic_compositions(n, r, d)
            assert list(_lattice(n, r, d)) == expected, (n, r)
            # the seeded sampler draws from the same set
            for seed in range(4):
                drawn = _sample_numerators(SamplePlan(n, r, seed=seed, denominator=d), 30)
                assert set(drawn) <= set(expected), (n, r, seed)


def test_rank_matches_dimension():
    for n in range(1, 5):
        for r in range(1, 5):
            assert rank_of_span(standard_basis(n, r), SamplePlan(n, r)) == r ** (n - 1)


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


def test_solve_detects_targets_outside_span():
    # the first half of the standard basis cannot express a generic plate
    plan = SamplePlan(3, 2)
    basis = standard_basis(3, 2)
    with pytest.raises(SpanError, match="almost-everywhere span"):
        solve_in_basis(parse_plate("[[{2,3}_1 {1}_1]]"), basis[:1], plan)


def test_solve_rejects_mismatched_slice():
    with pytest.raises(ValueError):
        solve_in_basis(parse_plate("[[{1}_1 {2}_1]]"), standard_basis(2, 3), SamplePlan(2, 3))


def test_coefficients_fitted_on_half_predict_other_half():
    plan = SamplePlan(3, 3)
    basis = standard_basis(3, 3)
    target = parse_plate("[[{3}_1 {2}_1 {1}_1]]")
    coeffs = solve_in_basis(target, basis, plan)
    from plates.core import evaluate

    points = sample_generic(plan, 60)
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
