import copy
import pickle
import random
from fractions import Fraction

import pytest

from plates.characters import character
from plates.combinatorics import Permutation, parse_permutation
from plates.core import (
    Plate,
    PlateParseError,
    all_plates,
    apply_permutation,
    evaluate,
    is_standard,
    parse_plate,
    print_plate,
    rotate,
    standard_basis,
)
from plates.exactnum import CyclotomicNumber
from plates.oracle import SamplePlan, rank_report
from plates.worpitzky import verify_categorified_worpitzky
from matrix_helpers import action_matrix
from reference import all_permutations, lumpings
from test_exactnum import given


def test_parse_examples():
    p = parse_plate("[[{3,5}_1 {1,2,4}_1 {6}_1]]")
    assert p == Plate(6, ((3, 5), (1, 2, 4), (6,)), (1, 1, 1))
    assert parse_plate("[[12_2]]") == Plate(2, ((1, 2),), (2,))
    with pytest.raises(PlateParseError, match="zero position"):
        parse_plate("[[{1}_1 {2}_0]]")


def test_parse_errors():
    with pytest.raises(PlateParseError):
        parse_plate("[[{1}_1 {2}_1")
    with pytest.raises(ValueError, match="overlap"):
        parse_plate("[[{1,2}_1 {2,3}_1]]")
    with pytest.raises(ValueError, match="partition"):
        parse_plate("[[{1}_1 {3}_1]]")
    with pytest.raises(ValueError, match="partition"):
        parse_plate("[[{1,2}_2]]", n=3)
    with pytest.raises(PlateParseError):
        parse_plate("{1}_1")


def test_print_is_canonical_brace_form():
    assert print_plate(parse_plate("[[35_1 124_1 6_1]]")) == "[[{3,5}_1 {1,2,4}_1 {6}_1]]"


def test_compact_digits_limited_to_single_digit_elements():
    # brace form works at any n
    big = parse_plate("[[{1,2,3,4,5,6,7,8,9,10}_1]]")
    assert big.n == 10
    # compact shorthand is ambiguous once elements pass 9
    with pytest.raises(PlateParseError, match="n <= 9"):
        parse_plate("[[123456789_1 {10}_1]]")


def rand_plate(rng, n, r):
    return rng.choice(list(all_plates(n, r)))


def test_parse_print_round_trip_randomized():
    rng = random.Random(21)
    for _ in range(150):
        n, r = rng.randint(1, 6), rng.randint(1, 5)
        p = rand_plate(rng, n, r)
        assert parse_plate(print_plate(p)) == p


def random_plates(st):
    """Plates on n <= 6: a permutation of 1..n cut into lumps where the flags
    say, with positions up to 4."""

    def draw(n):
        return st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
        ).map(lambda t: build(n, *t))

    def build(n, perm, cut_after, positions):
        bounds = [0, *(i + 1 for i, cut in enumerate(cut_after) if cut), n]
        blocks = tuple(perm[a:b] for a, b in zip(bounds, bounds[1:]))
        return Plate(n, blocks, tuple(positions[: len(blocks)]))

    return st.integers(1, 6).flatmap(draw)


@given(random_plates)
def test_parse_print_round_trip_property(p):
    assert parse_plate(print_plate(p)) == p


def test_evaluate_examples():
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert evaluate(p, [Fraction(2), Fraction(0)]) == 1
    assert evaluate(p, [Fraction(1, 2), Fraction(3, 2)]) == 0
    assert evaluate(parse_plate("[[{1,2}_2]]"), [Fraction(1, 2), Fraction(3, 2)]) == 1
    with pytest.raises(ValueError):
        evaluate(p, [Fraction(1)])


def test_evaluate_needs_nonnegative_and_total():
    p = parse_plate("[[{1,2}_2]]")
    assert evaluate(p, [Fraction(3), Fraction(-1)]) == 0
    assert evaluate(p, [Fraction(1), Fraction(2)]) == 0  # total 3 != 2


def test_lumpings():
    p = parse_plate("[[{1}_1 {2}_1 {4}_1 {3}_1]]")
    merged = lumpings(p)
    assert parse_plate("[[{1}_1 {2,4}_2 {3}_1]]") in merged
    assert p in merged
    assert len(merged) == len(set(merged)) == 2 ** (p.k - 1)
    single = parse_plate("[[{1,2}_2]]")
    assert lumpings(single) == [single]
    assert len(lumpings(parse_plate("[[{1}_1 {2}_1 {3}_1]]"))) == 4


def test_lumping_regions_contain_original():
    rng = random.Random(31)
    for _ in range(300):
        n, r = rng.randint(1, 5), rng.randint(1, 4)
        p = rand_plate(rng, n, r)
        x = [Fraction(rng.randint(0, 2 * r), 2) for _ in range(n)]
        if evaluate(p, x):
            for lumped in lumpings(p):
                assert evaluate(lumped, x) == 1


def test_rotate():
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert rotate(p, 1) == parse_plate("[[{2}_1 {1}_1]]")
    q = parse_plate("[[{1}_1 {2}_2 {3}_3]]")
    assert rotate(q, 1) == parse_plate("[[{3}_3 {1}_1 {2}_2]]")
    assert rotate(q, q.k) == q


def test_standard_basis_small():
    assert [print_plate(p) for p in standard_basis(2, 2)] == [
        "[[{1,2}_2]]",
        "[[{1}_1 {2}_1]]",
    ]
    assert len(standard_basis(3, 2)) == 4
    assert len(standard_basis(3, 3)) == 9
    assert all(is_standard(p) for p in standard_basis(4, 3))


def test_standard_basis_count_is_power():
    for n in range(1, 6):
        for r in range(1, 6):
            basis = standard_basis(n, r)
            assert len(basis) == r ** (n - 1)
            assert len(set(basis)) == len(basis)


def test_apply_permutation_examples():
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert apply_permutation(parse_permutation("(1 2)"), p) == parse_plate("[[{2}_1 {1}_1]]")
    assert apply_permutation(Permutation.identity(2), p) == p
    assert apply_permutation(
        parse_permutation("(1 2 3)"), parse_plate("[[{1,2}_1 {3}_1]]")
    ) == parse_plate("[[{2,3}_1 {1}_1]]")


def test_indicator_equivariance_randomized():
    rng = random.Random(41)
    for _ in range(250):
        n, r = rng.randint(1, 5), rng.randint(1, 4)
        p = rand_plate(rng, n, r)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        x = [Fraction(rng.randint(0, 3 * r), 3) for _ in range(n)]
        moved = [x[sigma(i) - 1] for i in range(1, n + 1)]  # sigma^{-1} . x
        assert evaluate(apply_permutation(sigma, p), x) == evaluate(p, moved)


def assert_fully_valid(p):
    """p equals, and hashes like, the same plate built with every check."""
    checked = Plate(p.n, p.blocks, p.positions)
    assert p == checked and hash(p) == hash(checked)
    assert type(p.blocks) is tuple and type(p.positions) is tuple
    assert all(type(b) is tuple and list(b) == sorted(b) for b in p.blocks)


def test_engine_built_plates_pass_full_validation():
    for n in range(1, 5):
        perms = list(all_permutations(n))
        for r in range(1, 5):
            for p in standard_basis(n, r):
                assert_fully_valid(p)
            for p in all_plates(n, r):
                assert_fully_valid(p)
                for t in range(p.k):
                    assert_fully_valid(rotate(p, t))
                for lumped in lumpings(p):
                    assert_fully_valid(lumped)
                for sigma in perms:
                    assert_fully_valid(apply_permutation(sigma, p))


def test_public_constructor_and_relabelling_still_check():
    with pytest.raises(ValueError, match="partition"):
        Plate(3, ((1,), (2,)), (1, 1))
    with pytest.raises(ValueError, match="overlapping"):
        Plate(2, ((1, 2), (2,)), (1, 1))
    with pytest.raises(ValueError, match=">= 1"):
        Plate(2, ((1,), (2,)), (1, 0))
    with pytest.raises(ValueError, match="equal length"):
        Plate(2, ((1, 2),), (1, 1))
    with pytest.raises(ValueError, match="at least one lump"):
        Plate(0, (), ())
    with pytest.raises(ValueError, match="empty lump"):
        Plate(1, ((1,), ()), (1, 1))
    with pytest.raises(ValueError, match="3 letters"):
        apply_permutation(Permutation.identity(3), parse_plate("[[{1}_1 {2}_1]]"))


def test_standard_basis_is_one_shared_tuple():
    first = standard_basis(3, 3)
    assert isinstance(first, tuple) and standard_basis(3, 3) is first


def test_standard_basis_is_the_standard_plates_in_order():
    for n in range(1, 7):
        for r in range(1, 7):
            assert standard_basis(n, r) == tuple(p for p in all_plates(n, r) if is_standard(p))


def test_plates_are_tuple_values():
    # a plate is the tuple (n, blocks, positions): it hashes like it, which
    # fixes dict orders and so --json bytes, equals it, and survives pickling
    # and deep copies as a Plate
    for n in range(1, 5):
        for r in range(1, 5):
            for p in all_plates(n, r):
                plain = (p.n, p.blocks, p.positions)
                assert hash(p) == hash(plain) and p == plain
                for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                    assert type(q) is Plate and q == p and hash(q) == hash(p)
    p = parse_plate("[[{1,2,3}_1 {4}_2]]")
    assert repr(p) == "Plate(n=4, blocks=((1, 2, 3), (4,)), positions=(1, 2))"
    assert Plate(n=4, blocks=[[3, 2, 1], [4]], positions=[1, 2]) == p


def test_every_way_to_rebuild_a_plate_checks_it():
    p = parse_plate("[[{1}_1 {2}_1]]")
    assert p._replace(positions=(2, 1)) == parse_plate("[[{1}_2 {2}_1]]")
    with pytest.raises(ValueError, match="partition"):
        p._replace(n=3)
    # unpickling and copying go through Plate(...), so a forged plate fails there
    forged = Plate._trusted(2, ((1,),), (1,))
    with pytest.raises(ValueError, match="partition"):
        pickle.loads(pickle.dumps(forged))
    with pytest.raises(ValueError, match="partition"):
        copy.deepcopy(forged)


def _records():
    chi = character("formula", 3, 2)
    return [
        Permutation((2, 3, 1)),
        SamplePlan(4, 3),
        SamplePlan(3, 2, seed=5, denominator=7),
        rank_report(standard_basis(2, 2), SamplePlan(2, 2)),
        chi,
        chi.scale(CyclotomicNumber.from_rational(2, 3)),  # cyclotomic values
        action_matrix(Permutation((2, 1)), 2, 3),
    ]


def test_records_are_tuple_values():
    # every record hashes like its field tuple, as the frozen dataclasses did,
    # so cache keys and dict orders (and --json bytes) are unchanged; it equals
    # that tuple, keeps the dataclass repr, and survives pickling and copying
    for x in _records():
        plain = tuple(getattr(x, f) for f in x._fields)
        assert hash(x) == hash(plain) and x == plain
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
        assert repr(x) == f"{type(x).__name__}({fields})"
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), x._replace()):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert repr(SamplePlan(4, 3)) == "SamplePlan(n=4, r=3, seed=0, denominator=None)"
    assert repr(Permutation((2, 1))) == "Permutation(images=(2, 1))"


def test_every_way_to_rebuild_a_record_checks_it():
    sigma, plan = Permutation((2, 1)), SamplePlan(3, 2)
    assert sigma._replace(images=(1, 2)) == Permutation.identity(2)
    assert Permutation([2, 1]) == sigma and hash(Permutation([2, 1])) == hash(sigma)
    assert plan._replace(denominator=5).resolved_denominator == 5
    with pytest.raises(ValueError, match="not a permutation"):
        sigma._replace(images=(1, 1))
    with pytest.raises(ValueError, match="prime > n"):
        plan._replace(denominator=4)
    with pytest.raises(ValueError, match=">= 1"):
        plan._replace(r=0)
    # unpickling and copying go through SamplePlan(...), so a forged plan fails there
    forged = tuple.__new__(SamplePlan, (3, 2, 0, 3))
    with pytest.raises(ValueError, match="prime > n"):
        pickle.loads(pickle.dumps(forged))
    with pytest.raises(ValueError, match="prime > n"):
        copy.deepcopy(forged)


def test_records_do_not_repeat_like_tuples():
    # a tuple subclass with __mul__ but no __rmul__ would repeat itself
    sigma, chi = Permutation((2, 3, 1)), character("formula", 3, 2)
    for x in (sigma, chi):
        with pytest.raises(TypeError):
            2 * x
    assert sigma * sigma == sigma.inverse()
    assert (chi * chi).values == (((3,), 1), ((2, 1), 4), ((1, 1, 1), 16))


def test_worpitzky_report_is_a_value():
    report = verify_categorified_worpitzky(3, 6)
    assert report == tuple(getattr(report, f) for f in report._fields)
    assert report == verify_categorified_worpitzky(3, 6)
    assert pickle.loads(pickle.dumps(report)) == report
    assert list(report.to_json()) == list(report._fields)
