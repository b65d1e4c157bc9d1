import itertools
import math
import random

import pytest

from plates.combinatorics import (
    Permutation,
    PermutationParseError,
    class_size,
    enumerate_compositions,
    enumerate_osp,
    eulerian,
    eulerian_row,
    parse_permutation,
    partition_zee,
    partitions,
    permutation_with_cycle_type,
)
from reference import all_permutations


def test_eulerian_table_values():
    assert eulerian(0, 0) == 1
    assert eulerian(1, 1) == 4
    assert eulerian(1, 2) == 11 and eulerian(2, 1) == 11
    assert all(eulerian(0, j) == 1 for j in range(8))
    assert eulerian_row(5) == [1, 26, 66, 26, 1]


def test_eulerian_symmetry_and_row_sums():
    for n in range(1, 8):
        row = eulerian_row(n)
        assert row == row[::-1]
        assert sum(row) == math.factorial(n)


def test_permutation_parsing():
    assert parse_permutation("(1 2 3)").images == (2, 3, 1)
    assert parse_permutation("[2,1,4,3]").to_cycle_string() == "(1 2)(3 4)"
    assert parse_permutation("(1 2)(3 4)") == parse_permutation("[2,1,4,3]")
    assert parse_permutation("(2 3)", n=4).images == (1, 3, 2, 4)
    with pytest.raises(PermutationParseError):
        parse_permutation("(1 2")
    with pytest.raises(ValueError):
        parse_permutation("[1,1]")
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(2 3)")


def test_parse_print_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert parse_permutation(p.to_one_line()) == p
        assert parse_permutation(p.to_cycle_string(), n=n) == p


def test_composition_and_inverse():
    s, t = parse_permutation("(1 2)"), parse_permutation("(1 2)")
    assert s * t == Permutation.identity(2)
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 7)
        p = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        q = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        # p * q applies q first
        for i in range(1, n + 1):
            assert (p * q)(i) == p(q(i))
        assert p * p.inverse() == Permutation.identity(n)


def test_product_of_different_sizes_is_rejected():
    with pytest.raises(ValueError, match="size mismatch"):
        Permutation((2, 1)) * Permutation.identity(3)


def test_cycle_types():
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)
    assert parse_permutation("(1 2)(3 4)").cycle_type() == (2, 2)
    assert parse_permutation("(1 2 3)").cycle_type() == (3,)


def test_cycle_type_conjugation_invariant():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 6)
        p = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        g = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        conj = g * p * g.inverse()
        assert conj.cycle_type() == p.cycle_type()


def test_compositions():
    assert enumerate_compositions(2, 2) == [(1, 1)]
    assert enumerate_compositions(3, 2) == [(1, 2), (2, 1)]
    assert enumerate_compositions(4, 3) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    for r in range(1, 8):
        for k in range(1, r + 1):
            comps = enumerate_compositions(r, k)
            assert len(comps) == math.comb(r - 1, k - 1)
            assert comps == sorted(comps)
            assert all(sum(c) == r and min(c) >= 1 for c in comps)


def test_ordered_set_partitions():
    assert enumerate_osp(3, 2, one_first=True) == [
        ((1,), (2, 3)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    ]
    assert len(enumerate_osp(3, 3, one_first=True)) == 2
    assert enumerate_osp(2, 1) == [((1, 2),)]
    with pytest.raises(ValueError):
        enumerate_osp(2, 3)


def ordered_bell(n: int) -> int:
    """Number of ordered set partitions of an n-set, by direct recursion."""
    if n == 0:
        return 1
    return sum(math.comb(n, i) * ordered_bell(n - i) for i in range(1, n + 1))


def test_osp_counts_against_ordered_bell():
    for n in range(1, 7):
        assert sum(len(enumerate_osp(n, k)) for k in range(1, n + 1)) == ordered_bell(n)


def _filtered_osp(n, k, one_first):
    """Every assignment of 1..n to k blocks, keeping the surjective ones."""
    out = []
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) == k and not (one_first and assign[0] != 0):
            out.append(tuple(tuple(e for e in range(1, n + 1) if assign[e - 1] == b) for b in range(k)))
    return sorted(out)


def test_osp_equals_the_filtered_construction():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for one_first in (False, True):
                assert enumerate_osp(n, k, one_first) == _filtered_osp(n, k, one_first), (n, k, one_first)


def test_osp_rotation_classes_have_unique_standard_member():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for blocks in enumerate_osp(n, k):
                rotations = [blocks[t:] + blocks[:t] for t in range(k)]
                assert sum(1 for rot in rotations if 1 in rot[0]) == 1


def test_partitions_and_class_sizes():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(1, 8):
        assert sum(class_size(lam) for lam in partitions(n)) == math.factorial(n)
        for lam in partitions(n):
            assert class_size(lam) * partition_zee(lam) == math.factorial(n)


def test_class_sizes_by_enumeration():
    for n in range(1, 6):
        counts = {}
        for p in all_permutations(n):
            counts[p.cycle_type()] = counts.get(p.cycle_type(), 0) + 1
        assert counts == {lam: class_size(lam) for lam in partitions(n)}


def test_representative_has_requested_type():
    for n in range(1, 7):
        for lam in partitions(n):
            assert permutation_with_cycle_type(lam).cycle_type() == lam


def test_partitions_list_is_the_callers_own():
    first = partitions(5)
    expected = list(first)
    first[0] = (9,)
    first.append(())
    assert partitions(5) == expected
