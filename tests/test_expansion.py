import itertools
import random
from fractions import Fraction

import pytest

from plates.combinatorics import (
    Permutation,
    enumerate_compositions,
    enumerate_osp,
    parse_permutation,
)
from plates.core import (
    Plate,
    all_plates,
    apply_permutation,
    parse_plate,
    print_plate,
    rotate,
    standard_basis,
)
from plates.exactnum import q_pow
from plates.expansion import (
    PlateVector,
    expand,
    lumped_shuffles,
    oracle_expand,
    qbasis_is_invertible,
    qbasis_matrix,
    qplate,
    qplate_expand,
)
from plates.oracle import SamplePlan, verify_identity_ae
from test_exactnum import given


def as_fraction_terms(vec):
    return {print_plate(p): c.to_fraction() for p, c in vec.items()}


def rand_plate(rng, n, r):
    return rng.choice(list(all_plates(n, r)))


def act(sigma, v):
    """sigma . v term by term: expand(sigma . p) for each standard plate p."""
    images = ((c, expand(apply_permutation(sigma, p))) for p, c in v.items())
    return PlateVector.combine(v.n, v.r, images)


# ---------------------------------------------------------------------------
# lumped shuffles


def test_lumped_shuffles_interface_example():
    # two-lump A against a singleton B, unit positions
    a = [((1, 2, 4), 1), ((3, 5), 1)]
    b = [((6,), 1)]
    results = {tuple(seq) for seq, _ in lumped_shuffles(a, b)}
    assert results == {
        (((1, 2, 4), 1), ((3, 5), 1), ((6,), 1)),
        (((1, 2, 4), 1), ((6,), 1), ((3, 5), 1)),
        (((1, 2, 4), 1), ((3, 5, 6), 2)),
        (((1, 2, 3, 4, 5), 2), ((6,), 1)),
    }


def test_lumped_shuffles_empty_b():
    a = [((1,), 1), ((2,), 1)]
    results = {tuple(seq) for seq, _ in lumped_shuffles(a, [])}
    assert results == {
        (((1,), 1), ((2,), 1)),
        (((1, 2), 2),),
    }


def test_lumped_shuffles_singletons():
    # B never merges into the lump containing 1: only the pure shuffle remains
    results = [seq for seq, _ in lumped_shuffles([((1,), 1)], [((2,), 2)])]
    assert results == [(((1,), 1), ((2,), 2))]


def test_lumped_shuffles_requires_leading_one():
    with pytest.raises(ValueError):
        lumped_shuffles([((2,), 1)], [((1,), 1)])


# ---------------------------------------------------------------------------
# expansion


def test_expand_standard_is_identity():
    for n in range(1, 5):
        for r in range(1, 4):
            for p in standard_basis(n, r):
                assert expand(p) == PlateVector(p.n, p.r, {p: 1})


def test_expand_terms_pass_full_validation():
    for n in range(1, 5):
        for r in range(1, 5):
            for p in all_plates(n, r):
                for term in expand(p).terms:
                    checked = Plate(term.n, term.blocks, term.positions)
                    assert term == checked and hash(term) == hash(checked)
                    assert all(list(b) == sorted(b) for b in term.blocks)


def test_expand_two_lump_swap():
    v = expand(parse_plate("[[{2}_1 {1}_1]]"))
    assert as_fraction_terms(v) == {
        "[[{1,2}_2]]": 1,
        "[[{1}_1 {2}_1]]": -1,
    }


def test_expand_first_worked_example_unit_positions():
    v = expand(parse_plate("[[{3,5}_1 {1,2,4}_1 {6}_1]]"))
    assert as_fraction_terms(v) == {
        "[[{1,2,4}_1 {3,5,6}_2]]": 1,
        "[[{1,2,3,4,5}_2 {6}_1]]": 1,
        "[[{1,2,4}_1 {6}_1 {3,5}_1]]": -1,
        "[[{1,2,4}_1 {3,5}_1 {6}_1]]": -1,
    }


def test_expand_second_worked_example_unit_positions():
    v = expand(parse_plate("[[{3,5}_1 {1,2,4}_1 {6}_1 {7}_1]]"))
    assert as_fraction_terms(v) == {
        "[[{1,2,4}_1 {6}_1 {3,5,7}_2]]": 1,
        "[[{1,2,4}_1 {3,5,6}_2 {7}_1]]": 1,
        "[[{1,2,3,4,5}_2 {6}_1 {7}_1]]": 1,
        "[[{1,2,4}_1 {6}_1 {7}_1 {3,5}_1]]": -1,
        "[[{1,2,4}_1 {6}_1 {3,5}_1 {7}_1]]": -1,
        "[[{1,2,4}_1 {3,5}_1 {6}_1 {7}_1]]": -1,
    }


def test_expand_worked_examples_general_positions_certified_ae():
    # distinct positions pin down the merged-lump position sums
    src = parse_plate("[[{3,5}_2 {1,2,4}_1 {6}_3]]")
    vec = expand(src)
    # the {3,5,6} lump carries position b+c = 2+3, not the misprinted a+c
    merged = [p for p, _ in vec.items() if p.blocks == ((1, 2, 4), (3, 5, 6))]
    assert len(merged) == 1 and merged[0].positions == (1, 5)
    ok, witness = verify_identity_ae(src, vec, SamplePlan(6, 6, denominator=23))
    assert ok, witness

    src7 = parse_plate("[[{3,5}_2 {1,2,4}_1 {6}_3 {7}_4]]")
    vec7 = expand(src7)
    merged7 = [p for p, _ in vec7.items() if p.blocks == ((1, 2, 4), (3, 5, 6), (7,))]
    assert len(merged7) == 1 and merged7[0].positions == (1, 5, 4)
    ok, witness = verify_identity_ae(src7, vec7, SamplePlan(7, 10, denominator=101))
    assert ok, witness


def test_dual_engine_agreement_small():
    for n in range(1, 4):
        for r in range(1, 4):
            plan = SamplePlan(n, r)
            for p in all_plates(n, r):
                assert expand(p) == oracle_expand(p, plan), print_plate(p)


def test_expand_sound_ae_randomized():
    rng = random.Random(23)
    for _ in range(20):
        n, r = rng.randint(1, 5), rng.randint(1, 4)
        p = rand_plate(rng, n, r)
        ok, witness = verify_identity_ae(p, expand(p), SamplePlan(n, r, denominator=13))
        assert ok, (print_plate(p), witness)


def test_expansion_coefficients_are_signs():
    rng = random.Random(29)
    for _ in range(60):
        n, r = rng.randint(1, 5), rng.randint(1, 4)
        v = expand(rand_plate(rng, n, r))
        assert all(c.to_fraction() in (1, -1) for _, c in v.items())


# ---------------------------------------------------------------------------
# plate-vector arithmetic


def test_vector_linear_ops():
    p = parse_plate("[[{1}_1 {2}_1]]")
    v = expand(parse_plate("[[{2}_1 {1}_1]]"))
    assert not (v - v)
    assert v + (-v) == PlateVector(2, 2)
    assert not v.scale(0)
    assert v.scale(Fraction(1, 2)) + v.scale(Fraction(1, 2)) == v
    assert PlateVector(p.n, p.r, {p: 1}).coefficient(p) == 1


def test_vector_permutation_action():
    p = parse_plate("[[{1}_1 {2}_1]]")
    v = PlateVector(p.n, p.r, {p: 1})
    swapped = act(parse_permutation("(1 2)"), v)
    assert as_fraction_terms(swapped) == {"[[{1,2}_2]]": 1, "[[{1}_1 {2}_1]]": -1}
    assert act(Permutation.identity(2), v) == v


def test_vector_action_is_homomorphism():
    rng = random.Random(37)
    for _ in range(20):
        n, r = rng.randint(2, 4), rng.randint(1, 3)
        v = expand(rand_plate(rng, n, r))
        s = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        t = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert act(s * t, v) == act(s, act(t, v))


def test_qplate_action_is_the_expansion_of_the_moved_plate():
    # sigma . qplate(p) = qplate(sigma . p): the action commutes with rotation,
    # so the CLI expands the moved plate instead of acting term by term
    for n, r in ((2, 3), (3, 2), (3, 3), (4, 2)):
        perms = [Permutation(images) for images in itertools.permutations(range(1, n + 1))]
        for p in all_plates(n, r):
            vec = qplate_expand(p)
            for sigma in perms:
                moved = qplate_expand(apply_permutation(sigma, p))
                want = act(sigma, vec)
                assert moved == want and moved.to_json() == want.to_json()


def test_vector_type_checks():
    with pytest.raises(ValueError, match="mismatch"):
        expand(parse_plate("[[{1}_1 {2}_1]]")) + expand(parse_plate("[[{1}_1 {2}_2]]"))
    p = parse_plate("[[{2}_1 {1}_1]]")
    with pytest.raises(ValueError, match="standard"):
        PlateVector(p.n, p.r, {p: 1})


# ---------------------------------------------------------------------------
# q-plates


def test_qplate_two_lumps():
    qp = qplate(parse_plate("[[{1}_1 {2}_1]]"))
    terms = [(c.to_fraction(), print_plate(p)) for c, p in qp.expansion]
    assert terms == [(1, "[[{1}_1 {2}_1]]"), (-1, "[[{2}_1 {1}_1]]")]


def test_qplate_expand_two_lumps():
    v = qplate_expand(parse_plate("[[{1}_1 {2}_1]]"))
    assert as_fraction_terms(v) == {"[[{1}_1 {2}_1]]": 2, "[[{1,2}_2]]": -1}


def test_qplate_four_cycle_weights():
    qp = qplate(parse_plate("[[{1}_1 {2}_1 {3}_1 {4}_1]]"))
    coeffs = [c for c, _ in qp.expansion]
    # q^{-s} with s = 0, 1, 2, 3 positions moved to the front
    assert coeffs == [q_pow(4, 0), q_pow(4, -1), q_pow(4, -2), q_pow(4, -3)]
    rotated = [print_plate(p) for _, p in qp.expansion]
    assert rotated == [
        "[[{1}_1 {2}_1 {3}_1 {4}_1]]",
        "[[{4}_1 {1}_1 {2}_1 {3}_1]]",
        "[[{3}_1 {4}_1 {1}_1 {2}_1]]",
        "[[{2}_1 {3}_1 {4}_1 {1}_1]]",
    ]


def test_qplate_rotation_covariance():
    # qplate(rotate(p, t)) = q^{s} qplate(p), s = positions moved to the front
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        blocks = rng.choice(enumerate_osp(n, k))
        r = rng.randint(k, k + 3)
        comp = rng.choice(enumerate_compositions(r, k))
        p = Plate(n, blocks, comp)
        t = rng.randint(1, k - 1)
        moved = sum(p.positions[p.k - t :])
        assert qplate_expand(rotate(p, t)) == qplate_expand(p).scale(q_pow(r, moved))


def plates_with_a_turn(st):
    """(p, t): a plate on n in 2..4 with r in 2..5, and a rotation 0 <= t < k."""

    def draw(nr):
        plates = st.sampled_from(list(all_plates(*nr)))
        return plates.flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p.k - 1)))

    return st.tuples(st.integers(2, 4), st.integers(2, 5)).flatmap(draw)


@given(plates_with_a_turn)
def test_qplate_rotation_covariance_property(case):
    p, t = case
    moved = sum(p.positions[p.k - t :])
    assert qplate_expand(rotate(p, t)) == qplate_expand(p).scale(q_pow(p.r, moved))


def test_qbasis_matrix_small():
    rows, basis = qbasis_matrix(2, 2)
    assert [print_plate(b) for b in basis] == ["[[{1,2}_2]]", "[[{1}_1 {2}_1]]"]
    assert [[c.to_fraction() for c in row] for row in rows] == [[1, 0], [-1, 2]]
    rows1, _ = qbasis_matrix(2, 1)
    assert [[c.to_fraction() for c in row] for row in rows1] == [[1]]


def test_qbasis_invertibility():
    for n in range(1, 4):
        for r in range(1, 4):
            assert qbasis_is_invertible(qbasis_matrix(n, r)[0]), (n, r)
