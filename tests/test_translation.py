import itertools
import random

import pytest

from plates import translation
from plates.characters import gcd_formula, plate_character
from plates.combinatorics import (
    Permutation,
    parse_permutation,
    partitions,
    permutation_with_cycle_type,
)
from plates.exactnum import CyclotomicNumber, q_pow, zeta_pow
from plates.translation import (
    TranslationElement,
    admissible_labels,
    diophantine_count,
    fixed_label_count,
    generator,
    idempotent,
    normalize_word,
    one,
    ta_act,
    ta_trace,
    verify_partition_of_unity,
)
from reference import all_permutations, basis_exponents, monomial, product_idempotent
from test_exactnum import given


def test_normal_form_examples():
    # e_1 = q e_2^{r-1} ... e_n^{r-1}
    assert normalize_word(2, 3, [(1, 1)]) == monomial(2, 3, (2,), q_pow(3, 1))
    assert normalize_word(3, 4, [(1, 1)]) == monomial(3, 4, (3, 3), q_pow(4, 1))
    # e_1 e_2 ... e_n = q
    assert normalize_word(3, 4, [(1, 1), (2, 1), (3, 1)]) == one(3, 4).scale(q_pow(4, 1))
    # e_i^r = 1
    assert normalize_word(2, 5, [(2, 5)]) == one(2, 5)


def test_multiplication_is_exponent_addition():
    a = monomial(3, 4, (1, 2))
    b = monomial(3, 4, (3, 3))
    assert a * b == monomial(3, 4, (0, 1))
    rng = random.Random(3)
    for _ in range(40):
        n, r = rng.randint(2, 4), rng.randint(2, 5)
        e1 = tuple(rng.randrange(r) for _ in range(n - 1))
        e2 = tuple(rng.randrange(r) for _ in range(n - 1))
        prod = monomial(n, r, e1) * monomial(n, r, e2)
        assert prod == monomial(n, r, tuple((a + b) % r for a, b in zip(e1, e2)))


def test_action_examples():
    swap = parse_permutation("(1 2)")
    assert ta_act(swap, generator(2, 3, 2)) == monomial(2, 3, (2,), q_pow(3, 1))
    g = monomial(2, 3, (1,))
    assert ta_act(swap, ta_act(swap, g)) == g
    elt = monomial(3, 3, (1, 2)) + monomial(3, 3, (0, 1)).scale(q_pow(3, 1))
    assert ta_act(Permutation.identity(3), elt) == elt


def test_action_matrices_are_monomial():
    for n, r in [(2, 4), (3, 3), (4, 2)]:
        for lam in partitions(n):
            sigma = permutation_with_cycle_type(lam)
            images = set()
            for exps in basis_exponents(n, r):
                ((image, coeff),) = ta_act(sigma, monomial(n, r, exps)).items()
                assert any(coeff == zeta_pow(r, k) for k in range(r))  # root of unity
                images.add(image)
            assert len(images) == r ** (n - 1)  # a permutation of the basis


def test_trace_examples():
    assert ta_trace(parse_permutation("(1 2)"), 2, 3).to_fraction() == 1
    assert ta_trace(Permutation.identity(3), 3, 3).to_fraction() == 9
    assert ta_trace(parse_permutation("(1 2 3)"), 3, 3).to_fraction() == 0


def test_diophantine_examples():
    assert diophantine_count((2, 1), 10) == 10
    assert diophantine_count((3,), 10) == 1
    assert diophantine_count((3,), 3) == 0


def test_diophantine_closed_form_path():
    # 6^10 tuples, far beyond enumeration: the residue DP counts them exactly
    lam = (1,) * 10
    assert diophantine_count(lam, 6) == 6**9
    assert diophantine_count((2,) * 10, 6) == 0


def test_diophantine_matches_enumeration():
    for k in range(1, 6):
        for lam in partitions(k):
            for r in range(1, 9):
                brute = sum(
                    1
                    for xs in itertools.product(range(r), repeat=len(lam))
                    if sum(l * x for l, x in zip(lam, xs)) % r == 1 % r
                )
                assert diophantine_count(lam, r) == brute, (lam, r)


def test_trace_matches_per_monomial_sum():
    # (2, 43) packs the basis into two-byte fields
    for n, r in [(1, 3), (1, 20), (2, 5), (2, 17), (2, 43), (3, 1), (3, 4), (3, 6), (3, 9), (4, 3)]:
        for sigma in all_permutations(n):
            acc = CyclotomicNumber.zero(r)
            for exps in basis_exponents(n, r):
                ((image, coeff),) = ta_act(sigma, monomial(n, r, exps)).items()
                if image == exps:
                    acc = acc + coeff
            assert ta_trace(sigma, n, r) == acc, (sigma, n, r)


def test_four_way_character_agreement():
    for n in range(1, 6):
        for r in range(1, 7):
            for lam in partitions(n):
                sigma = permutation_with_cycle_type(lam)
                trace = ta_trace(sigma, n, r)
                assert trace.is_rational()
                value = trace.to_fraction()
                assert value == fixed_label_count(sigma, n, r)
                assert value == diophantine_count(lam, r)
                assert value == gcd_formula(lam, r)


def test_translation_matches_plate_character():
    for n in range(1, 5):
        for r in range(1, 5):
            chi = plate_character(n, r)
            for lam in partitions(n):
                sigma = permutation_with_cycle_type(lam)
                assert ta_trace(sigma, n, r).to_fraction() == chi.at(lam)


def test_fixed_labels_fig_values():
    assert fixed_label_count(parse_permutation("(1 2)", n=3), 3, 10) == 10
    assert fixed_label_count(parse_permutation("(1 2 3)"), 3, 10) == 1
    assert fixed_label_count(Permutation.identity(3), 3, 10) == 100


def test_admissible_labels():
    assert len(admissible_labels(3, 2)) == 4
    for n in range(2, 5):
        for r in range(2, 5):
            labels = admissible_labels(n, r)
            assert len(labels) == r ** (n - 1)
            assert all(sum(label) % r == 1 for label in labels)


def test_idempotent_examples():
    eps = idempotent((1, 0), 2)
    e1 = generator(2, 2, 1)
    assert e1 * eps == eps.scale(q_pow(2, 1))  # eigenvalue q = -1
    assert eps * eps == eps
    with pytest.raises(ValueError, match="admissible"):
        idempotent((0, 0), 2)
    with pytest.raises(ValueError):
        idempotent((0, 5), 3)


def test_idempotent_closed_form_matches_product_form():
    sizes = [*itertools.product(range(1, 5), range(1, 5)), (2, 5), (2, 6), (3, 5), (5, 2)]
    for n, r in sizes:
        for label in admissible_labels(n, r):
            assert idempotent(label, r) == product_idempotent(label, r), (n, r, label)


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_partition_of_unity(n, r):
    ok, details = verify_partition_of_unity(n, r)
    assert ok, details
    assert details["pair_mode"] == "exhaustive"


def test_partition_of_unity_sampled_mode(monkeypatch):
    # force the sampled-pair path with a tiny cap; the algebra stays small
    monkeypatch.setattr(translation, "_EXHAUSTIVE_CAP", 4)
    monkeypatch.setattr(translation, "_SAMPLE_PAIRS", 20)
    ok, details = verify_partition_of_unity(3, 3)
    assert ok, details
    assert details["pair_mode"] == "sampled"
    assert details["checked_pairs"] == 20


def _elements(st):
    """(x, y, z): three elements of one algebra with n <= 3 and r <= 6 (n = 1
    and r in {1, 2} included), possibly empty, whose coefficients have
    negative, fractional and above-2^64 numerators."""
    big = st.integers(-(2**80), 2**80)
    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    scalar = st.one_of(big, small, big.map(lambda a: a / 7))

    def draw(nr):
        n, r = nr
        exps = st.tuples(*[st.integers(0, r - 1)] * (n - 1))
        coeff = st.lists(scalar, max_size=r + 1).map(lambda v: CyclotomicNumber(r, v))
        elt = st.dictionaries(exps, coeff, max_size=r ** (n - 1)).map(
            lambda terms: TranslationElement(n, r, terms)
        )
        return st.tuples(elt, elt, elt)

    return st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 5, 6])).flatmap(draw)


def _schoolbook(x, y):
    """The convolution, one CyclotomicNumber product per pair of terms."""
    terms = [
        (tuple((a + b) % x.r for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in x.items()
        for e2, c2 in y.items()
    ]
    return TranslationElement(x.n, x.r, terms)


@given(_elements)
def test_product_matches_schoolbook_convolution(drawn):
    x, y, z = drawn
    xy = x * y
    assert xy == _schoolbook(x, y)
    assert all(c for c in xy.terms.values())
    assert xy == y * x
    assert xy * z == x * (y * z)


def test_mismatched_algebras_rejected():
    with pytest.raises(ValueError):
        one(2, 2) + one(2, 3)
    with pytest.raises(ValueError):
        one(2, 2) * one(3, 2)
    with pytest.raises(ValueError):
        ta_act(parse_permutation("(1 2)"), one(3, 2))
