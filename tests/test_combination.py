"""Properties of ``exactnum.Combination``, the sparse vector type that plate
vectors and translation-algebra elements share."""

import functools
import operator

import pytest

import plates
from plates.core import standard_basis
from plates.exactnum import CyclotomicNumber
from plates.expansion import PlateVector
from plates.translation import TranslationElement, one
from test_exactnum import fractions, given

SPACES = [(1, 3), (2, 2), (2, 4), (3, 2), (3, 3)]


def coefficients(st, r):
    cyclotomic = st.lists(fractions(st), max_size=r + 1).map(lambda v: CyclotomicNumber(r, v))
    return st.one_of(st.integers(-3, 3), fractions(st), cyclotomic)


def keys(st, kind, n, r):
    if kind is PlateVector:
        return st.sampled_from(standard_basis(n, r))
    # exponents outside 0..r-1 exercise the normalisation mod r
    return st.tuples(*[st.integers(-2 * r, 2 * r)] * (n - 1))


def vectors(st, kind, n, r):
    terms = st.lists(st.tuples(keys(st, kind, n, r), coefficients(st, r)), max_size=6)
    return terms.map(lambda pairs: kind(n, r, pairs))


def families(st):
    """(vectors, scalar): up to five vectors of one kind on one (n, r), and a
    scalar of the field of order r."""

    def draw(space):
        kind, n, r = space
        return st.tuples(st.lists(vectors(st, kind, n, r), min_size=1, max_size=5), coefficients(st, r))

    spaces = [(kind, n, r) for kind in (PlateVector, TranslationElement) for n, r in SPACES]
    return st.sampled_from(spaces).flatmap(draw)


def pairs_of_kinds(st):
    """A plate vector and a translation element on the same (n, r)."""
    return st.sampled_from(SPACES).flatmap(
        lambda nr: st.tuples(vectors(st, PlateVector, *nr), vectors(st, TranslationElement, *nr))
    )


@given(families)
def test_one_pass_sum_equals_the_fold_of_additions(family):
    vs, _ = family
    first = vs[0]
    total = type(first)(first.n, first.r, (term for v in vs for term in v.items()))
    assert total == functools.reduce(operator.add, vs)
    assert all(total.terms.values())  # zeros are dropped


@given(families)
def test_a_vector_minus_itself_is_zero(family):
    vs, _ = family
    for v in vs:
        assert not v - v
        assert v + (-v) == type(v)(v.n, v.r)


@given(families)
def test_scale_distributes_over_addition(family):
    vs, scalar = family
    a, b = vs[0], vs[-1]
    assert (a + b).scale(scalar) == a.scale(scalar) + b.scale(scalar)


@given(pairs_of_kinds)
def test_plate_vectors_and_translation_elements_do_not_mix(pair):
    pv, te = pair
    with pytest.raises(ValueError, match="mismatch"):
        pv + te
    with pytest.raises(ValueError, match="mismatch"):
        te + pv
    assert (pv == te) is False
    assert (te == pv) is False


@pytest.mark.parametrize("operand", [1, 2.5, "x", None])
def test_a_non_combination_operand_raises_type_error(operand):
    element = one(2, 2)
    for apply in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            apply(element, operand)
        with pytest.raises(TypeError):
            apply(operand, element)
    with pytest.raises(TypeError):
        PlateVector(2, 2) + operand
    # mismatched combinations still raise from the mismatch check
    with pytest.raises(ValueError, match="mismatch"):
        element * one(2, 3)
    with pytest.raises(ValueError, match="mismatch"):
        element - one(3, 2)


@pytest.mark.parametrize("n, r", SPACES)
def test_an_absent_coefficient_is_the_shared_zero(n, r):
    for kind, key in ((PlateVector, standard_basis(n, r)[-1]), (TranslationElement, (1,) * (n - 1))):
        empty = kind(n, r)
        zero = empty.coefficient(key)
        assert not zero and zero.order == r and zero.to_fraction() == 0
        assert empty.coefficient(key) is zero and kind(n, r).coefficient(key) is zero
        assert CyclotomicNumber.zero(r) is zero
    plates.clear_caches()
    assert PlateVector(n, r).coefficient(standard_basis(n, r)[0]) == zero
