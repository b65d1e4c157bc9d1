import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from plates import exactnum
from plates.exactnum import (
    CyclotomicNumber,
    OrderMismatchError,
    cyclotomic_polynomial,
    euler_phi,
    q_pow,
    zeta_pow,
)
from plates.expansion import qbasis_matrix
from reference import cyclotomic_text


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # x^4 - x^2 + 1, frozen from dividing x^12 - 1 by the proper-divisor factors
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("r", range(1, 21))
def test_cyclotomic_product_over_divisors(r):
    # independent check: prod_{d | r} Phi_d == x^r - 1
    prod = [1]
    for d in range(1, r + 1):
        if r % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [0] * (r + 1)
    expected[0], expected[r] = -1, 1
    assert prod == expected


def test_zeta_pow_examples():
    assert zeta_pow(2, 1) == -1
    assert zeta_pow(4, 2) == -1
    assert zeta_pow(3, 4) == zeta_pow(3, 1)  # exponent mod r


def test_field_op_examples():
    assert zeta_pow(4, 1) * zeta_pow(4, 3) == 1
    assert zeta_pow(3, 0) + zeta_pow(3, 1) + zeta_pow(3, 2) == 0
    assert zeta_pow(5, 1).inverse() == zeta_pow(5, 4)


def test_zeta_power_addition_law():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 18)
        k, m = rng.randint(-40, 40), rng.randint(-40, 40)
        assert zeta_pow(r, k) * zeta_pow(r, m) == zeta_pow(r, k + m)


@pytest.mark.parametrize("r", range(1, 19))
def test_zeta_is_root_and_periodic(r):
    assert zeta_pow(r, r) == 1
    acc = CyclotomicNumber.zero(r)
    for i, c in enumerate(cyclotomic_polynomial(r)):
        acc = acc + zeta_pow(r, i) * c
    assert not acc


def rand_cyclo(rng, r):
    return CyclotomicNumber(
        r, [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(euler_phi(r))]
    )


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(80):
        r = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
        a, b, c = (rand_cyclo(rng, r) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == CyclotomicNumber.zero(r)
        if a:
            assert a * a.inverse() == 1
            assert (1 / a) * a == 1


def test_canonical_equality_is_structural():
    rng = random.Random(3)
    for _ in range(50):
        r = rng.choice([3, 4, 5, 8])
        a = rand_cyclo(rng, r)
        b = rand_cyclo(rng, r)
        assert (a == b) == (a.coeffs == b.coeffs)
    # reduction happens on construction: z^r given as a long vector collapses
    assert CyclotomicNumber(5, [0, 0, 0, 0, 0, 1]) == zeta_pow(5, 5 + 1 - 1) * zeta_pow(5, -0)


def test_rational_embedding_and_extraction():
    x = CyclotomicNumber.from_rational(6, Fraction(3, 4))
    assert x + Fraction(1, 4) == 1
    assert x.is_rational() and x.to_fraction() == Fraction(3, 4)
    assert not zeta_pow(5, 1).is_rational()
    with pytest.raises(ValueError):
        zeta_pow(5, 1).to_fraction()


def test_to_fraction_is_the_stored_pair():
    # integers take the Fraction(int) path; other values the reduced pair
    rng = random.Random(67)
    for _ in range(400):
        r = rng.choice((1, 2, 5, 6, 12))
        den = 1 if rng.random() < 0.5 else rng.randint(2, 60)
        value = Fraction(rng.randint(-(10**9), 10**9), den)
        for x in (CyclotomicNumber.from_rational(r, value), CyclotomicNumber(r, [value]) * 3 - 2 * value):
            f = x.to_fraction()
            assert type(f) is Fraction and f == value
            assert f == Fraction(x.numerators[0], x.denominator)
            assert (f.numerator, f.denominator) == (x.numerators[0], x.denominator)


def test_errors():
    with pytest.raises(OrderMismatchError, match="order mismatch"):
        zeta_pow(3, 1) + zeta_pow(4, 1)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        CyclotomicNumber.zero(7).inverse()
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        CyclotomicNumber.zero(0)


def test_zero_factor_gives_canonical_zero_without_reduction(monkeypatch):
    x = CyclotomicNumber(5, [Fraction(1, 3), 2, 0, Fraction(-7, 2)])
    zero = CyclotomicNumber.zero(5)

    def no_fold(order, poly):
        raise AssertionError("a zero factor reached _fold")

    monkeypatch.setattr(exactnum, "_fold", no_fold)
    for product in (x * zero, zero * x, x * 0, 0 * x, zero * zero, x * Fraction(0)):
        assert (product.order, product.numerators, product.denominator) == (5, (0,) * 4, 1)
    with pytest.raises(OrderMismatchError):
        zero * zeta_pow(3, 1)


def test_q_is_inverse_root():
    for r in range(1, 10):
        assert q_pow(r, 1) == zeta_pow(r, -1)
        assert q_pow(r, 1) * zeta_pow(r, 1) == 1


def test_text_and_json_forms():
    x = CyclotomicNumber(4, [Fraction(1, 2), Fraction(-1, 2)])
    assert str(x) == "1/2 - 1/2*z"
    assert x.to_json() == {"order": 4, "coeffs": ["1/2", "-1/2"]}
    assert str(CyclotomicNumber.zero(3)) == "0"


@pytest.mark.parametrize("value", [0.1, "1/2", Decimal("0.5")], ids=type)
def test_constructors_take_only_ints_and_fractions(value):
    for build in (lambda: CyclotomicNumber(3, [1, value]), lambda: CyclotomicNumber.from_rational(3, value)):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            build()


@pytest.mark.parametrize(
    "poly,den", [([0.5], 1), ([1, Fraction(1, 2)], 1), ([1, 2], 2.0), ([1, 2], Fraction(2))]
)
def test_integer_poly_takes_only_ints(poly, den):
    with pytest.raises(TypeError, match="must be ints"):
        CyclotomicNumber.from_integer_poly(3, poly, den)


@pytest.mark.parametrize("den", [0, -2])
def test_integer_poly_takes_only_a_positive_denominator(den):
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        CyclotomicNumber.from_integer_poly(3, [1, 1], den)


def test_text_json_and_hash_read_the_integers(monkeypatch):
    def no_view(self):
        raise AssertionError("read the Fraction view")

    monkeypatch.setattr(CyclotomicNumber, "coeffs", property(no_view))
    x = CyclotomicNumber.from_integer_poly(5, [1, -3, 0, 2], 6)
    assert str(x) == "1/6 - 1/2*z + 1/3*z^3"
    assert x.to_json() == {"order": 5, "coeffs": ["1/6", "-1/2", "0", "1/3"]}
    assert hash(x) == hash((5, (1, -3, 0, 2), 6))
    y = CyclotomicNumber.from_rational(5, Fraction(-7, 4))
    assert str(y) == "-7/4" and y.to_json() == {"order": 5, "coeffs": ["-7/4", "0", "0", "0"]}
    assert hash(y) == hash(Fraction(-7, 4))


def test_equal_irrational_numbers_hash_equal():
    rng = random.Random(29)
    for _ in range(300):
        r = rng.choice((3, 4, 5, 7, 8, 9, 12, 15, 24))
        den = rng.randint(1, 7)
        poly = [rng.randint(-9, 9) for _ in range(rng.randint(1, r + 3))]
        x = CyclotomicNumber.from_integer_poly(r, poly, den)
        if x.is_rational():
            continue
        other = rand_cyclo(rng, r)
        routes = (
            CyclotomicNumber(r, [Fraction(c, den) for c in poly]),
            sum((zeta_pow(r, d) * c for d, c in enumerate(poly)), CyclotomicNumber.zero(r)) / den,
            (x + other) - other,
            CyclotomicNumber.from_integer_poly(r, [c * 6 for c in poly], den * 6),
        )
        for y in routes:
            assert y == x and hash(y) == hash(x)


def test_json_coefficients_are_reduced_fraction_strings():
    values = [c for row in qbasis_matrix(4, 4)[0] for c in row]
    assert len(values) == 4096
    values += [
        CyclotomicNumber.zero(8),
        CyclotomicNumber.from_integer_poly(8, [0, -4, 6, 2], 8),  # (0, -1/2, 3/4, 1/4)
        CyclotomicNumber.from_integer_poly(8, [-6, 0, 3], 3),  # (-2, 0, 1, 0)
    ]
    for x in values:
        coeffs = [str(Fraction(c, x.denominator)) for c in x.numerators]
        assert x.to_json() == {"order": x.order, "coeffs": coeffs}


# ---------------------------------------------------------------------------
# properties of the integer representation, against a Fraction-vector reference

ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 18, 20, 30)


def given(*strategies):
    """Run the decorated check as a hypothesis property test, skipped when
    hypothesis is not installed."""

    def wrap(check):
        def test():
            hypothesis = pytest.importorskip("hypothesis")
            st = hypothesis.strategies
            prop = hypothesis.given(*(make(st) for make in strategies))(check)
            hypothesis.settings(deadline=None, max_examples=50)(prop)()

        test.__name__ = check.__name__
        return test

    return wrap


def fractions(st):
    return st.fractions(min_value=-20, max_value=20, max_denominator=30)


def cyclotomic_triples(st, orders=ORDERS):
    """(r, a, b, c): three elements of one field, each given by a vector that
    may be longer than phi(r), so construction also reduces."""
    def triple(r):
        vec = st.lists(fractions(st), min_size=0, max_size=r + 3)
        return st.tuples(st.just(r), vec, vec, vec)

    return st.sampled_from(orders).flatmap(triple).map(
        lambda t: (t[0],) + tuple(CyclotomicNumber(t[0], v) for v in t[1:])
    )


def ref_reduce(r, poly):
    """Fraction vector reduced by long division by the monic Phi_r."""
    mod = cyclotomic_polynomial(r)
    phi = len(mod) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * phi
    for d in range(len(poly) - 1, phi - 1, -1):
        c = poly[d]
        if c:
            for j, m in enumerate(mod):
                poly[d - phi + j] -= c * m
    return tuple(poly[:phi])


def ref_mul(r, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(r, conv)


def assert_canonical(x):
    assert len(x.numerators) == euler_phi(x.order)
    assert all(type(c) is int for c in x.numerators)
    assert type(x.denominator) is int and x.denominator > 0
    assert math.gcd(x.denominator, *x.numerators) == 1
    assert x.coeffs == tuple(Fraction(c, x.denominator) for c in x.numerators)


@given(cyclotomic_triples)
def test_results_are_in_lowest_terms(t):
    r, a, b, c = t
    for x in (a, b, a + b, a - b, -a, a * b, a * b + c, CyclotomicNumber.zero(r)):
        assert_canonical(x)
    if a:
        assert_canonical(a.inverse())


@given(cyclotomic_triples)
def test_field_axioms_property(t):
    r, a, b, c = t
    zero, one = CyclotomicNumber.zero(r), CyclotomicNumber.one(r)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if a:
        assert a * a.inverse() == one


@given(cyclotomic_triples)
def test_arithmetic_matches_fraction_vectors(t):
    r, a, b, _ = t
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    assert (a * b).coeffs == ref_mul(r, a.coeffs, b.coeffs)


@given(
    lambda st: st.sampled_from(ORDERS).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(fractions(st), max_size=3 * r))
    )
)
def test_construction_reduces_like_long_division(t):
    r, vec = t
    assert CyclotomicNumber(r, vec).coeffs == ref_reduce(r, vec)


@given(lambda st: cyclotomic_triples(st, orders=(*range(1, 25), 30)))
def test_text_and_json_match_fraction_vectors(t):
    r, a, b, _ = t
    for x, ref in ((a, a.coeffs), (a * b, ref_mul(r, a.coeffs, b.coeffs))):
        assert str(x) == cyclotomic_text(ref)
        assert x.to_json() == {"order": r, "coeffs": [str(c) for c in ref]}


@given(lambda st: st.sampled_from(ORDERS), fractions, fractions)
def test_rational_values_compare_and_hash_like_fractions(r, p, q):
    built = (
        CyclotomicNumber.from_rational(r, p),
        CyclotomicNumber(r, [p]),
        CyclotomicNumber.from_rational(r, p + q) - q,
        CyclotomicNumber.from_rational(r, p * 7) * Fraction(1, 7),
    )
    for x in built:
        assert x == p and p == x and not (x != p)
        assert hash(x) == hash(p)
        assert (x == q) == (p == q)
        assert x.to_fraction() == p
        if p.denominator == 1:
            assert x == int(p) and hash(x) == hash(int(p))
    assert len(set(built)) == 1
