"""Exact scalars: arbitrary-precision rationals and cyclotomic fields.

The rational type is the stdlib ``fractions.Fraction`` (always reduced,
positive denominator, structural equality).  Cyclotomic numbers are residues
modulo the r-th cyclotomic polynomial, so every element has a unique
coefficient vector of length phi(r) and equality is structural.  That vector
is stored as integer numerators over one positive common denominator in
lowest terms; the cyclotomic polynomial is monic with integer coefficients,
so sums and products stay in integers until a coefficient is read.
Inverses run in integers too, through the field norm.  No floating point is
used anywhere.

``Combination`` is the sparse vector type over these fields that plate
vectors and translation-algebra elements share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class OrderMismatchError(ValueError):
    """Arithmetic between cyclotomic numbers of different orders."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, lowest degree first)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list:
    """Exact division of integer polynomials; den must be monic here."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for d in range(len(num) - len(den), -1, -1):
        c = num[d + len(den) - 1]
        q[d] = c
        if c:
            for j, dj in enumerate(den):
                num[d + j] -= c * dj
    assert not any(num), "polynomial division left a remainder"
    return q


@lru_cache(maxsize=256)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients of the r-th cyclotomic polynomial, lowest degree first.

    Computed by dividing x^r - 1 by the cyclotomic polynomials of the proper
    divisors of r.  Degree is Euler's phi(r).
    """
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if r == 1:
        return (-1, 1)
    num = [0] * (r + 1)
    num[0], num[r] = -1, 1
    den = [1]
    for d in range(1, r):
        if r % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_divexact(num, den))


def euler_phi(r: int) -> int:
    return len(cyclotomic_polynomial(r)) - 1


@lru_cache(maxsize=64)
def _power_table(r: int) -> tuple[tuple[int, ...], ...]:
    """x^d reduced mod the r-th cyclotomic polynomial, d = 0 .. max(r-1, 2*phi-2).

    The polynomial is monic with integer coefficients, so every row is integral.
    """
    phi = euler_phi(r)
    modulus = cyclotomic_polynomial(r)
    # x^phi = -(lower-order terms); modulus is monic
    top = [-c for c in modulus[:phi]]
    table = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(max(r, 2 * phi - 1)):
        table.append(tuple(cur))
        lead = cur[-1]
        nxt = [0] + cur[:-1]
        if lead:
            nxt = [a + lead * t for a, t in zip(nxt, top)]
        cur = nxt
    return tuple(table)


def _fold(order: int, poly: list[int]) -> list[int]:
    """Integer polynomial of any length reduced mod the order-th cyclotomic
    polynomial, as phi(order) coefficients."""
    phi = euler_phi(order)
    if len(poly) <= phi:
        return poly + [0] * (phi - len(poly))
    table = _power_table(order)
    out = poly[:phi]
    for d in range(phi, len(poly)):
        c = poly[d]
        if c:
            for i, t in enumerate(table[d % order]):
                if t:
                    out[i] += c * t
    return out


class CyclotomicNumber:
    """Element of the r-th cyclotomic field, canonical mod the minimal polynomial.

    The element is sum(coeffs[i] * zeta^i), i < phi(r), where zeta is the
    distinguished primitive r-th root of unity.  It is stored as integer
    ``numerators`` over one ``denominator`` > 0 sharing no factor with them,
    so coeffs[i] = numerators[i] / denominator.
    """

    __slots__ = ("order", "numerators", "denominator")

    def __init__(self, order: int, coeffs: Iterable) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        values = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in values if not isinstance(c, int)))
        nums = [
            c * den if isinstance(c, int) else c.numerator * (den // c.denominator)
            for c in values
        ]
        nums, den = _lowest_terms(_fold(order, nums), den)
        _set_order(self, order)
        _set_numerators(self, nums)
        _set_denominator(self, den)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):  # so pickling and copying need no __setattr__
        return _build, (self.order, self.numerators, self.denominator)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value) -> "CyclotomicNumber":
        if isinstance(value, int):
            return _build(order, (value,) + _zero(order).numerators[1:], 1)
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return _build(order, (value.numerator,) + _zero(order).numerators[1:], value.denominator)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return _zero(order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 1)

    @classmethod
    def from_integer_poly(cls, order: int, poly: list[int], denominator: int = 1) -> "CyclotomicNumber":
        """sum(poly[d] * zeta^d) / denominator for integers poly[d] and a
        positive integer denominator; poly may have any length."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        return _build(order, *_lowest_terms(_fold(order, poly), denominator))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector, as reduced fractions."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _coerce(self.order, other)
        d1, d2 = self.denominator, o.denominator
        if d1 == d2:
            nums = [a + b for a, b in zip(self.numerators, o.numerators)]
            if d1 == 1:
                return _build(self.order, tuple(nums), 1)
            return _build(self.order, *_lowest_terms(nums, d1))
        nums = [a * d2 + b * d1 for a, b in zip(self.numerators, o.numerators)]
        return _build(self.order, *_lowest_terms(nums, d1 * d2))

    __radd__ = __add__

    def __neg__(self):
        return _build(self.order, tuple(-a for a in self.numerators), self.denominator)

    def __sub__(self, other):
        return self + (-_coerce(self.order, other))

    def __rsub__(self, other):
        return (-self) + _coerce(self.order, other)

    def __mul__(self, other):
        o = _coerce(self.order, other)
        a, b = self.numerators, o.numerators
        # both are canonical, so a zero factor is already the canonical zero
        if not any(a):
            return self
        if not any(b):
            return o
        conv = _poly_mul(a, b)
        nums, den = _lowest_terms(_fold(self.order, conv), self.denominator * o.denominator)
        return _build(self.order, nums, den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the field norm.

        Write self = p(zeta) / den for the integer polynomial p of the
        numerators, and let y be the product of its conjugates p(zeta^k),
        1 < k < r with gcd(k, r) = 1.  Then p(zeta) * y is the norm of
        p(zeta), a nonzero integer N, so 1 / self = y * den / N.
        """
        if not self:
            raise ZeroDivisionError("division by zero")
        r = self.order
        y = CyclotomicNumber.one(r)
        for k in range(2, r):
            if gcd(k, r) == 1:
                poly = [0] * r
                for i, c in enumerate(self.numerators):
                    poly[i * k % r] += c
                y = y * CyclotomicNumber.from_integer_poly(r, poly)
        norm = _build(r, self.numerators, 1) * y
        assert norm.is_rational(), "the norm of a cyclotomic integer is an integer"
        n = norm.numerators[0]
        scale = self.denominator if n > 0 else -self.denominator
        return CyclotomicNumber.from_integer_poly(r, [c * scale for c in y.numerators], abs(n))

    def __truediv__(self, other):
        o = _coerce(self.order, other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return _coerce(self.order, other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            return (
                self.order == other.order
                and self.denominator == other.denominator
                and self.numerators == other.numerators
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.to_fraction())
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        # the pair is in lowest terms already; Fraction(num) skips the gcd of Fraction(num, den)
        if self.denominator == 1:
            return Fraction(self.numerators[0])
        return Fraction(self.numerators[0], self.denominator)

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mon = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == 0:
                term = str(c)
            elif c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.order}, {self})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


# Instances are made without __init__ by filling the slots directly; every
# caller hands over numerators and a denominator already in lowest terms.
_set_order = CyclotomicNumber.order.__set__
_set_numerators = CyclotomicNumber.numerators.__set__
_set_denominator = CyclotomicNumber.denominator.__set__


def _build(order: int, numerators: tuple[int, ...], denominator: int) -> CyclotomicNumber:
    out = object.__new__(CyclotomicNumber)
    _set_order(out, order)
    _set_numerators(out, numerators)
    _set_denominator(out, denominator)
    return out


def _lowest_terms(numerators: list[int], denominator: int) -> tuple[tuple[int, ...], int]:
    """Divide out the common factor of the numerators and the positive denominator."""
    if denominator != 1:
        g = gcd(denominator, *numerators)
        if g != 1:
            return tuple(c // g for c in numerators), denominator // g
    return tuple(numerators), denominator


@lru_cache(maxsize=256)
def _zero(order: int) -> CyclotomicNumber:
    """The zero of the order-``order`` field, one shared instance per order."""
    return _build(order, (0,) * euler_phi(order), 1)


def _coerce(order: int, value) -> CyclotomicNumber:
    """An int, a Fraction or an order-``order`` cyclotomic number, as the latter."""
    if isinstance(value, CyclotomicNumber):
        if value.order != order:
            raise OrderMismatchError(f"order mismatch: {order} vs {value.order}")
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(order, value)
    raise TypeError(f"cannot combine CyclotomicNumber with {type(value).__name__}")


def zeta_pow(r: int, k: int) -> CyclotomicNumber:
    """zeta_r^k for the distinguished primitive r-th root of unity zeta_r."""
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    return _build(r, _power_table(r)[k % r], 1)


def q_pow(r: int, m: int) -> CyclotomicNumber:
    """m-th power of q = zeta_r^{-1}, the clockwise primitive root."""
    return zeta_pow(r, -m)


class Combination:
    """Finite formal combination of keys with coefficients in the r-th
    cyclotomic field, on a space labelled (n, r).

    ``terms`` is a mapping or an iterable of (key, coefficient) pairs;
    coefficients are ints, Fractions or order-r cyclotomic numbers.  Repeated
    keys are summed and zero coefficients dropped, so a sum of many
    combinations is one constructor call over all their terms.  Subclasses
    define ``_key(n, r, key)``, which checks a key and returns its normal form.
    """

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int, terms: Mapping | Iterable = ()) -> None:
        if n < 1 or r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        if isinstance(terms, Mapping):
            terms = terms.items()
        sums: dict = {}
        for key, coeff in terms:
            key = self._key(n, r, key)
            coeff = _coerce(r, coeff)
            prev = sums.get(key)
            sums[key] = coeff if prev is None else prev + coeff
        self.n = n
        self.r = r
        self.terms = {key: c for key, c in sums.items() if c}

    @classmethod
    def _trusted(cls, n: int, r: int, terms: dict) -> "Combination":
        """A combination over a dict that already maps normal-form keys to
        nonzero order-r cyclotomic numbers; nothing is checked or copied."""
        out = object.__new__(cls)
        out.n = n
        out.r = r
        out.terms = terms
        return out

    def _check(self, other: "Combination") -> None:
        if type(other) is not type(self) or other.n != self.n or other.r != self.r:
            raise ValueError(
                f"mismatch: {type(self).__name__}(n={self.n}, r={self.r}) vs "
                f"{type(other).__name__}(n={other.n}, r={other.r})"
            )

    def __add__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        self._check(other)
        return type(self)(self.n, self.r, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return type(self)(self.n, self.r, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        s = _coerce(self.r, scalar)
        return type(self)(self.n, self.r, {key: s * c for key, c in self.terms.items()})

    def items(self):
        return self.terms.items()

    def coefficient(self, key) -> CyclotomicNumber:
        c = self.terms.get(key)
        return _zero(self.r) if c is None else c

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        mine = (type(self), self.n, self.r, self.terms)
        return mine == (type(other), other.n, other.r, other.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, r={self.r}, {self})"
