"""Symmetric-group characters of the simplex plate modules.

Characters are class functions keyed by cycle type, with int values.  The
module provides the trace route (diagonal of the action on the standard
basis), the gcd closed form, one table of the four character engines
(``ENGINES``), Murnaghan-Nakayama irreducible characters, and exact
multiplicity decomposition.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    Permutation,
    class_size,
    partitions,
    permutation_with_cycle_type,
)
from .core import standard_basis
from .expansion import diagonal_coefficient, unmerged_slots
from .translation import diophantine_count, ta_trace


class NotACharacterError(ValueError):
    """Inner products came out non-integral or negative."""


class ClassFunction(namedtuple("ClassFunction", "n values")):
    """Map from cycle types (partitions of n) to exact values: ``values`` is
    ((partition, value), ...) aligned with partitions(n).  It hashes like and
    compares equal to the tuple (n, values)."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, n: int, table: dict) -> "ClassFunction":
        parts = partitions(n)
        if set(table) != set(parts):
            missing = set(parts) - set(table)
            raise ValueError(f"class function must cover every partition of {n}; missing {missing}")
        return cls(n, tuple((lam, table[lam]) for lam in parts))

    def at(self, lam: tuple[int, ...]):
        for key, value in self.values:
            if key == lam:
                return value
        raise KeyError(lam)

    def as_dict(self) -> dict:
        return dict(self.values)

    def identity_value(self):
        return self.at((1,) * self.n)

    def _zip(self, other: "ClassFunction"):
        if [lam for lam, _ in self.values] != [lam for lam, _ in other.values]:
            raise ValueError(f"class functions not aligned: n={self.n} vs n={other.n}")
        return zip(self.values, other.values)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a + b) for (lam, a), (_, b) in self._zip(other)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a - b) for (lam, a), (_, b) in self._zip(other)))

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a * b) for (lam, a), (_, b) in self._zip(other)))

    def __rmul__(self, other):
        return NotImplemented  # not tuple repetition; use scale

    def scale(self, c) -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, c * v) for lam, v in self.values))


# ---------------------------------------------------------------------------
# plate module characters


def plate_trace(sigma: Permutation, n: int, r: int) -> int:
    """Trace of a permutation on the standard basis, from the diagonal alone:
    the sum over basis plates p of the p-coefficient of expand(sigma . p),
    read by ``diagonal_coefficient`` without expanding.  The slots depend on
    p's blocks only, and the basis lists its plates one ordered set partition
    at a time, so they are found once per partition."""
    total = 0
    slots_of: dict = {}  # p.blocks -> unmerged_slots(sigma, p.blocks)
    for p in standard_basis(n, r):
        blocks = p.blocks
        if blocks not in slots_of:
            slots_of[blocks] = unmerged_slots(sigma, blocks)
        total += diagonal_coefficient(slots_of[blocks], p.positions)
    return total


def gcd_formula(lam: tuple[int, ...], r: int) -> int:
    """r^{k-1} when gcd(lam_1, ..., lam_k, r) = 1, else 0."""
    if r < 1:
        raise ValueError("r must be >= 1")
    g = r
    for part in lam:
        g = math.gcd(g, part)
    return r ** (len(lam) - 1) if g == 1 else 0


def _translation_value(lam: tuple[int, ...], r: int) -> int:
    """Trace in the translation algebra, which must be an integer."""
    trace = ta_trace(permutation_with_cycle_type(lam), sum(lam), r)
    if not trace.is_rational() or trace.denominator != 1:
        raise NotACharacterError(f"non-integral trace {trace} at class {lam}, r={r}")
    return trace.numerators[0]


# The four independent routes to the plate module's character: engine name ->
# the integer value at cycle type lam for slice r.  plate_trace and
# diophantine_count are called through their module-level names, so a wrapper
# patched over such a name (as the benchmark's tracer does) still sees the call.
ENGINES = {
    "plates": lambda lam, r: plate_trace(permutation_with_cycle_type(lam), sum(lam), r),
    "translation": _translation_value,
    "diophantine": lambda lam, r: diophantine_count(lam, r),  # residue DP
    "formula": gcd_formula,  # the gcd closed form
}


def character(engine: str, n: int, r: int) -> ClassFunction:
    """The plate module's character on S_n for slice r, by the named engine."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    value = ENGINES[engine]
    return ClassFunction.from_dict(n, {lam: value(lam, r) for lam in partitions(n)})


def plate_character(n: int, r: int) -> ClassFunction:
    """Character of the plate module by explicit traces, one per cycle type."""
    return character("plates", n, r)


# ---------------------------------------------------------------------------
# irreducible characters (Murnaghan-Nakayama)


@lru_cache(maxsize=1 << 14)
def _mn_value(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Recursive border-strip evaluation over beta-sets."""
    if not rho:
        return 1 if not mu else 0
    t = rho[0]
    length = len(mu)
    beta = [mu[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b < t or (b - t) in beta_set:
            continue
        height = sum(1 for b2 in beta if b - t < b2 < b)
        new_beta = sorted((beta_set - {b}) | {b - t}, reverse=True)
        new_mu = tuple(
            v - (len(new_beta) - 1 - i) for i, v in enumerate(new_beta)
        )
        new_mu = tuple(v for v in new_mu if v)
        total += (-1) ** height * _mn_value(new_mu, rho[1:])
    return total


def mn_character(mu: tuple[int, ...]) -> ClassFunction:
    """Irreducible character labeled by the partition mu."""
    n = sum(mu)
    mu = tuple(sorted(mu, reverse=True))
    return ClassFunction.from_dict(n, {lam: _mn_value(mu, lam) for lam in partitions(n)})


def irreducible_dimension(mu: tuple[int, ...]) -> int:
    return mn_character(mu).identity_value()


# ---------------------------------------------------------------------------
# multiplicities


def character_inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    total = sum(class_size(lam) * a * b for (lam, a), (_, b) in chi._zip(psi))
    return Fraction(total, math.factorial(chi.n))


def multiplicities(chi: ClassFunction) -> dict[tuple[int, ...], int]:
    """Irreducible multiplicities of a rational character; raises
    NotACharacterError when any inner product is non-integral or negative."""
    out = {}
    for mu in partitions(chi.n):
        m = character_inner_product(chi, mn_character(mu))
        if m.denominator != 1 or m < 0:
            raise NotACharacterError(f"not a character: <chi, chi^{mu}> = {m}")
        if m:
            out[mu] = m.numerator
    return out

