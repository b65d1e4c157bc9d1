"""Symmetric-group characters of the simplex plate modules.

Characters are class functions keyed by cycle type.  The module provides the
trace route (diagonal of the action on the standard basis), the gcd closed
form, one table of the four character engines (``ENGINES``),
Murnaghan-Nakayama irreducible characters, symmetric-power characters, and
exact multiplicity decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    Permutation,
    class_size,
    partitions,
    permutation_with_cycle_type,
)
from .core import Plate, apply_permutation, standard_basis
from .exactnum import CyclotomicNumber
from .expansion import expand
from .translation import diophantine_count, ta_trace


class NotACharacterError(ValueError):
    """Inner products came out non-integral or negative."""


@dataclass(frozen=True)
class ClassFunction:
    """Map from cycle types (partitions of n) to exact values."""

    n: int
    values: tuple  # ((partition, value), ...) aligned with partitions(n)

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
        if self.n != other.n:
            raise ValueError(f"class functions on different groups: {self.n} vs {other.n}")
        return zip(self.values, other.values)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a + b) for (lam, a), (_, b) in self._zip(other)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a - b) for (lam, a), (_, b) in self._zip(other)))

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, a * b) for (lam, a), (_, b) in self._zip(other)))

    def scale(self, c) -> "ClassFunction":
        return ClassFunction(self.n, tuple((lam, c * v) for lam, v in self.values))


# ---------------------------------------------------------------------------
# plate module characters


@dataclass(frozen=True)
class ActionMatrix:
    """Matrix of a permutation on the standard basis: column j holds the
    expansion of sigma applied to basis plate j."""

    basis: tuple[Plate, ...]
    entries: tuple  # entries[i][j]: coefficient of basis[i]

    def trace(self) -> CyclotomicNumber:
        acc = self.entries[0][0]
        for i in range(1, len(self.basis)):
            acc = acc + self.entries[i][i]
        return acc


def action_matrix(sigma: Permutation, n: int, r: int) -> ActionMatrix:
    """The full matrix of sigma on the standard basis.  Characters need only
    its diagonal and use plate_trace; the matrix serves checks that multiply
    or conjugate action matrices."""
    basis = standard_basis(n, r)
    index = {p: i for i, p in enumerate(basis)}
    zero = CyclotomicNumber.zero(r)
    cols = []
    for p in basis:
        vec = expand(apply_permutation(sigma, p))
        col = [zero] * len(basis)
        for plate, coeff in vec.items():
            col[index[plate]] = coeff
        cols.append(col)
    entries = tuple(tuple(cols[j][i] for j in range(len(basis))) for i in range(len(basis)))
    return ActionMatrix(tuple(basis), entries)


def plate_trace(sigma: Permutation, n: int, r: int) -> CyclotomicNumber:
    """Trace of a permutation on the standard basis, from the diagonal alone:
    the sum over basis plates p of the p-coefficient of expand(sigma . p)."""
    acc = CyclotomicNumber.zero(r)
    for p in standard_basis(n, r):
        acc = acc + expand(apply_permutation(sigma, p)).coefficient(p)
    return acc


def gcd_formula(lam: tuple[int, ...], r: int) -> int:
    """r^{k-1} when gcd(lam_1, ..., lam_k, r) = 1, else 0."""
    if r < 1:
        raise ValueError("r must be >= 1")
    g = r
    for part in lam:
        g = math.gcd(g, part)
    return r ** (len(lam) - 1) if g == 1 else 0


def _plates_value(lam: tuple[int, ...], r: int) -> Fraction:
    """Trace of the action on the standard basis."""
    return plate_trace(permutation_with_cycle_type(lam), sum(lam), r).to_fraction()


def _translation_value(lam: tuple[int, ...], r: int) -> Fraction:
    """Trace in the translation algebra."""
    return ta_trace(permutation_with_cycle_type(lam), sum(lam), r).to_fraction()


# The four independent routes to the plate module's character: engine name ->
# value at cycle type lam for slice r.  diophantine_count is called through
# its module-level name, so a wrapper patched over that name (as the
# benchmark's tracer does) still sees the call.
ENGINES = {
    "plates": _plates_value,
    "translation": _translation_value,
    "diophantine": lambda lam, r: diophantine_count(lam, r),  # residue DP
    "formula": gcd_formula,  # the gcd closed form
}


def character(engine: str, n: int, r: int) -> ClassFunction:
    """The plate module's character on S_n for slice r, by the named engine."""
    value = ENGINES[engine]
    return ClassFunction.from_dict(n, {lam: value(lam, r) for lam in partitions(n)})


def plate_character(n: int, r: int) -> ClassFunction:
    """Character of the plate module by explicit traces, one per cycle type."""
    return character("plates", n, r)


def gcd_character(n: int, r: int) -> ClassFunction:
    return character("formula", n, r)


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
# symmetric powers and multiplicities


def sym_power_character(k: int, n: int) -> ClassFunction:
    """Character of the degree-k symmetric power of the permutation space:
    value at lam is the t^k coefficient of prod_i 1/(1 - t^{lam_i})."""
    table = {}
    for lam in partitions(n):
        if k < 0:
            table[lam] = 0
            continue
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        for part in lam:
            for d in range(part, k + 1):
                coeffs[d] += coeffs[d - part]
        table[lam] = coeffs[k]
    return ClassFunction.from_dict(n, table)


def character_inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    if chi.n != psi.n:
        raise ValueError("characters on different groups")
    total = Fraction(0)
    for lam in partitions(chi.n):
        total += class_size(lam) * Fraction(chi.at(lam)) * Fraction(psi.at(lam))
    return total / math.factorial(chi.n)


def multiplicities(chi: ClassFunction) -> dict[tuple[int, ...], int]:
    """Irreducible multiplicities of a rational character; raises
    NotACharacterError when any inner product is non-integral or negative."""
    out = {}
    for mu in partitions(chi.n):
        m = character_inner_product(chi, mn_character(mu))
        if m.denominator != 1 or m < 0:
            raise NotACharacterError(f"not a character: <chi, chi^{mu}> = {m}")
        if m:
            out[mu] = int(m)
    return out


def trivial_multiplicity_series(n: int, r_max: int) -> list[int]:
    """Multiplicity of the trivial representation in the plate module for
    r = 1..r_max, averaging the gcd closed form over the classes."""
    out = []
    fact = math.factorial(n)
    for r in range(1, r_max + 1):
        total = sum(class_size(lam) * gcd_formula(lam, r) for lam in partitions(n))
        q, rem = divmod(total, fact)
        assert rem == 0, "trivial multiplicity must be an integer"
        out.append(q)
    return out
