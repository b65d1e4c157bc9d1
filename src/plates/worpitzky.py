"""The power-to-Eulerian identity, classically and at the level of characters.

The hypersimplex characters are *defined* here by triangular inversion of the
decomposition of the simplex module into symmetric powers tensored with
hypersimplex modules: the symmetric factor vanishes in negative degree, so
setting r = a isolates chi_B(a) in terms of the earlier ones.  The derived
characters are then audited: dimensions must be Eulerian numbers, irreducible
multiplicities must be nonnegative integers, and the identity must keep
holding for r well past the range that determined the characters.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .characters import (
    ClassFunction,
    NotACharacterError,
    gcd_character,
    gcd_formula,
    multiplicities,
    sym_power_character,
)
from .combinatorics import eulerian, partitions


def classical_worpitzky_check(n: int, r: int) -> bool:
    """r^{n-1} = sum_a C(n+r-a-1, n-1) * E_{a-1, n-a-1}, checked exactly."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    total = sum(
        math.comb(n + r - a - 1, n - 1) * eulerian(a - 1, n - a - 1)
        for a in range(1, n)
    )
    return total == r ** (n - 1)


def derive_hypersimplex_characters(n: int) -> list[ClassFunction]:
    """chi_B(a) for a = 1..n-1 by triangular inversion:
    chi_B(a) = chi_simplex(a) - sum_{a' < a} sym^{a-a'} * chi_B(a')."""
    if n < 2:
        raise ValueError("need n >= 2")
    derived: list[ClassFunction] = []
    for a in range(1, n):
        chi = gcd_character(n, a)
        for a_prev, chi_prev in enumerate(derived, start=1):
            chi = chi - sym_power_character(a - a_prev, n) * chi_prev
        derived.append(chi)
    return derived


_REPORT_FIELDS = (
    "n r_max dims eulerian_dims hypersimplex_multiplicities "
    "classical_ok residuals_ok dims_ok multiplicities_ok failures"
)


class WorpitzkyReport(namedtuple("WorpitzkyReport", _REPORT_FIELDS)):
    """The outcome of ``verify_categorified_worpitzky``, built once at the
    end.  It compares equal to the tuple of its fields."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {  # the fields in order, with JSON-ready values where needed
            **self._asdict(),
            "dims": list(self.dims),
            "eulerian_dims": list(self.eulerian_dims),
            "hypersimplex_multiplicities": [
                {"-".join(map(str, mu)): m for mu, m in table.items()}
                for table in self.hypersimplex_multiplicities
            ],
        }


def verify_categorified_worpitzky(n: int, r_max: int) -> WorpitzkyReport:
    """Check, for every r <= r_max and every cycle type, that the simplex
    character equals the symmetric-power convolution of the derived
    hypersimplex characters; audit dimensions and multiplicities."""
    if n < 2 or r_max < n:
        raise ValueError("need n >= 2 and r_max >= n")
    chis = derive_hypersimplex_characters(n)
    failures: list[str] = []
    classical_ok = residuals_ok = multiplicities_ok = True
    for r in range(1, r_max + 1):
        if not classical_worpitzky_check(n, r):
            classical_ok = False
            failures.append(f"classical identity fails at r={r}")
        syms = [sym_power_character(r - a, n) for a in range(1, n)]
        for lam in partitions(n):
            rhs = sum(sym.at(lam) * chi.at(lam) for sym, chi in zip(syms, chis))
            if gcd_formula(lam, r) != rhs:
                residuals_ok = False
                failures.append(f"residual at r={r}, class {lam}")

    dims = tuple(chi.identity_value() for chi in chis)
    eulerian_dims = tuple(eulerian(a - 1, n - a - 1) for a in range(1, n))
    dims_ok = dims == eulerian_dims
    if not dims_ok:
        failures.append(f"dimensions {dims} differ from Eulerian numbers {eulerian_dims}")

    tables: list[dict] = []
    for a, chi in enumerate(chis, start=1):
        try:
            tables.append(multiplicities(chi))
        except NotACharacterError as exc:
            multiplicities_ok = False
            failures.append(f"hypersimplex a={a}: {exc}")
            tables.append({})
    return WorpitzkyReport(
        n, r_max, dims, eulerian_dims, tables, classical_ok, residuals_ok, dims_ok,
        multiplicities_ok, failures,
    )
