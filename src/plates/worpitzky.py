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
from dataclasses import dataclass, field

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


@dataclass
class WorpitzkyReport:
    n: int
    r_max: int
    dims: tuple[int, ...] = ()
    eulerian_dims: tuple[int, ...] = ()
    hypersimplex_multiplicities: list[dict] = field(default_factory=list)
    classical_ok: bool = True
    residuals_ok: bool = True
    dims_ok: bool = True
    multiplicities_ok: bool = True
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r_max": self.r_max,
            "dims": list(self.dims),
            "eulerian_dims": list(self.eulerian_dims),
            "hypersimplex_multiplicities": [
                {"-".join(map(str, mu)): m for mu, m in table.items()}
                for table in self.hypersimplex_multiplicities
            ],
            "classical_ok": self.classical_ok,
            "residuals_ok": self.residuals_ok,
            "dims_ok": self.dims_ok,
            "multiplicities_ok": self.multiplicities_ok,
            "failures": self.failures,
        }


def verify_categorified_worpitzky(n: int, r_max: int) -> WorpitzkyReport:
    """Check, for every r <= r_max and every cycle type, that the simplex
    character equals the symmetric-power convolution of the derived
    hypersimplex characters; audit dimensions and multiplicities."""
    if n < 2 or r_max < n:
        raise ValueError("need n >= 2 and r_max >= n")
    report = WorpitzkyReport(n=n, r_max=r_max)
    chis = derive_hypersimplex_characters(n)

    for r in range(1, r_max + 1):
        if not classical_worpitzky_check(n, r):
            report.classical_ok = False
            report.failures.append(f"classical identity fails at r={r}")
        syms = [sym_power_character(r - a, n) for a in range(1, n)]
        for lam in partitions(n):
            rhs = sum(sym.at(lam) * chi.at(lam) for sym, chi in zip(syms, chis))
            if gcd_formula(lam, r) != rhs:
                report.residuals_ok = False
                report.failures.append(f"residual at r={r}, class {lam}")

    report.dims = tuple(chi.identity_value() for chi in chis)
    report.eulerian_dims = tuple(eulerian(a - 1, n - a - 1) for a in range(1, n))
    if report.dims != report.eulerian_dims:
        report.dims_ok = False
        report.failures.append(
            f"dimensions {report.dims} differ from Eulerian numbers {report.eulerian_dims}"
        )

    for a, chi in enumerate(chis, start=1):
        try:
            report.hypersimplex_multiplicities.append(multiplicities(chi))
        except NotACharacterError as exc:
            report.multiplicities_ok = False
            report.failures.append(f"hypersimplex a={a}: {exc}")
            report.hypersimplex_multiplicities.append({})
    return report
