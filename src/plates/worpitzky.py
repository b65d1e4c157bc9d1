"""The power-to-Eulerian identity, classically and at the level of characters.

At a cycle type lam, sum_k sym^k(lam) t^k = 1 / prod_i (1 - t^{lam_i}), so the
module identity chi_r = sum_a sym^{r-a} * chi_B(a) says that the series
P_lam(t) = prod_i (1 - t^{lam_i}) * sum_{r >= 1} chi_r(lam) t^r is the
polynomial sum_a chi_B(a)(lam) t^a: its t^1..t^{n-1} coefficients are the
hypersimplex characters, and, as the product has constant term 1, the identity
holds up to r_max iff P_lam has no term of degree n..r_max.  chi_r is the
Diophantine count, which never reads the gcd closed form.  The derived
dimensions must be Eulerian numbers, and the irreducible multiplicities
nonnegative integers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .characters import ClassFunction, NotACharacterError, multiplicities
from .combinatorics import eulerian, partitions
from .translation import diophantine_count


def classical_worpitzky_check(n: int, r: int) -> bool:
    """r^{n-1} = sum_a C(n+r-a-1, n-1) * E_{a-1, n-a-1}, checked exactly."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    total = sum(
        math.comb(n + r - a - 1, n - 1) * eulerian(a - 1, n - a - 1)
        for a in range(1, n)
    )
    return total == r ** (n - 1)


def _series(lam: tuple[int, ...], r_max: int) -> list[int]:
    """The coefficients 0..r_max of P_lam(t), chi_r(lam) by ``diophantine_count``."""
    poly = [0] + [diophantine_count(lam, r) for r in range(1, r_max + 1)]
    for part in lam:  # times (1 - t^part), from the top degree down
        for d in range(r_max, part - 1, -1):
            poly[d] -= poly[d - part]
    return poly


def derive_hypersimplex_characters(n: int) -> list[ClassFunction]:
    """chi_B(a) for a = 1..n-1: at each cycle type lam, the t^a coefficient of P_lam."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _hypersimplex(n, {lam: _series(lam, n - 1) for lam in partitions(n)})


def _hypersimplex(n: int, series: dict) -> list[ClassFunction]:
    """The t^1..t^{n-1} coefficients of the series of every cycle type, which
    run to any degree >= n - 1: a coefficient reads only the counts below it."""
    return [ClassFunction.from_dict(n, {lam: p[a] for lam, p in series.items()}) for a in range(1, n)]


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
    hypersimplex characters (P_lam has no term of degree n..r_max); audit
    dimensions and multiplicities."""
    if n < 2 or r_max < n:
        raise ValueError("need n >= 2 and r_max >= n")
    series = {lam: _series(lam, r_max) for lam in partitions(n)}
    chis = _hypersimplex(n, series)
    failures: list[str] = []
    classical_ok = residuals_ok = multiplicities_ok = True
    for r in range(1, r_max + 1):
        if not classical_worpitzky_check(n, r):
            classical_ok = False
            failures.append(f"classical identity fails at r={r}")
        for lam, poly in series.items():
            if r >= n and poly[r]:
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
