"""Geometric ground truth for plate identities.

Identities between plates hold almost everywhere, not on the shared walls of
the closed regions, so every check here happens at *generic* rational points:
points of the simplex slice where no proper subset of coordinates sums to an
integer.  Ranks walk every generic point of a fixed prime denominator in a
fixed order; solves and identity checks use a seeded sample of those points.
So runs are reproducible and every rank and solve returned is exact over the
rationals.

Every point is a/D with integer numerators a summing to r*D, so a
plate is evaluated there by integer comparisons against the subset-sums of a
(see ``_flag_test``); ``core.evaluate`` stays the reference for arbitrary
rational points.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

from .core import Plate
from .exactnum import CyclotomicNumber
from .linalg import Echelon, inverse

Point = tuple[Fraction, ...]
FlagTest = tuple[tuple[int, int], ...]


class GenericSamplingError(RuntimeError):
    """No generic point found within the retry cap; raise the denominator."""


class SpanError(RuntimeError):
    """Target is not in the almost-everywhere span of the basis."""


def _is_prime(c: int) -> bool:
    return c >= 2 and all(c % d for d in range(2, isqrt(c) + 1))


def next_prime_above(n: int) -> int:
    c = n + 1
    while not _is_prime(c):
        c += 1
    return c


# The seeded sampler's fixed sizes: points per growth step of a basis solver
# (and its held-out batch), points checked by verify_identity_ae, the solver's
# point cap per basis column, and candidates tried for each generic point.
_BATCH = 16
_CHECK_POINTS = 3 * _BATCH
_MAX_POINTS_FACTOR = 50
_MAX_TRIES_PER_POINT = 100_000


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling configuration for one (n, r) slice."""

    n: int
    r: int
    seed: int = 0
    denominator: int | None = None  # default: first prime > n

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        d = self.resolved_denominator
        if d <= self.n or not _is_prime(d):
            raise ValueError(f"denominator must be a prime > n, got {d}")

    @property
    def resolved_denominator(self) -> int:
        return self.denominator if self.denominator is not None else next_prime_above(self.n)

    def key(self) -> tuple:
        return (self.n, self.r, self.seed, self.resolved_denominator)


def _subset_sums(numerators: Sequence[int]) -> list[int]:
    """sums[mask] is the sum of the numerators whose index bit is set in mask."""
    sums = [0] * (1 << len(numerators))
    for mask in range(1, len(sums)):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + numerators[low.bit_length() - 1]
    return sums


def _is_generic(numerators: Sequence[int], d: int) -> bool:
    """No proper nonempty subset of a/d coordinates sums to an integer.

    Complementary subsets are equivalent (the total is an integer), so only
    subsets containing the first coordinate are checked.
    """
    # the subset-sum table of _subset_sums, built inline in mask order so that
    # most candidates are rejected after a few masks: at n=6, r=2 the lattice
    # walk keeps 42 of 1287 compositions at D=7 and 2274 of 20349 at D=11,
    # and calling _subset_sums then scanning makes rank_report there about
    # 2x slower
    sums = [0] * (1 << len(numerators))
    for mask in range(1, len(sums) - 1):
        low = mask & (-mask)
        s = sums[mask] = sums[mask ^ low] + numerators[low.bit_length() - 1]
        if mask & 1 and s % d == 0:  # odd masks contain coordinate 1
            return False
    return True


def _lattice(n: int, r: int, d: int) -> Iterator[tuple[int, ...]]:
    """Numerators a of every generic point a/d of the (n, r) slice, in
    lexicographic order.

    These are the compositions of r*d into n parts that pass ``_is_generic``,
    which is exactly the set the seeded sampler draws from: a zero part is
    never generic when n >= 2, so positive parts lose nothing.
    """
    total = r * d
    for cuts in combinations(range(1, total), n - 1):
        bounds = (0, *cuts, total)
        nums = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        if _is_generic(nums, d):
            yield nums


def _seed_int(plan: SamplePlan) -> int:
    # process-independent seed (tuple hashing is randomized per process)
    tag = f"plate-oracle:{plan.seed}:{plan.n}:{plan.r}:{plan.resolved_denominator}"
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


# Per-plan caches hold at most this many plans; the oldest plan is evicted.
_PLAN_CACHE_SIZE = 16

# one RNG stream and numerator list per plan, so repeated requests are prefixes
_point_cache: dict = {}


def _remember(cache: dict, key, value) -> None:
    if len(cache) >= _PLAN_CACHE_SIZE:
        del cache[next(iter(cache))]  # dicts keep insertion order
    cache[key] = value


def _sample_numerators(plan: SamplePlan, count: int) -> list[tuple[int, ...]]:
    """Numerators a of the plan's first ``count`` generic points a/D."""
    d = plan.resolved_denominator
    total = plan.r * d
    key = plan.key()
    entry = _point_cache.get(key)
    if entry is None:
        entry = (random.Random(_seed_int(plan)), [])
        _remember(_point_cache, key, entry)
    rng, numerators = entry
    while len(numerators) < count:
        for _ in range(_MAX_TRIES_PER_POINT):
            cuts = sorted(rng.randint(0, total) for _ in range(plan.n - 1))
            bounds = [0] + cuts + [total]
            nums = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            if _is_generic(nums, d):
                break
        else:
            raise GenericSamplingError(
                f"no generic point in {_MAX_TRIES_PER_POINT} tries for "
                f"n={plan.n}, r={plan.r}, denominator={d}; use a larger denominator"
            )
        numerators.append(nums)
    return numerators[:count]


def _point(numerators: Sequence[int], d: int) -> Point:
    return tuple(Fraction(a, d) for a in numerators)


def sample_generic(plan: SamplePlan, count: int) -> list[Point]:
    """Deterministic generic points on {x >= 0, sum(x) = r} with denominator D.

    The same plan yields the same list; shorter requests are prefixes of
    longer ones.
    """
    d = plan.resolved_denominator
    return [_point(a, d) for a in _sample_numerators(plan, count)]


# A plate never holds when its total differs from the plan's: sums[0] is 0.
_NEVER: FlagTest = ((0, 1),)


def _flag_test(p: Plate, plan: SamplePlan) -> FlagTest:
    """The plate's indicator at the plan's points as integer comparisons.

    At a point a/D the plate holds exactly when sums[mask] >= bound for every
    (mask, bound) pair, where sums is ``_subset_sums(a)``: one pair per proper
    prefix of the flag, with the prefix's position sum scaled by D.
    Coordinates are nonnegative and total r at every sampled point, so that is
    the whole of ``core.evaluate``.
    """
    if p.n != plan.n:
        raise ValueError(f"point has {plan.n} coordinates, plate has n={p.n}")
    if p.r != plan.r:
        return _NEVER
    d = plan.resolved_denominator
    mask = bound = 0
    pairs = []
    for block, pos in zip(p.blocks[:-1], p.positions[:-1]):
        for e in block:
            mask |= 1 << (e - 1)
        bound += pos
        pairs.append((mask, bound * d))
    return tuple(pairs)


def _holds(test: FlagTest, sums: list[int]) -> int:
    for mask, bound in test:
        if sums[mask] < bound:
            return 0
    return 1


def _row(tests: Sequence[FlagTest], numerators: Sequence[int]) -> list[int]:
    sums = _subset_sums(numerators)
    return [_holds(t, sums) for t in tests]


@dataclass
class RankReport:
    rank: int
    points_used: int  # generic lattice points visited
    denominator: int  # the last prime whose lattice was walked


def rank_report(plates: Sequence[Plate], plan: SamplePlan) -> RankReport:
    """Rank over Q of the plates' evaluation matrix at generic points a/D,
    walking every generic lattice point of the plan's denominator in
    lexicographic order (``_lattice``).  The seed plays no part.

    The rank is taken modulo a prime, a lower bound on the rational rank, so
    full rank is exact and the walk stops there.  When a whole lattice leaves
    the rank short and the plan's denominator is not pinned, the walk goes on
    to the next prime's lattice, until the rank is full or a lattice adds no
    rank; each further lattice must raise the rank, so this ends.  A rank
    short of full is then recomputed over Q from the distinct rows seen.
    """
    plates = list(plates)
    d = plan.resolved_denominator
    if not plates:
        return RankReport(0, 0, d)
    n, r = plates[0].n, plates[0].r
    if any(p.n != n or p.r != r for p in plates):
        raise ValueError("all plates must share n and r")
    width = len(plates)
    ech = Echelon(width, _P)
    # points in one chamber give equal rows, and most rows repeat
    distinct: set[bytes] = set()
    used = 0
    while True:
        lattice_plan = replace(plan, denominator=d)
        tests = [_flag_test(p, lattice_plan) for p in plates]
        before = ech.rank
        for a in _lattice(n, r, d):
            used += 1
            row = _row(tests, a)
            key = bytes(row)
            if key in distinct:
                continue
            distinct.add(key)
            if ech.add_row(row) and ech.rank == width:
                return RankReport(width, used, d)
        if plan.denominator is not None or ech.rank == before:
            break
        d = next_prime_above(d)
    # short of full rank: the rank mod P is only a lower bound
    return RankReport(_exact_rank(width, distinct), used, d)


def rank_of_span(plates: Sequence[Plate], plan: SamplePlan) -> int:
    return rank_report(plates, plan).rank


# Ranks and solves run modulo this prime, and every answer is exact before it
# is returned.  A rank mod P is a lower bound on the rational rank, so only a
# full rank is returned from it; a short one is recomputed by Fraction
# elimination.  A nonzero determinant mod P proves exact invertibility, and
# reconstructed solve coefficients are returned only after an exact check,
# with a Fraction inverse when that fails.
_P = (1 << 61) - 1  # Mersenne prime


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, [v * L]) for the least common denominator L of the values."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [int(v * scale) for v in values]


def _exact_rank(width: int, rows: Iterable[bytes]) -> int:
    """Rank over Q of 0/1 rows, by Fraction elimination."""
    exact = Echelon(width)
    for row in rows:
        exact.add_row(row)
    return exact.rank


def _rational_reconstruct(c: int) -> Fraction | None:
    """Smallest fraction a/b with a = b*c mod P (Wang's algorithm)."""
    bound = isqrt(_P // 2)
    r0, r1 = _P, c % _P
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(abs(r1), abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


# cached square solver per (basis, plan): points with independent basis rows
_solver_cache: dict = {}


class _BasisSolver:
    def __init__(self, basis: tuple[Plate, ...], plan: SamplePlan) -> None:
        dim = len(basis)
        n, r = basis[0].n, basis[0].r
        cap = _MAX_POINTS_FACTOR * max(dim, r ** (n - 1))
        tests = [_flag_test(p, plan) for p in basis]
        ech = Echelon(dim, _P)
        chosen: list[int] = []  # indices of points with independent basis rows
        matrix: list[list[int]] = []
        used = 0
        while len(chosen) < dim:
            if used >= cap:
                raise SpanError(
                    f"basis evaluation matrix reached rank {len(chosen)} < {dim} "
                    f"within {used} points; the plate list is a.e. dependent"
                )
            take = min(_BATCH, cap - used)
            for i, a in enumerate(_sample_numerators(plan, used + take)[used:], used):
                row = _row(tests, a)
                if ech.add_row(row):
                    chosen.append(i)
                    matrix.append(row)
                    if len(chosen) == dim:
                        break
            used += take
        self.plan = plan
        self.matrix = matrix
        self.mod_inverse = inverse(matrix, _P)
        self.exact_inverse = None  # over Q, built on the first fallback
        # every sampled point participates in validation, plus a fresh batch;
        # each keeps its subset-sum table (for targets) and basis support
        self.fit_points = chosen
        self.checks = []
        for a in _sample_numerators(plan, used + _BATCH):
            sums = _subset_sums(a)
            self.checks.append((a, sums, [j for j, t in enumerate(tests) if _holds(t, sums)]))

    def _solve_fast(self, rhs: list[int]) -> list[Fraction] | None:
        if self.mod_inverse is None:
            return None
        coeffs = []
        for row in self.mod_inverse:
            acc = 0
            for a, b in zip(row, rhs):
                if b:
                    acc += a * b
            rec = _rational_reconstruct(acc % _P)
            if rec is None:
                return None
            coeffs.append(rec)
        # exact certification on the fitted system
        scale, scaled = _common_denominator(coeffs)
        for row, want in zip(self.matrix, rhs):
            if sum(s for s, a in zip(scaled, row) if a) != scale * want:
                return None
        return coeffs

    def solve(self, target: Plate) -> list[Fraction]:
        test = _flag_test(target, self.plan)
        rhs = [_holds(test, self.checks[i][1]) for i in self.fit_points]
        coeffs = self._solve_fast(rhs)
        if coeffs is None:
            if self.exact_inverse is None:
                self.exact_inverse = inverse(self.matrix)
                assert self.exact_inverse is not None, "chosen rows are independent by construction"
            coeffs = [
                sum((a * b for a, b in zip(row, rhs) if b), Fraction(0))
                for row in self.exact_inverse
            ]
        scale, scaled = _common_denominator(coeffs)
        for a, sums, support in self.checks:
            if sum(scaled[j] for j in support) != scale * _holds(test, sums):
                x = _point(a, self.plan.resolved_denominator)
                raise SpanError(
                    f"target {target} not in almost-everywhere span: point "
                    f"({', '.join(str(v) for v in x)}) disagrees"
                )
        return coeffs


def solve_in_basis(target: Plate, basis: Sequence[Plate], plan: SamplePlan) -> list[Fraction]:
    """Coefficients of the target over the basis, fitted at generic points and
    validated at every sampled point including a fresh held-out batch."""
    basis = tuple(basis)
    if any(p.n != target.n or p.r != target.r for p in basis):
        raise ValueError("target and basis must share n and r")
    key = (basis, plan.key())
    solver = _solver_cache.get(key)
    if solver is None:
        solver = _BasisSolver(basis, plan)
        _remember(_solver_cache, key, solver)
    return solver.solve(target)


def _combination_terms(side, plan: SamplePlan) -> list[tuple[object, FlagTest]]:
    """Normalize a formal combination (a Plate, a list of (coeff, Plate)
    pairs, or anything with .items() yielding (Plate, coeff)) into
    (coeff, flag test) pairs."""
    if isinstance(side, Plate):
        pairs = [(1, side)]
    elif hasattr(side, "items"):
        pairs = [(c, p) for p, c in side.items()]
    else:
        pairs = [(c, p) for c, p in side]
    return [(c, _flag_test(p, plan)) for c, p in pairs]


def verify_identity_ae(lhs, rhs, plan: SamplePlan):
    """Check two formal plate combinations agree at the plan's first
    ``_CHECK_POINTS`` sampled generic points.  Returns (ok, witness)."""
    lterms = _combination_terms(lhs, plan)
    rterms = _combination_terms(rhs, plan)
    for a in _sample_numerators(plan, _CHECK_POINTS):
        sums = _subset_sums(a)
        if _eval_combination(lterms, sums) != _eval_combination(rterms, sums):
            return False, _point(a, plan.resolved_denominator)
    return True, None


def _eval_combination(terms: Iterable[tuple[object, FlagTest]], sums: list[int]):
    acc = None
    for coeff, test in terms:
        if not _holds(test, sums):
            continue
        acc = coeff if acc is None else acc + coeff
    if acc is None:
        return Fraction(0)
    if isinstance(acc, (CyclotomicNumber, Fraction)):
        return acc
    return Fraction(acc)
