"""Geometric ground truth for plate identities.

Identities between plates hold almost everywhere, not on the shared walls of
the closed regions, so every check here happens at *generic* rational points:
points of the simplex slice where no proper subset of coordinates sums to an
integer.  Ranks and solves walk every generic point of a prime denominator in
a fixed order, moving on to larger primes while the rank is short; a basis
inverts its rows at the fitted points once, checked exactly, and each solve
is tested against the span at every walked point.  Identity checks draw up to
``_CHECK_POINTS`` distinct points of the plan's lattice by a seeded random
descent of the same tree.  So runs are reproducible, and every rank and
solve returned is exact over the rationals.

Every point is a/D with integer numerators a summing to r*D, so a
plate is evaluated there by integer comparisons against the subset-sums of a
(see ``_flag_test``); ``core.evaluate`` stays the reference for arbitrary
rational points.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, lcm

from .core import Plate
from .linalg import Echelon, inverse

FlagTest = tuple[tuple[int, int], ...]


class SpanError(RuntimeError):
    """Target is not in the almost-everywhere span of the basis."""


def _is_prime(c: int) -> bool:
    return c >= 2 and all(c % d for d in range(2, isqrt(c) + 1))


def next_prime_above(n: int) -> int:
    c = n + 1
    while not _is_prime(c):
        c += 1
    return c


# Points checked by verify_identity_ae; a smaller lattice is checked in full.
_CHECK_POINTS = 48


class SamplePlan(namedtuple("SamplePlan", "n r seed denominator")):
    """Deterministic sampling configuration for one (n, r) slice; the
    denominator defaults to the first prime > n.  A plan hashes like and
    equals the tuple of its fields; rebuilding checks it."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, seed: int = 0, denominator: int | None = None):
        if n < 1 or r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        d = denominator if denominator is not None else next_prime_above(n)
        if d <= n or not _is_prime(d):
            raise ValueError(f"denominator must be a prime > n, got {d}")
        return tuple.__new__(cls, (n, r, seed, denominator))

    @classmethod
    def _make(cls, iterable) -> "SamplePlan":
        return cls(*iterable)

    @property
    def resolved_denominator(self) -> int:
        return self.denominator if self.denominator is not None else next_prime_above(self.n)


def _subset_sums(numerators: Sequence[int]) -> list[int]:
    """sums[mask] is the sum of the numerators whose index bit is set in mask."""
    sums = [0] * (1 << len(numerators))
    for mask in range(1, len(sums)):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + numerators[low.bit_length() - 1]
    return sums


def _reach(reach: int, a: int, d: int) -> int:
    """Fold part a into ``reach``, the d-bit set of residues mod d that the
    nonempty subsets of the parts so far sum to: each old subset with and
    without a, and a alone."""
    m = a % d
    return reach | ((reach << m | reach >> (d - m)) & ((1 << d) - 1)) | 1 << m


def _compositions(n: int, total: int, d: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(a, _subset_sums(a)) for every composition a of ``total`` into n
    positive parts whose first n - 1 parts have no nonempty subset summing to
    0 mod d, in lexicographic order.

    With total = r*d these are the numerators of every generic point a/d of the
    (n, r) slice: a subset and its complement are then equivalent and one of
    them omits the last part, and a zero part is never generic when n >= 2.
    The walk is depth-first with ascending parts and drops a prefix, with all
    below it, once a subset sums to 0 mod d; ``_sample_numerators`` descends
    the same tree at random.
    """

    def walk(prefix: tuple[int, ...], left: int, reach: int, sums: list[int]):
        k = n - len(prefix)  # parts still to choose, each at least 1
        if k == 1:
            yield (*prefix, left), sums + [s + left for s in sums]
            return
        for a in range(1, left - k + 2):
            folded = _reach(reach, a, d)
            if not folded & 1:
                yield from walk((*prefix, a), left - a, folded, sums + [s + a for s in sums])

    return walk((), total, 0, [0])


def _sample_numerators(plan: SamplePlan, count: int) -> list[tuple[int, ...]]:
    """Numerators a of up to ``count`` distinct generic points a/D, drawn by a
    random descent of the ``_compositions`` tree from one RNG seeded by the
    plan, so shorter requests are prefixes of longer ones.  Each draw picks
    each next part uniformly among those that ``_reach`` keeps live and that
    may still lead to an undrawn point, listed on the prefix's first visit.  A
    drawn leaf leaves its parent, as does a prefix with no undrawn point left.
    (1, ..., 1, rD - n + 1) is generic, so no lattice is empty.
    """
    import random  # here, as only identity checks draw points
    n, d = plan.n, plan.resolved_denominator
    total = plan.r * d
    # a str seed is hashed by SHA-512, the same in every process
    rng = random.Random(f"plate-oracle:{plan.seed}:{n}:{plan.r}:{d}")
    live: dict[tuple[int, ...], list[int]] = {}  # visited prefix -> its parts still in play
    drawn: list[tuple[int, ...]] = []
    while len(drawn) < count:
        prefix, reach = (), 0
        while len(prefix) < n - 1:
            if prefix not in live:
                span = range(1, total - sum(prefix) - (n - len(prefix)) + 2)
                live[prefix] = [a for a in span if not _reach(reach, a, d) & 1]
            if not live[prefix]:
                break  # every completion of the prefix is drawn or not generic
            a = rng.choice(live[prefix])
            prefix, reach = (*prefix, a), _reach(reach, a, d)
        else:
            drawn.append((*prefix, total - sum(prefix)))
        while prefix:  # remove the prefix from its parent, and each parent it empties
            prefix, a = prefix[:-1], prefix[-1]
            live[prefix].remove(a)
            if live[prefix]:
                break
        else:
            return drawn  # the whole lattice is drawn
    return drawn


def _point(numerators: Sequence[int], d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, d) for a in numerators)


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


def _row(tests: Sequence[FlagTest], sums: list[int]) -> int:
    """The plates' 0/1 row at the point whose subset-sum table is ``sums``,
    packed into an int (bit j for tests[j]); ``_holds`` inlined, as this runs
    once per lattice point for every plate."""
    row = 0
    for j, test in enumerate(tests):
        for mask, bound in test:
            if sums[mask] < bound:
                break
        else:
            row |= 1 << j
    return row


class RankReport(namedtuple("RankReport", "rank points_used denominator")):
    """Rank, generic lattice points visited, and the last prime whose lattice
    was walked; it compares equal to the tuple of its fields."""

    __slots__ = ()


def _gf2_insert(pivots: dict[int, int], row: int) -> bool:
    """Add a 0/1 row, packed into an int, to a GF(2) row space kept as
    {leading bit: row}; returns True when it enlarges the span."""
    while row:
        top = row.bit_length() - 1
        pivot = pivots.get(top)
        if pivot is None:
            pivots[top] = row
            return True
        row ^= pivot
    return False


def _unpack(row: int, width: int) -> list[int]:
    return [row >> j & 1 for j in range(width)]


# A visited lattice point: numerators a, denominator D, _subset_sums(a), row
Visit = tuple[tuple[int, ...], int, list[int], int]


def _walk(
    plates: Sequence[Plate], plan: SamplePlan, keep_points: bool = False
) -> tuple[RankReport, list[Visit], list[Visit]]:
    """(report, fit, points) for the plates' rows at the generic points a/D,
    walked in lexicographic order (``_compositions``); the seed plays no part.

    Rows are 0/1 and packed into ints (bit j for plate j), and a rank mod a
    prime is a lower bound on the rank over Q, so the walk stops as soon as
    the rank mod 2 is full.  At the end of a lattice that leaves it short, the
    distinct rows are replayed in first-seen order mod the large prime P, up
    to the row that completes the rank.  If that falls short too and the
    denominator is not pinned, the walk goes on to the next prime's lattice,
    and it ends after a lattice that adds no rank mod P.  A short rank is then
    recomputed over Q.  At full rank the ``fit`` points have rows independent
    mod 2 or mod P, hence over Q.  With ``keep_points``, ``points`` is every
    point of every lattice walked, the last one finished.
    """
    n, r = plates[0].n, plates[0].r
    width = len(plates)
    gf2: dict[int, int] = {}
    ech = Echelon(width, _P)
    gf2_fit: list[Visit] = []
    ech_fit: list[Visit] = []
    points: list[Visit] = []
    # most rows repeat: distinct row -> (points visited up to it, its point)
    first_seen: dict[int, tuple[int, Visit]] = {}
    used = replayed = 0
    d = plan.resolved_denominator
    while True:
        lattice_plan = plan._replace(denominator=d)
        tests = [_flag_test(p, lattice_plan) for p in plates]
        lattice = _compositions(n, r * d, d)
        for a, sums in lattice:
            used += 1
            row = _row(tests, sums)
            visit = (a, d, sums, row)
            if keep_points:
                points.append(visit)
            if row in first_seen:
                continue
            first_seen[row] = (used, visit)
            if _gf2_insert(gf2, row):
                gf2_fit.append(visit)
                if len(gf2) == width:
                    if keep_points:
                        points += [(a, d, sums, _row(tests, sums)) for a, sums in lattice]
                    return RankReport(width, used, d), gf2_fit, points
        before = ech.rank
        for row, (seen_at, visit) in islice(first_seen.items(), replayed, None):
            if ech.add_row(_unpack(row, width)):
                ech_fit.append(visit)
                if ech.rank == width:
                    return RankReport(width, seen_at, d), ech_fit, points
        replayed = len(first_seen)
        if plan.denominator is not None or ech.rank == before:
            break
        d = next_prime_above(d)
    # short of full rank: the rank mod P is only a lower bound
    exact = Echelon(width)
    for row in first_seen:
        exact.add_row(_unpack(row, width))
    return RankReport(exact.rank, used, d), [], points


def rank_report(plates: Sequence[Plate], plan: SamplePlan) -> RankReport:
    """Rank over Q of the plates' evaluation matrix at generic points a/D,
    with the points visited and the last denominator (``_walk``)."""
    plates = list(plates)
    if not plates:
        return RankReport(0, 0, plan.resolved_denominator)
    n, r = plates[0].n, plates[0].r
    if any(p.n != n or p.r != r for p in plates):
        raise ValueError("all plates must share n and r")
    return _walk(plates, plan)[0]


# Ranks and inverses run modulo this prime, and every answer is exact before
# it is returned.  A rank mod P is a lower bound on the rational rank, so only
# a full rank is returned from it; a short one is recomputed by Fraction
# elimination.  Each basis inverts its fitted rows mod P once and keeps the
# reconstructed inverse only after an exact integer check, falling back to a
# Fraction inverse (``_scaled_inverse``); a solve then runs one span test.
_P = (1 << 61) - 1  # Mersenne prime


def _rational_reconstruct(c: int) -> Fraction | None:
    """Smallest fraction a/b with a = b*c mod P (Wang's algorithm)."""
    bound = isqrt(_P // 2)
    r0, r1 = _P, c % _P
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


SparseRows = list[list[tuple[int, int]]]  # integer rows of (column, entry) pairs


def _scaled(inv: Sequence[Sequence[Fraction]]) -> tuple[int, SparseRows]:
    """(L, L * inv) for the least common denominator L of the entries."""
    scale = lcm(*{v.denominator for row in inv for v in row if v})
    return scale, [
        [(k, v.numerator * (scale // v.denominator)) for k, v in enumerate(row) if v] for row in inv
    ]


def _is_scaled_inverse(rows: Sequence[int], scale: int, scaled: SparseRows) -> bool:
    """M * X == L * I in integers, where M's 0/1 rows are packed into ints:
    row i of M * X sums the rows of X at the set bits of M's row i."""
    for i, row in enumerate(rows):
        product = [0] * len(rows)
        product[i] = -scale
        while row:
            low = row & -row
            for k, x in scaled[low.bit_length() - 1]:
                product[k] += x
            row ^= low
        if any(product):
            return False
    return True


def _scaled_inverse(rows: Sequence[int], width: int) -> tuple[int, SparseRows]:
    """(L, X = L * M^-1) for the invertible 0/1 matrix M whose rows are packed
    into ``rows``.  M^-1 is reconstructed entry by entry from its inverse mod
    P and kept only when M * X = L * I holds exactly; otherwise (no inverse
    mod P, an entry that does not reconstruct, a failed check) it is computed
    over Q."""
    matrix = [_unpack(row, width) for row in rows]
    entries = [[v and _rational_reconstruct(v) for v in row] for row in inverse(matrix, _P) or ()]
    if entries and not any(v is None for row in entries for v in row):
        scale, scaled = _scaled(entries)
        if _is_scaled_inverse(rows, scale, scaled):
            return scale, scaled
    return _scaled(inverse(matrix))  # the fitted rows are independent


class _BasisSolver:
    """Solves over one basis: the basis rows at the ``fit`` points of the walk
    form an invertible matrix M, kept as X = L * M^-1 (``_scaled_inverse``)."""

    def __init__(self, basis: tuple[Plate, ...], plan: SamplePlan) -> None:
        dim = len(basis)
        report, self.fit, points = _walk(basis, plan, keep_points=True)
        if report.rank < dim:
            raise SpanError(
                f"basis evaluation matrix has rank {report.rank} < {dim} at the generic points "
                f"up to denominator {report.denominator}: the plates are a.e. dependent, or "
                "that denominator cannot reach all their chambers"
            )
        self.scale, self.inverse = _scaled_inverse([row for *_, row in self.fit], dim)
        # points may come from two primes, so targets get one flag test per D
        self.lattice_plans = [plan._replace(denominator=d) for d in sorted({v[1] for v in points})]
        # every walked point tests the span: the few points after the fit
        # would not do, as in lexicographic order they lie near one corner of
        # the simplex.  The combination's value depends only on the row.
        self.checks: dict[int, list[Visit]] = {}
        for visit in points:
            self.checks.setdefault(visit[3], []).append(visit)

    def solve(self, target: Plate) -> list[Fraction]:
        """The unique solution of the fitted system, once the combination
        agrees with the target at every walked point; the target is outside
        the span when it does not."""
        tests = {p.resolved_denominator: _flag_test(target, p) for p in self.lattice_plans}
        rhs = [_holds(tests[d], sums) for _, d, sums, _ in self.fit]
        scale = self.scale
        scaled = [sum(x for k, x in row if rhs[k]) for row in self.inverse]
        terms = [(1 << j, c) for j, c in enumerate(scaled) if c]
        for row, group in self.checks.items():
            value = sum(c for bit, c in terms if row & bit)
            for visit in group:
                if value != scale * _holds(tests[visit[1]], visit[2]):
                    raise SpanError(
                        f"target {target} not in almost-everywhere span: point "
                        f"({', '.join(str(v) for v in _point(*visit[:2]))}) disagrees"
                    )
        return [Fraction(c, scale) for c in scaled]


# one cached square solver per (basis, plan without its seed, which solves ignore)
_solver = lru_cache(maxsize=16)(_BasisSolver)


def solve_in_basis(target: Plate, basis: Sequence[Plate], plan: SamplePlan) -> list[Fraction]:
    """Coefficients of the target over the basis, fitted at the lattice points
    where ``_walk`` found independent basis rows, and validated at every
    point of every lattice walked."""
    basis = tuple(basis)
    if not basis:
        raise ValueError("basis must not be empty")
    if any(p.n != target.n or p.r != target.r for p in basis):
        raise ValueError("target and basis must share n and r")
    return _solver(basis, plan._replace(seed=0)).solve(target)


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
    """Check two formal plate combinations agree at up to ``_CHECK_POINTS``
    sampled generic points, every point of a smaller lattice.  Returns (ok,
    witness).  (No rank certificate: that would need the slice's whole basis.)"""
    lterms = _combination_terms(lhs, plan)
    rterms = _combination_terms(rhs, plan)
    for a, sums in _check_points(plan):
        if _eval_combination(lterms, sums) != _eval_combination(rterms, sums):
            return False, _point(a, plan.resolved_denominator)
    return True, None


@lru_cache(maxsize=16)
def _check_points(plan: SamplePlan) -> tuple[tuple[tuple[int, ...], list[int]], ...]:
    """(a, _subset_sums(a)) for up to ``_CHECK_POINTS`` sampled points of the plan."""
    return tuple((a, _subset_sums(a)) for a in _sample_numerators(plan, _CHECK_POINTS))


def _eval_combination(terms: Iterable[tuple[object, FlagTest]], sums: list[int]):
    return sum((c for c, t in terms if _holds(t, sums)), 0)
