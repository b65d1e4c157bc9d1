"""Enumerative substrate: permutations, cycle types, partitions, compositions,
ordered set partitions, Eulerian numbers."""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache


class PermutationParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Permutation(namedtuple("Permutation", "images")):
    """Bijection on {1..n}, stored in one-line form: images[i-1] = sigma(i).
    It hashes like and equals the tuple (images,); rebuilding checks it."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "Permutation":
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        return tuple.__new__(cls, (images,))

    @classmethod
    def _make(cls, iterable) -> "Permutation":
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """p * q applies q first, then p."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def __rmul__(self, other):
        return NotImplemented  # not tuple repetition

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycles (fixed points included), each starting at its least element,
        ordered by least element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def to_one_line(self) -> str:
        return "[" + ",".join(str(i) for i in self.images) + "]"

    def to_cycle_string(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in nontrivial)

    def __str__(self) -> str:
        return self.to_cycle_string()


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse cycle notation ``(1 2 3)(4 5)`` or one-line ``[2,1,4,3]``.

    In cycle notation n is inferred as the largest element mentioned unless
    given explicitly; ``()`` is the identity (n required).
    """
    s = text.strip()
    if not s:
        raise PermutationParseError("empty permutation", 0)
    if s.startswith("["):
        if not s.endswith("]"):
            raise PermutationParseError("expected closing ']'", len(text) - 1)
        body = s[1:-1].strip()
        try:
            images = tuple(int(tok) for tok in body.split(",")) if body else ()
        except ValueError:
            raise PermutationParseError("malformed one-line entry", text.index("[") + 1) from None
        if n is not None and len(images) != n:
            raise ValueError(f"one-line form has {len(images)} entries, expected n={n}")
        return Permutation(images)
    if not s.startswith("("):
        raise PermutationParseError("expected '(' or '['", text.index(s[0]))
    cycles: list[list[int]] = []
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise PermutationParseError("expected '('", i)
        close = s.find(")", i)
        if close < 0:
            raise PermutationParseError("unclosed cycle", i)
        body = s[i + 1 : close].replace(",", " ")
        try:
            cyc = [int(tok) for tok in body.split()]
        except ValueError:
            raise PermutationParseError("malformed cycle entry", i + 1) from None
        if len(set(cyc)) != len(cyc):
            raise PermutationParseError("repeated element in cycle", i + 1)
        cycles.append(cyc)
        i = close + 1
    mentioned = [e for c in cycles for e in c]
    if any(e < 1 for e in mentioned):
        raise ValueError("permutation elements must be >= 1")
    size = n if n is not None else (max(mentioned) if mentioned else 0)
    if size == 0:
        raise ValueError("cannot infer size of the identity; pass n")
    if len(set(mentioned)) != len(mentioned):
        raise ValueError("cycles are not disjoint")
    images = list(range(1, size + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a > size:
                raise ValueError(f"element {a} exceeds n={size}")
            images[a - 1] = b
    return Permutation(tuple(images))


def permutation_with_cycle_type(lam: tuple[int, ...]) -> Permutation:
    """Canonical representative: cycles of the given lengths on consecutive blocks."""
    images = []
    start = 1
    for part in lam:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# Eulerian numbers


@lru_cache(maxsize=1 << 12)
def _eulerian_ascents(n: int, k: int) -> int:
    """Permutations of n letters with exactly k ascents (standard recurrence)."""
    if k < 0 or k >= max(n, 1):
        return 0
    if n <= 1:
        return 1 if k == 0 else 0
    return (k + 1) * _eulerian_ascents(n - 1, k) + (n - k) * _eulerian_ascents(n - 1, k - 1)


def eulerian(i: int, j: int) -> int:
    """E_{i,j}: permutations of i+j+1 letters with i ascents and j descents."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return _eulerian_ascents(i + j + 1, i)


def eulerian_row(m: int) -> list[int]:
    """Row m (1-indexed) of the triangle: E_{0,m-1}, E_{1,m-2}, ..., E_{m-1,0}."""
    return [eulerian(i, m - 1 - i) for i in range(m)]


# ---------------------------------------------------------------------------
# partitions, compositions, ordered set partitions


@lru_cache(maxsize=64)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All integer partitions of n, parts decreasing, reverse-lexicographic
    order.  Every call with the same n returns the same tuple."""
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def partition_zee(lam: tuple[int, ...]) -> int:
    """Centralizer order z_lambda = prod_j j^{m_j} m_j!."""
    z = 1
    for part in set(lam):
        m = lam.count(part)
        z *= part**m * math.factorial(m)
    return z


def class_size(lam: tuple[int, ...]) -> int:
    """Size of the conjugacy class with this cycle type."""
    return math.factorial(sum(lam)) // partition_zee(lam)


def enumerate_compositions(r: int, k: int) -> list[tuple[int, ...]]:
    """Compositions of r into k positive parts, lexicographic order."""
    if r < 1 or k < 1:
        raise ValueError("r and k must be >= 1")
    out = []
    for cuts in itertools.combinations(range(1, r), k - 1):
        bounds = (0,) + cuts + (r,)
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def enumerate_osp(n: int, k: int, one_first: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """Ordered set partitions of {1..n} into k blocks, optionally with 1 in the
    first block.  Blocks are ascending tuples; the list is lexicographically
    sorted on that serialization (the canonical order used everywhere)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")

    def build(head: tuple[int, ...], rest: tuple[int, ...], k: int):
        # partitions of head + rest into k blocks, the first block holding head
        # and leaving at least one element of rest for each later block
        if k == 1:
            yield (head + rest,)
            return
        for size in range(0 if head else 1, len(rest) - k + 2):
            for chosen in itertools.combinations(rest, size):
                left = tuple(e for e in rest if e not in chosen)
                for tail in build((), left, k - 1):
                    yield (head + chosen, *tail)

    out = list(build((1,), tuple(range(2, n + 1)), k) if one_first else build((), tuple(range(1, n + 1)), k))
    out.sort()
    return out
