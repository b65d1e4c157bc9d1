"""Plates: ordered set partitions with positive integer positions.

A plate with lumps S_1..S_k and positions s_1..s_k is the indicator of the
region cut out by x_i >= 0, the flag of partial-sum inequalities
x_{S_1} + ... + x_{S_j} >= s_1 + ... + s_j for j < k, and the total equality
sum(x) = sum(s).  All comparisons are non-strict (closed regions); identities
between plates are asserted away from the walls, by the oracle module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from fractions import Fraction

from .combinatorics import Permutation, enumerate_compositions, enumerate_osp


class PlateParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Plate(namedtuple("Plate", "n blocks positions")):
    """Immutable plate; blocks are ascending tuples partitioning {1..n}.

    A plate is the tuple (n, blocks, positions), so it hashes and compares
    in C, and it compares equal to that plain tuple.  ``Plate(...)`` sorts
    each lump and checks the partition; pickling, copying and ``_replace``
    rebuild through the same checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, blocks, positions) -> "Plate":
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        positions = tuple(positions)
        if len(blocks) != len(positions):
            raise ValueError("blocks and positions must have equal length")
        if not blocks:
            raise ValueError("a plate needs at least one lump")
        if any(s < 1 for s in positions):
            raise ValueError(f"positions must be >= 1, got {positions}")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty lump")
            if seen & set(b):
                raise ValueError(f"overlapping lumps: {blocks}")
            seen |= set(b)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"lumps must partition 1..{n}, got {blocks}")
        return tuple.__new__(cls, (n, blocks, positions))

    @classmethod
    def _make(cls, iterable) -> "Plate":
        """The namedtuple builder behind ``_replace``, checked like ``Plate(...)``."""
        return cls(*iterable)

    @classmethod
    def _trusted(cls, n: int, blocks: tuple, positions: tuple) -> "Plate":
        """Build without validation.  Only for callers whose blocks are
        ascending tuples partitioning 1..n and whose positions are a tuple of
        positive ints, by construction."""
        return tuple.__new__(cls, (n, blocks, positions))

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return sum(self.positions)

    def __str__(self) -> str:
        return print_plate(self)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(b) for b in self.blocks],
            "positions": list(self.positions),
        }


def print_plate(p: Plate) -> str:
    """Canonical notation, always in brace form."""
    lumps = " ".join(
        "{" + ",".join(str(e) for e in b) + "}_" + str(s)
        for b, s in zip(p.blocks, p.positions)
    )
    return f"[[{lumps}]]"


def parse_plate(text: str, n: int | None = None) -> Plate:
    """Parse ``[[{3,5}_1 {1,2,4}_1 {6}_1]]``; compact digit lumps (``35_1``)
    are accepted when every element is a single digit.  n is inferred as the
    largest element unless given."""
    s = text
    i = 0

    def skip_ws(j: int) -> int:
        while j < len(s) and s[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if not s.startswith("[[", i):
        raise PlateParseError("expected '[['", i)
    i += 2
    lumps: list[tuple[list[int], int]] = []
    compact_used = False
    while True:
        i = skip_ws(i)
        if s.startswith("]]", i):
            i += 2
            break
        if i >= len(s):
            raise PlateParseError("unterminated plate, expected ']]'", len(s))
        # one lump: set then "_" then positive integer
        if s[i] == "{":
            close = s.find("}", i)
            if close < 0:
                raise PlateParseError("unclosed '{'", i)
            body = s[i + 1 : close]
            try:
                elems = [int(tok.strip()) for tok in body.split(",")]
            except ValueError:
                raise PlateParseError("malformed set element", i + 1) from None
            i = close + 1
        elif s[i].isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            elems = [int(ch) for ch in s[i:j]]
            compact_used = True
            i = j
        else:
            raise PlateParseError(f"unexpected character {s[i]!r}", i)
        if i >= len(s) or s[i] != "_":
            raise PlateParseError("expected '_' before position", i)
        i += 1
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == i:
            raise PlateParseError("expected a position", i)
        pos = int(s[i:j])
        if pos == 0:
            raise PlateParseError("zero position", i)
        i = j
        lumps.append((elems, pos))
    i = skip_ws(i)
    if i != len(s):
        raise PlateParseError("trailing input after ']]'", i)
    if not lumps:
        raise PlateParseError("empty plate", 0)
    elements = [e for b, _ in lumps for e in b]
    inferred = max(elements)
    size = n if n is not None else inferred
    if compact_used and size > 9:
        # single-digit shorthand is ambiguous past 9; brace form is required
        raise PlateParseError(f"compact digit lumps require n <= 9, got n={size}", 0)
    try:
        return Plate(size, tuple(tuple(b) for b, _ in lumps), tuple(s for _, s in lumps))
    except ValueError as exc:
        raise PlateParseError(str(exc), 0) from None


def evaluate(p: Plate, x: Sequence) -> int:
    """Indicator value of the plate's closed region at a rational point."""
    if len(x) != p.n:
        raise ValueError(f"point has {len(x)} coordinates, plate has n={p.n}")
    if any(xi < 0 for xi in x):
        return 0
    total = sum(x)
    if total != p.r:
        return 0
    acc = Fraction(0)
    bound = 0
    for block, pos in zip(p.blocks[:-1], p.positions[:-1]):
        acc += sum(x[e - 1] for e in block)
        bound += pos
        if acc < bound:
            return 0
    return 1


def rotate(p: Plate, t: int) -> Plate:
    """Move the last t (block, position) pairs to the front."""
    t %= p.k
    if t == 0:
        return p
    return Plate._trusted(
        p.n,
        p.blocks[-t:] + p.blocks[:-t],
        p.positions[-t:] + p.positions[:-t],
    )


def is_standard(p: Plate) -> bool:
    return 1 in p.blocks[0]


@lru_cache(maxsize=32)
def standard_basis(n: int, r: int) -> tuple[Plate, ...]:
    """All plates with 1 in the first lump, positions summing to r.

    Canonical order: lump count ascending, then ordered-set-partition order,
    then composition order.  The length is r^{n-1}.  Every call with the same
    (n, r) returns the same tuple.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return tuple(_plates(n, r, one_first=True))


def all_plates(n: int, r: int) -> Iterator[Plate]:
    """Every plate on {1..n} with positions summing to r (any first lump)."""
    return _plates(n, r, one_first=False)


def _plates(n: int, r: int, one_first: bool) -> Iterator[Plate]:
    for k in range(1, min(n, r) + 1):
        comps = enumerate_compositions(r, k)
        for blocks in enumerate_osp(n, k, one_first=one_first):
            for comp in comps:
                yield Plate._trusted(n, blocks, comp)


def apply_permutation(sigma: Permutation, p: Plate) -> Plate:
    """Relabel coordinates: each lump S becomes sigma(S), order and positions kept."""
    if sigma.n != p.n:
        raise ValueError(f"permutation on {sigma.n} letters, plate has n={p.n}")
    images = sigma.images
    return Plate._trusted(
        p.n,
        tuple(
            [
                (images[b[0] - 1],) if len(b) == 1 else tuple(sorted([images[e - 1] for e in b]))
                for b in p.blocks
            ]
        ),
        p.positions,
    )
