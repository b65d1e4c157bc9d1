"""Symbolic expansion of plates into the standard basis, q-plates, and
plate vectors (``exactnum.Combination`` over standard-basis plates).

The expansion of a plate whose lump containing 1 sits in slot m works over
*lumped shuffles*: interleavings of A = (the first m lumps, reversed, so the
1-lump leads) with B = (the remaining lumps), where some adjacent entries
merge into single lumps with positions added.  The merge rule, calibrated
against the geometric oracle on exhaustive small cases:

  * each output lump is a consecutive run of A-lumps plus at most one B-lump
    (B-lumps never merge with each other);
  * the leading output lump is a nonempty run of A-lumps only, i.e. the lump
    containing 1 never absorbs a B-lump.

A term with n_L output lumps carries sign (-1)^{m-1} * (-1)^{k-n_L}.
Characters need only the diagonal of the action, which is the case
n_L = k: ``unmerged_slots`` and ``diagonal_coefficient`` read it without
expanding.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .combinatorics import Permutation
from .core import Plate, is_standard, print_plate, rotate, standard_basis
from .exactnum import Combination, CyclotomicNumber, q_pow
from .linalg import Echelon
from .oracle import SamplePlan, solve_in_basis

LumpSeq = tuple[tuple[tuple[int, ...], int], ...]


class PlateVector(Combination):
    """Formal combination of standard-basis plates with cyclotomic
    coefficients of order r = sum of positions."""

    __slots__ = ()

    @staticmethod
    def _key(n: int, r: int, plate: Plate) -> Plate:
        if plate.n != n or plate.r != r:
            raise ValueError(f"term {plate} does not live on (n={n}, r={r})")
        if not is_standard(plate):
            raise ValueError(f"term {plate} is not a standard-basis plate")
        return plate

    @classmethod
    def combine(cls, n: int, r: int, pairs) -> "PlateVector":
        """sum(a * v) over the (scalar, vector) pairs."""
        return cls(n, r, ((b, a * c) for a, v in pairs for b, c in v.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for plate in sorted(self.terms, key=lambda p: (p.k, p.blocks, p.positions)):
            bits.append(f"({self.terms[plate]})*{print_plate(plate)}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "terms": [
                {"plate": print_plate(p), **p.to_json(), "coeff": c.to_json()}
                for p, c in sorted(
                    self.terms.items(), key=lambda kv: (kv[0].k, kv[0].blocks, kv[0].positions)
                )
            ],
        }


# ---------------------------------------------------------------------------
# lumped shuffles


def _merged_runs(a_pairs, b_pairs, first: bool) -> Iterator[LumpSeq]:
    if not a_pairs and not b_pairs:
        yield ()
        return
    min_take = 1 if first else 0
    for take in range(min_take, len(a_pairs) + 1):
        run = a_pairs[:take]
        rest_a = a_pairs[take:]
        # lump without a B entry
        if take >= 1:
            lump = _fuse(run)
            for tail in _merged_runs(rest_a, b_pairs, False):
                yield (lump,) + tail
        # lump with exactly one B entry (never in the leading lump)
        if not first and b_pairs:
            lump = _fuse(run + (b_pairs[0],))
            for tail in _merged_runs(rest_a, b_pairs[1:], False):
                yield (lump,) + tail


def _fuse(pairs) -> tuple[tuple[int, ...], int]:
    elements = tuple(sorted(e for block, _ in pairs for e in block))
    return elements, sum(pos for _, pos in pairs)


def unmerged_slots(sigma: Permutation, blocks) -> tuple[int, ...] | None:
    """For a plate p with these blocks and q = sigma . p: the slot of q that
    holds each lump of p, in p's order, when p's block sequence is that of an
    unmerged shuffle of q (the case of ``_merged_runs`` where every run holds
    one lump); None when it is not.

    An unmerged shuffle interleaves A = (slots m, m-1, ..., 0) with
    B = (slots m+1, ..., k-1), A first, where slot m holds 1, so p must be
    standard.  Lumps are disjoint, so distinct shuffles have distinct block
    sequences: at most one matches p.  Most sigma map some lump of p off p's
    blocks, so lumps are tested one at a time and the first miss returns.
    """
    if 1 not in blocks[0]:
        return None
    images = sigma.images
    index = {block: t for t, block in enumerate(blocks)}
    slots = [0] * len(blocks)
    for j, block in enumerate(blocks):  # slot j of q holds sigma(block)
        t = index.get(tuple(sorted([images[e - 1] for e in block])))
        if t is None:
            return None
        slots[t] = j
    next_a = slots[0]  # m: p's first lump holds 1
    next_b = next_a + 1
    for j in slots:
        if j == next_a:
            next_a -= 1
        elif j == next_b:
            next_b += 1
        else:
            return None
    return tuple(slots)


def diagonal_coefficient(slots: tuple[int, ...] | None, positions) -> int:
    """The p-coefficient of expand(sigma . p), given p's positions and
    ``unmerged_slots(sigma, p.blocks)``.

    sigma . p has p's positions in its own slot order, and every merge lowers
    the lump count, so only an unmerged shuffle can equal p: it does when each
    lump of p sits at the position of the slot it comes from, and then it
    carries sign (-1)^{m-1}, m = slots[0] + 1.  No other term of the
    expansion is p, so nothing cancels.
    """
    if slots is None or any(positions[t] != positions[j] for t, j in enumerate(slots)):
        return 0
    return -1 if slots[0] % 2 else 1


def lumped_shuffles(a_pairs, b_pairs) -> list[tuple[LumpSeq, int]]:
    """All lumped shuffles of A and B with their lump counts.

    A and B are sequences of (block, position) pairs; A must lead with the
    block containing 1.
    """
    a_pairs = tuple((tuple(b), s) for b, s in a_pairs)
    b_pairs = tuple((tuple(b), s) for b, s in b_pairs)
    if not a_pairs or 1 not in a_pairs[0][0]:
        raise ValueError("A must begin with the block containing 1")
    return [(seq, len(seq)) for seq in _merged_runs(a_pairs, b_pairs, True)]


@lru_cache(maxsize=1 << 14)
def expand(p: Plate) -> PlateVector:
    """Standard-basis expansion of a plate (identity on standard plates)."""
    m_idx = next(i for i, b in enumerate(p.blocks) if 1 in b)
    a_pairs = tuple((p.blocks[i], p.positions[i]) for i in range(m_idx, -1, -1))
    b_pairs = tuple((p.blocks[i], p.positions[i]) for i in range(m_idx + 1, p.k))
    sign_prefix = -1 if m_idx % 2 else 1  # (-1)^{m-1}, m = m_idx + 1
    counts: dict[Plate, int] = {}
    for seq, n_lumps in lumped_shuffles(a_pairs, b_pairs):
        sign = sign_prefix * (1 if (p.k - n_lumps) % 2 == 0 else -1)
        # _fuse sorts each lump and adds positive positions
        plate = Plate._trusted(p.n, tuple(b for b, _ in seq), tuple(s for _, s in seq))
        counts[plate] = counts.get(plate, 0) + sign
    return PlateVector(p.n, p.r, counts)


def oracle_expand(p: Plate, plan=None) -> PlateVector:
    """Expansion through the geometric engine (solve against the
    standard-basis evaluations on the generic-point lattice); the slow,
    independent route."""
    if plan is None:
        plan = SamplePlan(p.n, p.r)
    basis = standard_basis(p.n, p.r)
    coeffs = solve_in_basis(p, basis, plan)
    return PlateVector(p.n, p.r, ((b, c) for b, c in zip(basis, coeffs) if c))


# ---------------------------------------------------------------------------
# q-plates


def qplate(p: Plate) -> tuple[tuple[CyclotomicNumber, Plate], ...]:
    """Cyclic sum of a plate's rotations, weighted by powers of q = zeta^{-1},
    as its (weight, rotated plate) pairs: the rotation moving positions with
    sum s to the front carries q^{-s}."""
    return tuple((q_pow(p.r, -sum(p.positions[p.k - t :])), rotate(p, t)) for t in range(p.k))


def qplate_expand(p: Plate, engine=None) -> PlateVector:
    """Push every rotation of the q-plate through an engine, a function from
    plates to plate vectors (default ``expand``, looked up at each call)."""
    images = ((coeff, (engine or expand)(rotated)) for coeff, rotated in qplate(p))
    return PlateVector.combine(p.n, p.r, images)


def qbasis_matrix(n: int, r: int) -> tuple[list[list[CyclotomicNumber]], tuple[Plate, ...]]:
    """Row i holds the standard-basis coordinates of the basis q-plate whose
    representative is standard_basis(n, r)[i]."""
    basis = standard_basis(n, r)
    zero = CyclotomicNumber.zero(r)
    vectors = [qplate_expand(p) for p in basis]
    return [[vec.terms.get(p, zero) for p in basis] for vec in vectors], basis


def qbasis_is_invertible(rows: list[list[CyclotomicNumber]]) -> bool:
    """Whether the square matrix ``rows`` (as from ``qbasis_matrix``) is invertible."""
    ech = Echelon(len(rows))
    # square: invertible exactly when every row enlarges the span
    return all(ech.add_row(row) for row in rows)
