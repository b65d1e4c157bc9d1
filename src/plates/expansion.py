"""Symbolic expansion of plates into the standard basis, q-plates, and
plate-vector arithmetic.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .combinatorics import Permutation
from .core import Plate, apply_permutation, is_standard, print_plate, rotate, standard_basis
from .exactnum import CyclotomicNumber, OrderMismatchError, q_pow
from .linalg import Echelon

LumpSeq = tuple[tuple[tuple[int, ...], int], ...]


class PlateVector:
    """Formal combination of standard-basis plates with cyclotomic
    coefficients of order r = sum of positions."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int, terms: dict[Plate, CyclotomicNumber] | None = None):
        clean: dict[Plate, CyclotomicNumber] = {}
        for plate, coeff in (terms or {}).items():
            if plate.n != n or plate.r != r:
                raise ValueError(f"term {plate} does not live on (n={n}, r={r})")
            if not is_standard(plate):
                raise ValueError(f"term {plate} is not a standard-basis plate")
            c = _as_cyclotomic(r, coeff)
            if c:
                clean[plate] = c
        self.n = n
        self.r = r
        self.terms = clean

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "PlateVector") -> None:
        if self.n != other.n or self.r != other.r:
            raise ValueError(
                f"vector mismatch: (n={self.n}, r={self.r}) vs (n={other.n}, r={other.r})"
            )

    def __add__(self, other: "PlateVector") -> "PlateVector":
        self._check_compatible(other)
        terms = dict(self.terms)
        for plate, coeff in other.terms.items():
            terms[plate] = terms.get(plate, CyclotomicNumber.zero(self.r)) + coeff
        return PlateVector(self.n, self.r, terms)

    def __neg__(self) -> "PlateVector":
        return PlateVector(self.n, self.r, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "PlateVector") -> "PlateVector":
        return self + (-other)

    def scale(self, scalar) -> "PlateVector":
        c = _as_cyclotomic(self.r, scalar)
        return PlateVector(self.n, self.r, {p: c * v for p, v in self.terms.items()})

    def apply_permutation(self, sigma: Permutation) -> "PlateVector":
        out = PlateVector(self.n, self.r)
        for plate, coeff in self.terms.items():
            out = out + expand(apply_permutation(sigma, plate)).scale(coeff)
        return out

    # -- views ----------------------------------------------------------------

    def items(self):
        return self.terms.items()

    def coefficient(self, plate: Plate) -> CyclotomicNumber:
        return self.terms.get(plate, CyclotomicNumber.zero(self.r))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlateVector):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for plate in sorted(self.terms, key=lambda p: (p.k, p.blocks, p.positions)):
            bits.append(f"({self.terms[plate]})*{print_plate(plate)}")
        return " + ".join(bits)

    __repr__ = __str__

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


def _as_cyclotomic(r: int, value) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        if value.order != r:
            raise OrderMismatchError(f"order mismatch: {value.order} vs {r}")
        return value
    return CyclotomicNumber.from_rational(r, value)


def plate_vector(plate: Plate, coeff=1) -> PlateVector:
    """Single-term vector; the plate must be standard."""
    return PlateVector(plate.n, plate.r, {plate: _as_cyclotomic(plate.r, coeff)})


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
    return PlateVector(
        p.n, p.r, {b: CyclotomicNumber.from_rational(p.r, c) for b, c in counts.items()}
    )


def oracle_expand(p: Plate, plan=None) -> PlateVector:
    """Expansion through the geometric engine (solve against the sampled
    standard-basis evaluations); the slow, independent route."""
    from .oracle import SamplePlan, solve_in_basis

    if plan is None:
        plan = SamplePlan(p.n, p.r)
    basis = standard_basis(p.n, p.r)
    coeffs = solve_in_basis(p, basis, plan)
    return PlateVector(
        p.n, p.r, {b: CyclotomicNumber.from_rational(p.r, c) for b, c in zip(basis, coeffs) if c}
    )


# ---------------------------------------------------------------------------
# q-plates


@dataclass(frozen=True)
class QPlate:
    """Cyclic sum of a plate's rotations, weighted by powers of q = zeta^{-1}:
    the rotation moving positions with sum s to the front carries q^{-s}."""

    representative: Plate
    expansion: tuple[tuple[CyclotomicNumber, Plate], ...]


def qplate(p: Plate) -> QPlate:
    r = p.r
    terms = []
    for t in range(p.k):
        moved = sum(p.positions[p.k - t :])
        terms.append((q_pow(r, -moved), rotate(p, t)))
    return QPlate(p, tuple(terms))


def qplate_expand(p: Plate) -> PlateVector:
    """Push every rotation of the q-plate through the standard expansion."""
    out = PlateVector(p.n, p.r)
    for coeff, plate in qplate(p).expansion:
        out = out + expand(plate).scale(coeff)
    return out


def qbasis_matrix(n: int, r: int) -> tuple[list[list[CyclotomicNumber]], list[Plate]]:
    """Row i holds the standard-basis coordinates of the basis q-plate whose
    representative is standard_basis(n, r)[i]."""
    basis = standard_basis(n, r)
    index = {p: j for j, p in enumerate(basis)}
    rows = []
    for p in basis:
        vec = qplate_expand(p)
        row = [CyclotomicNumber.zero(r)] * len(basis)
        for plate, coeff in vec.items():
            row[index[plate]] = coeff
        rows.append(row)
    return rows, basis


def qbasis_is_invertible(n: int, r: int) -> bool:
    rows, basis = qbasis_matrix(n, r)
    ech = Echelon(len(basis))
    # square: invertible exactly when every row enlarges the span
    return all(ech.add_row(row) for row in rows)
