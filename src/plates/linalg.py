"""Exact linear algebra: one dense reduced row-echelon kernel, taken either
modulo a prime or over an exact field whose elements support Python
arithmetic operators and truthiness (Fraction, CyclotomicNumber), and one
sparse fraction-free inverse of an integer matrix."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from operator import mul


class Echelon:
    """Reduced row-echelon form grown one row at a time: each row has a
    leading 1 at its pivot column and vanishes at every other pivot column.
    Keeping the rows reduced lets ``add_row`` subtract all pivot rows in one
    pass, which at width 256 (n=5, r=4) is 1.3-2x faster than plain forward
    elimination.

    With a prime ``modulus`` the entries are ints in 0..p-1, and every
    comprehension reduces mod p as it goes.  Without one the entries are exact
    field elements; ints are accepted and come out as Fractions.
    """

    def __init__(self, width: int, modulus: int | None = None) -> None:
        self.width = width
        self.modulus = modulus
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, row: Sequence) -> bool:
        """Insert a row; returns True when it enlarges the span."""
        p = self.modulus
        # the rows are reduced, so the row's own entries at the pivot columns
        # are the multiples of each pivot row to subtract (mod p, an entry
        # divisible by p just subtracts zero)
        coeffs, picked = [], []
        for prow, pcol in zip(self.rows, self.pivots):
            c = row[pcol]
            if c:
                coeffs.append(c)
                picked.append(prow)
        if p is None:
            if picked:
                # skip zero products: a CyclotomicNumber product with a zero
                # factor still costs a full multiplication, and q-basis rows are
                # mostly zeros (86% at (3, 5), 93% at (4, 4))
                reduced = []
                for v, col in zip(row, zip(*picked)):
                    terms = [c * b for c, b in zip(coeffs, col) if b]
                    reduced.append(v - sum(terms) if terms else v)
                row = reduced
        elif picked:
            row = [(v - sum(map(mul, coeffs, col))) % p for v, col in zip(row, zip(*picked))]
        else:
            row = [v % p for v in row]
        for col, val in enumerate(row):
            if val:
                if p is None:
                    inv = Fraction(1) / val  # never 1 / val: an int row would give floats
                    new = [a * inv for a in row]
                    for i, prow in enumerate(self.rows):
                        c = prow[col]
                        if c:
                            self.rows[i] = [a - c * b if b else a for a, b in zip(prow, new)]
                else:
                    inv = pow(val, -1, p)
                    new = [a * inv % p for a in row]
                    for i, prow in enumerate(self.rows):
                        c = prow[col]
                        if c:
                            self.rows[i] = [(a - c * b) % p for a, b in zip(prow, new)]
                self.rows.append(new)
                self.pivots.append(col)
                return True
        return False


SparseRows = list[list[tuple[int, int]]]  # integer rows of (column, entry) pairs


def scaled_inverse(matrix: Sequence[Sequence[int]]) -> tuple[int, SparseRows] | None:
    """(L, X) with M * X = L * I for the least L > 0, for a square integer
    matrix M; None when M is singular.  X is given as sparse rows of
    (column, entry) pairs in column order.

    Fraction-free Gauss-Jordan (Bareiss) on sparse rows of [M | I]: at step k
    every other row becomes (a_kk * row - a_ik * row_k) / prev, where prev is
    the previous pivot, and the division is exact, as every entry is, up to
    sign, a minor of [M | I].  Each pivot is the row with the fewest nonzeros
    among those that can serve, which keeps the fill low, negated if need be so
    that the pivot is positive: a pivot equal to prev leaves the rows without
    a_ik as they are, and the solver's 0/1 matrices have mostly pivots of 1.
    The left half ends as d * I with d = |det M|, so the right half is
    d * M^-1, and L = d / gcd(d, its entries).
    """
    m = len(matrix)
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    for i, row in enumerate(rows):
        row[m + i] = 1
    prev = 1
    for k in range(m):
        p = min((i for i in range(k, m) if k in rows[i]), key=lambda i: len(rows[i]), default=None)
        if p is None:
            return None
        pivot_row = rows[p]
        if pivot_row[k] < 0:
            pivot_row = {j: -v for j, v in pivot_row.items()}
        rows[p], rows[k] = rows[k], pivot_row
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            c = row.get(k)
            if c:
                new = {j: pivot * v for j, v in row.items()}
                for j, v in pivot_row.items():
                    new[j] = new.get(j, 0) - c * v
                rows[i] = {j: v // prev for j, v in new.items() if v}
            elif pivot != prev:
                rows[i] = {j: pivot * v // prev for j, v in row.items()}
        prev = pivot
    g = gcd(prev, *(v for row in rows for j, v in row.items() if j >= m))
    return prev // g, [sorted((j - m, v // g) for j, v in row.items() if j >= m) for row in rows]
