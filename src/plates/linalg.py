"""Dense exact linear algebra over any field whose elements support Python
arithmetic operators and truthiness (Fraction, CyclotomicNumber)."""

from __future__ import annotations


class Echelon:
    """Incremental row-echelon form; rows are normalized to a leading 1."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: list) -> list:
        row = list(row)
        for prow, pcol in zip(self.rows, self.pivots):
            c = row[pcol]
            if c:
                row = [a - c * b for a, b in zip(row, prow)]
        return row

    def add_row(self, row: list) -> bool:
        """Insert a row; returns True when it enlarges the span."""
        row = self.reduce(row)
        for col, val in enumerate(row):
            if val:
                inv = 1 / val
                self.rows.append([a * inv for a in row])
                self.pivots.append(col)
                return True
        return False


def rank_of(rows: list[list]) -> int:
    if not rows:
        return 0
    ech = Echelon(len(rows[0]))
    for row in rows:
        ech.add_row(row)
    return ech.rank


def solve_square(matrix: list[list], rhs: list) -> list | None:
    """Solve M c = rhs for square M by Gauss-Jordan; None when singular."""
    m = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(m):
        pivot_row = next((i for i in range(col, m) if aug[i][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pv = aug[col][col]
        inv = 1 / pv
        aug[col] = [a * inv for a in aug[col]]
        for i in range(m):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return [row[m] for row in aug]
