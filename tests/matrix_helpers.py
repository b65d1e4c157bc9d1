"""Dense action matrices, and matrix inverse and product over any field,
used by the tests to check the permutation action and q-basis conjugation;
the package itself needs none of them (characters read only the diagonal,
through ``characters.plate_trace``)."""

from __future__ import annotations

from collections import namedtuple

from plates.combinatorics import Permutation
from plates.core import apply_permutation, standard_basis
from plates.exactnum import CyclotomicNumber
from plates.expansion import expand


class ActionMatrix(namedtuple("ActionMatrix", "basis entries")):
    """Matrix of a permutation on the standard basis: column j holds the
    expansion of sigma applied to basis plate j, so entries[i][j] is the
    coefficient of basis[i].  It compares equal to the tuple (basis, entries)."""

    __slots__ = ()

    def trace(self) -> CyclotomicNumber:
        return sum((self.entries[i][i] for i in range(1, len(self.basis))), self.entries[0][0])


def action_matrix(sigma: Permutation, n: int, r: int) -> ActionMatrix:
    """The full matrix of sigma on the standard basis, one expand per column:
    for checks that multiply or conjugate action matrices, and whose trace
    cross-checks ``plate_trace``."""
    basis = standard_basis(n, r)
    index = {p: i for i, p in enumerate(basis)}
    zero = CyclotomicNumber.zero(r)
    cols = []
    for p in basis:
        vec = expand(apply_permutation(sigma, p))
        col = [zero] * len(basis)
        for plate, coeff in vec.items():
            col[index[plate]] = coeff
        cols.append(col)
    return ActionMatrix(tuple(basis), tuple(zip(*cols)))  # entries are the transpose


def invert(matrix: list[list], zero, one) -> list[list] | None:
    """Inverse of a square matrix; None when singular."""
    m = len(matrix)
    aug = [
        list(row) + [one if i == j else zero for j in range(m)]
        for i, row in enumerate(matrix)
    ]
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
    return [row[m:] for row in aug]


def mat_mul(a: list[list], b: list[list], zero) -> list[list]:
    cols = len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = zero
            for x, brow in zip(row, b):
                if x:
                    acc = acc + x * brow[j]
            new.append(acc)
        out.append(new)
    return out

