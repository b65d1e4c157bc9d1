"""Dense matrix inverse and product over any field, used by the tests to
check action matrices and q-basis conjugation; the package itself needs
neither."""

from __future__ import annotations


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

