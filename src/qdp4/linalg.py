"""Small exact linear algebra over any field and the integers: one Bareiss
elimination behind the rank, the determinant and kernel vectors."""

from __future__ import annotations


def mat_mul(a, b):
    n, m, r = len(a), len(b[0]), len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def congruence(m, a):
    """m^T a m for matrices over any field."""
    return mat_mul(transpose(m), mat_mul(a, m))


def _exact_div(a, b):
    """a / b where b divides a: `//` on ints, with the remainder checked, and
    field division otherwise."""
    if isinstance(a, int):
        q, rem = divmod(a, b)
        if rem:
            raise ArithmeticError("inexact integer division")
        return q
    return a / b


def _echelon(mat):
    """Row echelon form by Bareiss fraction-free elimination with row swaps
    (Bareiss 1968).

    Returns (rows, pivots, swaps): row r < len(pivots) has its pivot in
    column pivots[r], and every entry right of it is a minor of mat, so
    each division is exact and the entries may be integers or field
    elements.  Entries left of a pivot are stale; a column without a
    pivot is zero from row len(pivots) down.  A square matrix of full rank
    has determinant (-1)^swaps times the last pivot.
    """
    rows = [list(r) for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots, swaps, prev = [], 0, None
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        for i in range(r + 1, len(rows)):
            for j in range(col + 1, ncols):
                num = rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]
                rows[i][j] = num if prev is None else _exact_div(num, prev)
        prev = rows[r][col]
        pivots.append(col)
    return rows, pivots, swaps


def rank(mat) -> int:
    """Rank over the coefficient field (over Q for integer matrices)."""
    return len(_echelon(mat)[1])


def det(mat):
    """Determinant of a nonempty square matrix."""
    rows, pivots, swaps = _echelon(mat)
    if len(pivots) < len(rows):  # a column without pivot: its last entry is a zero
        return rows[-1][next(c for c in range(len(rows)) if c not in pivots)]
    return -rows[-1][-1] if swaps % 2 else rows[-1][-1]


def kernel_vector(mat, field):
    """One nonzero kernel vector of a matrix, deterministically: the one
    whose first free column is one and whose other free columns are zero,
    its pivot entries solved from the last pivot up.  None if every column
    has a pivot."""
    rows, pivots, _ = _echelon(mat)
    ncols = len(mat[0])
    fcol = next((c for c in range(ncols) if c not in pivots), None)
    if fcol is None:
        return None
    v = [field.zero] * ncols
    v[fcol] = field.one
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        v[c] = -sum((rows[r][j] * v[j] for j in range(c + 1, ncols)), field.zero) / rows[r][c]
    return v
