"""Small exact linear algebra: generic field Gaussian elimination and integer ranks."""

from __future__ import annotations

from fractions import Fraction

from .fields import _inv, _iszero


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


def rank(mat, field) -> int:
    """Rank over the coefficient field (fraction-full Gaussian elimination)."""
    if not mat:
        return 0
    rows = [list(r) for r in mat]
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not _iszero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inv(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not _iszero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def kernel_vector(mat, field):
    """One nonzero kernel vector of a singular square matrix, deterministically.

    Returns the kernel vector with the last free column set to one, reduced
    echelon back-substitution; None if the matrix is invertible.
    """
    n = len(mat)
    rows = [list(r) for r in mat]
    pivots = []  # (row, col)
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if not _iszero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inv(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not _iszero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    if not free:
        return None
    fcol = free[0]
    v = [field.zero] * n
    v[fcol] = field.one
    for prow, pcol in pivots:
        v[pcol] = -rows[prow][fcol]
    return v


def int_rank(mat) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss) elimination."""
    if not mat:
        return 0
    rows = [list(map(int, r)) for r in mat]
    n, m = len(rows), len(rows[0])
    r = 0
    prev = 1
    for col in range(m):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, n):
            for j in range(col + 1, m):
                num = rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]
                q, rem = divmod(num, prev)
                assert rem == 0  # Bareiss divisions are exact
                rows[i][j] = q
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
        if r == n:
            break
    return r


def int_kernel_dim(mat) -> int:
    ncols = len(mat[0]) if mat else 0
    return ncols - int_rank(mat)


def frac_inverse(mat):
    """Inverse of a square matrix over Q (Gauss-Jordan); raises on singular input."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] +
           [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def identity(n, one=1, zero=0):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
