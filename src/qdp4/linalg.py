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


def _rref(mat):
    """Reduced row echelon form by Gauss-Jordan elimination over any field.

    Returns (rows, pivot_cols): row i of the echelon form has its leading
    one in column pivot_cols[i]; the rows after the last pivot are zero.
    """
    rows = [list(r) for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
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
        pivots.append(col)
    return rows, pivots


def rank(mat) -> int:
    """Rank over the coefficient field."""
    return len(_rref(mat)[1])


def kernel_vector(mat, field):
    """One nonzero kernel vector of a singular square matrix, deterministically.

    Returns the kernel vector with the first free column set to one, by
    reduced echelon back-substitution; None if the matrix is invertible.
    """
    rows, pivots = _rref(mat)
    fcol = next((c for c in range(len(mat)) if c not in pivots), None)
    if fcol is None:
        return None
    v = [field.zero] * len(mat)
    v[fcol] = field.one
    for row, pcol in zip(rows, pivots):
        v[pcol] = -row[fcol]
    return v


def det(mat):
    """Determinant of a nonempty square matrix by Bareiss fraction-free
    elimination with row swaps.  Every division is exact, so the entries may
    be field elements or polynomials (`Poly` division refuses a remainder)."""
    rows = [list(r) for r in mat]
    n = len(rows)
    negate = False
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if not _iszero(rows[i][k])), None)
        if pivot is None:
            return rows[k][k]
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            negate = not negate
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]
                rows[i][j] = num / rows[k - 1][k - 1] if k else num
    return -rows[-1][-1] if negate else rows[-1][-1]


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
    rows, pivots = _rref([[Fraction(mat[i][j]) for j in range(n)] +
                          [Fraction(1 if i == j else 0) for j in range(n)]
                          for i in range(n)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in rows]
