import random
from fractions import Fraction
from functools import partial

from qdp4.fields import GF, QQ, random_element
from qdp4.linalg import det, kernel_vector, mat_mul, mat_vec, rank


def _random_of_rank(field, rng, n, r):
    """An n x n matrix of rank r: r rows in echelon form with unit pivots,
    then random combinations of them, in shuffled order."""
    rows = [[field.one if j == i else random_element(field, rng) if j > i
             else field.zero for j in range(n)] for i in range(r)]
    for _ in range(n - r):
        coeffs = [random_element(field, rng) for _ in range(r)]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows[:r])), field.zero)
                     for j in range(n)])
    rng.shuffle(rows)
    return rows


def test_rank_and_kernel_vector_share_one_elimination():
    rng = random.Random(5)
    for field in (GF(5), GF(3, 2)):
        for r in range(6):
            M = _random_of_rank(field, rng, 5, r)
            assert rank(M) == r
            v = kernel_vector(M, field)
            if r == 5:
                assert v is None
                continue
            assert any(v)
            assert not any(mat_vec(M, v))
    assert rank([]) == 0
    # of the two free columns, the first is set to one
    M = [[Fraction(i * j) for j in (1, 2, 3)] for i in (1, 2, 3)]
    assert kernel_vector(M, QQ) == [Fraction(-2), Fraction(1), Fraction(0)]


def test_integer_rank_matches_the_rank_over_q():
    # integer entries divide with `//`, which raises on a remainder
    rng = random.Random(6)
    for r in range(1, 6):
        L = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(6)]
        R = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(r)]
        M = mat_mul(L, R)
        assert rank(M) == rank([[Fraction(x) for x in row] for row in M]) == r


def test_kernel_vector_of_a_wide_matrix():
    # n x (n+1) and n x (n+2): the first column without a pivot is one, the
    # later free columns zero, and every row annihilates the vector
    rng = random.Random(7)
    F7, F9 = GF(7), GF(3, 2)
    fields = [(QQ, lambda: rng.randint(-9, 9)),
              (QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
              (F7, partial(random_element, F7, rng)), (F9, partial(random_element, F9, rng))]
    for field, draw in fields:
        for n in range(1, 5):
            for extra in (1, 2):
                M = [[draw() for _ in range(n + extra)] for _ in range(n)]
                v = kernel_vector(M, field)
                assert not any(mat_vec(M, v))
                free = [c for c in range(n + extra)
                        if rank([row[:c + 1] for row in M]) == rank([row[:c] for row in M])]
                assert v[free[0]] == field.one
                assert all(v[c] == field.zero for c in free[1:])
    # a column left of every pivot is free: the back-substitution still
    # returns field elements, not the float of an empty sum over an int pivot
    assert kernel_vector([[0, 1]], QQ) == [Fraction(1), Fraction(0)]
    assert all(type(x) is Fraction for x in kernel_vector([[0, 1]], QQ))


def _cofactor(M):
    """Determinant by cofactor expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    acc = None
    for j in range(len(M)):
        term = M[0][j] * _cofactor([row[:j] + row[j + 1:] for row in M[1:]])
        acc = term if acc is None else acc - term if j % 2 else acc + term
    return acc


def test_det_matches_cofactor_expansion_on_scalars():
    rng = random.Random(8)
    for field in (GF(5), GF(3, 2)):
        for n in range(1, 6):
            for r in range(n + 1):
                M = _random_of_rank(field, rng, n, r)
                d = det(M)
                assert d == _cofactor(M)
                assert (not d) == (r < n)
    for n in range(1, 6):
        M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assert det(M) == _cofactor(M)
        M[0][0] = Fraction(0)  # the first pivot comes from a row swap
        assert det(M) == _cofactor(M)
        M[-1] = [2 * x for x in M[0]]
        assert det(M) == 0


def test_det_matches_cofactor_expansion_on_integers():
    # the pencil's determinants are integer lifts: entries up to 2^200, as
    # Kronecker-packed F_{p^k} entries are, divide exactly with `//`
    rng = random.Random(9)
    for bits in (4, 64, 200):
        for n in range(1, 6):
            M = [[rng.randrange(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(n)]
            assert det(M) == _cofactor(M)
            for row in M[:-1]:  # the first pivot is in the last row
                row[0] = 0
            assert det(M) == _cofactor(M)
            if n > 1:
                c = rng.randrange(1, 2 ** bits)
                M[1] = [x * c for x in M[0]]
                assert det(M) == 0
