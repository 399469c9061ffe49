"""Finite-field arithmetic on packed ints against schoolbook arithmetic on
coefficient tuples.  The reference below shares no code with qdp4.fields:
it reads only each field's p, k and modulus, and only above degree k - 1, so
it serves F_p (k = 1, no modulus) unchanged.  The fields run from F_3 to
GF(1099511627689, 16), the largest field input may name (MAX_P, MAX_DEGREE)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdp4.fields import GF

FIELDS = (GF(3, 16), GF(3, 30), GF(13, 12), GF(1009, 6), GF(1099511627689, 2),
          GF(3), GF(1009), GF(1099511627689), GF(1099511627689, 16))
WIDEST = max(F.k for F in FIELDS)


def ref_add(F, a, b):
    return tuple((x + y) % F.p for x, y in zip(a, b))


def ref_neg(F, a):
    return tuple(-x % F.p for x in a)


def ref_mul(F, a, b):
    """Schoolbook product, then long division by the monic modulus."""
    prod = [0] * (2 * F.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, F.k - 1, -1):
        c = prod[top] % F.p
        for i, m in enumerate(F.modulus):
            prod[top - F.k + i] -= c * m
    return tuple(c % F.p for c in prod[:F.k])


def ref_one(F):
    return (1,) + (0,) * (F.k - 1)


def ref_pow(F, a, n):
    result, base = ref_one(F), a
    while n:
        if n & 1:
            result = ref_mul(F, result, base)
        base = ref_mul(F, base, base)
        n >>= 1
    return result


_digits = st.lists(st.integers(-2 ** 41, 2 ** 41), min_size=WIDEST, max_size=WIDEST)
_top = [-1] * WIDEST  # every coefficient p - 1


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(index=st.integers(0, len(FIELDS) - 1), a=_digits, b=_digits,
       n=st.integers(0, 2 ** 70))
@example(index=0, a=_top, b=_top, n=3 ** 16 - 2)
@example(index=1, a=_top, b=_top, n=2 ** 70)
@example(index=2, a=_top, b=[0] * WIDEST, n=0)
@example(index=3, a=_top, b=_top, n=1009 ** 6 - 2)
@example(index=4, a=_top, b=_top, n=1099511627689 ** 2 - 2)
@example(index=4, a=[0] * WIDEST, b=_top, n=1)
@example(index=5, a=_top, b=_top, n=3 - 2)
@example(index=6, a=_top, b=_top, n=1009 - 2)
@example(index=7, a=_top, b=_top, n=1099511627689 - 2)
@example(index=8, a=_top, b=_top, n=1099511627689 ** 16 - 2)
def test_packed_arithmetic_matches_coefficient_tuples(index, a, b, n):
    F = FIELDS[index]
    ca, cb = (tuple(c % F.p for c in v[:F.k]) for v in (a, b))
    x, y = F(ca), F(cb)
    assert (x.coeffs, y.coeffs) == (ca, cb)
    assert F(x.coeffs) == x and hash(F(x.coeffs)) == hash(x)
    assert (x + y).coeffs == ref_add(F, ca, cb)
    assert (-y).coeffs == ref_neg(F, cb)
    assert (x - y).coeffs == ref_add(F, ca, ref_neg(F, cb))
    assert (x * y).coeffs == ref_mul(F, ca, cb)
    assert (x ** n).coeffs == ref_pow(F, ca, n)
    assert (x < y) == (ca < cb) and (y < x) == (cb < ca)
    assert (x == y) == (ca == cb)
    if any(ca):
        inv = x.inverse()
        assert ref_mul(F, ca, inv.coeffs) == ref_one(F)
        assert (x ** -n).coeffs == ref_pow(F, inv.coeffs, n)
