import itertools
import pickle
import random
import re
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdp4 import fields
from qdp4.linalg import det
from qdp4.fields import (GF, MAX_DEGREE, QQ, DegenerateInputError, FFElem,
                         FieldMismatchError, Poly, UnsupportedFieldError,
                         _canonical_modulus, _Frobenius, _is_prime,
                         conjugate_roots, embed, embed_poly, factor, field_from_descriptor, is_square,
                         poly_gcd, random_element, rational_roots,
                         scalar_from_json, scalar_to_json, split_root,
                         squarefree)


def test_rational_arithmetic():
    assert QQ(1) / QQ(2) + QQ(1) / QQ(3) == Fraction(5, 6)


def test_an_int_equals_an_element_only_with_the_same_hash():
    # an int in [0, p) is the element of F_p it names, so 3 == GF(7)(3) but
    # 10 != GF(7)(3), and equal objects hash alike, in either operand order
    for F in (GF(7), GF(3, 2)):
        for x in F.elements():
            for n in range(-2 * F.p, 2 * F.p):
                assert (x == n) == (n == x) == (0 <= n < F.p and F(n) == x)
                if x == n:
                    assert hash(x) == hash(n)
    assert GF(7)(3) in {3} and GF(7)(3) not in {10} and 1 in {GF(3, 2)(1)}


def test_prime_field_inverse():
    F5 = GF(5)
    assert F5(2).inverse() == F5(3)
    assert F5(2) * F5(3) == F5.one


def test_extension_modulus_and_multiplication():
    # canonical modulus of GF(9) is t^2 + 1, so t * t = -1
    F9 = GF(3, 2)
    assert tuple(F9.modulus) == (1, 0, 1)
    t = F9.gen()
    assert t * t == F9(-1)
    assert t * t == F9(2)


def test_division_by_zero():
    F5 = GF(5)
    with pytest.raises(ZeroDivisionError):
        F5.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero
    for field in (QQ, F5, GF(3, 2)):
        with pytest.raises(ZeroDivisionError):
            1 / field.zero


def test_descriptor_mismatch():
    with pytest.raises(FieldMismatchError):
        GF(5)(2) + GF(7)(2)
    with pytest.raises(FieldMismatchError):
        GF(5)(2) * GF(5, 2)(2)


def test_inverse_property_exhaustive_small():
    for field in (GF(3), GF(7), GF(3, 2), GF(5, 2)):
        for a in field.elements():
            assert bool(a) == (a != field.zero)
            assert (a == 1) == (a == field.one)
            if not a:
                continue
            assert a * a.inverse() == field.one
            assert 1 / a == a.inverse()


def _euclid_gcd_degree_mod5(f, g):
    """Independent Euclidean algorithm on integer coefficient lists mod 5."""
    def deg(h):
        return len(h) - 1

    def strip(h):
        h = list(h)
        while h and h[-1] % 5 == 0:
            h.pop()
        return h

    f, g = strip(f), strip(g)
    while g:
        while deg(f) >= deg(g):
            inv = pow(g[-1], 3, 5)  # x^-1 = x^3 in F_5
            c = (f[-1] * inv) % 5
            shift = deg(f) - deg(g)
            for i, gc in enumerate(g):
                f[i + shift] = (f[i + shift] - c * gc) % 5
            f = strip(f)
            if not f:
                break
        f, g = g, f
    return deg(f)


def test_squarefree_examples():
    f = Poly.from_ints(QQ, [0, -6, 11, -6, 1])  # t(t-1)(t-2)(t-3)
    assert squarefree(f)
    g = Poly.from_ints(QQ, [0, 0, -1, 1])  # t^2 (t-1)
    assert not squarefree(g)
    # t^5 - t - 1 over F_5: oracle gcd(f, f') via an independent Euclid
    coeffs = [4, 4, 0, 0, 0, 1]
    deriv = [(i * c) % 5 for i, c in enumerate(coeffs)][1:]
    assert _euclid_gcd_degree_mod5(coeffs, deriv) == 0
    assert squarefree(Poly.from_ints(GF(5), coeffs))


def test_squarefree_zero_rejected():
    with pytest.raises(DegenerateInputError):
        squarefree(Poly(QQ, []))


def _all_monic_irreducibles_up_to_degree_2(p):
    field = GF(p)
    out = []
    for a in range(p):
        out.append(Poly.from_ints(field, [a, 1]))
    for a in range(p):
        for b in range(p):
            f = Poly.from_ints(field, [a, b, 1])
            if all(f.evaluate(field(x)) != field.zero for x in range(p)):
                out.append(f)
    return out


def test_factor_fermat():
    F5 = GF(5)
    f = Poly.from_ints(F5, [0, -1, 0, 0, 0, 1])  # t^5 - t
    fs = factor(f)
    assert len(fs) == 5
    assert all(g.degree == 1 for g in fs)
    roots = sorted((-g.coeffs[0]).coeffs[0] for g in fs)
    assert roots == [0, 1, 2, 3, 4]


def test_factor_artin_schreier_irreducible():
    # t^5 - t - 1 over F_5: irreducibility certified by trial division
    # against every monic irreducible of degree <= 2
    F5 = GF(5)
    f = Poly.from_ints(F5, [4, 4, 0, 0, 0, 1])
    for d in _all_monic_irreducibles_up_to_degree_2(5):
        assert not (f % d).is_zero()
    fs = factor(f)
    assert len(fs) == 1 and fs[0].degree == 5


def test_factor_quadratic():
    F5 = GF(5)
    f = Poly.from_ints(F5, [1, 0, 1])  # t^2 + 1 = (t - 2)(t - 3)
    fs = factor(f)
    assert [tuple(c.coeffs[0] for c in g.coeffs) for g in fs] == \
        [(2, 1), (3, 1)]  # t + 2 = t - 3 and t + 3 = t - 2


def test_factor_rejects_rationals():
    with pytest.raises(UnsupportedFieldError):
        factor(Poly.from_ints(QQ, [1, 1]))


def test_factor_of_a_nonzero_constant_is_empty():
    for field in (GF(5), GF(3, 2)):
        assert factor(Poly.from_ints(field, [2])) == []


@pytest.mark.parametrize("call,error,message", [
    (lambda: QQ(GF(5)(1)), FieldMismatchError, "cannot coerce a finite-field element into Q"),
    (lambda: fields.FiniteField(5), TypeError, "use GF(p, k) to construct finite fields"),
    (lambda: GF(5)(GF(7)(1)), FieldMismatchError, "element of GF(7) used in GF(5)"),
    (lambda: GF(5, 0), ValueError, "extension degree must be >= 1"),
    (lambda: scalar_to_json("1"), TypeError, "not a scalar: '1'"),
    (lambda: rational_roots(Poly.from_ints(GF(5), [1, 1])), UnsupportedFieldError,
     "rational_roots expects a polynomial over Q"),
    (lambda: is_square(Fraction(2)), UnsupportedFieldError,
     "is_square is defined over finite fields"),
    (lambda: embed(GF(5)(1), QQ), FieldMismatchError,
     "cannot embed a finite-field element into Q"),
    (lambda: embed(Fraction(1, 2), GF(5)), FieldMismatchError,
     "cannot embed a rational into a finite field"),
    (lambda: embed(GF(5)(1), GF(7, 2)), FieldMismatchError, "no embedding GF(5) -> GF(7^2)"),
    (lambda: embed(GF(5, 2)([1, 1]), GF(5, 3)), FieldMismatchError,
     "no embedding GF(5^2) -> GF(5^3)")])
def test_refusals_give_their_exact_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_factor_multiply_back_1000_random():
    # 200 squarefree polynomials of degree 1-6 over each field
    rng = random.Random(1234)
    for p in (3, 5, 7, 11, 13):
        field = GF(p)
        drawn = 0
        while drawn < 200:
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 8))]
            f = Poly.from_ints(field, coeffs)
            if f.degree < 1 or not squarefree(f):
                continue
            drawn += 1
            prod = Poly(field, [f.leading()])
            for g in factor(f):
                assert g.leading() == field.one
                prod = prod * g
            assert prod == f


def _distinct_elements(field, n, rng):
    out = []
    while len(out) < n:
        a = random_element(field, rng)
        if a not in out:
            out.append(a)
    return out


def _with_roots(field, roots, lead=2):
    f = Poly(field, [field(lead)])
    for r in roots:
        f = f * Poly(field, [-r, field.one])
    return f


def test_split_root_finds_a_root_of_split_polynomials():
    # products of 1 to 6 distinct linear factors over F_7, F_9, F_25 and the
    # largest fields the benchmark splits in: F_{3^12}, F_{11^12}, F_{1009^5}
    rng = random.Random(99)
    for field in (GF(7), GF(3, 2), GF(5, 2), GF(3, 12), GF(11, 12), GF(1009, 5)):
        for n in range(1, 7):
            for _ in range(5 if field.order < 100 else 2):
                roots = _distinct_elements(field, n, rng)
                f = _with_roots(field, roots)
                root = split_root(f)
                assert root in roots and f.evaluate(root) == field.zero
                assert split_root(f) == root
    # a constant, x^2 + 1 over a prime field P = 3 mod 4, (x - 1)^2 and an
    # irreducible x^2 - a over an extension: none divides x^q - x, and none
    # may loop, whether the Frobenius matrix holds int64 or Python ints
    big = 1099511627563  # prime, 3 mod 4

    def irreducible_quadratic(F):
        a = next(a for a in (random_element(F, rng) for _ in range(100))
                 if a and not is_square(a))
        return Poly(F, [-a, F.zero, F.one])

    cases = {np.int64: [Poly.from_ints(GF(7), [3]), Poly.from_ints(GF(3), [1, 0, 1]),
                        Poly.from_ints(GF(5), [1, -2, 1]), irreducible_quadratic(GF(3, 2))],
             object: [Poly.from_ints(GF(big), [1, 0, 1]), Poly.from_ints(GF(big), [1, -2, 1]),
                      irreducible_quadratic(GF(10 ** 9 + 7, 5))]}
    for dtype, polys in cases.items():
        for f in polys:
            if f.degree > 0:
                assert _Frobenius(f).dtype is dtype
            with pytest.raises(DegenerateInputError):
                split_root(f)


def test_poly_divmod_gives_quotient_and_remainder():
    F7 = GF(7)
    f = Poly.from_ints(F7, [1, 1])
    g = Poly.from_ints(F7, [3, 0, 2])
    one = Poly.from_ints(F7, [1])
    assert divmod(f * g, f) == (g, Poly(F7, []))
    assert divmod(f * g + one, f) == (g, one)
    assert divmod(f, g) == (Poly(F7, []), f)
    with pytest.raises(ZeroDivisionError):
        divmod(g, Poly(F7, []))
    # one division routine for Q, F_p, F_{p^k} and p near 2^40: q b + r = a
    rng = random.Random(29)
    for field in (QQ, F7, GF(3, 16), GF(11, 12), GF(1099511627689), GF(1099511627689, 2)):
        def scalar():
            if field.is_rational:
                return Fraction(rng.randrange(-50, 50), rng.randrange(1, 9))
            return random_element(field, rng)
        for da, db in ((0, 0), (3, 5), (5, 5), (6, 1), (9, 4)):
            a = Poly(field, [scalar() for _ in range(da)] + [field(rng.randrange(1, 7))])
            b = Poly(field, [scalar() for _ in range(db)] + [field(rng.randrange(2, 7))])
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
            assert (a // b, a % b) == (q, r)


def test_factor_detects_multiplicity_and_frobenius_powers():
    # factor and rational_roots take squarefree input only; any other input
    # is refused with gcd(f, f') as the witness
    F3 = GF(3)
    x_plus_1 = Poly.from_ints(F3, [1, 1])
    cases = [
        (factor, x_plus_1 * x_plus_1 * x_plus_1 * Poly.from_ints(F3, [2, 1]), "[1, 0, 0, 1]"),
        (factor, Poly.from_ints(F3, [-1, 0, 0, 1]), "[2, 0, 0, 1]"),  # x^3 - 1, f' = 0
        (rational_roots, Poly.from_ints(QQ, [0, 0, -1, 1]), "['0', '1']"),  # x^2 (x - 1)
    ]
    for fn, f, witness in cases:
        with pytest.raises(DegenerateInputError, match=re.escape(f"gcd(f, f') = {witness}")):
            fn(f)


def has_square_factor(f):
    """Trial division: some monic h of degree 1 to deg f / 2 has h^2 | f."""
    field = f.field
    for d in range(1, f.degree // 2 + 1):
        for tail in itertools.product(list(field.elements()), repeat=d):
            h = Poly(field, list(tail) + [field.one])
            if (f % (h * h)).is_zero():
                return True
    return False


def test_squarefree_iff_no_repeated_roots():
    rng = random.Random(999)
    repeated = 0
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        field = GF(p)
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 7))]
        f = Poly.from_ints(field, coeffs)
        if f.degree < 1:
            continue
        assert squarefree(f) == (not has_square_factor(f)), f
        repeated += has_square_factor(f)
    assert repeated >= 20


def test_is_square_examples():
    F5 = GF(5)
    assert is_square(F5(4))
    assert not is_square(F5(2))
    for a in F5.elements():
        if a:
            assert is_square(a * a)
    with pytest.raises(DegenerateInputError):
        is_square(F5.zero)


def _prime_powers_up_to(bound):
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    out = []
    for p in range(3, bound + 1, 2):
        if not is_prime(p):
            continue
        k = 1
        while p ** k <= bound:
            out.append((p, k))
            k += 1
    return out


def test_is_square_agrees_with_exhaustive_squaring():
    for p, k in _prime_powers_up_to(343):
        field = GF(p, k)
        squares = {a * a for a in field.elements() if a}
        for a in field.elements():
            if not a:
                continue
            assert is_square(a) == (a in squares), (p, k, a)


def test_rational_roots():
    f = Poly.from_ints(QQ, [6, -11, 6, -1])  # -(t-1)(t-2)(t-3)
    assert rational_roots(f) == [Fraction(1), Fraction(2), Fraction(3)]
    g = Poly(QQ, [Fraction(-1, 2), Fraction(0), Fraction(1)])  # t^2 - 1/2
    assert rational_roots(g) == []
    h = Poly.from_ints(QQ, [0, 2, -2])  # -2 t (t - 1)
    assert rational_roots(h) == [Fraction(0), Fraction(1)]


def divisor_rational_roots(f):
    """The divisor enumeration: a rational root a/b of the primitive integer
    polynomial c_n x^n + ... + c_0 has a | c_0 and b | c_n, so trying every
    such candidate finds them all, in time that grows with the divisor counts."""
    den = lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * den) for c in f.coeffs]
    ints = [c // gcd(*ints) for c in ints]
    out = []
    while ints[0] == 0:
        ints.pop(0)
        out = [Fraction(0)]
    if len(ints) <= 1:
        return out

    def divisors(n):
        return {e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}

    g = Poly(QQ, [Fraction(c) for c in ints])
    return sorted(out + [r for r in {Fraction(s * a, b) for a in divisors(abs(ints[0]))
                                     for b in divisors(abs(ints[-1])) for s in (1, -1)}
                         if g.evaluate(r) == 0])


def _random_rational_poly(rng):
    """(f, its rational roots): a squarefree f over Q of degree 1-6, a product
    of distinct linear factors of height <= 50 (some with denominators 3, 5
    and 7, some x), irreducible quadratics (non-square discriminant) and
    cubics (x^3 - d, d no cube), times a constant that is non-integral or a
    multiple of 3*5*7."""
    degree = rng.randint(1, 6)
    f, roots = Poly.from_ints(QQ, [1]), set()
    while f.degree < degree:
        room = degree - f.degree
        kind = rng.choice(["root", "root", "root", "zero", "quadratic", "cubic"])
        if kind in ("root", "zero"):
            h = rng.choice([5, 12, 50])
            r = Fraction(0) if kind == "zero" else Fraction(
                rng.randint(-h, h), rng.choice([1, 2, 3, 5, 7, 15, 21, 35, rng.randint(1, h)]))
            if r not in roots:
                roots.add(r)
                f = f * Poly.from_ints(QQ, [-r.numerator, r.denominator])
        elif kind == "quadratic" and room >= 2:
            b, c = rng.randint(-20, 20), rng.randint(-20, 20)
            if b * b - 4 * c < 0 or isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c:
                f = f * (Poly.from_ints(QQ, [c, b, 1]) * Fraction(rng.randint(1, 5)))
        elif kind == "cubic" and room >= 3:
            d = rng.choice([-1, 1]) * rng.randint(2, 50)
            if round(abs(d) ** (1 / 3)) ** 3 != abs(d):
                f = f * Poly.from_ints(QQ, [-d, 0, 0, 1])
    scale = rng.choice([Fraction(1), Fraction(105), Fraction(-105, 11),
                        Fraction(rng.randint(1, 9), rng.randint(2, 9))])
    return f * scale, sorted(roots)


def test_rational_roots_match_the_divisor_enumeration():
    rng = random.Random(2024)
    polys = [_random_rational_poly(rng) for _ in range(240)]
    for f, expected in polys:
        assert rational_roots(f) == divisor_rational_roots(f) == expected, f
    # the mix the comparison covers
    assert {f.degree for f, _ in polys} == {1, 2, 3, 4, 5, 6}
    assert sum(Fraction(0) in roots for _, roots in polys) >= 20
    assert sum(len(roots) < f.degree for f, roots in polys) >= 50
    assert sum(any(c.denominator > 1 for c in f.coeffs) for f, _ in polys) >= 20
    assert sum(f.leading() % 105 == f.coeffs[0] % 105 == 0 for f, _ in polys) >= 20


def test_sylvester_determinant_is_the_resultant():
    # det of the Sylvester matrix of a = c prod (z - r) and b, of formal
    # degree n, is c^n prod b(r); the binary form [1, 0] (formal degree 1,
    # leading coefficient 0) has its root (1 : 0) at infinity, and
    # Res([1, 0], b) = b(-1, 0) = (-1)^n b_n
    rng = random.Random(806)
    for _ in range(200):
        roots = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        a = [rng.choice([-3, -2, -1, 1, 2, 3])]
        for r in roots:
            a = [x - r * y for x, y in zip([0] + a, a + [0])]
        b = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
        n = len(b) - 1
        expected = a[-1] ** n
        for r in roots:
            expected *= sum(c * r ** i for i, c in enumerate(b))
        assert det(fields._sylvester(a, b)) == expected, (a, b)
        assert det(fields._sylvester([1, 0], b)) == (-1) ** n * b[-1]
    assert det(fields._sylvester([1, 0], [5, 0, 0, 0, 0])) == 0
    assert det(fields._sylvester([1, 0], [5, 0, 0, 0, 7])) == 7


def _poly_with_rational_roots(roots):
    f = Poly.from_ints(QQ, [1])
    for r in roots:
        f = f * Poly(QQ, [-Fraction(r), Fraction(1)])
    return f


def test_rational_roots_reduce_modulo_the_smallest_good_prime(monkeypatch):
    # 1 and 1 + 4849845 (= 3*5*7*11*13*17*19) meet modulo every odd prime
    # below 23, and a leading 3*5*7*11 rules out 3, 5, 7 and 11.  The roots
    # mod p come from evaluating s, so factor and GF raise here; every modulus
    # passed to _eval_mod is a prime tried or a square power of the last one
    moduli = []
    real_eval = fields._eval_mod

    def recording_eval(cs, x, m):
        moduli.append(m)
        return real_eval(cs, x, m)

    def refuse(*args):
        raise AssertionError("rational_roots works over Q and Z/p^e only")

    monkeypatch.setattr(fields, "_eval_mod", recording_eval)
    monkeypatch.setattr(fields, "factor", refuse)
    monkeypatch.setattr(fields, "GF", refuse)

    def primes_tried(poly, roots):
        moduli.clear()
        assert rational_roots(poly) == [Fraction(r) for r in roots]
        tried = list(dict.fromkeys(m for m in moduli if _is_prime(m)))
        lifts = {m for m in moduli if not _is_prime(m)}
        assert lifts <= {tried[-1] ** 2 ** e for e in range(1, 16)}
        return tried

    f = _poly_with_rational_roots([1, 2, 1 + 4849845])
    assert primes_tried(f, (1, 2, 4849846)) == [3, 5, 7, 11, 13, 17, 19, 23]
    g = Poly.from_ints(QQ, [1155]) * _poly_with_rational_roots([Fraction(1, 1155), 2, -3])
    assert g.leading() == 1155
    assert primes_tried(g, (-3, Fraction(1, 1155), 2)) == [13]
    # (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root modulo every prime, none over Q;
    # mod 3 its root 0 is double
    h = Poly.from_ints(QQ, [-2, 0, 1]) * Poly.from_ints(QQ, [-3, 0, 1]) * \
        Poly.from_ints(QQ, [-6, 0, 1])
    assert primes_tried(h, ()) == [3, 5]
    # (x - 5)(x^2 + 1)(x^2 + 4) is (x - 2)(x^2 + 1)^2 mod 3: not squarefree,
    # but its one root mod 3 is simple, so 3 serves (a squarefree reduction
    # would need 5)
    e = _poly_with_rational_roots([5]) * Poly.from_ints(QQ, [1, 0, 1]) * \
        Poly.from_ints(QQ, [4, 0, 1])
    assert not squarefree(Poly.from_ints(GF(3), [int(c) for c in e.coeffs]))
    assert primes_tried(e, (5,)) == [3]
    for poly in (f, g, h, e):
        assert rational_roots(poly) == rational_roots(poly)


def test_rational_roots_refuse_a_repeated_factor_with_its_gcd():
    # the integer resultant fails, and the gcd witness is Euclid's
    sq = Poly.from_ints(QQ, [-2, 0, 1])  # x^2 - 2
    twice = _poly_with_rational_roots([Fraction(-3, 4), Fraction(-3, 4), 2, 5])
    cases = [(twice * Fraction(7, 3), ["3/4", "1"]),
             (sq * sq * _poly_with_rational_roots([Fraction(1, 3)]), ["-2", "0", "1"]),
             (_poly_with_rational_roots([0, 0, 1]), ["0", "1"])]
    for f, gcd in cases:
        with pytest.raises(DegenerateInputError) as err:
            rational_roots(f)
        assert err.value.gcd == poly_gcd(f, f.derivative()) == Poly(QQ, map(Fraction, gcd))
        assert str(err.value) == f"not squarefree: gcd(f, f') = {gcd} (low degree first)"


def test_rational_roots_of_a_squarefree_quintic_of_large_height():
    # the resultant of f and f' is an integer of thousands of digits here
    rng = random.Random(47)

    def number():
        return rng.randrange(10 ** 99, 10 ** 100)

    roots = sorted({Fraction(rng.choice((-1, 1)) * number(), number()) for _ in range(5)})
    f = _poly_with_rational_roots(roots) * Fraction(-11, number())
    assert f.degree == 5 and rational_roots(f) == roots
    near = f + Poly(QQ, [Fraction(1, number())])  # no rational root survives a tiny shift
    assert rational_roots(near) == []


def test_rational_roots_of_large_height():
    # five roots with 7-digit and with 100-digit numerators and denominators;
    # the divisor enumeration did not finish the 7-digit case in 300 s
    rng = random.Random(31)
    for digits in (7, 100):
        def number():
            return rng.randrange(10 ** (digits - 1), 10 ** digits)

        roots = sorted({Fraction(rng.choice((-1, 1)) * number(), number()) for _ in range(5)})
        f = _poly_with_rational_roots(roots) * Fraction(3, 7)
        assert rational_roots(f) == roots
        g = f * Poly.from_ints(QQ, [0, -2, 0, 1])  # x (x^2 - 2)
        assert rational_roots(g) == sorted([Fraction(0)] + roots)


def test_embedding_is_a_field_homomorphism():
    rng = random.Random(5)
    src = GF(3, 2)
    dst = GF(3, 4)
    elems = list(src.elements())
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)
        assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)
    mod = Poly(dst, [dst(c) for c in src.modulus])
    assert not mod.evaluate(embed(src.gen(), dst))


def test_embedding_image_is_the_smallest_root_of_the_modulus():
    # the oracle factors the modulus over dst and takes its least linear factor
    pairs = [((3, 2), 4), ((3, 2), 6), ((3, 3), 6), ((3, 3), 12), ((5, 2), 4),
             ((5, 3), 6), ((7, 2), 6), ((11, 2), 12), ((11, 3), 12), ((11, 4), 12),
             ((11, 6), 12)]
    for (p, ks), kd in pairs:
        src, dst = GF(p, ks), GF(p, kd)
        mod = Poly(dst, [dst(c) for c in src.modulus])
        smallest = min(-g.coeffs[0] for g in factor(mod))
        assert embed(src.gen(), dst) == smallest, (p, ks, kd)


def test_conjugate_roots_are_the_roots_factor_finds():
    # the oracle factors f over its splitting field and negates the constant
    # terms of the linear factors
    rng = random.Random(23)
    for base in (GF(3), GF(7), GF(3, 2)):
        for d in range(1, 6):
            while True:  # a random monic irreducible of degree d
                f = Poly(base, [random_element(base, rng) for _ in range(d)] + [base.one])
                if squarefree(f) and factor(f) == [f]:
                    break
            dst = GF(base.p, base.k * d)
            roots = conjugate_roots(f, dst)
            assert len(set(roots)) == d, (base, d)
            assert sorted(roots) == sorted(-g.coeffs[0] for g in factor(embed_poly(f, dst)))
            if d > 1:  # the base field itself splits no irreducible of degree > 1
                with pytest.raises(DegenerateInputError):
                    conjugate_roots(f, base)
    assert conjugate_roots(Poly(QQ, [Fraction(5, 3), Fraction(1)]), QQ) == [Fraction(-5, 3)]
    with pytest.raises(DegenerateInputError):  # the cubic's roots lie in F_27
        conjugate_roots(Poly.from_ints(GF(3), [1, 2, 0, 1]), GF(3, 2))


def test_embed_poly_roots_cover_factors():
    F3 = GF(3)
    f = Poly.from_ints(F3, [2, 2, 0, 1])  # some cubic
    fs = factor(f)
    degs = sorted(g.degree for g in fs)
    from math import lcm
    m = lcm(*degs)
    big = GF(3, m)
    fb = embed_poly(f, big)
    assert all(g.degree == 1 for g in factor(fb))


def test_rational_scalars_parse_to_the_fraction_of_their_string():
    rng = random.Random(5)
    long = [str(rng.randrange(10 ** 199, 10 ** 200)) for _ in range(3)]
    for text in ["007/21", "-0", "0/9", "-12/18", "0", "5", "-3", "22/7", "-0/3",
                 long[0], f"-{long[1]}/{long[2]}", f"{long[0]}/{long[0]}", f"1/{long[1]}"]:
        value = scalar_from_json(QQ, text)
        assert type(value) is Fraction and value == Fraction(text), text
    for text, message in [("2.7", "bad syntax"), ("1_000", "bad syntax"),
                          ("1e5", "exponent notation"), ("+3", "bad syntax"),
                          (" 5", "bad syntax"), ("3/-4", "bad syntax")]:
        with pytest.raises(ValueError, match=re.escape(
                f"{message} in the rational {text!r}; write an integer or a/b")):
            scalar_from_json(QQ, text)
    with pytest.raises(ValueError, match=re.escape("zero denominator in '3/0'")):
        scalar_from_json(QQ, "3/0")


def test_scalar_json_round_trip():
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_from_json(QQ, "3/4") == Fraction(3, 4)
    F7 = GF(7)
    assert scalar_to_json(F7(5)) == 5
    assert scalar_from_json(F7, 5) == F7(5)
    F9 = GF(3, 2)
    x = F9((2, 1))
    assert scalar_to_json(x) == "[2, 1]"
    assert scalar_from_json(F9, scalar_to_json(x)) == x


def test_scalar_json_rejects_inexact_numbers():
    # floats and bools used to be truncated to integers
    F7, F9 = GF(7), GF(3, 2)
    for field, obj in ((F7, 2.7), (F9, [2.7, 1]), (F7, True), (F9, [True, 1]),
                       (QQ, True), (QQ, 2.5)):
        with pytest.raises(ValueError):
            scalar_from_json(field, obj)


def test_pickled_fields_and_elements_combine_with_live_ones():
    for field in (GF(7), GF(3, 2), GF(3, 16), GF(1099511627689, 2)):
        x = field.gen() + field.one
        assert pickle.loads(pickle.dumps(field)) is field
        y = pickle.loads(pickle.dumps(x))
        assert y.field is field
        assert y == x and hash(y) == hash(x)
        assert y + x == x + x and y * x == x * x


def test_field_descriptor_round_trip():
    for field in (QQ, GF(11), GF(3, 3)):
        assert field_from_descriptor(field.descriptor()) == field
    with pytest.raises(UnsupportedFieldError):
        field_from_descriptor({"kind": "extension-field", "p": 3, "degree": 2,
                               "modulus": [2, 0, 1]})


BIG_PRIME = 10 ** 30 + 57  # the least prime above 10^30


def poly_pow_mod(base, n, mod):
    """base^n mod mod by left-to-right square-and-multiply in tuple arithmetic:
    the reference for the vector arithmetic of _Frobenius."""
    result = Poly(base.field, [base.field.one])
    base = base % mod
    for bit in bin(n)[2:]:
        result = (result * result) % mod
        if bit == "1":
            result = (result * base) % mod
    return result


def rabin_irreducible(f):
    """Rabin's test: f of degree n is irreducible over F_q iff x^(q^n) = x
    mod f and gcd(f, x^(q^(n/l)) - x) = 1 for each prime l dividing n."""
    q, n = f.field.order, f.degree
    x = Poly(f.field, [f.field.zero, f.field.one])
    if poly_pow_mod(x, q ** n, f) != x % f:
        return False
    return all(poly_gcd(f, poly_pow_mod(x, q ** (n // ell), f) - x).degree == 0
               for ell in range(2, n + 1) if _is_prime(ell) and n % ell == 0)


def test_canonical_modulus_is_the_rabin_choice():
    cases = [(p, k) for p in range(3, 3 ** 5) if _is_prime(p)
             for k in range(2, 11) if p ** k <= 3 ** 10] + [(11, 12)]
    assert len(cases) == 78
    for p, k in cases:
        first = next(c for c in (tuple(n // p ** i % p for i in range(k)) + (1,)
                                 for n in range(p ** k))
                     if rabin_irreducible(Poly.from_ints(GF(p), c)))
        assert _canonical_modulus(p, k) == first, (p, k)
    # the corpus fields the Rabin sweep does not reach, pinned to the moduli
    # the full distinct-degree search chose before it stopped at a first factor
    pinned = {(3, 12): (2, 0, 1) + (0,) * 9, (5, 10): (3, 1, 1) + (0,) * 7,
              (5, 12): (4, 1) + (0,) * 10, (7, 6): (2,) + (0,) * 5,
              (11, 5): (2,) + (0,) * 4, (11, 6): (2, 1) + (0,) * 4,
              (13, 5): (2, 4) + (0,) * 3, (13, 6): (2,) + (0,) * 5,
              (1009, 2): (11, 0), (1009, 3): (2, 0, 0), (1009, 4): (11, 0, 0, 0),
              (1009, 5): (8, 1, 0, 0, 0), (1009, 6): (11,) + (0,) * 5}
    for (p, k), low in pinned.items():
        assert _canonical_modulus(p, k) == low + (1,), (p, k)


def test_modulus_search_skips_the_binomials_when_none_is_irreducible():
    # 100019 = 2 mod 3, so no x^3 + c is irreducible: the search starts at
    # x^3 + x, and the first irreducible after it is the canonical modulus
    p = 100019
    start = time.perf_counter()
    F = GF(p, 3)
    assert time.perf_counter() - start < 1.0
    n = sum(c * p ** i for i, c in enumerate(F.modulus[:3]))
    assert rabin_irreducible(Poly.from_ints(GF(p), F.modulus))
    assert not any(rabin_irreducible(Poly.from_ints(GF(p), [m // p ** i % p for i in range(3)]
                                                    + [1]))
                   for m in range(p, n))


def test_large_characteristic_moduli_are_pinned_and_fast():
    # the moduli the search found when each candidate cost up to k/2
    # powerings x^(p^d) mod f; it now costs one x^p mod f
    for p, k, modulus in ((10 ** 9 + 7, 9, (9, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
                          (1099511627609, 6, (6, 1, 0, 0, 0, 0, 1))):
        start = time.perf_counter()
        assert _canonical_modulus.__wrapped__(p, k) == modulus
        assert time.perf_counter() - start < 1.0
        assert rabin_irreducible(Poly.from_ints(GF(p), modulus))


def test_described_fields_are_bounded():
    # refused before the primality test and the modulus search, which would
    # not finish for these two
    with pytest.raises(UnsupportedFieldError, match=r"characteristic 2\^40"):
        field_from_descriptor({"kind": "prime-field", "p": BIG_PRIME})
    with pytest.raises(UnsupportedFieldError, match=f"supported degree {MAX_DEGREE}"):
        field_from_descriptor({"kind": "extension-field", "p": 3, "degree": 100})
    # both limits are inclusive
    largest = 1099511627689  # the largest prime below 2^40
    assert field_from_descriptor({"kind": "prime-field", "p": largest}) == GF(largest)
    assert field_from_descriptor({"kind": "extension-field", "p": 3,
                                  "degree": MAX_DEGREE}) == GF(3, MAX_DEGREE)


def test_even_characteristic_rejected():
    with pytest.raises(UnsupportedFieldError):
        GF(2)
    with pytest.raises(UnsupportedFieldError):
        GF(9)


def test_p_is_proved_prime_once_per_p(monkeypatch):
    # GF(p, k) goes through the cached GF(p), so trial division, tens of ms
    # near 2^40, runs once per characteristic and not once per degree
    p = 8589934583  # the largest prime below 2^33: no other test builds its fields
    calls = []
    monkeypatch.setattr(fields, "_is_prime", lambda n: calls.append(n) or _is_prime(n))
    fields_built = [GF(p, k) for k in range(2, 6)]
    assert [F.k for F in fields_built] == [2, 3, 4, 5]
    assert calls.count(p) == 1
    for k in (2, 3):  # GF(9) refuses 9, so GF(9, k) does too
        with pytest.raises(UnsupportedFieldError, match="p = 9 must be an odd prime"):
            GF(9, k)


def test_gf_refuses_non_integer_p_and_k():
    for p, k in ((7.9, 1), (3, 2.5), (3, True), (True, 1), (Fraction(7), 1), ("7", 1)):
        with pytest.raises(TypeError):  # refused, not read as GF(7), GF(3^2), GF(3)
            GF(p, k)


def test_integer_minus_scalar():
    for x in (QQ(3), GF(7)(3), GF(3, 2).gen()):
        assert 1 - x == -(x - 1)


def test_scalar_total_order():
    F9 = GF(3, 2)
    elems = sorted(F9.elements())
    assert not elems[0]
    assert [e.coeffs for e in elems[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    for F in (GF(5), F9, GF(3, 3)):  # elements() enumerates in the scalar order
        assert list(F.elements()) == sorted(F.elements())


def test_order_between_a_rational_and_a_finite_field_scalar_is_refused():
    for x in (GF(5)(1), GF(3, 2).gen()):
        for r in (Fraction(1), Fraction(1, 2)):
            for a, b in ((x, r), (r, x)):
                with pytest.raises(FieldMismatchError):
                    a < b
                with pytest.raises(FieldMismatchError):
                    a > b
    # an int is read into the field on either side
    assert 3 < GF(5)(4) and not 4 < GF(5)(3) and GF(5)(4) > 3 and 2 > GF(3, 2).gen()


def test_integer_scalars_are_read_through_their_index():
    F7, F9 = GF(7), GF(3, 2)
    assert F7(np.int64(10)) == F7(3) and F9(np.int8(-1)) == F9(2)
    assert QQ(np.int64(3)) == Fraction(3) and type(QQ(np.int64(3)).numerator) is int
    for field, bad in ((F7, 2.0), (F7, np.float64(3)), (F7, "3"), (F7, Fraction(3)),
                       (F9, Fraction(1, 2)), (QQ, 2.5), (QQ, "1"), (QQ, np.float64(1))):
        with pytest.raises(TypeError, match="cannot coerce"):
            field(bad)


def test_coefficient_vectors_take_exact_integers_only():
    F9 = GF(3, 2)
    assert F9((2, 4)).coeffs == (2, 1)
    assert F9([np.int64(5), np.int8(-1)]).coeffs == (2, 2)
    for bad in ((2.7, 1), ("1", "2"), (1, 2.0), (Fraction(1), 0)):
        with pytest.raises(TypeError, match=re.escape(repr(next(
                v for v in bad if type(v) is not int)))):
            F9(bad)


def test_poly_gcd_monic():
    F7 = GF(7)
    t = Poly.from_ints(F7, [0, 1])
    one = Poly.from_ints(F7, [1])
    f = (t + one) * (t + one) * (t + Poly.from_ints(F7, [3]))
    g = (t + one) * (t + Poly.from_ints(F7, [5]))
    d = poly_gcd(f, g)
    assert d == t + one


def _schoolbook_gcd(a, b) -> list:
    """Euclid on coefficient lists with the field's element operators: the
    last nonzero remainder, divided by its leading coefficient."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            a = [x - c * b[i - shift] if i >= shift else x for i, x in enumerate(a)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [x / a[-1] for x in a]


_GCD_FIELDS = (QQ, GF(7), GF(3, 16), GF(1009, 6), GF(1099511627689, 2))
_pairs = st.lists(st.tuples(st.one_of(st.integers(-2, 2), st.integers(-2 ** 90, 2 ** 90)),
                            st.integers(1, 9)), max_size=4)


def _poly_of_pairs(field, pairs):
    """Coefficient i is pair i, (n, m): over Q n / m, over F_{p^k} the base-p
    digits of n mod p^k, low degree first."""
    if field.is_rational:
        return Poly(field, [Fraction(n, m) for n, m in pairs])
    return Poly(field, [field([n // field.p ** i for i in range(field.k)]) for n, _ in pairs])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(index=st.sampled_from(range(len(_GCD_FIELDS))), g=_pairs, u=_pairs, v=_pairs)
@example(index=1, g=[], u=[(1, 1)], v=[(2, 1)])  # both operands zero
@example(index=1, g=[(3, 1), (5, 1)], u=[(2, 1)], v=[])  # b zero, a not monic
@example(index=2, g=[(1, 1)], u=[(1, 1), (1, 1)], v=[(2, 1), (1, 1)])  # constant gcd
@example(index=3, g=[(5, 1), (2018, 1), (1, 1)], u=[(3, 1), (1, 1)],
         v=[(3, 1), (1, 1)])  # equal operands
@example(index=4, g=[(-1, 1), (0, 1), (1, 1)], u=[(7, 1), (1, 1)], v=[(1, 1)])  # b divides a
@example(index=4, g=[(2 ** 45, 1), (4, 1)], u=[(1, 1), (3, 1)], v=[(5, 1)])  # b | a, b not monic
@example(index=0, g=[(1, 1), (1, 1)], u=[(2, 1), (0, 1), (1, 1)],
         v=[(3, 1), (5, 2)])  # b not monic over Q
def test_poly_gcd_matches_schoolbook_euclid(index, g, u, v):
    field = _GCD_FIELDS[index]
    g, u, v = (_poly_of_pairs(field, x) for x in (g, u, v))
    a, b = g * u, g * v
    d = poly_gcd(a, b)
    assert list(d.coeffs) == _schoolbook_gcd(a, b)
    if d.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert d.leading() == field.one
        assert (a % d).is_zero() and (b % d).is_zero()


def test_poly_gcd_takes_at_most_one_inversion_per_remainder(monkeypatch):
    # Euclid with monic remainders: each remainder of a, b (deg a >= deg b,
    # b != 0), r_1 = b, r_2 = a mod b, ..., costs at most one inversion, and
    # a division by the monic gcd costs none
    F, rng = GF(11, 3), random.Random(11)
    calls, real = [], FFElem.inverse
    monkeypatch.setattr(FFElem, "inverse", lambda x: calls.append(x) or real(x))
    for _ in range(30):
        g, u, v = (Poly(F, [random_element(F, rng) for _ in range(rng.randrange(1, 5))])
                   for _ in range(3))
        a, b = sorted([g * u, g * v], key=lambda f: -f.degree)
        remainders, r0, r1 = [], a, b
        while not r1.is_zero():
            remainders.append(r1)
            r0, r1 = r1, r0 % r1
        calls.clear()
        d = poly_gcd(a, b)
        assert len(calls) <= len(remainders)
        calls.clear()
        assert d.monic() is d and (a // d) * d == a and not calls


def _vector(frob, h):
    """h, of degree below deg f, as a vector of frob's V = K[x]/(f)."""
    n, d = frob.field.k, frob.f.degree
    cs = [c.coeffs for c in h.coeffs]
    return np.array(cs + [(0,) * n] * (d - len(cs)), dtype=frob.dtype).ravel()


def _check_vector_arithmetic(f):
    # the product and the power in V against tuple arithmetic, on operands
    # whose every coefficient is p - 1: the largest sums the dtype must hold
    frob, field, rng = _Frobenius(f), f.field, random.Random(f.degree)
    top = Poly(field, [field([field.p - 1] * field.k)] * f.degree)
    h = Poly(field, [random_element(field, rng) for _ in range(f.degree)])
    a, b = _vector(frob, top), _vector(frob, h)
    assert frob.poly(frob.mul(a, a)) == top * top % f
    assert frob.poly(frob.mul(a, b)) == top * h % f
    for e in (field.p, (field.p - 1) // 2):
        assert frob.poly(fields._power(frob.mul, a, e)) == poly_pow_mod(top, e, f)


def test_frobenius_matrix_is_the_p_power_map():
    # the oracle raises h to p^m by repeated squaring in tuple arithmetic
    rng = random.Random(17)
    for field, d, dtype in ((GF(3), 4, np.int64), (GF(5, 3), 3, np.int64),
                            (GF(11, 4), 2, np.int64), (GF(10 ** 9 + 7, 3), 3, np.int64),
                            (GF(10 ** 9 + 7, 2), 5, object),
                            (GF(1099511627689), 3, object),
                            (GF(3, 12), 5, np.int64), (GF(11, 12), 5, np.int64)):
        p = field.p
        g = Poly(field, [random_element(field, rng) for _ in range(2)] + [field.one])
        f = g * Poly(field, [random_element(field, rng) for _ in range(d - 2)] + [field.one])
        frob = _Frobenius(f)
        assert frob.dtype is dtype and frob.matrix.shape == (field.k * d, field.k * d)
        for _ in range(3):
            h = Poly(field, [random_element(field, rng) for _ in range(d)])
            powers = [poly_pow_mod(h, p ** i, f) for i in range(4)]
            v3, s3 = frob.iterate(_vector(frob, h), 3)
            assert frob.poly(v3) == powers[3]
            assert frob.poly(s3) == (powers[0] + powers[1] + powers[2]) % f
            v1, s1 = frob.iterate(_vector(frob, h), 1)
            assert (frob.poly(v1), frob.poly(s1)) == (powers[1], powers[0])
            # reduction modulo a factor of the modulus commutes with the map
            assert frob.poly(v1) % g == poly_pow_mod(h, p, g)
        _check_vector_arithmetic(f)


def _check_factorization(f, fs):
    prod = Poly(f.field, [f.leading()])
    for g in fs:
        assert g.leading() == f.field.one and rabin_irreducible(g)
        prod = prod * g
    assert prod == f


def test_split_root_and_factor_on_both_element_types():
    # nd (p-1)^2 < 2^63 holds for nd <= 9 at p = 10^9+7 and for no nd near 2^40
    rng = random.Random(23)
    P = 10 ** 9 + 7
    for field, d, dtype in ((GF(P), 9, np.int64), (GF(P), 10, object),
                            (GF(P, 3), 3, np.int64), (GF(P, 2), 5, object),
                            (GF(1099511627689), 4, object)):
        roots = _distinct_elements(field, d, rng)
        f = _with_roots(field, roots, lead=3)
        assert _Frobenius(f).dtype is dtype
        _check_vector_arithmetic(f.monic())
        root = split_root(f)
        assert root in roots and not f.evaluate(root)
        g = Poly(field, [random_element(field, rng) for _ in range(d)] + [field(5)])
        assert _Frobenius(g).dtype is dtype
        _check_factorization(g, factor(g))
        # two linear factors beside the random ones, then one of them again
        h = g * _with_roots(field, roots[:2], lead=1)
        _check_factorization(h, factor(h))
        with pytest.raises(DegenerateInputError, match="not squarefree"):
            factor(h * Poly(field, [-roots[0], field.one]))
