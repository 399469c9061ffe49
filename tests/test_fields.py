import itertools
import pickle
import random
import re
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest

from qdp4 import fields
from qdp4.fields import (GF, MAX_DEGREE, QQ, DegenerateInputError,
                         FieldMismatchError, Poly, UnsupportedFieldError,
                         _canonical_modulus, _Frobenius, _is_prime, embed,
                         embed_poly, factor, field_from_descriptor, is_square,
                         poly_gcd, poly_pow_mod, random_element, rational_roots,
                         scalar_from_json, scalar_to_json, split_root,
                         squarefree)


def test_rational_arithmetic():
    assert QQ(1) / QQ(2) + QQ(1) / QQ(3) == Fraction(5, 6)


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


def test_descriptor_mismatch():
    with pytest.raises(FieldMismatchError):
        GF(5)(2) + GF(7)(2)
    with pytest.raises(FieldMismatchError):
        GF(5)(2) * GF(5, 2)(2)


def test_inverse_property_exhaustive_small():
    for field in (GF(3), GF(7), GF(3, 2), GF(5, 2)):
        for a in field.elements():
            if a.is_zero():
                continue
            assert a * a.inverse() == field.one


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
                 if not a.is_zero() and not is_square(a))
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
        if not a.is_zero():
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
        squares = {a * a for a in field.elements() if not a.is_zero()}
        for a in field.elements():
            if a.is_zero():
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


def _poly_with_rational_roots(roots):
    f = Poly.from_ints(QQ, [1])
    for r in roots:
        f = f * Poly(QQ, [-Fraction(r), Fraction(1)])
    return f


def test_rational_roots_reduce_modulo_the_smallest_good_prime(monkeypatch):
    # 1 and 1 + 4849845 (= 3*5*7*11*13*17*19) meet modulo every odd prime
    # below 23, and a leading 3*5*7*11 rules out 3, 5, 7 and 11; each
    # reduction tried is tested for squarefreeness once, inside factor
    primes, tested = [], []
    real_factor, real_squarefree = fields.factor, fields.squarefree

    def recording_factor(f):
        out = real_factor(f)
        primes.append(f.field.p)
        return out

    def recording_squarefree(f):
        tested.append(f.field.p)
        return real_squarefree(f)

    monkeypatch.setattr(fields, "factor", recording_factor)
    monkeypatch.setattr(fields, "squarefree", recording_squarefree)
    f = _poly_with_rational_roots([1, 2, 1 + 4849845])
    assert rational_roots(f) == [Fraction(r) for r in (1, 2, 4849846)]
    g = Poly.from_ints(QQ, [1155]) * _poly_with_rational_roots([Fraction(1, 1155), 2, -3])
    assert g.leading() == 1155
    assert rational_roots(g) == [Fraction(-3), Fraction(1, 1155), Fraction(2)]
    assert primes == [23, 13]
    assert tested == [0, 3, 5, 7, 11, 13, 17, 19, 23, 0, 13]  # 0: the test over Q
    # (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root modulo every prime, none over Q
    h = Poly.from_ints(QQ, [-2, 0, 1]) * Poly.from_ints(QQ, [-3, 0, 1]) * \
        Poly.from_ints(QQ, [-6, 0, 1])
    assert rational_roots(h) == []
    for poly in (f, g, h):
        assert rational_roots(poly) == rational_roots(poly)


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
    assert mod.evaluate(embed(src.gen(), dst)).is_zero()


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
    for field in (GF(7), GF(3, 2)):
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


def test_scalar_total_order():
    F9 = GF(3, 2)
    elems = sorted(F9.elements())
    assert elems[0].is_zero()
    assert [e.coeffs for e in elems[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_poly_gcd_monic():
    F7 = GF(7)
    t = Poly.from_ints(F7, [0, 1])
    one = Poly.from_ints(F7, [1])
    f = (t + one) * (t + one) * (t + Poly.from_ints(F7, [3]))
    g = (t + one) * (t + Poly.from_ints(F7, [5]))
    d = poly_gcd(f, g)
    assert d == t + one


def test_frobenius_matrix_is_the_p_power_map():
    # the oracle raises h to p^m by repeated squaring in tuple arithmetic
    rng = random.Random(17)
    for field, d, dtype in ((GF(3), 4, np.int64), (GF(5, 3), 3, np.int64),
                            (GF(11, 4), 2, np.int64), (GF(10 ** 9 + 7, 3), 3, np.int64),
                            (GF(10 ** 9 + 7, 2), 5, object),
                            (GF(1099511627689), 3, object)):
        p = field.p
        g = Poly(field, [random_element(field, rng) for _ in range(2)] + [field.one])
        f = g * Poly(field, [random_element(field, rng) for _ in range(d - 2)] + [field.one])
        frob = _Frobenius(f)
        assert frob.dtype is dtype and frob.matrix.shape == (field.k * d, field.k * d)
        for _ in range(3):
            h = Poly(field, [random_element(field, rng) for _ in range(d)])
            powers = [poly_pow_mod(h, p ** i, f) for i in range(4)]
            assert frob.iterate(h, 3) == (powers[3], (powers[0] + powers[1] + powers[2]) % f)
            assert frob.iterate(h, 1) == (powers[1], powers[0])
            # reduction modulo a factor of the modulus commutes with the map
            assert frob.iterate(h, 1)[0] % g == poly_pow_mod(h, p, g)


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
        root = split_root(f)
        assert root in roots and f.evaluate(root).is_zero()
        g = Poly(field, [random_element(field, rng) for _ in range(d)] + [field(5)])
        assert _Frobenius(g).dtype is dtype
        _check_factorization(g, factor(g))
        # two linear factors beside the random ones, then one of them again
        h = g * _with_roots(field, roots[:2], lead=1)
        _check_factorization(h, factor(h))
        with pytest.raises(DegenerateInputError, match="not squarefree"):
            factor(h * Poly(field, [-roots[0], field.one]))
