"""Reference arithmetic over F_{p^k} and Q for building and checking inputs.

This module shares no code with qdp4.  It follows qdp4's documented
representation so that outputs can be compared digit for digit:

- F_{p^k} elements are coefficient tuples (low degree first) modulo the
  canonical modulus, the monic irreducible of degree k whose non-leading
  coefficients, read as base-p digits with the x^(k-1) coefficient most
  significant, form the smallest number;
- the canonical embedding F_{p^a} -> F_{p^b} sends x to the smallest root
  (lexicographic on coefficient tuples) of the canonical modulus of F_{p^a};
- scalars print as ints over F_p and as "[c0, c1, ...]" over extensions.

Projective points of P^1 are pairs (u, v) with affine value u/v; infinity is
(1, 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def prime_divisors(n: int):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- dense polynomials over F_p: int lists, low degree first, trimmed --------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def _pdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a[:len(b) - 1])


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _ppowmod(a, e, m, p):
    result, base = [1], _pdivmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return result


def irreducible(coeffs, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p given low degree first."""
    f = list(coeffs)
    n = len(f) - 1
    x = [0, 1]
    if _ppowmod(x, p ** n, f, p) != _pdivmod(x, f, p)[1]:
        return False
    for ell in prime_divisors(n):
        h = _ppowmod(x, p ** (n // ell), f, p)
        diff = _trim([(c - (1 if i == 1 else 0)) % p
                      for i, c in enumerate(h + [0] * (2 - len(h)))])
        if len(_pgcd(list(f), diff, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p: int, k: int) -> tuple:
    for n in range(p ** k):
        digits = []
        for _ in range(k):
            digits.append(n % p)
            n //= p
        coeffs = tuple(digits) + (1,)
        if irreducible(coeffs, p):
            return coeffs
    raise AssertionError("irreducible polynomials exist in every degree")


# --- the field F_{p^k} --------------------------------------------------------

class Field:
    """F_{p^k} with the canonical modulus; elements are k-tuples of ints."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = canonical_modulus(p, k) if k > 1 else (0, 1)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # x^(k + j) reduced modulo the modulus, for j = 0 .. k - 2
        self._red = []
        rem = [-c % p for c in self.modulus[:k]]
        for _ in range(k - 1):
            self._red.append(rem)
            top = rem[-1]
            rem = [(([0] + rem[:-1])[i] + top * self._red[0][i]) % p for i in range(k)]

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def __call__(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:k]
        for j, red in enumerate(self._red):
            c = prod[k + j] % p
            if c:
                for i, r in enumerate(red):
                    out[i] += c * r
        return tuple(x % p for x in out)

    def inv(self, a):
        p, k = self.p, self.k
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if k == 1:
            return (pow(a[0], p - 2, p),)
        r0, r1 = list(self.modulus), _trim(list(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quo, rem = _pdivmod(r0, r1, p)
            qs = _pmul(quo, s1, p)
            n = max(len(s0), len(qs))
            s_new = _trim([((s0[i] if i < len(s0) else 0)
                            - (qs[i] if i < len(qs) else 0)) % p for i in range(n)])
            r0, r1, s0, s1 = r1, rem, s1, s_new
        c = pow(r1[0], p - 2, p)
        out = [x * c % p for x in s1]
        return tuple(out) + (0,) * (k - len(out))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        return not any(a)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def random_nonzero(self, rng):
        while True:
            a = self.random(rng)
            if any(a):
                return a

    def to_json(self, a):
        return a[0] if self.k == 1 else str(list(a))

    def in_subfield(self, a, m: int) -> bool:
        return self.pow(a, self.p ** m) == a


@lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> Field:
    return Field(p, k)


# --- polynomials over a Field: lists of elements, low degree first ------------

def _ftrim(F, a):
    while a and F.is_zero(a[-1]):
        a.pop()
    return a


def _fmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ftrim(F, out)


def _fdivmod(F, a, b):
    a = list(a)
    inv = F.inv(b[-1])
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = F.mul(a[i + len(b) - 1], inv)
        if not F.is_zero(c):
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = F.sub(a[i + j], F.mul(c, y))
    return _ftrim(F, q), _ftrim(F, a[:len(b) - 1])


def _fgcd(F, a, b):
    while b:
        a, b = b, _fdivmod(F, a, b)[1]
    return a


def _fpowmod(F, a, e, m):
    result, base = [F.one], _fdivmod(F, a, m)[1]
    while e:
        if e & 1:
            result = _fdivmod(F, _fmul(F, result, base), m)[1]
        base = _fdivmod(F, _fmul(F, base, base), m)[1]
        e >>= 1
    return result


def split_roots(F, f, rng):
    """Roots of a squarefree f over F that splits into linear factors over F."""
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [F.neg(F.div(f[0], f[1]))]
    while True:
        h = _fpowmod(F, [F.random(rng), F.one], (F.q - 1) // 2, f)
        h = _ftrim(F, [F.sub(h[0], F.one) if h else F.neg(F.one)] + list(h[1:]))
        g = _fgcd(F, list(f), h)
        if 1 < len(g) < len(f):
            return (split_roots(F, g, rng)
                    + split_roots(F, _fdivmod(F, f, g)[0], rng))


@lru_cache(maxsize=None)
def embedding_image(p: int, a: int, b: int):
    """Canonical image of the generator x of F_{p^a} inside F_{p^b}."""
    import random
    W = field(p, b)
    f = [W(c) for c in canonical_modulus(p, a)]
    return min(split_roots(W, f, random.Random(p * 1000 + a * 100 + b)))


def embed(src: Field, dst: Field, a):
    """Image of a in dst under the canonical embedding."""
    if src.k == dst.k:
        return a
    if src.k == 1:
        return dst(a[0])
    img = embedding_image(src.p, src.k, dst.k)
    acc = dst.zero
    for c in reversed(a):
        acc = dst.add(dst.mul(acc, img), dst(c))
    return acc


# --- projective points and the 120-ordering orbit -----------------------------

class Ops:
    """Uniform scalar operations over a Field or over Q (Fraction)."""

    def __init__(self, F=None):
        self.F = F

    def mul(self, a, b):
        return a * b if self.F is None else self.F.mul(a, b)

    def sub(self, a, b):
        return a - b if self.F is None else self.F.sub(a, b)

    def add(self, a, b):
        return a + b if self.F is None else self.F.add(a, b)

    def div(self, a, b):
        return a / b if self.F is None else self.F.div(a, b)

    def is_zero(self, a):
        return a == 0 if self.F is None else self.F.is_zero(a)

    def zero(self):
        return Fraction(0) if self.F is None else self.F.zero

    def one(self):
        return Fraction(1) if self.F is None else self.F.one

    def to_json(self, a):
        return str(a) if self.F is None else self.F.to_json(a)


def normalize(ops, pt):
    u, v = pt
    if ops.is_zero(v):
        return (ops.one(), ops.zero())
    return (ops.div(u, v), ops.one())


def moebius_apply(ops, m, pt):
    a, b, c, d = m
    u, v = pt
    return normalize(ops, (ops.add(ops.mul(a, u), ops.mul(b, v)),
                           ops.add(ops.mul(c, u), ops.mul(d, v))))


def _det(ops, s, t):
    return ops.sub(ops.mul(s[0], t[1]), ops.mul(t[0], s[1]))


def orbit_pairs(ops, pts):
    """All (lambda, mu): for each ordered triple (i, j, k) the map sending
    points i, j, k to infinity, 0, 1, evaluated at the other two points."""
    seen = set()
    n = len(pts)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                dki, dkj = _det(ops, pts[k], pts[i]), _det(ops, pts[k], pts[j])
                vals = []
                for m in range(n):
                    if m in (i, j, k):
                        continue
                    num = ops.mul(_det(ops, pts[m], pts[j]), dki)
                    den = ops.mul(_det(ops, pts[m], pts[i]), dkj)
                    vals.append(ops.div(num, den))
                seen.add((vals[0], vals[1]))
                seen.add((vals[1], vals[0]))
    return seen


def canonical_invariant_json(ops, pts):
    """The sorted orbit of normal forms, printed as qdp4 prints it."""
    return [[ops.to_json(a), ops.to_json(b)] for a, b in sorted(orbit_pairs(ops, pts))]


def _moebius_from_standard(ops, p1, p2, p3):
    """The matrix sending infinity, 0, 1 to p1, p2, p3."""
    (u1, v1), (u2, v2), (u3, v3) = p1, p2, p3
    det = ops.sub(ops.mul(u1, v2), ops.mul(u2, v1))
    a = ops.div(ops.sub(ops.mul(u3, v2), ops.mul(u2, v3)), det)
    b = ops.div(ops.sub(ops.mul(u1, v3), ops.mul(u3, v1)), det)
    return (ops.mul(a, u1), ops.mul(b, u2), ops.mul(a, v1), ops.mul(b, v2))


def aut_maps(ops, pts):
    """The Moebius maps that permute the five points, each scaled so that its
    first nonzero entry is 1: the maps sending the first three points to any
    ordered triple of the five that carry the whole set onto itself."""
    src = _moebius_from_standard(ops, *pts[:3])
    p, q, r, s = src
    src_inv = (s, ops.sub(ops.zero(), q), ops.sub(ops.zero(), r), p)
    target = set(pts)
    out = set()
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if len({i, j, k}) < 3:
                    continue
                a, b, c, d = _moebius_from_standard(ops, pts[i], pts[j], pts[k])
                e, f, g, h = src_inv
                m = (ops.add(ops.mul(a, e), ops.mul(b, g)), ops.add(ops.mul(a, f), ops.mul(b, h)),
                     ops.add(ops.mul(c, e), ops.mul(d, g)), ops.add(ops.mul(c, f), ops.mul(d, h)))
                if {moebius_apply(ops, m, pt) for pt in pts} != target:
                    continue
                lead = next(x for x in m if not ops.is_zero(x))
                out.add(tuple(ops.div(x, lead) for x in m))
    return out
