"""Exact arithmetic over Q, F_p and F_{p^k}, plus univariate polynomial operations.

Rational scalars are `fractions.Fraction`; finite-field scalars are `FFElem`
(coefficient vectors modulo a canonical irreducible modulus).  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class DegenerateInputError(ValueError):
    """Input outside a function's domain: zero where a nonzero value is
    required, or a polynomial that is not squarefree."""


class UnsupportedFieldError(ValueError):
    """Operation not available over this field."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class RationalField:
    """The field Q.  Elements are fractions.Fraction."""

    is_rational = True
    p = 0
    k = 1
    characteristic = 0

    def __call__(self, value) -> Fraction:
        if isinstance(value, FFElem):
            raise FieldMismatchError("cannot coerce a finite-field element into Q")
        return Fraction(value)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def descriptor(self) -> dict:
        return {"kind": "rationals"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class FFElem:
    """Element of F_{p^k}, stored as a length-k coefficient tuple (low degree first)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FFElem":
        if not isinstance(other, FFElem):
            if isinstance(other, int):
                return self.field(other)
            raise FieldMismatchError(f"cannot combine {self!r} with {other!r}")
        if other.field is not self.field:
            raise FieldMismatchError(
                f"descriptor mismatch: {self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        if f.k == 1:
            return FFElem(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        return FFElem(f, f._mul_vec(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in " + repr(f))
        if f.k == 1:
            return FFElem(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        return FFElem(f, _ext_euclid_inverse(self.coeffs, f.modulus, f.p, f.k))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __pow__(self, n: int):
        f = self.field
        if n < 0:
            return self.inverse() ** (-n)
        if f.k == 1:
            return FFElem(f, (pow(self.coeffs[0], n, f.p),))
        result = f.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, FFElem) or other.field is not self.field:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __lt__(self, other):
        # fixed total order: lexicographic on coefficient vectors
        other = self._check(other)
        return self.coeffs < other.coeffs

    def __le__(self, other):
        other = self._check(other)
        return self.coeffs <= other.coeffs

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"


def _ext_euclid_inverse(a, modulus, p: int, k: int) -> tuple:
    """Inverse of a modulo the (irreducible) modulus, by extended Euclid in F_p[x]."""
    def strip(x):
        while x and x[-1] % p == 0:
            x.pop()
        return x

    r0, r1 = strip(list(modulus)), strip(list(a))
    s0, s1 = [0], [1]
    while len(r1) > 1:
        # divide r0 by r1
        inv_lead = pow(r1[-1], p - 2, p)
        q = [0] * (len(r0) - len(r1) + 1)
        r = list(r0)
        for i in range(len(r0) - len(r1), -1, -1):
            c = (r[len(r1) - 1 + i] * inv_lead) % p
            if c:
                q[i] = c
                for j, b in enumerate(r1):
                    r[i + j] = (r[i + j] - c * b) % p
        r = strip(r)
        # s_new = s0 - q * s1
        qs = [0] * (len(q) + len(s1) - 1) if s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    qs[i + j] = (qs[i + j] + qc * sc) % p
        n = max(len(s0), len(qs))
        s_new = [( (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
                 for i in range(n)]
        r0, r1 = r1, r
        s0, s1 = s1, strip(s_new)
    if not r1:
        raise ZeroDivisionError("element not invertible")
    c_inv = pow(r1[0], p - 2, p)
    out = [(x * c_inv) % p for x in s1]
    out += [0] * (k - len(out))
    return tuple(out[:k])


class FiniteField:
    """F_{p^k} with the canonical modulus (lexicographically smallest monic irreducible)."""

    is_rational = False

    def __init__(self, p: int, k: int = 1, _token=None):
        if _token is not _FF_TOKEN:
            raise TypeError("use GF(p, k) to construct finite fields")
        self.p = p
        self.k = k
        self.order = p ** k
        self.characteristic = p
        if k > 1:
            self.modulus = _canonical_modulus(p, k)  # length k+1, monic
            self.xk = tuple((-c) % p for c in self.modulus[:k])  # x^k mod modulus
        else:
            self.modulus = None

    def reduce(self, cs: list) -> tuple:
        """The coefficient vector of sum cs[j] x^j (integers, low degree
        first, any length) modulo p and the modulus: from the top down,
        x^j = x^(j-k) x^k.  Consumes cs."""
        p, k, xk = self.p, self.k, self.xk
        for j in range(len(cs) - 1, k - 1, -1):
            c = cs.pop() % p
            if c:
                for i, r in enumerate(xk, j - k):
                    cs[i] += c * r
        cs += [0] * (k - len(cs))
        return tuple([c % p for c in cs])

    def _mul_vec(self, a: tuple, b: tuple) -> tuple:
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        return self.reduce(prod)

    def __call__(self, value) -> FFElem:
        if isinstance(value, FFElem):
            if value.field is self:
                return value
            raise FieldMismatchError(f"element of {value.field!r} used in {self!r}")
        if isinstance(value, int):
            coeffs = [0] * self.k
            coeffs[0] = value % self.p
            return FFElem(self, tuple(coeffs))
        if isinstance(value, (tuple, list)):
            if len(value) != self.k:
                raise ValueError(f"coefficient vector must have length {self.k}")
            return FFElem(self, tuple(int(v) % self.p for v in value))
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    @property
    def zero(self) -> FFElem:
        return self((0,) * self.k if self.k > 1 else 0)

    @property
    def one(self) -> FFElem:
        return self(1)

    def gen(self) -> FFElem:
        """The residue class of x (only meaningful for k > 1)."""
        coeffs = [0] * self.k
        coeffs[min(1, self.k - 1)] = 1
        return FFElem(self, tuple(coeffs))

    def elements(self):
        """All p^k elements, in the fixed scalar order (lex on coefficient vectors)."""
        for idx in range(self.order):
            digits = []
            n = idx
            for _ in range(self.k):
                digits.append(n % self.p)
                n //= self.p
            yield FFElem(self, tuple(reversed(digits)))

    def descriptor(self) -> dict:
        if self.k == 1:
            return {"kind": "prime-field", "p": self.p}
        return {"kind": "extension-field", "p": self.p, "degree": self.k,
                "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def __reduce__(self):
        # fields are singletons compared by identity: unpickle through GF
        return (GF, (self.p, self.k))


_FF_TOKEN = object()


@lru_cache(maxsize=None)
def _gf_cached(p: int, k: int) -> FiniteField:
    if not _is_prime(p) or p == 2:
        raise UnsupportedFieldError(f"p = {p} must be an odd prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return FiniteField(p, k, _token=_FF_TOKEN)


def GF(p: int, k: int = 1) -> FiniteField:
    return _gf_cached(int(p), int(k))


# The largest characteristic and extension degree that input may name.  On a
# 2-vCPU VM, trial division proves the largest prime below 2^40 prime in
# 0.04 s, and the modulus search builds GF(3, k) and GF(5, k) in at most
# 0.25 s for every k <= 16 (GF(3, 27) takes 3.1 s, GF(3, 39) 13 s).
MAX_P = 2 ** 40
MAX_DEGREE = 16


def described_field(p: int, k: int) -> FiniteField:
    """GF(p, k) for a field that input names: beyond the limits it raises
    UnsupportedFieldError before any primality test or modulus search."""
    if p > MAX_P:
        raise UnsupportedFieldError(
            f"p = {p} exceeds the largest supported characteristic 2^40")
    if k > MAX_DEGREE:
        raise UnsupportedFieldError(
            f"extension degree {k} exceeds the largest supported degree {MAX_DEGREE}")
    return GF(p, k)


def field_from_descriptor(desc: dict):
    """The field a JSON descriptor names; a malformed one raises ValueError."""
    if not isinstance(desc, dict):
        raise ValueError(f"field descriptor must be an object, not {desc!r}")
    kind = desc.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "prime-field":
        return described_field(_exact_int(desc.get("p")), 1)
    if kind == "extension-field":
        k = _exact_int(desc.get("degree"))
        if k < 2:
            raise ValueError(f"an extension-field descriptor needs degree >= 2, not {k}")
        f = described_field(_exact_int(desc.get("p")), k)
        if "modulus" in desc and desc["modulus"] != list(f.modulus):
            raise UnsupportedFieldError(
                "non-canonical modulus; this library fixes the lexicographically "
                f"smallest irreducible {list(f.modulus)} for GF({f.p}^{f.k})")
        return f
    raise ValueError(f"unknown field descriptor {desc!r}")


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

def scalar_to_json(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, FFElem):
        if x.field.k == 1:
            return x.coeffs[0]
        return str(list(x.coeffs))
    raise TypeError(f"not a scalar: {x!r}")


def _exact_int(obj) -> int:
    """An integer given as int or decimal string; floats and bools are refused
    rather than truncated."""
    if isinstance(obj, str):
        return int(obj)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"not an exact integer: {obj!r}")
    return obj


def scalar_from_json(field, obj):
    if field.is_rational:
        if isinstance(obj, str):
            if "e" in obj.lower():  # Fraction would expand 1e1000000 digit by digit
                raise ValueError(f"exponent notation in the rational {obj!r}; "
                                 "write an integer or a/b")
            try:
                return Fraction(obj)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in {obj!r}") from exc
        return Fraction(_exact_int(obj))
    if field.k == 1:
        return field(_exact_int(obj))
    if isinstance(obj, str):
        obj = obj.strip()
        if not (obj.startswith("[") and obj.endswith("]")):
            raise ValueError(f"bad extension-field scalar {obj!r}")
        parts = [s for s in obj[1:-1].split(",") if s.strip()]
        return field([int(s) for s in parts])
    if isinstance(obj, (list, tuple)):
        return field([_exact_int(v) for v in obj])
    raise ValueError(f"bad extension-field scalar {obj!r}")


def scalar_key(x):
    """Sort key realizing the fixed total order on scalars of one field."""
    if isinstance(x, Fraction):
        return x
    return x.coeffs


# ---------------------------------------------------------------------------
# Polynomials (dense, low degree first)
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over a fixed field; leading coefficient nonzero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and _iszero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field(c) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly(self.field, [])
            z = self.field.zero
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if _iszero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(self.field, out)
        return Poly(self.field, [c * other for c in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(self.field, []), self
        z = self.field.zero
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [z] * (dq + 1)
        inv_lead = _inv(other.leading())
        for i in range(dq, -1, -1):
            c = rem[other.degree + i] * inv_lead
            quo[i] = c
            if not _iszero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(self.field, quo), Poly(self.field, rem[:other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * _inv(self.leading())

    def derivative(self) -> "Poly":
        return Poly(self.field, [c * self.field(i) for i, c in
                                 enumerate(self.coeffs) if i >= 1])

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def _iszero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


def _inv(c):
    if isinstance(c, Fraction):
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / c
    return c.inverse()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    # left to right, so each multiplication is by base (cheap when base is x)
    result = Poly(base.field, [base.field.one])
    base = base % mod
    for bit in bin(n)[2:]:
        result = (result * result) % mod
        if bit == "1":
            result = (result * base) % mod
    return result


def squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant; a p-th power (f' = 0) has gcd f."""
    if f.is_zero():
        raise DegenerateInputError("squarefree test on the zero polynomial")
    return poly_gcd(f, f.derivative()).degree == 0


def _require_squarefree(f: Poly) -> None:
    """Raise DegenerateInputError, naming gcd(f, f'), unless f is squarefree."""
    if not squarefree(f):
        rep = [scalar_to_json(c) for c in poly_gcd(f, f.derivative()).coeffs]
        raise DegenerateInputError(f"not squarefree: gcd(f, f') = {rep} (low degree first)")


# --- factorization over finite fields --------------------------------------

@lru_cache(maxsize=None)
def _twists(field) -> tuple:
    """G[m][c][r]: coefficient r of t^m t^(cp) in F_{p^k}, t its generator."""
    t, twists = field.gen(), [field.one]
    while len(twists) < field.k:
        twists.append(twists[-1] * t ** field.p)
    return tuple(tuple((t ** m * s).coeffs for s in twists) for m in range(field.k))


class _Frobenius:
    """The p-power map of V = K[x]/(f), K = F_{p^n}, as an nd x nd matrix over
    F_p (von zur Gathen-Shoup 1992).  Coordinate i*n + j is coefficient j of
    the x^i coefficient; column i*n + j is t^(jp) (x^p)^i mod f, so building
    it costs one x^p mod f.  Entries are int64 while nd (p-1)^2 < 2^63 bounds
    a matrix-vector product, Python ints beyond.  Reduction modulo a factor g
    of f commutes with the map, so one matrix serves every such g."""

    def __init__(self, f: Poly):
        field = self.field = f.field
        self.f = f
        p, n, d = field.p, field.k, f.degree
        self.dtype = np.int64 if n * d * (p - 1) ** 2 < 2 ** 63 else object
        xp = poly_pow_mod(Poly(field, [field.zero, field.one]), p, f)
        powers = [Poly(field, [field.one]) % f]
        for _ in range(d - 1):
            powers.append(powers[-1] * xp % f)
        # A[i, l, m]: coefficient m of the x^l coefficient of (x^p)^i
        A = np.array([self.vector(h).reshape(d, n) for h in powers], dtype=self.dtype)
        phi = np.tensordot(A, np.array(_twists(field), dtype=self.dtype), axes=([2], [0]))
        self.matrix = phi.transpose(1, 3, 0, 2).reshape(n * d, n * d) % p  # [l, r, i, c]

    def vector(self, h: Poly):
        n, cs = self.field.k, [c.coeffs for c in (h % self.f).coeffs]
        return np.array(cs + [(0,) * n] * (self.f.degree - len(cs)), dtype=self.dtype).ravel()

    def poly(self, v) -> Poly:
        n = self.field.k
        return Poly(self.field, [FFElem(self.field, tuple(int(a) for a in v[i:i + n]))
                                 for i in range(0, len(v), n)])

    def iterate(self, h: Poly, m: int):
        """(h^(p^m), sum_{i<m} h^(p^i)), both mod f."""
        p, v, acc = self.field.p, self.vector(h), 0
        for _ in range(m):
            v, acc = self.matrix @ v % p, (acc + v) % p
        return self.poly(v), self.poly(acc)


def _distinct_degree(f: Poly, frob: _Frobenius):
    """Monic squarefree f, a factor of frob's modulus -> list of
    (product-of-irreducibles-of-degree-d, d).  x^(Q^d) is Phi^(kd) x."""
    field = f.field
    out = []
    x = Poly(field, [field.zero, field.one])
    g = x
    d = 1
    while 2 * d <= f.degree:
        g = frob.iterate(g, field.k)[0]
        h = poly_gcd(f, g - x)
        if h.degree > 0:
            out.append((h, d))
            f = f // h
        d += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def random_element(field, rng: random.Random) -> FFElem:
    """A uniform element of the finite field, drawn from rng."""
    if field.k == 1:
        return field(rng.randrange(field.p))
    return field(tuple(rng.randrange(field.p) for _ in range(field.k)))


def _poly_seed(f: Poly, tag: str) -> int:
    payload = repr((tag, f.field.p, f.field.k, tuple(c.coeffs for c in f.coeffs)))
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")


def _split(f: Poly, d: int, frob: _Frobenius, rng: random.Random) -> Poly:
    """A proper monic factor of f, a squarefree product of at least two degree-d
    irreducibles over F_{p^k} (p odd) dividing frob's modulus: T(r) = sum_{i<kd}
    r^(p^i) lies in F_p at each root, and gcd(f, T(r)^((p-1)/2) - 1) splits f."""
    field = f.field
    one = Poly(field, [field.one])
    while True:
        r = Poly(field, [random_element(field, rng) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        h = poly_pow_mod(frob.iterate(r, field.k * d)[1], (field.p - 1) // 2, f)
        g = poly_gcd(f, h - one)
        if 0 < g.degree < f.degree:
            return g


def _equal_degree(f: Poly, d: int, frob: _Frobenius, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles (p odd)."""
    if f.degree == d:
        return [f]
    g = _split(f, d, frob, rng)
    return _equal_degree(g, d, frob, rng) + _equal_degree(f // g, d, frob, rng)


def split_root(f: Poly):
    """One root of f, a product of distinct linear factors over its field
    F_{p^k} (p odd).  Each split keeps the smaller factor, so no more than
    one factorization path is followed; the root is fixed by f.  Any other f
    (Phi^k x != x, that is x^(p^k) != x mod f) raises DegenerateInputError."""
    if f.degree < 1:
        raise DegenerateInputError("a constant polynomial has no root")
    f = f.monic()
    frob = _Frobenius(f)
    x = Poly(f.field, [f.field.zero, f.field.one]) % f
    if frob.iterate(x, f.field.k)[0] != x:
        raise DegenerateInputError("not a product of distinct linear factors")
    rng = random.Random(_poly_seed(f, "root"))
    while f.degree > 1:
        g = _split(f, 1, frob, rng)
        f = min(g, f // g, key=lambda h: h.degree)
    return -f.coeffs[0]


def factor(f: Poly):
    """The monic irreducible factors of a squarefree f over F_{p^k}, sorted;
    any other f raises DegenerateInputError naming gcd(f, f')."""
    if f.field.is_rational:
        raise UnsupportedFieldError(
            "factorization is available over finite fields only; over Q use "
            "rational_roots / reduce mod p")
    _require_squarefree(f)
    if f.degree == 0:
        return []
    rng = random.Random(_poly_seed(f, "edf"))
    f = f.monic()
    frob = _Frobenius(f)
    out = [irr.monic() for h, d in _distinct_degree(f, frob)
           for irr in _equal_degree(h, d, frob, rng)]
    out.sort(key=lambda g: (g.degree, [c.coeffs for c in g.coeffs]))
    return out


def _eval_mod(cs, x: int, m: int) -> int:
    """The integer polynomial with coefficients cs (low degree first) at x, mod m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def rational_roots(f: Poly):
    """The rational roots of a squarefree f over Q, sorted; any other f raises
    DegenerateInputError naming gcd(f, f').

    s = c_n x^n + ... + c_0, f without its root 0 and cleared of denominators,
    is reduced modulo the smallest odd prime p that keeps its degree and its
    squarefreeness.  Each root mod p (a linear factor from `factor`) is
    Newton-lifted to a modulus N > 2 |c_n c_0|.  A root a/b has a | c_0 and
    b | c_n, so c_n a/b is the symmetric residue of c_n r mod N; every
    candidate is checked exactly (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 15).
    """
    if not f.field.is_rational:
        raise UnsupportedFieldError("rational_roots expects a polynomial over Q")
    _require_squarefree(f)
    out = [Fraction(0)] if f.coeffs[0] == 0 else []
    s = Poly(QQ, f.coeffs[len(out):])
    if s.degree < 1:
        return out
    den = lcm(*[c.denominator for c in s.coeffs])
    cs = [int(c * den) for c in s.coeffs]
    ds = [i * c for i, c in enumerate(cs)][1:]
    p, hs = 1, None
    while hs is None:  # factor tests each reduction for squarefreeness once
        p += 2
        if cs[-1] % p and _is_prime(p):
            try:
                hs = factor(Poly.from_ints(GF(p), cs))
            except DegenerateInputError:
                pass
    for h in hs:
        if h.degree > 1:
            break
        r, N = -h.coeffs[0].coeffs[0] % p, p
        while N <= 2 * abs(cs[-1] * cs[0]):
            N *= N
            r = (r - _eval_mod(cs, r, N) * pow(_eval_mod(ds, r, N), -1, N)) % N
        v = cs[-1] * r % N
        root = Fraction(v - N if 2 * v > N else v, cs[-1])
        if s.evaluate(root) == 0:
            out.append(root)
    return sorted(out)


# --- quadratic residues -----------------------------------------------------

def is_square(a: FFElem) -> bool:
    """Euler criterion in F_{p^k}: a^((q-1)/2) == 1."""
    if not isinstance(a, FFElem):
        raise UnsupportedFieldError("is_square is defined over finite fields")
    if a.is_zero():
        raise DegenerateInputError("is_square(0) is undefined")
    return a ** ((a.field.order - 1) // 2) == a.field.one


def in_subfield(a: FFElem, m: int) -> bool:
    """True iff a lies in F_{p^m} inside its field (m must divide the degree)."""
    return a ** (a.field.p ** m) == a


# --- canonical modulus and embeddings ----------------------------------------

def _binomials_reducible(p: int, k: int) -> bool:
    """True when no x^k + c is irreducible over F_p (Capelli; Lidl-Niederreiter,
    Theorem 3.75): some prime factor of k does not divide p - 1, or 4 | k and
    p = 3 mod 4."""
    primes = [r for r in range(2, k + 1) if k % r == 0 and _is_prime(r)]
    return any((p - 1) % r for r in primes) or (k % 4 == 0 and p % 4 == 3)


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Non-leading coefficients are enumerated as the base-p digits of n (most
    significant digit = coefficient of x^(k-1)), n ascending.  A candidate
    is irreducible exactly when distinct-degree factorization finds no
    factor of degree <= k/2, which every reducible one has.  The first p
    candidates are the binomials x^k + n, skipped when none is irreducible.
    """
    for n in range(p if _binomials_reducible(p, k) else 0, p ** k):
        coeffs = tuple(n // p ** i % p for i in range(k)) + (1,)  # low degree first
        f = Poly.from_ints(GF(p), coeffs)
        if _distinct_degree(f, _Frobenius(f)) == [(f, k)]:
            return coeffs
    raise RuntimeError("unreachable: irreducibles of every degree exist")


@lru_cache(maxsize=None)
def _embedding_image(src: FiniteField, dst: FiniteField) -> FFElem:
    """Canonical image of the generator of src in dst (src degree divides dst
    degree): the smallest root of src's modulus in the fixed scalar order.
    The roots are one root and its p-power conjugates."""
    conjugates = [split_root(Poly(dst, [dst(c) for c in src.modulus]))]
    while len(conjugates) < src.k:
        conjugates.append(conjugates[-1] ** src.p)
    return min(conjugates)


def embed(a, dst):
    """Embed a scalar into the field dst (identity on Q; canonical on finite fields)."""
    if dst.is_rational:
        if isinstance(a, Fraction):
            return a
        raise FieldMismatchError("cannot embed a finite-field element into Q")
    if isinstance(a, Fraction):
        raise FieldMismatchError("cannot embed a rational into a finite field")
    src = a.field
    if src is dst:
        return a
    if src.p != dst.p or dst.k % src.k != 0:
        raise FieldMismatchError(f"no embedding {src!r} -> {dst!r}")
    if src.k == 1:
        return dst(a.coeffs[0])
    img = _embedding_image(src, dst)
    acc = dst.zero
    for c in reversed(a.coeffs):
        acc = acc * img + dst(c)
    return acc


def embed_poly(f: Poly, dst) -> Poly:
    return Poly(dst, [embed(c, dst) for c in f.coeffs])
