"""Exact arithmetic over Q, F_p and F_{p^k}, plus univariate polynomial operations.

Rational scalars are `fractions.Fraction`; finite-field scalars are `FFElem`,
each one Python int: the residue over F_p, and over F_{p^k} its coefficient
vector modulo a canonical irreducible modulus, packed as base-2^w digits.
Both answer the same scalar protocol: `not x` tests for zero, `x == 1` for
one, and `1 / x` is the inverse.  Each field owns its arithmetic on raw values
(Fractions, or the ints): `mul`, `sub` and `inv`, and a finite field also
`add` and `pow`, which `FFElem` calls.  On them `_divide` runs one division
loop for every field, for `Poly.__divmod__`, `poly_gcd` and the inverse in
F_{p^k}.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .linalg import det


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class DegenerateInputError(ValueError):
    """Input outside a function's domain: zero where a nonzero value is
    required, or a polynomial f that is not squarefree."""
    gcd = None  # gcd(f, f') for an f that is not squarefree


class UnsupportedFieldError(ValueError):
    """Operation not available over this field."""


class ResourceLimitError(RuntimeError):
    """Enumeration size guard exceeded."""


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
    """The field Q.  Elements are fractions.Fraction, and so are their raw
    values: `mul`, `sub`, `inv`, `to_values` and `from_values` are Fraction's
    own operators and plain lists."""

    is_rational = True
    p = 0
    k = 1
    zero = Fraction(0)
    one = Fraction(1)
    mul, sub = operator.mul, operator.sub
    inv = staticmethod(lambda a: 1 / a)
    to_values = from_values = list

    def __call__(self, value) -> Fraction:
        if isinstance(value, FFElem):
            raise FieldMismatchError("cannot coerce a finite-field element into Q")
        if isinstance(value, Fraction):
            return value
        if hasattr(type(value), "__index__"):  # Fraction() also reads floats, strings
            return Fraction(operator.index(value))
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

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
    """Element of F_{p^k}, stored as one int, its raw value: over F_p the
    residue, over F_{p^k} the coefficients of 1, t, ..., t^(k-1) as base-2^w
    digits with the coefficient of 1 in the top digit, so that integer order
    is the lexicographic order of the coefficient vectors.  `.coeffs` is that
    vector (low degree first), derived on each read."""

    __slots__ = ("field", "value")

    def __init__(self, field: "FiniteField", value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple:
        v, mask = self.value, self.field.mask
        return tuple(v >> s & mask for s in self.field.shifts)

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
        f = self.field
        if type(other) is not FFElem or other.field is not f:
            other = self._check(other)
        return FFElem(f, f.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, self.field.sub(0, self.value))

    def __sub__(self, other):
        f = self.field
        if type(other) is not FFElem or other.field is not f:
            other = self._check(other)
        return FFElem(f, f.sub(self.value, other.value))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        f = self.field
        if type(other) is not FFElem or other.field is not f:
            other = self._check(other)
        return FFElem(f, f.mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        if not self.value:
            raise ZeroDivisionError("inverse of zero in " + repr(self.field))
        return FFElem(self.field, self.field.inv(self.value))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if type(other) is int and other == 1:  # 1 / x: the inverse, with no product
            return self.inverse()
        return self._check(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FFElem(self.field, self.field.pow(self.value, n))

    def __bool__(self):
        return self.value != 0

    # An int in [0, p) equals that element of F_p, which hashes as the int.
    def __eq__(self, other):
        if isinstance(other, int):
            return 0 <= other < self.field.p and self.value == other << self.field.shifts[0]
        if not isinstance(other, FFElem) or other.field is not self.field:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        v, top = self.value, self.field.shifts[0]
        return hash(v if v & ((1 << top) - 1) else v >> top)

    # The fixed scalar order.  `__gt__` serves a reflected `<`, so that a
    # rational on either side raises FieldMismatchError.
    def __lt__(self, other):
        return self.value < self._check(other).value

    def __gt__(self, other):
        return self._check(other).value < self.value

    def __repr__(self):
        return str(scalar_to_json(self))


class FiniteField:
    """F_{p^k} with the canonical modulus (lexicographically smallest monic
    irreducible), and its arithmetic on raw values (see FFElem): `add`, `sub`,
    `mul`, `inv` and `pow`, on residues for k = 1 and packed otherwise.

    Each digit has width w, 2^(w-1) > 2k p^2.  A product of two raw values
    has digits at most k (p-1)^2; folding its k - 1 low digits, each first
    reduced mod p, adds at most (k-1) (p-1)^2 to each of the k high ones, so
    no digit ever carries into the next.  Sums and differences stay packed:
    a digit below 2p, biased by 2^(w-1) - p, reaches its top bit exactly
    when it reaches p (SWAR)."""

    is_rational = False

    def __init__(self, p: int, k: int = 1, _token=None):
        if _token is not _FF_TOKEN:
            raise TypeError("use GF(p, k) to construct finite fields")
        self.p = p
        self.k = k
        self.order = p ** k
        w = self.w = (2 * k * p * p).bit_length() + 1
        self.mask = (1 << w) - 1
        self.shifts = tuple(w * (k - 1 - i) for i in range(k))  # of coefficient i
        ones = sum(1 << s for s in self.shifts)
        self._ps, self._bias = p * ones, ((1 << (w - 1)) - p) * ones
        self._tops = ones << (w - 1)
        self.zero, self.one = FFElem(self, 0), FFElem(self, 1 << self.shifts[0])
        if k == 1:  # residues
            self.modulus = None
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, p - 2, p)
            self.pow = lambda a, n: pow(a, n, p)
            return
        self.modulus = _canonical_modulus(p, k)  # length k+1, monic
        self.xk = tuple((-c) % p for c in self.modulus[:k])  # x^k mod modulus
        # product digit d < k - 1 holds t^(2k-2-d); rows[d] is that power reduced
        self._rows = [self.reduce([0] * (2 * k - 2 - d) + [1]).value for d in range(k - 1)]
        self._base = GF(p)
        self.add, self.sub, self.mul, self.inv = self._add, self._sub, self._mul, self._inv
        self.pow = lambda a, n: _power(self._mul, a, n) if n else self.one.value

    # a + b and a + p - b have digits below 2p: p comes off each that reaches p
    def _add(self, a: int, b: int) -> int:
        s = a + b
        return s - (((s + self._bias) & self._tops) >> (self.w - 1)) * self.p

    def _sub(self, a: int, b: int) -> int:
        s = a + self._ps - b
        return s - (((s + self._bias) & self._tops) >> (self.w - 1)) * self.p

    def _mul(self, a: int, b: int) -> int:
        p, w, mask, top = self.p, self.w, self.mask, self.shifts[0]
        c = a * b
        low, c = c & ((1 << top) - 1), c >> top
        for row in self._rows:
            c += (low & mask) % p * row
            low >>= w
        out = 0
        for s in self.shifts:
            out |= (c >> s & mask) % p << s
        return out

    def _inv(self, a: int) -> int:
        """a^-1 by extended Euclid in F_p[t], dividing by `_divide` on F_p's raw
        values: each remainder r is s a modulo the irreducible modulus, and the
        last is a nonzero constant (von zur Gathen-Gerhard, ch. 3-4)."""
        p, base = self.p, self._base
        r0, r1 = list(self.modulus), [a >> sh & self.mask for sh in self.shifts]
        s0, s1 = [0], [1]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                c = base.inv(r1[0])
                return self.pack([c * x % p for x in s1])
            q = _divide(r0, r1, base.inv(r1[-1]), base.mul, base.sub)
            s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))  # s0 - q s1
            for i, c in enumerate(q):
                for j, b in enumerate(s1):
                    s[i + j] -= c * b
            r0, r1, s0, s1 = r1, r0[:len(r1) - 1], s1, [c % p for c in s]

    def pack(self, cs) -> int:
        """The raw value of the coefficient vector cs (entries in [0, p))."""
        return sum(c << s for c, s in zip(cs, self.shifts))

    def to_values(self, elems) -> list:
        return [x.value for x in elems]

    def from_values(self, values) -> list:
        return [FFElem(self, v) for v in values]

    def reduce(self, cs: list) -> FFElem:
        """The element sum cs[j] t^j (integers, low degree first, any length):
        from the top down, t^j = t^(j-k) t^k, then each coefficient mod p.
        Consumes cs."""
        p, k, xk = self.p, self.k, self.xk
        for j in range(len(cs) - 1, k - 1, -1):
            c = cs.pop() % p
            if c:
                for i, r in enumerate(xk, j - k):
                    cs[i] += c * r
        return FFElem(self, self.pack([c % p for c in cs]))

    def __call__(self, value) -> FFElem:
        if isinstance(value, FFElem):
            if value.field is self:
                return value
            raise FieldMismatchError(f"element of {value.field!r} used in {self!r}")
        if hasattr(type(value), "__index__"):  # int() would read 2.7 as 2 and "1" as 1
            return FFElem(self, operator.index(value) % self.p << self.shifts[0])
        if isinstance(value, (tuple, list)):
            if len(value) != self.k:
                raise ValueError(f"coefficient vector must have length {self.k}")
            for v in value:
                if not hasattr(type(v), "__index__"):
                    raise TypeError(f"coefficient {v!r} of {value!r} is not an integer")
            return FFElem(self, self.pack([operator.index(v) % self.p for v in value]))
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def gen(self) -> FFElem:
        """The residue class of x (only meaningful for k > 1)."""
        return FFElem(self, 1 << self.shifts[min(1, self.k - 1)])

    def elements(self):
        """All p^k elements, in the fixed scalar order (lex on coefficient vectors)."""
        return (FFElem(self, self.pack(cs))
                for cs in itertools.product(range(self.p), repeat=self.k))

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
    if k != 1:  # GF(p) is cached, so p is proved prime once, not once per k
        _gf_cached(p, 1)
    elif not _is_prime(p) or p == 2:
        raise UnsupportedFieldError(f"p = {p} must be an odd prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return FiniteField(p, k, _token=_FF_TOKEN)


def GF(p: int, k: int = 1) -> FiniteField:
    if type(p) is not int or type(k) is not int:  # int() would read 7.9 as 7
        raise TypeError(f"GF needs int p and k, not {p!r}, {k!r}")
    return _gf_cached(p, k)


# The largest characteristic and extension degree that input may name.  On a
# 2-vCPU VM, trial division proves the largest prime below 2^40 prime in
# 0.04 s, and the modulus search builds GF(3, k) and GF(5, k) in at most
# 0.05 s for every k <= 16 (GF(3, 27) takes 0.6 s, GF(3, 39) 1.3 s).
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
            return x.value
        return str(list(x.coeffs))
    raise TypeError(f"not a scalar: {x!r}")


_INTEGER = re.compile(r"-?[0-9]+")


def _exact_int(obj) -> int:
    """An integer given as int or as a string of the grammar -?[0-9]+; floats
    and bools are refused rather than truncated, and so are the strings int()
    would also read ("1_000", " 5 ", "+3")."""
    if isinstance(obj, str):
        if not _INTEGER.fullmatch(obj):
            raise ValueError(f"bad syntax in the integer {obj!r}")
        return int(obj)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"not an exact integer: {obj!r}")
    return obj


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_parts(obj) -> tuple:
    """(n, d), d > 0 and not reduced, of an int or of a string n or n/d of
    the grammar -?[0-9]+(/[0-9]+)?."""
    if not isinstance(obj, str):
        return _exact_int(obj), 1
    match = _RATIONAL.fullmatch(obj)  # Fraction also reads 2.7, 1_000, 1e1000000
    if not match:
        problem = "exponent notation" if "e" in obj.lower() else "bad syntax"
        raise ValueError(f"{problem} in the rational {obj!r}; write an integer or a/b")
    n, d = int(match[1]), int(match[2] or 1)
    if not d:
        raise ValueError(f"zero denominator in {obj!r}")
    return n, d


def scalar_from_json(field, obj):
    if field.is_rational:
        return Fraction(*rational_parts(obj))
    if field.k == 1:
        return field(_exact_int(obj))
    if isinstance(obj, str):
        obj = obj.strip()
        if not (obj.startswith("[") and obj.endswith("]")):
            raise ValueError(f"bad extension-field scalar {obj!r}")
        return field([_exact_int(s.strip()) for s in obj[1:-1].split(",")])
    if isinstance(obj, (list, tuple)):
        return field([_exact_int(v) for v in obj])
    raise ValueError(f"bad extension-field scalar {obj!r}")


# ---------------------------------------------------------------------------
# Polynomials (dense, low degree first)
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over a fixed field; leading coefficient nonzero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and not cs[-1]:
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
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(self.field, out)
        return Poly(self.field, [c * other for c in self.coeffs])

    def __divmod__(self, other):
        """Long division on raw values (`_divide`); no inverse if other is monic."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, n = self.field, other.degree
        if self.degree < n:
            return Poly(field, []), self
        rem, b = field.to_values(self.coeffs), field.to_values(other.coeffs)
        inv_lead = None if other.leading() == field.one else field.inv(b[-1])
        quo = _divide(rem, b, inv_lead, field.mul, field.sub)
        return Poly(field, field.from_values(quo)), Poly(field, field.from_values(rem[:n]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading() == self.field.one:
            return self
        return self * (1 / self.leading())

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


def _divide(rem: list, b: list, inv_lead, mul, sub) -> list:
    """The quotient of rem by b, raw values low degree first, with the field's
    `mul` and `sub`; rem[:deg b] becomes the remainder.  inv_lead inverts b's
    leading coefficient, and is None when that is one.  The one division loop:
    `Poly.__divmod__`, `poly_gcd` and the inverse in F_{p^k} all run it."""
    n = len(b) - 1
    quo = [0] * (len(rem) - n)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[n + i] if inv_lead is None else mul(rem[n + i], inv_lead)
        if c:  # rem[n + i] cancels and is never read again
            rem[i:n + i] = [sub(r, mul(c, bj)) for r, bj in zip(rem[i:n + i], b)]
    return quo


def _power(mul, v, e: int):
    """v^e for e >= 1 with the product mul, by square-and-multiply, left to
    right: for F_{p^k} on raw values, and for `_Frobenius` on vectors of V."""
    r = v
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, v)
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b, zero when both are: Euclid on raw values,
    each remainder made monic (one inversion), so that every divisor is; a
    constant remainder means gcd 1 (von zur Gathen-Gerhard, ch. 3)."""
    field = a.field
    one, = field.to_values([field.one])
    a, b = field.to_values(a.coeffs), field.to_values(b.coeffs)
    while len(b) > 1:
        if b[-1] != one:
            inv = field.inv(b[-1])
            b = [field.mul(c, inv) for c in b[:-1]] + [one]
        _divide(a, b, None, field.mul, field.sub)
        a, b = b, a[:len(b) - 1]
        while b and not b[-1]:
            b.pop()
    return Poly(field, [field.one] if b else field.from_values(a)).monic()  # a alone if b = 0


def squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant; a p-th power (f' = 0) has gcd f."""
    if f.is_zero():
        raise DegenerateInputError("squarefree test on the zero polynomial")
    return poly_gcd(f, f.derivative()).degree == 0


def _require_squarefree(f: Poly) -> None:
    """Unless f is squarefree, raise DegenerateInputError naming gcd(f, f')."""
    rep = poly_gcd(f, f.derivative())
    if rep.degree:
        exc = DegenerateInputError("not squarefree: gcd(f, f') = "
                                   f"{[scalar_to_json(c) for c in rep.coeffs]} (low degree first)")
        exc.gcd = rep
        raise exc


# --- factorization over finite fields --------------------------------------

@lru_cache(maxsize=None)
def _field_tables(field) -> tuple:
    """Read-only int64 tables of F_{p^n}, t its generator: G[m, c, r] is
    coefficient r of t^m t^(cp), and H[m, r] that of t^(n+m), m < n - 1."""
    t, n, twists = field.gen(), field.k, [field.one]
    while len(twists) < n:
        twists.append(twists[-1] * t ** field.p)
    G = np.array([[(t ** m * s).coeffs for s in twists] for m in range(n)], dtype=np.int64)
    H = np.array([(t ** m).coeffs for m in range(n, 2 * n - 1)], dtype=np.int64)
    G.flags.writeable = H.flags.writeable = False
    return G, H.reshape(n - 1, n)


class _Frobenius:
    """V = K[x]/(f), K = F_{p^n}, f monic of degree d, on vectors over F_p,
    and the p-power map of V as an nd x nd matrix over F_p (von zur
    Gathen-Shoup 1992).  Coordinate i*n + j of a vector is coefficient j of
    the x^i coefficient; column i*n + j of the matrix is t^(jp) (x^p)^i.
    Every numpy sum, in a product or a matrix-vector product, has at most nd
    terms below p^2, so entries are int64 while nd (p-1)^2 < 2^63 and Python
    ints beyond.  Reduction modulo a factor g of f commutes with the map and
    with products, so one object serves every such g."""

    def __init__(self, f: Poly):
        field = self.field = f.field
        self.f = f
        p, n, d = field.p, field.k, f.degree
        self.dtype = np.int64 if n * d * (p - 1) ** 2 < 2 ** 63 else object
        # t_fold: rows t^n, ..., t^(2n-2); x_fold: rows x^d t^j, ...,
        # x^(2d-2) t^j, from x^d t^j = -sum_l (f_l t^j) x^l and then
        # x^(i+1) t^j = x (x^i t^j).  Together they fold a product's high half.
        twists, self.t_fold = (np.array(a, dtype=self.dtype) for a in _field_tables(field))
        C = np.array([c.coeffs for c in f.coeffs[:d]])
        U = np.zeros((n, d, 2 * n - 1), dtype=self.dtype)
        for j in range(n):
            U[j, :, j:j + n] = C
        X = [(-self._reduce_t(U)).reshape(n, d * n) % p]
        for _ in range(d - 2):
            nxt = X[-1][:, -n:] @ X[0]
            nxt[:, n:] += X[-1][:, :-n]
            X.append(nxt % p)
        self.x_fold = np.concatenate(X)[:(d - 1) * n]
        one = np.zeros(n * d, dtype=self.dtype)
        one[0] = 1
        self.x = X[0][0] if d == 1 else np.roll(one, n)
        xp = _power(self.mul, self.x, p)
        powers = [one, xp][:d]
        while len(powers) < d:
            powers.append(self.mul(powers[-1], xp))
        # A[i, l, m]: coefficient m of the x^l coefficient of (x^p)^i
        A = np.array(powers, dtype=self.dtype).reshape(d, d, n)
        phi = np.tensordot(A, twists, axes=([2], [0]))
        self.matrix = phi.transpose(1, 3, 0, 2).reshape(n * d, n * d) % p  # [l, r, i, c]

    def _reduce_t(self, c):
        """c[..., m], coefficients below p of t^m for m < 2n - 1, as elements of K."""
        n = self.field.k
        return (c[..., :n] + c[..., n:] @ self.t_fold) % self.field.p

    def mul(self, a, b):
        """The product in V: one convolution of a and b laid out as d x (2n-1)
        arrays, so that no two cells of the product alias, then the fold of
        t^n.. and that of x^d.., each with its identity part kept out of the
        matrix product."""
        n, d, p = self.field.k, self.f.degree, self.field.p
        s = 2 * n - 1
        w = np.zeros((2, d, s), dtype=self.dtype)
        w[:, :, :n] = a.reshape(d, n), b.reshape(d, n)
        u, v = w.reshape(2, d * s)[:, :(d - 1) * s + n]
        c = self._reduce_t(np.convolve(u, v).reshape(2 * d - 1, s) % p)
        return (c[:d].ravel() + c[d:].ravel() @ self.x_fold) % p

    def poly(self, v) -> Poly:
        field = self.field
        return Poly(field, [FFElem(field, field.pack(c)) for c in v.reshape(-1, field.k).tolist()])

    def iterate(self, v, m: int):
        """(v^(p^m), sum_{i<m} v^(p^i)) for a vector v of V."""
        p, acc = self.field.p, 0
        for _ in range(m):
            v, acc = self.matrix @ v % p, (acc + v) % p
        return v, acc


def _distinct_degree(f: Poly, frob: _Frobenius):
    """Monic squarefree f, a factor of frob's modulus -> (h, d) for ascending
    d, h the product of f's irreducible factors of degree d; a reducible f
    yields d <= deg f / 2 first (Ben-Or 1981).  x^(Q^d) is Phi^(kd) x, and
    each gcd with f reads it modulo frob's modulus."""
    g, d = frob.x, 1
    while 2 * d <= f.degree:
        g = frob.iterate(g, f.field.k)[0]
        h = poly_gcd(f, frob.poly((g - frob.x) % frob.field.p))
        if h.degree > 0:
            yield h, d
            f = f // h
        d += 1
    if f.degree > 0:
        yield f, f.degree


def random_element(field, rng: random.Random) -> FFElem:
    """A uniform element of the finite field, drawn from rng."""
    return field(tuple(rng.randrange(field.p) for _ in range(field.k)))


def _split(f: Poly, d: int, frob: _Frobenius, rng: random.Random) -> Poly:
    """A proper monic factor of f, a squarefree product of at least two degree-d
    irreducibles over F_{p^k} (p odd) dividing frob's modulus: T(r) = sum_{i<kd}
    r^(p^i) lies in F_p at each root, and gcd(f, T(r)^((p-1)/2) - 1) splits f."""
    field = f.field
    one = Poly(field, [field.one])
    while True:
        r = np.zeros((frob.f.degree, field.k), dtype=frob.dtype)
        r[:f.degree] = [[rng.randrange(field.p) for _ in range(field.k)] for _ in range(f.degree)]
        if not r[1:].any():
            continue
        h = _power(frob.mul, frob.iterate(r.ravel(), field.k * d)[1], (field.p - 1) // 2)
        g = poly_gcd(f, frob.poly(h) - one)
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
    if not np.array_equal(frob.iterate(frob.x, f.field.k)[0], frob.x):
        raise DegenerateInputError("not a product of distinct linear factors")
    rng = random.Random(0)
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
    rng = random.Random(0)
    f = f.monic()
    frob = _Frobenius(f)
    out = [irr.monic() for h, d in _distinct_degree(f, frob)
           for irr in _equal_degree(h, d, frob, rng)]
    out.sort(key=lambda g: (g.degree, g.coeffs))
    return out


def _eval_mod(cs, x: int, m: int) -> int:
    """The integer polynomial with coefficients cs (low degree first) at x, mod m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _sylvester(a, b) -> list:
    """The Sylvester matrix of a and b, integer coefficient lists (low degree
    first) of formal degrees m = len(a) - 1 and n = len(b) - 1.  Its
    determinant is Res(a, b) = a_m^n prod b(r) over the roots r of a; as a
    resultant of binary forms it allows a_m = 0: [1, 0] has its root at
    infinity, and Res([1, 0], b) = (-1)^n b_n."""
    m, n = len(a) - 1, len(b) - 1
    return ([[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)])


def rational_roots(f: Poly):
    """The rational roots of a squarefree f over Q, sorted; any other f raises
    DegenerateInputError naming gcd(f, f').

    f cleared of denominators is squarefree when Res(f, f') != 0, and only
    otherwise is gcd(f, f') taken.  s = c_n x^n + ... + c_0, f without its root
    0, is evaluated at 0..p-1 for the smallest odd prime p not dividing c_n at
    which every root r of s mod p is simple, as each prime dividing neither c_n
    nor disc(s) is.  A root a/b has a | c_0 and b | c_n, so it reduces to some
    r, which Newton lifting carries to a modulus N > 2 |c_n c_0|: c_n a/b is
    the symmetric residue of c_n r mod N.  Each candidate is checked exactly,
    sum c_i a^i b^(n-i) = 0 (von zur Gathen-Gerhard, ch. 6 and 15).
    """
    if not f.field.is_rational:
        raise UnsupportedFieldError("rational_roots expects a polynomial over Q")
    den = lcm(*[c.denominator for c in f.coeffs])
    cs = [c.numerator * (den // c.denominator) for c in f.coeffs]
    if f.degree < 1 or not det(_sylvester(cs, [i * c for i, c in enumerate(cs)][1:])):
        _require_squarefree(f)
    out = [Fraction(0)] if f.coeffs[0] == 0 else []
    cs = cs[len(out):]
    if len(cs) < 2:
        return out
    ds = [i * c for i, c in enumerate(cs)][1:]
    p = 1
    while True:
        p += 2
        if cs[-1] % p and _is_prime(p):
            rs = [r for r in range(p) if _eval_mod(cs, r, p) == 0]
            if all(_eval_mod(ds, r, p) for r in rs):
                break
    for r in rs:
        N = p
        while N <= 2 * abs(cs[-1] * cs[0]):
            N *= N
            r = (r - _eval_mod(cs, r, N) * pow(_eval_mod(ds, r, N), -1, N)) % N
        v = cs[-1] * r % N
        root = Fraction(v - N if 2 * v > N else v, cs[-1])
        a, b, n = root.numerator, root.denominator, len(cs) - 1
        if not sum(c * a ** i * b ** (n - i) for i, c in enumerate(cs)):
            out.append(root)
    return sorted(out)


# --- quadratic residues -----------------------------------------------------

def is_square(a: FFElem) -> bool:
    """Euler criterion in F_{p^k}: a^((q-1)/2) == 1."""
    if not isinstance(a, FFElem):
        raise UnsupportedFieldError("is_square is defined over finite fields")
    if not a:
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
    factor of degree <= k/2, which every reducible one has, so the search
    stops at the first factor it finds (Ben-Or 1981).  The first p
    candidates are the binomials x^k + n, skipped when none is irreducible.
    """
    for n in range(p if _binomials_reducible(p, k) else 0, p ** k):
        coeffs = tuple(n // p ** i % p for i in range(k)) + (1,)  # low degree first
        f = Poly.from_ints(GF(p), coeffs)
        if next(_distinct_degree(f, _Frobenius(f))) == (f, k):
            return coeffs
    raise RuntimeError("unreachable: irreducibles of every degree exist")


def conjugate_roots(f: Poly, dst) -> list:
    """The roots in dst of f, a monic irreducible over its field F_Q (linear
    over Q): one root, read off a linear f or split out of f over dst, and
    its conjugates r^(Q^j).  A dst that does not split f raises
    DegenerateInputError."""
    roots = [embed(-f.coeffs[0], dst) if f.degree == 1 else split_root(embed_poly(f, dst))]
    while len(roots) < f.degree:
        roots.append(roots[-1] ** f.field.order)
    return roots


@lru_cache(maxsize=None)
def _embedding_image(src: FiniteField, dst: FiniteField) -> FFElem:
    """Canonical image of the generator of src in dst (src degree divides dst
    degree): the smallest root of src's modulus in the fixed scalar order."""
    return min(conjugate_roots(Poly.from_ints(GF(src.p), src.modulus), dst))


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
        return dst(a.value)
    return Poly(dst, [dst(c) for c in a.coeffs]).evaluate(_embedding_image(src, dst))


def embed_poly(f: Poly, dst) -> Poly:
    return Poly(dst, [embed(c, dst) for c in f.coeffs])
