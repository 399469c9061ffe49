"""Quadric-pencil analysis: discriminant quintic, smoothness, degenerate
points, Galois signatures, and point counting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, gcd, lcm

import numpy as np

from . import _accel
from .fields import (GF, QQ, DegenerateInputError, FFElem, FieldMismatchError, Poly,
                     ResourceLimitError, UnsupportedFieldError, _exact_int, _sylvester,
                     conjugate_roots, factor, field_from_descriptor, is_square,
                     poly_gcd, rational_parts, rational_roots, scalar_from_json,
                     scalar_to_json)
from .hyperoct import CycleSignature
from .linalg import det, rank
from .wpline import Moebius, PointConfiguration, ProjPoint, pgl2_match

POINTCOUNT_GUARD = 250  # largest p^k that count_points enumerates
# Largest degree over F_p of a splitting field or an `iso` common field:
# lcm(5, 6), the most that two prime-field pencils imply.
MAX_IMPLIED_DEGREE = 30


class DegeneratePencilError(ValueError):
    """The two matrices span less than a pencil."""


class NotSmoothError(ValueError):
    """The discriminant quintic has a repeated root."""


class UnsupportedSplittingError(UnsupportedFieldError):
    """Degenerate points are not rational over any supported field."""


class InvalidNormalFormError(ValueError):
    """(lambda, mu) violates the normal-form constraints."""


class QuadricPencil:
    """A pencil t0*A - t1*B of quadrics in P^4 over an exact field, held as
    its integer lift (D, DA, DB), built once by either entry point: over Q, D
    is the least common denominator of the entries; over F_q, D = 1 and the
    entries are raw values (residues over F_p).  A and B are built on read."""

    __slots__ = ("field", "lift", "_cache")

    def __init__(self, field, A, B):
        """A and B: 5x5 symmetric matrices of ints or elements of field."""
        def parts(x):
            if isinstance(x, int) and not isinstance(x, bool):
                x = field(x)
            if isinstance(x, Fraction) and field.is_rational:
                return x.numerator, x.denominator
            if isinstance(x, FFElem) and x.field is field:
                return x.value
            raise ValueError(
                f"pencil entry {x!r} is neither an integer nor an element of {field!r}")
        self._lift(field, *([[parts(x) for x in row] for row in M] for M in (A, B)))

    def _lift(self, field, A, B):
        """Keep the lift of A and B, read as (n, d) pairs over Q and raw values
        over F_q, once it passes the one check: 5x5, symmetric, a pencil."""
        D = 1
        if field.is_rational:
            D = lcm(*[d for row in A + B for _, d in row])
            A, B = ([[n * (D // d) for n, d in row] for row in M] for M in (A, B))
            g = gcd(D, *[x for row in A + B for x in row]) if D > 1 else 1
            if g > 1:  # a file's n/d may be unreduced
                D //= g
                A, B = ([[x // g for x in row] for row in M] for M in (A, B))
        if len(A) != 5 or len(B) != 5 or any(len(r) != 5 for r in A + B):
            raise ValueError("pencil matrices must be 5x5")
        if any(list(map(list, zip(*M))) != M for M in (A, B)):
            raise ValueError("pencil matrices must be symmetric")
        upper = [[x for i, row in enumerate(M) for x in row[i:]] for M in (A, B)]
        if rank(upper if field.is_rational else [field.from_values(r) for r in upper]) < 2:
            raise DegeneratePencilError("matrices are proportional")
        self.field = field
        self.lift = (D, tuple(map(tuple, A)), tuple(map(tuple, B)))
        self._cache = {}  # pure: det(A - zB) blocks by index tuple, "points", ("config", F)

    A = property(lambda self: self._matrix(1))
    B = property(lambda self: self._matrix(2))

    def _matrix(self, m: int) -> tuple:
        """lift[m] / D as field elements (m = 1 for A, 2 for B)."""
        D, field = self.lift[0], self.field
        element = (lambda n: Fraction(n, D)) if field.is_rational else partial(FFElem, field)
        return tuple(tuple(map(element, row)) for row in self.lift[m])

    def to_json(self):
        return {"field": self.field.descriptor(),
                "A": [[scalar_to_json(x) for x in row] for row in self.A],
                "B": [[scalar_to_json(x) for x in row] for row in self.B]}

    @classmethod
    def from_json(cls, obj):
        field = field_from_descriptor(obj["field"])
        mats = obj["A"], obj["B"]
        if not all(isinstance(M, list) and all(isinstance(r, list) for r in M)
                   for M in mats):
            raise ValueError("pencil matrices A and B must be lists of rows, "
                             "each row a list of entries")
        read = (rational_parts if field.is_rational
                else (lambda x: _exact_int(x) % field.p) if field.k == 1
                else lambda x: scalar_from_json(field, x).value)
        P = cls.__new__(cls)
        P._lift(field, *([[read(x) for x in row] for row in M] for M in mats))
        return P

    def __repr__(self):
        return f"QuadricPencil(field={self.field!r})"


# ---------------------------------------------------------------------------
# Discriminant and smoothness
# ---------------------------------------------------------------------------

def discriminant_quintic(P: QuadricPencil):
    """Coefficients (c0..c5) of det(t0*A - t1*B) with c_i on t0^(5-i) t1^i."""
    g = _pencil_minor(P, (0, 1, 2, 3, 4))
    return g.coeffs + (P.field.zero,) * (6 - len(g.coeffs))


def _pencil_minor(P: QuadricPencil, idx: tuple) -> Poly:
    """det(A - zB) on the rows and columns idx in F[z], kept on the pencil, for
    every field: one integer determinant of the lift's n x n blocks at z = 2^W,
    read back as balanced base-2^W digits (Kronecker substitution, von zur
    Gathen-Gerhard ch. 8); |c_i| <= C(n, i) n! M^n <= n! (2M)^n < 2^(W-1), M the
    largest entry.  A digit c is c / D^n over Q, c mod p over F_p; F_{p^k}: _kronecker."""
    if idx in P._cache:
        return P._cache[idx]
    field, n = P.field, len(idx)
    D, A, B = P.lift
    A, B = ([[M[i][j] for j in idx] for i in idx] for M in (A, B))
    if field.is_rational:
        unlift = partial(Fraction, denominator=D ** n)
    elif field.k == 1:
        unlift = field
    else:
        pack, unlift = _kronecker(field, n)
        A, B = ([[pack(x) for x in row] for row in M] for M in (A, B))
    M = max(map(abs, itertools.chain(*A, *B)))
    W = (factorial(n) * (2 * M) ** n).bit_length() + 1
    c = det([[a - (b << W) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
    P._cache[idx] = Poly(field, [unlift(d) for d in _balanced_digits(c, W, n + 1)])
    return P._cache[idx]


def _balanced_digits(c: int, w: int, count: int) -> list:
    """The digits d_j in [-2^(w-1), 2^(w-1)) of c = sum_(j < count) d_j 2^(w j),
    low first; ArithmeticError if c needs more."""
    half, mask, digits = 1 << (w - 1), (1 << w) - 1, []
    for _ in range(count):
        digits.append(((c + half) & mask) - half)
        c = (c - digits[-1]) >> w
    if c:
        raise ArithmeticError(f"value needs more than {count} base-2^{w} digits")
    return digits


def _kronecker(field, n: int):
    """(pack, unlift) for n x n blocks over F_{p^k}: pack puts the coefficients
    of a raw value into one integer at t = 2^w, and unlift maps a z-digit of
    det(A - zB) back.  Every t-coefficient of a z-digit is below
    n! (k (n + 1) p)^n in absolute value, as A and B are lifted apart, and
    2^w exceeds twice that, so unlift reads the n (k - 1) + 1 of them as
    balanced base-2^w digits and hands them to the field's reduction."""
    p, k, mask, shifts = field.p, field.k, field.mask, field.shifts
    w = (2 * factorial(n) * (k * (n + 1) * p) ** n).bit_length()
    return (lambda v: sum((v >> s & mask) << (w * j) for j, s in enumerate(shifts)),
            lambda c: field.reduce(_balanced_digits(c, w, n * (k - 1) + 1)))


def is_smooth(P: QuadricPencil) -> bool:
    """Squarefreeness of the binary quintic: infinity, a root of multiplicity
    5 - deg g of its affine chart g(z) = F(1, z), is at most simple, and the
    base-field root finder accepts g (it refuses g with gcd(g, g') != 1).
    Keeps the pencil's one degenerate-point record for degenerate_orbits:
    (includes_infinity, orbits) when it accepts g, over Q the linear factors
    z - r of its roots; else the refusal's gcd, or None for deg g < 4."""
    if "points" not in P._cache:
        g = Poly(P.field, discriminant_quintic(P))
        find = ((lambda g: [Poly(QQ, [-r, Fraction(1)]) for r in rational_roots(g)])
                if P.field.is_rational else factor)
        try:
            P._cache["points"] = (g.degree < 5, tuple(find(g))) if g.degree >= 4 else None
        except DegenerateInputError as exc:
            P._cache["points"] = exc.gcd
    return isinstance(P._cache["points"], tuple)


# ---------------------------------------------------------------------------
# Degenerate points: one base-field record, then one root per Galois orbit
# ---------------------------------------------------------------------------

def degenerate_orbits(P: QuadricPencil):
    """(includes_infinity, orbits): the Galois orbits of the affine degenerate
    points as monic irreducibles over the base field, in `factor` order (over
    Q the linear factors z - r, in root order).

    The quintic is factored once per pencil, by is_smooth; every other
    degenerate-point computation reads its record.
    """
    if not is_smooth(P):
        raise NotSmoothError(_repeated_point(Poly(P.field, discriminant_quintic(P)),
                                             P._cache["points"]))
    includes_infinity, orbits = P._cache["points"]
    missing = 5 - includes_infinity - sum(f.degree for f in orbits)
    if missing:  # over Q only: factor's orbits cover g
        raise UnsupportedSplittingError(
            f"quintic does not split over Q: it has {len(orbits)} rational root(s) and a "
            f"factor of degree {missing} with no rational root; reduce the pencil modulo "
            "an odd prime to compute over a finite field")
    return P._cache["points"]


def _repeated_point(g: Poly, rep) -> str:
    """The repeated degenerate point of a pencil with affine quintic g: the
    root of rep = gcd(g, g') (or None), that factor if it has several roots, or infinity."""
    if g.is_zero():
        return "every member of the pencil is singular"
    rep = rep or poly_gcd(g, g.derivative())
    if rep.degree == 1:
        return f"pencil has a repeated degenerate point z = {scalar_to_json(-rep.coeffs[0])}"
    if rep.degree > 1:
        return ("pencil has repeated degenerate points at the roots of "
                f"{[scalar_to_json(c) for c in rep.coeffs]} (low degree first)")
    return "pencil has a repeated degenerate point at infinity"


def splitting_field(P: QuadricPencil):
    """Smallest field over which all five degenerate points are rational."""
    _, orbits = degenerate_orbits(P)
    m = lcm(*(f.degree for f in orbits))
    return P.field if m == 1 else _implied_field(P.field.p, P.field.k * m)


def _implied_field(p: int, k: int):
    """GF(p, k) for a field the computation implies: beyond
    MAX_IMPLIED_DEGREE it raises UnsupportedSplittingError before any
    modulus search."""
    if k > MAX_IMPLIED_DEGREE:
        raise UnsupportedSplittingError(
            f"the implied field GF({p}^{k}) has degree {k} over F_{p}, beyond "
            f"the bound {MAX_IMPLIED_DEGREE}")
    return GF(p, k)


def degenerate_parameter_points(P: QuadricPencil, dst=None):
    """The five degenerate parameter points over dst (default: splitting
    field), sorted: the conjugate roots in dst of each orbit.  The base
    factors are embedded straight into dst: canonical embeddings do not
    compose, so points over dst never come from the splitting field.
    """
    split = splitting_field(P)
    if dst is None:
        dst = split
    if dst.k % split.k:  # dst does not split every orbit
        raise UnsupportedSplittingError("destination field does not split the quintic")
    includes_infinity, orbits = degenerate_orbits(P)
    out = [ProjPoint.infinity(dst)] if includes_infinity else []
    out += [ProjPoint.affine(dst, r) for f in orbits for r in conjugate_roots(f, dst)]
    out.sort()
    return out


def point_configuration(P: QuadricPencil, dst=None) -> PointConfiguration:
    """The degenerate points over dst (default: splitting field) as one
    configuration per field, kept on the pencil, so the invariant, `aut_group`
    and `pgl2_match` share its cross-ratio table."""
    dst = dst or splitting_field(P)
    if ("config", dst) not in P._cache:
        P._cache["config", dst] = PointConfiguration(dst, degenerate_parameter_points(P, dst))
    return P._cache["config", dst]


# ---------------------------------------------------------------------------
# Normal forms and the canonical invariant
# ---------------------------------------------------------------------------

def canonical_invariant(P: QuadricPencil, form=None):
    """The sorted orbit of (lambda, mu) tuples over all 120 orderings (the
    values of the cross-ratio table); a complete isomorphism invariant of the
    underlying five-point configuration (indices follow the scalar order).
    With form, each distinct value is passed through it once."""
    values, table = point_configuration(P).cross_ratios()
    values = values if form is None else [form(v) for v in values]
    return tuple((values[a], values[b]) for a, b in sorted({ab for _, ab in table}))


@dataclass(frozen=True)
class IsoCertificate:
    moebius: Moebius
    base_rational: bool  # entries lie in F_{p^gcd(k1, k2)}, the common base field


def isomorphic(P1: QuadricPencil, P2: QuadricPencil):
    """A Moebius certificate mapping degenerate points of P1 onto those of P2,
    or None when there is none.

    The canonical invariants over the common field agree exactly when some
    ordering of P2's cross-ratio table has P1's identity values, which is
    the test `pgl2_match` makes, so the match alone decides."""
    f1, f2 = P1.field, P2.field
    if f1.p != f2.p:
        raise FieldMismatchError("pencils live over different characteristics")
    common = QQ if f1.is_rational else _implied_field(
        f1.p, lcm(splitting_field(P1).k, splitting_field(P2).k))
    m = pgl2_match(point_configuration(P1, common), point_configuration(P2, common))
    if m is None:
        return None
    return IsoCertificate(m, common.is_rational or m.entries_in_subfield(gcd(f1.k, f2.k)))


def reconstruct(pair, field) -> QuadricPencil:
    """The diagonal pencil with degenerate points infinity, 0, 1, lambda, mu."""
    lam, mu = map(field, pair)
    if not lam or not mu:
        raise InvalidNormalFormError("lambda, mu must avoid 0")
    if lam == 1 or mu == 1:
        raise InvalidNormalFormError("lambda, mu must avoid 1")
    if lam == mu:
        raise InvalidNormalFormError("lambda and mu must differ")
    one, zero = field.one, field.zero
    A = [[zero] * 5 for _ in range(5)]
    B = [[zero] * 5 for _ in range(5)]
    for i, v in enumerate((one, zero, one, lam, mu)):
        A[i][i] = v
    for i, v in enumerate((zero, one, one, one, one)):
        B[i][i] = v
    return QuadricPencil(field, A, B)


# ---------------------------------------------------------------------------
# Galois signature
# ---------------------------------------------------------------------------

def _ruling_sign(values) -> int:
    """Quadratic character of the first nonzero value; a corank-1 member
    (every degenerate member of a smooth pencil) always has one."""
    return 1 if is_square(next(v for v in values if v)) else -1


def galois_signature(P: QuadricPencil) -> CycleSignature:
    """Frobenius cycle lengths on the degenerate points with per-cycle
    ruling-swap signs (prime fields; trivial over Q for split pencils).

    At a root r of an orbit f, adj(A - rB) = c v v^T, so D_i(r) = c v_i^2 and
    the sign is the character of c over F_{p^m}: the character over F_p of
    the norm Res(f, D_i) at the first i where it is nonzero, with D_i of
    formal degree 4.  Infinity is the root of the binary form t0, [1, 0],
    and Res(t0, D_i) is the z^4 coefficient of D_i, det(B_i).  Each
    resultant is one integer Sylvester determinant on residues in [0, p).
    """
    field = P.field
    includes_infinity, orbits = degenerate_orbits(P)
    if field.is_rational:
        return CycleSignature.trivial()
    if field.k != 1:
        raise UnsupportedFieldError("galois_signature expects a prime-field pencil")

    def minor(i):
        cs = [c.value for c in _pencil_minor(P, tuple(j for j in range(5) if j != i)).coeffs]
        return cs + [0] * (5 - len(cs))

    forms = [[c.value for c in f.coeffs] for f in orbits] + ([[1, 0]] if includes_infinity else [])
    return CycleSignature(tuple(
        (len(a) - 1, _ruling_sign(field(det(_sylvester(a, minor(i)))) for i in range(5)))
        for a in forms))


# ---------------------------------------------------------------------------
# Point counting (Lefschetz oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _encoded_tables(p: int, k: int):
    """Read-only addition and multiplication tables for F_{p^k} encoded as
    0..q-1 (element sum c_i x^i encoded as sum c_i p^i).

    With digits[b] the coefficient vector of b and shifts[i][b] that of
    x^i b, reduced by the field's x^k, a b = sum_i a_i x^i b."""
    q = p ** k
    digits = np.arange(q)[:, None] // p ** np.arange(k) % p
    shifts = [digits]
    for _ in range(k - 1):
        s = shifts[-1]
        shifts.append((np.pad(s[:, :-1], ((0, 0), (1, 0)))
                       + s[:, -1:] * np.array(GF(p, k).xk)) % p)
    weights = p ** np.arange(k)
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    mul = (np.einsum("ai,ibj->abj", digits, np.stack(shifts)) % p) @ weights
    add.flags.writeable = mul.flags.writeable = False  # shared by every count of the process
    return add, mul


def _encode_form(M, p: int) -> np.ndarray:
    """Upper-triangular encoded coefficients of x^T M x over F_p, M residues."""
    C = np.array(M, dtype=np.int64)
    return np.triu(2 * C % p, 1) + np.diag(np.diag(C))


def count_points(P: QuadricPencil, k: int) -> int:
    """|X(F_{p^k})| by direct enumeration of P^4(F_{p^k}), line by line (see
    _accel.count_zero_pairs)."""
    field = P.field
    if field.is_rational or field.k != 1:
        raise UnsupportedFieldError("count_points expects a prime-field pencil")
    if k < 1:
        raise ValueError(f"extension degree k = {k} must be at least 1")
    degenerate_orbits(P)  # point counts are certified for smooth pencils only
    p = field.p  # p >= 3: a k past the guard's bit length is past the guard
    if k > POINTCOUNT_GUARD.bit_length() or p ** k > POINTCOUNT_GUARD:
        raise ResourceLimitError(
            f"p^k = {p}^{k} exceeds the enumeration guard {POINTCOUNT_GUARD}")
    CA, CB = (_encode_form(M, p) for M in P.lift[1:])
    return _accel.count_zero_pairs(CA, CB, *_encoded_tables(p, k))


def predicted_count(sig: CycleSignature, p: int, k: int) -> int:
    """Lefschetz trace prediction p^(2k) + p^k (1 + tr(sigma^k)) + 1."""
    return p ** (2 * k) + p ** k * (1 + sig.trace_power(k)) + 1
