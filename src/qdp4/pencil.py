"""Quadric-pencil analysis: discriminant quintic, smoothness, simultaneous
diagonalization, degenerate points, Galois signatures, and point counting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import numpy as np

from . import _accel
from .fields import (GF, QQ, FFElem, FieldMismatchError, Poly, _iszero,
                     UnsupportedFieldError, embed, embed_poly, factor,
                     field_from_descriptor, is_square, poly_gcd, rational_roots,
                     scalar_from_json, scalar_key, scalar_to_json, split_root,
                     squarefree)
from .hyperoct import CycleSignature
from .linalg import congruence, det, kernel_vector, rank
from .wpline import Moebius, PointConfiguration, ProjPoint, pgl2_match

POINTCOUNT_GUARD = 250  # largest p^k that count_points enumerates


class DegeneratePencilError(ValueError):
    """The two matrices span less than a pencil."""


class NotSmoothError(ValueError):
    """The discriminant quintic has a repeated root."""


class UnsupportedSplittingError(UnsupportedFieldError):
    """Degenerate points are not rational over any supported field."""


class ResourceLimitError(RuntimeError):
    """Enumeration size guard exceeded."""


class InvalidNormalFormError(ValueError):
    """(lambda, mu) violates the normal-form constraints."""


class QuadricPencil:
    """A pencil t0*A - t1*B of quadrics in P^4 over an exact field."""

    __slots__ = ("field", "A", "B", "_cache")

    def __init__(self, field, A, B):
        A = tuple(tuple(_entry(field, x) for x in row) for row in A)
        B = tuple(tuple(_entry(field, x) for x in row) for row in B)
        if len(A) != 5 or len(B) != 5 or any(len(r) != 5 for r in A + B):
            raise ValueError("pencil matrices must be 5x5")
        for M in (A, B):
            for i in range(5):
                for j in range(i):
                    if M[i][j] != M[j][i]:
                        raise ValueError("pencil matrices must be symmetric")
        flat = [list(itertools.chain.from_iterable(A)),
                list(itertools.chain.from_iterable(B))]
        if rank(flat) < 2:
            raise DegeneratePencilError("matrices are proportional")
        self.field = field
        self.A = A
        self.B = B
        self._cache = {}  # memoized derived data; all results are pure

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
        A, B = ([[scalar_from_json(field, x) for x in row] for row in M] for M in mats)
        return cls(field, A, B)

    def __repr__(self):
        return f"QuadricPencil(field={self.field!r})"


def _entry(field, x):
    """A matrix entry as an element of field: ints are coerced, elements of
    field pass, anything else (floats, bools, other fields) is refused."""
    if isinstance(x, int) and not isinstance(x, bool):
        return field(x)
    if field.is_rational and isinstance(x, Fraction):
        return x
    if isinstance(x, FFElem) and x.field is field:
        return x
    raise ValueError(f"pencil entry {x!r} is neither an integer nor an element of {field!r}")


@dataclass(frozen=True)
class NormalForm:
    """The pair (lambda, mu): degenerate points at infinity, 0, 1, lambda, mu."""

    lam: object
    mu: object

    def __post_init__(self):
        if _iszero(self.lam) or _iszero(self.mu):
            raise InvalidNormalFormError("lambda, mu must avoid 0")
        one = _one_like(self.lam)
        if self.lam == one or self.mu == one:
            raise InvalidNormalFormError("lambda, mu must avoid 1")
        if self.lam == self.mu:
            raise InvalidNormalFormError("lambda and mu must differ")

    def pair(self):
        return (self.lam, self.mu)

    def sort_key(self):
        return (scalar_key(self.lam), scalar_key(self.mu))

    def to_json(self):
        return [scalar_to_json(self.lam), scalar_to_json(self.mu)]


def _one_like(x):
    return Fraction(1) if isinstance(x, Fraction) else x.field.one


# ---------------------------------------------------------------------------
# Discriminant and smoothness
# ---------------------------------------------------------------------------

def discriminant_quintic(P: QuadricPencil):
    """Coefficients (c0..c5) of det(t0*A - t1*B) with c_i on t0^(5-i) t1^i."""
    cached = P._cache.get("quintic")
    if cached is not None:
        return cached
    g = _pencil_minor(P, range(5))
    out = g.coeffs + (P.field.zero,) * (6 - len(g.coeffs))
    P._cache["quintic"] = out
    return out


def _pencil_minor(P: QuadricPencil, idx):
    """det(A - zB) on the rows and columns idx, in F[z]: integer determinants
    of the lifted n x n blocks at z = 0..n, interpolated exactly and mapped
    back (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5 and 8).
    One path serves every field; F_3 has too few points to interpolate in."""
    field, n = P.field, len(idx)
    lift, unlift = _integer_lift(field, P.A + P.B, n)
    A = [[lift(P.A[i][j]) for j in idx] for i in idx]
    B = [[lift(P.B[i][j]) for j in idx] for i in idx]
    values = [det([[a - z * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
              for z in range(n + 1)]
    return Poly(field, [unlift(c) for c in _interpolate(values)])


def _integer_lift(field, rows, n: int):
    """(lift, unlift) for n x n blocks of the matrices rows: lift maps an
    entry to an integer, and unlift maps a z-coefficient of det(A - zB) on
    lifted blocks back to the field.

    - Q: multiply by the lcm D of the denominators; unlift divides by D^n.
    - F_p: residues in [0, p); unlift reduces mod p.
    - F_{p^k}: the coefficient vector packed into one integer at t = 2^w
      (Kronecker substitution).  An entry of A - zB, z <= n, has
      t-coefficients below (n + 1) p, so each t-coefficient of the
      determinant, and of its z^i coefficient, is below n! (k (n + 1) p)^n
      in absolute value; 2^w exceeds twice that, so unlift reads the
      coefficients as balanced base-2^w digits and hands them to the
      field's reduction.
    """
    if field.is_rational:
        D = lcm(*(x.denominator for row in rows for x in row))
        return (lambda x: x.numerator * (D // x.denominator),
                lambda c: Fraction(c, D ** n))
    if field.k == 1:
        return (lambda x: x.coeffs[0]), field
    p, k = field.p, field.k
    w = (2 * factorial(n) * (k * (n + 1) * p) ** n).bit_length()
    half, mask = 1 << (w - 1), (1 << w) - 1

    def unlift(c):
        digits = []
        while c:
            d = c & mask
            if d >= half:
                d -= 1 << w
            digits.append(d)
            c = (c - d) >> w
        return FFElem(field, field.reduce(digits))

    return (lambda x: sum(c << (w * j) for j, c in enumerate(x.coeffs))), unlift


def _interpolate(values):
    """Integer coefficients, low degree first, of the integer polynomial with
    the given values at z = 0, 1, ...: the m-th forward difference at 0 is
    m! times its coefficient on the falling factorial z(z-1)...(z-m+1)."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = []
    for m in reversed(range(len(diffs))):  # Horner: coeffs (z - m) + d_m
        coeffs = [s - m * c for s, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[m] // factorial(m)
    return coeffs


def is_smooth(P: QuadricPencil) -> bool:
    """Squarefreeness of the binary quintic: its affine chart g(z) = F(1, z)
    is squarefree, and infinity, a root of multiplicity 5 - deg g, is at
    most simple."""
    cached = P._cache.get("smooth")
    if cached is None:
        g = Poly(P.field, discriminant_quintic(P))
        cached = not g.is_zero() and g.degree >= 4 and squarefree(g)
        P._cache["smooth"] = cached
    return cached


# ---------------------------------------------------------------------------
# Degenerate points: one base-field record, then one root per Galois orbit
# ---------------------------------------------------------------------------

def degenerate_orbits(P: QuadricPencil):
    """(includes_infinity, orbits): the Galois orbits of the affine degenerate
    points as monic irreducibles over the base field, in `factor` order (over
    Q the linear factors z - r, in root order).

    The quintic is factored here, once per pencil, and nowhere else; every
    other degenerate-point computation reads this record.
    """
    cached = P._cache.get("orbits")
    if cached is not None:
        return cached
    g = Poly(P.field, discriminant_quintic(P))
    if not is_smooth(P):
        raise NotSmoothError(_repeated_point(g))
    if P.field.is_rational:
        roots = rational_roots(g)
        if len(roots) != g.degree:
            raise UnsupportedSplittingError(
                f"quintic does not split over Q: it has {len(roots)} rational "
                f"root(s) and a factor of degree {g.degree - len(roots)} with no "
                "rational root; reduce the pencil modulo an odd prime to compute "
                "over a finite field")
        orbits = tuple(Poly(QQ, [-r, Fraction(1)]) for r in roots)
    else:
        orbits = tuple(factor(g))
    out = (g.degree < 5, orbits)
    P._cache["orbits"] = out
    return out


def _repeated_point(g: Poly) -> str:
    """The repeated degenerate point of a pencil with affine quintic g: the
    root of gcd(g, g'), that factor if it has several roots, or infinity."""
    if g.is_zero():
        return "every member of the pencil is singular"
    rep = poly_gcd(g, g.derivative())
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
    return P.field if m == 1 else GF(P.field.p, P.field.k * m)


def _orbit_root(f: Poly, dst):
    """One root in dst of the base-field irreducible f; dst must split f."""
    if f.degree == 1:
        return embed(-f.coeffs[0], dst)
    return split_root(embed_poly(f, dst))


def degenerate_parameter_points(P: QuadricPencil, dst=None):
    """The five degenerate parameter points over dst (default: splitting
    field), sorted.

    Each orbit gives one root r and its conjugates r^(Q^j), Q = |base field|.
    The base factors are embedded straight into dst: canonical embeddings do
    not compose, so points over dst never come from the splitting field.
    """
    split = splitting_field(P)
    if dst is None:
        dst = split
    cached = P._cache.get(("points", dst))
    if cached is not None:
        return list(cached)
    if dst.k % split.k:  # dst does not split every orbit
        raise UnsupportedSplittingError("destination field does not split the quintic")
    includes_infinity, orbits = degenerate_orbits(P)
    out = [ProjPoint.infinity(dst)] if includes_infinity else []
    for f in orbits:
        conjugates = [_orbit_root(f, dst)]
        while len(conjugates) < f.degree:
            conjugates.append(conjugates[-1] ** P.field.order)
        out += [ProjPoint.affine(dst, r) for r in conjugates]
    out.sort(key=ProjPoint.sort_key)
    P._cache[("points", dst)] = tuple(out)
    return out


def point_configuration(P: QuadricPencil, dst=None) -> PointConfiguration:
    """The degenerate points over dst as one configuration per field, so the
    invariant, the normal forms, `aut_group` and `pgl2_match` share its
    cross-ratio table."""
    pts = degenerate_parameter_points(P, dst)
    key = ("config", pts[0].field)
    if key not in P._cache:
        P._cache[key] = PointConfiguration(pts[0].field, pts)
    return P._cache[key]


def simultaneous_diagonalize(P: QuadricPencil):
    """Congruence M with M^T A M, M^T B M diagonal, over the splitting field.

    Returns (M, pairs, points): column i of M spans the kernel of the member
    at points[i], and pairs[i] = (a_i, b_i) are the diagonal entries, with
    (t0 : t1) = (b_i : a_i) the i-th degenerate point.
    """
    pts = degenerate_parameter_points(P)
    dst = pts[0].field
    A = [[embed(x, dst) for x in row] for row in P.A]
    B = [[embed(x, dst) for x in row] for row in P.B]
    cols = []
    for p in pts:
        t0, t1 = p.v, p.u
        Q = [[t0 * A[i][j] - t1 * B[i][j] for j in range(5)] for i in range(5)]
        v = kernel_vector(Q, dst)
        if v is None:
            raise NotSmoothError("member unexpectedly nondegenerate")
        cols.append(v)
    M = [[cols[j][i] for j in range(5)] for i in range(5)]
    MA = congruence(M, A)
    MB = congruence(M, B)
    for i in range(5):
        for j in range(5):
            if i != j and (not _iszero(MA[i][j]) or not _iszero(MB[i][j])):
                raise NotSmoothError("simultaneous diagonalization failed")
    pairs = [(MA[i][i], MB[i][i]) for i in range(5)]
    for i, p in enumerate(pts):
        a, b = pairs[i]
        if not _iszero(a * p.v - b * p.u):
            raise NotSmoothError("diagonal pair does not match its degenerate point")
    return M, pairs, pts


# ---------------------------------------------------------------------------
# Normal forms and the canonical invariant
# ---------------------------------------------------------------------------

def normal_form(P: QuadricPencil, ordering=(0, 1, 2, 3, 4)) -> NormalForm:
    """Images of points 4, 5 under the Moebius map sending points 1, 2, 3 to
    infinity, 0, 1 (points indexed by `ordering` into the sorted point list):
    the cross-ratio table's entry at that ordering."""
    if sorted(ordering) != [0, 1, 2, 3, 4]:
        raise ValueError("ordering must be a permutation of 0..4")
    return NormalForm(*dict(point_configuration(P).cross_ratios())[tuple(ordering)])


def canonical_invariant(P: QuadricPencil):
    """The sorted orbit of (lambda, mu) over all 120 orderings (the values
    of the cross-ratio table); a complete isomorphism invariant of the
    underlying five-point configuration."""
    pairs = {values for _, values in point_configuration(P).cross_ratios()}
    return tuple(sorted((NormalForm(lam, mu) for lam, mu in pairs),
                        key=NormalForm.sort_key))


@dataclass(frozen=True)
class IsoCertificate:
    moebius: Moebius
    base_rational: bool  # entries lie in the common base field


def isomorphic(P1: QuadricPencil, P2: QuadricPencil):
    """A Moebius certificate mapping degenerate points of P1 onto those of P2,
    or None when there is none.

    The canonical invariants over the common field agree exactly when some
    ordering of P2's cross-ratio table has P1's identity values, which is
    the test `pgl2_match` makes, so the match alone decides."""
    f1, f2 = P1.field, P2.field
    if f1.is_rational != f2.is_rational:
        raise FieldMismatchError("pencils live over different characteristics")
    if f1.is_rational:
        common = QQ
    else:
        if f1.p != f2.p:
            raise FieldMismatchError("pencils live over different characteristics")
        s1, s2 = splitting_field(P1), splitting_field(P2)
        common = GF(f1.p, lcm(s1.k, s2.k))
    m = pgl2_match(point_configuration(P1, common), point_configuration(P2, common))
    if m is None:
        return None
    if common.is_rational:
        base_rational = True
    else:
        base_rational = m.entries_in_subfield(min(f1.k, f2.k))
    return IsoCertificate(m, base_rational)


def reconstruct(nf, field) -> QuadricPencil:
    """The diagonal pencil with degenerate points infinity, 0, 1, lambda, mu."""
    lam, mu = nf.pair() if isinstance(nf, NormalForm) else nf
    lam = field(lam) if isinstance(lam, int) else lam
    mu = field(mu) if isinstance(mu, int) else mu
    NormalForm(lam, mu)  # validates the constraints
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

def _principal_minor(P: QuadricPencil, i: int) -> Poly:
    """D_i(z): det(A - zB) with row and column i deleted (cached)."""
    if ("minor", i) not in P._cache:
        P._cache["minor", i] = _pencil_minor(P, [j for j in range(5) if j != i])
    return P._cache["minor", i]


def _norm(D: Poly, f: Poly):
    """Res(f, D) for monic f over F_p: det of multiplication by D on
    F_p[z]/(f), taken over Z on residues in [0, p) and reduced mod p."""
    m = f.degree
    z = Poly(f.field, [f.field.zero, f.field.one])
    rows, h = [], D % f
    for _ in range(m):
        rows.append([c.coeffs[0] for c in h.coeffs] + [0] * (m - len(h.coeffs)))
        h = (h * z) % f
    return f.field(det(rows))


def _ruling_sign(values) -> int:
    """Quadratic character of the first nonzero value; a corank-1 member
    (every degenerate member of a smooth pencil) always has one."""
    return 1 if is_square(next(v for v in values if not _iszero(v))) else -1


def galois_signature(P: QuadricPencil) -> CycleSignature:
    """Frobenius cycle lengths on the degenerate points with per-cycle
    ruling-swap signs (prime fields; trivial over Q for split pencils).

    At a root r of an orbit f, adj(A - rB) = c v v^T, so D_i(r) = c v_i^2 and
    the sign is the character of c over F_{p^m}: the character over F_p of
    the norm Res(f, D_i) at the first i where it is nonzero.  At infinity it
    is the character of det(B_i), the z^4 coefficient of D_i.
    """
    field = P.field
    includes_infinity, orbits = degenerate_orbits(P)
    if field.is_rational:
        return CycleSignature.trivial()
    if field.k != 1:
        raise UnsupportedFieldError("galois_signature expects a prime-field pencil")
    cycles = [(f.degree, _ruling_sign(_norm(_principal_minor(P, i), f) for i in range(5)))
              for f in orbits]
    if includes_infinity:
        tops = (_principal_minor(P, i).coeffs[4:] for i in range(5))
        cycles.append((1, _ruling_sign(c[0] if c else field.zero for c in tops)))
    return CycleSignature(tuple(cycles))


# ---------------------------------------------------------------------------
# Point counting (Lefschetz oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _encoded_tables(p: int, k: int):
    """Addition and multiplication tables for F_{p^k} encoded as 0..q-1
    (element sum c_i x^i encoded as sum c_i p^i).

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
    return add, mul


def _encode_form(M, p: int) -> np.ndarray:
    """Upper-triangular encoded coefficients of x^T M x over F_p."""
    C = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        C[i, i] = M[i][i].coeffs[0] % p
        for j in range(i + 1, 5):
            C[i, j] = (2 * M[i][j].coeffs[0]) % p
    return C


def count_points(P: QuadricPencil, k: int) -> int:
    """|X(F_{p^k})| by direct enumeration of P^4(F_{p^k}), line by line (see
    _accel.count_zero_pairs)."""
    field = P.field
    if field.is_rational or field.k != 1:
        raise UnsupportedFieldError("count_points expects a prime-field pencil")
    if k < 1:
        raise ValueError(f"extension degree k = {k} must be at least 1")
    degenerate_orbits(P)  # point counts are certified for smooth pencils only
    p = field.p
    q = p ** k
    if q > POINTCOUNT_GUARD:
        raise ResourceLimitError(
            f"p^k = {q} exceeds the enumeration guard {POINTCOUNT_GUARD}")
    add, mul = _encoded_tables(p, k)
    CA = _encode_form(P.A, p)
    CB = _encode_form(P.B, p)
    return _accel.count_zero_pairs(CA, CB, add, mul, q)


def predicted_count(sig: CycleSignature, p: int, k: int) -> int:
    """Lefschetz trace prediction p^(2k) + p^k (1 + tr(sigma^k)) + 1."""
    return p ** (2 * k) + p ** k * (1 + sig.trace_power(k)) + 1
