"""Five-point configurations on P^1: Moebius action, PGL2 matching, stabilizers."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fields import FieldMismatchError, in_subfield, scalar_from_json, scalar_to_json


class ProjPoint:
    """Point (u : v) of P^1, affine coordinate u/v; infinity is (1 : 0).

    Stored normalized: (u/v, 1) when v != 0, else (1, 0).
    """

    __slots__ = ("field", "u", "v")

    def __init__(self, field, u, v):
        if not u and not v:
            raise ValueError("(0 : 0) is not a projective point")
        if not v:
            u, v = field.one, field.zero
        elif v != field.one:
            u, v = u / v, field.one
        self.field = field
        self.u = u
        self.v = v

    @classmethod
    def infinity(cls, field):
        return cls(field, field.one, field.zero)

    @classmethod
    def affine(cls, field, x):
        return cls(field, field(x), field.one)

    def is_infinity(self) -> bool:
        return not self.v

    def __lt__(self, other):  # the fixed order: infinity first, then the affine points by u
        if other.field != self.field:
            raise FieldMismatchError(f"cannot order points of {self.field!r} and {other.field!r}")
        return not other.is_infinity() and (self.is_infinity() or self.u < other.u)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return "oo" if self.is_infinity() else f"({self.u!r})"

    @classmethod
    def from_json(cls, field, obj):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise ValueError(f"a point is a pair [u, v], not {obj!r}")
        if obj == [1, 0] and all(type(x) is int for x in obj):
            return cls.infinity(field)
        u, v = obj
        return cls(field, scalar_from_json(field, u), scalar_from_json(field, v))


class Moebius:
    """Invertible 2x2 matrix up to scale; canonical form has first nonzero entry 1."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        det = a * d - b * c
        if not det:
            raise ValueError("Moebius matrix must be invertible")
        for x in (a, b, c, d):
            if x:
                inv = 1 / x
                a, b, c, d = a * inv, b * inv, c * inv, d * inv
                break
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field):
        return cls(field, field.one, field.zero, field.zero, field.one)

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.field, self.a * p.u + self.b * p.v,
                         self.c * p.u + self.d * p.v)

    def compose(self, other: "Moebius") -> "Moebius":
        # self after other
        return Moebius(self.field,
                       self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self) -> "Moebius":
        return Moebius(self.field, self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def entries_in_subfield(self, m: int) -> bool:
        """True iff all entries lie in F_{p^m} (finite fields only)."""
        return all(not x or in_subfield(x, m) for x in self.entries())

    def __eq__(self, other):
        return (isinstance(other, Moebius) and self.field == other.field
                and self.entries() == other.entries())

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Moebius[{self.a!r},{self.b!r};{self.c!r},{self.d!r}]"

    def to_json(self):
        return [[scalar_to_json(self.a), scalar_to_json(self.b)],
                [scalar_to_json(self.c), scalar_to_json(self.d)]]


def moebius_to_inf_zero_one(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Moebius:
    """The unique Moebius map sending p1, p2, p3 to infinity, 0, 1."""
    field = p1.field
    # rows: (c, d) kills p1; (a, b) kills p2; scaling fixed by m(p3) = 1
    c, d = p1.v, -p1.u
    a0, b0 = p2.v, -p2.u
    num = c * p3.u + d * p3.v
    den = a0 * p3.u + b0 * p3.v
    t = num / den
    return Moebius(field, a0 * t, b0 * t, c, d)


def _klein_class(i, j, k, m):
    """The least tuple of the Klein four-group orbit of (i, j, k, m): one cross-ratio."""
    return min((i, j, k, m), (j, i, m, k), (k, m, i, j), (m, k, j, i))


# the 30 classes, and (ordering, class of lam, class of mu) per ordering
_CR_CLASSES = tuple(sorted({_klein_class(*t) for t in itertools.permutations(range(5), 4)}))
_CR_LAYOUT = tuple((o, _CR_CLASSES.index(_klein_class(*o[:4])),
                    _CR_CLASSES.index(_klein_class(*o[:3], o[4])))
                   for o in itertools.permutations(range(5)))


class PointConfiguration:
    """Five distinct points of P^1 over a common field, kept in canonical order."""

    __slots__ = ("field", "points", "_table")

    def __init__(self, field, points):
        pts = sorted(points)
        if len(pts) != 5:
            raise ValueError("a configuration has exactly 5 points")
        if len(set(pts)) != 5:
            raise ValueError("configuration points must be pairwise distinct")
        self.field = field
        self.points = tuple(pts)
        self._table = None

    def cross_ratios(self):
        """(values, table), built on first use and kept on the object: one
        entry (ordering, (a, b)) per ordering, in `itertools.permutations`
        order, where lam, mu = values[a], values[b] are the images of points
        ordering[3], ordering[4] under the Moebius map sending the first three
        to infinity, 0, 1.  With D(a, b) = u_a v_b - u_b v_a, the image of m
        under the map for (i, j, k) is D(k, i) D(m, j) / (D(k, j) D(m, i)),
        constant on the classes of _CR_CLASSES; `values` holds their distinct
        values in the fixed scalar order.  Over Q the points are integer pairs
        (n : d), so each value is one Fraction of integer products."""
        if self._table is not None:
            return self._table
        rational = self.field.is_rational
        xy = [(p.u.numerator, p.u.denominator if p.v else 0) if rational else (p.u, p.v)
              for p in self.points]
        D, inv = {}, {}
        for a, b in itertools.combinations(range(5), 2):
            d = xy[a][0] * xy[b][1] - xy[b][0] * xy[a][1]
            D[a, b], D[b, a] = d, -d
            if not rational:
                e = 1 / d
                inv[a, b], inv[b, a] = e, -e
        if rational:
            cr = [Fraction(D[k, i] * D[m, j], D[k, j] * D[m, i]) for i, j, k, m in _CR_CLASSES]
        else:
            cr = [D[k, i] * D[m, j] * inv[k, j] * inv[m, i] for i, j, k, m in _CR_CLASSES]
        values, ranks = [], [0] * len(cr)
        for c in sorted(range(len(cr)), key=cr.__getitem__):
            if not values or cr[c] != values[-1]:
                values.append(cr[c])
            ranks[c] = len(values) - 1
        self._table = tuple(values), tuple((ordering, (ranks[a], ranks[b]))
                                           for ordering, a, b in _CR_LAYOUT)
        return self._table

    @classmethod
    def from_json(cls, field, obj):
        if not isinstance(obj, list):
            raise ValueError(f"configuration points must be a list, not {obj!r}")
        return cls(field, [ProjPoint.from_json(field, o) for o in obj])

    def __eq__(self, other):
        return (isinstance(other, PointConfiguration) and self.points == other.points)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfiguration{list(self.points)!r}"


def _matches(c1: PointConfiguration, c2: PointConfiguration):
    """(m, ordering) for each ordering of c2, in permutation order, whose table
    values are c1's at the identity: m is the Moebius map sending points 0..4
    of c1 to c2's points in that order.  c1's identity values are the images
    of its points 3, 4 under its map to infinity, 0, 1, so c1's table is never
    built, and each m is built only when it is asked for."""
    src = moebius_to_inf_zero_one(*c1.points[:3])
    values, table = c2.cross_ratios()
    rank = {v: n for n, v in enumerate(values)}
    ref = tuple(rank.get(src(p).u) for p in c1.points[3:])
    if None in ref:
        return
    for ordering, ab in table:
        if ab == ref:
            dst = moebius_to_inf_zero_one(*(c2.points[x] for x in ordering[:3]))
            yield dst.inverse().compose(src), ordering


def pgl2_match(c1: PointConfiguration, c2: PointConfiguration):
    """The first of `_matches(c1, c2)`: a Moebius map with m(c1) == c2 as sets,
    or None."""
    if c1.field != c2.field:
        raise FieldMismatchError("configurations live over different fields")
    return next((m for m, _ in _matches(c1, c2)), None)


def aut_group(c: PointConfiguration):
    """Full PGL2 stabilizer of the point set, as (Moebius, induced permutation)
    pairs sorted by permutation."""
    return list(_matches(c, c))


def defined_over(auts, field):
    """The (Moebius, permutation) pairs of `auts` whose Moebius entries lie in
    field, a subfield of the configuration's field (everything over Q)."""
    if field.is_rational:
        return list(auts)
    return [(m, perm) for m, perm in auts if m.entries_in_subfield(field.k)]
