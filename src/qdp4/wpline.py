"""Five-point configurations on P^1: Moebius action, PGL2 matching, stabilizers."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fields import (FieldMismatchError, in_subfield, scalar_from_json, scalar_key,
                     scalar_to_json)


class ProjPoint:
    """Point (u : v) of P^1, affine coordinate u/v; infinity is (1 : 0).

    Stored normalized: (u/v, 1) when v != 0, else (1, 0).
    """

    __slots__ = ("field", "u", "v")

    def __init__(self, field, u, v):
        if _z(u) and _z(v):
            raise ValueError("(0 : 0) is not a projective point")
        if _z(v):
            u, v = field.one, field.zero
        else:
            u, v = u / v, field.one
        self.field = field
        self.u = u
        self.v = v

    @classmethod
    def infinity(cls, field):
        return cls(field, field.one, field.zero)

    @classmethod
    def affine(cls, field, x):
        return cls(field, field(x) if isinstance(x, int) else x, field.one)

    def is_infinity(self) -> bool:
        return _z(self.v)

    def affine_value(self):
        if self.is_infinity():
            raise ValueError("infinity has no affine value")
        return self.u

    def sort_key(self):
        # infinity first, then affine points in scalar order
        return (0,) if self.is_infinity() else (1, scalar_key(self.u))

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return "oo" if self.is_infinity() else f"({self.u!r})"

    def to_json(self):
        if self.is_infinity():
            return [1, 0]
        return [scalar_to_json(self.u), scalar_to_json(self.v)]

    @classmethod
    def from_json(cls, field, obj):
        if obj == [1, 0]:
            return cls.infinity(field)
        u, v = obj
        return cls(field, scalar_from_json(field, u), scalar_from_json(field, v))


def _z(x):
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero()


class Moebius:
    """Invertible 2x2 matrix up to scale; canonical form has first nonzero entry 1."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        det = a * d - b * c
        if _z(det):
            raise ValueError("Moebius matrix must be invertible")
        for x in (a, b, c, d):
            if not _z(x):
                inv = field.one / x
                a, b, c, d = a * inv, b * inv, c * inv, d * inv
                break
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field):
        return cls(field, field.one, field.zero, field.zero, field.one)

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.field, self.a * p.u + self.b * p.v,
                         self.c * p.u + self.d * p.v)

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.apply(p)

    def compose(self, other: "Moebius") -> "Moebius":
        # self after other
        return Moebius(self.field,
                       self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self) -> "Moebius":
        return Moebius(self.field, self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return (self.a == self.d and _z(self.b) and _z(self.c)
                and not _z(self.a))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def entries_in_subfield(self, m: int) -> bool:
        """True iff all entries lie in F_{p^m} (finite fields only)."""
        return all(_z(x) or in_subfield(x, m) for x in self.entries())

    def __eq__(self, other):
        return (isinstance(other, Moebius) and self.field == other.field
                and self.entries() == other.entries())

    def __hash__(self):
        return hash(self.entries())

    def sort_key(self):
        return tuple(scalar_key(x) for x in self.entries())

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


def moebius_between_triples(src, dst) -> Moebius:
    """The unique Moebius map with src[i] -> dst[i] for an ordered triple."""
    return moebius_to_inf_zero_one(*dst).inverse().compose(
        moebius_to_inf_zero_one(*src))


class PointConfiguration:
    """Five distinct points of P^1 over a common field, kept in canonical order."""

    __slots__ = ("field", "points")

    def __init__(self, field, points):
        pts = sorted(points, key=lambda p: p.sort_key())
        if len(pts) != 5:
            raise ValueError("a configuration has exactly 5 points")
        if len(set(pts)) != 5:
            raise ValueError("configuration points must be pairwise distinct")
        self.field = field
        self.points = tuple(pts)

    def point_set(self):
        return frozenset(self.points)

    def apply(self, m: Moebius) -> "PointConfiguration":
        return PointConfiguration(self.field, [m(p) for p in self.points])

    def induced_permutation(self, m: Moebius):
        """sigma with m(points[i]) == points[sigma[i]], or None if m does not stabilize."""
        images = [m(p) for p in self.points]
        if set(images) != set(self.points):
            return None
        index = {p: i for i, p in enumerate(self.points)}
        return tuple(index[img] for img in images)

    def to_json(self):
        return [p.to_json() for p in self.points]

    @classmethod
    def from_json(cls, field, obj):
        return cls(field, [ProjPoint.from_json(field, o) for o in obj])

    def __eq__(self, other):
        return (isinstance(other, PointConfiguration) and self.points == other.points)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfiguration{list(self.points)!r}"


def pgl2_match(c1: PointConfiguration, c2: PointConfiguration):
    """A Moebius map with m(c1) == c2 as sets, or None.

    Enumerates the 60 candidates sending a fixed ordered triple of c1 to each
    ordered triple of c2; the first match in the fixed enumeration order wins.
    """
    if c1.field != c2.field:
        raise FieldMismatchError("configurations live over different fields")
    src = c1.points[:3]
    target_set = c2.point_set()
    for dst in itertools.permutations(c2.points, 3):
        m = moebius_between_triples(src, dst)
        if {m(p) for p in c1.points} == target_set:
            return m
    return None


def aut_group(c: PointConfiguration):
    """Full PGL2 stabilizer of the point set, as (Moebius, induced permutation) pairs.

    At most 60 candidates: a Moebius map is determined by the images of three
    points.  Output is deterministic and closed under composition.
    """
    out = []
    src = c.points[:3]
    seen = set()
    for dst in itertools.permutations(c.points, 3):
        m = moebius_between_triples(src, dst)
        perm = c.induced_permutation(m)
        if perm is not None and m not in seen:
            seen.add(m)
            out.append((m, perm))
    out.sort(key=lambda mp: mp[1])
    return out


def defined_over(auts, field):
    """The (Moebius, permutation) pairs of `auts` whose Moebius entries lie in
    field, a subfield of the configuration's field (everything over Q)."""
    if field.is_rational:
        return list(auts)
    return [(m, perm) for m, perm in auts if m.entries_in_subfield(field.k)]
