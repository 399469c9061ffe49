"""Base change as an oracle for the extension-field path.  A pencil P over
F_q, q = p^k, embedded entry by entry into F_{q^j} is a pencil P_j with the
same quintic, so:

- P_j splits over F_p's extension of degree lcm(k j, L(P)), with L(P) the
  degree of P's splitting field over F_p;
- an orbit of degree n over F_q splits into gcd(n, j) orbits of degree
  n / gcd(n, j) over F_{q^j};
- over a common field the points of P_j are P's points under a power of
  Frobenius, as canonical embeddings do not compose, and over a prime base
  field they are P's points exactly;
- the geometric automorphism group keeps its order, and the F_q-rational
  one is a subgroup of the F_{q^j}-rational one;
- `iso` finds P_j isomorphic to each of its GL5 congruences.

The test builds its inputs from embeddings and congruences only."""

import random
from math import gcd, lcm

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdp4.fields import GF, embed
from qdp4.linalg import congruence
from qdp4.pencil import (MAX_IMPLIED_DEGREE, QuadricPencil, degenerate_orbits,
                         degenerate_parameter_points, isomorphic, point_configuration,
                         splitting_field)
from qdp4.sampling import random_invertible, random_smooth_pencil
from qdp4.wpline import ProjPoint, aut_group, defined_over

BASES = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (1009, 1),
         (3, 2), (5, 2), (7, 2), (1009, 2), (3, 3), (5, 3), (3, 4))


def _embedded(P, field):
    return QuadricPencil(field, *([[embed(x, field) for x in row] for row in M]
                                  for M in (P.A, P.B)))


def _frobenius(points, p, s):
    """The points under x -> x^(p^s), sorted."""
    return sorted(pt if pt.is_infinity() else ProjPoint.affine(pt.field, pt.u ** p ** s)
                  for pt in points)


def _rational_auts(P):
    """The order of the automorphism group over P's base field."""
    return len(defined_over(aut_group(point_configuration(P)), P.field))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(base=st.sampled_from(BASES), j=st.integers(2, 5), seed=st.integers(0, 2 ** 32))
@example(base=(7, 1), j=5, seed=12)  # orbits of degree 2 and 3: F_{7^30}
@example(base=(3, 3), j=2, seed=6)  # one orbit of degree 5 over F_27: F_{3^30}
@example(base=(2 ** 31 - 1, 1), j=2, seed=5)  # orbits of degree 2 and 3: F_{p^6}
def test_base_change_keeps_the_points_and_their_symmetries(base, j, seed):
    p, k = base
    rng = random.Random(seed)
    P = random_smooth_pencil(GF(p, k), rng)
    L = splitting_field(P).k
    assume(lcm(k * j, L) <= MAX_IMPLIED_DEGREE)
    Pj = _embedded(P, GF(p, k * j))
    split = splitting_field(Pj)
    assert split.k == lcm(k * j, L)

    infinity, orbits = degenerate_orbits(P)
    assert degenerate_orbits(Pj)[0] == infinity
    assert sorted(f.degree for f in degenerate_orbits(Pj)[1]) == sorted(
        f.degree // gcd(f.degree, j) for f in orbits for _ in range(gcd(f.degree, j)))

    points, points_j = (degenerate_parameter_points(X, split) for X in (P, Pj))
    if k == 1:
        assert points == points_j
    assert any(_frobenius(points, p, s) == points_j for s in range(split.k))

    assert len(aut_group(point_configuration(P))) == len(aut_group(point_configuration(Pj)))
    assert _rational_auts(Pj) % _rational_auts(P) == 0

    M = random_invertible(Pj.field, rng)
    assert isomorphic(Pj, QuadricPencil(Pj.field, congruence(M, Pj.A),
                                        congruence(M, Pj.B))) is not None
