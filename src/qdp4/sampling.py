"""Deterministic random generators for pencils, matrices, and groupoids,
shared by the self-test suites and the test suite."""

from __future__ import annotations

import itertools
import random

from .fields import GF, random_element
from .groupoids import GroupoidFunctor, disjoint_union, group_groupoid
from .linalg import congruence, rank
from .pencil import QuadricPencil, is_smooth
from .wpline import ProjPoint


def random_symmetric(field, rng: random.Random):
    M = [[field.zero] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            v = random_element(field, rng)
            M[i][j] = v
            M[j][i] = v
    return M


def random_invertible(field, rng: random.Random, n: int = 5):
    while True:
        M = [[random_element(field, rng) for _ in range(n)] for _ in range(n)]
        if rank(M) == n:
            return M


def random_smooth_pencil(field, rng: random.Random) -> QuadricPencil:
    """Rejection sampling of smooth pencils over a finite field (400 tries)."""
    for _ in range(400):
        try:
            P = QuadricPencil(field, random_symmetric(field, rng),
                              random_symmetric(field, rng))
        except ValueError:
            continue
        if is_smooth(P):
            return P
    raise RuntimeError("no smooth pencil found; widen the search")


def random_split_pencil(p: int, rng: random.Random) -> QuadricPencil:
    """Random smooth pencil over F_p whose quintic splits: a random diagonal
    pencil with five distinct rational parameter points, hidden by a random
    congruence and a pencil basis change.  Requires p >= 5."""
    field = GF(p)
    if p < 5:
        raise ValueError("P^1(F_p) needs at least five points")
    points = [ProjPoint.infinity(field)] + \
             [ProjPoint.affine(field, c) for c in range(p)]
    pts = rng.sample(points, 5)
    A = [[field.zero] * 5 for _ in range(5)]
    B = [[field.zero] * 5 for _ in range(5)]
    for i, pt in enumerate(pts):
        c = random_element(field, rng)
        while not c:
            c = random_element(field, rng)
        A[i][i] = pt.u * c   # (t0 : t1) = (b_i : a_i) = (pt.v : pt.u)
        B[i][i] = pt.v * c
    M = random_invertible(field, rng)
    A = congruence(M, A)
    B = congruence(M, B)
    (a, b), (c, d) = random_invertible(field, rng, 2)
    A, B = ([[a * A[i][j] + b * B[i][j] for j in range(5)] for i in range(5)],
            [[c * A[i][j] + d * B[i][j] for j in range(5)] for i in range(5)])
    P = QuadricPencil(field, A, B)
    assert is_smooth(P)
    return P


# ---------------------------------------------------------------------------
# Random groupoids with guaranteed splittings
# ---------------------------------------------------------------------------

def _cyclic(n):
    return tuple(range(n)), (lambda a, b: (a + b) % n)


def _product(g1, g2):
    e1, m1 = g1
    e2, m2 = g2
    elems = tuple(itertools.product(e1, e2))
    return elems, (lambda a, b: (m1(a[0], b[0]), m2(a[1], b[1])))


def _sym3():
    elems = tuple(itertools.permutations(range(3)))
    return elems, (lambda a, b: tuple(a[b[i]] for i in range(3)))


GROUP_CATALOG = {
    "1": _cyclic(1),
    "C2": _cyclic(2),
    "C3": _cyclic(3),
    "C4": _cyclic(4),
    "C2xC2": _product(_cyclic(2), _cyclic(2)),
    "S3": _sym3(),
}

COFACTOR_CATALOG = {name: GROUP_CATALOG[name] for name in ("1", "C2", "C3", "C2xC2")}


def random_split_functor(rng: random.Random, idx: int = 0):
    """A functor C -> D with guaranteed compatible splittings: per class, C has
    group G on 1-2 objects mapping onto one object of D with group G x K.

    Returns (phi, psi_all) with psi_all the projection family at every object.
    """
    n_classes = rng.choice([1, 1, 2])
    c_parts = []
    d_parts = []
    functor_obj = {}
    functor_mor = {}
    psi_all = {}
    for ci in range(n_classes):
        G = GROUP_CATALOG[rng.choice(list(GROUP_CATALOG))]
        K = COFACTOR_CATALOG[rng.choice(list(COFACTOR_CATALOG))]
        if len(G[0]) * len(K[0]) > 16:
            K = COFACTOR_CATALOG["1"]
        n_obj = rng.choice([1, 2])
        objs = [f"c{idx}_{ci}_{o}" for o in range(n_obj)]
        dobj = f"d{idx}_{ci}"
        GK = _product(G, K)
        cg, cname = group_groupoid(f"C{idx}_{ci}", objs, G[0], G[1])
        dg, dname = group_groupoid(f"D{idx}_{ci}", [dobj], GK[0], GK[1])
        c_parts.append(cg)
        d_parts.append(dg)
        e_k = K[0][0]
        for (x, y, g), n in cname.items():
            functor_mor[n] = dname[(dobj, dobj, (g, e_k))]
        for x in objs:
            functor_obj[x] = dobj
            psi_all[x] = {dname[(dobj, dobj, (g, k))]: cname[(x, x, g)]
                          for g in G[0] for k in K[0]}
    C = c_parts[0]
    D = d_parts[0]
    for part in c_parts[1:]:
        C = disjoint_union(C, part)
    for part in d_parts[1:]:
        D = disjoint_union(D, part)
    phi = GroupoidFunctor(C, D, functor_obj, functor_mor)
    return phi, psi_all
