"""Rank-6 Picard lattice of a quartic del Pezzo surface: zero-classes, the
D5 root system and Weyl group, and Galois-invariant rank certificates."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .hyperoct import CycleSignature, SignedPerm


class InvalidClassError(ValueError):
    pass


class InvalidRootError(ValueError):
    pass


class InvalidAutError(ValueError):
    pass


# Classes are integer 6-vectors in the basis H, E1..E5; the intersection form
# is diag(1, -1, -1, -1, -1, -1).

_FORM = (1, -1, -1, -1, -1, -1)
K_CLASS = (-3, 1, 1, 1, 1, 1)


def intersect(a, b) -> int:
    return sum(f * x * y for f, x, y in zip(_FORM, a, b))


def canonical_class():
    return K_CLASS


@lru_cache(maxsize=None)
def zero_classes():
    """The ten classes h with h^2 = 0 and h.K = -2, in lexicographic order."""
    out = []
    for i in range(1, 6):
        h = [1, 0, 0, 0, 0, 0]
        h[i] = -1
        out.append(tuple(h))
        hp = [2, -1, -1, -1, -1, -1]
        hp[i] = 0
        out.append(tuple(hp))
    return tuple(sorted(out))


def pair_of(h):
    """The partner h' = -K - h; the pairs realize the 2-to-1 map onto the
    five degenerate quadrics."""
    if h not in zero_classes():
        raise InvalidClassError(f"{h} is not a zero-class")
    return tuple(-k - x for k, x in zip(K_CLASS, h))


def pair_representatives():
    """The lexicographically smaller class of each pair (h, h'), in order."""
    return tuple(h for h in zero_classes() if h < pair_of(h))


@lru_cache(maxsize=None)
def roots():
    """All 40 classes r with r^2 = -2 and r.K = 0."""
    out = []
    for i, j in itertools.combinations(range(1, 6), 2):
        for si in (1, -1):
            e = [0] * 6
            e[i], e[j] = si, -si
            out.append(tuple(e))  # +-(Ei - Ej)
    for i, j, k in itertools.combinations(range(1, 6), 3):
        for s in (1, -1):
            r = [s, 0, 0, 0, 0, 0]
            r[i] = r[j] = r[k] = -s
            out.append(tuple(r))  # +-(H - Ei - Ej - Ek)
    return tuple(sorted(out))


def brute_force_classes(square: int, k_pairing: int):
    """All classes in the coefficient box [-3, 3]^6 with the given
    self-intersection and K-pairing (completeness oracle for the lists above)."""
    rng = range(-3, 4)
    out = []
    for v in itertools.product(rng, repeat=6):
        if intersect(v, v) == square and intersect(v, K_CLASS) == k_pairing:
            out.append(v)
    return tuple(sorted(out))


def reflect(r, x):
    """Reflection in a (-2)-root: x -> x + (x.r) r."""
    if r not in roots():
        raise InvalidRootError(f"{r} is not a root")
    c = intersect(x, r)
    return tuple(xi + c * ri for xi, ri in zip(x, r))


def reflection_matrix(r) -> np.ndarray:
    cols = []
    for i in range(6):
        e = tuple(1 if j == i else 0 for j in range(6))
        cols.append(reflect(r, e))
    return np.array(cols, dtype=np.int64).T


@lru_cache(maxsize=None)
def weyl_group():
    """Closure of the 40 root reflections under composition (order 1920)."""
    gens = [reflection_matrix(r) for r in roots()]
    ident = np.eye(6, dtype=np.int64)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                m = g @ w
                key = m.tobytes()
                if key not in seen:
                    seen[key] = m
                    new.append(m)
        frontier = new
    return tuple(sorted(seen.values(), key=lambda m: m.tobytes()))


def _check_lattice_aut(w: np.ndarray):
    if tuple(w @ np.array(K_CLASS)) != K_CLASS:
        raise InvalidAutError("automorphism must fix K")
    F = np.diag(np.array(_FORM, dtype=np.int64))
    if not np.array_equal(w.T @ F @ w, F):
        raise InvalidAutError("automorphism must preserve the intersection form")


@lru_cache(maxsize=None)
def _doubled_hbar():
    """2*hbar_i = 2*h_i + K for the five pair representatives."""
    return tuple(tuple(2 * hi + ki for hi, ki in zip(h, K_CLASS))
                 for h in pair_representatives())


def to_signed_perm(w: np.ndarray) -> SignedPerm:
    """The signed permutation of (hbar_1..hbar_5) induced by a Weyl element."""
    _check_lattice_aut(w)
    hbars = _doubled_hbar()
    index = {}
    for i, hb in enumerate(hbars):
        index[hb] = (i, 1)
        index[tuple(-x for x in hb)] = (i, -1)
    perm = [0] * 5
    signs = [1] * 5
    for i, hb in enumerate(hbars):
        img = tuple(int(x) for x in (w @ np.array(hb)))
        if img not in index:
            raise InvalidAutError("automorphism does not permute the zero-class pairs")
        j, s = index[img]
        perm[i] = j
        signs[j] = s
    return SignedPerm(tuple(perm), tuple(signs))


def invariant_rank(sig: CycleSignature) -> int:
    """rank Pic^G = 1 + number of +1 cycles."""
    if sig.total() != 5:
        raise ValueError("Picard signatures act on 5 pairs")
    return 1 + sig.plus_cycles()


def is_minimal(sig: CycleSignature) -> bool:
    """rank Pic^G = 1, i.e. every Frobenius cycle carries sign -1."""
    return invariant_rank(sig) == 1
