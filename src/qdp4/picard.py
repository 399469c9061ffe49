"""Rank-6 Picard lattice of a quartic del Pezzo surface: zero-classes, the
D5 root system and Weyl group, and its action on the zero-class pairs."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .hyperoct import SignedPerm


_CLOSURE_CHUNK = 32  # frontier matrices per batched product in weyl_group: 369 KB of int64 products
_CLOSURE_BOUND = 3840  # 2^5 5!: every signed permutation of the five zero-class pairs


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
    self-intersection and K-pairing (completeness oracle for the lists above),
    searched one value of the first coordinate at a time."""
    form, k = np.array(_FORM, dtype=np.int8), np.array(K_CLASS, dtype=np.int8)
    rest = (np.indices((7,) * 5, dtype=np.int8) - 3).reshape(5, -1)
    out = []
    for first in range(-3, 4):  # entries stay within int8: |v.v| <= 54, |v.K| <= 24
        box = np.vstack([np.full((1, rest.shape[1]), first, dtype=np.int8), rest])
        hit = ((form @ (box * box) == square) & ((form * k) @ box == k_pairing))
        out += map(tuple, box[:, hit].T.tolist())
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
    """Closure of the 40 root reflections under composition (order 1920),
    sorted by the bytes of the int64 matrices.  Each breadth-first level is
    one batched product of the generators with the frontier, _CLOSURE_CHUNK
    frontier matrices at a time, deduplicated on the int8 entries' bytes.
    A closure beyond _CLOSURE_BOUND elements, or an entry outside int8,
    raises InvalidAutError: some generator is not a reflection in a root."""
    # int64: the first level's products are the generators, so no later product wraps
    gens = np.array([reflection_matrix(r) for r in roots()], dtype=np.int64)
    seen = {np.eye(6, dtype=np.int8).tobytes()}
    level = list(seen)
    while level:
        frontier = np.frombuffer(b"".join(level), dtype=np.int8).reshape(-1, 6, 6).astype(np.int64)
        level = []
        for start in range(0, len(frontier), _CLOSURE_CHUNK):
            products = gens[:, None] @ frontier[None, start:start + _CLOSURE_CHUNK]
            if not -128 <= products.min() <= products.max() <= 127:
                raise InvalidAutError("the reflection closure has an entry outside int8")
            # sorted rows: each distinct product is hashed once (np.unique would import numpy.ma)
            rows = np.sort(products.astype(np.int8).reshape(-1, 36).view("V36")[:, 0])
            rows = rows.view(np.int8).reshape(-1, 36)
            for key in map(bytes, rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]):
                if key not in seen:
                    seen.add(key)
                    level.append(key)
            if len(seen) > _CLOSURE_BOUND:
                raise InvalidAutError(f"the reflection closure exceeds {_CLOSURE_BOUND} elements")
    # int8 bytes sort as the int64 ones: an entry's low byte decides how it compares
    group = np.frombuffer(b"".join(sorted(seen)), dtype=np.int8).reshape(-1, 6, 6)
    return tuple(group.astype(np.int64))


def _check_lattice_auts(ws: np.ndarray):
    if (ws @ np.array(K_CLASS) != K_CLASS).any():
        raise InvalidAutError("automorphism must fix K")
    if (np.einsum("nki,k,nkj->nij", ws, np.array(_FORM), ws) != np.diag(_FORM)).any():
        raise InvalidAutError("automorphism must preserve the intersection form")


@lru_cache(maxsize=None)
def _doubled_hbar():
    """2*hbar_i = 2*h_i + K for the five pair representatives."""
    return tuple(tuple(2 * hi + ki for hi, ki in zip(h, K_CLASS))
                 for h in pair_representatives())


def to_signed_perms(ws: np.ndarray):
    """The signed permutations of (hbar_1..hbar_5) induced by a stack of
    lattice automorphisms, one per matrix; any matrix that is not one raises."""
    ws = np.asarray(ws)
    _check_lattice_auts(ws)
    hbars = np.array(_doubled_hbar())
    images = np.einsum("nkl,il->nik", ws, hbars)  # [w, i]: w applied to 2*hbar_i
    # [w, i, j]: image i is +2*hbar_j, or -2*hbar_j
    plus = (images[:, :, None] == hbars).all(axis=3)
    minus = (images[:, :, None] == -hbars).all(axis=3)
    hit = plus | minus
    if (hit.sum(axis=2) != 1).any():
        raise InvalidAutError("automorphism does not permute the zero-class pairs")
    perms = hit.argmax(axis=2)
    signs = np.where(plus.any(axis=1), 1, -1)  # the sign of the image landing on each target
    return [SignedPerm(tuple(p), tuple(s)) for p, s in zip(perms.tolist(), signs.tolist())]

