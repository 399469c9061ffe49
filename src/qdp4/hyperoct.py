"""Signed permutations on 5 pairs: the hyperoctahedral group, its even subgroup,
the central splitting, cycle signatures, and the order of the automorphism
fiber product."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import _exact_int


class InvalidGroupInputError(ValueError):
    """The supplied automorphism list is not closed under composition."""


@dataclass(frozen=True)
class SignedPerm:
    """Pair (perm, signs) acting on pairs (i, s) by (i, s) -> (perm[i], s * signs[perm[i]]).

    perm is a 0-based image tuple; signs is a tuple in {+1, -1}^5 indexed by
    target slot.  Composition is composition of these actions.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("invalid signed permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def identity(cls):
        return cls(tuple(range(5)), (1,) * 5)

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self after other."""
        sigma, eps = self.perm, self.signs
        tau, delta = other.perm, other.signs
        perm = tuple(sigma[t] for t in tau)
        signs = tuple(e * delta[i] for e, i in zip(eps, _inverse(sigma)))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        return SignedPerm(_inverse(self.perm), tuple(self.signs[i] for i in self.perm))

    def is_even(self) -> bool:
        """Parity of the induced permutation of the 10-element doubled set."""
        return self.signs.count(-1) % 2 == 0


def _inverse(perm) -> tuple:
    """The inverse of a permutation given by its image tuple."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def retract(a: SignedPerm) -> SignedPerm:
    """Projection B5 -> D5 killing the central flip: a if even, c*a otherwise."""
    if a.is_even():
        return a
    return SignedPerm(a.perm, tuple(-s for s in a.signs))


@lru_cache(maxsize=None)
def _element_table():
    """The one encoding of B5: element e = 32 * perm_index + sign_mask, the
    permutations in lexicographic order over image tuples and bit j of the
    mask set where sign j is -1, so the first 32 elements lie over the
    identity.  Returns read-only (3840, 5) int64 rows perm and signs."""
    perms = np.repeat(np.array(list(itertools.permutations(range(5)))), 32, axis=0)
    signs = 1 - 2 * (np.arange(3840)[:, None] >> np.arange(5) & 1)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


@lru_cache(maxsize=None)
def all_signed_perms():
    """All 2^5 * 5! signed permutations, in the order of _element_table()."""
    perms, signs = (rows.tolist() for rows in _element_table())
    return tuple(SignedPerm(tuple(p), tuple(s)) for p, s in zip(perms, signs))


@lru_cache(maxsize=None)
def even_signed_perms():
    return tuple(a for a in all_signed_perms() if a.is_even())


@dataclass(frozen=True)
class CycleSignature:
    """Conjugacy data: per-cycle (length, sign) pairs, canonically sorted."""

    cycles: tuple

    def __post_init__(self):
        if any(length < 1 or sign not in (1, -1) for length, sign in self.cycles):
            raise ValueError("invalid cycle data")
        canon = tuple(sorted(self.cycles, key=lambda ls: (-ls[0], -ls[1])))
        object.__setattr__(self, "cycles", canon)

    @classmethod
    def from_signed_perm(cls, a: SignedPerm) -> "CycleSignature":
        n = len(a.perm)
        seen = [False] * n
        cycles = []
        for i in range(n):
            if seen[i]:
                continue
            j = i
            sign = 1
            length = 0
            while not seen[j]:
                seen[j] = True
                sign *= a.signs[j]
                j = a.perm[j]
                length += 1
            cycles.append((length, sign))
        return cls(tuple(cycles))

    @classmethod
    def trivial(cls) -> "CycleSignature":
        return cls(((1, 1),) * 5)

    def total(self) -> int:
        return sum(length for length, _ in self.cycles)

    def plus_cycles(self) -> int:
        return sum(1 for _, sign in self.cycles if sign == 1)

    def trace_power(self, k: int) -> int:
        """Trace of the k-th power of a realizing signed permutation matrix."""
        tr = 0
        for length, sign in self.cycles:
            if k % length == 0:
                tr += length * (sign ** (k // length))
        return tr

    def to_json(self):
        return [list(c) for c in self.cycles]

    @classmethod
    def from_json(cls, obj):
        """A non-empty list of [length, sign] pairs of exact integers; any
        other JSON (objects, strings, floats, bools, []) raises ValueError."""
        if not isinstance(obj, list) or not obj or any(
                not isinstance(c, list) or len(c) != 2 for c in obj):
            raise ValueError(
                f"a cycle signature is a non-empty list of [length, sign] pairs, not {obj!r}")
        return cls(tuple((_exact_int(a), _exact_int(b)) for a, b in obj))


def fiber_product_order(aut_p) -> int:
    """|Aut(X)| = 16 |Aut(P)|: the fiber product pairs each (Moebius, S5
    image) element of aut_p, as produced by wpline.aut_group, with the 16 even
    signed permutations over its image.  aut_p must be a group: its S5 images
    contain the identity, are distinct and are closed under composition."""
    perms = [tuple(perm) for _, perm in aut_p]
    if tuple(range(5)) not in perms:
        raise InvalidGroupInputError("aut_p is not a group: identity missing")
    perm_set = set(perms)
    if len(perm_set) != len(perms):
        raise InvalidGroupInputError("aut_p is not a group: repeated S5 image")
    for p1 in perm_set:
        for p2 in perm_set:
            if tuple(p1[p2[i]] for i in range(5)) not in perm_set:
                raise InvalidGroupInputError(
                    "aut_p is not a group: S5 images not closed under composition")
    return 16 * len(perms)


# --- integer encodings for the exhaustive suites ----------------------------

@lru_cache(maxsize=None)
def index_tables():
    """Composition data for B5 in the encoding of _element_table().

    Returns (perms, mask_apply, retract_mask):
      perms[i]          the i-th permutation (lex order over image tuples)
      mask_apply[a, m]  the mask m' with bit_j(m') = bit_{perms[a]^-1(j)}(m)
      retract_mask[m]   the mask of retract() of the m-th element over the identity
    """
    order = _element_table()[0][::32]
    inv = np.argsort(order, axis=1)[:, None, :]
    mask_apply = (np.arange(32)[:, None] >> inv & 1) << np.arange(5)
    over_identity = np.array([retract(a).signs for a in all_signed_perms()[:32]])
    retract_mask = (over_identity == -1) << np.arange(5)
    return [tuple(p) for p in order.tolist()], mask_apply.sum(axis=2), retract_mask.sum(axis=1)


def retract_homomorphism_violations(mask_apply, retract_mask):
    """Count of pairs (a, b) in B5 x B5 with retract(ab) != retract(a) retract(b).
    For a = (pa, ma), b = (pb, mb) both sides have the permutation pa pb, and
    their masks do not involve pb: each failing (pa, ma, mb) counts 120 times."""
    ma = np.arange(32)[:, None]
    failing = 0
    for apply in mask_apply:  # one pa at a time, so the temporaries are 32 x 32
        lhs = retract_mask[ma ^ apply]
        failing += np.count_nonzero(lhs != retract_mask[ma] ^ apply[retract_mask])
    return len(mask_apply) * failing
