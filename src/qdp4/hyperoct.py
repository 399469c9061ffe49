"""Signed permutations on 5 pairs: the hyperoctahedral group, its even subgroup,
the central splitting, cycle signatures, and the automorphism fiber product."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import _exact_int
from .wpline import Moebius


class FiberMismatchError(ValueError):
    """Signed permutation and Moebius part induce different permutations."""


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

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self) -> "SignedPerm":
        return SignedPerm(_inverse(self.perm), tuple(self.signs[i] for i in self.perm))

    def is_even(self) -> bool:
        """Parity of the induced permutation of the 10-element doubled set."""
        return self.signs.count(-1) % 2 == 0

    def to_json(self):
        return {"perm": [i + 1 for i in self.perm], "signs": list(self.signs)}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(i - 1 for i in obj["perm"]), tuple(obj["signs"]))


def _inverse(perm) -> tuple:
    """The inverse of a permutation given by its image tuple."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def retract(a: SignedPerm) -> SignedPerm:
    """Projection B5 -> D5 killing the central flip: a if even, c*a otherwise."""
    if a.is_even():
        return a
    return SignedPerm(a.perm, tuple(-s for s in a.signs))


@lru_cache(maxsize=None)
def all_signed_perms():
    """All 2^5 * 5! signed permutations: the permutations in lexicographic
    order, each with its sign vectors by mask (bit j set: sign j is -1), so
    the first 32 lie over the identity."""
    out = []
    for perm in itertools.permutations(range(5)):
        for mask in range(2 ** 5):
            signs = tuple(-1 if (mask >> j) & 1 else 1 for j in range(5))
            out.append(SignedPerm(perm, signs))
    return tuple(out)


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
        """A list of [length, sign] pairs of exact integers; any other JSON
        (objects, strings, floats, bools) raises ValueError."""
        if not isinstance(obj, list) or any(
                not isinstance(c, list) or len(c) != 2 for c in obj):
            raise ValueError(f"a cycle signature is a list of [length, sign] pairs, not {obj!r}")
        return cls(tuple((_exact_int(a), _exact_int(b)) for a, b in obj))


@dataclass(frozen=True)
class FiberElement:
    """An automorphism datum: even signed permutation over the same S5 image as
    a Moebius stabilizer element."""

    signed: SignedPerm
    moebius: Moebius
    perm: tuple  # common S5 image

    def __post_init__(self):
        if self.signed.perm != tuple(self.perm):
            raise FiberMismatchError("signed part does not lie over the S5 image")
        if not self.signed.is_even():
            raise FiberMismatchError("fiber elements carry even signed permutations")


def fiber_product(aut_p):
    """All pairs (even signed perm over rho, moebius with image rho).

    aut_p is a list of (Moebius, S5 image) pairs as produced by
    wpline.aut_group; the result has exactly 16 * len(aut_p) elements.
    """
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
    evens = [a.signs for a in even_signed_perms()[:16]]  # those over the identity
    return [FiberElement(SignedPerm(tuple(perm), signs), moebius, tuple(perm))
            for moebius, perm in aut_p for signs in evens]


def retract_fiber(signed: SignedPerm, moebius: Moebius, perm) -> FiberElement:
    """Even-part projection on the signed coordinate, same Moebius part."""
    if signed.perm != tuple(perm):
        raise FiberMismatchError("incompatible pair: underlying permutations differ")
    return FiberElement(retract(signed), moebius, tuple(perm))


def aut0_matrices():
    """The 16 diagonal +-1 matrices modulo global sign (first entry +1)."""
    diags = [a.signs for a in all_signed_perms()[:32] if a.signs[0] == 1]
    return [tuple(tuple(d[i] if i == j else 0 for j in range(5)) for i in range(5))
            for d in diags]


# --- integer encodings for the exhaustive suites ----------------------------

@lru_cache(maxsize=None)
def index_tables():
    """Encoded composition data for B5: element index = 32 * perm_index + sign_mask.

    Returns (perms, mask_apply, retract_mask):
      perms[i]          the i-th permutation (lex order over image tuples)
      mask_apply[a, m]  the mask m' with bit_j(m') = bit_{perms[a]^-1(j)}(m)
      retract_mask[m]   m with all bits flipped when popcount(m) is odd
    """
    perms = list(itertools.permutations(range(5)))
    mask_apply = np.zeros((120, 32), dtype=np.int64)
    for a, pa in enumerate(perms):
        inv = _inverse(pa)
        for m in range(32):
            out = 0
            for j in range(5):
                if (m >> inv[j]) & 1:
                    out |= 1 << j
            mask_apply[a, m] = out
    retract_mask = np.array([m ^ 31 if bin(m).count("1") % 2 else m
                             for m in range(32)], dtype=np.int64)
    return perms, mask_apply, retract_mask

