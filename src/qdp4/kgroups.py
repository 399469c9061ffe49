"""K-theory lattices with Euler forms: the surface K0 in (rank, c1, 2*ch2)
coordinates, the rank-7 orthogonal sublattice, weighted-line K0 Gram matrices,
Serre operators, and G-invariant rank certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .fields import QQ, ResourceLimitError
from .hyperoct import CycleSignature, _element_table
from .linalg import congruence, kernel_vector, transpose
from .picard import K_CLASS, intersect, pair_of, pair_representatives

GRAM_POINTS_GUARD = 500  # most weight-2 points wpl_gram takes: (n + 2)^2 entries
_BURNSIDE_CHUNK = 960  # matrices per pass of burnside_ranks: a power is at most 61 KB of int8


class DegenerateFormError(ValueError):
    pass


@dataclass(frozen=True)
class K0ClassX:
    """Class (r, c1, s2) with s2 twice the second Chern character."""

    r: int
    c1: tuple
    s2: int

    @classmethod
    def from_vector(cls, v):
        return cls(int(v[0]), tuple(int(x) for x in v[1:7]), int(v[7]))


STRUCTURE_SHEAF = K0ClassX(1, (0, 0, 0, 0, 0, 0), 0)


def class_of(D) -> K0ClassX:
    """The line-bundle class (1, D, D.D)."""
    D = tuple(D)
    return K0ClassX(1, D, intersect(D, D))


def euler_x(u: K0ClassX, v: K0ClassX) -> Fraction:
    """Euler pairing chi(u, v) on the surface K0 lattice (Riemann-Roch)."""
    ru, Du, su = u.r, u.c1, u.s2
    rv, Dv, sv = v.r, v.c1, v.s2
    mixed = tuple(ru * b - rv * a for a, b in zip(Du, Dv))
    val = (Fraction(ru * rv)
           - Fraction(intersect(K_CLASS, mixed), 2)
           + Fraction(ru * sv + rv * su, 2)
           - Fraction(intersect(Du, Dv)))
    return val


def full_k0_gram():
    """8x8 Euler Gram on the standard basis of Z + Pic + Z (Fraction entries)."""
    basis = [K0ClassX.from_vector(tuple(1 if i == j else 0 for j in range(8)))
             for i in range(8)]
    return [[euler_x(a, b) for b in basis] for a in basis]


def tensor_k_matrix():
    """Class map of tensoring by K with an even shift: (r, D, s2) ->
    (r, D + rK, s2 + 2 D.K + r K^2), as an 8x8 integer matrix."""
    cols = []
    k2 = intersect(K_CLASS, K_CLASS)
    e_r = (1,) + K_CLASS + (k2,)
    cols.append(e_r)
    for i in range(6):
        e = tuple(1 if j == i else 0 for j in range(6))
        cols.append((0,) + e + (2 * intersect(e, K_CLASS),))
    cols.append((0, 0, 0, 0, 0, 0, 0, 1))
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def serre_from_gram(E):
    """The operator S with chi(x, y) = chi(y, Sx) for all x, y: E S = E^T.
    With D the lcm of E's denominators, column j of S is v[:n] for the kernel
    vector v of the integer matrix [D E | -(row j of D E)], which has v[n] = 1
    exactly when E is nondegenerate."""
    D = lcm(*(Fraction(x).denominator for row in E for x in row))
    DE = [[int(x * D) for x in row] for row in E]
    cols = [kernel_vector([row + [-DE[j][i]] for i, row in enumerate(DE)], QQ)
            for j in range(len(DE))]
    if any(v[-1] != 1 for v in cols):
        raise DegenerateFormError("Euler form is degenerate")
    return transpose([v[:-1] for v in cols])


# ---------------------------------------------------------------------------
# The orthogonal sublattice (numerical shadow of the structure-sheaf orthogonal)
# ---------------------------------------------------------------------------

def atom_functional(v: K0ClassX) -> Fraction:
    """chi([O], v); the sublattice is its integral kernel."""
    return euler_x(STRUCTURE_SHEAF, v)


def atom_coords(v: K0ClassX):
    """Coordinates (r, D) in the sublattice's basis b0 = (1, 0, -2), b_i =
    (0, e_i, K.e_i); raises if v is not in the sublattice."""
    if atom_functional(v) != 0:
        raise ValueError("class does not pair to zero against [O]")
    return (v.r,) + tuple(v.c1)


def atom_class(coords) -> K0ClassX:
    r = coords[0]
    D = tuple(coords[1:7])
    return K0ClassX(r, D, intersect(K_CLASS, D) - 2 * r)


def atom_gram():
    """7x7 Euler Gram of the sublattice in atom basis coordinates."""
    basis = [atom_class(tuple(1 if i == j else 0 for j in range(7)))
             for i in range(7)]
    return [[euler_x(a, b) for b in basis] for a in basis]


def atom_serre():
    return serre_from_gram(atom_gram())


def surface_zero_class_gram():
    """10x10 Euler Gram of the classes [O(-h)] ordered pairwise
    (h_1, h_1', ..., h_5, h_5')."""
    order = []
    for h in pair_representatives():
        order.append(h)
        order.append(pair_of(h))
    cls = [class_of(tuple(-x for x in h)) for h in order]
    return [[euler_x(a, b) for b in cls] for a in cls]


# ---------------------------------------------------------------------------
# Weighted-line K0
# ---------------------------------------------------------------------------

def wpl_gram(n: int):
    """Euler Gram on the basis ([O], [O_pt], [S_1..S_n]) of a weighted line
    with n weight-2 points."""
    if n < 1:
        raise ValueError("need at least one weighted point")
    if n > GRAM_POINTS_GUARD:
        raise ResourceLimitError(
            f"{n} weighted points exceed the Gram guard {GRAM_POINTS_GUARD}")
    size = 2 + n
    G = [[0] * size for _ in range(size)]
    G[0][0] = 1
    G[0][1] = 1
    for j in range(n):
        G[0][2 + j] = 1
    G[1][0] = -1
    for j in range(n):
        G[2 + j][2 + j] = 1
    return G


def wpl_pair_gram(n: int):
    """Euler Gram on the 2n simples ordered (S_1, S_1', ..., S_n, S_n'),
    with [S_i'] = [O_pt] - [S_i], derived from wpl_gram(n)."""
    basis = []
    for i in range(n):
        simple = [0] * (2 + n)
        simple[2 + i] = 1
        basis += [simple, [0, 1] + [-x for x in simple[2:]]]
    return congruence(transpose(basis), wpl_gram(n))


# ---------------------------------------------------------------------------
# G-invariant ranks
# ---------------------------------------------------------------------------

# Per space: the fixed classes before and after the n simples, and the row
# (a fixed class, [O] or [O_pt]) to which a sign-flipped simple adds itself,
# S -> [fixed] - S, or None where a flip is a plain sign change.
_LAYOUTS = {
    "picard": (1, 0, None),      # K, hbar_1..hbar_n
    "wpl": (2, 0, 1),            # [O], [O_pt], S_1..S_n
    "torsion": (1, 0, 0),        # [O_pt], S_1..S_n
    "surface-k0": (2, 1, None),  # rank, K, hbar_1..hbar_n, second Z summand
}


def _layout(space: str):
    if space not in _LAYOUTS:
        raise ValueError(f"space must be one of {tuple(_LAYOUTS)}")
    return _LAYOUTS[space]


def action_matrices(space: str) -> np.ndarray:
    """The realized action of every signed permutation on the chosen lattice,
    one int8 matrix per element in the order of all_signed_perms(): the
    fixed classes stay, simple i goes to +-simple perm[i] with the sign of
    its target, and a -1 sign also adds the flip row's class."""
    before, after, flip_row = _layout(space)
    perms, signs = _element_table()
    target_signs = np.take_along_axis(signs, perms, axis=1)
    count, n = perms.shape
    size = before + n + after
    M = np.zeros((count, size, size), dtype=np.int8)
    fixed = [*range(before), *range(before + n, size)]
    M[:, fixed, fixed] = 1
    simples = before + np.arange(n)
    M[np.arange(count)[:, None], before + perms, simples] = target_signs
    if flip_row is not None:
        M[:, flip_row, simples] = target_signs == -1
    return M


def burnside_ranks(stack: np.ndarray) -> np.ndarray:
    """dim V^<g> for each matrix g of a stack that holds a whole finite group:
    by Burnside's lemma on the cyclic group <g>, the average of tr(g^j) over
    j < ord g.  The orders are read off the powers, in chunks of
    _BURNSIDE_CHUNK matrices; a row leaves the chunk once M^j = I, and no
    order exceeds the group's, len(stack)."""
    ranks = np.empty(len(stack), dtype=np.int64)
    for start in range(0, len(stack), _BURNSIDE_CHUNK):
        M = stack[start:start + _BURNSIDE_CHUNK]
        idx = np.arange(start, start + len(M))
        ident = np.eye(M.shape[1], dtype=M.dtype)
        power = np.broadcast_to(ident, M.shape)
        trace_sum = np.zeros(len(M), dtype=np.int64)
        for j in range(1, len(stack) + 1):
            trace_sum += np.trace(power, axis1=1, axis2=2)
            power = power @ M
            done = (power == ident).all(axis=(1, 2))
            ranks[idx[done]] = trace_sum[done] // j
            idx, M, power, trace_sum = (a[~done] for a in (idx, M, power, trace_sum))
            if not len(idx):
                break
        else:
            raise ValueError(f"matrix {idx[0]} of a stack of {len(stack)} has no order up to {j}")
    return ranks


def g_invariant_rank(sig: CycleSignature, space: str) -> int:
    """Rank of the G-invariant part of the chosen lattice: the fixed classes
    and one class per +1 cycle (`burnside_ranks` computes it from the
    realized action, and the rank-formulas suite checks the two agree)."""
    before, after, _ = _layout(space)
    return before + after + sig.plus_cycles()


def is_minimal(sig: CycleSignature) -> bool:
    """rank Pic^G = 1, i.e. every Frobenius cycle carries sign -1."""
    return g_invariant_rank(sig, "picard") == 1


def conic_bundle_ranks(sig: CycleSignature):
    """Invariant-rank bookkeeping for a conic bundle whose degenerate fibres
    the signature's cycles permute: the curve contributes rank 2 and the
    fibre simples 2 + #plus-cycles."""
    atom_rank = g_invariant_rank(sig, "wpl")
    return {"k0x_rank": atom_rank + 2, "atom_rank": atom_rank}
