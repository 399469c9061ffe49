"""K-theory lattices with Euler forms: the surface K0 in (rank, c1, 2*ch2)
coordinates, the rank-7 orthogonal sublattice, weighted-line K0 Gram matrices,
Serre operators, and G-invariant rank certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hyperoct import CycleSignature, SignedPerm
from .linalg import congruence, frac_solve, rank, transpose
from .pencil import ResourceLimitError
from .picard import K_CLASS, intersect, pair_of, pair_representatives

GRAM_POINTS_GUARD = 500  # most weight-2 points wpl_gram takes: (n + 2)^2 entries


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
    """The operator S with chi(x, y) = chi(y, Sx) for all x, y: E S = E^T."""
    try:
        return frac_solve(E, transpose(E))
    except ZeroDivisionError as exc:
        raise DegenerateFormError("Euler form is degenerate") from exc


# ---------------------------------------------------------------------------
# The orthogonal sublattice (numerical shadow of the structure-sheaf orthogonal)
# ---------------------------------------------------------------------------

def atom_functional(v: K0ClassX) -> Fraction:
    """chi([O], v); the sublattice is its integral kernel."""
    return euler_x(STRUCTURE_SHEAF, v)


def atom_basis():
    """Integral basis (columns, as 8-vectors) of {v : chi([O], v) = 0}; rank 7.

    b0 = (1, 0, -2) and b_i = (0, e_i, K.e_i): coordinates of (r, D, s2) in
    this basis are simply (r, D), with s2 = K.D - 2r forced.
    """
    cols = [(1, 0, 0, 0, 0, 0, 0, -2)]
    for i in range(6):
        e = tuple(1 if j == i else 0 for j in range(6))
        cols.append((0,) + e + (intersect(e, K_CLASS),))
    return cols


def atom_coords(v: K0ClassX):
    """Coordinates in the atom_basis; raises if v is not in the sublattice."""
    if atom_functional(v) != 0:
        raise ValueError("class does not pair to zero against [O]")
    return (v.r,) + tuple(v.c1)


def atom_class(coords) -> K0ClassX:
    r = coords[0]
    D = tuple(coords[1:7])
    return K0ClassX(r, D, intersect(K_CLASS, D) - 2 * r)


def atom_gram():
    """7x7 Euler Gram of the sublattice in atom_basis coordinates."""
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


def _action_matrix(sp: SignedPerm, space: str):
    """Integer matrix of the signature action on the chosen lattice: the
    fixed classes stay, simple i goes to +-simple perm[i] with the sign of
    its target, and a -1 sign also adds the flip row's class."""
    before, after, flip_row = _layout(space)
    n = len(sp.perm)
    M = np.eye(before + n + after, dtype=np.int64)
    M[before:before + n, before:before + n] = 0
    for i, j in enumerate(sp.perm):
        M[before + j, before + i] = sp.signs[j]
        if sp.signs[j] == -1 and flip_row is not None:
            M[flip_row, before + i] = 1
    return M


def invariant_rank_of_action(sp: SignedPerm, space: str) -> int:
    """dim ker(M - I) for the realized action (exact integer linear algebra)."""
    M = _action_matrix(sp, space)
    n = M.shape[0]
    return n - rank((M - np.eye(n, dtype=np.int64)).tolist())


def g_invariant_rank(sig: CycleSignature, space: str) -> int:
    """Rank of the G-invariant part of the chosen lattice: the fixed classes
    and one class per +1 cycle (`invariant_rank_of_action` computes it from
    the realized action, and the rank-formulas suite checks the two agree)."""
    before, after, _ = _layout(space)
    return before + after + sig.plus_cycles()


def conic_bundle_ranks(sig: CycleSignature):
    """Invariant-rank bookkeeping for a conic bundle whose degenerate fibres
    the signature's cycles permute: the curve contributes rank 2 and the
    fibre simples 2 + #plus-cycles."""
    atom_rank = g_invariant_rank(sig, "wpl")
    return {"k0x_rank": atom_rank + 2, "atom_rank": atom_rank}
