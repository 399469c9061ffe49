import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy

from qdp4 import kgroups
from qdp4.hyperoct import CycleSignature, all_signed_perms
from qdp4.kgroups import (DegenerateFormError, STRUCTURE_SHEAF,
                          action_matrices, atom_class, atom_coords,
                          atom_functional, atom_gram, atom_serre,
                          burnside_ranks, class_of, conic_bundle_ranks, euler_x,
                          full_k0_gram, g_invariant_rank, serre_from_gram,
                          surface_zero_class_gram, tensor_k_matrix, wpl_gram,
                          wpl_pair_gram)
from qdp4.linalg import mat_vec, rank
from qdp4.picard import K_CLASS, intersect, pair_of, pair_representatives, zero_classes

O = STRUCTURE_SHEAF
MINIMAL = CycleSignature(((5, -1),))
TRIVIAL = CycleSignature.trivial()
SPACES = ("picard", "wpl", "torsion", "surface-k0")
_POSITION = {sp: i for i, sp in enumerate(all_signed_perms())}


@lru_cache(maxsize=None)
def _actions(space):
    return action_matrices(space).astype(np.int64)


def invariant_rank_of_action(sp, space) -> int:
    """Kernel oracle: dim ker(M - I) for the realized action, by exact integer
    elimination on the element's row of the action stack."""
    M = _actions(space)[_POSITION[sp]]
    n = M.shape[0]
    return n - rank((M - np.eye(n, dtype=np.int64)).tolist())


def oracle_chi_line_bundle(D):
    """Independent symbolic Riemann-Roch: chi(O(D)) = 1 + D.(D - K)/2."""
    half = sympy.Rational(1, 2)
    val = 1 + half * (intersect(D, D) - intersect(D, K_CLASS))
    return Fraction(int(val.p), int(val.q))


def test_action_matrices_keep_the_bytes_of_the_per_call_construction():
    # the stacks are built from hyperoct's read-only element table; they must
    # match, byte for byte, the ones built from the element tuples
    elements = all_signed_perms()
    perms = np.array([sp.perm for sp in elements])
    target_signs = np.take_along_axis(np.array([sp.signs for sp in elements]), perms, axis=1)
    for space in SPACES:
        before, after, flip_row = kgroups._LAYOUTS[space]
        count, n = perms.shape
        size = before + n + after
        M = np.zeros((count, size, size), dtype=np.int8)
        fixed = [*range(before), *range(before + n, size)]
        M[:, fixed, fixed] = 1
        simples = before + np.arange(n)
        M[np.arange(count)[:, None], before + perms, simples] = target_signs
        if flip_row is not None:
            M[:, flip_row, simples] = target_signs == -1
        for _ in range(2):  # at least the second call reads the cached rows
            got = action_matrices(space)
            assert got.dtype == M.dtype and got.shape == M.shape
            assert got.tobytes() == M.tobytes()


def test_chi_structure_sheaf():
    assert euler_x(O, O) == 1


def test_flagged_value_chi_of_minus_K():
    mK = tuple(-x for x in K_CLASS)
    # the mandated oracle resolution: 1 + (1/2)(-K).(-2K) = 1 + K^2 = 5
    assert oracle_chi_line_bundle(mK) == 5
    assert euler_x(O, class_of(mK)) == 5


def test_chi_line_bundles_match_riemann_roch_oracle():
    rng = random.Random(0)
    for _ in range(100):
        D = tuple(rng.randrange(-3, 4) for _ in range(6))
        assert euler_x(O, class_of(D)) == oracle_chi_line_bundle(D)


def test_chi_zero_class_pair():
    h = (1, -1, 0, 0, 0, 0)
    hp = pair_of(h)
    mh = class_of(tuple(-x for x in h))
    mhp = class_of(tuple(-x for x in hp))
    assert euler_x(mh, mhp) == -1
    assert euler_x(mh, mh) == 1


def test_class_of_examples():
    assert class_of((0,) * 6) == (1, 0, 0, 0, 0, 0, 0, 0) == O
    h = (1, -1, 0, 0, 0, 0)
    assert class_of(h) == (1, *h, 0)
    assert class_of(K_CLASS) == (1, *K_CLASS, 4)


def test_atom_sublattice():
    for h in zero_classes():
        assert atom_functional(class_of(tuple(-x for x in h))) == 0
    assert atom_functional(O) == 1
    # b0 = (1, 0, -2) and b_i = (0, e_i, K.e_i): the classes with coordinates (r, D)
    units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    basis = [(1,) + (0,) * 6 + (-2,)] + [(0,) + e + (intersect(e, K_CLASS),) for e in units]
    assert len(basis) == 7
    assert rank([list(b) for b in basis]) == 7
    for b in basis:
        assert atom_functional(b) == 0
    # coordinates round trip
    for h in zero_classes():
        v = class_of(tuple(-x for x in h))
        assert atom_class(atom_coords(v)) == v
    with pytest.raises(ValueError):
        atom_coords(O)


def test_serre_convention_lock():
    S = serre_from_gram(full_k0_gram())
    T = [[Fraction(x) for x in row] for row in tensor_k_matrix()]
    assert S == T


def test_serre_operator_property():
    # chi(x, y) = chi(y, Sx) on random vectors
    rng = random.Random(1)
    E = full_k0_gram()
    S = serre_from_gram(E)
    for _ in range(50):
        x = [rng.randrange(-3, 4) for _ in range(8)]
        y = [rng.randrange(-3, 4) for _ in range(8)]
        Sx = mat_vec(S, [Fraction(v) for v in x])
        assert euler_x(x, y) == euler_x(y, Sx)


def test_serre_sends_structure_sheaf_to_canonical():
    S = serre_from_gram(full_k0_gram())
    img = mat_vec(S, [Fraction(x) for x in O])
    assert tuple(img) == class_of(K_CLASS)


@pytest.mark.parametrize("u,v", [((1,) * 7, O), (O, (1,) * 9), ((), ())])
def test_euler_x_refuses_a_class_without_eight_entries(u, v):
    # zip would pair a short vector's entries against the wrong ones
    with pytest.raises(ValueError) as info:
        euler_x(u, v)
    assert str(info.value) == (f"K0 classes (r, c1, s2) have 8 entries, "
                               f"not {len(u)} and {len(v)}")
    with pytest.raises(ValueError, match="8 entries"):
        atom_coords(u if len(u) != 8 else v)


def test_euler_x_reads_fraction_entries():
    # chi(O, O(D)) is linear in the class, so halving a class halves the pairing
    D = (2, -1, 0, 1, 0, -1)
    half = [Fraction(x, 2) for x in class_of(D)]
    assert euler_x(O, half) == Fraction(euler_x(O, class_of(D)), 2)
    assert euler_x(half, half) == Fraction(euler_x(class_of(D), class_of(D)), 4)


def test_serre_from_gram_matches_sympy_on_grams_with_denominators():
    # entries over 2 and 3, so the Gram is scaled by 6 before the elimination
    rng = random.Random(3)
    checked = 0
    while checked < 10:
        n = rng.randint(1, 5)
        E = [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
             for _ in range(n)]
        M = sympy.Matrix(E)
        if M.det() == 0:
            continue
        expect = [[Fraction(int(x.p), int(x.q)) for x in row]
                  for row in (M.inv() * M.T).tolist()]
        assert serre_from_gram(E) == expect
        checked += 1


def test_serre_rejects_degenerate_form():
    with pytest.raises(DegenerateFormError, match="^Euler form is degenerate$"):
        serre_from_gram([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(DegenerateFormError, match="^Euler form is degenerate$"):
        serre_from_gram([[Fraction(1, 2), 0, 1], [0, 0, 0], [Fraction(1, 3), 0, 2]])


def test_atom_serre_swaps_pairs_with_sign():
    SA = atom_serre()
    for h in zero_classes():
        c = [Fraction(x) for x in atom_coords(class_of(tuple(-v for v in h)))]
        img = mat_vec(SA, c)
        expect = [-Fraction(x) for x in
                  atom_coords(class_of(tuple(-v for v in pair_of(h))))]
        assert img == expect
        assert mat_vec(SA, img) == c  # squares to the identity on these classes


def test_wpl_gram_entries():
    G = wpl_gram(5)
    assert len(G) == 7
    assert G[0][0] == 1 and G[0][1] == 1 and G[0][2] == 1
    assert G[1][0] == -1 and G[1][1] == 0 and G[1][2] == 0
    assert G[2][0] == 0 and G[2][1] == 0 and G[2][2] == 1 and G[2][3] == 0
    assert rank(G) == 7  # nondegenerate
    with pytest.raises(ValueError):
        wpl_gram(0)


def test_wpl_pair_gram_structure():
    PG = wpl_pair_gram(5)
    for i in range(10):
        for j in range(10):
            if i == j:
                assert PG[i][j] == 1
            elif i // 2 == j // 2:
                assert PG[i][j] == -1  # chi(S_i, S_i') = 0 - 1
            else:
                assert PG[i][j] == 0


_SYMPY_FORM = sympy.diag(1, -1, -1, -1, -1, -1)  # H^2 = 1, E_i^2 = -1
_SYMPY_K = sympy.Matrix([-3, 1, 1, 1, 1, 1])  # K = -3H + E_1 + ... + E_5


def _dot(a, b):
    return (sympy.Matrix(a).T * _SYMPY_FORM * sympy.Matrix(b))[0]


def _line_bundle_class(D):
    return [1, *D, _dot(D, D)]  # (r, c1, 2 ch2) of O(D)


@lru_cache(maxsize=None)
def _oracle_k0_gram():
    """Independent oracle for the 8x8 Euler Gram, from Riemann-Roch on the
    basis O, O(H), O(E1), ..., O(E5), pt: chi(O(D1), O(D2)) = 1 + d.(d - K)/2
    with d = D2 - D1, chi(O(D), pt) = chi(pt, O(D)) = 1 and chi(pt, pt) = 0.
    With B's columns those classes, the Gram is B^-T E_o B^-1."""
    divisors = [sympy.zeros(6, 1)] + [sympy.Matrix([int(i == j) for j in range(6)])
                                      for i in range(6)]
    B = sympy.Matrix([_line_bundle_class(D) for D in divisors] + [[0] * 7 + [2]]).T
    E_o = sympy.zeros(8, 8)
    for i, D1 in enumerate(divisors):
        for j, D2 in enumerate(divisors):
            d = D2 - D1
            E_o[i, j] = 1 + _dot(d, d - _SYMPY_K) / 2
        E_o[i, 7] = E_o[7, i] = 1
    return B.inv().T * E_o * B.inv()


def _congruent_oracle(columns):
    """The oracle Gram on the classes given as columns, as Fraction rows."""
    P = sympy.Matrix(columns).T
    return [[Fraction(int(x.p), int(x.q)) for x in row]
            for row in (P.T * _oracle_k0_gram() * P).tolist()]


def test_full_k0_gram_matches_riemann_roch_on_line_bundles_and_a_point():
    units = [[int(i == j) for j in range(8)] for i in range(8)]
    assert full_k0_gram() == _congruent_oracle(units)


def test_atom_gram_is_the_oracle_on_the_atom_basis():
    # b0 = (1, 0, -2) and b_i = (0, e_i, K.e_i), as atom_coords documents
    units = [[int(i == j) for j in range(6)] for i in range(6)]
    basis = [[1] + [0] * 6 + [-2]] + [[0, *e, _dot(_SYMPY_K, e)] for e in units]
    assert atom_gram() == _congruent_oracle(basis)


def test_surface_zero_class_gram_is_the_oracle_on_the_classes_of_minus_h():
    # [O(-h)] ordered (h_1, h_1', ..., h_5, h_5')
    order = [g for h in pair_representatives() for g in (h, pair_of(h))]
    assert len(set(order)) == 10
    basis = [_line_bundle_class([-x for x in h]) for h in order]
    assert surface_zero_class_gram() == _congruent_oracle(basis)


def test_gram_match_surface_vs_weighted_line():
    surf = surface_zero_class_gram()
    wpl = [[Fraction(x) for x in row] for row in wpl_pair_gram(5)]
    assert surf == wpl


def test_g_invariant_rank_examples():
    assert g_invariant_rank(MINIMAL, "wpl") == 2
    assert g_invariant_rank(MINIMAL, "torsion") == 1
    assert g_invariant_rank(MINIMAL, "picard") == 1
    assert g_invariant_rank(MINIMAL, "surface-k0") == 3
    assert g_invariant_rank(TRIVIAL, "wpl") == 7
    assert g_invariant_rank(TRIVIAL, "torsion") == 6
    assert g_invariant_rank(TRIVIAL, "surface-k0") == 8
    with pytest.raises(ValueError):
        g_invariant_rank(MINIMAL, "nonsense")


def test_rank_chain_wpl_equals_picard_plus_one():
    rng = random.Random(2)
    B5 = all_signed_perms()
    for _ in range(300):
        sig = CycleSignature.from_signed_perm(rng.choice(B5))
        assert g_invariant_rank(sig, "wpl") == g_invariant_rank(sig, "picard") + 1


def test_labeled_actions_match_closed_forms():
    rng = random.Random(3)
    B5 = all_signed_perms()
    for _ in range(400):
        sp = rng.choice(B5)
        sig = CycleSignature.from_signed_perm(sp)
        for space in SPACES:
            assert invariant_rank_of_action(sp, space) == \
                g_invariant_rank(sig, space)


def test_action_stacks_are_representations():
    # one row per element of all_signed_perms(); rows multiply as the elements compose
    rng = random.Random(4)
    B5 = all_signed_perms()
    for space in SPACES:
        M = _actions(space)
        size = {"picard": 6, "wpl": 7, "torsion": 6, "surface-k0": 8}[space]
        assert M.shape == (3840, size, size)
        assert np.array_equal(M[_POSITION[B5[0]]], np.eye(size, dtype=np.int64))
        for _ in range(200):
            a, b = rng.choice(B5), rng.choice(B5)
            assert np.array_equal(M[_POSITION[a]] @ M[_POSITION[b]],
                                  M[_POSITION[a.compose(b)]])


def test_burnside_ranks_match_the_kernel_oracle_exhaustively():
    # both read only the realized matrices: the trace average over <g> against
    # dim ker(M - I), on all 3840 elements of every space
    for space in SPACES:
        burnside = burnside_ranks(action_matrices(space)).tolist()
        assert burnside == [invariant_rank_of_action(sp, space) for sp in all_signed_perms()]


def test_burnside_ranks_refuse_a_matrix_of_infinite_order():
    shear = np.array([[1, 1], [0, 1]], dtype=np.int8)
    stack = np.stack([np.eye(2, dtype=np.int8), shear, -np.eye(2, dtype=np.int8)])
    with pytest.raises(ValueError, match="order"):
        burnside_ranks(stack)
    assert burnside_ranks(stack[[0, 2]]).tolist() == [2, 0]


def test_burnside_refusal_names_the_first_matrix_without_an_order():
    shear = np.array([[1, 1], [0, 1]], dtype=np.int8)
    rotation = np.array([[0, -1], [1, 0]], dtype=np.int8)
    stack = np.stack([rotation, np.eye(2, dtype=np.int8), shear, rotation, shear.T])
    with pytest.raises(ValueError) as info:
        burnside_ranks(stack)
    assert str(info.value) == "matrix 2 of a stack of 5 has no order up to 5"


# 2x2 integer blocks of orders 1, 2, 3, 4 and 6: rotations by 0, 180, 120, 90 and 60 degrees
_BLOCKS = {1: [[1, 0], [0, 1]], 2: [[-1, 0], [0, -1]], 3: [[0, -1], [1, -1]],
           4: [[0, -1], [1, 0]], 6: [[1, -1], [1, 0]]}


def _mixed_order_stack(dtype):
    # block diagonals of two blocks and a fixed line, shuffled so that the rows
    # of a chunk finish at different powers
    stack = []
    for a in _BLOCKS.values():
        for b in _BLOCKS.values():
            M = np.eye(5, dtype=dtype)
            M[:2, :2], M[2:4, 2:4] = a, b
            stack.append(M)
    random.Random(5).shuffle(stack)
    return np.stack(stack)


def _kernel_ranks(stack):
    n = stack.shape[1]
    return [n - rank((M.astype(np.int64) - np.eye(n, dtype=np.int64)).tolist()) for M in stack]


@pytest.mark.parametrize("chunk", [7, 960])
def test_burnside_rows_leave_the_loop_at_their_own_order(monkeypatch, chunk):
    monkeypatch.setattr(kgroups, "_BURNSIDE_CHUNK", chunk)
    stack = _mixed_order_stack(np.int8)
    assert burnside_ranks(stack).tolist() == _kernel_ranks(stack)


@pytest.mark.parametrize("chunk", [7, 960])
def test_burnside_ranks_of_a_conjugated_int64_stack(monkeypatch, chunk):
    # S = E_01(40) E_23(-37) E_12(25) E_34(19) is unimodular with an integer inverse
    monkeypatch.setattr(kgroups, "_BURNSIDE_CHUNK", chunk)
    S, S_inv = np.eye(5, dtype=np.int64), np.eye(5, dtype=np.int64)
    for i, j, c in ((0, 1, 40), (2, 3, -37), (1, 2, 25), (3, 4, 19)):
        E, E_inv = np.eye(5, dtype=np.int64), np.eye(5, dtype=np.int64)
        E[i, j], E_inv[i, j] = c, -c
        S, S_inv = S @ E, E_inv @ S_inv
    stack = S @ _mixed_order_stack(np.int64) @ S_inv
    assert np.abs(stack).max() > 127
    assert burnside_ranks(stack).tolist() == _kernel_ranks(stack)


def test_conic_bundle_examples():
    assert conic_bundle_ranks(MINIMAL) == {"k0x_rank": 4, "atom_rank": 2}
    four = CycleSignature(((4, -1),))
    assert conic_bundle_ranks(four) == {"k0x_rank": 4, "atom_rank": 2}
    four2 = CycleSignature(((2, -1), (2, -1)))
    assert conic_bundle_ranks(four2) == {"k0x_rank": 4, "atom_rank": 2}
    assert conic_bundle_ranks(TRIVIAL) == {"k0x_rank": 9, "atom_rank": 7}


def test_torsion_positivity():
    # chi(e, e) on the wpl_gram basis ([O], [O_pt], [S_1..S_5])
    G = wpl_gram(5)

    def self_pairing(e):
        return sum(e[x] * G[x][y] * e[y] for x in range(7) for y in range(7))

    for m in (1, 2, 3, 5):  # the sum of the simples at m points
        assert self_pairing([0, 0] + [1] * m + [0] * (5 - m)) == m
    assert self_pairing([0, 1, 0, 0, 0, 0, 0]) == 0  # the point class


def test_minus_cycle_orbit_sum_is_point_class_multiple():
    # for a sign -1 cycle the full orbit contains both simples at each point,
    # so the orbit sum is a multiple of the point class: self-pairing 0
    G = wpl_gram(5)
    size = 7
    e = [0] * size
    for j in range(3):          # a 3-cycle with swap: S_j and S_j' = O_pt - S_j
        e[1] += 1               # each pair sums to [O_pt]
    val = sum(e[x] * G[x][y] * e[y] for x in range(size) for y in range(size))
    assert val == 0


def test_atom_gram_is_integral_and_nondegenerate():
    EA = atom_gram()
    assert all(x.denominator == 1 for row in EA for x in row)
    assert rank([[int(x) for x in row] for row in EA]) == 7
