import random
from fractions import Fraction

import pytest
import sympy

from qdp4.hyperoct import CycleSignature, all_signed_perms
from qdp4.kgroups import (DegenerateFormError, K0ClassX, STRUCTURE_SHEAF,
                          atom_basis, atom_class, atom_coords, atom_functional,
                          atom_gram, atom_serre, class_of,
                          conic_bundle_ranks, euler_x, full_k0_gram,
                          g_invariant_rank, invariant_rank_of_action,
                          serre_from_gram, surface_zero_class_gram,
                          tensor_k_matrix, wpl_gram, wpl_pair_gram)
from qdp4.linalg import mat_vec, rank
from qdp4.picard import K_CLASS, intersect, pair_of, zero_classes

O = STRUCTURE_SHEAF
MINIMAL = CycleSignature(((5, -1),))
TRIVIAL = CycleSignature.trivial()


def oracle_chi_line_bundle(D):
    """Independent symbolic Riemann-Roch: chi(O(D)) = 1 + D.(D - K)/2."""
    half = sympy.Rational(1, 2)
    val = 1 + half * (intersect(D, D) - intersect(D, K_CLASS))
    return Fraction(int(val.p), int(val.q))


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
    assert class_of((0,) * 6) == K0ClassX(1, (0,) * 6, 0)
    h = (1, -1, 0, 0, 0, 0)
    assert class_of(h) == K0ClassX(1, h, 0)
    assert class_of(K_CLASS) == K0ClassX(1, K_CLASS, 4)


def test_atom_sublattice():
    for h in zero_classes():
        assert atom_functional(class_of(tuple(-x for x in h))) == 0
    assert atom_functional(O) == 1
    basis = atom_basis()
    assert len(basis) == 7
    assert rank([list(b) for b in basis]) == 7
    for b in basis:
        assert atom_functional(K0ClassX.from_vector(b)) == 0
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

    def chi(u, v):
        return euler_x(K0ClassX.from_vector(u), K0ClassX.from_vector(v))

    for _ in range(50):
        x = [rng.randrange(-3, 4) for _ in range(8)]
        y = [rng.randrange(-3, 4) for _ in range(8)]
        Sx = mat_vec(S, [Fraction(v) for v in x])
        assert chi(x, y) == chi(y, Sx)


def test_serre_sends_structure_sheaf_to_canonical():
    S = serre_from_gram(full_k0_gram())
    img = mat_vec(S, [Fraction(x) for x in (O.r, *O.c1, O.s2)])
    assert K0ClassX.from_vector([int(x) for x in img]) == class_of(K_CLASS)


def test_serre_rejects_degenerate_form():
    with pytest.raises(DegenerateFormError):
        serre_from_gram([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


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
        for space in ("picard", "wpl", "torsion", "surface-k0"):
            assert invariant_rank_of_action(sp, space) == \
                g_invariant_rank(sig, space)


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
