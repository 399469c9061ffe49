import random
from fractions import Fraction

import numpy as np
import pytest

from qdp4.hyperoct import CycleSignature, SignedPerm, all_signed_perms, even_signed_perms
from qdp4.kgroups import g_invariant_rank
from qdp4.linalg import frac_solve, mat_mul, rank
from qdp4.picard import (InvalidAutError, InvalidClassError, InvalidRootError,
                         K_CLASS, brute_force_classes, canonical_class,
                         intersect, is_minimal, pair_of,
                         pair_representatives, reflect, reflection_matrix,
                         roots, to_signed_perm, weyl_group, zero_classes)
from qdp4.picard import _doubled_hbar

H = (1, 0, 0, 0, 0, 0)
E1 = (0, 1, 0, 0, 0, 0)


def neg(a):
    return tuple(-x for x in a)


# --- independent oracles: the signed permutation acting on explicit matrices ---

def signed_perm_matrix(sp: SignedPerm) -> np.ndarray:
    """The 5x5 signed permutation matrix on the hbar span."""
    M = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        M[sp.perm[i], i] = sp.signs[sp.perm[i]]
    return M


def invariant_rank_kernel(sp: SignedPerm) -> int:
    """dim ker(M - I) on Pic_Q for the realizing matrix."""
    M = signed_perm_matrix(sp)
    return 1 + 5 - rank((M - np.eye(5, dtype=np.int64)).tolist())


def matrix_on_standard_basis(sp: SignedPerm):
    """Action on the standard basis H, E1..E5 (rational; integral iff sp is even):
    C P C^-1 with C the columns K, 2*hbar_i and P = diag(1, signed_perm_matrix(sp))."""
    C = [[Fraction(x) for x in row] for row in zip(K_CLASS, *_doubled_hbar())]
    P = [[Fraction(int(i == j == 0)) for j in range(6)] for i in range(6)]
    for i, row in enumerate(signed_perm_matrix(sp).tolist()):
        P[1 + i][1:] = [Fraction(x) for x in row]
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    return mat_mul(C, mat_mul(P, frac_solve(C, eye)))


def test_intersection_form_examples():
    assert intersect(H, H) == 1
    assert intersect(K_CLASS, K_CLASS) == 4
    h = (1, -1, 0, 0, 0, 0)
    assert intersect(h, h) == 0
    assert intersect(H, E1) == 0
    assert intersect(E1, E1) == -1
    assert canonical_class() == (-3, 1, 1, 1, 1, 1)


def test_zero_classes_census():
    zc = zero_classes()
    assert len(zc) == 10
    assert (1, -1, 0, 0, 0, 0) in zc
    assert (2, 0, -1, -1, -1, -1) in zc
    assert zc == brute_force_classes(0, -2)
    for h in zc:
        assert intersect(h, h) == 0
        assert intersect(h, K_CLASS) == -2


def test_pairing_structure():
    zc = zero_classes()
    for h in zc:
        hp = pair_of(h)
        assert hp in zc
        assert pair_of(hp) == h
        assert intersect(h, hp) == 2
        assert tuple(a + b for a, b in zip(h, hp)) == neg(K_CLASS)
    assert pair_of((1, -1, 0, 0, 0, 0)) == (2, 0, -1, -1, -1, -1)
    with pytest.raises(InvalidClassError):
        pair_of(H)


def test_roots_census():
    rt = roots()
    assert len(rt) == 40
    assert (0, 1, -1, 0, 0, 0) in rt
    assert (1, -1, -1, -1, 0, 0) in rt
    assert rt == brute_force_classes(-2, 0)


def test_reflect():
    r = (0, 1, -1, 0, 0, 0)  # E1 - E2
    assert reflect(r, r) == neg(r)
    x = (0, 0, 0, 1, 0, 0)   # orthogonal to r
    assert reflect(r, x) == x
    assert reflect(r, E1) == (0, 0, 1, 0, 0, 0)
    with pytest.raises(InvalidRootError):
        reflect(H, E1)
    for rr in roots():
        for x in zero_classes():
            y = reflect(rr, x)
            assert reflect(rr, y) == x  # involution
            assert intersect(y, y) == 0
            assert intersect(y, K_CLASS) == -2


def test_weyl_group_order_and_invariance():
    W = weyl_group()
    assert len(W) == 1920
    F = np.diag(np.array([1, -1, -1, -1, -1, -1], dtype=np.int64))
    K = np.array(K_CLASS, dtype=np.int64)
    rng = random.Random(0)
    for w in rng.sample(list(W), 100):
        assert np.array_equal(w.T @ F @ w, F)
        assert np.array_equal(w @ K, K)


def test_to_signed_perm_is_isomorphism_onto_evens():
    W = weyl_group()
    images = {}
    for w in W:
        sp = to_signed_perm(w)
        assert sp.is_even()
        images[w.tobytes()] = sp
    assert len(set(images.values())) == 1920
    assert set(images.values()) == set(even_signed_perms())
    ident = np.eye(6, dtype=np.int64)
    assert to_signed_perm(ident) == SignedPerm.identity()
    refl = reflection_matrix((0, 1, -1, 0, 0, 0))
    assert to_signed_perm(refl) == SignedPerm((1, 0, 2, 3, 4), (1,) * 5)


def test_to_signed_perm_is_group_homomorphism():
    rng = random.Random(1)
    W = list(weyl_group())
    for _ in range(100):
        w1, w2 = rng.choice(W), rng.choice(W)
        assert to_signed_perm(w1 @ w2) == \
            to_signed_perm(w1).compose(to_signed_perm(w2))


def test_to_signed_perm_rejects_non_auts():
    with pytest.raises(InvalidAutError):
        to_signed_perm(2 * np.eye(6, dtype=np.int64))
    M = np.eye(6, dtype=np.int64)
    M[0, 1] = 1
    with pytest.raises(InvalidAutError):
        to_signed_perm(M)


def test_weyl_permutes_zero_classes_pi_equivariantly():
    zc = set(zero_classes())
    pairs = {h: np.array(pair_of(h)) for h in zc}
    arrays = {h: np.array(h) for h in zc}
    for w in weyl_group():
        for h in zc:
            img = tuple(int(x) for x in (w @ arrays[h]))
            assert img in zc
            assert pair_of(img) == tuple(int(x) for x in (w @ pairs[h]))


def test_hbar_orthonormality():
    hb = _doubled_hbar()
    for i in range(5):
        for j in range(5):
            assert intersect(hb[i], hb[j]) == (-4 if i == j else 0)


def test_pair_representatives_are_lex_smaller():
    for h in pair_representatives():
        assert h < pair_of(h)


def test_invariant_rank_examples():
    assert g_invariant_rank(CycleSignature.trivial(), "picard") == 6
    assert g_invariant_rank(CycleSignature(((5, -1),)), "picard") == 1
    assert g_invariant_rank(CycleSignature(((2, 1), (2, -1), (1, -1))), "picard") == 2
    assert is_minimal(CycleSignature(((5, -1),)))
    assert not is_minimal(CycleSignature.trivial())
    assert is_minimal(CycleSignature(((2, -1), (2, -1), (1, -1))))


def test_invariant_rank_matches_kernel_oracle_exhaustively():
    for sp in all_signed_perms():
        sig = CycleSignature.from_signed_perm(sp)
        assert g_invariant_rank(sig, "picard") == invariant_rank_kernel(sp)


def test_odd_lifts_are_never_integral():
    # odd signed permutations do not preserve the integral lattice
    rng = random.Random(3)
    B5 = all_signed_perms()
    for _ in range(200):
        sp = rng.choice(B5)
        M = matrix_on_standard_basis(sp)
        integral = all(x.denominator == 1 for row in M for x in row)
        assert integral == sp.is_even()
