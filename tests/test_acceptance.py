"""Acceptance criteria: exact combinatorial and arithmetic reproductions.

Each test prints one PASS line (run with -s to see them); every assertion is
exact, no tolerances.
"""

import random
from fractions import Fraction

import numpy as np

from qdp4 import kgroups, picard
from qdp4.fields import GF, QQ
from qdp4.groupoids import (build_psi, independence_check, standard_choice,
                            verify_heavy_separability)
from qdp4.hyperoct import (CycleSignature, all_signed_perms, even_signed_perms,
                           fiber_product_order, index_tables, retract,
                           retract_homomorphism_violations)
from qdp4.linalg import congruence, mat_vec
from qdp4.pencil import (canonical_invariant, count_points,
                         degenerate_parameter_points, galois_signature,
                         isomorphic, predicted_count, reconstruct)
from qdp4.sampling import (random_invertible, random_smooth_pencil,
                           random_split_functor, random_split_pencil)
from qdp4.wpline import PointConfiguration, ProjPoint, aut_group
from test_groupoids import verify_naturality
from test_hyperoct import all_pairs_retract_violations
from test_kgroups import invariant_rank_of_action


def ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_weyl_closure():
    W = picard.weyl_group()
    assert len(W) == 1920
    images = picard.to_signed_perms(np.stack(W))
    assert len(set(images)) == 1920           # injective
    assert set(images) == set(even_signed_perms())  # onto the even subgroup
    ok(1, "40 reflections generate order 1920, bijective onto even signed perms")


def test_criterion_02_zero_class_census():
    brute = picard.brute_force_classes(0, -2)
    assert brute == picard.zero_classes()
    assert len(brute) == 10
    pairs = set()
    for h in brute:
        hp = picard.pair_of(h)
        assert tuple(a + b for a, b in zip(h, hp)) == \
            tuple(-k for k in picard.K_CLASS)
        assert picard.intersect(h, hp) == 2
        pairs.add(frozenset((h, hp)))
    assert len(pairs) == 5
    ok(2, "box search reproduces the 10 classes in 5 pairs with h + h' = -K")


def test_criterion_03_splitting_suite():
    perms, mask_apply, retract_mask = index_tables()
    assert retract_homomorphism_violations(mask_apply, retract_mask) == 0
    assert all_pairs_retract_violations(perms, mask_apply, retract_mask) == 0
    for a in all_signed_perms():
        r = retract(a)
        assert r.perm == a.perm            # compatible over S5
        if a.is_even():
            assert r == a                  # identity on D5
        assert r.is_even()
    ok(3, "retract is a homomorphism on all 3840^2 pairs, identity on D5, "
          "compatible over S5")


def test_criterion_04_normal_form_reproduction():
    P = reconstruct((2, 3), QQ)
    pts = set(degenerate_parameter_points(P))
    expect = {ProjPoint.infinity(QQ)} | {ProjPoint.affine(QQ, c)
                                         for c in (0, 1, 2, 3)}
    assert pts == expect
    inv = canonical_invariant(P)
    assert (Fraction(2), Fraction(3)) in inv
    ok(4, "degenerate points are exactly {oo,0,1,2,3}; invariant contains (2,3)")


def test_criterion_05_torelli_round_trip():
    rng = random.Random(20250810)
    total = 0
    for p in (5, 7, 11, 13):
        field = GF(p)
        for _ in range(25):
            P = random_split_pencil(p, rng)
            nf = canonical_invariant(P)[0]
            Q = reconstruct(nf, field)
            cert = isomorphic(P, Q)
            assert cert is not None
            img = {cert.moebius(q) for q in degenerate_parameter_points(P)}
            assert img == set(degenerate_parameter_points(Q))
            total += 1
    assert total == 100
    ok(5, f"{total} random split pencils reconstruct up to isomorphism "
          f"with Moebius certificates")


def test_criterion_06_invariance():
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        p = rng.choice((3, 5, 7, 11, 13))
        field = GF(p)
        P = random_smooth_pencil(field, rng)
        base = canonical_invariant(P)
        M = random_invertible(field, rng)
        from qdp4.pencil import QuadricPencil
        P_cong = QuadricPencil(field, congruence(M, P.A), congruence(M, P.B))
        (a, b), (c, d) = random_invertible(field, rng, 2)
        A2 = [[a * P_cong.A[i][j] + b * P_cong.B[i][j] for j in range(5)]
              for i in range(5)]
        B2 = [[c * P_cong.A[i][j] + d * P_cong.B[i][j] for j in range(5)]
              for i in range(5)]
        P_both = QuadricPencil(field, A2, B2)
        assert canonical_invariant(P_cong) == base
        assert canonical_invariant(P_both) == base
        checked += 1
    ok(6, "canonical invariant unchanged under 200 random GL5 congruences "
          "and GL2 basis changes")


def test_criterion_07_lefschetz_consistency():
    rng = random.Random(707)
    guard = 250
    pencils = []
    for p, count in ((3, 3), (5, 2)):
        field = GF(p)
        pencils += [(p, random_smooth_pencil(field, rng)) for _ in range(count)]
    assert len(pencils) >= 5
    checks = 0
    for p, P in pencils:
        sig = galois_signature(P)
        for k in (1, 2, 3):
            if p ** k > guard:
                continue
            assert count_points(P, k) == predicted_count(sig, p, k)
            checks += 1
    ok(7, f"{checks} naive counts equal p^2k + p^k(1 + tr sigma^k) + 1 exactly")


def test_criterion_08_rank_bookkeeping():
    spaces = ("picard", "wpl", "torsion")
    for sp in all_signed_perms():
        sig = CycleSignature.from_signed_perm(sp)
        for space in spaces:
            assert invariant_rank_of_action(sp, space) == \
                kgroups.g_invariant_rank(sig, space)
    minimal = CycleSignature(((5, -1),))
    triple = (kgroups.g_invariant_rank(minimal, "picard"),
              kgroups.g_invariant_rank(minimal, "wpl"),
              kgroups.g_invariant_rank(minimal, "torsion"))
    assert triple == (1, 2, 1)
    for sp in random.Random(8).sample(list(all_signed_perms()), 100):
        sig = CycleSignature.from_signed_perm(sp)
        if kgroups.is_minimal(sig):
            assert (kgroups.g_invariant_rank(sig, "picard"),
                    kgroups.g_invariant_rank(sig, "wpl"),
                    kgroups.g_invariant_rank(sig, "torsion")) == (1, 2, 1)
    ok(8, "closed-form ranks equal kernel ranks for all 3840 elements; "
          "minimal signatures give (1, 2, 1)")


def test_criterion_09_conic_bundle_numerology():
    for sig in (CycleSignature(((5, -1),)),
                CycleSignature(((4, -1), (1, -1),)),
                CycleSignature(((2, -1), (2, -1), (1, -1)))):
        assert kgroups.conic_bundle_ranks(sig) == \
            {"k0x_rank": 4, "atom_rank": 2}
    for sig in (CycleSignature(((4, -1),)),
                CycleSignature(((2, -1), (2, -1)))):
        assert kgroups.conic_bundle_ranks(sig) == \
            {"k0x_rank": 4, "atom_rank": 2}
    ok(9, "minimal conic bundles at n = 4, 5 give rank(K0^G) = 2 + 2 = 4, "
          "atom rank 2")


def test_criterion_10_serre_certificate():
    SA = kgroups.atom_serre()
    for h in picard.zero_classes():
        c = [Fraction(x) for x in
             kgroups.atom_coords(kgroups.class_of(tuple(-v for v in h)))]
        img = mat_vec(SA, c)
        hp = picard.pair_of(h)
        expect = [-Fraction(x) for x in
                  kgroups.atom_coords(kgroups.class_of(tuple(-v for v in hp)))]
        assert img == expect
        assert mat_vec(SA, img) == c
    surf = kgroups.surface_zero_class_gram()
    wpl = [[Fraction(x) for x in row] for row in kgroups.wpl_pair_gram(5)]
    assert surf == wpl
    ok(10, "Serre operator swaps class_of(-h) pairs with a sign, squares to "
           "identity; surface Gram equals the weighted-line simples Gram")


def test_criterion_11_fiber_product_order_law():
    rng = random.Random(1111)
    configs = [
        # order-2 case
        PointConfiguration(QQ, [ProjPoint.infinity(QQ)] +
                           [ProjPoint.affine(QQ, c) for c in (0, 1, 2, 3)]),
        # trivial-Aut generic cases (over F_13 every 5-point set has extra
        # symmetry, so generic lives over Q and F_19)
        PointConfiguration(QQ, [ProjPoint.infinity(QQ)] +
                           [ProjPoint.affine(QQ, c) for c in (0, 1, 4, 11)]),
        PointConfiguration(GF(19), [ProjPoint.affine(GF(19), c)
                                    for c in (0, 1, 2, 3, 6)]),
    ]
    F13 = GF(13)
    while len(configs) < 20:
        pts = [ProjPoint.infinity(F13)] + [ProjPoint.affine(F13, c)
                                           for c in rng.sample(range(13), 4)]
        configs.append(PointConfiguration(F13, pts))
    orders = []
    for config in configs:
        ap = aut_group(config)
        images = {perm for _, perm in ap}
        pairs = sum(a.perm in images for a in even_signed_perms())  # the fiber product's size
        assert fiber_product_order(ap) == pairs == 16 * len(ap)
        orders.append(len(ap))
    assert orders[0] == 2 and orders[1] == 1 and orders[2] == 1
    ok(11, f"|Aut(X)| = 16 |Aut(P)| on {len(configs)} configurations "
           f"(orders seen: {sorted(set(orders))})")


def test_criterion_12_heavy_separability_suite():
    rng = random.Random(1212)
    instances = 0
    for i in range(100):
        phi, psi_all = random_split_functor(rng, idx=1000 + i)
        base_objects, _ = standard_choice(phi.source)
        Psi = build_psi(phi, {x0: psi_all[x0] for x0 in base_objects.values()})
        s13, witness = verify_heavy_separability(phi, Psi)
        assert s13, witness
        s2, witness2 = verify_naturality(phi, Psi)
        assert s2, witness2     # (s2) emerges for free
        assert independence_check(phi, psi_all)
        instances += 1
    assert instances == 100
    ok(12, "100 random groupoids: (s1)+(s3) exhaustive, (s2) for free, "
           "independence under compatible families")
