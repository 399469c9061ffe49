"""Named verification suites behind the CLI selftest command."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import kgroups, picard
from .fields import GF, QQ
from .groupoids import (build_psi, independence_check, standard_choice,
                        verify_heavy_separability)
from .hyperoct import (CycleSignature, all_signed_perms, even_signed_perms,
                       fiber_product_order, index_tables, retract,
                       retract_homomorphism_violations)
from .linalg import mat_vec
from .pencil import (canonical_invariant, count_points, degenerate_parameter_points,
                     galois_signature, isomorphic, predicted_count, reconstruct)
from .sampling import random_smooth_pencil, random_split_functor, random_split_pencil
from .wpline import PointConfiguration, ProjPoint, aut_group


def suite_field_arith():
    F5 = GF(5)
    ok = (QQ(1) / QQ(2) + QQ(1) / QQ(3) == Fraction(5, 6))
    ok &= F5(2).inverse() == F5(3)
    F9 = GF(3, 2)
    t = F9.gen()
    ok &= t * t == -F9.one
    return ok, "exact arithmetic over Q, F5, F9"


def suite_zero_class_census():
    listed = picard.zero_classes()
    brute = picard.brute_force_classes(0, -2)
    ok = listed == brute and len(listed) == 10
    for h in listed:
        hp = picard.pair_of(h)
        ok &= picard.intersect(h, hp) == 2
        ok &= tuple(a + b for a, b in zip(h, hp)) == tuple(-k for k in picard.K_CLASS)
    return ok, f"{len(listed)} classes, 5 pairs with h + h' = -K"


def suite_weyl_order():
    try:
        W = picard.weyl_group()
    except picard.InvalidAutError as exc:  # a generator of infinite order, or a wrapping entry
        return False, str(exc)
    ok = len(W) == 1920 and \
        set(picard.to_signed_perms(np.stack(W))) == set(even_signed_perms())
    return ok, f"closure order {len(W)}, image = even signed permutations"


def suite_retract_homomorphism():
    bad = retract_homomorphism_violations(*index_tables()[1:])
    ok = bad == 0
    for a in even_signed_perms():
        if retract(a) != a:
            return False, "retract moved an even element"
    for a in all_signed_perms():
        if retract(a).perm != a.perm:
            return False, "retract does not commute with the projection to S5"
    return ok, f"{3840 * 3840} composable pairs, {bad} violations"


def suite_rank_formulas():
    ranks = {space: kgroups.burnside_ranks(kgroups.action_matrices(space))
             for space in ("picard", "wpl", "torsion", "surface-k0")}
    # the closed form once per (cycle signature, space), compared on every element
    classes = {}
    class_index = [classes.setdefault(CycleSignature.from_signed_perm(sp), len(classes))
                   for sp in all_signed_perms()]
    mismatch = np.stack([by_element != np.array([kgroups.g_invariant_rank(sig, space)
                                                 for sig in classes])[class_index]
                         for space, by_element in ranks.items()], axis=1)
    if mismatch.any():
        i, k = np.argwhere(mismatch)[0]  # element-major: lowest element, then first space
        return False, f"mismatch at {all_signed_perms()[i]} on {list(ranks)[k]}"
    sig_min = CycleSignature(((5, -1),))
    triple = (kgroups.g_invariant_rank(sig_min, "picard"),
              kgroups.g_invariant_rank(sig_min, "wpl"),
              kgroups.g_invariant_rank(sig_min, "torsion"))
    ok = triple == (1, 2, 1)
    return ok, f"3840 elements x 4 spaces; minimal triple {triple}"


def suite_lefschetz():
    rng = random.Random(20240)
    checked = 0
    for p, n_pencils in ((3, 3), (5, 2)):
        field = GF(p)
        for _ in range(n_pencils):
            P = random_smooth_pencil(field, rng)
            sig = galois_signature(P)
            for k in (1, 2):
                if count_points(P, k) != predicted_count(sig, p, k):
                    return False, f"mismatch over F_{p}, k={k}, sig={sig.cycles}"
                checked += 1
    return True, f"{checked} point counts match the trace prediction"


def suite_normal_form():
    P = reconstruct((2, 3), QQ)
    pts = degenerate_parameter_points(P)
    expect = [ProjPoint.infinity(QQ)] + [ProjPoint.affine(QQ, c) for c in (0, 1, 2, 3)]
    ok = pts == sorted(expect)
    inv = canonical_invariant(P)
    ok &= (Fraction(2), Fraction(3)) in inv
    return ok, "degenerate points {oo,0,1,2,3}; invariant contains (2,3)"


def suite_torelli():
    rng = random.Random(777)
    count = 0
    for p in (5, 7, 11, 13):
        for _ in range(3):
            P = random_split_pencil(p, rng)
            nf = canonical_invariant(P)[0]
            Q = reconstruct(nf, GF(p))
            if isomorphic(P, Q) is None:
                return False, f"round trip failed over F_{p}"
            count += 1
    return True, f"{count} reconstruct round trips"


def suite_fiber_product():
    rng = random.Random(31)
    checked = 0
    F13 = GF(13)
    configs = [PointConfiguration(QQ, [ProjPoint.infinity(QQ)] +
                                  [ProjPoint.affine(QQ, c) for c in (0, 1, 2, 3)])]
    while len(configs) < 6:
        pts = [ProjPoint.infinity(F13)] + [
            ProjPoint.affine(F13, c) for c in rng.sample(range(13), 4)]
        configs.append(PointConfiguration(F13, pts))
    for config in configs:
        ap = aut_group(config)
        images = {perm for _, perm in ap}  # one pair per even signed perm over an image
        if fiber_product_order(ap) != sum(a.perm in images for a in even_signed_perms()):
            return False, f"order law fails at {config}"
        checked += 1
    return True, f"{checked} configurations satisfy |Aut(X)| = 16 |Aut(P)|"


def suite_serre_certificate():
    S = kgroups.serre_from_gram(kgroups.full_k0_gram())
    lock = S == [[Fraction(x) for x in row] for row in kgroups.tensor_k_matrix()]
    SA = kgroups.atom_serre()
    ok = lock
    for h in picard.zero_classes():
        c = [Fraction(x) for x in
             kgroups.atom_coords(kgroups.class_of(tuple(-v for v in h)))]
        img = mat_vec(SA, c)
        hp = picard.pair_of(h)
        expect = [-Fraction(x) for x in
                  kgroups.atom_coords(kgroups.class_of(tuple(-v for v in hp)))]
        ok &= img == expect
        ok &= mat_vec(SA, img) == c
    gram_match = (kgroups.surface_zero_class_gram() ==
                  [[Fraction(x) for x in row] for row in kgroups.wpl_pair_gram(5)])
    ok &= gram_match
    return ok, "convention lock, pair swap with sign, Gram match"


def suite_heavy_separability():
    rng = random.Random(97)
    for i in range(10):
        phi, psi_all = random_split_functor(rng, idx=i)
        base_objects, isos = standard_choice(phi.source)
        psi_by_base = {x0: psi_all[x0] for x0 in base_objects.values()}
        Psi = build_psi(phi, psi_by_base, base_objects, isos)
        ok, witness = verify_heavy_separability(phi, Psi)
        if not ok:
            return False, witness
        if not independence_check(phi, psi_all):
            return False, f"independence fails on instance {i}"
    return True, "10 random instances verified"


SUITES = (
    ("field-arith", suite_field_arith),
    ("zero-class-census", suite_zero_class_census),
    ("weyl-order-1920", suite_weyl_order),
    ("retract-homomorphism", suite_retract_homomorphism),
    ("rank-formulas", suite_rank_formulas),
    ("lefschetz-consistency", suite_lefschetz),
    ("normal-form-eq-pencil", suite_normal_form),
    ("torelli-roundtrip", suite_torelli),
    ("fiber-product-order", suite_fiber_product),
    ("serre-certificate", suite_serre_certificate),
    ("heavy-separability", suite_heavy_separability),
)


def run_all():
    failures = 0
    for name, fn in SUITES:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"exception: {exc}"
        status = "PASS" if ok else "FAIL"
        # flushed per line: progress shows through a pipe, and a closed
        # stdout raises inside the CLI's main, not at exit
        print(f"{status} {name}: {detail}", flush=True)
        if not ok:
            failures += 1
    return failures
