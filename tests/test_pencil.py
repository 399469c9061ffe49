import itertools
import json
import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from qdp4 import _accel, pencil
from qdp4.fields import (GF, QQ, FieldMismatchError, Poly, embed, embed_poly,
                         factor, is_square, squarefree)
from qdp4.hyperoct import CycleSignature
from qdp4.linalg import congruence, det, kernel_vector
from qdp4.pencil import (DegeneratePencilError, InvalidNormalFormError,
                         NotSmoothError, QuadricPencil,
                         ResourceLimitError, UnsupportedFieldError,
                         UnsupportedSplittingError, _encode_form,
                         _encoded_tables, canonical_invariant,
                         count_points, degenerate_parameter_points,
                         discriminant_quintic,
                         galois_signature, is_smooth, isomorphic,
                         point_configuration, predicted_count, reconstruct,
                         simultaneous_diagonalize, splitting_field)
from qdp4.sampling import (random_invertible, random_smooth_pencil,
                           random_split_pencil, random_symmetric)
from qdp4.wpline import Moebius, ProjPoint, moebius_to_inf_zero_one
from test_fields import has_square_factor


def affine_quintic(P):
    """The affine chart g(z) = F(1, z) of the binary quintic."""
    return Poly(P.field, discriminant_quintic(P))


def diag_pencil(field, a_diag, b_diag):
    A = [[field(0)] * 5 for _ in range(5)]
    B = [[field(0)] * 5 for _ in range(5)]
    for i in range(5):
        A[i][i] = field(a_diag[i]) if isinstance(a_diag[i], int) else a_diag[i]
        B[i][i] = field(b_diag[i]) if isinstance(b_diag[i], int) else b_diag[i]
    return QuadricPencil(field, A, B)


# --- independent oracle: cofactor-expansion determinant over binary forms ---

def _bf_mul(u, v, field):
    out = [field.zero] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def _bf_add(u, v, field):
    n = max(len(u), len(v))
    u = list(u) + [field.zero] * (n - len(u))
    v = list(v) + [field.zero] * (n - len(v))
    return [a + b for a, b in zip(u, v)]


def _cofactor_det(rows, field):
    """Recursive cofactor expansion; entries are binary-form coefficient lists."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = [field.zero]
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = _bf_mul(rows[0][j], _cofactor_det(minor, field), field)
        if j % 2:
            term = [-c for c in term]
        acc = _bf_add(acc, term, field)
    return acc


def oracle_quintic(P):
    field = P.field
    rows = [[[P.A[i][j], -P.B[i][j]] for j in range(5)] for i in range(5)]
    det = _cofactor_det(rows, field)
    det = det + [field.zero] * (6 - len(det))
    return tuple(det[:6])


def test_discriminant_example_eq_pencil():
    P = reconstruct((2, 3), QQ)
    cs = discriminant_quintic(P)
    assert tuple(int(c) for c in cs) == (0, -6, 11, -6, 1, 0)
    assert cs == oracle_quintic(P)
    pts = degenerate_parameter_points(P)
    expect = {ProjPoint.infinity(QQ)} | {ProjPoint.affine(QQ, c)
                                         for c in (0, 1, 2, 3)}
    assert set(pts) == expect


def _random_rational_symmetric(rng):
    M = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            M[i][j] = M[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return M


def test_discriminant_oracle_on_random_pencils():
    rng = random.Random(21)
    checked = []
    for field in (GF(3), GF(5), GF(7), GF(11), GF(3, 2), GF(3, 3), QQ):
        def sym():
            if field.is_rational:
                return _random_rational_symmetric(rng)
            return random_symmetric(field, rng)
        for case in ("random", "pivot swap", "degree < 5", "common kernel"):
            for _ in range(4):
                A, B = sym(), sym()
                if case == "pivot swap":
                    A[0][0] = B[0][0] = field.zero
                if case in ("degree < 5", "common kernel"):
                    for i in range(5):  # B (and A) kill e4
                        B[i][4] = B[4][i] = field.zero
                if case == "common kernel":
                    for i in range(5):
                        A[i][4] = A[4][i] = field.zero
                try:
                    P = QuadricPencil(field, A, B)
                except DegeneratePencilError:
                    continue
                cs = discriminant_quintic(P)
                assert cs == oracle_quintic(P)
                checked.append((case, cs))
    assert len(checked) >= 100
    assert any(c == "degree < 5" and cs[5] == 0 and any(cs) for c, cs in checked)
    assert any(c == "common kernel" and not any(cs) for c, cs in checked)


def oracle_minor(P, i):
    idx = [j for j in range(5) if j != i]
    return Poly(P.field, _cofactor_det([[[P.A[a][b], -P.B[a][b]] for b in idx]
                                        for a in idx], P.field))


def test_integer_lift_matches_the_oracle_at_its_bounds():
    # the quintic and the five 4x4 principal minors are integer determinants
    # at z = 0..n, interpolated; these fields and entries strain the
    # Kronecker width w and the cleared denominators
    rng = random.Random(22)
    checked = []
    for field in (GF(3, 12), GF(1009, 5), GF(1099511627689), QQ):
        def sym(case):
            if field.is_rational:  # denominators of 31 to 35 digits
                M = [[Fraction(0)] * 5 for _ in range(5)]
                for i in range(5):
                    for j in range(i, 5):
                        M[i][j] = M[j][i] = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                     rng.randrange(10 ** 30, 10 ** 35))
                return M
            if case == "random":
                return random_symmetric(field, rng)
            top = field([field.p - 1] * field.k) if field.k > 1 else field(field.p - 1)
            return [[top] * 5 for _ in range(5)]  # every coefficient p - 1
        for case in ("random", "top A", "top B"):
            for _ in range(2):
                A = sym("random" if case == "top B" else case)
                B = sym("random" if case == "top A" else case)
                P = QuadricPencil(field, A, B)
                assert discriminant_quintic(P) == oracle_quintic(P)
                for i in range(5):
                    assert pencil._principal_minor(P, i) == oracle_minor(P, i)
                checked.append(case)
    assert len(checked) == 24


def test_kronecker_unlift_reads_balanced_digits():
    # real determinants stay far below the bound on w, so the decoder is
    # also checked on its own: digits up to 2^(w-1) - 1 in absolute value,
    # either sign, in every position up to the degree n (k - 1) of a
    # determinant, with x^j for j >= k reduced by the modulus
    rng = random.Random(24)
    for field in (GF(3, 2), GF(3, 12), GF(1009, 5)):
        lift, unlift = pencil._integer_lift(field, [[field.one]], 5)
        w = lift(field.gen()).bit_length() - 1
        x = field.gen()
        for _ in range(20):
            digits = [rng.choice([-1, 1]) * rng.choice([rng.randrange(2 ** (w - 1)),
                                                        2 ** (w - 1) - 1])
                      for _ in range(5 * (field.k - 1) + 1)]
            expect = sum((field(d) * x ** j for j, d in enumerate(digits)), field.zero)
            assert unlift(sum(d << (w * j) for j, d in enumerate(digits))) == expect


def test_linalg_sees_integers_only(monkeypatch):
    # the quintic, the principal minors and the norms reach det as integer
    # matrices; no elimination over F[z] or over field elements remains
    # (pencil binds linalg.det by name, so the patch goes there)
    seen = []

    def int_det(mat):
        seen.append(mat)
        assert all(type(x) is int for row in mat for x in row), mat
        return det(mat)

    monkeypatch.setattr(pencil, "det", int_det)
    rng = random.Random(23)
    for field in (GF(3), GF(7), GF(3, 2), GF(1009, 5)):
        discriminant_quintic(QuadricPencil(field, random_symmetric(field, rng),
                                           random_symmetric(field, rng)))
    discriminant_quintic(QuadricPencil(QQ, _random_rational_symmetric(rng),
                                       _random_rational_symmetric(rng)))
    lengths = set()
    for p in (3, 5, 7):
        for _ in range(4):
            lengths |= {n for n, _ in galois_signature(random_smooth_pencil(GF(p), rng)).cycles}
    assert max(lengths) >= 3  # the norms ran on orbits of degree > 1
    assert {len(m) for m in seen} >= {2, 3, 4, 5}


def test_degenerate_pencil_rejected():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    zero = [[0] * 5 for _ in range(5)]
    with pytest.raises(DegeneratePencilError):
        QuadricPencil(QQ, eye, zero)
    with pytest.raises(DegeneratePencilError):
        QuadricPencil(QQ, eye, [[2 if i == j else 0 for j in range(5)]
                                for i in range(5)])


def _mixed_denominator_pair():
    """A symmetric A with entries such as 1/2, -5/6, 7/6, -1/9 and -3/35, and
    B = (-7/3) A."""
    A = [[Fraction(0)] * 5 for _ in range(5)]
    for n, (i, j) in enumerate(itertools.combinations_with_replacement(range(5), 2)):
        A[i][j] = A[j][i] = Fraction((-1) ** n * (n % 7 + 1), (2, 6, 9, 1, 35)[n % 5])
    return A, [[Fraction(-7, 3) * x for x in row] for row in A]


def test_proportionality_over_q_with_mixed_denominators():
    A, B = _mixed_denominator_pair()
    with pytest.raises(DegeneratePencilError):
        QuadricPencil(QQ, A, B)
    for i, j in ((0, 0), (1, 3), (4, 4)):
        C = [row[:] for row in B]
        C[i][j] = C[j][i] = C[i][j] + Fraction(1, 10 ** 20)
        QuadricPencil(QQ, A, C)  # one entry off the line: a pencil


def test_asymmetric_rejected():
    M = [[0] * 5 for _ in range(5)]
    M[0][1] = 1
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError):
        QuadricPencil(QQ, M, eye)


def test_diagonal_f7_pencil_quintic():
    F7 = GF(7)
    P = diag_pencil(F7, (1, 2, 3, 4, 5), (1, 1, 1, 1, 1))
    g = affine_quintic(P)
    roots = sorted((-f.coeffs[0]).coeffs[0] for f in factor(g) if f.degree == 1)
    # det = prod(a_i t0 - t1): roots t1/t0 = a_i
    assert roots == [1, 2, 3, 4, 5]
    assert is_smooth(P)


def test_is_smooth_examples():
    assert is_smooth(reconstruct((2, 3), QQ))
    P_bad = diag_pencil(QQ, (1, 0, 1, 1, 3), (0, 1, 1, 1, 1))  # lambda = 1
    assert not is_smooth(P_bad)
    P_bad2 = diag_pencil(QQ, (1, 1, 0, 0, 1), (0, 0, 1, 1, 1))
    assert not is_smooth(P_bad2)


def test_smoothness_iff_all_multiplicities_one():
    rng = random.Random(31)
    F5 = GF(5)
    checked_smooth = checked_singular = 0
    while checked_smooth < 5 or checked_singular < 5:
        try:
            P = QuadricPencil(F5, random_symmetric(F5, rng),
                              random_symmetric(F5, rng))
        except DegeneratePencilError:
            continue
        g = affine_quintic(P)
        if g.is_zero():
            assert not is_smooth(P)
            checked_singular += 1
            continue
        # the oracle: trial division by the square of every monic of degree <= 2
        squarefree_binary = not has_square_factor(g) and 5 - g.degree <= 1
        assert is_smooth(P) == squarefree_binary
        # both affine charts squarefree, the binary quintic read at infinity too
        h = Poly(F5, tuple(reversed(discriminant_quintic(P))))
        assert squarefree_binary == (squarefree(g) and squarefree(h))
        if squarefree_binary:
            checked_smooth += 1
        else:
            checked_singular += 1


def test_simultaneous_diagonalize_eq_pencil():
    P = reconstruct((2, 3), QQ)
    M, pairs, pts = simultaneous_diagonalize(P)
    # already diagonal: sorted points oo,0,1,2,3 give pairs proportional to
    # (1,0),(0,1),(1,1),(2,1),(3,1)
    expect = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    for (a, b), (ea, eb) in zip(pairs, expect):
        assert a * QQ(eb) == b * QQ(ea)
    # M is a signed/scaled permutation of the identity
    nonzero = [[j for j in range(5) if M[i][j] != 0] for i in range(5)]
    assert sorted(c[0] for c in nonzero) == [0, 1, 2, 3, 4]


def test_simultaneous_diagonalize_identity_plus_symmetric():
    rng = random.Random(7)
    F11 = GF(11)
    eye = [[F11(1) if i == j else F11(0) for j in range(5)] for i in range(5)]
    for _ in range(5):
        B = random_symmetric(F11, rng)
        try:
            P = QuadricPencil(F11, eye, B)
        except DegeneratePencilError:
            continue
        if not is_smooth(P):
            continue
        M, pairs, pts = simultaneous_diagonalize(P)
        dst = pts[0].field
        from qdp4.fields import embed
        Me = [[x for x in row] for row in M]
        At = congruence(Me, [[embed(x, dst) for x in row] for row in P.A])
        Bt = congruence(Me, [[embed(x, dst) for x in row] for row in P.B])
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert not At[i][j] and not Bt[i][j]


def normal_form(P, ordering=(0, 1, 2, 3, 4)):
    """(lambda, mu) from the cross-ratio table's entry at that ordering."""
    values, table = point_configuration(P).cross_ratios()
    return tuple(values[i] for i in dict(table)[tuple(ordering)])


def test_normal_form_orderings():
    P = reconstruct((2, 3), QQ)
    assert normal_form(P) == (Fraction(2), Fraction(3))
    assert normal_form(P, (0, 1, 2, 4, 3)) == (Fraction(3), Fraction(2))
    pairs = set(canonical_invariant(P))
    for ordering in itertools.permutations(range(5)):
        assert normal_form(P, ordering) in pairs


def test_normal_form_constraints():
    with pytest.raises(InvalidNormalFormError, match="^lambda, mu must avoid 0$"):
        reconstruct((Fraction(0), Fraction(3)), QQ)
    with pytest.raises(InvalidNormalFormError, match="^lambda, mu must avoid 1$"):
        reconstruct((Fraction(2), Fraction(1)), QQ)
    with pytest.raises(InvalidNormalFormError, match="^lambda and mu must differ$"):
        reconstruct((Fraction(2), Fraction(2)), QQ)


def test_canonical_invariant_separates():
    P1 = reconstruct((2, 3), QQ)
    P2 = reconstruct((2, 5), QQ)
    assert canonical_invariant(P1) != canonical_invariant(P2)


def test_canonical_invariant_congruence_and_basis_change():
    rng = random.Random(41)
    for p in (5, 11):
        field = GF(p)
        P = random_smooth_pencil(field, rng)
        base = canonical_invariant(P)
        M = random_invertible(field, rng)
        P_cong = QuadricPencil(field, congruence(M, P.A), congruence(M, P.B))
        assert canonical_invariant(P_cong) == base
        (a, b), (c, d) = random_invertible(field, rng, 2)
        A2 = [[a * P.A[i][j] + b * P.B[i][j] for j in range(5)] for i in range(5)]
        B2 = [[c * P.A[i][j] + d * P.B[i][j] for j in range(5)] for i in range(5)]
        assert canonical_invariant(QuadricPencil(field, A2, B2)) == base


def test_isomorphic_certificates():
    rng = random.Random(51)
    F13 = GF(13)
    P = random_split_pencil(13, rng)
    M = random_invertible(F13, rng)
    Q = QuadricPencil(F13, congruence(M, P.A), congruence(M, P.B))
    cert = isomorphic(P, Q)
    assert cert is not None
    pts1 = {cert.moebius(q) for q in degenerate_parameter_points(P)}
    assert pts1 == set(degenerate_parameter_points(Q))
    assert isomorphic(reconstruct((2, 3), QQ), reconstruct((2, 5), QQ)) is None
    self_cert = isomorphic(P, P)
    assert self_cert is not None and self_cert.moebius == Moebius.identity(F13)


def basis_changed(P, a, b, c, d):
    """The pencil spanned by a A + b B and c A + d B."""
    return QuadricPencil(P.field, *([[x * P.A[i][j] + y * P.B[i][j] for j in range(5)]
                                     for i in range(5)] for x, y in ((a, b), (c, d))))


def test_normal_form_is_the_moebius_value():
    # oracle: the Moebius map sending the ordering's first three points to
    # infinity, 0, 1, applied to the other two
    rng = random.Random(5)
    P_q = reconstruct((Fraction(-3, 2), 5), QQ)
    pencils = [P_q, basis_changed(P_q, *map(Fraction, (1, 2, 1, -1))),
               random_smooth_pencil(GF(7), rng), random_smooth_pencil(GF(3, 2), rng)]
    assert splitting_field(pencils[-1]).k > 2
    for P in pencils:
        pts = degenerate_parameter_points(P)
        for ordering in itertools.permutations(range(5)):
            ref = [pts[i] for i in ordering]
            m = moebius_to_inf_zero_one(*ref[:3])
            assert normal_form(P, ordering) == (m(ref[3]).u, m(ref[4]).u)


def invariant_over(P, field):
    """The canonical invariant over field: the sorted values of that
    configuration's cross-ratio table."""
    values, table = point_configuration(P, field).cross_ratios()
    return sorted({(values[a], values[b]) for _, (a, b) in table})


def test_isomorphic_iff_the_invariants_over_the_common_field_agree():
    rng = random.Random(17)
    pairs = [(reconstruct((2, 3), QQ), reconstruct((3, 2), QQ)),
             (reconstruct((2, 3), QQ), reconstruct((2, 5), QQ)),
             (reconstruct((2, 3), QQ), basis_changed(reconstruct((2, 3), QQ),
                                                     *map(Fraction, (1, 2, 1, -1))))]
    for field in (GF(5), GF(7), GF(3, 2)):
        pencils = [random_smooth_pencil(field, rng) for _ in range(4)]
        for P in pencils:
            M = random_invertible(field, rng)
            pairs.append((P, QuadricPencil(field, congruence(M, P.A), congruence(M, P.B))))
        pairs += list(itertools.combinations(pencils, 2))
        if field.k == 1:
            P = random_split_pencil(field.p, rng)
            nf = canonical_invariant(P)[0]
            pairs += [(P, reconstruct(nf, field)),
                      (P, reconstruct((nf[0], nf[1] + 1), field))]
    seen = set()
    for P1, P2 in pairs:
        same_degree = splitting_field(P1) == splitting_field(P2)
        if P1.field.is_rational:
            common = QQ
        else:
            common = GF(P1.field.p, lcm(splitting_field(P1).k, splitting_field(P2).k))
        agree = invariant_over(P1, common) == invariant_over(P2, common)
        assert (isomorphic(P1, P2) is not None) == agree
        seen.add((agree, same_degree))
    assert seen >= {(True, True), (False, True), (False, False)}


def test_isomorphic_field_mismatch():
    with pytest.raises(FieldMismatchError):
        isomorphic(reconstruct((2, 3), GF(5)), reconstruct((2, 3), GF(7)))
    with pytest.raises(FieldMismatchError):
        isomorphic(reconstruct((2, 3), QQ), reconstruct((2, 3), GF(7)))


def test_reconstruct_examples():
    P = reconstruct((2, 3), QQ)
    expectA = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0],
               [0, 0, 0, 2, 0], [0, 0, 0, 0, 3]]
    expectB = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
               [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert [[int(x) for x in row] for row in P.A] == expectA
    assert [[int(x) for x in row] for row in P.B] == expectB
    with pytest.raises(InvalidNormalFormError):
        reconstruct((0, 3), QQ)
    for field in (QQ, GF(7)):
        for bad in (2.5, "2"):  # refused, not read as 5/2 or 2
            with pytest.raises(TypeError):
                reconstruct((bad, 3), field)
    nf = canonical_invariant(P)
    assert (Fraction(2), Fraction(3)) in nf


def test_reconstruct_round_trip_over_finite_field():
    rng = random.Random(61)
    for p in (7, 11):
        field = GF(p)
        opts = [c for c in range(2, p)]
        lam, mu = rng.sample(opts, 2)
        P = reconstruct((lam, mu), field)
        assert set(degenerate_parameter_points(P)) == (
            {ProjPoint.infinity(field)} |
            {ProjPoint.affine(field, c) for c in (0, 1, lam, mu)})


def test_points_over_larger_fields_come_from_the_base_factors():
    # canonical embeddings do not compose, so points over a field larger than
    # the splitting field must not be re-embedded from the splitting field
    P = random_smooth_pencil(GF(3, 2), random.Random(0))
    assert splitting_field(P) == GF(3, 4)
    g = affine_quintic(P)
    for dst in (GF(3, 8), GF(3, 12)):
        lin = factor(embed_poly(g, dst))
        assert all(f.degree == 1 for f in lin)
        expected = {ProjPoint.affine(dst, -f.coeffs[0]) for f in lin}
        if g.degree < 5:
            expected.add(ProjPoint.infinity(dst))
        assert set(degenerate_parameter_points(P, dst)) == expected
    with pytest.raises(UnsupportedSplittingError):
        degenerate_parameter_points(P, GF(3, 6))


def test_entries_must_be_integers_or_field_elements():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    for field, element, foreign in ((GF(7), GF(7)(3), GF(5)(3)),
                                    (QQ, Fraction(1, 3), GF(7)(3))):
        A = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
        A[1][1] = element
        QuadricPencil(field, A, eye)
        for bad in (2.5, True, foreign, "2"):
            A[0][0] = bad
            with pytest.raises(ValueError, match="neither an integer"):
                QuadricPencil(field, A, eye)


def test_galois_signature_split_and_rational():
    # over Q with split quintic: trivial action
    sig = galois_signature(reconstruct((2, 3), QQ))
    assert sig == CycleSignature.trivial()
    # non-split over Q: unsupported
    A = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
         [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]]
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    P = QuadricPencil(QQ, A, eye)
    assert is_smooth(P)
    with pytest.raises(UnsupportedSplittingError):
        galois_signature(P)
    # extension base fields are not supported
    with pytest.raises(UnsupportedFieldError):
        galois_signature(reconstruct((GF(3, 2).gen(), GF(3, 2)(2)), GF(3, 2)))


def test_galois_signature_irreducible_quintic():
    P = random_smooth_pencil(GF(5), random.Random(10))
    g = affine_quintic(P)
    assert [f.degree for f in factor(g)] == [5]
    sig = galois_signature(P)
    assert len(sig.cycles) == 1 and sig.cycles[0][0] == 5
    assert sig.cycles[0][1] in (1, -1)


def _reference_sign(Q, field):
    """The ruling sign at one corank-1 member Q: the quadratic character of
    the 4x4 minor of Q off the first nonzero entry of a kernel vector."""
    v = kernel_vector(Q, field)
    i0 = next(i for i in range(5) if v[i])
    idx = [j for j in range(5) if j != i0]
    (d,) = _cofactor_det([[[Q[a][b]] for b in idx] for a in idx], field)
    return 1 if is_square(d) else -1


def test_ruling_sign_is_the_same_at_every_conjugate_root():
    # galois_signature takes each sign from a norm over F_p, without a root;
    # every root of each orbit, in F_{p^k}, must give that sign
    checked = 0
    for p in (3, 5, 7):
        rng = random.Random(p)
        for _ in range(12):
            P = random_smooth_pencil(GF(p), rng)
            g = affine_quintic(P)
            # the same pencil with its first rational degenerate point moved
            # to infinity, which covers the sign there
            lin = [f for f in factor(g) if f.degree == 1]
            moved = []
            if lin:
                r = -lin[0].coeffs[0]
                moved = [QuadricPencil(GF(p), P.B, [[r * b - a for a, b in zip(ra, rb)]
                                                    for ra, rb in zip(P.A, P.B)])]
            for Pm in [P] + moved:
                g = affine_quintic(Pm)
                expected = []
                if g.degree < 5:
                    expected.append((1, _reference_sign([[-x for x in row] for row in Pm.B],
                                                        GF(p))))
                for irr in factor(g):
                    k = irr.degree
                    K = GF(p, k)
                    AK = [[embed(x, K) for x in row] for row in Pm.A]
                    BK = [[embed(x, K) for x in row] for row in Pm.B]
                    signs = {_reference_sign([[a - r * b for a, b in zip(ra, rb)]
                                              for ra, rb in zip(AK, BK)], K)
                             for r in (-f.coeffs[0] for f in factor(embed_poly(irr, K)))}
                    assert len(signs) == 1
                    expected.append((k, signs.pop()))
                assert galois_signature(Pm) == CycleSignature(tuple(expected))
                checked += 1
    assert checked >= 40


def test_galois_signature_builds_no_extension_field(monkeypatch):
    pencils = [random_smooth_pencil(GF(p), random.Random(seed))
               for p in (3, 5, 7) for seed in range(4)]
    calls = {"GF": 0, "conjugate_roots": 0}

    def counted(name):
        fn = getattr(pencil, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pencil, name, counted(name))
    lengths = {n for P in pencils for n, _ in galois_signature(P).cycles}
    assert max(lengths) >= 3
    assert calls == {"GF": 0, "conjugate_roots": 0}
    # the wrappers do count: the points of the same pencils need both
    degenerate_parameter_points(pencils[0])
    assert min(calls.values()) >= 1


def test_galois_signature_not_smooth():
    # the error names the repeated point: a root, infinity, or a factor
    F3, F7 = GF(3), GF(7)
    # two 2x2 blocks with det 1 - z - z^2, irreducible over F_3, and one -z
    blocks_a = [[int(i == j and i < 4) for j in range(5)] for i in range(5)]
    blocks_b = [[1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1]]
    cases = [
        (diag_pencil(F7, (1, 0, 1, 1, 3), (0, 1, 1, 1, 1)), "z = 1"),
        (diag_pencil(QQ, (1, 0, 1, 3, 3), (0, 1, 1, 1, 1)), "z = 3"),
        (diag_pencil(F7, (1, 1, 1, 2, 3), (0, 0, 1, 1, 1)), "at infinity"),
        (QuadricPencil(F3, blocks_a, blocks_b), "roots of [2, 1, 1]"),
    ]
    for P, witness in cases:
        assert not is_smooth(P)
        for fn in (splitting_field, galois_signature):
            with pytest.raises(NotSmoothError, match=re.escape(witness)):
                fn(P)


def test_count_points_examples():
    # minimal pencil: trace 0 at k=1 would give p^2 + p + 1; this seeded one
    # has a (1,-1) cycle, giving 25 + 0 + 1
    P_min = random_smooth_pencil(GF(5), random.Random(6))
    sig = galois_signature(P_min)
    assert sig.plus_cycles() == 0
    assert count_points(P_min, 1) == predicted_count(sig, 5, 1)
    # split pencil with trivial action: 25 + 5*6 + 1 = 56
    P_triv = random_split_pencil(5, random.Random(10))
    assert galois_signature(P_triv) == CycleSignature.trivial()
    assert count_points(P_triv, 1) == 56
    # all-minus with no length-1 cycles: exactly p^2 + p + 1
    P5 = random_smooth_pencil(GF(5), random.Random(1))
    sig5 = galois_signature(P5)
    if sig5.trace_power(1) == 0:
        assert count_points(P5, 1) == 31


def test_lefschetz_consistency_small():
    rng = random.Random(71)
    for p in (3, 5):
        field = GF(p)
        for _ in range(3):
            P = random_smooth_pencil(field, rng)
            sig = galois_signature(P)
            for k in (1, 2):
                assert count_points(P, k) == predicted_count(sig, p, k)


def test_count_points_guard():
    P = random_smooth_pencil(GF(5), random.Random(2))
    with pytest.raises(ResourceLimitError):
        count_points(P, 4)  # 625 > 250


def test_count_points_requires_prime_field():
    with pytest.raises(UnsupportedFieldError):
        count_points(reconstruct((2, 3), QQ), 1)


def test_predicted_count_examples():
    assert predicted_count(CycleSignature(((5, -1),)), 3, 5) == 58078
    assert predicted_count(CycleSignature.trivial(), 5, 1) == 56
    assert predicted_count(CycleSignature(((5, -1),)), 3, 1) == 13


def brute_force_count(A, B, F):
    """Points of P^4(F) where x^T A x and x^T B x both vanish, testing every
    point with F's own element arithmetic, tabulated on its element list; the
    points with the same first nonzero coordinate are tested as one array."""
    elems = list(F.elements())
    idx = {x: i for i, x in enumerate(elems)}
    add = np.array([[idx[x + y] for y in elems] for x in elems])
    mul = np.array([[idx[x * y] for y in elems] for x in elems])
    zero, one, q = idx[F.zero], idx[F.one], len(elems)

    def coeffs(M):  # coefficient of x_i x_j, i <= j
        M = [[embed(x, F) for x in row] for row in M]
        return [(i, j, idx[M[i][j] + M[j][i] if i < j else M[i][i]])
                for i in range(5) for j in range(i, 5)]

    def value(c, x):
        acc = np.full(x.shape[1], zero)
        for i, j, cij in c:
            acc = add[acc, mul[cij][mul[x[i], x[j]]]]
        return acc

    cA, cB = coeffs(A), coeffs(B)
    count = 0
    for m in range(5):  # first nonzero coordinate x_m = 1, the rest all of F^(4-m)
        rest = np.indices((q,) * (4 - m)).reshape(4 - m, q ** (4 - m))
        lead = np.repeat([[zero]] * m + [[one]], q ** (4 - m), axis=1)
        x = np.vstack([lead, rest])
        count += int(((value(cA, x) == zero) & (value(cB, x) == zero)).sum())
    return count


def test_count_matches_brute_force():
    # every q <= 27: a random pencil (both forms have an x4^2 term), the same
    # pencil with A[4][4] = 0 (Q_A is linear in x4), and x3 x4 against that A
    # and against the original A, in both orders (fibres on which one or both
    # forms vanish for every x4); the last pairs are not smooth pencils, so
    # they go to the kernel directly
    rng = random.Random(27)
    for p, ks in ((3, (1, 2, 3)), (5, (1, 2)), (7, (1,)), (11, (1,)), (13, (1,)),
                  (17, (1,)), (19, (1,)), (23, (1,))):
        field = GF(p)
        P = random_smooth_pencil(field, rng)
        A, B = P.A, P.B
        if not B[4][4]:
            A, B = B, A
        else:
            c = A[4][4] / B[4][4]
            A = [[x - c * y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
        P0 = QuadricPencil(field, A, B)
        assert not P0.A[4][4] and is_smooth(P0)
        half = field(1) / field(2)
        X34 = [[half if {i, j} == {3, 4} else field.zero for j in range(5)]
               for i in range(5)]
        for k in ks:
            F = GF(p, k)
            assert count_points(P, k) == brute_force_count(P.A, P.B, F)
            assert count_points(P0, k) == brute_force_count(P0.A, P0.B, F)
            add, mul = _encoded_tables(p, k)
            for X, Y in ((X34, P0.A), (X34, P.A), (P.A, X34)):
                n = _accel.count_zero_pairs(_encode_form(X, p), _encode_form(Y, p),
                                            add, mul, p ** k)
                assert n == brute_force_count(X, Y, F)


def test_encoded_tables_match_field_arithmetic():
    # every add and mul entry is the encoded FFElem sum and product, at every
    # F_{p^k} with k >= 2 and q <= 250, and at the prime fields F_3, F_5, F_251
    cases = [(p, k) for p in (3, 5, 7, 11, 13) for k in range(2, 6) if p ** k <= 250]
    for p, k in cases + [(3, 1), (5, 1), (251, 1)]:
        F = GF(p, k)
        elems = [F([e // p ** i % p for i in range(k)]) for e in range(p ** k)]
        code = {x.coeffs: e for e, x in enumerate(elems)}
        add, mul = _encoded_tables(p, k)
        assert add.dtype == mul.dtype == np.int64
        for a, x in enumerate(elems):
            assert [code[(x + y).coeffs] for y in elems] == add[a].tolist()
            assert [code[(x * y).coeffs] for y in elems] == mul[a].tolist()


def test_four_cycle_sign_validated_by_lefschetz():
    # a 4-cycle's sign only enters the trace at k = 4 (q = 81, inside the guard)
    rng = random.Random(81)
    seen = set()
    tries = 0
    while len(seen) < 2 and tries < 300:
        tries += 1
        P = random_smooth_pencil(GF(3), rng)
        sig = galois_signature(P)
        lengths = sorted(c for c, _ in sig.cycles)
        if lengths != [1, 4]:
            continue
        sign4 = dict(sig.cycles).get(4)
        key = sign4
        if key in seen:
            continue
        assert count_points(P, 4) == predicted_count(sig, 3, 4)
        seen.add(key)
    assert seen, "no 4-cycle pencils found"


def test_five_cycle_sign_validated_by_lefschetz():
    # the 5-cycle sign only enters at k = 5 (q = 243, inside the default guard)
    rng = random.Random(243)
    while True:
        P = random_smooth_pencil(GF(3), rng)
        sig = galois_signature(P)
        if sig.cycles[0][0] == 5:
            break
    assert count_points(P, 5) == predicted_count(sig, 3, 5)


def test_pencil_json_round_trip():
    for P in (reconstruct((2, 3), QQ), reconstruct((3, 4), GF(7))):
        js = P.to_json()
        Q = QuadricPencil.from_json(json.loads(json.dumps(js)))
        assert Q.field == P.field
        assert Q.A == P.A and Q.B == P.B


def test_extension_base_field_invariant():
    F9 = GF(3, 2)
    t = F9.gen()
    P = reconstruct((t, t + F9.one), F9)
    inv = canonical_invariant(P)
    assert len(inv) >= 1
    pts = degenerate_parameter_points(P)
    assert len(set(pts)) == 5


def test_signature_lengths_are_factor_degrees():
    rng = random.Random(91)
    for p in (3, 5, 7):
        field = GF(p)
        for _ in range(8):
            P = random_smooth_pencil(field, rng)
            g = affine_quintic(P)
            degrees = sorted(f.degree for f in factor(g))
            if g.degree < 5:
                degrees = sorted(degrees + [1])  # the point at infinity
            sig = galois_signature(P)
            assert sorted(c for c, _ in sig.cycles) == degrees
