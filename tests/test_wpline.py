import itertools
import random
from fractions import Fraction

import pytest

from qdp4 import wpline
from qdp4.fields import GF, QQ, FFElem, FieldMismatchError, scalar_to_json
from qdp4.pencil import (QuadricPencil, canonical_invariant, isomorphic, point_configuration,
                         reconstruct)
from qdp4.wpline import (Moebius, PointConfiguration, ProjPoint, aut_group,
                         moebius_to_inf_zero_one, pgl2_match)


def config(field, affine, infinity=True):
    pts = [ProjPoint.infinity(field)] if infinity else []
    pts += [ProjPoint.affine(field, c) for c in affine]
    return PointConfiguration(field, pts)


def moebius_between_triples(src, dst):
    """The unique Moebius map with src[i] -> dst[i] for an ordered triple."""
    return moebius_to_inf_zero_one(*dst).compose(moebius_to_inf_zero_one(*src), invert=True)


def image(c, m):
    """The configuration m(c)."""
    return PointConfiguration(c.field, [m(p) for p in c.points])


def test_apply_identity_and_inversion():
    m = Moebius.identity(QQ)
    p = ProjPoint.affine(QQ, 7)
    assert m(p) == p
    inv = Moebius(QQ, QQ(0), QQ(1), QQ(1), QQ(0))  # z -> 1/z
    assert inv(ProjPoint.affine(QQ, 0)).is_infinity()
    assert inv(ProjPoint.infinity(QQ)) == ProjPoint.affine(QQ, 0)


def test_apply_three_minus_z_preserves_example_set():
    C = config(QQ, (0, 1, 2, 3))
    m = Moebius(QQ, QQ(-1), QQ(3), QQ(0), QQ(1))  # z -> 3 - z
    # fixes infinity, swaps 0<->3 and 1<->2
    assert [m(p) for p in C.points] == [C.points[i] for i in (0, 4, 3, 2, 1)]


def test_moebius_to_inf_zero_one():
    field = QQ
    p1, p2, p3 = (ProjPoint.affine(field, 5), ProjPoint.affine(field, -1),
                  ProjPoint.infinity(field))
    m = moebius_to_inf_zero_one(p1, p2, p3)
    assert m(p1).is_infinity()
    assert m(p2) == ProjPoint.affine(field, 0)
    assert m(p3) == ProjPoint.affine(field, 1)


def test_moebius_between_triples():
    field = GF(11)
    src = (ProjPoint.affine(field, 1), ProjPoint.affine(field, 2),
           ProjPoint.affine(field, 3))
    dst = (ProjPoint.infinity(field), ProjPoint.affine(field, 7),
           ProjPoint.affine(field, 9))
    m = moebius_between_triples(src, dst)
    assert [m(p) for p in src] == list(dst)


def test_canonical_scaling_and_equality():
    a = Moebius(QQ, QQ(2), QQ(4), QQ(0), QQ(2))
    b = Moebius(QQ, QQ(1), QQ(2), QQ(0), QQ(1))
    assert a == b
    assert hash(a) == hash(b)


def test_pgl2_match_random_image():
    rng = random.Random(8)
    F11 = GF(11)
    C = config(F11, (0, 1, 3, 8))
    for _ in range(20):
        while True:
            entries = [F11(rng.randrange(11)) for _ in range(4)]
            try:
                m = Moebius(F11, *entries)
                break
            except ValueError:
                continue
        moved = image(C, m)
        found = pgl2_match(C, moved)
        assert found is not None
        assert {found(p) for p in C.points} == set(moved.points)


def test_pgl2_match_negative():
    C1 = config(QQ, (0, 1, 2, 3))
    C2 = config(QQ, (0, 1, 2, 5))
    assert pgl2_match(C1, C2) is None


def test_pgl2_match_self_is_identity():
    C = config(QQ, (0, 1, 2, 3))
    m = pgl2_match(C, C)
    assert m is not None and m == Moebius.identity(QQ)


def test_pgl2_match_field_mismatch():
    with pytest.raises(FieldMismatchError):
        pgl2_match(config(QQ, (0, 1, 2, 3)), config(GF(5), (0, 1, 2, 3)))


def test_match_agrees_with_pencil_invariants():
    # cross-module consistency: configurations match under PGL2 iff the
    # canonical invariants of the corresponding pencils agree
    cases = [((2, 3), (2, 3), True),
             ((2, 3), (2, 5), False),
             ((2, 3), (3, 2), True)]  # same point set
    for (l1, m1), (l2, m2), expect in cases:
        P1, P2 = reconstruct((l1, m1), QQ), reconstruct((l2, m2), QQ)
        C1 = config(QQ, (0, 1, l1, m1))
        C2 = config(QQ, (0, 1, l2, m2))
        match = pgl2_match(C1, C2) is not None
        inv_equal = canonical_invariant(P1) == canonical_invariant(P2)
        assert match == inv_equal == expect


def test_aut_group_order_two_example():
    C = config(QQ, (0, 1, 2, 3))
    G = aut_group(C)
    assert len(G) == 2
    perms = {perm for _, perm in G}
    assert (0, 1, 2, 3, 4) in perms          # identity
    assert (0, 4, 3, 2, 1) in perms          # z -> 3 - z


def test_aut_group_generic_trivial():
    # generic five points have trivial stabilizer; over small fields this can
    # fail for every subset (e.g. all of F_13), so the frozen generic examples
    # live over Q and F_19
    assert len(aut_group(config(QQ, (0, 1, 4, 11)))) == 1
    F19 = GF(19)
    assert len(aut_group(config(F19, (0, 1, 2, 3, 6), infinity=False))) == 1


def test_aut_group_is_a_group_with_faithful_permutation_image():
    for c in (config(QQ, (0, 1, 2, 3)), config(GF(13), (0, 1, 2, 5))):
        G = aut_group(c)
        assert len(G) <= 60
        assert Moebius.identity(c.field) in {m for m, _ in G}
        elems = {m for m, _ in G}
        perms = {m: perm for m, perm in G}
        for m1 in elems:
            assert m1.compose(Moebius.identity(c.field), invert=True) in elems
            for m2 in elems:
                prod = m1.compose(m2)
                assert prod in elems
                assert perms[prod] == tuple(perms[m1][perms[m2][i]]
                                            for i in range(5))
        assert len({perm for _, perm in G}) == len(G)  # faithful on points


def test_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration(QQ, [ProjPoint.affine(QQ, i) for i in range(4)])
    with pytest.raises(ValueError):
        PointConfiguration(QQ, [ProjPoint.affine(QQ, 0)] * 5)


def test_points_sort_with_infinity_first_then_by_scalar():
    rng = random.Random(5)
    for field, scalars in ((QQ, [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]),
                           (GF(3, 2), list(GF(3, 2).elements()))):
        scalars = sorted(set(scalars))
        pts = [ProjPoint.infinity(field)] + [ProjPoint.affine(field, x) for x in scalars]
        for _ in range(20):
            assert sorted(rng.sample(pts, len(pts))) == pts
        assert not pts[0] < pts[0] and pts[0] < pts[1] and not pts[1] < pts[0]
    F9 = GF(3, 2)
    # the (u : v) with v != 1 normalize before they are ordered
    assert sorted([ProjPoint(F9, F9((1, 1)), F9(2)), ProjPoint(F9, F9(1), F9.zero)]) == \
        [ProjPoint.infinity(F9), ProjPoint.affine(F9, F9((2, 2)))]


def test_an_affine_point_makes_no_inversion(monkeypatch):
    F9 = GF(3, 2)
    inversions = []
    inverse = FFElem.inverse
    monkeypatch.setattr(FFElem, "inverse", lambda x: inversions.append(x) or inverse(x))
    pts = [ProjPoint.affine(F9, x) for x in F9.elements()]
    assert not inversions and [p.u for p in pts] == list(F9.elements())
    assert ProjPoint(F9, F9.gen(), F9(2)) == ProjPoint.affine(F9, F9.gen() * F9(2))
    assert inversions == [F9(2)]


def test_order_between_two_fields_is_refused():
    F5, F7, F9 = GF(5), GF(7), GF(3, 2)
    for a, b in ((F5(1), F7(2)), (F7(2), F5(1)), (F9.gen(), GF(3)(1)), (F5(0), F9.zero)):
        with pytest.raises(FieldMismatchError):
            a < b
    for f1, f2 in ((F5, F7), (F9, GF(3)), (QQ, F5), (F5, QQ)):
        for p, q in itertools.product((ProjPoint.infinity(f1), ProjPoint.affine(f1, 1)),
                                      (ProjPoint.infinity(f2), ProjPoint.affine(f2, 1))):
            with pytest.raises(FieldMismatchError):
                p < q
        with pytest.raises(FieldMismatchError):
            sorted([ProjPoint.affine(f1, 0), ProjPoint.affine(f2, 1)])


def test_configuration_json_round_trip():
    C = config(QQ, (0, 1, 2, 3))
    js = [[1, 0]] + [[str(c), "1"] for c in (0, 1, 2, 3)]  # infinity is [1, 0]
    assert PointConfiguration.from_json(QQ, js) == C
    F9 = GF(3, 2)
    pts = [ProjPoint.infinity(F9)] + [ProjPoint.affine(F9, F9((a, b)))
                                      for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
    C2 = PointConfiguration(F9, pts)
    js2 = [[1, 0]] + [[scalar_to_json(p.u), scalar_to_json(p.v)] for p in pts[1:]]
    assert PointConfiguration.from_json(F9, js2) == C2


def test_entries_in_subfield_flag():
    F25 = GF(5, 2)
    m_rational = Moebius(F25, F25(2), F25(1), F25(0), F25(1))
    assert m_rational.entries_in_subfield(1)
    m_not = Moebius(F25, F25.gen(), F25(1), F25(0), F25(1))
    assert not m_not.entries_in_subfield(1)


# --- the cross-ratio table against the 60-map enumeration ---------------------

def reference_aut_group(c):
    """Every map sending points 0, 1, 2 to an ordered triple of the
    configuration, kept when it permutes the points, sorted by permutation."""
    index = {p: i for i, p in enumerate(c.points)}
    out = []
    for dst in itertools.permutations(c.points, 3):
        m = moebius_between_triples(c.points[:3], dst)
        images = [m(p) for p in c.points]
        if set(images) == set(c.points):
            out.append((m, tuple(index[q] for q in images)))
    out.sort(key=lambda mp: mp[1])
    return out


def reference_match(c1, c2):
    """The first of the 60 candidate maps, in permutation order, carrying c1 onto c2."""
    for dst in itertools.permutations(c2.points, 3):
        m = moebius_between_triples(c1.points[:3], dst)
        if {m(p) for p in c1.points} == set(c2.points):
            return m
    return None


def reference_pair(c, ordering):
    """(lambda, mu) at an ordering, through the explicit map sending the
    ordering's first three points to infinity, 0, 1."""
    pts = [c.points[i] for i in ordering]
    m = moebius_to_inf_zero_one(*pts[:3])
    return m(pts[3]).u, m(pts[4]).u  # affine: v = 1


def reference_invariant(c):
    """The sorted (lambda, mu) pairs of the 120 orderings."""
    pairs = {reference_pair(c, o) for o in itertools.permutations(range(5))}
    return sorted(pairs)


def diagonal_pencil(c):
    """A pencil whose degenerate points are the configuration's: the member
    at (u : v) of diag(u_i) and diag(v_i) loses rank exactly at the points."""
    F = c.field
    diag = [[[F.zero] * 5 for _ in range(5)] for _ in range(2)]
    for i, p in enumerate(c.points):
        diag[0][i][i], diag[1][i][i] = p.u, p.v
    return QuadricPencil(F, *diag)


def random_configuration(field, rng, infinity):
    if field.is_rational:
        values = set()
        while len(values) < 5 - infinity:
            values.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    else:
        values = rng.sample(list(field.elements()), 5 - infinity)
    return config(field, sorted(values), infinity)


def random_moebius(field, rng):
    while True:
        if field.is_rational:
            entries = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        else:
            entries = [rng.choice(list(field.elements())) for _ in range(4)]
        try:
            return Moebius(field, *entries)
        except ValueError:
            continue


def oracle_configurations():
    rng = random.Random(2024)
    out = []
    for field in (QQ, GF(7), GF(3, 2), GF(5, 2), GF(3, 3), GF(7, 2)):
        for infinity in (True, False):
            out += [random_configuration(field, rng, infinity) for _ in range(3)]
    out.append(config(QQ, (-1, 0, 1, 5)))          # harmonic quadruple, |Aut| = 1
    out.append(config(GF(5), range(5), infinity=False))              # |Aut| = 20
    out.append(config(GF(11), (1, 3, 4, 5, 9), infinity=False))      # fifth roots of 1
    out.append(config(QQ, (0, 1, 2, 3)))                             # |Aut| = 2
    return out


def test_cross_ratio_table_agrees_with_the_60_map_enumeration():
    rng = random.Random(7)
    configs = oracle_configurations()
    orders = [len(aut_group(c)) for c in configs]
    assert orders[-3:] == [20, 10, 2]
    negatives = 0
    for c, other in zip(configs, configs[1:] + configs[:1]):
        assert aut_group(c) == reference_aut_group(c)
        P = diagonal_pencil(c)
        assert point_configuration(P) == c
        assert list(canonical_invariant(P)) == reference_invariant(c)
        moved = image(c, random_moebius(c.field, rng))
        m = pgl2_match(c, moved)
        assert m is not None and m == reference_match(c, moved)
        if other.field == c.field:
            expected = reference_match(c, other)
            assert pgl2_match(c, other) == expected
            negatives += expected is None
    assert negatives >= 10


def test_rational_cross_ratios_of_large_height_match_the_explicit_maps():
    # over Q the table runs on integer coordinates (n : d); the points here mix
    # signs, denominators and heights up to 10^30, with and without infinity
    rng = random.Random(30)

    def height(h):
        return rng.randint(1, 10 ** h)

    configs = []
    for h in (1, 3, 12, 30):
        for infinity in (True, False):
            values = set()
            while len(values) < 5 - infinity:
                values.add(Fraction(rng.choice((-1, 1)) * height(h), height(rng.randint(0, h))))
            configs.append(config(QQ, sorted(values), infinity))
    configs.append(config(QQ, [Fraction(-10 ** 30, 7), Fraction(-1, 3), 0,
                               Fraction(10 ** 30 - 1, 10 ** 30)]))
    for c in configs:
        values, table = c.cross_ratios()
        assert list(values) == sorted(set(values))
        for ordering, (a, b) in table:
            assert (values[a], values[b]) == reference_pair(c, ordering)
    assert any(p.u < 0 for c in configs for p in c.points if not p.is_infinity())
    assert max(abs(p.u.numerator) for c in configs for p in c.points) > 10 ** 29


def test_cross_ratio_values_are_ranked_and_index_the_explicit_maps():
    configs = oracle_configurations()
    for c in configs:
        values, table = c.cross_ratios()
        assert len(values) <= 30 and list(values) == sorted(set(values))
        assert [o for o, _ in table] == list(itertools.permutations(range(5)))
        assert {i for _, ab in table for i in ab} == set(range(len(values)))
        for ordering, (a, b) in table:
            assert (values[a], values[b]) == reference_pair(c, ordering)
    # (-1, 0, 1, 5) with infinity: CR(oo, 0, 1, -1) = CR(oo, 0, -1, 1) = -1
    # in two Klein classes, with no automorphism to account for it
    harmonic = configs[-4]
    assert len(aut_group(harmonic)) == 1 and len(harmonic.cross_ratios()[0]) < 30


def test_aut_group_and_match_build_only_the_maps_they_return(monkeypatch):
    # one map to infinity, 0, 1 for c's first three points, one per map returned
    built = []
    real = wpline.moebius_to_inf_zero_one

    def counted(*triple):
        built.append(triple)
        return real(*triple)

    monkeypatch.setattr(wpline, "moebius_to_inf_zero_one", counted)
    rng = random.Random(3)
    configs = oracle_configurations()
    for c, other in zip(configs, configs[1:] + configs[:1]):
        built.clear()
        G = aut_group(c)
        assert len(built) == 1 + len(G)
        built.clear()
        assert pgl2_match(c, image(c, random_moebius(c.field, rng))) is not None
        assert len(built) == 2
        if other.field == c.field:
            built.clear()
            found = pgl2_match(c, other)
            assert len(built) == 1 + (found is not None)
    # c1's identity value 3 is not among c2's values: only src is built
    c1, c2 = config(QQ, (0, 1, 2, 3)), config(QQ, (0, 1, 2, 5))
    assert Fraction(3) not in c2.cross_ratios()[0]
    built.clear()
    assert pgl2_match(c1, c2) is None and len(built) == 1


def test_isomorphic_builds_only_the_second_pencils_table():
    for field, nf1, nf2 in ((QQ, (2, 3), (3, 2)), (QQ, (2, 3), (2, 5)),
                            (GF(11), (2, 3), (3, 2)), (GF(11), (2, 3), (2, 5))):
        P1, P2 = reconstruct(nf1, field), reconstruct(nf2, field)
        isomorphic(P1, P2)  # the common field is the base field: all points are rational
        assert point_configuration(P1, field)._table is None
        assert point_configuration(P2, field)._table is not None


def test_cross_ratios_over_f_q_take_one_inversion(monkeypatch):
    # the 10 determinants are inverted together (Montgomery's trick)
    F, rng = GF(3, 4), random.Random(4)
    calls, real = [], FFElem.inverse
    monkeypatch.setattr(FFElem, "inverse", lambda x: calls.append(x) or real(x))
    for infinity in (True, False, True):
        xs = set()
        while len(xs) < 4 + (not infinity):
            xs.add(tuple(rng.randrange(3) for _ in range(4)))
        c = config(F, sorted(xs), infinity)
        calls.clear()
        values, _ = c.cross_ratios()
        assert len(calls) == 1 and len(values) <= 30


def test_coincident_points_have_no_map_to_infinity_zero_one():
    F = GF(3, 2)
    p, q = ProjPoint.affine(F, (1, 2)), ProjPoint.infinity(F)
    for triple in ((p, p, q), (p, q, p), (q, p, p)):
        with pytest.raises(ValueError, match="invertible"):
            moebius_to_inf_zero_one(*triple)
