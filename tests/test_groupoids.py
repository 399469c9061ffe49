import collections
import itertools
import json
import random

import pytest

from qdp4.groupoids import (FiniteGroupoid, GroupoidFunctor,
                            IncompatibleFamilyError, InvalidGroupError, InvalidSplittingError,
                            build_psi, check_functor, check_groupoid,
                            disjoint_union, family_compatible, find_splitting,
                            group_groupoid, independence_check,
                            injective_on_iso_classes, standard_choice,
                            verify_heavy_separability)
from qdp4.hyperoct import all_signed_perms, retract
from qdp4.sampling import random_split_functor


def verify_naturality(phi: GroupoidFunctor, Psi: dict):
    """Independent oracle: the naturality squares (s2), which (s1) + (s3)
    imply, checked exhaustively.  (True, None) or (False, witness)."""
    C, D = phi.source, phi.target
    for a, (xp, x) in C.morphisms.items():
        for b, (y, yp) in C.morphisms.items():
            if (x, y) not in Psi:
                continue
            for u in D.hom(phi.ob(x), phi.ob(y)):
                lhs = Psi[(xp, yp)][D.compose(phi.mor(b), D.compose(u, phi.mor(a)))]
                rhs = C.compose(b, C.compose(Psi[(x, y)][u], a))
                if lhs != rhs:
                    return False, f"(s2) fails on ({a!r}, {b!r}, {u!r})"
    return True, None


def cyclic(n):
    return tuple(range(n)), (lambda a, b: (a + b) % n)


def c2_two_object_setup():
    """C: C2 on two isomorphic objects; D: C2 x C2 on one object; phi = g -> (g, 0)."""
    c2, mul2 = cyclic(2)
    C, cname = group_groupoid("C", ["X", "Y"], c2, mul2)
    elems4 = tuple(itertools.product(range(2), range(2)))
    mul4 = (lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
    D, dname = group_groupoid("D", ["Z"], elems4, mul4)
    mor_map = {n: dname[("Z", "Z", (g, 0))] for (x, y, g), n in cname.items()}
    phi = GroupoidFunctor(C, D, {"X": "Z", "Y": "Z"}, mor_map)
    psi_all = {x: {dname[("Z", "Z", (g, k))]: cname[(x, x, g)]
                   for g in range(2) for k in range(2)} for x in ("X", "Y")}
    return phi, psi_all, cname, dname


def test_validate_group_table_groupoid():
    c4, mul4 = cyclic(4)
    G, _ = group_groupoid("G", ["*"], c4, mul4)
    assert check_groupoid(G) is None


def test_validate_reports_witnesses():
    c2, mul2 = cyclic(2)
    G, name = group_groupoid("G", ["*"], c2, mul2)
    # break invertibility by retyping the composition table
    bad_compose = dict(G.compose_table)
    g1 = name[("*", "*", 1)]
    g0 = name[("*", "*", 0)]
    bad_compose[(g1, g1)] = g1  # now g1 has no inverse and associativity breaks
    bad = FiniteGroupoid(G.objects, G.morphisms, bad_compose, G.identities)
    witness = check_groupoid(bad)
    assert witness is not None


def test_validate_functor_witness():
    phi, _, cname, dname = c2_two_object_setup()
    broken = dict(phi.morphism_map)
    broken[cname[("X", "X", 1)]] = dname[("Z", "Z", (0, 0))]
    bad = GroupoidFunctor(phi.source, phi.target, phi.object_map, broken)
    assert check_functor(bad) is not None
    assert check_functor(phi) is None


def test_injective_on_iso_classes():
    phi, _, _, _ = c2_two_object_setup()
    assert injective_on_iso_classes(phi)  # X ~ Y, single class
    # collapsing two distinct classes is caught
    c2, mul2 = cyclic(2)
    C1, n1 = group_groupoid("P", ["P0"], c2, mul2)
    C2_, n2 = group_groupoid("Q", ["Q0"], c2, mul2)
    C = disjoint_union(C1, C2_)
    D, dn = group_groupoid("D", ["Z"], c2, mul2)
    phi2 = GroupoidFunctor(C, D, {"P0": "Z", "Q0": "Z"},
                           {n1[("P0", "P0", g)]: dn[("Z", "Z", g)] for g in range(2)} |
                           {n2[("Q0", "Q0", g)]: dn[("Z", "Z", g)] for g in range(2)})
    assert check_functor(phi2) is None
    assert not injective_on_iso_classes(phi2)


def test_identity_functor_psi_is_identity():
    c3, mul3 = cyclic(3)
    G, name = group_groupoid("G", ["*"], c3, mul3)
    phi = GroupoidFunctor(G, G, {"*": "*"}, {n: n for n in G.morphisms})
    psi = {n: n for n in G.aut("*")}
    Psi = build_psi(phi, {"*": psi}, {"*": "*"}, {"*": G.identities["*"]})
    assert all(Psi[("*", "*")][u] == u for u in G.aut("*"))
    ok, _ = verify_heavy_separability(phi, Psi)
    assert ok
    assert independence_check(phi, {"*": psi})


def test_two_objects_onto_one_full_psi():
    phi, psi_all, cname, dname = c2_two_object_setup()
    C = phi.source
    base = {"X": "X", "Y": "X"}
    isos = {"X": C.identities["X"], "Y": cname[("X", "Y", 0)]}
    Psi = build_psi(phi, {"X": psi_all["X"]}, base, isos)
    # defined on all four hom-sets
    assert set(Psi) == {("X", "X"), ("X", "Y"), ("Y", "X"), ("Y", "Y")}
    ok, witness = verify_heavy_separability(phi, Psi)
    assert ok, witness
    ok2, witness2 = verify_naturality(phi, Psi)
    assert ok2, witness2  # (s2) emerges from (s1) + (s3)


def test_invalid_splitting_rejected():
    phi, psi_all, cname, dname = c2_two_object_setup()
    C = phi.source
    bad_psi = dict(psi_all["X"])
    # destroy the left-inverse property
    bad_psi[dname[("Z", "Z", (1, 0))]] = cname[("X", "X", 0)]
    with pytest.raises(InvalidSplittingError):
        build_psi(phi, {"X": bad_psi}, {"X": "X", "Y": "X"},
                  {"X": C.identities["X"], "Y": cname[("X", "Y", 0)]})


def test_perturbed_psi_detected():
    phi, psi_all, cname, dname = c2_two_object_setup()
    C = phi.source
    base = {"X": "X", "Y": "X"}
    isos = {"X": C.identities["X"], "Y": cname[("X", "Y", 0)]}
    Psi = build_psi(phi, {"X": psi_all["X"]}, base, isos)
    hom_xy = Psi[("X", "Y")]
    u0 = next(iter(hom_xy))
    others = [f for f in C.hom("X", "Y") if f != hom_xy[u0]]
    Psi[("X", "Y")] = dict(hom_xy)
    Psi[("X", "Y")][u0] = others[0]
    ok, witness = verify_heavy_separability(phi, Psi)
    assert not ok and witness is not None


def test_no_splitting_c2_into_c4():
    # Aut Z/4 has no retraction onto its order-2 subgroup
    c2, mul2 = cyclic(2)
    c4, mul4 = cyclic(4)
    C, cn = group_groupoid("A", ["P"], c2, mul2)
    D, dn = group_groupoid("B", ["Q"], c4, mul4)
    inc = GroupoidFunctor(C, D, {"P": "Q"},
                          {cn[("P", "P", g)]: dn[("Q", "Q", 2 * g)] for g in range(2)})
    assert check_functor(inc) is None
    assert find_splitting(inc, "P") is None


def _refusals():
    """(call, expected): each refusal with the message it raises, or the
    witness it returns, on the C2 -> C2 x C2 setup unless it needs another."""
    phi, psi_all, cname, dname = c2_two_object_setup()
    C, psi = phi.source, psi_all["X"]
    base, isos = {"X": "X", "Y": "X"}, {"X": C.identities["X"], "Y": cname[("X", "Y", 0)]}
    d = {k: dname[("Z", "Z", k)] for k in itertools.product(range(2), repeat=2)}

    def split(psi_by_base, isos=isos):
        return lambda: build_psi(phi, psi_by_base, base, isos)

    c2, mul2 = cyclic(2)
    monoid, mname = group_groupoid("M", ["*"], (0, 1), lambda h, g: h * g)
    yield (lambda: monoid.inverse(mname[("*", "*", 0)]),
           (InvalidGroupError, "morphism M:*>*:0 has no inverse"))
    yield (split({"X": {u: f for u, f in psi.items() if u != d[1, 1]}}),
           (InvalidSplittingError,
            "splitting at 'X' is not defined on the full automorphism group"))
    yield (split({"X": {**psi, d[1, 1]: cname[("Y", "Y", 1)]}}),
           (InvalidSplittingError, "splitting at 'X' does not land in Aut('X')"))
    # the projection onto the second factor is a homomorphism, but no left inverse
    yield (split({"X": {d[g, k]: cname[("X", "X", k)] for g, k in d}}),
           (InvalidSplittingError, "splitting at 'X' is not a left inverse on 'C:X>X:1'"))
    P, pn = group_groupoid("P", ["P0"], c2, mul2)
    Q, qn = group_groupoid("Q", ["Q0"], c2, mul2)
    D, dn = group_groupoid("D", ["Z"], c2, mul2)
    collapsed = GroupoidFunctor(disjoint_union(P, Q), D, {"P0": "Z", "Q0": "Z"},
                                {n[(x, x, g)]: dn[("Z", "Z", g)]
                                 for n, x in ((pn, "P0"), (qn, "Q0")) for g in range(2)})
    yield (lambda: build_psi(collapsed, {}, {}, {}),
           (InvalidSplittingError, "functor is not injective on isomorphism classes"))
    yield split({}), (InvalidSplittingError, "no splitting supplied for base object 'X'")
    yield (split({"X": psi}, isos={**isos, "Y": C.identities["X"]}),
           (InvalidSplittingError, "iso for 'Y' is not a morphism 'X' -> 'Y'"))
    # (s1) holds, as (0, 1) is no image of phi; u = (0, 1) on Hom(X, X) then
    # v = (0, 0) on Hom(X, Y) gives C:X>Y:1 against C:X>Y:0 o C:X>X:0
    Psi = build_psi(phi, {"X": psi}, base, isos)
    Psi[("X", "Y")] = {**Psi[("X", "Y")], d[0, 1]: cname[("X", "Y", 1)]}
    yield (lambda: verify_heavy_separability(phi, Psi),
           (False, f"(s3) fails on ({d[0, 0]!r}, {d[0, 1]!r}) at ('X','X','Y')"))
    # psi_Y = (g, k) -> g + k is a splitting too, but transports to psi_X on no u != (g, 0)
    psi_y = {d[g, k]: cname[("Y", "Y", (g + k) % 2)] for g, k in d}
    yield (lambda: family_compatible(phi, {"X": psi, "Y": psi_y}),
           f"compatibility square fails on ({cname[('X', 'Y', 0)]!r}, {d[0, 1]!r})")
    trivial = GroupoidFunctor(P, D, {"P0": "Z"}, {f: dn[("Z", "Z", 0)] for f in P.morphisms})
    yield lambda: find_splitting(trivial, "P0"), None  # phi is not injective on Aut
    yield lambda: disjoint_union(P, P), (ValueError, "object names collide")


@pytest.mark.parametrize("call,expected", list(_refusals()))
def test_refusals_give_their_exact_message(call, expected):
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    else:
        assert call() == expected


def test_find_splitting_succeeds_on_direct_product():
    phi, psi_all, _, _ = c2_two_object_setup()
    found = find_splitting(phi, "X")
    assert found is not None
    assert found == psi_all["X"]  # unique here: C2 x C2 -> C2 left inverses of g->(g,0)


def test_independence_check_and_incompatible_family():
    phi, psi_all, cname, dname = c2_two_object_setup()
    assert family_compatible(phi, psi_all) is None
    assert independence_check(phi, psi_all)
    # families must be conjugation-compatible; breaking psi_Y's homomorphism
    # property is reported as a precondition failure
    bad = {x: dict(m) for x, m in psi_all.items()}
    bad["Y"][dname[("Z", "Z", (1, 1))]] = cname[("Y", "Y", 0)]
    with pytest.raises(IncompatibleFamilyError):
        independence_check(phi, bad)


def test_signed_permutation_inclusion_splits_via_central_flip():
    # one-object groupoids with Aut = B_3 > D_3: psi = the central-flip retract
    n = 3
    import itertools as it

    def compose3(a, b):
        pa, sa = a
        pb, sb = b
        perm = tuple(pa[pb[i]] for i in range(n))
        inv_pa = [0] * n
        for i, im in enumerate(pa):
            inv_pa[im] = i
        signs = tuple(sa[j] * sb[inv_pa[j]] for j in range(n))
        return (perm, signs)

    b3 = tuple((perm, signs) for perm in it.permutations(range(n))
               for signs in it.product((1, -1), repeat=n))
    d3 = tuple(a for a in b3 if a[1].count(-1) % 2 == 0)
    C, cn = group_groupoid("D3", ["*"], d3, compose3)
    D, dn = group_groupoid("B3", ["*D"], b3, compose3)
    phi = GroupoidFunctor(C, D, {"*": "*D"},
                          {cn[("*", "*", g)]: dn[("*D", "*D", g)] for g in d3})
    assert check_functor(phi) is None

    def retract3(a):
        perm, signs = a
        if signs.count(-1) % 2 == 0:
            return a
        return (perm, tuple(-s for s in signs))

    psi = {dn[("*D", "*D", g)]: cn[("*", "*", retract3(g))] for g in b3}
    Psi = build_psi(phi, {"*": psi}, {"*": "*"}, {"*": C.identities["*"]})
    ok, witness = verify_heavy_separability(phi, Psi)
    assert ok, witness
    # Psi is exactly the retract on the single hom-set
    assert all(Psi[("*", "*")][dn[("*D", "*D", g)]] == cn[("*", "*", retract3(g))]
               for g in b3)


def test_b5_retraction_satisfies_s1_on_all_even_elements():
    # hom-level (s1) for the full-size case: the retract restricted to the
    # image of the inclusion D5 -> B5 is the identity (the (s3) law over all
    # 3840^2 pairs is the splitting acceptance suite)
    for a in all_signed_perms():
        if a.is_even():
            assert retract(a) == a


def test_round_trip_on_random_instances():
    rng = random.Random(12)
    for i in range(25):
        phi, psi_all = random_split_functor(rng, idx=i)
        base_objects, isos = standard_choice(phi.source)
        psi_by_base = {x0: psi_all[x0] for x0 in base_objects.values()}
        Psi = build_psi(phi, psi_by_base, base_objects, isos)
        ok, witness = verify_heavy_separability(phi, Psi)
        assert ok, witness
        ok2, witness2 = verify_naturality(phi, Psi)
        assert ok2, witness2


def test_groupoid_json_round_trip():
    c3, mul3 = cyclic(3)
    G, _ = group_groupoid("G", ["a", "b"], c3, mul3)
    G2 = FiniteGroupoid.from_json(G.to_json())
    assert G2.objects == G.objects
    assert G2.morphisms == G.morphisms
    assert G2.compose_table == G.compose_table
    assert G2.identities == G.identities
    assert check_groupoid(G2) is None


def check_groupoid_by_loops(G: FiniteGroupoid):
    """Oracle: the groupoid axioms checked one pair and one triple at a time,
    in the (h, g, f) name order whose first failure check_groupoid reports."""
    for x in G.objects:
        e = G.identities.get(x)
        if e is None or G.morphisms.get(e) != (x, x):
            return f"missing or mistyped identity at object {x!r}"
    for n, (s, t) in G.morphisms.items():
        if s not in G.objects or t not in G.objects:
            return f"morphism {n!r} has unknown endpoints"
    names = list(G.morphisms)
    for g in names:
        for f in names:
            composable = G.src(g) == G.tgt(f)
            present = (g, f) in G.compose_table
            if composable != present:
                return f"composition table wrong on pair ({g!r}, {f!r})"
            if present:
                gf = G.compose_table[(g, f)]
                if G.morphisms.get(gf) != (G.src(f), G.tgt(g)):
                    return f"composite {g!r} o {f!r} = {gf!r} is mistyped"
    for f in names:
        x, y = G.morphisms[f]
        if G.compose(f, G.identities[x]) != f or G.compose(G.identities[y], f) != f:
            return f"identity law fails at {f!r}"
    for h in names:
        for g in names:
            if G.src(h) != G.tgt(g):
                continue
            for f in names:
                if G.src(g) != G.tgt(f):
                    continue
                if G.compose(G.compose(h, g), f) != G.compose(h, G.compose(g, f)):
                    return f"associativity fails on ({h!r}, {g!r}, {f!r})"
    for f in names:
        x, y = G.morphisms[f]
        if not any(G.compose(g, f) == G.identities[x] and G.compose(f, g) == G.identities[y]
                   for g in G.hom(y, x)):
            return f"morphism {f!r} is not invertible"
    return None


def _with(G, compose=None, identities=None, morphisms=None):
    return FiniteGroupoid(G.objects, G.morphisms if morphisms is None else morphisms,
                          G.compose_table if compose is None else compose,
                          G.identities if identities is None else identities)


# a loop of order 5: 0 is a two-sided unit and every element is its own
# inverse, but (1 * 1) * 2 = 2 while 1 * (1 * 2) = 4
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _corruptions():
    """(kind, groupoid): one corrupted table per witness kind."""
    c3, mul3 = cyclic(3)
    G, name = group_groupoid("G", ["X", "Y"], c3, mul3)
    a, b = name[("X", "Y", 1)], name[("Y", "X", 2)]
    compose = dict(G.compose_table)
    del compose[(b, a)]
    yield "composition table wrong", _with(G, compose=compose)
    yield "composition table wrong", _with(G, compose={**G.compose_table, (a, a): a})
    yield "is mistyped", _with(G, compose={**G.compose_table, (b, a): "nowhere"})
    yield "is mistyped", _with(G, compose={**G.compose_table, (b, a): name[("Y", "Y", 0)]})
    yield "identity law fails", _with(G, identities={**G.identities, "Y": name[("Y", "Y", 1)]})
    yield "missing or mistyped identity", _with(G, identities={"X": a, "Y": name[("Y", "Y", 0)]})
    yield "unknown endpoints", _with(G, morphisms={**G.morphisms, a: ("X", "Z")})
    loop, _ = group_groupoid("L", ["*"], range(5), lambda h, g: _LOOP5[h][g])
    yield "associativity fails", loop
    monoid, _ = group_groupoid("M", ["*"], (0, 1), lambda h, g: h * g)
    yield "is not invertible", monoid


@pytest.mark.parametrize("kind,G", list(_corruptions()))
def test_check_groupoid_witness_matches_the_loops(kind, G):
    witness = check_groupoid(G)
    assert witness == check_groupoid_by_loops(G)
    assert kind in witness


def test_check_groupoid_matches_the_loops_on_random_corruptions():
    rng = random.Random(5)
    c3, mul3 = cyclic(3)
    G, _ = group_groupoid("G", ["X", "Y", "Z"], c3, mul3)
    names, pairs = list(G.morphisms), list(G.compose_table)
    kinds = collections.Counter()
    for _ in range(400):
        compose = dict(G.compose_table)
        for _ in range(rng.randrange(1, 3)):
            draw = rng.random()
            if draw < 0.1:
                compose.pop(rng.choice(pairs))
            elif draw < 0.2:
                compose[(rng.choice(names), rng.choice(names))] = rng.choice(names)
            else:  # a composable pair, mostly given a composite of the right type
                g, f = rng.choice(pairs)
                right_type = G.hom(G.src(f), G.tgt(g))
                compose[(g, f)] = rng.choice(right_type if draw < 0.9 else names)
        bad = _with(G, compose=compose)
        witness = check_groupoid(bad)
        assert witness == check_groupoid_by_loops(bad)
        kinds[witness.split(" ")[0] if witness else None] += 1
    # the draws reach every witness kind a table can cause
    assert set(kinds) >= {"composition", "composite", "identity", "associativity", None}, kinds


def _c4_power(rank):
    elements = tuple(itertools.product(range(4), repeat=rank))
    return group_groupoid("D", ["*"], elements, lambda a, b: tuple(
        (x + y) % 4 for x, y in zip(a, b)))


@pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupted"])
def test_groupoid_verify_checks_c4_to_the_fourth_quickly(tmp_path, corrupt, qdp4_process):
    # 256 morphisms, the splitting search's bound; a triple loop takes minutes
    G, name = _c4_power(4)
    if corrupt:
        compose = dict(G.compose_table)
        g, f = name[("*", "*", (1, 2, 3, 0))], name[("*", "*", (0, 3, 3, 1))]
        compose[(g, f)] = name[("*", "*", (1, 1, 1, 1))]
        G = _with(G, compose=compose)
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(G.to_json()))
    proc = qdp4_process(["groupoid", "verify", str(path)],
                        capture_output=True, text=True, timeout=10)
    report = json.loads(proc.stdout)
    assert proc.returncode == (1 if corrupt else 0), proc.stderr
    if corrupt:  # the loops meet the failing triple early, at the second h
        assert report == {"valid": False, "witness": check_groupoid_by_loops(G)}
        assert report["witness"].startswith("associativity fails")
    else:
        assert report == {"valid": True, "witness": None}


def _discrete_json(m):
    """The groupoid of m objects X0, X1, ... with identities only, each named as its object."""
    objects = tuple(f"X{i}" for i in range(m))
    return FiniteGroupoid(objects, {x: (x, x) for x in objects}, {(x, x): x for x in objects},
                          {x: x for x in objects}).to_json()


@pytest.mark.parametrize("where,m", [("groupoid", 512), ("groupoid", 513), ("target", 513)])
def test_groupoid_verify_past_the_morphism_bound_exits_1(tmp_path, qdp4_process, where, m):
    # check_groupoid's tables are m x m and its associativity pass m^3 steps:
    # past 512 morphisms, in the file or in a functor's target, it is refused
    path, fpath = tmp_path / "groupoid.json", tmp_path / "functor.json"
    path.write_text(json.dumps(_discrete_json(m if where == "groupoid" else 1)))
    fpath.write_text(json.dumps({"target": _discrete_json(m), "objects": {"X0": "X0"},
                                 "morphisms": {"X0": "X0"}}))
    functor = ["--functor", str(fpath)] if where == "target" else []
    proc = qdp4_process(["groupoid", "verify", str(path), *functor],
                        capture_output=True, text=True, timeout=30)
    if m == 512:
        assert proc.returncode == 0 and json.loads(proc.stdout) == {"valid": True, "witness": None}
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: 513 morphisms exceed the groupoid check's bound 512\n"
