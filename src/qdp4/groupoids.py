"""Finite groupoids given by explicit tables, functors between them, and
construction/verification of composition-compatible left inverses on hom-sets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import ResourceLimitError


MAX_SPLITTING_GROUP_ORDER = 256  # find_splitting's brute-force bound on |Aut_D|
MAX_GROUPOID_MORPHISMS = 512  # check_groupoid's m x m tables: m^2 memory, m^3 time


class InvalidGroupError(ValueError):
    pass


class InvalidSplittingError(ValueError):
    pass


class IncompatibleFamilyError(ValueError):
    """The splitting family violates the conjugation-compatibility squares."""


@dataclass(frozen=True)
class FiniteGroupoid:
    objects: tuple
    morphisms: dict          # name -> (src, tgt)
    compose_table: dict      # (g, f) -> g o f, for f: X->Y, g: Y->Z
    identities: dict         # object -> identity morphism name

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def compose(self, g, f):
        """g o f (f first)."""
        return self.compose_table[(g, f)]

    @cached_property
    def _homs(self) -> dict:
        """(x, y) -> the sorted names of Hom(x, y), built on the first `hom`;
        not a field, so it stays out of ==, hash and repr."""
        homs = {}
        for n, st in sorted(self.morphisms.items()):
            homs.setdefault(st, []).append(n)
        return homs

    def hom(self, x, y):
        return list(self._homs.get((x, y), ()))

    def aut(self, x):
        return self.hom(x, x)

    def inverse(self, f):
        x, y = self.morphisms[f]
        for g in self.hom(y, x):
            if (self.compose(g, f) == self.identities[x]
                    and self.compose(f, g) == self.identities[y]):
                return g
        raise InvalidGroupError(f"morphism {f} has no inverse")

    def iso_classes(self):
        """Partition of objects by isomorphism, each class sorted."""
        remaining = set(self.objects)
        classes = []
        for x in self.objects:
            if x not in remaining:
                continue
            cls = [y for y in self.objects if self.hom(x, y)]
            classes.append(tuple(sorted(cls, key=str)))
            remaining -= set(cls)
        return classes

    def to_json(self):
        return {"objects": list(self.objects),
                "morphisms": [{"name": n, "src": s, "tgt": t}
                              for n, (s, t) in sorted(self.morphisms.items())],
                "compose": [[g, f, gf] for (g, f), gf in sorted(self.compose_table.items())],
                "identities": dict(sorted(self.identities.items()))}

    @classmethod
    def from_json(cls, obj):
        """The shape README gives; every name is a string, as a functor's map keys are."""
        lists = obj["objects"], obj["morphisms"], obj["compose"], *obj["compose"]
        if (any(type(x) is not list for x in lists) or any(len(c) != 3 for c in lists[3:])
                or not isinstance(obj["identities"], dict)):
            raise ValueError("objects, morphisms and compose must be lists, each compose entry "
                             "[g, f, g o f], and identities an object")
        morphisms = {m["name"]: (m["src"], m["tgt"]) for m in obj["morphisms"]}
        compose = {(g, f): gf for g, f, gf in obj["compose"]}
        G = cls(tuple(obj["objects"]), morphisms, compose, dict(obj["identities"]))
        _require_names(G.objects, G.morphisms, *G.morphisms.values(), *G.compose_table,
                       G.compose_table.values(), G.identities, G.identities.values())
        return G


def _require_names(*groups):
    bad = [name for group in groups for name in group if not isinstance(name, str)]
    if bad:
        raise ValueError(f"names must be strings, not {bad[0]!r}")


def check_groupoid(G: FiniteGroupoid):
    """None if G satisfies the groupoid axioms, else a witness message.
    More than MAX_GROUPOID_MORPHISMS morphisms raise ResourceLimitError."""
    if len(G.morphisms) > MAX_GROUPOID_MORPHISMS:
        raise ResourceLimitError(f"{len(G.morphisms)} morphisms exceed the groupoid check's "
                                 f"bound {MAX_GROUPOID_MORPHISMS}")
    for x in G.objects:
        e = G.identities.get(x)
        if e is None or G.morphisms.get(e) != (x, x):
            return f"missing or mistyped identity at object {x!r}"
    for n, (s, t) in G.morphisms.items():
        if s not in G.objects or t not in G.objects:
            return f"morphism {n!r} has unknown endpoints"
    names = list(G.morphisms)
    m = len(names)
    index = {n: i for i, n in enumerate(names)}
    objects = {x: i for i, x in enumerate(G.objects)}
    src = np.array([objects[s] for s, _ in G.morphisms.values()], dtype=np.int64)
    tgt = np.array([objects[t] for _, t in G.morphisms.values()], dtype=np.int64)
    # table[g, f]: the index of g o f; -1 without an entry, m for a composite
    # that is no morphism.  Every check reads it in (h, g, f) name order, so
    # each witness is the first failing one in that order.
    table = np.full((m, m), -1, dtype=np.int64)
    for (g, f), gf in G.compose_table.items():
        if g in index and f in index:
            table[index[g], index[f]] = index.get(gf, m)
    composable = src[:, None] == tgt
    present = table >= 0
    typed = (np.append(src, -1)[table] == src) & (np.append(tgt, -1)[table] == tgt[:, None])
    wrong = (composable != present) | (present & ~typed)
    if wrong.any():
        i, j = divmod(int(wrong.argmax()), m)
        g, f = names[i], names[j]
        if composable[i, j] != present[i, j]:
            return f"composition table wrong on pair ({g!r}, {f!r})"
        return f"composite {g!r} o {f!r} = {G.compose_table[(g, f)]!r} is mistyped"
    ident = np.array([index[G.identities[x]] for x in G.objects], dtype=np.int64)
    each = np.arange(m)
    unit = (table[each, ident[src]] == each) & (table[ident[tgt], each] == each)
    if not unit.all():
        return f"identity law fails at {names[int(unit.argmin())]!r}"
    for h, hg in enumerate(table):  # hg[g] = h o g, one m x m step per h
        fails = (hg >= 0)[:, None] & present & (table[hg] != hg[table])
        if fails.any():
            g, f = divmod(int(fails.argmax()), m)
            return f"associativity fails on ({names[h]!r}, {names[g]!r}, {names[f]!r})"
    inverse = (table.T == ident[src][:, None]) & (table == ident[tgt][:, None])
    invertible = inverse.any(axis=1)
    if not invertible.all():
        return f"morphism {names[int(invertible.argmin())]!r} is not invertible"
    return None


@dataclass(frozen=True)
class GroupoidFunctor:
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: dict
    morphism_map: dict

    @classmethod
    def from_json(cls, source: FiniteGroupoid, obj):
        """{"target": a groupoid, "objects" and "morphisms": maps of names}."""
        maps = obj["objects"], obj["morphisms"]
        if not all(isinstance(m, dict) for m in maps):
            raise ValueError("the object and morphism maps must be JSON objects")
        _require_names(*maps, *(m.values() for m in maps))
        return cls(source, FiniteGroupoid.from_json(obj["target"]), *maps)

    def ob(self, x):
        return self.object_map[x]

    def mor(self, f):
        return self.morphism_map[f]


def check_functor(phi: GroupoidFunctor):
    C, D = phi.source, phi.target
    for x in C.objects:
        if phi.object_map.get(x) not in D.objects:
            return f"object {x!r} has no image"
        if phi.morphism_map.get(C.identities[x]) != D.identities[phi.ob(x)]:
            return f"identity at {x!r} not preserved"
    for f, (s, t) in C.morphisms.items():
        img = phi.morphism_map.get(f)
        if img is None or D.morphisms.get(img) != (phi.ob(s), phi.ob(t)):
            return f"morphism {f!r} mistyped under the functor"
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src(g) != C.tgt(f):
                continue
            if phi.mor(C.compose(g, f)) != D.compose(phi.mor(g), phi.mor(f)):
                return f"composition not preserved on ({g!r}, {f!r})"
    return None


def injective_on_iso_classes(phi: GroupoidFunctor) -> bool:
    C, D = phi.source, phi.target
    reps = [cls[0] for cls in C.iso_classes()]
    for x, y in itertools.combinations(reps, 2):
        if D.hom(phi.ob(x), phi.ob(y)):
            return False
    return True


# ---------------------------------------------------------------------------
# Splittings and the hom-set left inverses
# ---------------------------------------------------------------------------

def _check_splitting(phi: GroupoidFunctor, x0, psi: dict):
    """psi: Aut_D(phi(x0)) -> Aut_C(x0) must be a left-inverse homomorphism."""
    C, D = phi.source, phi.target
    aut_d = D.aut(phi.ob(x0))
    aut_c = C.aut(x0)
    if sorted(psi) != aut_d:
        return f"splitting at {x0!r} is not defined on the full automorphism group"
    if any(psi[u] not in aut_c for u in aut_d):
        return f"splitting at {x0!r} does not land in Aut({x0!r})"
    for u in aut_d:
        for v in aut_d:
            if psi[D.compose(v, u)] != C.compose(psi[v], psi[u]):
                return f"splitting at {x0!r} is not a homomorphism on ({v!r}, {u!r})"
    for g in aut_c:
        if psi[phi.mor(g)] != g:
            return f"splitting at {x0!r} is not a left inverse on {g!r}"
    return None


def standard_choice(C: FiniteGroupoid):
    """The admissible choice build_psi makes: each isomorphism class's first
    object is its base object, and X's isomorphism is the first morphism
    base -> X by name.  Returns (base_objects, isos); the base objects appear
    in class order."""
    base_objects, isos = {}, {}
    for cls in C.iso_classes():
        for x in cls:
            base_objects[x] = cls[0]
            isos[x] = C.hom(cls[0], x)[0]
    return base_objects, isos


def build_psi(phi: GroupoidFunctor, psi_by_base: dict):
    """Total family Psi[(X, Y)][u] of hom-set left inverses from the splittings
    psi_by_base[x0] at the standard choice's base objects: Psi_{X,Y} is the
    _psi_table of the chosen isomorphisms to X and Y."""
    C = phi.source
    if not injective_on_iso_classes(phi):
        raise InvalidSplittingError("functor is not injective on isomorphism classes")
    for x0, psi in psi_by_base.items():
        witness = _check_splitting(phi, x0, psi)
        if witness:
            raise InvalidSplittingError(witness)
    base_objects, isos = standard_choice(C)
    for x0 in base_objects.values():
        if x0 not in psi_by_base:
            raise InvalidSplittingError(f"no splitting supplied for base object {x0!r}")
    return {(x, y): _psi_table(phi, psi_by_base[base_objects[x]], isos[x], isos[y])
            for x in C.objects for y in C.objects if base_objects[x] == base_objects[y]}


def _psi_table(phi: GroupoidFunctor, psi: dict, ix, iy):
    """Psi_{X,Y} from the splitting psi at a base object x0 and isomorphisms
    ix: x0 -> X, iy: x0 -> Y, as {u: iy o psi(phi(iy)^{-1} o u o phi(ix)) o ix^{-1}}
    over u in Hom_D(phi(X), phi(Y))."""
    C, D = phi.source, phi.target
    phix, phiy_inv, ix_inv = phi.mor(ix), D.inverse(phi.mor(iy)), C.inverse(ix)
    return {u: C.compose(iy, C.compose(psi[D.compose(phiy_inv, D.compose(u, phix))], ix_inv))
            for u in D.hom(phi.ob(C.tgt(ix)), phi.ob(C.tgt(iy)))}


def verify_heavy_separability(phi: GroupoidFunctor, Psi: dict):
    """(True, None) iff retraction (s1) and multiplicativity (s3) hold
    exhaustively; otherwise (False, witness)."""
    C, D = phi.source, phi.target
    for f, (x, y) in C.morphisms.items():
        table = Psi.get((x, y), {})
        if table.get(phi.mor(f)) != f:
            return False, f"(s1) fails on morphism {f!r}"
    for x in C.objects:
        for y in C.objects:
            if (x, y) not in Psi:
                continue
            for z in C.objects:
                if (y, z) not in Psi:
                    continue
                for u in D.hom(phi.ob(x), phi.ob(y)):
                    for v in D.hom(phi.ob(y), phi.ob(z)):
                        lhs = Psi[(x, z)][D.compose(v, u)]
                        rhs = C.compose(Psi[(y, z)][v], Psi[(x, y)][u])
                        if lhs != rhs:
                            return False, f"(s3) fails on ({v!r}, {u!r}) at ({x!r},{y!r},{z!r})"
    return True, None


def family_compatible(phi: GroupoidFunctor, psi_all: dict):
    """Check the conjugation-compatibility squares for a full splitting family
    psi_all[X] defined at every object; returns witness or None."""
    C, D = phi.source, phi.target
    for x in C.objects:
        witness = _check_splitting(phi, x, psi_all[x])
        if witness:
            return witness
    for a, (x, xp) in C.morphisms.items():
        pa = phi.mor(a)
        pa_inv = D.inverse(pa)
        a_inv = C.inverse(a)
        for u in D.aut(phi.ob(x)):
            lhs = psi_all[xp][D.compose(pa, D.compose(u, pa_inv))]
            rhs = C.compose(a, C.compose(psi_all[x][u], a_inv))
            if lhs != rhs:
                return f"compatibility square fails on ({a!r}, {u!r})"
    return None


def independence_check(phi: GroupoidFunctor, psi_all: dict) -> bool:
    """Under a compatible family, the Psi built from any admissible choice of
    base objects and isomorphisms coincide.

    A choice's Psi_{X,Y} is the _psi_table of its base x0 and its isomorphisms
    ix: x0 -> X, iy: x0 -> Y, so comparing the table of every such triple in
    every class with the standard choice's Psi covers every choice: about
    n^3 g^2 tables for a class of n objects with automorphism groups of order g.
    """
    C = phi.source
    witness = family_compatible(phi, psi_all)
    if witness:
        raise IncompatibleFamilyError(witness)
    reference = build_psi(phi, {x0: psi_all[x0] for x0 in standard_choice(C)[0].values()})
    return all(_psi_table(phi, psi_all[x0], ix, iy) == reference[(x, y)]
               for cls in C.iso_classes() for x0 in cls for x in cls for y in cls
               for ix in C.hom(x0, x) for iy in C.hom(x0, y))


def find_splitting(phi: GroupoidFunctor, x0):
    """A left-inverse homomorphism psi: Aut_D(phi(x0)) -> Aut_C(x0), or None.

    psi(phi(g)) = g is forced: generators are picked greedily, those of
    phi(Aut_C) first, and psi grows one generator at a time, so only the at
    most log2(|Aut_D| / |Aut_C|) generators outside phi(Aut_C) have images
    to try (at most 2^16 combinations under MAX_SPLITTING_GROUP_ORDER)."""
    C, D = phi.source, phi.target
    aut_d = D.aut(phi.ob(x0))
    aut_c = C.aut(x0)
    if len(aut_d) > MAX_SPLITTING_GROUP_ORDER:
        raise ResourceLimitError(f"|Aut_D| = {len(aut_d)} exceeds the splitting search "
                                 f"bound {MAX_SPLITTING_GROUP_ORDER}")
    forced = {phi.mor(g): g for g in aut_c}
    if len(forced) != len(aut_c):
        return None  # phi not injective on Aut, no left inverse can exist
    order = sorted(aut_d, key=lambda u: u not in forced)

    def extend(psi, gens):
        g = next((u for u in order if u not in psi), None)
        if g is None:
            return psi
        for h in [forced[g]] if g in forced else aut_c:
            grown = _closure(phi, psi, gens + [(g, h)])
            found = grown and extend(grown, gens + [(g, h)])
            if found:
                return found
        return None

    return extend({D.identities[phi.ob(x0)]: C.identities[x0]}, [])


def _closure(phi: GroupoidFunctor, psi: dict, gens):
    """psi closed under psi(a o g) = psi(a) o h for the pairs (g, h) in gens,
    which makes it a homomorphism on the group the g generate, or None when
    that contradicts a value already set."""
    C, D = phi.source, phi.target
    psi = dict(psi)
    frontier = list(psi)
    while frontier:
        a = frontier.pop()
        for g, h in gens:
            prod, val = D.compose(a, g), C.compose(psi[a], h)
            if prod not in psi:
                psi[prod] = val
                frontier.append(prod)
            elif psi[prod] != val:
                return None
    return psi


# ---------------------------------------------------------------------------
# Constructions (used by tests and the CLI selftest)
# ---------------------------------------------------------------------------

def group_groupoid(tag: str, objects, elements, mul):
    """Connected groupoid with Hom(X, Y) = {(X, Y, g)}: composition
    (Y,Z,h) o (X,Y,g) = (X,Z,h*g).  Morphism names are f"{tag}:{X}>{Y}:{g}"."""
    objects = tuple(objects)
    name = {}
    morphisms = {}
    for x in objects:
        for y in objects:
            for g in elements:
                n = f"{tag}:{x}>{y}:{g}"
                name[(x, y, g)] = n
                morphisms[n] = (x, y)
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                for g in elements:
                    for h in elements:
                        compose[(name[(y, z, h)], name[(x, y, g)])] = name[(x, z, mul(h, g))]
    ident = next(e for e in elements if all(mul(e, g) == g and mul(g, e) == g
                                            for g in elements))
    identities = {x: name[(x, x, ident)] for x in objects}
    return FiniteGroupoid(objects, morphisms, compose, identities), name


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    objects = g1.objects + g2.objects
    if set(g1.objects) & set(g2.objects):
        raise ValueError("object names collide")
    morphisms = {**g1.morphisms, **g2.morphisms}
    compose = {**g1.compose_table, **g2.compose_table}
    identities = {**g1.identities, **g2.identities}
    return FiniteGroupoid(objects, morphisms, compose, identities)
