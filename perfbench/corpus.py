"""Seeded inputs with answers known before qdp4 sees them.

A finite-field pencil is built block-diagonally from a prescribed
factorization pattern of its discriminant quintic over the base field F_q:

- a degree-1 block is the 1x1 pair (c r, c) for a point r of F_q, or (c, 0)
  for infinity;
- a degree-d block is the trace-form pair A_ij = Tr(c b^(i+j+1)),
  B_ij = Tr(c b^(i+j)) for b of exact degree d over F_q; then
  det(t0 A - t1 B) is a nonzero multiple of prod_j (t0 b_j - t1) over the
  conjugates b_j, so the degenerate points are exactly the b_j.

The block pencil is then hidden by a random congruence M^T (.) M with M in
GL5(F_q) and a basis change (A, B) -> (aA + bB, cA + dB), which moves every
degenerate point z to (a z + b) / (c z + d).  So the splitting degree, the
factor degrees, the Frobenius cycle lengths and the five points themselves
are known before the pencil is analysed.  Pencils over Q are built the same
way from five rational points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from arith import Ops, embed, field, moebius_apply, orbit_pairs, split_roots


def _mat_mul(ops, X, Y):
    n, m, r = len(X), len(Y[0]), len(Y)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ops.zero()
            for t in range(r):
                acc = ops.add(acc, ops.mul(X[i][t], Y[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _invertible(ops, M):
    rows = [list(r) for r in M]
    n = len(rows)
    for col in range(n):
        piv = next((i for i in range(col, n) if not ops.is_zero(rows[i][col])), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(col + 1, n):
            c = ops.div(rows[i][col], rows[col][col])
            rows[i] = [ops.sub(x, ops.mul(c, y)) for x, y in zip(rows[i], rows[col])]
    return True


class Pencil:
    """A generated pencil: its matrices, its degenerate points in a known
    field, and the data every check needs."""

    def __init__(self, base, A, B, pattern, blocks, moebius):
        self.base = base          # arith.Field, or None for Q
        self.A, self.B = A, B
        self.pattern = tuple(sorted(pattern))
        self.blocks = blocks      # ("inf",) | ("pt", r) | ("poly", coeffs, conjugates)
        self.moebius = moebius    # (a, b, c, d) over the base: block points -> points

    @property
    def ops(self):
        return Ops(self.base)

    def splitting_field(self):
        """The splitting field as an arith.Field (None over Q)."""
        if self.base is None:
            return None
        return field(self.base.p, self.base.k * lcm(*self.pattern))

    def to_json(self) -> dict:
        if self.base is None:
            desc = {"kind": "rationals"}
        elif self.base.k == 1:
            desc = {"kind": "prime-field", "p": self.base.p}
        else:
            desc = {"kind": "extension-field", "p": self.base.p, "degree": self.base.k}
        return {"field": desc,
                "A": [[self.ops.to_json(x) for x in row] for row in self.A],
                "B": [[self.ops.to_json(x) for x in row] for row in self.B]}

    def orbits(self, W=None):
        """The five degenerate points, normalized, grouped by Frobenius orbit
        over the base, over W (default: the splitting field).  Conjugates
        are reused when W is the splitting field; otherwise the block
        polynomials are split over W."""
        if self.base is None:
            ops, lift = Ops(), (lambda x: x)
        else:
            W = W or self.splitting_field()
            ops, lift = Ops(W), (lambda x: embed(self.base, W, x))
        m = tuple(lift(x) for x in self.moebius)
        out = []
        for blk in self.blocks:
            if blk[0] == "inf":
                raw = [(ops.one(), ops.zero())]
            elif blk[0] == "pt":
                raw = [(lift(blk[1]), ops.one())]
            elif W == self.splitting_field():
                raw = [(b, ops.one()) for b in blk[2]]
            else:
                roots = split_roots(W, [lift(c) for c in blk[1]], random.Random(len(out)))
                raw = [(b, ops.one()) for b in roots]
            out.append([moebius_apply(ops, m, pt) for pt in raw])
        return out

    def points(self, W=None):
        return [pt for orbit in self.orbits(W) for pt in orbit]

    def factors_json(self):
        """The affine factors of the quintic as `qdp4 analyze` prints them:
        monic, sorted by degree and then by coefficients."""
        W = self.splitting_field()
        ops = Ops(W)
        back = (lambda x: x) if W is None else _to_base(self.base, W)
        out = []
        for orbit in self.orbits():
            if any(ops.is_zero(v) for _, v in orbit):
                continue
            poly = [ops.one()]
            for z, _ in orbit:
                poly = [ops.sub(x, ops.mul(z, y)) for x, y in
                        zip([ops.zero()] + poly, poly + [ops.zero()])]
            out.append([back(c) for c in poly])
        out.sort(key=lambda f: (len(f), f))
        base_ops = Ops(self.base)
        if self.base is None:
            return [{"root": base_ops.to_json(r), "degree": 1, "multiplicity": 1}
                    for r in sorted(-f[0] for f in out)]
        return [{"coeffs": [base_ops.to_json(c) for c in f], "degree": len(f) - 1,
                 "multiplicity": 1} for f in out]

    def includes_infinity(self) -> bool:
        ops = Ops(self.splitting_field())
        return any(ops.is_zero(v) for _, v in self.points())

    def hidden(self, rng):
        """The same pencil under a random congruence M^T (.) M and basis
        change (a, b; c, d).  Over F_q both are uniform in GL5 and GL2.  Over
        Q both are unimodular with entries in {-1, 0, 1} mostly, so that the
        height of the pencil stays that of its points."""
        ops = self.ops
        if self.base is None:
            M = _unimodular(rng, 5, 6)
            (a, b), (c, d) = _unimodular(rng, 2, 1)
        else:
            while True:
                M = [[self.base.random(rng) for _ in range(5)] for _ in range(5)]
                if _invertible(ops, M):
                    break
            while True:
                a, b, c, d = (self.base.random(rng) for _ in range(4))
                if not ops.is_zero(ops.sub(ops.mul(a, d), ops.mul(b, c))):
                    break
        MT = [list(r) for r in zip(*M)]
        A1 = _mat_mul(ops, MT, _mat_mul(ops, self.A, M))
        B1 = _mat_mul(ops, MT, _mat_mul(ops, self.B, M))
        A = [[ops.add(ops.mul(a, x), ops.mul(b, y)) for x, y in zip(r, s)]
             for r, s in zip(A1, B1)]
        B = [[ops.add(ops.mul(c, x), ops.mul(d, y)) for x, y in zip(r, s)]
             for r, s in zip(A1, B1)]
        a0, b0, c0, d0 = self.moebius
        composed = (ops.add(ops.mul(a, a0), ops.mul(b, c0)),
                    ops.add(ops.mul(a, b0), ops.mul(b, d0)),
                    ops.add(ops.mul(c, a0), ops.mul(d, c0)),
                    ops.add(ops.mul(c, b0), ops.mul(d, d0)))
        return Pencil(self.base, A, B, self.pattern, self.blocks, composed)


def _unimodular(rng, n, steps):
    """A random n x n integer matrix of determinant +-1: a signed permutation
    followed by `steps` elementary row additions."""
    perm = list(range(n))
    rng.shuffle(perm)
    M = [[Fraction(rng.choice((-1, 1)) if j == perm[i] else 0) for j in range(n)]
         for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        M[i] = [x + s * y for x, y in zip(M[i], M[j])]
    return M


def _block_diagonal(zero, blocks):
    A = [[zero] * 5 for _ in range(5)]
    B = [[zero] * 5 for _ in range(5)]
    at = 0
    for a_blk, b_blk in blocks:
        n = len(a_blk)
        for i in range(n):
            for j in range(n):
                A[at + i][at + j] = a_blk[i][j]
                B[at + i][at + j] = b_blk[i][j]
        at += n
    return A, B


def _proper_divisors(d):
    return [e for e in range(1, d) if d % e == 0]


def finite_pencil(p: int, k: int, pattern, rng) -> Pencil:
    """The block pencil over F_{p^k} whose quintic factors with the given
    degrees; callers hide it with `Pencil.hidden`."""
    F = field(p, k)
    m = lcm(*pattern)
    W = field(p, k * m)
    q = F.q
    back = _to_base(F, W)

    def frob(y, times=1):
        for _ in range(times):
            y = W.pow(y, q)
        return y

    def subfield_element(d):
        # trace from W down to F_{q^d}
        y = acc = W.random(rng)
        for _ in range(m // d - 1):
            y = frob(y, d)
            acc = W.add(acc, y)
        return acc

    used_points = set()
    mats, blocks = [], []
    for d in sorted(pattern, reverse=True):
        if d == 1:
            while True:
                r = None if rng.randrange(q + 1) == q else F.random(rng)
                if r not in used_points:
                    break
            used_points.add(r)
            c = F.random_nonzero(rng)
            if r is None:
                mats.append(([[c]], [[F.zero]]))
                blocks.append(("inf",))
            else:
                mats.append(([[F.mul(c, r)]], [[c]]))
                blocks.append(("pt", r))
            continue
        while True:
            beta = subfield_element(d)
            if all(frob(beta, e) != beta for e in _proper_divisors(d)):
                conj = [beta]
                for _ in range(d - 1):
                    conj.append(frob(conj[-1]))
                if not used_points.intersection(conj):
                    break
        used_points.update(conj)
        while True:
            c = subfield_element(d)
            if not W.is_zero(c):
                break
        cconj = [c]
        for _ in range(d - 1):
            cconj.append(frob(cconj[-1]))
        power_sums = []
        pw = [W.one] * d
        for _ in range(2 * d):
            s = W.zero
            for cj, bj in zip(cconj, pw):
                s = W.add(s, W.mul(cj, bj))
            power_sums.append(back(s))
            pw = [W.mul(x, b) for x, b in zip(pw, conj)]
        mats.append(([[power_sums[i + j + 1] for j in range(d)] for i in range(d)],
                     [[power_sums[i + j] for j in range(d)] for i in range(d)]))
        minpoly = [W.one]
        for b in conj:
            minpoly = [W.sub(x, W.mul(b, y)) for x, y in
                       zip([W.zero] + minpoly, minpoly + [W.zero])]
        blocks.append(("poly", [back(x) for x in minpoly], conj))
    A, B = _block_diagonal(F.zero, mats)
    return Pencil(F, A, B, pattern, blocks, (F.one, F.zero, F.zero, F.one))


@lru_cache(maxsize=None)
def _to_base(F, W):
    """Inverse of the canonical embedding F -> W on its image."""
    if F.k == 1:
        def back(w):
            if any(w[1:]):
                raise ValueError(f"{w} does not lie in {F}")
            return w[:1]
        return back
    table = {}
    for n in range(F.q):
        e = []
        for _ in range(F.k):
            e.append(n % F.p)
            n //= F.p
        table[embed(F, W, tuple(e))] = tuple(e)
    return table.__getitem__


def rational_pencil(points) -> Pencil:
    """The diagonal pencil over Q with the given five distinct rational
    points (None for infinity); callers hide it with `Pencil.hidden`."""
    mats, blocks = [], []
    for z in points:
        if z is None:
            mats.append(([[Fraction(1)]], [[Fraction(0)]]))
            blocks.append(("inf",))
        else:
            mats.append(([[Fraction(z.numerator)]], [[Fraction(z.denominator)]]))
            blocks.append(("pt", Fraction(z)))
    A, B = _block_diagonal(Fraction(0), mats)
    one, zero = Fraction(1), Fraction(0)
    return Pencil(None, A, B, (1,) * 5, blocks, (one, zero, zero, one))


def isomorphic_points(ops, pts1, pts2) -> bool:
    """Whether two five-point sets have the same orbit of normal forms."""
    return orbit_pairs(ops, pts1) == orbit_pairs(ops, pts2)
