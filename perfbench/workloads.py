"""The four workloads: seeded inputs, the operations timed on them, and the
checks each output must pass.

Every workload is one closed loop with one client: an operation starts when
the previous one has returned.  `analyze`, `iso` and `count-points` run
in-process through `qdp4.cli.main`, each on a freshly parsed input file, so
no QuadricPencil cache carries over between operations.  `selftest` runs
as a fresh process each time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm

from arith import Ops, aut_maps, canonical_invariant_json, field, moebius_apply
from corpus import finite_pencil, isomorphic_points, rational_pencil
from hostspeed import NUMPY, PYTHON

PATTERNS = ((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (4, 1), (5,), (3, 2))
PARTNER_EVERY = 5  # every fifth pencil is paired with a non-isomorphic partner
FP_PER_STRATUM = 2  # pencils per row of fp_strata, so that no one pencil sets op_ms.p90
MAX_COMMON_DEGREE = 12  # GF(p, k * lcm of both splitting degrees) for a pair

SUITE_NAMES = ("field-arith", "zero-class-census", "weyl-order-1920",
               "retract-homomorphism", "rank-formulas", "lefschetz-consistency",
               "normal-form-eq-pencil", "torelli-roundtrip", "fiber-product-order",
               "serre-certificate", "heavy-separability")


def _feasible(p, k, pattern):
    # five distinct degenerate points need q + 1 >= number of rational ones
    return p ** k + 1 >= pattern.count(1)


def _partner_pattern(p, k, pattern):
    """For small fields, the next pattern in PATTERNS whose common splitting
    field stays within MAX_COMMON_DEGREE; near p = 1000, the same pattern,
    because a larger common field costs seconds per pair there."""
    if p > 100:
        return pattern
    i = PATTERNS.index(pattern)
    for step in range(1, len(PATTERNS)):
        cand = PATTERNS[(i + step) % len(PATTERNS)]
        if _feasible(p, k, cand) and k * lcm(*pattern, *cand) <= MAX_COMMON_DEGREE:
            return cand
    return pattern


def fp_strata():
    """(p, k, pattern, partner pattern or None): the same table for every
    seed, so that runs with different seeds measure the same mix."""
    rows = []
    for p in (3, 5, 7, 11, 13, 1009):
        rows.extend((p, 1, pat) for pat in PATTERNS if _feasible(p, 1, pat))
    for (p, k), picks in (((3, 2), (0, 2, 4, 6)), ((5, 2), (0, 1, 3, 5)),
                          ((3, 3), (0, 1, 2, 3))):
        rows.extend((p, k, PATTERNS[i]) for i in picks)
    return [(p, k, pat, _partner_pattern(p, k, pat) if i % PARTNER_EVERY == PARTNER_EVERY - 1
             else None) for i, (p, k, pat) in enumerate(rows)]


Q_HEIGHTS = (8, 16, 32, 64, 128, 256)
Q_PER_HEIGHT = 20


def _rational_of_height(rng, H):
    while True:
        n, d = rng.randint(-H, H), rng.randint(1, H)
        z = Fraction(n, d)
        if max(abs(z.numerator), z.denominator) > H // 2 and z not in (0, 1):
            return z


def _normal_form_points(rng, H):
    while True:
        lam, mu = _rational_of_height(rng, H), _rational_of_height(rng, H)
        if lam != mu:
            return [None, Fraction(0), Fraction(1), lam, mu]


COUNT_CASES = ((7, 2), (3, 4))  # q = 49, 81


def _problem(cond, text, problems):
    if not cond:
        problems.append(text)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Op:
    """One timed operation: a CLI invocation and the check of its output."""

    def __init__(self, item, kind, argv, check):
        self.item, self.kind, self.argv, self.check = item, kind, argv, check
        self.key = f"{item}/{kind}"


def run_cli(qdp4, argv):
    """Run `qdp4 <argv>` in-process; returns (ns, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        code = qdp4.cli.main(argv)
        ns = time.perf_counter_ns() - t0
    return ns, code, out.getvalue()


class Workload:
    name = ""
    golden = False  # whether the default seed's outputs are pinned by digest
    repeats = 2     # passes at least; ops that run twice must print the same bytes
    probe = PYTHON  # host speed probe for the ops (hostspeed)
    probes = 9      # its runs on each side of an op

    def __init__(self, seed, workdir, root):
        self.seed, self.workdir, self.root = seed, workdir, root
        self.ops = []       # the operations of one pass, in order
        self.items = 0      # work items per pass (pencils, counts, processes)

    def write(self, name, pencil):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(pencil.to_json(), fh)
        return path

    def run(self, qdp4, op):
        return run_cli(qdp4, op.argv)

    def setup(self, qdp4):
        raise NotImplementedError

    def report(self, lat, passes):
        """Lines with the workload's own metrics, from {op key: (op, ms)}."""
        return []


def _summary(name, vals):
    return (f"{name}.p50 = {statistics.median(vals):.2f} ms, "
            f"{name}.p90 = {p90(vals):.2f} ms (n = {len(vals)})")


def p90(vals):
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=10, method="inclusive")[8]


# --- invariants over F_q and Q -------------------------------------------------

def _parse_scalar(W, s):
    if W is None:
        return Fraction(s)
    if isinstance(s, int):
        return W(s)
    return tuple(int(c) for c in s.strip("[]").split(","))


def _check_analyze(pencil, code, out):
    problems = []
    if code != 0:
        return [f"exit {code}"]
    rep = json.loads(out)
    W = pencil.splitting_field()
    ops = Ops(W)
    pts = pencil.points()
    inv = canonical_invariant_json(ops, pts)
    dp = rep.get("degenerate_points") or {}
    _problem(rep.get("smooth") is True, "not smooth", problems)
    _problem(dp.get("affine_factors") == pencil.factors_json(), "affine factors", problems)
    _problem(dp.get("includes_infinity") == pencil.includes_infinity(), "infinity", problems)
    if W is None:
        want = {"kind": "rationals"}
    elif W.k == 1:
        want = {"kind": "prime-field", "p": W.p}
    else:
        want = {"kind": "extension-field", "p": W.p, "degree": W.k, "modulus": list(W.modulus)}
    _problem(rep.get("splitting_field") == want, "splitting field", problems)
    _problem(rep.get("canonical_invariant") == inv, "canonical invariant", problems)
    auts = aut_maps(ops, pts)
    if W is not None:  # keep the maps whose normalized entries lie in the base field
        auts = [m for m in auts if all(W.in_subfield(x, pencil.base.k) for x in m)]
    _problem(rep.get("aut_p_geometric_order") == 120 // len(inv), "geometric aut order", problems)
    _problem(rep.get("aut_p_order") == len(auts), "base-rational aut order", problems)
    _problem(rep.get("aut_x_order") == 16 * len(auts), "aut_x order", problems)
    sig = rep.get("signature")
    if pencil.base is not None and pencil.base.k > 1:
        _problem(sig is None, "signature over an extension base", problems)
    else:
        _problem(sig is not None and sorted(c[0] for c in sig) == sorted(pencil.pattern),
                 "cycle lengths", problems)
    return problems


def _check_iso_copy(P1, P2, code, out):
    if code != 0:
        return [f"exit {code}"]
    rep = json.loads(out)
    cert = (rep.get("certificate") or {})
    W = P1.splitting_field()
    ops = Ops(W)
    (a, b), (c, d) = cert["moebius"]
    m = tuple(_parse_scalar(W, x) for x in (a, b, c, d))
    image = {moebius_apply(ops, m, pt) for pt in P1.points()}
    problems = []
    _problem(rep.get("isomorphic") is True, "verdict", problems)
    _problem(image == set(P2.points()), "certificate does not map the points", problems)
    if W is None:
        base_rational = True
    else:
        base_rational = all(W.in_subfield(x, P1.base.k) for x in m)
    _problem(cert.get("base_rational") == base_rational, "base_rational", problems)
    return problems


def _check_iso_partner(code, out):
    if code != 1:
        return [f"exit {code}"]
    rep = json.loads(out)
    return [] if rep == {"isomorphic": False, "certificate": None} else ["verdict"]


class Invariants(Workload):
    """analyze, then iso against a hidden copy or a non-isomorphic partner."""

    golden = True
    repeats = 1  # one pass: 212 ops take 20 to 35 s, 240 ops 8 to 17 s
    probes = 3   # short ops: a few probes a side, and many ops to average over

    def add_pencil(self, i, label, P1, P2, partner):
        a = self.write(f"{i}a.json", P1)
        b = self.write(f"{i}b.json", P2)
        item = f"{i}:{label}"
        self.ops.append(Op(item, "analyze", ["analyze", a],
                           lambda code, out: _check_analyze(P1, code, out)))
        if partner:
            check = _check_iso_partner
        else:
            check = lambda code, out: _check_iso_copy(P1, P2, code, out)
        self.ops.append(Op(item, "iso", ["iso", a, b], check))
        self.items += 1

    def warm_up(self, qdp4):
        for op in self.ops[:2]:
            self.run(qdp4, op)

    def report(self, lat, passes):
        by_kind = {}
        for op, ms in lat.values():
            by_kind.setdefault(op.kind, {})[op.item] = ms
        out = [_summary(f"{kind}_ms", list(v.values())) for kind, v in sorted(by_kind.items())]
        both = [by_kind["analyze"][i] + by_kind["iso"][i]
                for i in by_kind.get("analyze", {}) if i in by_kind.get("iso", {})]
        if both:
            out.append(f"pencils_per_s = {len(both) / (sum(both) / 1e3):.3f} 1/s "
                       f"(analyze and iso both completed)")
        return out


class FpInvariants(Invariants):
    name = "fp-invariants"

    def setup(self, qdp4):
        fields_used = set()
        for i, (p, k, pat, partner) in enumerate(fp_strata() * FP_PER_STRATUM):
            rng = random.Random(f"{self.name}/{self.seed}/{i}")
            base = finite_pencil(p, k, pat, rng)
            P1 = base.hidden(rng)
            if partner is None:
                P2 = base.hidden(rng)
            else:
                P2 = self._partner(p, k, partner, P1, rng)
            label = f"F{p}^{k} {''.join(map(str, pat))}"
            if partner:
                label += f" vs {''.join(map(str, partner))}"
            self.add_pencil(i, label, P1, P2, partner is not None)
            m1, m2 = lcm(*pat), lcm(*(partner or pat))
            fields_used.update({(p, k, k * m1), (p, k, k * m2), (p, k, k * lcm(m1, m2))})
        # Fill the process-wide field caches (GF, _canonical_modulus,
        # _embedding_image) for every field the timed pass touches.
        for p, k, K in sorted(fields_used):
            qdp4.GF(p, K)
            if k > 1:
                qdp4.fields.embed(qdp4.GF(p, k).gen(), qdp4.GF(p, K))
        self.warm_up(qdp4)

    @staticmethod
    def _partner(p, k, pattern, P1, rng):
        W = field(p, k * lcm(*P1.pattern, *pattern))
        ops = Ops(W)
        pts1 = P1.points(W)
        while True:
            P2 = finite_pencil(p, k, pattern, rng).hidden(rng)
            if not isomorphic_points(ops, pts1, P2.points(W)):
                return P2


class QInvariants(Invariants):
    name = "q-invariants"

    def setup(self, qdp4):
        heights = [H for H in Q_HEIGHTS for _ in range(Q_PER_HEIGHT)]
        for i, H in enumerate(heights):
            rng = random.Random(f"{self.name}/{self.seed}/{i}")
            base = rational_pencil(_normal_form_points(rng, H))
            P1 = base.hidden(rng)
            partner = i % PARTNER_EVERY == PARTNER_EVERY - 1
            if partner:
                while True:
                    P2 = rational_pencil(_normal_form_points(rng, H)).hidden(rng)
                    if not isomorphic_points(Ops(), P1.points(), P2.points()):
                        break
            else:
                P2 = base.hidden(rng)
            label = f"Q h{H}" + (" vs partner" if partner else "")
            self.add_pencil(i, label, P1, P2, partner)
        self.warm_up(qdp4)


# --- point counting ------------------------------------------------------------

def _check_count(pencil, p, k, code, out):
    if code != 0:
        return [f"exit {code}"]
    rep = json.loads(out)
    problems = []
    _problem(rep.get("p") == p and rep.get("k") == k, "field", problems)
    _problem(rep.get("consistent") is True and rep.get("count") == rep.get("predicted"),
             "count differs from the trace prediction", problems)
    sig = rep.get("signature") or []
    _problem(sorted(c[0] for c in sig) == sorted(pencil.pattern), "cycle lengths", problems)
    return problems


class CountPoints(Workload):
    name = "count-points"
    probe = NUMPY  # the count kernel is numpy table gathers
    probes = 5

    def setup(self, qdp4):
        warm = []
        for p, k in COUNT_CASES:
            rng = random.Random(f"{self.name}/{self.seed}/{p}")
            pattern = rng.choice([pat for pat in PATTERNS if _feasible(p, 1, pat)])
            P = finite_pencil(p, 1, pattern, rng).hidden(rng)
            path = self.write(f"{p}.json", P)
            self.ops.append(Op(f"q{p ** k}", "count",
                               ["count-points", path, "--ext", str(k)],
                               lambda code, out, P=P, p=p, k=k:
                               _check_count(P, p, k, code, out)))
            self.items += 1
            warm.append(path)
        # Fill GF and the encoded arithmetic tables for every q counted.
        tables = getattr(qdp4.pencil, "_encoded_tables", None)
        for p, k in COUNT_CASES:
            qdp4.GF(p, k)
            if tables is not None:
                tables(p, k)
        for path in warm:
            run_cli(qdp4, ["count-points", path, "--ext", "1"])

    def report(self, lat, passes):
        return [f"count_{op.item}_ms = {ms:.2f} ms" for op, ms in lat.values()]


# --- selftest ------------------------------------------------------------------

def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_selftest(code, out):
    problems = []
    _problem(code == 0, f"exit {code}", problems)
    status = {}
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        status[rest.split(":")[0]] = word
    for name in SUITE_NAMES:
        _problem(status.get(name) == "PASS", f"suite {name}: {status.get(name)}", problems)
    return problems


class Selftest(Workload):
    name = "selftest"

    def setup(self, qdp4):
        self.ops.append(Op("0:selftest", "selftest", ["selftest"],
                           lambda code, out: _check_selftest(code, out)))
        self.items = 1

    def report(self, lat, passes):
        (_, ms), = lat.values()
        return [f"selftest_s = {ms / 1e3:.3f} s (mean of {len(passes)} processes)"]

    def run(self, qdp4, op):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "qdp4.cli", *op.argv],
                              cwd=self.root, env=child_env(self.root),
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter_ns() - t0, proc.returncode, proc.stdout


WORKLOADS = {cls.name: cls for cls in (FpInvariants, QInvariants, CountPoints, Selftest)}
