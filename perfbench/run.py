#!/usr/bin/env python3
"""qdp4 benchmark: seeded workloads against `qdp4.cli.main`, with every
output checked.

    python3 perfbench/run.py --workload fp-invariants --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports qdp4 from ./src and nothing
else of the repository.  Human-readable lines go to stdout first; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json.  See perfbench/README.md for the metrics, the
workloads and the predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import PYTHON

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")
DEFAULT_SEED = 1
SETUP_CHILDREN = 2   # set-ups in fresh processes, besides the run's own
SETUP_PROBES = 15    # Python probes on each side of a set-up (hostspeed)
IMPORT_CHILDREN = 5  # import-only fresh processes, traced runs only


def import_qdp4():
    """Import qdp4 from ./src; returns (module, seconds the import took)."""
    if not os.path.isfile(os.path.join(SRC, "qdp4", "__init__.py")):
        sys.exit(f"error: no qdp4 package under {SRC}; run from a qdp4 checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qdp4
    import qdp4.cli
    return qdp4, time.perf_counter() - t0


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record output digests for the default seed")
    ap.add_argument("--child", choices=("setup", "import", "suites"), help=argparse.SUPPRESS)
    return ap.parse_args()


def run_child(args, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(qdp4):
    import importlib.util
    import numpy
    accel = qdp4._accel
    jit = getattr(accel, "jit_active", None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "jit_active": jit() if jit else None, "nproc": len(os.sched_getaffinity(0)),
            "QDP4_POINTCOUNT_GUARD": os.environ.get("QDP4_POINTCOUNT_GUARD"),
            "QDP4_NO_JIT": os.environ.get("QDP4_NO_JIT")}


def measure(qdp4, wl, seconds, tracer=None, min_passes=2, between=()):
    """Closed loop over whole passes of wl.ops: after `min_passes`, another
    pass starts only if it is expected to end within `seconds` of measured
    time.  Each op has `wl.probes` runs of `wl.probe` on each side, outside
    its timing.  One task from `between` runs after each pass, so that the
    passes sample the host at times further apart; the rest run at the end.
    Returns (passes, measured s), each pass a list of (op, ns, exit code,
    stdout, host ns), host ns being the probe's mean time before and after
    the op."""
    passes = []
    between = list(between)
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        results = []
        for op in wl.ops:
            if tracer is not None:
                tracer.op_id = f"{len(passes)}/{op.key}"
            before = wl.probe.host_ns(wl.probes)
            try:
                ns, code, out = wl.run(qdp4, op)
            except Exception as exc:  # an exception is a failed op, not a crash
                ns, code, out = 0, None, f"{type(exc).__name__}: {exc}"
            results.append((op, ns, code, out, (before + wl.probe.host_ns(wl.probes)) / 2))
        passes.append(results)
        last = time.perf_counter() - t0
        measured += last
        if len(passes) >= min_passes and measured + last > seconds:
            break
        if between:
            between.pop(0)()
    for task in between:
        task()
    return passes, measured


def check(passes, golden):
    """(attempted, failed, problems, digests): every op's output is checked
    on its first pass and must repeat byte for byte on later passes.
    `digests` maps each op to the SHA-256 of its exit code and stdout, the
    form the golden files hold."""
    first, digests = {}, {}
    problems = []
    failed = attempted = 0
    for results in passes:
        for op, ns, code, out, _ in results:
            attempted += 1
            if op.key not in first:
                first[op.key] = out
                try:
                    bad = op.check(code, out) if code is not None else [out]
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    bad = [f"unreadable output: {exc!r}"]
                digests[op.key] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
                if golden is not None and golden.get(op.key) != digests[op.key]:
                    bad.append("differs from the golden output")
            else:
                bad = [] if out == first[op.key] else ["output changed between passes"]
            if bad:
                failed += 1
                problems.append(f"{op.key}: {'; '.join(bad)}")
    return attempted, failed, problems, digests


def latencies(wl, passes):
    """{op key: (op, ms)} for ops that returned: each op's mean time over
    the run, host-corrected by the mean of the probes around its runs
    (hostspeed).  A ratio of means, not a mean of ratios: the probes around
    one run of a long op miss the host's switches during it, and scaling
    each run by its own probes adds that miss to every run."""
    runs = {}
    for results in passes:
        for op, ns, code, _, host in results:
            if code is not None:
                runs.setdefault(op.key, (op, [], []))
                runs[op.key][1].append(ns)
                runs[op.key][2].append(host)
    return {key: (op, wl.probe.corrected(statistics.mean(ns), statistics.mean(host)) / 1e6)
            for key, (op, ns, host) in runs.items()}


def end_to_end(wl, passes, setup_s):
    """The end-to-end metrics.  p50 and p90 are taken over the distinct ops
    of one pass, each with its latency from `latencies`."""
    from workloads import p90
    lat_by_op = latencies(wl, passes)
    lat = [ms for _, ms in lat_by_op.values()]
    for line in wl.report(lat_by_op, passes):
        print("  " + line)
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"setup_s": statistics.median(setup_s),
            "op_ms.p50": statistics.median(lat),
            "op_ms.p90": p90(lat),
            "items_per_s": wl.items / (sum(lat) / 1e3),
            "peak_rss_mb": rss / 1024}


SUITE_METRICS = {
    "picard.weyl_closure_s": "weyl-order-1920",
    "picard.zero_class_census_s": "zero-class-census",
    "hyperoct.retract_check_s": "retract-homomorphism",
    "hyperoct.fiber_product_s": "fiber-product-order",
    "kgroups.rank_formulas_s": "rank-formulas",
    "groupoids.heavy_separability_s": "heavy-separability",
    "pencil.lefschetz_suite_s": "lefschetz-consistency",
    "pencil.torelli_suite_s": "torelli-roundtrip",
}


INVARIANT_LAYERS = ("pencil.parse_ms", "pencil.quintic_ms", "pencil.smooth_ms",
                    "pencil.invariant_ms", "pencil.iso_self_ms", "wpline.aut_ms",
                    "wpline.match_ms", "linalg.ms", "linalg.calls_per_pencil",
                    "cli.main_self_ms", "cli.report_self_ms", "cli.emit_ms")

# The per-layer metrics each workload is predicted to move (README table).
# A traced run fails if one of them reads 0; every other layer may read 0.
TOUCHED = {
    "fp-invariants": INVARIANT_LAYERS + ("pencil.splitting_ms", "pencil.points_ms",
                                         "pencil.signature_ms", "fields.factor.ms",
                                         "fields.factor.calls_per_pencil"),
    "q-invariants": INVARIANT_LAYERS + ("fields.rational_roots.ms",
                                        "fields.rational_roots.calls_per_pencil"),
    "count-points": ("accel.count_zero_pairs_ms", "pencil.count_setup_ms",
                     "accel.search_points", "accel.points_per_s"),
    "selftest": tuple(SUITE_METRICS),
}


TRACE_METRICS = ("trace.overhead_ratio", "trace.untraced_s", "trace.traced_s")


def layer_metrics(totals, items, searched=0):
    """Per-layer metrics from span totals: self ms and calls per work item."""
    def ms(*names):
        return sum(totals.get(n, (0, 0))[0] for n in names) / 1e6 / items

    def calls(*names):
        return sum(totals.get(n, (0, 0))[1] for n in names) / items

    linalg = ("linalg.rank", "linalg.kernel_vector", "linalg.congruence")
    kernel_s = ms("accel.count_zero_pairs") * items / 1e3
    return {
        "pencil.parse_ms": ms("pencil.parse"),
        "pencil.quintic_ms": ms("pencil.quintic"),
        "pencil.smooth_ms": ms("pencil.smooth"),
        "pencil.splitting_ms": ms("pencil.splitting"),
        "pencil.points_ms": ms("pencil.points"),
        "pencil.invariant_ms": ms("pencil.invariant"),
        "pencil.iso_self_ms": ms("pencil.iso"),
        "pencil.signature_ms": ms("pencil.signature"),
        "wpline.aut_ms": ms("wpline.aut"),
        "wpline.match_ms": ms("wpline.match"),
        "linalg.ms": ms(*linalg),
        "linalg.calls_per_pencil": calls(*linalg),
        "cli.main_self_ms": ms("cli.main"),
        "cli.report_self_ms": ms("cli.report"),
        "cli.emit_ms": ms("cli.emit"),
        "fields.factor.ms": ms("fields.factor"),
        "fields.factor.calls_per_pencil": calls("fields.factor"),
        "fields.rational_roots.ms": ms("fields.rational_roots"),
        "fields.rational_roots.calls_per_pencil": calls("fields.rational_roots"),
        "accel.count_zero_pairs_ms": ms("accel.count_zero_pairs"),
        "pencil.count_setup_ms": ms("pencil.count"),
        "accel.search_points": searched / items,
        "accel.points_per_s": searched / kernel_s if kernel_s else 0.0,
    }


def searched_points(wl):
    """|P^4(F_q)| summed over one pass's counts: computed, not measured."""
    total = 0
    for op in wl.ops:
        if op.kind == "count":
            q = int(op.item.lstrip("q"))
            total += (q ** 5 - 1) // (q - 1)
    return total


def child_suites(trace):
    """Time each selftest suite once in this fresh process."""
    qdp4, _ = import_qdp4()
    from spans import Tracer
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(qdp4)
    times, ok = {}, True
    t0 = time.perf_counter()
    for name, fn in qdp4.selftest.SUITES:
        t = time.perf_counter()
        passed, _ = fn()
        times[name] = time.perf_counter() - t
        ok &= bool(passed)
    out = {"suites": times, "ok": ok, "total_s": time.perf_counter() - t0}
    if tracer is not None:
        out["totals"] = tracer.totals()
    print(json.dumps(out))


def trace_selftest(args, metrics):
    runs = [run_child(args, "--child", "suites") for _ in range(3)]
    traced = run_child(args, "--child", "suites", "--trace", "1")
    for key, suite in SUITE_METRICS.items():
        metrics[key] = statistics.median(r["suites"][suite] for r in runs)
    untraced = statistics.median(r["total_s"] for r in runs)
    totals = {k: tuple(v) for k, v in traced["totals"].items()}
    metrics.update(layer_metrics(totals, 1))
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced["total_s"]
    metrics["trace.overhead_ratio"] = traced["total_s"] / untraced
    ok = all(r["ok"] for r in runs + [traced])
    return 4, 0 if ok else 1, [] if ok else ["a suite failed"]


def main():
    args = parse_args()
    if args.child == "import":
        print(json.dumps({"import_s": import_qdp4()[1]}))
        return 0
    if args.child == "suites":
        child_suites(args.trace)
        return 0
    host_before = PYTHON.host_ns(SETUP_PROBES)
    t_start = time.perf_counter_ns()
    qdp4, _ = import_qdp4()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        wl.setup(qdp4)
        setup_ns = time.perf_counter_ns() - t_start
        setup_s = PYTHON.corrected(setup_ns, (host_before + PYTHON.host_ns(SETUP_PROBES)) / 2) / 1e9
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return bench(args, qdp4, wl, spec, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, qdp4, wl, spec, setup_s):
    print(f"qdp4 benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment:", json.dumps(environment(qdp4)))
    golden_path = os.path.join(GOLDEN, f"{wl.name}.json")
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden and os.path.exists(golden_path):
        with open(golden_path) as fh:
            golden = json.load(fh)
    metrics = {}
    if args.trace:
        wanted = spec["per_layer"]
        if wl.name == "selftest":
            attempted, failed, problems = trace_selftest(args, metrics)
        else:
            attempted, failed, problems = trace_run(qdp4, wl, args, golden, metrics)
        idle = [n for n in TOUCHED[wl.name] + TRACE_METRICS if not metrics.get(n)]
        if idle:
            sys.exit(f"error: traced layers read 0 on {wl.name}: {idle}; "
                     "update perfbench/spans.py if the code they time moved")
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
        imports = [run_child(args, "--child", "import")["import_s"]
                   for _ in range(IMPORT_CHILDREN)]
        print("  import_s samples:", " ".join(f"{s:.3f}" for s in imports))
        metrics["import_s"] = min(imports)
    else:
        wanted = spec["end_to_end"]
        setups = [setup_s]

        def setup_child():
            setups.append(run_child(args, "--child", "setup")["setup_s"])

        passes, wall = measure(qdp4, wl, args.seconds, min_passes=wl.repeats,
                               between=[setup_child] * SETUP_CHILDREN)
        print("  setup_s samples:", " ".join(f"{s:.3f}" for s in setups))
        print(f"  measured {len(passes)} pass(es) of {len(wl.ops)} ops in {wall:.2f} s")
        hosts = [r[4] for results in passes for r in results]
        print(f"  {wl.probe.name} probe: {min(hosts) / 1e3:.0f} to {max(hosts) / 1e3:.0f} us, "
              f"median {statistics.median(hosts) / 1e3:.0f} us, "
              f"reference {wl.probe.ref_ns / 1e3:.0f} us")
        metrics = end_to_end(wl, passes, setups)
        attempted, failed, problems, digests = check(passes, golden)
        if args.write_golden and args.seed == DEFAULT_SEED and wl.golden:
            os.makedirs(GOLDEN, exist_ok=True)
            with open(golden_path, "w") as fh:
                json.dump(digests, fh, indent=0, sort_keys=True)
            print(f"  wrote {golden_path}")
    for p in problems[:20]:
        print("  FAIL", p)
    print(f"  fail_ratio: {failed}/{attempted}"
          + ("" if golden is not None else " (no golden check for this seed)"))
    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        sys.exit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in result.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def op_seconds(wl, passes):
    """Host-corrected seconds spent inside the ops of `passes`."""
    return sum(wl.probe.corrected(ns, host)
               for results in passes for _, ns, _, _, host in results) / 1e9


def trace_run(qdp4, wl, args, golden, metrics):
    from spans import Tracer
    untraced, _ = measure(qdp4, wl, 0, min_passes=1)
    tracer = Tracer()
    tracer.install(qdp4)
    try:
        traced, _ = measure(qdp4, wl, 0, tracer, min_passes=1)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(ROOT, ".bench_work", f"spans-{wl.name}-{args.seed}.json")
    tracer.write(spans_path)
    print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    metrics.update(layer_metrics(tracer.totals(), wl.items, searched_points(wl)))
    t_plain, t_traced = op_seconds(wl, untraced), op_seconds(wl, traced)
    metrics["trace.untraced_s"] = t_plain
    metrics["trace.traced_s"] = t_traced
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    return check(untraced + traced, golden)[:3]


if __name__ == "__main__":
    sys.exit(main())
