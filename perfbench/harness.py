"""Orchestration of one benchmark run; see run.py for the protocol.

Imported by run.py only after the BLAS threads are pinned and ./src is
first on the path.
"""

import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import checks
import layers
import speed
import workloads
from execute import Tracer, run_op, run_op_traced

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3

# tracemalloc slows the pure-Python AS 217 loop about 20x (classic
# dipmeans on 3000 blob points: 2.6 s -> 49 s), so peak_mb skips the
# dip-bound ops. Their numpy allocations are those of their "+" twins:
# classic dipmeans builds the same viewer tensor as dipmeans+ (618.2 MB
# traced for both at 3000 points).
PEAK_SKIP = ("dip", "dipmeans")

# An op kind's time (<kind>.op_s or .op_us) is the mean time of one of
# its ops over the timed passes, adjusted to the reference host speed
# (speed.py); every op runs equally often, so every input of the kind
# counts (a clusterer's cost follows its split tree, which differs
# between inputs and run seeds). ops_per_s is the number of ops over
# their summed mean times. The mean, not an op's median or fastest
# repetition: those jump between the host's two speeds when the share of
# the run spent at each crosses a threshold, and spread more over ten
# seeds. setup_s is adjusted in the same way, block by block of each
# warm-up pass. The record in .bench_out/ keeps the raw figures, the
# pooled percentiles of all samples and the pass times.
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    "gmeans.op_s": "s", "gmeans_plus.op_s": "s",
    "dipmeans.op_s": "s", "dipmeans_plus.op_s": "s",
    "sigtest.op_us": "us", "ad.op_us": "us", "ks.op_us": "us", "dip.op_us": "us",
    "peak_mb": "MB", "ari_mean": "ratio", "success_pct": "%",
}

_KIND_PREFIXES = ("sigtest", "ad", "ks", "dip", "gmeans", "gmeans_plus",
                  "dipmeans", "dipmeans_plus")
PER_LAYER_UNITS = {
    "sigtest.normalize_us": "us", "sigtest.sort_us": "us", "sigtest.erf_us": "us",
    "sigtest.band_us": "us", "sigtest.sig2_us": "us", "sigtest.band_cache_hit_ratio": "ratio",
    "baselines.ad_us": "us", "baselines.ks_us": "us", "baselines.dip_us": "us",
    "baselines.ks_table_cold_s": "s", "baselines.dip_table_cold_s": "s",
    "baselines.table_warm_us": "us", "baselines.table_builds": "count",
    "baselines.table_hit_ratio": "ratio", "baselines.deprecation_warnings": "count",
    "clustering.kmeans_s": "s", "clustering.criterion_calls": "count",
    "clustering.criterion_s": "s", "clustering.rest_s": "s",
    "clustering.split_records": "count", "clustering.splits_accepted": "count",
    "clustering.viewer_reject_ratio": "ratio", "clustering.k_err_mean": "count",
    "data_io.load_ms": "ms", "synthetic.gen_ms": "ms",
    **{f"cache.{c}.{k}": "count"
       for c in ("frozen_bounds", "lilliefors_table", "dip_reference_table")
       for k in ("hits", "misses")},
    **{f"trace.self.{p}_s": "s" for p in _KIND_PREFIXES},
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
    "roadmap.sigtest_n200_us": "us", "roadmap.sigtest_n20000_us": "us",
    "roadmap.ad_n200_us": "us", "roadmap.dip_n200_us": "us",
    "roadmap.dip_n20000_ms": "ms", "roadmap.dip_table_n200_s": "s",
}


def metric_prefix(kind: str) -> str:
    return kind.replace("+", "_plus")


def git_commit():
    """The checked-out commit, read from .git (a loose or packed ref, in a
    clone or a worktree); None outside a git checkout."""
    git = ROOT / ".git"
    if git.is_file():  # worktree: "gitdir: <path>"
        git = (ROOT / git.read_text().split(":", 1)[1].strip()).resolve()
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    common = git / "commondir"
    common = (git / common.read_text().strip()).resolve() if common.is_file() else git
    for base in (git, common):
        if (base / ref).is_file():
            return (base / ref).read_text().strip()
    packed = common / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(), "seed": seed,
    }


def summary(per_op) -> dict:
    """Of one kind's per-op repetition times: the op count, the mean, and
    the pooled n, p10, median and the highest of p90/p99/p99.9 that still
    has at least ten samples beyond it."""
    values = sorted(t for ts in per_op for t in ts)
    out = {"ops": len(per_op), "mean": statistics.fmean(map(statistics.fmean, per_op)),
           "n": len(values),
           "p10": values[len(values) // 10], "p50": statistics.median(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = values[int(len(values) * p / 100)]
            break
    return out


class Runner:
    """Runs the op list and counts failures: an exception or a failed
    check counts as a failed op."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = [None] * len(wl.ops)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, i, fn, *args):
        """(seconds, outcome) of one op, or None if it failed."""
        op = self.wl.ops[i]
        self.attempted += 1
        try:
            dt, out = fn(op, *args)
            ref = self.reference[i]
            if ref is not None and out.fingerprint != ref.fingerprint:
                raise AssertionError(f"op {i} ({op.kind}): fingerprint differs from the warm-up pass")
            return dt, out
        except Exception:
            self.failed += 1
            self.problems.append(f"op {i} ({op.kind}) failed:\n{traceback.format_exc()}")
            return None


@dataclass
class Pass:
    """One pass over the op list: its raw seconds, the same adjusted to
    the reference host speed, the speed ratio of every probe taken, and
    (op, seconds, ratio) for every op that succeeded."""

    raw_s: float = 0.0
    adjusted_s: float = 0.0
    ratios: list = field(default_factory=list)
    samples: list = field(default_factory=list)


def run_pass(runner, step) -> Pass:
    """Run every op once, block by block (a kind's share of a slice),
    probing the host speed before the first block and after each one; an
    op's ratio is the mean of the two probes around its block. ``step(i)``
    runs op i and returns its seconds, or None if it failed."""
    out = Pass(ratios=[speed.ratio()])
    for start, end in runner.wl.blocks:
        t0 = time.perf_counter()
        times = [(i, step(i)) for i in range(start, end)]
        elapsed = time.perf_counter() - t0
        out.ratios.append(speed.ratio())
        ratio = (out.ratios[-2] + out.ratios[-1]) / 2
        out.samples += [(i, t, ratio) for i, t in times if t is not None]
        out.raw_s += elapsed
        out.adjusted_s += elapsed / ratio
    return out


def setup(runner, name, seed, count_warnings=False):
    """One cold set-up: clear the caches, build the inputs, run one
    warm-up pass. Returns (runner, raw seconds, adjusted seconds, the
    first speed ratio, warnings caught). The first set-up's outcomes are
    the reference every later pass is checked against."""
    checks.clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    wl = workloads.build(name, seed)
    build_s = time.perf_counter() - t0
    first = runner is None
    if first:
        runner = Runner(wl)
    else:
        runner.wl = wl
    outs = [None] * len(wl.ops)

    def step(i):
        outs[i] = runner.call(i, run_op)
        return outs[i][0] if outs[i] else None

    with warnings.catch_warnings(record=True) if count_warnings else nullcontext() as caught:
        if count_warnings:
            warnings.simplefilter("always")
        warm = run_pass(runner, step)
    if first:
        runner.reference = [o[1] if o else None for o in outs]
    ratio = warm.ratios[0]
    return (runner, build_s + warm.raw_s, build_s / ratio + warm.adjusted_s, ratio,
            caught or [])


def timed_loop(runner, seconds, step) -> list:
    """Repeat passes over the op list and stop at the pass boundary
    nearest to ``seconds`` (after one pass at least), so every op is
    timed equally often."""
    passes = []
    gc.collect()
    gc.disable()  # as timeit does: no collector pauses inside timed calls
    try:
        t_loop = time.perf_counter()
        while not passes or (time.perf_counter() - t_loop
                             + statistics.fmean(p.raw_s for p in passes) / 2 < seconds):
            passes.append(run_pass(runner, step))
        return passes
    finally:
        gc.enable()


def peak_pass(runner, run_op) -> float:
    """Highest tracemalloc peak over the first op of each kind."""
    peaks, seen = [], set(PEAK_SKIP)
    for i, op in enumerate(runner.wl.ops):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        tracemalloc.start()
        try:
            runner.call(i, run_op)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20


def quality(runner, seed, problems) -> dict:
    """success_pct, ari_mean and k_err_mean; see checks.py."""
    pairs = [(op, o) for op, o in zip(runner.wl.ops, runner.reference) if o is not None]
    cells = {}
    for op, o in pairs:
        if op.cell is not None and op.kind in ("sigtest", "ad"):
            cells.setdefault((op.kind, op.cell), []).append(o.rejects[0])
    success = checks.sweep_success(seed, cells, problems)
    clusterings = [(op, o) for op, o in pairs if not op.is_test]
    if runner.wl.name == "tests":
        ari_mean, k_err = checks.reference_quality(seed, clusterings, problems)
    else:
        ari_mean, k_err = checks.quality([o for _, o in clusterings])
    return {"success_pct": success, "ari_mean": ari_mean, "k_err_mean": k_err}


def kind_times(runner, op_times, values, problems) -> dict:
    """Add ops_per_s and every <kind>.op_s|op_us to ``values`` from the
    per-op times; returns each kind's summary()."""
    values["ops_per_s"] = len(op_times) / sum(statistics.fmean(ts) for ts in op_times if ts)
    detail = {}
    for kind in workloads.TEST_KINDS + workloads.CLUSTER_KINDS:
        per_op = [ts for op, ts in zip(runner.wl.ops, op_times) if op.kind == kind and ts]
        if not per_op:
            problems.append(f"no successful {kind} op was timed")
            continue
        scale, unit = (1e6, "us") if kind in workloads.TEST_KINDS else (1.0, "s")
        s = summary([[scale * t for t in ts] for ts in per_op])
        name = f"{metric_prefix(kind)}.op_{unit}"
        values[name] = s["mean"]
        detail[name] = s
    return detail


def run_untraced(args, import_s):
    """Set-ups and timed chunks alternate, so set-up and timed samples
    both spread over the whole run. Every time reported is adjusted to
    the reference host speed (speed.py); the raw figures go to the
    record."""
    runner, setups, passes = None, [], []
    builds = timed_attempted = timed_failed = 0

    def step(i):
        res = runner.call(i, run_op)
        return res[0] if res else None

    for rep in range(SETUP_REPS):
        runner, raw_s, adjusted_s, ratio, _ = setup(runner, args.workload, args.seed)
        setups.append((raw_s, adjusted_s, ratio))
        after_setup = checks.cache_counts()
        attempted, failed = runner.attempted, runner.failed
        # chunk k ends nearest to k/SETUP_REPS of --seconds of passes in all
        target = args.seconds * (rep + 1) / SETUP_REPS - sum(p.raw_s for p in passes)
        passes += timed_loop(runner, target, step)
        after_loop = checks.cache_counts()
        builds += checks.table_builds(after_setup, after_loop)
        timed_attempted += runner.attempted - attempted
        timed_failed += runner.failed - failed
    if builds:
        runner.problems.append(f"{builds} calibration tables built during timed passes")

    t0 = time.perf_counter()
    peak_mb = peak_pass(runner, run_op)
    t1 = time.perf_counter()
    raw_times = [[] for _ in runner.wl.ops]
    adjusted_times = [[] for _ in runner.wl.ops]
    for p in passes:
        for i, t, ratio in p.samples:
            raw_times[i].append(t)
            adjusted_times[i].append(t / ratio)
    # the imports ran before the first probe: adjusted by that probe's ratio
    values = {"setup_s": import_s / setups[0][2] + statistics.median(a for _, a, _ in setups),
              "peak_mb": peak_mb}
    detail = kind_times(runner, adjusted_times, values, runner.problems)
    raw = {"setup_s": import_s + statistics.median(r for r, _, _ in setups)}
    kind_times(runner, raw_times, raw, [])
    q = quality(runner, args.seed, runner.problems)
    values["success_pct"], values["ari_mean"] = q["success_pct"], q["ari_mean"]
    ratios = [r for p in passes for r in p.ratios]
    extra = {
        "k_err_mean": q["k_err_mean"],
        "raw": raw,
        "speed_ratio": {"median": statistics.median(ratios), "min": min(ratios),
                        "max": max(ratios), "probes": len(ratios)},
        "setup": {"import_s": import_s, "repetitions_raw_adjusted_ratio": setups},
        "phases_s": {"peak_pass": t1 - t0, "quality": time.perf_counter() - t1},
        "passes_raw_adjusted_s": [(p.raw_s, p.adjusted_s) for p in passes],
        "caches_after_setup": after_setup,
        "caches_after_timed": after_loop,
        "samples": detail,
        "op_times_raw": raw_times,
    }
    return runner, timed_attempted, timed_failed, values, E2E_UNITS, extra


def span_rows(runner, tracer, traced_times, untraced_times) -> dict:
    """Per-layer rows from the spans of the traced passes."""
    by_op = {}
    for span in tracer.spans:
        if span.parent is None:
            by_op.setdefault(span.op_id, []).append([span, []])
        else:
            by_op[span.op_id][-1][1].append(span)
    rows = {f"trace.self.{metric_prefix(k)}_s": 0.0
            for k in workloads.TEST_KINDS + workloads.CLUSTER_KINDS}
    crit_s = rest_s = 0.0
    calls = viewer_calls = viewer_rejects = 0
    for op_id, runs in by_op.items():
        op = runner.wl.ops[op_id]
        selfs, crits = [], []
        for parent, children in runs:
            last_end = parent.start
            for child in sorted(children, key=lambda c: c.start):
                if child.start < last_end or child.end > parent.end:
                    runner.problems.append(f"op {op_id}: child span outside its parent or overlapping")
                last_end = child.end
            crit = sum(c.duration for c in children)
            selfs.append(parent.duration - crit)
            crits.append(crit)
        rows[f"trace.self.{metric_prefix(op.kind)}_s"] += statistics.median(selfs)
        if not op.is_test:
            crit_s += statistics.median(crits)
            rest_s += statistics.median(selfs)
            first = runs[0][1]
            calls += len(first)
            if op.kind.startswith("dipmeans"):
                viewer_calls += len(first)
                viewer_rejects += sum(c.reject for c in first)
    traced = sum(map(statistics.median, traced_times.values()))
    untraced = sum(map(statistics.median, untraced_times.values()))
    rows.update({
        "clustering.criterion_calls": calls,
        "clustering.criterion_s": crit_s,
        "clustering.rest_s": rest_s,
        "clustering.viewer_reject_ratio": viewer_rejects / viewer_calls if viewer_calls else 0.0,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    })
    return rows


def run_traced(args, import_s):
    """Each op runs untraced, then traced, back to back; the per-layer
    rows come from the spans and from timing each layer's public calls,
    raw (not adjusted to the reference host speed)."""
    runner, _, _, _, caught = setup(None, args.workload, args.seed, count_warnings=True)
    after_setup = checks.cache_counts()
    tracer = Tracer()
    traced_times, untraced_times, traced_outcomes = {}, {}, {}

    def step(i):
        plain = runner.call(i, run_op)
        traced = runner.call(i, run_op_traced, i, tracer)
        if plain and traced:
            untraced_times.setdefault(i, []).append(plain[0])
            traced_times.setdefault(i, []).append(traced[0])
            traced_outcomes[i] = traced[1]
            return plain[0]
        return None

    attempted_before, failed_before = runner.attempted, runner.failed
    timed_loop(runner, args.seconds, step)
    attempted = runner.attempted - attempted_before
    failed = runner.failed - failed_before
    after_loop = checks.cache_counts()
    builds = checks.table_builds(after_setup, after_loop)
    if builds:
        runner.problems.append(f"{builds} calibration tables built during timed passes")

    wl = runner.wl
    rows = span_rows(runner, tracer, traced_times, untraced_times)
    cluster_outs = [o for i, o in traced_outcomes.items() if not wl.ops[i].is_test]
    hits = sum(after_loop[t][0] for t in checks.TABLES)
    misses = sum(after_loop[t][1] for t in checks.TABLES)
    fb_hits, fb_misses = after_loop["frozen_bounds"]
    rows.update({
        "clustering.split_records": sum(o.records for o in cluster_outs),
        "clustering.splits_accepted": sum(o.accepted for o in cluster_outs),
        "baselines.table_builds": checks.table_builds(
            {t: (0, 0) for t in checks.TABLES}, after_setup),
        "baselines.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "baselines.deprecation_warnings": sum(
            issubclass(w.category, (FutureWarning, DeprecationWarning)) for w in caught),
        "sigtest.band_cache_hit_ratio": fb_hits / (fb_hits + fb_misses) if fb_hits + fb_misses else 0.0,
    })
    for cache, (h, m) in after_loop.items():
        rows[f"cache.{cache}.hits"] = h
        rows[f"cache.{cache}.misses"] = m
    rows["clustering.k_err_mean"] = quality(runner, args.seed, runner.problems)["k_err_mean"]
    rows.update(layers.sigtest_rows(wl.test_samples))
    rows.update(layers.baseline_rows(wl.test_samples))
    rows.update(layers.clustering_rows(wl.cluster_sets, args.seed))
    rows.update(layers.io_rows(wl.name, args.seed))
    roadmap = layers.roadmap_rows(args.seed)
    rows.update(roadmap)
    for line in layers.roadmap_comparison(roadmap):
        print(line)

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps([
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op_id": s.op_id}
        for s in tracer.spans]))
    extra = {"caches_after_setup": after_setup, "caches_after_timed": after_loop,
             "spans_file": str(spans_file.relative_to(ROOT)), "spans": len(tracer.spans)}
    return runner, attempted, failed, rows, PER_LAYER_UNITS, extra


def run(args, import_s: float) -> int:
    """Run one workload, print the metrics and the JSON result line."""
    measure = run_traced if args.trace else run_untraced
    runner, attempted, failed, values, units, extra = measure(args, import_s)
    problems = runner.problems
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for name in sorted(values):
        line = f"{name:<34} {values[name]:>14.6g} {units.get(name, '')}"
        if name in extra.get("raw", {}):
            line += f"  (raw {extra['raw'][name]:.6g})"
        s = extra.get("samples", {}).get(name)
        if s:
            line += "  (" + ", ".join(f"{k}={v:.6g}" for k, v in s.items() if k != "mean") + ")"
        print(line)
    if "speed_ratio" in extra:
        print("host speed ratio (probe time / reference): "
              + ", ".join(f"{k} {v:.4g}" for k, v in extra["speed_ratio"].items()))
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed), problems=problems, **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0
