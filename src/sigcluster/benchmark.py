"""Benchmark harness: test success rates / timings on synthetic two-cluster
sweeps, and clustering quality on labeled datasets.

Determinism contract: every statistical field in the produced records is
a pure function of the arguments including the master seed (per-run seeds
are SeedSequence substreams of it). Timing fields are wall-clock and
exempt.

Timing semantics: each method is timed as the call a user makes, over
``timing_runs`` fresh inputs with one excluded warm-up call. KS and the
dip test decide against seed-fixed calibration tables that are built
once per sample size in the process (the Lilliefors reference, the dip
bootstrap); the success-rate loop at the same N builds them first, so the
times are per-call costs with the table warm and leave out its one-off
build.
"""

import time

import numpy as np

from .clustering import METHOD_NAMES, TEST_CRITERIA, configured, run_method
from .core import _integer
from .data_io import BenchmarkRecord, bundled_manifest, load_csv
from .metrics import ari, vi
from .sigtest import SigtestConfig
from .synthetic import TwoClusterSpec, gen_two_clusters

TEST_METHODS = tuple(TEST_CRITERIA)
DEFAULT_SEPARATIONS = (2.0, 2.25, 2.5, 2.8, 3.0)


def _time_method(func, inputs) -> float:
    """Mean wall-clock seconds per call of ``func`` over ``inputs``.

    Monotonic clock; one extra warm-up call on the first input is
    excluded from the mean.

    Raises
    ------
    ValueError
        If ``inputs`` is empty.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input to time")
    func(inputs[0])  # warm-up, excluded
    total = 0.0
    for x in inputs:
        t0 = time.perf_counter()
        func(x)
        total += time.perf_counter() - t0
    return total / len(inputs)


def _check_request(runs, methods, known, timing_runs=0, **cells) -> None:
    """Refuse a bad request before any work: a run or timing-run count
    that is not an integer (a bool included) or is too small, a method
    name, with the messages BenchmarkRecord and run_method would give
    later, a separation TwoClusterSpec refuses (negative or not finite),
    or a repeated method or ``cells`` value (``cells`` maps a kind, such
    as ``separation``, to its values), since each cell is named once.
    Values are compared, not their text: 2 and 2.0 repeat."""
    if _integer(runs, "runs") < 1:
        raise ValueError("runs must be at least 1")
    if _integer(timing_runs, "timing_runs") < 0:
        raise ValueError("timing_runs must be nonnegative")
    for method in methods:
        if method not in known:
            raise ValueError(f"unknown method {method!r}; expected one of {known}")
    for separation in cells.get("separation", ()):
        TwoClusterSpec(separation=separation)
    for kind, values in {"method": methods, **cells}.items():
        seen = set()
        for value in values:
            if value in seen:
                shown = repr(value) if isinstance(value, str) else f"{value:g}"
                raise ValueError(f"{kind} {shown} is repeated; each {kind} is one cell")
            seen.add(value)


def run_test_benchmark(separations=DEFAULT_SEPARATIONS, runs: int = 100,
                       seed: int = 7, methods=TEST_METHODS,
                       sigtest_config: SigtestConfig = SigtestConfig(),
                       timing_runs: int = 10) -> list[BenchmarkRecord]:
    """Success rate and mean per-call time of each test on two-cluster data.

    For every separation, ``runs`` fresh two-cluster samples (1-d, the
    TwoClusterSpec defaults of 100 points per side at unit sigma) are
    generated from substreams of ``seed`` and shared across methods;
    success means the method's criterion in TEST_CRITERIA rejects
    unimodality. ``sigtest_config`` gives gamma and the threshold, and the
    method name the signature variant, as in run_method; AD, KS and the
    dip test run at their criteria's defaults (AD_ALPHA, KS_ALPHA, a
    DIP_BOOTSTRAP_B bootstrap). Timing uses ``timing_runs`` additional
    samples per cell and times the criterion's ``decide``, the public
    test call, with its calibration table warm (see module docstring).
    Each separation and each method is named once, so a repeated one is
    refused; every argument is checked before the first sample is drawn.
    """
    separations, methods = tuple(separations), tuple(methods)
    _check_request(runs, methods, TEST_METHODS, timing_runs, separation=separations)
    data, timing_inputs = {}, {}
    for si, sep in enumerate(separations):
        data[sep] = [_sweep_sample(sep, _substream_seed(seed, si, r)) for r in range(runs)]
        timing_inputs[sep] = [_sweep_sample(sep, _substream_seed(seed, 1000 + si, r))
                              for r in range(timing_runs)]

    records = []
    for method in methods:
        criterion = configured(TEST_CRITERIA[method], gamma=sigtest_config.gamma,
                               threshold=sigtest_config.threshold)
        for sep in separations:
            successes = sum(criterion.test(y)[1] for y in data[sep])
            mean_t = _time_method(criterion.decide, timing_inputs[sep]) if timing_runs else None
            records.append(BenchmarkRecord(
                method=method, separation=float(sep),
                success_rate=100.0 * successes / runs,
                mean_time_s=mean_t, runs=runs, seed=seed,
            ))
    return records


def _sweep_sample(separation: float, seed: int) -> np.ndarray:
    return gen_two_clusters(TwoClusterSpec(separation=separation, seed=seed)).rows[:, 0]


def _substream_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_cluster_benchmark(manifests, methods=METHOD_NAMES, runs: int = 20,
                          seed: int = 7,
                          sigtest_config: SigtestConfig = SigtestConfig()
                          ) -> list[BenchmarkRecord]:
    """k / VI / ARI (mean and std over runs) per dataset x method.

    Each run clusters the dataset with an independent seed substream, by
    run_method: ``sigtest_config`` gives gamma and the threshold, and the
    method name the signature variant. VI/ARI are reported against the
    manifest's label column and omitted for unlabeled data. A dataset
    that fails to load aborts with an error naming it; no partial records
    are emitted for it. The run count and every method name are checked,
    and a repeated method or dataset name refused, before the first
    dataset is loaded.
    """
    manifests = [bundled_manifest(m) if isinstance(m, str) else m for m in manifests]
    methods = tuple(methods)
    _check_request(runs, methods, METHOD_NAMES, dataset=[m.name for m in manifests])
    records = []
    for di, manifest in enumerate(manifests):
        data = load_csv(manifest)
        for mi, method in enumerate(methods):
            ks, vis, aris, times = [], [], [], []
            for r in range(runs):
                run_seed = _substream_seed(seed, di, mi, r)
                t0 = time.perf_counter()
                result = run_method(method, data, seed=run_seed,
                                    sigtest_config=sigtest_config)
                times.append(time.perf_counter() - t0)
                ks.append(result.k)
                if data.labels is not None:
                    vis.append(vi(result.assignment, data.labels))
                    aris.append(ari(result.assignment, data.labels))
            def _mean(v):
                return float(np.mean(v)) if v else None
            def _std(v):
                return float(np.std(v, ddof=1)) if len(v) > 1 else (0.0 if v else None)
            records.append(BenchmarkRecord(
                method=method, dataset=manifest.name,
                k_mean=_mean(ks), k_std=_std(ks),
                vi_mean=_mean(vis), vi_std=_std(vis),
                ari_mean=_mean(aris), ari_std=_std(aris),
                mean_time_s=_mean(times), runs=runs, seed=seed,
            ))
    return records


def format_test_table(records) -> str:
    """Render test-benchmark records as a methods x separations table."""
    records = tuple(records)
    seps = sorted({r.separation for r in records})
    header = "method    " + "".join(f"{s:>9g}s" for s in seps) + "   mean time (s)"
    lines = [header, "-" * len(header)]
    for method in TEST_METHODS:
        recs = {r.separation: r for r in records if r.method == method}
        if not recs:
            continue
        cells = "".join(
            f"{recs[s].success_rate:>9.0f}%" if s in recs else " " * 10
            for s in seps
        )
        times = [recs[s].mean_time_s for s in seps if s in recs and recs[s].mean_time_s is not None]
        tcell = f"{np.mean(times):14.3e}" if times else " " * 14
        lines.append(f"{method:<10}{cells}{tcell}")
    return "\n".join(lines)


def format_cluster_table(records) -> str:
    """Render cluster-benchmark records grouped by dataset."""
    records = tuple(records)
    datasets = dict.fromkeys(r.dataset for r in records)  # in first-seen order
    methods = dict.fromkeys(r.method for r in records)
    header = f"{'dataset':<10}{'quantity':<10}" + "".join(f"{m:>16}" for m in methods)
    lines = [header, "-" * len(header)]
    for ds in datasets:
        by_method = {r.method: r for r in records if r.dataset == ds}
        rows = [
            ("k", "k_mean", "k_std"),
            ("VI", "vi_mean", "vi_std"),
            ("ARI", "ari_mean", "ari_std"),
            ("time (s)", "mean_time_s", None),
        ]
        for label, mean_f, std_f in rows:
            cells = []
            for m in methods:
                rec = by_method.get(m)
                mean = getattr(rec, mean_f) if rec else None
                if mean is None:
                    cells.append(f"{'-':>16}")
                elif std_f is None:
                    cells.append(f"{mean:>16.3f}")
                else:
                    cells.append(f"{mean:>9.2f}+-{getattr(rec, std_f):<5.2f}")
            lines.append(f"{ds if label == 'k' else '':<10}{label:<10}" + "".join(cells))
    return "\n".join(lines)
