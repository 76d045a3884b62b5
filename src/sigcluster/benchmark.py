"""Benchmark harness: test success rates / timings on synthetic two-cluster
sweeps, and clustering quality on labeled datasets.

Determinism contract: every statistical field in the produced records is
a pure function of the arguments including the master seed (per-run seeds
are SeedSequence substreams of it). Timing fields are wall-clock and
exempt.

Timing semantics: each method is timed as a self-contained call, exactly
as a user would invoke it (for KS that includes its Monte-Carlo
calibration, for the dip test its bootstrap reference draw), over
``timing_runs`` fresh inputs with one excluded warm-up call. The success
-rate loops reuse the seed-fixed calibration tables instead, which gives
bit-identical decisions at a fraction of the cost.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (
    AD_ALPHA,
    DIP_BOOTSTRAP_B,
    KS_ALPHA,
    anderson_darling,
    dip_reference_table,
    dip_test,
    ks_lilliefors,
    lilliefors_table,
)
from .clustering import METHOD_NAMES, run_method
from .data_io import DatasetManifest, load_csv
from .metrics import ari, vi
from .sigtest import SignatureVariant, SigtestConfig, sigtest
from .synthetic import TwoClusterSpec, gen_two_clusters

TEST_METHODS = ("sigtest1", "sigtest2", "ad", "ks", "dip")
DEFAULT_SEPARATIONS = (2.0, 2.25, 2.5, 2.8, 3.0)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark cell: a method at one parameter point.

    Test records fill ``separation``/``success_rate``; clustering records
    fill ``dataset`` and the k/VI/ARI summary fields. ``mean_time_s`` is
    wall-clock and not reproducible; everything else reruns identically
    for the same seed.
    """

    method: str
    runs: int
    seed: int
    dataset: str | None = None
    separation: float | None = None
    success_rate: float | None = None
    k_mean: float | None = None
    k_std: float | None = None
    vi_mean: float | None = None
    vi_std: float | None = None
    ari_mean: float | None = None
    ari_std: float | None = None
    mean_time_s: float | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.success_rate is not None and not 0.0 <= self.success_rate <= 100.0:
            raise ValueError("success_rate must lie in [0, 100]")


def _alpha_for(method: str, alpha_ks: float = KS_ALPHA) -> float:
    """The level a test runs at: AD_ALPHA for ad, ``alpha_ks`` otherwise
    (only ks reads it)."""
    return AD_ALPHA if method == "ad" else alpha_ks


def _make_test(method: str, sigtest_config: SigtestConfig, alpha: float,
               dip_B: int, reference_N: int | None = None):
    """Return the call y -> (fields, split) of one of TEST_METHODS.

    ``fields`` is what the test reports: {"C": ...} for sigtest1 and
    sigtest2, {"statistic": ..., "p_value": ...} for ad, ks and dip.
    ``split`` is True when the test rejects unimodality. sigtest1 and
    sigtest2 run ``sigtest_config`` with the signature variant of their
    name, ``alpha`` is the level of ad or ks, ``dip_B`` the size of the
    dip bootstrap. With ``reference_N`` the KS and dip calls reuse the
    process-wide memoized calibration tables for that sample size;
    decisions are identical either way because the tables are
    seed-determined.
    """
    if method in ("sigtest1", "sigtest2"):
        cfg = replace(sigtest_config, variant=SignatureVariant(int(method[-1])))

        def run_sigtest(y):
            out = sigtest(y, cfg)
            return {"C": out.C}, out.split
        return run_sigtest
    if method == "ad":
        call = lambda y: anderson_darling(y, alpha)
    elif method == "ks":
        ks_ref = lilliefors_table(reference_N) if reference_N else None
        call = lambda y: ks_lilliefors(y, alpha, reference=ks_ref)
    elif method == "dip":
        dip_ref = dip_reference_table(reference_N, dip_B) if reference_N else None
        call = lambda y: dip_test(y, dip_B, reference=dip_ref)
    else:
        raise ValueError(f"unknown test method {method!r}; expected one of {TEST_METHODS}")

    def run_baseline(y):
        dec = call(y)
        return {"statistic": dec.statistic, "p_value": dec.p_value}, dec.reject_unimodal
    return run_baseline


def time_method(func, inputs) -> float:
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


def run_test_benchmark(separations=DEFAULT_SEPARATIONS, runs: int = 100,
                       seed: int = 7, methods=TEST_METHODS,
                       sigtest_config: SigtestConfig = SigtestConfig(),
                       alpha_ks: float = KS_ALPHA,
                       timing_runs: int = 10) -> list[BenchmarkRecord]:
    """Success rate and mean per-call time of each test on two-cluster data.

    For every separation, ``runs`` fresh two-cluster samples (1-d, the
    TwoClusterSpec defaults of 100 points per side at unit sigma) are
    generated from substreams of ``seed`` and shared across methods;
    success means the method rejects unimodality. sigtest1 and sigtest2
    take gamma and threshold from ``sigtest_config`` and the signature
    variant from their name, AD runs at AD_ALPHA, KS at ``alpha_ks``, and
    the dip test with a DIP_BOOTSTRAP_B bootstrap. Timing uses
    ``timing_runs`` additional samples per cell and times the
    self-contained method call (see module docstring).
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    N = 2 * TwoClusterSpec.n_per_cluster
    data = {
        sep: [_sweep_sample(sep, _substream_seed(seed, si, r)) for r in range(runs)]
        for si, sep in enumerate(separations)
    }

    records = []
    for method in methods:
        alpha = _alpha_for(method, alpha_ks)
        fast = _make_test(method, sigtest_config, alpha, DIP_BOOTSTRAP_B, reference_N=N)
        cold = _make_test(method, sigtest_config, alpha, DIP_BOOTSTRAP_B)
        for si, sep in enumerate(separations):
            successes = sum(fast(y)[1] for y in data[sep])
            timing_inputs = [_sweep_sample(sep, _substream_seed(seed, 1000 + si, r))
                             for r in range(timing_runs)]
            mean_t = time_method(cold, timing_inputs) if timing_runs else None
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

    Each run clusters the dataset with an independent seed substream.
    VI/ARI are reported against the manifest's label column and omitted
    for unlabeled data. A dataset that fails to load aborts with an error
    naming it; no partial records are emitted for it.
    """
    records = []
    for di, manifest in enumerate(manifests):
        if isinstance(manifest, str):
            from .data_io import bundled_manifest
            manifest = bundled_manifest(manifest)
        try:
            data = load_csv(manifest)
        except Exception as exc:
            raise type(exc)(f"dataset {manifest.name!r}: {exc}") from exc
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
    seps = sorted({r.separation for r in records})
    lines = []
    header = "method    " + "".join(f"{s:>9g}s" for s in seps) + "   mean time (s)"
    lines.append(header)
    lines.append("-" * len(header))
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
    datasets = []
    for r in records:
        if r.dataset not in datasets:
            datasets.append(r.dataset)
    methods = []
    for r in records:
        if r.method not in methods:
            methods.append(r.method)
    lines = []
    header = f"{'dataset':<10}{'quantity':<10}" + "".join(f"{m:>16}" for m in methods)
    lines.append(header)
    lines.append("-" * len(header))
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
                    std = getattr(rec, std_f)
                    cells.append(f"{mean:>9.2f}+-{std:<5.2f}")
            lines.append(f"{ds if label == 'k' else '':<10}{label:<10}" + "".join(cells))
    return "\n".join(lines)
