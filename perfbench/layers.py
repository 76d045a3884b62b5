"""Per-layer timings for the traced run, taken from outside the library
around calls into each layer's public functions, on the workload's own
inputs: its 1-d test samples and the datasets its clusterers see.

The ``roadmap.*`` rows re-time the points that ROADMAP.md quotes under
"Recent" (sigtest and dip at N=200 and N=2*10^4, AD at N=200, one dip
table at B=1000, N=200) on standard-normal samples.
"""

import statistics
import time

import numpy as np

from sigcluster import (
    SignatureVariant,
    SigtestConfig,
    TwoClusterSpec,
    anderson_darling,
    anderson_darling_statistic,
    bundled_manifest,
    compute_bounds,
    compute_signature,
    count_violations,
    dip_reference_dips,
    dip_reference_table,
    dip_statistic,
    gen_two_clusters,
    kmeans,
    ks_statistic,
    lilliefors_reference,
    lilliefors_table,
    load_csv,
    normalize,
    sigtest,
    sorted_abs,
)

from workloads import N_PER_CLUSTER, blob_set

# ROADMAP.md "Recent" figures, in each row's unit
ROADMAP_FIGURES = {
    "roadmap.sigtest_n200_us": 30.0,
    "roadmap.sigtest_n20000_us": 2700.0,
    "roadmap.ad_n200_us": 720.0,
    "roadmap.dip_n200_us": 280.0,
    "roadmap.dip_n20000_ms": 25.0,
    "roadmap.dip_table_n200_s": 0.24,
}


def median_call(fn, args_list, reps: int) -> float:
    """Median seconds of one call of fn over reps x args_list calls."""
    times = []
    for _ in range(reps):
        for args in args_list:
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sigtest_rows(samples) -> dict:
    cfg = SigtestConfig()
    z = [normalize(y) for y in samples]
    s = [sorted_abs(v) for v in z]
    sig = [compute_signature(v) for v in s]
    bounds = compute_bounds(len(samples[0]), cfg)
    same_n = [(g, bounds) for g in sig if len(g) == len(bounds)]
    sig2 = SigtestConfig(variant=SignatureVariant.SIGNATURE2)
    return {
        "sigtest.normalize_us": 1e6 * median_call(normalize, [(y,) for y in samples], 50),
        "sigtest.sort_us": 1e6 * median_call(sorted_abs, [(v,) for v in z], 50),
        "sigtest.erf_us": 1e6 * median_call(compute_signature, [(v,) for v in s], 50),
        "sigtest.band_us": 1e6 * median_call(count_violations, same_n, 50),
        "sigtest.sig2_us": 1e6 * median_call(lambda y: sigtest(y, sig2), [(y,) for y in samples], 50),
    }


def baseline_rows(samples) -> dict:
    args = [(y,) for y in samples]
    N = len(samples[0])
    lilliefors_table(N)
    dip_reference_table(N, 1000)
    warm = median_call(lambda: (lilliefors_table(N), dip_reference_table(N, 1000)), [()], 200)
    return {
        "baselines.ad_us": 1e6 * median_call(anderson_darling_statistic, args, 20),
        "baselines.ks_us": 1e6 * median_call(ks_statistic, args, 20),
        "baselines.dip_us": 1e6 * median_call(dip_statistic, args, 5),
        "baselines.ks_table_cold_s": median_call(lilliefors_reference, [(N,)], 3),
        "baselines.dip_table_cold_s": median_call(dip_reference_dips, [(N, 1000)], 3),
        # two lookups per call: one per table
        "baselines.table_warm_us": 1e6 * warm / 2,
    }


def clustering_rows(cluster_sets, seed: int) -> dict:
    args = [(data, k, seed) for data, k in cluster_sets]
    return {"clustering.kmeans_s": median_call(kmeans, args, 1 if len(args) > 4 else 3)}


def io_rows(workload: str, seed: int) -> dict:
    """data_io loads the bundled sets (as the tests workload does for its
    reference clustering); synthetic generates one input of the
    workload's synthetic kind: a blob set, else a two-cluster sample."""
    manifests = [(bundled_manifest(n),) for n in ("iris", "seeds")]
    if workload == "blobs":
        gen, gen_args = blob_set, [(seed, b) for b in range(3)]
    else:
        gen = gen_two_clusters
        gen_args = [(TwoClusterSpec(n_per_cluster=N_PER_CLUSTER, separation=2.5,
                                    seed=seed + r),) for r in range(20)]
    return {
        "data_io.load_ms": 1e3 * median_call(load_csv, manifests, 10),
        "synthetic.gen_ms": 1e3 * median_call(gen, gen_args, 3),
    }


def roadmap_rows(seed: int) -> dict:
    rng = np.random.default_rng([seed, 7000])
    small = [rng.standard_normal(200) for _ in range(20)]
    large = [rng.standard_normal(20_000) for _ in range(3)]
    cfg = SigtestConfig()
    sig = lambda y: sigtest(y, cfg)
    return {
        "roadmap.sigtest_n200_us": 1e6 * median_call(sig, [(y,) for y in small], 20),
        "roadmap.sigtest_n20000_us": 1e6 * median_call(sig, [(y,) for y in large], 10),
        "roadmap.ad_n200_us": 1e6 * median_call(anderson_darling, [(y,) for y in small], 5),
        "roadmap.dip_n200_us": 1e6 * median_call(dip_statistic, [(y,) for y in small], 5),
        "roadmap.dip_n20000_ms": 1e3 * median_call(dip_statistic, [(y,) for y in large], 2),
        "roadmap.dip_table_n200_s": median_call(dip_reference_dips, [(200, 1000)], 3),
    }


def roadmap_comparison(rows: dict) -> list:
    """Lines stating each roadmap row against the ROADMAP figure."""
    return [f"{name}: {rows[name]:.4g} here vs {ref:g} in ROADMAP.md "
            f"(x{rows[name] / ref:.2f})" for name, ref in ROADMAP_FIGURES.items()]
