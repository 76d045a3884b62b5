"""The calibration caches and the two reference experiments.

success_pct comes from the paper's two-cluster test sweep (Table 1),
run by the library's run_test_benchmark at the run's seed. On the tests
workload, whose sigtest and AD ops are that sweep's samples, the rates of
the timed ops are compared with the library's cell by cell. ari_mean and
k_err_mean come from the workload's own clusterer ops; on tests those are
the iris/seeds reference clustering, compared per dataset x method with
run_cluster_benchmark at the same seed, so the harness and the existing
records cannot drift apart.
"""

import numpy as np

from sigcluster import (
    dip_reference_table,
    lilliefors_table,
    run_cluster_benchmark,
    run_test_benchmark,
)
from sigcluster.benchmark import DEFAULT_SEPARATIONS
from sigcluster.sigtest import _frozen_bounds

from workloads import CLUSTER_KINDS, REFERENCE_RUNS, SWEEP_RUNS, bundled_sets

# run_test_benchmark's names for the four tests the workloads time
SWEEP_METHODS = {"sigtest": "sigtest1", "ad": "ad", "ks": "ks", "dip": "dip"}

CACHES = {
    "frozen_bounds": _frozen_bounds,
    "lilliefors_table": lilliefors_table,
    "dip_reference_table": dip_reference_table,
}
TABLES = ("lilliefors_table", "dip_reference_table")


def clear_caches() -> None:
    for fn in CACHES.values():
        fn.cache_clear()


def cache_counts() -> dict:
    """{cache: (hits, misses)} since the caches were last cleared."""
    return {name: (fn.cache_info().hits, fn.cache_info().misses)
            for name, fn in CACHES.items()}


def table_builds(before: dict, after: dict) -> int:
    """Calibration tables built between two cache_counts() snapshots."""
    return sum(after[t][1] - before[t][1] for t in TABLES)


def sweep_success(seed: int, cells, problems: list) -> float:
    """Mean rejection rate (%) over tests x separations of the sweep.

    ``cells`` maps (kind, separation index) to the decisions of the
    workload's own ops on that cell's samples; each cell that holds all
    of its samples is checked against run_test_benchmark.
    """
    records = run_test_benchmark(runs=SWEEP_RUNS, seed=seed,
                                 methods=tuple(SWEEP_METHODS.values()), timing_runs=0)
    library = {(r.method, r.separation): r.success_rate for r in records}
    for (kind, si), rejects in cells.items():
        if len(rejects) != SWEEP_RUNS:
            continue
        sep = float(DEFAULT_SEPARATIONS[si])
        rate = 100.0 * sum(rejects) / SWEEP_RUNS
        if rate != library[SWEEP_METHODS[kind], sep]:
            problems.append(f"{kind} at separation {sep}: rate {rate} != "
                            f"run_test_benchmark {library[SWEEP_METHODS[kind], sep]}")
    return float(np.mean(list(library.values())))


def reference_quality(seed: int, pairs, problems: list):
    """(ari_mean, k_err_mean) over the iris/seeds reference ops, checked
    per dataset x method against run_cluster_benchmark. ``pairs`` are
    (op, outcome) of those ops in run order."""
    sets = bundled_sets()
    records = run_cluster_benchmark([d.name for d in sets], methods=CLUSTER_KINDS,
                                    runs=REFERENCE_RUNS, seed=seed)
    for rec in records:
        di = [d.name for d in sets].index(rec.dataset)
        mine = [o for op, o in pairs if op.kind == rec.method][:REFERENCE_RUNS]  # run order kept
        k_mean = float(np.mean([o.ks[di][0] for o in mine]))
        ari_mean = float(np.mean([o.aris[di] for o in mine]))
        if (k_mean, ari_mean) != (rec.k_mean, rec.ari_mean):
            problems.append(f"{rec.dataset}/{rec.method}: k {k_mean} ari {ari_mean} != "
                            f"run_cluster_benchmark k {rec.k_mean} ari {rec.ari_mean}")
    return quality([o for _, o in pairs])


def quality(outcomes):
    """(ari_mean, k_err_mean) over the clusterings of ``outcomes``."""
    aris = [a for o in outcomes for a in o.aris]
    errs = [abs(k - k_true) for o in outcomes for k, k_true in o.ks]
    return float(np.mean(aris)), float(np.mean(errs))
