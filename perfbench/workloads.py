"""Seeded inputs and op lists of the two benchmark workloads.

Every input is a pure function of the workload seed; the library only
ever receives the generated arrays and datasets. An op is one call that
the timed loop measures: a self-contained unimodality test on a 1-d
sample, or one clusterer run on one or more datasets.

Workloads
---------
tests     the paper's speed claim: 1-d two-cluster samples (N=200) with
          separations cycling through DEFAULT_SEPARATIONS, exactly the
          samples of run_test_benchmark's success sweep. Sigtest and AD run
          on every sample, the self-contained KS (with its 10^4 replicate
          calibration) and dip (with its B=1000 bootstrap) on one sample per
          separation. The clusterers run the iris/seeds reference
          clustering of run_cluster_benchmark: small clusters (every member
          is a viewer), split-loop overhead and small-N tests on warm
          tables. Clustering the 1-d samples instead made the clusterer
          timings follow how many samples happened to split, which moved
          them by 40% from seed to seed.
blobs     five unit-variance Gaussian components, 200 points each, d=8,
          centres on a regular simplex with the typical spacing of
          N(0, 6^2 I) centres, rotated at random by the seed. The tests run
          on the 2-means projections of single components (N=200), the
          input on which a projection criterion should not split (KS and
          dip on two components only).

Sigtest and AD take microseconds to a millisecond, so every workload
gives them many inputs; a figure from one or two calls of that size is
mostly timer and cache noise. The op list is cut into SLICES slices, each
holding an equal share of every kind's ops, and runs each kind's share
back to back, as a caller looping over one test would (interleaved one
by one with the clusterers, whose arrays evict the caches, sigtest and
AD ran up to 2x slower). So every kind is timed at SLICES moments of
each pass: on a shared host the CPU slows by 1.3-2x for fractions of a
second to minutes at a time, and a kind timed in one stretch of a pass
follows whatever the host did then. A kind's share of a slice is a
block; the harness probes the host speed between blocks (speed.py).
"""

from dataclasses import dataclass

import numpy as np

from sigcluster import (
    Dataset,
    SigtestConfig,
    TwoClusterSpec,
    anderson_darling,
    bundled_manifest,
    dip_test,
    gen_gaussian,
    gen_two_clusters,
    kmeans,
    ks_lilliefors,
    load_csv,
    project_split,
    run_method,
    sigtest,
)
from sigcluster.benchmark import DEFAULT_SEPARATIONS

TEST_KINDS = ("sigtest", "ad", "ks", "dip")
CLUSTER_KINDS = ("gmeans", "gmeans+", "dipmeans", "dipmeans+")

SWEEP_RUNS = 100        # two-cluster samples per separation (run_test_benchmark default)
REFERENCE_RUNS = 10     # run seeds per clusterer checked against run_cluster_benchmark
# Run seeds per clusterer on iris and seeds. gmeans and gmeans+ take
# about 8 ms an op; with 10 run seeds their (speed-adjusted) time spread
# 0.11-0.14 over five workload seeds, with 40 0.04-0.07 over ten.
RUN_SEEDS = {"gmeans": 40, "gmeans+": 40, "dipmeans": 10, "dipmeans+": 20}
N_PER_CLUSTER = 100     # the paper's N = 200
BLOB_SETS = 32          # for gmeans and gmeans+ (gmeans+ spread 0.15 over five seeds with 16)
# blob sets for the dipmeans pair: classic dipmeans takes about 1 s an
# op (its time spread 0.11 over ten seeds with one set, 0.05-0.08 with
# two), dipmeans+ 0.25 s (0.12 over five seeds with two sets)
BLOB_DIPMEANS_SETS = {"dipmeans": 2, "dipmeans+": 4}
BLOB_COMPONENTS = 5
# per component: n = 1000, a ROADMAP blob size. At n = 3000 one run took
# 49-90 s here (three cold set-ups of classic dipmeans alone: 45-60 s),
# too long for a run budget of about 45 s.
BLOB_POINTS = 200
BLOB_DIM = 8
# Mean distance between two N(0, 6^2 I) points in 8-d: 6 * sqrt(2) * E|z_8|.
# Free Gaussian centres gave each seed its own split tree, and the tree
# sets the dipmeans cost (one m x m x d tensor per tested cluster): the
# dipmeans+ time moved by +-15% from seed to seed. Equidistant centres
# give every seed the same cluster sizes and keep the typical separation.
BLOB_EDGE = 23.2
SLICES = 5              # moments per pass at which every kind is timed


def substream_seed(*parts) -> int:
    """The seed derivation of sigcluster.benchmark, so the sweep and the
    reference clustering draw exactly what run_test_benchmark and
    run_cluster_benchmark draw (checks.py verifies that they agree)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    """One timed call. ``inputs`` holds one 1-d sample for a test, or
    (dataset, k_true, run_seed) triples for a clusterer."""

    kind: str
    inputs: tuple
    cell: int | None = None   # sweep separation index of a tests-workload test op

    @property
    def is_test(self) -> bool:
        return self.kind in TEST_KINDS


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    test_samples: tuple       # the workload's 1-d test inputs (layer rows use them)
    cluster_sets: tuple       # (dataset, k_true) pairs the clusterers see
    blocks: tuple             # (start, end) positions in ops of each kind's share of a slice


def sweep_samples(seed: int, runs: int = SWEEP_RUNS):
    """{separation: [1-d sample, ...]} exactly as run_test_benchmark draws them."""
    return {
        sep: [
            gen_two_clusters(TwoClusterSpec(
                n_per_cluster=N_PER_CLUSTER, separation=sep, dimension=1,
                seed=substream_seed(seed, si, r),
            )).rows[:, 0]
            for r in range(runs)
        ]
        for si, sep in enumerate(DEFAULT_SEPARATIONS)
    }


def bundled_sets():
    return tuple(load_csv(bundled_manifest(name)) for name in ("iris", "seeds"))


def reference_ops(seed: int, sets):
    """Clusterer ops over iris and seeds with run_cluster_benchmark's seeds:
    dataset di, method mi, run r uses substream_seed(seed, di, mi, r)."""
    return tuple(
        Op(kind, tuple((data, 3, substream_seed(seed, di, mi, r))
                       for di, data in enumerate(sets)))
        for mi, kind in enumerate(CLUSTER_KINDS)
        for r in range(RUN_SEEDS[kind])
    )


def blob_set(seed: int, index: int) -> Dataset:
    """Five unit-variance components whose centres are the vertices of a
    regular simplex with edge BLOB_EDGE, rotated at random by the seed."""
    rng = np.random.default_rng([seed, index])
    rotation, _ = np.linalg.qr(rng.normal(size=(BLOB_DIM, BLOB_DIM)))
    centres = BLOB_EDGE / np.sqrt(2.0) * rotation[:BLOB_COMPONENTS]
    rows = np.vstack([
        gen_gaussian(BLOB_POINTS, mean=c, dimension=BLOB_DIM,
                     seed=substream_seed(seed, index, j)).rows
        for j, c in enumerate(centres)
    ])
    labels = np.repeat(np.arange(BLOB_COMPONENTS), BLOB_POINTS)
    return Dataset(rows=rows, labels=labels, name=f"blobs[{index}]")


def root_projection(data: Dataset, seed: int) -> np.ndarray:
    """Members projected on the axis of their own 2-means split."""
    split = kmeans(data, 2, seed=seed)
    return project_split(data.rows, split.centroids[0], split.centroids[1])


def _cheap_and_calibrated(samples, calibrated):
    """Sigtest and AD on every sample, KS and dip on ``calibrated`` ones."""
    ops = [Op(kind, (y,)) for y in calibrated for kind in ("ks", "dip")]
    return ops + [Op(kind, (y,)) for y in samples for kind in ("sigtest", "ad")]


def _tests(seed):
    sweep = list(sweep_samples(seed).values())
    ops = [Op(kind, (ys[0],), si) for si, ys in enumerate(sweep) for kind in ("ks", "dip")]
    ops += [Op(kind, (y,), si) for si, ys in enumerate(sweep) for y in ys
            for kind in ("sigtest", "ad")]
    sets = bundled_sets()
    ops += reference_ops(seed, sets)
    return tuple(ops), tuple(ys[0] for ys in sweep), tuple((d, 3) for d in sets)


def _blobs(seed):
    sets = [blob_set(seed, b) for b in range(BLOB_SETS)]
    samples = tuple(
        root_projection(Dataset(rows=data.rows[j * BLOB_POINTS:(j + 1) * BLOB_POINTS]),
                        substream_seed(seed, 4000, b, j))
        for b, data in enumerate(sets) for j in range(BLOB_COMPONENTS))
    ops = _cheap_and_calibrated(samples, samples[:2])
    ops += [Op(kind, ((data, BLOB_COMPONENTS, substream_seed(seed, 5000, b)),))
            for b, data in enumerate(sets) for kind in ("gmeans", "gmeans+")]
    ops += [Op(kind, ((data, BLOB_COMPONENTS, substream_seed(seed, 5001, b)),))
            for kind, count in BLOB_DIPMEANS_SETS.items() for b, data in enumerate(sets[:count])]
    return tuple(ops), samples, tuple((d, BLOB_COMPONENTS) for d in sets)


def build(name: str, seed: int) -> Workload:
    """Generate (or load) the workload's inputs and its fixed op list."""
    builders = {"tests": _tests, "blobs": _blobs}
    ops, samples, sets = builders[name](seed)
    by_kind = [[op for op in ops if op.kind == kind] for kind in TEST_KINDS + CLUSTER_KINDS]
    order, blocks = [], []
    for part in range(SLICES):
        for group in by_kind:  # op j sits at the slice holding (j + 1/2) / len(group)
            start = len(order)
            order += [op for j, op in enumerate(group)
                      if (2 * j + 1) * SLICES // (2 * len(group)) == part]
            if len(order) > start:
                blocks.append((start, len(order)))
    return Workload(name, tuple(order), samples, sets, tuple(blocks))


def call_test(kind: str, y):
    """One self-contained test call: (statistic, p_value, reject)."""
    if kind == "sigtest":
        out = sigtest(y, SigtestConfig())
        return out.C, None, out.split
    decision = {"ad": anderson_darling, "ks": ks_lilliefors, "dip": dip_test}[kind](y)
    return decision.statistic, decision.p_value, decision.reject_unimodal


def call_cluster(kind: str, data: Dataset, run_seed: int):
    return run_method(kind, data, seed=run_seed)
