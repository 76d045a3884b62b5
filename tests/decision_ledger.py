"""The decision ledger: every decision the package makes on a fixed set of
inputs, written to ``decision_ledger.json`` beside this file and checked
by ``test_decision_ledger.py``.

The ledger holds
- the Table-1 sweep, ``run_test_benchmark(timing_runs=0)`` (acceptance
  criterion 1's protocol), its records without ``mean_time_s``;
- for each clusterer, dataset and run seed 0-2: k, the ARI against the
  dataset's labels and a sha256 of the assignment and the split log
  (each statistic as float hex, so the digest moves with any bit);
- the numpy version it was written with. Under another version the
  digests are not compared, since float kernels may round differently;
  the sweep, k and ARI still are.

The datasets are iris and seeds as bundled, two sets of five Gaussian
blobs (5 x 200 points, d = 8), a single Gaussian rounded to a grain of
half its standard deviation (tied values; ROADMAP item 7) and a single
uniform square (a unimodal cluster that is not Gaussian; ROADMAP item
10). The single-cluster sets are labeled as one cluster.

Regenerate the ledger only in a change that means to move decisions, and
disclose the diff in CHANGES.md as that change's before/after report:

    PYTHONPATH=src python tests/decision_ledger.py

``--diff`` writes nothing and prints that report: whether the sweep moved,
and each run entry that moved, with its k, ARI and whether its digest
moved.

    PYTHONPATH=src python tests/decision_ledger.py --diff
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from sigcluster import (
    Dataset,
    ari,
    bundled_manifest,
    gen_gaussian,
    load_csv,
    run_method,
    run_test_benchmark,
)
from sigcluster.clustering import METHOD_NAMES

LEDGER = Path(__file__).with_name("decision_ledger.json")
RUN_SEEDS = range(3)
BLOB_COMPONENTS, BLOB_POINTS, BLOB_DIM = 5, 200, 8
# centre-to-centre distance of the blobs, in standard deviations
BLOB_EDGE = 23.2


def blobs(index: int) -> Dataset:
    """Five unit-variance blobs at the vertices of a regular simplex."""
    centres = BLOB_EDGE / np.sqrt(2.0) * np.eye(BLOB_DIM)[:BLOB_COMPONENTS]
    rows = np.vstack([gen_gaussian(BLOB_POINTS, mean=c, dimension=BLOB_DIM,
                                   seed=100 * index + j).rows
                      for j, c in enumerate(centres)])
    labels = np.repeat(np.arange(BLOB_COMPONENTS), BLOB_POINTS)
    return Dataset(rows=rows, labels=labels, name=f"blobs[{index}]")


def rounded_gaussian() -> Dataset:
    """1000 draws of N(0, 2^2) rounded to integers: 0.5 sigma grain."""
    rows = np.round(2.0 * gen_gaussian(1000, dimension=1, seed=0).rows)
    return Dataset(rows=rows, labels=np.zeros(len(rows), dtype=int), name="rounded_gaussian")


def uniform_square() -> Dataset:
    """1000 draws from the uniform distribution on the unit square."""
    rows = np.random.default_rng([0]).uniform(size=(1000, 2))
    return Dataset(rows=rows, labels=np.zeros(len(rows), dtype=int), name="uniform_square")


def datasets() -> dict[str, Dataset]:
    return {"iris": load_csv(bundled_manifest("iris")),
            "seeds": load_csv(bundled_manifest("seeds")),
            "blobs0": blobs(0), "blobs1": blobs(1),
            "rounded_gaussian": rounded_gaussian(),
            "uniform_square": uniform_square()}


def digest(result) -> str:
    """sha256 of the assignment (int64) and every split record, its status
    ("tested" or "settled") included."""
    h = hashlib.sha256(np.asarray(result.assignment, dtype=np.int64).tobytes())
    for rec in result.split_log:
        h.update(repr((rec.round, rec.cluster_id, rec.criterion, float(rec.statistic).hex(),
                       bool(rec.decision), bool(rec.accepted), int(rec.n), rec.status)).encode())
    return h.hexdigest()


def compute_ledger(sweep_records=None) -> dict:
    """The ledger, its sweep from ``sweep_records`` when given (records of
    the same protocol, any timing) and else drawn here."""
    if sweep_records is None:
        sweep_records = run_test_benchmark(timing_runs=0)
    sweep = [{k: v for k, v in dataclasses.asdict(r).items() if k != "mean_time_s"}
             for r in sweep_records]
    runs = {}
    for name, data in datasets().items():
        for method in METHOD_NAMES:
            for seed in RUN_SEEDS:
                result = run_method(method, data, seed=seed)
                runs[f"{name} {method} {seed}"] = {
                    "k": result.k, "ari": ari(result.assignment, data.labels),
                    "digest": digest(result)}
    return {"numpy": np.__version__, "sweep": sweep, "runs": runs}


def moved_runs(committed: dict, now: dict) -> list[str]:
    """One line per run entry that differs between two ledgers: its k,
    ARI and whether its digest moved (an entry only one holds reads
    None on the other side)."""
    lines = []
    for key in sorted(committed["runs"].keys() | now["runs"].keys()):
        old, new = committed["runs"].get(key), now["runs"].get(key)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{key}: {old} -> {new}")
            continue
        digest = "moved" if old.get("digest") != new.get("digest") else "kept"
        lines.append(f"{key}: k {old['k']} -> {new['k']}, "
                     f"ARI {old['ari']:.3f} -> {new['ari']:.3f}, digest {digest}")
    return lines


def main(argv) -> int:
    if argv not in ([], ["--diff"]):
        print("usage: decision_ledger.py [--diff]", file=sys.stderr)
        return 2
    now = json.loads(json.dumps(compute_ledger()))  # the floats as the file holds them
    if not argv:
        LEDGER.write_text(json.dumps(now, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {LEDGER}")
        return 0
    committed = json.loads(LEDGER.read_text(encoding="utf-8"))
    if now["numpy"] != committed["numpy"]:
        print(f"ledger written with numpy {committed['numpy']}, running {now['numpy']}: "
              "digests may differ by rounding alone")
    print("sweep: " + ("unchanged" if now["sweep"] == committed["sweep"] else "moved"))
    moved = moved_runs(committed, now)
    print(f"runs: {len(moved)} of {len(committed['runs'])} moved")
    for line in moved:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
