"""Command-line interface.

Subcommands
-----------
test           run one unimodality test on a file of observations
cluster        cluster a dataset with gmeans/gmeans+/dipmeans/dipmeans+
bench-tests    success-rate/timing sweep over two-cluster separations
bench-cluster  k/VI/ARI benchmark over labeled datasets

Exit codes: 0 success (and "unimodal" for `test`), 3 split detected
(`test` only), 2 usage error, 1 runtime error. The SIGCLUSTER_OUT_DIR
environment variable sets the default output directory.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baselines import AD_ALPHA, DIP_ALPHA, KS_ALPHA, lilliefors_table
from .benchmark import (
    DEFAULT_SEPARATIONS,
    TEST_METHODS,
    format_cluster_table,
    format_test_table,
    run_cluster_benchmark,
    run_test_benchmark,
)
from .clustering import METHOD_NAMES, TEST_CRITERIA, configured, project_split, run_method
from .core import _seed
from .data_io import _BUNDLED, DatasetManifest, _is_csv, bundled_manifest, load_csv, write_results
from .errors import SigclusterError
from .metrics import ari, vi
from .sigtest import SigtestConfig, TestOutcome, _frozen_bounds

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_SPLIT = 3


def _out_dir() -> Path:
    return Path(os.environ.get("SIGCLUSTER_OUT_DIR", "."))


def cmd_test(args) -> int:
    rows = load_csv(DatasetManifest(name=Path(args.input).stem, path=args.input,
                                    delimiter=args.delimiter)).rows
    if rows.shape[1] > 1:
        if args.centroid1 is None or args.centroid2 is None:
            print(
                f"input has {rows.shape[1]} columns; the test is defined on "
                "1-d data. Pass --centroid1/--centroid2 to project onto the "
                "axis through two centroids, or supply a single column.",
                file=sys.stderr,
            )
            return EXIT_USAGE
        c1 = np.array([float(v) for v in args.centroid1.split(",")])
        c2 = np.array([float(v) for v in args.centroid2.split(",")])
        y = project_split(rows, c1, c2)
    else:
        y = rows[:, 0]

    config = SigtestConfig(args.gamma, args.threshold)  # refuses a bad gamma for every method
    criterion = configured(TEST_CRITERIA[args.method], gamma=config.gamma,
                           threshold=config.threshold, alpha=args.alpha)
    report = {
        "input": args.input,
        "method": args.method,
        "N": int(y.size),
        "defaults": {
            "gamma": args.gamma, "threshold": args.threshold,
            "alpha": getattr(criterion, "alpha", None), "dip_alpha": DIP_ALPHA,
        },
    }
    outcome = criterion.decide(y)
    if isinstance(outcome, TestOutcome):
        report.update(C=outcome.C, split=int(outcome.split))
    else:
        report.update(statistic=outcome.statistic, p_value=outcome.p_value,
                      split=int(outcome.reject_unimodal))
    report["decision"] = "split" if report["split"] else "unimodal"
    print(json.dumps(report, indent=2))
    return EXIT_SPLIT if report["split"] else EXIT_OK


def _manifest_from_args(token: str, args) -> DatasetManifest:
    if token in _BUNDLED:
        return bundled_manifest(token)
    label = args.label_column
    if label is not None:
        try:
            label = int(label)
        except ValueError:
            pass
    return DatasetManifest(name=Path(token).stem, path=token, label_column=label,
                           delimiter=args.delimiter, standardize=args.standardize)


# The memoized per-N calibrations a clustering run reads: the signature
# band and the Lilliefors table (the dip reads its calibration grid).
_CACHES = {
    "frozen_bounds": _frozen_bounds,
    "lilliefors_table": lilliefors_table,
}


def _cache_report(before: dict) -> dict:
    """hits and misses of each of _CACHES since ``before`` (its
    cache_info() snapshots), and its size now."""
    report = {}
    for name, fn in _CACHES.items():
        info = fn.cache_info()
        report[name] = {"hits": info.hits - before[name].hits,
                        "misses": info.misses - before[name].misses,
                        "currsize": info.currsize}
    return report


def cmd_cluster(args) -> int:
    if args.output and _is_csv(args.output):
        print(f"error: --output {args.output}: the cluster report is JSON; "
              "a .csv name would give a file read_results cannot read", file=sys.stderr)
        return EXIT_USAGE
    manifest = _manifest_from_args(args.input, args)
    data = load_csv(manifest)
    config = SigtestConfig(args.gamma, args.threshold)
    before = {name: fn.cache_info() for name, fn in _CACHES.items()}
    result = run_method(args.method, data, seed=args.seed, sigtest_config=config)
    report = {
        "dataset": manifest.name,
        "method": args.method,
        "n": data.n,
        "d": data.d,
        "k": result.k,
        "standardize": manifest.standardize,
        "defaults": {"gamma": args.gamma, "threshold": args.threshold,
                     "seed": args.seed},
        "split_log": [asdict(rec) for rec in result.split_log],
        "assignment": result.assignment.tolist(),
    }
    if data.labels is not None:
        report["vi"] = vi(result.assignment, data.labels)
        report["ari"] = ari(result.assignment, data.labels)
    report["caches"] = _cache_report(before)
    out = _out_dir() / (args.output or f"{manifest.name}_{args.method}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    summary = {k: v for k, v in report.items() if k not in ("split_log", "assignment")}
    print(json.dumps(summary, indent=2))
    print(f"full result written to {out}")
    return EXIT_OK


def _write_records(records, name: str) -> int:
    """The bench commands' last step: write the records as ``name`` in
    the output directory and say where."""
    out = _out_dir() / name
    write_results(records, out)
    print(f"records written to {out}")
    return EXIT_OK


def cmd_bench_tests(args) -> int:
    separations = [float(s) for s in args.separations.split(",")]
    records = run_test_benchmark(
        separations=separations, runs=args.runs, seed=args.seed,
        sigtest_config=SigtestConfig(args.gamma, args.threshold),
        timing_runs=args.timing_runs,
    )
    print(f"two-cluster test benchmark: runs={args.runs} seed={args.seed} "
          f"gamma={args.gamma} threshold={args.threshold} "
          f"alpha_ks={KS_ALPHA} timing_runs={args.timing_runs}")
    print(format_test_table(records))
    return _write_records(records, args.output or "bench_tests.json")


def cmd_bench_cluster(args) -> int:
    manifests = [_manifest_from_args(tok, args) for tok in args.datasets.split(",")]
    records = run_cluster_benchmark(
        manifests, methods=args.methods.split(","), runs=args.runs,
        seed=args.seed,
        sigtest_config=SigtestConfig(args.gamma, args.threshold),
    )
    standardized = {m.name: m.standardize for m in manifests}
    print(f"clustering benchmark: runs={args.runs} seed={args.seed} "
          f"gamma={args.gamma} threshold={args.threshold} "
          f"standardize={standardized}")
    print(format_cluster_table(records))
    return _write_records(records, args.output or "bench_cluster.json")


def _seed_arg(text: str) -> int:
    """--seed as an int of at least 0; argparse reports anything else as a
    usage error."""
    try:
        return _seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 0, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigcluster",
        description="Signature-based unimodality testing and cluster-count estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    results_help = "results file: CSV when its name ends in .csv, else JSON"

    def common_test_opts(p, delimiter=True):
        p.add_argument("--gamma", type=float, default=SigtestConfig.gamma,
                       help=f"band half-width in std units (default {SigtestConfig.gamma:g})")
        p.add_argument("--threshold", type=float, default=SigtestConfig.threshold,
                       help=f"violation-fraction threshold (default {SigtestConfig.threshold:g})")
        if delimiter:
            p.add_argument("--delimiter", default=",")

    def seeded_opts(p, delimiter=True):
        common_test_opts(p, delimiter)
        p.add_argument("--seed", type=_seed_arg, default=7, help="master seed, at least 0")

    p = sub.add_parser("test", help="unimodality test on a file of observations")
    p.add_argument("input", help="CSV of observations (single numeric column, "
                                 "or multi-column with --centroid1/--centroid2)")
    p.add_argument("--method", choices=TEST_METHODS, default="sigtest1")
    p.add_argument("--alpha", type=float, default=None,
                   help=f"significance for ad/ks (defaults: {AD_ALPHA:g} for ad, "
                        f"{KS_ALPHA:g} for ks)")
    p.add_argument("--centroid1", help="comma-separated centroid for projection")
    p.add_argument("--centroid2", help="comma-separated centroid for projection")
    common_test_opts(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("cluster", help="cluster a dataset, estimating k")
    p.add_argument("input", help=f"bundled name ({', '.join(_BUNDLED)}) or CSV path")
    p.add_argument("--method", choices=METHOD_NAMES, default="gmeans+")
    p.add_argument("--label-column", default=None,
                   help="label column name or index for external CSVs")
    p.add_argument("--standardize", action="store_true",
                   help="standardize columns of external CSVs")
    p.add_argument("--output", default=None, help="output JSON filename (not .csv)")
    seeded_opts(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench-tests", help="two-cluster success-rate benchmark")
    p.add_argument("--separations", default=",".join(str(s) for s in DEFAULT_SEPARATIONS))
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--timing-runs", type=int, default=10)
    p.add_argument("--output", default=None, help=results_help)
    seeded_opts(p, delimiter=False)
    p.set_defaults(func=cmd_bench_tests)

    p = sub.add_parser("bench-cluster", help="k/VI/ARI benchmark on datasets")
    p.add_argument("--datasets", default=",".join(_BUNDLED),
                   help="comma list of bundled names or CSV paths")
    p.add_argument("--methods", default=",".join(METHOD_NAMES))
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--label-column", default=None)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--output", default=None, help=results_help)
    seeded_opts(p)
    p.set_defaults(func=cmd_bench_cluster)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (SigclusterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
