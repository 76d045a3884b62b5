"""sigcluster benchmark: one closed-loop caller, one process.

    python3 perfbench/run.py --workload {tests,blobs} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src and
nowhere else. The launcher pins BLAS to one thread before numpy loads.

--trace 0 measures the end-to-end metrics with tracing off:
  1. SETUP_REPS rounds of a cold set-up followed by a timed chunk. A
     set-up clears the calibration caches, loads and generates the
     inputs and runs one warm-up pass over the op list, which builds
     every KS or dip table the workload needs; setup_s is the import
     time plus the median set-up. A chunk repeats full passes over the
     fixed op list for about --seconds / SETUP_REPS. Every op is checked
     against the first warm-up's fingerprint, and no calibration table
     may be built in a chunk. A pass runs the ops block by block, with a
     probe of the host CPU's speed between blocks (speed.py), and every
     time reported is divided by the probe's ratio to its full-speed
     time around it: the time at the reference host's full speed;
  2. a tracemalloc pass for peak_mb (dip-bound ops excluded);
  3. success_pct from run_test_benchmark's sweep, and ari_mean (and
     k_err_mean, kept in the record and the per-layer rows) from the
     workload's own clusterer ops; on tests both are checked against
     run_test_benchmark and run_cluster_benchmark.
--trace 1 runs each op untraced and then traced, back to back, for
  --seconds, reports the per-layer metrics and writes the spans.

The last line of standard output is the JSON result. A full record with
the environment, sample counts, percentiles, cache counts, the raw
(unadjusted) times and the speed ratios goes to .bench_out/ in the
checkout.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """Put ./src first on the path and import sigcluster from it, or exit."""
    if not (SRC / "sigcluster" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sigcluster sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigcluster
    if Path(sigcluster.__file__).resolve().parent != (SRC / "sigcluster").resolve():
        sys.exit(f"perfbench: sigcluster imported from {sigcluster.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tests", "blobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import harness
    import_s = time.perf_counter() - _T_START
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
