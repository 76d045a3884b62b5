"""Compare the signature test against Anderson-Darling, Lilliefors KS and
the dip test on two overlapped Gaussian clusters.

Each cell: how often the method rejects unimodality over seeded runs of
two 100-point clusters at the given center separation, plus the mean
per-call wall time of the method. KS and the dip test decide against
seeded calibration tables built once per sample size (about 70 ms and
0.25 s at N=200); the sweep builds them before the timed calls, so
their times are per-call costs with the table warm.

Run: python demos/02_test_benchmark.py          (a few seconds)
     python demos/02_test_benchmark.py --fast   (sigtest and AD only)
"""

import sys

from sigcluster import format_test_table, run_test_benchmark, write_results

fast = "--fast" in sys.argv
methods = ("sigtest1", "sigtest2", "ad") if fast else None
kwargs = dict(runs=50, seed=7, timing_runs=2)
if methods:
    kwargs["methods"] = methods

records = run_test_benchmark(**kwargs)
print(format_test_table(records))
print()
print("notes:")
print(" - success = the method rejects unimodality on genuinely bimodal data")
print(" - the signature test reads its decision off a precomputable band;")
print("   KS and dip read seeded tables built once per sample size, and")
print("   the times above leave that one-off build out")

write_results(records, "bench_tests_demo.json")
print("records written to bench_tests_demo.json")
