"""Estimate the number of clusters on the bundled UCI datasets.

Four hierarchical wrappers start from one cluster and keep bisecting
while a criterion says a cluster is not unimodal:

  gmeans     Anderson-Darling on the child-centroid-axis projection
  gmeans+    signature test on that projection
  dipmeans   dip test on every member's distances to its cluster peers
  dipmeans+  signature test on those viewer distance vectors

Run: python demos/03_cluster_estimation.py
"""

import numpy as np

from sigcluster import (
    ari,
    bundled_manifest,
    load_csv,
    run_method,
    vi,
)

for name in ("iris", "seeds"):
    manifest = bundled_manifest(name)
    data = load_csv(manifest)
    true_k = len(np.unique(data.labels))
    print(f"{name}: N={data.n}, d={data.d}, true k={true_k}, "
          f"standardize={manifest.standardize}")
    for method in ("gmeans", "gmeans+", "dipmeans", "dipmeans+"):
        result = run_method(method, data, seed=0)
        quality = (f"VI={vi(result.assignment, data.labels):.3f} "
                   f"ARI={ari(result.assignment, data.labels):.3f}")
        print(f"  {method:<10} k={result.k}  {quality}")
        for rec in result.split_log:
            verdict = "split" if rec.accepted else ("veto" if rec.decision else "keep")
            print(f"      round {rec.round} cluster {rec.cluster_id:<2} "
                  f"n={rec.n:<4} {rec.criterion}={rec.statistic:<8.4f} {verdict}")
    print()

print("the split log above is the audit trail: replaying its accepted")
print("splits reproduces k, and the statistic column shows how decisive")
print("each decision was (violation fraction, A*^2, or viewer fraction).")
