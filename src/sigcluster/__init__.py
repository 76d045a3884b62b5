"""sigcluster: signature-based unimodality testing and cluster-count
estimation, with the classic baselines and a reproduction harness.

The signature test (Sigtest) compares the half-normal-CDF-mapped sorted
absolute values of the normalized 1-d sample against a probabilistic
order-statistic band. The paper calls it a unimodality test, but the band
is that of a Gaussian sample, so it tests Gaussian shape: at N = 200 it
rejects most uniform and Laplace samples, which the dip test accepts
(README, "Where the results differ from the paper"). Hierarchical
wrappers use it (or Anderson-Darling / the dip test) as a
cluster-splitting criterion to estimate the number of clusters.

The package re-exports the function ``sigtest`` under the name of its
submodule, so ``sigcluster.sigtest``, and the name that
``import sigcluster.sigtest as m`` binds, is the function, not the
module. The module's own names are reached with
``from sigcluster.sigtest import ...``, and the module itself with
``importlib.import_module("sigcluster.sigtest")``.
"""

from .baselines import (
    AD_CRITICAL_VALUES,
    BaselineDecision,
    anderson_darling,
    anderson_darling_statistic,
    dip_reference_dips,
    dip_reference_table,
    dip_statistic,
    dip_test,
    ks_lilliefors,
    ks_statistic,
    lilliefors_reference,
    lilliefors_table,
)
from .benchmark import (
    BenchmarkRecord,
    format_cluster_table,
    format_test_table,
    run_cluster_benchmark,
    run_test_benchmark,
)
from .clustering import (
    ADCriterion,
    ClusteringResult,
    DipViewerCriterion,
    KSCriterion,
    SigtestCriterion,
    SplitRecord,
    dipmeans_family,
    gmeans_family,
    kmeans,
    project_split,
    run_method,
)
from .core import half_normal_cdf, normalize, sorted_abs
from .data_io import (
    DatasetManifest,
    bundled_manifest,
    load_csv,
    read_results,
    write_results,
)
from .dataset import Dataset
from .metrics import ari, vi
from .sigtest import (
    SignatureBounds,
    SignatureVariant,
    SigtestConfig,
    TestOutcome,
    compute_bounds,
    compute_signature,
    count_violations,
    signature_moments,
    sigtest,
)
from .synthetic import TwoClusterSpec, gen_gaussian, gen_two_clusters

__version__ = "0.1.0"

__all__ = [
    "AD_CRITICAL_VALUES", "ADCriterion", "BaselineDecision", "BenchmarkRecord",
    "ClusteringResult", "Dataset", "DatasetManifest",
    "DipViewerCriterion", "KSCriterion", "SignatureBounds", "SignatureVariant",
    "SigtestConfig", "SigtestCriterion", "SplitRecord", "TestOutcome",
    "TwoClusterSpec", "anderson_darling", "anderson_darling_statistic", "ari",
    "bundled_manifest", "compute_bounds", "compute_signature",
    "count_violations", "dip_reference_dips", "dip_reference_table",
    "dip_statistic", "dip_test", "dipmeans_family", "format_cluster_table",
    "format_test_table", "gen_gaussian", "gen_two_clusters", "gmeans_family",
    "half_normal_cdf", "kmeans", "ks_lilliefors", "ks_statistic",
    "lilliefors_reference", "lilliefors_table", "load_csv", "normalize",
    "project_split", "read_results", "run_cluster_benchmark", "run_method",
    "run_test_benchmark", "signature_moments", "sigtest", "sorted_abs",
    "vi", "write_results",
]
