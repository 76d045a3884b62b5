"""K-means plus the hierarchical splitting wrappers.

``gmeans_family`` bisects a cluster, projects its members onto the axis
through the two child centroids, and asks a 1-d criterion whether the
projection looks unimodal (Anderson-Darling for classic G-means, the
signature test for the "+" variant). ``dipmeans_family`` instead lets
every member act as a viewer that tests its vector of distances to the
other members, and splits when enough viewers reject (the dip test for
classic dip-means, the signature test for the "+" variant).

Both wrappers are deterministic given (data, criterion, seed): every
random choice draws from a substream derived as default_rng([seed,
round, cluster_id, ...]), so per-cluster work could run in parallel and
still merge to the same result in cluster-id order.

References
----------
Hamerly & Elkan (2003), "Learning the k in k-means", NeurIPS 16.
Kalogeratos & Likas (2012), "Dip-means: an incremental clustering method
for estimating the number of clusters", NeurIPS 25.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .baselines import (
    AD_ALPHA,
    DIP_BOOTSTRAP_B,
    anderson_darling,
    dip_reference_table,
    dip_test,
)
from .dataset import Dataset
from .errors import (
    DegenerateInputError,
    IdenticalCentroidsError,
    KTooLargeError,
    TooFewSamplesError,
)
from .sigtest import MIN_SAMPLES, SigtestConfig, sigtest


@dataclass(frozen=True)
class SigtestCriterion:
    """Split when the signature test rejects (projection or viewer mode)."""

    config: SigtestConfig = SigtestConfig()

    # Fraction of rejecting viewers above which dipmeans_family splits.
    # Viewer decisions are strongly correlated (they share one cloud), so
    # under H0 the per-cluster fraction is usually ~0 but occasionally
    # excursions to ~0.13; genuinely multimodal clusters land at >= 0.2 on
    # the benchmark datasets. 0.15 separates the two regimes with margin
    # on both sides.
    viewer_fraction: ClassVar[float] = 0.15

    @property
    def name(self) -> str:
        return f"sigtest{self.config.variant.value}"

    def test(self, y) -> tuple[float, bool]:
        out = sigtest(y, self.config)
        return out.C, out.split


@dataclass(frozen=True)
class ADCriterion:
    """Split when Anderson-Darling rejects normality of the projection."""

    alpha: float = AD_ALPHA

    @property
    def name(self) -> str:
        return "anderson-darling"

    def test(self, y) -> tuple[float, bool]:
        dec = anderson_darling(y, self.alpha)
        return dec.statistic, dec.reject_unimodal


@dataclass(frozen=True)
class DipViewerCriterion:
    """Viewer test for dipmeans_family: dip at bootstrap level zero."""

    bootstrap_B: int = DIP_BOOTSTRAP_B

    # Classic dip-means convention: dip viewers at bootstrap level zero
    # almost never reject under H0, so 1% of viewers is already a signal.
    viewer_fraction: ClassVar[float] = 0.01

    @property
    def name(self) -> str:
        return "dip-viewer"

    def test(self, y) -> tuple[float, bool]:
        ref = dip_reference_table(len(y), self.bootstrap_B)
        dec = dip_test(y, self.bootstrap_B, reference=ref)
        return dec.statistic, dec.reject_unimodal


@dataclass(frozen=True)
class SplitRecord:
    """One criterion evaluation in the splitting loop.

    ``decision`` is the criterion's verdict; ``accepted`` is whether the
    split actually happened (a verdict can be vetoed when a child would
    fall below MIN_SAMPLES). k at the end equals 1 + #accepted.
    """

    round: int
    cluster_id: int
    criterion: str
    statistic: float
    decision: bool
    accepted: bool
    n: int


@dataclass(frozen=True)
class ClusteringResult:
    """Flat assignment, centroids, discovered k and the split audit trail."""

    assignment: np.ndarray
    centroids: np.ndarray
    k: int
    split_log: tuple[SplitRecord, ...] = field(default=())

    def replayed_k(self) -> int:
        """k reconstructed from the log: one start cluster + accepted splits."""
        return 1 + sum(rec.accepted for rec in self.split_log)


def project_split(points, c1, c2) -> np.ndarray:
    """Project rows onto the unit axis through two child centroids.

    Returns <x_i, v> with v = (c1 - c2)/||c1 - c2||; invariant to
    rescaling c1 - c2, and rotating everything rotates v along.

    Raises
    ------
    IdenticalCentroidsError
        If c1 == c2 (axis undefined).
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = np.asarray(c1, dtype=np.float64) - np.asarray(c2, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise IdenticalCentroidsError("child centroids coincide")
    return X @ (v / norm)


def _kmeanspp_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:  # remaining points coincide with chosen centers
            idx = int(np.argmax(~_rows_in(X, centroids[:j])))
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _rows_in(X, C):
    out = np.zeros(len(X), dtype=bool)
    for c in C:
        out |= np.all(X == c, axis=1)
    return out


def _lloyd(X, centroids, max_iter: int = 300):
    """Lloyd iterations until the assignment stops changing.

    Empty clusters steal their nearest point so every cluster stays
    non-empty. Returns (assignment, centroids, total cost).
    """
    k = centroids.shape[0]
    assignment = np.full(X.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(new_assignment == j):
                new_assignment[d2[:, j].argmin()] = j
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            centroids[j] = X[assignment == j].mean(axis=0)
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    cost = float(d2[np.arange(len(X)), assignment].sum())
    return assignment, centroids, cost


def kmeans(data: Dataset, k: int, seed: int = 0) -> ClusteringResult:
    """K-means++ seeding followed by Lloyd iterations to a fixpoint.

    Deterministic given seed; stops at an assignment fixpoint or after
    300 iterations.

    Raises
    ------
    KTooLargeError
        If k exceeds the number of points.
    """
    X = data.rows
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > X.shape[0]:
        raise KTooLargeError(f"k={k} exceeds N={X.shape[0]}")
    rng = np.random.default_rng([seed])
    centroids = _kmeanspp_init(X, k, rng)
    assignment, centroids, _ = _lloyd(X, centroids)
    return ClusteringResult(assignment=assignment, centroids=centroids, k=k)


def _two_means(X, rng, restarts: int = 2):
    """Best-of-``restarts`` bisection of one cluster's members."""
    best = None
    for _ in range(restarts):
        centroids = _kmeanspp_init(X, 2, rng)
        assignment, centroids, cost = _lloyd(X, centroids)
        if best is None or cost < best[2]:
            best = (assignment, centroids, cost)
    return best[0], best[1]


def _refine(X, centroids):
    assignment, centroids, _ = _lloyd(X, np.array(centroids, dtype=np.float64))
    return assignment, centroids


def _split_loop(data: Dataset, criterion, seed: int, evaluate_cluster):
    """Shared bisection loop: test each cluster, split accepted ones,
    globally refine, repeat until a full round makes no split."""
    X = data.rows
    if X.shape[0] < 2 * MIN_SAMPLES:
        raise TooFewSamplesError(
            f"need at least {2 * MIN_SAMPLES} points, got {X.shape[0]}"
        )
    assignment = np.zeros(X.shape[0], dtype=np.int64)
    centroids = [X.mean(axis=0)]
    k = 1
    log = []
    for round_no in range(X.shape[0]):  # k strictly grows; bound is generous
        grew = False
        for cid in range(k):
            members = np.flatnonzero(assignment == cid)
            if members.size < 2 * MIN_SAMPLES:
                continue
            rng = np.random.default_rng([seed, round_no, cid])
            stat, decision, children = evaluate_cluster(X[members], rng)
            accepted = False
            if decision and children is not None:
                child_a, child_centroids = children
                sizes = np.bincount(child_a, minlength=2)
                if sizes.min() >= MIN_SAMPLES:
                    accepted = True
                    assignment[members[child_a == 1]] = k
                    centroids[cid] = child_centroids[0]
                    centroids.append(child_centroids[1])
                    k += 1
                    grew = True
            log.append(SplitRecord(
                round=round_no, cluster_id=cid, criterion=criterion.name,
                statistic=float(stat), decision=bool(decision),
                accepted=accepted, n=int(members.size),
            ))
        if not grew:
            break
        assignment, refined = _refine(X, centroids)
        centroids = list(refined)
    return ClusteringResult(
        assignment=assignment,
        centroids=np.array(centroids),
        k=k,
        split_log=tuple(log),
    )


def gmeans_family(data: Dataset, criterion, seed: int = 0) -> ClusteringResult:
    """G-means-style splitting: test the child-centroid-axis projection.

    ``criterion`` is SigtestCriterion (G-means+) or ADCriterion (classic
    G-means). A cluster is bisected by 2-means (two seeded restarts, best
    cost kept); its members are projected onto the axis through the child
    centroids, and the criterion decides on that 1-d sample.
    """
    if not isinstance(criterion, (SigtestCriterion, ADCriterion)):
        raise TypeError("gmeans_family takes SigtestCriterion or ADCriterion")

    def evaluate(members, rng):
        child_a, child_c = _two_means(members, rng)
        if np.bincount(child_a, minlength=2).min() < MIN_SAMPLES:
            return 0.0, False, None  # unviable bisection, not tested
        try:
            projection = project_split(members, child_c[0], child_c[1])
            stat, decision = criterion.test(projection)
        except (IdenticalCentroidsError, DegenerateInputError):
            return 0.0, False, None  # no usable axis: duplicate-point cluster
        return stat, decision, (child_a, child_c)

    return _split_loop(data, criterion, seed, evaluate)


def dipmeans_family(data: Dataset, criterion, seed: int = 0) -> ClusteringResult:
    """Dip-means-style splitting: viewers test their distance vectors.

    Every member of a cluster (or a seeded sample of 100 when the cluster
    has more than 500 members) tests its distances to the other members
    with the viewer criterion; the cluster is split via 2-means when the
    fraction of rejecting viewers exceeds the criterion's calibrated
    ``viewer_fraction``. The logged statistic is that fraction.

    ``criterion`` is SigtestCriterion (dip-means+, viewer_fraction 0.15)
    or DipViewerCriterion (classic dip-means, viewer_fraction 0.01).
    """
    if not isinstance(criterion, (SigtestCriterion, DipViewerCriterion)):
        raise TypeError("dipmeans_family takes SigtestCriterion or DipViewerCriterion")

    def evaluate(members, rng):
        m = members.shape[0]
        viewers = np.arange(m)
        if m > 500:
            viewers = rng.choice(m, size=100, replace=False)
        dist = np.sqrt(((members[viewers, None, :] - members[None, :, :]) ** 2).sum(axis=2))
        rejecting = 0
        for row, v in zip(dist, viewers):
            distances = np.delete(row, v)
            try:
                _, reject = criterion.test(distances)
            except DegenerateInputError:
                reject = False  # equidistant viewer, nothing to test
            rejecting += reject
        fraction = rejecting / len(viewers)
        if fraction <= criterion.viewer_fraction:
            return fraction, False, None
        child_a, child_c = _two_means(members, rng)
        return fraction, True, (child_a, child_c)

    return _split_loop(data, criterion, seed, evaluate)


METHOD_NAMES = ("gmeans", "gmeans+", "dipmeans", "dipmeans+")


def run_method(name: str, data: Dataset, seed: int = 0,
               sigtest_config: SigtestConfig = SigtestConfig()) -> ClusteringResult:
    """Dispatch one of the four benchmark clusterers by name."""
    if name == "gmeans":
        return gmeans_family(data, ADCriterion(), seed)
    if name == "gmeans+":
        return gmeans_family(data, SigtestCriterion(sigtest_config), seed)
    if name == "dipmeans":
        return dipmeans_family(data, DipViewerCriterion(), seed)
    if name == "dipmeans+":
        return dipmeans_family(data, SigtestCriterion(sigtest_config), seed)
    raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
