"""K-means plus the hierarchical splitting wrappers.

``gmeans_family`` bisects a cluster, projects its members onto the axis
through the two child centroids, and asks a 1-d criterion whether the
projection looks unimodal (Anderson-Darling for classic G-means, the
signature test for the "+" variant). ``dipmeans_family`` instead lets
every member act as a viewer that tests its vector of distances to the
other members, and splits when enough viewers reject (the dip test for
classic dip-means, the signature test for the "+" variant).

A criterion's ``decide(y)`` returns its public test's own result and
``test(y)`` the (statistic, reject) view of it; a viewer criterion adds
``test_rows(Y)`` and a ``viewer_fraction``. TEST_CRITERIA and CLUSTERERS
map every test and clusterer name to its criterion.

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

from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .baselines import (
    _BLOCK_VALUES,
    AD_ALPHA,
    DIP_BOOTSTRAP_B,
    KS_ALPHA,
    BaselineDecision,
    _bootstrap_size,
    _dip_rows,
    anderson_darling,
    dip_reference_table,
    dip_test,
    ks_lilliefors,
)
from .dataset import Dataset
from .errors import (
    DegenerateInputError,
    IdenticalCentroidsError,
    KTooLargeError,
    NonFiniteInputError,
    TooFewSamplesError,
)
from .sigtest import (
    MIN_SAMPLES,
    SignatureVariant,
    SigtestConfig,
    TestOutcome,
    _signature_rows,
    sigtest,
)


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

    def decide(self, y) -> TestOutcome:
        return sigtest(y, self.config)

    def test(self, y) -> tuple[float, bool]:
        out = self.decide(y)
        return out.C, out.split

    def test_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """(C, split) of each row of a 2-d array, from one call of the
        signature kernel that ``test`` runs on one row. A row ``test``
        would refuse as degenerate (zero spread, or squared deviations
        that overflow) gets C = NaN and does not reject."""
        Y = np.ascontiguousarray(Y, dtype=np.float64)  # each row summed in sigtest's order
        if Y.ndim != 2:
            raise ValueError(f"expected a 2-d array of rows, got shape {Y.shape}")
        C, _, ok = _signature_rows(Y, self.config)
        C[~ok] = np.nan
        return C, C > self.config.threshold


class _BaselineCriterion:
    """``test`` of a criterion whose ``decide`` returns a BaselineDecision."""

    def test(self, y) -> tuple[float, bool]:
        dec = self.decide(y)
        return dec.statistic, dec.reject_unimodal


@dataclass(frozen=True)
class ADCriterion(_BaselineCriterion):
    """Split when Anderson-Darling rejects normality of the projection."""

    alpha: float = AD_ALPHA
    name: ClassVar[str] = "anderson-darling"

    def decide(self, y) -> BaselineDecision:
        return anderson_darling(y, self.alpha)


@dataclass(frozen=True)
class KSCriterion(_BaselineCriterion):
    """Split when the Lilliefors KS test rejects normality at ``alpha``."""

    alpha: float = KS_ALPHA
    name: ClassVar[str] = "ks-lilliefors"

    def decide(self, y) -> BaselineDecision:
        return ks_lilliefors(y, self.alpha)


@dataclass(frozen=True)
class DipViewerCriterion(_BaselineCriterion):
    """Viewer test for dipmeans_family: dip at bootstrap level zero."""

    bootstrap_B: int = DIP_BOOTSTRAP_B

    # Classic dip-means convention: dip viewers at bootstrap level zero
    # almost never reject under H0, so 1% of viewers is already a signal.
    viewer_fraction: ClassVar[float] = 0.01
    name: ClassVar[str] = "dip-viewer"

    def decide(self, y) -> BaselineDecision:
        return dip_test(y, self.bootstrap_B)

    def test_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """(dip, reject) of each row of a 2-d array, as ``test`` gives them
        on each row (see baselines._dip_rows for the one known difference):
        one AS 217 kernel call over all rows (in blocks of bounded memory)
        and one lookup of the dip table at the rows' N. A row
        rejects where its dip exceeds every reference dip, which is
        ``test``'s p == 0. A row ``test`` refuses as degenerate (all values
        equal, or a range times N that overflows) gets dip NaN and does not
        reject, as in SigtestCriterion.test_rows."""
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2:
            raise ValueError(f"expected a 2-d array of rows, got shape {Y.shape}")
        if Y.shape[1] < 4:
            raise TooFewSamplesError(f"dip test needs N >= 4, got {Y.shape[1]}")
        if not np.isfinite(Y).all():
            raise NonFiniteInputError("sample contains NaN or infinite values")
        B = _bootstrap_size(self.bootstrap_B)
        if not len(Y):
            return np.empty(0), np.zeros(0, dtype=bool)
        dips = _dip_rows(Y)
        return dips, dips > dip_reference_table(Y.shape[1], B).max()


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
    ValueError
        Unless both centroids have shape (d,), d the number of columns.
    IdenticalCentroidsError
        If c1 == c2 (axis undefined).
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    c1, c2 = np.asarray(c1, dtype=np.float64), np.asarray(c2, dtype=np.float64)
    if c1.shape != (X.shape[1],) or c2.shape != (X.shape[1],):
        raise ValueError(f"centroids must have shape ({X.shape[1]},) to project "
                         f"{X.shape[1]}-column points, got {c1.shape} and {c2.shape}")
    v = c1 - c2
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise IdenticalCentroidsError("child centroids coincide")
    return X @ (v / norm)


def _sq_dists(A, B) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (p x d) and of B
    (q x d), equal bit for bit to ((A[:, None, :] - B[None]) ** 2).sum(axis=2)
    on C-contiguous copies of A and B.

    Rows of A go in blocks of about _BLOCK_VALUES differences. For d <= 8 a
    block's differences are d planes of (rows x q), squared in place and
    added in the order numpy's add.reduce takes over d contiguous values:
    left to right below 8, and by the tree ((0+1)+(2+3))+((4+5)+(6+7)) at
    8. From d = 9 on numpy adds with eight interleaved accumulators (and
    halves runs of more than 128 values), and a block keeps the tensor
    reduce, which is the faster of the two there.
    """
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    p, d = A.shape
    out = np.empty((p, len(B)))
    rows = max(1, _BLOCK_VALUES // max(1, len(B) * d))
    for start in range(0, p, rows):
        a, block = A[start:start + rows], out[start:start + rows]
        if d > 8:
            block[...] = ((a[:, None, :] - B[None]) ** 2).sum(axis=2)
            continue
        D = a.T[:, :, None] - B.T[:, None, :]
        D *= D
        if d == 8:
            D[::2] += D[1::2]
            D[::4] += D[2::4]
            np.add(D[0], D[4], out=block)
        else:
            np.copyto(block, D[0])
            for plane in D[1:]:
                block += plane
    return out


def _pair_sq_dists(A) -> np.ndarray:
    """_sq_dists(A, A), equal to it bit for bit, with each unordered pair
    computed once outside the diagonal blocks: a block of rows goes
    against the rows from its own first row on, and its part right of
    its diagonal square is mirrored into the lower triangle, since
    (a - b)^2 and (b - a)^2 are the same bits."""
    A = np.ascontiguousarray(A)
    p, d = A.shape
    out = np.empty((p, p))
    rows = max(1, _BLOCK_VALUES // max(1, p * d))
    for start in range(0, p, rows):
        block = _sq_dists(A[start:start + rows], A[start:])
        out[start:start + rows, start:] = block
        out[start + rows:, start:start + rows] = block[:, rows:].T
    return out


def _kmeanspp_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = _sq_dists(X, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:  # remaining points coincide with chosen centers
            idx = int(np.argmax(~_rows_in(X, centroids[:j])))
        centroids[j] = X[idx]
        if j + 1 < k:  # the last centre's distances would go unread
            d2 = np.minimum(d2, _sq_dists(X, centroids[j:j + 1])[:, 0])
    return centroids


def _rows_in(X, C):
    out = np.zeros(len(X), dtype=bool)
    for c in C:
        out |= np.all(X == c, axis=1)
    return out


def _lloyd(X, centroids, max_iter: int = 300):
    """Lloyd iterations until the assignment stops changing.

    An empty cluster steals its nearest point from a cluster with more
    than one member (one exists while k <= n), so every cluster stays
    non-empty. Returns (assignment, centroids, total cost), the cost from
    the distances of the iteration that found the fixpoint.
    """
    k = centroids.shape[0]
    assignment = np.full(X.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_dists(X, centroids)
        new_assignment = d2.argmin(axis=1)
        counts = np.bincount(new_assignment, minlength=k)
        if not counts.all():
            for j in np.flatnonzero(counts == 0):
                donors = np.flatnonzero(counts[new_assignment] > 1)
                new_assignment[donors[d2[donors, j].argmin()]] = j
                counts = np.bincount(new_assignment, minlength=k)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            centroids[j] = X[assignment == j].sum(axis=0) / counts[j]
    else:  # max_iter ran out: the centroids moved after the last distances
        d2 = _sq_dists(X, centroids)
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
        k_round = k
        for cid in range(k):
            members = np.flatnonzero(assignment == cid)
            if members.size < 2 * MIN_SAMPLES:
                continue
            rng = np.random.default_rng([seed, round_no, cid])
            stat, decision, children = evaluate_cluster(X[members], rng)
            accepted = bool(decision and
                            np.bincount(children[0], minlength=2).min() >= MIN_SAMPLES)
            if accepted:
                child_a, child_centroids = children
                assignment[members[child_a == 1]] = k
                centroids[cid] = child_centroids[0]
                centroids.append(child_centroids[1])
                k += 1
            log.append(SplitRecord(
                round=round_no, cluster_id=cid, criterion=criterion.name,
                statistic=float(stat), decision=bool(decision),
                accepted=accepted, n=int(members.size),
            ))
        if k == k_round:
            break
        assignment, refined, _ = _lloyd(X, np.array(centroids, dtype=np.float64))
        centroids = list(refined)
    return ClusteringResult(
        assignment=assignment,
        centroids=np.array(centroids),
        k=k,
        split_log=tuple(log),
    )


def gmeans_family(data: Dataset, criterion, seed: int = 0) -> ClusteringResult:
    """G-means-style splitting: test the child-centroid-axis projection.

    ``criterion`` is any criterion: CLUSTERERS pairs this family with
    ADCriterion (classic G-means) and SigtestCriterion (G-means+). A
    cluster is bisected by 2-means (two seeded restarts, best cost kept);
    its members are projected onto the axis through the child centroids,
    and ``criterion.test`` decides on that 1-d sample.
    """

    def evaluate(members, rng):
        children = _two_means(members, rng)
        try:
            stat, decision = criterion.test(project_split(members, *children[1]))
        except (IdenticalCentroidsError, DegenerateInputError):
            return 0.0, False, None  # no usable axis: duplicate-point cluster
        return stat, decision, children

    return _split_loop(data, criterion, seed, evaluate)


def dipmeans_family(data: Dataset, criterion, seed: int = 0) -> ClusteringResult:
    """Dip-means-style splitting: viewers test their distance vectors.

    Every member of a cluster (or a seeded sample of 100 when the cluster
    has more than 500 members) tests its distances to the other members
    with the viewer criterion, all viewers of a cluster in one
    ``criterion.test_rows`` call; the cluster is split via 2-means when the
    fraction of rejecting viewers exceeds the criterion's calibrated
    ``viewer_fraction``. The logged statistic is that fraction.

    When all members are viewers, each unordered pair's distance is
    computed once (the matrix is symmetric); the square roots are taken
    in place on the copy without each viewer's own distance. Such a
    cluster draws nothing from its rng until a split is decided, so its
    verdict is a function of its member rows alone: within one call, a
    cluster kept whole is remembered by the bytes of its rows, and when a
    later round presents the same rows it gets the same statistic, and so
    the same record, without a new test. A sampled-viewer cluster and a
    vetoed split are always tested anew, since each draws from its
    round's rng. The remembered rows take at most one copy of the data
    per round.

    ``criterion`` needs ``test_rows`` and a ``viewer_fraction`` (else a
    TypeError): CLUSTERERS pairs this family with DipViewerCriterion
    (classic dip-means, 0.01) and SigtestCriterion (dip-means+, 0.15).
    """
    if not hasattr(criterion, "viewer_fraction"):
        raise TypeError(f"dipmeans_family needs a viewer_fraction; {criterion!r} has none")

    kept = {}  # member-row bytes -> viewer fraction of an all-viewer cluster kept whole

    def evaluate(members, rng):
        m = members.shape[0]
        if m > 500:
            key = None
            viewers = rng.choice(m, size=100, replace=False)
            sq = _sq_dists(members[viewers], members)
        else:
            key = members.tobytes()
            if key in kept:
                return kept[key], False, None
            viewers = np.arange(m)
            sq = _pair_sq_dists(members)
        others = np.ones(sq.shape, dtype=bool)
        others[np.arange(len(viewers)), viewers] = False  # a viewer's distance to itself
        dist = sq[others]
        del sq
        np.sqrt(dist, out=dist)
        _, rejects = criterion.test_rows(dist.reshape(len(viewers), m - 1))
        fraction = np.count_nonzero(rejects) / len(viewers)
        if fraction <= criterion.viewer_fraction:
            if key is not None:
                kept[key] = fraction
            return fraction, False, None
        return fraction, True, _two_means(members, rng)

    return _split_loop(data, criterion, seed, evaluate)


# The tests of `sigcluster test` and the bench-tests sweep, and each
# clusterer's family and criterion; configured() applies a caller's settings.
TEST_CRITERIA = {
    "sigtest1": SigtestCriterion(SigtestConfig(variant=SignatureVariant.SIGNATURE1)),
    "sigtest2": SigtestCriterion(SigtestConfig(variant=SignatureVariant.SIGNATURE2)),
    "ad": ADCriterion(),
    "ks": KSCriterion(),
    "dip": DipViewerCriterion(),
}
CLUSTERERS = {
    "gmeans": (gmeans_family, ADCriterion()),
    "gmeans+": (gmeans_family, SigtestCriterion()),
    "dipmeans": (dipmeans_family, DipViewerCriterion()),
    "dipmeans+": (dipmeans_family, SigtestCriterion()),
}
METHOD_NAMES = tuple(CLUSTERERS)


def configured(criterion, **settings):
    """``criterion`` with each setting that names one of its fields, or one
    of its SigtestConfig's (so gamma can change and the variant stay).
    None, and a setting no field takes, change nothing."""
    changes = {f.name: settings[f.name] for f in fields(criterion)
               if settings.get(f.name) is not None}
    if isinstance(getattr(criterion, "config", None), SigtestConfig) and "config" not in changes:
        changes["config"] = configured(criterion.config, **settings)
    return replace(criterion, **changes)


def run_method(name: str, data: Dataset, seed: int = 0,
               sigtest_config: SigtestConfig = SigtestConfig()) -> ClusteringResult:
    """Run one of the CLUSTERERS by name; a signature criterion runs
    ``sigtest_config``."""
    if name not in CLUSTERERS:
        raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
    family, criterion = CLUSTERERS[name]
    return family(data, configured(criterion, config=sigtest_config), seed)
