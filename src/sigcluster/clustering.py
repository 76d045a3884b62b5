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
round, cluster_id, ...]), and Lloyd's iterations draw nothing. So the
2-means bisections of a whole round run as one segmented Lloyd call
(_lloyd_segments), every restart of every cluster a segment, with the
bits of bisecting each cluster on its own, and the splits merge in
cluster-id order.

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
    AD_ALPHA,
    KS_ALPHA,
    BaselineDecision,
    _dip_test_rows,
    anderson_darling,
    dip_test,
    ks_lilliefors,
)
from .core import _block_rows, _integer, _seed
from .dataset import Dataset
from .errors import (
    DegenerateInputError,
    IdenticalCentroidsError,
    KTooLargeError,
    TooFewSamplesError,
)
from .sigtest import (
    MIN_SAMPLES,
    SignatureVariant,
    SigtestConfig,
    TestOutcome,
    _sigtest_rows,
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
        return _sigtest_rows(Y, self.config)


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
    """Viewer test for dipmeans_family: the dip at level DIP_ALPHA.

    ``test_rows`` decides every viewer row against the critical dip, the
    calibration grid's uniform-null dip at DIP_ALPHA at the rows' N, through
    baselines._dip_test_rows. A row is decided first on coarse copies of
    its order statistics, taken at midpoint ranks wherever a copy keeps
    at least 50 values (from 197 values on); a copy's dip lies within
    1/(2n') of the row's (n' values in the copy). Only a row no copy
    decides runs the full AS 217 kernel, to the pass that decides it.
    Each reported dip is never above the exact dip and lies on its side
    of the critical dip, so every decision is dip_test's."""

    # Classic dip-means convention: dip viewers at level DIP_ALPHA = 0.001
    # almost never reject under H0, so 1% of viewers is already a signal.
    viewer_fraction: ClassVar[float] = 0.01
    name: ClassVar[str] = "dip-viewer"

    def decide(self, y) -> BaselineDecision:
        return dip_test(y)

    def test_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        return _dip_test_rows(Y)


@dataclass(frozen=True)
class SplitRecord:
    """One criterion evaluation in the splitting loop.

    ``decision`` is the criterion's verdict; ``accepted`` is whether the
    split actually happened (a verdict can be vetoed when a child would
    fall below MIN_SAMPLES). k at the end equals 1 + #accepted.
    ``status`` is "tested" when the criterion decided in this round, and
    "settled" when the cluster has the members of one the round before
    kept whole, whose statistic and decision it repeats (see
    _split_loop).
    """

    round: int
    cluster_id: int
    criterion: str
    statistic: float
    decision: bool
    accepted: bool
    n: int
    status: str = "tested"


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


def _sum_sq_diffs(aT, bT, out, work):
    """Write into ``out`` the squared differences of aT and bT, which
    broadcast to (d, *out.shape), summed over that first axis of length d
    in the order numpy's add.reduce takes over d contiguous values. The
    differences go into the front of ``work``, a flat float64 array of at
    least d * out.size values that the caller owns and reuses from block
    to block.

    For d <= 8 they are d planes, squared in place and added left to
    right below 8, and by the tree ((0+1)+(2+3))+((4+5)+(6+7)) at 8, in
    ``work`` but for the last add, so ``out`` is written once. From
    d = 9 on numpy adds with eight interleaved accumulators (and halves
    runs of more than 128 values), and they are a tensor with d last for
    numpy's own reduce, which is the faster of the two there.
    """
    d = aT.shape[0]
    if d > 8:
        diff = work[:out.size * d].reshape(out.shape + (d,))
        np.subtract(np.moveaxis(aT, 0, -1), np.moveaxis(bT, 0, -1), out=diff)
        diff *= diff
        np.add.reduce(diff, axis=-1, out=out)
        return
    D = np.subtract(aT, bT, out=work[:d * out.size].reshape((d,) + out.shape))
    D *= D
    if d == 8:
        D[::2] += D[1::2]
        D[::4] += D[2::4]
        np.add(D[0], D[4], out=out)
    elif d == 1:
        np.copyto(out, D[0])
    else:
        for plane in D[1:-1]:
            D[0] += plane
        np.add(D[0], D[-1], out=out)


def _columns(A):
    """A.T, copied C-contiguous for d <= 8 so that every plane
    _sum_sq_diffs subtracts reads contiguous values."""
    return np.ascontiguousarray(A.T) if A.shape[1] <= 8 else A.T


def _pair_distances(A) -> np.ndarray:
    """Each row's Euclidean distances to the other rows of A (p x d), as
    a p x (p - 1) array: the square roots of the tensor formula
    ((A[:, None, :] - A[None]) ** 2).sum(axis=2) without its diagonal,
    equal to them bit for bit. Each unordered pair is computed
    once: rows go in blocks, and a block is assembled whole in a buffer,
    its distances to the earlier rows copied from their rows ((a - b)^2
    and (b - a)^2 are the same bits) and the rest summed there by
    _sum_sq_diffs. The block is then cut into its rows of the result
    without its diagonal entries, which lie p + 1 apart in the buffer, so
    the p values between two of them are copied as one row of p. The
    square roots are taken in place on the result.

    The buffer and the workspace share one space, sized by
    _block_rows((d + 1) * p) rows of p values and d planes of them; a
    later block sums only the columns from its own first row on, so it
    takes as many rows as fit the same space."""
    A = np.ascontiguousarray(A)
    p, d = A.shape
    AT = _columns(A)
    out = np.empty((p, p - 1))
    space = np.empty(min(p, _block_rows((d + 1) * p)) * (d + 1) * p)
    start = 0
    while start < p:
        r = min(p - start, space.size // (d * (p - start) + p))
        stop = start + r
        block = space[:r * p].reshape(r, p)
        if start:
            block[:, :start] = out[:start, start - 1:stop - 1].T
        _sum_sq_diffs(AT[:, start:stop, None], AT[:, None, start:], block[:, start:], space[r * p:])
        cut = out[start:stop].reshape(-1)
        last = start + (r - 1) * (p + 1)  # the block's last diagonal entry
        cut[:start] = space[:start]
        cut[start:last - r + 1].reshape(r - 1, p)[...] = \
            space[start:last].reshape(r - 1, p + 1)[:, 1:]
        cut[last - r + 1:] = space[last + 1:r * p]
        start = stop
    return np.sqrt(out, out=out)


def _viewer_distances(A, viewers) -> np.ndarray:
    """The Euclidean distances of each row A[v], v in ``viewers``, to the
    other rows of A (p x d), as a len(viewers) x (p - 1) array: the
    square roots of the tensor formula ((V[:, None, :] - A[None]) **
    2).sum(axis=2), V = A[viewers], without each viewer's own column,
    equal to them bit for bit. The other rows go in column blocks of
    _block_rows(d) (all p while p * d fits one block), and the viewers in
    blocks of _block_rows(p * d) through one reused buffer, or one by one
    beside a narrower column block, so the workspace and the columns'
    copy stay near one block of values at any p. Each block's squared
    distances, without the viewers' own, are square-rooted straight into
    their places in the result: a block of all p columns fills whole
    rows, and a narrower one, from column ``first`` on, takes one viewer
    v, whose row it fills from column first - (v < first) on."""
    A = np.ascontiguousarray(A)
    p, d = A.shape
    n = len(viewers)
    V = A[viewers]
    out = np.empty((n, p - 1))
    cols = min(p, _block_rows(d))
    rows = min(n, _block_rows(cols * d)) if cols == p else 1
    work = np.empty(d * rows * cols)
    buf = np.empty(rows * cols)
    keep = np.ones(rows * cols, dtype=bool)
    for first in range(0, p, cols):
        last = min(first + cols, p)
        bT = _columns(A[first:last])[:, None, :]
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            v = viewers[start:stop]
            block = buf[:(stop - start) * (last - first)]
            _sum_sq_diffs(V[start:stop].T[:, :, None], bT,
                          block.reshape(stop - start, last - first), work)
            mine = (first <= v) & (v < last)
            own = np.flatnonzero(mine) * (last - first) + v[mine] - first  # a viewer's own distance
            keep[own] = False
            np.sqrt(block[keep[:block.size]], out=out[start:stop, first - (v[0] < first):
                                                      last - (v[0] < last)].reshape(-1))
            keep[own] = True
    return out


def _check_sq_dists(X) -> None:
    """Raise DegenerateInputError unless the squared diagonal of the rows'
    bounding box, which bounds every squared distance k-means and the
    viewers form, and n times each column's largest |x|, which bounds
    every centroid sum, are finite. Else distances overflow to inf and
    the seeding draws from NaN weights, or a centroid comes out inf."""
    with np.errstate(over="ignore"):
        top, bottom = X.max(axis=0), X.min(axis=0)
        diagonal = np.add.reduce((top - bottom) ** 2)
        sums = len(X) * np.maximum(top, -bottom)
    if not np.isfinite(diagonal):
        raise DegenerateInputError(
            "squared distances overflow: the squared diagonal of the rows' "
            "bounding box exceeds the float range")
    if not np.isfinite(sums).all():
        raise DegenerateInputError("centroid sums overflow: n * max|x| of a column is not finite")


def _kmeanspp_init(X, k, rng):
    n = X.shape[0]
    XT = X.T
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = _segment_sq_dists(XT, centroids[None, :1], None)[0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            # rng.choice(n, p=d2 / total)'s draw, without its checks of p
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:  # remaining points coincide with chosen centers
            idx = int(np.argmax(~_rows_in(X, centroids[:j])))
        centroids[j] = X[idx]
        if j + 1 < k:  # the last centre's distances would go unread
            d2 = np.minimum(d2, _segment_sq_dists(XT, centroids[None, j:j + 1], None)[0])
    return centroids


def _rows_in(X, C):
    out = np.zeros(len(X), dtype=bool)
    for c in C:
        out |= np.all(X == c, axis=1)
    return out


def _segment_sq_dists(XT, C, lengths) -> np.ndarray:
    """k x T squared distances of the columns of XT (d x T), which are the
    rows of consecutive segments of the given lengths, to their own
    segment's k centroids (C is S x k x d), each entry equal bit for bit
    to the tensor formula ((X[:, None, :] - c[None]) ** 2).sum(axis=2) of
    its rows X and their segment's centroids c; ``lengths`` is unread
    when S is 1. Columns go in blocks of _block_rows(k * d) through one
    workspace per call."""
    S, k, d = C.shape
    CT = C.transpose(2, 1, 0)  # d x k x S
    if S > 1:  # each segment's centroids along its columns
        CT = np.repeat(CT, lengths, axis=2)
    T = XT.shape[1]
    out = np.empty((k, T))
    cols = _block_rows(k * d)
    work = np.empty(d * k * min(T, cols))
    for start in range(0, T, cols):
        block = slice(start, start + cols)
        _sum_sq_diffs(XT[:, None, block], CT[:, :, block] if S > 1 else CT, out[:, block], work)
    return out


def _nearest(d2) -> np.ndarray:
    """d2.argmin(axis=0) of a k x T array free of NaN (the distances of
    finite rows), by a running minimum over its k rows: the first index
    of each column's minimum, without argmin's per-column calls."""
    nearest = np.zeros(d2.shape[1], dtype=np.int64)
    best = d2[0]
    for j in range(1, len(d2)):
        closer = d2[j] < best
        nearest[closer] = j
        if j + 1 < len(d2):
            best = np.minimum(best, d2[j])
    return nearest


def _lloyd_segments(segments, centroids, max_iter: int = 300):
    """Lloyd iterations on S segments in lockstep, each until its own
    assignment stops changing.

    ``segments`` holds S arrays of rows (m_s x d) and ``centroids`` their
    starting centroids (S x k x d, one k for all). An empty cluster steals
    its segment's nearest point from a cluster with more than one member
    (one exists while k <= m_s), so every cluster stays non-empty. A
    segment whose assignment repeats leaves the loop with the centroids
    and the distances of that iteration; one still moving after
    ``max_iter`` iterations gets fresh distances to its moved centroids.

    Returns one (assignment, centroids, cost) per segment, the cost the
    sum of each row's distance to its centroid. Each equals bit for bit
    what Lloyd on that segment alone gives: the distances are those of
    the tensor formula ((X[:, None, :] - C[None]) ** 2).sum(axis=2)
    (_segment_sq_dists), and the centroid sums add each cluster's rows in
    order, as X[assignment == j].sum(axis=0) does (bincount's running
    sum; for one column numpy's pairwise sum, which that expression takes
    there).
    """
    S, k, d = centroids.shape
    lengths = np.array([len(rows) for rows in segments])
    XT = np.concatenate([np.asarray(rows).T for rows in segments], axis=1)
    C = np.array(centroids, dtype=np.float64)
    ids = np.arange(S)  # the segment each active one is
    assignment = np.full(XT.shape[1], -1, dtype=np.int64)
    results = [None] * S

    def layout():
        starts = np.cumsum(lengths) - lengths
        return starts, np.repeat(np.arange(len(lengths)) * k, lengths)

    def finish(s, d2, a, lo):
        cols = np.arange(lo, lo + len(a))
        results[ids[s]] = (a, C[s], float(d2[a, cols].sum()))

    starts, base = layout()  # base: the first label of each column's segment
    for _ in range(max_iter):
        d2 = _segment_sq_dists(XT, C, lengths)
        new = _nearest(d2)
        counts = np.bincount(base + new, minlength=len(ids) * k).reshape(-1, k)
        if not counts.all():
            for s in np.flatnonzero((counts == 0).any(axis=1)):
                a, c = new[starts[s]:starts[s] + lengths[s]], counts[s]
                for j in np.flatnonzero(c == 0):
                    donors = np.flatnonzero(c[a] > 1)
                    a[donors[d2[j, starts[s] + donors].argmin()]] = j
                    c[:] = np.bincount(a, minlength=k)
        done = np.add.reduceat(new != assignment, starts) == 0
        if done.any():
            for s in np.flatnonzero(done):
                finish(s, d2, new[starts[s]:starts[s] + lengths[s]], starts[s])
            if done.all():
                return results
            moving = np.flatnonzero(np.repeat(~done, lengths))
            XT, new = XT.take(moving, axis=1), new[moving]
            C, counts, ids, lengths = C[~done], counts[~done], ids[~done], lengths[~done]
            starts, base = layout()
        assignment = new
        labels = base + assignment
        sums = np.empty((len(ids) * k, d))
        if d == 1:
            x = XT[0]
            for s, lo in enumerate(starts):
                a = assignment[lo:lo + lengths[s]]
                for j in range(k):
                    sums[s * k + j] = x[lo:lo + lengths[s]][a == j].sum()
        else:
            for t in range(d):
                sums[:, t] = np.bincount(labels, weights=XT[t], minlength=len(sums))
        C = sums.reshape(-1, k, d) / counts[:, :, None]
    # max_iter ran out: the centroids moved after the last distances
    d2 = _segment_sq_dists(XT, C, lengths)
    for s, lo in enumerate(starts):
        finish(s, d2, assignment[lo:lo + lengths[s]], lo)
    return results


def _lloyd(X, centroids):
    """Lloyd iterations on the rows of X from ``centroids`` (k x d) until
    the assignment stops changing: the one-segment case of
    _lloyd_segments. Returns (assignment, centroids, total cost)."""
    return _lloyd_segments([X], centroids[None])[0]


def kmeans(data: Dataset, k: int, seed: int = 0) -> ClusteringResult:
    """K-means++ seeding followed by Lloyd iterations to a fixpoint.

    Deterministic given seed; stops at an assignment fixpoint or after
    300 iterations. ``k`` is any integer type (a bool is not one) and is
    returned as a Python int.

    Raises
    ------
    TypeError
        If k or seed is not an integer.
    ValueError
        If k is below 1 or seed below 0.
    KTooLargeError
        If k exceeds the number of points.
    DegenerateInputError
        If the squared distances between rows can overflow (the squared
        diagonal of their bounding box is not finite), or the centroid
        sums can (n times the largest |x| of a column is not finite).
    """
    k = _integer(k, "k")
    seed = _seed(seed)
    X = data.rows
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > X.shape[0]:
        raise KTooLargeError(f"k={k} exceeds N={X.shape[0]}")
    _check_sq_dists(X)
    rng = np.random.default_rng([seed])
    centroids = _kmeanspp_init(X, k, rng)
    assignment, centroids, _ = _lloyd(X, centroids)
    return ClusteringResult(assignment=assignment, centroids=centroids, k=k)


# 2-means restarts per bisection; the first of lowest cost is kept
_RESTARTS = 2


def _bisect(clusters):
    """Best-of-_RESTARTS 2-means bisection of each (member rows, rng)
    cluster: (assignment, centroids) per cluster, all restarts of all
    clusters in one _lloyd_segments call.

    Each cluster draws its k-means++ seedings from its rng, restart by
    restart, before any Lloyd runs; Lloyd draws nothing, so these are the
    draws of seeding and running each restart in turn. The first restart
    of lowest cost wins.
    """
    if not clusters:
        return []
    segments = [rows for rows, _ in clusters for _ in range(_RESTARTS)]
    seeds = [_kmeanspp_init(rows, 2, rng) for rows, rng in clusters for _ in range(_RESTARTS)]
    fits = _lloyd_segments(segments, np.array(seeds))
    return [min(fits[first:first + _RESTARTS], key=lambda fit: fit[2])[:2]
            for first in range(0, len(fits), _RESTARTS)]


def _split_loop(data: Dataset, criterion, seed: int, evaluate):
    """Shared bisection loop: evaluate every cluster of a round, split the
    accepted ones, globally refine, repeat until a full round makes no
    split.

    ``evaluate`` takes the (member rows, rng) of each cluster it is to
    test, in cluster-id order, and returns a (statistic, decision,
    children) for each, children being a bisection or None. Splits are
    applied in cluster-id order; a split moves only its own cluster's
    members, so every cluster of a round can be evaluated first.

    A cluster is tested when it has at least 2 * MIN_SAMPLES members,
    unless it is settled: the round before kept a cluster with the same
    member indices whole (its decision was False, which a vetoed split's
    is not). A settled cluster is logged with that statistic and decision
    False, status "settled"; it builds no rng and goes to no criterion
    and no bisection, and the other clusters keep their own
    [seed, round, cluster_id] streams. The memo is rebuilt each round
    from that round's settled clusters, whose members are disjoint, so
    it holds at most n indices. ``seed`` is checked by core._seed before
    anything else.
    """
    seed = _seed(seed)
    X = data.rows
    if X.shape[0] < 2 * MIN_SAMPLES:
        raise TooFewSamplesError(
            f"need at least {2 * MIN_SAMPLES} points, got {X.shape[0]}"
        )
    _check_sq_dists(X)
    assignment = np.zeros(X.shape[0], dtype=np.int64)
    centroids = [X.mean(axis=0)]
    k = 1
    log = []
    settled = {}  # member indices' bytes -> statistic of a cluster kept whole last round
    for round_no in range(X.shape[0]):  # k strictly grows; bound is generous
        k_round = k
        clusters = []
        for cid in range(k):
            members = np.flatnonzero(assignment == cid)
            if members.size >= 2 * MIN_SAMPLES:
                clusters.append((cid, members, settled.get(members.tobytes())))
        settled = {}
        outcomes = iter(evaluate([(X[members], np.random.default_rng([seed, round_no, cid]))
                                  for cid, members, memo in clusters if memo is None]))
        for cid, members, memo in clusters:
            stat, decision, children = next(outcomes) if memo is None else (memo, False, None)
            accepted = bool(decision and
                            np.bincount(children[0], minlength=2).min() >= MIN_SAMPLES)
            if accepted:
                child_a, child_centroids = children
                assignment[members[child_a == 1]] = k
                centroids[cid] = child_centroids[0]
                centroids.append(child_centroids[1])
                k += 1
            elif not decision:
                settled[members.tobytes()] = stat
            log.append(SplitRecord(
                round=round_no, cluster_id=cid, criterion=criterion.name,
                statistic=float(stat), decision=bool(decision),
                accepted=accepted, n=int(members.size),
                status="tested" if memo is None else "settled",
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
    ADCriterion (classic G-means) and SigtestCriterion (G-means+). Every
    cluster tested in a round is bisected by 2-means (two seeded restarts,
    best cost kept), all of them in one segmented Lloyd call whose bits
    equal bisecting each cluster on its own; then, in cluster-id order,
    each cluster's members are projected onto the axis through its child
    centroids, and ``criterion.test`` decides on that 1-d sample. A
    cluster with no usable axis (its children coincide) is logged with
    statistic 0.0 and decision False. A cluster whose members the round
    before kept whole is settled by _split_loop: it is neither bisected
    nor tested again, so it gets no new chance at a split from a new
    bisection.
    """

    def evaluate(clusters):
        outcomes = []
        for (members, _), children in zip(clusters, _bisect(clusters)):
            try:
                stat, decision = criterion.test(project_split(members, *children[1]))
            except (IdenticalCentroidsError, DegenerateInputError):
                outcomes.append((0.0, False, None))  # no usable axis: duplicate-point cluster
                continue
            outcomes.append((stat, decision, children))
        return outcomes

    return _split_loop(data, criterion, seed, evaluate)


def _viewer_fraction(criterion, members, rng) -> float:
    """The fraction of a cluster's viewers whose distance vectors
    ``criterion.test_rows`` rejects (see dipmeans_family). The distance
    rows are one array, built once."""
    m = len(members)
    if m > 500:
        dist = _viewer_distances(members, rng.choice(m, size=100, replace=False))
    else:
        dist = _pair_distances(members)
    _, rejects = criterion.test_rows(dist)
    return np.count_nonzero(rejects) / len(rejects)


def dipmeans_family(data: Dataset, criterion, seed: int = 0) -> ClusteringResult:
    """Dip-means-style splitting: viewers test their distance vectors.

    Every member of a cluster (or a seeded sample of 100 when the cluster
    has more than 500 members) tests its distances to the other members
    with the viewer criterion, all viewers of a cluster in one
    ``criterion.test_rows`` call; the cluster is split via 2-means when the
    fraction of rejecting viewers exceeds the criterion's calibrated
    ``viewer_fraction``. The logged statistic is that fraction. A round
    runs the viewer tests of its clusters in cluster-id order, then
    bisects every cluster that splits in one segmented Lloyd call, whose
    bits equal bisecting each on its own; a sampled-viewer cluster's rng
    has drawn its viewers by then, as when each cluster went in turn.

    The viewers' distance rows, without each viewer's distance to
    itself, are built straight into one array, through buffers of a
    bounded number of rows (when all members are viewers, each unordered
    pair's distance is computed once, the distances being symmetric),
    and ``test_rows`` decides them in row blocks. A cluster whose members
    the round before kept whole is settled by _split_loop and builds no
    viewer rows. For an all-viewer cluster that repeats the verdict a
    new test would give, since it draws nothing from its rng until a
    split is decided; a sampled-viewer cluster keeps the viewers of its
    first test rather than drawing new ones.

    ``criterion`` needs ``test_rows`` and a ``viewer_fraction`` (else a
    TypeError naming each it lacks, before any clustering): CLUSTERERS
    pairs this family with DipViewerCriterion (classic dip-means, 0.01)
    and SigtestCriterion (dip-means+, 0.15).
    """
    missing = [name for name in ("test_rows", "viewer_fraction") if not hasattr(criterion, name)]
    if missing:
        raise TypeError(f"dipmeans_family needs test_rows and a viewer_fraction; "
                        f"{criterion!r} has no {' and no '.join(missing)}")

    def evaluate(clusters):
        fractions = [_viewer_fraction(criterion, members, rng) for members, rng in clusters]
        splits = [fraction > criterion.viewer_fraction for fraction in fractions]
        bisections = iter(_bisect([c for c, split in zip(clusters, splits) if split]))
        return [(fraction, split, next(bisections) if split else None)
                for fraction, split in zip(fractions, splits)]

    return _split_loop(data, criterion, seed, evaluate)


# The tests of `sigcluster test` and the bench-tests sweep, and each
# clusterer's family with its criterion, one of those tests; configured()
# applies a caller's settings.
TEST_CRITERIA = {
    "sigtest1": SigtestCriterion(SigtestConfig(variant=SignatureVariant.SIGNATURE1)),
    "sigtest2": SigtestCriterion(SigtestConfig(variant=SignatureVariant.SIGNATURE2)),
    "ad": ADCriterion(),
    "ks": KSCriterion(),
    "dip": DipViewerCriterion(),
}
CLUSTERERS = {
    "gmeans": (gmeans_family, TEST_CRITERIA["ad"]),
    "gmeans+": (gmeans_family, TEST_CRITERIA["sigtest1"]),
    "dipmeans": (dipmeans_family, TEST_CRITERIA["dip"]),
    "dipmeans+": (dipmeans_family, TEST_CRITERIA["sigtest1"]),
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
    """Run one of the CLUSTERERS by name. ``sigtest_config`` gives a
    signature criterion its gamma and threshold; the method name gives
    the signature variant (gmeans+ and dipmeans+ run signature 1), as in
    run_test_benchmark."""
    if name not in CLUSTERERS:
        raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
    family, criterion = CLUSTERERS[name]
    criterion = configured(criterion, gamma=sigtest_config.gamma,
                           threshold=sigtest_config.threshold)
    return family(data, criterion, seed)
