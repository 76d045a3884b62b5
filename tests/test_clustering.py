import tracemalloc
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from sigcluster import (
    AD_CRITICAL_VALUES,
    ADCriterion,
    Dataset,
    DipViewerCriterion,
    KSCriterion,
    SignatureVariant,
    SigtestConfig,
    SigtestCriterion,
    anderson_darling,
    ari,
    dip_reference_table,
    dip_test,
    dipmeans_family,
    gen_gaussian,
    gmeans_family,
    kmeans,
    ks_lilliefors,
    project_split,
    run_method,
    run_test_benchmark,
    sigtest,
)
from sigcluster import clustering
from sigcluster.baselines import AD_ALPHA, KS_ALPHA
from sigcluster.benchmark import TEST_METHODS
from sigcluster.clustering import (
    CLUSTERERS,
    METHOD_NAMES,
    TEST_CRITERIA,
    ClusteringResult,
    SplitRecord,
    _bisect,
    _kmeanspp_init,
    _lloyd,
    _lloyd_segments,
    _off_diagonal,
    _pair_sq_dists,
    _sq_dists,
    _sum_sq_diffs,
    _viewer_fraction,
    configured,
)
from sigcluster.core import _BLOCK_VALUES
from sigcluster.errors import (
    DegenerateInputError,
    IdenticalCentroidsError,
    KTooLargeError,
    NonFiniteInputError,
    TooFewSamplesError,
)
from sigcluster.sigtest import MIN_SAMPLES


def blobs(centers, n_per, sigma, seed, d=2):
    rng = np.random.default_rng([77, seed])
    rows = []
    labels = []
    for i, c in enumerate(centers):
        pts = rng.normal(size=(n_per, d)) * sigma + np.asarray(c)
        rows.append(pts)
        labels += [i] * n_per
    return Dataset(rows=np.vstack(rows), labels=np.array(labels), name="blobs")


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        data = gen_gaussian(100, mean=[2.0, -1.0], dimension=2, seed=1)
        res = kmeans(data, 1, seed=0)
        np.testing.assert_allclose(res.centroids[0], data.rows.mean(axis=0), atol=1e-12)
        assert res.k == 1 and set(res.assignment) == {0}

    def test_k_equals_n_zero_cost(self):
        rng = np.random.default_rng(2)
        data = Dataset(rows=rng.normal(size=(12, 3)), name="tiny")
        res = kmeans(data, 12, seed=0)
        assert res.k == 12
        assert len(set(res.assignment.tolist())) == 12
        cost = sum(
            ((data.rows[res.assignment == j] - res.centroids[j]) ** 2).sum()
            for j in range(12))
        assert cost == pytest.approx(0.0, abs=1e-20)

    def test_separated_groups_pure(self):
        data = blobs([(0, 0), (100, 100)], 30, 1.0, seed=3)
        res = kmeans(data, 2, seed=0)
        assert ari(res.assignment, data.labels) == 1.0

    def test_deterministic_given_seed(self):
        data = blobs([(0, 0), (4, 0), (0, 4)], 40, 1.0, seed=4)
        a = kmeans(data, 3, seed=9)
        b = kmeans(data, 3, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_every_cluster_nonempty(self):
        data = blobs([(0, 0)], 50, 1.0, seed=5)
        res = kmeans(data, 7, seed=1)
        assert set(res.assignment.tolist()) == set(range(7))

    def test_k_too_large(self):
        data = gen_gaussian(5, seed=0)
        with pytest.raises(KTooLargeError):
            kmeans(data, 6)

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            kmeans(gen_gaussian(5, seed=0), 0)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_k_must_be_an_integer(self, k):
        # 2.0 used to fail inside numpy, True with "an integer is required"
        with pytest.raises(TypeError, match=f"k must be an integer, got {k!r}"):
            kmeans(gen_gaussian(20, seed=0), k)

    def test_numpy_integer_k_is_returned_as_int(self):
        data = gen_gaussian(40, dimension=2, seed=0)
        res = kmeans(data, np.int64(3), seed=1)
        assert type(res.k) is int and res.k == 3
        ref = kmeans(data, 3, seed=1)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        np.testing.assert_array_equal(res.centroids, ref.centroids)

    def test_steal_leaves_its_donor_nonempty(self, monkeypatch):
        # the third centre duplicates the first, so cluster 2 starts empty and
        # steals; the nearest point is cluster 0's only member, which must stay
        # (taking it emptied cluster 0 and gave it a NaN centroid)
        centroids = []
        segment_sq_dists = clustering._segment_sq_dists
        monkeypatch.setattr(clustering, "_segment_sq_dists", lambda XT, C, lengths:
                            centroids.append(C.copy()) or segment_sq_dists(XT, C, lengths))
        res = kmeans(Dataset(rows=[[0.0], [10.0], [10.0]]), 3, seed=0)
        assert len(centroids) >= 2 and all(np.isfinite(c).all() for c in centroids)
        assert sorted(res.assignment.tolist()) == [0, 1, 2]
        assert sorted(res.centroids[:, 0].tolist()) == [0.0, 10.0, 10.0]


@pytest.mark.parametrize("method", ("kmeans",) + METHOD_NAMES)
def test_overflowing_sq_dists_refused(method):
    # at 1e200 the squared distances overflow: once numpy warned, then the
    # seeding's NaN weights (a ValueError) or the viewers' infinite
    # distances (NonFiniteInputError) ended the call; at 1e150 all run
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(60, 3)), rng.normal(size=(60, 3)) + 8])
    # a column constant at 1e306 beside a bimodal one has a finite bounding
    # box, but the column sums of 400 rows overflow: once numpy warned,
    # then kmeans and both dipmeans gave an inf centroid and both gmeans
    # ended in NonFiniteInputError
    wide = np.column_stack([np.full(400, 1e306),
                            np.concatenate([rng.normal(size=200), rng.normal(size=200) + 8])])
    run = (lambda data: kmeans(data, 2)) if method == "kmeans" else (
        lambda data: run_method(method, data, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="squared distances overflow"):
            run(Dataset(rows=X * 1e200))
        with pytest.raises(DegenerateInputError, match="centroid sums overflow"):
            run(Dataset(rows=wide))
        assert run(Dataset(rows=X * 1e150)).k == 2


def _tensor_sq_dists(A, B):
    return ((A[:, None, :] - B[None]) ** 2).sum(axis=2)


class TestSqDists:
    # _sq_dists sums each distance in numpy's own add.reduce order; if a
    # numpy release changes that order, these fail instead of letting k-means
    # and the viewer distances drift
    @pytest.mark.parametrize("d", [*range(1, 10), 13, 16, 17, 32, 129, 300])
    def test_equals_tensor_formula(self, d):
        rng = np.random.default_rng([95, d])
        scale = rng.uniform(0.01, 100.0, d)
        B = rng.normal(size=(7, d)) * scale + rng.normal(size=d)
        big = max(2, _BLOCK_VALUES // (len(B) * d)) * 2 + 3  # more than two blocks
        for p in (1, 5, big):
            A = rng.normal(size=(p, d)) * scale
            expected = _tensor_sq_dists(A, B)
            np.testing.assert_array_equal(_sq_dists(A, B), expected)
            np.testing.assert_array_equal(_sq_dists(A, B[:1]), _tensor_sq_dists(A, B[:1]))
        # a transposed or strided B (and a strided A) gives the distances of
        # its C-contiguous copy
        wide = rng.normal(size=(2 * len(B), 2 * d))
        for other in (np.asfortranarray(B), wide[::2, ::2], wide.T[::2, ::2].T):
            expected = _tensor_sq_dists(A, np.ascontiguousarray(other))
            np.testing.assert_array_equal(_sq_dists(A, other), expected)
            np.testing.assert_array_equal(_sq_dists(np.asfortranarray(A), other), expected)

    @pytest.mark.parametrize("d", [*range(1, 10), 13, 16, 17, 32, 129, 300])
    def test_sum_into_strided_out_through_reused_work(self, d):
        # into the right of a wider result's rows, the strided slice
        # _pair_sq_dists passes, block by block (more than two) through
        # one NaN-filled workspace that every block overwrites
        rng = np.random.default_rng([98, d])
        scale = rng.uniform(0.01, 100.0, d)
        B = rng.normal(size=(7, d)) * scale + rng.normal(size=d)
        rows = max(2, _BLOCK_VALUES // (len(B) * d))
        A = rng.normal(size=(2 * rows + 3, d)) * scale
        wide = np.full((len(A), len(B) + 3), -1.0)
        work = np.full(d * rows * len(B), np.nan)
        bT = np.ascontiguousarray(B.T)[:, None, :]
        for start in range(0, len(A), rows):
            _sum_sq_diffs(A[start:start + rows].T[:, :, None], bT,
                          wide[start:start + rows, 3:], work)
        np.testing.assert_array_equal(wide[:, 3:], _tensor_sq_dists(A, B))
        assert (wide[:, :3] == -1.0).all()

    # the viewer distances of an all-viewer cluster: each unordered pair
    # once, mirrored, with the same bits as the full matrix
    @pytest.mark.parametrize("d", [*range(1, 10), 13, 32])
    def test_pairs_equal_tensor_formula(self, d):
        rng = np.random.default_rng([96, d])
        scale = rng.uniform(0.01, 100.0, d)
        big = int(np.sqrt(3 * _BLOCK_VALUES / d)) + 2
        assert big > 2 * (_BLOCK_VALUES // (big * d))  # more than two blocks
        for p in (1, 6, big):  # 6 rows are one block at any d here
            A = rng.normal(size=(p, d)) * scale + rng.normal(size=d)
            expected = _tensor_sq_dists(A, A)
            np.testing.assert_array_equal(_pair_sq_dists(A), expected)
            np.testing.assert_array_equal(_pair_sq_dists(np.asfortranarray(A)), expected)

    @pytest.mark.parametrize("m", [16, 17, 500])
    def test_off_diagonal_equals_mask(self, m):
        # the viewer rows of an all-viewer cluster: each row of the pair
        # distances without the viewer's own, cut with no boolean mask
        sq = np.random.default_rng([97, m]).normal(size=(m, m))
        cut = _off_diagonal(sq)
        np.testing.assert_array_equal(cut, sq[~np.eye(m, dtype=bool)].reshape(m, m - 1))
        assert cut.flags.c_contiguous and not np.shares_memory(cut, sq)

    @pytest.mark.parametrize("m", [501, 1200])
    def test_sampled_viewer_cut_equals_mask(self, m):
        # the rows a sampled-viewer cluster tests: each viewer's distances
        # without its own, cut by flat index, equal the boolean-mask cut
        members = np.random.default_rng([99, m]).normal(size=(m, 3))
        tested = []

        class Recording:
            viewer_fraction = 0.5

            def test_rows(self, Y):
                tested.append(Y.copy())
                return np.zeros(len(Y)), np.zeros(len(Y), dtype=bool)

        _viewer_fraction(Recording(), members, np.random.default_rng(7), {})
        viewers = np.random.default_rng(7).choice(m, size=100, replace=False)
        sq = _sq_dists(members[viewers], members)
        others = np.ones(sq.shape, dtype=bool)
        others[np.arange(100), viewers] = False
        np.testing.assert_array_equal(tested[0], np.sqrt(sq[others].reshape(100, m - 1)))

    def test_empty_operands(self):
        A, B = np.ones((3, 4)), np.ones((2, 4))
        assert _sq_dists(A[:0], B).shape == (0, 2)
        assert _sq_dists(A, B[:0]).shape == (3, 0)


def _reference_kmeanspp_init(X, k, rng):
    """k-means++ seeding as it was before _sq_dists: one (X - c)^2 row sum
    per chosen centre."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(np.argmax(~clustering._rows_in(X, centroids[:j])))
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _reference_lloyd(X, centroids, max_iter=300):
    """Lloyd as it was before _sq_dists: the n x k x d tensor every
    iteration, an any() per cluster for empties, mean() per centroid and the
    cost from a fresh tensor."""
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


def _reference_two_means(X, rng, restarts=2):
    best = None
    for _ in range(restarts):
        centroids = _reference_kmeanspp_init(X, 2, rng)
        assignment, centroids, cost = _reference_lloyd(X, centroids)
        if best is None or cost < best[2]:
            best = (assignment, centroids, cost)
    return best[0], best[1]


def _assert_same_lloyd(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    assert np.float64(got[2]).tobytes() == np.float64(ref[2]).tobytes()


class TestLloydEqualsReference:
    # the blocked kernel, the bincount empty check, sum / count centroids
    # and the cost reused from the last iteration leave every bit as it was
    @pytest.mark.parametrize("n, d", [(150, 4), (210, 7), (200, 8), (1000, 8), (120, 9),
                                      (90, 13), (60, 1)])
    def test_two_means_and_lloyd(self, n, d):
        rng = np.random.default_rng([96, n, d])
        X = np.vstack([rng.normal(size=(n // 2, d)),
                       rng.normal(size=(n - n // 2, d)) * 2.0 + rng.uniform(-3, 3, d)])
        for seed in range(3):
            got = _bisect([(X, np.random.default_rng([seed, n]))])[0]
            ref = _reference_two_means(X, np.random.default_rng([seed, n]))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
        for k in (3, 5):
            init = _kmeanspp_init(X, k, np.random.default_rng([97, k]))
            np.testing.assert_array_equal(
                init, _reference_kmeanspp_init(X, k, np.random.default_rng([97, k])))
            _assert_same_lloyd(_lloyd(X, init.copy()), _reference_lloyd(X, init.copy()))

    def test_max_iter_exhausted(self):
        rng = np.random.default_rng(98)
        X = rng.normal(size=(400, 8))
        init = _kmeanspp_init(X, 6, rng)
        converged = _reference_lloyd(X, init.copy())
        for max_iter in (0, 1, 2, 3):
            got = _lloyd(X, init.copy(), max_iter)
            ref = _reference_lloyd(X, init.copy(), max_iter)
            _assert_same_lloyd(got, ref)
            if max_iter:
                assert got[2] != converged[2]  # stopped before the fixpoint

    def test_duplicate_points_seed_and_steal(self, monkeypatch):
        # two distinct points, k = 3: the third centre is taken by _rows_in
        # (every point coincides with a chosen centre) and duplicates one, so
        # Lloyd's first assignment leaves a cluster empty and it steals a point
        calls = []
        rows_in = clustering._rows_in
        monkeypatch.setattr(clustering, "_rows_in",
                            lambda X, C: calls.append(len(C)) or rows_in(X, C))
        X = np.repeat(np.array([[0.0, 1.0, 2.0], [5.0, -1.0, 0.5]]), [7, 5], axis=0)
        for seed in range(4):
            init = _kmeanspp_init(X, 3, np.random.default_rng(seed))
            np.testing.assert_array_equal(
                init, _reference_kmeanspp_init(X, 3, np.random.default_rng(seed)))
            assert np.bincount(_sq_dists(X, init).argmin(axis=1), minlength=3).min() == 0
            got = _lloyd(X, init.copy())
            _assert_same_lloyd(got, _reference_lloyd(X, init.copy()))
            assert set(got[0].tolist()) == {0, 1, 2}
        assert calls == [2] * 8  # once in each seeding, this one's and the reference's


def _segments(d):
    """Two-component rows of 16, 17, 150 and 1000 points, and 20 points
    at two places (12 and 8)."""
    rng = np.random.default_rng([99, d])
    segments = [np.vstack([rng.normal(size=(m // 2, d)),
                           rng.normal(size=(m - m // 2, d)) * 2.0 + rng.uniform(-3, 3, d)])
                for m in (16, 17, 150, 1000)]
    return segments + [np.repeat(rng.normal(size=(2, d)), [12, 8], axis=0)]


class TestLloydSegments:
    # one call on many segments gives each segment the bits of Lloyd on it
    # alone, wherever it converges, empties or runs out of iterations
    @pytest.mark.parametrize("d", [1, 4, 7, 8, 9, 13])
    @pytest.mark.parametrize("k", [2, 3])
    def test_segments_equal_reference(self, d, k):
        segments = _segments(d)
        seeds = np.array([_kmeanspp_init(rows, k, np.random.default_rng([98, len(rows), k]))
                          for rows in segments])
        # the last segment has two distinct points: at k = 3 the seeding
        # repeats one, and at k = 2 both centres go on its first point, so
        # its first assignment leaves a cluster empty and it steals
        if k == 2:
            seeds[-1] = segments[-1][0]
        assert np.bincount(_sq_dists(segments[-1], seeds[-1]).argmin(axis=1),
                           minlength=k).min() == 0
        converged = [_reference_lloyd(rows, c.copy()) for rows, c in zip(segments, seeds)]
        for max_iter in (0, 1, 2, 300):
            got = _lloyd_segments(segments, seeds.copy(), max_iter)
            assert len(got) == len(segments)
            for rows, c, fit in zip(segments, seeds, got):
                _assert_same_lloyd(fit, _reference_lloyd(rows, c.copy(), max_iter))
        assert max(len(rows) for rows in segments) > 500
        assert any(fit[2] != ref[2] for fit, ref in
                   zip(_lloyd_segments(segments, seeds.copy(), 1), converged))

    @pytest.mark.parametrize("d", [1, 4, 8, 9, 13])
    def test_bisect_equals_reference_per_cluster(self, d):
        segments = _segments(d)
        got = _bisect([(rows, np.random.default_rng([97, i])) for i, rows in enumerate(segments)])
        assert len(got) == len(segments)
        for i, (rows, (assignment, centroids)) in enumerate(zip(segments, got)):
            ref = _reference_two_means(rows, np.random.default_rng([97, i]))
            np.testing.assert_array_equal(assignment, ref[0])
            np.testing.assert_array_equal(centroids, ref[1])
        assert _bisect([]) == []


class TestProjectSplit:
    def test_points_on_axis(self):
        c1 = np.array([1.0, 0.0])
        c2 = np.array([-1.0, 0.0])
        pts = np.array([[3.0, 4.0], [-2.0, 7.0], [0.5, 0.0]])
        np.testing.assert_allclose(project_split(pts, c1, c2), [3.0, -2.0, 0.5])

    def test_invariant_to_rescaling_axis(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(20, 3))
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        base = project_split(pts, c1, c2)
        scaled = project_split(pts, c2 + 17.0 * (c1 - c2), c2)
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_rotation_invariance_up_to_sign(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        base = project_split(pts, c1, c2)
        rotated = project_split(pts @ R.T, R @ c1, R @ c2)
        np.testing.assert_allclose(rotated, base, atol=1e-9)

    def test_identical_centroids(self):
        with pytest.raises(IdenticalCentroidsError):
            project_split(np.ones((4, 2)), np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("c1, c2", [([1.0, 2.0], [0.0]), ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
                                        ([1.0, 2.0], 0.0), ([[1.0, 2.0]], [0.0, 1.0])])
    def test_centroid_shapes_checked(self, c1, c2):
        # a centroid [0] used to broadcast against a 2-d one and project
        with pytest.raises(ValueError, match=r"centroids must have shape \(2,\)"):
            project_split(np.ones((4, 2)), c1, c2)


class TestCriteria:
    def test_ad_and_dip_criteria_equal_public_tests(self):
        verdicts = set()
        for sep in range(8):
            rng = np.random.default_rng([91, sep])
            y = np.concatenate([rng.normal(-sep / 2, 1, 30), rng.normal(sep / 2, 1, 30)])
            for criterion, dec in ((ADCriterion(), anderson_darling(y)),
                                   (KSCriterion(), ks_lilliefors(y)),
                                   (DipViewerCriterion(), dip_test(y))):
                assert criterion.decide(y) == dec
                assert criterion.test(y) == (dec.statistic, dec.reject_unimodal)
                verdicts.add(dec.reject_unimodal)
        assert verdicts == {True, False}

    def test_dip_viewer_rows_refuse_constant_row(self):
        # a constant row gets NaN and no reject, as in SigtestCriterion; a
        # row settled early keeps test's reject, and its dip is at most
        # test's and on the same side of the critical dip
        rng = np.random.default_rng(92)
        Y = np.vstack([rng.normal(size=60), np.full(60, 2.5),
                       np.concatenate([rng.normal(-4, 1, 30), rng.normal(4, 1, 30)])])
        criterion = DipViewerCriterion(bootstrap_B=200)
        critical = dip_reference_table(60, 200).max()
        stats, rejects = criterion.test_rows(Y)
        with pytest.raises(DegenerateInputError):
            criterion.test(Y[1])
        assert np.isnan(stats[1]) and not rejects[1]
        for i in (0, 2):
            stat, reject = criterion.test(Y[i])
            assert rejects[i] == reject
            assert stats[i] <= stat
            assert (stats[i] > critical) == (stat > critical) == reject
        assert rejects.tolist() == [False, False, True]

    def test_ad_unknown_alpha_is_value_error(self):
        with pytest.raises(ValueError, match="alpha=0.3"):
            ADCriterion(alpha=0.3).test(np.random.default_rng(3).normal(size=50))


class TestGmeansFamily:
    def test_single_gaussian_stays_whole(self):
        hits = 0
        for s in range(100):
            data = gen_gaussian(400, dimension=2, seed=1000 + s)
            res = gmeans_family(data, SigtestCriterion(), seed=s)
            hits += res.k == 1
        assert hits >= 90

    def test_well_separated_blobs_recovered(self):
        data = blobs([(0, 0), (12, 0), (0, 12)], 80, 1.0, seed=8)
        res = gmeans_family(data, SigtestCriterion(), seed=0)
        assert res.k == 3
        assert ari(res.assignment, data.labels) == 1.0

    def test_ad_criterion_variant(self):
        data = blobs([(0, 0), (10, 0)], 100, 1.0, seed=9)
        res = gmeans_family(data, ADCriterion(), seed=0)
        assert res.k == 2
        assert ari(res.assignment, data.labels) == 1.0

    def test_deterministic(self):
        data = blobs([(0, 0), (6, 0)], 60, 1.0, seed=10)
        a = gmeans_family(data, SigtestCriterion(), seed=3)
        b = gmeans_family(data, SigtestCriterion(), seed=3)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.split_log == b.split_log

    def test_split_log_replays_k(self):
        data = blobs([(0, 0), (8, 0), (0, 8), (8, 8)], 60, 1.0, seed=11)
        res = gmeans_family(data, SigtestCriterion(), seed=0)
        assert res.replayed_k() == res.k
        accepted = [r for r in res.split_log if r.accepted]
        assert len(accepted) == res.k - 1
        for rec in res.split_log:
            assert rec.criterion == "sigtest1"
            assert 0.0 <= rec.statistic <= 1.0 or rec.statistic >= 0

    def test_termination_bound(self):
        data = blobs([(0, 0), (5, 0), (0, 5), (5, 5), (10, 10)], 50, 0.5, seed=12)
        res = gmeans_family(data, SigtestCriterion(), seed=1)
        assert res.k <= data.n // MIN_SAMPLES
        assert np.all(res.assignment >= 0) and np.all(res.assignment < res.k)
        assert all(np.any(res.assignment == j) for j in range(res.k))

    @pytest.mark.parametrize("method", ["gmeans", "gmeans+"])
    def test_duplicate_cluster_has_no_axis(self, method, monkeypatch):
        # 30 identical rows beside a blob: the duplicate cluster's 2-means
        # children coincide, so it has no axis to project on, and is logged
        # with statistic 0.0 and decision False, without a numpy warning
        rng = np.random.default_rng(5)
        data = Dataset(rows=np.vstack([np.full((30, 2), 1.0), rng.normal(size=(30, 2)) + 50]))
        refused = []

        def recording(points, c1, c2):
            try:
                return project_split(points, c1, c2)
            except IdenticalCentroidsError:
                refused.append(len(points))
                raise

        monkeypatch.setattr(clustering, "project_split", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_method(method, data, seed=0)
        assert res.k == 2 and refused == [30]
        [rec] = [r for r in res.split_log if r.round == 1 and r.cluster_id == res.assignment[0]]
        assert (rec.statistic, rec.decision, rec.accepted, rec.n) == (0.0, False, False, 30)

    def test_too_few_points_refused(self):
        data = gen_gaussian(2 * MIN_SAMPLES - 1, dimension=2, seed=0)
        for method in METHOD_NAMES:
            with pytest.raises(TooFewSamplesError, match=f"need at least {2 * MIN_SAMPLES} points"):
                run_method(method, data)



class TestDipmeansFamily:
    def test_rejects_criterion_without_viewer_fraction(self):
        data = gen_gaussian(64, dimension=2, seed=0)
        for criterion in (ADCriterion(), KSCriterion()):
            with pytest.raises(TypeError, match="viewer_fraction"):
                dipmeans_family(data, criterion, seed=0)

    def test_rejects_criterion_without_test_rows(self, monkeypatch):
        # a viewer fraction alone is not enough: the viewers test in one
        # test_rows call, so the lack is refused before any clustering
        @dataclass(frozen=True)
        class ViewingAD(ADCriterion):
            viewer_fraction: ClassVar[float] = 0.01

        monkeypatch.setattr(clustering, "_split_loop", None)
        data = gen_gaussian(64, dimension=2, seed=0)
        with pytest.raises(TypeError, match=r"ViewingAD\(.*\) has no test_rows$"):
            dipmeans_family(data, ViewingAD(), seed=0)
        with pytest.raises(TypeError, match=r"has no test_rows and no viewer_fraction$"):
            dipmeans_family(data, KSCriterion(), seed=0)

    def test_single_gaussian_stays_whole(self):
        hits = 0
        for s in range(30):
            data = gen_gaussian(300, dimension=2, seed=2000 + s)
            res = dipmeans_family(data, SigtestCriterion(), seed=s)
            hits += res.k == 1
        assert hits >= 27

    def test_separated_blobs_split(self):
        data = blobs([(0, 0), (10, 0), (0, 10)], 70, 1.0, seed=13)
        res = dipmeans_family(data, SigtestCriterion(), seed=0)
        assert res.k == 3
        assert ari(res.assignment, data.labels) == 1.0

    def test_dip_viewer_criterion_variant(self):
        data = blobs([(0, 0), (14, 0)], 100, 1.0, seed=14)
        res = dipmeans_family(data, DipViewerCriterion(bootstrap_B=200), seed=0)
        assert res.k == 2

    def test_small_cluster_never_tested(self):
        # guard: clusters below 2*min_samples are skipped entirely
        data = gen_gaussian(17, dimension=2, seed=15)
        res = dipmeans_family(data, SigtestCriterion(), seed=0)
        assert res.k == 1
        assert all(rec.n >= 16 for rec in res.split_log)

    def test_statistic_is_viewer_fraction(self):
        data = blobs([(0, 0), (9, 0)], 60, 1.0, seed=16)
        res = dipmeans_family(data, SigtestCriterion(), seed=0)
        for rec in res.split_log:
            assert 0.0 <= rec.statistic <= 1.0

    def test_deterministic(self):
        data = blobs([(0, 0), (7, 0)], 60, 1.0, seed=17)
        a = dipmeans_family(data, SigtestCriterion(), seed=5)
        b = dipmeans_family(data, SigtestCriterion(), seed=5)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.split_log == b.split_log

    def test_viewer_subsampling_cap(self):
        # cluster larger than the cap: seeded subset of 100 viewers
        data = blobs([(0, 0), (40, 0)], 400, 1.0, seed=18)
        res = dipmeans_family(data, SigtestCriterion(), seed=0)
        assert res.k == 2

    @staticmethod
    def _peak_bytes(data):
        tracemalloc.start()
        try:
            res = dipmeans_family(data, SigtestCriterion(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.k == 1
        return peak

    def test_sampled_viewers_bound_memory(self):
        # 100 sampled viewers of 1200 points at d=8 keep their own distance
        # rows (100 x 1200 floats, 0.96 MB), not all 1200^2 x 8 differences
        # (92 MB), and take their square root and signature map in place;
        # measured 3.2 MB (5.1 MB with a fresh array per step)
        peak = self._peak_bytes(gen_gaussian(1200, dimension=8, seed=19))
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_all_viewers_bound_memory(self):
        # 500 members are all viewers: the distances go through _sq_dists in
        # row blocks, never as the 500 x 500 x 8 difference tensor (16 MB,
        # an 18.1 MB peak), each viewer's own distance is cut without a
        # 500 x 500 boolean mask, and the 500 x 499 distance rows go
        # through the signature test with no copy beyond the normalized
        # one; measured 4.83 MB (5.08 MB with the mask, 10.3 MB with a
        # fresh array per step)
        peak = self._peak_bytes(gen_gaussian(500, dimension=8, seed=19))
        assert peak < 5e6, f"peak {peak / 1e6:.2f} MB"


class TestRegistry:
    def test_names_come_from_the_registry(self):
        assert TEST_METHODS == ("sigtest1", "sigtest2", "ad", "ks", "dip") == tuple(TEST_CRITERIA)
        assert METHOD_NAMES == ("gmeans", "gmeans+", "dipmeans", "dipmeans+") == tuple(CLUSTERERS)
        assert [family for family, _ in CLUSTERERS.values()] == \
            [gmeans_family, gmeans_family, dipmeans_family, dipmeans_family]
        assert all(hasattr(criterion, "viewer_fraction")
                   for family, criterion in CLUSTERERS.values() if family is dipmeans_family)

    def test_configured_sets_only_the_fields_a_criterion_has(self):
        sig2 = configured(TEST_CRITERIA["sigtest2"], gamma=1.5, threshold=0.3, alpha=0.01)
        assert sig2 == SigtestCriterion(SigtestConfig(1.5, 0.3, SignatureVariant.SIGNATURE2))
        assert configured(TEST_CRITERIA["ad"], gamma=1.5, alpha=None) == ADCriterion(AD_ALPHA)
        assert configured(TEST_CRITERIA["ks"], alpha=0.01) == KSCriterion(0.01)
        assert configured(TEST_CRITERIA["dip"], bootstrap_B=200) == DipViewerCriterion(200)
        config = SigtestConfig(1.5, 0.3, SignatureVariant.SIGNATURE2)
        assert configured(CLUSTERERS["gmeans+"][1], config=config).config == config
        with pytest.raises(ValueError, match="gamma must be positive"):
            configured(TEST_CRITERIA["sigtest1"], gamma=-1.0)
        assert KSCriterion().alpha == KS_ALPHA

    def test_unknown_names_are_refused(self):
        data = gen_gaussian(64, dimension=2, seed=0)
        with pytest.raises(ValueError, match=r"'kmeans'; expected one of \('gmeans'"):
            run_method("kmeans", data)
        with pytest.raises(ValueError, match=r"'sigtest3'; expected one of \('sigtest1'"):
            run_test_benchmark(runs=1, methods=("sigtest3",), timing_runs=0)


class TestBenchmarkDatasets:
    # regression pins on the bundled datasets: the level-zero dip viewers
    # are conservative enough to keep seeds whole and stop iris at the
    # setosa/rest split, while the signature viewers resolve seeds fully
    def test_seeds_dip_viewers_keep_one_cluster(self):
        from sigcluster import bundled_manifest, load_csv
        data = load_csv(bundled_manifest("seeds"))
        for s in range(3):
            res = dipmeans_family(data, DipViewerCriterion(bootstrap_B=500), seed=s)
            assert res.k == 1

    def test_iris_dip_viewers_stop_at_two(self):
        from sigcluster import bundled_manifest, load_csv
        data = load_csv(bundled_manifest("iris"))
        for s in range(3):
            res = dipmeans_family(data, DipViewerCriterion(bootstrap_B=500), seed=s)
            assert res.k == 2

    def test_unviable_bisection_is_tested_then_vetoed(self):
        # round 1 bisects the 53-point setosa cluster into children one of
        # which is below MIN_SAMPLES: the criterion's verdict is logged,
        # and the split loop vetoes it
        from sigcluster import bundled_manifest, load_csv
        res = run_method("gmeans", load_csv(bundled_manifest("iris")), seed=1)
        [rec] = [r for r in res.split_log if r.round == 1 and r.n == 53]
        assert rec.statistic > AD_CRITICAL_VALUES[AD_ALPHA]
        assert rec.decision and not rec.accepted
        assert res.replayed_k() == res.k == 2

    def test_iris_ad_criterion_stops_at_two(self):
        from sigcluster import bundled_manifest, load_csv
        data = load_csv(bundled_manifest("iris"))
        for s in range(5):
            res = gmeans_family(data, ADCriterion(), seed=s)
            assert res.k == 2
            assert ari(res.assignment, data.labels) > 0.5


def _sequential_split_loop(data, criterion, seed, evaluate):
    """The split loop one cluster at a time: each cluster of a round is
    evaluated, with its own bisection, and split before the next one is
    evaluated; the global refinement is _reference_lloyd."""
    X = data.rows
    assignment = np.zeros(X.shape[0], dtype=np.int64)
    centroids = [X.mean(axis=0)]
    k = 1
    log = []
    for round_no in range(X.shape[0]):
        k_round = k
        for cid in range(k):
            members = np.flatnonzero(assignment == cid)
            if members.size < 2 * MIN_SAMPLES:
                continue
            stat, decision, children = evaluate(X[members],
                                                np.random.default_rng([seed, round_no, cid]))
            accepted = bool(decision and
                            np.bincount(children[0], minlength=2).min() >= MIN_SAMPLES)
            if accepted:
                assignment[members[children[0] == 1]] = k
                centroids[cid] = children[1][0]
                centroids.append(children[1][1])
                k += 1
            log.append(SplitRecord(round_no, cid, criterion.name, float(stat), bool(decision),
                                   accepted, int(members.size)))
        if k == k_round:
            break
        assignment, refined, _ = _reference_lloyd(X, np.array(centroids, dtype=np.float64))
        centroids = list(refined)
    return ClusteringResult(assignment, np.array(centroids), k, tuple(log))


def _looped_gmeans(data, criterion, seed):
    """Reference gmeans: each cluster bisected by _reference_two_means and
    tested in turn, where gmeans_family bisects a round in one call."""
    def evaluate(members, rng):
        children = _reference_two_means(members, rng)
        try:
            stat, decision = criterion.test(project_split(members, *children[1]))
        except (IdenticalCentroidsError, DegenerateInputError):
            return 0.0, False, None
        return stat, decision, children

    return _sequential_split_loop(data, criterion, seed, evaluate)


def _looped_dipmeans(data, criterion, seed):
    """Reference dipmeans with a viewer loop: one np.delete and one
    one-sample criterion test per viewer, where dipmeans_family makes one
    batched test_rows call per cluster, and each splitting cluster
    bisected in turn."""
    def evaluate(members, rng):
        m = members.shape[0]
        viewers = np.arange(m)
        if m > 500:
            viewers = rng.choice(m, size=100, replace=False)
        dist = np.sqrt(((members[viewers, None, :] - members[None, :, :]) ** 2).sum(axis=2))
        rejecting = 0
        for row, v in zip(dist, viewers):
            try:
                rejecting += criterion.test(np.delete(row, v))[1]
            except DegenerateInputError:
                pass
        fraction = rejecting / len(viewers)
        if fraction <= criterion.viewer_fraction:
            return fraction, False, None
        return fraction, True, _reference_two_means(members, rng)

    return _sequential_split_loop(data, criterion, seed, evaluate)


def _round_sets():
    """iris, seeds, five unit blobs on a regular simplex at d=8 (the
    1000-point root takes dipmeans' sampled viewers) and a 13-d mixture
    of four components."""
    from sigcluster import bundled_manifest, load_csv
    rng = np.random.default_rng(95)
    mixture = np.vstack([rng.normal(size=(m, 13)) * s + rng.uniform(-6, 6, 13)
                         for m, s in ((120, 1.0), (90, 1.5), (150, 0.7), (60, 1.0))])
    return [load_csv(bundled_manifest("iris")), load_csv(bundled_manifest("seeds")),
            blobs(23.2 / np.sqrt(2.0) * np.eye(8)[:5], 200, 1.0, seed=21, d=8),
            Dataset(rows=mixture, name="mixture13")]


class TestRoundBatching:
    # a round's bisections run as one segmented Lloyd call, and every
    # clusterer equals splitting one cluster at a time (the dipmeans
    # families in TestBatchedViewers.test_dipmeans_equals_viewer_loop)
    @pytest.mark.parametrize("method", ["gmeans", "gmeans+"])
    def test_gmeans_equals_sequential_loop(self, method):
        criterion = CLUSTERERS[method][1]
        ks = []
        for data in _round_sets():
            for seed in (0, 1):
                res = run_method(method, data, seed)
                ref = _looped_gmeans(data, criterion, seed)
                assert res.split_log == ref.split_log
                np.testing.assert_array_equal(res.assignment, ref.assignment)
                np.testing.assert_array_equal(res.centroids, ref.centroids)
                assert res.k == ref.k
                ks.append(res.k)
        assert max(ks) >= 4  # several clusters were tested in one round

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_one_bisection_call_per_round(self, method, monkeypatch):
        family = CLUSTERERS[method][0]
        calls = []
        kernel = clustering._lloyd_segments

        def counted(segments, C, max_iter=300):
            calls.append((len(segments), C.shape[1]))
            return kernel(segments, C, max_iter)

        monkeypatch.setattr(clustering, "_lloyd_segments", counted)
        # two pairs of blobs: the root splits between the pairs, and then
        # both pairs split in one round
        res = run_method(method, blobs([(0, 0), (10, 0), (60, 0), (70, 0)], 80, 1.0, seed=22), 0)
        expected, k = [], 1
        for r in range(res.split_log[-1].round + 1):
            records = [rec for rec in res.split_log if rec.round == r]
            bisected = sum(family is gmeans_family or rec.decision for rec in records)
            if bisected:  # both restarts of every bisected cluster
                expected.append((2 * bisected, 2))
            k += sum(rec.accepted for rec in records)
            if any(rec.accepted for rec in records):  # the global refinement
                expected.append((1, k))
        assert calls == expected
        assert res.k == 4 and max(segments for segments, _ in calls) >= 4


class TestBatchedViewers:
    # SigtestCriterion.test_rows runs the signature kernel once over all
    # rows; it must equal the one-row sigtest of each row exactly
    @pytest.mark.parametrize("variant", list(SignatureVariant))
    @pytest.mark.parametrize("N", [8, 9, 199, 999])
    def test_rows_equal_loop_of_sigtest(self, variant, N):
        config = SigtestConfig(variant=variant)
        rng = np.random.default_rng([80, N, variant.value])
        Y = rng.normal(size=(10, N)) * rng.uniform(0.1, 5.0, (10, 1)) + rng.normal(size=(10, 1))
        Y[1] = 3.3                                   # zero spread
        Y[4] *= 1e160                                # squared deviations overflow
        Y[6] = np.round(Y[6], 1)                     # many ties
        Y[8] = rng.normal(size=N) + np.where(np.arange(N) % 2, 5.0, -5.0)  # bimodal
        C, rejects = SigtestCriterion(config).test_rows(Y)
        assert C.shape == rejects.shape == (10,)
        for i, y in enumerate(Y):
            if i in (1, 4):
                with pytest.raises(DegenerateInputError):
                    sigtest(y, config)
                assert np.isnan(C[i]) and not rejects[i]
                continue
            out = sigtest(y, config)
            assert C[i] == out.C
            assert rejects[i] == out.split
        if N >= 199:
            assert rejects[8]
        # a column-major copy gives the same rows, summed in the same order
        C_f, rejects_f = SigtestCriterion(config).test_rows(np.asfortranarray(Y))
        np.testing.assert_array_equal(C_f, C)
        np.testing.assert_array_equal(rejects_f, rejects)

    @pytest.mark.parametrize("variant", list(SignatureVariant))
    def test_rows_map_signatures_in_place(self, variant):
        # 400 rows of 399 distances (1.3 MB): the normalized copy and a
        # block of its squared deviations (0.5 MB), then abs, sort, erf map
        # and running mean in place on that copy; measured 1.8 MB (2.6 MB
        # squaring every deviation at once, 5.1 MB with a fresh array per
        # step)
        Y = np.random.default_rng(98).normal(size=(400, 399))
        criterion = SigtestCriterion(SigtestConfig(variant=variant))
        criterion.test_rows(Y)
        tracemalloc.start()
        try:
            criterion.test_rows(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"

    def test_rows_validates_shape(self):
        Y = np.random.default_rng(93).normal(size=(3, 20))
        Y[1, 4] = np.nan
        for criterion, min_n, test in ((SigtestCriterion(), MIN_SAMPLES, "signature test"),
                                       (DipViewerCriterion(), 4, "dip test")):
            with pytest.raises(ValueError, match="expected a 2-d array of rows"):
                criterion.test_rows(np.arange(20.0))
            with pytest.raises(ValueError, match=r"got shape \(\)"):
                criterion.test_rows(5.0)
            # too few columns, even none, is refused before any moment is
            # formed: no numpy warning on the way
            for n in (0, 1, min_n - 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(TooFewSamplesError, match=f"{test} needs N >= {min_n}, got {n}"):
                        criterion.test_rows(np.arange(3.0 * n).reshape(3, n))
            # the size is checked before finiteness, as sigtest checks a 1-d sample
            with pytest.raises(TooFewSamplesError):
                criterion.test_rows(np.full((3, min_n - 1), np.nan))
            with pytest.raises(NonFiniteInputError):
                criterion.test_rows(Y)
            stats, rejects = criterion.test_rows(np.empty((0, 20)))
            assert stats.shape == rejects.shape == (0,)

    def test_dip_rows_check_bootstrap_as_dip_test(self):
        Y = np.random.default_rng(94).normal(size=(2, 30))
        for B, error in ((100.0, TypeError), (50, TooFewSamplesError)):
            with pytest.raises(error):
                dip_test(Y[0], B)
            with pytest.raises(error):
                DipViewerCriterion(B).test_rows(Y)

    def test_dip_rows_refuse_overflowing_row(self):
        y = np.concatenate([np.full(30, -1.7e308), np.full(30, 1.7e308)])
        stats, rejects = DipViewerCriterion(bootstrap_B=100).test_rows(np.vstack([y, y / 1.7e308]))
        assert np.isnan(stats[0]) and not rejects[0]
        assert stats[1] == 0.25 and rejects[1]

    # the dip criterion's entry (variant None) batches AS 217 as
    # test_rows; the loop tests each viewer with test, as dip_test does
    @pytest.mark.parametrize("variant", [*SignatureVariant, pytest.param(None, id="dip")])
    def test_dipmeans_equals_viewer_loop(self, variant):
        criterion = (DipViewerCriterion() if variant is None
                     else SigtestCriterion(SigtestConfig(variant=variant)))
        splits = []
        for data in _round_sets():
            for seed in (0, 1):
                res = dipmeans_family(data, criterion, seed)
                ref = _looped_dipmeans(data, criterion, seed)
                np.testing.assert_array_equal(res.assignment, ref.assignment)
                np.testing.assert_array_equal(res.centroids, ref.centroids)
                assert res.split_log == ref.split_log
                assert res.k == ref.k
                splits.append(res.k > 1)
        # classic dip-means keeps seeds whole: none of its viewers rejects
        assert splits == [True, True, variant is not None, variant is not None] + [True] * 4

    @staticmethod
    def _batches_per_evaluation(monkeypatch, criterion):
        """The number of test_rows batches each viewer evaluation of the
        split loop makes, in the order of its records, appended as the
        loop runs."""
        batches, per_evaluation = [], []
        test_rows, viewer_fraction = type(criterion).test_rows, clustering._viewer_fraction
        monkeypatch.setattr(type(criterion), "test_rows",
                            lambda self, Y: batches.append(len(Y)) or test_rows(self, Y))

        def counted(*args):
            before = len(batches)
            out = viewer_fraction(*args)
            per_evaluation.append(len(batches) - before)
            return out

        monkeypatch.setattr(clustering, "_viewer_fraction", counted)
        return per_evaluation

    @pytest.mark.parametrize("variant", [*SignatureVariant, pytest.param(None, id="dip")])
    def test_kept_verdicts_are_reused(self, variant, monkeypatch):
        # the five simplex blobs stay whole round after round once split
        # off: their later records reuse the first verdict, with no batch
        criterion = (DipViewerCriterion() if variant is None
                     else SigtestCriterion(SigtestConfig(variant=variant)))
        per_evaluation = self._batches_per_evaluation(monkeypatch, criterion)
        data = blobs(23.2 / np.sqrt(2.0) * np.eye(8)[:5], 200, 1.0, seed=21, d=8)
        for seed in (0, 1):
            ref = _looped_dipmeans(data, criterion, seed)
            per_evaluation.clear()
            res = dipmeans_family(data, criterion, seed)
            assert res.split_log == ref.split_log
            np.testing.assert_array_equal(res.assignment, ref.assignment)
            assert len(per_evaluation) == len(res.split_log)
            assert sum(per_evaluation) < len(res.split_log)
            for rec, batches in zip(res.split_log, per_evaluation):
                assert batches == 1 or (rec.n <= 500 and not rec.decision)

    def test_sampled_and_vetoed_clusters_are_tested_anew(self, monkeypatch):
        # a 600-point Gaussian kept whole (sampled viewers), a pair of
        # blobs that splits a round later, and 20 points with 3 satellites
        # whose split is vetoed (a child of 3 < MIN_SAMPLES) every round:
        # the big and the vetoed cluster draw from their round's rng, so
        # each presentation makes its own batch
        criterion = SigtestCriterion()
        per_evaluation = self._batches_per_evaluation(monkeypatch, criterion)
        rng = np.random.default_rng([97, 0])
        rows = np.vstack([rng.normal(size=(600, 2)),
                          rng.normal(size=(100, 2)) + (40, 0),
                          rng.normal(size=(100, 2)) + (40, 12),
                          rng.normal(size=(20, 2)) * 0.3 + (0, 200),
                          rng.normal(size=(3, 2)) * 0.3 + (10, 200)])
        data = Dataset(rows=rows)
        ref = _looped_dipmeans(data, criterion, 0)
        per_evaluation.clear()
        res = dipmeans_family(data, criterion, 0)
        assert res.split_log == ref.split_log
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        log = list(zip(res.split_log, per_evaluation))
        big = [batches for rec, batches in log if rec.n == 600]
        vetoed = [batches for rec, batches in log if rec.decision and not rec.accepted]
        assert len(big) >= 2 and len(vetoed) >= 2
        assert big == [1] * len(big) and vetoed == [1] * len(vetoed)
