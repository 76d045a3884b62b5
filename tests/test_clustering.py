import tracemalloc

import numpy as np
import pytest

from sigcluster import (
    ADCriterion,
    Dataset,
    DipViewerCriterion,
    SigtestCriterion,
    anderson_darling,
    ari,
    dip_test,
    dipmeans_family,
    gen_gaussian,
    gmeans_family,
    kmeans,
    project_split,
)
from sigcluster.errors import IdenticalCentroidsError, KTooLargeError
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


class TestCriteria:
    def test_ad_and_dip_criteria_equal_public_tests(self):
        verdicts = set()
        for sep in range(8):
            rng = np.random.default_rng([91, sep])
            y = np.concatenate([rng.normal(-sep / 2, 1, 30), rng.normal(sep / 2, 1, 30)])
            ad, dip = anderson_darling(y), dip_test(y)  # self-contained calls
            assert ADCriterion().test(y) == (ad.statistic, ad.reject_unimodal)
            assert DipViewerCriterion().test(y) == (dip.statistic, dip.reject_unimodal)
            verdicts |= {ad.reject_unimodal, dip.reject_unimodal}
        assert verdicts == {True, False}

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

    def test_rejects_wrong_criterion(self):
        data = gen_gaussian(64, dimension=2, seed=0)
        with pytest.raises(TypeError):
            gmeans_family(data, DipViewerCriterion(), seed=0)


class TestDipmeansFamily:
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

    def test_sampled_viewers_bound_memory(self):
        # 100 sampled viewers of 1200 points at d=8 need their own distance
        # rows (100 x 1200 x 8 floats, 7.7 MB), not all 1200^2 x 8 (92 MB)
        data = gen_gaussian(1200, dimension=8, seed=19)
        tracemalloc.start()
        try:
            res = dipmeans_family(data, SigtestCriterion(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.k == 1
        assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"


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

    def test_iris_ad_criterion_stops_at_two(self):
        from sigcluster import bundled_manifest, load_csv
        data = load_csv(bundled_manifest("iris"))
        for s in range(5):
            res = gmeans_family(data, ADCriterion(), seed=s)
            assert res.k == 2
            assert ari(res.assignment, data.labels) > 0.5
