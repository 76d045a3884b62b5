import re

import numpy as np
import pytest

from sigcluster import (
    Dataset,
    TwoClusterSpec,
    bundled_manifest,
    gen_gaussian,
    gen_two_clusters,
    kmeans,
    run_cluster_benchmark,
    run_method,
    run_test_benchmark,
)

# every public entry that takes a seed, called with one
SEEDED = {
    "gen_gaussian": lambda seed: gen_gaussian(10, seed=seed).rows,
    "TwoClusterSpec": lambda seed: gen_two_clusters(
        TwoClusterSpec(n_per_cluster=5, seed=seed)).rows,
    "kmeans": lambda seed: kmeans(Dataset(np.arange(20.0).reshape(10, 2)), 2, seed=seed).assignment,
    "run_method": lambda seed: run_method(
        "gmeans", Dataset(np.random.default_rng(3).normal(size=(40, 2))), seed=seed).assignment,
    "run_test_benchmark": lambda seed: [r.success_rate for r in run_test_benchmark(
        separations=(3.0,), runs=2, seed=seed, methods=("ad",), timing_runs=0)],
    "run_cluster_benchmark": lambda seed: [r.k_mean for r in run_cluster_benchmark(
        [bundled_manifest("iris")], methods=("gmeans",), runs=1, seed=seed)],
}


@pytest.mark.parametrize("entry", SEEDED.values(), ids=SEEDED)
@pytest.mark.parametrize("seed, error, match", [
    (-1, ValueError, "seed must be at least 0, got -1"),
    (1.5, TypeError, r"seed must be an integer, got 1\.5"),
    (True, TypeError, "seed must be an integer, got True"),
], ids=["negative", "float", "bool"])
def test_one_seed_rule_with_named_errors(entry, seed, error, match):
    # every seed is checked once, by one rule, in words that name it,
    # before numpy's seeding could refuse it in its own
    with pytest.raises(error, match=match):
        entry(seed)


@pytest.mark.parametrize("entry", SEEDED.values(), ids=SEEDED)
def test_valid_seeds_draw_the_same_bits(entry):
    # an int and a numpy integer of equal value seed the same draws
    np.testing.assert_array_equal(entry(5), entry(np.int64(5)))


class TestGenGaussian:
    def test_determinism(self):
        a = gen_gaussian(100, seed=5)
        b = gen_gaussian(100, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)
        c = gen_gaussian(100, seed=6)
        assert not np.array_equal(a.rows, c.rows)

    def test_clt_mean(self):
        n = 1000
        d = gen_gaussian(n, mean=3.0, seed=1)
        assert abs(d.rows.mean() - 3.0) <= 4 / np.sqrt(n)

    def test_shape_and_dimension(self):
        d = gen_gaussian(50, mean=[1.0, -1.0, 0.0], dimension=3, seed=2)
        assert d.rows.shape == (50, 3)
        assert d.labels is None
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            gen_gaussian(50, dimension=0)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian(0)

    @pytest.mark.parametrize("kwargs, name, value", [
        ({"n": 3.0}, "n", "3.0"), ({"n": True}, "n", "True"),
        ({"n": 5, "dimension": 2.0}, "dimension", "2.0")])
    def test_counts_are_integers(self, kwargs, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value}"):
            gen_gaussian(**kwargs)

    @pytest.mark.parametrize("mean", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
    def test_mean_shape_checked(self, mean):
        # a scalar or one value per dimension; numpy would broadcast [1.0]
        # and refuse the rest in its own words
        message = f"mean must be a scalar or have shape (2,), got shape {np.shape(mean)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            gen_gaussian(5, mean=mean, dimension=2)


class TestGenTwoClusters:
    def test_shape_labels_and_centers(self):
        spec = TwoClusterSpec(n_per_cluster=100, separation=3.0, dimension=1, seed=9)
        d = gen_two_clusters(spec)
        assert d.rows.shape == (200, 1)
        assert (d.labels == 0).sum() == 100 and (d.labels == 1).sum() == 100
        m0 = d.rows[d.labels == 0, 0].mean()
        m1 = d.rows[d.labels == 1, 0].mean()
        tol = 4.0 / np.sqrt(100)
        assert abs(m0 + 1.5) <= tol and abs(m1 - 1.5) <= tol

    def test_label_conditional_variance(self):
        spec = TwoClusterSpec(n_per_cluster=400, separation=2.0, seed=3)
        d = gen_two_clusters(spec)
        for lab in (0, 1):
            v = d.rows[d.labels == lab, 0].var()
            assert abs(v - 1.0) <= 5 * np.sqrt(2 / 400)

    def test_determinism_is_pure_function_of_spec(self):
        spec = TwoClusterSpec(separation=2.5, seed=11)
        np.testing.assert_array_equal(
            gen_two_clusters(spec).rows, gen_two_clusters(spec).rows)

    def test_zero_separation_is_single_gaussian(self):
        d = gen_two_clusters(TwoClusterSpec(n_per_cluster=2000, separation=0.0, seed=4))
        assert abs(d.rows.mean()) < 4 / np.sqrt(4000)
        assert abs(d.rows.std() - 1.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoClusterSpec(n_per_cluster=1)
        with pytest.raises(ValueError):
            TwoClusterSpec(separation=-1.0)
        for separation in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="separation must be finite"):
                TwoClusterSpec(separation=separation)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            TwoClusterSpec(dimension=0)

    @pytest.mark.parametrize("kwargs, name, value", [
        ({"n_per_cluster": 2.5}, "n_per_cluster", "2.5"),
        ({"n_per_cluster": True}, "n_per_cluster", "True"),
        ({"dimension": 2.0}, "dimension", "2.0")])
    def test_counts_are_integers(self, kwargs, name, value):
        # refused when the spec is made, not when it is drawn
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value}"):
            TwoClusterSpec(**kwargs)
