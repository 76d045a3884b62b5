import numpy as np
import pytest

from sigcluster import TwoClusterSpec, gen_gaussian, gen_two_clusters


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
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            TwoClusterSpec(dimension=0)
