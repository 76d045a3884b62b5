import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfinv

from sigcluster import (
    SignatureVariant,
    SigtestConfig,
    compute_bounds,
    half_normal_cdf,
    normalize,
    signature_moments,
    sorted_abs,
)
from sigcluster.core import _block_rows, _half_normal_cdf, _test_rows
from sigcluster.errors import (
    DegenerateInputError,
    NegativeInputError,
    NonFiniteInputError,
)
from sigcluster.sigtest import _MARGIN_ULPS


class TestNormalize:
    def test_hand_case(self):
        # mean 4, population std sqrt(8/3): computed directly
        expected = np.array([-2.0, 0.0, 2.0]) / np.sqrt(8.0 / 3.0)
        got = normalize([2.0, 4.0, 6.0])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_output_moments(self):
        rng = np.random.default_rng(3)
        y = rng.gamma(2.0, size=500)
        z = normalize(y)
        assert abs(z.mean()) < 1e-12
        assert abs(np.sqrt(np.mean(z * z)) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        z = normalize(rng.normal(size=100))
        np.testing.assert_allclose(normalize(z), z, atol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize([5.0, 5.0, 5.0])
        with pytest.raises(DegenerateInputError):
            normalize([1.0])

    def test_overflow_is_typed_error(self):
        # the squared deviations overflow although every value is finite;
        # typed error, and no numpy warning on the way to it
        y = np.random.default_rng(3).normal(size=200) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflow"):
                normalize(y)

    def test_sum_overflow_is_typed_error(self):
        # the sum overflows (and +inf meets -inf in the second sample)
        for y in (np.full(200, 1.5e308), np.repeat([1.7e308, -1.7e308], 100)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateInputError, match="the mean is not finite"):
                    normalize(y)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInputError):
            normalize([1.0, np.nan, 2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=64)
        z = normalize(y)
        for a, b in [(3.7, -2.0), (0.001, 55.0), (1e6, 0.3)]:
            np.testing.assert_allclose(normalize(a * y + b), z, atol=1e-9)
        np.testing.assert_allclose(normalize(-2.0 * y + 1.0), -z, atol=1e-9)


class TestSortedAbs:
    def test_hand_cases(self):
        np.testing.assert_array_equal(sorted_abs([-3.0, 1.0, -2.0]), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sorted_abs([0.0, 0.0]), [0.0, 0.0])

    def test_permutation_of_abs_nondecreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = rng.normal(size=rng.integers(1, 40))
            z = sorted_abs(y)
            assert np.all(np.diff(z) >= 0)
            assert sorted(np.abs(y).tolist()) == z.tolist()

    def test_leaves_its_input_alone(self):
        # the signature kernel maps its own normalized copy in place; the
        # public stage functions never write into a caller's array
        y = np.array([-3.0, 1.0, -2.0])
        sorted_abs(y)
        np.testing.assert_array_equal(y, [-3.0, 1.0, -2.0])
        t = np.array([2.0, 0.5])
        half_normal_cdf(t)
        np.testing.assert_array_equal(t, [2.0, 0.5])


class TestHalfNormalCdf:
    def test_zero(self):
        assert half_normal_cdf(0.0) == 0.0

    def test_against_quadrature(self):
        # independent oracle: numerically integrate the normal density
        def oracle(t):
            dens = lambda u: np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi)
            return 2.0 * quad(dens, 0.0, t)[0]

        for t in [0.1, 0.5, 1.0, 1.7, 2.5, 4.0]:
            assert abs(half_normal_cdf(t) - oracle(t)) < 1e-9
        assert abs(half_normal_cdf(1.0) - 0.682689) < 1e-6

    def test_saturates(self):
        assert abs(half_normal_cdf(8.0) - 1.0) < 1e-7
        assert half_normal_cdf(np.inf) == 1.0

    def test_monotone_and_vectorized(self):
        t = np.linspace(0, 5, 101)
        v = half_normal_cdf(t)
        assert np.all(np.diff(v) >= 0)
        assert v.shape == t.shape

    def test_downward_steps_stay_within_the_threshold_margin(self):
        # the float map steps down between some consecutive doubles; the
        # signature 1 thresholds rely on no value falling below an earlier
        # one by more than a third of their margin, _MARGIN_ULPS ulps of
        # the value. Scan windows of consecutive doubles around every
        # default-band crossing at N = 8, 200 and 999 and on a grid over
        # [0, 8.5], 1.7 million doubles in all
        starts = [np.linspace(0.0, 8.5, 1000).view(np.int64)]
        for N in (8, 200, 999):
            b = compute_bounds(N, SigtestConfig())
            levels = np.concatenate([b.lower[b.lower > 0.0], b.upper[b.upper < 1.0]])
            crossings = np.sqrt(2.0) * erfinv(levels)
            starts.append(crossings.view(np.int64) - 256)  # 256 doubles below
        x = (np.concatenate(starts)[:, None] + np.arange(513)).view(np.float64)
        assert x.size >= 10**6 and x.min() == 0.0 and x.max() > 8.5
        f = _half_normal_cdf(x)
        highest = np.maximum.accumulate(f, axis=1)
        falls = highest - f  # against any earlier value of the window
        assert (np.diff(f, axis=1) < 0).any()  # the map is not monotone
        assert (falls <= _MARGIN_ULPS / 3 * np.spacing(highest)).all()
        assert falls.max() <= 1e-15 / 3  # 3.3e-16: 3 ulps of a value in [0.5, 1)
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeInputError):
            half_normal_cdf(-0.1)
        with pytest.raises(NegativeInputError):
            half_normal_cdf(np.array([0.5, -1.0]))
        # NaN is no nonnegative value either: refused, not mapped to NaN
        for t in (np.nan, [np.nan], [0.5, np.nan]):
            with pytest.raises(NegativeInputError):
                half_normal_cdf(t)


class TestOrderStatMoments:
    # signature 1's band moments are the uniform order-statistic moments
    @staticmethod
    def moments(n, N):
        p, var = signature_moments(N, SignatureVariant.SIGNATURE1)
        return p[n - 1], var[n - 1]

    def test_single_sample(self):
        p, var = self.moments(1, 1)
        assert p == 0.5 and var == 0.25

    def test_hand_cases(self):
        p, var = self.moments(50, 99)
        assert abs(p - 0.5) < 1e-15
        assert abs(var - 0.0025252525) < 1e-9
        p, var = self.moments(99, 99)
        assert abs(p - 0.99) < 1e-15
        assert abs(var - 0.0001) < 1e-12

    def test_var_bound_symmetry_and_peak(self):
        N = 37
        _, vs = signature_moments(N, SignatureVariant.SIGNATURE1)
        assert vs.max() <= 1.0 / (4 * N) + 1e-15
        # symmetric under n <-> N+1-n up to rounding: p(1-p) of 1-p is
        # not bit-equal to that of p (max relative difference 1.1e-15)
        for n in range(1, N + 1):
            assert vs[n - 1] == pytest.approx(vs[N - n], rel=10 * np.finfo(float).eps, abs=0)
        assert np.argmax(vs) + 1 in ((N + 1) // 2, (N + 2) // 2)


def test_uniform_order_statistic_calibration():
    # CDF-transformed sorted absolute normals behave like uniform order
    # statistics: across 200 seeded runs the per-index mean stays within
    # 4*sqrt(var) of n/(N+1) for at least 99% of indices.
    N, runs = 1000, 200
    acc = np.zeros(N)
    for r in range(runs):
        y = np.random.default_rng([11, r]).normal(size=N)
        acc += half_normal_cdf(sorted_abs(normalize(y)))
    mean = acc / runs
    n = np.arange(1, N + 1)
    p = n / (N + 1.0)
    tol = 4.0 * np.sqrt(p * (1 - p) / N)
    assert np.mean(np.abs(mean - p) <= tol) >= 0.99


class TestRows:
    def test_finiteness_mask_is_one_block(self):
        # 8 rows of 70000 values are 8 blocks of one row: the finiteness
        # check holds one row's bool mask, not the batch's 560 kB one
        Y = np.random.default_rng(43).normal(size=(8, 70_000))
        assert _block_rows(Y.shape[1]) == 1
        tracemalloc.start()
        try:
            assert _test_rows(Y, 8, "signature test") is Y
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * Y.shape[1]
