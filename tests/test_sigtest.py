import warnings

import numpy as np
import pytest

from sigcluster import (
    SignatureVariant,
    SigtestConfig,
    compute_bounds,
    compute_signature,
    count_violations,
    normalize,
    signature_moments,
    sigtest,
    sorted_abs,
)
from sigcluster.errors import (
    DegenerateInputError,
    LengthMismatchError,
    TooFewSamplesError,
)
from sigcluster.sigtest import MIN_SAMPLES

SIG1 = SignatureVariant.SIGNATURE1
SIG2 = SignatureVariant.SIGNATURE2


def two_clusters(sep, n=100, seed=0):
    rng = np.random.default_rng([101, int(sep * 100), seed])
    return np.concatenate([rng.normal(-sep / 2, 1, n), rng.normal(sep / 2, 1, n)])


class TestConfig:
    def test_defaults(self):
        cfg = SigtestConfig()
        assert cfg.gamma == 2.0 and cfg.threshold == 0.4
        assert cfg.variant is SIG1 and MIN_SAMPLES == 8
        assert sigtest(np.arange(float(MIN_SAMPLES)), cfg).N == MIN_SAMPLES

    def test_validation(self):
        with pytest.raises(ValueError):
            SigtestConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SigtestConfig(threshold=1.5)
        with pytest.raises(TypeError):  # the minimum is fixed, not a knob
            SigtestConfig(min_samples=4)


class TestComputeSignature:
    def test_zeros_map_to_zero(self):
        s = compute_signature(np.zeros(3), SIG1)
        np.testing.assert_array_equal(s, [0.0, 0.0, 0.0])

    def test_sig2_of_constant_sequence(self):
        # cumulative mean of a constant signature is the same constant
        z = np.full(5, 1.234)
        s1 = compute_signature(z, SIG1)
        s2 = compute_signature(z, SIG2)
        np.testing.assert_allclose(s2, s1, atol=1e-15)

    def test_sig2_is_cumulative_mean_of_sig1(self):
        z = sorted_abs(normalize(np.random.default_rng(8).normal(size=64)))
        s1 = compute_signature(z, SIG1)
        s2 = compute_signature(z, SIG2)
        np.testing.assert_allclose(
            s2, np.cumsum(s1) / np.arange(1, 65), atol=1e-15)

    def test_values_in_unit_interval_and_monotone(self):
        for variant in (SIG1, SIG2):
            for seed in range(5):
                z = sorted_abs(normalize(
                    np.random.default_rng([9, seed]).normal(size=100)))
                v = compute_signature(z, variant)
                assert np.all(v >= 0) and np.all(v <= 1)
                assert np.all(np.diff(v) >= -1e-15)

    def test_tracks_expected_levels(self):
        # signature of 1000 standard-normal draws stays near n/(N+1)
        N = 1000
        z = sorted_abs(normalize(np.random.default_rng(10).normal(size=N)))
        s = compute_signature(z, SIG1)
        p = np.arange(1, N + 1) / (N + 1.0)
        assert np.mean(np.abs(s - p)) < 0.03


class TestComputeBounds:
    def test_hand_case_center_halfwidth(self):
        b = compute_bounds(100, SigtestConfig())
        n = 50
        center = n / 101.0
        assert abs(center - 0.49505) < 1e-5
        halfwidth = (b.upper[n - 1] - b.lower[n - 1]) / 2.0
        assert abs(halfwidth - 0.09999) < 1e-4
        assert abs((b.upper[n - 1] + b.lower[n - 1]) / 2.0 - center) < 1e-12

    def test_clamping_at_ends(self):
        # N=8 with gamma=2: both ends exceed [0,1] before clamping
        b = compute_bounds(8, SigtestConfig())
        assert b.lower[0] == 0.0
        assert b.upper[-1] == 1.0
        assert np.all(b.upper <= 1.0) and np.all(b.lower >= 0.0)
        assert np.all(b.upper >= b.lower)

    def test_symmetry_before_clamping(self):
        # away from the clamp region U - center == center - L exactly
        N = 200
        cfg = SigtestConfig()
        b = compute_bounds(N, cfg)
        center, var = signature_moments(N, cfg.variant)
        interior = (b.upper < 1.0) & (b.lower > 0.0)
        assert interior.any()
        np.testing.assert_allclose(
            (b.upper - center)[interior], (center - b.lower)[interior],
            atol=1e-15)
        np.testing.assert_allclose(
            (b.upper - b.lower)[interior], 2 * cfg.gamma * np.sqrt(var)[interior],
            atol=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            compute_bounds(7, SigtestConfig())

    def test_sig2_band_tighter_in_upper_range(self):
        # the cumulative-mean signature has smaller variance at large n
        _, v1 = signature_moments(300, SIG1)
        _, v2 = signature_moments(300, SIG2)
        assert v2[-1] < v1[150] and v2[-1] < 1.0 / (4 * 300)

    def test_sig2_moments_against_monte_carlo(self):
        # empirical mean/var of the cumulative-mean signature under H0
        N, runs = 60, 4000
        acc = np.zeros(N)
        acc2 = np.zeros(N)
        for r in range(runs):
            u = np.sort(np.random.default_rng([13, r]).uniform(size=N))
            s2 = np.cumsum(u) / np.arange(1, N + 1)
            acc += s2
            acc2 += s2 * s2
        mean = acc / runs
        var = acc2 / runs - mean**2
        center, v2 = signature_moments(N, SIG2)
        np.testing.assert_allclose(mean, center, atol=4.0 * np.sqrt(v2.max() / runs) + 1e-3)
        np.testing.assert_allclose(var, v2, rtol=0.15, atol=1e-5)


class TestCountViolations:
    def test_center_is_clean(self):
        cfg = SigtestConfig()
        b = compute_bounds(50, cfg)
        center, _ = signature_moments(50, cfg.variant)
        C, flags = count_violations(center, b)
        assert C == 0.0 and not flags.any()

    def test_everywhere_above(self):
        b = compute_bounds(50, SigtestConfig())
        interior = (b.upper < 1.0)
        sig = np.where(interior, np.minimum(b.upper + 0.01, 1.0), 2.0)
        C, flags = count_violations(sig, b)
        assert C == 1.0

    def test_exact_fraction(self):
        cfg = SigtestConfig()
        b = compute_bounds(8, cfg)
        center, _ = signature_moments(8, cfg.variant)
        sig = center.copy()
        sig[2] = b.upper[2] + 0.005  # strictly outside
        sig[5] = b.lower[5] - 0.005
        C, flags = count_violations(sig, b)
        assert C == 2.0 / 8.0
        assert flags.sum() == 2

    def test_boundary_contact_is_not_violation(self):
        b = compute_bounds(20, SigtestConfig())
        C, _ = count_violations(b.upper.copy(), b)
        assert C == 0.0
        C, _ = count_violations(b.lower.copy(), b)
        assert C == 0.0

    def test_length_mismatch(self):
        b = compute_bounds(20, SigtestConfig())
        with pytest.raises(LengthMismatchError):
            count_violations(np.zeros(10), b)


class TestSigtest:
    def test_single_gaussian_typically_clean(self):
        # H0 regime: C == 0 in most runs, split never in these seeds
        c_zero = 0
        for r in range(200):
            y = np.random.default_rng([14, r]).normal(size=200)
            out = sigtest(y)
            assert not out.split
            c_zero += out.C == 0.0
        assert c_zero >= 100

    def test_two_cluster_regimes_reach_reported_C_levels(self):
        # at 2 sigma the strongest runs reach C ~ 0.95; at 3 sigma C ~ 0.99
        cs2 = [sigtest(two_clusters(2.0, seed=r), SigtestConfig()).C
               for r in range(100)]
        cs3 = [sigtest(two_clusters(3.0, seed=r)).C for r in range(100)]
        assert max(cs2) >= 0.5
        assert max(cs3) >= 0.6
        assert np.mean(cs3) > np.mean(cs2)

    def test_split_flag_matches_threshold(self):
        for r in range(50):
            y = two_clusters(2.5, seed=r)
            out = sigtest(y)
            assert out.split == (out.C > 0.4)
            assert 0.0 <= out.C <= 1.0
            assert out.N == len(y)
            assert abs(out.C - out.violations.mean()) < 1e-15

    def test_constant_vector(self):
        with pytest.raises(DegenerateInputError):
            sigtest(np.full(50, 3.3))

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            sigtest(np.arange(7.0))

    def test_overflow_is_typed_error(self):
        # finite values whose squared deviations overflow: no verdict,
        # and no numpy warning on the way to the typed error
        y = np.random.default_rng(3).normal(size=200) * 1e160
        for variant in (SIG1, SIG2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateInputError, match="overflow"):
                    sigtest(y, SigtestConfig(variant=variant))

    def test_affine_and_permutation_invariance(self):
        rng = np.random.default_rng(15)
        y = two_clusters(2.2, seed=9)
        base = sigtest(y)
        for a, b in [(2.0, 0.0), (0.5, 0.0), (-1.0, 0.0), (3.7, -11.1), (-0.02, 4.0)]:
            out = sigtest(a * y + b)
            assert out.C == base.C
            assert out.split == base.split
        perm = rng.permutation(len(y))
        out = sigtest(y[perm])
        assert out.C == base.C and out.split == base.split
        np.testing.assert_array_equal(out.violations, base.violations)

    def test_band_coverage_median_C(self):
        # standard normal, N=1000: per-run violation fraction is small
        cs = []
        for r in range(500):
            y = np.random.default_rng([16, r]).normal(size=1000)
            cs.append(sigtest(y).C)
        assert np.median(cs) <= 0.05

    def test_monotone_discrimination(self):
        means = []
        for sep in (2.0, 2.5, 3.0):
            cs = [sigtest(two_clusters(sep, seed=r)).C for r in range(100)]
            means.append(np.mean(cs))
        assert means[0] <= means[1] <= means[2]

    def test_signature2_variation_contraction(self):
        # total variation of the cumulative-mean signature never exceeds
        # the total variation of the raw signature
        for r in range(30):
            y = np.random.default_rng([17, r]).normal(size=120)
            z = sorted_abs(normalize(y))
            s1 = compute_signature(z, SIG1)
            s2 = compute_signature(z, SIG2)
            tv1 = np.abs(np.diff(s1)).sum()
            tv2 = np.abs(np.diff(s2)).sum()
            assert tv2 <= tv1 + 1e-12

    def test_variant2_runs_and_calibrates(self):
        cfg = SigtestConfig(variant=SIG2)
        splits = sum(
            sigtest(np.random.default_rng([18, r]).normal(size=200), cfg).split
            for r in range(100)
        )
        assert splits <= 10

    def test_equals_composed_pipeline_exactly(self):
        # sigtest runs the stage helpers with a cached band; its outputs
        # must match composing the public stage functions bit for bit
        for variant in (SIG1, SIG2):
            cfg = SigtestConfig(variant=variant)
            for r in range(20):
                rng = np.random.default_rng([19, variant.value, r])
                n = int(rng.integers(8, 400))
                y = rng.normal(size=n) * rng.uniform(0.1, 5) + rng.normal()
                fast = sigtest(y, cfg)
                z = sorted_abs(normalize(y))
                sig = compute_signature(z, variant)
                C, flags = count_violations(sig, compute_bounds(n, cfg))
                assert fast.C == C
                np.testing.assert_array_equal(fast.violations, flags)
                assert fast.split == (C > cfg.threshold)
