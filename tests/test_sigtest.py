import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

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
    NonFiniteInputError,
    TooFewSamplesError,
)
from sigcluster.core import _block_rows, _half_normal_cdf, _normalized_rows, _sorted_abs
from sigcluster.sigtest import (
    _WINDOW_CAP,
    MIN_SAMPLES,
    _Band,
    _frozen_bounds,
    _margin,
    _signature_rows,
    _sigtest_rows,
)

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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_refused(self, gamma):
        # a NaN or infinite band used to flag no index: C = 0 on any sample
        with pytest.raises(ValueError, match="gamma must be positive"):
            SigtestConfig(gamma=gamma)


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
        with pytest.raises(TooFewSamplesError, match="signature test needs N >= 8, got 7"):
            sigtest(np.arange(7.0))

    def test_column_and_row_vectors_are_samples(self):
        y = two_clusters(2.5, seed=3)
        base = sigtest(y)
        for shaped in (y[:, None], y[None, :]):
            out = sigtest(shaped)
            assert out.C == base.C and out.split == base.split and out.N == base.N
            np.testing.assert_array_equal(out.violations, base.violations)

    @pytest.mark.parametrize("bad, error, match", [
        (np.float64(3.0), ValueError, r"expected a 1-d sample, got shape \(\)"),
        (np.zeros((2, 3)), ValueError, r"expected a 1-d sample, got shape \(2, 3\)"),
        (np.array([]), DegenerateInputError, "empty sample"),
        (np.zeros((0, 1)), DegenerateInputError, "empty sample"),
        (np.zeros((1, 0)), DegenerateInputError, "empty sample"),
    ])
    def test_shape_and_empty_refused(self, bad, error, match):
        with pytest.raises(error, match=match):
            sigtest(bad)

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
        # the rows form, whose second batch at an N decides signature 1 on
        # |z| thresholds: every row as composing the stages on that row
        for variant in (SIG1, SIG2):
            for gamma in (1.0, 2.0, 3.0):
                cfg = SigtestConfig(gamma=gamma, variant=variant)
                for r in range(4):
                    rng = np.random.default_rng([19, variant.value, int(gamma), r])
                    n = int(rng.integers(8, 1200))
                    Y = rng.normal(size=(int(rng.integers(1, 30)), n)) * rng.uniform(0.1, 5)
                    Y[:, : n // 3] += rng.uniform(0, 4)
                    for _ in range(2):
                        C, split = _sigtest_rows(Y, cfg)
                        for y, c, s in zip(Y, C, split):
                            want, _ = count_violations(
                                compute_signature(sorted_abs(normalize(y)), variant),
                                compute_bounds(n, cfg))
                            assert c == want and s == (want > cfg.threshold)
                    built = _frozen_bounds(n, gamma, variant).thresholds is not None
                    assert built == (variant is SIG1)


def _erf_flags(Y, gamma):
    """Signature 1 flags of each row of Y by the erf map and band compare."""
    s = _half_normal_cdf(_sorted_abs(_normalized_rows(Y)[0]))
    b = compute_bounds(Y.shape[1], SigtestConfig(gamma=gamma))
    return (s < b.lower) | (s > b.upper)


def _batch(N, rows, seed, kind, constant):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        Y = rng.normal(size=(rows, N)) * rng.uniform(0.1, 10.0) + rng.normal()
    elif kind == "mixture":  # a shifted share of each row
        Y = rng.normal(size=(rows, N))
        Y += rng.uniform(0.0, 6.0, (rows, 1)) * (rng.random((rows, N)) < rng.uniform(0.1, 0.9))
    elif kind == "rounded":
        Y = np.round(rng.normal(size=(rows, N)) * rng.uniform(0.5, 8.0))
    else:
        Y = rng.uniform(size=(rows, N))
    if constant is not None:
        Y[constant % rows] = 1.5
    return Y


@settings(max_examples=60, deadline=None)
@given(N=st.integers(MIN_SAMPLES, 3000), rows=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gaussian", "mixture", "rounded", "uniform"]),
       constant=st.none() | st.integers(0, 19), gamma=st.sampled_from([1.0, 2.0, 3.0]))
def test_rows_decide_as_the_erf_path(N, rows, seed, kind, constant, gamma):
    # the first batch at an N maps through erf, later ones decide on |z|
    # thresholds; C, split and the flags come out the same either way
    Y = _batch(N, rows, seed, kind, constant)
    cfg = SigtestConfig(gamma=gamma)
    flags = _erf_flags(Y, gamma)
    ok = _normalized_rows(Y)[1]
    C = np.where(ok, np.add.reduce(flags, axis=1, dtype=np.intp) / N, np.nan)
    for _ in range(2):
        got_C, got_split = _sigtest_rows(Y, cfg)
        np.testing.assert_array_equal(got_C, C)
        np.testing.assert_array_equal(got_split, C > cfg.threshold)
    band = _frozen_bounds(N, gamma, SIG1)
    assert band.thresholds is not None
    # the kernel's flags, decided by the band on its thresholds, and on
    # the erf map that sigtest's call (no band) takes
    np.testing.assert_array_equal(_signature_rows(Y, cfg, band)[1], flags)
    np.testing.assert_array_equal(_signature_rows(Y, cfg)[1], flags)
    for y, c in zip(Y[ok], C[ok]):
        assert sigtest(y, cfg).C == c


def _doubles(lo, hi):
    """Every double from lo to hi, both nonnegative."""
    return np.arange(np.float64(lo).view(np.int64), np.float64(hi).view(np.int64) + 1).view(np.float64)


def _search_window(level):
    """The doubles _crossings searches for one level: from its seed a to
    its seed b if that is at most _WINDOW_CAP doubles, else (too wide, or
    a seed off [0, inf)) the _WINDOW_CAP doubles centred on the crossing."""
    level = np.float64(level)
    m = 1.5 * _margin(level)
    a, b = np.sqrt(2.0) * erfinv(level - m), np.sqrt(2.0) * erfinv(level + m)
    if 0.0 < a and b < np.inf and b.view(np.int64) - a.view(np.int64) < _WINDOW_CAP:
        return _doubles(a, b)
    centre = np.sqrt(2.0) * erfinv(level)
    step = _WINDOW_CAP // 2
    return (centre.view(np.int64) + np.arange(-step, step + 1)).view(np.float64)


@pytest.mark.parametrize("N", [8, 9, 50, 199, 200, 399, 999, 2000])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
def test_thresholds_decide_the_doubles_at_the_band_as_erf(N, gamma):
    # rows no random batch draws: each threshold and the 3 doubles on
    # either side of it, and every double each exception column's windows
    # search. Where the float map is not monotone at a threshold (it flips
    # back within 2 doubles at 8 of the 394 default-band crossings at
    # N = 200), a plain first-crossing threshold gets some of these wrong
    band = _Band(compute_bounds(N, SigtestConfig(gamma=gamma)))
    for _ in range(2):  # the second batch builds the thresholds
        band.count_batch()
    lo, hi, exceptions, _, _ = band.thresholds

    def check(X):
        f = _half_normal_cdf(X)
        want = (f < band.lower) | (f > band.upper)
        np.testing.assert_array_equal(band.flags(X), want)
        return want

    lo_bits = lo.view(np.int64)
    hi_bits = np.where(np.isfinite(hi), hi, 8.5).view(np.int64)
    near = np.arange(-3, 4)[:, None]
    check(np.vstack([np.maximum(near + lo_bits, 0).view(np.float64),
                     (near + hi_bits).view(np.float64)]))
    # the levels the threshold build searches: f > U, and f > the double below L
    windows = {e: np.concatenate([_search_window(level)
                                  for level in (np.nextafter(band.lower[e], 0.0), band.upper[e])
                                  if 0.0 < level < 1.0])
               for e in exceptions}
    depth = max((len(w) for w in windows.values()), default=0)
    flagged = np.zeros(len(exceptions), dtype=np.intp)
    for start in range(0, depth, 256):  # 256 rows at a time
        X = np.tile(lo, (min(256, depth - start), 1))
        for e, w in windows.items():
            part = w[start:start + len(X)]
            X[:len(part), e] = part
        flagged += check(X)[:, exceptions].sum(axis=0)
    # the exception windows hold doubles on both sides of their bounds
    assert (flagged > 0).all() and (flagged < depth).all()


def test_threshold_build_bounds_memory():
    # the 19992 levels of the default band at N = 9999: each block of
    # windows is one array of about 2^16 doubles, mapped in place and
    # compared with one level per row of 8 doubles, beside about five
    # arrays of one value per level; measured 2.03 MB (2.37 MB with each
    # level's margin and window width kept through the blocks, 2.61 MB
    # with every double's offset and level repeated beside the mapped
    # values)
    band = _frozen_bounds(9999, 2.0, SIG1)
    band._build()
    tracemalloc.start()
    try:
        band._build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.12e6, f"peak {peak / 1e6:.2f} MB"


def test_single_samples_never_build_thresholds():
    # sigtest and the stage functions keep the erf map: a first call at a
    # new N costs what it did, and gmeans+ (a new N at almost every
    # cluster) never pays for a threshold build
    y = np.random.default_rng(23).normal(size=1237)
    for _ in range(3):
        sigtest(y)
    assert _frozen_bounds(1237, 2.0, SIG1).thresholds is None


@pytest.mark.parametrize("rows, N", [(400, 399), (100, 999)])
@pytest.mark.parametrize("variant", [SIG1, SIG2])
def test_row_blocks_decide_as_one_row_sigtest(rows, N, variant):
    # a batch of several row blocks, with a constant row and a row whose
    # squared deviations overflow on either side of a block boundary:
    # every row gives the C and split of sigtest on that row, in the
    # first batch at N (erf) and the second (thresholds under signature 1)
    block = _block_rows(N)
    assert rows > block  # three blocks at 399, two at 999
    rng = np.random.default_rng([31, rows, N, variant.value])
    Y = rng.normal(size=(rows, N)) * rng.uniform(0.1, 5.0, (rows, 1))
    Y[::3, : N // 3] += rng.uniform(0.0, 6.0, (len(Y[::3]), 1))
    Y[block - 1] = 2.5
    Y[block] = rng.normal(size=N) * 1e200
    cfg = SigtestConfig(variant=variant)
    _frozen_bounds.cache_clear()
    for _ in range(2):
        C, split = _sigtest_rows(Y, cfg)
        for i, y in enumerate(Y):
            if i in (block - 1, block):
                with pytest.raises(DegenerateInputError):
                    sigtest(y, cfg)
                assert np.isnan(C[i]) and not split[i]
                continue
            want = sigtest(y, cfg)
            assert C[i] == want.C and split[i] == want.split
    assert (_frozen_bounds(N, 2.0, variant).thresholds is not None) == (variant is SIG1)


def test_row_blocks_build_thresholds_at_the_second_batch(monkeypatch):
    # one call of several blocks is one batch: the first builds nothing,
    # the second builds the thresholds once, before its first block
    module = importlib.import_module("sigcluster.sigtest")
    builds = []
    build = module._Band._build
    monkeypatch.setattr(module._Band, "_build", lambda band: builds.append(band) or build(band))
    N = 577
    Y = np.random.default_rng(37).normal(size=(3 * _block_rows(N) + 5, N))
    _frozen_bounds.cache_clear()
    first = _sigtest_rows(Y, SigtestConfig())
    assert builds == [] and _frozen_bounds(N, 2.0, SIG1).thresholds is None
    for _ in range(2):
        np.testing.assert_array_equal(_sigtest_rows(Y, SigtestConfig())[0], first[0])
    assert builds == [_frozen_bounds(N, 2.0, SIG1)]


def test_non_finite_last_block_refused_before_the_batch_counts(monkeypatch):
    # a NaN in the last row block is refused before the band is looked up
    # or any block is normalized, so the refused call is no batch
    module = importlib.import_module("sigcluster.sigtest")
    normalized = []
    monkeypatch.setattr(module, "_normalized_rows",
                        lambda Y: normalized.append(len(Y)) or _normalized_rows(Y))
    N = 200
    Y = np.random.default_rng(41).normal(size=(2 * _block_rows(N) + 5, N))
    Y[-1, N // 2] = np.nan
    _frozen_bounds.cache_clear()
    _sigtest_rows(Y[:-1], SigtestConfig())
    band = _frozen_bounds(N, 2.0, SIG1)
    assert band.batches == 1 and len(normalized) == 3
    with pytest.raises(NonFiniteInputError):
        _sigtest_rows(Y, SigtestConfig())
    assert band.batches == 1 and band.thresholds is None and len(normalized) == 3


def test_no_rows_are_no_batch():
    # an array of no rows returns before the band is looked up: two empty
    # calls at an N neither cache its band nor build its thresholds
    _frozen_bounds.cache_clear()
    for _ in range(2):
        C, split = _sigtest_rows(np.empty((0, 200)), SigtestConfig())
        assert C.shape == split.shape == (0,) and split.dtype == bool
    assert _frozen_bounds.cache_info().currsize == 0
