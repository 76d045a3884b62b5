import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import log_ndtr, ndtr
from scipy.stats import anderson, norm

from sigcluster import (
    AD_CRITICAL_VALUES,
    Dataset,
    DipViewerCriterion,
    anderson_darling,
    anderson_darling_statistic,
    bundled_manifest,
    dip_reference_dips,
    dip_reference_table,
    dip_statistic,
    dip_test,
    dipmeans_family,
    ks_lilliefors,
    ks_statistic,
    lilliefors_reference,
    lilliefors_table,
    load_csv,
    sigtest,
)
from sigcluster import baselines
from sigcluster.baselines import DIP_ALPHA, _dip, _dip_rows, _lilliefors_critical
from sigcluster.clustering import _viewer_distances
from sigcluster.data_io import _bundled_grid
from sigcluster.errors import DegenerateInputError, NonFiniteInputError, TooFewSamplesError


def two_clusters(sep, n=100, seed=0):
    rng = np.random.default_rng([55, int(sep * 100), seed])
    return np.concatenate([rng.normal(-sep / 2, 1, n), rng.normal(sep / 2, 1, n)])


# ---------------------------------------------------------------- oracles

# sizes and kinds on which AD and KS are held bit-equal to a formula; 70000
# is past core._BLOCK_VALUES, where the sum of squares is formed in blocks
EXACT_SIZES = [8, 9, 37, 200, 999, 3000, 70000]
EXACT_KINDS = ["normal", "heavy", "tied", "shifted"]


def _exact_sample(N, kind):
    rng = np.random.default_rng([57, N, len(kind)])
    return {"normal": lambda: rng.normal(size=N),
            "heavy": lambda: rng.standard_t(2, size=N),
            "tied": lambda: np.round(rng.normal(size=N), 1),
            "shifted": lambda: rng.normal(size=N) * 1e-3 + 1e3}[kind]()


def ad_statistic_oracle(y):
    """Corrected A*^2 from the textbook formula, written independently."""
    x = np.sort(np.asarray(y, float))
    N = len(x)
    w = (x - x.mean()) / x.std(ddof=1)
    i = np.arange(1, N + 1)
    a2 = -N - np.sum((2 * i - 1) * (log_ndtr(w) + log_ndtr(-w[::-1]))) / N
    return a2 * (1 + 0.75 / N + 2.25 / N**2)


def ks_statistic_oracle(y):
    """Exhaustive sup over the 2N candidate points of |ECDF - fitted CDF|."""
    x = np.sort(np.asarray(y, float))
    N = len(x)
    F = norm.cdf(x, loc=x.mean(), scale=x.std(ddof=1))
    best = 0.0
    for i in range(N):
        best = max(best, abs(i / N - F[i]), abs((i + 1) / N - F[i]))
    return best


def dip_lp_oracle(y):
    """Minimax unimodal-CDF fit to the ECDF as one LP per mode slot.

    A unimodal CDF is convex left of its mode and concave right of it;
    restricted to piecewise-linear fits with knots at the data (plus a
    possible spike inside one gap) this is exactly a set of linear
    constraints on the knot values, so the smallest achievable sup
    distance is the optimum over a handful of small LPs.
    """
    x = np.sort(np.asarray(y, float))
    n = len(x)
    knots, counts = np.unique(x, return_counts=True)
    K = len(knots)
    R = np.cumsum(counts) / n
    L = R - counts / n
    if K == 1:
        return 0.0
    dx = np.diff(knots)
    nseg = K - 1

    def solve(slope_pairs, chord_ge=None):
        A_ub, b_ub = [], []

        def srow(i, coef):
            row = np.zeros(K + 1)
            row[i] -= coef / dx[i]
            row[i + 1] += coef / dx[i]
            return row

        for i, j in slope_pairs:  # s_i <= s_j
            A_ub.append(srow(i, 1.0) - srow(j, 1.0))
            b_ub.append(0.0)
        for gj, si in chord_ge or []:  # s_si <= chord over gap gj
            A_ub.append(srow(si, 1.0) - srow(gj, 1.0))
            b_ub.append(0.0)
        for i in range(K):  # |g_i - L_i| <= eps and |g_i - R_i| <= eps
            row = np.zeros(K + 1)
            row[i] = 1.0
            row[-1] = -1.0
            A_ub.append(row.copy())
            b_ub.append(L[i])
            row = np.zeros(K + 1)
            row[i] = -1.0
            row[-1] = -1.0
            A_ub.append(row)
            b_ub.append(-R[i])
        for i in range(K - 1):  # monotone
            row = np.zeros(K + 1)
            row[i] = 1.0
            row[i + 1] = -1.0
            A_ub.append(row)
            b_ub.append(0.0)
        c = np.zeros(K + 1)
        c[-1] = 1.0
        res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                      bounds=[(0.0, 1.0)] * K + [(0.0, None)], method="highs")
        return res.fun if res.success else np.inf

    best = np.inf
    for j in range(K):  # mode at knot j
        pairs = [(i, i + 1) for i in range(j - 1)]
        pairs += [(i + 1, i) for i in range(j, nseg - 1)]
        best = min(best, solve(pairs))
    for j in range(nseg):  # mode strictly inside gap j (spike at either end)
        pairs = [(i, i + 1) for i in range(j - 1)]
        pairs += [(i + 1, i) for i in range(j + 1, nseg - 1)]
        best = min(best, solve(pairs, [(j, j + 1)] if j + 1 <= nseg - 1 else []))
        best = min(best, solve(pairs, [(j, j - 1)] if j - 1 >= 0 else []))
    return best


# ---------------------------------------------------------- Anderson-Darling

class TestAndersonDarling:
    def test_statistic_matches_formula_oracle(self):
        for seed in range(10):
            y = np.random.default_rng([56, seed]).normal(2.0, 3.0, size=150)
            assert anderson_darling_statistic(y) == pytest.approx(
                ad_statistic_oracle(y), rel=1e-10)

    @pytest.mark.parametrize("N", EXACT_SIZES)
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_statistic_equals_scipy_exactly(self, N, kind):
        # the closed form repeats scipy's arithmetic step for step, so the
        # statistic, and with it every verdict, is the same bit for bit
        y = _exact_sample(N, kind)
        expected = anderson(y, dist="norm", method="interpolate").statistic * (
            1 + 0.75 / N + 2.25 / N**2)
        assert anderson_darling_statistic(y) == expected
        assert anderson_darling(y).statistic == expected

    def test_exact_quantile_sequence_accepted(self):
        # the most normal-looking sample possible: N(0,1) quantiles
        y = norm.ppf(np.arange(1, 101) / 101.0)
        dec = anderson_darling(y)
        assert not dec.reject_unimodal
        assert dec.statistic == anderson_darling_statistic(y)
        assert dec.p_value is None

    def test_critical_table(self):
        y = two_clusters(2.5, seed=2)  # A*^2 = 0.84: rejected at 0.05, not at 0.025
        strict = anderson_darling(y, alpha=0.0001)
        loose = anderson_darling(y, alpha=0.05)
        assert strict.statistic == loose.statistic
        assert AD_CRITICAL_VALUES[0.0001] == 1.8692
        verdicts = {alpha: anderson_darling(y, alpha).reject_unimodal
                    for alpha in AD_CRITICAL_VALUES}
        assert verdicts == {alpha: strict.statistic > critical
                            for alpha, critical in AD_CRITICAL_VALUES.items()}
        assert set(verdicts.values()) == {True, False}
        with pytest.raises(ValueError, match="available"):
            anderson_darling(y, alpha=0.5)

    def test_no_future_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            anderson_darling(two_clusters(2.5))

    def test_strongly_bimodal_rejected(self):
        rejections = sum(
            anderson_darling(two_clusters(4.0, seed=r)).reject_unimodal
            for r in range(20))
        assert rejections == 20

    def test_shift_scale_invariance_exact(self):
        y = two_clusters(2.5, seed=3)
        base = anderson_darling(y)
        out = anderson_darling(2.0 * y)  # power-of-two scale is lossless
        assert out.statistic == base.statistic
        assert out.reject_unimodal == base.reject_unimodal

    def test_errors(self):
        with pytest.raises(TooFewSamplesError):
            anderson_darling(np.arange(7.0))
        with pytest.raises(DegenerateInputError):
            anderson_darling(np.full(20, 1.0))


# ------------------------------------------------------------- KS/Lilliefors

class TestKsLilliefors:
    def test_statistic_matches_bruteforce(self):
        for seed in range(10):
            y = np.random.default_rng([57, seed]).normal(size=60)
            assert ks_statistic(y) == pytest.approx(ks_statistic_oracle(y), abs=1e-12)

    @pytest.mark.parametrize("N", EXACT_SIZES)
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_statistic_equals_formula_exactly(self, N, kind):
        # the sorted sample's mean and ddof=1 std, as numpy forms them, then
        # the two step maxima: the statistic is the same bit for bit
        y = _exact_sample(N, kind)
        x = np.sort(y)
        F = ndtr((x - x.mean()) / x.std(ddof=1))
        i = np.arange(1, N + 1)
        expected = float(np.maximum((i / N - F).max(), (F - (i - 1) / N).max()))
        assert ks_statistic(y) == expected

    def test_three_point_hand_case(self):
        y = np.array([-1.0, 0.0, 1.0])
        # exhaustive evaluation over the 2N step corners
        assert ks_statistic(y) == pytest.approx(ks_statistic_oracle(y), abs=1e-15)
        assert ks_statistic(y) == pytest.approx(1 / 3 - norm.cdf(-1.0), abs=1e-12)

    def test_near_perfect_fit_accepted(self):
        # sample at mid-step normal quantiles: ECDF hugs the fitted CDF
        y = norm.ppf((np.arange(1, 201) - 0.5) / 200.0)
        dec = ks_lilliefors(y)
        assert dec.statistic < 0.012
        assert not dec.reject_unimodal

    def test_calibration_at_alpha_05(self):
        # rejection rate on true normal data: 5% +- 2 over 2000 runs
        rejections = sum(
            ks_lilliefors(np.random.default_rng([58, r]).normal(size=100)).reject_unimodal
            for r in range(2000))
        assert 0.03 <= rejections / 2000 <= 0.07

    def test_reference_reuse_matches_self_contained(self):
        # the default call reads the memoized table; a freshly drawn one is
        # the same bits and gives the same decision
        y = two_clusters(2.5, seed=5)
        a = ks_lilliefors(y)
        b = ks_lilliefors(y)
        ref = lilliefors_reference(len(y))
        assert np.array_equal(lilliefors_table(len(y)), ref)
        assert a == b
        assert a.statistic == ks_statistic(y)
        assert a.p_value == float(np.count_nonzero(ref >= a.statistic) / ref.size)
        assert a.reject_unimodal == (a.statistic > np.quantile(ref, 1.0 - 0.05))

    def test_shift_scale_invariance_exact(self):
        y = two_clusters(2.2, seed=1)
        base = ks_lilliefors(y)
        out = ks_lilliefors(0.5 * y)
        assert out.statistic == base.statistic
        assert out.reject_unimodal == base.reject_unimodal

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            ks_lilliefors(np.arange(7.0))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.05, float("nan")])
    def test_alpha_outside_unit_interval(self, alpha):
        # 1.5 once failed inside np.quantile, and 1.0 rejected every sample;
        # the refusal comes before the critical-value memo
        y = two_clusters(2.5, seed=5)
        memo = _lilliefors_critical.cache_info()
        with pytest.raises(ValueError, match=f"got {alpha!r}"):
            ks_lilliefors(y, alpha)
        assert _lilliefors_critical.cache_info() == memo

    @pytest.mark.parametrize("y", [np.full(200, 0.3), np.full(50, 7.7)])
    def test_constant_sample_is_degenerate(self, y):
        # the mean of 200 copies of 0.3 is not exactly 0.3, so the std is
        # rounding residue, not spread; it once scored D = 0.84, a split
        with pytest.raises(DegenerateInputError):
            ks_statistic(y)
        with pytest.raises(DegenerateInputError):
            ks_lilliefors(y)

    @pytest.mark.parametrize("N, digest", [
        (8, "cf07a7aea6d200fb8ced73f45ab75dc9bb710db351fbadd79029d878549080fd"),
        (200, "8c8c2a2d68caeed4559092f8f3d801ced3adba0106bc889a56e2dc055b5573b9"),
    ])
    def test_reference_bits_pinned(self, N, digest):
        # the seeded table every KS decision is calibrated against
        assert hashlib.sha256(lilliefors_reference(N).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N", [200, 1000])
    def test_reference_memory_bounded(self, N):
        # 10^4 x N draws reduced in blocks, not held at once (16 MB per
        # 10^4 x 200 array of float64)
        tracemalloc.start()
        try:
            lilliefors_reference(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


# ----------------------------------------------------------------------- dip

class TestDipStatistic:
    def test_equally_spaced_minimum(self):
        assert dip_statistic(np.array([0.0, 1.0, 2.0, 3.0])) == pytest.approx(0.125, abs=1e-15)

    def test_matches_lp_oracle_small_n(self):
        rng = np.random.default_rng(59)
        for N in (4, 5, 6, 7, 8):
            for trial in range(25):
                kind = trial % 3
                if kind == 0:
                    y = rng.uniform(size=N)
                elif kind == 1:
                    y = rng.normal(size=N)
                else:
                    y = np.concatenate([
                        rng.normal(-2, 0.3, N // 2),
                        rng.normal(2, 0.3, N - N // 2),
                    ])
                assert dip_statistic(y) == pytest.approx(dip_lp_oracle(y), abs=1e-12)

    def test_two_spike_near_quarter(self):
        y = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        d = dip_statistic(y)
        assert d == pytest.approx(dip_lp_oracle(y), abs=1e-12)
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            N = int(rng.integers(4, 200))
            y = rng.normal(size=N)
            assert dip_statistic(y) >= 1.0 / (2 * N) - 1e-15

    def test_shift_scale_invariance_exact(self):
        y = np.random.default_rng(61).normal(size=100)
        base = dip_statistic(y)
        assert dip_statistic(4.0 * y) == base  # exponent shift, lossless
        assert dip_statistic(y + 1024.0) == pytest.approx(base, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            dip_statistic(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("y", [np.full(200, 0.3), np.full(50, 7.7), np.zeros(4)])
    def test_constant_sample_is_degenerate(self, y):
        # once scored 1/(2N), p = 1: a silent "unimodal"
        with pytest.raises(DegenerateInputError, match="zero spread"):
            dip_statistic(y)
        with pytest.raises(DegenerateInputError, match="zero spread"):
            dip_test(y)

    def test_no_overflow_refusal(self):
        # the dip forms no moment, so a sample whose squared deviations
        # overflow (refused by AD, KS and sigtest) keeps its dip
        y = np.random.default_rng(3).normal(size=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dip_statistic(y * 2.0**531) == dip_statistic(y)  # lossless scale
            assert dip_statistic(y * 1e160) == pytest.approx(dip_statistic(y), rel=1e-12)

    def test_overflowing_range_refused(self):
        # once dip 1/(2N), p = 1, "unimodal", where the same sample at
        # +-1 has dip 0.25; the row kernel gives NaN
        y = np.concatenate([np.full(30, -1.7e308), np.full(30, 1.7e308)])
        assert dip_statistic(y / 1.7e308) == 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflows"):
                dip_statistic(y)
            with pytest.raises(DegenerateInputError, match="overflows"):
                dip_test(y)
            assert np.isnan(_dip_rows(np.vstack([y, y / 1.7e308]))).tolist() == [True, False]


def _dip_or_nan(y):
    try:
        return _dip(y)
    except DegenerateInputError:
        return np.nan


def _dip_batch(N, rows, seed, kind):
    """A batch of one of test_dip_rows_equal_dip's data kinds."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=(rows, N))
    if kind == "integer":
        return rng.integers(0, rng.integers(2, 2 * N), size=(rows, N)).astype(float)
    if kind == "rounded":
        return np.round(rng.normal(size=(rows, N)), int(rng.integers(0, 3)))
    if kind == "tied":
        return rng.choice(rng.normal(size=3), size=(rows, N))
    if kind == "gaussian":
        return rng.normal(size=(rows, N))
    return rng.normal(size=(rows, N)) + rng.choice([-1.0, 1.0], size=(rows, N)) * rng.uniform(1, 6)


# a row _dip refuses (constant, or a range that overflows) placed first,
# in the middle or last of a batch, or none: the kernel's first pass then
# runs over the accepted rows only, with a gap in its keys at each one
REFUSED_ROW = st.none() | st.tuples(st.sampled_from(["constant", "overflow"]),
                                    st.sampled_from(["first", "middle", "last"]))


def _refuse_row(Y, refused):
    """Y with one row made one _dip refuses, as REFUSED_ROW draws it."""
    if refused is not None:
        how, where = refused
        r = {"first": 0, "middle": len(Y) // 2, "last": -1}[where]
        if how == "constant":
            Y[r] = Y[r, 0]
        else:
            Y[r, :2] = 1.7e308, -1.7e308
    return Y


@settings(max_examples=150, deadline=None)
@given(N=st.integers(4, 300), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "integer", "rounded", "tied", "bimodal"]),
       refused=REFUSED_ROW)
def test_dip_rows_equal_dip(N, rows, seed, kind, refused):
    # the row-batched kernel is AS 217 bit for bit on every row
    Y = _refuse_row(_dip_batch(N, rows, seed, kind), refused)
    got = _dip_rows(Y)
    ref = np.array([_dip_or_nan(y) for y in Y])
    np.testing.assert_array_equal(got, ref)


@settings(max_examples=100, deadline=None)
@given(N=st.integers(4, 300), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "integer", "rounded", "tied", "bimodal"]),
       refused=REFUSED_ROW)
def test_dip_rows_settle_on_the_side_of_the_exact_dip(N, rows, seed, kind, refused):
    # with a critical dip a row may stop at the pass that decides it: its
    # dip is then at most the exact one and on the same side of the
    # critical dip, tried at every exact dip and both its float neighbours
    Y = _refuse_row(_dip_batch(N, rows, seed, kind), refused)
    exact = _dip_rows(Y)
    finite = exact[~np.isnan(exact)]
    for c in np.concatenate((np.nextafter(finite, -np.inf), finite, np.nextafter(finite, np.inf))):
        got = _dip_rows(Y, c)
        np.testing.assert_array_equal(got > c, exact > c)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(exact))
        assert (got[~np.isnan(got)] <= finite).all()


def test_dip_rows_settle_saves_passes(monkeypatch):
    # each AS 217 pass peels two hulls; a critical dip ends both a batch
    # of strongly bimodal rows (rejected) and one of uniform rows
    # (accepted) passes before their dips are final, in _dip_rows and in
    # the viewer criterion that passes the grid's critical dip; at the
    # largest N no coarse level screens, so only full-width passes count
    N = min(baselines._COARSE_LEVELS) * (baselines._COARSE_MIN_VALUES - 1)
    assert not baselines._coarse_ranks(N)
    critical = dip_reference_table(N, 100).max()
    viewer_critical = baselines._dip_null(N)[2]
    peels = []
    peel = baselines._peel
    monkeypatch.setattr(baselines, "_peel", lambda *a, **k: peels.append(1) or peel(*a, **k))

    def passes(run):
        peels.clear()
        run()
        return len(peels) // 2

    rng = np.random.default_rng(7)
    for Y in (rng.normal(size=(20, N)) + np.where(np.arange(N) % 2, 6.0, -6.0),
              rng.uniform(size=(20, N))):
        full = passes(lambda: _dip_rows(Y))
        settled = passes(lambda: _dip_rows(Y, critical))
        assert settled < full
        assert passes(lambda: DipViewerCriterion().test_rows(Y)) == \
            passes(lambda: _dip_rows(Y, viewer_critical))


# the smallest N whose rows _dip_rows screens on a coarse copy
FIRST_SCREENED = next(N for N in range(4, 10**4) if baselines._coarse_ranks(N))


def _few_atoms(N, rows, seed):
    """Rows of 2-4 tied values drawn with uneven weights."""
    rng = np.random.default_rng(seed)
    atoms = rng.integers(2, 5)
    return rng.choice(rng.normal(size=atoms), size=(rows, N), p=rng.dirichlet(np.ones(atoms) / 2))


def test_coarse_copies_lie_within_half_a_step_of_the_row():
    # the lemma the coarse levels rest on, in exact integers: at each
    # value t of a sorted row of N, the k of its copy's n' values and the
    # m of its own values at or below t satisfy |k/n' - m/N| <= 1/(2n'),
    # that is |2(k N - m n')| <= N, for every level and every N the rule
    # screens from the first up to 1300, on every kind of row
    assert FIRST_SCREENED == 197 and not baselines._coarse_ranks(FIRST_SCREENED - 1)
    kinds = ["uniform", "integer", "rounded", "tied", "bimodal", "gaussian"]
    worst = 0.0
    for N in range(FIRST_SCREENED, 1301):
        levels = baselines._coarse_ranks(N)
        assert [at.size for at in levels] == [
            -(-N // c) for c in baselines._COARSE_LEVELS
            if -(-N // c) >= baselines._COARSE_MIN_VALUES]
        X = np.sort(np.vstack([_dip_batch(N, 1, N * 7 + i, kind) for i, kind in enumerate(kinds)]
                              + [_few_atoms(N, 2, N)]), axis=1)
        for x in X:
            m = np.searchsorted(x, x, "right").astype(np.int64)
            for at in levels:
                n = at.size
                k = np.searchsorted(x[at], x, "right").astype(np.int64)
                gap = np.abs(2 * (k * N - m * n))
                assert (gap <= N).all(), (N, n, int(gap.max()))
                worst = max(worst, gap.max() / N)
    assert worst > 0.9  # the bound is reached, not only held


@settings(max_examples=25, deadline=None)
@given(N=st.integers(FIRST_SCREENED, 1300), rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "integer", "rounded", "tied", "bimodal", "gaussian"]),
       refused=REFUSED_ROW)
def test_dip_rows_coarse_levels_decide_as_the_full_kernel(N, rows, seed, kind, refused):
    # from the first N the copy-length rule screens, a row is first
    # decided on coarse copies of its order statistics: tried at every
    # exact dip, both its float neighbours and the dip +- 1/(2n') of each
    # level, where a level's bracket is tightest, it is decided on the
    # exact dip's side and reports a dip never above the exact one
    Y = _refuse_row(_dip_batch(N, rows, seed, kind), refused)
    exact = _dip_rows(Y)
    finite = exact[~np.isnan(exact)]
    tried = [np.nextafter(finite, -np.inf), finite, np.nextafter(finite, np.inf)]
    for at in baselines._coarse_ranks(N):
        tried += [finite - 1 / (2 * at.size), finite + 1 / (2 * at.size)]
    for c in np.concatenate(tried):
        got = _dip_rows(Y, c)
        np.testing.assert_array_equal(got > c, exact > c)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(exact))
        assert (got[~np.isnan(got)] <= finite).all()


def test_dip_rows_coarse_levels_save_full_rows(monkeypatch):
    # 100 sampled viewers' distance rows (N = 599) of a two-blob cluster
    # and of one Gaussian cluster in d = 8, at classic dip-means' critical
    # dip, counted by the width each kernel call sees: every bimodal row
    # is decided on its first coarse copy (75 values), 99 Gaussian rows
    # there and the other one on the second (150), so none reaches the
    # full-width kernel, which every row reached before the coarse levels
    N, d = 599, 8
    rng = np.random.default_rng(31)
    two_blobs = rng.normal(size=(N + 1, d)) + np.where(np.arange(N + 1) < 300, 0.0, 4.0)[:, None]
    one_blob = rng.normal(size=(N + 1, d))
    widths = []
    block = baselines._dip_block
    monkeypatch.setattr(baselines, "_dip_block",
                        lambda x, *a: widths.append(x.shape) or block(x, *a))

    def rows_by_width(members):
        widths.clear()
        DipViewerCriterion().test_rows(
            _viewer_distances(members, rng.choice(N + 1, size=100, replace=False)))
        counts = {}
        for rows, width in widths:
            counts[width] = counts.get(width, 0) + rows
        return counts

    assert rows_by_width(two_blobs) == {75: 100}
    assert rows_by_width(one_blob) == {75: 100, 150: 1}


def test_dip_rows_evenly_spaced_differs_in_last_bits():
    # the one known difference: on nearly collinear points the kernel's
    # hull peeling and _dip's hull stack compare different triples
    y = 0.1 * np.arange(999)
    assert _dip(y) == 5.005005005005574e-4
    assert _dip_rows(y[None])[0] == 5.005005005005712e-4


@pytest.mark.parametrize("N, digest", [
    (52, "2e9a7e83501e18d1670c9ddeadf241f38043510a0deeeaa4556f0edb5914ac24"),
    (200, "c72e94490f6af7f1599cdc4730cf4165311c7d31a98b4299418506773bf3c5db"),
])
def test_reference_dips_bits_pinned(N, digest):
    # the seeded table every dip decision is calibrated against
    assert hashlib.sha256(dip_reference_dips(N, 1000).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("critical, digest", [
    (False, "f2a78549b77a01e9f58d49d16b7f097738b14bf0b6c1c7476ca9c370d51c0896"),
    (True, "56d1db00bd15ee36ad12fde2d579aa92c9098279036ef71d34a1a1f202ee5184"),
])
def test_dip_rows_bits_pinned(critical, digest):
    # the viewer distances of iris's root cluster: each row's exact dip,
    # and with the grid's critical dip of classic dip-means its settled one
    X = load_csv(bundled_manifest("iris")).rows
    m = len(X)
    dist = np.sqrt(((X[:, None] - X) ** 2).sum(axis=2))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    assert hashlib.sha256(dist.tobytes()).hexdigest() == (
        "587c7a105e26361005f7eaa81d75f774a8c4275398dd601f1c8df031428bf5e7")
    dips = _dip_rows(dist, baselines._dip_null(m - 1)[2] if critical else None)
    assert hashlib.sha256(dips.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("N, B", [(4, 1000), (9, 1000), (52, 1000), (149, 1000), (200, 1000),
                                  (999, 100)])
def test_reference_dips_equal_scalar_loop(N, B):
    # the table runs the row kernel over stacked replicates; each one is
    # the dip of its own substream, as a loop of _dip draws it
    dips = np.array([_dip(np.random.default_rng([0, N, b]).uniform(size=N)) for b in range(B)])
    np.testing.assert_array_equal(dip_reference_dips(N, B), dips)


@pytest.mark.parametrize("test", [
    anderson_darling, anderson_darling_statistic, ks_lilliefors, ks_statistic])
def test_overflow_is_typed_error(test):
    # finite values whose squared deviations overflow: the error sigtest
    # raises, not a split verdict (once KS D = 0.5, AD A*^2 = 77.6), and
    # no numpy warning on the way to it
    y = np.random.default_rng(3).normal(size=200) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="overflow"):
            test(y)


class TestDipTest:
    def test_uniform_calibration(self):
        # at DIP_ALPHA = 0.001 it essentially never rejects a true uniform
        rejections = sum(
            dip_test(np.random.default_rng([62, r]).uniform(size=200)).reject_unimodal
            for r in range(100))
        assert rejections <= 5

    def test_strongly_bimodal_rejected(self):
        y = two_clusters(6.0, seed=2)
        dec = dip_test(y)
        assert dec.reject_unimodal
        assert dec.p_value == 0.0
        assert type(dec.p_value) is float  # as KS reports it, not np.float64

    def test_repeated_calls_read_one_grid(self):
        # the same sample gives the same decision, and its dip is
        # dip_statistic's; the grid file is read once in the process
        y = two_clusters(3.0, seed=4)[:60]
        a = dip_test(y)
        assert a == dip_test(y)
        assert a.statistic == dip_statistic(y)
        assert a == baselines._dip_decision(a.statistic, y.size)
        assert _bundled_grid("dip_grid") is _bundled_grid("dip_grid")

    @pytest.mark.parametrize("N", [50, 200, 599])
    def test_one_critical_dip_decides_both_paths(self, N):
        # dip_test and the rows path reject exactly above the one critical
        # dip, the grid's dip at DIP_ALPHA, which is also where the
        # p-value falls below DIP_ALPHA; tried on samples and at the
        # critical dip and both its float neighbours
        levels, dips, critical = baselines._dip_null(N)
        assert critical == dips[levels.index(DIP_ALPHA)]
        Y = np.vstack([*(two_clusters(sep, n=N // 2 + 1, seed=N)[:N]
                         for sep in (2.0, 3.0, 4.0, 6.0)),
                       np.random.default_rng([67, N]).uniform(size=N)])
        decisions = [dip_test(y) for y in Y]
        assert decisions[-2].reject_unimodal and not decisions[-1].reject_unimodal
        _, rejects = baselines._dip_test_rows(Y)
        for dec, reject in zip(decisions, rejects):
            assert dec.reject_unimodal == (dec.statistic > critical) == reject
            assert dec.reject_unimodal == (dec.p_value < DIP_ALPHA)
        for d, reject in ((np.nextafter(critical, 0), False), (critical, False),
                          (np.nextafter(critical, 1), True)):
            dec = baselines._dip_decision(d, N)
            assert dec.reject_unimodal == reject == (dec.p_value < DIP_ALPHA)
        assert baselines._dip_decision(critical, N).p_value == DIP_ALPHA

    def test_errors(self):
        with pytest.raises(TooFewSamplesError):
            dip_test(np.array([1.0, 2.0, 3.0]))


# ------------------------------------------------------- calibration tables

def test_decisions_match_fresh_tables():
    # KS decides against the memoized seeded table; by hand from a freshly
    # drawn (uncached) one every field comes out bit-identical. The dip
    # rejects above the calibration grid's critical dip at the same N
    for N in (8, 9, 50, 200, 999):
        y = two_clusters(2.5, n=N // 2, seed=N)
        if N % 2:
            y = np.append(y, 0.1)
        ref = lilliefors_reference(N)
        D = ks_statistic(y)
        for alpha in (0.05, 0.01):
            critical = float(np.quantile(ref, 1.0 - alpha))
            assert _lilliefors_critical(N, alpha) == critical
            dec = ks_lilliefors(y, alpha)
            assert dec.statistic == D
            assert dec.p_value == float((ref.size - np.searchsorted(ref, D, side="left")) / ref.size)
            assert dec.reject_unimodal == (D > critical)
        d = dip_statistic(y)
        dec = dip_test(y)
        assert dec.statistic == d
        assert dec.reject_unimodal == (d > baselines._dip_null(N)[2])


def test_one_table_per_sample_size():
    # the first KS test at an N builds its table and a second test at that
    # N builds none; no dip test and no classic dip-means run builds a dip
    # table, since the dip reads the calibration grid
    lilliefors_table.cache_clear()
    dip_reference_table.cache_clear()
    rng = np.random.default_rng(64)

    def misses():
        return lilliefors_table.cache_info().misses, dip_reference_table.cache_info().misses

    ks_lilliefors(rng.normal(size=30))
    dip_test(rng.normal(size=30))
    assert misses() == (1, 0)
    ks_lilliefors(rng.normal(size=30))
    dip_test(rng.normal(size=30))
    assert misses() == (1, 0)

    # classic dip-means on one 41-point cloud: 41 viewers of 40 distances
    res = dipmeans_family(Dataset(rng.normal(size=(41, 2))), DipViewerCriterion(), 0)
    assert res.split_log[0].n == 41
    info = dip_reference_table.cache_info()
    assert (info.hits, info.misses) == (0, 0)


@pytest.mark.parametrize("table", [lilliefors_reference, lilliefors_table])
@pytest.mark.parametrize("N", [0, 1, 7])
def test_lilliefors_tables_refuse_what_ks_refuses(table, N):
    # a table ks_lilliefors could never read: refused by the KS size rule,
    # not by numpy (a bare ValueError at 0, a warning at 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooFewSamplesError, match=f"KS test needs N >= 8, got {N}"):
            table(N)


@pytest.mark.parametrize("table", [dip_reference_dips, dip_reference_table])
@pytest.mark.parametrize("N, B, error, match", [
    (0, 100, TooFewSamplesError, "dip test needs N >= 4, got 0"),
    (3, 100, TooFewSamplesError, "dip test needs N >= 4, got 3"),
    (20, 0, TooFewSamplesError, "bootstrap_B must be at least 100"),
    (20, 50, TooFewSamplesError, "bootstrap_B must be at least 100"),
    (20, 100.0, TypeError, "bootstrap_B must be an integer, got 100.0"),
], ids=["N0", "N3", "B0", "B50", "B100.0"])
def test_dip_tables_refuse_what_dip_test_refuses(table, N, B, error, match):
    # a table no test could read (an IndexError at N = 0, an empty table
    # at B = 0): refused by dip_test's size rule and the tables' own B rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            table(N, B)


def test_float_table_sizes_refused_after_the_int_table_is_built():
    # the tables are cached by argument type too: a float N or B misses the
    # built (20, 100) table and is refused by the library, not by numpy's
    # seeding ("seed must be integer")
    built = dip_reference_table(20, 100), lilliefors_table(20)
    for call in (lambda: dip_reference_table(20, 100.0),
                 lambda: dip_reference_table(20.0, 100),
                 lambda: dip_reference_dips(20.0, 100),
                 lambda: lilliefors_table(20.0),
                 lambda: lilliefors_reference(20.0)):
        with pytest.raises(TypeError, match=r"(N|bootstrap_B) must be an integer, got (20|100)\.0"):
            call()
    assert dip_reference_table(20, 100) is built[0] and lilliefors_table(20) is built[1]


def test_bool_sizes_refused():
    # operator.index takes True as 1; a size is an integer, and a bool is
    # not one, as kmeans refuses k=True
    for call, name in ((lambda: lilliefors_table(True), "N"),
                       (lambda: lilliefors_reference(True), "N"),
                       (lambda: dip_reference_table(True, 100), "N"),
                       (lambda: dip_reference_table(20, True), "bootstrap_B")):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got True"):
            call()


@pytest.mark.parametrize("table, sizes", [(lilliefors_table, (20,)),
                                           (dip_reference_table, (20, 100))],
                         ids=["lilliefors", "dip"])
def test_numpy_integer_sizes_share_the_int_table(table, sizes):
    # the sizes are taken by operator.index before the lookup, so a numpy
    # integer finds the table its int built
    table.cache_clear()
    built = table(*sizes)
    assert table(*map(np.int64, sizes)) is built
    info = table.cache_info()
    assert (info.misses, info.hits) == (1, 1)


ENTRIES = {"sigtest": sigtest, "anderson_darling": anderson_darling,
           "ks_lilliefors": ks_lilliefors, "dip_statistic": dip_statistic, "dip_test": dip_test}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
def test_size_checked_before_finiteness(entry):
    # every test refuses a sample too small for it as too small, whatever it
    # holds; a large enough sample with NaN is refused as non-finite
    with pytest.raises(TooFewSamplesError, match="needs N >= "):
        entry(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(NonFiniteInputError):
        entry(np.r_[np.nan, np.arange(9.0)])


@pytest.mark.parametrize("entry, empty", [
    (anderson_darling, np.zeros((0, 1))), (ks_lilliefors, np.zeros((1, 0))),
    (dip_test, np.zeros((0, 5)))], ids=["AD", "KS", "dip"])
def test_empty_of_any_shape_refused(entry, empty):
    with pytest.raises(DegenerateInputError, match="empty sample"):
        entry(empty)
