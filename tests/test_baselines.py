import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from sigcluster import (
    AD_CRITICAL_VALUES,
    anderson_darling,
    anderson_darling_statistic,
    dip_reference_table,
    dip_statistic,
    dip_test,
    ks_lilliefors,
    ks_statistic,
    lilliefors_table,
)
from sigcluster.baselines import DIP_BOOTSTRAP_B
from sigcluster.errors import DegenerateInputError, TooFewSamplesError


def two_clusters(sep, n=100, seed=0):
    rng = np.random.default_rng([55, int(sep * 100), seed])
    return np.concatenate([rng.normal(-sep / 2, 1, n), rng.normal(sep / 2, 1, n)])


# ---------------------------------------------------------------- oracles

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

    def test_three_point_hand_case(self):
        y = np.array([-1.0, 0.0, 1.0])
        # exhaustive evaluation over the 2N step corners
        assert ks_statistic(y) == pytest.approx(ks_statistic_oracle(y), abs=1e-15)
        assert ks_statistic(y) == pytest.approx(1 / 3 - norm.cdf(-1.0), abs=1e-12)

    def test_near_perfect_fit_accepted(self):
        # sample at mid-step normal quantiles: ECDF hugs the fitted CDF
        y = norm.ppf((np.arange(1, 201) - 0.5) / 200.0)
        dec = ks_lilliefors(y, reference=lilliefors_table(200))
        assert dec.statistic < 0.012
        assert not dec.reject_unimodal

    def test_calibration_at_alpha_05(self):
        # rejection rate on true normal data: 5% +- 2 over 2000 runs
        ref = lilliefors_table(100)
        rejections = sum(
            ks_lilliefors(np.random.default_rng([58, r]).normal(size=100),
                          reference=ref).reject_unimodal
            for r in range(2000))
        assert 0.03 <= rejections / 2000 <= 0.07

    def test_reference_reuse_matches_self_contained(self):
        y = two_clusters(2.5, seed=5)
        a = ks_lilliefors(y)
        b = ks_lilliefors(y, reference=lilliefors_table(len(y)))
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.reject_unimodal == b.reject_unimodal

    def test_shift_scale_invariance_exact(self):
        y = two_clusters(2.2, seed=1)
        base = ks_lilliefors(y, reference=lilliefors_table(len(y)))
        out = ks_lilliefors(0.5 * y, reference=lilliefors_table(len(y)))
        assert out.statistic == base.statistic
        assert out.reject_unimodal == base.reject_unimodal

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            ks_lilliefors(np.arange(7.0))


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


class TestDipTest:
    def test_uniform_calibration(self):
        # level-zero rule: essentially never rejects a true uniform
        ref = dip_reference_table(200, DIP_BOOTSTRAP_B)
        rejections = sum(
            dip_test(np.random.default_rng([62, r]).uniform(size=200),
                     reference=ref).reject_unimodal
            for r in range(100))
        assert rejections <= 5

    def test_strongly_bimodal_rejected(self):
        y = two_clusters(6.0, seed=2)
        dec = dip_test(y, reference=dip_reference_table(len(y), DIP_BOOTSTRAP_B))
        assert dec.reject_unimodal
        assert dec.p_value == 0.0

    def test_reference_reuse_matches_self_contained(self):
        y = two_clusters(3.0, seed=4)[:60]
        a = dip_test(y, bootstrap_B=200)
        b = dip_test(y, bootstrap_B=200, reference=dip_reference_table(len(y), 200))
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.reject_unimodal == b.reject_unimodal

    def test_errors(self):
        with pytest.raises(TooFewSamplesError):
            dip_test(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TooFewSamplesError):
            dip_test(np.arange(10.0), bootstrap_B=50)
