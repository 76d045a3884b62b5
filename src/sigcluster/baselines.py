"""Baseline unimodality/normality tests: Anderson-Darling, Lilliefors
Kolmogorov-Smirnov, and Hartigan's dip.

All three are shift/scale invariant (AD and KS estimate location/scale;
the dip only depends on the shape of the empirical CDF). Each is a pure
function of its input: the KS and dip calibrations draw from fixed seeds,
so calls may run concurrently.

References
----------
Stephens (1974), "EDF statistics for goodness of fit and some
comparisons", JASA 69.
Lilliefors (1967), "On the Kolmogorov-Smirnov test for normality with
mean and variance unknown", JASA 62.
Hartigan & Hartigan (1985), "The dip test of unimodality", Ann. Statist.
13; Hartigan (1985), "Algorithm AS 217", Appl. Statist. 34.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats
from scipy.special import ndtr

from .core import as_sample
from .errors import DegenerateInputError, TooFewSamplesError
from .sigtest import MIN_SAMPLES


@dataclass(frozen=True)
class BaselineDecision:
    """Outcome of a baseline test.

    ``p_value`` is None for the AD test, which is decided against a
    critical value instead. ``reject_unimodal`` True means the sample is
    judged not to come from a single (normal/unimodal) component.
    """

    statistic: float
    p_value: float | None
    reject_unimodal: bool


# Critical values for the corrected AD statistic A*^2 against a normal
# with estimated mean and variance (Stephens 1974, case 4). The 1e-4
# entry is the convention used by Anderson-Darling-based cluster
# splitting (Hamerly & Elkan 2003).
AD_CRITICAL_VALUES = {
    0.10: 0.631,
    0.05: 0.752,
    0.025: 0.873,
    0.01: 1.035,
    0.005: 1.159,
    0.0001: 1.8692,
}

# The one statement of each test default, read by the clustering
# criteria, the benchmark and the command line: the AD splitting level,
# the Lilliefors KS level and the number of uniform dip bootstrap samples.
AD_ALPHA = 0.0001
KS_ALPHA = 0.05
DIP_BOOTSTRAP_B = 1000


def anderson_darling_statistic(y) -> float:
    """Corrected statistic A*^2 = A^2 (1 + 0.75/N + 2.25/N^2).

    A^2 is computed against a normal with estimated mean and variance
    (scipy's implementation of the case-4 statistic).
    """
    y = as_sample(y)
    N = y.size
    if np.all(y == y[0]):
        raise DegenerateInputError("zero spread: all values are equal")
    a2 = stats.anderson(y, dist="norm", method="interpolate").statistic
    return float(a2 * (1.0 + 0.75 / N + 2.25 / N**2))


def anderson_darling(y, alpha: float = AD_ALPHA) -> BaselineDecision:
    """Anderson-Darling normality test with estimated parameters.

    Rejects when the small-sample-corrected statistic exceeds the critical
    value of ``alpha`` in :data:`AD_CRITICAL_VALUES`, which covers the
    common levels plus the 1e-4 splitting convention.

    Raises
    ------
    TooFewSamplesError
        If N < MIN_SAMPLES.
    ValueError
        If ``alpha`` has no entry in the critical-value table.
    DegenerateInputError
        If all values are equal.
    """
    y = as_sample(y)
    if y.size < MIN_SAMPLES:
        raise TooFewSamplesError(f"AD test needs N >= {MIN_SAMPLES}, got {y.size}")
    if alpha not in AD_CRITICAL_VALUES:
        raise ValueError(
            f"no critical value for alpha={alpha}; "
            f"available: {sorted(AD_CRITICAL_VALUES)}"
        )
    stat = anderson_darling_statistic(y)
    return BaselineDecision(
        statistic=stat,
        p_value=None,
        reject_unimodal=bool(stat > AD_CRITICAL_VALUES[alpha]),
    )


def ks_statistic(y) -> float:
    """Lilliefors D: sup distance between the empirical CDF and the
    normal CDF with estimated mean and (ddof=1) standard deviation."""
    y = as_sample(y)
    x = np.sort(y)
    N = x.size
    s = x.std(ddof=1)
    if s == 0.0:
        raise DegenerateInputError("zero spread: all values are equal")
    F = ndtr((x - x.mean()) / s)
    i = np.arange(1, N + 1)
    d_plus = (i / N - F).max()
    d_minus = (F - (i - 1) / N).max()
    return float(max(d_plus, d_minus))


def lilliefors_reference(N: int) -> np.ndarray:
    """Sorted Monte-Carlo reference distribution of the Lilliefors D.

    10^4 standard-normal samples of size N are drawn with a fixed seed,
    each reduced to its D statistic. The result depends only on N, so it
    doubles as a reproducible critical-value table: the 1-alpha quantile
    is the level-alpha critical value.
    """
    replicates = 10_000
    rng = np.random.default_rng([202_405, N, replicates])
    X = rng.standard_normal((replicates, N))
    X.sort(axis=1)
    m = X.mean(axis=1, keepdims=True)
    s = X.std(axis=1, ddof=1, keepdims=True)
    F = ndtr((X - m) / s)
    i = np.arange(1, N + 1)
    D = np.maximum((i / N - F).max(axis=1), (F - (i - 1) / N).max(axis=1))
    D.sort()
    return D


@lru_cache(maxsize=64)
def lilliefors_table(N: int) -> np.ndarray:
    """Memoized :func:`lilliefors_reference` for repeated testing at one N.

    Because the reference is a pure function of N, decisions made through
    this cache are identical to self-contained calls; only the amortized
    cost differs.
    """
    ref = lilliefors_reference(N)
    ref.setflags(write=False)
    return ref


def ks_lilliefors(y, alpha: float = KS_ALPHA,
                  reference: np.ndarray | None = None) -> BaselineDecision:
    """Lilliefors KS normality test, Monte-Carlo calibrated.

    By default each call generates its own fixed-seed reference
    distribution, so the call is self-contained and deterministic. Pass
    ``reference`` (e.g. from :func:`lilliefors_table`) to amortize the
    calibration across many tests at the same N; the decision is
    unchanged because the reference is seed-determined either way.

    Raises
    ------
    TooFewSamplesError
        If N < MIN_SAMPLES.
    """
    y = as_sample(y)
    if y.size < MIN_SAMPLES:
        raise TooFewSamplesError(f"KS test needs N >= {MIN_SAMPLES}, got {y.size}")
    D = ks_statistic(y)
    ref = lilliefors_reference(y.size) if reference is None else reference
    critical = float(np.quantile(ref, 1.0 - alpha))
    # p-value: share of reference D at least as extreme
    p = float((ref.size - np.searchsorted(ref, D, side="left")) / ref.size)
    return BaselineDecision(
        statistic=D,
        p_value=p,
        reject_unimodal=bool(D > critical),
    )


def dip_statistic(y) -> float:
    """Hartigan's dip: the sup distance between the empirical CDF and the
    closest unimodal CDF (the fit splits each gap, hence the /(2N) scale).

    Uses the greatest-convex-minorant / least-concave-majorant algorithm
    (AS 217). Always at least 1/(2N); at most ~1/4.

    Raises
    ------
    TooFewSamplesError
        If N < 4.
    """
    y = as_sample(y)
    if y.size < 4:
        raise TooFewSamplesError(f"dip needs N >= 4, got {y.size}")
    return _dip(y)


def _dip(y: np.ndarray) -> float:
    """dip_statistic of a validated sample, so dip_test checks it once."""
    n = y.size
    x = np.sort(y).tolist()  # python floats: the index loops below run ~3x faster
    if x[0] == x[-1]:
        return 1.0 / (2 * n)

    # mn[j]: start of the greatest-convex-minorant segment ending at j
    mn = [0] * n
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj
    # mj[k]: end of the least-concave-majorant segment starting at k
    mj = [0] * n
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    low, high = 0, n - 1
    dip = 0.0
    gcm = [0] * n
    lcm = [0] * n
    while True:
        # walk the minorant down from high and the majorant up from low
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = l_gcm = i
        ix = ig - 1
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = l_lcm = i
        iv = 1

        # largest distance between the two fits inside [low, high]
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (x[lcmiv] - x[gcmi1]) * (gcmix - gcmi1) / (x[gcmix] - x[gcmi1])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmiv1 = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmiv1]) * (lcmiv - lcmiv1) / (x[lcmiv] - x[lcmiv1]) - (gcmix - lcmiv1 - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip:
            break

        # dip of the current minorant fit ...
        dip_l = 0.0
        for j in range(ig, l_gcm):
            jb, je = gcm[j + 1], gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if dip_l < t:
                        dip_l = t
        # ... and of the current majorant fit
        dip_u = 0.0
        for j in range(ih, l_lcm):
            jb, je = lcm[j], lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
                    if dip_u < t:
                        dip_u = t

        dip = max(dip, dip_l, dip_u, 1.0)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

    return dip / (2 * n)


def dip_reference_dips(N: int, B: int = DIP_BOOTSTRAP_B) -> np.ndarray:
    """Dip statistics of B uniform(0,1) samples of size N, fixed seed.

    This is the bootstrap null distribution used by :func:`dip_test`;
    replicate b is drawn from the generator substream [0, N, b], so the
    set is reproducible and could be evaluated in parallel without
    changing the result.
    """
    dips = np.empty(B)
    for b in range(B):
        u = np.random.default_rng([0, N, b]).uniform(size=N)
        dips[b] = _dip(u)
    return dips


@lru_cache(maxsize=64)
def dip_reference_table(N: int, B: int = DIP_BOOTSTRAP_B) -> np.ndarray:
    """Memoized :func:`dip_reference_dips` (identical values, amortized).

    The cache is keyed on the arguments as passed, so the library always
    calls it positionally as ``(N, B)``.
    """
    ref = dip_reference_dips(N, B)
    ref.setflags(write=False)
    return ref


def dip_test(y, bootstrap_B: int = DIP_BOOTSTRAP_B,
             reference: np.ndarray | None = None) -> BaselineDecision:
    """Dip test with a bootstrap p-value at "level zero".

    p-value = fraction of ``bootstrap_B`` uniform samples of the same size
    whose dip is at least the observed dip; unimodality is rejected only
    when the observed dip exceeds every reference dip (p == 0). By default
    the reference set is drawn fresh (fixed seed) inside the call; pass
    ``reference`` to reuse a precomputed table with identical decisions.

    Raises
    ------
    TooFewSamplesError
        If N < 4 or bootstrap_B < 100.
    """
    y = as_sample(y)
    if y.size < 4:
        raise TooFewSamplesError(f"dip test needs N >= 4, got {y.size}")
    if bootstrap_B < 100:
        raise TooFewSamplesError("bootstrap_B must be at least 100")
    d = _dip(y)
    ref = dip_reference_dips(y.size, bootstrap_B) if reference is None else reference
    p = np.count_nonzero(ref >= d) / ref.size
    return BaselineDecision(
        statistic=d,
        p_value=p,
        reject_unimodal=bool(p == 0.0),
    )
