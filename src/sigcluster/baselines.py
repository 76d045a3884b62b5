"""Baseline unimodality/normality tests: Anderson-Darling, Lilliefors
Kolmogorov-Smirnov, and Hartigan's dip.

All three are shift/scale invariant (AD and KS estimate location/scale;
the dip only depends on the shape of the empirical CDF). Each is a pure
function of its input: the KS and dip calibrations draw from fixed seeds,
so calls may run concurrently. Those calibrations are tabulated once per
sample size (:func:`lilliefors_table`, :func:`dip_reference_table`), as
Lilliefors (1967) and Hartigan & Hartigan (1985) tabulate critical
values: the first test at an N builds its table, later ones look it up.

References
----------
Stephens (1974), "EDF statistics for goodness of fit and some
comparisons", JASA 69.
Lilliefors (1967), "On the Kolmogorov-Smirnov test for normality with
mean and variance unknown", JASA 62.
Hartigan & Hartigan (1985), "The dip test of unimodality", Ann. Statist.
13; Hartigan (1985), "Algorithm AS 217", Appl. Statist. 34.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr, ndtr

from .core import (
    _add_reduce,
    _block_rows,
    _check_size,
    _degenerate_error,
    _integer,
    _row_moments,
    _spread_ok,
    _test_rows,
    _test_sample,
    as_sample,
)
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
# the Lilliefors KS level and the number of uniform dip bootstrap samples
# (which sets the dip's level: it rejects at about 1/(B + 1) under H0).
AD_ALPHA = 0.0001
KS_ALPHA = 0.05
DIP_BOOTSTRAP_B = 1000

# The smallest sample the dip test, its statistic and its tables take.
_DIP_MIN_SAMPLES = 4


def anderson_darling_statistic(y) -> float:
    """Corrected statistic A*^2 = A^2 (1 + 0.75/N + 2.25/N^2).

    A^2 is Stephens' case-4 statistic against a normal with the sample
    mean and (ddof=1) standard deviation, in closed form.

    Raises
    ------
    DegenerateInputError
        Where normalize would: zero spread, or squared deviations that
        overflow.
    """
    return _ad_statistic(as_sample(y))


def _ad_statistic(y: np.ndarray) -> float:
    """anderson_darling_statistic of a validated sample.

    The arithmetic is scipy.stats.anderson's, step for step, so A*^2 is
    the same bit for bit: the moments come from the unsorted sample (the
    pairwise sums depend on the order), and norm's logcdf/logsf are
    log_ndtr(w)/log_ndtr(-w).
    """
    N = y.size
    mean, D, ss = _row_moments(y)
    if not _spread_ok(mean, math.sqrt(ss / N)):
        raise _degenerate_error(mean, ss)
    s = math.sqrt(ss / (N - 1))
    w = np.sort(D)
    w /= s
    i = np.arange(1, N + 1)
    a2 = -N - _add_reduce((2 * i - 1.0) / N * (log_ndtr(w) + log_ndtr(-w)[::-1]))
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
    y = _test_sample(y, MIN_SAMPLES, "AD test")
    if alpha not in AD_CRITICAL_VALUES:
        raise ValueError(
            f"no critical value for alpha={alpha}; "
            f"available: {sorted(AD_CRITICAL_VALUES)}"
        )
    stat = _ad_statistic(y)
    return BaselineDecision(
        statistic=stat,
        p_value=None,
        reject_unimodal=bool(stat > AD_CRITICAL_VALUES[alpha]),
    )


def _lilliefors_d(D: np.ndarray, ss) -> np.ndarray:
    """Lilliefors D of each ascending row (a 1-d array is one row) from its
    _row_moments deviations D, overwritten, and sum of squares ss: the sup
    distance to the normal CDF with estimated mean and (ddof=1) scale."""
    N = D.shape[-1]
    np.divide(D.T, np.sqrt(ss / (N - 1)), out=D.T)
    F = ndtr(D, out=D)
    i = np.arange(1, N + 1)
    return np.maximum((i / N - F).max(axis=-1), (F - (i - 1) / N).max(axis=-1))


def ks_statistic(y) -> float:
    """Lilliefors D of one sample; DegenerateInputError where normalize
    would raise it (zero spread, or squared deviations that overflow)."""
    return _ks_statistic(as_sample(y))


def _ks_statistic(y: np.ndarray) -> float:
    """ks_statistic of a validated sample; normalize's rule is checked on
    the moments of the sorted copy, which the statistic divides by."""
    x = np.sort(y)
    mean, D, ss = _row_moments(x, out=x)
    if not _spread_ok(mean, math.sqrt(ss / y.size)):
        raise _degenerate_error(mean, ss)
    return float(_lilliefors_d(D, ss))


def lilliefors_reference(N: int) -> np.ndarray:
    """Sorted Monte-Carlo reference distribution of the Lilliefors D.

    10^4 standard-normal samples of size N are drawn with a fixed seed,
    each reduced to its D statistic. The result depends only on N, so it
    doubles as a reproducible critical-value table: the 1-alpha quantile
    is the level-alpha critical value. Rows go in blocks: bounded memory.
    Each call draws anew; :func:`ks_lilliefors` reads it through
    :func:`lilliefors_table`.

    Raises
    ------
    TooFewSamplesError
        If N < MIN_SAMPLES, the KS test's own rule.
    TypeError
        If N is not an integer.
    """
    N = _integer(N, "N")
    _check_size(N, MIN_SAMPLES, "KS test")
    replicates = 10_000
    rng = np.random.default_rng([202_405, N, replicates])
    rows = _block_rows(N)
    D = np.empty(replicates)
    for start in range(0, replicates, rows):
        X = rng.standard_normal((min(rows, replicates - start), N))
        X.sort(axis=1)
        _, X, ss = _row_moments(X, out=X)
        D[start:start + X.shape[0]] = _lilliefors_d(X, ss)
    D.sort()
    return D


def lilliefors_table(N: int) -> np.ndarray:
    """Memoized :func:`lilliefors_reference`: the table every
    :func:`ks_lilliefors` call at sample size N decides against.

    The reference is a pure function of N, so the cache changes only the
    cost: the first test at an N builds the table, later ones reuse it.
    N is taken by operator.index before the lookup, so an int and a numpy
    integer of equal value share one table, and a float N is refused on
    every call. ``cache_info`` and ``cache_clear`` are the cache's own.
    """
    return _lilliefors_table(_integer(N, "N"))


@lru_cache(maxsize=64)
def _lilliefors_table(N: int) -> np.ndarray:
    ref = lilliefors_reference(N)
    ref.setflags(write=False)
    return ref


lilliefors_table.cache_info = _lilliefors_table.cache_info
lilliefors_table.cache_clear = _lilliefors_table.cache_clear


@lru_cache(maxsize=64)
def _lilliefors_critical(N: int, alpha: float) -> float:
    """The level-``alpha`` critical value of the Lilliefors D at N: the
    1 - alpha quantile of :func:`lilliefors_table`."""
    return float(np.quantile(lilliefors_table(N), 1.0 - alpha))


def ks_lilliefors(y, alpha: float = KS_ALPHA) -> BaselineDecision:
    """Lilliefors KS normality test, Monte-Carlo calibrated.

    D is compared with the level-``alpha`` critical value of the seeded
    reference distribution at the sample's N (:func:`lilliefors_table`),
    and the p-value is the share of reference D at least as large. The
    table and the critical value are computed once per N (and alpha) in
    the process; being seed-determined, they make every call
    deterministic.

    Raises
    ------
    TooFewSamplesError
        If N < MIN_SAMPLES.
    ValueError
        If ``alpha`` is not in (0, 1).
    DegenerateInputError
        If all values are equal, or the squared deviations overflow.
    """
    y = _test_sample(y, MIN_SAMPLES, "KS test")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"KS alpha must lie in (0, 1), got {alpha!r}")
    D = _ks_statistic(y)
    ref = lilliefors_table(y.size)
    # p-value: share of reference D at least as extreme
    p = float((ref.size - np.searchsorted(ref, D, side="left")) / ref.size)
    return BaselineDecision(
        statistic=D,
        p_value=p,
        reject_unimodal=bool(D > _lilliefors_critical(y.size, alpha)),
    )


def dip_statistic(y) -> float:
    """Hartigan's dip: the sup distance between the empirical CDF and the
    closest unimodal CDF (the fit splits each gap, hence the /(2N) scale).

    Uses the greatest-convex-minorant / least-concave-majorant algorithm
    (AS 217). Always at least 1/(2N); at most ~1/4. Scale-free: no moment
    is formed, so any finite sample with two distinct values has a dip,
    as long as its range times N stays within the float range.

    Raises
    ------
    TooFewSamplesError
        If N < 4.
    DegenerateInputError
        If all values are equal, or the range times N overflows.
    """
    y = _test_sample(y, _DIP_MIN_SAMPLES, "dip test")
    return _dip(y)


def _dip(y: np.ndarray) -> float:
    """dip_statistic of a validated sample, so dip_test checks it once.

    The reference for :func:`_dip_rows`, which a test holds equal to it
    row by row; one sample runs faster through this loop.
    """
    n = y.size
    x = np.sort(y).tolist()  # python floats: the index loops below run ~3x faster
    if x[0] == x[-1]:
        raise DegenerateInputError("zero spread: all values are equal")
    if not math.isfinite((x[-1] - x[0]) * n):
        raise DegenerateInputError(
            "sample range overflows: the range times N exceeds the float range")

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


def _spans(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers of every [start[i], stop[i]), concatenated in order."""
    counts = stop - start
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(start - ends + counts, counts)


def _peel(k: np.ndarray, v: np.ndarray, end: np.ndarray, upper: bool,
          keep: np.ndarray | None = None):
    """Keys and values of the vertices of each row's greatest convex
    minorant, or of its least concave majorant with ``upper``.

    ``k`` holds the ascending keys row * n + index of each row's candidate
    points as float64 (exact below 2**53, so the products need no cast),
    ``v`` their values and ``end`` marks each row's first and last point;
    the vertices come back with int64 keys. Every point that _dip's
    predicate finds not strictly convex between its two neighbours is
    dropped at once, until none is. The predicate is _dip's expression
    with its operands in the same order: the majorant's products are the
    minorant's with both factors negated, so the same bits.

    ``keep``, when given, is the first round's mask as _keep builds it.
    _dip_block's first pass gives it: there the keys are consecutive
    within each row, so the key differences read are all 1, the products
    are the value differences dv bit for bit, and one dv serves both hulls.
    """
    while True:
        if keep is None:
            dv = v[1:] - v[:-1]
            dk = k[1:] - k[:-1]
            keep = _keep(dv[1:] * dk[:-1], dv[:-1] * dk[1:], end, upper)
        sel = np.flatnonzero(keep)
        if sel.size == k.size:
            return k.astype(np.int64), v
        k, v, end, keep = k[sel], v[sel], end[sel], None


def _keep(lhs: np.ndarray, rhs: np.ndarray, end: np.ndarray, upper: bool) -> np.ndarray:
    """_peel's mask over every point: each row's ends, and each point
    between whose ``lhs < rhs`` holds (``rhs < lhs`` with ``upper``)."""
    if upper:
        lhs, rhs = rhs, lhs
    keep = np.empty(end.size, dtype=bool)
    np.less(lhs, rhs, out=keep[1:-1])
    keep |= end
    return keep


def _chain_ends(k: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    end = np.zeros(k.size, dtype=bool)
    end[np.searchsorted(k, low)] = True
    end[np.searchsorted(k, high)] = True
    return end


# The coarse levels of _dip_rows: a row is first decided on a copy of
# every 8th, then every 4th of its order statistics, at each level whose
# copy keeps at least _COARSE_MIN_VALUES values, so from N = 393 and
# N = 197 values on (seeds' 209 viewer values get the second level,
# iris's 149 neither). Swept over row length on synthetic distance rows
# (Gaussian and two-blob, d = 8) and uniform rows, a floor of 40 or 50
# ran blob rows of N = 197-240 in 0.54-0.71x of the full-width time and
# 64 lost that; copies of 40-49 values also ran uniform rows, whose dips
# lie near the critical dip, in 1.3x at N = 160. _COARSE_ALLOWANCE covers
# the rounding of the coarse and the full dips, which lies near 1e-15.
_COARSE_LEVELS = (8, 4)
_COARSE_MIN_VALUES = 50
_COARSE_ALLOWANCE = 1e-9


def _coarse_ranks(N: int) -> list[np.ndarray]:
    """The ranks a row of N values keeps in its coarse copies, one array
    per level of _COARSE_LEVELS whose copy keeps n' = ceil(N / c) >=
    _COARSE_MIN_VALUES values: the midpoint ranks floor((2j + 1) N /
    (2n')), j < n'."""
    sizes = (-(-N // c) for c in _COARSE_LEVELS)
    return [(2 * np.arange(m) + 1) * N // (2 * m) for m in sizes if m >= _COARSE_MIN_VALUES]


def _dip_rows(X: np.ndarray, critical: float | None = None) -> np.ndarray:
    """_dip of each row of a 2-d float64 array, equal to it bit for bit
    except on nearly collinear points (an evenly spaced grid), where the
    two can differ in the last bits; NaN where _dip refuses the row (all
    values equal, or a range that overflows). Rows go in blocks of
    core._block_rows, each sorted once for every level below, so the
    kernel's temporaries stay near a few megabytes at any N.

    With a ``critical`` dip, a row is settled as soon as it is known which
    side of ``critical`` its dip lies on, and reports a dip never above
    its exact dip and above ``critical`` exactly where the exact dip is.
    So ``_dip_rows(X, c) > c`` equals ``_dip_rows(X) > c`` row by row;
    NaN rows are NaN either way. The full-width kernel settles a row at
    the AS 217 pass that decides it and reports its running dip there.

    Rows are first decided on coarse copies, level by level
    (_COARSE_LEVELS), at each level whose copy keeps n' = ceil(N / c) >=
    _COARSE_MIN_VALUES values; only the rows no level decides reach the
    full-width kernel, and rows _dip refuses go straight to it. The copy
    keeps the order statistics x[floor((2j + 1) N / (2n'))], j < n'
    (_coarse_ranks). If m values of the row lie at or below t, the copy's
    values there are those with floor((2j + 1) N / (2n')) < m, that is
    j < q - 1/2 with q = m n' / N: ceil(q - 1/2) of them, which lies in
    [q - 1/2, q + 1/2). So its ECDF F' satisfies |F' - F_N| <= 1/(2n')
    everywhere. The dip is the sup distance to the unimodal
    distributions, D(F) = rho(F, U) (Hartigan & Hartigan 1985), so by the
    triangle inequality |D(F') - D(F_N)| <= 1/(2n'). The copy goes
    through the kernel with the bracket [critical - s, critical + s],
    s = 1/(2n') + _COARSE_ALLOWANCE, and is settled there with running
    dip r <= D(F') and stopping bound b >= D(F'):

    - r - s > critical gives D(F_N) >= D(F') - 1/(2n') > critical: a
      reject;
    - b + s <= critical gives D(F_N) <= D(F') + 1/(2n') < critical: an
      accept;
    - otherwise (r and b both inside the bracket, or a copy the kernel
      refuses) the row goes on to the next level.

    A decided row reports max(r - s, 1/(2N)). That is never above its
    exact dip, since r - s < D(F_N) and every dip is at least 1/(2N). It
    is above ``critical`` exactly for a reject: an accepted row has
    r - s <= b - s < critical, and 1/(2N) <= D(F_N) < critical. So the
    contract above holds for coarse rows too.
    """
    N = X.shape[1]
    rows = _block_rows(N)
    levels = [] if critical is None else _coarse_ranks(N)
    out = np.empty(len(X))
    for start in range(0, len(X), rows):
        x = np.sort(X[start:start + rows], axis=1)
        dips = out[start:start + rows]
        rest = slice(None)
        if levels:
            with np.errstate(over="ignore", invalid="ignore"):
                rest = (x[:, 0] == x[:, -1]) | ~np.isfinite((x[:, -1] - x[:, 0]) * N)
            screen = np.flatnonzero(~rest)
            for at in levels:
                if not screen.size:
                    break
                s = 1 / (2 * at.size) + _COARSE_ALLOWANCE
                run, top = _dip_block(x[np.ix_(screen, at)], critical - s, critical + s)
                dip = np.maximum(run - s, 1 / (2 * N))
                hit = (dip > critical) | (top + s <= critical)
                dips[screen[hit]] = dip[hit]
                screen = screen[~hit]
            rest[screen] = True
        left = x[rest]
        if len(left):
            dips[rest] = _dip_block(left, critical, critical)[0]
    return out


def _span_max(start: np.ndarray, stop: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The larger of 0 and the largest non-NaN value of t over each span
    [start[i], stop[i]), with t laid out as _spans lays out their
    integers: what np.fmax.at into zeros gives, from one fmax.reduceat over
    the spans instead of a scatter."""
    counts = stop - start
    out = np.zeros(counts.size)
    some = counts > 0
    out[some] = np.fmax(0.0, np.fmax.reduceat(t, (np.cumsum(counts) - counts)[some]))
    return out


def _dip_block(x: np.ndarray, lo: float | None = None,
               hi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(dip, bound) of each ascending row of one block of _dip_rows: every
    unfinished row runs each AS 217 pass together with the others.

    A pass needs the minorant and majorant of x[low..high] only: low and
    high are vertices of the previous pass's chains, so _dip's chain from
    high stops at low and its chain from low stops at high. The distance
    walk is a merge of the two vertex lists (index order, the minorant's
    vertex first on ties) that stops before the first vertex both share,
    after at least one step; it keeps the last largest distance (_dip's
    ``dx >= d``), each distance in _dip's arithmetic. The dips of the
    chosen fits are maxima over their segments' points, and _dip's two
    stop rules end each row. A vertex of a chain stays a candidate for
    the next pass's chain; of the other points, only those past the last
    minorant vertex below the new high, or before the first majorant
    vertex above the new low, can join it.

    The first pass peels both hulls from every point of each row. Where
    _peel's predicate is read, at a point that is no row end, both
    neighbours are in the point's own row, so their keys differ from its
    key by 1 and the products are the value differences times 1.0: the
    differences themselves, bit for bit, even across the key gap a refused
    row leaves. So one pass of differences over the rows gives both chains
    their first mask, and each chain peels on from its own survivors.

    Without ``lo`` and ``hi`` every row runs to its final dip, which is
    also its bound. With them, a row that a pass leaves going is settled
    there when its running dip already exceeds ``hi`` (the running dip
    never falls), when its bound falls to ``lo``, or when the two lie
    within [lo, hi], so no later pass can do either. The bound is AS
    217's stopping bound max(d, dip) on every later pass, widened by a
    relative 1e-12 and an absolute 1e-9 for rounding. A settled row
    reports its running dip and that bound; _dip_rows' full-width rule is
    lo = hi = critical. Both are NaN where _dip refuses the row.
    """
    R, n = x.shape
    out = np.full(R, np.nan)
    bound = np.full(R, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (x[:, 0] != x[:, -1]) & np.isfinite((x[:, -1] - x[:, 0]) * n)
    rows = np.flatnonzero(ok)
    xf = x.ravel()
    low = rows * n                                 # every index below is a key row * n + i
    high = low + (n - 1)
    dip = np.zeros(R)
    odd = []
    # the first pass: one pass of differences, both chains' first masks
    k = (low[:, None] + np.arange(n, dtype=np.float64)).ravel()
    v = x[rows].ravel()
    end = _chain_ends(k, low, high)
    dv = v[1:] - v[:-1]
    gk, gv = _peel(k, v, end, False, _keep(dv[1:], dv[:-1], end, False))
    lk, lv = _peel(k, v, end, True, _keep(dv[1:], dv[:-1], end, True))
    while rows.size:
        # where the walk stops: the first shared vertex past low, or the
        # second when the first is both chains' first vertex. In exact
        # arithmetic only high is shared; rounding can share another
        g0, l0 = np.searchsorted(gk, low), np.searchsorted(lk, low)
        shared = gk[lk[np.searchsorted(lk, gk)] == gk]
        first = gk[g0 + 1]
        skip = (first == lk[l0 + 1]) & (first != high)
        stop = shared[np.searchsorted(shared, low, "right") + skip]

        # each minorant vertex g against the majorant segment [lb, le]
        # around it, and each majorant vertex l against the minorant one
        gi = _spans(g0 + 1, np.searchsorted(gk, stop))
        g = gk[gi]
        e = np.searchsorted(lk, g)
        lb, le = lk[e - 1], lk[e]
        li = _spans(l0 + 1, np.searchsorted(lk, stop))
        l = lk[li]
        f = np.searchsorted(gk, l, "right")
        gb, ge = gk[f - 1], gk[f]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx_g = (gv[gi] - lv[e - 1]) * (le - lb) / (lv[e] - lv[e - 1]) - (g - lb - 1)
            dx_l = (l - gb + 1) - (lv[li] - gv[f - 1]) * (ge - gb) / (gv[f] - gv[f - 1])
        order = np.concatenate((2 * g, 2 * l + 1))
        o = np.argsort(order)
        dx = np.concatenate((dx_g, dx_l))[o]
        to_low = np.concatenate((g, gb))[o]
        to_high = np.concatenate((le, l))[o]
        ev_row = order[o] // (2 * n)
        d = np.zeros(R)
        np.fmax.at(d, ev_row, dx)
        hit = np.flatnonzero(dx == d[ev_row])
        last = np.full(R, -1)
        np.maximum.at(last, ev_row[hit], hit)
        last = last[rows]
        moved = last >= 0
        new_low, new_high = low.copy(), high.copy()
        new_low[moved] = to_low[last[moved]]
        new_high[moved] = to_high[last[moved]]
        going = d[rows] >= dip[rows]

        # the minorant's dip over (low, new_low], the majorant's over
        # (new_high, high]; a point whose fit segment has no point strictly
        # inside, or is flat, gets NaN, which the span maxima skip
        start, stop = low[going] + 1, new_low[going] + 1
        kk = _spans(start, stop)
        e = np.searchsorted(gk, kk)
        jb, je, xb, xe = gk[e - 1], gk[e], gv[e - 1], gv[e]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (kk - jb + 1) - (xf[kk] - xb) * ((je - jb) / (xe - xb))
        t[(je - jb <= 1) | (xe == xb)] = np.nan
        dip_l = _span_max(start, stop, t)
        start, stop = new_high[going] + 1, high[going] + 1
        kk = _spans(start, stop)
        e = np.searchsorted(lk, kk)
        jb, je, xb, xe = lk[e - 1], lk[e], lv[e - 1], lv[e]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (xf[kk] - xb) * ((je - jb) / (xe - xb)) - (kk - jb - 1)
        t[(je - jb <= 1) | (xe == xb)] = np.nan
        dip_u = _span_max(start, stop, t)
        r = rows[going]
        dip[r] = np.maximum(np.maximum(dip[r], dip_l), np.maximum(dip_u, 1.0))

        going &= (new_low != low) | (new_high != high)
        run = dip[rows] / (2 * n)
        top = np.where(going, np.maximum(d[rows], dip[rows]) * (1 + 1e-12) + 1e-9,
                       dip[rows]) / (2 * n)
        if lo is not None:
            going &= (run <= hi) & (top > lo) & ((run < lo) | (top > hi))
        # a fit can shrink to one point only through a shared vertex other
        # than high; _dip then reads stale chain entries, so the row is
        # left to _dip
        collapsed = going & (new_low >= new_high)
        odd.extend(rows[collapsed])
        going &= ~collapsed
        out[rows[~going]] = run[~going]
        bound[rows[~going]] = top[~going]
        rows, low, high = rows[going], new_low[going], new_high[going]
        if not rows.size:
            break
        a = np.searchsorted(gk, low)
        z = np.searchsorted(gk, high, "right") - 1
        gk = np.sort(np.concatenate((gk[_spans(a, z + 1)], _spans(gk[z] + 1, high + 1))))
        a = np.searchsorted(lk, low)
        z = np.searchsorted(lk, high)
        lk = np.sort(np.concatenate((_spans(low, lk[a]), lk[_spans(a, z + 1)])))
        gk, gv = _peel(gk.astype(np.float64), xf[gk], _chain_ends(gk, low, high), upper=False)
        lk, lv = _peel(lk.astype(np.float64), xf[lk], _chain_ends(lk, low, high), upper=True)
    for i in odd:
        out[i] = bound[i] = _dip(x[i])
    return out, bound


def dip_reference_dips(N: int, B: int = DIP_BOOTSTRAP_B) -> np.ndarray:
    """Dip statistics of B uniform(0,1) samples of size N, fixed seed.

    This is the bootstrap null distribution of :func:`dip_test`, which
    reads it through :func:`dip_reference_table`; each call here draws
    anew. Replicate b is drawn from the generator substream [0, N, b], so
    the set is reproducible and does not depend on how it is split up:
    the replicates are stacked in blocks of core._block_rows (bounded
    memory) and each block goes through one :func:`_dip_rows`
    call, equal to _dip on each replicate.

    Raises
    ------
    TooFewSamplesError
        If N < 4 (:func:`dip_test`'s rule) or B < 100.
    TypeError
        If N or B is not an integer.
    """
    N, B = _dip_table_sizes(N, B)
    rows = _block_rows(N)
    dips = np.empty(B)
    for start in range(0, B, rows):
        U = np.stack([np.random.default_rng([0, N, b]).uniform(size=N)
                      for b in range(start, min(B, start + rows))])
        dips[start:start + len(U)] = _dip_rows(U)
    return dips


def dip_reference_table(N: int, B: int = DIP_BOOTSTRAP_B) -> np.ndarray:
    """Memoized :func:`dip_reference_dips` (identical values; built once
    per (N, B) in the process). At the default B it is the table every
    :func:`dip_test` call at sample size N decides against.

    N and B are checked as dip_reference_dips checks them, before the
    lookup: an int and a numpy integer of equal value share one table, and
    a float N or B, or one below its minimum, is refused on every call.
    ``cache_info`` and ``cache_clear`` are the cache's own.
    """
    return _dip_reference_table(*_dip_table_sizes(N, B))[0]


@lru_cache(maxsize=64)
def _dip_reference_table(N: int, B: int):
    ref = dip_reference_dips(N, B)
    ref.setflags(write=False)
    return ref, ref.max()


dip_reference_table.cache_info = _dip_reference_table.cache_info
dip_reference_table.cache_clear = _dip_reference_table.cache_clear


def _dip_table_sizes(N, B) -> tuple[int, int]:
    """(N, B) of a dip table as ints, checked: N >= 4 and B >= 100."""
    N = _integer(N, "N")
    _check_size(N, _DIP_MIN_SAMPLES, "dip test")
    B = _integer(B, "bootstrap_B")
    if B < 100:
        raise TooFewSamplesError("bootstrap_B must be at least 100")
    return N, B


def _dip_null(N: int):
    """(ref, critical): the seeded reference dips at N and the critical
    dip, their largest, found once per table in its cache entry. A dip
    rejects unimodality exactly when it exceeds the critical dip (p == 0,
    "level zero"), in :func:`dip_test` and :func:`_dip_test_rows` alike."""
    return _dip_reference_table(*_dip_table_sizes(N, DIP_BOOTSTRAP_B))


def dip_test(y) -> BaselineDecision:
    """Dip test with a bootstrap p-value at "level zero".

    p-value = fraction of the DIP_BOOTSTRAP_B uniform samples of the same
    size whose dip is at least the observed dip; unimodality is rejected
    only when the observed dip exceeds every reference dip, the critical
    dip (p == 0), so the test's level is about 1/(DIP_BOOTSTRAP_B + 1).
    :func:`_dip_null` gives both, from the seeded table of
    :func:`dip_reference_table` at N, drawn once per N in the process.

    Raises
    ------
    TooFewSamplesError
        If N < 4.
    DegenerateInputError
        If all values are equal, or the range times N overflows.
    """
    y = _test_sample(y, _DIP_MIN_SAMPLES, "dip test")
    d = _dip(y)
    ref, critical = _dip_null(y.size)
    return BaselineDecision(
        statistic=d,
        p_value=float(np.count_nonzero(ref >= d) / ref.size),
        reject_unimodal=bool(d > critical),
    )


def _dip_test_rows(Y):
    """(dip, reject) of each row of a 2-d array: one :func:`_dip_null` at
    the rows' N and one AS 217 kernel call over all rows (in blocks of
    bounded memory). A row rejects where its dip exceeds the critical dip,
    as :func:`dip_test` rejects, and each reject is
    dip_test's (see :func:`_dip_rows` for the one known difference in the
    dips). :func:`_dip_rows` gets that critical dip and settles each row
    as soon as its side of it is known. It decides a row first on coarse
    copies of every 8th, then every 4th order statistic, taken at
    midpoint ranks, at each level whose copy keeps at least 50 values
    (from 393 and from 197 values on). A copy's dip lies within 1/(2n')
    of the row's (n' values in the copy). The rest are settled at the
    AS 217 pass that decides them. So a row's dip is a lower
    bound, never above dip_test's and on the same side of the critical
    dip. A row dip_test refuses as degenerate (all values equal, or a
    range times N that overflows) gets dip NaN and does not reject.

    Raises
    ------
    ValueError
        If Y is not 2-d.
    TooFewSamplesError
        If N < 4.
    NonFiniteInputError
        If Y contains NaN or infinity.
    """
    Y = _test_rows(Y, _DIP_MIN_SAMPLES, "dip test")
    if not len(Y):
        return np.empty(0), np.zeros(0, dtype=bool)
    critical = _dip_null(Y.shape[1])[1]
    dips = _dip_rows(Y, critical)
    return dips, dips > critical
