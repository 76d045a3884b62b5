"""Signature test (Sigtest), the paper's unimodality test.

The test transforms a 1-d sample into a low-variance "signature" and
compares it index-by-index against a probabilistic band that a Gaussian
sample would stay inside:

1. normalize the sample (mean 0, unit population std),
2. sort the absolute values; under H0 these behave like half-normal
   order statistics,
3. map them through the half-normal CDF, giving (under H0) uniform
   order statistics with mean n/(N+1) and variance ~ p(1-p)/N,
4. count the fraction C of indices falling outside a gamma-sigma band
   around those means; split (reject unimodality) when C > threshold.

Signature 1 is the CDF-mapped sorted sequence itself; signature 2 is its
cumulative mean, which is smoother. Each variant is tested against a
band built from its own exact mean and variance sequence. Both measure
departure from a Gaussian shape, not from unimodality: at N = 200 and
the default band, each rejects about 90% of uniform and of Laplace
samples, where the dip test rejects almost none (README, "Where the
results differ from the paper").

Everything is deterministic and pure: no randomness, no shared state.
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erfinv

from .core import (
    _SQRT2,
    _add_reduce,
    _block_rows,
    _check_size,
    _half_normal_cdf,
    _normalized_rows,
    _sorted_abs,
    _test_rows,
    _value_blocks,
    as_sample,
    half_normal_cdf,
)
from .errors import LengthMismatchError


# Smallest sample the signature test decides on, and the smallest child
# the splitting wrappers create: below 8 the band nearly covers [0, 1]
# everywhere and the test says nothing.
MIN_SAMPLES = 8


class SignatureVariant(enum.Enum):
    SIGNATURE1 = 1
    SIGNATURE2 = 2


@dataclass(frozen=True)
class SigtestConfig:
    """Knobs of the signature test.

    gamma is the band half-width in standard deviations; threshold is the
    violation fraction above which the sample is declared non-unimodal.
    The defaults (gamma=2, threshold=0.4) target ~95% pointwise band
    coverage.
    """

    gamma: float = 2.0
    threshold: float = 0.4
    variant: SignatureVariant = SignatureVariant.SIGNATURE1

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:  # refuses NaN too
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class SignatureBounds:
    """Pointwise band U(n) >= L(n), clamped to [0, 1]."""

    upper: np.ndarray
    lower: np.ndarray

    def __len__(self):
        return len(self.upper)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one signature test.

    C is the violation fraction (exactly count(violations)/N), and
    split == (C > threshold): True means "not unimodal, split it".
    """

    C: float
    violations: np.ndarray = field(repr=False)
    split: bool
    variant: SignatureVariant
    N: int


def signature_moments(N: int, variant: SignatureVariant):
    """Exact mean and variance sequences of a signature under H0.

    Under H0 the CDF-mapped sorted values are uniform order statistics
    U_(1) <= ... <= U_(N) with E[U_(n)] = p_n = n/(N+1). Signature 1 uses
    those directly (variance approximated by p(1-p)/N). Signature 2 is the
    cumulative mean (1/n) * sum_{j<=n} U_(j), whose exact moments follow
    from cov(U_(i), U_(j)) = p_i (1 - p_j) / (N+2) for i <= j.

    Returns (center, var) as float arrays of length N.
    """
    n = np.arange(1, N + 1, dtype=np.float64)
    p = n / (N + 1.0)
    if variant is SignatureVariant.SIGNATURE1:
        return p, p * (1.0 - p) / N
    center = np.cumsum(p) / n  # equals (n+1) / (2(N+1))
    diag = np.cumsum(p * (1.0 - p))
    # sum_{j<k<=n} p_j (1 - p_k), accumulated over k
    cross = np.cumsum((1.0 - p) * np.concatenate(([0.0], np.cumsum(p)[:-1])))
    var = (diag + 2.0 * cross) / (N + 2.0) / (n * n)
    return center, var


def _running_mean(s: np.ndarray, out=None) -> np.ndarray:
    """Running mean along the last axis, into a new array or into ``out``."""
    m = np.cumsum(s, axis=-1, out=out)
    m /= np.arange(1, s.shape[-1] + 1)
    return m


def compute_signature(z, variant: SignatureVariant = SignatureVariant.SIGNATURE1) -> np.ndarray:
    """Signature of a sorted-absolute-normalized sample, as a float array.

    ``z`` must be the output of ``sorted_abs(normalize(y))``. Signature 1
    maps each z_n through the half-normal CDF; signature 2 is the running
    mean of that sequence. Values lie in [0, 1].
    """
    s = half_normal_cdf(as_sample(z))
    return _running_mean(s) if variant is SignatureVariant.SIGNATURE2 else s


def compute_bounds(N: int, config: SigtestConfig) -> SignatureBounds:
    """Band U(n)/L(n) for a sample of length N, clamped to [0, 1].

    Before clamping the band is center +- gamma * sqrt(var) with the
    moments of the configured variant.

    Raises
    ------
    TooFewSamplesError
        If N < MIN_SAMPLES.
    """
    _check_size(N, MIN_SAMPLES, "signature test")
    center, var = signature_moments(N, config.variant)
    halfwidth = config.gamma * np.sqrt(var)
    upper = np.minimum(center + halfwidth, 1.0)
    lower = np.maximum(center - halfwidth, 0.0)
    return SignatureBounds(upper=upper, lower=lower)


def _violations(s: np.ndarray, bounds: SignatureBounds):
    """(C, flags) of a signature, or of each row of a 2-d array of them."""
    return _fraction((s < bounds.lower) | (s > bounds.upper))


def _fraction(flags: np.ndarray):
    """(C, flags): C the fraction of flagged indices along the last axis,
    counted in 16 bits where no count can wrap (numpy sums a bool row
    into 16 bits about three times as fast as into 64)."""
    N = flags.shape[-1]
    return _add_reduce(flags, axis=-1, dtype=np.uint16 if N < 1 << 16 else np.intp) / N, flags


def count_violations(signature, bounds: SignatureBounds):
    """Count indices of a signature array strictly outside the band.

    ``signature`` is the array ``compute_signature`` returns. A violation
    is s_n < L(n) or s_n > U(n); touching a bound is not a violation.
    Returns ``(C, flags)`` where C = mean(flags) exactly.

    Raises
    ------
    LengthMismatchError
        If signature and bounds differ in length.
    """
    s = np.asarray(signature, dtype=np.float64)
    if len(s) != len(bounds):
        raise LengthMismatchError(
            f"signature length {len(s)} != bounds length {len(bounds)}"
        )
    C, flags = _violations(s, bounds)
    return float(C), flags


# The float map _half_normal_cdf can fall below an earlier value, by at
# most 3 ulps of that value where tests/test_core.py scans it (3.3e-16 at
# most). A threshold build allows three times that, _MARGIN_ULPS ulps of
# each level (1e-15 for a level in [0.5, 1)), and searches at most
# _WINDOW_CAP consecutive doubles per level; see _crossings.
_MARGIN_ULPS = 9
_WINDOW_CAP = 4096
_SPAN = 8  # doubles per row of a window (_crossings)


def _margin(level: np.ndarray) -> np.ndarray:
    """_MARGIN_ULPS ulps of the values near each level; a level just below
    a power of 2 takes the wider ulps above it."""
    return _MARGIN_ULPS * np.spacing(level * (1.0 + 1e-12))


def _crossings(level: np.ndarray):
    """For each level T in (0, 1), (t, a, b): t the smallest double t >= 0
    with f(t) > T, f being _half_normal_cdf, where that t decides every
    double x >= 0: f(x) > T exactly when x >= t. NaN where no such t was
    shown to exist. [a, b] is the window checked for T: every double
    x < a maps below T and every x > b above it; [-inf, inf] where the
    window could not be checked.

    f is not monotone across consecutive doubles, but no value falls
    below an earlier one by more than a third of the margin M of the
    levels near it (_margin). So every x below a double a with
    f(a) < T - M maps below T, and every x above a double b with
    f(b) > T + M maps above it. a and b are seeded by erfinv at T -+ 1.5 M
    (a < 0 or b NaN near the ends of [0, 1]) and checked through f; every
    double between them is mapped, and t is where they rise above T, if
    they rise once. A window wider than _WINDOW_CAP doubles (f nearly
    flat) is not searched.

    Each window is mapped in rows of _SPAN consecutive doubles, its last
    row running past b (where every double maps above T, adding no
    rise), and the rows go in blocks of about core._BLOCK_VALUES doubles
    (_value_blocks). A block is one (rows x _SPAN) array, mapped in place
    and compared with its rows' levels as a column, so no value is
    repeated for every double. Beside them the build keeps five arrays
    of one value per level (the levels, a, b, t and a mask: the margins
    and window lengths are dropped before the blocks) and fills the
    unchecked windows in place.
    """
    m = _margin(level)
    a, b = _SQRT2 * erfinv(level - 1.5 * m), _SQRT2 * erfinv(level + 1.5 * m)
    sure = (a > 0.0) & (b < np.inf)  # refuses NaN too
    a[~sure], b[~sure] = 1.0, 1.0
    sure &= (_half_normal_cdf(a) < level - m) & (_half_normal_cdf(b) > level + m)
    del m
    start = a.view(np.int64)  # a nonnegative double's bits order it among the doubles
    last = b.view(np.int64) - start  # each window's last double, counted from its first
    todo = np.flatnonzero(sure & (last > 0) & (last < _WINDOW_CAP))
    rows = last[todo] // _SPAN + 1
    del last
    t = np.full(level.shape, np.nan)
    for begin, end in _value_blocks(rows * _SPAN):
        cols = todo[begin:end]
        r = rows[begin:end]
        first = np.cumsum(r) - r  # each window's first row in the block
        offset = start[cols] - _SPAN * first  # block position p: the double of bits offset + p
        fx = np.repeat(offset, r)
        fx += _SPAN * np.arange(len(fx))  # the first double of each row
        fx = fx[:, None] + np.arange(_SPAN)
        fx = _half_normal_cdf(fx.view(np.float64), out=fx.view(np.float64))
        above = (fx > np.repeat(level[cols], r)[:, None]).ravel()
        # every window starts below T and ends above it, so it changes
        # side once exactly when it rises once
        rise = np.flatnonzero(above[1:] > above[:-1]) + 1
        window = np.searchsorted(first * _SPAN, rise, side="right") - 1
        once = np.bincount(window, minlength=len(cols)) == 1
        at = np.empty(len(cols), dtype=np.intp)
        at[window] = rise
        t[cols[once]] = (offset + at)[once].view(np.float64)
    a[~sure], b[~sure] = -np.inf, np.inf
    return t, a, b


class _Band:
    """What _frozen_bounds caches per key: the band's read-only ``upper``
    and ``lower``, and under signature 1 its |z| thresholds, built at its
    second row batch (a run that meets an N once never pays for them).
    With them, index n of a sorted |z| row violates exactly when
    x_n < lo[n] or x_n >= hi[n], except for a value inside the window
    [start[j], stop[j]] of its column exceptions[j] (listed once for each
    of its bounds without a crossing), which is mapped through erf and
    compared with the band. Two threads may both build the thresholds;
    either result is the same."""

    def __init__(self, bounds: SignatureBounds):
        self.upper, self.lower = bounds.upper, bounds.lower
        self.batches = 0
        self.thresholds = None  # (lo, hi, exceptions, start, stop)

    def count_batch(self):
        """Count a signature 1 row batch; the second builds the thresholds."""
        if self.thresholds is None:
            self.batches += 1
            if self.batches > 1:
                self.thresholds = self._build()

    def _build(self):
        """The thresholds. f = _half_normal_cdf maps every double x >= 0
        into [0, 1], so a lower bound of 0 is never violated (lo = 0) and
        an upper bound of 1 never (hi = inf). Every other bound gets its
        _crossings in one call: hi where f rises above U, lo where it
        rises above the double below L (f >= L exactly when f > that
        double). A bound with no crossing makes its column an exception
        with the bound's checked window [a, b]: outside it the side
        decides (f < L below a lower bound's window, so lo = a; f > U
        above an upper bound's, so hi is the double after b), and inside
        it erf does."""
        lo, hi = np.zeros(len(self.lower)), np.full(len(self.upper), np.inf)
        low, high = self.lower > 0.0, self.upper < 1.0
        n = np.count_nonzero(low)
        t, a, b = _crossings(np.concatenate([np.nextafter(self.lower[low], 0.0), self.upper[high]]))
        miss = np.isnan(t)
        lo[low] = np.where(miss[:n], a[:n], t[:n])
        hi[high] = np.where(miss[n:], np.nextafter(b[n:], np.inf), t[n:])
        e = np.concatenate([np.flatnonzero(low), np.flatnonzero(high)])[miss]
        return lo, hi, e, a[miss], b[miss]

    def flags(self, x: np.ndarray) -> np.ndarray:
        """The violation flags of each row of a 2-d array of sorted |z|,
        equal to the band compare of their erf map bit for bit."""
        lo, hi, exceptions, start, stop = self.thresholds
        flags = x < lo
        flags |= x >= hi
        xe = x[:, exceptions]
        inside = xe >= start
        inside &= xe <= stop
        if inside.any():
            rows, j = np.nonzero(inside)
            n = exceptions[j]
            s = _half_normal_cdf(xe[rows, j])
            flags[rows, n] = (s < self.lower[n]) | (s > self.upper[n])
        return flags


@lru_cache(maxsize=128)
def _frozen_bounds(N: int, gamma: float, variant: SignatureVariant) -> _Band:
    """compute_bounds output cached per (N, gamma, variant) as a _Band,
    which under signature 1 builds its |z| thresholds at its second row
    batch.

    The band is a pure formula of its key, so reusing it is invisible to
    callers; it just removes the dominant per-call cost of sigtest. The
    thresholds cost two erfinv seeds per bound and f on each double of
    their search windows (about 90 per column): 0.4-0.6 ms at N = 199,
    1.9-3.6 ms at 999 and 21-30 ms at 9999 on a shared 2-core host.
    cache_clear drops them with the band.
    """
    b = compute_bounds(N, SigtestConfig(gamma=gamma, variant=variant))
    b.upper.setflags(write=False)
    b.lower.setflags(write=False)
    return _Band(b)


def _signature_rows(Y: np.ndarray, config: SigtestConfig, band=None):
    """The signature test of each row (along the last axis) of a float64
    array with at least MIN_SAMPLES columns; a 1-d array is one row. One
    normalize and one sort cover the array given, so a caller bounds its
    memory by the rows it passes. It is entered two ways: :func:`sigtest`
    passes one sample and no band, and meets the band cache only once
    normalize accepts it; _sigtest_rows passes each row block of a batch
    with the batch's ``band``.

    A band whose |z| thresholds are built decides the sorted |z| itself
    (_Band.flags: two compares, and erf only on the values inside its
    exception windows). Otherwise (sigtest, signature 2, a first batch)
    the rows take one erf map and one band compare. Both give the same
    flags bit for bit. The abs, the sort, the /sqrt(2) scale, the erf and
    signature 2's running mean run in place on the normalized copy, which
    the kernel owns, so the signature map allocates no array of Y's size
    beyond _normalized_rows'.

    Returns (C, flags, ok); a row with ok False (zero spread, or squared
    deviations that overflow) has no verdict, and its C and flags are
    meaningless. A 1-d array that normalize refuses raises its error.
    """
    Z, ok = _normalized_rows(Y)
    x = _sorted_abs(Z, out=Z)
    if band is not None and band.thresholds is not None:
        return (*_fraction(band.flags(x)), ok)
    s = _half_normal_cdf(x, out=x)
    if config.variant is SignatureVariant.SIGNATURE2:
        s = _running_mean(s, out=s)
    if band is None:
        band = _frozen_bounds(Y.shape[-1], config.gamma, config.variant)
    C, flags = _violations(s, band)
    return C, flags, ok


def sigtest(y, config: SigtestConfig = SigtestConfig()) -> TestOutcome:
    """Run the full signature test on a raw 1-d sample.

    Pipeline: normalize -> sorted_abs -> compute_signature ->
    compute_bounds -> count_violations; split = (C > threshold).
    Deterministic, and invariant under permutation and affine maps
    a*y + b (a != 0) of the input while the squared deviations of a*y
    stay within the float range (for a sample of spread 1, |a| up to
    about 1e154 / sqrt(N)); beyond that it raises DegenerateInputError.

    The sample is validated once, then runs as the one-row case of the
    row-batched kernel that :func:`_sigtest_rows` calls, with the
    band cached per (N, gamma, variant). A single sample always takes
    the kernel's erf map and band compare, never the |z| thresholds of
    row batches, so a first call at a new N builds nothing beyond the
    band; a test pins the outputs as exactly equal to composing the
    public stage functions.

    Raises
    ------
    TooFewSamplesError
        If len(y) < MIN_SAMPLES.
    DegenerateInputError
        If the sample has zero spread or its squared deviations overflow.
    NonFiniteInputError
        If the sample contains NaN or infinity.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        y = as_sample(y)  # shape/empty errors with the standard messages
    _check_size(y.size, MIN_SAMPLES, "signature test")
    C, flags, _ = _signature_rows(y, config)
    C = float(C)
    return TestOutcome(C=C, violations=flags, split=bool(C > config.threshold),
                       variant=config.variant, N=y.size)


def _sigtest_rows(Y, config: SigtestConfig):
    """(C, split) of each row of a 2-d array, from one call of the kernel
    that :func:`sigtest` runs on one row, so each row's C and split equal
    sigtest on that row exactly. N, the number of columns, is checked
    before any moment is formed. A row sigtest would refuse as degenerate
    (zero spread, or squared deviations that overflow) gets C = NaN and
    does not split. No rows is no batch: it returns before the lookup.

    The band is looked up once and the call counts as one batch; the
    rows are then decided in blocks of core._block_rows(N), so the
    normalized copy, its squares and the flags exist one block at a
    time, and Y is never written. Under signature 1 the first batch at
    an N maps every value through erf; the second builds the band's |z|
    thresholds (see _frozen_bounds for the cost) before any block is
    normalized, and from then on a batch costs the abs, the sort, two
    compares and the count, plus erf on the few values inside the
    exception windows. Signature 2 keeps the erf map. Every way gives the
    same C bit for bit.

    Raises
    ------
    ValueError
        If Y is not 2-d.
    TooFewSamplesError
        If N < MIN_SAMPLES.
    NonFiniteInputError
        If Y contains NaN or infinity.
    """
    Y = _test_rows(Y, MIN_SAMPLES, "signature test")  # each row summed in sigtest's order
    C = np.empty(len(Y))
    if not len(Y):
        return C, C > config.threshold
    band = _frozen_bounds(Y.shape[1], config.gamma, config.variant)
    if config.variant is SignatureVariant.SIGNATURE1:
        band.count_batch()
    rows = _block_rows(Y.shape[1])
    for start in range(0, len(Y), rows):
        c, _, ok = _signature_rows(Y[start:start + rows], config, band)
        c[~ok] = np.nan
        C[start:start + rows] = c
    return C, C > config.threshold
