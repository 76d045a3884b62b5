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

from .core import (
    _add_reduce,
    _check_size,
    _half_normal_cdf,
    _normalized_rows,
    _sorted_abs,
    _test_rows,
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
    flags = (s < bounds.lower) | (s > bounds.upper)
    return _add_reduce(flags, axis=-1, dtype=np.intp) / s.shape[-1], flags


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


@lru_cache(maxsize=128)
def _frozen_bounds(N: int, gamma: float, variant: SignatureVariant):
    """compute_bounds output cached per (N, gamma, variant).

    The band is a pure formula of its key, so reusing it is invisible to
    callers; it just removes the dominant per-call cost of sigtest.
    """
    b = compute_bounds(N, SigtestConfig(gamma=gamma, variant=variant))
    b.upper.setflags(write=False)
    b.lower.setflags(write=False)
    return b


def _signature_rows(Y: np.ndarray, config: SigtestConfig):
    """The signature test of each row (along the last axis) of a float64
    array with at least MIN_SAMPLES columns; a 1-d array is one row. One
    normalize, one sort, one erf map and one band compare cover the whole
    array. The abs, the sort, the /sqrt(2) scale, the erf and signature
    2's running mean run in place on the normalized copy, which the kernel
    owns, so the signature map allocates no array of Y's size beyond
    _normalized_rows'.

    Returns (C, flags, ok); a row with ok False (zero spread, or squared
    deviations that overflow) has no verdict, and its C and flags are
    meaningless. A 1-d array that normalize refuses raises its error.
    """
    Z, ok = _normalized_rows(Y)
    s = _half_normal_cdf(_sorted_abs(Z, out=Z), out=Z)
    if config.variant is SignatureVariant.SIGNATURE2:
        s = _running_mean(s, out=s)
    C, flags = _violations(s, _frozen_bounds(Y.shape[-1], config.gamma, config.variant))
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
    band cached per (N, gamma, variant); a test pins the outputs as
    exactly equal to composing the public stage functions.

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
    does not split.

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
    C, _, ok = _signature_rows(Y, config)
    C[~ok] = np.nan
    return C, C > config.threshold
