"""Numerical primitives shared by the unimodality tests.

Everything here is a pure function of its arguments and is safe to call
from any number of threads. Samples are plain 1-d float arrays; the
helpers validate shape and finiteness on entry.
"""

import math

import numpy as np
from scipy.special import erf

from .errors import DegenerateInputError, NegativeInputError, NonFiniteInputError

_SQRT2 = float(np.sqrt(2.0))
_add_reduce = np.add.reduce  # same pairwise sum ndarray.mean uses, less dispatch


def as_sample(values) -> np.ndarray:
    """Coerce to a 1-d float64 array, rejecting empty or non-finite input."""
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        y = y.reshape(-1) if y.size == max(y.shape, default=0) else y
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {y.shape}")
    if y.size == 0:
        raise DegenerateInputError("empty sample")
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError("sample contains NaN or infinite values")
    return y


def _normalized(y: np.ndarray) -> np.ndarray:
    """normalize() of a 1-d float64 array of at least two values.

    NaN/Inf are only looked for when the mean comes out non-finite (a
    finite mean is impossible with any present), so callers that skip
    as_sample still get NonFiniteInputError.
    """
    N = y.size
    mean = _add_reduce(y) / N
    if not math.isfinite(mean):
        as_sample(y)
        raise DegenerateInputError("sample magnitude overflows: the mean is not finite")
    d = y - mean
    scale = math.sqrt(_add_reduce(d * d) / N)
    if not math.isfinite(scale):
        raise DegenerateInputError(
            "sample magnitude overflows: the squared deviations exceed the float range")
    # relative floor catches constant vectors whose mean subtraction
    # leaves only rounding residue
    if scale == 0.0 or scale < abs(mean) * 1e-13:
        raise DegenerateInputError("zero spread: all values are equal")
    d /= scale
    return d


def normalize(samples) -> np.ndarray:
    """Shift to mean 0 and scale to unit population standard deviation.

    The scale is sqrt(mean((y - ybar)^2)), i.e. the 1/N convention, so the
    output is a deterministic canonical form: normalize(a*y + b) equals
    normalize(y) for any a > 0 and any b, as long as the squared
    deviations stay within the float range.

    Raises
    ------
    DegenerateInputError
        If fewer than two values, all values equal, or the squared
        deviations overflow.
    """
    y = as_sample(samples)
    if y.size < 2:
        raise DegenerateInputError("need at least two values to normalize")
    return _normalized(y)


def _sorted_abs(y: np.ndarray) -> np.ndarray:
    a = np.abs(y)
    a.sort(kind="stable")
    return a


def sorted_abs(samples) -> np.ndarray:
    """Absolute values sorted ascending (stable, so ties keep input order)."""
    return _sorted_abs(as_sample(samples))


def _half_normal_cdf(t):
    return erf(t / _SQRT2)


def half_normal_cdf(t):
    """P(|Z| <= t) for standard normal Z, i.e. 2*Phi(t) - 1 = erf(t/sqrt(2)).

    Accepts a scalar or array of nonnegative values; monotone nondecreasing.

    Raises
    ------
    NegativeInputError
        If any value is below zero.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise NegativeInputError("half-normal CDF is defined for t >= 0")
    out = _half_normal_cdf(t_arr)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out
