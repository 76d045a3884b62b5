"""Numerical primitives shared by the unimodality tests.

Everything here is a pure function of its arguments and is safe to call
from any number of threads. Samples are plain 1-d float arrays; the
helpers validate shape and finiteness on entry.
"""

import math
import operator

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateInputError,
    NegativeInputError,
    NonFiniteInputError,
    TooFewSamplesError,
)

_SQRT2 = float(np.sqrt(2.0))
_add_reduce = np.add.reduce  # same pairwise sum ndarray.mean uses, less dispatch
_BLOCK_VALUES = 1 << 16  # values per block of rows or replicates: ~1 MB with temporaries


def as_sample(values) -> np.ndarray:
    """Coerce to a 1-d float64 array, rejecting empty or non-finite input."""
    return _test_sample(values, 1, "sample")


def _test_sample(values, minimum: int, test: str) -> np.ndarray:
    """as_sample for ``test``: empty input of any shape, then a shape with
    more than one axis of length above 1, then fewer than ``minimum``
    values (_check_size), then a NaN or infinity is refused, the order of
    every test's checks."""
    y = np.asarray(values, dtype=np.float64)
    if y.size == 0:
        raise DegenerateInputError("empty sample")
    if y.ndim != 1:
        y = y.reshape(-1) if y.size == max(y.shape, default=0) else y
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {y.shape}")
    _check_size(y.size, minimum, test)
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError("sample contains NaN or infinite values")
    return y


def _test_rows(Y, minimum: int, test: str) -> np.ndarray:
    """The rows of a batched ``test`` as a C-contiguous float64 2-d array:
    a shape with other than two axes, then rows of fewer than ``minimum``
    values (_check_size), then a NaN or infinity is refused, the order of
    _test_sample's checks. Finiteness is checked in blocks of
    _block_rows(N) rows, so its mask is one block's."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError(f"expected a 2-d array of rows, got shape {Y.shape}")
    _check_size(Y.shape[1], minimum, test)
    rows = _block_rows(Y.shape[1])
    for start in range(0, len(Y), rows):
        if not np.isfinite(Y[start:start + rows]).all():
            raise NonFiniteInputError("sample contains NaN or infinite values")
    return np.ascontiguousarray(Y)


def _integer(value, name: str) -> int:
    """``value`` as an int by operator.index, or a TypeError naming it; a
    bool is refused too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_size(N: int, minimum: int, test: str) -> None:
    """The sample-size rule of every test: raise TooFewSamplesError, naming
    ``test`` and N, unless a sample of N values has at least ``minimum``."""
    if N < minimum:
        raise TooFewSamplesError(f"{test} needs N >= {minimum}, got {N}")


def _block_rows(width: int) -> int:
    """Rows of ``width`` values per block of about _BLOCK_VALUES values, at
    least one: the one block rule of the row kernels."""
    return max(1, _BLOCK_VALUES // max(1, width))


def _value_blocks(widths: np.ndarray) -> list:
    """(start, stop) of each block of consecutive items whose widths sum
    to at most _BLOCK_VALUES values (an item wider than that is a block of
    its own): the block rule of _block_rows for items of unequal width."""
    ends = np.cumsum(widths)
    blocks, start = [], 0
    while start < len(ends):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _BLOCK_VALUES, side="right")))
        blocks.append((start, stop))
        start = stop
    return blocks


def _row_moments(Y: np.ndarray, out=None):
    """Mean, deviations and sum of squared deviations of each row (along the
    last axis) of a float64 array, a 1-d array being one row: the one place
    a sample's moments are formed. The deviations go into a new array, or
    into ``out`` (which may be Y). The sum is add.reduce(D * D, -1); its
    squares are one array of Y's size, so a caller bounds them by the
    rows it passes. An overflow leaves a non-finite mean or sum, without
    a warning."""
    # Y.T puts the row axis last, so the per-row moments broadcast along
    # it; a 1-d Y is its own transpose and meets plain scalars
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _add_reduce(Y, -1) / Y.shape[-1]
        D = np.subtract(Y.T, mean, out=None if out is None else out.T).T
        return mean, D, _add_reduce(D * D, -1)


def _spread_ok(mean, scale):
    """normalize's degenerate-input rule on _row_moments' mean and 1/N scale:
    True where the row has a usable spread. NaN fails every comparison,
    so a non-finite moment fails too; the relative floor catches constant
    rows whose mean subtraction leaves only rounding residue."""
    return (scale > 0.0) & (scale < np.inf) & (scale >= np.abs(mean) * 1e-13)


def _normalized_rows(Y: np.ndarray):
    """normalize() of each row of a float64 array of at least two columns,
    in one pass over the whole array.

    Returns (Z, ok). A row that normalize would refuse (zero spread, or a
    mean or squared deviations that overflow) has ok False and comes back
    as zeros; a 1-d array is one sample, and raises normalize's
    DegenerateInputError instead. NaN/Inf are only looked for when some
    mean comes out non-finite (a finite mean is impossible with any
    present), and raise NonFiniteInputError.
    """
    mean, Z, ss = _row_moments(Y)
    scale = np.sqrt(ss / Y.shape[-1])
    ok = _spread_ok(mean, scale)
    if np.count_nonzero(ok) < ok.size:
        if not np.isfinite(mean).all() and not np.isfinite(Y).all():
            raise NonFiniteInputError("sample contains NaN or infinite values")
        if Y.ndim == 1:
            raise _degenerate_error(mean, ss)
        Z[~ok] = 0.0
        scale = np.where(ok, scale, 1.0)
    ZT = Z.T
    ZT /= scale
    return Z, ok


def _degenerate_error(mean, ss) -> DegenerateInputError:
    """Why _spread_ok refuses a sample of _row_moments' mean and sum of
    squares ss, as the error to raise."""
    if not math.isfinite(mean):
        return DegenerateInputError("sample magnitude overflows: the mean is not finite")
    if not math.isfinite(ss):
        return DegenerateInputError(
            "sample magnitude overflows: the squared deviations exceed the float range")
    return DegenerateInputError("zero spread: all values are equal")


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
    return _normalized_rows(y)[0]


def _sorted_abs(y: np.ndarray, out=None) -> np.ndarray:
    """|y| sorted along the last axis (each row of a 2-d array on its
    own), into a new array, or into ``out`` (which may be y itself)."""
    a = np.abs(y, out=out)
    a.sort()
    return a


def sorted_abs(samples) -> np.ndarray:
    """Absolute values sorted ascending."""
    return _sorted_abs(as_sample(samples))


def _half_normal_cdf(t, out=None):
    """erf(t / sqrt(2)), into a new array, or into ``out`` (which may be t
    itself)."""
    return erf(np.divide(t, _SQRT2, out=out), out=out)


def half_normal_cdf(t):
    """P(|Z| <= t) for standard normal Z, i.e. 2*Phi(t) - 1 = erf(t/sqrt(2)).

    Accepts a scalar or array of nonnegative values (+inf maps to 1).
    The float map is not monotone: between consecutive doubles it can
    step down by about 3 ulps of its value (at most 3.3e-16 where it was
    scanned), though it never leaves [0, 1].

    Raises
    ------
    NegativeInputError
        If any value is below zero or NaN.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(t_arr >= 0):
        raise NegativeInputError("half-normal CDF is defined for t >= 0, not below 0 or NaN")
    out = _half_normal_cdf(t_arr)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out
