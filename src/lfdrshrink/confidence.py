"""Per-feature confidence posterior for a normal mean from paired differences.

A feature's replicate differences reduce to a one-sample t summary; the
induced distribution over the mean is the location-scale t with center at
the sample mean, scale equal to the standard error, and n - 1 degrees of
freedom. Its CDF acts as a significance function: a CDF in theta for fixed
data, uniformly distributed at the true theta across repeated samples.

``summarize`` is a batch of one of the t summaries ``posterior.shrink``
computes, and ``shrink`` uses the formula of ``conditional_interval``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .numerics import _t_df, student_t_cdf, student_t_quantile

__all__ = [
    "PairedSample",
    "TSummary",
    "ConditionalPosterior",
    "summarize",
    "conditional_posterior",
    "conditional_cdf",
    "conditional_quantile",
    "conditional_interval",
]


@dataclass(frozen=True)
class PairedSample:
    """Replicate treatment-minus-control differences for one feature."""

    diffs: tuple[float, ...]
    feature_id: str = ""

    def __init__(self, diffs, feature_id: str = ""):
        object.__setattr__(self, "diffs", tuple(float(d) for d in diffs))
        object.__setattr__(self, "feature_id", str(feature_id))


@dataclass(frozen=True)
class TSummary:
    """Sufficient statistics of a paired sample for t-based inference."""

    mean: float
    sd: float
    n: int
    se: float
    t: float
    df: float


@dataclass(frozen=True)
class ConditionalPosterior:
    """Location-scale t distribution over the mean, given the data."""

    center: float
    scale: float
    df: float

    def __post_init__(self):
        _scalar_fields(self, "center", "scale", "df")
        if not math.isfinite(self.center):
            raise DomainError(f"ConditionalPosterior requires a finite center, got {self.center}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"ConditionalPosterior requires a finite scale > 0, got {self.scale}")
        _t_df(self.df, "ConditionalPosterior")


def _scalar_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` that holds a
    numpy scalar or 0-d array as a float. A field that holds an array, even
    of one element, is a DomainError that names the class and the field."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is float:  # the common case; np.ndim costs ~1 us a call
            continue
        if np.ndim(value) != 0:
            raise DomainError(
                f"{type(obj).__name__} takes one scalar {name}, "
                f"got an array of shape {np.shape(value)}"
            )
        if isinstance(value, (np.ndarray, np.generic)):
            object.__setattr__(obj, name, float(value))


# numpy sums fewer than this many values in order, so below it the column
# sums of ``_row_mean_sd`` equal its row reductions bit for bit; from here
# on numpy's pairwise summation changes the order
_PAIRWISE_MIN_N = 8


def _row_mean_sd(data: np.ndarray):
    """``mean(axis=1)`` and ``std(axis=1, ddof=1)`` of an m-by-n matrix
    with n < _PAIRWISE_MIN_N, as numpy computes them, from sums of whole
    columns, which numpy does much faster than reductions of short rows."""
    n = data.shape[1]
    total = data[:, 0] + data[:, 1]
    for k in range(2, n):
        total += data[:, k]
    means = total / n
    squares = None
    for k in range(n):
        dev = data[:, k] - means
        dev *= dev
        squares = dev if squares is None else np.add(squares, dev, out=squares)
    squares /= n - 1
    return means, np.sqrt(squares, out=squares)


def _t_summaries(data, theta0: float, feature_ids=None):
    """Means, sds, ses, t statistics against theta0 and df = n - 1 of an
    m-by-n matrix of replicate differences, one row per feature.

    A DataError names the first row with fewer than two, non-finite or
    all-equal values by its entry in ``feature_ids``, or by its row index
    when no ids are given.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or (data.shape[1] < 2 and not len(data)):
        raise DataError("need a matrix with at least 2 replicate differences per feature")
    m, n = data.shape
    if feature_ids is not None and len(feature_ids) != m:
        raise DataError(f"got {len(feature_ids)} feature ids for {m} features")
    names = range(m) if feature_ids is None else feature_ids
    if n < 2:
        raise DataError(f"feature {names[0]!r}: need at least 2 replicate differences")
    if not np.isfinite(data).all():
        nonfinite = np.flatnonzero(~np.isfinite(data).all(axis=1))
        raise DataError(f"feature {names[nonfinite[0]]!r}: non-finite replicate difference")
    if n < _PAIRWISE_MIN_N:
        means, sds = _row_mean_sd(data)
    else:
        means, sds = data.mean(axis=1), data.std(axis=1, ddof=1)
    degenerate = np.flatnonzero(sds == 0.0)
    if degenerate.size:
        raise DataError(f"feature {names[degenerate[0]]!r}: replicate differences are all equal")
    ses = sds / math.sqrt(n)
    return means, sds, ses, (means - theta0) / ses, float(n - 1)


def summarize(sample: PairedSample) -> TSummary:
    """Reduce one feature's differences to its t summary.

    Raises DataError for fewer than two replicates, non-finite values, or
    a zero-variance (degenerate) sample, naming the feature by its id, or
    as feature 0 when it has none.
    """
    ids = (sample.feature_id,) if sample.feature_id else None
    means, sds, ses, ts, df = _t_summaries([sample.diffs], 0.0, ids)
    mean, sd, se, t = (float(column[0]) for column in (means, sds, ses, ts))
    return TSummary(mean=mean, sd=sd, n=len(sample.diffs), se=se, t=t, df=df)


def conditional_posterior(summary: TSummary) -> ConditionalPosterior:
    """The confidence posterior determined by a t summary."""
    return ConditionalPosterior(center=summary.mean, scale=summary.se, df=summary.df)


def conditional_cdf(cp: ConditionalPosterior, theta):
    """P(mean <= theta | data); strictly increasing in theta."""
    return student_t_cdf((np.asarray(theta, dtype=np.float64) - cp.center) / cp.scale, cp.df)


def conditional_quantile(cp: ConditionalPosterior, p):
    """Inverse of conditional_cdf; requires 0 < p < 1."""
    return cp.center + cp.scale * student_t_quantile(p, cp.df)


def conditional_interval(
    cp: ConditionalPosterior, alpha1: float, alpha2: float
) -> tuple[float, float]:
    """Central-coverage interval [q(alpha1), q(1 - alpha2)]."""
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise DomainError("conditional_interval requires alpha1, alpha2 in (0, 1)")
    if not alpha1 + alpha2 < 1.0:
        raise DomainError("conditional_interval requires alpha1 + alpha2 < 1")
    return (
        conditional_quantile(cp, alpha1),
        conditional_quantile(cp, 1.0 - alpha2),
    )
