"""Marginal confidence posterior: a null-value atom mixed with the
conditional t posterior, weighted by the feature's local false discovery
rate. Shrunken quantiles, intervals, medians, and observed confidence
levels all derive from inverting its CDF.

``shrink`` runs the whole pipeline on a matrix of replicate differences.
``confidence.summarize`` and the scalar functions here are batch-of-one
calls of its steps, so a per-feature loop reproduces its columns bit for bit.

The quantile uses the generalized-inverse convention
inf{theta : cdf(theta) >= alpha}. The observed confidence levels below and
above the null value, (1 - lfdr) F0 and (1 - lfdr)(1 - F0) with F0 the
conditional CDF at theta0, decide its side: q(alpha) < theta0 exactly when
alpha < conf_below, q(alpha) > theta0 exactly when 1 - alpha < conf_above,
and the atom absorbs everything in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import ConditionalPosterior, _t_summaries, conditional_cdf
from .errors import DomainError
from .lfdr import DEFAULT_BINS, DEFAULT_DEGREE, MixtureFit, ZVector, fit_mixture, lfdr_at, probit_transform
from .numerics import student_t_cdf, student_t_quantile

__all__ = [
    "MarginalPosterior",
    "ShrunkenInterval",
    "ObservedConfidenceLevels",
    "Shrinkage",
    "shrink",
    "marginal_cdf",
    "marginal_quantile",
    "marginal_quantile_batch",
    "shrunken_interval",
    "posterior_median",
    "posterior_mean",
    "observed_confidence_levels",
]


@dataclass(frozen=True)
class MarginalPosterior:
    """Atom-plus-continuous mixture for one feature."""

    lfdr: float
    theta0: float
    conditional: ConditionalPosterior

    def __post_init__(self):
        if not 0.0 <= self.lfdr <= 1.0:
            raise DomainError("MarginalPosterior requires lfdr in [0, 1]")
        if not math.isfinite(self.theta0):
            raise DomainError(f"MarginalPosterior requires a finite theta0, got {self.theta0}")


@dataclass(frozen=True)
class ShrunkenInterval:
    level: float
    lower: float
    upper: float
    degenerate: bool


@dataclass(frozen=True)
class ObservedConfidenceLevels:
    """Posterior probabilities below, at, and above the null value."""

    below: float
    at_null: float
    above: float


@dataclass(frozen=True)
class Shrinkage:
    """Per-feature columns of the shrinkage pipeline, aligned with the rows
    of its input, plus the shared mixture fit.

    The column names are those of the ``analyze`` report;
    ``conditional_below`` is the conditional CDF at theta0, and the
    conditional median is the mean.
    """

    mean: np.ndarray
    t: np.ndarray
    z: np.ndarray
    lfdr: np.ndarray
    median_conditional: np.ndarray
    median_marginal: np.ndarray
    ci_lo_conditional: np.ndarray
    ci_hi_conditional: np.ndarray
    ci_lo_marginal: np.ndarray
    ci_hi_marginal: np.ndarray
    conf_below: np.ndarray
    conf_at_null: np.ndarray
    conf_above: np.ndarray
    conditional_below: np.ndarray
    fit: MixtureFit
    theta0: float
    level: float

    @property
    def pi0_hat(self) -> float:
        return self.fit.pi0_hat


def shrink(
    data,
    theta0: float,
    level: float,
    *,
    bins: int = DEFAULT_BINS,
    degree: int = DEFAULT_DEGREE,
    feature_ids=None,
) -> Shrinkage:
    """Run the shrinkage pipeline on an m-by-n matrix of replicate
    differences, one row per feature.

    The t and z statistics test the null that the mean equals theta0, and
    the intervals have central coverage ``level``. Non-finite values and
    zero-variance rows raise a DataError naming the feature by its entry
    in ``feature_ids``, or by its row index when no ids are given;
    ``feature_ids`` must have one entry per row. A level outside (0, 1) or
    a non-finite theta0 is a DomainError.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"shrink requires 0 < level < 1, got {level}")
    if not np.isfinite(theta0):
        raise DomainError(f"shrink requires a finite theta0, got {theta0}")
    means, _, ses, ts, df = _t_summaries(data, theta0, feature_ids)
    zs = probit_transform(ts, df)
    fit = fit_mixture(ZVector(zs, df), bins=bins, degree=degree)
    lf = lfdr_at(fit, zs)

    alpha = (1.0 - level) / 2.0
    # conditional_interval's quantiles; the t quantile is lane-independent,
    # so one two-lane call equals its two scalar calls bit for bit
    t_lo, t_hi = student_t_quantile(np.array([alpha, 1.0 - alpha]), df)
    f_at_null, below, at_null, above = _confidence_levels(lf, means, ses, df, theta0)
    lo, hi, median = (
        _marginal_quantile(lf, means, ses, df, theta0, a, below, above)
        for a in (alpha, 1.0 - alpha, 0.5)
    )
    return Shrinkage(
        mean=means,
        t=ts,
        z=zs,
        lfdr=lf,
        median_conditional=means,
        median_marginal=median,
        ci_lo_conditional=means + ses * t_lo,
        ci_hi_conditional=means + ses * t_hi,
        ci_lo_marginal=lo,
        ci_hi_marginal=hi,
        conf_below=below,
        conf_at_null=at_null,
        conf_above=above,
        conditional_below=f_at_null,
        fit=fit,
        theta0=theta0,
        level=level,
    )


def marginal_cdf(mp: MarginalPosterior, theta):
    """Right-continuous mixture CDF with a jump of height lfdr at theta0."""
    theta_arr = np.asarray(theta, dtype=np.float64)
    atom = np.where(theta_arr >= mp.theta0, mp.lfdr, 0.0)
    out = atom + (1.0 - mp.lfdr) * conditional_cdf(mp.conditional, theta_arr)
    return float(out) if np.ndim(theta) == 0 else out


def marginal_quantile_batch(
    lfdr,
    center,
    scale,
    df: float,
    theta0: float,
    alpha: float,
) -> float | np.ndarray:
    """Generalized inverse of the marginal CDF at alpha in (0, 1),
    elementwise over features sharing df and theta0.

    A feature off the atom (module docstring) solves the conditional
    quantile once, at alpha / (1 - lfdr) below theta0 or at
    1 - (1 - alpha) / (1 - lfdr) above it, clamped to that side of theta0.

    ``lfdr``, ``center`` and ``scale`` broadcast together; all-scalar input
    gives a float.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("marginal quantile requires 0 < alpha < 1")
    arrays = (np.asarray(a, dtype=np.float64) for a in (lfdr, center, scale))
    lf, center, scale = np.broadcast_arrays(*arrays)
    _, below, _, above = _confidence_levels(lf, center, scale, df, theta0)
    out = _marginal_quantile(lf, center, scale, df, theta0, alpha, below, above)
    return float(out) if out.ndim == 0 else out


def _marginal_quantile(lf, center, scale, df, theta0, alpha, below, above) -> np.ndarray:
    """``marginal_quantile_batch`` on arrays of one shape, given the
    observed confidence levels ``below`` and ``above`` theta0."""
    keep = 1.0 - lf
    low = alpha < below
    with np.errstate(divide="ignore"):
        p = np.where(low, alpha / keep, 1.0 - (1.0 - alpha) / keep)
    solve = (low | (1.0 - alpha < above)) & (p > 0.0) & (p < 1.0)
    q = center[solve] + scale[solve] * student_t_quantile(p[solve], df)
    out = np.full(lf.shape, float(theta0))
    out[solve] = np.where(low[solve], np.minimum(q, theta0), np.maximum(q, theta0))
    return out


def _quantile(mp: MarginalPosterior, alpha: float) -> float:
    cp = mp.conditional
    return marginal_quantile_batch(mp.lfdr, cp.center, cp.scale, cp.df, mp.theta0, alpha)


def marginal_quantile(mp: MarginalPosterior, alpha: float) -> float:
    """Generalized inverse of the marginal CDF at alpha in (0, 1)."""
    return _quantile(mp, alpha)


def shrunken_interval(
    mp: MarginalPosterior, alpha1: float, alpha2: float
) -> ShrunkenInterval:
    """Interval [q(alpha1), q(1 - alpha2)] of the marginal posterior."""
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise DomainError("shrunken_interval requires alpha1, alpha2 in (0, 1)")
    if not alpha1 + alpha2 < 1.0:
        raise DomainError("shrunken_interval requires alpha1 + alpha2 < 1")
    lower = _quantile(mp, alpha1)
    upper = _quantile(mp, 1.0 - alpha2)
    return ShrunkenInterval(
        level=1.0 - alpha1 - alpha2,
        lower=lower,
        upper=upper,
        degenerate=(lower == mp.theta0 and upper == mp.theta0),
    )


def posterior_median(mp: MarginalPosterior) -> float:
    """Shrunken point estimate: the 50% quantile of the mixture."""
    return _quantile(mp, 0.5)


def posterior_mean(mp: MarginalPosterior) -> float:
    """Mixture mean; undefined (DomainError) when df <= 1."""
    if not mp.conditional.df > 1.0:
        raise DomainError("posterior mean requires df > 1 (heavy-tailed otherwise)")
    return mp.lfdr * mp.theta0 + (1.0 - mp.lfdr) * mp.conditional.center


def _confidence_levels(lfdr, center, scale, df: float, theta0: float):
    """The conditional CDF at theta0, and the marginal posterior
    probabilities below, at and above theta0."""
    f_at_null = student_t_cdf((theta0 - center) / scale, df)
    keep = 1.0 - lfdr
    return f_at_null, keep * f_at_null, lfdr, keep * (1.0 - f_at_null)


def observed_confidence_levels(mp: MarginalPosterior) -> ObservedConfidenceLevels:
    """Posterior probabilities that the mean is below/at/above theta0."""
    cp = mp.conditional
    _, below, at_null, above = _confidence_levels(mp.lfdr, cp.center, cp.scale, cp.df, mp.theta0)
    return ObservedConfidenceLevels(below=below, at_null=at_null, above=above)
