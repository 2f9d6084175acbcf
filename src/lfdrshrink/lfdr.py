"""Null-proportion and local false discovery rate estimation.

The m per-feature t statistics are mapped to the z scale (normal quantile
of the t CDF), where a true null gives z ~ N(0,1). The marginal z density
is fit by Lindsey's method: histogram the z values, clipped at |z| <= 7.941
so one extreme statistic cannot stretch the bins, model expected bin
counts as exp(polynomial in bin midpoint) via Poisson regression, and
normalize. The null proportion comes from central matching at zero, and
each feature's local false discovery rate is the null-to-marginal density
ratio there, clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, FitError
from .numerics import normal_pdf, normal_quantile, student_t_cdf

__all__ = [
    "ZVector",
    "MixtureFit",
    "probit_transform",
    "fit_mixture",
    "lfdr_at",
]

MIN_FEATURES = 100

DEFAULT_BINS = 120
# Even degree: an odd leading term skews the fitted log-density tails,
# which inflates the density-ratio estimates over the alternative-rich
# shoulder enough to cost interval coverage downstream.
DEFAULT_DEGREE = 6

# the fit and lfdr see z clipped at |z| <= 7.941, so one extreme statistic
# cannot stretch the histogram range; this is -normal_quantile(1e-15)
_Z_CLIP = 7.941345326170995

# IRLS stops when no coefficient moves more than _IRLS_TOL in one step
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 50


@dataclass(frozen=True)
class ZVector:
    """Probit-scale statistics for a batch of features."""

    zs: np.ndarray
    df: float

    def __init__(self, zs, df: float):
        arr = np.asarray(zs, dtype=np.float64)
        if arr.ndim != 1:
            raise DataError("ZVector requires a one-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise DataError("ZVector requires finite values")
        object.__setattr__(self, "zs", arr)
        object.__setattr__(self, "df", float(df))


@dataclass(frozen=True)
class MixtureFit:
    """Fitted marginal z density and the null-proportion estimate.

    The log density is a polynomial in the standardized coordinate
    (z - x_loc) / x_scale with a normalization offset, so the density is
    positive everywhere by construction and extrapolates smoothly outside
    z_range.
    """

    pi0_hat: float
    basis_coefficients: np.ndarray
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    z_range: tuple[float, float]
    x_loc: float
    x_scale: float
    log_norm: float

    def log_density(self, z):
        u = (np.asarray(z, dtype=np.float64) - self.x_loc) / self.x_scale
        return np.polynomial.polynomial.polyval(u, self.basis_coefficients) + self.log_norm

    def density(self, z):
        return np.exp(self.log_density(z))

    def in_range(self, z):
        z_arr = np.asarray(z, dtype=np.float64)
        return (z_arr >= self.z_range[0]) & (z_arr <= self.z_range[1])


def probit_transform(t_stat, df):
    """Map a t statistic to the z scale; z ~ N(0,1) under a true null.

    z is computed from the lower tail F(-|t|) and given the sign of t, so
    both tails keep full precision and z(-t) = -z(t) exactly. The tail
    value is floored at the smallest normal double, so z stays finite
    (|z| <= 37.5) and is otherwise the true normal score. ``fit_mixture``
    and ``lfdr_at`` clip z at |z| <= 7.941 themselves.
    """
    t_arr = np.asarray(t_stat, dtype=np.float64)
    out = _probit(t_arr, student_t_cdf(-np.abs(t_arr), df))
    return float(out) if out.ndim == 0 else out


def _probit(t: np.ndarray, lower) -> np.ndarray:
    """``probit_transform`` of t given its lower tail F(-|t|)."""
    z = normal_quantile(np.maximum(lower, np.finfo(np.float64).tiny))
    return np.where(t > 0.0, -z, z)


def _poisson_irls(design: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Fit log-linear Poisson expected counts by iteratively reweighted LS."""
    # least-squares on log(counts + 0.5) seeds close to the optimum
    eta = np.log(counts + 0.5)
    beta = np.linalg.lstsq(design, eta, rcond=None)[0]
    for _ in range(_IRLS_MAX_ITER):
        eta = np.clip(design @ beta, -30.0, 30.0)
        mu = np.exp(eta)
        working = eta + (counts - mu) / mu
        weighted = design * mu[:, None]
        try:
            beta_new = np.linalg.solve(design.T @ weighted, weighted.T @ working)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"Poisson regression system is singular: {exc}") from exc
        if not np.all(np.isfinite(beta_new)):
            raise FitError("Poisson regression diverged to non-finite coefficients")
        step = np.max(np.abs(beta_new - beta))
        beta = beta_new
        if step <= _IRLS_TOL:
            return beta
    raise FitError(f"Poisson regression did not converge in {_IRLS_MAX_ITER} iterations")


def fit_mixture(
    zv: ZVector,
    *,
    bins: int = DEFAULT_BINS,
    degree: int = DEFAULT_DEGREE,
) -> MixtureFit:
    """Fit the marginal z density by Lindsey's method.

    Deterministic given the z values: identical inputs give bit-identical
    coefficients. The z values are clipped at |z| <= 7.941 before the
    histogram. Requires at least MIN_FEATURES features; ``bins`` or
    ``degree`` below 1 is a DomainError.
    """
    if bins < 1:
        raise DomainError(f"fit_mixture requires bins >= 1, got {bins}")
    if degree < 1:
        raise DomainError(f"fit_mixture requires degree >= 1, got {degree}")
    zs = np.clip(zv.zs, -_Z_CLIP, _Z_CLIP)
    m = zs.size
    if m < MIN_FEATURES:
        raise DataError(f"mixture fit needs at least {MIN_FEATURES} features, got {m}")

    z_lo = float(np.min(zs)) - 0.1
    z_hi = float(np.max(zs)) + 0.1
    counts, edges = np.histogram(zs, bins=bins, range=(z_lo, z_hi))
    # with fewer nonzero counts than coefficients the likelihood has no maximum
    filled = np.count_nonzero(counts)
    if filled < degree + 1:
        raise FitError(
            f"z values fill {filled} of {bins} histogram bins, too few for a degree-{degree} fit"
        )
    counts = counts.astype(np.float64)
    mids = 0.5 * (edges[:-1] + edges[1:])

    # standardize midpoints to [-1, 1] to keep the polynomial basis well
    # conditioned
    x_loc = 0.5 * (z_lo + z_hi)
    x_scale = 0.5 * (z_hi - z_lo)
    u = (mids - x_loc) / x_scale
    design = np.vander(u, degree + 1, increasing=True)

    beta = _poisson_irls(design, counts)

    # expected count -> density, then exact trapezoid normalization on the
    # midpoint grid
    bin_width = edges[1] - edges[0]
    log_norm = -np.log(m * bin_width)
    raw = np.exp(design @ beta + log_norm)
    total = float(np.trapezoid(raw, mids))
    if not (np.isfinite(total) and total > 0.0):
        raise FitError("fitted density does not integrate to a positive value")
    log_norm -= np.log(total)

    u0 = (0.0 - x_loc) / x_scale
    density_at_zero = np.exp(
        np.polynomial.polynomial.polyval(u0, beta) + log_norm
    )
    pi0 = float(min(1.0, density_at_zero / normal_pdf(0.0)))

    return MixtureFit(
        pi0_hat=pi0,
        basis_coefficients=beta,
        bin_edges=edges,
        bin_counts=counts.astype(np.int64),
        z_range=(z_lo, z_hi),
        x_loc=x_loc,
        x_scale=x_scale,
        log_norm=log_norm,
    )


def lfdr_at(fit: MixtureFit, z):
    """Local false discovery rate min(1, pi0 * phi(z) / f(z)).

    The theoretical null density is the standard normal. z is clipped at
    |z| <= 7.941, like the z the fit saw. Outside z_range the fitted
    log-polynomial extrapolates; use ``MixtureFit.in_range`` when the
    extrapolation flag matters.
    """
    z_arr = np.clip(np.asarray(z, dtype=np.float64), -_Z_CLIP, _Z_CLIP)
    raw = fit.pi0_hat * normal_pdf(z_arr) / fit.density(z_arr)
    out = np.clip(raw, 0.0, 1.0)
    return float(out) if np.ndim(z) == 0 else out
