"""Monte-Carlo coverage study for the shrunken estimates.

Each experiment draws m features: the true mean is 0 with probability
pi0, otherwise +-effect with equal probability; every feature then gets n
normal observations with a null- or alternative-specific sigma. The full
pipeline (t summaries, probit transform, mixture fit, local fdr, marginal
posterior) runs per experiment, and coverage, interval width, and
median-error statistics are pooled across experiments.

Randomness is counter-based (Philox) with one substream per experiment
derived from (seed, experiment index), so experiments are reproducible
and order-independent, and the same seed yields identical observation
noise across different pi0 settings. Normal variates come from the
inverse CDF of uniform draws for cross-platform determinism.

``run_study`` runs the experiments on a pool of forked worker processes,
one per CPU the process may use, and collects their results in index
order, so the report does not depend on the pool. It runs them in the
calling process when only one CPU is usable (``taskset -c 0``), off
Linux (fork is unsafe on macOS and missing on Windows), while the
process runs other threads, and inside a daemonic process, which may not
start children.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DomainError, FitError
from .lfdr import ZVector, fit_mixture, lfdr_at, probit_transform
from .numerics import normal_quantile, student_t_quantile
from .posterior import marginal_quantile_batch

__all__ = [
    "SimConfig",
    "ExperimentTruth",
    "ExperimentRecords",
    "CoverageReport",
    "experiment_stream",
    "generate_experiment",
    "analyze_experiment",
    "run_study",
]

TRACK_FIRST = "first_feature"
TRACK_ALL = "all_features"

_NULL_VALUE = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Design of one coverage study."""

    m: int
    n: int
    pi0: float
    n_experiments: int
    seed: int
    effect: float = 2.0
    sigma_null: float = 1.0
    sigma_alt: float = 1.5
    level: float = 0.95
    track: str = TRACK_FIRST

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("SimConfig requires m >= 1")
        if self.n < 2:
            raise DomainError("SimConfig requires n >= 2")
        if not 0.0 <= self.pi0 <= 1.0:
            raise DomainError("SimConfig requires pi0 in [0, 1]")
        if self.n_experiments < 1:
            raise DomainError("SimConfig requires n_experiments >= 1")
        if not self.effect > 0.0:
            raise DomainError("SimConfig requires effect > 0")
        if not (self.sigma_null > 0.0 and self.sigma_alt > 0.0):
            raise DomainError("SimConfig requires positive sigmas")
        if not 0.0 < self.level < 1.0:
            raise DomainError("SimConfig requires level in (0, 1)")
        if self.track not in (TRACK_FIRST, TRACK_ALL):
            raise DomainError(
                f"SimConfig track must be {TRACK_FIRST!r} or {TRACK_ALL!r}"
            )


@dataclass(frozen=True)
class ExperimentTruth:
    """True means and alternative indicators for one experiment."""

    thetas: np.ndarray
    a_indicators: np.ndarray  # True where the alternative holds


@dataclass(frozen=True)
class ExperimentRecords:
    """Per-feature pipeline outputs for one experiment."""

    lfdr: np.ndarray
    z: np.ndarray
    t: np.ndarray
    pi0_hat: float
    median_conditional: np.ndarray
    median_marginal: np.ndarray
    ci_lo_conditional: np.ndarray
    ci_hi_conditional: np.ndarray
    ci_lo_marginal: np.ndarray
    ci_hi_marginal: np.ndarray
    covered_conditional: np.ndarray
    covered_marginal: np.ndarray


@dataclass(frozen=True)
class CoverageReport:
    """Pooled results over the tracked features of every experiment."""

    marginal_coverage: float
    conditional_coverage: float
    mean_width_marginal: float
    mean_width_conditional: float
    median_error_samples: tuple[np.ndarray, np.ndarray]  # (marginal, conditional)
    n_tracked: int


def experiment_stream(seed: int, index: int) -> np.random.Generator:
    """Philox substream for one experiment, derived from (seed, index)."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(sequence))


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.maximum(rng.random(shape), np.finfo(np.float64).tiny)
    return normal_quantile(u)


def generate_experiment(
    cfg: SimConfig, stream: np.random.Generator
) -> tuple[ExperimentTruth, np.ndarray]:
    """Draw one experiment's true means and its m-by-n data matrix."""
    u = stream.random(cfg.m)
    half_alt = (1.0 - cfg.pi0) / 2.0
    thetas = np.where(
        u < cfg.pi0,
        0.0,
        np.where(u < cfg.pi0 + half_alt, -cfg.effect, cfg.effect),
    )
    alt = thetas != 0.0
    sigmas = np.where(alt, cfg.sigma_alt, cfg.sigma_null)
    noise = _standard_normal(stream, (cfg.m, cfg.n))
    data = thetas[:, None] + sigmas[:, None] * noise
    return ExperimentTruth(thetas=thetas, a_indicators=alt), data


def analyze_experiment(
    truth: ExperimentTruth, data: np.ndarray, cfg: SimConfig
) -> ExperimentRecords:
    """Run the full estimation pipeline on one experiment."""
    m, n = data.shape
    means = data.mean(axis=1)
    sds = data.std(axis=1, ddof=1)
    degenerate = np.flatnonzero(sds == 0.0)
    if degenerate.size:
        raise DataError(f"feature {degenerate[0]} has zero variance")
    ses = sds / math.sqrt(n)
    ts = means / ses
    df = float(n - 1)

    zs = probit_transform(ts, df)
    fit = fit_mixture(ZVector(zs, df))
    lf = lfdr_at(fit, zs)

    alpha = (1.0 - cfg.level) / 2.0
    q = student_t_quantile(1.0 - alpha, df)
    ci_lo_cond = means - q * ses
    ci_hi_cond = means + q * ses

    ci_lo_marg = marginal_quantile_batch(lf, means, ses, df, _NULL_VALUE, alpha)
    ci_hi_marg = marginal_quantile_batch(lf, means, ses, df, _NULL_VALUE, 1.0 - alpha)
    med_marg = marginal_quantile_batch(lf, means, ses, df, _NULL_VALUE, 0.5)

    thetas = truth.thetas
    return ExperimentRecords(
        lfdr=lf,
        z=zs,
        t=ts,
        pi0_hat=fit.pi0_hat,
        median_conditional=means,
        median_marginal=med_marg,
        ci_lo_conditional=ci_lo_cond,
        ci_hi_conditional=ci_hi_cond,
        ci_lo_marginal=ci_lo_marg,
        ci_hi_marginal=ci_hi_marg,
        covered_conditional=(ci_lo_cond <= thetas) & (thetas <= ci_hi_cond),
        covered_marginal=(ci_lo_marg <= thetas) & (thetas <= ci_hi_marg),
    )


def _run_one(cfg: SimConfig, index: int):
    stream = experiment_stream(cfg.seed, index)
    truth, data = generate_experiment(cfg, stream)
    try:
        records = analyze_experiment(truth, data, cfg)
    except (DataError, FitError) as exc:
        raise type(exc)(f"experiment {index}: {exc}") from exc
    sel = slice(None) if cfg.track == TRACK_ALL else slice(0, 1)
    thetas = truth.thetas[sel]
    return (
        records.covered_marginal[sel],
        records.covered_conditional[sel],
        records.ci_hi_marginal[sel] - records.ci_lo_marginal[sel],
        records.ci_hi_conditional[sel] - records.ci_lo_conditional[sel],
        records.median_marginal[sel] - thetas,
        records.median_conditional[sel] - thetas,
    )


def _pool_size(n_experiments: int) -> int:
    """Worker processes for a study; 1 runs it in the calling process."""
    # a forked child holds only the forking thread, and any lock another
    # thread held at the fork stays locked in it
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    workers = min(len(os.sched_getaffinity(0)), n_experiments)
    if workers < 2:
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else workers


def _stack(parts, count: int) -> list[np.ndarray]:
    """Concatenate each column of ``count`` equal-length parts as they
    arrive, so the parts and their concatenation are never held together."""
    columns = None
    for i, part in enumerate(parts):
        if columns is None:
            columns = [np.empty(count * col.size, dtype=col.dtype) for col in part]
        for column, col in zip(columns, part):
            column[i * col.size : (i + 1) * col.size] = col
    return columns


def run_study(cfg: SimConfig) -> CoverageReport:
    """Run every experiment and pool the tracked features.

    Deterministic given cfg: substreams fix each experiment regardless of
    execution order, and aggregation follows experiment index.
    """
    run_one = partial(_run_one, cfg)
    indices = range(cfg.n_experiments)
    workers = _pool_size(cfg.n_experiments)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            # a larger chunk sends more results in one message, raising peak RSS
            columns = _stack(pool.map(run_one, indices, chunksize=4), cfg.n_experiments)
    else:
        columns = _stack(map(run_one, indices), cfg.n_experiments)

    cov_m, cov_c, wid_m, wid_c, err_m, err_c = columns
    return CoverageReport(
        marginal_coverage=float(np.mean(cov_m)),
        conditional_coverage=float(np.mean(cov_c)),
        mean_width_marginal=float(np.mean(wid_m)),
        mean_width_conditional=float(np.mean(wid_c)),
        median_error_samples=(err_m, err_c),
        n_tracked=int(cov_m.size),
    )
