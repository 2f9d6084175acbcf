"""Monte-Carlo coverage study for the shrunken estimates.

Each experiment draws m features: the true mean is 0 with probability
pi0, otherwise +-effect with equal probability; every feature then gets n
normal observations with a null- or alternative-specific sigma. The
``shrink`` pipeline of ``analyze`` (t summaries, probit transform, mixture
fit, local fdr, marginal posterior) runs per experiment with the null
value 0; an experiment's records are its ``shrink`` columns plus two
coverage flags, and coverage, interval width, and median-error statistics
of the tracked features are pooled across experiments.

Randomness is counter-based (Philox) with one substream per experiment
derived from (seed, experiment index), so experiments are reproducible
and order-independent, and the same seed yields identical observation
noise across different pi0 settings. Normal variates come from the
inverse CDF of uniform draws for cross-platform determinism.

``run_study`` runs the experiments on a pool of forked worker processes,
one per CPU the process may use, and collects their results in index
order, so the report does not depend on the pool. The pool is
``_fork_map``, which the CLI's table writer shares. It runs the calls in
the calling process when only one CPU is usable (``taskset -c 0``), off
Linux (fork is unsafe on macOS and missing on Windows), while the
process runs other threads, and inside a daemonic process, which may not
start children. A worker that dies, for example killed by the
out-of-memory killer, raises a WorkerError.
"""

from __future__ import annotations

import collections
import itertools
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DomainError, FitError, WorkerError
from .numerics import normal_quantile
from .posterior import Shrinkage, shrink

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
class ExperimentRecords(Shrinkage):
    """The ``shrink`` columns of one experiment, with per-feature flags for
    whether each interval covers the true mean."""

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
    """Run the shrinkage pipeline on one experiment and flag coverage."""
    s = shrink(data, _NULL_VALUE, cfg.level)
    thetas = truth.thetas
    return ExperimentRecords(
        **vars(s),
        covered_conditional=(s.ci_lo_conditional <= thetas) & (thetas <= s.ci_hi_conditional),
        covered_marginal=(s.ci_lo_marginal <= thetas) & (thetas <= s.ci_hi_marginal),
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


def _pool_size(tasks: int) -> int:
    """Worker processes for ``tasks`` calls; 1 runs them in the calling process."""
    # a forked child holds only the forking thread, and any lock another
    # thread held at the fork stays locked in it
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    workers = min(len(os.sched_getaffinity(0)), tasks)
    if workers < 2:
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else workers


# the function the workers of the running pool call; set before the pool
# forks them, so they inherit it with the rest of the caller's memory
_FORKED_FN = None


def _call_forked(batch):
    return [_FORKED_FN(item) for item in batch]


def _fork_map(fn, items, tasks: int, chunksize: int = 1):
    """Yield ``fn(item)`` for each item, in order, computed on forked
    workers, at most ``tasks`` of them, or in the calling process when
    ``_pool_size(tasks)`` is 1.

    The workers inherit ``fn`` and whatever it refers to, so only the
    items and the results are pickled, ``chunksize`` items to a message.
    At most two messages per worker are queued or finished ahead of the
    caller, so the results of a slow caller do not pile up in memory. A
    worker that dies raises a WorkerError. Closing the generator early
    cancels the queued calls.
    """
    global _FORKED_FN
    workers = _pool_size(tasks)
    if workers == 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    # a pool runs only while this is the one thread, so no other pool
    # can replace the function before this one's workers are forked
    _FORKED_FN = fn
    pending = collections.deque()
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            try:
                items = iter(items)
                for batch in iter(lambda: list(itertools.islice(items, chunksize)), []):
                    pending.append(pool.submit(_call_forked, batch))
                    if len(pending) > 2 * workers:
                        yield from pending.popleft().result()
                while pending:
                    yield from pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from exc
    finally:
        _FORKED_FN = None


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
    # one message per experiment costs ~10% more CPU; a larger chunk
    # holds more results in memory at once
    results = _fork_map(
        partial(_run_one, cfg), range(cfg.n_experiments), cfg.n_experiments, chunksize=4
    )
    columns = _stack(results, cfg.n_experiments)

    cov_m, cov_c, wid_m, wid_c, err_m, err_c = columns
    return CoverageReport(
        marginal_coverage=float(np.mean(cov_m)),
        conditional_coverage=float(np.mean(cov_c)),
        mean_width_marginal=float(np.mean(wid_m)),
        mean_width_conditional=float(np.mean(wid_c)),
        median_error_samples=(err_m, err_c),
        n_tracked=int(cov_m.size),
    )
