"""Shared test oracles and utilities."""

import contextlib
import signal

import numpy as np

from lfdrshrink.posterior import MarginalPosterior, marginal_cdf


def grid_inverse_marginal(mp: MarginalPosterior, alpha: float, tol: float = 1e-8) -> float:
    """Generalized inverse inf{theta : cdf(theta) >= alpha} by bisection.

    Uses only marginal_cdf evaluations, independent of the closed-form
    quantile under test.
    """
    span = 1.0
    lo = mp.theta0 - span
    hi = mp.theta0 + span
    while marginal_cdf(mp, lo) >= alpha:
        span *= 2.0
        lo = mp.theta0 - span
        if span > 1e18:
            break
    span = 1.0
    while marginal_cdf(mp, hi) < alpha:
        span *= 2.0
        hi = mp.theta0 + span
        if span > 1e18:
            break
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if marginal_cdf(mp, mid) >= alpha:
            hi = mid
        else:
            lo = mid
    return hi


def random_marginal(rng: np.random.Generator) -> MarginalPosterior:
    """A randomized posterior for property tests."""
    from lfdrshrink.confidence import ConditionalPosterior

    return MarginalPosterior(
        lfdr=float(rng.uniform(0.0, 1.0)),
        theta0=float(rng.uniform(-2.0, 2.0)),
        conditional=ConditionalPosterior(
            center=float(rng.uniform(-5.0, 5.0)),
            scale=float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))),
            df=float(rng.choice([1.0, 2.0, 3.0, 5.0, 10.0, 30.0])),
        ),
    )


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the calling thread after ``seconds``, so a
    hung process pool fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
