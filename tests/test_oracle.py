"""The estimated lfdr against the oracle lfdr of the simulation design.

With n = 2 replicates, df = 1 and a null t statistic is Cauchy. An
alternative feature has mean +-effect and sd sigma_alt, so its t is
noncentral t with df = 1 and noncentrality +-delta, delta = effect /
(sigma_alt / sqrt(n)) = 1.886. The oracle lfdr is pi0 / (pi0 + (1 - pi0)
LR(t)), with LR the alternative-to-null density ratio of t; z is a
monotone map of t, so the ratio is the same on the z scale the fit uses.

The facts pinned here are properties of this design, not goals: the
estimate is biased upward on average at pi0 = 0.9 and downward at
pi0 = 0.99, where the oracle never falls below 0.976.
"""

import math

import numpy as np
import pytest

from lfdrshrink.posterior import marginal_quantile_batch
from lfdrshrink.simulation import (
    TRACK_ALL,
    SimConfig,
    analyze_experiment,
    experiment_stream,
    generate_experiment,
)

stats = pytest.importorskip("scipy.stats")

EXPERIMENTS = 10


def noncentrality(cfg: SimConfig) -> float:
    return cfg.effect / (cfg.sigma_alt / math.sqrt(cfg.n))


def likelihood_ratio(t, delta: float):
    alt = 0.5 * (stats.nct.pdf(t, 1, delta) + stats.nct.pdf(t, 1, -delta))
    return alt / stats.t.pdf(t, 1)


def oracle_lfdr(t, cfg: SimConfig):
    return cfg.pi0 / (cfg.pi0 + (1.0 - cfg.pi0) * likelihood_ratio(t, noncentrality(cfg)))


def oracle_floor(cfg: SimConfig) -> float:
    t = np.concatenate([np.linspace(-50.0, 50.0, 20001), np.geomspace(50.0, 1e8, 2000)])
    return float(np.min(oracle_lfdr(np.concatenate([t, -t]), cfg)))


def study(pi0: float):
    """Per experiment: the estimated and oracle lfdr, and the null features'
    marginal coverage under each."""
    cfg = SimConfig(m=10000, n=2, pi0=pi0, n_experiments=EXPERIMENTS, seed=11, track=TRACK_ALL)
    alpha = (1.0 - cfg.level) / 2.0
    out = []
    for i in range(cfg.n_experiments):
        truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, i))
        rec = analyze_experiment(truth, data, cfg)
        oracle = oracle_lfdr(rec.t, cfg)
        null = ~truth.a_indicators
        se = data.std(axis=1, ddof=1) / math.sqrt(cfg.n)
        lo, hi = (
            marginal_quantile_batch(oracle[null], rec.mean[null], se[null], 1.0, 0.0, a)
            for a in (alpha, 1.0 - alpha)
        )
        out.append((rec.lfdr, oracle, rec.covered_marginal[null], (lo <= 0.0) & (0.0 <= hi)))
    return cfg, out


@pytest.fixture(scope="module", params=[0.9, 0.99], ids=["pi0=0.9", "pi0=0.99"])
def seeded_study(request):
    return study(request.param)


@pytest.mark.parametrize("t", [-40.0, -3.0, -0.5, 0.0, 1.0, 2.5, 8.0])
def test_noncentral_density_against_quadrature(t):
    # T = (Z + delta) / sqrt(V) with V ~ chi2_1; with V = s^2 the density is
    # the integral over s > 0 of 2 s phi(t s - delta) phi(s)
    mp = pytest.importorskip("mpmath")
    delta = noncentrality(SimConfig(m=100, n=2, pi0=0.9, n_experiments=1, seed=0))
    with mp.workdps(30):
        d = mp.mpf(delta)
        phi = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
        want = mp.quad(lambda s: 2 * s * phi(t * s - d) * phi(s), [0, 1, 4, mp.inf])
    assert stats.nct.pdf(t, 1, delta) == pytest.approx(float(want), rel=1e-9)


def test_oracle_floor():
    floors = {
        pi0: oracle_floor(SimConfig(m=100, n=2, pi0=pi0, n_experiments=1, seed=0))
        for pi0 in (0.9, 0.99)
    }
    assert 0.789 < floors[0.9] < 0.791
    assert 0.976 < floors[0.99] < 0.977


def test_mean_gap_sign(seeded_study):
    cfg, experiments = seeded_study
    gap = np.mean([np.mean(est - oracle) for est, oracle, _, _ in experiments])
    if cfg.pi0 == 0.9:
        assert gap > 0.005  # +0.018 at this seed: the estimate is conservative
    else:
        assert gap < -0.001  # -0.006 at this seed: it is not


def test_estimate_crosses_the_oracle_floor(seeded_study):
    # the oracle never falls below its floor; the estimate does, far
    cfg, experiments = seeded_study
    floor = oracle_floor(cfg)
    for _, oracle, _, _ in experiments:
        assert oracle.min() >= floor
    low = min(est.min() for est, _, _, _ in experiments)
    assert low < floor - 0.2


def test_null_features_always_covered(seeded_study):
    _, experiments = seeded_study
    for _, _, covered_hat, covered_oracle in experiments:
        assert covered_hat.all() and covered_oracle.all()
