"""Tests for the Monte-Carlo coverage harness."""

import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from helpers import time_limit
from lfdrshrink import posterior
from lfdrshrink import simulation as sim
from lfdrshrink.cli import cli_main
from lfdrshrink.errors import DataError, DomainError, FitError, WorkerError
from lfdrshrink.simulation import (
    TRACK_ALL,
    TRACK_FIRST,
    CoverageReport,
    SimConfig,
    analyze_experiment,
    experiment_stream,
    generate_experiment,
    run_study,
)


def small_cfg(**overrides):
    base = dict(
        m=300, n=2, pi0=0.9, n_experiments=8, seed=5, track=TRACK_ALL
    )
    base.update(overrides)
    return SimConfig(**base)


def assert_same_report(a: CoverageReport, b: CoverageReport):
    for field in dataclasses.fields(CoverageReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "median_error_samples":
            assert (x is None) == (y is None)
            for xs, ys in zip(x or (), y or ()):
                assert xs.dtype == ys.dtype
                assert xs.tobytes() == ys.tobytes()
        else:
            assert type(x) is type(y) and x == y, field.name


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            small_cfg(n=1)
        with pytest.raises(DomainError):
            small_cfg(pi0=1.5)
        with pytest.raises(DomainError):
            small_cfg(level=1.0)
        with pytest.raises(DomainError):
            small_cfg(track="everything")
        with pytest.raises(DomainError):
            small_cfg(sigma_null=0.0)

    def test_defaults_match_study_design(self):
        cfg = SimConfig(m=100, n=2, pi0=0.9, n_experiments=1, seed=0)
        assert cfg.effect == 2.0
        assert cfg.sigma_null == 1.0
        assert cfg.sigma_alt == 1.5
        assert cfg.level == 0.95
        assert cfg.track == TRACK_FIRST


class TestGenerateExperiment:
    def test_all_null_when_pi0_is_one(self):
        cfg = small_cfg(pi0=1.0)
        truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, 0))
        assert np.all(truth.thetas == 0.0)
        assert not np.any(truth.a_indicators)
        assert data.shape == (cfg.m, cfg.n)
        # all sigma_null: pooled variance close to 1
        assert abs(data.std() - cfg.sigma_null) < 0.1

    def test_truth_consistency(self):
        cfg = small_cfg(pi0=0.5)
        truth, _ = generate_experiment(cfg, experiment_stream(cfg.seed, 0))
        np.testing.assert_array_equal(truth.a_indicators, truth.thetas != 0.0)
        assert set(np.unique(truth.thetas)) <= {-cfg.effect, 0.0, cfg.effect}

    def test_null_fraction_concentrates(self):
        # binomial bound: |fraction - 0.9| <= 0.01 holds with >= 99%
        # probability at m = 10^4; check across 50 substreams
        cfg = SimConfig(m=10000, n=2, pi0=0.9, n_experiments=1, seed=0)
        hits = 0
        for idx in range(50):
            truth, _ = generate_experiment(cfg, experiment_stream(0, idx))
            hits += abs(np.mean(truth.thetas == 0.0) - 0.9) <= 0.01
        assert hits >= 48

    def test_null_feature_means_unbiased(self):
        cfg = SimConfig(m=5000, n=4, pi0=1.0, n_experiments=1, seed=2)
        _, data = generate_experiment(cfg, experiment_stream(2, 0))
        assert abs(data.mean(axis=1).mean()) < 0.02

    def test_reproducible_streams(self):
        cfg = small_cfg()
        t1, d1 = generate_experiment(cfg, experiment_stream(cfg.seed, 3))
        t2, d2 = generate_experiment(cfg, experiment_stream(cfg.seed, 3))
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(t1.thetas, t2.thetas)

    def test_seed_reuse_couples_noise_across_pi0(self):
        # identical uniforms drive theta assignment and observation noise,
        # so features that are null under both settings share their data
        cfg_a = small_cfg(pi0=0.9)
        cfg_b = small_cfg(pi0=0.99)
        ta, da = generate_experiment(cfg_a, experiment_stream(5, 0))
        tb, db = generate_experiment(cfg_b, experiment_stream(5, 0))
        both_null = (ta.thetas == 0.0) & (tb.thetas == 0.0)
        assert both_null.sum() > 200
        np.testing.assert_array_equal(da[both_null], db[both_null])


class TestAnalyzeExperiment:
    def test_records_shapes_and_ranges(self):
        cfg = small_cfg()
        truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, 0))
        rec = analyze_experiment(truth, data, cfg)
        m = cfg.m
        for arr in (
            rec.median_conditional, rec.median_marginal,
            rec.ci_lo_conditional, rec.ci_hi_conditional,
            rec.ci_lo_marginal, rec.ci_hi_marginal,
            rec.covered_conditional, rec.covered_marginal,
        ):
            assert arr.shape == (m,)
        assert 0.0 < rec.pi0_hat <= 1.0
        assert np.all(rec.ci_lo_conditional < rec.ci_hi_conditional)
        assert np.all(rec.ci_lo_marginal <= rec.ci_hi_marginal)

    def test_hull_containment_every_feature(self):
        cfg = small_cfg()
        truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, 1))
        rec = analyze_experiment(truth, data, cfg)
        lo_hull = np.minimum(rec.ci_lo_conditional, 0.0)
        hi_hull = np.maximum(rec.ci_hi_conditional, 0.0)
        assert np.all(rec.ci_lo_marginal >= lo_hull - 1e-9)
        assert np.all(rec.ci_hi_marginal <= hi_hull + 1e-9)

    def test_coverage_flags_match_intervals(self):
        cfg = small_cfg()
        truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, 2))
        rec = analyze_experiment(truth, data, cfg)
        manual = (rec.ci_lo_marginal <= truth.thetas) & (
            truth.thetas <= rec.ci_hi_marginal
        )
        np.testing.assert_array_equal(rec.covered_marginal, manual)

    def test_all_null_conditional_coverage(self):
        cfg = SimConfig(m=4000, n=6, pi0=1.0, n_experiments=1, seed=9, track=TRACK_ALL)
        truth, data = generate_experiment(cfg, experiment_stream(9, 0))
        rec = analyze_experiment(truth, data, cfg)
        se3 = 3.0 * math.sqrt(0.95 * 0.05 / cfg.m)
        assert abs(rec.covered_conditional.mean() - 0.95) <= se3


class TestRunStudy:
    def test_deterministic_bit_for_bit(self):
        cfg = small_cfg()
        r1 = run_study(cfg, keep_errors=True)
        r2 = run_study(cfg, keep_errors=True)
        assert r1.marginal_coverage == r2.marginal_coverage
        assert r1.conditional_coverage == r2.conditional_coverage
        assert r1.mean_width_marginal == r2.mean_width_marginal
        np.testing.assert_array_equal(
            r1.median_error_samples[0], r2.median_error_samples[0]
        )
        np.testing.assert_array_equal(
            r1.median_error_samples[1], r2.median_error_samples[1]
        )

    def test_pool_matches_serial_bit_for_bit(self, monkeypatch, tmp_path):
        cfg = small_cfg(n_experiments=8)
        pids = tmp_path / "pids"
        generate = sim.generate_experiment

        def logged(cfg, stream):
            with open(pids, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            # hold the worker long enough for the other to take the next chunk
            time.sleep(0.05)
            return generate(cfg, stream)

        monkeypatch.setattr(sim, "generate_experiment", logged)

        def run(workers):
            monkeypatch.setattr(sim, "_pool_size", lambda n: workers)
            pids.write_text("")
            with time_limit(60):
                report = run_study(cfg, keep_errors=True)
            return report, pids.read_text().split()

        serial, serial_pids = run(1)
        pooled, pool_pids = run(2)
        assert serial_pids == [str(os.getpid())] * cfg.n_experiments
        assert len(pool_pids) == cfg.n_experiments
        assert len(set(pool_pids)) == 2 and str(os.getpid()) not in pool_pids
        assert_same_report(serial, pooled)

    def test_pool_runs_at_most_two_calls_per_worker_ahead(self, monkeypatch, tmp_path):
        log = tmp_path / "calls"
        log.write_text("")

        def call(item):
            with open(log, "a") as handle:
                handle.write(f"{item}\n")
            return item

        monkeypatch.setattr(sim, "_pool_size", lambda tasks: 2)
        with time_limit(60):
            results = sim._fork_map(call, range(40), 40)
            assert next(results) == 0
            time.sleep(0.5)
            started = len(log.read_text().split())
            assert list(results) == list(range(1, 40))
        # the one result taken, plus two single-item messages per worker
        assert started <= 1 + 2 * 2
        assert sorted(map(int, log.read_text().split())) == list(range(40))

    @pytest.mark.parametrize(
        "platform, threads, cpus, n_experiments, expected",
        [
            ("linux", 1, {0, 1, 2}, 8, 3),
            ("linux", 1, {0, 1, 2}, 2, 2),
            ("linux", 1, {0, 1, 2}, 1, 1),
            ("linux", 1, {3}, 8, 1),
            ("linux", 2, {0, 1, 2}, 8, 1),
            ("darwin", 1, {0, 1, 2}, 8, 1),
            ("win32", 1, {0, 1, 2}, 8, 1),
        ],
    )
    def test_pool_size(self, monkeypatch, platform, threads, cpus, n_experiments, expected):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(threading, "active_count", lambda: threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert sim._pool_size(n_experiments) == expected

    def test_serial_inside_a_daemonic_process(self, monkeypatch):
        # a daemonic process may not start children, so a pool there fails
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = small_cfg(n_experiments=4)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(run_study, (cfg,)).get(timeout=60)
        assert_same_report(inside, run_study(cfg))

    @pytest.mark.parametrize("error, code", [(FitError, 4), (DataError, 3)])
    def test_worker_errors_reach_the_cli(self, monkeypatch, capsys, error, code):
        def broken_fit(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(posterior, "fit_mixture", broken_fit)
        monkeypatch.setattr(sim, "_pool_size", lambda n: 2)
        with time_limit(60):
            with pytest.raises(error, match=r"^experiment 0: synthetic failure$"):
                run_study(small_cfg(n_experiments=8))
            assert cli_main(["simulate", "--m", "200", "--experiments", "8"]) == code
        assert "experiment 0: synthetic failure" in capsys.readouterr().err

    def test_dead_worker_fails_the_study(self, monkeypatch, capsys):
        def die(*args):
            os._exit(1)

        monkeypatch.setattr(sim, "generate_experiment", die)
        monkeypatch.setattr(sim, "_pool_size", lambda n: 2)
        with time_limit(20):
            with pytest.raises(WorkerError, match="worker process died") as info:
                run_study(small_cfg(n_experiments=8))
            assert isinstance(info.value.__cause__, BrokenProcessPool)
            assert cli_main(["simulate", "--m", "200", "--experiments", "8"]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("worker error: ")

    def test_tracking_modes(self):
        cfg_first = small_cfg(track=TRACK_FIRST)
        cfg_all = small_cfg(track=TRACK_ALL)
        r_first = run_study(cfg_first, keep_errors=True)
        r_all = run_study(cfg_all, keep_errors=True)
        assert r_first.n_tracked == cfg_first.n_experiments
        assert r_all.n_tracked == cfg_all.n_experiments * cfg_all.m
        assert len(r_first.median_error_samples[0]) == r_first.n_tracked

    @pytest.mark.parametrize("track", [TRACK_ALL, TRACK_FIRST])
    def test_pooled_sums_match_the_per_feature_records(self, track):
        cfg = small_cfg(track=track, n_experiments=6)
        report = run_study(cfg, keep_errors=True)
        sel = slice(None) if track == TRACK_ALL else slice(0, 1)
        columns = {}
        for i in range(cfg.n_experiments):
            truth, data = generate_experiment(cfg, experiment_stream(cfg.seed, i))
            rec = analyze_experiment(truth, data, cfg)
            thetas = truth.thetas[sel]
            for name, column in {
                "cov_m": rec.covered_marginal[sel],
                "cov_c": rec.covered_conditional[sel],
                "width_m": rec.ci_hi_marginal[sel] - rec.ci_lo_marginal[sel],
                "width_c": rec.ci_hi_conditional[sel] - rec.ci_lo_conditional[sel],
                "err_m": rec.median_marginal[sel] - thetas,
                "err_c": rec.median_conditional[sel] - thetas,
            }.items():
                columns.setdefault(name, []).append(column)
        c = {name: np.concatenate(parts) for name, parts in columns.items()}
        tracked = c["cov_m"].size
        assert report.n_tracked == tracked == cfg.n_experiments * (cfg.m if track == TRACK_ALL else 1)
        assert report.marginal_coverage == np.count_nonzero(c["cov_m"]) / tracked
        assert report.conditional_coverage == np.count_nonzero(c["cov_c"]) / tracked
        for field, want in (
            ("mean_width_marginal", np.mean(c["width_m"])),
            ("mean_width_conditional", np.mean(c["width_c"])),
            ("mean_abs_error_marginal", np.mean(np.abs(c["err_m"]))),
            ("mean_abs_error_conditional", np.mean(np.abs(c["err_c"]))),
        ):
            assert getattr(report, field) == pytest.approx(want, rel=1e-15, abs=0.0), field
        err_m, err_c = report.median_error_samples
        assert err_m.tobytes() == c["err_m"].tobytes()
        assert err_c.tobytes() == c["err_c"].tobytes()
        # without the samples the report is the same
        lean = run_study(cfg)
        assert lean.median_error_samples is None
        assert_same_report(lean, dataclasses.replace(report, median_error_samples=None))

    def test_desk_scale_orderings(self):
        # marginal coverage above conditional, which sits at the nominal
        # level; marginal intervals much tighter on average
        cfg = SimConfig(
            m=1000, n=2, pi0=0.9, n_experiments=12, seed=1, track=TRACK_ALL
        )
        rep = run_study(cfg, keep_errors=True)
        assert rep.marginal_coverage >= rep.conditional_coverage
        se3 = 3.0 * math.sqrt(0.95 * 0.05 / rep.n_tracked)
        # fit-induced correlation across features inflates the pooled SE;
        # allow a generous multiple
        assert abs(rep.conditional_coverage - 0.95) <= 4.0 * se3
        assert rep.mean_width_marginal <= rep.mean_width_conditional
        err_m, err_c = rep.median_error_samples
        assert np.abs(err_m).mean() <= np.abs(err_c).mean()

    def test_fit_errors_name_the_experiment(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise FitError("synthetic failure")

        monkeypatch.setattr(posterior, "fit_mixture", broken_fit)
        with pytest.raises(FitError, match="experiment 0"):
            run_study(small_cfg(n_experiments=2))

    def test_forced_zero_lfdr_collapses_to_conditional(self):
        # with the mixture weight zeroed the shrunken intervals must equal
        # the fixed-parameter intervals feature by feature
        from lfdrshrink.posterior import marginal_quantile_batch
        from lfdrshrink.numerics import student_t_quantile

        rng = np.random.default_rng(77)
        means = rng.uniform(-3.0, 3.0, 500)
        ses = np.exp(rng.uniform(np.log(0.2), np.log(2.0), 500))
        lf = np.zeros(500)
        lo = marginal_quantile_batch(lf, means, ses, 1.0, 0.0, 0.025)
        hi = marginal_quantile_batch(lf, means, ses, 1.0, 0.0, 0.975)
        q = student_t_quantile(0.975, 1.0)
        np.testing.assert_allclose(lo, means - q * ses, atol=1e-10)
        np.testing.assert_allclose(hi, means + q * ses, atol=1e-10)
