"""Tests for the atom-plus-continuous marginal posterior."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from helpers import grid_inverse_marginal, random_marginal
from lfdrshrink.confidence import (
    ConditionalPosterior,
    PairedSample,
    conditional_cdf,
    conditional_interval,
    conditional_posterior,
    conditional_quantile,
    summarize,
)
from lfdrshrink import posterior
from lfdrshrink.errors import DataError, DomainError
from lfdrshrink.lfdr import ZVector, fit_mixture, lfdr_at, probit_transform
from lfdrshrink.numerics import student_t_cdf, student_t_quantile
from lfdrshrink.posterior import (
    MarginalPosterior,
    marginal_cdf,
    marginal_quantile,
    marginal_quantile_batch,
    observed_confidence_levels,
    posterior_mean,
    posterior_median,
    shrink,
    shrunken_interval,
)


def make_mp(lfdr, theta0=0.0, center=1.0, scale=1.0, df=4.0):
    return MarginalPosterior(
        lfdr=lfdr,
        theta0=theta0,
        conditional=ConditionalPosterior(center=center, scale=scale, df=df),
    )


class TestMarginalCdf:
    def test_no_atom_reduces_to_conditional(self):
        mp = make_mp(0.0)
        thetas = np.linspace(-4.0, 4.0, 41)
        np.testing.assert_array_equal(
            marginal_cdf(mp, thetas), conditional_cdf(mp.conditional, thetas)
        )

    def test_pure_atom_is_step(self):
        mp = make_mp(1.0)
        assert marginal_cdf(mp, -1e-9) == 0.0
        assert marginal_cdf(mp, 0.0) == 1.0
        assert marginal_cdf(mp, 5.0) == 1.0

    def test_mixture_arithmetic(self):
        mp = make_mp(0.4)
        expected = 0.4 + 0.6 * conditional_cdf(mp.conditional, 0.0)
        assert marginal_cdf(mp, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_right_continuous_jump(self):
        mp = make_mp(0.3)
        below = marginal_cdf(mp, -1e-12)
        at = marginal_cdf(mp, 0.0)
        assert at - below == pytest.approx(0.3, abs=1e-9)

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mp = random_marginal(rng)
            thetas = np.linspace(mp.theta0 - 10.0, mp.theta0 + 10.0, 500)
            assert np.all(np.diff(marginal_cdf(mp, thetas)) >= 0)


class TestMarginalQuantile:
    def test_no_atom_equals_conditional(self):
        mp = make_mp(0.0)
        for alpha in (0.025, 0.3, 0.5, 0.9):
            assert marginal_quantile(mp, alpha) == pytest.approx(
                conditional_quantile(mp.conditional, alpha), abs=1e-12
            )

    def test_total_atom(self):
        mp = make_mp(1.0, theta0=-0.7)
        for alpha in (0.01, 0.5, 0.99):
            assert marginal_quantile(mp, alpha) == -0.7

    def test_grid_oracle_midcase(self):
        mp = make_mp(0.5, center=1.0, scale=1.0, df=4.0)
        oracle = grid_inverse_marginal(mp, 0.5)
        assert abs(oracle) <= 1e-7  # frozen: the atom absorbs the median
        assert marginal_quantile(mp, 0.5) == 0.0

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            mp = random_marginal(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            closed = marginal_quantile(mp, alpha)
            oracle = grid_inverse_marginal(mp, alpha)
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_domain(self):
        mp = make_mp(0.2)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                marginal_quantile(mp, bad)

    # every t CDF kernel and quantile seed: non-integer, closed-form,
    # finite-series, continued-fraction and large df
    @pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 3.0, 7.0, 80.0, 5000.0])
    def test_quantile_cdf_consistency(self, df):
        rng = np.random.default_rng(17)
        theta0 = 0.7
        for _ in range(200):
            base = random_marginal(rng)
            mp = replace(base, theta0=theta0, conditional=replace(base.conditional, df=df))
            alpha = float(rng.uniform(0.01, 0.99))
            levels = observed_confidence_levels(mp)
            q = marginal_quantile(mp, alpha)
            # the observed confidence levels decide the side of theta0
            assert (q < theta0) == (alpha < levels.below)
            assert (q > theta0) == (1.0 - alpha < levels.above)
            if levels.below < alpha <= levels.below + mp.lfdr:
                assert q == theta0
            else:
                assert marginal_cdf(mp, q) == pytest.approx(alpha, abs=1e-8)


class TestBatchQuantile:
    def test_matches_scalar(self):
        rng = np.random.default_rng(23)
        lf = rng.uniform(0.0, 1.0, 200)
        centers = rng.uniform(-4.0, 4.0, 200)
        scales = np.exp(rng.uniform(np.log(0.1), np.log(3.0), 200))
        for alpha in (0.025, 0.5, 0.975):
            batch = marginal_quantile_batch(lf, centers, scales, 3.0, 0.25, alpha)
            single = np.array(
                [
                    marginal_quantile(
                        make_mp(lf[i], 0.25, centers[i], scales[i], 3.0), alpha
                    )
                    for i in range(200)
                ]
            )
            np.testing.assert_allclose(batch, single, atol=1e-12)

    def test_handles_unit_lfdr(self):
        out = marginal_quantile_batch(
            np.array([1.0, 0.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]),
            4.0, -0.5, 0.5,
        )
        assert out[0] == -0.5
        assert out[1] == pytest.approx(2.0)

    def test_scalar_input_gives_float(self):
        for alpha in (0.025, 0.5, 0.975):
            out = marginal_quantile_batch(0.5, 1.0, 1.0, 3.0, 0.0, alpha)
            assert type(out) is float
            assert out == marginal_quantile(make_mp(0.5, 0.0, 1.0, 1.0, 3.0), alpha)
        assert marginal_quantile_batch(np.float64(0.2), 1.0, np.array(2.0), 3.0, 0.0, 0.5) > 0.0

    def test_matrix_input_keeps_its_shape(self):
        lf = np.array([[0.1, 0.9], [0.2, 0.3]])
        centers = np.array([[-3.0, 0.1], [3.0, 1.0]])
        out = marginal_quantile_batch(lf, centers, 1.0, 3.0, 0.0, 0.5)
        assert out.shape == (2, 2)
        flat = marginal_quantile_batch(lf.ravel(), centers.ravel(), 1.0, 3.0, 0.0, 0.5)
        np.testing.assert_array_equal(out.ravel(), flat)

    def test_solves_only_lanes_off_the_atom(self, monkeypatch):
        solved = []

        def counting(p, df):
            solved.append(np.size(p))
            return student_t_quantile(p, df)

        monkeypatch.setattr(posterior, "student_t_quantile", counting)
        # lane 0 lies far below theta0 and lane 1 far above; lane 2 sits in
        # the atom, with alpha >= conf_below and 1 - alpha >= conf_above
        out = marginal_quantile_batch([0.1, 0.1, 0.9], [-5.0, 5.0, 0.1], 1.0, 3.0, 0.0, 0.5)
        assert out[0] < 0.0 < out[1] and out[2] == 0.0
        # one call: lane 0 solves its lower branch and lane 1 its upper one
        assert solved == [2]


class TestShrink:
    # at 0.9, t_df(alpha) != -t_df(1 - alpha) in the last bit
    @pytest.mark.parametrize("level", [0.95, 0.9])
    def test_matches_readme_scalar_loop(self, level):
        # the README's per-feature Library loop, with theta0 != 0
        rng = np.random.default_rng(31)
        theta0 = 0.4
        shift = np.where(rng.random(300) < 0.8, 0.0, rng.choice([-2.0, 2.0], 300))
        rows = theta0 + shift[:, None] + rng.standard_normal((300, 4))
        features = [(f"g{i}", row) for i, row in enumerate(rows)]
        shrunk = shrink(rows, theta0, level)

        alpha = (1.0 - level) / 2.0
        summaries = [summarize(PairedSample(row, feature_id=name)) for name, row in features]
        zs = np.array([probit_transform((s.mean - theta0) / s.se, s.df) for s in summaries])
        fit = fit_mixture(ZVector(zs, df=summaries[0].df))
        columns = {}
        for s, z in zip(summaries, zs):
            cp = conditional_posterior(s)
            mp = MarginalPosterior(lfdr=lfdr_at(fit, z), theta0=theta0, conditional=cp)
            ci = conditional_interval(cp, alpha, alpha)
            si = shrunken_interval(mp, alpha, alpha)
            levels = observed_confidence_levels(mp)
            values = {
                "mean": s.mean, "t": (s.mean - theta0) / s.se, "z": z, "lfdr": mp.lfdr,
                "ci_lo_conditional": ci[0], "ci_hi_conditional": ci[1],
                "ci_lo_marginal": si.lower, "ci_hi_marginal": si.upper,
                "median_marginal": posterior_median(mp), "conf_below": levels.below,
                "conf_at_null": levels.at_null, "conf_above": levels.above,
            }
            for name, value in values.items():
                columns.setdefault(name, []).append(value)
        for name, column in columns.items():
            np.testing.assert_array_equal(getattr(shrunk, name), column, err_msg=name)
        assert shrunk.pi0_hat == fit.pi0_hat
        # the marginal quantiles and levels are not all at the atom
        assert np.any(shrunk.median_marginal != theta0)
        assert np.any(shrunk.conf_at_null < 1.0)

    def test_many_replicates_give_the_true_z(self):
        # 200 replicates give df = 199, past the exact t kernels; the t tail
        # used to be 0 for a band of t there, and row 0 got z = 37.519
        rows = np.random.default_rng(0).standard_normal((2000, 200))
        rows[0] += 0.75
        shrunk = shrink(rows, 0.0, 0.95)
        t = shrunk.t[0]
        assert shrunk.z[0] == pytest.approx(stats.norm.isf(stats.t.sf(t, 199)), rel=1e-12)
        assert shrunk.z[0] == pytest.approx(9.87251181248, rel=1e-11)  # frozen

    def test_errors_name_the_row_without_ids(self):
        rows = np.random.default_rng(32).standard_normal((200, 3))
        rows[5] = 1.0
        with pytest.raises(DataError, match=r"^feature 5: replicate differences are all equal$"):
            shrink(rows, 0.0, 0.95)
        with pytest.raises(DataError, match=r"^feature 'g5': "):
            shrink(rows, 0.0, 0.95, feature_ids=[f"g{i}" for i in range(200)])
        rows[7, 2] = np.nan
        with pytest.raises(DataError, match=r"^feature 7: non-finite replicate difference$"):
            shrink(rows, 0.0, 0.95)

    def test_rejects_feature_ids_of_the_wrong_length(self):
        rows = np.random.default_rng(33).standard_normal((200, 3))
        with pytest.raises(DataError, match=r"^got 1 feature ids for 200 features$"):
            shrink(rows, 0.0, 0.95, feature_ids=["a"])

    @pytest.mark.parametrize(
        "theta0, level, name",
        [(0.0, 1.5, "level"), (0.0, 0.0, "level"), (0.0, np.nan, "level"),
         (np.nan, 0.95, "theta0"), (np.inf, 0.95, "theta0")],
    )
    def test_rejects_bad_level_and_theta0(self, theta0, level, name):
        rows = np.random.default_rng(34).standard_normal((200, 3))
        with pytest.raises(DomainError, match=rf"^shrink requires .*\b{name}\b"):
            shrink(rows, theta0, level)

    @pytest.mark.parametrize("bins, degree, name, value", [
        (0, 6, "bins", 0), (120, 0, "degree", 0), (120, -1, "degree", -1),
    ])
    def test_rejects_bad_bins_and_degree(self, bins, degree, name, value):
        rows = np.random.default_rng(35).standard_normal((300, 3))
        with pytest.raises(DomainError, match=rf"^fit_mixture requires {name} >= 1, got {value}$"):
            shrink(rows, 0.0, 0.95, bins=bins, degree=degree)

    def test_one_t_cdf_pass_at_theta0(self, monkeypatch):
        calls = []

        def counting(t, df):
            calls.append(np.size(t))
            return student_t_cdf(t, df)

        monkeypatch.setattr(posterior, "student_t_cdf", counting)
        shrink(np.random.default_rng(36).standard_normal((300, 3)), 0.0, 0.95)
        # the confidence levels and all three marginal quantiles share it
        assert calls == [300]

    @pytest.mark.parametrize("shape", [(200,), (200, 1)])
    def test_rejects_fewer_than_two_replicates(self, shape):
        with pytest.raises(DataError, match="at least 2 replicate differences"):
            shrink(np.ones(shape), 0.0, 0.95)


class TestMarginalPosterior:
    @pytest.mark.parametrize("theta0", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_theta0(self, theta0):
        # a NaN theta0 used to give NaN medians and a non-degenerate interval
        with pytest.raises(DomainError, match=r"^MarginalPosterior requires a finite theta0"):
            make_mp(0.2, theta0=theta0)


class TestShrunkenInterval:
    def test_no_atom_equals_conditional(self):
        mp = make_mp(0.0)
        si = shrunken_interval(mp, 0.025, 0.025)
        lo, hi = conditional_interval(mp.conditional, 0.025, 0.025)
        assert si.lower == pytest.approx(lo, abs=1e-12)
        assert si.upper == pytest.approx(hi, abs=1e-12)
        assert not si.degenerate
        assert si.level == pytest.approx(0.95)

    def test_degenerate_at_large_lfdr(self):
        mp = make_mp(0.99, center=0.2)
        si = shrunken_interval(mp, 0.025, 0.025)
        assert si.degenerate
        assert si.lower == si.upper == mp.theta0

    def test_nested_when_null_value_inside_conditional(self):
        mp = make_mp(0.3, theta0=0.0, center=0.5, scale=1.0, df=5.0)
        lo_c, hi_c = conditional_interval(mp.conditional, 0.025, 0.025)
        assert lo_c < mp.theta0 < hi_c
        si = shrunken_interval(mp, 0.025, 0.025)
        assert lo_c < si.lower
        assert si.upper < hi_c

    def test_nesting_property_conditional_contains_null(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            mp = random_marginal(rng)
            a1 = float(rng.uniform(0.01, 0.3))
            a2 = float(rng.uniform(0.01, 0.3))
            lo_c, hi_c = conditional_interval(mp.conditional, a1, a2)
            if not lo_c <= mp.theta0 <= hi_c:
                continue
            si = shrunken_interval(mp, a1, a2)
            assert lo_c - 1e-9 <= si.lower
            assert si.upper <= hi_c + 1e-9
            checked += 1

    def test_hull_property_always(self):
        # in general the interval stays inside the hull of the conditional
        # interval and the null value; plain nesting can fail when the
        # conditional interval excludes theta0 (atom endpoint)
        rng = np.random.default_rng(32)
        for _ in range(300):
            mp = random_marginal(rng)
            a1 = float(rng.uniform(0.01, 0.3))
            a2 = float(rng.uniform(0.01, 0.3))
            lo_c, hi_c = conditional_interval(mp.conditional, a1, a2)
            si = shrunken_interval(mp, a1, a2)
            assert min(lo_c, mp.theta0) - 1e-9 <= si.lower
            assert si.upper <= max(hi_c, mp.theta0) + 1e-9

    def test_posterior_mass_at_least_nominal(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            mp = random_marginal(rng)
            a1 = float(rng.uniform(0.01, 0.3))
            a2 = float(rng.uniform(0.01, 0.3))
            si = shrunken_interval(mp, a1, a2)
            # mass of [lower, upper]: cdf(upper) - cdf(lower-)
            lower_left = (1.0 - mp.lfdr) * conditional_cdf(mp.conditional, si.lower)
            if si.lower > mp.theta0:
                lower_left += mp.lfdr
            mass = marginal_cdf(mp, si.upper) - lower_left
            level = 1.0 - a1 - a2
            assert mass >= level - 1e-8
            if si.lower != mp.theta0 and si.upper != mp.theta0:
                assert mass == pytest.approx(level, abs=1e-8)

    def test_domain_errors(self):
        mp = make_mp(0.2)
        with pytest.raises(DomainError):
            shrunken_interval(mp, 0.5, 0.5)
        with pytest.raises(DomainError):
            shrunken_interval(mp, 0.0, 0.1)


class TestPointEstimates:
    def test_median_no_atom(self):
        mp = make_mp(0.0, center=2.2)
        assert posterior_median(mp) == pytest.approx(2.2)

    def test_median_atom_captures_half(self):
        mp = make_mp(0.5, theta0=0.0, center=0.0)
        assert posterior_median(mp) == 0.0

    def test_median_formula_case(self):
        # lfdr=0.2, center=2, scale=1, df=3: the median solves the upper
        # branch at 1 - 0.5/0.8; frozen via the t quantile and checked
        # against the grid oracle
        mp = make_mp(0.2, center=2.0, scale=1.0, df=3.0)
        med = posterior_median(mp)
        assert med == pytest.approx(1.650781911258262, abs=1e-10)
        assert med == pytest.approx(grid_inverse_marginal(mp, 0.5), abs=1e-6)

    def test_median_shrinkage_monotone_in_lfdr(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            theta0 = float(rng.uniform(-1.0, 1.0))
            cond = ConditionalPosterior(
                center=float(rng.uniform(-4.0, 4.0)),
                scale=float(rng.uniform(0.2, 2.0)),
                df=3.0,
            )
            devs = []
            for lf in np.linspace(0.0, 1.0, 21):
                mp = MarginalPosterior(lfdr=float(lf), theta0=theta0, conditional=cond)
                devs.append(abs(posterior_median(mp) - theta0))
            assert devs[0] == pytest.approx(abs(cond.center - theta0), abs=1e-9)
            assert np.all(np.diff(devs) <= 1e-9)

    def test_mean(self):
        assert posterior_mean(make_mp(0.0, center=1.5)) == pytest.approx(1.5)
        assert posterior_mean(make_mp(1.0, theta0=0.3)) == pytest.approx(0.3)
        assert posterior_mean(make_mp(0.25, theta0=1.0, center=3.0)) == pytest.approx(
            0.25 * 1.0 + 0.75 * 3.0
        )

    def test_mean_undefined_at_df_one(self):
        with pytest.raises(DomainError):
            posterior_mean(make_mp(0.2, df=1.0))


class TestObservedConfidenceLevels:
    def test_pure_atom(self):
        levels = observed_confidence_levels(make_mp(1.0))
        assert (levels.below, levels.at_null, levels.above) == (0.0, 1.0, 0.0)

    def test_centered_no_atom(self):
        levels = observed_confidence_levels(make_mp(0.0, theta0=0.0, center=0.0))
        assert levels.below == pytest.approx(0.5)
        assert levels.at_null == 0.0
        assert levels.above == pytest.approx(0.5)

    def test_arithmetic(self):
        # lfdr=0.6 with conditional probability 0.1 below the null value
        cond = ConditionalPosterior(center=0.0, scale=1.0, df=5.0)
        theta0 = conditional_quantile(cond, 0.1)
        mp = MarginalPosterior(lfdr=0.6, theta0=theta0, conditional=cond)
        levels = observed_confidence_levels(mp)
        assert levels.below == pytest.approx(0.04, abs=1e-9)
        assert levels.at_null == pytest.approx(0.6)
        assert levels.above == pytest.approx(0.36, abs=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            mp = random_marginal(rng)
            levels = observed_confidence_levels(mp)
            total = levels.below + levels.at_null + levels.above
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_lfdr_rejected(self):
        with pytest.raises(DomainError):
            make_mp(1.2)
        with pytest.raises(DomainError):
            make_mp(-0.1)
