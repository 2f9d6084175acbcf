"""Tests for the atom-plus-continuous marginal posterior."""

import dataclasses
import itertools
import pickle
import re
from dataclasses import replace
from pathlib import Path

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
            np.testing.assert_array_equal(batch, single)

    def test_two_lane_interval_matches_two_quantile_calls(self):
        # shrunken_interval solves both ends in one t quantile call, which
        # must equal one call per end bit for bit
        rng = np.random.default_rng(24)
        lf = rng.uniform(0.0, 1.0, 100)
        centers = rng.uniform(-4.0, 4.0, 100)
        scales = np.exp(rng.uniform(np.log(0.1), np.log(3.0), 100))
        both_solved = 0
        for i in range(100):
            for df in (1.0, 3.0, 7.0):
                for a1, a2 in ((0.025, 0.025), (0.05, 0.1), (0.3, 0.01)):
                    args = (lf[i], 0.25, centers[i], scales[i], df)
                    si = shrunken_interval(make_mp(*args), a1, a2)
                    lower = marginal_quantile(make_mp(*args), a1)
                    upper = marginal_quantile(make_mp(*args), 1.0 - a2)
                    assert (si.lower, si.upper) == (lower, upper), (args, a1, a2)
                    both_solved += lower != 0.25 and upper != 0.25
        assert both_solved > 300  # 336 of the 900 intervals

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

    @pytest.mark.parametrize(
        "lfdr, center, scale, theta0, message",
        [
            (np.nan, 2.0, 1.0, 0.0, "lfdr in [0, 1]"),
            (1.5, 2.0, 1.0, 0.0, "lfdr in [0, 1]"),
            (-0.5, 2.0, 1.0, 0.0, "lfdr in [0, 1]"),
            ([0.5, np.nan], 2.0, 1.0, 0.0, "lfdr in [0, 1]"),
            (0.5, np.inf, 1.0, 0.0, "a finite center"),
            (0.5, [2.0, np.nan], 1.0, 0.0, "a finite center"),
            (0.5, 2.0, 0.0, 0.0, "a finite scale > 0"),
            (0.5, 2.0, -1.0, 0.0, "a finite scale > 0"),
            (0.5, 2.0, [1.0, np.inf], 0.0, "a finite scale > 0"),
            (0.5, 2.0, 1.0, np.nan, "a finite theta0, got nan"),
            (0.5, 2.0, 1.0, -np.inf, "a finite theta0, got -inf"),
        ],
    )
    def test_rejects_what_marginal_posterior_rejects(self, lfdr, center, scale, theta0, message):
        # these used to return theta0, a quantile, NaN or a RuntimeWarning
        expected = "^" + re.escape("marginal_quantile_batch requires " + message)
        with pytest.raises(DomainError, match=expected):
            marginal_quantile_batch(lfdr, center, scale, 3.0, theta0, 0.5)


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

    def test_readme_library_block_matches_shrink(self):
        # runs the README's per-feature Library block itself, so the test
        # cannot drift from it; its print calls are captured
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
        (block,) = [b for b in blocks if "MarginalPosterior" in b]
        rng = np.random.default_rng(39)
        shift = np.where(rng.random(300) < 0.8, 0.0, rng.choice([-2.0, 2.0], 300))
        rows = shift[:, None] + rng.standard_normal((300, 4))
        printed = []
        exec(block, {"features": [(f"g{i}", row) for i, row in enumerate(rows)],
                     "print": lambda *args: printed.append(args)})
        shrunk = shrink(rows, 0.0, 0.95)
        assert len(printed) == 3 * 300
        (conditional,) = zip(*printed[0::3])
        median, interval = zip(*printed[1::3])
        (levels,) = zip(*printed[2::3])
        columns = {
            "ci_lo_conditional": [ci[0] for ci in conditional],
            "ci_hi_conditional": [ci[1] for ci in conditional],
            "median_marginal": median,
            "ci_lo_marginal": [si.lower for si in interval],
            "ci_hi_marginal": [si.upper for si in interval],
            "conf_below": [x.below for x in levels],
            "conf_at_null": [x.at_null for x in levels],
            "conf_above": [x.above for x in levels],
        }
        for name, column in columns.items():
            assert getattr(shrunk, name).tobytes() == np.array(column).tobytes(), name
        # the block reaches both sides of the atom and the atom itself
        assert np.any(shrunk.median_marginal < 0.0) and np.any(shrunk.median_marginal > 0.0)
        assert np.any(shrunk.median_marginal == 0.0)

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
        # z, the confidence levels and all three marginal quantiles share it
        assert calls == [300]

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_row_stage_matches_the_full_shrink(self, n):
        rng = np.random.default_rng(37 + n)
        shift = np.where(rng.random(400) < 0.8, 0.0, rng.choice([-2.0, 2.0], 400))
        data = shift[:, None] + rng.standard_normal((400, n))
        full = shrink(data, 0.1, 0.95)
        fitted = posterior._fit_rows(data, 0.1)
        subsets = [np.array([0]), np.array([399])]
        subsets += [np.sort(rng.choice(400, size, replace=False)) for size in (1, 2, 7, 150)]
        subsets += [rng.permutation(400)[:50]]
        for rows in subsets:
            part = posterior._solve_rows(fitted, 0.95, rows)
            for field in dataclasses.fields(posterior.Shrinkage):
                got, want = getattr(part, field.name), getattr(full, field.name)
                if isinstance(want, np.ndarray):
                    assert got.tobytes() == want[rows].tobytes(), (field.name, rows)
                elif field.name == "fit":
                    assert got.basis_coefficients.tobytes() == want.basis_coefficients.tobytes()
                    assert got.pi0_hat == want.pi0_hat and got.log_norm == want.log_norm
                else:
                    assert got == want, field.name

    @pytest.mark.parametrize("df", [1.0, 3.0, 2.5])
    def test_shared_tail_gives_the_conditional_cdf_at_theta0(self, df):
        # rows 0 and 1 have t = 0 exactly; the rest take both signs
        theta0 = 0.25
        rng = np.random.default_rng(38)
        n = 4 if df == 3.0 else 2
        data = theta0 + rng.standard_normal((300, n)) * rng.uniform(0.1, 5.0, (300, 1))
        data[0, :] = [theta0 - 1.0, theta0 + 1.0] * (n // 2)
        data[1, :] = [theta0 + 0.5, theta0 - 0.5] * (n // 2)
        fitted = posterior._fit_rows(data, theta0)
        if df != fitted.df:
            fitted = replace(fitted, df=df, lower=student_t_cdf(-np.abs(fitted.ts), df))
        s = posterior._solve_rows(fitted, 0.95)
        assert np.all(s.t[:2] == 0.0) and np.any(s.t > 0.0) and np.any(s.t < 0.0)
        want = student_t_cdf((theta0 - fitted.means) / fitted.ses, df)
        assert s.conditional_below.tobytes() == want.tobytes()
        assert np.all(s.conditional_below[:2] == 0.5)

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

    @pytest.mark.parametrize("field", ["lfdr", "theta0", "center", "scale"])
    @pytest.mark.parametrize("value", [np.array([0.5]), np.array([0.5, 0.25])])
    def test_rejects_an_array_field(self, field, value):
        # a one-element lfdr used to give one-element medians and interval
        # ends, and a longer one or an array theta0, center or scale raised
        # numpy's ValueError or a TypeError; test_confidence covers df
        fields = {"lfdr": 0.5, "theta0": 0.0, "center": 1.0, "scale": 1.0}
        fields[field] = value
        owner = "MarginalPosterior" if field in ("lfdr", "theta0") else "ConditionalPosterior"
        message = f"{owner} takes one scalar {field}, got an array of shape {value.shape}"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            make_mp(**fields)

    def test_numpy_scalars_are_stored_as_floats(self):
        forms = [np.float64(0.5), np.array(0.5), np.float32(0.5)]
        for value in forms:
            mp = make_mp(value, theta0=value, center=value, scale=value, df=value)
            cp = mp.conditional
            assert all(type(x) is float for x in (mp.lfdr, mp.theta0, cp.center, cp.scale, cp.df))
            assert mp == make_mp(0.5, 0.5, 0.5, 0.5, 0.5)
            assert hash(mp) == hash(make_mp(0.5, 0.5, 0.5, 0.5, 0.5))
        assert type(posterior_median(make_mp(np.array(0.2), center=np.float64(2.0)))) is float

    def test_cached_levels_are_not_part_of_the_value(self):
        args = (0.3, 0.25, 2.0, 0.7, 3.0)
        mp = make_mp(*args)
        before = (mp == make_mp(*args), hash(mp), repr(mp), replace(mp, lfdr=0.6))
        before_copy = pickle.loads(pickle.dumps(mp))
        observed_confidence_levels(mp)
        after = (mp == make_mp(*args), hash(mp), repr(mp), replace(mp, lfdr=0.6))
        after_copy = pickle.loads(pickle.dumps(mp))
        assert "_levels" in vars(mp) and "_levels" not in repr(mp)
        assert before == after and before[0]
        # the replaced posterior computes its own levels
        fresh = make_mp(0.6, *args[1:])
        assert observed_confidence_levels(after[3]) == observed_confidence_levels(fresh)
        for copy in (before_copy, after_copy):
            assert copy == mp and hash(copy) == hash(mp) and repr(copy) == repr(mp)
            assert observed_confidence_levels(copy) == observed_confidence_levels(mp)
            assert shrunken_interval(copy, 0.025, 0.025) == shrunken_interval(mp, 0.025, 0.025)
            assert posterior_median(copy) == posterior_median(mp)


class TestScalarPosteriorCalls:
    # lfdr, center: every quantile off the atom; the lower interval end on
    # the atom and the median and upper end off it; all three on the atom
    CASES = {"off": (0.1, 1.0), "mixed": (0.1, 3.0), "atom": (0.97, 0.1)}

    def _mp(self, case):
        lfdr, center = self.CASES[case]
        return make_mp(lfdr, center=center)

    @staticmethod
    def _count(monkeypatch):
        cdf_calls, quantile_lanes = [], []

        def cdf(t, df):
            cdf_calls.append(np.size(t))
            return student_t_cdf(t, df)

        def quantile(p, df):
            quantile_lanes.append(np.size(p))
            return student_t_quantile(p, df)

        monkeypatch.setattr(posterior, "student_t_cdf", cdf)
        monkeypatch.setattr(posterior, "student_t_quantile", quantile)
        return cdf_calls, quantile_lanes

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_t_cdf_per_feature_in_any_order(self, monkeypatch, case):
        cdf_calls, _ = self._count(monkeypatch)
        calls = (
            lambda mp: marginal_quantile(mp, 0.3),
            lambda mp: shrunken_interval(mp, 0.025, 0.025),
            posterior_median,
            observed_confidence_levels,
        )
        for order in itertools.permutations(calls):
            mp = self._mp(case)
            results = [call(mp) for call in order + order]
            assert results[:4] == results[4:]
            assert cdf_calls == [1], order
            cdf_calls.clear()

    @pytest.mark.parametrize("case, lanes", [("off", [2]), ("mixed", [1]), ("atom", [])])
    def test_interval_solves_its_ends_in_one_call(self, monkeypatch, case, lanes):
        _, quantile_lanes = self._count(monkeypatch)
        mp = self._mp(case)
        si = shrunken_interval(mp, 0.025, 0.025)
        assert quantile_lanes == lanes
        assert (si.lower != mp.theta0) + (si.upper != mp.theta0) == sum(lanes)

    def test_no_t_quantile_on_the_atom(self, monkeypatch):
        cdf_calls, quantile_lanes = self._count(monkeypatch)
        mp = self._mp("atom")
        si = shrunken_interval(mp, 0.025, 0.025)
        assert si.degenerate and posterior_median(mp) == mp.theta0
        assert marginal_quantile(mp, 0.3) == mp.theta0
        assert quantile_lanes == [] and cdf_calls == [1]


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
