"""Tests for the per-feature confidence posterior."""

import math

import numpy as np
import pytest
from scipy import stats

from lfdrshrink import confidence
from lfdrshrink.confidence import (
    ConditionalPosterior,
    PairedSample,
    conditional_cdf,
    conditional_interval,
    conditional_posterior,
    conditional_quantile,
    summarize,
)
from lfdrshrink.errors import DataError, DomainError
from lfdrshrink.numerics import student_t_cdf, student_t_quantile


class TestSummarize:
    def test_hand_arithmetic(self):
        s = summarize(PairedSample([1.0, 1.0, 1.0, -1.0]))
        assert s.mean == pytest.approx(0.5)
        assert s.sd == pytest.approx(1.0)
        assert s.se == pytest.approx(0.5)
        assert s.t == pytest.approx(1.0)
        assert s.df == 3.0
        assert s.n == 4

    def test_textbook_formula_recomputation(self):
        diffs = [2.1, -0.3, 1.4, 0.8, -1.0, 0.6]
        s = summarize(PairedSample(diffs, feature_id="g1"))
        n = len(diffs)
        mean = sum(diffs) / n
        sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1))
        assert s.mean == pytest.approx(0.6, abs=1e-15)
        assert s.sd == pytest.approx(sd, abs=1e-15)
        assert s.t == pytest.approx(1.3093073414159542, abs=1e-12)  # frozen
        assert s.t * s.se == pytest.approx(s.mean, rel=1e-12)

    def test_degenerate_sample(self):
        with pytest.raises(DataError, match=r"^feature 'g7': replicate differences are all equal$"):
            summarize(PairedSample([0.0, 0.0], feature_id="g7"))

    def test_insufficient_data(self):
        with pytest.raises(DataError, match=r"^feature 'g7': need at least 2 replicate differences$"):
            summarize(PairedSample([1.0], feature_id="g7"))

    def test_nonfinite(self):
        with pytest.raises(DataError, match=r"^feature 'g7': non-finite replicate difference$"):
            summarize(PairedSample([1.0, float("nan"), 2.0], feature_id="g7"))


class TestTSummaries:
    @staticmethod
    def rows(n, seed=41):
        # magnitudes over 20 decades, exact zeros of both signs and repeats
        rng = np.random.default_rng(seed + n)
        data = rng.standard_normal((3000, n)) * 10.0 ** rng.uniform(-10, 10, (3000, n))
        data[rng.random((3000, n)) < 0.05] = 0.0
        data[rng.random((3000, n)) < 0.05] = -0.0
        data[:, 1] = np.where(rng.random(3000) < 0.05, data[:, 0], data[:, 1])
        return data[np.any(data != data[:, :1], axis=1)]

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_sums_equal_numpy_reductions(self, n, order):
        data = np.asarray(self.rows(n), order=order)
        means, sds = confidence._row_mean_sd(data)
        assert means.tobytes() == data.mean(axis=1).tobytes()
        assert sds.tobytes() == data.std(axis=1, ddof=1).tobytes()
        got = confidence._t_summaries(data, 0.3)
        assert got[0].tobytes() == means.tobytes() and got[1].tobytes() == sds.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9])
    def test_errors_name_the_first_bad_row(self, n):
        data = self.rows(n)[:40]
        data[[6, 11]] = 2.5  # degenerate
        with pytest.raises(DataError, match=r"^feature 6: replicate differences are all equal$"):
            confidence._t_summaries(data, 0.0)
        data[25, n - 1] = np.inf
        data[17, 0] = np.nan
        # non-finite values are reported before degenerate rows
        with pytest.raises(DataError, match=r"^feature 17: non-finite replicate difference$"):
            confidence._t_summaries(data, 0.0)
        ids = [f"g{i}" for i in range(len(data))]
        with pytest.raises(DataError, match=r"^feature 'g17': non-finite"):
            confidence._t_summaries(data, 0.0, ids)


class TestConditionalPosterior:
    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_center(self, center):
        with pytest.raises(DomainError, match=r"^ConditionalPosterior requires a finite center"):
            ConditionalPosterior(center=center, scale=1.0, df=3.0)

    def test_rejects_infinite_scale(self):
        with pytest.raises(DomainError, match=r"^ConditionalPosterior requires a finite scale > 0"):
            ConditionalPosterior(center=1.0, scale=np.inf, df=3.0)

    @pytest.mark.parametrize("df", [np.array([3.0, 4.0]), np.array([3.0])])
    def test_rejects_an_array_df(self, df):
        # a one-element df would make conditional_quantile return a
        # one-element array instead of a float
        with pytest.raises(DomainError, match=r"^ConditionalPosterior takes one scalar df, got an array"):
            ConditionalPosterior(center=0.0, scale=1.0, df=df)


class TestConditionalCdf:
    def test_median_at_center(self):
        cp = ConditionalPosterior(center=1.7, scale=0.4, df=5.0)
        assert conditional_cdf(cp, 1.7) == 0.5

    def test_limits(self):
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=3.0)
        assert conditional_cdf(cp, -1e12) < 1e-15
        assert conditional_cdf(cp, 1e12) > 1.0 - 1e-15

    def test_matches_t_cdf(self):
        cp = ConditionalPosterior(center=0.5, scale=0.5, df=3.0)
        assert conditional_cdf(cp, 1.0) == pytest.approx(
            student_t_cdf(1.0, 3.0), abs=1e-15
        )

    def test_strictly_increasing(self):
        cp = ConditionalPosterior(center=-0.3, scale=0.8, df=2.0)
        thetas = np.linspace(-8.0, 8.0, 400)
        assert np.all(np.diff(conditional_cdf(cp, thetas)) > 0)


class TestConditionalQuantile:
    def test_median(self):
        cp = ConditionalPosterior(center=2.5, scale=1.1, df=4.0)
        assert conditional_quantile(cp, 0.5) == pytest.approx(2.5)

    def test_cauchy(self):
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=1.0)
        assert conditional_quantile(cp, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numerics(self):
        cp = ConditionalPosterior(center=0.2, scale=0.7, df=3.0)
        expected = 0.2 + 0.7 * student_t_quantile(0.975, 3.0)
        assert conditional_quantile(cp, 0.975) == pytest.approx(expected, abs=1e-14)

    def test_roundtrip(self):
        cp = ConditionalPosterior(center=1.0, scale=0.3, df=6.0)
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert conditional_cdf(cp, conditional_quantile(cp, p)) == pytest.approx(
                p, abs=1e-8
            )

    def test_domain(self):
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=5.0)
        with pytest.raises(DomainError):
            conditional_quantile(cp, 0.0)
        with pytest.raises(DomainError):
            conditional_quantile(cp, 1.0)


class TestConditionalInterval:
    def test_symmetric_is_centered(self):
        cp = ConditionalPosterior(center=3.0, scale=0.5, df=8.0)
        lo, hi = conditional_interval(cp, 0.025, 0.025)
        assert (lo + hi) / 2.0 == pytest.approx(3.0, abs=1e-12)

    def test_shrinks_to_median(self):
        cp = ConditionalPosterior(center=1.0, scale=1.0, df=5.0)
        lo, hi = conditional_interval(cp, 0.49, 0.49)
        assert hi - lo < 0.11
        assert lo < 1.0 < hi

    def test_95_percent_df5(self):
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=5.0)
        lo, hi = conditional_interval(cp, 0.025, 0.025)
        q = student_t_quantile(0.975, 5.0)
        assert lo == pytest.approx(-q, abs=1e-14)
        assert hi == pytest.approx(q, abs=1e-14)

    def test_infinite_df_gives_the_normal_interval(self):
        # df = inf used to raise a NumericError from the continued fraction
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=math.inf)
        lo, hi = conditional_interval(cp, 0.025, 0.025)
        assert lo == pytest.approx(-1.95996398454005, abs=1e-13)
        assert hi == pytest.approx(1.95996398454005, abs=1e-13)

    def test_domain_errors(self):
        cp = ConditionalPosterior(center=0.0, scale=1.0, df=5.0)
        with pytest.raises(DomainError):
            conditional_interval(cp, 0.6, 0.6)
        with pytest.raises(DomainError):
            conditional_interval(cp, 0.0, 0.5)


class TestFrequentistProperties:
    def test_coverage_identity(self):
        # fixed theta, repeated N(theta, sigma^2) samples: the 95% interval
        # covers theta at 0.95 within 3 binomial standard errors
        rng = np.random.default_rng(11)
        theta, sigma, n, reps = 1.3, 2.0, 6, 5000
        data = theta + sigma * rng.standard_normal((reps, n))
        means = data.mean(axis=1)
        ses = data.std(axis=1, ddof=1) / math.sqrt(n)
        q = student_t_quantile(0.975, n - 1.0)
        covered = (means - q * ses <= theta) & (theta <= means + q * ses)
        se3 = 3.0 * math.sqrt(0.95 * 0.05 / reps)
        assert abs(covered.mean() - 0.95) <= se3

    def test_significance_uniformity(self):
        # F_X(theta_true) across replicates is U(0,1): KS test at level 0.01
        rng = np.random.default_rng(11)
        theta, sigma, n, reps = -0.7, 1.4, 6, 5000
        data = theta + sigma * rng.standard_normal((reps, n))
        means = data.mean(axis=1)
        ses = data.std(axis=1, ddof=1) / math.sqrt(n)
        fx = student_t_cdf((theta - means) / ses, n - 1.0)
        result = stats.kstest(fx, "uniform")
        assert result.pvalue > 0.01

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        diffs = rng.standard_normal(8)
        shift = 2.731
        cp = conditional_posterior(summarize(PairedSample(diffs)))
        cp_shifted = conditional_posterior(summarize(PairedSample(diffs + shift)))
        for p in (0.1, 0.5, 0.9):
            assert conditional_quantile(cp_shifted, p) == pytest.approx(
                conditional_quantile(cp, p) + shift, abs=1e-12
            )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        diffs = rng.standard_normal(8)
        k = 3.5
        cp = conditional_posterior(summarize(PairedSample(diffs)))
        cp_scaled = conditional_posterior(summarize(PairedSample(k * diffs)))
        for p in (0.1, 0.5, 0.9):
            base = conditional_quantile(cp, p) - cp.center
            scaled = conditional_quantile(cp_scaled, p) - cp_scaled.center
            assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-12)
