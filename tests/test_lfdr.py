"""Tests for probit transform, mixture fitting, and lfdr estimation."""

import math

import numpy as np
import pytest

from lfdrshrink.errors import DataError, FitError
from lfdrshrink.lfdr import (
    MIN_FEATURES,
    MixtureFit,
    ZVector,
    fit_mixture,
    lfdr_at,
    probit_transform,
)
from lfdrshrink.numerics import normal_pdf, normal_quantile


def standard_normal_fit(pi0: float = 1.0) -> MixtureFit:
    """A MixtureFit whose density is exactly the standard normal.

    log phi(z) = -0.5 z^2 - log sqrt(2 pi) is a degree-2 polynomial,
    representable exactly in the fit's basis.
    """
    return MixtureFit(
        pi0_hat=pi0,
        basis_coefficients=np.array([-0.5 * math.log(2.0 * math.pi), 0.0, -0.5]),
        bin_edges=np.array([-6.0, 6.0]),
        bin_counts=np.array([0]),
        z_range=(-6.0, 6.0),
        x_loc=0.0,
        x_scale=1.0,
        log_norm=0.0,
    )


class TestProbitTransform:
    def test_zero_maps_to_zero(self):
        assert probit_transform(0.0, 5.0) == 0.0

    def test_cauchy_then_normal_quantile(self):
        # t=1 at df=1 has CDF 0.75; frozen value of the 0.75 normal quantile
        z = probit_transform(1.0, 1.0)
        assert z == pytest.approx(normal_quantile(0.75), abs=1e-13)
        assert z == pytest.approx(0.6744897501960817, abs=1e-10)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        t = np.sort(rng.uniform(-50.0, 50.0, 300))
        z = probit_transform(t, 3.0)
        assert np.all(np.diff(z) > 0)

    def test_extreme_statistics_stay_finite(self):
        stats = pytest.importorskip("scipy.stats")
        for t in (-1e16, -1e8, 1e8, 1e16):
            z = probit_transform(t, 2.0)
            assert math.isfinite(z)
        # the true z, past the 7.941 that the fit and lfdr clip at
        ref = stats.norm.isf(stats.t.sf(1e16, 2))
        assert probit_transform(1e16, 2.0) == pytest.approx(ref, rel=1e-13)
        assert ref == pytest.approx(11.914, abs=1e-3)

    def test_true_z_past_the_clip(self):
        # frozen from scipy's norm.isf(t.sf(40, 30)); past the 7.941 that
        # the fit and lfdr clip at
        assert probit_transform(40.0, 30.0) == pytest.approx(10.884091474053866, rel=1e-13)
        assert probit_transform(-40.0, 30.0) == -probit_transform(40.0, 30.0)

    def test_odd_symmetry_is_exact(self):
        t = np.concatenate([np.logspace(-8.0, 8.0, 400), [0.0]])
        for df in (1.0, 3.0, 7.0, 2.5):
            np.testing.assert_array_equal(
                probit_transform(-t, df), -probit_transform(t, df)
            )

    def test_both_tails_against_scipy(self):
        # oracle: z = Phi^-1(1 - S(t)) from scipy's t survival function
        stats = pytest.importorskip("scipy.stats")
        t = np.logspace(-1.0, 6.0, 1500)
        for df in (1, 3, 7):
            sf = stats.t.sf(t, df)
            keep = sf > 1e-300
            ref = stats.norm.isf(sf[keep])
            for sign in (1.0, -1.0):
                z = probit_transform(sign * t[keep], float(df))
                rel = np.abs(z - sign * ref) / ref
                assert rel.max() <= 1e-13, (df, sign, rel.max())

    def test_null_statistics_look_standard_normal(self):
        # under a true null the transform is distribution-preserving:
        # t ~ t_df implies z ~ N(0,1)
        rng = np.random.default_rng(8)
        n = 5
        data = rng.standard_normal((20000, n))
        ts = data.mean(axis=1) / (data.std(axis=1, ddof=1) / math.sqrt(n))
        zs = probit_transform(ts, float(n - 1))
        assert abs(zs.mean()) < 0.02
        assert abs(zs.std() - 1.0) < 0.02


class TestFitMixture:
    def test_z_past_the_clip_changes_nothing(self):
        # the fit and lfdr see z clipped at |z| <= 7.941, so one feature's
        # z moving from the bound to 12 leaves both bit-identical
        bound = -normal_quantile(1e-15)
        zs = np.random.default_rng(9).standard_normal(1000)
        zs[0] = bound
        far = zs.copy()
        far[0] = 12.0
        at_bound, past = fit_mixture(ZVector(zs, 5.0)), fit_mixture(ZVector(far, 5.0))
        for name in ("basis_coefficients", "bin_edges", "bin_counts", "z_range", "pi0_hat", "log_norm"):
            np.testing.assert_array_equal(getattr(past, name), getattr(at_bound, name))
        np.testing.assert_array_equal(lfdr_at(past, far), lfdr_at(at_bound, zs))
        assert lfdr_at(past, 12.0) == lfdr_at(past, bound)

    def test_standard_normal_recovery(self):
        rng = np.random.default_rng(123)
        zs = rng.standard_normal(10000)
        fit = fit_mixture(ZVector(zs, 9.0))
        mids = 0.5 * (fit.bin_edges[:-1] + fit.bin_edges[1:])
        assert np.abs(fit.density(mids) - normal_pdf(mids)).max() <= 0.02

    def test_right_tail_bump_detected(self):
        rng = np.random.default_rng(7)
        m = 10000
        null = rng.standard_normal(int(m * 0.9))
        alt = 2.5 + rng.standard_normal(m - null.size)
        fit = fit_mixture(ZVector(np.concatenate([null, alt]), 9.0))
        zg = np.linspace(2.0, 3.0, 11)
        assert np.all(fit.density(zg) > normal_pdf(zg))

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(3)
        zs = rng.standard_normal(2000)
        fit = fit_mixture(ZVector(zs, 1.0))
        mids = 0.5 * (fit.bin_edges[:-1] + fit.bin_edges[1:])
        integral = np.trapezoid(fit.density(mids), mids)
        assert 0.98 <= integral <= 1.02

    def test_density_positive_on_range(self):
        rng = np.random.default_rng(4)
        zs = rng.standard_normal(500)
        fit = fit_mixture(ZVector(zs, 2.0))
        zg = np.linspace(fit.z_range[0], fit.z_range[1], 500)
        assert np.all(fit.density(zg) > 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        zs = rng.standard_normal(1500)
        fit1 = fit_mixture(ZVector(zs, 1.0))
        fit2 = fit_mixture(ZVector(zs.copy(), 1.0))
        np.testing.assert_array_equal(fit1.basis_coefficients, fit2.basis_coefficients)
        assert fit1.pi0_hat == fit2.pi0_hat
        assert fit1.log_norm == fit2.log_norm

    def test_insufficient_features(self):
        with pytest.raises(DataError):
            fit_mixture(ZVector(np.zeros(MIN_FEATURES - 1) + 0.1, 1.0))

    def test_too_few_filled_bins(self):
        # two distinct values fill two bins, fewer than a quadratic's three
        # coefficients
        zs = np.repeat([-1.0, 1.0], 100)
        with pytest.raises(
            FitError, match=r"^z values fill 2 of 50 histogram bins, too few for a degree-2 fit$"
        ):
            fit_mixture(ZVector(zs, 1.0), bins=50, degree=2)

    def test_histogram_range_pads_data(self):
        rng = np.random.default_rng(10)
        zs = rng.standard_normal(300)
        fit = fit_mixture(ZVector(zs, 1.0))
        assert fit.z_range[0] == pytest.approx(zs.min() - 0.1)
        assert fit.z_range[1] == pytest.approx(zs.max() + 0.1)
        assert fit.bin_counts.sum() == 300

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            ZVector(np.array([0.0, np.inf]), 1.0)


def null_grid(scale: float = 1.0, size: int = 20000) -> np.ndarray:
    """z values at the midpoint quantiles of N(0, scale^2): a sample that
    follows the density without sampling noise."""
    return scale * normal_quantile((np.arange(size) + 0.5) / size)


class TestPi0Estimate:
    def test_exact_null_density_gives_one(self):
        # central matching on the null itself; a density taller than the
        # null at zero is clipped to exactly 1
        assert fit_mixture(ZVector(null_grid(), 1.0)).pi0_hat == pytest.approx(1.0, abs=2e-3)
        assert fit_mixture(ZVector(null_grid(0.8), 1.0)).pi0_hat == 1.0

    def test_ratio_arithmetic(self):
        # N(0, 1/0.9^2) has f(0) = 0.9 phi(0); frozen: 0.899057 at this size
        fit = fit_mixture(ZVector(null_grid(1.0 / 0.9), 1.0))
        assert fit.pi0_hat == pytest.approx(fit.density(0.0) / normal_pdf(0.0), abs=1e-12)
        assert fit.pi0_hat == pytest.approx(0.900, abs=2e-3)

    def test_null_only_simulations_stay_high(self):
        # conservatism: on pure-null z the estimate should rarely dip
        # below 0.97 (measured 87/100 on these exact streams)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fit = fit_mixture(ZVector(rng.standard_normal(2000), 1.0))
            hits += fit.pi0_hat >= 0.97
        assert hits >= 80

    def test_fit_sets_pi0(self):
        rng = np.random.default_rng(1)
        fit = fit_mixture(ZVector(rng.standard_normal(400), 1.0))
        expected = min(1.0, fit.density(0.0) / normal_pdf(0.0))
        assert fit.pi0_hat == pytest.approx(expected, abs=1e-15)
        assert 0.0 < fit.pi0_hat <= 1.0


class TestLfdrAt:
    def test_pure_null_fit_gives_one_everywhere(self):
        fit = standard_normal_fit(pi0=1.0)
        zg = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_allclose(lfdr_at(fit, zg), 1.0, atol=1e-12)

    def test_two_component_closed_form(self):
        # represent f(z) = 0.9 phi(z) + 0.1 phi(z - 2) by a high-degree
        # log-polynomial, then check the density-ratio arithmetic at z=2
        grid = np.linspace(-4.5, 5.5, 400)
        target_log = np.log(0.9 * normal_pdf(grid) + 0.1 * normal_pdf(grid - 2.0))
        loc, scale = 0.5, 5.0
        design = np.vander((grid - loc) / scale, 13, increasing=True)
        coef = np.linalg.lstsq(design, target_log, rcond=None)[0]
        fit = MixtureFit(
            pi0_hat=0.9,
            basis_coefficients=coef,
            bin_edges=np.array([-4.5, 5.5]),
            bin_counts=np.array([0]),
            z_range=(-4.5, 5.5),
            x_loc=loc,
            x_scale=scale,
            log_norm=0.0,
        )
        expected = 0.9 * normal_pdf(2.0) / (0.9 * normal_pdf(2.0) + 0.1 * normal_pdf(0.0))
        assert expected == pytest.approx(0.5491469396207161, abs=1e-13)  # frozen
        assert lfdr_at(fit, 2.0) == pytest.approx(expected, abs=0.01)

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(12)
        fit = fit_mixture(ZVector(rng.standard_normal(500), 1.0))
        values = lfdr_at(fit, np.linspace(-8.0, 8.0, 200))
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)

    def test_largest_near_zero_for_heavy_tailed_fit(self):
        # wider-than-null symmetric density: the ratio peaks at the center
        rng = np.random.default_rng(13)
        zs = 1.4 * rng.standard_normal(20000)
        fit = fit_mixture(ZVector(zs, 1.0))
        zg = np.linspace(-3.0, 3.0, 121)
        values = lfdr_at(fit, zg)
        assert abs(zg[np.argmax(values)]) <= 0.3

    def test_mean_lfdr_high_under_pure_null(self):
        ok = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            zs = rng.standard_normal(2000)
            fit = fit_mixture(ZVector(zs, 1.0))
            ok += lfdr_at(fit, zs).mean() >= 0.9
        assert ok >= 45


class TestEstimateLfdr:
    def test_flags_extrapolation(self):
        rng = np.random.default_rng(14)
        fit = fit_mixture(ZVector(rng.standard_normal(300), 1.0))
        inside = 0.5 * (fit.z_range[0] + fit.z_range[1])
        outside = fit.z_range[1] + 1.0
        zs = np.array([inside, outside])
        np.testing.assert_array_equal(fit.in_range(zs), [True, False])
        values = lfdr_at(fit, zs)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_matches_pointwise(self):
        rng = np.random.default_rng(15)
        zs = rng.standard_normal(400)
        fit = fit_mixture(ZVector(zs, 1.0))
        single = np.array([lfdr_at(fit, float(z)) for z in zs[:10]])
        np.testing.assert_array_equal(lfdr_at(fit, zs[:10]), single)
