"""Special-function tests against independent oracles.

Oracles: stdlib math (lgamma, erf), scipy quadrature of the underlying
densities, scipy's distribution functions, and mpmath. Frozen constants
below were computed with the oracle code kept alongside each test.
"""

import functools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from lfdrshrink.errors import DomainError
from lfdrshrink.numerics import (
    ln_gamma,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)


def t_log_density_constant(df: float) -> float:
    # uses stdlib lgamma, independent of the package's Lanczos series
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )


def t_density(t: float, df: float) -> float:
    return math.exp(
        t_log_density_constant(df) - 0.5 * (df + 1.0) * math.log1p(t * t / df)
    )


def t_tail_mpmath(t: float, df: float):
    """P(T > |t|) at 50 digits: I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        t2 = mp.mpf(t) ** 2
        df = mp.mpf(df)
        return mp.betainc(df / 2, mp.mpf(1) / 2, 0, df / (df + t2), regularized=True) / 2


def t_pdf_mpmath(t, df):
    """Student t density at the working precision of the caller."""
    mp = pytest.importorskip("mpmath")
    t, df = mp.mpf(t), mp.mpf(df)
    return mp.exp(
        mp.loggamma((df + 1) / 2) - mp.loggamma(df / 2) - mp.log(df * mp.pi) / 2
        - (df + 1) / 2 * mp.log1p(t * t / df)
    )


# (df, t_hi): P(T > t_hi) is about 1e-300. Integer df above 64 and every
# non-integer df take the continued fraction; 2999 and 3001 straddle the
# df where a normal-limit kernel used to take over.
T_ORACLE_GRID = [
    (0.5, 1e300), (2.5, 1e120), (30.5, 3.4e10), (65.0, 3.1e5), (100.0, 9.6e3), (200.0, 439.0),
    (1000.0, 54.2), (2999.0, 41.7), (3001.0, 41.7), (1e4, 38.3), (1e6, 37.0),
]


@functools.lru_cache(maxsize=None)
def t_tail_oracle(df: float, t_hi: float):
    """t from the body to t_hi and P(T > t) at 50 digits, tails below 1e-300 dropped."""
    t = np.concatenate(
        [[1e-8, 1e-3, 0.3, 1.0, 1.5, 1.7, 1.75, 2.0], np.linspace(2.5, 10.0, 16), np.geomspace(10.5, t_hi, 40)]
    )
    tails = [t_tail_mpmath(v, df) for v in t]
    keep = [i for i, tail in enumerate(tails) if tail >= 1e-300]
    return t[keep], [tails[i] for i in keep]


def t_ppf_reference(p: float, df: int) -> float:
    """Lower-tail t quantile: scipy where it is finite, else an mpmath root.

    scipy's ppf overflows to -inf at p = 1e-300 for df >= 3; there the
    reference solves log P(T > t) = log p at 50 digits.
    """
    ref = float(stats.t.ppf(p, df))
    if math.isfinite(ref):
        return ref
    mp = pytest.importorskip("mpmath")
    guess = df ** 0.5 * (p * df ** 0.5) ** (-1.0 / df)  # leading tail term
    with mp.workdps(50):
        root = mp.findroot(
            lambda lt: mp.log(t_tail_mpmath(mp.exp(lt), df)) - mp.log(p),
            mp.log(guess),
        )
        return -float(mp.exp(root))


def normal_quantile_mpmath(p: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Normal quantiles refined from ``start`` by Newton steps at 40 digits."""
    mp = pytest.importorskip("mpmath")
    out = np.empty_like(p)
    with mp.workdps(40):
        for i, (pi, xi) in enumerate(zip(p, start)):
            target, x = mp.mpf(float(pi)), mp.mpf(float(xi))
            for _ in range(3):  # quadratic convergence from a double start
                x -= (mp.ncdf(x) - target) / mp.npdf(x)
            out[i] = float(x)
    return out


def t_cdf_by_quadrature(t: float, df: float) -> float:
    if t <= 0.0:
        val, _ = integrate.quad(t_density, -np.inf, t, args=(df,), epsabs=1e-13)
        return val
    tail, _ = integrate.quad(t_density, t, np.inf, args=(df,), epsabs=1e-13)
    return 1.0 - tail


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-12)

    def test_against_stdlib_over_wide_range(self):
        # abs 1e-12 is below float64 ulp once ln Gamma ~ 1e7, so the error
        # budget is 1e-12 relative to max(1, |ln Gamma|)
        xs = np.concatenate(
            [np.linspace(0.01, 0.49, 97), np.linspace(0.5, 60.0, 400), np.logspace(1.8, 6.0, 200)]
        )
        mine = ln_gamma(xs)
        ref = np.array([math.lgamma(x) for x in xs])
        budget = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(mine - ref) <= budget)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-3.0)
        with pytest.raises(DomainError):
            ln_gamma(np.array([1.0, -1.0]))


class TestIncompleteBeta:
    def test_uniform_case(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_symmetric_case(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_quadrature_oracle_value(self):
        # oracle: adaptive quadrature of the beta density with t = u^2
        # substitution to remove the x^(a-1) endpoint singularity
        a, b, x = 0.5, 5.0, 0.2
        ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        oracle, err = integrate.quad(
            lambda u: 2.0 * (1.0 - u * u) ** (b - 1.0) / math.exp(ln_b),
            0.0,
            math.sqrt(x),
            epsabs=1e-14,
        )
        assert err < 1e-12
        assert oracle == pytest.approx(0.8550723945959200, abs=1e-13)  # frozen
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            0.8550723945959200, abs=1e-12
        )

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(0.1, 30.0, 500)
        b = rng.uniform(0.1, 30.0, 500)
        x = rng.uniform(0.0, 1.0, 500)
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        np.testing.assert_allclose(left, right, atol=5e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentTCdf:
    def test_center_is_half(self):
        for df in (1.0, 2.0, 7.0, 100.0):
            assert student_t_cdf(0.0, df) == 0.5

    def test_cauchy_point(self):
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_quadrature_oracle_value(self):
        oracle = t_cdf_by_quadrature(2.5, 5.0)
        assert oracle == pytest.approx(0.9727549503288119, abs=1e-12)  # frozen
        assert student_t_cdf(2.5, 5.0) == pytest.approx(oracle, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(-20.0, 20.0, 1000)
        df = rng.uniform(0.5, 500.0, 1000)
        total = student_t_cdf(t, df) + student_t_cdf(-t, df)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_monotone_in_t(self):
        # nondecreasing everywhere; strictly increasing until the float64
        # representation of the CDF saturates in the far tails
        t = np.linspace(-12.0, 12.0, 2001)
        for df in (1.0, 3.0, 30.0, 5000.0):
            vals = student_t_cdf(t, df)
            assert np.all(np.diff(vals) >= 0)
            interior = (vals[:-1] > 1e-13) & (vals[1:] < 1.0 - 1e-13)
            assert np.all(np.diff(vals)[interior] > 0)

    def test_normal_limit(self):
        t = np.linspace(-4.0, 4.0, 81)
        gap = np.abs(student_t_cdf(t, 1e6) - normal_cdf(t))
        assert gap.max() <= 1e-4

    def test_cauchy_closed_form_grid(self):
        t = np.linspace(-30.0, 30.0, 601)
        closed = 0.5 + np.arctan(t) / math.pi
        np.testing.assert_allclose(student_t_cdf(t, 1.0), closed, atol=1e-12)

    def test_rejects_bad_df(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0.0)

    def test_lower_tail_relative_error_integer_df(self):
        # the continued fraction this kernel replaced reached 6.4e-14
        # (df = 1) to 1.1e-12 (df = 30) on this grid
        t = -np.concatenate([[0.0], np.logspace(-3.0, 6.0, 2000)])
        for df in range(1, 31):
            ref = stats.t.cdf(t, df)
            rel = np.abs(student_t_cdf(t, float(df)) - ref) / ref
            assert rel.max() <= 6e-14, (df, rel.max())

    @pytest.mark.parametrize("df, t_hi", T_ORACLE_GRID)
    def test_lower_tail_against_mpmath_grid(self, df, t_hi):
        # before one continued fraction served every non-exact df, the
        # tail was exactly 0 over a band of t for df from 200 to 2999, and
        # a normal-limit kernel was off by up to 100% above df = 3000
        t, tails = t_tail_oracle(df, t_hi)
        ref = np.array([float(tail) for tail in tails])
        rel = np.abs(student_t_cdf(-t, df) - ref) / ref
        assert rel.max() <= 1e-12, (t[rel.argmax()], rel.max())

    @pytest.mark.parametrize("df", [3.0, 2.5, 100.0, 1e4])
    def test_nan_gives_nan(self, df):
        # the continued fraction used to raise on a NaN lane
        assert math.isnan(student_t_cdf(math.nan, df))
        got = student_t_cdf(np.array([math.nan, -2.0]), df)
        assert math.isnan(got[0])
        assert got[1] == student_t_cdf(-2.0, df)

    def test_df_two_far_tail(self):
        # t^2 overflows above |t| = 1.3e154; the tail there is below the
        # smallest double, and no overflow warning may escape
        assert student_t_cdf(-1e200, 2.0) == 0.0
        assert student_t_cdf(1e200, 2.0) == 1.0
        assert student_t_cdf(-1e150, 2.0) == pytest.approx(5e-301, rel=1e-15)

    @pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 7.0, 30.0, 64.0, 65.0, 2.5, 100.0])
    def test_offset_from_half_near_zero(self, df):
        # F(t) - 1/2 must not cancel for t near 0 (the continued fraction
        # was off by 3.7e-11 at t = 1e-6, df = 3)
        for t in (1e-12, 1e-9, 1e-6, 2.7567189773e-05, 1e-4, 1e-3, 0.1):
            for sign in (1.0, -1.0):
                ref = sign * float(0.5 - t_tail_mpmath(t, df))
                got = student_t_cdf(sign * t, df) - 0.5
                assert abs(got - ref) <= 1e-15, (df, sign * t, got, ref)


class TestStudentTQuantile:
    def test_median_is_zero(self):
        assert student_t_quantile(0.5, 7.0) == 0.0

    def test_cauchy_quartile(self):
        assert student_t_quantile(0.75, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_bisection_oracle(self):
        # an independent inversion of the t CDF: scipy's t.ppf
        oracle = stats.t.ppf(0.975, 3)
        assert student_t_quantile(0.975, 3.0) == pytest.approx(oracle, abs=1e-9)

    def test_roundtrip_probability_error(self):
        ps = np.arange(0.01, 1.0, 0.01)
        for df in (1.0, 2.0, 5.0, 30.0):
            back = student_t_cdf(student_t_quantile(ps, df), df)
            assert np.abs(back - ps).max() <= 1e-8

    def test_extreme_probabilities(self):
        for p in (1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12):
            for df in (1.0, 4.0, 50.0):
                q = student_t_quantile(p, df)
                assert math.isfinite(q)
                assert student_t_cdf(q, df) == pytest.approx(p, abs=1e-9)

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                student_t_quantile(bad, 5.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 7])
    def test_lower_tail_against_reference(self, df):
        # reflecting p to 1 - p lost these: df = 3, p = 1e-15 gave -24131
        # and p = 1e-17 raised a DomainError
        for p in (1e-12, 1e-15, 1e-17, 1e-300):
            got = student_t_quantile(p, float(df))
            ref = t_ppf_reference(p, df)
            assert math.isfinite(got)
            assert abs(got - ref) <= 1e-12 * abs(ref), (p, got, ref)


    @pytest.mark.parametrize("df, t_hi", T_ORACLE_GRID)
    def test_lower_tail_against_mpmath_grid(self, df, t_hi):
        # p = the rounded tail at each grid t; the reference is one Newton
        # step at 50 digits from that t to the rounded p. Nearer p = 1/2 the
        # relative error of t is no longer bounded by that of p, so the
        # check stops at p = 0.25. At df = 1000, p = 2.5e-19 the quantile
        # used to be 6.2% off.
        mp = pytest.importorskip("mpmath")
        t, tails = t_tail_oracle(df, t_hi)
        p = np.array([float(tail) for tail in tails])
        tail_side = p <= 0.25
        with mp.workdps(50):
            ref = np.array([
                float(v + (tail - pv) / t_pdf_mpmath(v, df))
                for v, tail, pv, keep in zip(t, tails, p, tail_side) if keep
            ])
        got = -student_t_quantile(p[tail_side], df)
        rel = np.abs(got - ref) / ref
        assert rel.max() <= 1e-12, (p[tail_side][rel.argmax()], rel.max())

    @pytest.mark.parametrize("df", [2.5, 100.0, 1e4, 1e6, 1e8])
    def test_roundtrip_down_to_1e300(self, df):
        # a Newton step below one ulp of t used to count as leaving the
        # bracket, so the lane bisected towards 0: at df = 1e6 and
        # p = 1e-227 it stopped at -21.38 instead of -32.20
        p = 10.0 ** -np.arange(1.0, 301.0)
        back = student_t_cdf(student_t_quantile(p, df), df)
        np.testing.assert_allclose(back, p, rtol=1e-12)

    def test_beyond_the_largest_double(self):
        # at df = 0.5 even the largest double leaves a tail of 3.2e-155, so
        # p = 1e-300 has no finite quantile; p = 1e-150 has one near 1e300
        assert float(t_tail_mpmath(np.finfo(np.float64).max, 0.5)) > 1e-300
        assert student_t_quantile(1e-300, 0.5) == -math.inf
        q = student_t_quantile(1e-150, 0.5)
        assert float(t_tail_mpmath(q, 0.5)) == pytest.approx(1e-150, rel=1e-12)


class TestNormal:
    def test_cdf_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile_center(self):
        assert normal_quantile(0.5) == 0.0

    def test_cdf_reference_point(self):
        # frozen from 0.5 * (1 + erf(z / sqrt 2)) with stdlib erf
        assert normal_cdf(1.959964) == pytest.approx(0.9750000009035575, abs=1e-12)

    def test_cdf_against_mpmath_erfc(self):
        # normal_cdf is the C library's erfc, so the reference is mpmath's
        # erfc at the same double argument
        mp = pytest.importorskip("mpmath")
        z = np.linspace(-37.0, 37.0, 3001)
        with mp.workdps(40):
            ref = np.array([float(mp.erfc(-v / math.sqrt(2.0)) / 2) for v in z])
        np.testing.assert_allclose(normal_cdf(z), ref, rtol=5e-14, atol=1e-300)

    def test_roundtrip(self):
        z = np.linspace(-6.0, 6.0, 1201)
        back = normal_quantile(normal_cdf(z))
        assert np.abs(back - z).max() <= 1e-7

    def test_quantile_roundtrip_probability(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(1e-12, 1.0 - 1e-12, 4000)
        np.testing.assert_allclose(normal_cdf(normal_quantile(p)), p, atol=1e-12)

    def test_pdf_matches_cdf_slope(self):
        z = np.linspace(-5.0, 5.0, 41)
        h = 1e-6
        slope = (normal_cdf(z + h) - normal_cdf(z - h)) / (2.0 * h)
        np.testing.assert_allclose(normal_pdf(z), slope, atol=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                normal_quantile(bad)

    def test_quantile_against_mpmath(self):
        # all three branches, the lower tail down to 1e-300, the body near
        # 1/2, and the upper tail at 1 - 2^-k, where 1 - p is exact
        rng = np.random.default_rng(21)
        p = np.concatenate(
            [
                rng.uniform(0.0, 1.0, 3000),
                10.0 ** rng.uniform(-300.0, 0.0, 2000),
                0.5 + rng.uniform(-1e-3, 1e-3, 200),
                1.0 - 2.0 ** -np.arange(2.0, 54.0),
            ]
        )
        p = p[(p > 0.0) & (p < 1.0) & (p != 0.5)]
        got = normal_quantile(p)
        ref = normal_quantile_mpmath(p, got)
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel.max() <= 1e-15, (p[rel.argmax()], rel.max())

    def test_quantile_antisymmetry_is_exact(self):
        # 1 - p is exact for p >= 1/2, so the two quantiles can agree exactly
        rng = np.random.default_rng(22)
        p = np.concatenate([rng.uniform(0.5, 1.0, 20000), 1.0 - 2.0 ** -np.arange(1.0, 54.0)])
        np.testing.assert_array_equal(normal_quantile(1.0 - p), -normal_quantile(p))

    def test_quantile_keeps_the_input_shape(self):
        p = np.random.default_rng(23).uniform(0.0, 1.0, (300, 4))
        p[0, :] = (1e-300, 1e-12, 0.5, 1.0 - 1e-12)  # every branch
        got = normal_quantile(p)
        assert got.shape == (300, 4)
        np.testing.assert_array_equal(got, normal_quantile(p.reshape(-1)).reshape(300, 4))


class TestVectorizationAndPurity:
    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(-8.0, 8.0, 50)
        df = rng.uniform(0.5, 100.0, 50)
        # integer-df lanes (closed forms, finite series, continued fraction
        # above its bound) mixed into the same arrays
        t = np.concatenate([t, rng.uniform(-30.0, 30.0, 40), [-1e6, 1e-6, 0.0]])
        df = np.concatenate([df, rng.integers(1, 80, 40).astype(float), [3.0, 7.0, 2.0]])
        vec = student_t_cdf(t, df)
        scal = np.array([student_t_cdf(float(a), float(b)) for a, b in zip(t, df)])
        np.testing.assert_array_equal(vec, scal)

        p = student_t_cdf(np.abs(t) / 3.0, df) - rng.uniform(0.0, 0.5, t.size)
        p = np.clip(p, 1e-20, 1.0 - 1e-12)
        vec = student_t_quantile(p, df)
        scal = np.array([student_t_quantile(float(a), float(b)) for a, b in zip(p, df)])
        np.testing.assert_array_equal(vec, scal)

    def test_scalar_inputs_return_floats(self):
        assert isinstance(student_t_cdf(1.0, 5.0), float)
        assert isinstance(student_t_quantile(0.4, 5.0), float)
        assert isinstance(normal_cdf(0.3), float)
        assert isinstance(ln_gamma(2.5), float)

    def test_deterministic(self):
        args = (0.123456, 7.0)
        assert student_t_cdf(*args) == student_t_cdf(*args)
        assert student_t_quantile(0.321, 3.0) == student_t_quantile(0.321, 3.0)
