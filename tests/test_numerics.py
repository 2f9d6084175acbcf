"""Special-function tests against independent oracles.

Oracles: stdlib math (lgamma), scipy quadrature of the underlying
densities, scipy's distribution functions and its normal CDF (ndtr), and
mpmath (incomplete beta, log beta, the normal CDF and density). Frozen
constants below were computed with the oracle code kept alongside each
test.
"""

import functools
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from lfdrshrink.errors import DomainError
from lfdrshrink.lfdr import probit_transform
from lfdrshrink.numerics import (
    _ln_beta,
    normal_pdf,
    normal_quantile,
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


class TestLnBeta:
    @pytest.mark.parametrize("swap", [False, True])
    def test_against_mpmath(self, swap):
        # ln B(df/2, 1/2), the t tail's normalizer: the Lanczos arm below
        # max(a, b) = 16 and the Stirling arm above it, to df = 1e15
        mp = pytest.importorskip("mpmath")
        df = np.geomspace(0.01, 1e15, 400)
        a, b = 0.5 * df, np.full_like(df, 0.5)
        if swap:
            a, b = b, a
        with mp.workdps(40):
            ref = np.array([float(mp.log(mp.beta(mp.mpf(x), mp.mpf(y)))) for x, y in zip(a, b)])
        budget = 1e-12 * np.maximum(1.0, np.abs(ref))
        err = np.abs(_ln_beta(a, b) - ref)
        assert np.all(err <= budget), (df[err.argmax()], err.max())


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
        total = [student_t_cdf(a, d) + student_t_cdf(-a, d) for a, d in zip(t, df)]
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
        gap = np.abs(student_t_cdf(t, 1e6) - ndtr(t))
        assert gap.max() <= 1e-4

    def test_cauchy_closed_form_grid(self):
        t = np.linspace(-30.0, 30.0, 601)
        closed = 0.5 + np.arctan(t) / math.pi
        np.testing.assert_allclose(student_t_cdf(t, 1.0), closed, atol=1e-12)

    def test_rejects_bad_df(self):
        for df in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match=r"^student_t_cdf requires df > 0"):
                student_t_cdf(1.0, df)
            with pytest.raises(DomainError, match=r"^student_t_quantile requires df > 0"):
                student_t_quantile(0.3, df)

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

    @pytest.mark.parametrize("df", [1e154, 1e200, 1e300, 1.7e308, math.inf])
    def test_huge_df_is_the_normal(self, df):
        # overflow warnings from df ~ 1.3e154 on used to precede a
        # NumericError at df = inf. The largest CDF error, at t = -1.73 next
        # to the form cut sqrt(3), is the fraction's: ndtr is right there.
        t = np.linspace(-37.0, 37.0, 7401)
        np.testing.assert_allclose(student_t_cdf(t, df), ndtr(t), rtol=5.2e-13, atol=0.0)
        p = np.concatenate([10.0 ** -np.linspace(1.0, 299.0, 2981), np.linspace(1e-3, 0.499, 500)])
        np.testing.assert_allclose(student_t_quantile(p, df), ndtri(p), rtol=9e-14, atol=0.0)
        assert student_t_quantile(0.5, df) == 0.0

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

    def test_bisection_near_the_largest_double(self):
        # the bisection midpoint of two brackets near 8e307 used to be
        # 0.5 * (lo + hi), whose sum overflows: a RuntimeWarning, which the
        # suite turns into an error
        q = student_t_quantile(3.6e-155, 0.5)
        assert -8.4e307 < q < -7.1e307
        assert float(t_tail_mpmath(q, 0.5)) == pytest.approx(3.6e-155, rel=1e-12)

    def test_df_four_against_the_closed_form(self):
        # df = 4 gives Hill's seed (d p2) ** (2 / df) the exponent 1/2, which
        # numpy evaluates as a square root. The reference is the closed form
        # t = -2 sqrt(s - 1), s = cos(acos(sqrt(a)) / 3) / sqrt(a), a = 4 p (1 - p)
        # (Shaw 2006), at 40 digits. Within about 1e-4 of p = 1/2 the Newton
        # stop on the absolute tail error leaves up to Hill's 4.6e-8 relative
        # error in t, so the relative check stops at 0.499.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(44)
        p = np.concatenate([
            10.0 ** -np.arange(1.0, 301.0),
            10.0 ** rng.uniform(-300.0, math.log10(0.499), 2000),
            np.linspace(0.1, 0.499, 400),
        ])
        with mp.workdps(40):
            def closed_form(v):
                a = 4 * mp.mpf(v) * (1 - mp.mpf(v))
                return float(-2 * mp.sqrt(mp.cos(mp.acos(mp.sqrt(a)) / 3) / mp.sqrt(a) - 1))
            ref = np.array([closed_form(v) for v in p])
        got = student_t_quantile(p, 4.0)
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel.max() <= 1e-13, (p[rel.argmax()], rel.max())
        assert student_t_quantile(0.5, 4.0) == 0.0


class TestNormal:
    def test_quantile_center(self):
        assert normal_quantile(0.5) == 0.0

    def test_roundtrip(self):
        z = np.linspace(-6.0, 6.0, 1201)
        back = normal_quantile(ndtr(z))
        assert np.abs(back - z).max() <= 1e-7

    def test_quantile_roundtrip_probability(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(1e-12, 1.0 - 1e-12, 4000)
        np.testing.assert_allclose(ndtr(normal_quantile(p)), p, atol=1e-12)

    def test_pdf_matches_cdf_slope(self):
        z = np.linspace(-5.0, 5.0, 41)
        h = 1e-6
        slope = (ndtr(z + h) - ndtr(z - h)) / (2.0 * h)
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
        # one call per df over every lane: each lane whose draw has that df
        # must equal its own scalar call
        def per_df(fn, x):
            vec, scal = np.empty_like(x), np.empty_like(x)
            for d in np.unique(df):
                lanes = df == d
                vec[lanes] = fn(x, d)[lanes]
                scal[lanes] = [fn(float(a), float(d)) for a in x[lanes]]
            return vec, scal

        vec, scal = per_df(student_t_cdf, t)
        np.testing.assert_array_equal(vec, scal)

        cdf = np.array([student_t_cdf(a, d) for a, d in zip(np.abs(t) / 3.0, df)])
        p = cdf - rng.uniform(0.0, 0.5, t.size)
        p = np.clip(p, 1e-20, 1.0 - 1e-12)
        vec, scal = per_df(student_t_quantile, p)
        np.testing.assert_array_equal(vec, scal)

    def test_scalar_inputs_return_floats(self):
        assert isinstance(student_t_cdf(1.0, 5.0), float)
        assert isinstance(student_t_quantile(0.4, 5.0), float)
        assert isinstance(normal_quantile(0.3), float)
        assert isinstance(normal_pdf(0.3), float)

    def test_deterministic(self):
        args = (0.123456, 7.0)
        assert student_t_cdf(*args) == student_t_cdf(*args)
        assert student_t_quantile(0.321, 3.0) == student_t_quantile(0.321, 3.0)


class TestScalarDf:
    # every feature of one analysis shares df = n - 1, so df is one scalar
    # per call and the t kernels pick their path once for every lane
    @pytest.mark.parametrize("df", [np.array([3.0]), np.array([3.0, 4.0])])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("student_t_cdf", lambda df: student_t_cdf(np.array([-1.0, 2.0]), df)),
            ("student_t_quantile", lambda df: student_t_quantile(np.array([0.1, 0.7]), df)),
            ("probit_transform", lambda df: probit_transform(np.array([-1.0, 2.0]), df)),
        ],
    )
    def test_array_df_is_a_domain_error(self, name, call, df):
        with pytest.raises(DomainError, match=rf"^{name} takes one scalar df, got an array"):
            call(df)

    @pytest.mark.parametrize(
        "df, same",
        [
            (3, 3.0),
            (np.float64(2.5), 2.5),
            (np.array(7.0), 7.0),
            (np.array(0.5), 0.5),
            (math.inf, 1e150),
            (np.float64(math.inf), 1e150),
            (np.array(math.inf), 1e150),
        ],
    )
    def test_scalar_forms_give_the_float_bits(self, df, same):
        t = np.array([-1e3, -4.0, -0.3, 0.0, 1e-6, 2.0, 40.0])
        p = np.array([1e-300, 1e-9, 0.02, 0.5, 0.7, 1.0 - 1e-12])
        np.testing.assert_array_equal(student_t_cdf(t, df), student_t_cdf(t, same))
        np.testing.assert_array_equal(student_t_quantile(p, df), student_t_quantile(p, same))
        np.testing.assert_array_equal(probit_transform(t, df), probit_transform(t, same))
        assert student_t_cdf(-2.0, df) == student_t_cdf(-2.0, same)
        assert isinstance(student_t_cdf(-2.0, df), float)
        assert isinstance(student_t_quantile(0.2, df), float)
