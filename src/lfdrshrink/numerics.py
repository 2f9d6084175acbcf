"""Special functions used throughout the package.

The Student-t CDF and quantile, and the standard-normal quantile and
density. Everything here is a pure function with no global state: a
scalar in gives a float out, a numpy array in gives an array of the same
shape, elementwise. The quantiles accept 0 < p < 1.

The t functions take one scalar df > 0 per call, df = inf included, which
gives the normal: a Python or numpy scalar or a 0-d array. An array df,
even of one element, is a DomainError. Every feature in one analysis
shares df = n - 1, so each call picks its kernel once for all its lanes.

The t functions work with the tail probability P(T > |t|): the CDF takes
both tails from it, and the quantile solves it for q = min(p, 1 - p), so
tiny lower-tail probabilities keep full relative precision. The tail
kernel depends on df alone:

- integer df up to 64 use exact kernels: atan2(1, |t|) / pi for df = 1,
  1 / (r (r + |t|)) with r = sqrt(2 + t^2) for df = 2, and otherwise the
  finite series of Abramowitz & Stegun 26.7.3-4, or its convergent
  complement where the finite sum would cancel;
- every other df uses the Tretter & Walster continued fraction for the
  incomplete beta as TOMS 708's BFRAC evaluates it (DiDonato & Morris
  1992), in one of two forms picked by |t| (``_t_tail_beta``). Its lower
  tail is within 5.2e-13 relative of scipy's stdtr for df from 0.01 to
  1e15 and tails down to 1e-300.

The t quantile is closed-form for df = 1 and df = 2. Other df start from
Hill's expansion (1970, CACM Algorithm 396) and are polished by
safeguarded Newton steps on the tail that iterate only the lanes that
have not converged. Also used: a Lanczos series for the log-gamma
function (Stirling's series where ln B would cancel), and Wichura's
AS 241 for the normal quantile, accurate to about 1 ulp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "student_t_cdf",
    "student_t_quantile",
    "normal_pdf",
    "normal_quantile",
]

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Lanczos g=7, n=9 coefficients (double-precision standard set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Integer df up to this bound take the exact finite-series tail. On 1e5
# lanes of |t| drawn from t_df (and of twice those values) the series ran
# 1.8x faster (1.1x slower) than the continued fraction at df = 30, broke
# even (ran 2x slower) at df = 64, and ran 1.6x slower at df = 100.
_T_EXACT_MAX_DF = 64.0

# Below this share of its leading term the finite series has cancelled
# about 7 bits (relative error <= 4e-14 up to df = 30); smaller tails
# switch to the complement series.
_T_SERIES_SWITCH = 0.01

# Larger df, df = inf included, are computed at this df: t_df and N(0, 1)
# agree there far below one ulp for |t| <= 37, and squares of df or df / 2
# in the Stirling and Hill terms stay finite.
_T_MAX_DF = 1e150

# iteration cap and relative-step stop of the incomplete-beta continued fraction
_BETA_CF_MAX_ITER = 300
_BETA_CF_TOL = 1e-15


def _t_df(df, name: str) -> np.float64:
    """The one df of a t function call, clamped to _T_MAX_DF. An array df,
    even of one element, or a df that is not > 0 is a DomainError that
    names ``name``."""
    if np.ndim(df) != 0:
        raise DomainError(f"{name} takes one scalar df, got an array of shape {np.shape(df)}")
    df = np.float64(df)
    if not df > 0.0:
        raise DomainError(f"{name} requires df > 0")
    return np.minimum(df, _T_MAX_DF)


def _maybe_scalar(out: np.ndarray, x) -> float | np.ndarray:
    return float(out) if np.ndim(x) == 0 else out


def _lanczos_ln_gamma(x: np.ndarray) -> np.ndarray:
    series = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        series = series + _LANCZOS[k] / (x + (k - 1.0))
    w = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * np.log(w) - w + np.log(series)


def _stirling_remainder(z: np.ndarray) -> np.ndarray:
    # ln Gamma(z) - (z - 1/2) ln z + z - ln sqrt(2 pi), truncated after the
    # z^-9 term: the first term dropped is below 1.1e-16 for z >= 16
    zi2 = 1.0 / (z * z)
    return ((((zi2 / 1188.0 - 1.0 / 1680.0) * zi2 + 1.0 / 1260.0) * zi2 - 1.0 / 360.0) * zi2
            + 1.0 / 12.0) / z


def _ln_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln B(a, b). Where max(a, b) >= 16 the Lanczos log-gammas would
    cancel, so with a the larger argument and w the Stirling remainder
    ln G(a) - ln G(a + b) = -b ln a - (a + b - 1/2) log1p(b / a) + b
    + w(a) - w(a + b), as in TOMS 708's ALGDIV.
    """
    small = np.minimum(a, b)
    big = np.maximum(a, b)
    lanczos = _lanczos_ln_gamma(big) - _lanczos_ln_gamma(a + b)
    s = np.maximum(big, 16.0)
    stirling = (
        small - small * np.log(s) - (s + small - 0.5) * np.log1p(small / s)
        + _stirling_remainder(s) - _stirling_remainder(s + small)
    )
    return _lanczos_ln_gamma(small) + np.where(big >= 16.0, stirling, lanczos)


def _beta_fraction(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I_x(a, b) / (x^a y^b / B(a, b)) with y = 1 - x, from the continued
    fraction of Tretter & Walster as TOMS 708's BFRAC evaluates it.

    Holds for x up to the swap point (a + 1) / (a + b + 2), where
    lambda = a - (a + b) x = (a + b) y - b > -1. lambda is formed from
    whichever of x and y avoids cancellation, so with an exact y the
    fraction keeps full precision for x near 1. Each lane is frozen at its
    own convergence point, so results do not depend on what else shares
    the batch (vector == scalar bitwise).
    """
    c = 1.0 + ((a + b) * y - b if a > b else a - (a + b) * x)
    c0, c1 = b / a, 1.0 + 1.0 / a
    yp1 = 1.0 + y
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    converged = np.zeros(r.shape, dtype=bool)
    for n in range(1, _BETA_CF_MAX_ITER + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s = s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        step = anp1 / bnp1
        done = np.abs(step - r) <= _BETA_CF_TOL * step
        r = np.where(converged, r, step)
        converged |= done
        if np.all(converged):
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, step, 1.0
    raise NumericError(
        f"incomplete beta continued fraction did not converge in {_BETA_CF_MAX_ITER} iterations"
    )


def _t_tail_beta(a: np.ndarray, df: float) -> np.ndarray:
    """P(T > a) for any df > 0 from the incomplete-beta continued fraction.

    With x = df / (df + a^2), y = 1 - x, F = x^(df/2) y^(1/2) / B(df/2, 1/2)
    and r from ``_beta_fraction``,

        P = F r(df/2, 1/2, x, y) / 2          for a^2 >= 3 df / (df + 2),
        P = 1/2 - F r(1/2, df/2, y, x) / 2    below it.

    The cut is the swap point of both fractions, and P >= 0.0416 wherever
    the second form subtracts. F, x and y come from
    w = min(a, sqrt df) / max(a, sqrt df), never from a rounded x, so no
    square overflows. A NaN lane stays NaN.
    """
    root_df = np.sqrt(df)
    w = np.minimum(a, root_df) / np.maximum(a, root_df)
    w2 = w * w
    inner = a < root_df
    x = np.where(inner, 1.0, w2) / (1.0 + w2)
    y = np.where(inner, w2, 1.0) / (1.0 + w2)
    with np.errstate(divide="ignore"):  # w = 0 at a = 0 and a = inf
        ln_front = np.where(inner, 1.0, df) * np.log(w) - 0.5 * (df + 1.0) * np.log1p(w2)
    half_front = 0.5 * np.exp(ln_front - _ln_beta(0.5 * df, 0.5))
    out = np.full_like(a, np.nan)
    cut = np.sqrt(3.0 / (1.0 + 2.0 / df))
    body = np.flatnonzero(a < cut)
    out[body] = 0.5 - half_front[body] * _beta_fraction(0.5, 0.5 * df, y[body], x[body])
    tail = np.flatnonzero(a >= cut)
    out[tail] = half_front[tail] * _beta_fraction(0.5 * df, 0.5, x[tail], y[tail])
    return out


def _t_tail_series(a: np.ndarray, df: float) -> np.ndarray:
    """P(T > a) for integer df >= 3 from the A&S 26.7.3-4 finite series.

    With u = df / (df + a^2), K = floor(df / 2), o = df mod 2 and
    coefficients c_0 = 1, c_k = c_{k-1} (2k + o - 1) / (2k + o),

        P = head - pre * sum_{k<K} c_k u^k = pre * sum_{k>=K} c_k u^k,

    where head = 1/2, pre = sqrt(1 - u) / 2 for even df and
    head = atan2(sqrt(df), a) / pi, pre = sqrt(u (1 - u)) / pi for odd df.
    The finite form cancels as P -> 0; lanes where it drops below
    _T_SERIES_SWITCH * head take the complement, a sum of positive terms.
    """
    a = np.minimum(a, 1e150)  # keeps a^2 finite; the tail is 0 from here
    v = df + a * a
    u = df / v
    k = int(df) // 2
    odd = df - 2.0 * k
    if odd:
        root_df = np.sqrt(df)
        head = np.arctan2(root_df, a) / math.pi
        pre = a * root_df / (math.pi * v)
    else:
        head = 0.5
        pre = 0.5 * a / np.sqrt(v)

    term = np.ones_like(a)
    total = np.ones_like(a)
    for j in range(1, k):
        term = term * u * ((2 * j - 1 + odd) / (2 * j + odd))
        total = total + term
    out = head - pre * total

    comp = np.flatnonzero(out < _T_SERIES_SWITCH * head)
    if comp.size:
        u = u[comp]
        term = term[comp] * u * ((2.0 * k - 1.0 + odd) / (2.0 * k + odd))
        total = term.copy()
        # the terms fall faster than u^k, so stopping at term <= eps/2 *
        # (1 - u) * total truncates less than eps/2 of the sum
        tol = 0.5 * np.finfo(np.float64).eps * (v[comp] - df) / v[comp]
        # every lane still summing is at the same k
        act = np.flatnonzero(term > tol * total)
        while act.size:
            k += 1
            step = term[act] * u[act] * ((2.0 * k - 1.0 + odd) / (2.0 * k + odd))
            term[act] = step
            total[act] += step
            act = act[step > tol[act] * total[act]]
        out[comp] = pre[comp] * total
    return out


def _t_tail(a: np.ndarray, df: float) -> np.ndarray:
    """Upper tail P(T > a) for a >= 0: the exact kernels for integer df up
    to _T_EXACT_MAX_DF, the continued fraction for every other df."""
    if df == 1.0:
        return np.arctan2(1.0, a) / math.pi
    if df == 2.0:
        with np.errstate(over="ignore"):  # a^2 = inf above 1.3e154 gives a tail of 0
            r = np.sqrt(2.0 + a * a)
            return 1.0 / (r * (r + a))
    if df <= _T_EXACT_MAX_DF and df == np.floor(df):
        return _t_tail_series(a, df)
    return _t_tail_beta(a, df)


def student_t_cdf(t, df):
    """CDF of the central Student t distribution with one scalar df > 0.

    Both tails come from P(T > |t|), so F(t) for t < 0 keeps full
    relative precision however small it is.
    """
    df = _t_df(df, "student_t_cdf")
    t_arr = np.asarray(t, dtype=np.float64)
    tail = _t_tail(np.abs(t_arr).reshape(-1), df).reshape(t_arr.shape)
    out = np.where(t_arr > 0.0, 1.0 - tail, tail)
    out = np.where(t_arr == 0.0, 0.5, out)
    return _maybe_scalar(out, t)


def _cauchy_tail_quantile(q: np.ndarray) -> np.ndarray:
    # 1 / tan(pi q), written as tan(pi (1/2 - q)) where 1/2 - q is exact
    with np.errstate(divide="ignore"):
        return np.where(
            q < 0.25, 1.0 / np.tan(math.pi * q), np.tan(math.pi * (0.5 - q))
        )


def _hill_tail_quantile(q: np.ndarray, df: float) -> np.ndarray:
    """Hill (1970, CACM Algorithm 396) approximation to t with P(T > t) = q.

    Valid for df >= 1; the normal-expansion branch covers the body, the
    other branch the far tail.
    """
    p2 = 2.0 * q  # two-sided probability
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * np.sqrt(a * math.pi / 2.0) * df
    y = (d * p2) ** (2.0 / df)

    # both branches are evaluated everywhere; each overflows only where the
    # other is used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = _normal_quantile_array(q)
        x2 = x * x
        if df < 5.0:
            c = c + 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        body = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / c - x2 - 3.0) / b + 1.0) * x
        body = np.expm1(a * body * body)
        far = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    use_body = y > 0.05 + a
    if df < 2.1:
        use_body |= p2 > 0.5
    return np.sqrt(df * np.where(use_body, body, far))


def _t_tail_quantile_newton(t0: np.ndarray, q: np.ndarray, df: float) -> np.ndarray:
    """Polish t0 towards P(T > t) = q by safeguarded Newton steps.

    Only the lanes that have not converged are evaluated (an active set);
    each lane's iterates do not depend on the other lanes.
    """
    lo = np.zeros_like(t0)  # P(T > 0) = 1/2 >= q
    hi = t0 + 1.0
    act = np.arange(t0.size)
    for _ in range(200):
        act = act[student_t_cdf(-hi[act], df) > q[act]]
        if not act.size:
            break
        lo[act] = hi[act]
        with np.errstate(over="ignore"):  # a quantile beyond 1e308 is infinite
            hi[act] *= 2.0
    else:
        raise NumericError("student_t_quantile could not bracket the target")

    # ln of the t density's normalizing constant
    ln_norm = (
        _lanczos_ln_gamma((df + 1.0) / 2.0) - _lanczos_ln_gamma(df / 2.0) - 0.5 * np.log(df * math.pi)
    )
    t = np.clip(t0, lo, hi)
    act = np.arange(t0.size)
    for _ in range(100):
        ta, qa = t[act], q[act]
        err = student_t_cdf(-ta, df) - qa  # > 0 while ta is short of the root
        la = np.where(err > 0.0, ta, lo[act])
        ha = np.where(err < 0.0, ta, hi[act])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ln_pdf = ln_norm - 0.5 * (df + 1.0) * np.log1p(ta * ta / df)
            t_new = ta + err * np.exp(-ln_pdf)
        # a step below half an ulp of t leaves t where it is: converged
        done = (np.abs(err) <= 1e-13 * qa) | ((ha - la) <= 1e-15 * np.maximum(1.0, ta)) | (t_new == ta)
        bad = ~np.isfinite(t_new) | (t_new <= la) | (t_new >= ha)
        # halves first: la + ha overflows where both are near the largest double
        t_new = np.where(bad, 0.5 * la + 0.5 * ha, t_new)
        keep = ~done
        act = act[keep]
        if not act.size:
            break
        t[act] = t_new[keep]
        lo[act] = la[keep]
        hi[act] = ha[keep]
    return t


def student_t_quantile(p, df):
    """Inverse of ``student_t_cdf`` in its first argument.

    Solves P(T > t) = q for the tail probability q = min(p, 1 - p) and
    applies the sign of p - 1/2, so tiny p keep full relative precision.
    df = 1 and df = 2 are closed forms; other df start from Hill's
    expansion (df < 1 from the tail's leading term, which overestimates)
    and are polished by Newton steps on the tail.
    """
    df = _t_df(df, "student_t_quantile")
    p_in = np.asarray(p, dtype=np.float64)
    if not np.all((p_in > 0.0) & (p_in < 1.0)):
        raise DomainError("student_t_quantile requires 0 < p < 1")

    pp = p_in.reshape(-1)
    q = np.minimum(pp, 1.0 - pp)  # 1 - p is exact for p >= 1/2
    if df == 1.0:
        t = _cauchy_tail_quantile(q)
    elif df == 2.0:
        t = (1.0 - 2.0 * q) / np.sqrt(2.0 * q * (1.0 - q))
    else:
        t = np.zeros_like(q)  # the median, at q = 1/2
        solve = np.flatnonzero(q < 0.5)
        if solve.size:
            qs = q[solve]
            if df > 1.0:
                seed = _hill_tail_quantile(qs, df)
            else:
                # q = df^(df/2 - 1) t^-df / B(df/2, 1/2), beyond 1e308 for tiny q
                ln_front = (0.5 * df - 1.0) * np.log(df) - _ln_beta(0.5 * df, 0.5)
                with np.errstate(over="ignore"):
                    seed = np.exp((ln_front - np.log(qs)) / df)
            t[solve] = _t_tail_quantile_newton(seed, qs, df)

    out = np.where(pp < 0.5, -t, t).reshape(p_in.shape)
    return _maybe_scalar(out, p)


# --- standard normal ----------------------------------------------------

def normal_pdf(z):
    """Standard normal density."""
    z_arr = np.asarray(z, dtype=np.float64)
    out = np.exp(-0.5 * z_arr * z_arr) / _SQRT_2PI
    return _maybe_scalar(out, z)


# Wichura (1988), Algorithm AS 241 (PPND16), Applied Statistics 37(3),
# 477-484: numerator and denominator coefficients of three degree-7
# rational approximations, constant term first.
_AS241_A = (  # |p - 1/2| <= 0.425, in r = 0.180625 - (p - 1/2)^2
    3.387132872796366608,
    133.14166789178437745,
    1971.5909503065514427,
    13731.693765509461125,
    45921.953931549871457,
    67265.770927008700853,
    33430.575583588128105,
    2509.0809287301226727,
)
_AS241_B = (
    1.0,
    42.313330701600911252,
    687.1870074920579083,
    5394.1960214247511077,
    21213.794301586595867,
    39307.89580009271061,
    28729.085735721942674,
    5226.495278852545925,
)
_AS241_C = (  # r = sqrt(-log(min(p, 1 - p))) <= 5, in r - 1.6
    1.42343711074968357734,
    4.6303378461565452959,
    5.7694972214606914055,
    3.64784832476320460504,
    1.27045825245236838258,
    0.24178072517745061177,
    0.0227238449892691845833,
    7.7454501427834140764e-4,
)
_AS241_D = (
    1.0,
    2.05319162663775882187,
    1.6763848301838038494,
    0.68976733498510000455,
    0.14810397642748007459,
    0.0151986665636164571966,
    5.475938084995344946e-4,
    1.05075007164441684324e-9,
)
_AS241_E = (  # r > 5, in r - 5
    6.6579046435011037772,
    5.4637849111641143699,
    1.7848265399172913358,
    0.29656057182850489123,
    0.026532189526576123093,
    0.0012426609473880784386,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_AS241_F = (
    1.0,
    0.59983220655588793769,
    0.13692988092273580531,
    0.0148753612908506148525,
    7.868691311456132591e-4,
    1.8463183175100546818e-5,
    1.4215117583164458887e-7,
    2.04426310338993978564e-15,
)


def _rational(x: np.ndarray, num, den) -> np.ndarray:
    # Horner's rule for num(x) / den(x), in place on two work arrays
    n = num[-1] * x
    d = den[-1] * x
    for k in range(len(num) - 2, 0, -1):
        n += num[k]
        n *= x
        d += den[k]
        d *= x
    n += num[0]
    d += den[0]
    n /= d
    return n


def _normal_quantile_array(p: np.ndarray) -> np.ndarray:
    """AS 241 on any shape of p in (0, 1), to about 1 ulp.

    The central branch runs on every lane (its denominator has no zero
    for |p - 1/2| <= 1/2) and the tail lanes are overwritten by index.
    Both branches depend on p only through |p - 1/2| and min(p, 1 - p),
    which are exact for p >= 1/2, so x(1 - p) = -x(p) exactly there.
    """
    flat = p.reshape(-1)
    q = flat - 0.5
    out = _rational(0.180625 - q * q, _AS241_A, _AS241_B)
    out *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = flat[tail]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        x = _rational(r - 1.6, _AS241_C, _AS241_D)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            x[far] = _rational(r[far] - 5.0, _AS241_E, _AS241_F)
        out[tail] = np.where(q[tail] < 0.0, -x, x)
    return out.reshape(p.shape)


def normal_quantile(p):
    """Inverse of the standard normal CDF for 0 < p < 1."""
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise DomainError("normal_quantile requires 0 < p < 1")
    return _maybe_scalar(_normal_quantile_array(p_arr), p)

