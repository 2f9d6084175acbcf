"""Special functions used throughout the package.

Student-t and standard-normal CDFs/quantiles and the regularized
incomplete beta function they rest on. Everything here is a pure
function: floats in, floats out, numpy arrays accepted and returned
elementwise. No global state.

The t functions work with the tail probability P(T > |t|): the CDF takes
both tails from it, and the quantile solves it for q = min(p, 1 - p), so
tiny lower-tail probabilities keep full relative precision. The tail is
chosen per lane from df:

- integer df up to 64 use exact kernels: atan2(1, |t|) / pi for df = 1,
  1 / (r (r + |t|)) with r = sqrt(2 + t^2) for df = 2, and otherwise the
  finite series of Abramowitz & Stegun 26.7.3-4, or its convergent
  complement where the finite sum would cancel;
- other df up to 3000 use a Lentz-style continued fraction for the
  incomplete beta, and larger df a corrected normal limit.

The t quantile is closed-form for df = 1 and df = 2. Other df start from
Hill's expansion (1970, CACM Algorithm 396) and are polished by
safeguarded Newton steps on the tail that iterate only the lanes that
have not converged. Also used: a Lanczos series for the log-gamma
function, Cody's rational approximations for erfc (behind ``normal_cdf``
and the df > 3000 t limit), and Wichura's AS 241 for the normal quantile,
accurate to about 1 ulp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "ln_gamma",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "student_t_quantile",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
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

# Above this, the incomplete-beta continued fraction stops converging
# within its iteration cap for a band of t arguments (first failures near
# df ~ 4000); switch the t CDF to its normal limit with second-order 1/df
# corrections (absolute error <= 4e-11 at the boundary, shrinking as df
# grows, and strictly monotone in t for every df).
_T_NORMAL_LIMIT_DF = 3000.0

# Integer df up to this bound take the exact finite-series tail; above it
# the series needs more terms than the continued fraction it replaces.
# On 1e5 lanes of |t| drawn from t_df (and of twice those values) the
# series ran 4.7x (2.0x) faster at df = 30, 3.4x (1.2x) at df = 64, and
# broke even between df = 80 and df = 100.
_T_EXACT_MAX_DF = 64.0

# Below this share of its leading term the finite series has cancelled
# about 7 bits (relative error <= 4e-14 up to df = 30); smaller tails
# switch to the complement series.
_T_SERIES_SWITCH = 0.01

# iteration cap and relative-step stop of the incomplete-beta continued fraction
_BETA_CF_MAX_ITER = 300
_BETA_CF_TOL = 1e-15


def _maybe_scalar(out: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _lanczos_ln_gamma(x: np.ndarray) -> np.ndarray:
    series = np.full_like(x, _LANCZOS[0])
    for k in range(1, len(_LANCZOS)):
        series = series + _LANCZOS[k] / (x + (k - 1.0))
    w = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * np.log(w) - w + np.log(series)


def ln_gamma(x):
    """Natural log of the gamma function for x > 0."""
    x_arr = np.asarray(x, dtype=np.float64)
    if not np.all(x_arr > 0.0):
        raise DomainError("ln_gamma requires x > 0")
    return _maybe_scalar(_lanczos_ln_gamma(x_arr), x)


def _ln_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _lanczos_ln_gamma(a) + _lanczos_ln_gamma(b) - _lanczos_ln_gamma(a + b)


def _beta_continued_fraction(a, b, x) -> np.ndarray:
    """Lentz evaluation of the continued fraction for I_x(a, b)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    # freeze each lane at its own convergence point so results do not
    # depend on what else shares the batch (vector == scalar bitwise)
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        active = ~converged
        m2 = 2.0 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + coeff / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h = np.where(active, h * d * c, h)
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + coeff / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        converged |= np.abs(delta - 1.0) < _BETA_CF_TOL
        if np.all(converged):
            return h
    raise NumericError(
        f"incomplete beta continued fraction did not converge in {_BETA_CF_MAX_ITER} iterations"
    )


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    Uses the symmetry swap I_x(a,b) = 1 - I_{1-x}(b,a) whenever
    x > (a+1)/(a+b+2) so the continued fraction stays in its
    fast-converging region.
    """
    a_arr, b_arr, x_arr = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64),
        np.asarray(b, dtype=np.float64),
        np.asarray(x, dtype=np.float64),
    )
    if not (np.all(a_arr > 0.0) and np.all(b_arr > 0.0)):
        raise DomainError("regularized_incomplete_beta requires a > 0 and b > 0")
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise DomainError("regularized_incomplete_beta requires 0 <= x <= 1")

    swap = x_arr > (a_arr + 1.0) / (a_arr + b_arr + 2.0)
    aa = np.where(swap, b_arr, a_arr)
    bb = np.where(swap, a_arr, b_arr)
    xx = np.where(swap, 1.0 - x_arr, x_arr)

    with np.errstate(divide="ignore", invalid="ignore"):
        ln_front = (
            aa * np.log(xx) + bb * np.log1p(-xx) - _ln_beta(aa, bb)
        )
        front = np.exp(ln_front)
    front = np.where(xx == 0.0, 0.0, front)

    cf = _beta_continued_fraction(aa, bb, np.where(xx == 0.0, 0.0, xx))
    val = front * cf / aa
    out = np.where(swap, 1.0 - val, val)
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out, a, b, x)


def _t_tail_normal_limit(a: np.ndarray, df: np.ndarray) -> np.ndarray:
    # Asymptotic normal deformation of the t CDF, evaluated at -a; used
    # only for huge df.
    z = (
        a
        - (a**3 + a) / (4.0 * df)
        + (13.0 * a**5 + 8.0 * a**3 + 3.0 * a) / (96.0 * df * df)
    )
    return _normal_cdf_array(-z)


def _t_tail_beta(a: np.ndarray, df: np.ndarray) -> np.ndarray:
    # P(T > a) = I_x(df/2, 1/2) / 2 = 1/2 - I_y(1/2, df/2) / 2 with
    # x = df / (df + a^2) and y = a^2 / (df + a^2); the second form keeps
    # y exact where x rounds towards 1
    v = df + a * a
    near = a * a < df
    r = regularized_incomplete_beta(
        np.where(near, 0.5, 0.5 * df),
        np.where(near, 0.5 * df, 0.5),
        np.where(near, a * a, df) / v,
    )
    return np.where(near, 0.5 - 0.5 * r, 0.5 * r)


def _t_tail_series(a: np.ndarray, df: np.ndarray) -> np.ndarray:
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
    half = np.floor(0.5 * df)
    odd = df - 2.0 * half
    root_df = np.sqrt(df)
    head = np.where(odd == 1.0, np.arctan2(root_df, a) / math.pi, 0.5)
    pre = np.where(odd == 1.0, a * root_df / (math.pi * v), 0.5 * a / np.sqrt(v))

    term = np.ones_like(a)
    total = np.ones_like(a)
    for k in range(1, int(half.max())):
        live = k < half
        term = np.where(live, term * u * ((2 * k - 1 + odd) / (2 * k + odd)), term)
        total = np.where(live, total + term, total)
    out = head - pre * total

    comp = np.flatnonzero(out < _T_SERIES_SWITCH * head)
    if comp.size:
        u, k, odd = u[comp], half[comp], odd[comp]
        term = term[comp] * u * ((2.0 * k - 1.0 + odd) / (2.0 * k + odd))
        total = term.copy()
        # the terms fall faster than u^k, so stopping at term <= eps/2 *
        # (1 - u) * total truncates less than eps/2 of the sum
        tol = 0.5 * np.finfo(np.float64).eps * (v[comp] - df[comp]) / v[comp]
        act = np.flatnonzero(term > tol * total)
        while act.size:
            k[act] += 1.0
            ka = k[act]
            step = term[act] * u[act] * ((2.0 * ka - 1.0 + odd[act]) / (2.0 * ka + odd[act]))
            term[act] = step
            total[act] += step
            act = act[step > tol[act] * total[act]]
        out[comp] = pre[comp] * total
    return out


def _t_tail_integer(a: np.ndarray, df: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    cauchy = df == 1.0
    if np.any(cauchy):
        out[cauchy] = np.arctan2(1.0, a[cauchy]) / math.pi
    two = df == 2.0
    if np.any(two):
        a2 = a[two]
        r = np.sqrt(2.0 + a2 * a2)
        out[two] = 1.0 / (r * (r + a2))
    rest = df >= 3.0
    if np.any(rest):
        out[rest] = _t_tail_series(a[rest], df[rest])
    return out


def _t_tail(a: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Upper tail P(T > a) for a >= 0; the method is chosen per lane from df."""
    exact = (df <= _T_EXACT_MAX_DF) & (df == np.floor(df))
    if np.all(exact):
        return _t_tail_integer(a, df)
    large = df > _T_NORMAL_LIMIT_DF
    out = np.empty_like(a)
    for lanes, kernel in (
        (exact, _t_tail_integer),
        (large, _t_tail_normal_limit),
        (~exact & ~large, _t_tail_beta),
    ):
        if np.any(lanes):
            out[lanes] = kernel(a[lanes], df[lanes])
    return out


def student_t_cdf(t, df):
    """CDF of the central Student t distribution with df > 0.

    Both tails come from P(T > |t|), so F(t) for t < 0 keeps full
    relative precision however small it is.
    """
    t_arr, df_arr = np.broadcast_arrays(
        np.asarray(t, dtype=np.float64), np.asarray(df, dtype=np.float64)
    )
    if not np.all(df_arr > 0.0):
        raise DomainError("student_t_cdf requires df > 0")

    tail = _t_tail(np.abs(t_arr).reshape(-1), df_arr.reshape(-1)).reshape(t_arr.shape)
    out = np.where(t_arr > 0.0, 1.0 - tail, tail)
    out = np.where(t_arr == 0.0, 0.5, out)
    return _maybe_scalar(out, t, df)


def _t_log_pdf(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    return (
        _lanczos_ln_gamma((df + 1.0) / 2.0)
        - _lanczos_ln_gamma(df / 2.0)
        - 0.5 * np.log(df * math.pi)
        - 0.5 * (df + 1.0) * np.log1p(t * t / df)
    )


def _cauchy_tail_quantile(q: np.ndarray) -> np.ndarray:
    # 1 / tan(pi q), written as tan(pi (1/2 - q)) where 1/2 - q is exact
    with np.errstate(divide="ignore"):
        return np.where(
            q < 0.25, 1.0 / np.tan(math.pi * q), np.tan(math.pi * (0.5 - q))
        )


def _hill_tail_quantile(q: np.ndarray, df: np.ndarray) -> np.ndarray:
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
        c = c + np.where(df < 5.0, 0.3 * (df - 4.5) * (x + 0.6), 0.0)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        body = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / c - x2 - 3.0) / b + 1.0) * x
        body = np.expm1(a * body * body)
        far = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    use_body = (y > 0.05 + a) | ((df < 2.1) & (p2 > 0.5))
    return np.sqrt(df * np.where(use_body, body, far))


def _t_tail_quantile_newton(t0, q, df) -> np.ndarray:
    """Polish t0 towards P(T > t) = q by safeguarded Newton steps.

    Only the lanes that have not converged are evaluated (an active set);
    each lane's iterates do not depend on the other lanes.
    """
    lo = np.zeros_like(t0)  # P(T > 0) = 1/2 >= q
    hi = t0 + 1.0
    act = np.arange(t0.size)
    for _ in range(200):
        act = act[student_t_cdf(-hi[act], df[act]) > q[act]]
        if not act.size:
            break
        lo[act] = hi[act]
        hi[act] *= 2.0
    else:
        raise NumericError("student_t_quantile could not bracket the target")

    t = np.clip(t0, lo, hi)
    act = np.arange(t0.size)
    for _ in range(100):
        ta, da, qa = t[act], df[act], q[act]
        err = student_t_cdf(-ta, da) - qa  # > 0 while ta is short of the root
        la = np.where(err > 0.0, ta, lo[act])
        ha = np.where(err < 0.0, ta, hi[act])
        done = (np.abs(err) <= 1e-13 * qa) | ((ha - la) <= 1e-15 * np.maximum(1.0, ta))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t_new = ta + err * np.exp(-_t_log_pdf(ta, da))
        bad = ~np.isfinite(t_new) | (t_new <= la) | (t_new >= ha)
        t_new = np.where(bad, 0.5 * (la + ha), t_new)
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
    expansion (df < 1 from the Cauchy quantile, which is smaller) and are
    polished by Newton steps on the tail.
    """
    p_in, df_in = np.broadcast_arrays(
        np.asarray(p, dtype=np.float64), np.asarray(df, dtype=np.float64)
    )
    if not np.all(df_in > 0.0):
        raise DomainError("student_t_quantile requires df > 0")
    if not np.all((p_in > 0.0) & (p_in < 1.0)):
        raise DomainError("student_t_quantile requires 0 < p < 1")

    pp = p_in.reshape(-1)
    dfa = df_in.reshape(-1)
    q = np.minimum(pp, 1.0 - pp)  # 1 - p is exact for p >= 1/2

    t = _cauchy_tail_quantile(q)
    two = dfa == 2.0
    if np.any(two):
        q2 = q[two]
        t[two] = (1.0 - 2.0 * q2) / np.sqrt(2.0 * q2 * (1.0 - q2))
    hill = (dfa > 1.0) & ~two
    if np.any(hill):
        t[hill] = _hill_tail_quantile(q[hill], dfa[hill])
    solve = np.flatnonzero((dfa != 1.0) & ~two & (q < 0.5))
    if solve.size:
        t[solve] = _t_tail_quantile_newton(t[solve], q[solve], dfa[solve])
    t[q == 0.5] = 0.0

    out = np.where(pp < 0.5, -t, t).reshape(p_in.shape)
    return _maybe_scalar(out, p, df)


# --- standard normal ----------------------------------------------------

# Cody's rational approximations for erf/erfc (double precision).
_ERF_A = (
    3.16112374387056560e0,
    1.13864154151050156e2,
    3.77485237685302021e2,
    3.20937758913846947e3,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e1,
    2.44024637934444173e2,
    1.28261652607737228e3,
    2.84423683343917062e3,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e0,
    6.61191906371416295e1,
    2.98635138197400131e2,
    8.81952221241769090e2,
    1.71204761263407058e3,
    2.05107837782607147e3,
    1.23033935479799725e3,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e1,
    1.17693950891312499e2,
    5.37181101862009858e2,
    1.62138957456669019e3,
    3.29079923573345963e3,
    4.36261909014324716e3,
    3.43936767414372164e3,
    1.23033935480374942e3,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e0,
    1.87295284992346047e0,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1


def _erf_small(y: np.ndarray) -> np.ndarray:
    # |y| <= 0.46875: erf(y)
    z = y * y
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return y * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    # 0.46875 < y <= 4: erfc(y)
    num = _ERF_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERF_C[i]) * y
        den = (den + _ERF_D[i]) * y
    result = (num + _ERF_C[7]) / (den + _ERF_D[7])
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _erfc_large(y: np.ndarray) -> np.ndarray:
    # y > 4: erfc(y)
    z = 1.0 / (y * y)
    num = _ERF_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERF_P[i]) * z
        den = (den + _ERF_Q[i]) * z
    result = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    result = (_ONE_OVER_SQRT_PI - result) / y
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    with np.errstate(under="ignore"):
        return np.exp(-ysq * ysq) * np.exp(-delta) * result


def _erfc_array(x: np.ndarray) -> np.ndarray:
    y = np.abs(x)
    # evaluate on safe inputs per branch, then assemble
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    out = np.empty_like(y)
    out[small] = 1.0 - _erf_small(x[small])
    ym = y[mid]
    out[mid] = _erfc_mid(ym)
    yl = y[~small & ~mid]
    out[~small & ~mid] = _erfc_large(yl)
    neg = x < 0.0
    out[neg & ~small] = 2.0 - out[neg & ~small]
    return out


def _normal_cdf_array(z: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc_array(-z / _SQRT_2)


def normal_cdf(z):
    """Standard normal CDF."""
    z_arr = np.asarray(z, dtype=np.float64)
    out = _normal_cdf_array(np.atleast_1d(z_arr))
    return _maybe_scalar(out.reshape(z_arr.shape), z)


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

