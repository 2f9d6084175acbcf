"""Seed-independent checks of the program's outputs.

Each check returns a list of failure messages; an empty list means the
output passed. The analyze and scalar checks import the package from the
checkout being measured, so the scalar API serves as the cross-check of
the batch pipeline and the other way round.
"""

from __future__ import annotations

import math
import os

import numpy as np

REPORT_COLUMNS = (
    "feature_id", "mean", "t", "z", "lfdr", "median_conditional",
    "median_marginal", "ci_lo_conditional", "ci_hi_conditional",
    "ci_lo_marginal", "ci_hi_marginal", "conf_below", "conf_at_null",
    "conf_above", "rank",
)

SIMULATE_KEYS = (
    "m", "n", "pi0", "effect", "sigma_null", "sigma_alt", "experiments",
    "seed", "level", "track", "n_tracked", "marginal_coverage",
    "conditional_coverage", "mean_width_marginal", "mean_width_conditional",
    "mean_abs_error_marginal", "mean_abs_error_conditional",
)

PLOT_FILES = {
    "medians_vs_lfdr.tsv": ("feature_id", "lfdr", "median_marginal", "median_conditional"),
    "width_scatter.tsv": ("feature_id", "width_conditional", "width_marginal"),
    "confidence_levels.tsv": ("feature_id", "conditional_below", "marginal_below", "marginal_above"),
}

CROSS_CHECK_ROWS = 200
# agreement between the report (12 significant digits) and the scalar API
REL_TOL = 1e-9
THETA_COLUMNS = (
    "mean", "median_conditional", "median_marginal", "ci_lo_conditional",
    "ci_hi_conditional", "ci_lo_marginal", "ci_hi_marginal",
)


def _close(a, b, scale=0.0) -> bool:
    """Agreement to REL_TOL relative to max(|b|, scale).

    Values on the parameter scale pass the feature's standard error as
    ``scale``: a quantile next to the null value is the difference of two
    nearly equal numbers, so its own magnitude is no measure of its error.
    """
    return abs(float(a) - float(b)) <= REL_TOL * max(abs(float(b)), scale, 1e-300)


def _read_table(path: str, delimiter: str = "\t"):
    """Header, first column and the remaining columns as floats."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = tuple(lines[0].split(delimiter)) if lines else ()
    first = [ln.partition(delimiter)[0] for ln in lines[1:]]
    ncol = len(header)
    if len(lines) < 2 or ncol < 2:
        return header, first, np.empty((0, max(ncol - 1, 0)))
    values = np.loadtxt(
        path, delimiter=delimiter, skiprows=1, usecols=range(1, ncol), ndmin=2
    )
    return header, first, values


def check_report(
    path: str,
    ids: list[str],
    diffs: np.ndarray,
    sample_seed: int,
    theta0: float = 0.0,
    level: float = 0.95,
) -> list[str]:
    """Structure, invariants and a scalar-API cross-check of a report.

    ``diffs`` holds the replicate differences exactly as the program parsed
    them, one row per feature.
    """
    import lfdrshrink as L

    header, got_ids, v = _read_table(path)
    if header != REPORT_COLUMNS:
        return [f"report header changed: {header}"]
    m = len(ids)
    if got_ids != ids:
        return [f"report rows: expected {m} feature ids in input order"]
    col = {name: v[:, k] for k, name in enumerate(REPORT_COLUMNS[1:])}
    problems = []
    if not np.all(np.isfinite(v)):
        problems.append("non-finite value in report")
    rank = col["rank"]
    if not np.array_equal(np.sort(rank), np.arange(1, m + 1)):
        problems.append("rank is not a permutation of 1..m")
    if not np.all((col["lfdr"] >= 0.0) & (col["lfdr"] <= 1.0)):
        problems.append("lfdr outside [0, 1]")
    if not np.all(
        (col["ci_lo_marginal"] <= col["median_marginal"])
        & (col["median_marginal"] <= col["ci_hi_marginal"])
    ):
        problems.append("marginal median outside its interval")
    conf = col["conf_below"] + col["conf_at_null"] + col["conf_above"]
    if not np.all(np.abs(conf - 1.0) <= 1e-9):
        problems.append("confidence levels do not sum to 1")
    if problems:
        return problems

    # lfdr needs the fit over every feature: recompute it from the exact
    # inputs with the batch API, so that the scalar API below gets the very
    # weights the program used; the report's 12 digits would be amplified
    # by the quantile solve in the tails
    m, n = diffs.shape
    df = float(n - 1)
    ses = diffs.std(axis=1, ddof=1) / math.sqrt(n)
    zs = L.probit_transform((diffs.mean(axis=1) - theta0) / ses, df)
    lfdr = L.lfdr_at(L.fit_mixture(L.ZVector(zs, df)), zs)
    alpha = (1.0 - level) / 2.0
    rng = np.random.Generator(np.random.PCG64(sample_seed))
    sample = np.sort(rng.choice(m, size=min(CROSS_CHECK_ROWS, m), replace=False))
    for i in sample.tolist():
        s = L.summarize(L.PairedSample(diffs[i], feature_id=ids[i]))
        t = (s.mean - theta0) / s.se
        cp = L.conditional_posterior(s)
        mp = L.MarginalPosterior(lfdr=float(lfdr[i]), theta0=theta0, conditional=cp)
        interval = L.shrunken_interval(mp, alpha, alpha)
        lo_c, hi_c = L.conditional_interval(cp, alpha, alpha)
        levels = L.observed_confidence_levels(mp)
        expected = {
            "mean": s.mean,
            "t": t,
            "z": L.probit_transform(t, s.df),
            "lfdr": mp.lfdr,
            "median_conditional": s.mean,
            "median_marginal": L.posterior_median(mp),
            "ci_lo_conditional": lo_c,
            "ci_hi_conditional": hi_c,
            "ci_lo_marginal": interval.lower,
            "ci_hi_marginal": interval.upper,
            "conf_below": levels.below,
            "conf_at_null": levels.at_null,
            "conf_above": levels.above,
        }
        for name, want in expected.items():
            scale = s.se if name in THETA_COLUMNS else 0.0
            if not _close(col[name][i], want, scale):
                problems.append(
                    f"row {i + 1} ({ids[i]}): {name} {col[name][i]!r} != scalar API {want!r}"
                )
        if len(problems) >= 5:
            break
    return problems


def check_plots(plots_dir: str, report_path: str) -> list[str]:
    """The three analysis plot tables agree with the report."""
    _, ids, rep = _read_table(report_path)
    col = {name: rep[:, k] for k, name in enumerate(REPORT_COLUMNS[1:])}
    expected = {
        "medians_vs_lfdr.tsv": (col["lfdr"], col["median_marginal"], col["median_conditional"]),
        "width_scatter.tsv": (
            col["ci_hi_conditional"] - col["ci_lo_conditional"],
            col["ci_hi_marginal"] - col["ci_lo_marginal"],
        ),
        "confidence_levels.tsv": (None, col["conf_below"], col["conf_above"]),
    }
    problems = []
    for fname, header in PLOT_FILES.items():
        path = os.path.join(plots_dir, fname)
        if not os.path.exists(path):
            problems.append(f"missing plot file {fname}")
            continue
        got_header, got_ids, v = _read_table(path)
        if got_header != header or got_ids != ids:
            problems.append(f"{fname}: header or feature rows differ from the report")
            continue
        for k, want in enumerate(expected[fname]):
            got = v[:, k]
            if want is None:
                ok = np.all((got >= 0.0) & (got <= 1.0))
            else:
                ok = np.allclose(got, want, rtol=1e-9, atol=1e-9)
            if not ok:
                problems.append(f"{fname}: column {header[k + 1]} disagrees with the report")
    return problems


def check_simulation(text: str, flags: dict, level: float = 0.95) -> list[str]:
    """Key order, echoed flags, exact conditional coverage, and marginal
    coverage at or above the level (the paper's claim)."""
    pairs = [line.split("\t") for line in text.splitlines()]
    keys = tuple(p[0] for p in pairs)
    values = {p[0]: p[1] for p in pairs if len(p) == 2}
    if keys != SIMULATE_KEYS or len(values) != len(keys):
        return [f"simulate report keys changed: {keys}"]
    problems = []
    for key, want in flags.items():
        if values[key] != str(want):
            problems.append(f"{key} is {values[key]!r}, expected {want!r}")
    try:
        n_tracked = int(values["n_tracked"])
        cov_m = float(values["marginal_coverage"])
        cov_c = float(values["conditional_coverage"])
        widths = [float(values[k]) for k in ("mean_width_marginal", "mean_width_conditional")]
    except ValueError as exc:
        return problems + [f"unparsable simulate report: {exc}"]
    expected_tracked = int(flags["m"]) * int(flags["experiments"])
    if n_tracked != expected_tracked:
        problems.append(f"n_tracked {n_tracked} != m x experiments = {expected_tracked}")
    se = math.sqrt(level * (1.0 - level) / max(n_tracked, 1))
    if not abs(cov_c - level) <= 4.0 * se:
        problems.append(
            f"conditional_coverage {cov_c} not within 4 binomial SE ({4 * se:.2e}) of {level}"
        )
    if not cov_m >= level:
        problems.append(f"marginal_coverage {cov_m} below the level {level}")
    if not all(math.isfinite(w) and w > 0.0 for w in widths):
        problems.append("interval widths must be positive")
    return problems


def check_scalar(path: str, ids: list[str], df: float, level: float = 0.95) -> list[str]:
    """Scalar-loop results equal ``marginal_quantile_batch`` elementwise,
    and agree with the batch transforms and fit."""
    import lfdrshrink as L

    from child import SCALAR_COLUMNS, THETA0

    header, got_ids, v = _read_table(path)
    if header != SCALAR_COLUMNS:
        return [f"scalar output header changed: {header}"]
    if got_ids != ids:
        return [f"scalar output: expected {len(ids)} feature ids in input order"]
    col = {name: v[:, k] for k, name in enumerate(SCALAR_COLUMNS[1:])}
    alpha = (1.0 - level) / 2.0
    problems = []
    batch_args = (col["lfdr"], col["mean"], col["se"], df, THETA0)
    for name, a in (("ci_lo", alpha), ("ci_hi", 1.0 - alpha), ("median", 0.5)):
        batch = L.marginal_quantile_batch(*batch_args, a)
        if not np.array_equal(batch, col[name]):
            bad = int(np.count_nonzero(batch != col[name]))
            problems.append(f"{name}: {bad} features differ from marginal_quantile_batch")
    conf = col["conf_below"] + col["conf_at_null"] + col["conf_above"]
    if not np.all(np.abs(conf - 1.0) <= 1e-12):
        problems.append("confidence levels do not sum to 1")
    if not np.array_equal(col["conf_at_null"], col["lfdr"]):
        problems.append("conf_at_null differs from lfdr")
    z = L.probit_transform(col["t"], df)
    if not np.allclose(z, col["z"], rtol=1e-12, atol=1e-12):
        problems.append("z differs from the batch probit_transform")
    fit = L.fit_mixture(L.ZVector(col["z"], df))
    if not np.allclose(L.lfdr_at(fit, col["z"]), col["lfdr"], rtol=1e-12, atol=1e-12):
        problems.append("lfdr differs from the batch fit")
    return problems
