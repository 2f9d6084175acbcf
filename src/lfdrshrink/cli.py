"""Command-line pipelines and delimited I/O.

``analyze`` ingests a matrix of paired differences (header row, feature id
in the first column) or computes differences from named treatment/control
column pairs, runs the shrinkage pipeline (``posterior.shrink``), ranks
the features, and writes a fixed-schema table plus optional plot-ready
data files. ``simulate`` wraps the Monte-Carlo coverage study. All
numbers serialize with 12 significant digits so written tables re-parse
to the same values.

The analyze path is columnar. ``read_matrix`` parses well-formed input as
whole arrays and leaves anything else to a line-by-line parser whose
errors name the line and column. ``AnalysisResult`` holds the ``shrink``
columns, the feature ids and the ranks, and every table is written from
such columns in chunks of rows. A table of _POOL_MIN_ROWS rows or more
has its chunks formatted on forked workers, one per usable CPU, and
written in order by the calling process, so its bytes are those of a
serial run; ``taskset -c 0`` keeps the whole run in one process, for
example under a profiler.

Exit codes: 0 success, 2 usage error, 3 data/I-O error, 4 numeric or
fitting error, 5 a worker process of ``analyze`` or ``simulate`` died
(killed from outside, for example by the out-of-memory killer).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NumericError, WorkerError
from .lfdr import DEFAULT_BINS, DEFAULT_DEGREE
from .posterior import Shrinkage, shrink
from .simulation import (
    TRACK_ALL,
    TRACK_FIRST,
    CoverageReport,
    SimConfig,
    _fork_map,
    run_study,
)

__all__ = [
    "InputMatrix",
    "AnalysisResult",
    "read_matrix",
    "analyze",
    "emit_report",
    "write_analysis_plots",
    "format_simulation_report",
    "write_simulation_plots",
    "cli_main",
    "main",
]

REPORT_COLUMNS = tuple(
    "feature_id mean t z lfdr median_conditional median_marginal "
    "ci_lo_conditional ci_hi_conditional ci_lo_marginal ci_hi_marginal "
    "conf_below conf_at_null conf_above rank".split()
)

_HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class InputMatrix:
    """Rectangular matrix of paired differences, one row per feature."""

    feature_ids: tuple[str, ...]
    rows: np.ndarray  # shape (m, n)


@dataclass(frozen=True)
class AnalysisResult(Shrinkage):
    """The ``shrink`` columns with the feature ids and the priority rank.

    Every per-feature field is an array aligned with ``feature_ids``, in
    input order, and each report column is the field of its name.
    """

    feature_ids: tuple[str, ...]
    rank: np.ndarray  # int64, 1 = top priority


def _sniff_delimiter(header: str) -> str:
    for cand in ("\t", ",", ";"):
        if cand in header:
            return cand
    return "\t"


def _parse_cell(cell: str, line_no: int, col_no: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"line {line_no}, column {col_no}: not a number: {cell!r}")
    if not math.isfinite(value):
        raise DataError(f"line {line_no}, column {col_no}: non-finite value {cell!r}")
    return value


def read_matrix(
    path: str,
    delimiter: str | None = None,
    paired: list[tuple[str, str]] | None = None,
) -> InputMatrix:
    """Parse a delimited file with a header row into an InputMatrix.

    Default layout: first column is the feature id, remaining columns are
    replicate differences. With ``paired``, the named treatment/control
    column pairs are subtracted instead. Errors name 1-based line and
    column numbers.

    Well-formed input is parsed as whole arrays; anything the columnar
    parse is not sure of goes through the line-by-line parser, which
    raises the errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise DataError(f"{path}: empty input")
    if delimiter is None:
        delimiter = _sniff_delimiter(lines[0])
    header = lines[0].split(delimiter)
    # whole-text facts the columnar parse rests on; the text itself is
    # dropped before parsing
    columnar = (
        len(delimiter) == 1
        and "\x1f" not in text
        and text.count(delimiter) == len(lines) * (len(header) - 1)
    )
    del text
    if len(lines) < 2:
        raise DataError(f"{path}: no data rows after the header")

    if paired:
        missing = [name for pair in paired for name in pair if name not in header]
        if missing:
            raise DataError(f"paired columns not in header: {', '.join(missing)}")
        value_idx = [header.index(t) for t, _ in paired]
        control_idx = [header.index(c) for _, c in paired]
        if len(paired) < 2:
            raise DataError("paired mode needs at least 2 treatment/control pairs")
    else:
        if len(header) < 3:
            raise DataError(
                f"line 1: need a feature-id column plus at least 2 replicate columns, "
                f"found {len(header)}"
            )
        value_idx = list(range(1, len(header)))
        control_idx = None

    matrix = None
    if columnar:
        matrix = _parse_columnar(lines, delimiter, len(header), value_idx, control_idx)
    if matrix is None:
        matrix = _parse_lines(lines, delimiter, len(header), value_idx, control_idx)
    if matrix.rows.shape[1] < 2:
        raise DataError("need at least 2 replicate differences per feature")
    return matrix


def _parse_columnar(
    lines: list[str],
    delimiter: str,
    ncols: int,
    value_idx: list[int],
    control_idx: list[int] | None,
) -> InputMatrix | None:
    """Parse the data lines as whole arrays, or return None to leave the
    input to ``_parse_lines``.

    The caller has checked that the delimiter is one character, that the
    text holds no U+001F (loadtxt strips it around a number, ``float``
    rejects it) and that it holds exactly ``ncols - 1`` delimiters per
    line. loadtxt fails a line lacking the last column, which is always
    read here, so every line has exactly ``ncols`` cells. The cells are
    converted by the same string-to-double routine as ``float``, so the
    values are bit-identical to the line parser's.
    """
    body = lines[1:]
    ids = [line.partition(delimiter)[0] for line in body]
    if len(set(ids)) != len(ids):
        return None
    cols = value_idx + (control_idx or [])
    if ncols - 1 not in cols:
        cols = cols + [ncols - 1]
    try:
        values = np.loadtxt(
            body,
            dtype=np.float64,
            delimiter=delimiter,
            comments=None,
            quotechar=None,
            usecols=cols,
            ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    k = len(value_idx)
    rows = values[:, :k] if control_idx is None else values[:, :k] - values[:, k : 2 * k]
    # the row sums in analyze depend on the memory order
    return InputMatrix(feature_ids=tuple(ids), rows=np.ascontiguousarray(rows))


def _parse_lines(
    lines: list[str],
    delimiter: str,
    ncols: int,
    value_idx: list[int],
    control_idx: list[int] | None,
) -> InputMatrix:
    """Line-by-line parse that names the line and column of any error."""
    ids: list[str] = []
    seen: dict[str, int] = {}
    rows: list[list[float]] = []
    for offset, line in enumerate(lines[1:], start=2):
        cells = line.split(delimiter)
        if len(cells) != ncols:
            raise DataError(f"line {offset}: expected {ncols} columns, found {len(cells)}")
        fid = cells[0]
        if fid in seen:
            raise DataError(
                f"line {offset}: duplicate feature id {fid!r} (first at line {seen[fid]})"
            )
        seen[fid] = offset
        ids.append(fid)
        if control_idx is None:
            diffs = [_parse_cell(cells[vi], offset, vi + 1) for vi in value_idx]
        else:
            diffs = [
                _parse_cell(cells[ti], offset, ti + 1) - _parse_cell(cells[ci], offset, ci + 1)
                for ti, ci in zip(value_idx, control_idx)
            ]
        rows.append(diffs)
    return InputMatrix(feature_ids=tuple(ids), rows=np.asarray(rows, dtype=np.float64))


def analyze(
    matrix: InputMatrix,
    theta0: float = 0.0,
    level: float = 0.95,
    bins: int = DEFAULT_BINS,
    degree: int = DEFAULT_DEGREE,
) -> AnalysisResult:
    """Run the full shrinkage pipeline on an input matrix.

    Rows come back in input order; the rank column gives the priority
    order (descending |shrunken median - theta0|, ties broken by
    ascending lfdr, then feature id). The reported t and z test the null
    that the mean equals theta0, so both are centered at theta0.
    """
    shrunk = shrink(
        matrix.rows, theta0, level, bins=bins, degree=degree, feature_ids=matrix.feature_ids
    )
    # rank 1 = top priority; the feature-id tie-break keeps ranks
    # independent of input order
    m = len(matrix.feature_ids)
    ids = np.asarray(matrix.feature_ids)
    order = np.lexsort((ids, shrunk.lfdr, -np.abs(shrunk.median_marginal - theta0)))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return AnalysisResult(**vars(shrunk), feature_ids=matrix.feature_ids, rank=ranks)


_CHUNK_ROWS = 20000
# a table of fewer rows is formatted in the calling process. Starting two
# workers costs about 70 ms of CPU: on a 2-core host the pool saved no wall
# time on a 30,000-row report and about a third on a 100,000-row one.
_POOL_MIN_ROWS = 100_000


def _format_rows(row, columns, start):
    """Rows ``start`` to ``start + _CHUNK_ROWS`` of ``columns`` (aligned
    sequences, one per ``%`` format of the template ``row``) as text."""
    width = len(columns)
    stop = min(start + _CHUNK_ROWS, len(columns[0]))
    cells = [None] * ((stop - start) * width)
    for j, column in enumerate(columns):
        part = column[start:stop]
        cells[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
    return (row * (stop - start)) % tuple(cells)


def _write_tables(tables, delimiter: str = "\t"):
    """Write tables given as (destination, header, formats, columns), with
    columns of one length across the tables, each to a path or, for '-',
    to stdout.

    From _POOL_MIN_ROWS rows the chunks of rows are formatted on forked
    workers (``simulation._fork_map``), which inherit the columns, so a
    task is only (table index, start row). The calling process writes the
    chunks in order, so the bytes do not depend on the pool.
    """
    n_rows = len(tables[0][3][0])
    starts = range(0, n_rows, _CHUNK_ROWS)
    tasks = [(table, start) for table in range(len(tables)) for start in starts]
    # (row template, columns) per table
    specs = [
        (delimiter.replace("%", "%%").join(formats) + "\n", columns)
        for _, _, formats, columns in tables
    ]
    chunks = _fork_map(
        lambda task: _format_rows(*specs[task[0]], task[1]),
        tasks,
        len(tasks) if n_rows >= _POOL_MIN_ROWS else 1,
    )
    try:
        for destination, header, _, _ in tables:
            head = delimiter.join(header) + "\n"
            _write_text(destination, itertools.chain([head], itertools.islice(chunks, len(starts))))
    finally:
        chunks.close()


def _write_text(destination, chunks):
    """Write text chunks to a path or, for '-', to stdout."""
    try:
        if destination == "-":
            for text in chunks:
                sys.stdout.write(text)
            return
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            for text in chunks:
                handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {destination}: {exc}") from exc


_REPORT_FORMATS = ("%s",) + ("%.12g",) * (len(REPORT_COLUMNS) - 2) + ("%d",)


def emit_report(result: AnalysisResult, destination: str, delimiter: str = "\t"):
    """Write the analysis table with the fixed column order."""
    columns = [result.feature_ids] + [getattr(result, name) for name in REPORT_COLUMNS[1:]]
    _write_tables([(destination, REPORT_COLUMNS, _REPORT_FORMATS, columns)], delimiter)


def write_analysis_plots(result: AnalysisResult, plots_dir: str):
    """Emit plot-ready scatters: medians vs lfdr, width vs width, and
    observed confidence levels."""
    os.makedirs(plots_dir, exist_ok=True)
    ids = result.feature_ids
    _write_tables(
        [
            (
                os.path.join(plots_dir, "medians_vs_lfdr.tsv"),
                ("feature_id", "lfdr", "median_marginal", "median_conditional"),
                ("%s", "%.12g", "%.12g", "%.12g"),
                (ids, result.lfdr, result.median_marginal, result.median_conditional),
            ),
            (
                os.path.join(plots_dir, "width_scatter.tsv"),
                ("feature_id", "width_conditional", "width_marginal"),
                ("%s", "%.12g", "%.12g"),
                (
                    ids,
                    result.ci_hi_conditional - result.ci_lo_conditional,
                    result.ci_hi_marginal - result.ci_lo_marginal,
                ),
            ),
            (
                os.path.join(plots_dir, "confidence_levels.tsv"),
                ("feature_id", "conditional_below", "marginal_below", "marginal_above"),
                ("%s", "%.12g", "%.12g", "%.12g"),
                (ids, result.conditional_below, result.conf_below, result.conf_above),
            ),
        ]
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def format_simulation_report(report: CoverageReport, cfg: SimConfig) -> str:
    """Fixed-order key/value serialization of a coverage study."""
    err_m, err_c = report.median_error_samples
    items = [
        ("m", cfg.m),
        ("n", cfg.n),
        ("pi0", cfg.pi0),
        ("effect", cfg.effect),
        ("sigma_null", cfg.sigma_null),
        ("sigma_alt", cfg.sigma_alt),
        ("experiments", cfg.n_experiments),
        ("seed", cfg.seed),
        ("level", cfg.level),
        ("track", cfg.track),
        ("n_tracked", report.n_tracked),
        ("marginal_coverage", report.marginal_coverage),
        ("conditional_coverage", report.conditional_coverage),
        ("mean_width_marginal", report.mean_width_marginal),
        ("mean_width_conditional", report.mean_width_conditional),
        ("mean_abs_error_marginal", float(np.mean(np.abs(err_m)))),
        ("mean_abs_error_conditional", float(np.mean(np.abs(err_c)))),
    ]
    return "".join(f"{key}\t{_fmt(value)}\n" for key, value in items)


def write_simulation_plots(report: CoverageReport, plots_dir: str):
    """Emit the width scatter and median-error histogram data."""
    os.makedirs(plots_dir, exist_ok=True)
    err_m, err_c = report.median_error_samples
    pooled = np.concatenate([err_m, err_c])
    lo, hi = float(np.min(pooled)), float(np.max(pooled))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, _HISTOGRAM_BINS + 1)
    counts_m, _ = np.histogram(err_m, bins=edges)
    counts_c, _ = np.histogram(err_c, bins=edges)
    _write_tables(
        [
            (
                os.path.join(plots_dir, "median_error_histogram.tsv"),
                ("bin_lo", "bin_hi", "count_marginal", "count_conditional"),
                ("%.12g", "%.12g", "%d", "%d"),
                (edges[:-1], edges[1:], counts_m, counts_c),
            )
        ]
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfdrshrink",
        description=(
            "Empirical-Bayes shrunken point and interval estimates driven by "
            "local false discovery rates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a matrix of paired differences")
    pa.add_argument("--input", required=True, help="delimited file with a header row")
    pa.add_argument("--theta0", type=float, default=0.0, help="null value (default 0)")
    pa.add_argument("--level", type=float, default=0.95, help="interval level (default 0.95)")
    pa.add_argument("--bins", type=int, default=DEFAULT_BINS, help="histogram bins for the density fit")
    pa.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help="log-density polynomial degree")
    pa.add_argument("--output", default="-", help="report path ('-' = stdout)")
    pa.add_argument("--plots-dir", default=None, help="directory for plot-data files")
    pa.add_argument("--delimiter", default=None, help="field delimiter (default: sniffed)")
    pa.add_argument(
        "--paired",
        default=None,
        help="comma-separated treatment,control column names, e.g. T1,C1,T2,C2",
    )

    ps = sub.add_parser("simulate", help="run the Monte-Carlo coverage study")
    ps.add_argument("--m", type=int, default=10000, help="features per experiment")
    ps.add_argument("--n", type=int, default=2, help="observations per feature")
    ps.add_argument("--pi0", type=float, default=0.9, help="null proportion")
    ps.add_argument("--effect", type=float, default=2.0, help="|mean| under the alternative")
    ps.add_argument("--sigma-null", type=float, default=1.0)
    ps.add_argument("--sigma-alt", type=float, default=1.5)
    ps.add_argument("--experiments", type=int, default=2000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--level", type=float, default=0.95)
    ps.add_argument("--track", choices=(TRACK_FIRST, TRACK_ALL), default=TRACK_FIRST)
    ps.add_argument("--output", default="-", help="report path ('-' = stdout)")
    ps.add_argument("--plots-dir", default=None, help="directory for plot-data files")
    return parser


def _parse_paired(raw: str) -> list[tuple[str, str]]:
    names = [part.strip() for part in raw.split(",")]
    if len(names) % 2 != 0 or not all(names):
        raise DataError(
            "--paired needs an even number of non-empty column names "
            "(treatment,control,...)"
        )
    return list(zip(names[0::2], names[1::2]))


def _cmd_analyze(args) -> int:
    if not 0.0 < args.level < 1.0:
        print("error: --level must be in (0, 1)", file=sys.stderr)
        return 2
    if args.bins < 10 or args.degree < 2:
        print("error: --bins must be >= 10 and --degree >= 2", file=sys.stderr)
        return 2
    if not math.isfinite(args.theta0):
        print("error: --theta0 must be finite", file=sys.stderr)
        return 2
    if args.delimiter == "":
        print("error: --delimiter must not be empty", file=sys.stderr)
        return 2
    paired = _parse_paired(args.paired) if args.paired else None
    matrix = read_matrix(args.input, delimiter=args.delimiter, paired=paired)
    result = analyze(
        matrix,
        theta0=args.theta0,
        level=args.level,
        bins=args.bins,
        degree=args.degree,
    )
    emit_report(result, args.output)
    if args.plots_dir:
        write_analysis_plots(result, args.plots_dir)
    m, n = matrix.rows.shape
    fit = result.fit
    print(
        f"analyzed {m} features x {n} replicates: pi0_hat={fit.pi0_hat:.4f}, "
        f"z range [{fit.z_range[0]:.3f}, {fit.z_range[1]:.3f}]",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    try:
        cfg = SimConfig(
            m=args.m,
            n=args.n,
            pi0=args.pi0,
            effect=args.effect,
            sigma_null=args.sigma_null,
            sigma_alt=args.sigma_alt,
            n_experiments=args.experiments,
            seed=args.seed,
            level=args.level,
            track=args.track,
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_study(cfg)
    _write_text(args.output, [format_simulation_report(report, cfg)])
    if args.plots_dir:
        write_simulation_plots(report, args.plots_dir)
    return 0


def cli_main(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DomainError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 5


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
