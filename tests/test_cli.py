"""Tests for ingestion, the analyze pipeline, report emission, and the CLI."""

import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import lfdrshrink.cli as cli
from helpers import time_limit
from lfdrshrink import simulation as sim
from lfdrshrink.cli import (
    REPORT_COLUMNS,
    InputMatrix,
    analyze,
    cli_main,
    emit_report,
    read_matrix,
    write_analysis_plots,
)
from lfdrshrink.errors import DataError, WorkerError

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_REPORT = os.path.join(GOLDEN_DIR, "golden_simulate_report.tsv")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def simulated_matrix(m=300, n=4, pi0=1.0, seed=21) -> InputMatrix:
    rng = np.random.default_rng(seed)
    thetas = np.where(rng.random(m) < pi0, 0.0, rng.choice([-2.0, 2.0], m))
    data = thetas[:, None] + rng.standard_normal((m, n))
    return InputMatrix(
        feature_ids=tuple(f"g{i:05d}" for i in range(m)),
        rows=data,
    )


class TestReadMatrix:
    def test_well_formed(self, tmp_path):
        path = write(
            tmp_path,
            "ok.tsv",
            "id\tr1\tr2\na\t0.1\t0.2\nb\t-1\t0.5\nc\t2\t3\n",
        )
        mat = read_matrix(path)
        assert mat.feature_ids == ("a", "b", "c")
        assert mat.rows.shape == (3, 2)
        assert mat.rows[1, 0] == -1.0

    def test_comma_sniffing(self, tmp_path):
        path = write(tmp_path, "ok.csv", "id,r1,r2\na,1,2\nb,3,4\n")
        mat = read_matrix(path)
        assert mat.rows.shape == (2, 2)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "id\tr1\tr2\na\t0.1\toops\n")
        with pytest.raises(DataError, match=r"line 2, column 3"):
            read_matrix(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "ragged.tsv", "id\tr1\tr2\na\t0.1\t0.2\nb\t0.3\n")
        with pytest.raises(DataError, match=r"line 3"):
            read_matrix(path)

    def test_extra_cells_name_line(self, tmp_path):
        path = write(tmp_path, "wide.tsv", "id\tr1\tr2\na\t0.1\t0.2\nb\t0.3\t0.4\t0.5\n")
        with pytest.raises(DataError, match=r"line 3: expected 3 columns, found 4"):
            read_matrix(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write(tmp_path, "dup.tsv", "id\tr1\tr2\na\t1\t2\na\t3\t4\n")
        with pytest.raises(DataError, match="duplicate feature id"):
            read_matrix(path)

    def test_too_few_replicates(self, tmp_path):
        path = write(tmp_path, "narrow.tsv", "id\tr1\na\t1\nb\t2\n")
        with pytest.raises(DataError):
            read_matrix(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = write(tmp_path, "inf.tsv", "id\tr1\tr2\na\t1\tinf\n")
        with pytest.raises(DataError, match="non-finite"):
            read_matrix(path)

    def test_paired_columns(self, tmp_path):
        path = write(
            tmp_path,
            "paired.csv",
            "id,T1,C1,T2,C2\na,2.0,1.0,3.0,1.5\nb,0.5,0.25,0.25,0.5\n",
        )
        mat = read_matrix(path, paired=[("T1", "C1"), ("T2", "C2")])
        np.testing.assert_allclose(mat.rows, [[1.0, 1.5], [0.25, -0.25]])

    def test_paired_missing_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "id,T1,C1\na,1,2\n")
        with pytest.raises(DataError, match="not in header"):
            read_matrix(path, paired=[("T1", "C9")])

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_matrix("/nonexistent/path.tsv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.tsv", "")
        with pytest.raises(DataError, match="empty"):
            read_matrix(path)


# (name, file text, read_matrix keywords, whether the columnar parse
# must answer (True), must leave the input to the line parser (False))
PARSE_CASES = [
    ("well_formed", "id\tr1\tr2\na\t0.1\t-2e-3\nb\t1\t.5\n", {}, True),
    ("extra_cells", "id\tr1\tr2\na\t1\t2\nb\t3\t4\t5\n", {}, False),
    ("too_few_cells", "id\tr1\tr2\na\t1\t2\nb\t3\n", {}, False),
    # one line short and one line long: the delimiter total still matches
    ("short_and_long", "id,T1,C1,T2,C2,x\na,1,2,3,4\nb,1,2,3,4,5,6\n",
     {"paired": [("T1", "C1"), ("T2", "C2")]}, False),
    ("trailing_delimiter", "id\tr1\tr2\na\t1\t2\t\nb\t3\t4\n", {}, False),
    ("whitespace_line", "id\tr1\tr2\na\t1\t2\n   \nb\t3\t4\n", {}, True),
    ("whitespace_line_with_delimiter", "id\tr1\tr2\na\t1\t2\n \t \nb\t3\t4\n", {}, False),
    ("crlf", "id,r1,r2\r\na,1.25,2\r\nb,3,-4.5\r\n", {}, True),
    ("spaces_around_number", "id\tr1\tr2\na\t 1.5 \t2\nb\t3\t4\n", {}, True),
    ("underscore_digits", "id\tr1\tr2\na\t1_0\t2\nb\t3\t4\n", {}, False),
    ("unit_separator", "id\tr1\tr2\na\t1.5\x1f\t2\nb\t3\t4\n", {}, False),
    ("empty_cell", "id\tr1\tr2\na\t\t2\nb\t3\t4\n", {}, False),
    ("quoted_cell", 'id,r1,r2\na,"1.5",2\nb,3,4\n', {}, False),
    ("hash_in_cell", "id\tr1\tr2\na\t1#2\t2\nb\t3\t4\n", {}, False),
    ("hash_and_quote_in_id", 'id\tr1\tr2\n#a"\t1\t2\nb\t3\t4\n', {}, True),
    ("nan", "id\tr1\tr2\na\tnan\t2\nb\t3\t4\n", {}, False),
    ("inf", "id\tr1\tr2\na\t1\t-inf\nb\t3\t4\n", {}, False),
    ("overflow", "id\tr1\tr2\na\t1e999\t2\nb\t3\t4\n", {}, False),
    ("duplicate_ids", "id\tr1\tr2\na\t1\t2\na\t3\t4\n", {}, False),
    ("multi_char_delimiter", "id::r1::r2\na::1::2\nb::3::4\n", {"delimiter": "::"}, False),
    ("paired_any_order",
     "id,C2,T1,note,C1,T2\na,1.5,2.25,0,1,3\nb,0.5,0.25,0,0.75,0.125\n",
     {"paired": [("T1", "C1"), ("T2", "C2")]}, True),
    ("paired_text_column", "id,T1,C1,T2,C2,note\na,2,1,3,1.5,up\nb,1,2,0,1,down\n",
     {"paired": [("T1", "C1"), ("T2", "C2")]}, False),
]


class TestColumnarParse:
    """The columnar parse accepts only what the line parser accepts and
    returns the same matrix bit for bit."""

    @staticmethod
    def _read(path, kwargs):
        try:
            return read_matrix(path, **kwargs)
        except DataError as exc:
            return f"DataError: {exc}"

    @pytest.mark.parametrize(
        "name,text,kwargs,columnar", PARSE_CASES, ids=[case[0] for case in PARSE_CASES]
    )
    def test_matches_line_parser(self, tmp_path, monkeypatch, name, text, kwargs, columnar):
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        answers = []
        parse_columnar = cli._parse_columnar

        def spy(*args):
            answers.append(parse_columnar(*args))
            return answers[-1]

        monkeypatch.setattr(cli, "_parse_columnar", spy)
        fast = self._read(path, kwargs)
        monkeypatch.setattr(cli, "_parse_columnar", lambda *args: None)
        slow = self._read(path, kwargs)

        assert any(a is not None for a in answers) == columnar
        if isinstance(slow, str):
            assert fast == slow
            return
        assert fast.feature_ids == slow.feature_ids
        assert fast.rows.dtype == slow.rows.dtype == np.float64
        assert fast.rows.shape == slow.rows.shape
        assert fast.rows.tobytes() == slow.rows.tobytes()
        assert fast.rows.flags.c_contiguous and slow.rows.flags.c_contiguous


class TestAnalyze:
    def test_all_null_matrix_mostly_shrinks_to_null(self):
        result = analyze(simulated_matrix(m=400, n=4, pi0=1.0))
        med = result.median_marginal
        assert np.mean(med == 0.0) > 0.5
        assert result.pi0_hat > 0.9

    def test_interval_hull_and_mean_width(self):
        result = analyze(simulated_matrix(m=400, n=4, pi0=0.85, seed=3))
        w_m = result.ci_hi_marginal - result.ci_lo_marginal
        w_c = result.ci_hi_conditional - result.ci_lo_conditional
        assert w_m.mean() < w_c.mean()
        hull_lo = np.minimum(result.ci_lo_conditional, result.theta0)
        hull_hi = np.maximum(result.ci_hi_conditional, result.theta0)
        assert np.all(result.ci_lo_marginal >= hull_lo - 1e-9)
        assert np.all(result.ci_hi_marginal <= hull_hi + 1e-9)

    def test_confidence_levels_sum_to_one(self):
        result = analyze(simulated_matrix(m=200, n=4, pi0=0.9, seed=4))
        total = result.conf_below + result.conf_at_null + result.conf_above
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_rank_ordering(self):
        result = analyze(simulated_matrix(m=200, n=4, pi0=0.8, seed=5))
        by_rank = np.argsort(result.rank)
        assert result.rank[by_rank].tolist() == list(range(1, 201))
        devs = np.abs(result.median_marginal[by_rank] - result.theta0)
        assert np.all(devs[:-1] >= devs[1:] - 1e-12)
        # ties on the deviation (atom medians) break by ascending lfdr
        lfdr = result.lfdr[by_rank]
        ties = devs[:-1] == devs[1:]
        assert np.all(lfdr[:-1][ties] <= lfdr[1:][ties])

    def test_permutation_equivariance(self):
        mat = simulated_matrix(m=250, n=4, pi0=0.85, seed=6)
        result = analyze(mat)
        rng = np.random.default_rng(0)
        perm = rng.permutation(250)
        permuted = InputMatrix(
            feature_ids=tuple(mat.feature_ids[i] for i in perm),
            rows=mat.rows[perm],
        )
        result_p = analyze(permuted)
        assert result_p.pi0_hat == result.pi0_hat
        by_id = {fid: i for i, fid in enumerate(result.feature_ids)}
        base = np.array([by_id[fid] for fid in result_p.feature_ids])
        assert np.array_equal(result_p.median_marginal, result.median_marginal[base])
        assert np.array_equal(result_p.lfdr, result.lfdr[base])
        assert np.array_equal(result_p.rank, result.rank[base])

    def test_degenerate_feature_named(self):
        mat = InputMatrix(
            feature_ids=("a", "b"),
            rows=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]),
        )
        with pytest.raises(DataError, match="'a'"):
            analyze(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_named(self, bad):
        mat = InputMatrix(
            feature_ids=("a", "b", "c"),
            rows=np.array([[0.0, 1.0, 2.0], [1.0, bad, 0.5], [3.0, 1.0, 2.5]]),
        )
        with pytest.raises(DataError, match="'b'"):
            analyze(mat)

    def test_feature_ids_of_the_wrong_length(self):
        mat = simulated_matrix(m=300, n=4, pi0=0.9, seed=7)
        with pytest.raises(DataError, match="299 feature ids for 300 features"):
            analyze(InputMatrix(feature_ids=mat.feature_ids[1:], rows=mat.rows))

    def test_theta0_shifts_the_atom(self):
        mat = simulated_matrix(m=300, n=4, pi0=1.0, seed=7)
        shifted = InputMatrix(feature_ids=mat.feature_ids, rows=mat.rows + 5.0)
        result = analyze(shifted, theta0=5.0)
        med = result.median_marginal
        assert np.mean(med == 5.0) > 0.5


class TestEmitReport:
    def test_header_schema_frozen(self, tmp_path):
        result = analyze(simulated_matrix(m=150, n=4))
        out = tmp_path / "report.tsv"
        emit_report(result, str(out))
        header = out.read_text().splitlines()[0]
        assert header == (
            "feature_id\tmean\tt\tz\tlfdr\tmedian_conditional\tmedian_marginal\t"
            "ci_lo_conditional\tci_hi_conditional\tci_lo_marginal\tci_hi_marginal\t"
            "conf_below\tconf_at_null\tconf_above\trank"
        )

    def test_roundtrip_twelve_significant_digits(self, tmp_path):
        result = analyze(simulated_matrix(m=150, n=4, pi0=0.8, seed=8))
        out = tmp_path / "report.tsv"
        emit_report(result, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 151
        table = [line.split("\t") for line in lines[1:]]
        assert [cells[0] for cells in table] == list(result.feature_ids)
        assert [int(cells[-1]) for cells in table] == result.rank.tolist()
        for col, name in enumerate(REPORT_COLUMNS[1:-1], start=1):
            text = [cells[col] for cells in table]
            reparsed = [float(cell) for cell in text]
            np.testing.assert_allclose(
                reparsed, getattr(result, name), rtol=1e-11, atol=1e-300
            )
            # writing the reparsed value reproduces the same text
            assert [f"{value:.12g}" for value in reparsed] == text

    def test_unwritable_destination(self, tmp_path):
        result = analyze(simulated_matrix(m=120, n=4))
        with pytest.raises(DataError, match="cannot write"):
            emit_report(result, str(tmp_path / "no_dir" / "x.tsv"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_data_error(self):
        result = analyze(simulated_matrix(m=120, n=4))
        with pytest.raises(DataError, match="cannot write /dev/full"):
            emit_report(result, "/dev/full")


class TestPlotData:
    def test_analysis_plot_files(self, tmp_path):
        result = analyze(simulated_matrix(m=160, n=4, pi0=0.85, seed=9))
        plots = tmp_path / "plots"
        write_analysis_plots(result, str(plots))
        for name, cols in (
            ("medians_vs_lfdr.tsv", 4),
            ("width_scatter.tsv", 3),
            ("confidence_levels.tsv", 4),
        ):
            lines = (plots / name).read_text().splitlines()
            assert len(lines) == 161  # header + one record per feature
            assert all(len(l.split("\t")) == cols for l in lines)

    def test_simulation_histogram_counts(self, tmp_path):
        rc = cli_main(
            [
                "simulate", "--m", "150", "--n", "2", "--pi0", "0.9",
                "--experiments", "4", "--seed", "3", "--track", "all_features",
                "--output", str(tmp_path / "rep.tsv"),
                "--plots-dir", str(tmp_path / "plots"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "plots" / "median_error_histogram.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header == ["bin_lo", "bin_hi", "count_marginal", "count_conditional"]
        counts_m = sum(int(l.split("\t")[2]) for l in lines[1:])
        counts_c = sum(int(l.split("\t")[3]) for l in lines[1:])
        assert counts_m == 600
        assert counts_c == 600


class TestCliMain:
    def test_usage_error_without_input(self, capsys):
        assert cli_main(["analyze"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_file_is_data_error(self, capsys):
        assert cli_main(["analyze", "--input", "/no/such/file.tsv"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_level_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "x.tsv", "id\tr1\tr2\na\t1\t2\n")
        assert cli_main(["analyze", "--input", path, "--level", "1.5"]) == 2
        capsys.readouterr()

    def test_empty_delimiter_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "x.tsv", "id\tr1\tr2\na\t1\t2\n")
        assert cli_main(["analyze", "--input", path, "--delimiter", ""]) == 2
        assert "--delimiter" in capsys.readouterr().err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.tsv"
        path.write_bytes(b"id\tr1\tr2\na\xff\t1\t2\nb\t3\t5\n")
        assert cli_main(["analyze", "--input", str(path)]) == 3
        assert f"data error: cannot read {path}" in capsys.readouterr().err

    def test_small_matrix_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "small.tsv", "id\tr1\tr2\na\t1\t2\nb\t2\t4\n")
        assert cli_main(["analyze", "--input", path]) == 3
        capsys.readouterr()

    def test_simulate_bad_pi0_is_usage_error(self, capsys):
        rc = cli_main(
            ["simulate", "--m", "100", "--pi0", "1.5", "--experiments", "1", "--seed", "0"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_simulate_defaults(self):
        from lfdrshrink.cli import _build_parser

        args = _build_parser().parse_args(["simulate", "--experiments", "7", "--seed", "3"])
        assert args.m == 10000
        assert args.n == 2
        assert args.pi0 == 0.9
        assert args.effect == 2.0
        assert args.sigma_null == 1.0
        assert args.sigma_alt == 1.5
        assert args.level == 0.95
        assert args.track == "first_feature"
        assert args.experiments == 7
        assert args.seed == 3

    def test_analyze_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        m, n = 150, 3
        text = "id\t" + "\t".join(f"r{j}" for j in range(n)) + "\n"
        data = rng.standard_normal((m, n))
        for i in range(m):
            text += f"f{i}\t" + "\t".join(f"{v:.8f}" for v in data[i]) + "\n"
        path = write(tmp_path, "mat.tsv", text)
        out = tmp_path / "report.tsv"
        rc = cli_main(["analyze", "--input", path, "--output", str(out)])
        assert rc == 0
        assert "pi0_hat" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == m + 1

    def test_far_null_value_names_the_filled_bins(self, tmp_path, capsys):
        # every t statistic is huge, so every z clamps into one bin
        rows = np.random.default_rng(32).standard_normal((150, 3))
        text = "id\tr1\tr2\tr3\n" + "".join(
            f"f{i}\t" + "\t".join(f"{v:.8f}" for v in row) + "\n" for i, row in enumerate(rows)
        )
        path = write(tmp_path, "mat.tsv", text)
        assert cli_main(["analyze", "--input", path, "--theta0", "1e9"]) == 4
        err = capsys.readouterr().err
        assert "numeric error: z values fill 1 of 120 histogram bins, too few for a degree-6 fit" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_data_error(self, tmp_path, capsys):
        path = golden_input(tmp_path, False)
        assert cli_main(["analyze", "--input", path, "--output", "/dev/full"]) == 3
        assert "cannot write /dev/full" in capsys.readouterr().err
        simulate = ["simulate", "--m", "200", "--experiments", "2"]
        assert cli_main(simulate + ["--output", "/dev/full"]) == 3
        assert "cannot write /dev/full" in capsys.readouterr().err

    def test_import_loads_no_process_pool(self):
        # the pool modules load only when a study starts workers, so they
        # add nothing to the start-up time of every other command; scipy is
        # a test oracle, never a runtime dependency
        code = (
            "import sys, lfdrshrink.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures', 'scipy') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_simulate_deterministic_bytes(self, tmp_path):
        argv = [
            "simulate", "--m", "120", "--n", "2", "--pi0", "0.9",
            "--experiments", "3", "--seed", "11", "--track", "all_features",
        ]
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        assert cli_main(argv + ["--output", str(out1)]) == 0
        assert cli_main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_matches_golden_report(self, tmp_path):
        out = tmp_path / "golden_check.tsv"
        rc = cli_main(
            [
                "simulate", "--m", "150", "--n", "2", "--pi0", "0.9",
                "--experiments", "8", "--seed", "7", "--track", "all_features",
                "--output", str(out),
            ]
        )
        assert rc == 0
        with open(GOLDEN_REPORT, "rb") as handle:
            golden = handle.read()
        assert out.read_bytes() == golden


GOLDEN_PLOTS = ("medians_vs_lfdr.tsv", "width_scatter.tsv", "confidence_levels.tsv")
# treatment/control columns deliberately out of pair order in the header
GOLDEN_PAIRED_HEADER = ("id", "C2", "T1", "C1", "T3", "T2", "C3")


def golden_input(tmp_path, paired: bool) -> str:
    """Write the fixed-decimal matrix behind the golden analyze reports:
    300 features, about 15% with a shifted mean."""
    rng = np.random.default_rng(20240611)
    m = 300
    effects = np.where(rng.random(m) < 0.85, 0.0, rng.choice([-2.5, 2.5], m))
    if paired:
        base = rng.normal(8.0, 1.0, m)
        cells = {}
        for k in (1, 2, 3):
            cells[f"T{k}"] = base + effects + rng.standard_normal(m)
            cells[f"C{k}"] = base + rng.standard_normal(m)
        names = GOLDEN_PAIRED_HEADER[1:]
        lines = [",".join(GOLDEN_PAIRED_HEADER)]
        for i in range(m):
            lines.append(f"p{i:04d}," + ",".join(f"{cells[c][i]:.4f}" for c in names))
        return write(tmp_path, "golden_paired.csv", "\n".join(lines) + "\n")
    data = effects[:, None] + rng.standard_normal((m, 4))
    lines = ["id\tr1\tr2\tr3\tr4"]
    for i in range(m):
        lines.append(f"g{i:04d}\t" + "\t".join(f"{v:.6f}" for v in data[i]))
    return write(tmp_path, "golden.tsv", "\n".join(lines) + "\n")


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        return handle.read()


class TestGoldenAnalyze:
    def test_report_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        rc = cli_main(["analyze", "--input", golden_input(tmp_path, False), "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert out.read_bytes() == golden_bytes("golden_analyze_report.tsv")

    def test_stdout_report_matches_golden(self, tmp_path, capsys):
        rc = cli_main(["analyze", "--input", golden_input(tmp_path, False), "--output", "-"])
        assert rc == 0
        assert capsys.readouterr().out.encode("utf-8") == golden_bytes(
            "golden_analyze_report.tsv"
        )

    def test_paired_report_and_plots_match_golden(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        plots = tmp_path / "plots"
        rc = cli_main(
            [
                "analyze", "--input", golden_input(tmp_path, True),
                "--paired", "T1,C1,T2,C2,T3,C3",
                "--output", str(out), "--plots-dir", str(plots),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert out.read_bytes() == golden_bytes("golden_analyze_paired_report.tsv")
        for name in GOLDEN_PLOTS:
            assert (plots / name).read_bytes() == golden_bytes(f"golden_analyze_paired_{name}")


class TestPooledWriter:
    """Tables of _POOL_MIN_ROWS rows or more are formatted on forked
    workers, and their bytes equal the serial (golden) ones."""

    CHUNK = 50  # 300 golden rows -> 6 chunks per table

    @pytest.fixture
    def pids(self, monkeypatch, tmp_path):
        """Log the pid that formats each chunk; force two workers."""
        log = tmp_path / "pids"
        log.write_text("")
        format_rows = cli._format_rows

        def logged(*args):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            # hold the worker long enough for the other to take the next chunk
            time.sleep(0.05)
            return format_rows(*args)

        monkeypatch.setattr(cli, "_format_rows", logged)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        # two workers on a host with two or more CPUs
        monkeypatch.setattr(sim, "_pool_size", lambda tasks: min(tasks, 2))

        def read():
            found = log.read_text().split()
            log.write_text("")
            return found

        return read

    def test_small_tables_stay_serial(self, tmp_path, capsys, pids):
        out = tmp_path / "report.tsv"
        rc = cli_main(["analyze", "--input", golden_input(tmp_path, False), "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert out.read_bytes() == golden_bytes("golden_analyze_report.tsv")
        assert pids() == [str(os.getpid())] * 6

    def test_report_plots_and_stdout_match_serial(self, monkeypatch, tmp_path, capfd, pids):
        monkeypatch.setattr(cli, "_POOL_MIN_ROWS", 1)
        parent = str(os.getpid())
        out = tmp_path / "report.tsv"
        plots = tmp_path / "plots"
        paired = golden_input(tmp_path, True)
        with time_limit(60):
            result = analyze(read_matrix(paired, paired=[("T1", "C1"), ("T2", "C2"), ("T3", "C3")]))
            emit_report(result, str(out))
            report_pids = pids()
            write_analysis_plots(result, str(plots))
            plot_pids = pids()
            rc = cli_main(["analyze", "--input", golden_input(tmp_path, False), "--output", "-"])
        assert rc == 0
        assert capfd.readouterr().out.encode("utf-8") == golden_bytes("golden_analyze_report.tsv")
        assert out.read_bytes() == golden_bytes("golden_analyze_paired_report.tsv")
        for name in GOLDEN_PLOTS:
            assert (plots / name).read_bytes() == golden_bytes(f"golden_analyze_paired_{name}")
        # the report on one pool, the three plot tables on a second one
        assert len(report_pids) == 6 and len(plot_pids) == 18
        assert len(set(report_pids)) == len(set(plot_pids)) == 2
        assert not set(report_pids) & set(plot_pids)
        assert parent not in report_pids + plot_pids

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_through_the_pool(self, monkeypatch, tmp_path, capsys, pids):
        monkeypatch.setattr(cli, "_POOL_MIN_ROWS", 1)
        path = golden_input(tmp_path, False)
        with time_limit(60):
            assert cli_main(["analyze", "--input", path, "--output", "/dev/full"]) == 3
        assert "data error: cannot write /dev/full" in capsys.readouterr().err
        found = pids()
        assert found and str(os.getpid()) not in found

    def test_dead_worker_is_a_worker_error(self, monkeypatch, tmp_path, capsys):
        def die(*args):
            os._exit(1)

        monkeypatch.setattr(cli, "_format_rows", die)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(cli, "_POOL_MIN_ROWS", 1)
        # two workers on a host with two or more CPUs
        monkeypatch.setattr(sim, "_pool_size", lambda tasks: min(tasks, 2))
        path = golden_input(tmp_path, False)
        with time_limit(20):
            result = analyze(read_matrix(path))
            with pytest.raises(WorkerError, match="worker process died") as info:
                emit_report(result, str(tmp_path / "report.tsv"))
            assert isinstance(info.value.__cause__, BrokenProcessPool)
            assert cli_main(["analyze", "--input", path, "--output", str(tmp_path / "r.tsv")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("worker error: ")
