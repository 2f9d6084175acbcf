"""Smoke test of the benchmark itself: every workload at a tiny size through
its checks, traced and untraced, and corrupted outputs that the checks must
catch.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "analyze_1m": dict(m=400),
    "analyze_paired": dict(m=400, n=3),
    "simulate_paper": dict(m=500, experiments=20),
    "scalar_api": dict(m=150),
}
SEED = 5


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def produce(name: str, work: str):
    """One untraced invocation of a tiny workload; returns (case, out dir)."""
    case = run._CASES[tiny(name).kind](tiny(name), SEED, work)
    out = os.path.join(work, "out")
    os.makedirs(out)
    code = run.invoke(case.argv(out), run.child_env(), 120.0, os.path.join(work, "stderr"))[3]
    assert code == 0
    assert case.check(out) == []
    return case, out


def rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def set_cell(lines, row: int, column: str, value: str, header=checks.REPORT_COLUMNS):
    cells = lines[row].split("\t")
    cells[header.index(column)] = value
    lines[row] = "\t".join(cells)
    return lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, trace):
    result = run.run_workload(
        tiny(name), SEED, 0.01, trace, setup_samples=2, log=lambda *_: None
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    wanted = tracer.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in wanted}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: set_cell(lines, 3, "lfdr", "1.5"), "lfdr outside"),
        (lambda lines: set_cell(lines, 7, "rank", "1"), "rank is not a permutation"),
        (lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], "input order"),
        (
            lambda lines: [lines[0]] + [
                set_cell([ln], 0, "mean", repr(float(ln.split("\t")[1]) * (1 + 1e-7)))[0]
                for ln in lines[1:]
            ],
            "scalar API",
        ),
    ],
)
def test_corrupted_report_is_caught(tmp_path, edit, message):
    case, out = produce("analyze_1m", str(tmp_path))
    rewrite(os.path.join(out, "report.tsv"), edit)
    problems = case.check(out)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("marginal_coverage", "0.9", "below the level"),
        ("conditional_coverage", "0.97", "binomial SE"),
        ("n_tracked", "123", "m x experiments"),
    ],
)
def test_corrupted_coverage_line_is_caught(tmp_path, key, value, message):
    case, out = produce("simulate_paper", str(tmp_path))
    path = os.path.join(out, "report.tsv")
    rewrite(path, lambda lines: [f"{key}\t{value}" if ln.startswith(key + "\t") else ln for ln in lines])
    problems = case.check(out)
    assert any(message in p for p in problems), problems


def test_corrupted_scalar_result_is_caught(tmp_path):
    case, out = produce("scalar_api", str(tmp_path))
    path = os.path.join(out, "result.tsv")
    from child import SCALAR_COLUMNS

    def edit(lines):
        return set_cell(lines, 2, "median", "0.125", header=SCALAR_COLUMNS)

    rewrite(path, edit)
    problems = case.check(out)
    assert any("marginal_quantile_batch" in p for p in problems), problems


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "scalar_api",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
