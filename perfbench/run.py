"""End-to-end and traced benchmark of the lfdrshrink CLI and scalar API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one block each

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. Each workload's inputs are generated from the seed into
``.perfbench_work/`` at the checkout root and removed afterwards. Every
measured invocation is a fresh child process, run one at a time (a closed
loop with one client), for at least ``--seconds`` and at least twice.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from wrapped module boundaries with
``--trace 1``. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# the output checks call the package being measured
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tracer  # noqa: E402

MIN_RUNS = 2
SETUP_SAMPLES = 21
# a run must end within 180 s: stop starting invocations after this long,
# and kill a child that would run past the limit
LAUNCH_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("features_per_s", "features/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "analyze", "simulate" or "scalar"
    m: int  # features (per experiment for simulate)
    n: int  # replicates; treatment/control pairs when paired
    paired: bool = False
    plots: bool = False
    experiments: int = 1
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze_1m", "analyze", m=1_000_000, n=4,
            why="CLI analyze at 1e6 x 4: text parsing, per-row objects, report writing and memory dominate",
        ),
        Workload(
            "analyze_paired", "analyze", m=200_000, n=8, paired=True, plots=True,
            why="CLI analyze --paired with plots: paired parse path, plot writer, t kernels at df = 7",
        ),
        Workload(
            "simulate_paper", "simulate", m=10_000, n=2, experiments=200,
            why="CLI simulate at the paper design (df = 1), all features tracked: numerics-bound, no text I/O",
        ),
        Workload(
            "scalar_api", "scalar", m=2000, n=4,
            why="README library loop per feature: the only path through confidence and the scalar posterior",
        ),
    )
}


@dataclasses.dataclass
class Case:
    """A workload's generated inputs, child arguments and output check."""

    features: int
    argv: Callable[[str], list[str]]  # output dir -> child arguments
    check: Callable[[str], list[str]]  # output dir -> problems found


@dataclasses.dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    traced: bool
    problems: list
    layers: dict | None = None


def _analyze_case(w: Workload, seed: int, work: str) -> Case:
    if w.paired:
        decimals, delimiter = 4, ","
        ticks = inputs.paired_ticks(w.m, w.n, inputs.BASE_SEED, decimals)
        header = inputs.paired_header(w.n)
    else:
        decimals, delimiter = 6, "\t"
        ticks = inputs.difference_ticks(w.m, w.n, inputs.BASE_SEED, decimals)
        header = [f"r{k}" for k in range(1, w.n + 1)]
    ticks = inputs.permute_rows(ticks, seed)
    path = os.path.join(work, "input.csv" if w.paired else "input.tsv")
    inputs.write_matrix(path, header, ticks, decimals, delimiter)
    ids = inputs.feature_ids(w.m)
    # the program parses each cell to exactly ticks / 10**decimals
    values = ticks / 10.0**decimals
    diffs = values[:, 0::2] - values[:, 1::2] if w.paired else values

    def argv(out):
        args = ["cli", "analyze", "--input", path, "--output", os.path.join(out, "report.tsv")]
        if w.paired:
            args += ["--paired", ",".join(header)]
        if w.plots:
            args += ["--plots-dir", os.path.join(out, "plots")]
        return args

    def check(out):
        import checks

        report = os.path.join(out, "report.tsv")
        problems = checks.check_report(report, ids, diffs, sample_seed=seed)
        if w.plots and not problems:
            problems = checks.check_plots(os.path.join(out, "plots"), report)
        return problems

    return Case(w.m, argv, check)


def _simulate_case(w: Workload, seed: int, work: str) -> Case:
    flags = {
        "m": str(w.m), "n": str(w.n), "pi0": "0.9", "experiments": str(w.experiments),
        "seed": str(seed), "level": "0.95", "track": "all_features",
    }

    def argv(out):
        args = ["cli", "simulate"]
        for key in ("m", "n", "pi0", "experiments", "seed", "level", "track"):
            args += [f"--{key}", flags[key]]
        return args + ["--output", os.path.join(out, "report.tsv")]

    def check(out):
        import checks

        with open(os.path.join(out, "report.tsv"), encoding="utf-8") as handle:
            return checks.check_simulation(handle.read(), flags)

    return Case(w.m * w.experiments, argv, check)


def _scalar_case(w: Workload, seed: int, work: str) -> Case:
    ticks = inputs.permute_rows(inputs.difference_ticks(w.m, w.n, inputs.BASE_SEED), seed)
    path = os.path.join(work, "input.tsv")
    inputs.write_matrix(path, [f"r{k}" for k in range(1, w.n + 1)], ticks, 6, "\t")
    ids = inputs.feature_ids(w.m)

    def argv(out):
        return ["scalar", path, os.path.join(out, "result.tsv")]

    def check(out):
        import checks

        return checks.check_scalar(os.path.join(out, "result.tsv"), ids, float(w.n - 1))

    return Case(w.m, argv, check)


_CASES = {"analyze": _analyze_case, "simulate": _simulate_case, "scalar": _scalar_case}


def child_env() -> dict:
    """The program's environment: the checkout's sources, one thread."""
    env = dict(os.environ)
    env.pop("LFDRSHRINK_THREADS", None)
    # let the first import write bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own rusage, killing it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(args: list[str], env: dict, timeout: float, stderr_path: str):
    """Run one child; return wall seconds, CPU seconds, max RSS (MB), code."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        code, usage = _wait(proc, timeout)
        wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def measure_setup(env: dict, samples: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import ``lfdrshrink.cli``."""
    cmd = [sys.executable, "-c", "import lfdrshrink.cli"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # warm bytecode and file cache
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        walls.append(time.perf_counter() - start)
    return walls


def dir_digest(path: str) -> str:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def _tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-lines:])


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_samples: int = SETUP_SAMPLES,
    log=print,
) -> dict:
    """Generate, measure and check one workload; return the result object."""
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=base)
    run_start = time.perf_counter()
    try:
        case = _CASES[w.kind](w, seed, work)
        env = child_env()
        setup = measure_setup(env, setup_samples)
        runs: list[Invocation] = []
        reference: tuple[str, list] | None = None
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            traced_runs = sum(r.traced for r in runs)
            target = traced_runs if trace else len(runs)
            if target >= MIN_RUNS and (
                elapsed >= seconds or time.perf_counter() - run_start >= LAUNCH_LIMIT_S
            ):
                break
            # with tracing, one untraced invocation gives the overhead base
            traced = trace and len(runs) >= 1
            out = os.path.join(work, f"run{len(runs)}")
            os.makedirs(out)
            args = case.argv(out)
            spans = os.path.join(work, f"spans{len(runs)}.json")
            if traced:
                args = ["--trace", spans, f"{w.name}-s{seed}-r{len(runs)}", *args]
            stderr_path = os.path.join(work, f"run{len(runs)}.stderr")
            timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - run_start))
            wall, cpu, rss, code = invoke(args, env, timeout, stderr_path)
            inv = Invocation(wall, cpu, rss, code, traced, [])
            if code != 0:
                inv.problems.append(f"exit code {code}: {_tail(stderr_path)}")
            else:
                digest = dir_digest(out)
                if reference is None:
                    try:
                        verdict = list(case.check(out))
                    except Exception as exc:  # a crashing check is a failed output
                        verdict = [f"output check raised {type(exc).__name__}: {exc}"]
                    reference = (digest, verdict)
                if digest != reference[0]:
                    inv.problems.append("output bytes differ from the first run of this seed")
                else:
                    inv.problems.extend(reference[1])
            if traced and os.path.exists(spans):
                inv.layers = tracer.layer_metrics(spans)
                os.remove(spans)
            shutil.rmtree(out)
            runs.append(inv)
        return _result(w, case, seed, setup, runs, trace, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _describe(name: str, unit: str, values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return (
        f"{name:<42} {statistics.median(values):>14.6g} {unit:<11}"
        f" median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"
    )


def environment() -> str:
    import numpy

    threads = " ".join(f"{v}={child_env()[v]}" for v in THREAD_VARS)
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} {threads} (children)"
    )


def _result(w, case, seed, setup, runs, trace, log) -> dict:
    log(f"# workload {w.name} seed={seed} trace={int(trace)}: {w.why}")
    log(f"# env {environment()}")
    traced = [r for r in runs if r.traced and r.layers is not None]
    for r in traced[1:]:
        if any(r.layers[k] != traced[0].layers[k] for k in tracer.EXACT):
            r.problems.append("exact trace counts differ between traced runs of one seed")
    for i, r in enumerate(runs):
        for problem in r.problems:
            log(f"# FAILED run {i}: {problem}")
    failed = sum(1 for r in runs if r.problems)
    good = [r for r in runs if not r.problems] or runs

    untraced = [r for r in good if not r.traced]
    base = untraced or good
    e2e = {
        "features_per_s": [case.features / r.wall_s for r in base],
        "cpu_s": [r.cpu_s for r in base],
        "peak_rss_mb": [r.rss_mb for r in base],
        "setup_s": setup,
    }
    units = dict(END_TO_END)
    for name, values in e2e.items():
        log(_describe(name, units[name], values))
    log(f"{'error_rate':<42} {failed / len(runs):>14.6g} {'ratio':<11} {failed} failed of {len(runs)} attempted")

    if trace:
        layer_runs = [r for r in good if r.layers is not None] or traced
        per_layer = {
            name: statistics.median(r.layers[name] for r in layer_runs)
            for name, _ in tracer.PER_LAYER
            if name != "trace.overhead_pct"
        }
        traced_fps = statistics.median(case.features / r.wall_s for r in layer_runs)
        untraced_fps = statistics.median(e2e["features_per_s"]) if untraced else traced_fps
        per_layer["trace.overhead_pct"] = 100.0 * (untraced_fps / traced_fps - 1.0)
        log(f"# traced features_per_s {traced_fps:.6g} vs untraced {untraced_fps:.6g}")
        for name, unit in tracer.PER_LAYER:
            log(f"{name:<42} {per_layer[name]:>14.6g} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    else:
        metrics = {
            name: {"value": statistics.median(e2e[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "lfdrshrink", "cli.py")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src', 'lfdrshrink')}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
