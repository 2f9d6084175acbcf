"""One measured invocation of the program, run in a fresh process.

    python3 perfbench/child.py [--trace SPANS.json RUN_ID] cli ARGS...
    python3 perfbench/child.py [--trace SPANS.json RUN_ID] scalar INPUT OUTPUT

``cli`` runs the command line exactly as the installed ``lfdrshrink``
script does. ``scalar`` runs the README "Library" loop once per feature of
INPUT (header row, feature id, replicate differences) and writes one line
of results per feature. With ``--trace``, the package's module boundaries
are wrapped before the work starts and the spans are written at exit.
"""

from __future__ import annotations

import sys

LEVEL = 0.95
THETA0 = 0.0

SCALAR_COLUMNS = (
    "feature_id", "mean", "se", "t", "z", "lfdr", "ci_lo", "ci_hi", "median",
    "conf_below", "conf_at_null", "conf_above",
)


def scalar_loop(inp: str, out: str) -> int:
    import numpy as np
    import lfdrshrink as L

    with open(inp, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    features = []
    for line in lines[1:]:
        cells = line.split("\t")
        features.append((cells[0], [float(c) for c in cells[1:]]))

    summaries = [L.summarize(L.PairedSample(row, feature_id=name)) for name, row in features]
    zs = np.array([L.probit_transform(s.t, s.df) for s in summaries])
    fit = L.fit_mixture(L.ZVector(zs, df=summaries[0].df))

    alpha = (1.0 - LEVEL) / 2.0
    rows = ["\t".join(SCALAR_COLUMNS)]
    for (name, _), s, z in zip(features, summaries, zs):
        mp = L.MarginalPosterior(
            lfdr=L.lfdr_at(fit, z),
            theta0=THETA0,
            conditional=L.conditional_posterior(s),
        )
        interval = L.shrunken_interval(mp, alpha, alpha)
        median = L.posterior_median(mp)
        levels = L.observed_confidence_levels(mp)
        values = (
            s.mean, s.se, s.t, float(z), mp.lfdr, interval.lower, interval.upper,
            median, levels.below, levels.at_null, levels.above,
        )
        rows.append(name + "\t" + "\t".join(repr(float(v)) for v in values))
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace"]:
        spans_path, run_id, argv = argv[1], argv[2], argv[3:]
        import tracer as tracing

        tracer = tracing.install(run_id)
    mode, args = argv[0], argv[1:]
    try:
        if mode == "cli":
            import lfdrshrink.cli

            return lfdrshrink.cli.cli_main(args)
        if mode == "scalar":
            loop = scalar_loop if tracer is None else tracer.wrap("bench.scalar_loop", scalar_loop)
            return loop(*args)
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
