"""Seeded, deterministic input files for the benchmark workloads.

The file-based workloads (analyze and the scalar loop) use one fixed draw
of feature values (BASE_SEED) whose rows the seed permutes. The program's
cost is heavy-tailed in the draw. The batch quantile solver iterates every
lane until its slowest lane converges, and the slowest of 1e6 lanes is an
extreme-value statistic: on a 2-core x86 box, draws 0..14 of the 1e6 x 4
design took 15 to 106 t-CDF passes per tail quantile (4 to 31 s of
quantile time). In the scalar loop, a feature whose lfdr reaches 0.975
needs no t-quantile solve for its interval, and the density fit on 2,000
features puts 497 to 1,158 of them there across six draws; the loop ran
at 565 to 884 features/s across five of them. A fresh draw per seed would swing
end-to-end time that much, and no bound could tell a regression from the
draw. A permutation leaves the histogram, the fit and every feature's work
unchanged while still changing the file bytes, feature order, ranks and
the cross-checked rows. Draw 0 is the first draw, not a chosen one: at
1e6 x 4 it takes 17 and 30 passes, and the scalar draw has 638 features
with lfdr >= 0.975, both inside those ranges.

Values are drawn as integer ticks (10**-decimals units) and written with
fixed-point formatting, so the bytes of a file depend only on the seed and
the parsed value of every cell is exactly ``ticks / 10**decimals``. The
checks rely on that to recompute the program's inputs without parsing the
file again.
"""

from __future__ import annotations

import numpy as np

# Design of the simulated features: the paper's mixture of nulls and
# +-effect alternatives with a wider alternative spread.
PI0 = 0.9
EFFECT = 2.0
SIGMA_NULL = 1.0
SIGMA_ALT = 1.5

_CHUNK_ROWS = 20000

BASE_SEED = 0


def feature_ids(m: int) -> list[str]:
    width = max(7, len(str(m)))
    return [f"f{i:0{width}d}" for i in range(1, m + 1)]


def _true_means(rng: np.random.Generator, m: int, effect: float) -> np.ndarray:
    u = rng.random(m)
    half_alt = (1.0 - PI0) / 2.0
    return np.where(u < PI0, 0.0, np.where(u < PI0 + half_alt, -effect, effect))


def _fix_degenerate(ticks: np.ndarray, cols: np.ndarray) -> None:
    """Bump one tick in rows whose selected columns are all equal, so that
    every feature has a nonzero sample variance."""
    sub = ticks[:, cols]
    flat = np.flatnonzero(np.all(sub == sub[:, :1], axis=1))
    ticks[flat, cols[-1]] += 1


def difference_ticks(m: int, n: int, seed: int, decimals: int = 6) -> np.ndarray:
    """m-by-n replicate differences, in ticks of 10**-decimals."""
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = _true_means(rng, m, EFFECT)
    sigma = np.where(theta != 0.0, SIGMA_ALT, SIGMA_NULL)
    x = theta[:, None] + sigma[:, None] * rng.standard_normal((m, n))
    ticks = np.rint(x * 10.0**decimals).astype(np.int64)
    _fix_degenerate(ticks, np.arange(n))
    return ticks


def paired_ticks(m: int, pairs: int, seed: int, decimals: int = 4) -> np.ndarray:
    """m-by-2*pairs log-expression columns T1, C1, T2, C2, ... in ticks.

    Each feature has its own baseline; treatment adds the feature's true
    mean, and both arms get independent noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = _true_means(rng, m, 1.0)
    base = 8.0 + 2.0 * rng.standard_normal(m)
    noise = 0.5 * rng.standard_normal((m, 2 * pairs))
    x = base[:, None] + noise
    x[:, 0::2] += theta[:, None]
    ticks = np.rint(x * 10.0**decimals).astype(np.int64)
    # degenerate differences T - C are degenerate in ticks as well
    diff = ticks[:, 0::2] - ticks[:, 1::2]
    flat = np.flatnonzero(np.all(diff == diff[:, :1], axis=1))
    ticks[flat, 2 * pairs - 2] += 1
    return ticks


def permute_rows(ticks: np.ndarray, seed: int) -> np.ndarray:
    """Rows of ``ticks`` in a seed-determined order."""
    order = np.random.Generator(np.random.PCG64(seed)).permutation(ticks.shape[0])
    return ticks[order]


def paired_header(pairs: int) -> list[str]:
    return [name for k in range(1, pairs + 1) for name in (f"T{k}", f"C{k}")]


def write_matrix(
    path: str,
    header: list[str],
    ticks: np.ndarray,
    decimals: int,
    delimiter: str,
) -> int:
    """Write ``feature_id`` plus the tick columns as fixed-point text.

    Returns the number of bytes written.
    """
    m, ncol = ticks.shape
    ids = feature_ids(m)
    values = ticks / 10.0**decimals
    row = "%s" + (delimiter + f"%.{decimals}f") * ncol + "\n"
    written = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        head = delimiter.join(["feature_id", *header]) + "\n"
        written += handle.write(head)
        for start in range(0, m, _CHUNK_ROWS):
            stop = min(m, start + _CHUNK_ROWS)
            cells: list = []
            for fid, vals in zip(ids[start:stop], values[start:stop].tolist()):
                cells.append(fid)
                cells.extend(vals)
            written += handle.write((row * (stop - start)) % tuple(cells))
    return written
