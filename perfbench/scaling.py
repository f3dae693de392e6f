"""One-shot size-scaling report: the layer timings at T in {1e4, 1e5, 1e6}
rows and n in {16, 512} scenarios, plus the ROADMAP Baseline rows off that
grid (``partition_discrete`` with 5000 scenarios at T=1e6, the CSV write
and read at 2e5 rows).

    python3 perfbench/scaling.py

Run from the root of a checkout.  Each call is timed with the benchmark's
own tracer spans; the engine calls also record their tracemalloc peak.
A shape whose dense (merged support x scenarios) matrix would not fit is
reported as skipped with its computed size and is never run.  Prints a
Markdown table and writes the rows to ``perfbench/_out/scaling.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Tracer, call, fmt  # noqa: E402

SIZES = (10_000, 100_000, 1_000_000)
# tracemalloc peak of choquet_factor over the m x n dense float64 matrix,
# measured on engine-wide (615 MB for m=5e4, n=512): about three copies
DENSE_COPIES = 3
# half the machine, since the machine is shared with other processes
MEMORY_SHARE = 0.5
# (factors, bins per factor) for each scenario count n
BOXES = {16: (2, 4), 512: (3, 8)}
# the README's 7-factor, 4-bin shape, reported (never run) at this T
WIDE_SHAPE = (100_000, 7, 4)
# ROADMAP Baseline rows off the T x n grid: partition_discrete with 5000
# scenarios at T=1e6, and the CSV write and read at 2e5 rows
BASELINE_DISCRETE = (1_000_000, 5_000)
BASELINE_CSV_T = 200_000


def dense_bytes(m: int, n: int) -> int:
    return m * n * 8


def fits(m: int, n: int) -> bool:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return DENSE_COPIES * dense_bytes(m, n) <= MEMORY_SHARE * memory


def measure_sizes(workdir: Path) -> list:
    import numpy as np

    import factorrisk as fr
    from factorrisk import cli
    from workloads import GRID_P, GRID_Q, gaussian_sample

    tr = Tracer()
    null = Tracer(enabled=False)
    rows = []

    def timed(path, T, n, fn, *args, peak=False, **kwargs):
        tr.job = f"{path} T={T} n={n}"
        result = call(tr, path, fn, *args, peak=peak, **kwargs)
        span = tr.spans[-1]
        rows.append({"path": path, "T": T, "n": n, "seconds": span["end"] - span["start"],
                     "peak_mb": span.get("peak_bytes", 0) / 1e6 if peak else None})
        return result

    def skipped(path, T, n, m):
        rows.append({"path": path, "T": T, "n": n, "skipped": True,
                     "dense_gb": dense_bytes(m, n) / 1e9})

    def gaussian(T, factors, seed):
        return gaussian_sample(null, np.linspace(1.0, -0.5, factors), T, seed)

    def discrete(T, n):
        sample = fr.simulate(0.1, [1.0], 0.8, fr.DiscreteFactorSpec(np.arange(n)), n=T,
                             seed=T + n)
        timed("partition_discrete", T, n, fr.partition_discrete, sample)

    def csv_round_trip(T):
        path = workdir / f"sim-{T}.csv"
        argv = ["simulate", "--beta", "1.0,-0.5,0.3", "--n", str(T), "--seed", str(T),
                "--output", str(path)]
        if timed("cli simulate (3 factors)", T, 1, cli.main, argv) != 0:
            raise RuntimeError("cli simulate failed")
        timed("read_csv (4 columns)", T, 1, cli.read_csv, path, "X")
        path.unlink()

    for T in SIZES:
        for n, (factors, bins) in BOXES.items():
            sample = gaussian(T, factors, seed=T + n)
            part = timed("partition_quantile_boxes", T, n, fr.partition_quantile_boxes,
                         sample, bins)
            fam = timed("from_sample", T, part.n_scenarios, fr.from_sample, sample, part)
            m = fam.merged_support().size
            for path, fn, arg in (
                    ("choquet_factor(psi_mean_of_es)", fr.choquet_factor,
                     fr.psi_mean_of_es(0.9)),
                    ("quantile_factor(var_of_var)", fr.quantile_factor,
                     fr.pred_var_of_var(0.95, 0.5))):
                if fits(m, fam.n_scenarios):
                    timed(path, T, fam.n_scenarios, fn, fam, arg, peak=True)
                else:
                    skipped(path, T, fam.n_scenarios, m)
            timed("compose_es_mean", T, fam.n_scenarios, fr.compose_es_mean, fam, 0.9)
            discrete(T, n)

        data = gaussian(T, 1, seed=T)
        fit = fr.ols_fit(data)
        timed("diff_grid 5x5", T, 1, fr.diff_grid, fit, data, GRID_P, GRID_Q)
        timed("find_matching_q", T, 1, fr.find_matching_q, fit, data, 0.975)
        csv_round_trip(T)

    discrete(*BASELINE_DISCRETE)
    csv_round_trip(BASELINE_CSV_T)
    T, factors, bins = WIDE_SHAPE
    skipped("choquet_factor(psi_mean_of_es)", T, bins ** factors, T)
    return rows


def table(rows) -> str:
    lines = ["| Path | T | n | Time (s) | Peak (MB) |", "|---|---|---|---|---|"]
    for r in rows:
        if r.get("skipped"):
            cells = f"skipped: dense matrix {r['dense_gb']:.2f} GB | -"
        else:
            peak = "-" if r["peak_mb"] is None else fmt(r["peak_mb"])
            cells = f"{fmt(r['seconds'])} | {peak}"
        lines.append(f"| {r['path']} | {r['T']:.0e} | {r['n']} | {cells} |")
    return "\n".join(lines)


def main() -> int:
    harness.pin_blas()
    src = harness.ROOT / "src"
    if not (src / "factorrisk" / "__init__.py").is_file():
        harness.eprint(f"scaling: no factorrisk package under {src}; run from a checkout root")
        return 2
    sys.path.insert(0, str(src))
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    rows = measure_sizes(out)
    env = harness.environment(seed=None)
    (out / "scaling.json").write_text(json.dumps({"environment": env, "rows": rows}, indent=1),
                                      encoding="utf-8")
    print(table(rows))
    print(f"environment: {json.dumps(env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
