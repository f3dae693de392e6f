"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload engine-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every job also runs once inside spans and the last line
carries the per-layer metrics, and the spans are written to
``perfbench/_out/``.  Earlier lines are a readable report with the
environment.  README.md defines every metric.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Tracer, eprint, fmt, median, self_times, tail  # noqa: E402

SETUP_REPEATS = 3
# BENCHMARK.json's run_seconds, and the timed job cycles a run of that
# length makes on each workload.  The count is fixed rather than timed, so
# that job_tail_s (ten jobs beyond it) is the same order statistic on every
# commit: p58.3 of 24 jobs on engine-wide, p74.4 of 39 on csv-discrete
# and p66.7 of 30 on regression-grid.
RUN_SECONDS = 30
CYCLES = {"engine-wide": 4, "csv-discrete": 3, "regression-grid": 6}
# Job kinds run once at full size, untimed, before those cycles.  On
# engine-wide the first job and the first share job grow the heap to its
# working size and ran 20 to 50% slower than later ones; the first cycle of
# the other two workloads was not slower.
WARMUP_KINDS = {"engine-wide": ("choquet-mean-of-es", "share"), "csv-discrete": (),
                "regression-grid": ()}
# A job's time is scaled to a machine on which harness.speed_probe takes
# REF_PROBE_S, using the median of the probes taken within SPEED_WINDOW
# jobs of it.  The probe is about as fast as that on the reference machine.
REF_PROBE_S = 0.025
SPEED_WINDOW = 3
SRC = harness.ROOT / "src"

# span names summed into one per-layer metric; any other metric prefix is
# the name of a single span
GROUPS = {
    "distortion.compose": ("distortion.compose_es_mean", "distortion.compose_var_distortion"),
    "quantile.event": ("quantile.covar", "quantile.coes"),
    "linear": ("linear.linear_factor", "linear.mes"),
    "coherent": ("coherent.es_composition",),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(first):
    """Median time to import the benchmark's modules (numpy, scipy and
    factorrisk among them): ``first``, this process's own import, and
    SETUP_REPEATS - 1 more in fresh interpreters."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            "import harness; harness.pin_blas(); import workloads; "
            "print(time.perf_counter() - t0)")
    again = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=120).stdout)
             for _ in range(SETUP_REPEATS - 1)]
    return median([first, *again])


def set_up(factory, seed, trace, workdir):
    """Build the inputs SETUP_REPEATS times, each followed by the warm-up.

    Returns the jobs of the last build, the median set-up seconds and the
    tracer; in a traced run the last build's spans are kept with job id
    ``setup``.
    """
    tracer = Tracer(enabled=bool(trace))
    null = Tracer(enabled=False)
    durations = []
    jobs = None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        tracer.job = "setup"
        t0 = time.perf_counter()
        jobs = factory(seed, tracer if last else null, workdir)
        warm_dir = workdir / "warm"
        warm_dir.mkdir(exist_ok=True)
        for job in factory(seed, null, warm_dir, small=True):
            errors = job.check(job.run(null))
            if errors:
                raise RuntimeError(f"warm-up job {job.kind} failed its check: {errors}")
        durations.append(time.perf_counter() - t0)
    return jobs, median(durations), tracer


def run_job(job, cycle, tracer):
    """Probe the machine's speed, run one job untraced (timed), in a traced
    run once more inside spans, then check it; returns the job record."""
    null = Tracer(enabled=False)
    rec = {"kind": job.kind, "rows": job.rows, "cycle": cycle, "errors": []}
    # garbage of the previous job and its check is not collected on this job's clock
    gc.collect()
    rec["probe_seconds"] = harness.speed_probe()
    t0 = time.perf_counter()
    try:
        result = job.run(null)
    except Exception:
        rec["seconds"] = time.perf_counter() - t0
        rec["errors"].append(traceback.format_exc())
        return rec
    rec["seconds"] = time.perf_counter() - t0
    if tracer.enabled:
        tracer.job = f"{cycle}:{job.kind}"
        t0 = time.perf_counter()
        try:
            with tracer.span("job." + job.kind):
                value = (job.replay or job.run)(tracer)
            if job.replay is not None and value != job.value_of(result):
                rec["errors"].append(f"replayed value {value!r} differs from the CLI's")
        except Exception:
            rec["errors"].append(traceback.format_exc())
        rec["traced_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        rec["errors"] += job.check(result)
    except Exception:
        rec["errors"].append(traceback.format_exc())
    rec["check_seconds"] = time.perf_counter() - t0
    return rec


def cycle_count(workload, seconds):
    """Timed cycles: CYCLES[workload] scaled to ``seconds``, at least one."""
    return max(1, round(CYCLES[workload] * seconds / RUN_SECONDS))


def run_cycles(jobs, warmup_kinds, cycles, tracer):
    """The jobs of ``warmup_kinds`` once, untimed (cycle -1), then
    ``cycles`` timed cycles, one job at a time, so each job kind runs
    equally often in the timings.

    Warm-up jobs run at full size and are checked like the others, but are
    left out of the timings and the spans.  Each record gets
    ``ref_seconds``, its time scaled to the reference machine speed (see
    REF_PROBE_S).
    """
    null = Tracer(enabled=False)
    records = [run_job(job, -1, null) for job in jobs if job.kind in warmup_kinds]
    records += [run_job(job, cycle, tracer) for cycle in range(cycles) for job in jobs]
    # probes[i] ran just before job i and probes[i + 1] just after it
    probes = [r["probe_seconds"] for r in records] + [harness.speed_probe()]
    for i, rec in enumerate(records):
        window = probes[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW]
        rec["ref_seconds"] = rec["seconds"] * REF_PROBE_S / median(window)
    return records


def timed(records):
    return [r for r in records if r["cycle"] >= 0]


def speed_scale(records):
    """REF_PROBE_S over the median speed probe of the whole run."""
    return REF_PROBE_S / median([r["probe_seconds"] for r in records])


def end_to_end(records, setup_s):
    """The end-to-end metrics; ``setup_s`` is scaled by ``speed_scale``."""
    ok = sum(not r["errors"] for r in records)
    times = [r["ref_seconds"] for r in timed(records)]
    rows = sum(r["rows"] for r in timed(records))
    return {
        "job_p50_s": (median(times), "s"),
        "job_tail_s": (tail(times)[0], "s"),
        "rows_per_s": (rows / sum(times), "rows/s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "setup_s": (setup_s * speed_scale(records), "s"),
        "ok_frac": (ok / len(records), "frac"),
    }


def per_layer(spans, records, cycles):
    """Per-layer metrics from span self times.

    ``busy_s`` is the summed self time per timed job cycle; spans recorded
    during set-up count once.  Sizes and peaks are the largest a call saw.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span["name"], []).append((span, own))

    def group(prefix):
        return [item for name in GROUPS.get(prefix, (prefix,)) for item in by_name.get(name, [])]

    def busy(prefix):
        return sum((own if span["job"] == "setup" else own / cycles
                    for span, own in group(prefix)), 0.0)

    def largest(prefix, count):
        return max((span["counts"][count] for span, _ in group(prefix)), default=0)

    def rate(prefix, count):
        done = [(span, own) for span, own in group(prefix) if "error" not in span]
        total = sum(own for _, own in done)
        return sum(span["counts"][count] for span, _ in done) / total if total else 0.0

    def seconds_per(prefix, count):
        rate_ = rate(prefix, count)
        return 1.0 / rate_ if rate_ else 0.0

    def peak_mb(prefix):
        return max((span.get("peak_bytes", 0) for span, _ in group(prefix)), default=0) / 1e6

    def occupied(prefix):
        return median([span["counts"]["boxes"] / span["counts"]["cells"]
                       for span, _ in group(prefix)])

    rejects = sum("error" in span for span, _ in group("cli.read_csv")) / cycles
    untraced = median([r["seconds"] for r in timed(records)])
    traced = median([r["traced_seconds"] for r in timed(records)])
    m = {}
    m["cli.read_csv.busy_s"] = (busy("cli.read_csv"), "s")
    m["cli.read_csv.rows_per_s"] = (rate("cli.read_csv", "rows"), "rows/s")
    m["cli.read_csv.rejects"] = (rejects, "count")
    m["cli.simulate.busy_s"] = (busy("cli.simulate"), "s")
    m["cli.simulate.rows_per_s"] = (rate("cli.simulate", "rows"), "rows/s")
    m["conditioning.partition_discrete.busy_s"] = (busy("conditioning.partition_discrete"), "s")
    m["conditioning.partition_discrete.scenarios"] = (
        largest("conditioning.partition_discrete", "scenarios"), "count")
    m["conditioning.partition_quantile_boxes.busy_s"] = (
        busy("conditioning.partition_quantile_boxes"), "s")
    m["conditioning.partition_quantile_boxes.occupied_frac"] = (
        occupied("conditioning.partition_quantile_boxes"), "frac")
    m["core.from_sample.busy_s"] = (busy("core.from_sample"), "s")
    m["core.from_sample.support"] = (largest("core.from_sample", "support"), "count")
    m["core.from_sample.peak_mb"] = (peak_mb("core.from_sample"), "MB")
    m["distortion.choquet_factor.busy_s"] = (busy("distortion.choquet_factor"), "s")
    m["distortion.choquet_factor.peak_mb"] = (peak_mb("distortion.choquet_factor"), "MB")
    m["distortion.choquet_factor.s_per_breakpoint"] = (
        seconds_per("distortion.choquet_factor", "breakpoints"), "s")
    m["distortion.compose.busy_s"] = (busy("distortion.compose"), "s")
    m["quantile.quantile_factor.busy_s"] = (busy("quantile.quantile_factor"), "s")
    m["quantile.quantile_factor.peak_mb"] = (peak_mb("quantile.quantile_factor"), "MB")
    m["quantile.event.busy_s"] = (busy("quantile.event"), "s")
    m["sharing.inf_convolution.busy_s"] = (busy("sharing.inf_convolution"), "s")
    m["sharing.inf_convolution.peak_mb"] = (peak_mb("sharing.inf_convolution"), "MB")
    m["linear.busy_s"] = (busy("linear"), "s")
    m["coherent.busy_s"] = (busy("coherent"), "s")
    m["regression.ols_fit.busy_s"] = (busy("regression.ols_fit"), "s")
    m["regression.diff_grid.busy_s"] = (busy("regression.diff_grid"), "s")
    m["regression.diff_grid.s_per_cell"] = (seconds_per("regression.diff_grid", "cells"), "s")
    m["regression.find_matching_q.busy_s"] = (busy("regression.find_matching_q"), "s")
    m["regression.plain_var.busy_s"] = (busy("regression.plain_var"), "s")
    m["regression.simulate.busy_s"] = (busy("regression.simulate"), "s")
    m["bench.check.busy_s"] = (
        sum(r.get("check_seconds", 0.0) for r in timed(records)) / cycles, "s")
    m["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "frac")
    return m


def layer_shares(spans):
    """Self time and calls per module over the traced jobs, as shares of job time."""
    job_time = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("job."))
    layers: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["job"] == "setup":
            continue
        layer = "job glue" if span["name"].startswith("job.") else span["name"].split(".")[0]
        entry = layers.setdefault(layer, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {layer: {"self_s": own, "share": own / job_time if job_time else 0.0, "calls": calls}
            for layer, (own, calls) in sorted(layers.items(), key=lambda kv: -kv[1][0])}


def report(args, env, records, cycles, metrics, extra):
    wall = [r["seconds"] for r in timed(records)]
    _, pct, beyond = tail(wall)
    failed = [r for r in records if r["errors"]]
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(records)} jobs: {len(records) - len(wall)} warm-up, then {cycles} timed cycles, "
          f"{len(failed)} failed")
    print(f"  job_p50_s over n={len(wall)} timed jobs; job_tail_s is p{pct:.1f} "
          f"with {beyond} jobs beyond it")
    print(f"  wall seconds before scaling to the reference speed: median {fmt(median(wall))}, "
          f"tail {fmt(tail(wall)[0])}; median speed probe "
          f"{fmt(median([r['probe_seconds'] for r in records]))} s against {REF_PROBE_S} s, "
          f"so setup_s is the measured set-up time times {fmt(speed_scale(records))}")
    kinds: dict[str, list] = {}
    for r in timed(records):
        kinds.setdefault(r["kind"], []).append(r["ref_seconds"])
    print("  median scaled job seconds by kind: "
          + ", ".join(f"{k} {fmt(median(v))}" for k, v in kinds.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {fmt(value):>12} {unit}")
    for key, value in extra.items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"  environment: {json.dumps(env)}")
    for r in failed[:5]:
        eprint(f"job {r['kind']} (cycle {r['cycle']}) failed:")
        for err in r["errors"]:
            eprint("  " + err.rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_blas()
    heap_kept = harness.keep_heap()
    if not (SRC / "factorrisk" / "__init__.py").is_file():
        eprint(f"perfbench: no factorrisk package under {SRC}; run from a checkout root")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports numpy and factorrisk

    first_import_s = time.perf_counter() - START
    if args.workload not in WORKLOADS:
        eprint(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    env = harness.environment(args.seed, heap_kept)
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs, setup_rep_s, tracer = set_up(WORKLOADS[args.workload], args.seed, args.trace,
                                           workdir)
        cycles = cycle_count(args.workload, args.seconds)
        records = run_cycles(jobs, WARMUP_KINDS[args.workload], cycles, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {}
    if args.trace:
        metrics = per_layer(tracer.spans, records, cycles)
        extra["layer self time over traced job time"] = layer_shares(tracer.spans)
        out = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"environment": env, "spans": tracer.spans}), encoding="utf-8")
        extra["spans written to"] = str(out.relative_to(harness.ROOT))
    else:
        metrics = end_to_end(records, import_seconds(first_import_s) + setup_rep_s)
    report(args, env, records, cycles, metrics, extra)
    failed = sum(bool(r["errors"]) for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
