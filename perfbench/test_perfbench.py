"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Seeded inputs repeat, each checker flags a value planted wrong in its own
input, the runner prints exactly the metric names of BENCHMARK.json, and
it refuses to run without the library.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from harness import Tracer, self_times, tail  # noqa: E402

NULL = Tracer(enabled=False)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _jobs(factory, tmp_path, seed=5):
    return {job.kind: job for job in factory(seed, NULL, tmp_path, small=True)}


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("make", [
    lambda seed, d: workloads.engine_sample(seed, NULL).loss,
    lambda seed, d: workloads.regression_data(seed, NULL).factors,
    lambda seed, d: np.column_stack(workloads.csv_inputs(seed, d)),
], ids=["engine-wide", "regression-grid", "csv-discrete"])
def test_inputs_repeat_for_a_seed(make, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again, other = make(7, dirs[0]), make(7, dirs[1]), make(8, dirs[2])
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_csv_files_repeat_for_a_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.csv_inputs(3, a, small=True)
    workloads.csv_inputs(3, b, small=True)
    for name in ("data.csv", "bad.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# seed 25 puts scenario weights at exactly q = 0.5 below one VaR (engine-wide),
# and seed 60 does so for a sharing agent (csv-discrete)
@pytest.mark.parametrize("seed", [5, 25])
def test_engine_checks_flag_a_wrong_value(seed, tmp_path):
    jobs = _jobs(workloads.engine_wide, tmp_path, seed)
    for kind in ("choquet-mean-of-es", "choquet-lambda-of-var", "quantile-var-of-var",
                 "quantile-esssup-var", "choquet-custom"):
        fam, value = jobs[kind].run(NULL)
        assert jobs[kind].check((fam, value)) == [], kind
        assert jobs[kind].check((fam, value + 1e-9)), kind
    fam, (value, allocation, x_law) = jobs["share"].run(NULL)
    assert jobs["share"].check((fam, (value, allocation, x_law))) == []
    assert jobs["share"].check((fam, (value + 1e-8, allocation, x_law)))
    # a result that passed passes again without the recomputation, but a
    # changed allocation is recomputed and flagged
    assert jobs["share"].check((fam, (value, allocation, x_law))) == []
    slopes = allocation.slopes.copy()
    slopes[:, slopes.shape[1] // 2] = slopes[::-1, slopes.shape[1] // 2]
    wrong = type(allocation)(allocation.breakpoints, slopes)
    assert jobs["share"].check((fam, (value, wrong, x_law)))


@pytest.mark.parametrize("seed", [5, 60])
def test_csv_checks_flag_a_wrong_value(seed, tmp_path):
    jobs = _jobs(workloads.csv_discrete, tmp_path, seed)
    for kind in ("measure-mean-es", "measure-dist-var", "measure-covar-eq", "measure-coes",
                 "measure-mes", "measure-var-var", "share"):
        code, out, err = jobs[kind].run(NULL)
        assert jobs[kind].check((code, out, err)) == [], kind
        payload = json.loads(out)
        payload["value"] += 1e-9
        assert jobs[kind].check((code, json.dumps(payload), err)), kind
    code, out, err = jobs["regress"].run(NULL)
    assert jobs["regress"].check((code, out, err)) == []
    payload = json.loads(out)
    payload["coef"][1] += 1e-9
    assert jobs["regress"].check((code, json.dumps(payload), err))
    code, out, err = jobs["bad-cell"].run(NULL)
    assert jobs["bad-cell"].check((code, out, err)) == []
    assert jobs["bad-cell"].check((code, out, err.replace("row", "line")))
    assert jobs["bad-cell"].check((4, out, err))


def _edit_sim_csv(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _flip_first_digit(lines):
    row = len(lines) // 2
    loss, rest = lines[row].split(",", 1)
    i = next(i for i, c in enumerate(loss) if c.isdigit())
    digit = "1" if loss[i] != "1" else "2"
    lines[row] = loss[:i] + digit + loss[i + 1:] + "," + rest
    return lines


@pytest.mark.parametrize("edit, flagged", [
    (lambda lines: lines, False),
    (_flip_first_digit, True),
    (lambda lines: lines[:-1], True),
], ids=["as-written", "flipped-digit", "missing-row"])
def test_simulate_check_reads_back_the_file(edit, flagged, tmp_path):
    job = _jobs(workloads.csv_discrete, tmp_path)["simulate"]
    result = job.run(NULL)
    _edit_sim_csv(tmp_path / "sim.csv", edit)
    assert bool(job.check(result)) == flagged


def test_regression_checks_flag_a_wrong_value(tmp_path):
    jobs = _jobs(workloads.regression_grid, tmp_path)
    value = jobs["plain-var"].run(NULL)
    assert jobs["plain-var"].check(value) == []
    assert jobs["plain-var"].check(value + 1e-9)
    for kind in ("diff-grid", "diff-grid-empirical"):
        grid = jobs[kind].run(NULL)
        assert jobs[kind].check(grid) == [], kind
        shifted = dataclasses.replace(grid, rho_factor=grid.rho_factor + 1e-9,
                                      diff=(grid.rho_factor + 1e-9) / grid.rho_plain - 1)
        assert jobs[kind].check(shifted), kind
    grid = jobs["diff-grid-empirical"].run(NULL)
    wrong_plain = dataclasses.replace(grid, rho_plain=grid.rho_plain + 1e-9,
                                      diff=grid.rho_factor / (grid.rho_plain + 1e-9) - 1)
    assert jobs["diff-grid-empirical"].check(wrong_plain)
    fit = jobs["ols-fit"].run(NULL)
    assert jobs["ols-fit"].check(fit) == []
    assert jobs["ols-fit"].check(dataclasses.replace(fit, sigma=fit.sigma + 1e-9))
    q0 = jobs["find-matching-q"].run(NULL)
    assert jobs["find-matching-q"].check(q0) == []
    assert jobs["find-matching-q"].check(q0 + 1e-2)
    assert jobs["find-matching-q"].check(q0 - 1e-2)


def test_cycle_count_is_fixed_per_workload():
    assert run.RUN_SECONDS == SPEC["run_seconds"]
    assert set(run.CYCLES) == set(run.WARMUP_KINDS) == {w["name"] for w in SPEC["workloads"]}
    for workload, cycles in run.CYCLES.items():
        assert run.cycle_count(workload, SPEC["run_seconds"]) == cycles
        assert run.cycle_count(workload, 0) == 1


def test_job_times_scale_with_the_speed_probes(monkeypatch):
    monkeypatch.setattr(run.harness, "speed_probe", lambda: 2 * run.REF_PROBE_S)
    probes = iter([run.REF_PROBE_S] * 3 + [4 * run.REF_PROBE_S] * 6)
    monkeypatch.setattr(run, "run_job", lambda job, cycle, tracer: {
        "cycle": cycle, "seconds": 1.0, "probe_seconds": next(probes)})
    jobs = [SimpleNamespace(kind=kind) for kind in ("a", "b", "c", "d")]
    records = run.run_cycles(jobs, ("b",), 2, NULL)
    assert [r["cycle"] for r in records] == [-1] + [0] * 4 + [1] * 4
    assert len(run.timed(records)) == 8
    # job i is scaled by the median of probes[i - 2 : i + 4], the last one taken after it
    assert [r["ref_seconds"] for r in records] == pytest.approx(
        [1, 1, 0.4, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25])


def test_setup_time_scales_with_the_run_median_probe():
    records = [{"cycle": 0, "rows": 10, "errors": [], "ref_seconds": 1.0,
                "probe_seconds": run.REF_PROBE_S * k} for k in (1, 2, 2, 2, 8)]
    metrics = run.end_to_end(records, 3.0)
    assert metrics["setup_s"] == (pytest.approx(1.5), "s")
    assert metrics["rows_per_s"] == (pytest.approx(10.0), "rows/s")


def test_tail_leaves_ten_values_beyond():
    assert tail(range(1, 31)) == (20, pytest.approx(100 * 20 / 30), 10)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children():
    spans = [{"name": "job", "parent": None, "start": 0.0, "end": 10.0},
             {"name": "a", "parent": 0, "start": 1.0, "end": 4.0},
             {"name": "b", "parent": 0, "start": 5.0, "end": 9.0},
             {"name": "c", "parent": 2, "start": 6.0, "end": 7.0}]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_bench(ROOT, "--workload", "regression-grid", "--seed", "2", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "engine-wide", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
