"""The three benchmark workloads: inputs made from a seed, jobs, and checks.

A workload factory takes ``(seed, tracer, workdir, small)``, builds the
inputs (the set-up) and returns its job cycle.  Each :class:`Job` runs one
unit of library work through public calls wrapped in tracer spans, and a
check recomputes its value through an independent route.  ``small=True``
builds the same workload on tiny inputs; the runner executes that once as
the warm-up.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import factorrisk as fr
from factorrisk import cli
from factorrisk.errors import DataFormatError

from harness import Tracer, call

ABS = 1e-12        # the acceptance suite's value tolerance
SHARE_ABS = 1e-10  # acceptance tolerance for recomputing a sharing allocation
PROB_TOL = fr.core.PROB_TOL


@dataclass
class Job:
    """One job of a workload cycle.

    ``run(tracer)`` does the job's work and returns its result; ``check``
    returns a list of failure messages (empty when the result is right).
    ``replay``, when given, repeats the job as the public calls that the
    CLI makes, inside spans; its value must equal ``value_of(result)``.
    """

    kind: str
    rows: int
    run: Callable[[Tracer], object]
    check: Callable[[object], list]
    replay: Callable[[Tracer], object] | None = None
    value_of: Callable[[object], object] | None = None


def _close(label: str, got: float, want: float, tol: float = ABS) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} vs {want!r}, |diff| {abs(got - want):.3g} > {tol:g}"]


def _matches(label: str, got: float, candidates) -> list:
    """``got`` must equal one of the admissible values within ABS."""
    candidates = np.asarray(candidates, dtype=float)
    if np.any(np.abs(candidates - got) <= ABS):
        return []
    return [f"{label}: {got!r} matches none of the admissible values {candidates.tolist()}"]


# ---------------------------------------------------------------- engine-wide

ENGINE_T = 50_000
ENGINE_BINS = 8
ENGINE_BETA = (1.0, -0.5, 0.3)
ES_P = 0.9      # inner ES level
VAR_P = 0.95    # inner VaR level
OUTER_Q = 0.5   # outer level


def _es_mean_custom(p: float):
    """mean-of-ES as a user callable, so it stays on the dense custom path."""
    tail_mass = 1.0 - p

    def psi(V, pi):
        return (np.minimum(V, tail_mass) / tail_mass) @ pi
    return psi


def _two_agents(fam_var, fam_es) -> list:
    """The sharing agents of both workloads: a VaR-of-VaR and a mean-of-ES agent."""
    return [(fr.psi_indicator_var_var(VAR_P, OUTER_Q), fam_var), (fr.psi_mean_of_es(ES_P), fam_es)]


def gaussian_sample(tracer: Tracer, beta, T: int, seed: int):
    """``simulate`` with independent standard Gaussian factors, one per beta."""
    spec = fr.GaussianFactorSpec(np.zeros(len(beta)), np.eye(len(beta)))
    return call(tracer, "regression.simulate", fr.simulate, 0.1, beta, 0.8, spec, n=T, seed=seed)


def engine_sample(seed: int, tracer: Tracer, small: bool = False):
    return gaussian_sample(tracer, ENGINE_BETA, 2_000 if small else ENGINE_T, seed)


def engine_wide(seed: int, tracer: Tracer, workdir: Path, small: bool = False) -> list:
    sample = engine_sample(seed, tracer, small)
    T, bins = sample.n_rows, 2 if small else ENGINE_BINS

    def family(tr):
        part = call(tr, "conditioning.partition_quantile_boxes",
                    fr.partition_quantile_boxes, sample, bins)
        tr.note(boxes=lambda: part.n_scenarios, cells=lambda: bins ** sample.n_factors)
        fam = call(tr, "core.from_sample", fr.from_sample, sample, part, peak=True)
        tr.note(support=lambda: fam.merged_support().size)
        return fam

    def choquet(tr, fam, psi):
        value = call(tr, "distortion.choquet_factor", fr.choquet_factor, fam, psi, peak=True)
        tr.note(breakpoints=lambda: fam.merged_support().size - 1)
        return value

    def quantile(tr, fam, pred):
        return call(tr, "quantile.quantile_factor", fr.quantile_factor, fam, pred, peak=True)

    def job(kind, evaluate, check):
        def run(tr):
            fam = family(tr)
            return fam, evaluate(tr, fam)
        return Job(kind, T, run, lambda result: check(*result))

    def mean_of_es(tr, fam):
        return choquet(tr, fam, fr.psi_mean_of_es(ES_P))

    def check_mean_of_es(fam, value):
        return (_close("compose_es_mean", value, fr.compose_es_mean(fam, ES_P))
                + _close("hl_bound", value, fr.hl_bound(fam, fr.es_tail_density(fam, ES_P))))

    def lambda_of_var(tr, fam):
        return choquet(tr, fam, fr.psi_lambda_of_var(fr.es_distortion(OUTER_Q), VAR_P))

    def check_lambda_of_var(fam, value):
        want = fr.compose_var_distortion(fam, VAR_P, fr.es_distortion(OUTER_Q))
        return _close("compose_var_distortion", value, want)

    def var_of_var(tr, fam):
        return quantile(tr, fam, fr.pred_var_of_var(VAR_P, OUTER_Q))

    def check_var_of_var(fam, value):
        # Where the scenario weights below one VaR add up to q exactly, the
        # closed form's float cumsum can pick the next atom; levels within
        # PROB_TOL of q are admitted (README.md, "Findings").
        return _matches("compose_var_distortion", value, [
            fr.compose_var_distortion(fam, VAR_P, fr.var_distortion(q))
            for q in (OUTER_Q - PROB_TOL, OUTER_Q, OUTER_Q + PROB_TOL)])

    def esssup_var(tr, fam):
        return quantile(tr, fam, fr.pred_esssup_var(VAR_P))

    def check_esssup_var(fam, value):
        return _close("max scenario VaR", value, max(fr.var(law, VAR_P) for law in fam.laws))

    def custom(tr, fam):
        psi = call(tr, "distortion.psi_custom", fr.psi_custom, _es_mean_custom(ES_P),
                   fam.n_scenarios, vectorized=True)
        return choquet(tr, fam, psi)

    def check_custom(fam, value):
        return _close("compose_es_mean", value, fr.compose_es_mean(fam, ES_P))

    def share(tr, fam):
        x_law = call(tr, "core.mixture", fam.mixture)
        value, allocation = call(tr, "sharing.inf_convolution", fr.inf_convolution, x_law,
                                 _two_agents(fam, fam), peak=True)
        return value, allocation, x_law

    passed = set()  # fingerprints of share results that passed the full check

    def check_share(fam, result):
        # Every cycle rebuilds the same family from the same sample, so a
        # result equal bit for bit to one that passed has passed; the full
        # recomputation (1.7 s, longer than the job) runs once per result.
        value, allocation, x_law = result
        key = (value, allocation.breakpoints.tobytes(), allocation.slopes.tobytes(),
               x_law.support.tobytes(), x_law.cum.tobytes())
        if key in passed:
            return []
        recomputed = fr.allocation_value_check(allocation, _two_agents(fam, fam), x_law)
        errors = _close("allocation_value_check", value, recomputed, SHARE_ABS)
        if not errors:
            passed.add(key)
        return errors

    return [
        job("choquet-mean-of-es", mean_of_es, check_mean_of_es),
        job("choquet-lambda-of-var", lambda_of_var, check_lambda_of_var),
        job("quantile-var-of-var", var_of_var, check_var_of_var),
        job("quantile-esssup-var", esssup_var, check_esssup_var),
        job("choquet-custom", custom, check_custom),
        job("share", share, check_share),
    ]


# ---------------------------------------------------------------- csv-discrete

CSV_T = 200_000
CSV_W1_VALUES = 2_000
CSV_W2_VALUES = 8
CSV_SIM_VALUES = "-1,0,1,2"
EXIT_DATA = 3


def _write_csv(workdir: Path, loss, w1, w2, bad_row: int) -> None:
    """data.csv, and bad.csv: the same rows with ``n/a`` in W1 of ``bad_row``."""
    lines = ["date,X,W1,W2"]
    lines += [f"d{i:06d},{x!r},{a!r},{b!r}"
              for i, (x, a, b) in enumerate(zip(loss.tolist(), w1.tolist(), w2.tolist()))]
    (workdir / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    date, x, _, b = lines[bad_row].split(",")
    lines[bad_row] = f"{date},{x},n/a,{b}"
    (workdir / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_report(result):
    """The JSON report of a successful CLI run, else (None, failure list)."""
    code, out, err = result
    if code != 0:
        return None, [f"exit {code}: {err.strip()}"]
    return json.loads(out), []


def csv_inputs(seed: int, workdir: Path, small: bool = False):
    """Columns (loss, W1, W2), written to data.csv and, with one non-numeric
    W1 cell in data row T // 2, to bad.csv."""
    T, n_w1 = (4_000, 20) if small else (CSV_T, CSV_W1_VALUES)
    rng = np.random.default_rng(seed)
    w1 = (rng.integers(0, n_w1, T) - n_w1 // 2) / 100
    w2 = rng.integers(0, CSV_W2_VALUES, T) - 3.5
    loss = 0.3 * w1 + 0.8 * w2 + rng.standard_normal(T)
    _write_csv(workdir, loss, w1, w2, bad_row=T // 2)
    return loss, w1, w2


def csv_discrete(seed: int, tracer: Tracer, workdir: Path, small: bool = False) -> list:
    loss, w1, w2 = csv_inputs(seed, workdir, small)
    T = loss.size
    data = workdir / "data.csv"
    bad = workdir / "bad.csv"
    sim_out = workdir / "sim.csv"
    bad_row = T // 2

    def in_memory(*cols):
        names = {"W1": w1, "W2": w2}
        return fr.JointSample(loss, np.column_stack([names[c] for c in cols]),
                              loss_name="X", factor_names=cols)

    expected = {}  # in-process values, computed on first use inside a check

    def in_process(key, compute):
        if key not in expected:
            expected[key] = compute()
        return expected[key]

    def family(*cols):
        def build():
            sample = in_memory(*cols)
            return fr.from_sample(sample, fr.partition_discrete(sample))
        return in_process(cols, build)

    def base_argv(path, factors):
        return ["--data", str(path), "--target", "X", "--skip", "date", "--factors", factors]

    def read(tr, path, factors):
        sample = call(tr, "cli.read_csv", cli.read_csv, path, "X", factors.split(","), ("date",))
        tr.note(rows=lambda: sample.n_rows)
        return sample

    def discrete_family(tr, sample):
        part = call(tr, "conditioning.partition_discrete", fr.partition_discrete, sample)
        tr.note(scenarios=lambda: part.n_scenarios)
        fam = call(tr, "core.from_sample", fr.from_sample, sample, part, peak=True)
        tr.note(support=lambda: fam.merged_support().size)
        return fam

    def cli_job(kind, argv, replay, reference):
        """A CLI run whose JSON ``value`` must equal ``reference()``."""
        def check(result):
            report, errors = _cli_report(result)
            return errors or _close("in-process value", report["value"], reference())

        return Job(kind, T, lambda tr: _cli(argv), check, replay,
                   lambda result: json.loads(result[1])["value"])

    def measure_job(name, factors, levels, evaluate, reference):
        argv = ["measure", *base_argv(data, factors), "--measure", name]
        for key, val in levels.items():
            argv += [f"--{key}", str(val)]
        return cli_job(f"measure-{name}", argv,
                       lambda tr: evaluate(tr, read(tr, data, factors)), reference)

    def on_family(span, fn, *args):
        def evaluate(tr, sample):
            return call(tr, span, fn, discrete_family(tr, sample), *args)
        return evaluate

    def on_sample(span, fn, *args, **kwargs):
        def evaluate(tr, sample):
            return call(tr, span, fn, sample, *args, **kwargs)
        return evaluate

    identity = fr.identity_distortion()
    var_var = fr.pred_var_of_var(VAR_P, OUTER_Q)
    jobs = [
        measure_job("mean-es", "W1", {"p": ES_P},
                    on_family("distortion.compose_es_mean", fr.compose_es_mean, ES_P),
                    lambda: fr.compose_es_mean(family("W1"), ES_P)),
        measure_job("es-es", "W1", {"p": ES_P, "q": OUTER_Q},
                    on_family("coherent.es_composition", fr.es_composition, ES_P, "es", OUTER_Q),
                    lambda: fr.es_composition(family("W1"), ES_P, outer="es", q=OUTER_Q)),
        measure_job("linear", "W1", {},
                    on_family("linear.linear_factor", fr.linear_factor, "physical"),
                    lambda: fr.linear_factor(family("W1"), "physical")),
        measure_job("mean-var", "W1", {"p": ES_P},
                    on_family("distortion.compose_var_distortion", fr.compose_var_distortion,
                              ES_P, identity),
                    lambda: fr.compose_var_distortion(family("W1"), ES_P, identity)),
        # a fifth W1 measure makes the cycle 13 jobs, so the median job time
        # is the pair of var-var jobs, not the mean of two job kinds
        measure_job("dist-var", "W1", {"p": ES_P, "q": OUTER_Q},
                    on_family("distortion.compose_var_distortion", fr.compose_var_distortion,
                              ES_P, fr.es_distortion(OUTER_Q)),
                    lambda: fr.compose_var_distortion(family("W1"), ES_P,
                                                      fr.es_distortion(OUTER_Q))),
        measure_job("covar-eq", "W1,W2", {"alpha": 0.5, "p": VAR_P},
                    on_sample("quantile.covar", fr.covar, (0.5,), VAR_P, mode="equal"),
                    lambda: fr.covar(in_memory("W1", "W2"), (0.5,), VAR_P, mode="equal")),
        measure_job("coes", "W1,W2", {"alpha": ES_P, "p": VAR_P},
                    on_sample("quantile.coes", fr.coes, (ES_P,), VAR_P, mode="tail"),
                    lambda: fr.coes(in_memory("W1", "W2"), (ES_P,), VAR_P, mode="tail")),
        measure_job("mes", "W1,W2", {"alpha": ES_P},
                    on_sample("linear.mes", fr.mes, (ES_P,)),
                    lambda: fr.mes(in_memory("W1", "W2"), (ES_P,))),
        measure_job("var-var", "W2", {"p": VAR_P, "q": OUTER_Q},
                    on_family("quantile.quantile_factor", fr.quantile_factor, var_var),
                    lambda: fr.quantile_factor(family("W2"), var_var)),
    ]

    def agent_sample(sample):
        # the CLI builds each agent's sample with explicit weights; their
        # renormalization can move an agent's jump where weights tie at q
        return fr.JointSample(sample.loss, sample.factors[:, 0], sample.weights,
                              loss_name=sample.loss_name, factor_names=("W2",))

    def share_reference():
        def compute():
            sub = agent_sample(in_memory("W2"))
            agent = fr.from_sample(sub, fr.partition_discrete(sub))
            return fr.inf_convolution(family("W2").mixture(), _two_agents(agent, agent))[0]
        return in_process("share", compute)

    def share_replay(tr):
        sample = read(tr, data, "W2")
        # one family per agent spec, as the CLI builds them
        families = [discrete_family(tr, agent_sample(sample)) for _ in range(2)]
        x_law = call(tr, "core.mixture", discrete_family(tr, sample).mixture)
        return call(tr, "sharing.inf_convolution", fr.inf_convolution, x_law,
                    _two_agents(*families), peak=True)[0]

    agent_spec = f"var-var:p={VAR_P},q={OUTER_Q}@W2;mean-es:p={ES_P}@W2"
    jobs.append(cli_job("share", ["share", *base_argv(data, "W2"), "--agents", agent_spec],
                        share_replay, share_reference))

    regress_argv = ["regress", "--data", str(data), "--target", "X", "--skip", "date",
                    "--format", "json"]

    def regress_check(result):
        payload, errors = _cli_report(result)
        if errors:
            return errors
        fit = in_process("fit", lambda: fr.ols_fit(in_memory("W1", "W2")))
        errors = _close("sigma", payload["sigma"], fit.sigma)
        for name, got, want in zip(fit.names, payload["coef"], fit.coef):
            errors += _close(f"coef {name}", got, float(want))
        return errors

    def regress_replay(tr):
        fit = call(tr, "regression.ols_fit", fr.ols_fit, read(tr, data, "W1,W2"))
        return [float(v) for v in fit.coef]

    jobs.append(Job("regress", T, lambda tr: _cli(regress_argv), regress_check, regress_replay,
                    lambda result: json.loads(result[1])["coef"]))

    sim_argv = ["simulate", "--beta0", "0.1", "--beta", "0.5", "--sigma", "1.0",
                "--n", str(T), "--seed", str(seed),
                f"--discrete-values={CSV_SIM_VALUES}",  # '=' form: the list starts with '-'
                "--output", str(sim_out)]

    def sim_run(tr):
        with tr.span("cli.simulate"):
            result = _cli(sim_argv)
        tr.note(rows=lambda: T)
        return result

    def sim_check(result):
        code, _, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        with open(sim_out, encoding="utf-8") as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        sim_out.unlink()
        errors = [] if header == "X,W1" else [f"header {header!r}"]
        if table.shape != (T, 2):
            return errors + [f"read back shape {table.shape}, expected ({T}, 2)"]
        values = np.asarray([float(v) for v in CSV_SIM_VALUES.split(",")])
        ref = fr.simulate(0.1, [0.5], 1.0, fr.DiscreteFactorSpec(values), T, seed)
        # the CLI writes 9 significant digits
        if not (np.allclose(table[:, 0], ref.loss, rtol=1e-8, atol=0)
                and np.array_equal(table[:, 1], ref.factors[:, 0])):
            errors.append("written rows differ from regression.simulate at 9 digits")
        return errors

    jobs.append(Job("simulate", T, sim_run, sim_check))

    bad_argv = ["measure", *base_argv(bad, "W1"), "--measure", "mean-es", "--p", str(ES_P)]

    def bad_check(result):
        code, _, err = result
        if code != EXIT_DATA or f"row {bad_row}" not in err or "col W1" not in err:
            return [f"expected exit {EXIT_DATA} naming row {bad_row} and col W1; "
                    f"got exit {code}: {err.strip()}"]
        return []

    def bad_replay(tr):
        try:
            read(tr, bad, "W1")
        except DataFormatError as exc:
            return EXIT_DATA if (exc.row, exc.column) == (bad_row, "W1") else -1
        return 0

    jobs.append(Job("bad-cell", T, lambda tr: _cli(bad_argv), bad_check, bad_replay,
                    lambda result: result[0]))
    return jobs


# ---------------------------------------------------------------- regression-grid

REG_T = 300_000
REG_BETA = (1.0, -0.5, 0.3, 0.2, -0.1, 0.4, 0.25)
GRID_P = (0.95, 0.96, 0.97, 0.98, 0.99)
GRID_Q = (0.5, 0.6, 0.7, 0.8, 0.9)
MATCH_P = 0.95


def _admissible(sorted_values: np.ndarray, level: float) -> np.ndarray:
    """Left quantiles of the uniform empirical law at ``level``, to PROB_TOL.

    The exact rank is ceil(level * T).  The library keeps probabilities to
    PROB_TOL, and its cumulative sums can land just under a level where
    level * T is an integer, which selects the next order statistic; both
    ranks are admitted there.
    """
    T = sorted_values.size
    lo = max(math.ceil((level - PROB_TOL) * T), 1)
    hi = min(math.ceil((level + PROB_TOL) * T), T)
    return sorted_values[lo - 1:hi]


def regression_data(seed: int, tracer: Tracer, small: bool = False):
    return gaussian_sample(tracer, REG_BETA, 2_000 if small else REG_T, seed)


def regression_grid(seed: int, tracer: Tracer, workdir: Path, small: bool = False) -> list:
    data = regression_data(seed, tracer, small)
    T = data.n_rows
    fit = fr.ols_fit(data)
    index_sorted = np.sort(data.factors @ fit.beta)
    loss_sorted = np.sort(data.loss)
    first_grid = {}  # plain mode -> columns of the run's first grid

    def sort_route(p, q):
        return fit.beta0 + _admissible(index_sorted, q) + fit.sigma * fr.norm_inv(p)

    def ols_run(tr):
        return call(tr, "regression.ols_fit", fr.ols_fit, data)

    def ols_check(result):
        design = np.column_stack([np.ones(T), data.factors])
        coef, *_ = np.linalg.lstsq(design, data.loss, rcond=None)
        resid = data.loss - design @ coef
        errors = _close("sigma", result.sigma, math.sqrt(resid @ resid / (T - design.shape[1])))
        for name, got, want in zip(result.names, result.coef, coef):
            errors += _close(f"coef {name}", float(got), float(want))
        return errors

    def grid_job(kind, plain_mode):
        def run(tr):
            grid = call(tr, "regression.diff_grid", fr.diff_grid, fit, data, GRID_P, GRID_Q,
                        plain_mode=plain_mode, master_seed=seed)
            tr.note(cells=lambda: grid.n_rows)
            return grid

        def check(grid):
            errors = []
            for p, q, rho in zip(grid.p, grid.q, grid.rho_factor):
                errors += _matches(f"rho_factor(p={p}, q={q})", float(rho), sort_route(p, q))
            if plain_mode == "empirical":
                for p, plain in zip(grid.p, grid.rho_plain):
                    errors += _matches(f"rho_plain(p={p})", float(plain),
                                       _admissible(loss_sorted, p))
            diffs = grid.diff.reshape(len(GRID_P), len(GRID_Q))
            if np.any(np.diff(diffs, axis=1) < 0):
                errors.append("diff decreases in q within a p row")
            columns = (grid.p, grid.q, grid.rho_factor, grid.rho_plain, grid.diff)
            first = first_grid.setdefault(plain_mode, columns)
            if not all(np.array_equal(a, b, equal_nan=True) for a, b in zip(columns, first)):
                errors.append("grid is not bit-identical to the first grid of this run")
            return errors

        return Job(kind, T, run, check)

    def match_run(tr):
        # tol=0 runs the full bisection; the default tolerance stops at a
        # data-dependent step, which would make the job's cost depend on the seed
        return call(tr, "regression.find_matching_q", fr.find_matching_q, fit, data, MATCH_P,
                    master_seed=seed, tol=0.0)

    def match_check(q0):
        if not 0 < q0 < 1:
            return [f"q0={q0!r} outside (0, 1)"]
        plain = fr.plain_var(fit, data, MATCH_P, "model", seed, 0)
        k = math.ceil(q0 * T)
        ranks = range(max(k - 2, 1), min(k + 2, T) + 1)
        diffs = [(fit.beta0 + index_sorted[r - 1] + fit.sigma * fr.norm_inv(MATCH_P)) / plain - 1
                 for r in ranks]
        if any(d == 0 for d in diffs) or any(a < 0 < b for a, b in zip(diffs, diffs[1:])):
            return []
        return [f"diff does not cross zero at q0={q0!r}: {diffs}"]

    def plain_run(tr):
        return call(tr, "regression.plain_var", fr.plain_var, fit, data, MATCH_P, "model",
                    seed, 0)

    def plain_check(value):
        # one noise draw per row from the seed derived from (master seed, row 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        draws = np.sort(fit.fitted(data.factors) + fit.sigma * rng.standard_normal(T))
        return _matches("plain_var", value, _admissible(draws, MATCH_P))

    # The two grids (plain VaR drawn from the model, or taken from the data)
    # form the middle of the cycle's five job times, so the median job lands
    # between like jobs rather than between ols_fit and a grid.
    return [
        Job("ols-fit", T, ols_run, ols_check),
        grid_job("diff-grid", "model"),
        grid_job("diff-grid-empirical", "empirical"),
        Job("find-matching-q", T, match_run, match_check),
        Job("plain-var", T, plain_run, plain_check),
    ]


WORKLOADS = {
    "engine-wide": engine_wide,
    "csv-discrete": csv_discrete,
    "regression-grid": regression_grid,
}
