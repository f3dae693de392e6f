"""CSV ingestion, report emission, and the command-line interface.

Subcommands: ``measure`` (factor risk measures on a CSV dataset),
``regress`` (OLS factor regression table), ``heatmap`` (factor-vs-plain
Diff grid as long-format CSV), ``share`` (comonotonic risk sharing), and
``simulate`` (synthetic dataset generation).  Exit codes are stable for
scripting: 0 success, 2 usage error, 3 data error, 4 numeric rejection.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import conditioning, coherent, distortion, linear, quantile, regression, scalar, sharing
from .core import JointSample, from_sample
from .errors import DataFormatError, FactorRiskError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GRID_HEADER = ("p", "q", "rho_factor", "rho_plain", "diff")

MEASURES = {
    "covar": ("alpha", "p"),
    "covar-eq": ("alpha", "p"),
    "coes": ("alpha", "p"),
    "mes": ("alpha",),
    "var-var": ("p", "q"),
    "esssup-var": ("p",),
    "mean-var": ("p",),
    "dist-var": ("p", "q"),
    "mean-es": ("p",),
    "es-box": ("p", "alpha"),
    "es-es": ("p", "q"),
    "esssup-es": ("p",),
    "linear": (),
    "choquet-custom": ("custom_psi",),
}


class UsageError(FactorRiskError):
    """Bad request shape: unknown measure or missing parameters."""


def read_csv(path, target: str, factors=None, skip=()) -> JointSample:
    """Parse a headered CSV into a column-addressable sample.

    ``target`` names the loss column; ``factors`` defaults to every other
    non-skipped column.  Decimal points only; malformed cells are rejected
    with 1-based data-row and column coordinates.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError("empty file: a header row is required")
    header = [name.strip() for name in rows[0]]
    skip = tuple(skip)
    for name in skip:
        if name not in header:
            raise DataFormatError(f"skip column {name!r} not in header", column=name)
    if target not in header:
        raise DataFormatError(f"target column {target!r} not in header", column=target)
    if factors is None:
        factors = [name for name in header if name != target and name not in skip]
    else:
        factors = list(factors)
        for name in factors:
            if name not in header:
                raise DataFormatError(f"factor column {name!r} not in header", column=name)
    if not factors:
        raise DataFormatError("no factor columns left after selection")
    wanted = [target] + factors
    col_idx = {name: header.index(name) for name in wanted}
    data = {name: [] for name in wanted}
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataFormatError(
                f"ragged row: expected {len(header)} cells, got {len(row)} (row {r})", row=r
            )
        for name in wanted:
            cell = row[col_idx[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"cell is not numeric at (row {r}, col {name}): {cell!r}",
                    row=r, column=name,
                ) from None
            data[name].append(value)
    if not data[target]:
        raise DataFormatError("file contains a header but no data rows")
    table = np.column_stack([np.array(data[name]) for name in wanted])
    bad = ~np.isfinite(table)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataFormatError(
            f"cell is not finite at (row {r + 1}, col {wanted[c]}): {float(table[r, c])!r}",
            row=int(r) + 1, column=wanted[c],
        )
    return JointSample(table[:, 0], table[:, 1:], loss_name=target, factor_names=tuple(factors))


@dataclass(frozen=True)
class MeasureRequest:
    """A fully specified measure evaluation against a CSV dataset."""

    data_path: str
    target: str
    measure: str
    factors: tuple[str, ...] | None = None
    skip: tuple[str, ...] = ()
    p: float | None = None
    q: float | None = None
    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None
    bins: int | None = None
    weights: tuple[float, ...] | None = None
    custom_psi: object = None


def _require(request: MeasureRequest, names) -> None:
    missing = [n for n in names if getattr(request, n) is None]
    if missing:
        raise UsageError(
            f"measure {request.measure!r} requires parameters {list(names)}; "
            f"missing {missing}"
        )


def _partition(sample: JointSample, bins: int | None):
    if bins is None:
        return conditioning.partition_discrete(sample)
    return conditioning.partition_quantile_boxes(sample, bins)


def _box(request: MeasureRequest, sample: JointSample) -> conditioning.VarBox:
    alpha = np.asarray(request.alpha, dtype=float)
    if alpha.size == 1 and sample.n_factors > 1:
        alpha = np.full(sample.n_factors, alpha[0])
    if request.beta is None:
        return conditioning.tail_box(alpha, sample.n_factors)
    beta = np.asarray(request.beta, dtype=float)
    if beta.size == 1 and sample.n_factors > 1:
        beta = np.full(sample.n_factors, beta[0])
    return conditioning.VarBox(alpha, beta)


def run(request: MeasureRequest) -> dict:
    """Dispatch a measure request and return the JSON-ready report."""
    if request.measure not in MEASURES:
        raise UsageError(
            f"unknown measure {request.measure!r}; choose from {sorted(MEASURES)}"
        )
    _require(request, MEASURES[request.measure])
    sample = read_csv(request.data_path, request.target, request.factors, request.skip)
    warnings: list[str] = []
    n_scenarios = None
    name = request.measure

    if name in ("covar", "covar-eq", "coes"):
        mode = "equal" if name == "covar-eq" else ("box" if request.beta is not None else "tail")
        box = _box(request, sample) if mode == "box" else None
        fn = quantile.coes if name == "coes" else quantile.covar
        value = fn(sample, request.alpha, request.p, mode=mode, box=box)
    elif name == "mes":
        value = linear.mes(sample, request.alpha)
    elif name == "es-box":
        value = distortion.es_on_event(sample, _box(request, sample), request.p)
    else:
        partition = _partition(sample, request.bins)
        family = from_sample(sample, partition)
        n_scenarios = family.n_scenarios
        if name == "var-var":
            value = quantile.quantile_factor(family, quantile.pred_var_of_var(request.p, request.q))
        elif name == "esssup-var":
            value = quantile.quantile_factor(family, quantile.pred_esssup_var(request.p))
        elif name == "mean-var":
            value = distortion.compose_var_distortion(family, request.p,
                                                      scalar.identity_distortion())
        elif name == "dist-var":
            value = distortion.compose_var_distortion(family, request.p,
                                                      scalar.es_distortion(request.q))
        elif name == "mean-es":
            value = distortion.compose_es_mean(family, request.p)
        elif name == "es-es":
            value = coherent.es_composition(family, request.p, outer="es", q=request.q)
        elif name == "esssup-es":
            value = coherent.es_composition(family, request.p, outer="esssup")
        elif name == "linear":
            weighting = "physical" if request.weights is None else list(request.weights)
            value = linear.linear_factor(family, weighting)
        elif name == "choquet-custom":
            psi = request.custom_psi
            if not isinstance(psi, distortion.ScenarioDistortion):
                raise UsageError("choquet-custom requires a ScenarioDistortion object "
                                 "(programmatic use only)")
            value = distortion.choquet_factor(family, psi)
        else:  # pragma: no cover - exhaustive above
            raise UsageError(f"unhandled measure {name!r}")

    params = {k: v for k, v in (
        ("p", request.p), ("q", request.q),
        ("alpha", list(request.alpha) if request.alpha else None),
        ("beta", list(request.beta) if request.beta else None),
        ("bins", request.bins),
        ("weights", list(request.weights) if request.weights else None),
    ) if v is not None}
    return {
        "measure": name,
        "params": params,
        "value": float(value),
        "nScenarios": n_scenarios,
        "nObservations": sample.n_rows,
        "warnings": warnings,
    }


def _fmt9(v: float) -> str:
    return f"{v:.9g}"


def write_grid(grid: regression.DiffGrid, target) -> None:
    """Emit a Diff grid as long-format CSV at 9 significant digits."""
    close = False
    if isinstance(target, (str, Path)):
        fh = open(target, "w", encoding="utf-8", newline="")
        close = True
    else:
        fh = target
    try:
        fh.write(",".join(GRID_HEADER) + "\n")
        for row in grid.rows():
            fh.write(",".join(_fmt9(v) for v in row) + "\n")
    finally:
        if close:
            fh.close()


def read_grid(path) -> regression.DiffGrid:
    """Parse a Diff grid written by :func:`write_grid`."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(h.strip() for h in rows[0]) != GRID_HEADER:
        raise DataFormatError(f"expected header {','.join(GRID_HEADER)}")
    cols = {name: [] for name in GRID_HEADER}
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(GRID_HEADER):
            raise DataFormatError(f"ragged row (row {r})", row=r)
        for name, cell in zip(GRID_HEADER, row):
            try:
                cols[name].append(float(cell))
            except ValueError:
                raise DataFormatError(f"cell is not numeric at (row {r}, col {name})",
                                      row=r, column=name) from None
    p = np.array(cols["p"])
    q = np.array(cols["q"])
    p_values = _unique_in_order(p)
    q_values = _unique_in_order(q)
    return regression.DiffGrid(p_values, q_values, p, q, np.array(cols["rho_factor"]),
                               np.array(cols["rho_plain"]), np.array(cols["diff"]))


def _unique_in_order(values: np.ndarray) -> np.ndarray:
    seen: list[float] = []
    for v in values:
        if v not in seen:
            seen.append(float(v))
    return np.array(seen)


def _fmt_coef(v: float) -> str:
    if v != 0 and abs(v) < 1e-4:
        return f"{v:.4g}"
    return f"{v:.4f}"


def regression_report(fit: regression.RegressionFit, title: str = "") -> str:
    """Standard regression table: coef, std err, t, P>|t|, [0.025, 0.975]."""
    header = ["", "coef", "std err", "t", "P>|t|", "[0.025", "0.975]"]
    lines = []
    if title:
        lines.append(title)
    widths = [max(12, len(name) + 2) for name in fit.names]
    name_w = max(widths)
    lines.append(f"{header[0]:<{name_w}}" + "".join(f"{h:>12}" for h in header[1:]))
    lines.append("-" * (name_w + 12 * 6))
    for j, name in enumerate(fit.names):
        cells = [
            _fmt_coef(fit.coef[j]),
            f"{fit.stderr[j]:.3f}",
            f"{fit.tstat[j]:.3f}" if np.isfinite(fit.tstat[j]) else "nan",
            f"{fit.pvalue[j]:.3f}" if np.isfinite(fit.pvalue[j]) else "nan",
            f"{fit.ci95[j, 0]:.3f}",
            f"{fit.ci95[j, 1]:.3f}",
        ]
        lines.append(f"{name:<{name_w}}" + "".join(f"{c:>12}" for c in cells))
    return "\n".join(lines)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorrisk",
        description="Factor risk measures on empirical loss/factor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="headered CSV file")
        p.add_argument("--target", required=True, help="loss column name")
        p.add_argument("--factors", default=None, help="comma-separated factor columns")
        p.add_argument("--skip", default="", help="comma-separated columns to ignore")

    m = sub.add_parser("measure", help="evaluate a factor risk measure")
    add_data_args(m)
    m.add_argument("--measure", required=True)
    m.add_argument("--p", type=float, default=None)
    m.add_argument("--q", type=float, default=None)
    m.add_argument("--alpha", default=None, help="comma-separated conditioning levels")
    m.add_argument("--beta", default=None, help="comma-separated upper box levels")
    m.add_argument("--bins", type=int, default=None)
    m.add_argument("--weights", default=None, help="comma-separated scenario weights")
    m.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    m.add_argument("--output", default=None)

    r = sub.add_parser("regress", help="OLS factor regression table")
    add_data_args(r)
    r.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    r.add_argument("--output", default=None)

    h = sub.add_parser("heatmap", help="factor-vs-plain Diff grid as CSV")
    add_data_args(h)
    h.add_argument("--p", required=True, help="comma-separated p levels")
    h.add_argument("--q", required=True, help="comma-separated q levels")
    h.add_argument("--seed", type=int, default=regression.DEFAULT_SEED)
    h.add_argument("--plain-var", dest="plain_var", choices=("model", "empirical"),
                   default="model")
    h.add_argument("--output", default=None)

    s = sub.add_parser("share", help="comonotonic risk sharing")
    add_data_args(s)
    s.add_argument("--agents", required=True,
                   help="semicolon-separated specs: measure:p=..[,q=..]@factor "
                        "(measures: var-var, mean-es, mean-var; q defaults to 0.5)")
    s.add_argument("--output", default=None)

    g = sub.add_parser("simulate", help="generate a synthetic model dataset")
    g.add_argument("--beta0", type=float, default=0.0)
    g.add_argument("--beta", required=True, help="comma-separated coefficients")
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=regression.DEFAULT_SEED)
    g.add_argument("--discrete-values", default=None,
                   help="comma-separated scalar factor values (uniform draw)")
    g.add_argument("--output", default=None)
    return parser


def _agent_spec(token: str, sample: JointSample):
    head, _, column = token.partition("@")
    name, _, param_text = head.partition(":")
    params = {}
    for item in param_text.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"bad agent parameter {item!r}") from None
    if column:
        if sample.factor_names is None or column not in sample.factor_names:
            raise UsageError(f"agent factor column {column!r} not in data")
        j = sample.factor_names.index(column)
        sub = JointSample(sample.loss, sample.factors[:, j], sample.weights,
                          loss_name=sample.loss_name, factor_names=(column,))
    else:
        sub = sample
    family = from_sample(sub, conditioning.partition_discrete(sub))
    if "p" not in params:
        raise UsageError(f"agent spec {token!r} needs p=<level>")
    if name == "var-var":
        psi = distortion.psi_indicator_var_var(params["p"], params.get("q", 0.5))
    elif name == "mean-es":
        psi = distortion.psi_mean_of_es(params["p"])
    elif name == "mean-var":
        psi = distortion.psi_mean_of_var(params["p"])
    else:
        raise UsageError(f"unknown agent measure {name!r}; use var-var, mean-es, mean-var")
    return psi, family


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FactorRiskError as exc:
        print(f"numeric rejection: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _split_names(text: str | None):
    if text is None:
        return None
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _dispatch(args) -> int:
    if args.command == "measure":
        request = MeasureRequest(
            data_path=args.data,
            target=args.target,
            measure=args.measure,
            factors=_split_names(args.factors),
            skip=_split_names(args.skip) or (),
            p=args.p,
            q=args.q,
            alpha=_floats(args.alpha) if args.alpha else None,
            beta=_floats(args.beta) if args.beta else None,
            bins=args.bins,
            weights=_floats(args.weights) if args.weights else None,
        )
        report = run(request)
        if args.fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["measure", "value", "nScenarios", "nObservations"])
            writer.writerow([report["measure"], _fmt9(report["value"]),
                             report["nScenarios"], report["nObservations"]])
            _emit(buf.getvalue(), args.output)
        else:
            _emit(json.dumps(report, indent=2), args.output)
        return EXIT_OK

    if args.command == "regress":
        sample = read_csv(args.data, args.target, _split_names(args.factors),
                          _split_names(args.skip) or ())
        fit = regression.ols_fit(sample)
        if args.fmt == "json":
            payload = {
                "names": list(fit.names),
                "coef": [float(v) for v in fit.coef],
                "stderr": [float(v) for v in fit.stderr],
                "tstat": [None if not np.isfinite(v) else float(v) for v in fit.tstat],
                "pvalue": [None if not np.isfinite(v) else float(v) for v in fit.pvalue],
                "ci95": [[float(a), float(b)] for a, b in fit.ci95],
                "sigma": fit.sigma,
                "dof": fit.dof,
            }
            _emit(json.dumps(payload, indent=2), args.output)
        else:
            _emit(regression_report(fit, title=f"OLS fit of {args.target}"), args.output)
        return EXIT_OK

    if args.command == "heatmap":
        sample = read_csv(args.data, args.target, _split_names(args.factors),
                          _split_names(args.skip) or ())
        fit = regression.ols_fit(sample)
        grid = regression.diff_grid(fit, sample, _floats(args.p), _floats(args.q),
                                    plain_mode=args.plain_var, master_seed=args.seed)
        if args.output:
            write_grid(grid, args.output)
        else:
            buf = io.StringIO()
            write_grid(grid, buf)
            sys.stdout.write(buf.getvalue())
        return EXIT_OK

    if args.command == "share":
        sample = read_csv(args.data, args.target, _split_names(args.factors),
                          _split_names(args.skip) or ())
        tokens = [tok for tok in args.agents.split(";") if tok.strip()]
        if not tokens:
            raise UsageError("at least one agent spec is required")
        agents = [_agent_spec(tok.strip(), sample) for tok in tokens]
        x_law = from_sample(sample, conditioning.partition_discrete(sample)).mixture()
        value, allocation = sharing.inf_convolution(x_law, agents)
        payload = {
            "value": value,
            "agents": tokens,
            "breakpoints": [float(v) for v in allocation.breakpoints],
            "slopes": [[float(v) for v in row] for row in allocation.slopes],
        }
        _emit(json.dumps(payload, indent=2), args.output)
        return EXIT_OK

    if args.command == "simulate":
        beta = _floats(args.beta)
        if args.discrete_values:
            spec = regression.DiscreteFactorSpec(np.asarray(_floats(args.discrete_values)))
            if len(beta) != 1:
                raise UsageError("discrete scalar values imply a single factor")
        else:
            dim = len(beta)
            spec = regression.GaussianFactorSpec(np.zeros(dim), np.eye(dim))
        sample = regression.simulate(args.beta0, beta, args.sigma, spec, args.n, args.seed)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([sample.loss_name, *sample.factor_names])
        for i in range(sample.n_rows):
            writer.writerow([_fmt9(sample.loss[i]),
                             *(_fmt9(v) for v in sample.factors[i])])
        _emit(buf.getvalue(), args.output)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
