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
    with 1-based data-row and column coordinates.  The wanted columns are
    parsed in C by one ``np.loadtxt`` when the file's bytes allow it, and
    by a per-cell loop otherwise; see :func:`_read_table`.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    skip = tuple(skip)

    def select(header):
        if header is None:
            raise DataFormatError("empty file: a header row is required")
        for name in skip:
            if name not in header:
                raise DataFormatError(f"skip column {name!r} not in header", column=name)
        if target not in header:
            raise DataFormatError(f"target column {target!r} not in header", column=target)
        if factors is None:
            chosen = [name for name in header if name != target and name not in skip]
        else:
            chosen = list(factors)
            for name in chosen:
                if name not in header:
                    raise DataFormatError(f"factor column {name!r} not in header", column=name)
        if not chosen:
            raise DataFormatError("no factor columns left after selection")
        return [target] + chosen

    wanted, table = _read_table(
        path, select, "ragged row: expected {expected} cells, got {got} (row {row})",
        "cell is not numeric at (row {row}, col {col}): {cell!r}")
    if not table.shape[0]:
        raise DataFormatError("file contains a header but no data rows")
    bad = ~np.isfinite(table)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataFormatError(
            f"cell is not finite at (row {r + 1}, col {wanted[c]}): {float(table[r, c])!r}",
            row=int(r) + 1, column=wanted[c],
        )
    return JointSample(table[:, 0], table[:, 1:], loss_name=target,
                       factor_names=tuple(wanted[1:]))


def _read_table(path: Path, select, ragged: str, not_numeric: str):
    """The names ``select(header)`` picks and their float columns, one row
    per data line.

    ``select`` gets the stripped header names (None for an empty file) and
    returns the wanted names; a repeated name means its first column.
    When the file is plain (see :func:`_plain_rows`) one ``np.loadtxt`` with
    ``comments=None`` parses the wanted columns.  Otherwise, or when that
    raises, gives another row count or a non-finite value, the per-cell
    loop parses the file as ``csv.reader`` splits it.  The loop is the only
    place that rejects a row or a cell, with the ``ragged`` and
    ``not_numeric`` messages, so both routes report the same error.  Where
    both parse a file they give the same bits: ``np.loadtxt`` rejects some
    cells that ``float`` takes (``1_0``), which the loop then reads, and no
    cell is known that it takes and ``float`` rejects.
    """
    raw = path.read_bytes()
    n_rows = _plain_rows(raw)
    if n_rows:
        header = [name.strip() for name in raw[:raw.find(b"\n")].decode("ascii").split(",")]
        wanted = select(header)
        table = _loadtxt(path, [header.index(name) for name in wanted], n_rows)
        if table is not None:
            return wanted, table
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        header = None if header is None else [name.strip() for name in header]
        wanted = select(header)
        cols = [header.index(name) for name in wanted]
        for r, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise DataFormatError(ragged.format(expected=len(header), got=len(row), row=r),
                                      row=r)
            for name, j in zip(wanted, cols):
                cell = row[j].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataFormatError(not_numeric.format(row=r, col=name, cell=cell),
                                          row=r, column=name) from None
    return wanted, np.array(values).reshape(-1, len(wanted))


def _plain_rows(raw: bytes) -> int | None:
    """The number of data lines of a plain file, else None (so 0 or None
    both send a file to the per-cell loop).

    A file is plain when ``csv.reader`` would split each of its lines at
    every comma: it is ASCII, holds no quote or NUL byte, no CR outside a
    CRLF line end and no blank line, and every line has as many commas as
    the header.
    """
    if not raw.isascii() or b'"' in raw or b"\0" in raw:
        return None
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None
        raw = raw.replace(b"\r\n", b"\n")
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    # commas before each line end, then per line
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    if (np.diff(ends, prepend=-1) == 1).any() or (commas != commas[0]).any():
        return None
    return ends.size - 1


def _loadtxt(path: Path, cols: list[int], n_rows: int):
    """The ``cols`` of a plain file's data lines, or None where the
    per-cell loop must decide."""
    try:
        # the file is read again: np.loadtxt reads a path in large blocks,
        # but a list of lines one str at a time, slower and larger
        table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, usecols=cols,
                           ndmin=2, encoding="ascii")
    except ValueError:
        return None
    # the row count also catches a file changed between the two reads;
    # non-finite values go through the loop, so float() alone decides them
    if table.shape[0] != n_rows or not np.isfinite(table).all():
        return None
    return table


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


# rows per %-format in _csv_lines: bounds the Python floats alive at once
_CHUNK_ROWS = 2**16


def _csv_lines(header, table: np.ndarray) -> str:
    """``header`` and the rows of ``table`` at 9 significant digits, as
    ``csv.writer`` writes them (CRLF line ends), one %-format per chunk."""
    line = ",".join(["%.9g"] * table.shape[1]) + "\r\n"
    chunks = (table[i:i + _CHUNK_ROWS] for i in range(0, len(table), _CHUNK_ROWS))
    return ",".join(header) + "\r\n" + "".join(
        (line * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in chunks)


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
    def select(header):
        if header is None or tuple(header) != GRID_HEADER:
            raise DataFormatError(f"expected header {','.join(GRID_HEADER)}")
        return list(GRID_HEADER)

    _, table = _read_table(Path(path), select, "ragged row (row {row})",
                           "cell is not numeric at (row {row}, col {col})")
    p, q, rho_factor, rho_plain, diff = table.T
    return regression.DiffGrid(_unique_in_order(p), _unique_in_order(q), p, q, rho_factor,
                               rho_plain, diff)


def _unique_in_order(values: np.ndarray) -> np.ndarray:
    uniq, first = np.unique(values, return_index=True)
    return uniq[np.argsort(first)]


def _json_floats(values: np.ndarray, depth: int) -> str:
    """``json.dumps(values.tolist(), indent=2)`` nested ``depth`` levels
    deep, built by joins; non-finite values are spelled as JSON does."""
    if not len(values):
        return "[]"
    if values.ndim > 1:
        items = [_json_floats(row, depth + 1) for row in values]
    else:
        spell = float.__repr__ if np.isfinite(values).all() else json.dumps
        items = map(spell, values.tolist())
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


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
        # json.dumps(..., indent=2) of the whole payload, with the arrays
        # (one float per support point and agent) written by joins
        head = json.dumps({"value": value, "agents": tokens}, indent=2)
        _emit(head[:-2] + ',\n  "breakpoints": ' + _json_floats(allocation.breakpoints, 1)
              + ',\n  "slopes": ' + _json_floats(allocation.slopes, 1) + "\n}", args.output)
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
        table = np.column_stack([sample.loss, sample.factors])
        _emit(_csv_lines([sample.loss_name, *sample.factor_names], table), args.output)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
