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
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import conditioning, coherent, distortion, linear, quantile, regression, scalar, sharing
from .core import JointSample, StepCDF, _as_1d, _count, _ranks, from_sample
from .errors import DataFormatError, FactorRiskError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GRID_HEADER = ("p", "q", "rho_factor", "rho_plain", "diff")
# Bytes per block of _plain_rows' LF count and CR check, in a core's L2 cache
# with its masks.
_SCAN_BYTES = 2**18


class UsageError(FactorRiskError):
    """Bad request shape: unknown measure or missing parameters."""


def read_csv(path, target: str, factors=None, skip=()) -> JointSample:
    """Parse a headered CSV into a sample: the one place columns are chosen.

    ``target`` names the loss column; ``factors`` defaults to every other
    non-skipped column.  Decimal points only; malformed cells are rejected
    with 1-based data-row and column coordinates.  The wanted columns are
    parsed in C by one ``np.loadtxt`` when the file's bytes allow it, and
    by a per-cell loop otherwise; see :func:`_read_table`.
    """
    path = Path(path)
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

    wanted, table = _read_table(path, select)
    finite = np.isfinite(table)  # the one check: both routes parse non-finite cells
    if not finite.all():
        r, c = divmod(int(np.argmin(finite)), len(wanted))
        raise DataFormatError(
            f"cell is not finite at (row {r + 1}, col {wanted[c]}): {float(table[r, c])!r}",
            row=r + 1, column=wanted[c],
        )
    return JointSample(table[:, 0], table[:, 1:], loss_name=target,
                       factor_names=tuple(wanted[1:]))


def _read_table(path: Path, select):
    """The names ``select(header)`` picks and their float columns, one row
    per data line.

    ``select`` gets the stripped header names (None for an empty file) and
    returns the wanted names; a repeated name means its first column.
    When the file's bytes allow it (see :func:`_plain_rows`) one
    ``np.loadtxt`` parses every line to one field per header cell
    (:func:`_loadtxt`).  Otherwise, or when that raises or gives another
    row count, the per-cell loop parses the file as ``csv.reader`` splits
    it.  The loop is the only place that rejects a row or a cell, or a file
    without data rows, so both routes report the same error.  Where both
    parse a file they give the same bits, non-finite spellings (``nan``,
    ``-inf``, ``Infinity``, ``1e999``) included: ``np.loadtxt`` rejects
    some cells that ``float`` takes (``1_0``, non-ASCII digits), which the
    loop then reads, and no cell is known that it takes and ``float``
    rejects.  A non-finite value is the caller's to reject.  A file that
    cannot be read, or is not UTF-8 text, is a data error that names it.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    n_rows = _plain_rows(raw)
    first = raw[:raw.find(b"\n")]
    del raw  # freed before np.loadtxt reads the file again, for the peak memory
    if n_rows:
        header = [name.strip() for name in first.decode("ascii").split(",")]
        wanted = select(header)
        table = _loadtxt(path, len(header), [header.index(name) for name in wanted], n_rows)
        if table is not None:
            return wanted, table
    values = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            header = None if header is None else [name.strip() for name in header]
            wanted = select(header)
            cols = [header.index(name) for name in wanted]
            for r, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise DataFormatError(f"ragged row: expected {len(header)} cells, "
                                          f"got {len(row)} (row {r})", row=r)
                for name, j in zip(wanted, cols):
                    cell = row[j].strip()
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise DataFormatError(
                            f"cell is not numeric at (row {r}, col {name}): {cell!r}",
                            row=r, column=name) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not values:
        raise DataFormatError("file contains a header but no data rows")
    return wanted, np.array(values).reshape(-1, len(wanted))


def _not_utf8(path: Path) -> DataFormatError:
    """The data error for a file that is not UTF-8 text: it names the
    line of the first bad byte, counting LFs (line 1 is the header)."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return DataFormatError(f"not UTF-8 text at line {line} of {path}")
    return DataFormatError(f"not UTF-8 text: {path}")  # the file changed between the reads


def _plain_rows(raw: bytes) -> int | None:
    """The number of lines after the header, else None (so 0 or None both
    send a file to the per-cell loop).

    The lines are counted where ``csv.reader`` ends them when the file is
    ASCII, holds no quote or NUL byte, does not start with a line end, and
    each of its CRs ends a CRLF; otherwise the count is None.  The LFs are
    counted and the CRs checked ``_SCAN_BYTES`` at a time, each block with
    the next one's first byte.  Blank lines and lines of another width are
    counted here and left to :func:`_loadtxt`.
    """
    if (not raw.isascii() or b'"' in raw or b"\0" in raw or raw.endswith(b"\r")
            or raw.startswith((b"\n", b"\r\n"))):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    has_cr, n_lf = b"\r" in raw, 0
    for start in range(0, data.size, _SCAN_BYTES):
        block = data[start:start + _SCAN_BYTES + 1]  # and the next block's first byte
        lf = np.equal(block, ord("\n"))
        n_lf += np.count_nonzero(lf[:_SCAN_BYTES])
        if has_cr and not (np.equal(block[:-1], ord("\r")) <= lf[1:]).all():
            return None  # a CR not right before an LF
    return n_lf - raw.endswith(b"\n")


def _loadtxt(path: Path, width: int, cols: list[int], n_rows: int):
    """The ``cols`` of a file's ``n_rows`` data lines of ``width`` cells
    each, or None where the per-cell loop must decide.

    Each line is parsed to one field per cell, a float for a wanted column
    and one byte of text for any other, so ``np.loadtxt`` rejects a line of
    another width; it skips a blank line, which the row count catches.
    """
    dtype = [(str(j), "f8" if j in cols else "S1") for j in range(width)]
    try:
        with warnings.catch_warnings():  # numpy warns of a file whose data lines are blank
            warnings.simplefilter("ignore")
            # the file is read again: np.loadtxt reads a path in large blocks,
            # but a list of lines one str at a time, slower and larger
            fields = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                                ndmin=1, encoding="ascii")
    except ValueError:
        return None
    # the row count also catches a file changed between the two reads
    return np.column_stack([fields[str(j)] for j in cols]) if fields.shape[0] == n_rows else None


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


def _read_sample(source) -> JointSample:
    """The sample a :class:`MeasureRequest`, or parsed data arguments, name."""
    return read_csv(source.data_path, source.target, source.factors, source.skip)


def _partition_warnings(sample: JointSample, partition, bins: int | None) -> list[str]:
    """Degenerate inputs, read off the partition in O(n) for n scenarios:
    quantile cuts merged by ties, and scenarios of a single row."""
    warnings = [f"factor {name!r}: ties merge its {bins - 1} quantile cuts into {cuts.size}"
                for name, cuts in zip(sample.factor_names, partition.cuts or ())
                if cuts.size < bins - 1]
    single = np.count_nonzero(np.diff(partition.offsets) == 1)
    if single:
        warnings.append(f"{single} of {partition.n_scenarios} scenarios hold a single row")
    return warnings


def _box(request: MeasureRequest, sample: JointSample) -> conditioning.VarBox:
    alpha = conditioning.broadcast_levels(request.alpha, sample.n_factors)
    if request.beta is None:
        return conditioning.tail_box(alpha)
    return conditioning.VarBox(alpha, conditioning.broadcast_levels(request.beta, sample.n_factors))


class Measure(NamedTuple):
    """A measure's required request fields and its evaluator, which gets
    the request and the sample, or the scenario family when ``on_family``."""

    params: tuple[str, ...]
    on_family: bool
    evaluate: Callable


MEASURES = {
    "covar": Measure(("alpha", "p"), False,
                     lambda r, s: quantile.covar(s, r.alpha, r.p, "box", _box(r, s))),
    "covar-eq": Measure(("alpha", "p"), False,
                        lambda r, s: quantile.covar(s, r.alpha, r.p, mode="equal")),
    "coes": Measure(("alpha", "p"), False,
                    lambda r, s: quantile.coes(s, r.alpha, r.p, "box", _box(r, s))),
    "mes": Measure(("alpha",), False, lambda r, s: linear.mes(s, r.alpha)),
    "var-var": Measure(("p", "q"), True, lambda r, f: quantile.quantile_factor(
        f, quantile.pred_var_of_var(r.p, r.q))),
    "esssup-var": Measure(("p",), True, lambda r, f: quantile.quantile_factor(
        f, quantile.pred_esssup_var(r.p))),
    "mean-var": Measure(("p",), True, lambda r, f: distortion.compose_var_distortion(
        f, r.p, scalar.identity_distortion())),
    "dist-var": Measure(("p", "q"), True, lambda r, f: distortion.compose_var_distortion(
        f, r.p, scalar.es_distortion(r.q))),
    "mean-es": Measure(("p",), True, lambda r, f: distortion.compose_es_mean(f, r.p)),
    "es-box": Measure(("p", "alpha"), False,
                      lambda r, s: distortion.es_on_event(s, _box(r, s), r.p)),
    "es-es": Measure(("p", "q"), True,
                     lambda r, f: coherent.es_composition(f, r.p, outer="es", q=r.q)),
    "esssup-es": Measure(("p",), True,
                         lambda r, f: coherent.es_composition(f, r.p, outer="esssup")),
    "linear": Measure((), True, lambda r, f: linear.linear_factor(
        f, "physical" if r.weights is None else list(r.weights))),
}


# share agents: name -> (parameters in the builder's order with their
# defaults, None where required; the scenario distortion's builder)
AGENTS = {
    "var-var": ({"p": None, "q": 0.5}, distortion.psi_indicator_var_var),
    "mean-es": ({"p": None}, distortion.psi_mean_of_es),
    "mean-var": ({"p": None}, distortion.psi_mean_of_var),
}


def run(request: MeasureRequest) -> dict:
    """Evaluate a measure request and return the JSON-ready report."""
    measure = MEASURES.get(request.measure)
    if measure is None:
        raise UsageError(
            f"unknown measure {request.measure!r}; choose from {sorted(MEASURES)}"
        )
    missing = [n for n in measure.params if getattr(request, n) is None]
    if missing:
        raise UsageError(f"measure {request.measure!r} requires parameters "
                         f"{list(measure.params)}; missing {missing}")
    sample = data = _read_sample(request)
    warnings: list[str] = []
    n_scenarios = None
    if measure.on_family:
        # at most one quantile cut per row: more bins are refused before
        # partition_quantile_boxes builds its bins - 1 levels
        if request.bins is not None and _count(request.bins, "bins_per_factor", 1) > sample.n_rows:
            raise ValidationError(f"--bins must be at most the {sample.n_rows} data rows, "
                                  f"got {request.bins!r}")
        partition = (conditioning.partition_discrete(sample) if request.bins is None
                     else conditioning.partition_quantile_boxes(sample, request.bins))
        data = from_sample(sample, partition)
        n_scenarios = data.n_scenarios
        warnings = _partition_warnings(sample, partition, request.bins)
    value = measure.evaluate(request, data)

    params = {k: v for k, v in (
        ("p", request.p), ("q", request.q),
        ("alpha", list(request.alpha) if request.alpha else None),
        ("beta", list(request.beta) if request.beta else None),
        ("bins", request.bins),
        ("weights", list(request.weights) if request.weights else None),
    ) if v is not None}
    return {
        "measure": request.measure,
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


def _csv_lines(header, table: np.ndarray, end: str = "\r\n") -> str:
    """``header`` and the rows of ``table`` at 9 significant digits, each
    line ended by ``end`` (CRLF: as ``csv.writer`` writes them), one
    %-format per chunk."""
    line = ",".join(["%.9g"] * table.shape[1]) + end
    chunks = (table[i:i + _CHUNK_ROWS] for i in range(0, len(table), _CHUNK_ROWS))
    return ",".join(header) + end + "".join(
        (line * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in chunks)


def write_grid(grid: regression.DiffGrid, output: str | None = None) -> None:
    """Emit a Diff grid as long-format CSV at 9 significant digits to the
    ``output`` path, or to stdout when it is None (see :func:`_emit`)."""
    _emit(_csv_lines(GRID_HEADER, np.column_stack(
        [grid.p, grid.q, grid.rho_factor, grid.rho_plain, grid.diff]), "\n"), output)


def _json_floats(values: np.ndarray, depth: int) -> str:
    """``json.dumps(values.tolist(), indent=2)`` nested ``depth`` levels
    deep, built by joins.  Each distinct value of a row, by its bits, is
    spelled once (as JSON spells it) and laid out by index."""
    if not len(values):
        return "[]"
    if values.ndim > 1:
        items = [_json_floats(row, depth + 1) for row in values]
    else:
        index, bits = _ranks(np.asarray(values, dtype=float).view(np.int64))
        spell = float.__repr__ if np.isfinite(values).all() else json.dumps
        items = np.array(list(map(spell, bits.view(float).tolist())), dtype=object)[index].tolist()
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


def _write_output(path, text: str) -> None:
    """Write ``text`` to the ``--output`` path as given, line ends and all; a
    path that cannot be written is a usage error that names it."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --output {path}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        _write_output(output, text)
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
        p.add_argument("--data", dest="data_path", required=True, help="headered CSV file")
        p.add_argument("--target", required=True, help="loss column name")
        p.add_argument("--factors", type=_split_names, default=None,
                       help="comma-separated factor columns")
        p.add_argument("--skip", type=_split_names, default="",
                       help="comma-separated columns to ignore")

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
    h.add_argument("--plain-var", dest="plain_var", choices=regression.PLAIN_MODES,
                   default="model")
    h.add_argument("--output", default=None)

    s = sub.add_parser("share", help="comonotonic risk sharing")
    add_data_args(s)
    s.add_argument("--agents", required=True,
                   help="semicolon-separated specs name:key=value,...@factor; "
                        "agents and their parameters: " + "; ".join(
                            f"{name}: " + ", ".join(k if v is None else f"{k}={v}"
                                                   for k, v in defaults.items())
                            for name, (defaults, _) in AGENTS.items())
                        + "; unknown parameters are rejected")
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


def _agent_spec(token: str, sample: JointSample, families: dict):
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
    if column and (sample.factor_names is None or column not in sample.factor_names):
        raise UsageError(f"agent factor column {column!r} not in data")
    if name not in AGENTS:
        raise UsageError(f"unknown agent measure {name!r}; use {', '.join(AGENTS)}")
    defaults, build = AGENTS[name]
    unknown = [key for key in params if key not in defaults]
    if unknown:
        raise UsageError(f"agent {name!r} takes parameters {list(defaults)}; unknown {unknown}")
    values = {**defaults, **params}
    missing = [key for key, value in values.items() if value is None]
    if missing:
        raise UsageError(f"agent spec {token!r} needs "
                         + ", ".join(f"{key}=<level>" for key in missing))
    return build(*values.values()), _column_family(sample, column, families)


def _column_family(sample: JointSample, column: str, families: dict):
    """The family of ``sample`` by the factor ``column`` ("": every factor),
    built once per ``families``.  A column's family comes from its own
    sample, whose renormalized weights may differ in the last bit."""
    if column not in families:
        sub = sample
        if column:
            j = sample.factor_names.index(column)
            sub = JointSample(sample.loss, sample.factors[:, j], sample.weights,
                              loss_name=sample.loss_name, factor_names=(column,))
        families[column] = from_sample(sub, conditioning.partition_discrete(sub))
    return families[column]


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
    except MemoryError as exc:
        print(f"numeric rejection: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _split_names(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _dispatch(args) -> int:
    if args.command == "measure":
        report = run(MeasureRequest(
            args.data_path, args.target, args.measure, args.factors, args.skip, args.p, args.q,
            alpha=_floats(args.alpha) if args.alpha else None,
            beta=_floats(args.beta) if args.beta else None,
            bins=args.bins,
            weights=_floats(args.weights) if args.weights else None,
        ))
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
        sample = _read_sample(args)
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
        sample = _read_sample(args)
        fit = regression.ols_fit(sample)
        grid = regression.diff_grid(fit, sample, _floats(args.p), _floats(args.q),
                                    plain_mode=args.plain_var, master_seed=args.seed)
        write_grid(grid, args.output)
        return EXIT_OK

    if args.command == "share":
        sample = _read_sample(args)
        tokens = [tok for tok in args.agents.split(";") if tok.strip()]
        if not tokens:
            raise UsageError("at least one agent spec is required")
        families = {}
        agents = [_agent_spec(tok.strip(), sample, families) for tok in tokens]
        x_law = StepCDF.from_values(sample.loss, sample.weights)
        value, allocation = sharing.inf_convolution(x_law, agents)
        del agents, families, x_law  # the families are freed before the JSON is built
        # json.dumps(..., indent=2) of the whole payload, with the arrays
        # (one float per support point and agent) written by joins
        head = json.dumps({"value": value, "agents": tokens}, indent=2)
        _emit(head[:-2] + ',\n  "breakpoints": ' + _json_floats(allocation.breakpoints, 1)
              + ',\n  "slopes": ' + _json_floats(allocation.slopes, 1) + "\n}", args.output)
        return EXIT_OK

    # simulate, the last of the subcommands the parser admits
    beta = _as_1d(_floats(args.beta), "beta")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
