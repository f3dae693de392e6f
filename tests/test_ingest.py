"""The vectorized ingest and grouping paths against their per-cell and
per-scenario definitions.

``round_significant`` rounds in blocks and must give the former one-pass
function's bits.  ``read_csv`` parses plain files with one ``np.loadtxt``
and everything else with a per-cell loop; both must give the same sample
bits or the same error.  ``simulate`` must write what ``csv.writer``
writes.  The grouping of ``partition_discrete`` and the laws of
``from_sample`` must equal the row-unique partition and
``StepCDF.from_values`` per scenario, bit for bit.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorrisk import (
    DataFormatError,
    DiscreteFactorSpec,
    GaussianFactorSpec,
    JointSample,
    ValidationError,
    from_sample,
    partition_discrete,
    partition_quantile_boxes,
    simulate,
)
from factorrisk import cli, core
from factorrisk.core import Scenario, ScenarioPartition, StepCDF, round_significant

import per_scenario


# ------------------------------------------------------------------ rounding

BLOCK = core._ROUND_BLOCK
# zeros, infinities, NaN, subnormals, the ends of the normal range, magnitudes
# at the 1e+-300 edge, whole numbers and values tied at the 12th digit
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
           2.225073858507201e-308, 1e-300, -1e-300, 9.99999999999e-301, 1.0000000000001e-300,
           1e300, -1.2345678901234e300, 1.7976931348623157e308, 1.0, -3.0, 1e11, 99999999999.0,
           1e12, 123456789012.5, 123456789013.5, -0.5, 1.000000000005, 2.5e-7]


@st.composite
def factor_arrays(draw):
    """An array of 1, BLOCK - 1, BLOCK, BLOCK + 1 or 2 BLOCK + 3 values
    mixing ordinary floats, the SPECIAL values, subnormals, magnitudes near
    1e+-300, whole numbers and 12-digit ties (exact and scaled), with a few
    drawn floats planted, as a vector, a column or a row."""
    n = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = rng.choice([-1.0, 1.0], n)
    ties = rng.integers(10**11, 10**12, n) + 0.5
    pools = [
        sign * rng.random(n) * 10.0 ** rng.integers(-15, 16, n),
        rng.choice(SPECIAL, n),
        sign * rng.random(n) * 2.2250738585072014e-308,
        sign * 10.0 ** rng.uniform(-301.0, -299.0, n),
        sign * 10.0 ** rng.uniform(299.0, 301.0, n),
        rng.integers(-10**13, 10**13, n).astype(float),
        sign * ties,
        sign * ties * 10.0 ** rng.integers(-20, 20, n),
    ]
    values = np.choose(rng.integers(0, len(pools), n), pools)
    planted = draw(st.lists(st.floats() | st.sampled_from(SPECIAL), max_size=6))
    values[rng.integers(0, n, len(planted))] = planted
    return values.reshape(draw(st.sampled_from([(-1,), (-1, 1), (1, -1)])))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factor_arrays())
def test_round_significant_equals_the_former_pass(values):
    given_bits = values.tobytes()
    got, want = round_significant(values), per_scenario.round_significant(values)
    assert values.tobytes() == given_bits  # the input is not rounded in place
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if np.isfinite(values).all():
        sample = JointSample(np.zeros(values.shape[0]), values.reshape(values.shape[0], -1))
        assert sample.factors.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_factor_rejection_names_the_first_bad_value_past_a_block(value):
    factors = np.ones((BLOCK + 7, 2))
    factors[BLOCK // 2 + 3, 1] = value
    factors[-1, 0] = np.inf if np.isnan(value) else np.nan
    with pytest.raises(ValidationError) as exc:
        JointSample(np.zeros(BLOCK + 7), factors)
    assert str(exc.value) == f"factor values must be finite, got {value!r}"


@pytest.mark.parametrize("layout", ["fortran", "transposed", "strided", "int64"])
def test_factor_layouts_round_to_the_bits_of_c_ordered_floats(layout):
    # the factors are copied once, in C order, then rounded in place: a
    # copy that kept a Fortran layout would be rounded through a reshaped
    # copy of its own, and kept its given digits
    rng = np.random.default_rng(4)
    factors = np.round(rng.standard_normal((BLOCK + 5, 3)) * 1e3) / 7
    factors[0, 1], factors[1, 2] = 0.1234567890123456, -0.0
    given = {"fortran": lambda: np.asfortranarray(factors),
             "transposed": lambda: np.ascontiguousarray(factors.T).T,
             "strided": lambda: np.repeat(factors, 2, axis=0)[::2],
             "int64": lambda: factors.astype(np.int64)}[layout]()
    if layout == "int64":
        factors = given.astype(float)
    else:
        assert not given.flags.c_contiguous and np.array_equal(given, factors)
        assert given[0, 1] == 0.1234567890123456
    loss = np.zeros(factors.shape[0])
    want = per_scenario.round_significant(factors)
    for got in (JointSample(loss, given).factors, round_significant(given)):
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()
    if layout != "int64":
        assert want[0, 1] == 0.123456789012


# ------------------------------------------------------------------ read_csv

NAMES = ["A", "B", "C", " A", "B "]
# cells a plain file may hold: numbers np.loadtxt reads as float() does,
# non-finite ones included, and some it rejects (1_0), which the loop decides
PLAIN_CELLS = ["-0", " 1.5 ", "\t3", "1e5", ".5", "5.", "+7", "\x1c4", "1_0", "nan", "inf",
               "1e400", "abc", ""]
CELLS = PLAIN_CELLS + ["0x10", '"2.5"', '"1,5"', "\u0661\u0662", "1 2", "Infinity", "-inf"]


@st.composite
def csv_files(draw):
    """Text of a small CSV and a column selection.  Half the files are
    plain (ASCII, each line as wide as the header, read by np.loadtxt),
    with LF or CRLF line ends; the rest may also hold quotes, bare CRs,
    blank lines, ragged rows, a BOM and non-ASCII digits."""
    plain = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    number = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    cell = st.one_of(*[number] * 6, st.sampled_from(PLAIN_CELLS if plain else CELLS))
    lines = []
    for _ in range(draw(st.integers(0 if not plain else 1, 6))):
        width = len(header) + (0 if plain else draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
        lines.append(",".join(draw(st.lists(cell, min_size=width, max_size=width))))
    newline = st.sampled_from(["\n", "\n", "\r\n"] + ([] if plain else ["\r"]))
    ends = draw(st.lists(newline, min_size=len(lines) + 1, max_size=len(lines) + 1))
    if not plain and lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
        ends.append("\n")
    text = "".join(line + end for line, end in zip([",".join(header)] + lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    if not plain and draw(st.booleans()):
        text = "\ufeff" + text
    names = sorted({name.strip() for name in header})
    target = draw(st.sampled_from(names + ([] if plain else ["Z"])))
    choice = st.sampled_from(names + ([] if plain else ["Z"]))
    factors = draw(st.one_of(st.none(), st.lists(choice, min_size=int(plain), max_size=3)))
    skip = draw(st.lists(choice, max_size=2 - plain))
    return text, target, factors, skip


def _outcome(path, target, factors, skip):
    try:
        sample = cli.read_csv(path, target, factors, skip)
    except DataFormatError as exc:
        return ("error", str(exc), exc.row, exc.column)
    except (UnicodeDecodeError, csv.Error) as exc:  # a file csv.reader cannot read
        return (type(exc).__name__, str(exc))
    return ("ok", sample.loss.tobytes(), sample.factors.tobytes(), sample.factors.shape,
            sample.loss_name, sample.factor_names)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(csv_files())
def test_fast_reader_equals_per_cell_reader(case):
    text, target, factors, skip = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path, target, factors, skip)
        with mock.patch.object(cli, "_plain_rows", lambda raw: None):
            slow = _outcome(path, target, factors, skip)
    assert fast == slow


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@contextlib.contextmanager
def _loadtxt_spy():
    """The tables ``cli._loadtxt`` returns inside the block (None: it declined)."""
    tables, loadtxt = [], cli._loadtxt
    with mock.patch.object(cli, "_loadtxt", lambda *args: tables.append(loadtxt(*args))
                           or tables[-1]):
        yield tables


def _routes(path, target, factors=None, skip=()):
    """(``read_csv``'s outcome, the tables ``_loadtxt`` returned, the per-cell loop's outcome)."""
    with _loadtxt_spy() as tables:
        got = _outcome(path, target, factors, skip)
    with mock.patch.object(cli, "_plain_rows", lambda raw: None):
        loop = _outcome(path, target, factors, skip)
    return got, tables, loop


def _loadtxt_calls(path, target, **kwargs):
    """(the sample read from ``path``, the tables ``_loadtxt`` returned)."""
    with _loadtxt_spy() as tables:
        return cli.read_csv(path, target, **kwargs), tables


def test_plain_file_takes_the_loadtxt_route(tmp_path):
    path = _write(tmp_path, "date,X,W\nd1,1.5,2\nd2,-0.25,3\nd3,7,2\n")
    sample, tables = _loadtxt_calls(path, "X", skip=("date",))
    assert len(tables) == 1 and tables[0] is not None
    assert sample.loss.tolist() == [1.5, -0.25, 7.0]
    assert sample.factors[:, 0].tolist() == [2.0, 3.0, 2.0]


# a blank line, a blank CRLF line and an extra cell: counted by the scan,
# rejected by np.loadtxt's parse of one field per header cell
OTHER_WIDTH = ["X,W\n1,2\n\n3,4\n", "X,W\r\n\r\n3,4\n", "X,W\n1,2,\n"]


@pytest.mark.parametrize("text, rows", [
    ("X,W\n1,2\n3,4", 2),
    ("X,W\r\n1,2\r\n3,4\n", 2),     # CRLF line ends
    ("X,W\n", 0),
    ('X,W\n1,"2"\n', None),        # quote
    ("X,W\r1,2\n", None),          # CR alone
    ("X,W\n1,2\r\r\n", None),      # CR before CRLF
    (OTHER_WIDTH[0], 3),
    (OTHER_WIDTH[1], 2),
    (OTHER_WIDTH[2], 1),
    ("\ufeffX,W\n1,2\n", None),    # BOM
])
def test_plain_rows(text, rows):
    assert cli._plain_rows(text.encode("utf-8")) == rows


@pytest.mark.parametrize("text", OTHER_WIDTH)
def test_loadtxt_declines_a_line_of_another_width(tmp_path, text):
    got, tables, loop = _routes(_write(tmp_path, text), "X")
    assert tables == [None] and got == loop
    assert got[1].startswith("ragged row: expected 2 cells, got ")


@pytest.mark.parametrize("text", ["\nX,W\n1,2\n", "\r\nX,W\n1,2\n", "\nX\n1\n",
                                  "\n", "\r\n1,2\r\n"])
@pytest.mark.parametrize("target", ["X", ""])
def test_a_file_starting_with_a_line_end_goes_to_the_per_cell_loop(tmp_path, text, target):
    path = _write(tmp_path, text)
    assert cli._plain_rows(path.read_bytes()) is None
    got, tables, loop = _routes(path, target)
    assert tables == [] and got == loop and got[0] == "error"


def test_unread_text_cells_and_repeated_names_take_one_loadtxt(tmp_path):
    # 300-byte text cells in an unread column, which np.loadtxt reads into one byte,
    # and a repeated header name, which means its first column
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(200, 3)).tolist()
    lines = ["X,note,W,X"] + [f"{x!r},{'n' * 300}{i},{w!r},{z!r}"
                              for i, (x, w, z) in enumerate(rows)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    for factors in (None, ["W", "X", "W"]):
        got, tables, loop = _routes(path, "X", factors, ("note",))
        assert len(tables) == 1 and tables[0] is not None
        assert got == loop and got[0] == "ok"
    x, w = np.array(rows)[:, :2].T
    assert got[1] == x.tobytes()
    assert got[2] == round_significant(np.column_stack([w, x, w])).tobytes()


def test_a_header_and_a_blank_line_is_a_ragged_row_with_nothing_else_on_stderr(tmp_path):
    # np.loadtxt warns on stderr that the input holds no data, unless silenced
    path = _write(tmp_path, "X,W\n\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-m", "factorrisk.cli", "measure", "--data", str(path),
                          "--target", "X", "--measure", "mes", "--alpha", "0.5"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == cli.EXIT_DATA and run.stdout == ""
    assert run.stderr == "data error: ragged row: expected 2 cells, got 0 (row 1)\n"


def test_a_header_without_data_rows_is_a_data_error(tmp_path):
    path = _write(tmp_path, "X,W1\n")
    with pytest.raises(DataFormatError, match=r"^file contains a header but no data rows$"):
        cli.read_csv(path, "X")
    assert _cli(["measure", "--data", str(path), "--target", "X", "--measure", "mes",
                 "--alpha", "0.5"]) == (cli.EXIT_DATA, "",
                                        "data error: file contains a header but no data rows\n")


def _former_plain_rows(raw: bytes) -> int | None:
    """The former scanner's decision, the reference for which files
    np.loadtxt reads: None for a file that is not ASCII, holds a quote or
    NUL byte, a CR outside a CRLF, a blank line or a line with another
    count of commas than the first (commas found by a search of the comma
    positions), else its number of data lines."""
    if not raw.isascii() or b'"' in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    lf = np.flatnonzero(buf == ord("\n"))
    ends = lf if raw.endswith(b"\n") else np.append(lf, len(raw))
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    width = np.diff(lf, prepend=-1) - 1
    crlf = np.zeros(lf.size, dtype=bool)
    if b"\r" in raw:
        filled = width > 0
        crlf[filled] = buf[lf[filled] - 1] == ord("\r")
        if np.count_nonzero(crlf) != raw.count(b"\r"):
            return None
    if (width == crlf).any() or (commas != commas[0]).any():
        return None
    return ends.size - 1


@st.composite
def csv_like_bytes(draw):
    """Files of lines with 0 to 3 commas each, mostly as many as the header,
    LF or CRLF ends, an optional last line end, blank lines and stray CRs,
    or raw bytes from the separators and the bytes that make a file not plain."""
    if draw(st.booleans()):
        return b"".join(draw(st.lists(st.sampled_from(
            [b",", b"\n", b"\r", b"1", b"a", b" ", b'"', b"\0", b"\xc3"]), max_size=40)))
    width = draw(st.integers(0, 3))
    lines = [b",".join([b"1"] * (1 + (draw(st.integers(0, 3)) if draw(st.integers(0, 5)) == 0
                                     else width)))
             for _ in range(draw(st.integers(1, 8)))]
    for i in draw(st.lists(st.integers(0, 8), max_size=2)):
        lines.insert(min(i, len(lines)), draw(st.sampled_from([b"", b"\r", b"1\r1"])))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(lines) + draw(st.sampled_from([b"", end]))


def _counted_lines(raw: bytes) -> int | None:
    """What ``cli._plain_rows`` gives: None for a file that is not ASCII,
    holds a quote or NUL byte, starts with a line end or has a CR outside a
    CRLF, else its lines after the first, blank and ragged ones included."""
    if (not raw.isascii() or b'"' in raw or b"\0" in raw or raw.startswith((b"\n", b"\r\n"))
            or raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    return max(len(raw.splitlines()) - 1, 0)


@settings(max_examples=1000, deadline=None)
@given(csv_like_bytes(), st.sampled_from([None, 1, 2, 3, 5, 8]))
def test_plain_rows_decide_as_the_former_search(raw, scan_bytes):
    # small scan blocks put every byte of these short files next to a block edge
    former = _former_plain_rows(raw)
    assert former is None or former == _counted_lines(raw)
    names = [name.strip() for name in raw.split(b"\n")[0].decode("latin-1").split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(raw)
        with mock.patch.object(cli, "_SCAN_BYTES", scan_bytes or cli._SCAN_BYTES):
            assert cli._plain_rows(raw) == _counted_lines(raw)
            got, tables, loop = _routes(path, names[0], names[-1:])
    assert got == loop
    # np.loadtxt returns a table for the files the former scan passed, where
    # every wanted cell parses (each cell here parses alike in both routes)
    assert len(tables) <= 1
    assert any(t is not None for t in tables) == (bool(former) and loop[0] == "ok")


# what may fall across a scan block's edge, after a line's three cells: a
# line end, or bytes that make the file not plain
EDGE_FEATURES = {"end": b"", "lone cr": b"\r1", "two crs": b"\r\r", "blank": b"{end}",
                 "ragged": b",1", "short": b"{end}1,1", "quote": b'"1"'}


@st.composite
def block_edge_files(draw):
    """(file, feature, data lines): a header and lines ``12,345,6``, LF or
    CRLF ended, longer than one scan block, where a feature and its line
    end start at a drawn offset before a block edge, so that the edge
    falls inside or around them; with or without a last line end."""
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    header, line = b"W1,W2,W3" + end, b"12,345,6" + end
    name = draw(st.sampled_from(sorted(EDGE_FEATURES)))
    feature = EDGE_FEATURES[name].replace(b"{end}", end) + end
    at = cli._SCAN_BYTES * draw(st.integers(1, 2)) - draw(st.integers(0, len(feature)))
    k = (at - len(header) - 5) // len(line)  # whole lines before the feature's line
    cells = b"1,1," + b"1" * (at - len(header) - k * len(line) - 4)
    tail = draw(st.integers(1, 3))
    raw = header + line * k + cells + feature + line * tail
    return raw if draw(st.booleans()) else raw[:-len(end)], name, k + 1 + tail


@settings(max_examples=200, deadline=None)
@given(block_edge_files())
def test_plain_rows_decide_as_the_former_search_across_block_edges(case):
    raw, name, lines = case
    assert len(raw) > cli._SCAN_BYTES
    assert _former_plain_rows(raw) == (lines if name == "end" else None)
    # a blank or short line adds a line; the ragged one is counted, for np.loadtxt to reject
    counted = {"end": lines, "ragged": lines, "blank": lines + 1, "short": lines + 1}.get(name)
    assert cli._plain_rows(raw) == _counted_lines(raw) == counted


def test_crlf_twin_reads_to_the_same_bits(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(300, 3)).tolist()
    lines = ["X,W1,W2"] + [",".join(repr(v) for v in row) for row in rows]
    lf = _write(tmp_path, "\n".join(lines) + "\n", "lf.csv")
    crlf = _write(tmp_path, "\r\n".join(lines) + "\r\n", "crlf.csv")
    (a, a_tables), (b, b_tables) = _loadtxt_calls(lf, "X"), _loadtxt_calls(crlf, "X")
    assert cli._plain_rows(crlf.read_bytes()) == 300
    assert len(a_tables) == len(b_tables) == 1 and b_tables[0] is not None
    assert a.loss.tobytes() == b.loss.tobytes()
    assert a.factors.tobytes() == b.factors.tobytes()


@pytest.mark.parametrize("text, expected", [
    ("X,W\r1,2\n3,4\n", [1.0, 3.0]),  # CR alone
    ("X,W\n1,2\n3,4\r", [1.0, 3.0]),  # final CR
    ("X,W\r\n1,2\r\n\r\n3,4\r\n",    # blank CRLF line
     "ragged row: expected 2 cells, got 0 (row 2)"),
])
def test_stray_crs_go_to_the_per_cell_loop(tmp_path, text, expected):
    # a lone CR fails the byte check; a blank CRLF line is counted, and
    # np.loadtxt's row count declines it
    path = _write(tmp_path, text)
    with _loadtxt_spy() as tables:
        try:
            got = cli.read_csv(path, "X").loss.tolist()
        except DataFormatError as exc:
            got = str(exc)
    assert got == expected
    assert tables == ([] if isinstance(expected, list) else [None])
    assert (cli._plain_rows(path.read_bytes()) is None) == (tables == [])


def test_per_cell_errors_keep_their_coordinates(tmp_path):
    body = "\n".join(f"{i},{i % 3}" for i in range(1, 50))
    path = _write(tmp_path, f"X,W\n{body}\n7,1_0\n8,n/a\n")
    with pytest.raises(DataFormatError) as exc:
        cli.read_csv(path, "X")
    assert (exc.value.row, exc.value.column) == (51, "W")
    assert str(exc.value) == "cell is not numeric at (row 51, col W): 'n/a'"
    path = _write(tmp_path, f"X,W\n{body}\n7,nan\n")
    with pytest.raises(DataFormatError, match=r"not finite at \(row 50, col W\): nan"):
        cli.read_csv(path, "X")


# spellings float() and np.loadtxt both parse (to non-finite values), and
# some both reject; 1_0 only float() takes, so np.loadtxt leaves it to the loop
NON_FINITE = ["nan", "NaN", "-nan", "+nan", "inf", "-inf", "Infinity", "-Infinity", "INF",
              "1e999", "-1e999", " nan"]
REJECTED = ["nan(1)", "nanq", "snan", "infinit"]


@pytest.mark.parametrize("cell", NON_FINITE + REJECTED + ["1_0"])
@pytest.mark.parametrize("where", ["1,{},2", "{},2,3"])
def test_non_finite_cells_are_parsed_by_loadtxt_as_by_the_loop(tmp_path, cell, where):
    body = "".join(f"{i},{i % 3},{i % 5}\n" for i in range(1, 40))
    path = _write(tmp_path, f"X,W1,W2\n{body}{where.format(cell)}\n4,{cell},6\n")
    with _loadtxt_spy() as tables:
        got = _outcome(path, "X", None, ())
    with mock.patch.object(cli, "_loadtxt", lambda *args: None):
        loop = _outcome(path, "X", None, ())
    assert got == loop
    assert len(tables) == 1 and (tables[0] is not None) == (cell in NON_FINITE)
    col = "W1" if where.startswith("1,") else "X"
    if cell in NON_FINITE:
        message = f"cell is not finite at (row 40, col {col}): {float(cell)!r}"
    elif cell in REJECTED:
        message = f"cell is not numeric at (row 40, col {col}): {cell!r}"
    else:
        assert got[0] == "ok"
        return
    assert got == ("error", message, 40, col)


def test_repeated_selection_reads_each_column_once_per_row(tmp_path):
    path = _write(tmp_path, "X,W\n1,2\n3,4\n5,6\n")
    sample = cli.read_csv(path, "X", ["W", "W"])
    assert sample.n_rows == 3
    assert sample.factors.tolist() == [[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]]
    sample = cli.read_csv(path, "X", ["X"])
    assert sample.factors[:, 0].tolist() == [1.0, 3.0, 5.0]


def test_read_csv_peak_memory_is_a_few_times_the_file(tmp_path):
    rng = np.random.default_rng(3)
    T = 50_000
    w1 = (rng.integers(0, 2000, T) - 1000) / 100
    w2 = rng.integers(0, 8, T) - 3.5
    loss = 0.3 * w1 + 0.8 * w2 + rng.standard_normal(T)
    lines = ["date,X,W1,W2"] + [f"d{i:06d},{x!r},{a!r},{b!r}" for i, (x, a, b)
                                in enumerate(zip(loss.tolist(), w1.tolist(), w2.tolist()))]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        sample = cli.read_csv(path, "X", ["W1", "W2"], ("date",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n_rows == T
    assert peak < 8 * path.stat().st_size


# ------------------------------------------------------------------ writers

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_heatmap_of_a_zero_loss_writes_nan_diffs(tmp_path):
    # a zero loss fits to zero coefficients and sigma: every rho is 0 and diff is 0 / 0
    path = _write(tmp_path, "X,W1\n0,0\n0,1\n0,0\n0,1\n0,2\n")
    code, out, err = _cli(["heatmap", "--data", str(path), "--target", "X", "--p", "0.9,0.95",
                           "--q", "0.5,0.7", "--plain-var", "empirical"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.splitlines()[0] == "p,q,rho_factor,rho_plain,diff"
    p, q, rho_factor, rho_plain, diff = np.loadtxt(io.StringIO(out), delimiter=",",
                                                   skiprows=1).T
    assert p.tolist() == [0.9, 0.9, 0.95, 0.95] and q.tolist() == [0.5, 0.7, 0.5, 0.7]
    assert rho_factor.tolist() == rho_plain.tolist() == [0.0] * 4 and np.isnan(diff).all()


@pytest.mark.parametrize("argv, spec", [
    (["--beta", "1.0,-0.5,0.3", "--sigma", "0.8"],
     GaussianFactorSpec(np.zeros(3), np.eye(3))),
    (["--beta0", "0.1", "--beta", "0.5", "--discrete-values=-1,0,1,2"],
     DiscreteFactorSpec(np.array([-1.0, 0.0, 1.0, 2.0]))),
])
def test_simulate_writes_what_csv_writer_writes(tmp_path, argv, spec):
    out = tmp_path / "sim.csv"
    n, seed = 70_001, 17  # more rows than one formatting chunk
    code, _, err = _cli(["simulate", *argv, "--n", str(n), "--seed", str(seed),
                         "--output", str(out)])
    assert code == cli.EXIT_OK, err
    parsed = cli.build_parser().parse_args(["simulate", *argv, "--n", "1"])
    sample = simulate(parsed.beta0, cli._floats(parsed.beta), parsed.sigma, spec, n, seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([sample.loss_name, *sample.factor_names])
    for i in range(sample.n_rows):
        writer.writerow([cli._fmt9(sample.loss[i]), *(cli._fmt9(v) for v in sample.factors[i])])
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("values", [
    np.array([0.1, -0.0, 0.0, 1e-300, 1.0 / 3.0, 2.5e17, 0.1, -0.0]),
    np.array([[0.25, 0.75], [1.0, 0.0]]),
    np.zeros((2, 0)),
    np.array([]),
    np.array([np.nan, np.inf, -np.inf, 1.5]),
])
def test_json_floats_equals_json_dumps(values):
    for depth in (0, 1, 2):
        expected = json.dumps(values.tolist(), indent=2).replace("\n", "\n" + "  " * depth)
        assert cli._json_floats(values, depth) == expected


def test_share_report_is_indented_json(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["X,W"] + [f"{x!r},{w}" for x, w in zip(rng.standard_normal(300).tolist(),
                                                    rng.integers(0, 3, 300).tolist())]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    code, out, err = _cli(["share", "--data", str(path), "--target", "X",
                           "--agents", "var-var:p=0.9,q=0.5@W;mean-es:p=0.8@W"])
    assert code == cli.EXIT_OK, err
    payload = json.loads(out)
    assert list(payload) == ["value", "agents", "breakpoints", "slopes"]
    assert len(payload["slopes"]) == 2 and len(payload["breakpoints"]) == 300
    assert out == json.dumps(payload, indent=2) + "\n"


# ------------------------------------------------------------------ grouping

def _partition_reference(sample):
    """One scenario per distinct factor row via np.unique(axis=0)."""
    rows = np.flatnonzero(sample.weights > 0)
    uniq, inverse = np.unique(sample.factors[rows], axis=0, return_inverse=True)
    out = []
    for i in range(uniq.shape[0]):
        members = rows[inverse.reshape(-1) == i]
        label = tuple(uniq[i]) if uniq.shape[1] > 1 else float(uniq[i, 0])
        out.append((label, members, float(sample.weights[members].sum())))
    return out


def _bits(label):
    return np.asarray(label, dtype=float).tobytes(), type(label)


def _assert_family_is_per_scenario(sample, partition):
    family = from_sample(sample, partition)
    assert family.labels == partition.labels
    pis = []
    for scen, law in zip(partition.scenarios, family.laws):
        w = sample.weights[scen.rows]
        pis.append(w.sum())
        ref = StepCDF.from_values(sample.loss[scen.rows], w)
        assert law.support.tobytes() == ref.support.tobytes()
        assert law.cum.tobytes() == ref.cum.tobytes()
    assert family.pis.tobytes() == np.array(pis).tobytes()


def _discrete_sample(rng, T, n_fac, values, zero_weights, zeros):
    factors = (rng.integers(0, values, (T, n_fac)) - values // 2) / 4
    # losses on a coarse grid, so atoms hold many rows with unequal weights
    loss = np.round(rng.standard_normal(T), 1)
    if zeros != "positive":
        flip = rng.random((T, n_fac)) < (0.5 if zeros == "mixed" else 1.0)
        factors[flip & (factors == 0)] = -0.0
        loss[(loss == 0) & (rng.random(T) < 0.5)] = -0.0
    weights = rng.random(T) + 0.1
    if zero_weights:
        weights[rng.random(T) < 0.3] = 0.0
    return JointSample(loss, factors, weights)


@pytest.mark.parametrize("n_fac, values", [(1, 8), (1, 2000), (2, 3), (3, 2), (2, 45)])
@pytest.mark.parametrize("zero_weights", [False, True])
@pytest.mark.parametrize("zeros", ["positive", "negative", "mixed"])
def test_partition_discrete_and_from_sample_equal_their_definitions(
        n_fac, values, zero_weights, zeros):
    rng = np.random.default_rng(values * 10 + n_fac + 2 * zero_weights + len(zeros))
    T = 20_000 if values == 2000 else 3_000
    sample = _discrete_sample(rng, T, n_fac, values, zero_weights, zeros)
    partition = partition_discrete(sample)
    ref = _partition_reference(sample)
    assert len(partition.scenarios) == len(ref)
    for scen, (label, members, weight) in zip(partition.scenarios, ref):
        assert _bits(scen.label) == _bits(label)
        assert np.array_equal(scen.rows, members)
        assert scen.weight == weight
    _assert_family_is_per_scenario(sample, partition)


@pytest.mark.parametrize("n_groups", [7, 2**16, 2**16 + 3])
def test_group_keeps_row_order_within_groups(n_groups):
    rng = np.random.default_rng(n_groups)
    inverse = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, 3 * n_groups)])
    rows = rng.permutation(inverse.size) * 2
    grouped, offsets = core._cells([inverse], [n_groups])
    groups = np.split(rows[grouped], offsets[1:-1])
    order = np.argsort(inverse, kind="mergesort")
    ends = np.cumsum(np.bincount(inverse, minlength=n_groups))
    assert len(groups) == n_groups and offsets[-1] == inverse.size
    for got, want in zip(groups, np.split(rows[order], ends[:-1])):
        assert np.array_equal(got, want)


def test_quantile_box_families_equal_their_definition():
    rng = np.random.default_rng(11)
    sample = simulate(0.1, [1.0, -0.5, 0.3], 0.8, GaussianFactorSpec(np.zeros(3), np.eye(3)),
                      n=20_000, seed=11)
    weighted = JointSample(np.round(sample.loss, 1), sample.factors, rng.random(20_000))
    for s in (sample, weighted):
        _assert_family_is_per_scenario(s, partition_quantile_boxes(s, 8))


def test_from_sample_of_small_and_large_scenarios_equals_its_definition():
    # weighted scenarios of 1 to about 1500 rows, with zero-weight rows
    rng = np.random.default_rng(50)
    sample = _discrete_sample(rng, 6_000, 1, 60, True, "mixed")
    factors = np.where(np.arange(6_000) < 1500, 99.0, sample.factors[:, 0])
    sample = JointSample(sample.loss, factors, sample.weights)
    partition = partition_discrete(sample)
    assert min(s.rows.size for s in partition.scenarios) < 50 < 1000 < max(
        s.rows.size for s in partition.scenarios)
    _assert_family_is_per_scenario(sample, partition)


def test_from_sample_drops_zero_weight_rows_inside_scenarios():
    rng = np.random.default_rng(12)
    T = 5_000
    weights = rng.random(T) * (rng.random(T) < 0.6)
    sample = JointSample(np.round(rng.standard_normal(T), 1), rng.integers(0, 3, T), weights)
    groups = [np.flatnonzero(np.arange(T) % 7 == k) for k in range(7)]
    partition = ScenarioPartition(tuple(
        Scenario(k, rows, float(sample.weights[rows].sum())) for k, rows in enumerate(groups)))
    _assert_family_is_per_scenario(sample, partition)


def test_partition_disjointness_and_range_checks():
    with pytest.raises(ValidationError, match="disjoint"):
        ScenarioPartition((Scenario(0.0, np.array([5, 1]), 0.5),
                           Scenario(1.0, np.array([2, 5, 3]), 0.5)))
    sample = JointSample(np.arange(4.0), np.array([0.0, 0.0, 1.0, 1.0]))
    for rows in ([-1, 1], [2, 4]):
        partition = ScenarioPartition((Scenario(0.0, np.array([0, 3]), 0.5),
                                       Scenario(1.0, np.array(rows), 0.5)))
        with pytest.raises(ValidationError, match="out of range"):
            from_sample(sample, partition)
