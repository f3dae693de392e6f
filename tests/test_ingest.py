"""The vectorized ingest and grouping paths against their per-cell and
per-scenario definitions.

``read_csv`` parses plain files with one ``np.loadtxt`` and everything else
with a per-cell loop; both must give the same sample bits or the same
error.  ``simulate`` must write what ``csv.writer`` writes.  The grouping
of ``partition_discrete`` and the laws of ``from_sample`` must equal the
row-unique partition and ``StepCDF.from_values`` per scenario, bit for bit.
"""

import contextlib
import csv
import io
import json
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
from factorrisk import cli, conditioning, core
from factorrisk.core import Scenario, ScenarioPartition, StepCDF


# ------------------------------------------------------------------ read_csv

NAMES = ["A", "B", "C", " A", "B "]
# cells a plain file may hold: numbers np.loadtxt reads as float() does,
# and some it rejects (1_0) or that are not finite, which the loop decides
PLAIN_CELLS = ["-0", " 1.5 ", "\t3", "1e5", ".5", "5.", "+7", "\x1c4", "1_0", "nan", "inf",
               "1e400", "abc", ""]
CELLS = PLAIN_CELLS + ["0x10", '"2.5"', '"1,5"', "\u0661\u0662", "1 2", "Infinity", "-inf"]


@st.composite
def csv_files(draw):
    """Text of a small CSV and a column selection.  Half the files are
    plain (see cli._plain_rows), with LF or CRLF line ends; the rest may
    also hold quotes, bare CRs, blank lines, ragged rows, a BOM and
    non-ASCII digits."""
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


def test_plain_file_takes_the_loadtxt_route(tmp_path):
    path = _write(tmp_path, "date,X,W\nd1,1.5,2\nd2,-0.25,3\nd3,7,2\n")
    tables = []
    loadtxt = cli._loadtxt
    with mock.patch.object(cli, "_loadtxt", lambda *args: tables.append(loadtxt(*args))
                           or tables[-1]):
        sample = cli.read_csv(path, "X", skip=("date",))
    assert len(tables) == 1 and tables[0] is not None
    assert sample.loss.tolist() == [1.5, -0.25, 7.0]
    assert sample.factors[:, 0].tolist() == [2.0, 3.0, 2.0]


@pytest.mark.parametrize("text, rows", [
    ("X,W\n1,2\n3,4", 2),
    ("X,W\r\n1,2\r\n3,4\n", 2),     # CRLF line ends
    ("X,W\n", 0),
    ('X,W\n1,"2"\n', None),        # quote
    ("X,W\r1,2\n", None),          # CR alone
    ("X,W\n1,2\r\r\n", None),      # CR before CRLF
    ("X,W\n1,2\n\n3,4\n", None),   # blank line
    ("X,W\r\n\r\n3,4\n", None),   # blank CRLF line
    ("X,W\n1,2,\n", None),         # extra cell
    ("\ufeffX,W\n1,2\n", None),    # BOM
])
def test_plain_rows(text, rows):
    assert cli._plain_rows(text.encode("utf-8")) == rows


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


# ------------------------------------------------------------------ read_grid

def test_grid_with_nan_diff_round_trips_through_the_per_cell_loop(tmp_path):
    path = _write(tmp_path, "p,q,rho_factor,rho_plain,diff\n"
                            "0.9,0.5,1,0,nan\n0.9,0.7,2,1,1\n"
                            "0.95,0.5,3,0,nan\n0.95,0.7,4,2,1\n")
    grid = cli.read_grid(path)
    assert grid.p_values.tolist() == [0.9, 0.95]
    assert grid.q_values.tolist() == [0.5, 0.7]
    buf = io.StringIO()
    cli.write_grid(grid, buf)
    assert buf.getvalue() == path.read_text()


@pytest.mark.parametrize("text, message", [
    ("p,q\n", "expected header"),
    ("p,q,rho_factor,rho_plain,diff\n0.9,0.5,1,1\n", r"^ragged row \(row 1\)$"),
    ("p,q,rho_factor,rho_plain,diff\n0.9,x,1,1,0\n", r"^cell is not numeric at \(row 1, col q\)$"),
])
def test_grid_errors_keep_their_messages(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message):
        cli.read_grid(_write(tmp_path, text))


def test_unique_in_order_keeps_first_occurrences():
    values = np.array([0.9, 0.5, 0.9, 0.1, 0.5, 0.7, 0.1])
    assert cli._unique_in_order(values).tolist() == [0.9, 0.5, 0.1, 0.7]


# ------------------------------------------------------------------ writers

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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
    groups = conditioning._group(rows, inverse, n_groups)
    order = np.argsort(inverse, kind="mergesort")
    ends = np.cumsum(np.bincount(inverse, minlength=n_groups))
    assert len(groups) == n_groups
    for got, want in zip(groups, np.split(rows[order], ends[:-1])):
        assert np.array_equal(got, want)


def test_signed_zero_labels_follow_the_row_sort():
    # -0.0 == 0.0: the row-unique route decides which one labels the scenario
    factors = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 2.0], [0.0, 2.0]] * 20)
    sample = JointSample(np.arange(80.0), factors)
    partition = partition_discrete(sample)
    assert [_bits(s.label) for s in partition.scenarios] == \
        [_bits(label) for label, _, _ in _partition_reference(sample)]


def test_quantile_box_families_equal_their_definition():
    rng = np.random.default_rng(11)
    sample = simulate(0.1, [1.0, -0.5, 0.3], 0.8, GaussianFactorSpec(np.zeros(3), np.eye(3)),
                      n=20_000, seed=11)
    weighted = JointSample(np.round(sample.loss, 1), sample.factors, rng.random(20_000))
    for s in (sample, weighted):
        _assert_family_is_per_scenario(s, partition_quantile_boxes(s, 8))


@pytest.mark.parametrize("batch_rows", [1, 50, 700, 2**16])
def test_from_sample_batches_equal_their_definition(monkeypatch, batch_rows):
    # scenario sizes 1 to about 1500 rows: batches of one scenario, of many,
    # and scenarios larger than a batch
    monkeypatch.setattr(core, "_BATCH_ROWS", batch_rows)
    rng = np.random.default_rng(batch_rows)
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
