"""The profile rows a custom callable receives from ``core._sweep``.

The engine sweeps the first G points of a family's own merged support.
A custom distortion sees whole profile matrices in S = ceil(G / step)
calls for chunks of ``step`` rows: call j gets the grid rows j, j + S,
j + 2S, ..., ceil((G - j) / S) of them.  Every matrix it receives, put
back on its grid rows (call j's row i on row j + iS), must equal
``1 - cdf_matrix(family, grid)`` element for element, and be
C-contiguous, so that a callable's bits do not depend on how the rows were
built.  A row callable's Choquet value equals the dense formula bit for
bit; a vectorized one whose BLAS product gives a row different last bits
by its place in the batch is within 1e-12 of it.  An empty grid calls
nothing.

A custom predicate is read on exact rows only: one matrix of the block
anchor rows and the last row, then at most ceil(log2 block) + 1 single
rows of the block that holds the change.  Every matrix it receives is
C-contiguous, each of its rows equals the ``cdf_matrix(family, grid)`` row
of a grid point, and the values equal the predicate on the dense matrix.
A predicate gets a copy of each matrix, so one that writes into it finds
the same value as one that only reads it.  A predicate that is not upward
closed gets a row it accepts whose row below it rejects (or row 0).  A
predicate builds no dense chunk (a spy on ``core._dense``).

Each sweep runs at G = m and G = m - 1 for a merged support of m points.
The families are each family on its own support and the family with its
atoms moved up onto a coarse subset of its support (several atoms of one
scenario merge on one point) or onto points between its atoms: at each
point that receives an atom, a moved family's CDF is the family's, so its
rows must equal the family's own CDF at those points.  Chunks of 1 to 4
rows (``DENSE_CHUNK_BYTES`` patched, read through ``core._chunk_rows`` by
the engine and the spot check of ``psi_custom`` and ``pred_custom`` alike)
and the default size
are covered, and for predicates blocks of 1 to 4 rows
(``MIN_SWEEP_BLOCK`` patched) and the default; the families range from 5
hand-built scenarios, some with their first atom late on the grid, to
more than 2,000 quantile boxes.  The chunks are built in one state matrix
that carries over from call to call, and the callable gets a copy of it:
a callable that writes into its matrix (the "scatter" cases), reads it
through its transpose (the "transposed" cases) or returns a view of it
must still see and give the per-cell values.

A vectorized callable's calls run in ranges on helper threads, so they
come in any order: the tests that put the calls back on their grid rows
by call order run at one usable CPU (``one_cpu``), and
``TestDenseOnEveryCore`` checks the ranges at 2 and 4 CPUs.
"""

import math
import threading

import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    GaussianFactorSpec,
    JointSample,
    StepCDF,
    ValidationError,
    choquet_factor,
    from_sample,
    inf_convolution,
    partition_quantile_boxes,
    pred_custom,
    psi_custom,
    psi_mean_of_es,
    quantile_factor,
    simulate,
)
from factorrisk import core
from factorrisk.core import _sweep
from oracles import cdf_matrix, dense_choquet, dense_quantile


def _law(support, masses):
    cum = np.cumsum(masses) / np.sum(masses)
    return StepCDF(np.asarray(support, dtype=float), cum)


@pytest.fixture(scope="module")
def gapped_family():
    laws = [
        _law(np.arange(1.0, 9.0), [1, 2, 1, 3, 1, 1, 2, 1]),
        _law([5.5, 9.0, 30.0], [2, 1, 1]),   # first atom late on the grid
        _law([0.25], [1]),                    # one atom below every other
        _law([2.5, 2.6, 2.7, 2.8, 20.0, 21.0], [1, 1, 1, 1, 3, 1]),  # a cluster
        _law([-3.0, 40.0], [1, 3]),
    ]
    return ConditionalLawFamily(np.array([0.3, 0.2, 0.1, 0.25, 0.15]), tuple(laws))


def _boxes(n, decimals):
    """64 quantile boxes of a weighted sample whose rounded losses tie."""
    spec = GaussianFactorSpec(np.zeros(3), np.eye(3))
    base = simulate(0.1, (1.0, -0.5, 0.3), 0.8, spec, n=n, seed=11)
    weights = np.random.default_rng(3).integers(0, 4, base.n_rows).astype(float)
    sample = JointSample(np.round(base.loss, decimals), base.factors, weights)
    family = from_sample(sample, partition_quantile_boxes(sample, 4))
    assert family.n_scenarios == 64
    return family


@pytest.fixture(scope="module")
def box_family():
    return _boxes(6000, 2)


@pytest.fixture(scope="module")
def many_family():
    """3 ** 7 quantile boxes of a few rows each, most of them occupied."""
    spec = GaussianFactorSpec(np.zeros(7), np.eye(7))
    sample = simulate(0.1, (1.0, -0.5, 0.3, 0.2, -0.1, 0.4, 0.6), 0.8, spec, n=8000, seed=5)
    family = from_sample(sample, partition_quantile_boxes(sample, 3))
    assert family.n_scenarios > 2000
    return family


def _on_grid(family, grid):
    """``family`` with each atom moved up to the first point of ``grid`` at or
    above it (its top atom at most ``grid[-1]``): at every point that
    receives an atom, its CDF is the family's, bit for bit."""
    laws = []
    for law in family.laws:
        to = np.searchsorted(grid, law.support)
        last = np.append(to[1:] != to[:-1], True)  # of the atoms on one point, the last
        laws.append(StepCDF(grid[to[last]], law.cum[last]))
    return ConditionalLawFamily(family.pis, tuple(laws))


def _families(family, every=1):
    """Families to sweep, by name: ``family`` on its own support (or moved up
    onto every ``every``-th point of it), and moved up onto a coarse subset
    of those points or onto points between them and above them."""
    support = family.merged_support()
    points = np.append(support[:-1:every], support[-1])
    mids = (points[1:] + points[:-1]) / 2
    return {
        "support": family if every == 1 else _on_grid(family, points),
        "coarse": _on_grid(family, np.append(points[:-1:7], points[-1])),
        "off-atom": _on_grid(family, np.append(mids[::3], points[-1] + 1.0)),
    }


def _sizes(family):
    """The sweep lengths G = m and m - 1 on a merged support of m points."""
    m = family._grid[0].size
    return m, m - 1


def _recorded(family, make, fn_of, G, vectorized):
    """(a copy of every matrix the callable received, in order; the output)."""
    seen = []

    def record(Y, pi):
        Y = np.asarray(Y)
        assert Y.flags.c_contiguous
        seen.append(np.array(Y, ndmin=2))
        return fn_of(Y, pi)

    fn = make(record, family.n_scenarios, vectorized=vectorized)
    seen.clear()  # the constructor's spot checks
    return seen, _sweep(family, fn, G)


def _mean(Y, pi):
    return np.asarray(Y) @ pi


def _half_at_median(F, pi):
    return (np.asarray(F) >= 0.5) @ pi >= 0.5


def _block_rows(monkeypatch, family, rows):
    if rows is not None:
        monkeypatch.setattr(core, "MIN_SWEEP_BLOCK", rows)
    return max(family.n_scenarios, core.MIN_SWEEP_BLOCK)


def _assert_exact_rows(seen, F, block):
    """The matrices a predicate received: the block anchors and the last
    row of ``F``, then a few single rows of ``F``."""
    G = len(F)
    assert np.array_equal(seen[0], F[np.append(np.arange(0, G, block), G - 1)])
    assert len(seen) - 1 <= math.ceil(math.log2(block)) + 1
    for row in seen[1:]:
        assert row.shape == (1, F.shape[1]) and (F == row).all(axis=1).any()


def _chunk_rows(monkeypatch, family, rows):
    if rows is not None:
        monkeypatch.setattr(core, "DENSE_CHUNK_BYTES", rows * 64 * family.n_scenarios)
    return core._chunk_rows(family.n_scenarios)


def _visit_order(G, step):
    """The grid row of each profile row a distortion receives, in order:
    call j of S = ceil(G / step) gets rows j, j + S, j + 2S, ..."""
    S = -(-G // step)
    return np.concatenate([np.arange(j, G, S) for j in range(S)])


def _interleaved(seen, step):
    """The matrices a distortion received, put back on their grid rows,
    once their count is S = ceil(G / step) and call j's rows ceil((G - j) / S)."""
    G = sum(len(m) for m in seen)
    S = -(-G // step)
    assert [len(m) for m in seen] == [-(-(G - j) // S) for j in range(S)]
    rows = np.empty((G, seen[0].shape[1]))
    rows[_visit_order(G, step)] = np.vstack(seen)
    return rows


def _spy(monkeypatch, name):
    """Patch ``core.<name>`` with a spy that counts its calls."""
    calls, target = [], getattr(core, name)

    def counted(*args):
        calls.append(None)
        return target(*args)
    monkeypatch.setattr(core, name, counted)
    return calls


def _scattering_mean(Y, pi):
    """The mean of the rows, then other values scattered into the matrix."""
    value = Y @ pi
    Y[:, ::2] = -1.0
    Y[::3] = 2.0
    return value


def _transposed_mean(Y, pi):
    """The mean of the rows, read through the matrix's transpose."""
    return pi @ Y.T


# the two ways a callable here treats the matrix it receives
MATRIX_ROUTES = {"scatter": _scattering_mean, "transposed": _transposed_mean}


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU: a custom distortion's calls come in the order j = 0, 1, ...,
    which the tests that put them back on their grid rows by call read."""
    monkeypatch.setattr(core, "_cpus", lambda: 1)


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("rows", [1, 2, 3, 4, None])
@pytest.mark.parametrize("grid_name", ["support", "coarse", "off-atom"])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family"])
class TestProfileRows:
    def test_distortion_sees_survival_rows(self, request, monkeypatch, family_name,
                                           grid_name, rows):
        family = request.getfixturevalue(family_name)
        swept = _families(family)[grid_name]
        step = _chunk_rows(monkeypatch, family, rows)
        for G in _sizes(swept):
            seen, out = _recorded(swept, psi_custom, _mean, G, vectorized=True)
            grid = swept.merged_support()[:G]
            assert np.array_equal(_interleaved(seen, step), 1.0 - cdf_matrix(family, grid))
            assert out.shape == (G,)

    def test_predicate_sees_cdf_rows(self, request, monkeypatch, family_name,
                                     grid_name, rows):
        # a predicate takes no chunks: ``rows`` is the smallest block here
        family = request.getfixturevalue(family_name)
        swept = _families(family)[grid_name]
        block = _block_rows(monkeypatch, family, rows)
        for G in _sizes(swept):
            seen, out = _recorded(swept, pred_custom, _half_at_median, G, vectorized=True)
            F = cdf_matrix(family, swept.merged_support()[:G])
            _assert_exact_rows(seen, F, block)
            assert np.array_equal(out, _half_at_median(F, family.pis))


@pytest.mark.parametrize("rows", [1, 3, None])
def test_row_callable_sees_survival_rows(gapped_family, monkeypatch, rows):
    # one call per row, in the order of the chunks' rows
    step = _chunk_rows(monkeypatch, gapped_family, rows)
    for G in _sizes(gapped_family):
        seen, out = _recorded(gapped_family, psi_custom, _mean, G, vectorized=False)
        expected = 1.0 - cdf_matrix(gapped_family, gapped_family.merged_support()[:G])
        assert np.array_equal(np.vstack(seen), expected[_visit_order(G, step)])
        assert np.array_equal(out, np.array([float(y @ gapped_family.pis) for y in expected]))


@pytest.mark.usefixtures("one_cpu")
def test_default_chunks_split_a_long_grid():
    family = _boxes(30_000, 4)
    grid = family.merged_support()
    step = core._chunk_rows(family.n_scenarios)
    assert grid.size > 2 * step  # several full chunks at the default size
    seen, _ = _recorded(family, psi_custom, _mean, grid.size, vectorized=True)
    assert len(seen) == -(-grid.size // step)
    assert np.array_equal(_interleaved(seen, step), 1.0 - cdf_matrix(family, grid))


def test_single_point_grids(gapped_family):
    # one row: the whole of a one-point support, or the first of two points
    for grid in ([100.0], [2.65, 100.0], [0.25, 40.0]):
        family = _on_grid(gapped_family, np.array(grid))
        seen, _ = _recorded(family, psi_custom, _mean, 1, vectorized=True)
        assert np.array_equal(np.vstack(seen), 1.0 - cdf_matrix(gapped_family, grid[:1]))


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("route", list(MATRIX_ROUTES))
@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("family_name, every", [("gapped_family", 1), ("box_family", 1),
                                                ("many_family", 8)])
def test_each_route_builds_every_chunk(request, monkeypatch, family_name, every, rows, route):
    # the state the chunks are built in survives a callable that writes into
    # its matrix; a predicate on the same grid builds no chunk
    family = request.getfixturevalue(family_name)
    dense = _spy(monkeypatch, "_dense")
    step = _chunk_rows(monkeypatch, family, rows)
    swept = _families(family, every).values()
    for moved in swept:
        for G in _sizes(moved):
            F = cdf_matrix(family, moved.merged_support()[:G])
            seen, _ = _recorded(moved, psi_custom, MATRIX_ROUTES[route], G, vectorized=True)
            assert np.array_equal(_interleaved(seen, step), 1.0 - F)
            built = len(dense)
            seen, out = _recorded(moved, pred_custom, _half_at_median, G, vectorized=True)
            assert len(dense) == built  # a predicate builds no chunk
            _assert_exact_rows(seen, F, max(family.n_scenarios, core.MIN_SWEEP_BLOCK))
            assert np.array_equal(out, _half_at_median(F, family.pis))
    assert len(dense) == 2 * len(swept)


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family", "many_family"])
def test_predicate_value_equals_the_dense_first_hit(request, monkeypatch, family_name, rows):
    family = request.getfixturevalue(family_name)
    _block_rows(monkeypatch, family, rows)
    monkeypatch.setattr(core, "_dense", None)  # a predicate never takes the dense route
    pred = pred_custom(_half_at_median, family.n_scenarios, vectorized=True)
    assert quantile_factor(family, pred) == dense_quantile(family, pred)


@pytest.fixture(scope="module")
def nine_boxes():
    spec = GaussianFactorSpec(np.zeros(2), np.eye(2))
    sample = simulate(0.1, (1.0, -0.5), 0.8, spec, n=3000, seed=1)
    return from_sample(sample, partition_quantile_boxes(sample, 3))


def _zeroing(U, pi):
    """``_half_at_median``, which then zeroes the matrix (or row) it received."""
    accepted = _half_at_median(U, pi)
    U[...] = 0.0
    return accepted


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("rows", [1, 4, None])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family", "nine_boxes"])
def test_a_predicate_may_write_into_its_matrix(request, monkeypatch, family_name, rows,
                                               vectorized):
    # each probe row is handed over as a copy, so the bisection's next base row is intact
    family = request.getfixturevalue(family_name)
    _block_rows(monkeypatch, family, rows)
    reads = pred_custom(_half_at_median, family.n_scenarios, vectorized=vectorized)
    writes = pred_custom(_zeroing, family.n_scenarios, vectorized=vectorized)
    want = dense_quantile(family, reads)
    assert quantile_factor(family, writes) == quantile_factor(family, reads) == want
    if family_name == "nine_boxes":
        assert want == 0.13018120509753872


@pytest.mark.parametrize("rows", [1, 2, None])
def test_a_predicate_not_upward_closed_gets_an_accepted_row_above_a_rejected_one(
        gapped_family, monkeypatch, rows):
    # accepts where scenario 0's CDF is exactly 7/12 (no random pair of the
    # spot check hits it), rejects above that, and accepts all ones
    def accept(U, pi):
        return (U >= 1.0).all(axis=1) | (U[:, 0] == 7 / 12)

    _block_rows(monkeypatch, gapped_family, rows)
    grid = gapped_family.merged_support()
    accepted = accept(cdf_matrix(gapped_family, grid), None)
    k = np.flatnonzero(accepted)[0]
    assert accepted[k] and not accepted[k + 1:].all() and accepted[-1]  # accept, reject, accept
    pred = pred_custom(accept, gapped_family.n_scenarios, vectorized=True)
    out = _sweep(gapped_family, pred, grid.size)
    hit = np.flatnonzero(out)[0]
    assert out[hit:].all() and accepted[hit] and (hit == 0 or not accepted[hit - 1])
    assert quantile_factor(gapped_family, pred) == grid[hit]


def _first_column_after_scattering(V, pi):
    V[:, 1:] = -1.0
    return V[:, 0]


# a callable may return a view of its matrix: a column of it after writing
# into the rest, or a row of its transpose
FIRST_COLUMN = {"scatter": _first_column_after_scattering, "transposed": lambda V, pi: V.T[0]}


@pytest.mark.parametrize("route", list(FIRST_COLUMN))
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family"])
def test_a_view_of_the_rows_outlives_its_chunk(request, monkeypatch, family_name, route):
    # the matrix is valid only during the call; the returned view is copied out in time
    family = request.getfixturevalue(family_name)
    _chunk_rows(monkeypatch, family, 2)
    psi = psi_custom(FIRST_COLUMN[route], family.n_scenarios, vectorized=True)
    xs = family.merged_support()
    first = np.ascontiguousarray(1.0 - cdf_matrix(family, xs[:-1])[:, 0])
    assert np.array_equal(_sweep(family, psi, xs.size - 1), first)
    assert choquet_factor(family, psi) == xs[0] + first @ np.diff(xs)


def _es_mean(t):
    def psi(V, pi):
        return (np.minimum(V, t) / t) @ pi
    return psi


def _es_mean_in_place(t):
    def psi(V, pi):  # writes min(V, t) / t into its matrix
        np.minimum(V, t, out=V)
        V /= t
        return V @ pi
    return psi


@pytest.mark.parametrize("rows", [1, 2, 3, 4, None])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family", "many_family"])
def test_custom_choquet_values_equal_the_dense_formula(request, monkeypatch, family_name, rows):
    # a row callable bit for bit; a vectorized one, whose BLAS product may give
    # a row other last bits by its place in the batch, within 1e-12, also one
    # that writes into its matrix
    family = request.getfixturevalue(family_name)
    _chunk_rows(monkeypatch, family, rows)
    n = family.n_scenarios
    row = psi_custom(lambda v, pi: float((np.minimum(v, 0.1) / 0.1) @ pi), n, check_pairs=20)
    assert choquet_factor(family, row) == dense_choquet(family, row)
    for make in (_es_mean, _es_mean_in_place):
        psi = psi_custom(make(0.1), n, vectorized=True)
        assert abs(choquet_factor(family, psi) - dense_choquet(family, psi)) <= 1e-12


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_callable_that_writes_into_its_rows_sees_the_dense_rows(gapped_family, monkeypatch,
                                                                  vectorized):
    def scribble(Y, pi):
        value = Y @ pi
        Y[...] = -1.0
        return value

    step = _chunk_rows(monkeypatch, gapped_family, 2)
    for G in _sizes(gapped_family):
        seen, out = _recorded(gapped_family, psi_custom, scribble, G, vectorized=vectorized)
        expected = 1.0 - cdf_matrix(gapped_family, gapped_family.merged_support()[:G])
        if vectorized:
            assert np.array_equal(_interleaved(seen, step), expected)
        else:
            assert np.array_equal(np.vstack(seen), expected[_visit_order(G, step)])
        assert np.allclose(out, expected @ gapped_family.pis, rtol=0.0, atol=1e-15)


def test_the_spot_check_hands_copies_in_engine_chunks():
    # the pairs are the former ones, the lower profiles a draw of
    # (check_pairs, n) values after the random weights and the upper ones
    # the next draw added and capped at 1, but the callable sees them chunk
    # by chunk, in chunks of the engine's size: a chunk's lower rows, as a
    # copy it may write into, then the same chunk's upper rows
    n, pairs = 300, 1000
    step = core._chunk_rows(n)
    assert step < pairs
    seen = []

    def scribble(Y, pi):
        seen.append(np.array(Y))
        value = (np.minimum(Y, 0.1) / 0.1) @ pi
        Y[...] = -1.0
        return value

    psi_custom(scribble, n, vectorized=True, check_pairs=pairs)
    rng = core._rng(0)
    rng.random(n)  # the random weights
    chunks = -(-pairs // step)
    for i in range(2):
        lower = rng.random((pairs, n))
        upper = np.minimum(lower + rng.random((pairs, n)), 1.0)
        got = seen[i * (2 + 2 * chunks):(i + 1) * (2 + 2 * chunks)]
        assert np.array_equal(got[0], np.zeros((1, n))) and np.array_equal(got[1], np.ones((1, n)))
        assert all(len(m) <= step for m in got[2:])
        assert [len(m) for m in got[2::2]] == [len(m) for m in got[3::2]]
        assert np.array_equal(np.vstack(got[2::2]), lower)
        assert np.array_equal(np.vstack(got[3::2]), upper)
    assert len(seen) == 2 * (2 + 2 * chunks)


def test_the_predicate_spot_check_hands_copies_in_engine_chunks():
    # one weighting, the uniform one: the lower profiles are the seed's first
    # (check_pairs, n) draw and the upper ones the next draw added and capped
    # at 1, handed chunk by chunk, a chunk's lower rows as a copy
    n, pairs, seed = 300, 1000, 5
    step = core._chunk_rows(n)
    assert step < pairs
    seen = []

    def scribble(U, pi):
        seen.append(np.array(U))
        accepted = _half_at_median(U, pi)
        U[...] = -1.0
        return accepted

    pred_custom(scribble, n, vectorized=True, check_pairs=pairs, seed=seed)
    rng = core._rng(seed)
    lower = rng.random((pairs, n))
    upper = np.minimum(lower + rng.random((pairs, n)), 1.0)
    assert np.array_equal(seen[0], np.zeros((1, n))) and np.array_equal(seen[1], np.ones((1, n)))
    assert all(len(m) <= step for m in seen[2:])
    assert [len(m) for m in seen[2::2]] == [len(m) for m in seen[3::2]]
    assert np.array_equal(np.vstack(seen[2::2]), lower)
    assert np.array_equal(np.vstack(seen[3::2]), upper)


def test_the_spot_check_and_the_engine_read_the_patched_chunk_size(monkeypatch):
    # both take their chunk from core._chunk_rows when called, so with
    # DENSE_CHUNK_BYTES patched to 3 rows of n = 4 both hand 3 rows at a time
    n = 4
    monkeypatch.setattr(core, "DENSE_CHUNK_BYTES", 64 * n * 3)
    seen = []

    def record(Y, pi):
        seen.append(len(Y))
        return (np.minimum(Y, 0.1) / 0.1) @ pi

    psi = psi_custom(record, n, vectorized=True, check_pairs=10)
    # per weight: 0, 1, then each chunk's lower and upper rows
    assert seen == 2 * ([1, 1] + [3, 3, 3, 3, 3, 3, 1, 1])
    family = ConditionalLawFamily(np.full(n, 0.25),
                                  tuple(_law(np.arange(k, 40.0, n), np.ones(10)) for k in range(n)))
    seen.clear()
    _sweep(family, psi, 39)
    assert seen == 13 * [3]


@pytest.mark.parametrize("vectorized", [True, False])
def test_an_empty_grid_calls_nothing(gapped_family, vectorized):
    seen, out = _recorded(gapped_family, psi_custom, _mean, 0, vectorized=vectorized)
    assert seen == [] and out.shape == (0,) and out.dtype == float


def test_one_value_per_row_or_a_rejection(gapped_family, monkeypatch):
    # one value for a whole chunk, or for the anchor rows, would otherwise be
    # broadcast over its rows: the spot checks see the wrong shape and reject
    n = gapped_family.n_scenarios
    with pytest.raises(ValidationError, match="one value per profile row"):
        psi_custom(lambda V, pi: V[:, :1].max(axis=0), n, vectorized=True)
    with pytest.raises(ValidationError, match="one value per profile row"):
        pred_custom(lambda U, pi: (U >= 0.5).all(axis=1)[:1], n, vectorized=True)
    # right on as many rows as the spot checks pass, too few on a longer
    # chunk (2,000 grid rows) or on more anchor rows (blocks of n rows)
    psi = psi_custom(lambda V, pi: V.max(axis=1)[:1000], n, vectorized=True)
    points = np.linspace(-5.0, 45.0, 2000)
    wide = ConditionalLawFamily(gapped_family.pis,
                                tuple(_law(points[k::n], np.ones(400)) for k in range(n)))
    with pytest.raises(ValidationError, match="one value per profile row"):
        _sweep(wide, psi, points.size)
    pred = pred_custom(lambda U, pi: (U >= 0.5).all(axis=1)[:2], n, vectorized=True,
                       check_pairs=2)
    monkeypatch.setattr(core, "MIN_SWEEP_BLOCK", 1)
    with pytest.raises(ValidationError, match="one value per profile row"):
        quantile_factor(gapped_family, pred)


@pytest.fixture(scope="module")
def wide_family():
    """512 quantile boxes (3 factors at 8 bins), the shape of the benchmark's
    custom-distortion job at a tenth of its rows."""
    spec = GaussianFactorSpec(np.zeros(3), np.eye(3))
    sample = simulate(0.1, (1.0, -0.5, 0.3), 0.8, spec, n=5000, seed=1)
    family = from_sample(sample, partition_quantile_boxes(sample, 8))
    assert family.n_scenarios == 512
    return family


def _threads_after(call):
    """``call()``'s result, checking that it left no thread running."""
    before = threading.active_count()
    result = call()
    assert threading.active_count() == before
    return result


def _at_cpus(monkeypatch, cpus, call):
    """``call()`` with ``cpus`` usable CPUs, leaving no thread running."""
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    return _threads_after(call)


class TestDenseOnEveryCore:
    """A vectorized custom distortion's calls run in contiguous ranges of
    chunks on the calling thread and helper threads (``core._map``), one
    range per usable CPU, each from its own state.  At 2 and 4 patched CPUs
    (one and three helpers on any host), with ``_MIN_RANGE_CHUNKS`` patched
    to 1 so that small sweeps spread too, every output is the one-CPU
    output bit for bit, each call still gets one strided chunk, and every
    helper has stopped when the sweep returns.  A row callable, and a sweep
    of fewer than two ranges of ``_MIN_RANGE_CHUNKS`` chunks, stay on the
    calling thread."""

    CPUS = [2, 4]

    @pytest.fixture(autouse=True)
    def every_range(self, monkeypatch):
        monkeypatch.setattr(core, "_MIN_RANGE_CHUNKS", 1)

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("family_name", ["gapped_family", "wide_family"])
    def test_bits_of_one_cpu(self, request, monkeypatch, family_name, rows, cpus):
        family = request.getfixturevalue(family_name)
        _chunk_rows(monkeypatch, family, rows)
        for make in (_es_mean, _es_mean_in_place):
            psi = psi_custom(make(0.1), family.n_scenarios, vectorized=True)
            for name, moved in _families(family).items():
                for G in _sizes(moved):
                    want = _at_cpus(monkeypatch, 1, lambda: _sweep(moved, psi, G))
                    got = _at_cpus(monkeypatch, cpus, lambda: _sweep(moved, psi, G))
                    assert got.tobytes() == want.tobytes(), (name, G)
                want = _at_cpus(monkeypatch, 1, lambda: choquet_factor(moved, psi))
                got = _at_cpus(monkeypatch, cpus, lambda: choquet_factor(moved, psi))
                assert got.hex() == want.hex(), name

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("family_name", ["gapped_family", "wide_family"])
    def test_sharing_bits_of_one_cpu(self, request, monkeypatch, family_name, cpus):
        # a custom agent beside a built-in one: value and slopes of one CPU
        family = request.getfixturevalue(family_name)
        _chunk_rows(monkeypatch, family, 2)
        agents = [(psi_custom(_es_mean(0.2), family.n_scenarios, vectorized=True), family),
                  (psi_mean_of_es(0.9), family)]
        x_law = family.mixture()
        want = _at_cpus(monkeypatch, 1, lambda: inf_convolution(x_law, agents))
        got = _at_cpus(monkeypatch, cpus, lambda: inf_convolution(x_law, agents))
        assert got[0].hex() == want[0].hex()
        assert got[1].slopes.tobytes() == want[1].slopes.tobytes()

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("family_name", ["gapped_family", "box_family"])
    def test_each_call_gets_one_strided_chunk(self, request, monkeypatch, family_name, rows,
                                              cpus):
        # the calls come in any order: each matrix equals the survival rows
        # j, j + S, j + 2S, ... of exactly one j, and each j comes once
        family = request.getfixturevalue(family_name)
        step = _chunk_rows(monkeypatch, family, rows)
        for moved in _families(family).values():
            for G in _sizes(moved):
                expected = 1.0 - cdf_matrix(family, moved.merged_support()[:G])
                seen, _ = _at_cpus(monkeypatch, cpus, lambda: _recorded(
                    moved, psi_custom, _scattering_mean, G, vectorized=True))
                S = -(-G // step)
                calls = [[j for j in range(S) if np.array_equal(m, expected[j::S])]
                         for m in seen]
                assert all(len(js) == 1 for js in calls)
                assert sorted(js[0] for js in calls) == list(range(S))

    @pytest.mark.parametrize("cpus", CPUS)
    def test_a_helper_error_raises_on_the_caller(self, gapped_family, monkeypatch, cpus):
        # the caller holds its first call of the sweep until a helper has
        # made one, which raises
        caller, hold, helper_called = threading.current_thread(), threading.Event(), \
            threading.Event()

        def fn(V, pi):
            if threading.current_thread() is caller:
                assert not hold.is_set() or helper_called.wait(60)
                return _mean(V, pi)
            helper_called.set()
            raise ValidationError("failed on a helper thread")

        psi = psi_custom(fn, gapped_family.n_scenarios, vectorized=True)  # on the caller
        _chunk_rows(monkeypatch, gapped_family, 1)
        hold.set()
        with pytest.raises(ValidationError, match="failed on a helper thread"):
            _at_cpus(monkeypatch, cpus, lambda: choquet_factor(gapped_family, psi))

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_what_stays_on_the_caller(self, gapped_family, monkeypatch, cpus, vectorized):
        # a row callable on every chunk of 1 row, and a vectorized one on a
        # one-chunk sweep; the sweeps give the bits of one CPU
        caller, threads = threading.current_thread(), set()

        def fn(V, pi):
            threads.add(threading.current_thread())
            return _mean(V, pi)

        psi = psi_custom(fn, gapped_family.n_scenarios, vectorized=vectorized)
        _chunk_rows(monkeypatch, gapped_family, 1 if not vectorized else 10**6)
        G = gapped_family._grid[0].size
        want = _at_cpus(monkeypatch, 1, lambda: _sweep(gapped_family, psi, G))
        threads.clear()
        got = _at_cpus(monkeypatch, cpus, lambda: _sweep(gapped_family, psi, G))
        assert threads == {caller}
        assert got.tobytes() == want.tobytes()

    def test_the_floor_keeps_short_sweeps_on_the_caller(self, gapped_family, monkeypatch):
        # two ranges need 2 * _MIN_RANGE_CHUNKS chunks: one fewer runs every
        # call on the caller; with that many, a helper takes a range (a caller
        # that takes one holds its first call until a helper has made one)
        caller, threads = threading.current_thread(), set()
        hold, helper_called = threading.Event(), threading.Event()

        def fn(V, pi):
            threads.add(threading.current_thread())
            if threading.current_thread() is not caller:
                helper_called.set()
            elif hold.is_set():
                assert helper_called.wait(60)
            return _mean(V, pi)

        psi = psi_custom(fn, gapped_family.n_scenarios, vectorized=True)
        _chunk_rows(monkeypatch, gapped_family, 1)  # G calls of one row
        G = gapped_family._grid[0].size
        monkeypatch.setattr(core, "_MIN_RANGE_CHUNKS", G // 2 + 1)
        threads.clear()
        _at_cpus(monkeypatch, 4, lambda: _sweep(gapped_family, psi, G))
        assert threads == {caller}
        monkeypatch.setattr(core, "_MIN_RANGE_CHUNKS", G // 2)
        threads.clear()
        hold.set()
        _at_cpus(monkeypatch, 4, lambda: _sweep(gapped_family, psi, G))
        assert threads - {caller}
