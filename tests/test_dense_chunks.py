"""The profile rows a custom callable receives from ``core._sweep``.

A custom distortion sees whole profile matrices, one chunk of consecutive
grid rows at a time.  Every matrix it receives, stacked in order, must
equal ``1 - cdf_matrix(family, grid)`` element for element, and be
C-contiguous, so that a callable's bits do not depend on how the rows were
built.

A custom predicate is read on exact rows only: one matrix of the block
anchor rows and the last row, then at most ceil(log2 block) + 1 single
rows of the block that holds the change.  Every matrix it receives is
C-contiguous, each of its rows equals the ``cdf_matrix(family, grid)`` row
of a grid point, and the values equal the predicate on the dense matrix.
A predicate that is not upward closed gets a row it accepts whose row
below it rejects (or row 0).

The grids cover the merged support, a coarse subset of it (several atoms
of one scenario on one grid row) and points below, between and above all
atoms.  Chunks of 1 to 4 rows (``DENSE_CHUNK_BYTES`` patched) and the
default size are covered, and for predicates blocks of 1 to 4 rows
(``MIN_SWEEP_BLOCK`` patched) and the default; in the hand-built family
some scenarios have their first atom several rows after a chunk's first
row, and some have no atom at all inside a chunk.

A chunk is built by one of two routes, chosen by its count of changed
cells against ``DENSE_SCATTER_SHARE``: a scatter of the atoms' runs into
the carried row, or the runs laid out one scenario per row and copied
transposed.  Patching the share to 1 sends every chunk to the scatter
route, and to -1 every chunk to the transposed one; each must give the
same matrices, also on a family of more than 2,000 scenarios.  The matrix
lives in one buffer that the next chunk overwrites, so a callable that
returns a view of it must still give the per-cell value.
"""

import math

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
    partition_quantile_boxes,
    pred_custom,
    psi_custom,
    quantile_factor,
    simulate,
)
from factorrisk import core
from factorrisk.core import _sweep
from oracles import cdf_matrix, dense_quantile


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


def _grids(family, every=1):
    support = family.merged_support()[::every]
    mids = (support[1:] + support[:-1]) / 2
    return {
        "support": support,
        "coarse": support[::7],
        "off-atom": np.concatenate([[support[0] - 1.0], mids[::3], [support[-1] + 1.0]]),
    }


def _recorded(family, make, fn_of, grid, vectorized):
    """(a copy of every matrix the callable received, in order; the output)."""
    seen = []

    def record(Y, pi):
        Y = np.asarray(Y)
        assert Y.flags.c_contiguous
        seen.append(np.array(Y, ndmin=2))
        return fn_of(Y, pi)

    fn = make(record, family.n_scenarios, vectorized=vectorized)
    seen.clear()  # the constructor's spot checks
    return seen, _sweep(family, fn, grid)


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
    return max(1, core.DENSE_CHUNK_BYTES // (64 * family.n_scenarios))


@pytest.mark.parametrize("rows", [1, 2, 3, 4, None])
@pytest.mark.parametrize("grid_name", ["support", "coarse", "off-atom"])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family"])
class TestProfileRows:
    def test_distortion_sees_survival_rows(self, request, monkeypatch, family_name,
                                           grid_name, rows):
        family = request.getfixturevalue(family_name)
        grid = _grids(family)[grid_name]
        step = _chunk_rows(monkeypatch, family, rows)
        seen, out = _recorded(family, psi_custom, _mean, grid, vectorized=True)
        assert [len(m) for m in seen[:-1]] == [step] * (len(seen) - 1)
        assert np.array_equal(np.vstack(seen), 1.0 - cdf_matrix(family, grid))
        assert out.shape == (grid.size,)

    def test_predicate_sees_cdf_rows(self, request, monkeypatch, family_name,
                                     grid_name, rows):
        # a predicate takes no chunks: ``rows`` is the smallest block here
        family = request.getfixturevalue(family_name)
        grid = _grids(family)[grid_name]
        block = _block_rows(monkeypatch, family, rows)
        seen, out = _recorded(family, pred_custom, _half_at_median, grid, vectorized=True)
        F = cdf_matrix(family, grid)
        _assert_exact_rows(seen, F, block)
        assert np.array_equal(out, _half_at_median(F, family.pis))


@pytest.mark.parametrize("rows", [1, 3, None])
def test_row_callable_sees_survival_rows(gapped_family, monkeypatch, rows):
    grid = _grids(gapped_family)["coarse"]
    _chunk_rows(monkeypatch, gapped_family, rows)
    seen, out = _recorded(gapped_family, psi_custom, _mean, grid, vectorized=False)
    expected = 1.0 - cdf_matrix(gapped_family, grid)
    assert np.array_equal(np.vstack(seen), expected)
    assert np.array_equal(out, np.array([float(y @ gapped_family.pis) for y in expected]))


def test_default_chunks_split_a_long_grid():
    family = _boxes(30_000, 4)
    grid = family.merged_support()
    step = max(1, core.DENSE_CHUNK_BYTES // (64 * family.n_scenarios))
    assert grid.size > 2 * step  # several full chunks at the default size
    seen, _ = _recorded(family, psi_custom, _mean, grid, vectorized=True)
    assert len(seen) == -(-grid.size // step)
    assert np.array_equal(np.vstack(seen), 1.0 - cdf_matrix(family, grid))


def test_single_point_grids(gapped_family):
    for x in (-10.0, 2.65, 100.0):
        grid = np.array([x])
        seen, _ = _recorded(gapped_family, psi_custom, _mean, grid, vectorized=True)
        assert np.array_equal(np.vstack(seen), 1.0 - cdf_matrix(gapped_family, grid))


# every chunk's count of changed cells lies in [0, its size]
ROUTE_SHARES = {"scatter": 1.0, "transposed": -1.0}


def _count_routes(monkeypatch, share):
    """Patch the route share; count the chunks each route builds."""
    calls = dict.fromkeys(ROUTE_SHARES, 0)
    for name in ROUTE_SHARES:
        route = getattr(core, f"_{name}_chunk")

        def counted(*args, _route=route, _name=name):
            calls[_name] += 1
            return _route(*args)
        monkeypatch.setattr(core, f"_{name}_chunk", counted)
    monkeypatch.setattr(core, "DENSE_SCATTER_SHARE", share)
    return calls


@pytest.mark.parametrize("route", list(ROUTE_SHARES))
@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("family_name, every", [("gapped_family", 1), ("box_family", 1),
                                                ("many_family", 8)])
def test_each_route_builds_every_chunk(request, monkeypatch, family_name, every, rows, route):
    family = request.getfixturevalue(family_name)
    calls = _count_routes(monkeypatch, ROUTE_SHARES[route])
    _chunk_rows(monkeypatch, family, rows)
    for grid in _grids(family, every).values():
        F = cdf_matrix(family, grid)
        seen, _ = _recorded(family, psi_custom, _mean, grid, vectorized=True)
        assert np.array_equal(np.vstack(seen), 1.0 - F)
        built = sum(calls.values())
        seen, out = _recorded(family, pred_custom, _half_at_median, grid, vectorized=True)
        assert sum(calls.values()) == built  # a predicate builds no chunk
        _assert_exact_rows(seen, F, max(family.n_scenarios, core.MIN_SWEEP_BLOCK))
        assert np.array_equal(out, _half_at_median(F, family.pis))
    assert calls[route] > 0 and sum(calls.values()) == calls[route]


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family", "many_family"])
def test_predicate_value_equals_the_dense_first_hit(request, monkeypatch, family_name, rows):
    family = request.getfixturevalue(family_name)
    _block_rows(monkeypatch, family, rows)
    monkeypatch.setattr(core, "_dense", None)  # a predicate never takes the dense route
    pred = pred_custom(_half_at_median, family.n_scenarios, vectorized=True)
    assert quantile_factor(family, pred) == dense_quantile(family, pred)


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
    out = _sweep(gapped_family, pred, grid)
    hit = np.flatnonzero(out)[0]
    assert out[hit:].all() and accepted[hit] and (hit == 0 or not accepted[hit - 1])
    assert quantile_factor(gapped_family, pred) == grid[hit]


def test_a_chunk_of_changed_cells_only_scatters_at_share_one(gapped_family, monkeypatch):
    # every atom lies below the one grid point, so every cell of the chunk changes
    calls = _count_routes(monkeypatch, 1.0)
    grid = np.array([100.0])
    seen, _ = _recorded(gapped_family, psi_custom, _mean, grid, vectorized=True)
    assert calls == {"scatter": 1, "transposed": 0}
    assert np.array_equal(np.vstack(seen), 1.0 - cdf_matrix(gapped_family, grid))


@pytest.mark.parametrize("route", list(ROUTE_SHARES))
@pytest.mark.parametrize("family_name", ["gapped_family", "box_family"])
def test_a_view_of_the_rows_outlives_its_chunk(request, monkeypatch, family_name, route):
    # the matrix is valid only during the call; the returned view is copied out in time
    family = request.getfixturevalue(family_name)
    _count_routes(monkeypatch, ROUTE_SHARES[route])
    _chunk_rows(monkeypatch, family, 2)
    psi = psi_custom(lambda V, pi: V[:, 0], family.n_scenarios, vectorized=True)
    xs = family.merged_support()
    first = np.ascontiguousarray(1.0 - cdf_matrix(family, xs[:-1])[:, 0])
    assert np.array_equal(_sweep(family, psi, xs[:-1]), first)
    assert choquet_factor(family, psi) == xs[0] + first @ np.diff(xs)


def test_one_value_per_row_or_a_rejection(gapped_family):
    # one value for a whole chunk, or for the anchor rows, would otherwise
    # be broadcast over its rows; the spot checks broadcast and accept both
    n = gapped_family.n_scenarios
    psi = psi_custom(lambda V, pi: V[:, :1].max(axis=0), n, vectorized=True)
    with pytest.raises(ValidationError, match="one value per profile row"):
        choquet_factor(gapped_family, psi)
    pred = pred_custom(lambda U, pi: (U >= 0.5).all(axis=1)[:1], n, vectorized=True)
    with pytest.raises(ValidationError, match="one value per profile row"):
        quantile_factor(gapped_family, pred)
