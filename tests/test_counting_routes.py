"""Counting passes on the quantile-box path against the searches they replace.

Box codes are counted one cut at a time (``conditioning._interval_codes``),
the sweep's block anchors and last row come from per-scenario atom counts
(``core._atom_counts``), and the merged grid is the index that
``from_sample`` keeps from its one sort (``core._merged_grid``).
Each must equal the former route kept in ``per_scenario.py`` bit for bit:
the partition and family arrays, ``_merged_grid`` and the values of
``choquet_factor``, ``quantile_factor`` and ``inf_convolution``, where the
engines run once as they are and once with the former routes patched in.

Samples have ties, supports holding both signed zeros or only -0.0,
single-atom laws, losses offset by 1e9, zero-weight rows and 2 to 300 bins,
which crosses the width of a ``uint8`` code.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (JointSample, core, distortion, es_distortion, from_sample,
                        inf_convolution, partition_quantile_boxes, pred_esssup_var,
                        pred_var_of_var, psi_indicator_var_var, psi_lambda_of_var,
                        psi_mean_of_es, quantile, quantile_factor)
from factorrisk.conditioning import _interval_codes


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def samples(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 400))
    n_fac = draw(st.integers(1, 3))
    factors = np.round(rng.normal(size=(T, n_fac)), draw(st.integers(0, 3)))
    loss = np.round(rng.standard_normal(T), draw(st.integers(0, 2)))
    if draw(st.booleans()):  # one atom per law
        loss[:] = loss[0]
    zeros = draw(st.sampled_from(["as drawn", "both signs", "only -0.0", "offset 1e9"]))
    if zeros == "both signs":
        loss[(loss == 0) & (rng.random(T) < 0.5)] = -0.0
        factors[(factors == 0) & (rng.random((T, n_fac)) < 0.5)] = -0.0
    elif zeros == "only -0.0":
        loss[loss == 0] = -0.0
        factors[factors == 0] = -0.0
    elif zeros == "offset 1e9":
        loss += 1e9
    weights = None
    if draw(st.booleans()):
        weights = rng.random(T) + 0.01
        weights[rng.random(T) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
        weights[rng.integers(T)] = 1.0
    return JointSample(loss, factors, weights)


@contextlib.contextmanager
def _parent_routes():
    """The engines with the former key search for atom counts, and the
    former merged grid, patched in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_atom_counts", lambda scen, first, n, n_rows:
                   per_scenario.block_counts(scen, first, n, 1, n_rows))
        for module in (distortion, quantile):
            mp.setattr(module, "_merged_grid", per_scenario.merged_grid)
        yield


def _engine_values(family, x_law):
    value, allocation = inf_convolution(x_law, [(psi_indicator_var_var(0.75, 0.5), family),
                                                (psi_mean_of_es(0.6), family)])
    return [distortion.choquet_factor(family, psi_mean_of_es(0.7)),
            distortion.choquet_factor(family, psi_indicator_var_var(0.6, 0.5)),
            distortion.choquet_factor(family, psi_lambda_of_var(es_distortion(0.5), 0.8)),
            quantile_factor(family, pred_var_of_var(0.9, 0.5)),
            quantile_factor(family, pred_esssup_var(0.4)),
            value, allocation.breakpoints, allocation.slopes]


def _assert_same_routes(sample, bins):
    flat = partition_quantile_boxes(sample, bins)
    ref = per_scenario.partition_quantile_boxes(sample, bins)
    for name in ("rows", "offsets", "weights"):
        assert _bits(getattr(flat, name)) == _bits(getattr(ref, name)), name
    assert flat.labels == ref.labels
    rows = np.flatnonzero(sample.weights > 0)
    for j, cuts in enumerate(flat.cuts):
        col = sample.factors[rows, j]
        assert np.array_equal(_interval_codes(col, cuts), per_scenario.interval_codes(col, cuts))

    family = from_sample(sample, flat)
    ref_family = per_scenario.from_sample(sample, ref)
    for name in ("pis", "support", "cum", "offsets"):
        assert _bits(getattr(family, name)) == _bits(getattr(ref_family, name)), name

    points, at = core._merged_grid(family)
    ref_points, ref_at = per_scenario.merged_grid(family)
    assert _bits(points) == _bits(ref_points) and _bits(at) == _bits(ref_at)
    x_law = family.mixture()
    got = _engine_values(family, x_law)
    with _parent_routes():
        want = _engine_values(family, x_law)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


class TestAgainstTheSearches:

    @settings(max_examples=150, deadline=None)
    @given(samples(), st.integers(2, 300), st.sampled_from([1, 3, 256]))
    def test_partition_family_grid_and_values(self, sample, bins, min_block):
        # small blocks put many anchor rows into small families
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "MIN_SWEEP_BLOCK", min_block)
            _assert_same_routes(sample, bins)

    @pytest.mark.parametrize("bins", [254, 255, 256, 257, 300])
    def test_code_width_boundary(self, bins):
        # bins - 1 distinct cuts: up to 254 of them take uint8 counts, from
        # 255 on a binary search
        rng = np.random.default_rng(bins)
        sample = JointSample(np.round(rng.standard_normal(3000), 1), rng.standard_normal(3000))
        cuts = partition_quantile_boxes(sample, bins).cuts[0]
        assert cuts.size == bins - 1
        assert _interval_codes(sample.factors[:, 0], cuts).dtype == (
            np.uint8 if cuts.size < 255 else np.intp)
        _assert_same_routes(sample, bins)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(24, 254), st.integers(0, 2**32 - 1))
    def test_small_columns_count(self, rows, n_cuts, seed):
        # columns with few values per cut count their codes too; cuts drawn
        # from the column itself put values on every cut
        rng = np.random.default_rng(seed)
        col = np.round(rng.standard_normal(rows), int(rng.integers(0, 3)))
        pool = np.unique(np.concatenate([rng.choice(col, n_cuts), rng.normal(size=n_cuts)]))
        cuts = np.sort(rng.choice(pool, n_cuts, replace=False))
        codes = _interval_codes(col, cuts)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, per_scenario.interval_codes(col, cuts))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=20), st.integers(1, 40),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_block_counts(self, sizes, block, tied, seed):
        # tied: each scenario's atoms share a few rows; atoms past the last
        # grid row (at == G) count for no anchor row and not for the last
        rng = np.random.default_rng(seed)
        G = int(rng.integers(1, 200))
        n, scen = len(sizes), np.repeat(np.arange(len(sizes)), sizes)
        rows = (lambda k: rng.choice(rng.integers(0, G + 1, 3), k)) if tied else (
            lambda k: rng.integers(0, G + 1, k))
        at = np.concatenate([np.sort(rows(k)) for k in sizes])
        n_blocks = -(-G // block)
        first = -(-at // block)
        anchors = core._atom_counts(scen, first, n, n_blocks)
        assert _bits(anchors) == _bits(per_scenario.block_counts(scen, at, n, block, n_blocks))
        # the step route's anchors and last row
        first += at == G
        with_last = core._atom_counts(scen, first, n, n_blocks + 1)
        assert _bits(with_last[:, :-1]) == _bits(anchors)
        last = per_scenario.block_counts(scen, at, n, 1, G)[:, -1]
        assert _bits(with_last[:, -1]) == _bits(last)
