"""Losses sorted once per family, and the merged-grid index that it keeps.

``from_sample`` (and ``transform_family``) rank all the losses by one
argsort and number each scenario's atoms by their (scenario, rank) keys; the
family keeps each atom's rank as its index in the merged support, in
``family._grid`` (int32 where it fits), which the engines,
``merged_support()``, ``mixture()`` and the sharing integrand read as
stored.  Families built from laws compute it from one argsort
(``core._ranks``) when first read.  Each must equal the former route bit
for bit: ``per_scenario.from_sample`` (a per-scenario argsort),
``per_scenario.merged_grid`` (``np.unique`` of the support, an intp index),
and ``StepCDF.from_values`` for the mixture.  So must the values of
``choquet_factor``, ``quantile_factor`` and ``inf_convolution``, which run
once as they are and once with the former route in place: ``np.unique``'s
grid, with its intp index, in the family's cache.

Samples have ties, both signed zeros or only -0.0, zero-weight rows inside
scenarios, rows so light that their atoms fall under ``MIN_ATOM_MASS`` and
are dropped, and single-row scenarios.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (ConditionalLawFamily, JointSample, Scenario, ScenarioPartition,
                        distortion, es_distortion, from_sample, inf_convolution,
                        partition_discrete, partition_quantile_boxes, pred_esssup_var,
                        pred_var_of_var, psi_indicator_var_var, psi_lambda_of_var,
                        psi_mean_of_es, quantile_factor)
from factorrisk.sharing import PiecewiseLinearAllocation, transform_family


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def sampled_families(draw):
    """A sample and a partition of it: discrete codes (down to one row per
    scenario), quantile boxes, or scenarios of every fourth row that keep
    their zero-weight rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 300))
    loss = np.round(rng.standard_normal(T), draw(st.integers(0, 2)))
    zeros = draw(st.sampled_from(["as drawn", "both signs", "only -0.0", "offset 1e9"]))
    if zeros == "both signs":
        loss[(loss == 0) & (rng.random(T) < 0.5)] = -0.0
    elif zeros == "only -0.0":
        loss[loss == 0] = -0.0
    elif zeros == "offset 1e9":
        loss += 1e9
    weights = None
    if draw(st.booleans()):
        weights = rng.random(T) + 0.01
        weights[rng.random(T) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        # rows this light make atoms of mass 1e-20, which are dropped
        weights[rng.random(T) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 1e-20
        weights[rng.integers(T)] = 1.0
    codes = rng.integers(0, draw(st.integers(1, 2 * T)), T)
    sample = JointSample(loss, np.column_stack([codes, rng.standard_normal(T)]), weights)
    kind = draw(st.sampled_from(["discrete", "boxes", "with zero-weight rows"]))
    if kind == "discrete":
        return sample, partition_discrete(JointSample(loss, codes, weights))
    if kind == "boxes":
        return sample, partition_quantile_boxes(sample, draw(st.integers(1, 6)))
    groups = [rows for rows in np.array_split(np.arange(T), -(-T // 4))
              if sample.weights[rows].sum() > 0]
    return sample, ScenarioPartition(
        Scenario(k, rows, float(sample.weights[rows].sum())) for k, rows in enumerate(groups))


@contextlib.contextmanager
def _former_routes(family):
    """The engines on ``np.unique``'s grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(family.__dict__, "_grid", per_scenario.merged_grid(family))
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


def _assert_grid_and_values(family):
    points, at = family._grid
    ref_points, ref_at = per_scenario.merged_grid(family)
    assert _bits(points) == _bits(ref_points)
    assert at.dtype == np.int32 and np.array_equal(at, ref_at)
    assert _bits(family.merged_support()) == _bits(ref_points)
    x_law, ref_law = family.mixture(), per_scenario.mixture(family)
    assert _bits(x_law.support) == _bits(ref_law.support)
    assert _bits(x_law.cum) == _bits(ref_law.cum)
    got = _engine_values(family, x_law)
    with _former_routes(family):
        want = _engine_values(family, x_law)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


class TestSortOnce:

    @settings(max_examples=200, deadline=None)
    @given(sampled_families())
    def test_family_grid_mixture_and_values(self, built):
        sample, partition = built
        family = from_sample(sample, partition)
        ref = per_scenario.from_sample(sample, partition)
        for name in ("pis", "support", "cum", "offsets"):
            assert _bits(getattr(family, name)) == _bits(getattr(ref, name)), name
        _assert_grid_and_values(family)

    @settings(max_examples=100, deadline=None)
    @given(sampled_families())
    def test_families_built_from_laws(self, built):
        sample, partition = built
        ref = per_scenario.from_sample(sample, partition)
        family = ConditionalLawFamily(ref.pis, ref.laws)
        assert "_grid" not in family.__dict__  # the index is built on first use
        _assert_grid_and_values(family)
        eager = from_sample(sample, partition)
        assert ([_bits(v) for v in _engine_values(family, family.mixture())]
                == [_bits(v) for v in _engine_values(eager, eager.mixture())])

    @settings(max_examples=100, deadline=None)
    @given(sampled_families(), st.integers(0, 2**32 - 1))
    def test_transformed_families(self, built, seed):
        # mapped atoms merge on the zero-slope intervals of the allocation
        family = from_sample(*built)
        xs = family.merged_support()
        rng = np.random.default_rng(seed)
        slopes = np.zeros((2, xs.size - 1))
        slopes[rng.integers(0, 2, xs.size - 1), np.arange(xs.size - 1)] = 1.0
        allocation = PiecewiseLinearAllocation(xs, slopes)
        for agent in range(2):
            mapped = transform_family(family, allocation, agent)
            ref = per_scenario.transform_family(family, allocation, agent)
            for name in ("pis", "support", "cum", "offsets"):
                assert _bits(getattr(mapped, name)) == _bits(getattr(ref, name)), name
            _assert_grid_and_values(mapped)

    def test_dropped_atoms_are_re_ranked(self):
        # the value 2.0 has mass only in a row too light to keep, so the
        # merged support skips it and every index above it moves down
        sample = JointSample([1.0, 2.0, 3.0, 1.0, 3.0], [0.0, 0.0, 0.0, 1.0, 1.0],
                             [1.0, 1e-20, 1.0, 1.0, 1.0])
        family = from_sample(sample, partition_discrete(sample))
        points, at = family._grid
        assert points.tolist() == [1.0, 3.0] and at.tolist() == [0, 1, 0, 1]
        assert at.dtype == np.int32
        _assert_grid_and_values(family)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_bits_follow_each_scenario(self, seed):
        # every scenario holds both zeros; each one's zero atom enters as 0.0
        rng = np.random.default_rng(seed)
        loss, codes = rng.choice([-0.0, 0.0, 1.0, -1.0], 300), np.repeat([0, 1, 2], 100)
        sample = JointSample(loss, codes)
        partition = partition_discrete(sample)
        family = from_sample(sample, partition)
        ref = per_scenario.from_sample(JointSample(loss + 0.0, codes), partition)
        assert _bits(family.support) == _bits(ref.support)
        zeros = family.support[family.support == 0]
        assert zeros.size == 3 and not np.signbit(zeros).any()
        _assert_grid_and_values(family)
