"""The two routes of ``StepCDF.from_values`` against the reference one.

Equally weighted values take one ``np.sort`` and its runs of equal values,
each atom's cum its row count up to it over n; other weights take each
value's dense rank (``core._ranks``) and ``bincount``.  Both must equal
``per_scenario.from_values`` (``np.unique`` for any weights, with the counts
of its inverse over n for equal weights and a ``bincount`` of the weights
otherwise) bit for bit: the support, the sign of every zero in it, and the
cumulative masses.  Zero runs hold both -0.0 and 0.0, which enter as 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import JointSample, StepCDF, core

# a small pool draws heavy ties; both zeros and subnormals are in it
POOL = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, 2.5, 1e300, -1e-300]
finite = st.floats(allow_nan=False, allow_infinity=False)


def _assert_same(values, weights=None):
    law = StepCDF.from_values(values, weights)
    ref = per_scenario.from_values(values, weights)
    assert law.support.tobytes() == ref.support.tobytes()
    assert np.array_equal(np.signbit(law.support), np.signbit(ref.support))
    assert law.cum.tobytes() == ref.cum.tobytes()


class TestEqualWeights:

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=300, unique=True))
    def test_distinct_values(self, values):
        _assert_same(values)
        _assert_same(values, np.full(len(values), 7.0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_heavy_ties(self, n, distinct, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(distinct)[rng.integers(0, distinct, n)]
        _assert_same(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(POOL) | finite, min_size=1, max_size=200))
    def test_pool_with_zeros_of_both_signs(self, values):
        _assert_same(values)
        _assert_same(values, np.full(len(values), 1.0 / 3.0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 2000), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_subsample_renormalized(self, n, decimals, seed):
        rng = np.random.default_rng(seed)
        sample = JointSample(np.round(rng.standard_normal(n), decimals), rng.standard_normal(n))
        mask = rng.random(n) < 0.6
        mask[0] = True
        sub = sample.subsample(mask)
        assert (sub.weights == sub.weights[0]).all()
        _assert_same(sub.loss, sub.weights)

    @pytest.mark.parametrize("values", [[-0.0, 0.0], [0.0, -0.0], [0.0, 1.0, -0.0, -0.0],
                                        [-0.0, -0.0, 2.0], [0.0, 0.0], [-0.0],
                                        # np.sort returns these zeros all as -0.0
                                        [-0.0, -5e-324, -5e-324, 0.0, -5e-324, -1e-300,
                                         -0.0, -0.0, -0.0]])
    def test_zero_runs(self, values):
        _assert_same(values)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -3.5, 1e308])
    def test_single_row(self, value):
        _assert_same([value])
        _assert_same([value], [2.0])
        law = StepCDF.from_values([value])
        assert law.cum.tolist() == [1.0]

    def test_every_atom_cum_is_its_count_over_n(self):
        # a running float sum of the masses drifts from C / n; the count does not
        values = np.repeat(np.arange(50.0), np.arange(1, 51))
        law = StepCDF.from_values(values)
        assert law.cum.tobytes() == (np.cumsum(np.arange(1, 51)) / values.size).tobytes()
        assert law.cum.tobytes() == per_scenario.from_values(values).cum.tobytes()


class TestUnequalWeights:

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_unequal_weights(self, n, decimals, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.standard_normal(n) * 3, decimals)
        values[(values == 0) & (rng.random(n) < 0.5)] = -0.0
        weights = rng.random(n) * rng.choice([1e-18, 1e-3, 1.0, 1e6], n)
        weights[rng.integers(n)] = 1.0
        _assert_same(values, weights)


class _NoUnique:
    """numpy, except that ``unique`` fails."""

    def __getattr__(self, name):
        if name == "unique":
            raise AssertionError("np.unique called")
        return getattr(np, name)


def _no_ranks(values):
    raise AssertionError("core._ranks called")


class TestRouteTaken:

    def test_equal_weights_sort_without_unique(self, monkeypatch):
        rng = np.random.default_rng(3)
        ties = rng.integers(0, 20, 500).astype(float)
        expected = per_scenario.from_values(ties)
        monkeypatch.setattr(core, "np", _NoUnique())
        monkeypatch.setattr(core, "_ranks", _no_ranks)
        for weights in (None, np.full(ties.size, 0.25)):
            law = StepCDF.from_values(ties, weights)
            assert law.cum.tobytes() == expected.cum.tobytes()
        StepCDF.from_values(rng.standard_normal(500))
        # both zeros enter as 0.0, so they too take the sort route
        assert StepCDF.from_values([0.0, -0.0, 1.0]).support.tobytes() == \
            np.array([0.0, 1.0]).tobytes()

    def test_unequal_weights_use_ranks(self, monkeypatch):
        calls, ranks = [], core._ranks
        monkeypatch.setattr(core, "np", _NoUnique())
        monkeypatch.setattr(core, "_ranks", lambda values: calls.append(values.tolist())
                            or ranks(values))
        law = StepCDF.from_values([2.0, 1.0, -0.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        assert calls == [[2.0, 1.0, 0.0, 2.0]]
        ref = per_scenario.from_values([2.0, 1.0, 0.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        assert law.support.tobytes() == ref.support.tobytes()
        assert law.cum.tobytes() == ref.cum.tobytes()
