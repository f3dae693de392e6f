"""Equally weighted laws take cum = C / n, and their quantiles are order statistics.

An equally weighted law of n values gives each atom the cum C / n, C the
count of values up to it, one correctly rounded division.  Its left quantile
at a level p that is the correctly rounded value of a fraction r is then
the order statistic of rank ceil(r * n), whatever the ties: the
``fractions.Fraction`` rank oracle here.  ``scalar.quantiles`` reads that
order statistic without building a law, and must equal
``scalar.var(StepCDF.from_values(values, weights), levels)`` bit for bit, for
any weights.  ``_segment_laws`` decides the rule per segment and must equal
``StepCDF.from_values`` of each segment bit for bit, whether the segments
are equally weighted, weighted or mixed.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorrisk import (ConditionalLawFamily, JointSample, StepCDF, ValidationError, VarBox,
                        choquet_factor, compose_var_distortion, diff_grid, find_matching_q,
                        from_sample, gaussian_rho, identity_distortion, ols_fit,
                        partition_discrete, partition_quantile_boxes, plain_var,
                        psi_mean_of_var, scalar)
from factorrisk.conditioning import box_mask
from factorrisk.core import _scenario_var, _segment_laws, _segment_sums

# the decimal levels the CLI, plain-var empirical and the Diff grid's q reads pass in
DECIMALS = [Fraction(d) for d in
            "0.5 0.6 0.7 0.8 0.9 0.95 0.96 0.97 0.975 0.98 0.99".split()]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _oracle(values, rationals) -> list[float]:
    """The order statistics of ranks ceil(r * n) of ``values``, r in ``rationals``."""
    x = np.sort(values)
    return [float(x[math.ceil(r * x.size) - 1]) for r in rationals]


@st.composite
def tied_values(draw):
    """Values with planted ties: n draws from a pool of ``distinct`` values,
    -0.0 among them, and a level set of k / bins, the decimal levels and 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    distinct = draw(st.integers(1, n))
    pool = np.round(rng.standard_normal(distinct) * 3, draw(st.integers(0, 3)))
    pool[rng.random(distinct) < 0.1] = -0.0
    values = pool[rng.integers(0, distinct, n)]
    bins = draw(st.integers(1, 64))
    rationals = [Fraction(k, bins) for k in range(1, bins)] + DECIMALS + [Fraction(1)]
    return values, rationals


class TestQuantiles:

    @settings(max_examples=200, deadline=None)
    @given(tied_values(), st.sampled_from([None, "equal", "weighted"]))
    def test_equal_to_the_law_and_to_the_rank_oracle(self, drawn, weighting):
        values, rationals = drawn
        levels = [float(r) for r in rationals]
        n = values.size
        weights = {None: None, "equal": np.full(n, 0.3),
                   "weighted": np.random.default_rng(n).random(n) + 0.01}[weighting]
        want = scalar.var(StepCDF.from_values(values, weights), levels)
        got = scalar.quantiles(values, weights, levels)  # one sort
        assert _bits(got) == _bits(want)
        for p, w in zip(levels, want.tolist()):  # one partition each
            got = scalar.quantiles(values, weights, p)
            assert type(got) is float and _bits(got) == _bits(w)
        if weighting != "weighted":
            assert _bits(want) == _bits(_oracle(values + 0.0, rationals))  # -0.0 enters as 0.0

    @pytest.mark.parametrize("T, bins", [(10**6, 16), (300_000, 20), (50_000, 8),
                                         (100_000, 4), (12_345, 7), (999, 10)])
    def test_level_tie_probe(self, T, bins):
        values = np.random.default_rng(T).standard_normal(T)
        rationals = [Fraction(k, bins) for k in range(1, bins)] + DECIMALS
        got = scalar.quantiles(values, None, [float(r) for r in rationals])
        assert _bits(got) == _bits(_oracle(values, rationals))

    def test_four_bins_of_equally_weighted_rows_are_equal(self):
        rng = np.random.default_rng(5)
        sample = JointSample(rng.standard_normal(50_000), rng.standard_normal(50_000))
        assert np.diff(partition_quantile_boxes(sample, 4).offsets).tolist() == [12_500] * 4

    def test_no_law_is_built_for_equally_weighted_data(self, monkeypatch):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((2000, 2))
        sample = JointSample(w @ [1.0, 0.5] + rng.standard_normal(2000), w)
        fit = ols_fit(sample)

        def no_law(*args, **kwargs):
            raise AssertionError("a StepCDF was built")

        monkeypatch.setattr(StepCDF, "from_values", no_law)
        monkeypatch.setattr(StepCDF, "_of_cum", no_law)
        partition_quantile_boxes(sample, 4)
        box_mask(sample, VarBox([0.25, 0.1], [0.75, 1.0]))
        for mode in ("model", "empirical"):
            plain_var(fit, sample, 0.95, mode)
            diff_grid(fit, sample, [0.9, 0.95], [0.5, 0.9], plain_mode=mode)
        gaussian_rho(fit, sample, 0.95, 0.5)
        find_matching_q(fit, sample, 0.95)

    @pytest.mark.parametrize("values", [
        [2.0, 2.0, 1.0, 3.0, 1.0, 3.0, 2.0],   # ties at both ends
        [-0.0, 0.0, -0.0, 0.0],                 # signed zeros
        [0.0, -1.5, -0.0, 1.5, -0.0, -1.5],     # signed zeros inside, ties at the ends
        [5.0],                                  # a single value
        [-0.0],                                 # a single -0.0
        [-0.0, -2.0, -2.0, -0.0],               # tied ends, the top one -0.0
    ])
    def test_end_ranks_equal_the_partition_route(self, values, monkeypatch):
        """One level of rank 1 or n reads the minimum or the maximum of the
        values as given, with no copy and -0.0 read as 0.0: the bits of the
        partition at that rank, and of the law."""
        x, n = np.array(values) + 0.0, len(values)
        want = {}
        for p, rank in ((1e-9, 1), (1.0 / n, 1), (1.0 - 1e-9, n), (1.0, n)):
            want[p] = np.partition(x, rank - 1)[rank - 1]
            assert _bits(want[p]) == _bits(scalar.var(StepCDF.from_values(values, None), p))

        def no_copy(*args, **kwargs):
            raise AssertionError("the values were copied")

        monkeypatch.setattr(scalar, "_entered", no_copy)
        monkeypatch.setattr(scalar, "_as_1d", no_copy)
        for given in (values, np.array(values)):  # a list, and a float array read in place
            for p, bits in want.items():
                got = scalar.quantiles(given, None, p)
                assert type(got) is float and _bits(got) == _bits(bits)
                assert _bits(scalar.quantiles(given, None, [p])) == _bits([bits])

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.nan], "values must be finite, got nan"),
        ([np.inf, 1.0], "values must be finite, got inf"),
        ([1.0, -np.inf], "values must be finite, got -inf"),
        ([], "values must be nonempty"),
        ([[1.0, 2.0]], "values must be one-dimensional, got shape (1, 2)"),
    ])
    @pytest.mark.parametrize("levels", [1e-9, 1.0, 0.5, [0.5, 1.0]])
    def test_every_rank_checks_the_values(self, values, message, levels):
        with pytest.raises(ValidationError, match=re.escape(message)):
            scalar.quantiles(values, None, levels)

    def test_values_are_not_modified(self):
        values = np.array([3.0, 1.0, 2.0])
        scalar.quantiles(values, None, 0.5)
        scalar.quantiles(values, None, [0.5, 0.9])
        assert values.tolist() == [3.0, 1.0, 2.0]


def _family_arrays(rng, kinds):
    """Values and weights of one segment per entry of ``kinds`` ("equal" or
    "weighted"), with planted ties.  Each segment's weights total 1: 1 / n
    each, or dyadic weights whose float sum is exactly 1, which
    ``from_values`` then keeps as they are when it normalizes them."""
    sizes = rng.integers(1, 40, len(kinds))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    values = np.round(rng.standard_normal(offsets[-1]), 1) + 0.0
    w = np.empty(offsets[-1])
    for kind, a, b in zip(kinds, offsets[:-1], offsets[1:]):
        if kind == "equal":
            w[a:b] = 1.0 / (b - a)
        else:
            whole = 2**12
            cuts = np.sort(rng.choice(np.arange(1, whole), b - a - 1, replace=False))
            w[a:b] = np.diff(np.concatenate(([0], cuts, [whole]))) / whole
    return values, w, offsets


def _assert_laws_of_segments(values, w, offsets):
    """``_segment_laws`` equals ``from_values`` of each segment bit for bit."""
    support, cum, law_offsets, _ = _segment_laws(values.copy(), w.copy(), offsets,
                                                 _segment_sums(w, offsets))
    laws = [StepCDF.from_values(values[a:b], w[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    assert _bits(support) == _bits(np.concatenate([law.support for law in laws]))
    assert _bits(cum) == _bits(np.concatenate([law.cum for law in laws]))
    assert np.diff(law_offsets).tolist() == [law.support.size for law in laws]


class TestSegmentLaws:

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["equal", "weighted"]), min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    def test_equal_weighted_and_mixed_families(self, kinds, seed):
        values, w, offsets = _family_arrays(np.random.default_rng(seed), kinds)
        _assert_laws_of_segments(values, w, offsets)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["equal", "raw", "normalized", "zeros"]),
                    min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    def test_raw_weights_normalize_as_from_values(self, kinds, seed):
        """Weights whose segments do not total 1 in float: raw draws,
        draws over their own float sum, a constant 0.3 and some zero
        weights.  Each segment is divided by its total, as ``from_values``
        divides its weights, and the laws agree bit for bit."""
        rng = np.random.default_rng(seed)
        values, _, offsets = _family_arrays(rng, ["equal"] * len(kinds))
        w = np.empty(values.size)
        for kind, a, b in zip(kinds, offsets[:-1], offsets[1:]):
            raw = rng.random(b - a)
            if kind == "equal":
                raw[:] = 0.3
            elif kind == "normalized":
                raw /= raw.sum()
            elif kind == "zeros":
                raw[rng.random(b - a) < 0.5] = 0.0
                raw[rng.integers(b - a)] = 0.7
            w[a:b] = raw
        _assert_laws_of_segments(values, w, offsets)

    def test_counts_over_n_per_scenario(self):
        # nine rows per scenario: level 3/9 takes the third order statistic
        loss = np.tile(np.arange(9.0), 3) + np.repeat([0.0, 10.0, 20.0], 9)
        sample = JointSample(loss, np.repeat([0.0, 1.0, 2.0], 9))
        family = from_sample(sample, partition_discrete(sample))
        assert _bits(family.cum) == _bits(np.tile(np.arange(1, 10) / 9, 3))
        assert _scenario_var(family, np.full(3, 3 / 9)).tolist() == [2.0, 12.0, 22.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_closed_form_engine_and_oracle_agree_on_tied_scenarios(self, seed, bins):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 400))
        loss = rng.integers(0, 6, T).astype(float)
        codes = rng.integers(0, 4, T).astype(float)
        sample = JointSample(loss, codes)
        family = from_sample(sample, partition_discrete(sample))
        for k in range(1, bins):
            r = Fraction(k, bins)
            got = _scenario_var(family, np.full(family.n_scenarios, float(r)))
            want = [_oracle(loss[codes == c], [r])[0] for c in np.unique(codes)]
            assert got.tolist() == want
        one = ConditionalLawFamily(np.array([1.0]), (StepCDF.from_values(loss),))
        for k in range(1, bins):
            level = k / bins
            assert choquet_factor(one, psi_mean_of_var(level)) == \
                compose_var_distortion(one, level, identity_distortion()) == \
                _oracle(loss, [Fraction(k, bins)])[0]
