"""Every family is built in one pass, and equally weighted laws are counted.

``core._segment_laws`` sorts the keys (segment, rank) of the whole family
once: the runs are the atoms, and each one's cum is C / n.  Where a
segment's normalized weights differ, the sort carries positions
(``core._sorted_keys``) and the weighted segments accumulate their masses
(``core._segment_cumsums``); an equally weighted family reaches neither.
Either way it must equal the former batched weighted loop, kept in
``per_scenario.segment_laws``, bit for bit: support, cum, offsets and the
merged grid with its dtype.  ``core._segment_sums`` sums values that are
all one nonzero value once per segment length, and must equal each
segment's own ``sum``.  ``from_sample``'s pis are the partition's weights
on an equally weighted sample, and follow the sample where another sample
built the partition.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (JointSample, StepCDF, core, from_sample, partition_discrete,
                        partition_quantile_boxes)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _laws(values, w, offsets):
    """``_segment_laws`` and the former batched loop on these arrays, and
    whether ``_segment_laws`` counted them: reached neither the
    position-carrying sort nor the mass cumsums."""
    totals = core._segment_sums(w, offsets)
    with mock.patch.object(core, "_sorted_keys", wraps=core._sorted_keys) as sort, \
            mock.patch.object(core, "_segment_cumsums", wraps=core._segment_cumsums) as cumsums:
        got = core._segment_laws(values.copy(), w.copy(), offsets, totals)
    assert sort.called == cumsums.called
    want = per_scenario.segment_laws(values.copy(), w.copy(), offsets, totals)
    return got, want, not sort.called


def _weighted(w, offsets):
    """Whether each segment's normalized weights differ."""
    w = w / np.repeat(core._segment_sums(w, offsets), np.diff(offsets))
    return np.maximum.reduceat(w, offsets[:-1]) != np.minimum.reduceat(w, offsets[:-1])


def _assert_same(got, want):
    (support, cum, offsets, (points, at)), (r_support, r_cum, r_offsets, (r_points, r_at)) = \
        got, want
    for a, b in ((support, r_support), (cum, r_cum), (offsets, r_offsets), (points, r_points),
                 (at, r_at)):
        assert _bits(a) == _bits(b)


def _tied(rng, n, distinct):
    """``n`` values drawn from ``distinct`` pool values, 0.0 among them."""
    pool = np.round(rng.standard_normal(distinct) * 3, 1)
    pool[0] = 0.0
    return pool[rng.integers(0, distinct, n)] + 0.0


@st.composite
def families(draw, weighting):
    """Segments of 1 to 40 rows (a third of them single rows) with planted
    ties.  ``equal``: every row weighs 1 / T; ``per-segment``: each segment
    its own weight; ``mixed``: equal and weighted segments, at least one
    weighted, and some rows of zero or 1e-18 weight (atoms that are dropped)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_seg = draw(st.integers(1, 60))
    sizes = np.where(rng.random(n_seg) < 1 / 3, 1, rng.integers(1, 41, n_seg))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    values = _tied(rng, offsets[-1], draw(st.integers(1, 50)))
    if weighting == "equal":
        w = np.full(values.size, 1.0 / values.size)
    else:
        w = np.repeat(rng.random(n_seg) + 0.01, sizes)
    if weighting == "mixed":
        weighted, multi = rng.random(n_seg) < 0.5, np.flatnonzero(sizes > 1)
        if multi.size:
            weighted[rng.choice(multi)] = True
        w *= np.where(np.repeat(weighted, sizes), rng.random(values.size) + 0.5, 1.0)
        tiny = np.repeat(weighted, sizes) & (rng.random(values.size) < 0.1)
        tiny[offsets[:-1]] = False  # each segment keeps a positive total
        w[tiny] = rng.choice([0.0, 1e-18], tiny.sum())
    return values, w, offsets


class TestCountRoute:

    @settings(max_examples=200, deadline=None)
    @given(families("equal"))
    def test_equal_weights(self, family):
        got, want, counted = _laws(*family)
        assert counted
        _assert_same(got, want)

    @settings(max_examples=200, deadline=None)
    @given(families("per-segment"))
    def test_weights_equal_within_each_segment_only(self, family):
        got, want, counted = _laws(*family)
        assert counted
        _assert_same(got, want)

    @settings(max_examples=200, deadline=None)
    @given(families("mixed"))
    def test_mixed_families_stay_on_the_weighted_loop(self, family):
        # the weighted steps: the position-carrying sort and the mass cumsums
        values, w, offsets = family
        got, want, counted = _laws(values, w, offsets)
        assert counted == (not _weighted(w, offsets).any())
        _assert_same(got, want)

    def test_a_segment_longer_than_a_batch(self):
        # a batch of the former loop, per_scenario.BATCH_ROWS rows
        rng = np.random.default_rng(4)
        sizes = [5, 2 * per_scenario.BATCH_ROWS + 3, 1, 7, per_scenario.BATCH_ROWS]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = _tied(rng, offsets[-1], 5000)
        got, want, counted = _laws(values, np.full(values.size, 1.0 / values.size), offsets)
        assert counted
        _assert_same(got, want)

    def test_a_weighted_segment_longer_than_a_batch(self):
        rng = np.random.default_rng(4)
        sizes = [5, 2 * per_scenario.BATCH_ROWS + 3, 1, 7, per_scenario.BATCH_ROWS]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = _tied(rng, offsets[-1], 5000)
        w = np.full(values.size, 1.0 / values.size)
        w[offsets[1]:offsets[2]] = rng.random(sizes[1]) * (rng.random(sizes[1]) < 0.9)
        w[offsets[1]] = 1.0
        got, want, counted = _laws(values, w, offsets)
        assert not counted
        _assert_same(got, want)

    def test_more_than_2_16_segments(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 4, 2**16 + 4000)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = _tied(rng, offsets[-1], 3000)
        got, want, counted = _laws(values, np.full(values.size, 0.3), offsets)
        assert counted
        _assert_same(got, want)

    @pytest.mark.parametrize("raw", [
        [0.9146558493556708, 0.9146558493556708, 0.9146558493556709],
        # here the masses' cumsum differs from the counts in its last bits
        [0.9719097193587902] * 9 + [0.9719097193587903],
    ])
    def test_the_route_is_decided_on_normalized_weights(self, raw):
        # unequal raw weights that are equal after the division by their
        # total: from_values counts them, and so does _segment_laws
        raw = np.array(raw)
        assert raw[0] != raw[-1] and _weighted(raw, np.array([0, raw.size])).sum() == 0
        values = np.arange(raw.size, 0, -1) / 8
        offsets = np.array([0, raw.size])
        got, want, counted = _laws(values, raw, offsets)
        assert counted
        _assert_same(got, want)
        law = StepCDF.from_values(values, raw)
        assert _bits(got[0]) == _bits(law.support) and _bits(got[1]) == _bits(law.cum)

    @settings(max_examples=50, deadline=None)
    @given(families("mixed"))
    def test_the_stable_argsort_of_wide_keys(self, family):
        # keys and positions that do not fit 63 bits together are sorted by
        # a stable argsort, with the same result
        values, w, offsets = family
        key = np.random.default_rng(offsets[-1]).integers(0, 50, offsets[-1])
        packed = core._sorted_keys(key.copy(), 50)
        wide = core._sorted_keys(key.copy(), 2**64)
        assert _bits(packed[0]) == _bits(wide[0]) and _bits(packed[1]) == _bits(wide[1])
        totals = core._segment_sums(w, offsets)
        forced = mock.Mock(side_effect=lambda key, bound, sort=core._sorted_keys: sort(key, 2**64))
        with mock.patch.object(core, "_sorted_keys", forced):
            got = core._segment_laws(values.copy(), w.copy(), offsets, totals)
        assert forced.called == _weighted(w, offsets).any()
        _assert_same(got, core._segment_laws(values.copy(), w.copy(), offsets, totals))

    def test_an_equally_weighted_sample_sums_no_mass(self):
        """``from_sample`` on equal weights never reaches the
        position-carrying sort or the mass cumsums; on a weighted sample it
        reaches both."""
        rng = np.random.default_rng(6)
        factors = np.column_stack([rng.integers(0, 5, 3000), rng.standard_normal(3000)])
        sample = JointSample(np.round(rng.standard_normal(3000), 1), factors)

        def unreached(*args, **kwargs):
            raise AssertionError("the weighted steps were reached")

        partitions = [partition_quantile_boxes(sample, 4),
                      partition_discrete(JointSample(sample.loss, factors[:, 0]))]
        with mock.patch.object(core, "_sorted_keys", unreached), \
                mock.patch.object(core, "_segment_cumsums", unreached):
            for partition in partitions:
                from_sample(sample, partition)
        weighted = JointSample(sample.loss, factors, rng.random(3000))
        partition = partition_quantile_boxes(weighted, 4)  # its cells are sorted by _sorted_keys too
        with mock.patch.object(core, "_sorted_keys", wraps=core._sorted_keys) as sort, \
                mock.patch.object(core, "_segment_cumsums", wraps=core._segment_cumsums) as sums:
            from_sample(weighted, partition)
        assert sort.call_count == sums.call_count == 1


class TestEqualSegmentSums:

    @pytest.mark.parametrize("value", [1 / 3, 0.3, 1 / 16385, 7.0, 2.0**-1070])
    def test_each_length_sums_as_its_segments(self, value):
        lengths = [*range(1, 10), 127, 128, 129, 8191, 8192, 8193, 16385]
        sizes = lengths + lengths[::-1] + [3, 1, 128, 5]  # each length at several alignments
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        values = np.full(offsets[-1], value)
        with mock.patch.object(core, "_equal_lengths") as grouped:
            got = core._segment_sums(values, offsets)
        assert not grouped.called
        assert _bits(got) == _bits([values[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])])

    def test_signed_zeros_are_summed_per_segment(self):
        # equal, but not equal bits: the segments are summed as they are
        values = np.array([-0.0, -0.0, 0.0, -0.0, -0.0, 0.0])
        offsets = np.array([0, 2, 4, 5, 6])
        with mock.patch.object(core, "_equal_lengths", wraps=core._equal_lengths) as grouped:
            got = core._segment_sums(values, offsets)
        assert grouped.called
        assert _bits(got) == _bits([values[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])])


class TestPisFollowTheSample:

    @pytest.mark.parametrize("build", [partition_discrete,
                                       lambda sample: partition_quantile_boxes(sample, 3)])
    def test_pis_are_the_partition_weights(self, build):
        rng = np.random.default_rng(7)
        for T in (1, 7, 1000, 20_000):
            sample = JointSample(rng.standard_normal(T), rng.integers(0, 9, (T, 2)) / 2)
            partition = build(sample)
            assert _bits(from_sample(sample, partition).pis) == _bits(partition.weights)

    def test_a_partition_of_another_sample(self):
        rng = np.random.default_rng(8)
        T = 5000
        factors = rng.integers(0, 6, (T, 2)).astype(float)
        equal = JointSample(rng.standard_normal(T), factors)
        weighted = JointSample(equal.loss, factors, rng.random(T) + 0.1)
        for partition in (partition_discrete(equal), partition_quantile_boxes(equal, 3)):
            pis = from_sample(weighted, partition).pis
            bounds = zip(partition.offsets[:-1], partition.offsets[1:])
            want = [weighted.weights[partition.rows[a:b]].sum() for a, b in bounds]
            assert _bits(pis) == _bits(want)
            assert not np.array_equal(pis, partition.weights)
            back = from_sample(equal, partition_discrete(weighted))
            assert _bits(back.pis) == _bits(partition_discrete(equal).weights)
