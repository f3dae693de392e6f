"""One routine per job: dense ranks, the merged grid and the labels.

Every dense rank in the package comes from ``core._ranks`` (one argsort):
the weighted ``StepCDF.from_values``, a family's merged grid, the length
table of ``_segment_sums``, the column codes of ``partition_discrete``, the
re-ranks of ``core._cells`` and the bit table of
``cli._json_floats``.  It must give ``np.unique(..., return_inverse=True)``'s
two arrays (``per_scenario.ranks``) bit for bit, on floats with ties and on
int64 keys across the whole range.  ``_cells`` re-ranks its mixed-radix key
where the next column would take it past 2**63; the rank is int32, so it is
widened first, and a partition whose radices multiply past 2**63 must still
group as the former one (``per_scenario.partition_discrete``).

``mixture()`` reads the family's merged grid on both of its routes and must
equal ``StepCDF.from_values(support, masses)`` (``per_scenario.mixture``)
bit for bit; the equally weighted route counts the atoms of each point and
never calls ``from_values``.

A family's labels come from one zero-argument callable (or none).  They
must survive ``from_sample``, ``transform_family``, ``es_tail_density`` and
pickling, for partitions and families built by the public constructors and
by the package's builders.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (ConditionalLawFamily, JointSample, PiecewiseLinearAllocation, Scenario,
                        ScenarioPartition, StepCDF, core, es_tail_density,
                        from_sample, partition_discrete, partition_quantile_boxes)
from factorrisk.sharing import transform_family

POOL = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, 2.5, 1e300, -1e-300]
finite = st.floats(allow_nan=False, allow_infinity=False)
INT64 = st.integers(-2**63, 2**63 - 1)
INT64_EDGES = [-2**63, -2**63 + 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_ranks(values):
    rank, points = core._ranks(values)
    ref_rank, ref_points = per_scenario.ranks(values)
    assert _bits(points) == _bits(ref_points)
    assert rank.tolist() == ref_rank.tolist()
    assert rank.dtype == (np.int32 if values.size < 2**31 else np.intp)


class TestRanks:

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(POOL) | finite, min_size=1, max_size=300))
    def test_floats_with_ties(self, values):
        # both zeros too: the two routes sort alike, so they keep the same one
        _assert_ranks(np.array(values))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_heavy_ties(self, n, distinct, seed):
        rng = np.random.default_rng(seed)
        _assert_ranks(rng.standard_normal(distinct)[rng.integers(0, distinct, n)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(INT64_EDGES) | INT64, min_size=1, max_size=300))
    def test_int64_keys(self, keys):
        _assert_ranks(np.array(keys, dtype=np.int64))

    def test_float_bits_of_json_floats(self):
        values = np.array([0.1, -0.0, 0.0, np.nan, np.inf, 0.1, -np.inf, 5e-324, np.nan])
        _assert_ranks(values.view(np.int64))


def _partition_bits(partition):
    return (_bits(partition.rows), _bits(partition.offsets), _bits(partition.weights),
            partition.labels)


class TestCellsPastSixtyThreeBits:

    def test_int32_rank_is_widened_before_the_next_column(self):
        # four columns of 2**16 distinct values: the key would pass 2**63 at
        # the fourth, and the re-rank (up to 7e4) times 2**16 passes 2**31
        rng = np.random.default_rng(5)
        T = 70_000
        factors = np.column_stack([rng.permutation(np.arange(T) % 2**16) for _ in range(4)])
        factors[rng.integers(0, T, 5000)] = factors[0]  # a cell of many rows
        sample = JointSample(rng.standard_normal(T), factors)
        radices = [np.unique(col).size for col in factors.T]
        assert np.prod(radices[:3], dtype=object) < 2**63 < np.prod(radices, dtype=object)
        assert max(radices[:3]) * radices[3] > 2**31
        got = partition_discrete(sample)
        want = per_scenario.partition_discrete(sample)
        assert _partition_bits(got) == _partition_bits(want)

    @pytest.mark.parametrize("radix", [2**21, 2**32 - 5])
    def test_cells_group_as_unique_rows(self, radix):
        rng = np.random.default_rng(radix)
        codes = [rng.integers(0, radix, 3000) for _ in range(4)]
        codes[2][::7] = codes[2][0]
        order, offsets = core._cells([c.copy() for c in codes], [radix] * 4)
        _, inverse = np.unique(np.column_stack(codes), axis=0, return_inverse=True)
        want = np.argsort(inverse, kind="stable")
        assert order.tolist() == want.tolist()
        counts = np.bincount(inverse)
        assert offsets.tolist() == np.concatenate(([0], np.cumsum(counts))).tolist()


def _assert_mixture(family):
    got, want = family.mixture(), per_scenario.mixture(family)
    assert _bits(got.support) == _bits(want.support)
    assert _bits(got.cum) == _bits(want.cum)


class TestMixtureReadsTheGrid:

    @pytest.mark.parametrize("family", [
        # every atom weighs 1/8, and points are shared between the laws
        ConditionalLawFamily([0.5, 0.5], [StepCDF([1.0, 2.0, 3.0, 4.0], [0.25, 0.5, 0.75, 1.0]),
                                          StepCDF([0.5, 2.0, 4.0, 9.0], [0.25, 0.5, 0.75, 1.0])]),
        # three atoms of 1/3, two of them at one point
        ConditionalLawFamily([1 / 3, 2 / 3], [StepCDF([1.0], [1.0]),
                                              StepCDF([0.5, 1.0], [0.5, 1.0])]),
    ])
    def test_equal_masses_count_atoms_without_from_values(self, family):
        masses = family._masses() * np.repeat(family.pis, np.diff(family.offsets))
        assert (masses == masses[0]).all()
        with mock.patch.object(StepCDF, "from_values", side_effect=AssertionError("called")):
            got = family.mixture()
        assert got.support is family._grid[0]  # read, not rebuilt
        want = per_scenario.mixture(family)
        assert _bits(got.support) == _bits(want.support) and _bits(got.cum) == _bits(want.cum)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1))
    def test_sample_families(self, T, decimals, weighted, seed):
        rng = np.random.default_rng(seed)
        loss = np.round(rng.standard_normal(T), decimals)
        weights = rng.random(T) + 0.1 if weighted else None
        sample = JointSample(loss, rng.integers(0, 1 + T // 10, T), weights)
        for partition in (partition_discrete(sample), partition_quantile_boxes(sample, 3)):
            family = from_sample(sample, partition)
            _assert_mixture(family)
            _assert_mixture(ConditionalLawFamily(family.pis, family.laws))


def _partitions():
    sample = JointSample(np.round(np.random.default_rng(2).standard_normal(60), 1),
                         np.repeat([[0.0, 1.0], [1.0, 1.0], [2.0, 0.5]], 20, axis=0))
    built = partition_discrete(sample)
    public = ScenarioPartition(Scenario(label, s.rows, s.weight)
                               for label, s in zip("abc", built.scenarios))
    return sample, {"built": partition_discrete(sample), "public": public}


def _derived(family):
    """The families built from ``family``, each with its labels."""
    xs = family.mixture().support
    allocation = PiecewiseLinearAllocation(xs, np.full((2, xs.size - 1), 0.5))
    return [family, transform_family(family, allocation, 1), es_tail_density(family, 0.8),
            es_tail_density(family, 0.0)]


class TestOneLabelSource:

    @pytest.mark.parametrize("kind", ["built", "public"])
    @pytest.mark.parametrize("read_first", [False, True])
    def test_labels_survive_every_builder_and_pickling(self, kind, read_first):
        sample, partitions = _partitions()
        partition = partitions[kind]
        want = {"built": ((0.0, 1.0), (1.0, 1.0), (2.0, 0.5)), "public": ("a", "b", "c")}[kind]
        if read_first:
            assert partition.labels == want
        family = from_sample(sample, partition)
        for derived in _derived(family):
            assert callable(derived._labels) and "labels" not in derived.__dict__
            copy = pickle.loads(pickle.dumps(derived))
            assert copy.labels == derived.labels == want
        assert partition.labels == want
        assert pickle.loads(pickle.dumps(partition)).labels == want

    @pytest.mark.parametrize("labels", [("x", "y"), None])
    def test_families_built_from_laws(self, labels):
        laws = [StepCDF([1.0, 2.0], [0.5, 1.0]), StepCDF([0.0, 3.0], [0.25, 1.0])]
        family = ConditionalLawFamily([0.4, 0.6], laws, labels)
        assert (family._labels is None) == (labels is None)
        for derived in _derived(family):
            assert derived.labels == labels
            assert pickle.loads(pickle.dumps(derived)).labels == labels
