"""The flat (CSR) layout of partitions and conditional families.

Partitions and families built flat are compared bit for bit with the
per-scenario reference in ``per_scenario.py`` (the former package routes):
rows, offsets, weights and labels of partitions; pis, support, cum,
offsets and labels of families.  Samples have planted equal losses, mixed
-0.0 and 0.0 (losses and factors), zero-weight rows, atoms dropped under
MIN_ATOM_MASS and single-row scenarios.  Further tests cover the segment
helpers, the views, the checks of the public constructors and the
``bincount`` atom sums of ``StepCDF.from_values`` and
``DiscreteJointDistribution``.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (ConditionalLawFamily, DiscreteJointDistribution, JointSample, Scenario,
                        ScenarioPartition, StepCDF, ValidationError, choquet_factor,
                        compose_es_mean, compose_var_distortion, core, from_sample,
                        identity_distortion, partition_discrete, partition_quantile_boxes,
                        pred_single_scenario, pred_var_of_var, psi_mean_of_es, psi_mean_of_var,
                        quantile_factor)
from factorrisk.core import MIN_ATOM_MASS, PROB_TOL, round_significant


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _label_bits(labels):
    """Labels with their float bits and types, so -0.0 differs from 0.0."""
    return [label if isinstance(label, str) else
            (type(label), [type(v) for v in np.atleast_1d(label)],
             np.asarray(label, dtype=float).tobytes()) for label in labels]


def _flat_partition(partition):
    return dict(rows=partition.rows, offsets=partition.offsets, weights=partition.weights,
                labels=_label_bits(partition.labels))


def _flat_family(family):
    return dict(pis=family.pis, support=family.support, cum=family.cum, offsets=family.offsets,
                labels=None if family.labels is None else _label_bits(family.labels))


def _assert_same(got: dict, want: dict):
    for key in want:
        if key == "labels":
            assert got[key] == want[key]
        else:
            assert _same(got[key], want[key]), key


@st.composite
def samples(draw):
    """A sample with ties, signed zeros, zero and tiny weights; factors
    discrete (few values per column) or continuous with ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 300))
    n_fac = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = draw(st.integers(1, 12))
        factors = (rng.integers(0, values, (T, n_fac)) - values // 2) / 2
    else:
        factors = np.round(rng.normal(size=(T, n_fac)), draw(st.integers(0, 3)))
    loss = np.round(rng.standard_normal(T), draw(st.integers(0, 2)))  # planted equal losses
    if draw(st.booleans()):
        loss[(loss == 0) & (rng.random(T) < 0.5)] = -0.0
    if draw(st.booleans()):
        factors[(factors == 0) & (rng.random((T, n_fac)) < 0.5)] = -0.0
    weights = None
    if draw(st.booleans()):
        weights = rng.random(T) + 0.01
        weights[rng.random(T) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
        if draw(st.booleans()):  # atoms lighter than MIN_ATOM_MASS are dropped
            weights[rng.random(T) < 0.5] *= 1e-17
        weights[rng.integers(T)] = 1.0
    return JointSample(loss, factors, weights)


class TestAgainstPerScenarioReference:

    @settings(max_examples=300, deadline=None)
    @given(samples())
    def test_discrete_partition_and_family(self, sample):
        flat = partition_discrete(sample)
        ref = per_scenario.partition_discrete(sample)
        _assert_same(_flat_partition(flat), _flat_partition(ref))
        _assert_same(_flat_family(from_sample(sample, flat)),
                     _flat_family(per_scenario.from_sample(sample, ref)))

    @settings(max_examples=300, deadline=None)
    @given(samples(), st.integers(1, 6))
    def test_box_partition_and_family(self, sample, bins):
        flat = partition_quantile_boxes(sample, bins)
        ref = per_scenario.partition_quantile_boxes(sample, bins)
        _assert_same(_flat_partition(flat), _flat_partition(ref))
        _assert_same(_flat_family(from_sample(sample, flat)),
                     _flat_family(per_scenario.from_sample(sample, ref)))

    @settings(max_examples=100, deadline=None)
    @given(samples(), st.integers(0, 2**32 - 1))
    def test_family_of_any_partition(self, sample, seed):
        # scenarios of scattered rows in random order
        rng = np.random.default_rng(seed)
        rows = rng.permutation(np.flatnonzero(sample.weights > 0))
        cuts = np.unique(rng.integers(1, max(rows.size, 2), rng.integers(0, 6)))
        groups = [g for g in np.split(rows, cuts) if g.size]
        weights = np.array([sample.weights[g].sum() for g in groups])
        partition = ScenarioPartition(Scenario(k, g, w / weights.sum())
                                      for k, (g, w) in enumerate(zip(groups, weights)))
        _assert_same(_flat_family(from_sample(sample, partition)),
                     _flat_family(per_scenario.from_sample(sample, partition)))

    def test_many_small_and_few_large_scenarios(self):
        rng = np.random.default_rng(3)
        T = 60_000
        w1 = np.where(np.arange(T) < 40_000, rng.integers(0, 3, T), 10 + rng.integers(0, 4000, T))
        loss = np.round(rng.standard_normal(T), 1)
        loss[(loss == 0) & (rng.random(T) < 0.5)] = -0.0
        sample = JointSample(loss, w1 / 8, rng.random(T) * (rng.random(T) > 0.1))
        flat, ref = partition_discrete(sample), per_scenario.partition_discrete(sample)
        _assert_same(_flat_partition(flat), _flat_partition(ref))
        _assert_same(_flat_family(from_sample(sample, flat)),
                     _flat_family(per_scenario.from_sample(sample, ref)))

    @pytest.mark.parametrize("n_fac", [1, 2])
    def test_more_than_2_16_scenarios(self, n_fac):
        # one factor: 70,000 distinct values, sorted as int64 keys; two:
        # 300 x 300 cells, a key above 2**16 re-ranked before grouping
        rng = np.random.default_rng(n_fac)
        T = 70_000 if n_fac == 1 else 20_000
        factors = (rng.permutation(T) if n_fac == 1 else rng.integers(0, 300, (T, 2))) / 4
        sample = JointSample(np.round(rng.standard_normal(T), 1), factors)
        flat, ref = partition_discrete(sample), per_scenario.partition_discrete(sample)
        assert flat.n_scenarios > (2**16 if n_fac == 1 else 15_000)
        _assert_same(_flat_partition(flat), _flat_partition(ref))
        _assert_same(_flat_family(from_sample(sample, flat)),
                     _flat_family(per_scenario.from_sample(sample, ref)))

    def test_cells_rerank_before_the_key_overflows(self):
        # 2**33 x 2**31 cells exceed an int64 key: the key is re-ranked
        # before the second column folds in
        rng = np.random.default_rng(9)
        radices = [2**33, 2**31, 3]
        codes = [rng.integers(0, r, 100) for r in radices]
        codes = [np.concatenate([c, c[::-1]]) for c in codes]  # two rows per cell
        order, offsets = core._cells(codes, radices)
        _, inverse = np.unique(np.column_stack(codes), axis=0, return_inverse=True)
        assert _same(order, np.argsort(inverse.reshape(-1), kind="stable"))
        assert _same(offsets, np.arange(0, 201, 2))

    def test_group_above_2_16_keys(self):
        rng = np.random.default_rng(8)
        n = 2**16 + 5
        key = np.concatenate([np.arange(n), rng.integers(0, n, 2 * n)])
        key[key == 17] = 18  # an empty group
        order, offsets = core._cells([key], [n])
        assert _same(order, np.argsort(key, kind="stable"))
        assert _same(np.diff(offsets), np.bincount(key)[np.bincount(key) > 0])


class TestSegmentHelpers:

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
    def test_sums_and_cumsums_equal_per_segment(self, sizes, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(sum(sizes)) * rng.choice([1e-9, 1.0, 1e7], sum(sizes))
        offsets = np.cumsum([0] + sizes)
        spans = list(zip(offsets[:-1], offsets[1:]))
        assert _same(core._segment_sums(values, offsets),
                     np.array([values[a:b].sum() for a, b in spans]))
        assert _same(core._segment_cumsums(values, offsets),
                     np.concatenate([values[a:b].cumsum() for a, b in spans]))

    @pytest.mark.parametrize("length", [1000, 8193, 100_000])
    def test_long_segments(self, length):
        rng = np.random.default_rng(length)
        values = rng.random(3 * length + 7)
        offsets = np.array([0, length, 2 * length, 3 * length, 3 * length + 7])
        spans = list(zip(offsets[:-1], offsets[1:]))
        assert _same(core._segment_sums(values, offsets),
                     np.array([values[a:b].sum() for a, b in spans]))
        assert _same(core._segment_cumsums(values, offsets),
                     np.concatenate([values[a:b].cumsum() for a, b in spans]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 150), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_ranks_equal_the_unique_inverse(self, sizes, seed):
        # the zeros are compared by value: the rank route keeps any of them
        rng = np.random.default_rng(seed)
        values = np.round(rng.standard_normal(sum(sizes)), 1)
        values[(values == 0) & (rng.random(values.size) < 0.5)] = -0.0
        rank, points = core._ranks(values)
        uniq, inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(rank, inverse)
        assert _same(np.abs(points), np.abs(uniq))


class TestViews:

    @pytest.fixture
    def built(self):
        rng = np.random.default_rng(5)
        sample = JointSample(np.round(rng.standard_normal(500), 1), rng.normal(size=(500, 2)))
        partition = partition_quantile_boxes(sample, 3)
        return partition, from_sample(sample, partition)

    def test_views_agree_with_the_flat_arrays(self, built):
        partition, family = built
        scenarios, laws = partition.scenarios, family.laws
        assert len(scenarios) == partition.n_scenarios == len(laws) == family.n_scenarios
        assert _same(np.concatenate([s.rows for s in scenarios]), partition.rows)
        assert _same(np.array([s.weight for s in scenarios]), partition.weights)
        assert tuple(s.label for s in scenarios) == partition.labels == family.labels
        assert _same(np.concatenate([law.support for law in laws]), family.support)
        assert _same(np.concatenate([law.cum for law in laws]), family.cum)
        assert _same(np.cumsum([0] + [law.support.size for law in laws]), family.offsets)
        assert family.laws is laws and partition.scenarios is scenarios  # built once

    def test_views_and_arrays_are_read_only(self, built):
        partition, family = built
        arrays = [partition.rows, partition.offsets, partition.weights, family.pis,
                  family.support, family.cum, family.offsets]
        arrays += [s.rows for s in partition.scenarios]
        arrays += [a for law in family.laws for a in (law.support, law.cum)]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        for obj, name in [(family, "support"), (family, "laws"), (partition, "rows"),
                          (family.laws[0], "cum"), (partition.scenarios[0], "weight")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)

    def test_box_labels_are_interval_strings(self, built):
        partition, _ = built
        cuts = partition.cuts
        assert len(cuts) == 2 and all(c.size == 2 for c in cuts)
        for label in partition.labels:
            parts = label.split("*")
            assert len(parts) == 2 and all(p.startswith("(") and p.endswith("]") for p in parts)
        assert len(set(partition.labels)) == partition.n_scenarios

    def test_engines_build_labels_only_when_read(self, built):
        partition, family = built
        levels = np.linspace(0.5, 0.95, family.n_scenarios)
        by_index = [choquet_factor(family, psi_mean_of_var(levels)),
                    choquet_factor(family, psi_mean_of_es(0.9)),
                    quantile_factor(family, pred_var_of_var(0.9, 0.5)),
                    quantile_factor(family, pred_single_scenario(3, 0.5))]
        assert "labels" not in family.__dict__
        labels = partition.labels  # the partition's own cache, not the family's
        by_label = [choquet_factor(family, psi_mean_of_var(dict(zip(labels, levels)))),
                    quantile_factor(family, pred_single_scenario(labels[3], 0.5))]
        assert by_label == [by_index[0], by_index[3]]
        assert family.__dict__["labels"] == labels
        with pytest.raises(ValidationError, match="not found"):
            quantile_factor(family, pred_single_scenario("no such box", 0.5))

    def test_closed_forms_build_labels_only_when_read(self, built):
        partition, family = built
        levels = np.linspace(0.5, 0.95, family.n_scenarios)
        by_index = [compose_var_distortion(family, levels, identity_distortion()),
                    compose_var_distortion(family, 0.9, identity_distortion()),
                    compose_es_mean(family, levels), compose_es_mean(family, 0.9)]
        assert "labels" not in family.__dict__
        by_label = dict(zip(partition.labels, levels))
        assert [compose_var_distortion(family, by_label, identity_distortion()),
                compose_es_mean(family, by_label)] == [by_index[0], by_index[2]]
        assert family.__dict__["labels"] == partition.labels

    @pytest.mark.parametrize("read_views", [False, True])
    def test_pickle_round_trip(self, built, read_views):
        partition, family = built
        if read_views:
            partition.scenarios, family.laws
        for obj, flat in ((partition, _flat_partition), (family, _flat_family)):
            copy = pickle.loads(pickle.dumps(obj))
            _assert_same(flat(copy), flat(obj))

    @pytest.mark.parametrize("read_labels", [False, True])
    def test_family_does_not_hold_its_partition(self, built, read_labels):
        partition, _ = built
        if read_labels:
            partition.labels
        family = from_sample(JointSample(np.zeros(500), np.zeros((500, 2))), partition)
        assert partition.rows.tobytes() not in pickle.dumps(family)
        assert family.labels == partition.labels

    def test_public_constructors_keep_their_objects(self):
        law = StepCDF.from_values([1.0, 2.0])
        family = ConditionalLawFamily([0.4, 0.6], [law, law], ["a", "b"])
        assert family.laws == (law, law) and family.labels == ("a", "b")
        assert _same(family.offsets, np.array([0, 2, 4]))
        scenarios = (Scenario("a", [0, 2], 0.5), Scenario("b", [1], 0.5))
        partition = ScenarioPartition(scenarios)
        assert partition.scenarios == scenarios and partition.labels == ("a", "b")
        assert _same(partition.rows, np.array([0, 2, 1])) and partition.cuts is None


def test_scenario_without_weight_is_named():
    sample = JointSample(np.arange(6.0), np.zeros(6), [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    partition = ScenarioPartition(Scenario(label, rows, 1 / 3) for label, rows in
                                  (("a", [0, 1]), ("b", [2, 3]), ("c", [4, 5])))
    with pytest.raises(ValidationError, match="scenario 'c' is empty"):
        from_sample(sample, partition)


class TestPublicConstructorChecks:

    def test_malformed_laws_are_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            StepCDF([2.0, 1.0], [0.5, 1.0])
        with pytest.raises(ValidationError, match="total mass"):
            StepCDF([1.0, 2.0], [0.5, 0.9])
        with pytest.raises(ValidationError, match="positive"):
            StepCDF([1.0, 2.0], [0.0, 1.0])
        law = StepCDF([1.0], [1.0])
        with pytest.raises(ValidationError, match="StepCDF instances"):
            ConditionalLawFamily([0.5, 0.5], [law, (np.array([1.0]), np.array([1.0]))])
        with pytest.raises(ValidationError, match="align"):
            ConditionalLawFamily([0.5, 0.5], [law])
        with pytest.raises(ValidationError, match="sum to 1"):
            ConditionalLawFamily([0.5, 0.6], [law, law])
        with pytest.raises(ValidationError, match="labels"):
            ConditionalLawFamily([0.5, 0.5], [law, law], ["a"])

    @pytest.mark.parametrize("support, cum, offsets, message", [
        ([1.0, 2.0, 1.5], [0.5, 1.0, 1.0], [0, 2, 2, 3], "at least one support point"),
        ([1.0, 1.0, 0.5], [0.5, 1.0, 1.0], [0, 2, 3], "support must be strictly increasing"),
        ([1.0, 2.0, 0.5], [0.5, 0.5, 1.0], [0, 2, 3], "cum must be strictly increasing"),
        ([1.0, 2.0, 0.5], [0.5, 1.0, 0.0], [0, 2, 3], "cum must be strictly increasing"),
        ([1.0, 2.0, 0.5], [0.5, 1.0, 0.9], [0, 2, 3], "total mass must be 1"),
        ([1.0, 2.0, 0.5], [0.5, 1.0 + 10 * PROB_TOL, 1.0], [0, 2, 3], "total mass must be 1"),
    ])
    def test_flat_law_checks(self, support, cum, offsets, message):
        with pytest.raises(ValidationError, match=message):
            ConditionalLawFamily._from_flat(np.array([0.5, 0.5]), np.array(support),
                                            np.array(cum), np.array(offsets), None)

    def test_laws_may_overlap_across_segments(self):
        family = ConditionalLawFamily._from_flat(np.array([0.5, 0.5]), np.array([1.0, 2.0, 0.5]),
                                                 np.array([0.5, 1.0, 1.0]), np.array([0, 2, 3]),
                                                 None)
        assert [law.support.tolist() for law in family.laws] == [[1.0, 2.0], [0.5]]

    def test_malformed_partitions_are_rejected(self):
        with pytest.raises(ValidationError, match="at least one scenario"):
            ScenarioPartition(())
        with pytest.raises(ValidationError, match="disjoint"):
            ScenarioPartition((Scenario(0, [0, 1], 0.5), Scenario(1, [1, 2], 0.5)))
        with pytest.raises(ValidationError, match="disjoint"):
            ScenarioPartition((Scenario(0, [3, 0, 3], 1.0),))
        with pytest.raises(ValidationError, match="sum to 1"):
            ScenarioPartition((Scenario(0, [0], 0.5), Scenario(1, [1], 0.6)))
        with pytest.raises(ValidationError, match="nonempty"):
            ScenarioPartition((Scenario(0, [], 0.5),))
        with pytest.raises(ValidationError, match="positive"):
            ScenarioPartition((Scenario(0, [0], 0.0),))


def _from_values_add_at(values, weights):
    """``StepCDF.from_values`` with the masses summed by ``np.add.at``."""
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    uniq, inverse = np.unique(vals, return_inverse=True)
    masses = np.zeros(uniq.shape)
    np.add.at(masses, inverse, w)
    keep = masses > MIN_ATOM_MASS
    cum = np.cumsum(masses[keep])
    return uniq[keep], cum / cum[-1]


def _canonical_add_at(xs, ws, ps):
    """``DiscreteJointDistribution``'s merged atoms, masses summed by ``np.add.at``."""
    ws = round_significant(np.asarray(ws, dtype=float).reshape(len(xs), -1))
    order = np.lexsort(np.column_stack([xs, ws[:, ::-1]]).T)
    xs, ws, ps = xs[order], ws[order], ps[order]
    key = np.column_stack([ws, xs])
    new_atom = np.ones(xs.size, dtype=bool)
    new_atom[1:] = np.any(key[1:] != key[:-1], axis=1)
    group = np.cumsum(new_atom) - 1
    merged = np.zeros(group[-1] + 1)
    np.add.at(merged, group, ps)
    keep = merged > MIN_ATOM_MASS
    merged = merged[keep]
    if abs(merged.sum() - 1.0) > 1e-13:
        merged = merged / merged.sum()
    return xs[new_atom][keep], ws[new_atom][keep], merged


class TestBincountEqualsAddAt:

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_from_values(self, n, decimals, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.standard_normal(n) * 3, decimals)
        values[(values == 0) & (rng.random(n) < 0.5)] = -0.0
        weights = rng.random(n) * rng.choice([1e-18, 1e-3, 1.0, 1e6], n)
        weights[rng.integers(n)] = 1.0
        law = StepCDF.from_values(values, weights)
        support, cum = _from_values_add_at(values + 0.0, weights)  # -0.0 enters as 0.0
        assert _same(law.support, support) and _same(law.cum, cum)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_discrete_joint_distribution(self, n, n_fac, seed):
        rng = np.random.default_rng(seed)
        xs = np.round(rng.standard_normal(n), 1)
        ws = rng.integers(0, 3, (n, n_fac)) / 3
        ps = rng.random(n) * rng.choice([1e-17, 1e-3, 1.0], n)
        ps[rng.integers(n)] = 1.0
        ps = ps / ps.sum()
        if abs(ps.sum() - 1.0) > PROB_TOL:
            return
        dist = DiscreteJointDistribution(xs, ws, ps)
        want = _canonical_add_at(xs + 0.0, ws, ps)  # np.round makes -0.0, which enters as 0.0
        assert all(_same(got, w) for got, w in zip((dist.xs, dist.ws, dist.ps), want))
