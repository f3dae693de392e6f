import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import StepCDF, conditioning, quantile, var
from factorrisk import (
    EmptyEventError,
    JointSample,
    NullQuantileEventError,
    LevelMap,
    ValidationError,
    VarBox,
    partition_discrete,
    partition_quantile_boxes,
    tail_box,
    var_box_event,
)
from conftest import random_discrete_dist


class TestPartitionDiscrete:
    def test_d1(self, d1_sample):
        part = partition_discrete(d1_sample)
        assert part.n_scenarios == 2
        assert part.labels == (0.0, 1.0)
        assert np.allclose(part.weights, [0.5, 0.5])

    def test_single_scenario(self):
        s = JointSample(np.arange(4.0), np.full(4, 2.0))
        part = partition_discrete(s)
        assert part.n_scenarios == 1
        assert part.weights[0] == pytest.approx(1.0)

    def test_lex_order_two_factors(self):
        facs = np.array([[1.0, 5.0], [0.0, 9.0], [1.0, 2.0]])
        s = JointSample(np.arange(3.0), facs)
        part = partition_discrete(s)
        assert part.labels == ((0.0, 9.0), (1.0, 2.0), (1.0, 5.0))

    def test_coverage_and_total_weight(self):
        rng = np.random.default_rng(0)
        s = JointSample(rng.normal(size=40), rng.integers(0, 4, size=40).astype(float),
                        rng.random(40))
        part = partition_discrete(s)
        counted = sum(scen.rows.size for scen in part.scenarios)
        assert counted == 40
        assert sum(s.weight for s in part.scenarios) == pytest.approx(1.0, abs=1e-12)


class TestQuantileBoxes:
    def test_d1_two_bins_matches_discrete(self, d1_sample):
        boxes = partition_quantile_boxes(d1_sample, 2)
        disc = partition_discrete(d1_sample)
        assert boxes.n_scenarios == disc.n_scenarios
        for a, b in zip(boxes.scenarios, disc.scenarios):
            assert set(a.rows.tolist()) == set(b.rows.tolist())

    def test_single_bin(self, d1_sample):
        part = partition_quantile_boxes(d1_sample, 1)
        assert part.n_scenarios == 1

    def test_quarter_weights(self):
        rng = np.random.default_rng(1)
        s = JointSample(rng.normal(size=100), rng.permutation(100).astype(float))
        part = partition_quantile_boxes(s, 4)
        assert part.n_scenarios == 4
        for scen in part.scenarios:
            assert abs(scen.weight - 0.25) <= 1.0 / 100 + 1e-12

    def test_bins_equal_distinct_values_matches_discrete(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            reps = int(rng.integers(1, 4))
            vals = np.repeat(np.sort(rng.choice(20, k, replace=False)).astype(float), reps)
            s = JointSample(rng.normal(size=vals.size), rng.permutation(vals))
            boxes = partition_quantile_boxes(s, k)
            disc = partition_discrete(s)
            assert boxes.n_scenarios == disc.n_scenarios
            box_sets = sorted(tuple(sorted(sc.rows.tolist())) for sc in boxes.scenarios)
            disc_sets = sorted(tuple(sorted(sc.rows.tolist())) for sc in disc.scenarios)
            assert box_sets == disc_sets

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.booleans())
    def test_cuts_equal_the_var_loop(self, bins, seed, weighted):
        # one search of all the levels k / bins gives scalar.var's cuts; the
        # columns have ties, and the levels then fall on their cum values
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 3000))
        col = np.round(rng.standard_normal(T), int(rng.integers(0, 3)))
        weights = rng.integers(1, 4, T).astype(float) if weighted else None
        sample = JointSample(rng.standard_normal(T), col, weights)
        cdf = StepCDF.from_values(col, sample.weights)
        want = np.unique([var(cdf, k / bins) for k in range(1, bins)])
        got = partition_quantile_boxes(sample, bins).cuts[0]
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("bins", [2, 4, 8, 64, 256])
    def test_cuts_on_levels_that_cum_hits(self, bins):
        # 4 rows per value over a power-of-two count: cum reaches every k / bins exactly
        col = np.repeat(np.arange(bins, dtype=float), 4)
        sample = JointSample(np.zeros(col.size), col)
        cdf = StepCDF.from_values(col)
        want = np.unique([var(cdf, k / bins) for k in range(1, bins)])
        got = partition_quantile_boxes(sample, bins).cuts[0]
        assert got.tolist() == want.tolist() == list(range(bins - 1))

    def test_partition_covers(self):
        rng = np.random.default_rng(3)
        s = JointSample(rng.normal(size=60), rng.normal(size=(60, 2)))
        part = partition_quantile_boxes(s, 3)
        counted = sum(sc.rows.size for sc in part.scenarios)
        assert counted == 60
        assert sum(sc.weight for sc in part.scenarios) == pytest.approx(1.0, abs=1e-12)


def _scan_group(key, size):
    """The grouping as one full scan per scenario (the former loop)."""
    groups = [g for g in (np.flatnonzero(key == i) for i in range(size)) if g.size]
    return np.concatenate(groups), np.cumsum([0] + [g.size for g in groups])


def _scan_cells(codes, radices):
    """The cells as one full scan per cell over the lexicographic rank of each code vector."""
    _, key = np.unique(np.column_stack(codes), axis=0, return_inverse=True)
    return _scan_group(key.reshape(-1), key.max() + 1)


def _same_partition_as_scan(build, sample):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditioning, "_cells", _scan_cells)
        scanned = build(sample)
    grouped = build(sample)
    assert grouped.n_scenarios == scanned.n_scenarios
    for a, b in zip(grouped.scenarios, scanned.scenarios):
        assert a.label == b.label
        assert np.array_equal(a.rows, b.rows)
        assert a.weight == b.weight


class TestGroupingEqualsScan:
    """One stable sort gives every scenario the rows, label and weight of a
    per-scenario scan, bit for bit."""

    def test_fixtures(self, d1_sample):
        rng = np.random.default_rng(4)
        samples = [d1_sample] + [random_discrete_dist(rng).to_sample() for _ in range(20)]
        samples.append(JointSample(rng.normal(size=300), rng.normal(size=(300, 2)),
                                   rng.random(300) * (rng.random(300) > 0.2)))
        for sample in samples:
            _same_partition_as_scan(partition_discrete, sample)
            for bins in (1, 2, 3):
                _same_partition_as_scan(lambda s: partition_quantile_boxes(s, bins), sample)

    def test_large_discrete_sample(self):
        rng = np.random.default_rng(5)
        T = 200_000
        w1 = (rng.integers(0, 2000, T) - 1000) / 100
        w2 = rng.integers(0, 8, T) - 3.5
        weights = rng.random(T) * (rng.random(T) > 0.01)
        sample = JointSample(rng.normal(size=T), np.column_stack([w1, w2]), weights)
        one = JointSample(sample.loss, w1, weights)
        _same_partition_as_scan(partition_discrete, one)
        _same_partition_as_scan(lambda s: partition_quantile_boxes(s, 16), sample)


class TestVarBoxEvent:
    def test_d1_tail(self, d1_sample):
        ev = var_box_event(d1_sample, tail_box(0.75))
        assert ev.n_rows == 4
        assert np.all(ev.factors[:, 0] == 1.0)
        assert np.allclose(ev.weights, 0.25)

    def test_tiny_alpha_keeps_smallest(self):
        s = JointSample(np.arange(5.0), np.array([3.0, 1.0, 4.0, 0.0, 2.0]))
        ev = var_box_event(s, VarBox(np.array([1e-9]), np.array([1e-9])))
        assert ev.n_rows == 1
        assert ev.factors[0, 0] == 0.0

    def test_full_box_returns_everything(self, d1_sample):
        ev = var_box_event(d1_sample, VarBox(np.array([1e-12 + 1e-15]), np.array([1.0])))
        assert ev.n_rows == d1_sample.n_rows

    def test_empty_event_rejected(self):
        # anticorrelated factors: the joint upper-tail box holds no row
        facs = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = JointSample(np.array([1.0, 2.0]), facs)
        with pytest.raises(EmptyEventError):
            var_box_event(s, VarBox(np.array([0.75, 0.75]), np.array([1.0, 1.0])))

    def test_box_validation(self):
        with pytest.raises(ValidationError):
            VarBox(np.array([0.5]), np.array([0.4]))
        with pytest.raises(ValidationError):
            VarBox(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            VarBox(np.array([0.5]), np.array([1.2]))
        with pytest.raises(ValidationError, match="alpha levels"):
            VarBox(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValidationError, match="beta levels"):
            VarBox(np.array([0.5]), np.array([np.nan]))


class TestLevelMap:
    def test_constant(self):
        g = LevelMap.of(0.4).resolve(3)
        assert np.allclose(g, 0.4)

    def test_an_instance_is_taken_as_it_is(self):
        levels = LevelMap(values=[0.2, 0.6])
        assert LevelMap.of(levels) is levels

    def test_vector_and_labels(self):
        g = LevelMap.of([0.2, 0.6]).resolve(2)
        assert g.tolist() == [0.2, 0.6]
        by_label = LevelMap.of({0.0: 0.1, 1.0: 0.9})
        assert by_label.resolve(2, labels=(0.0, 1.0)).tolist() == [0.1, 0.9]

    def test_missing_label_rejected(self):
        with pytest.raises(ValidationError):
            LevelMap.of({0.0: 0.1}).resolve(2, labels=(0.0, 1.0))

    @pytest.mark.parametrize("kwargs", [{}, {"constant": 0.0, "values": [0.5]},
                                        {"constant": 0.5, "values": [0.5], "by_label": {}}])
    def test_exactly_one_form(self, kwargs):
        with pytest.raises(ValidationError) as exc:
            LevelMap(**kwargs)
        assert str(exc.value) == "provide exactly one of constant, values, by_label"

    def test_domain(self):
        with pytest.raises(ValidationError):
            LevelMap.of(1.5)
        with pytest.raises(ValidationError):
            LevelMap.of([0.5, -0.1])

    @pytest.mark.parametrize("spec", [[[0.5, 0.5]], np.full((2, 1), 0.5), [[]]])
    def test_level_vector_must_be_one_dimensional(self, spec):
        with pytest.raises(ValidationError, match="level vector must be 1-D"):
            LevelMap.of(spec)

    @pytest.mark.parametrize("spec, bad", [([0.5, -0.1, 2.0], "-0.1"), ([0.2, np.nan], "nan"),
                                           (1.5, "1.5"), ({"a": 0.3, "b": 1.25}, "1.25")])
    def test_first_bad_level_is_named(self, spec, bad):
        with pytest.raises(ValidationError) as exc:
            LevelMap.of(spec)
        assert str(exc.value) == f"scenario level must be in [0, 1], got {bad}"


def _boxes_by_unique_rows(sample, bins):
    """Quantile boxes grouped by np.unique over code rows (the former route),
    and the number of intervals of each factor."""
    rows = np.flatnonzero(sample.weights > 0)
    edges, codes = [], []
    for j in range(sample.n_factors):
        col = sample.factors[rows, j]
        cdf = StepCDF.from_values(col, sample.weights[rows])
        edges.append(np.unique([var(cdf, k / bins) for k in range(1, bins)]))
        codes.append(np.searchsorted(edges[j], col, side="left"))
    uniq, inverse = np.unique(np.column_stack(codes), axis=0, return_inverse=True)
    out = []
    for i in range(uniq.shape[0]):
        members = rows[inverse.reshape(-1) == i]
        weight = float(sample.weights[members].sum())
        if weight > 0:
            label = "*".join(conditioning._interval_label(edges[j], uniq[i, j])
                             for j in range(sample.n_factors))
            out.append((label, members, weight))
    return out, [e.size + 1 for e in edges]


class TestBoxKeyEqualsRowUnique:
    """One integer key per box groups rows as np.unique(axis=0) did."""

    @pytest.mark.parametrize("n_fac, bins, T, tied", [(1, 8, 3000, True), (3, 8, 3000, True),
                                                      (7, 4, 3000, True), (11, 60, 400, False)])
    def test_same_grouping(self, n_fac, bins, T, tied):
        rng = np.random.default_rng(n_fac)
        factors = rng.normal(size=(T, n_fac))
        if tied:
            factors[:, 0] = rng.integers(0, 5, T)  # ties collapse some cuts
        weights = rng.random(T) * (rng.random(T) > 0.1)
        sample = JointSample(rng.normal(size=T), factors, weights)
        part = partition_quantile_boxes(sample, bins)
        expected, radices = _boxes_by_unique_rows(sample, bins)
        if not tied:
            # a single mixed-radix key over all factors would overflow int64
            assert math.prod(radices) > 2 ** 63
        assert part.n_scenarios == len(expected)
        for sc, (label, members, weight) in zip(part.scenarios, expected):
            assert sc.label == label
            assert np.array_equal(sc.rows, members)
            assert sc.weight == weight


@st.composite
def weighted_discrete_samples(draw):
    """Few factor values per column, planted equal losses, signed zeros and
    zero-weight rows (a row is kept with weight 1 so the total is positive)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, n_fac, values = draw(st.integers(1, 120)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    factors = (rng.integers(0, values, (T, n_fac)) - values // 2) / 2
    factors[(factors == 0) & (rng.random((T, n_fac)) < 0.5)] = -0.0
    weights = rng.random(T) + 0.01
    weights[rng.random(T) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    weights[rng.integers(T)] = 1.0
    return JointSample(np.round(rng.standard_normal(T), 1), factors, weights)


levels = st.sampled_from([1e-9, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9]) | st.floats(0.01, 0.99)


def _same_law(got: StepCDF, want: StepCDF | None):
    assert want is not None
    assert got.support.tobytes() == want.support.tobytes()
    assert got.cum.tobytes() == want.cum.tobytes()


class TestEventLawAgainstPerRowReference:
    """``conditioning.event_law`` is the law a per-row loop finds, bit for bit,
    and the degenerate box [alpha, alpha] selects what the former equality
    route did."""

    @staticmethod
    def _check(sample, event):
        want = per_scenario.event_law(sample, event)
        if want is None:
            with pytest.raises(EmptyEventError, match="^conditioning event has zero probability$"):
                conditioning.event_law(sample, event)
        else:
            _same_law(conditioning.event_law(sample, event), want)

    @settings(max_examples=200, deadline=None)
    @given(weighted_discrete_samples(), st.data())
    def test_box_and_tail(self, sample, data):
        n = sample.n_factors
        alpha = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)))
        width = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        beta = np.minimum(alpha + width, 1.0)
        self._check(sample, VarBox(alpha, beta))
        self._check(sample, conditioning.tail_box(alpha))

    @settings(max_examples=200, deadline=None)
    @given(weighted_discrete_samples(), st.data())
    def test_factor_values(self, sample, data):
        rows = data.draw(st.lists(st.integers(0, sample.n_rows - 1), min_size=1, max_size=3))
        event = sample.factors[rows]
        if data.draw(st.booleans()):  # a vector no row holds
            event = np.vstack([event, np.full(sample.n_factors, 9.5)])
        self._check(sample, event)

    @settings(max_examples=200, deadline=None)
    @given(weighted_discrete_samples(), st.data())
    def test_equal_is_the_degenerate_box(self, sample, data):
        n = sample.n_factors
        alpha = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)))
        want = per_scenario.equal_event_law(sample, alpha)
        if want is None:
            with pytest.raises(NullQuantileEventError, match="carries no joint mass"):
                quantile._event_cdf(sample, alpha, "equal", None)
        else:
            _same_law(quantile._event_cdf(sample, alpha, "equal", None), want)
            _same_law(conditioning.event_law(sample, VarBox(alpha, alpha)), want)
