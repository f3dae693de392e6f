"""The closed forms and the sharing check on the flat arrays.

``scalar.es``, ``compose_var_distortion``, ``compose_es_mean``,
``es_composition``, ``scenario_means`` (and so ``linear_factor``) and
``sharing.transform_family`` read a family's flat ``support``, ``cum`` and
``offsets``.  Each must equal its former per-law loop, kept in
``per_scenario.py``, bit for bit.

Families have probability ties, with levels equal to a law's cum values,
single-atom laws, both signed zeros, offsets of 1e9, and many equal-length
laws next to one long law.  Their laws come from ``StepCDF.from_values``
(last cum exactly 1) or are normalized by hand (last cum may be an ulp
above 1).  A label-keyed ``LevelMap`` runs on a quantile-box family whose
labels are not yet built, and the allocations of the sharing check have
zero-slope intervals, where mapped atoms merge.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (ConditionalLawFamily, JointSample, StepCDF, ValidationError,
                        allocation_value_check, choquet_factor, compose_es_mean,
                        compose_var_distortion, es_composition, es_distortion, from_sample,
                        identity_distortion,
                        linear_factor, partition_quantile_boxes, piecewise_linear_distortion,
                        psi_mean_of_es, psi_mean_of_var, scalar, var_distortion)
from factorrisk.sharing import PiecewiseLinearAllocation, transform_family

SPECIAL_LEVELS = (0.25, 0.5, 0.75, 1 / 3, 2 / 3, 1 / 9, 0.9, 0.99, 1 - 1e-9, 1 - 1e-12)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _flat(family):
    return [_bits(family.pis), _bits(family.support), _bits(family.cum), _bits(family.offsets),
            family.labels]


def _law(rng, k: int, span: int, offset: float, by_hand: bool, zero: float) -> StepCDF:
    """k distinct support points on a grid of ``span`` ticks (0 mapped to
    ``zero``), with small integer masses: equal masses tie cum values."""
    span = max(span, k)
    ticks = np.sort(rng.choice(np.arange(-span, span + 1), size=k, replace=False))
    support = offset + 0.5 * ticks
    support[support == 0] = zero
    masses = rng.integers(1, 4, k).astype(float)
    if by_hand:  # normalized by hand: the last cum may end an ulp off 1
        return StepCDF(support, np.cumsum(masses / masses.sum()))
    return StepCDF.from_values(support, masses)


@st.composite
def families(draw):
    """Many laws of one length next to a long law and a few of other
    lengths; single-atom laws when the common length is 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from((0.0, 1e9)))
    zero = draw(st.sampled_from((0.0, -0.0)))
    by_hand = draw(st.booleans())
    short = draw(st.integers(1, 4))
    lengths = [short] * draw(st.integers(0, 30)) + [int(k) for k in rng.integers(1, 7, 3)]
    if draw(st.booleans()):
        lengths.append(draw(st.integers(1, 300)))
    rng.shuffle(lengths)
    laws = [_law(rng, k, 8, offset, by_hand, zero) for k in lengths]
    weights = rng.integers(1, 5, len(laws)).astype(float)
    labels = tuple(f"s{i}" for i in range(len(laws)))
    return ConditionalLawFamily(weights / weights.sum(), laws, labels)


def _levels(data, family, var: bool):
    """A constant, a vector or a label map of levels; many are cum values."""
    cums = family.cum[family.cum <= 1.0] if var else family.cum[family.cum < 1.0]
    pool = [st.sampled_from(SPECIAL_LEVELS), st.floats(0.001, 0.999)]
    pool.append(st.sampled_from(tuple(cums.tolist())) if cums.size else st.just(0.5))
    pool.append(st.just(1.0) if var else st.just(0.0))
    level = st.one_of(*pool)
    form = data.draw(st.sampled_from(("constant", "vector", "labels")))
    if form == "constant":
        return data.draw(level)
    values = [data.draw(level) for _ in range(family.n_scenarios)]
    return values if form == "vector" else dict(zip(family.labels, values))


def _es_level(cum: np.ndarray):
    """An ES level: 0, a special level or one of the cum values below 1."""
    below = tuple(cum[cum < 1].tolist()) or (0.5,)
    return st.one_of(st.sampled_from((0.0,) + SPECIAL_LEVELS), st.sampled_from(below))


def _lam(data):
    q = data.draw(st.one_of(st.sampled_from(SPECIAL_LEVELS), st.floats(0.01, 0.99)))
    return data.draw(st.sampled_from((
        identity_distortion(), es_distortion(q), var_distortion(q),
        piecewise_linear_distortion([0.0, 0.5, 1.0], [0.0, 0.2, 1.0]))))


class TestClosedFormsEqualPerLawLoops:

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_scalar_es(self, family, data):
        for law in family.laws:
            a = data.draw(_es_level(law.cum))
            assert _bits(scalar.es(law, a)) == _bits(per_scenario.es(law, a))

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_compose_var_distortion(self, family, data):
        levels, lam = _levels(data, family, var=True), _lam(data)
        assert (_bits(compose_var_distortion(family, levels, lam))
                == _bits(per_scenario.compose_var_distortion(family, levels, lam)))

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_compose_es_mean(self, family, data):
        levels = _levels(data, family, var=False)
        assert (_bits(compose_es_mean(family, levels))
                == _bits(per_scenario.compose_es_mean(family, levels)))

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_es_composition(self, family, data):
        p = data.draw(_es_level(family.cum))
        q = data.draw(st.sampled_from((0.0,) + SPECIAL_LEVELS))
        assert _bits(es_composition(family, p)) == _bits(per_scenario.es_composition(family, p))
        assert (_bits(es_composition(family, p, "es", q))
                == _bits(per_scenario.es_composition(family, p, "es", q)))

    @settings(max_examples=200, deadline=None)
    @given(families(), st.integers(0, 2**32 - 1))
    def test_scenario_means_and_linear(self, family, seed):
        assert _bits(family.scenario_means()) == _bits(per_scenario.scenario_means(family))
        w = np.random.default_rng(seed).random(family.n_scenarios)
        for weighting in ("physical", w / w.sum()):
            assert (_bits(linear_factor(family, weighting))
                    == _bits(per_scenario.linear_factor(family, weighting)))

    def test_many_laws_of_few_lengths(self):
        rng = np.random.default_rng(5)
        laws = [_law(rng, k, 40, 0.0, bool(i % 2), 0.0)
                for i, k in enumerate([3] * 2000 + [1] * 500 + [2000])]
        family = ConditionalLawFamily(np.full(len(laws), 1 / len(laws)), laws)
        g = rng.random(family.n_scenarios)
        assert (_bits(compose_es_mean(family, g))
                == _bits(per_scenario.compose_es_mean(family, g)))
        assert (_bits(compose_var_distortion(family, 1 - g, identity_distortion()))
                == _bits(per_scenario.compose_var_distortion(family, 1 - g,
                                                             identity_distortion())))
        assert _bits(family.scenario_means()) == _bits(per_scenario.scenario_means(family))

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan"), 1])
    def test_es_level_messages(self, p):
        law = StepCDF(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
        family = ConditionalLawFamily(np.array([1.0]), [law])
        for flat, ref in ((lambda: scalar.es(law, p), lambda: per_scenario.es(law, p)),
                          (lambda: es_composition(family, p),
                           lambda: per_scenario.es_composition(family, p))):
            with pytest.raises(ValidationError) as got:
                flat()
            with pytest.raises(ValidationError) as want:
                ref()
            assert str(got.value) == str(want.value)


def _box_family(seed: int):
    rng = np.random.default_rng(seed)
    factors = np.round(rng.standard_normal((400, 2)), 1)
    loss = np.round(factors.sum(axis=1) + rng.standard_normal(400), 1)
    sample = JointSample(loss, factors)
    return lambda: from_sample(sample, partition_quantile_boxes(sample, 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_label_levels_on_lazy_box_labels(seed):
    build = _box_family(seed)
    labels = build().labels
    rng = np.random.default_rng(seed)
    levels = {lab: float(v) for lab, v in zip(labels, rng.choice([0.25, 0.5, 0.9], len(labels)))}
    for flat, ref in ((lambda f: compose_es_mean(f, levels),
                       lambda f: per_scenario.compose_es_mean(f, levels)),
                      (lambda f: compose_var_distortion(f, levels, var_distortion(0.5)),
                       lambda f: per_scenario.compose_var_distortion(f, levels,
                                                                     var_distortion(0.5)))):
        family = build()
        assert "labels" not in family.__dict__  # the labels are still unbuilt
        assert _bits(flat(family)) == _bits(ref(build()))


def _allocation(rng, breakpoints: np.ndarray, n_agents: int) -> PiecewiseLinearAllocation:
    """Each interval goes whole to one agent or is split equally among all,
    so every agent has zero-slope intervals."""
    m = breakpoints.size - 1
    slopes = np.zeros((n_agents, m))
    winner = rng.integers(0, n_agents, m)
    slopes[winner, np.arange(m)] = 1.0
    slopes[:, rng.random(m) < 0.2] = 1.0 / n_agents
    return PiecewiseLinearAllocation(breakpoints, slopes)


class TestTransformFamily:

    @settings(max_examples=200, deadline=None)
    @given(families(), st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_equals_per_law_loop(self, family, seed, n_agents):
        allocation = _allocation(np.random.default_rng(seed), family.mixture().support, n_agents)
        for agent in range(n_agents):
            assert (_flat(transform_family(family, allocation, agent))
                    == _flat(per_scenario.transform_family(family, allocation, agent)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lazy_labels_and_check(self, seed):
        build = _box_family(seed)
        family = build()
        x_law = family.mixture()
        agents = [(psi_mean_of_es(0.9), family), (psi_mean_of_var(0.5), build())]
        allocation = _allocation(np.random.default_rng(seed), x_law.support, 2)
        mapped = transform_family(family, allocation, 0)
        assert "labels" not in family.__dict__ and "labels" not in mapped.__dict__
        mapped = pickle.loads(pickle.dumps(mapped))  # the label source pickles
        assert _flat(mapped) == _flat(per_scenario.transform_family(build(), allocation, 0))
        want = 0.0  # the check's own sum, over the per-law transforms
        for i, (psi, f) in enumerate(agents):
            want += choquet_factor(per_scenario.transform_family(f, allocation, i), psi)
        assert _bits(allocation_value_check(allocation, agents, x_law)) == _bits(want)
