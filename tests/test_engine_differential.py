"""Differential tests of the evaluation engine.

``choquet_factor``, ``quantile_factor`` and ``sharing.integrand_matrix``
are compared with the dense definition (the distortion or predicate
applied to the full scenario CDF matrix), with the per-scenario closed
forms (``compose_es_mean``, ``compose_var_distortion``, ``es_composition``)
and with the Riemann oracle.  Families have tied losses, single-atom
scenarios, negative losses and offsets of 1e9; levels come as constants,
vectors and label maps, reach towards 1, and q = 1 is included.

At an exact probability tie the closed forms may take the next atom,
because their float cumsum lands a few ulps under the level (Findings 1
and 2 of perfbench/README.md).  The property tests therefore admit the
closed form at levels within PROB_TOL of the given ones; the tie cases at
the end pin the exact mismatch as strict xfails.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorrisk import (
    ConditionalLawFamily,
    LevelMap,
    StepCDF,
    choquet_factor,
    compose_es_mean,
    compose_var_distortion,
    es_composition,
    es_distortion,
    identity_distortion,
    piecewise_linear_distortion,
    pred_custom,
    pred_esssup_var,
    pred_single_scenario,
    pred_var_of_var,
    psi_custom,
    psi_es_on_box,
    psi_indicator_var_var,
    psi_lambda_of_var,
    psi_mean,
    psi_mean_of_es,
    psi_mean_of_var,
    quantile_factor,
    var,
    var_distortion,
)
from factorrisk import core
from factorrisk.core import PROB_TOL
from factorrisk.sharing import integrand_matrix
from oracles import (cdf_matrix, choquet_riemann_oracle, dense_choquet, dense_quantile,
                     oracle_tolerance)

# exact-tie fractions, and levels reaching towards 1
SPECIAL_LEVELS = (0.25, 0.5, 0.75, 1 / 3, 2 / 3, 1 / 9, 0.9, 0.99, 1 - 1e-9, 1 - 1e-12)
OFFSETS = (0.0, 1e9)
SCALES = (0.5, 0.1, 1 / 3)
# engine blocks of max(n, MIN_SWEEP_BLOCK) rows: 1 and 2 restart the sum
# on almost every row, 256 runs each small family in one block
BLOCKS = (1, 2, 256)

levels_in_unit = st.one_of(st.sampled_from(SPECIAL_LEVELS), st.floats(0.01, 0.99))


@st.composite
def families(draw, max_scenarios: int = 5, max_atoms: int = 6, offsets=OFFSETS):
    """Random families: tied losses on a grid, single-atom scenarios, negative
    losses, optional 1e9 offset, integer-ratio masses and scenario weights."""
    n = draw(st.integers(1, max_scenarios))
    offset = draw(st.sampled_from(offsets))
    scale = draw(st.sampled_from(SCALES))
    laws = []
    for _ in range(n):
        k = draw(st.integers(1, max_atoms))
        ticks = draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))
        mass = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        laws.append(StepCDF.from_values(offset + scale * np.array(ticks, dtype=float),
                                        np.array(mass, dtype=float)))
    weights = np.array(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)), dtype=float)
    labels = tuple(f"s{i}" for i in range(n))
    return ConditionalLawFamily(weights / weights.sum(), tuple(laws), labels)


def draw_levels(data, fam, level_strategy):
    """A constant level, a per-scenario vector, or a label map."""
    form = data.draw(st.sampled_from(("constant", "vector", "labels")))
    if form == "constant":
        return data.draw(level_strategy)
    values = [data.draw(level_strategy) for _ in range(fam.n_scenarios)]
    if form == "vector":
        return values
    return dict(zip(fam.labels, values))


def tolerance(fam) -> float:
    return 1e-12 * max(1.0, float(np.abs(fam.merged_support()).max()))


def dense_integrand(fam, psi) -> np.ndarray:
    xs = fam.mixture().support
    return psi.apply(1 - cdf_matrix(fam, xs[:-1]), fam.pis, fam.labels)


def _es_custom(t, vectorized):
    if vectorized:
        return lambda V, pi: (np.minimum(V, t) / t) @ pi
    return lambda v, pi: float((np.minimum(v, t) / t) @ pi)


def draw_distortion(data, fam):
    """A scenario distortion and whether its outer map jumps."""
    kind = data.draw(st.sampled_from(("mean", "mean_of_es", "mean_of_var", "lambda_of_var",
                                      "es_on_box", "indicator", "custom")))
    n = fam.n_scenarios
    if kind == "mean":
        return psi_mean(), False
    if kind == "mean_of_es":
        return psi_mean_of_es(draw_levels(data, fam, levels_in_unit)), False
    if kind == "mean_of_var":
        var_levels = st.one_of(levels_in_unit, st.just(1.0))
        return psi_mean_of_var(draw_levels(data, fam, var_levels)), False
    if kind == "lambda_of_var":
        q = data.draw(levels_in_unit)
        lam = data.draw(st.sampled_from((
            identity_distortion(), es_distortion(q), var_distortion(q),
            piecewise_linear_distortion([0.0, 0.3, 1.0], [0.0, 0.6, 1.0]))))
        psi = psi_lambda_of_var(lam, draw_levels(data, fam, levels_in_unit))
        return psi, lam.kind == "var_level"
    if kind == "es_on_box":
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        return psi_es_on_box(data.draw(levels_in_unit), subset), False
    if kind == "indicator":
        q = data.draw(st.one_of(levels_in_unit, st.just(1.0)))
        return psi_indicator_var_var(data.draw(levels_in_unit), q), True
    t = 1.0 - data.draw(levels_in_unit)
    vectorized = data.draw(st.booleans())
    return psi_custom(_es_custom(t, vectorized), n, vectorized=vectorized, check_pairs=50), False


def draw_predicate(data, fam):
    kind = data.draw(st.sampled_from(("var_of_var", "esssup", "single", "custom")))
    p = data.draw(levels_in_unit)
    if kind == "var_of_var":
        return pred_var_of_var(p, data.draw(st.one_of(levels_in_unit, st.just(1.0))))
    if kind == "esssup":
        return pred_esssup_var(p)
    if kind == "single":
        i = data.draw(st.integers(0, fam.n_scenarios - 1))
        by_label = data.draw(st.booleans())
        return pred_single_scenario(fam.labels[i] if by_label else i,
                                    data.draw(st.one_of(st.just(p), st.just(1.0))))
    return pred_custom(lambda U, pi: np.all(U >= p, axis=1), fam.n_scenarios, vectorized=True,
                       check_pairs=50)


class TestAgainstDenseDefinition:
    @settings(max_examples=300, deadline=None)
    @given(families(), st.data())
    def test_choquet_and_integrand_rows(self, fam, data):
        psi, jumps = draw_distortion(data, fam)
        block = data.draw(st.sampled_from(BLOCKS))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "MIN_SWEEP_BLOCK", block)
            value = choquet_factor(fam, psi)
            row = integrand_matrix(fam.mixture(), [(psi, fam)])[0]
        assert value == pytest.approx(dense_choquet(fam, psi), abs=tolerance(fam))
        want = dense_integrand(fam, psi)
        if jumps:
            assert np.array_equal(row, want)
        else:
            assert np.allclose(row, want, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(families(), st.data())
    def test_quantile_is_bit_identical(self, fam, data):
        pred = draw_predicate(data, fam)
        block = data.draw(st.sampled_from(BLOCKS))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "MIN_SWEEP_BLOCK", block)
            value = quantile_factor(fam, pred)
        assert value == dense_quantile(fam, pred)

    @settings(max_examples=60, deadline=None)
    @given(families(), st.data())
    def test_custom_chunks_equal_one_dense_pass(self, fam, data):
        """Chunk boundaries do not change a per-row custom callable's values."""
        t = 1.0 - data.draw(levels_in_unit)
        psi = psi_custom(_es_custom(t, False), fam.n_scenarios, check_pairs=20)
        p = data.draw(levels_in_unit)
        pred = pred_custom(lambda u, pi: bool(np.all(u >= p)), fam.n_scenarios, check_pairs=20)
        rows = data.draw(st.integers(1, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "DENSE_CHUNK_BYTES", 64 * fam.n_scenarios * rows)
            value = choquet_factor(fam, psi)
            quant = quantile_factor(fam, pred)
        assert value == dense_choquet(fam, psi)
        assert quant == dense_quantile(fam, pred)


class TestNearJumpBisection:
    """A scenario of weight 1e-14 moves the weighted sum within rounding of
    the level q = 0.5 on many grid rows; the step route reads exact rows
    only, so the dense formula decides every row, with one evaluation of
    the anchor rows and the last row and a bisection of single rows."""

    @staticmethod
    def _family():
        laws = tuple(StepCDF(v, np.arange(1, v.size + 1) / v.size)
                     for v in (np.arange(1.0, 11.0), np.arange(11.0, 31.0),
                               np.arange(100.0, 110.0)))
        return ConditionalLawFamily(np.array([0.5 - 1e-14, 1e-14, 0.5]), laws)

    @pytest.mark.parametrize("block", [None, 1])
    def test_bisection_equals_the_dense_formula(self, block):
        fam = self._family()
        sizes = []  # of the sums each evaluation finishes
        finish = core.ScenarioFunctional.finish

        def spy(self, s, r):
            sizes.append(np.size(s))
            return finish(self, s, r)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core.ScenarioFunctional, "finish", spy)
            if block is not None:
                mp.setattr(core, "MIN_SWEEP_BLOCK", block)
            rows = max(fam.n_scenarios, core.MIN_SWEEP_BLOCK)
            quant = quantile_factor(fam, pred_var_of_var(0.5, 0.5))
            quant_sizes = sizes.copy()
            sizes.clear()
            value = choquet_factor(fam, psi_indicator_var_var(0.5, 0.5))
        for seen in (quant_sizes, sizes):
            assert seen[0] > 1 and seen[1:].count(1) == len(seen) - 1
            assert len(seen) - 1 <= math.ceil(math.log2(rows)) + 1
        assert quant == dense_quantile(fam, pred_var_of_var(0.5, 0.5)) == 20.0
        assert value == dense_choquet(fam, psi_indicator_var_var(0.5, 0.5)) == 20.0


STEPS = (lambda: pred_var_of_var(0.6, 0.5), lambda: pred_esssup_var(0.7),
         lambda: pred_single_scenario(1, 0.5), lambda: psi_indicator_var_var(0.6, 0.5),
         lambda: psi_lambda_of_var(var_distortion(0.4), 0.8))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("make", STEPS, ids=["var-of-var", "esssup", "single", "indicator",
                                              "lambda-of-var"])
def test_a_step_reads_exact_rows_only(make, block):
    """Every term a step functional computes is of a profile matrix (the
    swept sum would take it of the atoms, 1-D), and none takes the dense
    chunks."""
    fam = TestNearJumpBisection._family()
    fn = make()

    def term(y, a):
        assert np.ndim(y) == 2
        return fn.term(y, a)

    spied = dataclasses.replace(fn, term=term)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_dense", None)
        mp.setattr(core, "MIN_SWEEP_BLOCK", block)
        if fn.survival:
            assert choquet_factor(fam, spied) == dense_choquet(fam, fn)
        else:
            assert quantile_factor(fam, spied) == dense_quantile(fam, fn)


def _var_candidates(fam, levels, lams):
    """compose_var_distortion with each scenario level at g or g - PROB_TOL,
    for every outer distortion in ``lams``."""
    g = LevelMap.of(levels).resolve(fam.n_scenarios, fam.labels)
    out = []
    for shift in itertools.product((0.0, PROB_TOL), repeat=g.size):
        for lam in lams:
            out.append(compose_var_distortion(fam, g - np.array(shift), lam))
    return np.array(out)


def _outer_var(q):
    """var_distortion at q and within PROB_TOL of it (all inside (0, 1))."""
    return [var_distortion(x) for x in (q - PROB_TOL, q, q + PROB_TOL) if 0 < x < 1]


def assert_admissible(value, candidates, tol):
    assert np.any(np.abs(candidates - value) <= tol), (value, candidates)


class TestAgainstClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_mean_of_es(self, fam, data):
        levels = draw_levels(data, fam, levels_in_unit)
        value = choquet_factor(fam, psi_mean_of_es(levels))
        tol = tolerance(fam)
        assert value == pytest.approx(compose_es_mean(fam, levels), abs=tol)
        if np.ndim(levels) == 0 and not isinstance(levels, dict):
            assert value == pytest.approx(es_composition(fam, levels, outer="es", q=0.0), abs=tol)

    @settings(max_examples=200, deadline=None)
    @given(families(max_scenarios=4), st.data())
    def test_distorted_and_mean_var(self, fam, data):
        levels = draw_levels(data, fam, st.one_of(levels_in_unit, st.just(1.0)))
        tol = tolerance(fam)
        mean = choquet_factor(fam, psi_mean_of_var(levels))
        assert_admissible(mean, _var_candidates(fam, levels, [identity_distortion()]), tol)
        q = data.draw(levels_in_unit)
        es = choquet_factor(fam, psi_lambda_of_var(es_distortion(q), levels))
        assert_admissible(es, _var_candidates(fam, levels, [es_distortion(q)]), tol)
        at_q = choquet_factor(fam, psi_lambda_of_var(var_distortion(q), levels))
        assert_admissible(at_q, _var_candidates(fam, levels, _outer_var(q)), tol)

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_var_of_var_routes(self, fam, data):
        p = data.draw(levels_in_unit)
        q = data.draw(st.one_of(levels_in_unit, st.just(1.0)))
        quant = quantile_factor(fam, pred_var_of_var(p, q))
        indicator = choquet_factor(fam, psi_indicator_var_var(p, q))
        if q == 1.0:
            top = max(var(law, p) for law in fam.laws)
            assert quant == top
            # the indicator compares survivals 1 - F_i with 1 - p, so where a
            # scenario's float cumsum lands ulps under p it takes the exact atom
            # and the closed form the next one
            tops = [max(var(law, p - shift) for law, shift in zip(fam.laws, shifts))
                    for shifts in itertools.product((0.0, PROB_TOL), repeat=fam.n_scenarios)]
            assert_admissible(indicator, np.array(tops), tolerance(fam))
        else:
            candidates = _var_candidates(fam, p, _outer_var(q))
            assert_admissible(quant, candidates, tolerance(fam))
            assert_admissible(indicator, candidates, tolerance(fam))

    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_scenario_vars(self, fam, data):
        p = data.draw(levels_in_unit)
        scenario_vars = [var(law, p) for law in fam.laws]
        assert quantile_factor(fam, pred_esssup_var(p)) == max(scenario_vars)
        i = data.draw(st.integers(0, fam.n_scenarios - 1))
        assert quantile_factor(fam, pred_single_scenario(fam.labels[i], p)) == scenario_vars[i]


class TestAgainstRiemannOracle:
    @settings(max_examples=40, deadline=None)
    @given(families(max_scenarios=3, offsets=(0.0,)), st.data())
    def test_choquet(self, fam, data):
        psi, _ = draw_distortion(data, fam)
        xs = fam.merged_support()
        step = max(float(xs[-1] - xs[0]), 1.0) / 20_000
        want = choquet_riemann_oracle(fam, psi, step)
        assert choquet_factor(fam, psi) == pytest.approx(want, abs=oracle_tolerance(fam, step))


def _point_masses(weights, values=None) -> ConditionalLawFamily:
    weights = np.asarray(weights, dtype=float)
    values = np.arange(1.0, weights.size + 1) if values is None else values
    laws = tuple(StepCDF(np.array([v]), np.array([1.0])) for v in values)
    return ConditionalLawFamily(weights / weights.sum(), laws)


class TestClosedFormTies:
    """Exact probability ties, where a float cum can land under the level
    and take the next atom.

    The engine gives the exact left quantile here.  An equally weighted law
    takes its cum as counts over n, so the closed forms agree on it; the
    weighted outer law of ``compose_var_distortion`` still takes the next
    atom, which the strict xfail flags until it is fixed.
    """

    def test_engine_takes_the_exact_left_quantile(self):
        fam = _point_masses([1, 6, 2])
        assert quantile_factor(fam, pred_var_of_var(0.5, 1 / 9)) == 1.0
        fam = ConditionalLawFamily(np.array([1.0]), (StepCDF.from_values(np.arange(9.0)),))
        assert choquet_factor(fam, psi_mean_of_var(3 / 9)) == 2.0

    @pytest.mark.xfail(strict=True, reason=(
        "perfbench README Finding 2: the scenario weights 1/9, 6/9, 2/9 are weighted, "
        "not counts, and compose_var_distortion's outer law rescales their float "
        "cumsum to put cum[0] at 0.11111111111111109, under q = 1/9, so it returns "
        "the next scenario VaR"))
    def test_finding_2_outer_weight_tie(self):
        fam = _point_masses([1, 6, 2])
        q = 1 / 9
        assert (quantile_factor(fam, pred_var_of_var(0.5, q))
                == compose_var_distortion(fam, 0.5, var_distortion(q)))

    def test_finding_1_scenario_level_tie(self):
        # perfbench README Finding 1: nine equally weighted values take cum C / 9,
        # so the level 3/9 selects the third order statistic exactly
        fam = ConditionalLawFamily(np.array([1.0]), (StepCDF.from_values(np.arange(9.0)),))
        assert (choquet_factor(fam, psi_mean_of_var(3 / 9))
                == compose_var_distortion(fam, 3 / 9, identity_distortion()))
