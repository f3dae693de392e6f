"""One rule per input kind: every level, probability vector, factor
matrix and count is checked by one ``core`` function, and NaN fails each
of them.

The level table feeds each level site NaN, each open endpoint of its
interval and 1.5, and expects the one message form
``"<name> must be in <interval>, got <value>"``; ``LevelMap`` and
``scalar.es`` are held to it in ``test_conditioning`` and
``test_flat_closed_forms``.
"""

import types

import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    DiscreteFactorSpec,
    DiscreteJointDistribution,
    GaussianFactorSpec,
    JointSample,
    PiecewiseLinearAllocation,
    Scenario,
    ScenarioPartition,
    ScenarioWeighting,
    StepCDF,
    VarBox,
    choquet_factor,
    condition_a_check,
    diff_grid,
    es_composition,
    es_distortion,
    es_tail_density,
    find_matching_q,
    gaussian_rho,
    norm_inv,
    ols_fit,
    partition_quantile_boxes,
    piecewise_linear_distortion,
    plain_var,
    pred_custom,
    pred_esssup_var,
    pred_single_scenario,
    pred_var_of_var,
    psi_es_on_box,
    psi_custom,
    psi_indicator_var_var,
    psi_mean,
    simulate,
    var_distortion,
)
from factorrisk import scalar
from factorrisk.distortion import _es_levels, _var_levels
from factorrisk.sharing import transform_family
from factorrisk.errors import ValidationError

LAW = StepCDF(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
FAMILY = ConditionalLawFamily(np.array([0.5, 0.5]), [LAW, LAW])


def _regression():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((200, 2))
    sample = JointSample(w @ [1.0, -0.5] + rng.standard_normal(200), w)
    return ols_fit(sample), sample


FIT, SAMPLE = _regression()


def _resolved(levels):
    """A level map stand-in whose resolve returns ``levels`` unchecked."""
    return types.SimpleNamespace(resolve=lambda n, labels: np.full(n, levels))


# site: (call on one level, its name, its interval)
LEVEL_SITES = {
    "var_distortion": (var_distortion, "VaR distortion level", "(0, 1)"),
    "es_distortion": (es_distortion, "ES distortion level", "[0, 1)"),
    "scalar.var": (lambda a: scalar.var(LAW, a), "VaR level", "(0, 1]"),
    "scalar.var vector": (lambda a: scalar.var(LAW, [0.5, a]), "VaR level", "(0, 1]"),
    "VarBox alpha": (lambda a: VarBox([a], [1.0]), "alpha levels", "(0, 1)"),
    "VarBox beta": (lambda b: VarBox([0.1], [b]), "beta levels", "(0, 1]"),
    "_var_levels": (lambda g: _var_levels(_resolved(g), 2, None), "VaR scenario level", "(0, 1]"),
    "_es_levels": (lambda g: _es_levels(_resolved(g), 2, None), "ES scenario level", "[0, 1)"),
    "psi_es_on_box": (lambda p: psi_es_on_box(p, (0,)), "ES level", "[0, 1)"),
    "psi_indicator_var_var p": (lambda p: psi_indicator_var_var(p, 0.5), "level p", "(0, 1)"),
    "psi_indicator_var_var q": (lambda q: psi_indicator_var_var(0.5, q), "level q", "(0, 1]"),
    "pred_var_of_var p": (lambda p: pred_var_of_var(p, 0.5), "level p", "(0, 1)"),
    "pred_var_of_var q": (lambda q: pred_var_of_var(0.5, q), "level q", "(0, 1]"),
    "pred_esssup_var": (pred_esssup_var, "level p", "(0, 1)"),
    "pred_single_scenario": (lambda p: pred_single_scenario(0, p), "level p", "(0, 1]"),
    "es_tail_density": (lambda p: es_tail_density(FAMILY, p), "ES level", "[0, 1)"),
    "es_composition outer": (lambda q: es_composition(FAMILY, 0.5, "es", q), "outer ES level",
                             "[0, 1)"),
    "norm_inv": (norm_inv, "level p", "(0, 1)"),
    "gaussian_rho p": (lambda p: gaussian_rho(FIT, SAMPLE, p, 0.5), "level p", "(0, 1)"),
    "gaussian_rho q": (lambda q: gaussian_rho(FIT, SAMPLE, 0.5, q), "level q", "(0, 1)"),
    "plain_var": (lambda p: plain_var(FIT, SAMPLE, p), "level p", "(0, 1)"),
    "diff_grid p": (lambda p: diff_grid(FIT, SAMPLE, [0.5, p], [0.5]), "p levels", "(0, 1)"),
    "diff_grid q": (lambda q: diff_grid(FIT, SAMPLE, [0.5], [q]), "q levels", "(0, 1)"),
}


def _outside(interval: str) -> list[float]:
    """NaN, the interval's open endpoints and 1.5."""
    return ([float("nan")] + ([0.0] if interval[0] == "(" else [])
            + ([1.0] if interval[-1] == ")" else []) + [1.5])


@pytest.mark.parametrize("site, value", [(site, value) for site, (_, _, interval)
                                         in LEVEL_SITES.items() for value in _outside(interval)])
def test_level_sites_share_one_rule(site, value):
    call, name, interval = LEVEL_SITES[site]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be in {interval}, got {value!r}"


def test_a_level_prints_as_given():
    for given, shown in ((1, "1"), (np.float64(1.25), "1.25"), (np.int64(2), "2"),
                         (None, "None"), ([0.5, 1], "1.0")):
        with pytest.raises(ValidationError) as exc:
            var_distortion(given)
        assert str(exc.value) == f"VaR distortion level must be in (0, 1), got {shown}"


class TestVarVectorized:
    def test_levels_read_as_one_at_a_time(self):
        rng = np.random.default_rng(5)
        law = StepCDF.from_values(rng.integers(0, 40, 300), rng.random(300))
        levels = np.concatenate((rng.random(200), law.cum, [1.0]))
        got = scalar.var(law, levels)
        assert got.tolist() == [scalar.var(law, float(a)) for a in levels]
        assert type(scalar.var(law, 0.5)) is float

    def test_level_above_the_last_cum_takes_the_last_atom(self):
        law = StepCDF(np.array([1.0, 2.0]), np.array([0.5, 1.0 - 1e-13]))
        assert scalar.var(law, 1.0) == 2.0
        assert scalar.var(law, [1.0, 0.5]).tolist() == [2.0, 1.0]


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: ScenarioWeighting([NAN, 1.0]),
    lambda: ScenarioWeighting(by_label={0.0: NAN, 1.0: 1.0}),
    lambda: Scenario(0, [0, 1], NAN),
    lambda: piecewise_linear_distortion([0, 0.5, 1], [0, NAN, 1]),
    lambda: PiecewiseLinearAllocation([0, 1, 2], [[NAN, 0.5], [NAN, 0.5]]),
    lambda: DiscreteJointDistribution([1.0, 2.0], [0.0, 1.0], [NAN, 1.0]),
    lambda: DiscreteJointDistribution([1.0, 2.0], [NAN, 1.0], [0.5, 0.5]),
    lambda: JointSample([1.0, 2.0], [[0.0], [NAN]]),
    lambda: ConditionalLawFamily([NAN, 1.0], [LAW, LAW]),
    lambda: ScenarioPartition._from_flat(np.arange(2), np.array([0, 1, 2]),
                                         np.array([NAN, 1.0]), None),
    lambda: condition_a_check(psi_mean(), [NAN, 1.0], trials=10),
], ids=["weighting", "weighting-by-label", "scenario", "knot-value", "slope", "atom-mass",
        "atom-factor", "sample-factor", "family-pis", "partition-weights", "condition-a-pi"])
def test_nan_is_rejected(build):
    with pytest.raises(ValidationError, match="nan"):
        build()


class TestProbabilityVectors:
    @pytest.mark.parametrize("build, message", [
        (lambda: ScenarioWeighting([0.5, -0.25, 0.75]), "weights must be nonnegative, got -0.25"),
        (lambda: ScenarioWeighting([0.5, 0.25]), "weights must sum to 1 within 1e-12, got 0.75"),
        (lambda: ScenarioWeighting([np.inf, 0.5]), "weights must be finite, got inf"),
        (lambda: ScenarioWeighting(by_label={"a": 2, "b": -1}),
         "label weights must be nonnegative, got -1"),
        (lambda: DiscreteJointDistribution([1.0, 2.0], [0.0, 1.0], [0.5, 0.6]),
         "atom masses must sum to 1 within 1e-12, got 1.1"),
        (lambda: ConditionalLawFamily([0.5, 0.6], [LAW, LAW]),
         "scenario probabilities must sum to 1 within 1e-12, got 1.1"),
        (lambda: ScenarioPartition((Scenario(0, [0], 0.5), Scenario(1, [1], 0.25))),
         "scenario weights must sum to 1 within 1e-12, got 0.75"),
        (lambda: condition_a_check(psi_mean(), [0.5, 0.25], trials=10),
         "pi must sum to 1 within 1e-12, got 0.75"),
    ])
    def test_one_message_form(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    def test_strictly_positive_sites_keep_their_rule(self):
        with pytest.raises(ValidationError, match="^atom masses must be positive$"):
            DiscreteJointDistribution([1.0, 2.0], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValidationError, match="^scenario probabilities must be positive$"):
            ConditionalLawFamily([0.0, 1.0], [LAW, LAW])
        with pytest.raises(ValidationError, match="^scenario weight must be positive, got 0$"):
            Scenario(0, [0], 0)

    def test_zero_weights_stay_allowed(self):
        assert ScenarioWeighting([0.0, 1.0]).values.tolist() == [0.0, 1.0]
        assert ScenarioWeighting(by_label={"a": 0.0, "b": 1.0}).by_label == {"a": 0.0, "b": 1.0}


class TestFactorMatrices:
    @pytest.mark.parametrize("build, message", [
        (lambda: JointSample([1.0, 2.0], [[0.0], [np.inf]]),
         "factor values must be finite, got inf"),
        (lambda: JointSample([1.0, 2.0], [0.0, 1.0, 2.0]),
         "factors must be a 2 x N matrix, N >= 1, got shape (3, 1)"),
        (lambda: JointSample([1.0, 2.0], np.empty((2, 0))),
         "factors must be a 2 x N matrix, N >= 1, got shape (2, 0)"),
        (lambda: DiscreteJointDistribution([1.0, 2.0], [[[0.0]], [[1.0]]], [0.5, 0.5]),
         "ws must be a 2 x N matrix, N >= 1, got shape (2, 1, 1)"),
    ])
    def test_one_message_form(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message


# three agents over FAMILY's support
ALLOCATION = PiecewiseLinearAllocation([1.0, 2.0], [[0.5], [0.25], [0.25]])

# each count site: a call taking the count, its name and its minimum
COUNT_SITES = {
    "condition_a_check trials": (lambda n: condition_a_check(psi_mean(), [0.5, 0.5], trials=n),
                                 "trials", 1),
    "partition_quantile_boxes bins": (lambda n: partition_quantile_boxes(SAMPLE, n),
                                      "bins_per_factor", 1),
    "simulate n": (lambda n: simulate(0.0, [1.0], 1.0, DiscreteFactorSpec([0.0, 1.0]), n),
                   "n", 1),
    "psi_custom n_scenarios": (lambda n: psi_custom(lambda v, pi: float(v @ pi), n),
                               "n_scenarios", 1),
    "pred_custom n_scenarios": (lambda n: pred_custom(lambda c, pi: bool(c.min() >= 0.5), n),
                                "n_scenarios", 1),
    "psi_custom check_pairs": (lambda n: psi_custom(lambda v, pi: float(v @ pi), 2,
                                                    check_pairs=n), "check_pairs", 1),
    "pred_custom check_pairs": (lambda n: pred_custom(lambda c, pi: bool(c.min() >= 0.5), 2,
                                                      check_pairs=n), "check_pairs", 1),
    "psi_es_on_box subset": (lambda n: psi_es_on_box(0.5, (1, n)), "scenario index", 0),
    # every seeded stream comes from core._rng, which checks the seed and the row index
    "simulate seed": (lambda n: simulate(0.0, [1.0], 1.0, DiscreteFactorSpec([0.0, 1.0]), 10,
                                         seed=n), "seed", 0),
    "psi_custom seed": (lambda n: psi_custom(lambda v, pi: float(v @ pi), 2, seed=n), "seed", 0),
    "pred_custom seed": (lambda n: pred_custom(lambda c, pi: bool(c.min() >= 0.5), 2, seed=n),
                         "seed", 0),
    "condition_a_check seed": (lambda n: condition_a_check(psi_mean(), [0.5, 0.5], trials=10,
                                                           seed=n), "seed", 0),
    "model plain_var seed": (lambda n: plain_var(FIT, SAMPLE, 0.9, "model", n), "seed", 0),
    "model plain_var row_index": (lambda n: plain_var(FIT, SAMPLE, 0.9, "model", row_index=n),
                                  "row index", 0),
    "model diff_grid seed": (lambda n: diff_grid(FIT, SAMPLE, [0.9, 0.95], [0.5], "model", n),
                             "seed", 0),
    "model find_matching_q seed": (lambda n: find_matching_q(FIT, SAMPLE, 0.95, "model", n),
                                   "seed", 0),
    "allocation agent": (lambda n: ALLOCATION.h(n, 1.5), "agent", 0),
    "transform_family agent": (lambda n: transform_family(FAMILY, ALLOCATION, n), "agent", 0),
}


class TestCounts:
    @pytest.mark.parametrize("site", list(COUNT_SITES))
    @pytest.mark.parametrize("bad", [NAN, np.inf, 2.5, "3", None, "below", 1.5])
    def test_one_message_form(self, site, bad):
        call, name, minimum = COUNT_SITES[site]
        value = minimum - 1 if bad == "below" else bad
        with pytest.raises(ValidationError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be an integer >= {minimum}, got {value!r}"

    @pytest.mark.parametrize("site", list(COUNT_SITES))
    def test_integral_values_of_any_type_count(self, site):
        call, _, minimum = COUNT_SITES[site]
        count = max(minimum, 2)
        for value in (count, float(count), np.int64(count)):
            call(value)

    def test_empty_scenario_subset_is_rejected_at_construction(self):
        # an empty subset once built and failed only at evaluation, as "out of range"
        with pytest.raises(ValidationError) as exc:
            psi_es_on_box(0.5, [])
        assert str(exc.value) == "scenario subset must be nonempty"

    def test_subset_beyond_the_family_fails_at_evaluation(self):
        psi = psi_es_on_box(0.5, [2])  # FAMILY has two scenarios
        with pytest.raises(ValidationError, match="^scenario subset out of range$"):
            choquet_factor(FAMILY, psi)

    def test_nan_trials_no_longer_pass_without_a_trial(self):
        # NaN compared false with 1 and ran no trial, which read "no violation found"
        with pytest.raises(ValidationError, match="trials"):
            condition_a_check(psi_mean(), [0.5, 0.5], trials=NAN)


class TestFactorSpecs:
    @pytest.mark.parametrize("build, message", [
        (lambda: GaussianFactorSpec([0.0, NAN], np.eye(2)), "mean must be finite, got nan"),
        (lambda: GaussianFactorSpec([np.inf], [[1.0]]), "mean must be finite, got inf"),
        (lambda: GaussianFactorSpec([0.0], [[NAN]]), "covariance must be finite, got nan"),
        (lambda: GaussianFactorSpec([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]]),
         "covariance must be finite, got inf"),
        (lambda: DiscreteFactorSpec([0.0, NAN]), "factor values must be finite, got nan"),
        (lambda: DiscreteFactorSpec([[0.0, 1.0], [-np.inf, 2.0]]),
         "factor values must be finite, got -inf"),
    ])
    def test_non_finite_specs_are_rejected(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    def test_finite_specs_draw_as_before(self):
        spec = GaussianFactorSpec([0.5, -1.0], [[1.0, 0.2], [0.2, 2.0]])
        assert spec.mean.tolist() == [0.5, -1.0]
        assert DiscreteFactorSpec([0.0, 1.0]).values.tolist() == [[0.0], [1.0]]


class TestCallableShapes:
    """A vectorized callable returns one value per profile row; any other
    shape is rejected when ``psi_custom`` or ``pred_custom`` spot-checks
    it, with the engine's message (a scalar result once escaped the spot
    checks as numpy's IndexError)."""

    @pytest.mark.parametrize("build", [
        lambda: psi_custom(lambda V, pi: 0.5, 3, vectorized=True),
        lambda: psi_custom(lambda V, pi: V[:, :1], 3, vectorized=True),
        lambda: psi_custom(lambda V, pi: V.max(), 3, vectorized=True),
        lambda: pred_custom(lambda U, pi: np.array(True), 3, vectorized=True),
        lambda: pred_custom(lambda U, pi: U >= 0.5, 3, vectorized=True),
    ])
    def test_wrong_shapes_are_rejected_at_construction(self, build):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == "a vectorized callable must return one value per profile row"

