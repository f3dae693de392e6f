import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    EmptyEventError,
    GaussianFactorSpec,
    JointSample,
    NullQuantileEventError,
    StepCDF,
    ValidationError,
    VarBox,
    choquet_factor,
    coes,
    covar,
    pred_custom,
    pred_esssup_var,
    pred_single_scenario,
    pred_var_of_var,
    psi_indicator_var_var,
    quantile_factor,
    simulate,
    var,
)
from conftest import family_of, random_discrete_dist, transform_family


class TestQuantileFactorD1:
    def test_var_of_var(self, d1_family):
        assert quantile_factor(d1_family, pred_var_of_var(0.75, 0.5)) == 3.0

    def test_esssup_var(self, d1_family):
        assert quantile_factor(d1_family, pred_esssup_var(0.75)) == 6.0

    def test_single_scenario_by_label(self, d1_family):
        assert quantile_factor(d1_family, pred_single_scenario(1.0, 0.5)) == 4.0

    def test_single_scenario_by_index(self, d1_family):
        assert quantile_factor(d1_family, pred_single_scenario(0, 0.75)) == 3.0


class TestOrdinality:
    def test_exp_and_affine_transforms(self):
        rng = np.random.default_rng(51)
        preds = [pred_var_of_var(0.6, 0.5), pred_esssup_var(0.4),
                 pred_single_scenario(0, 0.7)]
        for _ in range(120):
            fam = family_of(random_discrete_dist(rng, span=3.0))
            pred = preds[int(rng.integers(len(preds)))]
            base = quantile_factor(fam, pred)
            assert quantile_factor(transform_family(fam, np.exp), pred) == np.exp(base)
            assert quantile_factor(
                transform_family(fam, lambda x: 2 * x + 1), pred) == 2 * base + 1


class TestMonotonicityInLevels:
    def test_nondecreasing_in_p_and_q(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            fam = family_of(random_discrete_dist(rng))
            p1, p2 = sorted(rng.uniform(0.05, 0.95, 2))
            q1, q2 = sorted(rng.uniform(0.05, 1.0, 2))
            assert quantile_factor(fam, pred_var_of_var(p1, q1)) <= quantile_factor(
                fam, pred_var_of_var(p2, q1))
            assert quantile_factor(fam, pred_var_of_var(p1, q1)) <= quantile_factor(
                fam, pred_var_of_var(p1, q2))


class TestDegeneracy:
    def test_single_scenario_reduces_to_classical_quantile(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            values = np.round(rng.uniform(-5, 5, 6), 3)
            law = StepCDF.from_values(values)
            fam = ConditionalLawFamily(np.array([1.0]), (law,))
            p = float(rng.uniform(0.05, 0.95))
            for q in (0.2, 0.7, 1.0):
                assert quantile_factor(fam, pred_var_of_var(p, q)) == var(law, p)


class TestEngineConsistency:
    def test_var_of_var_equals_outer_var_of_scenario_vars(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            fam = family_of(random_discrete_dist(rng))
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
            direct = quantile_factor(fam, pred_var_of_var(p, q))
            scenario_vars = np.array([var(law, p) for law in fam.laws])
            outer = var(StepCDF.from_values(scenario_vars, fam.pis), q)
            assert direct == pytest.approx(outer, abs=1e-12)

    def test_var_of_var_equals_indicator_choquet(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            fam = family_of(random_discrete_dist(rng))
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
            a = quantile_factor(fam, pred_var_of_var(p, q))
            b = choquet_factor(fam, psi_indicator_var_var(p, q))
            assert a == pytest.approx(b, abs=1e-12)


class TestCoVaR:
    def test_d1_tail(self, d1_sample):
        assert covar(d1_sample, 0.75, 0.5) == 4.0

    def test_d1_equal_matches_tail_here(self, d1_sample):
        assert covar(d1_sample, 0.75, 0.5, mode="equal") == covar(d1_sample, 0.75, 0.5)

    def test_box_mode(self, d1_sample):
        box = VarBox(np.array([0.75]), np.array([1.0]))
        assert covar(d1_sample, 0.75, 0.5, mode="box", box=box) == 4.0

    def test_independence_recovers_plain_var(self):
        n = 10**5
        rng = np.random.default_rng(56)
        x = rng.standard_normal(n)
        w = rng.standard_normal(n)
        s = JointSample(x, w)
        alpha, beta = 0.8, 0.6
        value = covar(s, alpha, beta)
        full = StepCDF.from_values(x)
        m = int(n * (1 - alpha))
        spread = 4.0 * np.sqrt(beta * (1 - beta) / m)
        lo = var(full, max(beta - spread, 1e-6))
        hi = var(full, min(beta + spread, 1 - 1e-6))
        assert lo <= value <= hi

    def test_equal_mode_is_the_degenerate_box(self):
        rng = np.random.default_rng(58)
        s = JointSample(rng.standard_normal(400), rng.integers(0, 4, (400, 2)).astype(float))
        for a in ([0.3, 0.3], [0.5, 0.9], [0.75, 0.1]):
            a = np.array(a)
            assert covar(s, a, 0.5, mode="equal") == covar(s, a, 0.5, mode="box",
                                                            box=VarBox(a, a))

    def test_equal_mode_null_event_distinct_error(self):
        # two continuous factors: the componentwise quantile pair is
        # (almost surely) not a realized joint point
        rng = np.random.default_rng(57)
        s = JointSample(rng.standard_normal(500), rng.standard_normal((500, 2)))
        with pytest.raises(NullQuantileEventError):
            covar(s, np.array([0.7, 0.7]), 0.5, mode="equal")


class TestCoES:
    def test_d1_tail(self, d1_sample):
        assert coes(d1_sample, 0.75, 0.5) == pytest.approx(7.0, abs=1e-12)

    def test_beta_zero_is_conditional_mean(self, d1_sample):
        assert coes(d1_sample, 0.75, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_empty_event_rejected(self):
        facs = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = JointSample(np.array([1.0, 2.0]), facs)
        with pytest.raises(EmptyEventError):
            coes(s, np.array([0.75, 0.75]), 0.5)


class TestPredicates:
    def test_custom_predicate(self, d1_family):
        pred = pred_custom(lambda u, pi: bool(u @ pi >= 0.5), n_scenarios=2)
        value = quantile_factor(d1_family, pred)
        # mixture CDF crosses 1/2 at x = 3
        assert value == 3.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_custom_rejects_no_scenarios(self, n):
        with pytest.raises(ValidationError, match="n_scenarios must be an integer >= 1"):
            pred_custom(lambda u, pi: bool(u @ pi >= 0.5), n_scenarios=n)

    def test_custom_rejects_downward(self):
        with pytest.raises(ValidationError):
            pred_custom(lambda u, pi: bool(u @ pi <= 0.5), n_scenarios=2)

    def test_poles(self):
        with pytest.raises(ValidationError):
            pred_custom(lambda u, pi: True, n_scenarios=2)
        with pytest.raises(ValidationError):
            pred_custom(lambda u, pi: False, n_scenarios=2)

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            pred_var_of_var(0.0, 0.5)
        with pytest.raises(ValidationError):
            pred_var_of_var(0.5, 1.5)
