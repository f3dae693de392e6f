import numpy as np
import pytest

from factorrisk import (
    EmptyEventError,
    GaussianFactorSpec,
    JointSample,
    ScenarioWeighting,
    ValidationError,
    choquet_factor,
    from_sample,
    linear_factor,
    mes,
    partition_quantile_boxes,
    psi_mean,
    simulate,
)
from conftest import family_of, random_discrete_dist, random_joint_pair


class TestLinearFactorD1:
    def test_physical_is_expectation(self, d1_family):
        assert linear_factor(d1_family, "physical") == pytest.approx(3.75, abs=1e-12)

    def test_concentrated_weighting(self, d1_family):
        assert linear_factor(d1_family, [0.0, 1.0]) == pytest.approx(5.0, abs=1e-12)

    def test_mixed_weighting(self, d1_family):
        assert linear_factor(d1_family, [0.25, 0.75]) == pytest.approx(4.375, abs=1e-12)

    def test_by_label(self, d1_family):
        assert linear_factor(d1_family, {0.0: 0.25, 1.0: 0.75}) == pytest.approx(4.375)

    def test_zero_weight_on_a_label_the_family_lacks(self, d1_family):
        assert linear_factor(d1_family, {0.0: 0.25, 1.0: 0.75, 2.0: 0.0}) == \
            linear_factor(d1_family, {0.0: 0.25, 1.0: 0.75})

    def test_an_instance_is_taken_as_it_is(self, d1_family):
        weighting = ScenarioWeighting(physical=True)
        assert ScenarioWeighting.of(weighting) is weighting
        assert linear_factor(d1_family, weighting) == linear_factor(d1_family, "physical")


def test_by_label_equals_the_vector_on_many_boxes():
    # one weight per label of more than 2,000 quantile boxes, keyed in
    # reverse order: each weight lands on its label's scenario
    spec = GaussianFactorSpec(np.zeros(7), np.eye(7))
    sample = simulate(0.1, (1.0, -0.5, 0.3, 0.2, -0.1, 0.4, 0.6), 0.8, spec, n=8000, seed=5)
    family = from_sample(sample, partition_quantile_boxes(sample, 3))
    assert family.n_scenarios > 2000
    q = np.random.default_rng(4).random(family.n_scenarios)
    q /= q.sum()
    by_label = dict(zip(reversed(family.labels), q[::-1]))
    resolved = ScenarioWeighting.of(by_label).resolve(family)
    assert resolved.tobytes() == ScenarioWeighting.of(q).resolve(family).tobytes()
    assert linear_factor(family, by_label) == linear_factor(family, q)


class TestWeightingValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            ScenarioWeighting.of([0.5, 0.2])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ScenarioWeighting.of([1.5, -0.5])

    def test_rejects_weight_on_zero_probability_scenario(self, d1_family):
        # the label 2.0 has no mass under the factor law
        with pytest.raises(ValidationError):
            linear_factor(d1_family, {0.0: 0.5, 2.0: 0.5})

    def test_rejects_misaligned_vector(self, d1_family):
        with pytest.raises(ValidationError):
            linear_factor(d1_family, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("kwargs", [{}, {"values": [1.0], "physical": True},
                                        {"values": [1.0], "by_label": {0.0: 1.0}}])
    def test_exactly_one_form(self, kwargs):
        with pytest.raises(ValidationError) as exc:
            ScenarioWeighting(**kwargs)
        assert str(exc.value) == "provide exactly one of values, by_label, physical"


class TestAdditivity:
    def test_exactly_additive_on_shared_partitions(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            fam_x, fam_y, fam_sum = random_joint_pair(rng)
            n = fam_x.n_scenarios
            q = rng.dirichlet(np.ones(n))
            total = linear_factor(fam_sum, q)
            parts = linear_factor(fam_x, q) + linear_factor(fam_y, q)
            assert total == pytest.approx(parts, abs=1e-12)


class TestAgreementWithChoquet:
    def test_physical_matches_mean_psi(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            fam = family_of(random_discrete_dist(rng))
            a = linear_factor(fam, "physical")
            b = choquet_factor(fam, psi_mean())
            assert a == pytest.approx(b, abs=1e-12)


class TestMes:
    def test_d1(self, d1_sample):
        assert mes(d1_sample, 0.75) == pytest.approx(5.0, abs=1e-12)

    def test_small_alpha_gives_full_mean(self, d1_sample):
        assert mes(d1_sample, 1e-9) == pytest.approx(3.75, abs=1e-12)

    def test_matches_tail_weighted_linear_factor(self, d1_sample, d1_family):
        # tail event {W >= VaR_0.75(W)} is exactly the second scenario
        direct = mes(d1_sample, 0.75)
        weighted = linear_factor(d1_family, [0.0, 1.0])
        assert direct == pytest.approx(weighted, abs=1e-12)

    def test_matches_tail_weighting_on_random_fixtures(self):
        from factorrisk import StepCDF, from_sample, partition_discrete, var

        rng = np.random.default_rng(64)
        for _ in range(50):
            dist = random_discrete_dist(rng)
            sample = dist.to_sample()
            fam = from_sample(sample, partition_discrete(sample))
            alpha = float(rng.uniform(0.1, 0.9))
            w_law = StepCDF.from_values(sample.factors[:, 0], sample.weights)
            cut = var(w_law, alpha)
            in_tail = np.array([lab >= cut for lab in fam.labels], dtype=float)
            q = fam.pis * in_tail
            q = q / q.sum()
            assert mes(sample, alpha) == pytest.approx(
                linear_factor(fam, q), abs=1e-12)

    def test_empty_event_rejected(self):
        # anticorrelated factors: the joint upper-tail event holds no row
        s = JointSample(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(EmptyEventError, match="^conditioning event has zero probability$"):
            mes(s, np.array([0.75, 0.75]))

    def test_independence_monte_carlo(self):
        n = 10**5
        rng = np.random.default_rng(63)
        x = rng.standard_normal(n) + 2.0
        w = rng.standard_normal(n)
        value = mes(JointSample(x, w), 0.8)
        stderr = x.std() / np.sqrt(n * 0.2)
        assert abs(value - x.mean()) <= 3.0 * stderr
