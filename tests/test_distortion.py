import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    EmptyEventError,
    StepCDF,
    ValidationError,
    choquet_factor,
    compose_es_mean,
    compose_var_distortion,
    condition_a_check,
    es_distortion,
    es_on_event,
    identity_distortion,
    psi_custom,
    psi_es_on_box,
    psi_indicator_var_var,
    psi_lambda_of_var,
    psi_mean,
    psi_mean_of_es,
    psi_mean_of_var,
    tail_box,
    var_distortion,
)
from oracles import choquet_riemann_oracle
from conftest import (
    family_of,
    random_discrete_dist,
    random_joint_pair,
    transform_family,
)


class TestChoquetEngineD1:
    def test_mean_is_expectation(self, d1_family):
        assert choquet_factor(d1_family, psi_mean()) == pytest.approx(3.75, abs=1e-12)

    def test_mean_of_es(self, d1_family):
        assert choquet_factor(d1_family, psi_mean_of_es(0.5)) == pytest.approx(5.25, abs=1e-12)

    def test_indicator_var_var(self, d1_family):
        psi = psi_indicator_var_var(0.75, 0.5)
        assert choquet_factor(d1_family, psi) == pytest.approx(3.0, abs=1e-12)


class TestCompositions:
    def test_d1_mean_of_conditional_var(self, d1_family):
        value = compose_var_distortion(d1_family, 0.75, identity_distortion())
        assert value == pytest.approx(4.5, abs=1e-12)

    def test_d1_var_of_conditional_var(self, d1_family):
        value = compose_var_distortion(d1_family, 0.75, var_distortion(0.5))
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_single_scenario_collapses_to_var(self):
        from factorrisk import var

        law = StepCDF.from_values([1.0, 5.0, 9.0], [0.2, 0.5, 0.3])
        fam = ConditionalLawFamily(np.array([1.0]), (law,))
        value = compose_var_distortion(fam, 0.6, identity_distortion())
        assert value == pytest.approx(var(law, 0.6), abs=1e-12)

    def test_d1_compose_es_mean(self, d1_family):
        assert compose_es_mean(d1_family, 0.5) == pytest.approx(5.25, abs=1e-12)

    def test_compose_es_mean_zero_level_is_mean(self, d1_family):
        assert compose_es_mean(d1_family, 0.0) == pytest.approx(3.75, abs=1e-12)

    def test_compose_es_mean_rejects_level_one(self, d1_family):
        with pytest.raises(ValidationError):
            compose_es_mean(d1_family, [0.5, 1.0])

    def test_single_scenario_es(self):
        from factorrisk import es

        law = StepCDF.from_values([0.0, 2.0, 7.0], [0.3, 0.3, 0.4])
        fam = ConditionalLawFamily(np.array([1.0]), (law,))
        assert compose_es_mean(fam, 0.25) == pytest.approx(es(law, 0.25), abs=1e-12)


class TestEngineCompositionAgreement:
    def test_lambda_of_var_agrees(self):
        rng = np.random.default_rng(21)
        lams = [identity_distortion(), es_distortion(0.35), var_distortion(0.6)]
        for _ in range(150):
            fam = family_of(random_discrete_dist(rng))
            g = rng.uniform(0.05, 0.95, fam.n_scenarios)
            lam = lams[int(rng.integers(len(lams)))]
            engine = choquet_factor(fam, psi_lambda_of_var(lam, g))
            composed = compose_var_distortion(fam, g, lam)
            assert engine == pytest.approx(composed, abs=1e-12)

    def test_mean_of_es_agrees(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            fam = family_of(random_discrete_dist(rng))
            g = rng.uniform(0.0, 0.9, fam.n_scenarios)
            engine = choquet_factor(fam, psi_mean_of_es(g))
            composed = compose_es_mean(fam, g)
            assert engine == pytest.approx(composed, abs=1e-12)

    def test_mean_of_var_is_lambda_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            fam = family_of(random_discrete_dist(rng))
            g = rng.uniform(0.05, 0.95, fam.n_scenarios)
            a = choquet_factor(fam, psi_mean_of_var(g))
            b = compose_var_distortion(fam, g, identity_distortion())
            assert a == pytest.approx(b, abs=1e-12)


class TestAxioms:
    def test_monotonicity(self):
        rng = np.random.default_rng(31)
        psis = [psi_mean(), psi_mean_of_es(0.4), psi_indicator_var_var(0.6, 0.5),
                psi_mean_of_var(0.7)]
        for _ in range(120):
            fam = family_of(random_discrete_dist(rng))
            shift = float(rng.uniform(0.0, 2.0))
            kink = float(rng.uniform(-2, 2))
            up = transform_family(fam, lambda x: x + shift + 0.5 * np.maximum(x - kink, 0))
            psi = psis[int(rng.integers(len(psis)))]
            assert choquet_factor(up, psi) >= choquet_factor(fam, psi) - 1e-12

    def test_comonotonic_additivity(self):
        rng = np.random.default_rng(32)
        psis = [psi_mean(), psi_mean_of_es(0.3), psi_indicator_var_var(0.7, 0.4),
                psi_es_on_box(0.5, (0,))]
        for _ in range(120):
            fam = family_of(random_discrete_dist(rng))
            psi = psis[int(rng.integers(len(psis)))]
            c = float(np.median(fam.merged_support()))
            f = lambda x: 0.4 * x + 0.6 * np.maximum(x - c, 0.0)
            g = lambda x: x - f(x)
            rho_f = choquet_factor(transform_family(fam, f), psi)
            rho_g = choquet_factor(transform_family(fam, g), psi)
            rho = choquet_factor(fam, psi)
            assert rho_f + rho_g == pytest.approx(rho, abs=1e-12)

    def test_normalization(self):
        one = StepCDF.from_values([1.0])
        fam = ConditionalLawFamily(np.array([0.3, 0.7]), (one, one))
        for psi in (psi_mean(), psi_mean_of_es(0.5), psi_indicator_var_var(0.5, 0.5),
                    psi_mean_of_var(0.5), psi_es_on_box(0.25, (1,))):
            assert choquet_factor(fam, psi) == pytest.approx(1.0, abs=1e-12)

    def test_law_invariance_under_atom_permutation(self):
        rng = np.random.default_rng(33)
        from factorrisk import DiscreteJointDistribution

        for _ in range(60):
            dist = random_discrete_dist(rng)
            perm = rng.permutation(dist.xs.size)
            dist2 = DiscreteJointDistribution(dist.xs[perm], dist.ws[perm], dist.ps[perm])
            psi = psi_mean_of_es(0.45)
            assert choquet_factor(family_of(dist), psi) == choquet_factor(family_of(dist2), psi)


class TestEsOnEvent:
    def test_d1_tail_box(self, d1_sample):
        assert es_on_event(d1_sample, tail_box(0.75), 0.5) == pytest.approx(7.0, abs=1e-12)

    def test_whole_space(self, d1_sample):
        from factorrisk import es

        value = es_on_event(d1_sample, tail_box(1e-9), 0.3)
        expected = es(StepCDF.from_values(d1_sample.loss, d1_sample.weights), 0.3)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_d1_exact_scenario(self, d1_sample):
        assert es_on_event(d1_sample, [[1.0]], 0.5) == pytest.approx(7.0, abs=1e-12)

    def test_empty_event(self, d1_sample):
        with pytest.raises(EmptyEventError):
            es_on_event(d1_sample, [[9.0]], 0.5)

    def test_engine_psi_agrees_with_direct_event(self, d1_family, d1_sample):
        engine = choquet_factor(d1_family, psi_es_on_box(0.5, (1,)))
        direct = es_on_event(d1_sample, [[1.0]], 0.5)
        assert engine == pytest.approx(direct, abs=1e-12)


class TestConditionA:
    def test_mean_passes(self):
        pi = np.array([0.5, 0.5])
        assert condition_a_check(psi_mean(), pi, trials=10_000, seed=1) is None

    def test_mean_of_es_passes(self):
        pi = np.array([0.25, 0.5, 0.25])
        psi = psi_mean_of_es(np.array([0.3, 0.6, 0.1]))
        assert condition_a_check(psi, pi, trials=10_000, seed=2) is None

    def test_es_on_box_passes(self):
        pi = np.array([0.4, 0.6])
        psi = psi_es_on_box(0.5, (1,))
        assert condition_a_check(psi, pi, trials=10_000, seed=3) is None

    def test_indicator_var_var_violates(self):
        pi = np.array([0.5, 0.5])
        witness = condition_a_check(psi_indicator_var_var(0.75, 0.5), pi,
                                    trials=10_000, seed=4)
        assert witness is not None
        psi = psi_indicator_var_var(0.75, 0.5)
        lhs = psi(witness.f1, pi) + psi(witness.f2, pi)
        rhs = psi(witness.g1, pi) + psi(witness.g2, pi)
        assert lhs < rhs - 1e-12
        assert np.all(witness.g1 <= witness.f1 + 1e-15)
        assert np.all(witness.f1 <= witness.g2 + 1e-15)
        assert np.allclose(witness.f1 + witness.f2, witness.g1 + witness.g2)

    @pytest.mark.parametrize("n", [2, 64])
    def test_a_callable_writing_into_its_matrix_leaves_the_witness(self, n):
        def reads(V, pi):
            return ((V >= 0.75) @ pi >= 0.5).astype(float)

        def writes(V, pi):
            out = reads(V, pi)
            V[...] = -7.0
            return out
        pi = np.full(n, 1.0 / n)
        got, want = (condition_a_check(psi_custom(fn, n, vectorized=True), pi, trials=1000,
                                       seed=1) for fn in (writes, reads))
        assert (got is None) == (want is None)
        if want is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert want.f1.min() >= 0.0


class TestSubadditivity:
    def test_mean_of_es_subadditive_on_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            fam_x, fam_y, fam_sum = random_joint_pair(rng)
            p = float(rng.uniform(0.0, 0.9))
            psi = psi_mean_of_es(p)
            total = choquet_factor(fam_sum, psi)
            parts = choquet_factor(fam_x, psi) + choquet_factor(fam_y, psi)
            assert total <= parts + 1e-10


class TestCustomPsi:
    def test_valid_custom(self):
        psi = psi_custom(lambda v, pi: float(np.sqrt(v @ pi)), n_scenarios=2)
        fam_pi = np.array([0.5, 0.5])
        assert psi(np.ones(2), fam_pi) == pytest.approx(1.0)

    def test_rejects_nonmonotone(self):
        # normalized at the poles but wiggling in between
        wavy = lambda v, pi: float(v @ pi + 0.5 * np.sin(2 * np.pi * (v @ pi)))
        with pytest.raises(ValidationError):
            psi_custom(wavy, n_scenarios=2)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError):
            psi_custom(lambda v, pi: 0.5 * float(v @ pi), n_scenarios=3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_scenarios(self, n):
        with pytest.raises(ValidationError, match="n_scenarios must be an integer >= 1"):
            psi_custom(lambda v, pi: float(v @ pi), n_scenarios=n)

    def test_mean_of_es_rejects_level_matrix(self):
        with pytest.raises(ValidationError, match="1-D"):
            psi_mean_of_es([[0.5, 0.5]])

    def test_custom_in_engine_matches_riemann(self, d1_family):
        psi = psi_custom(lambda v, pi: float((v @ pi) ** 2), n_scenarios=2)
        engine = choquet_factor(d1_family, psi)
        oracle = choquet_riemann_oracle(d1_family, psi, step=1e-3)
        assert engine == pytest.approx(oracle, abs=0.1)
