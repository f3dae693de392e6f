import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorrisk import (
    ConditionalLawFamily,
    DiscreteJointDistribution,
    JointSample,
    ScenarioPartition,
    Scenario,
    StepCDF,
    ValidationError,
    from_sample,
    marginal,
    partition_discrete,
)
from conftest import family_of, random_discrete_dist


class TestStepCDF:
    def test_right_continuous_evaluation(self):
        cdf = StepCDF(np.array([1.0, 3.0]), np.array([0.25, 1.0]))
        assert cdf.cdf(0.999) == 0.0
        assert cdf.cdf(1.0) == 0.25
        assert cdf.cdf(2.5) == 0.25
        assert cdf.cdf(3.0) == 1.0
        assert cdf.cdf(99.0) == 1.0

    def test_survival_is_one_minus_the_cdf(self):
        cdf = StepCDF(np.array([1.0, 3.0]), np.array([0.25, 1.0]))
        assert cdf.survival(2.0) == 0.75
        assert cdf.survival(np.array([0.0, 1.0, 3.0])).tolist() == [1.0, 0.75, 0.0]

    def test_from_values_merges_and_normalizes(self):
        cdf = StepCDF.from_values([2.0, 1.0, 2.0], [1.0, 1.0, 2.0])
        assert np.allclose(cdf.support, [1.0, 2.0])
        assert np.allclose(cdf.cum, [0.25, 1.0])

    def test_point_mass(self):
        cdf = StepCDF.from_values([5.0])
        assert cdf.cdf(5.0) == 1.0
        assert cdf.cdf(4.999) == 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError):
            StepCDF(np.array([1.0, 2.0]), np.array([0.5, 0.9]))
        with pytest.raises(ValidationError):
            StepCDF(np.array([2.0, 1.0]), np.array([0.5, 1.0]))

    def test_large_sample_mass_is_exact(self):
        rng = np.random.default_rng(5)
        cdf = StepCDF.from_values(rng.standard_normal(10**6))
        assert cdf.cum[-1] == 1.0


class TestDiscreteJointDistribution:
    def test_d1_canonical_order(self, d1_dist):
        assert d1_dist.xs[0] == 1.0 and d1_dist.ws[0, 0] == 0.0
        assert d1_dist.xs[-1] == 8.0 and d1_dist.ws[-1, 0] == 1.0
        assert np.allclose(d1_dist.ps, 0.125)

    def test_n_factors(self, d1_dist):
        assert d1_dist.n_factors == 1
        assert DiscreteJointDistribution([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]],
                                         [0.5, 0.5]).n_factors == 2

    def test_marginal_d1(self, d1_dist):
        m = marginal(d1_dist)
        assert np.allclose(m.support, [1, 2, 3, 4, 6, 8])
        assert np.allclose(m.cum, [1 / 8, 3 / 8, 4 / 8, 6 / 8, 7 / 8, 1.0])

    def test_marginal_merges_equal_x_across_scenarios(self):
        dist = DiscreteJointDistribution.from_atoms([(1.0, 0.0, 0.5), (1.0, 1.0, 0.5)])
        m = marginal(dist)
        assert m.support.tolist() == [1.0]
        assert m.cum.tolist() == [1.0]

    def test_merge_equal_atoms(self):
        dist = DiscreteJointDistribution.from_atoms(
            [(1.0, 0.0, 0.25), (1.0, 0.0, 0.25), (2.0, 0.0, 0.5)]
        )
        assert dist.xs.tolist() == [1.0, 2.0]
        assert np.allclose(dist.ps, [0.5, 0.5])

    def test_tiny_atoms_dropped(self):
        dist = DiscreteJointDistribution.from_atoms(
            [(1.0, 0.0, 1.0 - 1e-16), (2.0, 0.0, 1e-16)]
        )
        assert dist.xs.tolist() == [1.0]
        assert abs(dist.ps.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(8))), st.randoms(use_true_random=False))
    def test_canonicalization_is_order_invariant(self, perm, _rnd):
        from conftest import D1_ATOMS

        base = DiscreteJointDistribution.from_atoms(D1_ATOMS)
        shuffled = DiscreteJointDistribution.from_atoms([D1_ATOMS[i] for i in perm])
        assert np.array_equal(base.xs, shuffled.xs)
        assert np.array_equal(base.ws, shuffled.ws)
        assert np.array_equal(base.ps, shuffled.ps)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-5, 5, allow_nan=False),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_canonicalization_idempotent(self, raw):
        total = sum(p for _, _, p in raw)
        atoms = [(x, w, p / total) for x, w, p in raw]
        once = DiscreteJointDistribution.from_atoms(atoms)
        twice = DiscreteJointDistribution(once.xs.copy(), once.ws.copy(), once.ps.copy())
        assert np.array_equal(once.xs, twice.xs)
        assert np.array_equal(once.ws, twice.ws)
        assert np.array_equal(once.ps, twice.ps)


class TestJointSample:
    def test_weights_normalize(self):
        s = JointSample(np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([2.0, 6.0]))
        assert np.allclose(s.weights, [0.25, 0.75])

    def test_uniform_weights_when_absent(self):
        s = JointSample(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert np.allclose(s.weights, 1 / 3)

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValidationError):
            JointSample(np.array([1.0]), np.array([0.0]), np.array([0.0]))


def test_constructors_leave_the_callers_arrays_writeable():
    loss, factors, weights = np.arange(5.0), np.zeros((5, 1)), np.ones(5)
    support, cum, pis = np.array([0.0, 1.0]), np.array([0.5, 1.0]), np.array([0.25, 0.75])
    xs, ps = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    sample = JointSample(loss, factors, weights)
    law = StepCDF(support, cum)
    family = ConditionalLawFamily(pis, [law, law])
    dist = DiscreteJointDistribution(xs, xs, ps)
    for given_array in (loss, factors, weights, support, cum, pis, xs, ps):
        assert given_array.flags.writeable
    for stored in (sample.loss, sample.factors, sample.weights, law.support, law.cum,
                   family.pis, family.support, family.cum, dist.xs, dist.ws, dist.ps):
        assert not stored.flags.writeable


class TestFromSample:
    def test_d1_family(self, d1_sample):
        fam = from_sample(d1_sample, partition_discrete(d1_sample))
        assert np.allclose(fam.pis, [0.5, 0.5])
        assert fam.labels == (0.0, 1.0)
        assert np.allclose(fam.laws[0].support, [1, 2, 3, 4])
        assert np.allclose(fam.laws[0].cum, [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(fam.laws[1].support, [2, 4, 6, 8])

    def test_single_row_trivial_partition(self):
        s = JointSample(np.array([7.0]), np.array([1.0]))
        fam = from_sample(s, partition_discrete(s))
        assert fam.n_scenarios == 1
        assert fam.laws[0].support.tolist() == [7.0]

    def test_weight_filtering_drops_empty_scenarios(self, d1_sample):
        weights = np.zeros(8)
        weights[0] = 1.0
        s = JointSample(d1_sample.loss, d1_sample.factors, weights)
        fam = from_sample(s, partition_discrete(s))
        assert fam.n_scenarios == 1
        assert fam.labels == (0.0,)
        assert fam.laws[0].support.tolist() == [1.0]

    def test_empty_scenario_rejected(self, d1_sample):
        weights = np.zeros(8)
        weights[0] = 1.0
        s = JointSample(d1_sample.loss, d1_sample.factors, weights)
        bad = ScenarioPartition((
            Scenario(0.0, np.array([0]), 0.5),
            Scenario(1.0, np.array([4, 5, 6, 7]), 0.5),
        ))
        with pytest.raises(ValidationError):
            from_sample(s, bad)


class TestMixtureIdentity:
    def test_mixture_matches_marginal_on_random_distributions(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            dist = random_discrete_dist(rng)
            fam = family_of(dist)
            mix = fam.mixture()
            marg = marginal(dist)
            grid = np.union1d(mix.support, marg.support)
            assert np.max(np.abs(mix.cdf(grid) - marg.cdf(grid))) <= 1e-10

    def test_permuted_atoms_same_family(self):
        rng = np.random.default_rng(7)
        dist = random_discrete_dist(rng)
        perm = rng.permutation(dist.xs.size)
        dist2 = DiscreteJointDistribution(dist.xs[perm], dist.ws[perm], dist.ps[perm])
        fam, fam2 = family_of(dist), family_of(dist2)
        assert np.array_equal(fam.pis, fam2.pis)
        for a, b in zip(fam.laws, fam2.laws):
            assert np.array_equal(a.support, b.support)
            assert np.array_equal(a.cum, b.cum)
