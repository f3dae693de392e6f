import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    JointSample,
    PiecewiseLinearAllocation,
    StepCDF,
    ValidationError,
    allocation_value_check,
    choquet_factor,
    from_sample,
    inf_convolution,
    partition_discrete,
    psi_indicator_var_var,
    psi_custom,
    psi_mean_of_es,
    psi_mean_of_var,
    quantile_factor,
    pred_var_of_var,
)
from factorrisk.sharing import MIXTURE_TOL, integrand_matrix
from oracles import cdf_matrix, sharing_sweep_oracle
from conftest import random_sharing_fixture, transform_family


def mean_es_value_direct(x_law, families, levels):
    """Corollary-style display: integrate min_i E[(survival ^ (1-p_i)) / (1-p_i)]."""
    xs = x_law.support
    total = float(xs[0])
    for k in range(xs.size - 1):
        vals = []
        for fam, p in zip(families, levels):
            surv = np.array([1.0 - law.cdf(xs[k]) for law in fam.laws])
            vals.append(float(fam.pis @ (np.minimum(surv, 1.0 - p) / (1.0 - p))))
        total += min(vals) * float(xs[k + 1] - xs[k])
    return total


class TestInfConvolutionD1:
    def test_var_var_agents_take_the_min(self, d1_family):
        x_law = d1_family.mixture()
        agents = [
            (psi_indicator_var_var(0.75, 0.5), d1_family),
            (psi_indicator_var_var(0.75, 1.0), d1_family),
        ]
        value, allocation = inf_convolution(x_law, agents)
        standalone = [
            quantile_factor(d1_family, pred_var_of_var(0.75, 0.5)),
            quantile_factor(d1_family, pred_var_of_var(0.75, 1.0)),
        ]
        assert standalone == [3.0, 6.0]
        assert value == min(standalone)
        recomputed = allocation_value_check(allocation, agents, x_law)
        assert recomputed == pytest.approx(value, abs=1e-10)

    def test_single_agent_identity_allocation(self, d1_family):
        x_law = d1_family.mixture()
        agents = [(psi_indicator_var_var(0.75, 0.5), d1_family)]
        value, allocation = inf_convolution(x_law, agents)
        assert value == choquet_factor(d1_family, psi_indicator_var_var(0.75, 0.5))
        assert np.allclose(allocation.h(0, x_law.support), x_law.support)

    def test_identical_agents_split_equally(self, d1_family):
        x_law = d1_family.mixture()
        psi = psi_mean_of_es(0.5)
        agents = [(psi, d1_family), (psi, d1_family)]
        value, allocation = inf_convolution(x_law, agents)
        single = choquet_factor(d1_family, psi)
        assert value == pytest.approx(single, abs=1e-12)
        assert np.allclose(allocation.slopes, 0.5)
        assert np.allclose(allocation.h(0, x_law.support), x_law.support / 2)

    def test_empty_agent_list_rejected(self, d1_family):
        with pytest.raises(ValidationError):
            inf_convolution(d1_family.mixture(), [])

    def test_mixture_mismatch_rejected(self, d1_family):
        bad_law = StepCDF.from_values([0.0, 1.0])
        with pytest.raises(ValidationError):
            inf_convolution(bad_law, [(psi_mean_of_es(0.5), d1_family)])

    def test_mixture_off_by_more_than_the_tolerance(self, d1_family):
        # a law on the family's own support compares cum directly, any other
        # on the union grid; both reject a gap just above MIXTURE_TOL
        x_law = d1_family.mixture()
        cum = x_law.cum.copy()
        cum[0] += 2 * MIXTURE_TOL
        agents = [(psi_mean_of_es(0.5), d1_family)]
        for law in (StepCDF(x_law.support, cum), StepCDF(x_law.support + 1e-9, x_law.cum)):
            with pytest.raises(ValidationError,
                               match="^agent family does not reproduce the marginal law of X$"):
                inf_convolution(law, agents)
        inf_convolution(StepCDF(x_law.support, x_law.cum), agents)

    def test_shared_family_checked_once(self, d1_family, monkeypatch):
        x_law = d1_family.mixture()
        builds = []
        real = ConditionalLawFamily.mixture

        def counting(family):
            builds.append(family)
            return real(family)

        monkeypatch.setattr(ConditionalLawFamily, "mixture", counting)
        psi = psi_mean_of_es(0.5)
        inf_convolution(x_law, [(psi, d1_family), (psi, d1_family)])
        assert builds == [d1_family]

    @pytest.mark.parametrize("where", ["bottom", "middle", "top"])
    def test_an_atom_the_families_lack_is_rejected(self, d1_family, where):
        # X with one more atom, of mass 1e-12: its CDF is within MIXTURE_TOL of
        # the family's everywhere, but the family's merged support is not X's
        x_law = d1_family.mixture()
        xs = x_law.support
        extra = {"bottom": xs[0] - 1.0, "middle": (xs[1] + xs[2]) / 2, "top": xs[-1] + 1.0}[where]
        law = StepCDF.from_values(np.append(xs, extra), np.append(x_law.masses, 1e-12))
        assert law.support.size == xs.size + 1
        agents = [(psi_mean_of_es(0.5), d1_family)]
        allocation = PiecewiseLinearAllocation(law.support, np.ones((1, xs.size)))
        for call in (lambda: inf_convolution(law, agents), lambda: integrand_matrix(law, agents),
                     lambda: allocation_value_check(allocation, agents, law)):
            with pytest.raises(ValidationError,
                               match="^agent family does not reproduce the marginal law of X$"):
                call()

    def test_points_the_mixture_drops_are_read_past(self):
        # the scenario of the two 1e-20 rows holds the atoms -1 and 2.5, which
        # the mixture weighs under MIN_ATOM_MASS and drops: X's support is the
        # family's merged support less those points, and each row is the
        # family's sweep read at X's points
        sample = JointSample([-1.0, 2.5, 0.0, 1.0, 2.0, 3.0], [1, 1, 0, 0, 0, 0],
                             [1e-20, 1e-20, 1.0, 1.0, 1.0, 1.0])
        family = from_sample(sample, partition_discrete(sample))
        x_law = family.mixture()
        assert family.merged_support().tolist() == [-1.0, 0.0, 1.0, 2.0, 2.5, 3.0]
        assert x_law.support.tolist() == [0.0, 1.0, 2.0, 3.0]
        custom = psi_custom(lambda V, pi: (np.minimum(V, 0.5) / 0.5) @ pi, 2, vectorized=True)
        agents = [(psi_mean_of_es(0.5), family), (psi_indicator_var_var(0.75, 0.5), family),
                  (custom, family)]
        survival = 1.0 - cdf_matrix(family, x_law.support[:-1])
        dense = [psi.apply(survival, family.pis) for psi, _ in agents]
        assert np.allclose(integrand_matrix(x_law, agents), dense, rtol=0.0, atol=1e-12)
        value, allocation = inf_convolution(x_law, agents)
        assert allocation_value_check(allocation, agents, x_law) == pytest.approx(value, abs=1e-10)

    def test_second_family_mismatch_rejected(self, d1_family):
        shifted = transform_family(d1_family, lambda x: x + 1.0)
        psi = psi_mean_of_es(0.5)
        with pytest.raises(ValidationError, match="marginal"):
            inf_convolution(d1_family.mixture(), [(psi, d1_family), (psi, shifted)])


class TestAllocationInvariants:
    def test_agents_of_another_loss_are_rejected(self):
        # an allocation of X checked against families of 0.01 X would read
        # 0.01582855778841513, below the optimum 1.3443020878554202
        rng = np.random.default_rng(3)
        loss, factor = rng.normal(size=400), rng.integers(0, 3, 400)

        def agents(scale):
            sample = JointSample(loss * scale, factor)
            family = from_sample(sample, partition_discrete(sample))
            return [(psi_mean_of_es(0.9), family), (psi_mean_of_var(0.9), family)]

        own = agents(1.0)
        x_law = own[0][1].mixture()
        value, allocation = inf_convolution(x_law, own)
        assert value == 1.3443020878554202
        assert allocation_value_check(allocation, own, x_law) == pytest.approx(value, abs=1e-10)
        with pytest.raises(ValidationError,
                           match="^agent family does not reproduce the marginal law of X$"):
            allocation_value_check(allocation, agents(0.01), x_law)

    def test_feasibility_of_outputs(self):
        rng = np.random.default_rng(81)
        for _ in range(60):
            x_law, families = random_sharing_fixture(rng, n_agents=3)
            agents = [(psi_mean_of_es(float(rng.uniform(0, 0.9))), fam) for fam in families]
            value, allocation = inf_convolution(x_law, agents)
            slopes = allocation.slopes
            assert np.all(slopes >= 0) and np.all(slopes <= 1)
            assert np.allclose(slopes.sum(axis=0), 1.0, atol=1e-12)
            hk = np.array([allocation.h(i, allocation.breakpoints) for i in range(3)])
            assert np.allclose(hk.sum(axis=0), allocation.breakpoints, atol=1e-12)
            diffs = np.diff(hk, axis=1)
            assert np.all(diffs >= -1e-12)
            assert np.all(diffs <= np.diff(allocation.breakpoints)[None, :] + 1e-12)

    def test_identity_to_agent_one(self, d1_family):
        x_law = d1_family.mixture()
        psi = psi_mean_of_es(0.5)
        agents = [(psi, d1_family), (psi, d1_family)]
        m = x_law.support.size
        slopes = np.vstack([np.ones(m - 1), np.zeros(m - 1)])
        allocation = PiecewiseLinearAllocation(x_law.support, slopes)
        value = allocation_value_check(allocation, agents, x_law)
        # agent 2 still holds the below-support tail h(x) = x/2 for x <= x_(1),
        # a cash position of x_(1)/2 each, so the total matches the standalone value
        assert value == pytest.approx(choquet_factor(d1_family, psi), abs=1e-10)

    def test_random_feasible_never_beats_optimum(self):
        rng = np.random.default_rng(82)
        for _ in range(40):
            x_law, families = random_sharing_fixture(rng, n_agents=2)
            agents = [
                (psi_indicator_var_var(float(rng.uniform(0.2, 0.9)),
                                       float(rng.uniform(0.2, 0.9))), families[0]),
                (psi_mean_of_es(float(rng.uniform(0.0, 0.9))), families[1]),
            ]
            value, _ = inf_convolution(x_law, agents)
            m = x_law.support.size - 1
            slopes = rng.dirichlet(np.ones(2), size=m).T
            allocation = PiecewiseLinearAllocation(x_law.support, slopes)
            assert allocation_value_check(allocation, agents, x_law) >= value - 1e-10


class TestSweepOracle:
    def test_identical_agents_symmetry(self, d1_family):
        x_law = d1_family.mixture()
        psi = psi_mean_of_es(0.5)
        agents = [(psi, d1_family), (psi, d1_family)]
        value, _ = inf_convolution(x_law, agents)
        best = sharing_sweep_oracle(x_law, agents, trials=100, seed=0)
        assert best == pytest.approx(value, abs=1e-10)

    def test_injected_profile_alone_matches(self, d1_family):
        x_law = d1_family.mixture()
        agents = [
            (psi_indicator_var_var(0.75, 0.5), d1_family),
            (psi_indicator_var_var(0.75, 1.0), d1_family),
        ]
        value, _ = inf_convolution(x_law, agents)
        assert sharing_sweep_oracle(x_law, agents, trials=1, seed=5) == pytest.approx(
            value, abs=1e-12)

    def test_sweep_never_beats_optimum(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            x_law, families = random_sharing_fixture(rng, n_agents=2)
            agents = [(psi_mean_of_es(float(rng.uniform(0, 0.85))), fam) for fam in families]
            value, _ = inf_convolution(x_law, agents)
            best = sharing_sweep_oracle(x_law, agents, trials=50, seed=int(rng.integers(1000)))
            assert best >= value - 1e-10
            assert best == pytest.approx(value, abs=1e-6)


class TestMeanEsClosedForm:
    def test_direct_display_agrees(self):
        rng = np.random.default_rng(84)
        for _ in range(60):
            x_law, families = random_sharing_fixture(rng, n_agents=2)
            levels = [float(rng.uniform(0, 0.9)) for _ in families]
            agents = [(psi_mean_of_es(p), fam) for p, fam in zip(levels, families)]
            value, _ = inf_convolution(x_law, agents)
            direct = mean_es_value_direct(x_law, families, levels)
            assert value == pytest.approx(direct, abs=1e-10)
