import numpy as np
import pytest

from factorrisk import (
    ConditionalLawFamily,
    DensityFamily,
    StepCDF,
    ValidationError,
    coherent_sup,
    compose_es_mean,
    es,
    es_composition,
    es_tail_density,
    hl_bound,
)
from oracles import grids_to_family, hl_bruteforce_oracle
from conftest import family_of, random_discrete_dist, random_joint_pair, scenario_laws, transform_family


class TestHlBound:
    def test_two_point_single_scenario(self):
        fam_x = grids_to_family([[1.0, 2.0]], [1.0])
        fam_y = grids_to_family([[10.0, 20.0]], [1.0])
        assert hl_bound(fam_x, fam_y, "sup") == pytest.approx(25.0, abs=1e-12)
        assert hl_bound(fam_x, fam_y, "inf") == pytest.approx(20.0, abs=1e-12)

    def test_constant_second_argument(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            fam = family_of(random_discrete_dist(rng))
            ones = ConditionalLawFamily(
                fam.pis.copy(),
                tuple(StepCDF.from_values([1.0]) for _ in fam.laws),
            )
            mean = float(fam.pis @ fam.scenario_means())
            assert hl_bound(fam, ones, "sup") == pytest.approx(mean, abs=1e-12)
            assert hl_bound(fam, ones, "inf") == pytest.approx(mean, abs=1e-12)

    def test_d1_with_scenario_indicator_density(self, d1_family):
        # density 2 * 1{W=1}: no within-scenario variation, so sup = inf
        # and both equal 2 * pi_1 * E[X | W=1] = 5 (atom enumeration)
        dens = ConditionalLawFamily(
            np.array([0.5, 0.5]),
            (StepCDF.from_values([0.0]), StepCDF.from_values([2.0])),
        )
        oracle = hl_bruteforce_oracle(
            [[1, 2, 3, 4], [2, 4, 6, 8]], [[0, 0, 0, 0], [2, 2, 2, 2]], [0.5, 0.5]
        )
        assert oracle[0] == pytest.approx(5.0, abs=1e-12)
        assert hl_bound(d1_family, dens, "sup") == pytest.approx(oracle[0], abs=1e-12)
        assert hl_bound(d1_family, dens, "inf") == pytest.approx(oracle[1], abs=1e-12)

    def test_matches_bruteforce_on_random_grids(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            n_scen = int(rng.integers(1, 4))
            x_grids, pis = scenario_laws(rng, n_scen, max_atoms=6)
            y_sizes = [len(g) for g in x_grids]
            y_grids = [np.round(rng.uniform(-5, 5, k), 3) for k in y_sizes]
            fam_x = grids_to_family(x_grids, pis)
            fam_y = grids_to_family(y_grids, pis)
            sup_o, inf_o = hl_bruteforce_oracle(x_grids, y_grids, pis)
            assert hl_bound(fam_x, fam_y, "sup") == pytest.approx(sup_o, abs=1e-12)
            assert hl_bound(fam_x, fam_y, "inf") == pytest.approx(inf_o, abs=1e-12)

    def test_bounds_dominate_every_coupling(self):
        from itertools import permutations, product

        rng = np.random.default_rng(73)
        for _ in range(30):
            n_scen = int(rng.integers(1, 3))
            x_grids, pis = scenario_laws(rng, n_scen, max_atoms=4)
            x_grids = [np.asarray(g) for g in x_grids]
            y_grids = [np.round(rng.uniform(-3, 3, g.size), 3) for g in x_grids]
            fam_x = grids_to_family(x_grids, pis)
            fam_y = grids_to_family(y_grids, pis)
            sup = hl_bound(fam_x, fam_y, "sup")
            inf = hl_bound(fam_x, fam_y, "inf")
            per_scenario = [
                [float(xg @ np.asarray(perm)) / xg.size for perm in permutations(yg)]
                for xg, yg in zip(x_grids, y_grids)
            ]
            for combo in product(*per_scenario):
                coupled = float(np.dot(pis, combo))
                assert inf - 1e-12 <= coupled <= sup + 1e-12

    def test_partition_mismatch_rejected(self, d1_family):
        other = ConditionalLawFamily(
            np.array([0.25, 0.75]),
            (StepCDF.from_values([1.0]), StepCDF.from_values([1.0])),
        )
        with pytest.raises(ValidationError):
            hl_bound(d1_family, other, "sup")


class TestCoherentSup:
    def test_constant_density_gives_expectation(self, d1_family):
        ones = ConditionalLawFamily(
            d1_family.pis.copy(),
            tuple(StepCDF.from_values([1.0]) for _ in d1_family.laws),
        )
        value = coherent_sup(d1_family, DensityFamily((ones,)))
        assert value == pytest.approx(3.75, abs=1e-12)

    def test_es_tail_density_recovers_mean_es(self, d1_family):
        member = es_tail_density(d1_family, 0.5)
        value = coherent_sup(d1_family, DensityFamily((member,)))
        assert value == pytest.approx(5.25, abs=1e-12)
        assert value == pytest.approx(compose_es_mean(d1_family, 0.5), abs=1e-12)

    def test_two_members_take_the_max(self, d1_family):
        ones = ConditionalLawFamily(
            d1_family.pis.copy(),
            tuple(StepCDF.from_values([1.0]) for _ in d1_family.laws),
        )
        tail = es_tail_density(d1_family, 0.5)
        fam = DensityFamily((ones, tail))
        a = hl_bound(d1_family, ones, "sup")
        b = hl_bound(d1_family, tail, "sup")
        assert coherent_sup(d1_family, fam) == pytest.approx(max(a, b), abs=1e-12)

    def test_member_on_another_partition_rejected(self, d1_family):
        ones = ConditionalLawFamily(
            d1_family.pis.copy(),
            tuple(StepCDF.from_values([1.0]) for _ in d1_family.laws),
        )
        other = ConditionalLawFamily(np.array([1.0]), (StepCDF.from_values([1.0]),))
        with pytest.raises(ValidationError, match="scenario partition"):
            coherent_sup(d1_family, DensityFamily((ones, other)))

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            DensityFamily(())

    def test_normalization_enforced(self, d1_family):
        bad = ConditionalLawFamily(
            d1_family.pis.copy(),
            tuple(StepCDF.from_values([2.0]) for _ in d1_family.laws),
        )
        with pytest.raises(ValidationError):
            DensityFamily((bad,))

    def test_monotone_and_homogeneous(self):
        rng = np.random.default_rng(74)
        for _ in range(60):
            fam = family_of(random_discrete_dist(rng))
            dens = DensityFamily((es_tail_density(fam, 0.4),))
            base = coherent_sup(fam, dens)
            lam = float(rng.uniform(0.1, 3.0))
            scaled = coherent_sup(transform_family(fam, lambda x: lam * x), dens)
            assert scaled == pytest.approx(lam * base, abs=1e-10)
            shift = float(rng.uniform(0.0, 2.0))
            up = coherent_sup(transform_family(fam, lambda x: x + shift), dens)
            assert up >= base - 1e-12


class TestEsComposition:
    def test_d1_esssup(self, d1_family):
        assert es_composition(d1_family, 0.5, outer="esssup") == pytest.approx(7.0, abs=1e-12)

    def test_d1_outer_es(self, d1_family):
        assert es_composition(d1_family, 0.5, outer="es", q=0.5) == pytest.approx(7.0, abs=1e-12)

    def test_single_scenario_collapses(self):
        law = StepCDF.from_values([1.0, 3.0, 9.0], [0.2, 0.3, 0.5])
        fam = ConditionalLawFamily(np.array([1.0]), (law,))
        for outer, q in (("esssup", None), ("es", 0.4)):
            assert es_composition(fam, 0.3, outer=outer, q=q) == pytest.approx(
                es(law, 0.3), abs=1e-12)

    def test_invalid_levels(self, d1_family):
        with pytest.raises(ValidationError):
            es_composition(d1_family, 1.0, outer="esssup")
        with pytest.raises(ValidationError):
            es_composition(d1_family, 0.5, outer="es", q=1.0)

    def test_cash_invariance_and_homogeneity(self):
        rng = np.random.default_rng(75)
        for _ in range(80):
            fam = family_of(random_discrete_dist(rng))
            p = float(rng.uniform(0.0, 0.9))
            q = float(rng.uniform(0.0, 0.9))
            c = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0.1, 3.0))
            for outer, qq in (("esssup", None), ("es", q)):
                base = es_composition(fam, p, outer=outer, q=qq)
                shifted = es_composition(
                    transform_family(fam, lambda x: lam * x + c), p, outer=outer, q=qq)
                assert shifted == pytest.approx(lam * base + c, abs=1e-10)

    def test_subadditive_on_random_pairs(self):
        rng = np.random.default_rng(76)
        for _ in range(150):
            fam_x, fam_y, fam_sum = random_joint_pair(rng)
            p = float(rng.uniform(0.0, 0.85))
            q = float(rng.uniform(0.0, 0.85))
            for outer, qq in (("esssup", None), ("es", q)):
                total = es_composition(fam_sum, p, outer=outer, q=qq)
                parts = (es_composition(fam_x, p, outer=outer, q=qq)
                         + es_composition(fam_y, p, outer=outer, q=qq))
                assert total <= parts + 1e-10
