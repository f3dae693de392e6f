import inspect

import numpy as np
import pytest

import oracles as oracles_module
from factorrisk import ConditionalLawFamily, StepCDF, ValidationError, psi_mean, psi_mean_of_es
from oracles import (
    choquet_riemann_oracle,
    grids_to_family,
    hl_bruteforce_oracle,
    sharing_sweep_oracle,
)


class TestRiemannOracle:
    def test_d1_mean(self, d1_family):
        assert choquet_riemann_oracle(d1_family, psi_mean(), 1e-4) == pytest.approx(
            3.75, abs=1e-3)

    def test_d1_mean_of_es(self, d1_family):
        assert choquet_riemann_oracle(d1_family, psi_mean_of_es(0.5), 1e-4) == pytest.approx(
            5.25, abs=1e-3)

    def test_constant_loss(self):
        fam = ConditionalLawFamily(np.array([1.0]), (StepCDF.from_values([4.0]),))
        assert choquet_riemann_oracle(fam, psi_mean(), 1e-3) == pytest.approx(4.0, abs=1e-3)

    def test_negative_support(self):
        fam = ConditionalLawFamily(
            np.array([1.0]), (StepCDF.from_values([-3.0, -1.0, 2.0]),))
        value = choquet_riemann_oracle(fam, psi_mean(), 1e-4)
        assert value == pytest.approx((-3.0 - 1.0 + 2.0) / 3.0, abs=1e-3)


class TestHlOracle:
    def test_two_pairings(self):
        sup, inf = hl_bruteforce_oracle([[1.0, 2.0]], [[10.0, 20.0]], [1.0])
        assert (sup, inf) == (25.0, 20.0)

    def test_constant_y(self):
        sup, inf = hl_bruteforce_oracle([[1.0, 5.0]], [[2.0, 2.0]], [1.0])
        assert sup == inf == pytest.approx(6.0)

    def test_atom_limit(self):
        with pytest.raises(ValidationError):
            hl_bruteforce_oracle([list(range(7))], [list(range(7))], [1.0])


class TestSweepOracle:
    def test_single_trial_is_injected_optimum(self, d1_family):
        from factorrisk import inf_convolution, psi_indicator_var_var

        x_law = d1_family.mixture()
        agents = [(psi_indicator_var_var(0.6, 0.5), d1_family)]
        value, _ = inf_convolution(x_law, agents)
        assert sharing_sweep_oracle(x_law, agents, trials=1, seed=0) == pytest.approx(
            value, abs=1e-12)


def test_oracles_do_not_touch_main_code_paths():
    src = inspect.getsource(oracles_module)
    for banned in ("choquet_factor", "quantile_factor", "distortion_rho",
                   "inf_convolution", "allocation_value_check", "hl_bound",
                   "coherent_sup", "factorrisk.distortion", "factorrisk.sharing",
                   "factorrisk.coherent", "factorrisk.quantile", "factorrisk.scalar",
                   "factorrisk.linear"):
        assert banned not in src, banned
