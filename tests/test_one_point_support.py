"""A one-point support is the empty sum, and the engines read the stored grid.

The distortion and quantile measures are rho = x_(1) + sum_k psi(s_k) *
(x_(k+1) - x_(k)) over the merged support.  On a one-point support the sum
is empty, so every engine, closed form and sharing routine returns x_(1)
bit for bit through its general route: the sweep of G = m - 1 = 0 points
gives an empty array on each of its three routes (continuous, step, dense),
and no user distortion is called with an empty matrix.

``choquet_factor`` and ``integrand_matrix`` sweep the first m - 1 points of
the family's merged support and ``quantile_factor`` all m of them, each
atom on its row in the family's stored index, ``family._grid[1]``.
"""

import numpy as np
import pytest

from factorrisk import (ConditionalLawFamily, JointSample, StepCDF, core, distortion,
                        es_distortion, from_sample, identity_distortion, inf_convolution,
                        partition_discrete, piecewise_linear_distortion, pred_custom,
                        pred_esssup_var, pred_var_of_var, psi_custom, psi_indicator_var_var,
                        psi_mean_of_es, quantile, quantile_factor, scalar, sharing,
                        var_distortion)
from factorrisk.sharing import (PiecewiseLinearAllocation, allocation_value_check,
                                integrand_matrix)
from factorrisk.errors import ValidationError

POINTS = [2.5, -3.0, 0.0, -0.0, 1e9 + 0.5, 5e-324, -1.7976931348623157e308]


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _want(x: float) -> float:
    return x + 0.0  # -0.0 enters as 0.0


def _families(x: float) -> list[ConditionalLawFamily]:
    """One-point families: from a sample (a stored grid) and from laws (built on first read)."""
    sample = JointSample(np.full(9, x), np.repeat([0.0, 1.0, 2.0], 3))
    law = StepCDF(np.array([x]), np.array([1.0]))
    return [from_sample(sample, partition_discrete(sample)),
            ConditionalLawFamily(np.array([0.25, 0.75]), [law, law])]


def _spy(calls: list):
    """A vectorized user distortion that records the shape of every matrix it sees."""
    def func(V, pi):
        calls.append(V.shape)
        return V @ pi
    return func


def _routes(n: int, calls: list) -> dict:
    """One distortion per sweep route, the dense one a recording spy."""
    custom = psi_custom(_spy(calls), n, vectorized=True)
    calls.clear()  # the spot checks at construction are not engine calls
    return {"continuous": psi_mean_of_es(0.7), "step": psi_indicator_var_var(0.6, 0.5),
            "dense": custom}


class TestOnePointSupport:

    @pytest.mark.parametrize("x", POINTS)
    def test_each_sweep_route_returns_the_point(self, x):
        for family in _families(x):
            calls = []
            routes = _routes(family.n_scenarios, calls)
            for name, psi in routes.items():
                assert core._sweep(family, psi, 0).shape == (0,), name
                value = distortion.choquet_factor(family, psi)
                assert _bits(value) == _bits(_want(x)), name
            assert calls == []

    @pytest.mark.parametrize("x", POINTS)
    def test_quantile_factor(self, x):
        for family in _families(x):
            calls = []

            def func(U, pi):
                calls.append(U.shape)
                return U.min(axis=1) >= 0.5
            custom = pred_custom(func, family.n_scenarios, vectorized=True)
            calls.clear()
            for pred in (pred_var_of_var(0.9, 0.5), pred_esssup_var(0.4), custom):
                assert _bits(quantile_factor(family, pred)) == _bits(_want(x))
            assert calls and all(rows > 0 for rows, _ in calls)

    @pytest.mark.parametrize("x", POINTS)
    def test_sharing(self, x):
        for family in _families(x):
            calls = []
            routes = _routes(family.n_scenarios, calls)
            x_law = family.mixture()
            agents = [(psi, family) for psi in routes.values()]
            assert integrand_matrix(x_law, agents).shape == (3, 0)
            value, allocation = inf_convolution(x_law, agents)
            assert _bits(value) == _bits(_want(x))
            assert _bits(allocation.breakpoints) == _bits([_want(x)])
            assert _bits(allocation.slopes) == _bits(np.zeros((3, 0)))
            two = agents[:2]
            _, halves = inf_convolution(x_law, two)
            parts = [halves.h(agent, _want(x)) for agent in range(2)]
            assert parts == [_want(x) / 2] * 2  # h_i(x_(1)) = x_(1) / n
            assert _bits(allocation_value_check(halves, two, x_law)) == _bits(0.0 + sum(parts))
            assert calls == []

    @pytest.mark.parametrize("x", POINTS)
    def test_distortion_rho_of_every_kind(self, x):
        law = StepCDF(np.array([x]), np.array([1.0]))
        for lam in (identity_distortion(), var_distortion(0.9), es_distortion(0.9),
                    piecewise_linear_distortion([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])):
            assert _bits(scalar.distortion_rho(law, lam)) == _bits(_want(x)), lam.kind

    @pytest.mark.parametrize("x", [2.5, -3.0, 0.0])
    def test_allocation_with_one_breakpoint(self, x):
        for slopes, n in (([], 1), (np.zeros((3, 0)), 3)):
            allocation = PiecewiseLinearAllocation([x], slopes)
            assert allocation.n_agents == n and allocation.slopes.shape == (n, 0)
            assert _bits([allocation._row(i) for i in range(n)]) == _bits(np.full((n, 1), x / n))
            for agent in range(n):  # slope 1/n on the whole line
                assert allocation.h(agent, x) == x / n
                assert allocation.h(agent, [x - 2.0, x + 4.0]).tolist() == [x / n - 2.0 / n,
                                                                           x / n + 4.0 / n]
        with pytest.raises(ValidationError, match="one column per support interval"):
            PiecewiseLinearAllocation([x], [[1.0]])


def test_engines_hand_the_sweep_the_stored_index(monkeypatch):
    seen = []

    def spy(family, fn, G):
        seen.append((family, G))
        return core._sweep(family, fn, G)
    for module in (distortion, quantile, sharing):
        monkeypatch.setattr(module, "_sweep", spy)
    rng = np.random.default_rng(3)
    sample = JointSample(np.round(rng.standard_normal(200), 1), rng.integers(0, 4, 200))
    family = from_sample(sample, partition_discrete(sample))
    distortion.choquet_factor(family, psi_mean_of_es(0.7))
    quantile_factor(family, pred_var_of_var(0.9, 0.5))
    integrand_matrix(family.mixture(), [(psi_indicator_var_var(0.6, 0.5), family)])
    m = family._grid[0].size
    assert [(f is family, G) for f, G in seen] == [(True, m - 1), (True, m), (True, m - 1)]
    assert family._grid[1].dtype == np.int32
