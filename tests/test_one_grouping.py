"""One grouping routine, and an agent's part from its own row.

Partition cells and the canonical atom list of a
``DiscreteJointDistribution`` both come from ``core._cells``: one stable
sort (``core._sorted_keys``) of a mixed-radix key of per-column codes.  The
atom list must equal the former ``np.lexsort`` route
(``per_scenario.discrete_joint``) bit for bit, on ties in w and in x,
zeros given as -0.0, atoms under ``MIN_ATOM_MASS`` and dyadic and random
masses; and a partition whose key is too wide to pack with its positions
takes ``_sorted_keys``' argsort and must equal a stable-argsort grouping.

``PiecewiseLinearAllocation.h`` reads one agent's row, from its own
slopes; every row must equal the former n x m formula
(``per_scenario.h_at_breakpoints``) bit for bit, and
``allocation_value_check`` must build each agent's row once.  The
breakpoints are taken in as every other value is (``core._as_1d``: finite,
-0.0 read as 0.0), and ``transform_family`` reads h on a family whose
merged support is the breakpoints from the agent's row at each atom's
stored index, bit for bit as ``h(agent, family.support)``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from conftest import random_sharing_fixture
from factorrisk import (DiscreteJointDistribution, JointSample, PiecewiseLinearAllocation,
                        ValidationError, allocation_value_check, core, from_sample,
                        inf_convolution, partition_discrete, partition_quantile_boxes,
                        psi_indicator_var_var, psi_mean_of_es)
from factorrisk.sharing import transform_family
from factorrisk.core import MIN_ATOM_MASS


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


POOL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -7.25, 3.0]


@st.composite
def atom_lists(draw):
    n_factors = draw(st.integers(1, 3))
    size = draw(st.integers(1, 40))
    pool = st.one_of(st.sampled_from(POOL), st.floats(-1e6, 1e6, allow_nan=False))
    xs = draw(st.lists(pool, min_size=size, max_size=size))
    flat = draw(st.lists(pool, min_size=size * n_factors, max_size=size * n_factors))
    ws = [flat[i:i + n_factors] for i in range(0, len(flat), n_factors)]
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=size))  # ties in (w, x)
    xs += [xs[i] for i in repeats]
    ws += [ws[i] for i in repeats]
    counts = np.array(draw(st.lists(st.integers(1, 1000), min_size=len(xs), max_size=len(xs))),
                      dtype=float)
    if draw(st.booleans()):  # dyadic masses, summing to 1 exactly
        top = 2.0 ** int(np.ceil(np.log2(counts.sum())))
        counts[-1] += top - counts.sum()
        ps = counts / top
    else:
        ps = counts / counts.sum()
    tiny = draw(st.lists(st.sampled_from([1e-16, 4e-16, 9e-16, 2e-15]), max_size=3))
    for mass in tiny:  # on an atom of its own, or on one of the others' (w, x)
        if draw(st.booleans()):
            i = draw(st.integers(0, size - 1))
            xs, ws = xs + [xs[i]], ws + [ws[i]]
        else:
            xs = xs + [draw(pool)]
            ws = ws + [draw(st.lists(pool, min_size=n_factors, max_size=n_factors))]
    return np.array(xs), np.array(ws), np.concatenate((ps, tiny))


class TestCanonicalAtoms:

    @settings(max_examples=300, deadline=None)
    @given(atom_lists())
    def test_equal_the_former_lexsort_route(self, atoms):
        xs, ws, ps = atoms
        got = DiscreteJointDistribution(xs, ws, ps)
        want = per_scenario.discrete_joint(xs, ws, ps)
        for a, b in zip((got.xs, got.ws, got.ps), want):
            assert _bits(a) == _bits(b)

    def test_large_atom_lists(self):
        rng = np.random.default_rng(32)
        for n_factors in (1, 3):
            xs = rng.integers(-50, 50, 100_000) / 4
            ws = rng.integers(-3, 4, (100_000, n_factors)) * 1.5
            ws[::5] = -0.0
            ps = rng.random(100_000)
            ps[::97] = MIN_ATOM_MASS / 4
            ps /= ps.sum()
            got = DiscreteJointDistribution(xs, ws, ps)
            for a, b in zip((got.xs, got.ws, got.ps), per_scenario.discrete_joint(xs, ws, ps)):
                assert _bits(a) == _bits(b)

    def test_cells_order_the_atoms(self):
        xs, ws, ps = np.array([2.0, 1.0, 2.0]), np.array([1.0, 1.0, 0.0]), np.full(3, 1 / 3)
        with mock.patch.object(core, "_cells", wraps=core._cells) as cells, \
                mock.patch.object(np, "lexsort", side_effect=AssertionError("lexsort")):
            dist = DiscreteJointDistribution(xs, ws, ps)
        assert cells.call_count == 1
        assert dist.ws[:, 0].tolist() == [0.0, 1.0, 1.0] and dist.xs.tolist() == [2.0, 1.0, 2.0]

    def test_merged_masses_sum_in_the_given_order(self):
        atoms = [(0.0, 0.0, 0.1), (0.0, 0.0, 0.2), (0.0, 0.0, 0.3), (1.0, 0.0, 0.4)]
        forward = DiscreteJointDistribution.from_atoms(atoms)
        backward = DiscreteJointDistribution.from_atoms(atoms[2::-1] + atoms[3:])
        assert forward.ps.tolist() == [0.6000000000000001, 0.4]
        assert backward.ps.tolist() == [0.6, 0.4]
        for dist in (forward, backward):  # idempotent: each builds itself again
            again = DiscreteJointDistribution(dist.xs, dist.ws, dist.ps)
            assert _bits(again.ps) == _bits(dist.ps) and _bits(again.xs) == _bits(dist.xs)


class TestWideKeys:

    def test_unpacked_partition_equals_a_stable_argsort(self):
        rng = np.random.default_rng(64)
        T = 200_000
        factors = rng.integers(0, 40_000, (T, 3)) / 8
        factors[T // 2:] = factors[:T // 2]  # every cell of the first half twice
        weights = rng.random(T) * (rng.random(T) > 0.05)
        sample = JointSample(rng.standard_normal(T), factors, weights)
        rows = np.flatnonzero(sample.weights > 0)
        uniq, inverse = np.unique(sample.factors[rows], axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        radices = [np.unique(col).size for col in uniq.T]
        size = int(np.prod(radices, dtype=object))
        assert size <= 2**63 < size << (rows.size - 1).bit_length()  # no re-rank, no packing

        part = partition_discrete(sample)
        members = rows[np.argsort(inverse, kind="stable")]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        assert _bits(part.rows) == _bits(members)
        assert _bits(part.offsets) == _bits(offsets)
        weights = [sample.weights[members[a:b]].sum() for a, b in zip(offsets[:-1], offsets[1:])]
        assert _bits(part.weights) == _bits(weights)


def _allocations(rng):
    for n in range(1, 9):
        for first in (0.0, -0.0, -3.5, 2.0):
            m = int(rng.integers(1, 60))
            xs = np.cumsum(np.concatenate(([first], rng.uniform(0.01, 3, m - 1))))
            slopes = rng.dirichlet(np.ones(n), size=m - 1).T.reshape(n, m - 1)
            slopes[:, rng.random(m - 1) < 0.3] = np.eye(n)[:, :1]  # whole intervals to agent 0
            yield PiecewiseLinearAllocation(xs, slopes)


def _allocation_on(rng, xs, n):
    """Whole intervals to one agent, some split equally, so ties and zero slopes."""
    slopes = np.zeros((n, xs.size - 1))
    slopes[rng.integers(0, n, xs.size - 1), np.arange(xs.size - 1)] = 1.0
    slopes[:, rng.random(xs.size - 1) < 0.2] = 1.0 / n
    return PiecewiseLinearAllocation(xs, slopes)


class TestAgentRows:

    def test_rows_equal_the_former_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            for allocation in _allocations(rng):
                want = per_scenario.h_at_breakpoints(allocation)
                xs = allocation.breakpoints
                x = np.concatenate((xs, xs[:-1] + np.diff(xs) / 3, [xs[0] - 1.0, xs[-1] + 2.0]))
                n = allocation.n_agents
                for agent in range(n):
                    assert _bits(allocation._row(agent)) == _bits(want[agent])
                    former = (np.interp(np.clip(x, xs[0], xs[-1]), xs, want[agent])
                              + (xs[0] + np.minimum(x - xs[0], 0.0) - xs[0]) / n
                              + np.maximum(x - xs[-1], 0.0) / n)
                    assert _bits(allocation.h(agent, x)) == _bits(former)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_breakpoints_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="breakpoints must be finite"):
            PiecewiseLinearAllocation([0.0, bad], [[1.0]])

    @pytest.mark.parametrize("given", [[-0.0, 1.0], np.array([-0.0, 1.0])])
    def test_a_negative_zero_breakpoint_is_zero(self, given):
        allocation = PiecewiseLinearAllocation(given, [[0.5], [0.5]])
        assert _bits(allocation.breakpoints) == _bits([0.0, 1.0])
        assert _bits([allocation._row(i) for i in range(2)]) == _bits([[0.0, 0.5], [0.0, 0.5]])

    def test_entered_breakpoints_are_held_as_given(self):
        # a law's support is already entered: the allocation holds no second copy
        support = np.array([-1.5, 0.0, 2.0])
        assert PiecewiseLinearAllocation(support, [[1.0, 1.0]]).breakpoints is support

    def test_transform_reads_the_row_at_the_stored_index(self):
        # families with tied losses, zeros (some given as -0.0) and a
        # breakpoint at 0, discrete and in quantile boxes, equally weighted
        # and weighted; one allocation on the merged support, one on a
        # superset of it, which keeps the pointwise h
        rng = np.random.default_rng(44)
        families = []
        for T, decimals, weighted in ((300, 0, False), (2000, 1, False), (5000, 2, True)):
            loss = np.round(rng.standard_normal(T) * 3, decimals)
            loss[rng.random(T) < 0.1] = -0.0
            loss[rng.random(T) < 0.1] = 0.0
            weights = rng.random(T) + 0.5 if weighted else None
            discrete = JointSample(loss, rng.integers(0, 3, (T, 1)).astype(float), weights)
            boxed = JointSample(loss, rng.standard_normal((T, 2)), weights)
            families.append(from_sample(discrete, partition_discrete(discrete)))
            families.append(from_sample(boxed, partition_quantile_boxes(boxed, 3)))
        # a first breakpoint of -5e-324: its agent row starts at -5e-324 / 3 = -0.0
        tiny = JointSample(np.array([-5e-324, 0.0, 1.0, 1.0, 2.0, -0.0]),
                           np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]]))
        families.append(from_sample(tiny, partition_discrete(tiny)))
        for family in families:
            xs = family.merged_support()
            assert (xs == 0.0).any()
            on_grid = _allocation_on(rng, xs, 3)
            wider = _allocation_on(rng, np.union1d(xs, xs[:-1] + np.diff(xs) / 2), 3)
            for allocation, stored in ((on_grid, True), (wider, False)):
                for agent in range(3):
                    with mock.patch.object(PiecewiseLinearAllocation, "h",
                                           wraps=allocation.h) as h:
                        mapped = transform_family(family, allocation, agent)
                    assert h.call_count == (0 if stored else 1)
                    want = per_scenario.transform_family(family, allocation, agent)
                    for a, b in ((mapped.support, want.support), (mapped.cum, want.cum),
                                 (mapped.offsets, want.offsets)):
                        assert _bits(a) == _bits(b)
                    if stored:
                        row = allocation._row(agent)[family._grid[1]] + 0.0
                        assert _bits(row) == _bits(allocation.h(agent, family.support))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_32_agent_check(self, seed):
        rng = np.random.default_rng(seed)
        x_law, families = random_sharing_fixture(rng, n_agents=32, max_atoms=40)
        agents = [(psi_mean_of_es(float(rng.uniform(0, 0.9))) if i % 2 else
                   psi_indicator_var_var(float(rng.uniform(0.2, 0.9)),
                                         float(rng.uniform(0.2, 0.9))), fam)
                  for i, fam in enumerate(families)]
        value, allocation = inf_convolution(x_law, agents)
        with mock.patch.object(PiecewiseLinearAllocation, "_row", autospec=True,
                               side_effect=PiecewiseLinearAllocation._row) as row:
            got = allocation_value_check(allocation, agents, x_law)
        assert sorted(c.args[1] for c in row.call_args_list) == list(range(32))  # one row each
        with mock.patch.object(PiecewiseLinearAllocation, "_row",
                               lambda self, agent: per_scenario.h_at_breakpoints(self)[agent]):
            assert allocation_value_check(allocation, agents, x_law) == got
        assert got == pytest.approx(value, abs=1e-10)
