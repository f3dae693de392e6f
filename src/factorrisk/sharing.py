"""Comonotonic risk sharing among scenario-distortion agents.

Each agent i evaluates an allocation through a scenario distortion psi_i
against its own factor vector W_i.  Over comonotone allocations of a total
loss X, the minimal aggregate risk has a closed form: integrate the
pointwise minimum of the per-agent integrands,

    value = x_(1) + sum_k min_i psi_i(s_k^(i), pi^(i)) * (x_(k+1) - x_(k)),

and an optimal allocation gives each interval of the support entirely to
the agents attaining the minimum there (ties split equally).  Allocations
are piecewise linear with slopes in [0, 1] summing to one, anchored at
h_i(0) = 0, so the sum of the parts is exactly the identity.

Every entry point first checks each agent's family against X: its mixture
must have X's support, and a cum within ``MIXTURE_TOL`` of X's.  So each
agent's integrand row comes from the same engine as
:func:`~factorrisk.distortion.choquet_factor` (``core._sweep``), a sweep of
the family's own merged support: O(T log T) time and O(T) memory per
built-in agent (exact rows only for a 0/1 one), chunks of dense rows for a
custom one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConditionalLawFamily, StepCDF, _as_1d, _count, _first, _segment_laws,
                   _segment_sums, _sweep)
from .distortion import ScenarioDistortion, choquet_factor
from .errors import ValidationError

MIXTURE_TOL = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class PiecewiseLinearAllocation:
    """A comonotone allocation of X among n agents.

    ``breakpoints`` is the marginal support of X and ``slopes[i, k]`` the
    share of agent i on the interval [x_k, x_{k+1}].  Outside the support
    every agent takes the slope 1/n, which keeps the parts summing to the
    identity on the whole line.  ``h(i, x)`` integrates the slopes from 0.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        given, xs = self.breakpoints, _as_1d(self.breakpoints, "breakpoints")
        if (isinstance(given, np.ndarray) and given.dtype == xs.dtype
                and np.array_equal(given.view(np.int64), xs.view(np.int64))):
            xs = given  # already entered (a law's support): hold no second copy of it
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        if not np.all(np.diff(xs) > 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if slopes.shape[1] != xs.size - 1:
            raise ValidationError("slopes must have one column per support interval")
        outside = ~((slopes >= -TIE_TOL) & (slopes <= 1 + TIE_TOL))
        if outside.any():
            raise ValidationError(f"slopes must be in [0, 1], got {_first(slopes, outside)!r}")
        if np.any(np.abs(slopes.sum(axis=0) - 1.0) > 1e-9):
            raise ValidationError("slopes must sum to 1 on every interval")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "slopes", np.clip(slopes, 0.0, 1.0))

    @property
    def n_agents(self) -> int:
        return self.slopes.shape[0]

    def _row(self, agent: int) -> np.ndarray:
        """h_agent(x_k) at every breakpoint x_k, from the agent's own slopes: O(m)."""
        xs, n, agent = self.breakpoints, self.n_agents, _count(agent, "agent", 0)
        if agent >= n:
            raise ValidationError(f"agent must be < n_agents = {n}, got {agent!r}")
        start = xs[0] / n
        return np.concatenate(([start], start + np.cumsum(self.slopes[agent] * np.diff(xs))))

    def h(self, agent: int, x) -> np.ndarray | float:
        """Evaluate h_agent pointwise (piecewise linear, 1/n outside)."""
        xs, n, row = self.breakpoints, self.n_agents, self._row(agent)
        x = np.asarray(x, dtype=float)
        below = xs[0] + np.minimum(x - xs[0], 0.0)
        above = np.maximum(x - xs[-1], 0.0)
        inside = np.clip(x, xs[0], xs[-1])
        out = np.interp(inside, xs, row) + (below - xs[0]) / n + above / n
        return float(out) if out.ndim == 0 else out


def _check_agents(agents, x_law: StepCDF) -> list[tuple[ScenarioDistortion, ConditionalLawFamily]]:
    """The (distortion, family) pairs, each distinct family checked once: its
    mixture's support must equal X's and its cum be within MIXTURE_TOL of X's."""
    agents = list(agents)
    if not agents:
        raise ValidationError("at least one agent is required")
    for psi, family in agents:
        if not isinstance(psi, ScenarioDistortion) or not isinstance(family, ConditionalLawFamily):
            raise ValidationError("each agent must be a (ScenarioDistortion, family) pair")
    for family in {id(family): family for _, family in agents}.values():
        mixture = family.mixture()
        if not (np.array_equal(mixture.support, x_law.support)
                and np.max(np.abs(mixture.cum - x_law.cum)) <= MIXTURE_TOL):
            raise ValidationError("agent family does not reproduce the marginal law of X")
    return agents


def integrand_matrix(x_law: StepCDF, agents) -> np.ndarray:
    """psi_i evaluated on every support interval of X; shape (n_agents, m-1):
    each checked family's sweep of its own merged support, read at X's points
    where it holds more, which its mixture drops (under ``MIN_ATOM_MASS``)."""
    xs, rows = x_law.support, []
    for psi, family in _check_agents(agents, x_law):
        points = family._grid[0]
        row = _sweep(family, psi, points.size - 1)
        rows.append(row if points.size == xs.size else row[np.searchsorted(points, xs[:-1])])
    return np.vstack(rows)


def inf_convolution(x_law: StepCDF, agents) -> tuple[float, PiecewiseLinearAllocation]:
    """Minimal aggregate risk over comonotone allocations, with an optimizer.

    Every agent family must be a conditional decomposition of the same
    ``x_law`` (its mixture on X's support, within 1e-10).  Returns the
    optimal value and the equal-tie-split optimal allocation.
    """
    xs = x_law.support
    vals = integrand_matrix(x_law, agents)
    mins = vals.min(axis=0)
    value = float(xs[0] + mins @ np.diff(xs))
    is_min = vals <= mins[None, :] + TIE_TOL
    slopes = is_min / is_min.sum(axis=0)[None, :]
    return value, PiecewiseLinearAllocation(xs, slopes)


def transform_family(family: ConditionalLawFamily, allocation: PiecewiseLinearAllocation,
                     agent: int) -> ConditionalLawFamily:
    """Conditional laws of h_agent(X): ``StepCDF.from_values(h(law.support),
    law.masses)`` for each law, bit for bit, with the whole support mapped once.
    Where the family's merged support is the breakpoints, h at each atom is
    the agent's row at the atom's stored index, plus the 0.0 that ``h``
    adds there for its terms outside the support (it reads -0.0 as 0.0)."""
    masses, offsets = family._masses(), family.offsets
    points, at = family._grid
    h = (allocation._row(agent)[at] + 0.0 if np.array_equal(points, allocation.breakpoints)
         else allocation.h(agent, family.support))
    support, cum, law_offsets, grid = _segment_laws(h, masses, offsets,
                                                    _segment_sums(masses, offsets))
    return ConditionalLawFamily._from_flat(family.pis, support, cum, law_offsets,
                                           family._labels, grid)


def allocation_value_check(allocation: PiecewiseLinearAllocation, agents,
                           x_law: StepCDF) -> float:
    """Aggregate risk of an explicit allocation, recomputed from scratch.

    Each agent's term is the Choquet evaluation of its distortion on the
    conditional laws of h_i(X), of agents checked as in :func:`inf_convolution`;
    this is the feasibility side of the sharing problem and never goes below
    the inf-convolution value.
    """
    if not np.array_equal(allocation.breakpoints, x_law.support):
        raise ValidationError("allocation breakpoints must equal the support of X")
    agents = _check_agents(agents, x_law)
    if allocation.n_agents != len(agents):
        raise ValidationError("allocation and agent list are misaligned")
    total = 0.0
    for i, (psi, family) in enumerate(agents):
        total += choquet_factor(transform_family(family, allocation, i), psi)
    return float(total)
