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

Each agent's integrand row comes from the same engine as
:func:`~factorrisk.distortion.choquet_factor` (``core._sweep``), evaluated
on the support of X: O(T log T) time and O(T) memory per built-in agent
(exact rows only for a 0/1 one), chunks of dense rows for a custom one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConditionalLawFamily, StepCDF, _label_source, _merged_grid, _segment_laws,
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
        xs = np.asarray(self.breakpoints, dtype=float)
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        if xs.ndim != 1 or xs.size == 0 or not np.all(np.diff(xs) > 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if slopes.shape[1] != max(xs.size - 1, 0) and not (xs.size == 1 and slopes.shape[1] == 0):
            raise ValidationError("slopes must have one column per support interval")
        if slopes.size and (np.any(slopes < -TIE_TOL) or np.any(slopes > 1 + TIE_TOL)):
            raise ValidationError("slopes must lie in [0, 1]")
        if slopes.size and np.any(np.abs(slopes.sum(axis=0) - 1.0) > 1e-9):
            raise ValidationError("slopes must sum to 1 on every interval")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "slopes", np.clip(slopes, 0.0, 1.0))

    @property
    def n_agents(self) -> int:
        return self.slopes.shape[0]

    def h_at_breakpoints(self) -> np.ndarray:
        """h_i(x_k) for every agent i and breakpoint x_k; shape (n, m)."""
        xs = self.breakpoints
        n = self.n_agents
        start = np.full(n, xs[0] / n)
        if xs.size == 1:
            return start[:, None]
        inner = self.slopes * np.diff(xs)[None, :]
        return np.concatenate([start[:, None], start[:, None] + np.cumsum(inner, axis=1)], axis=1)

    def h(self, agent: int, x) -> np.ndarray | float:
        """Evaluate h_agent pointwise (piecewise linear, 1/n outside)."""
        xs = self.breakpoints
        n = self.n_agents
        hk = self.h_at_breakpoints()[agent]
        x = np.asarray(x, dtype=float)
        below = xs[0] + np.minimum(x - xs[0], 0.0)
        above = np.maximum(x - xs[-1], 0.0)
        inside = np.clip(x, xs[0], xs[-1])
        out = np.interp(inside, xs, hk) + (below - xs[0]) / n + above / n
        return float(out) if out.ndim == 0 else out


def _check_agents(agents) -> list[tuple[ScenarioDistortion, ConditionalLawFamily]]:
    agents = list(agents)
    if not agents:
        raise ValidationError("at least one agent is required")
    out = []
    for psi, family in agents:
        if not isinstance(psi, ScenarioDistortion) or not isinstance(family, ConditionalLawFamily):
            raise ValidationError("each agent must be a (ScenarioDistortion, family) pair")
        out.append((psi, family))
    return out


def _check_mixture(x_law: StepCDF, family: ConditionalLawFamily):
    mixture = family.mixture()
    if np.array_equal(mixture.support, x_law.support):  # the union grid, where cdf is cum
        gap = np.abs(mixture.cum - x_law.cum)
    else:
        grid = np.union1d(x_law.support, mixture.support)
        gap = np.abs(mixture.cdf(grid) - x_law.cdf(grid))
    if np.max(gap) > MIXTURE_TOL:
        raise ValidationError("agent family does not reproduce the marginal law of X")


def integrand_matrix(x_law: StepCDF, agents) -> np.ndarray:
    """psi_i evaluated on every support interval; shape (n_agents, m-1).

    Where ``x_law``'s support is the family's merged support, each atom's
    grid index is the family's stored one; elsewhere the sweep searches it."""
    xs = x_law.support
    if xs.size == 1:
        return np.zeros((len(agents), 0))
    rows = []
    for psi, family in agents:
        points, at = _merged_grid(family)
        rows.append(_sweep(family, psi, xs[:-1], at if np.array_equal(points, xs) else None))
    return np.vstack(rows)


def inf_convolution(x_law: StepCDF, agents) -> tuple[float, PiecewiseLinearAllocation]:
    """Minimal aggregate risk over comonotone allocations, with an optimizer.

    Every agent family must be a conditional decomposition of the same
    ``x_law`` (mixture identity within 1e-10).  Returns the optimal value
    and the equal-tie-split optimal allocation.
    """
    agents = _check_agents(agents)
    for family in {id(family): family for _, family in agents}.values():
        _check_mixture(x_law, family)
    xs = x_law.support
    vals = integrand_matrix(x_law, agents)
    if xs.size == 1:
        slopes = np.zeros((len(agents), 0))
        return float(xs[0]), PiecewiseLinearAllocation(xs, slopes)
    mins = vals.min(axis=0)
    value = float(xs[0] + mins @ np.diff(xs))
    is_min = vals <= mins[None, :] + TIE_TOL
    slopes = is_min / is_min.sum(axis=0)[None, :]
    return value, PiecewiseLinearAllocation(xs, slopes)


def transform_family(family: ConditionalLawFamily, allocation: PiecewiseLinearAllocation,
                     agent: int) -> ConditionalLawFamily:
    """Conditional laws of h_agent(X): ``StepCDF.from_values(h(law.support),
    law.masses)`` for each law, bit for bit, with the whole support mapped once."""
    masses, offsets = family._masses(), family.offsets
    masses /= np.repeat(_segment_sums(masses, offsets), np.diff(offsets))
    support, cum, law_offsets, grid = _segment_laws(allocation.h(agent, family.support), masses,
                                                    offsets)
    return ConditionalLawFamily._from_flat(family.pis.copy(), support, cum, law_offsets,
                                           _label_source(family), grid)


def allocation_value_check(allocation: PiecewiseLinearAllocation, agents,
                           x_law: StepCDF) -> float:
    """Aggregate risk of an explicit allocation, recomputed from scratch.

    Each agent's term is the Choquet evaluation of its distortion on the
    conditional laws of h_i(X); this is the feasibility side of the sharing
    problem and never goes below the inf-convolution value.
    """
    agents = _check_agents(agents)
    if allocation.n_agents != len(agents):
        raise ValidationError("allocation and agent list are misaligned")
    if not np.array_equal(allocation.breakpoints, x_law.support):
        raise ValidationError("allocation breakpoints must equal the support of X")
    total = 0.0
    for i, (psi, family) in enumerate(agents):
        total += choquet_factor(transform_family(family, allocation, i), psi)
    return float(total)
