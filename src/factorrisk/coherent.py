"""Coherent factor risk measures via conditional quantile coupling.

The central primitive is the conditional rearrangement bound

    sup / inf over Z with (Z, W) distributed as (X, W) of E[Z Y]
        = sum_i pi_i * integral of q_{X,i}(t or 1-t) * q_{Y,i}(t) dt,

an exact computation for discrete laws: the integrated quantile
G(c) = integral of q_X on (0, c) is piecewise linear, so each integral is a
sum over Y's atoms of y times G's increment between Y's cumulative levels,
computed for all scenarios at once on the flat arrays.  A finite
family of scenario-conditional densities then represents a coherent factor
risk measure as the largest coupling bound over the family, and the
ES-of-conditional-ES compositions give simple coherent closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalar
from .core import (ConditionalLawFamily, StepCDF, _level, _previous,
                   _segment_cumsums, _segment_dots, _segment_es)
from .errors import ValidationError

PARTITION_TOL = 1e-12
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class DensityFamily:
    """Finite set of candidate scenario-conditional density laws.

    Each member assigns to every scenario a step law of nonnegative density
    values; weighted by the scenario probabilities, each member must have
    total mean 1 (the normalization of a probability density against the
    physical measure).
    """

    members: tuple[ConditionalLawFamily, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("density family must contain at least one member")
        for member in members:
            if member.support.min() < 0:
                raise ValidationError("density values must be nonnegative")
            total = float(member.pis @ member.scenario_means())
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise ValidationError(
                    f"density member has mean {total!r}; must be 1 within {NORMALIZATION_TOL}"
                )
        object.__setattr__(self, "members", members)


def hl_bound(family_x: ConditionalLawFamily, family_y: ConditionalLawFamily,
             direction: str = "sup") -> float:
    """Conditional rearrangement bound on E[Z Y] over all Z coupled as X.

    ``direction='sup'`` pairs the conditional quantiles comonotonically,
    ``direction='inf'`` antitonically, as -1 times the sup bound of -X
    (per scenario X's atoms reversed and negated, at levels 1 - the cum
    before each).  The two families must live on the same scenario
    partition.  Each scenario's integral is sum_l y_l (G(c_l) - G(c_(l-1)))
    over Y's atoms and levels (the last counted as 1), where G(c) = C_k -
    x_k (c^X_k - c) at X's first level c^X_k >= c and C is the cumsum of
    x * mass: one search of the (scenario, level) keys, as complex numbers,
    finds every k.
    """
    if direction not in ("sup", "inf"):
        raise ValidationError("direction must be 'sup' or 'inf'")
    if family_x.n_scenarios != family_y.n_scenarios:
        raise ValidationError("families must share the scenario partition")
    if np.max(np.abs(family_x.pis - family_y.pis)) > PARTITION_TOL:
        raise ValidationError("families must share the scenario weights")
    x, levels, offsets = family_x.support, family_x.cum, family_x.offsets
    sizes, ends = np.diff(offsets), offsets[1:]
    if direction == "inf":
        reverse = np.repeat(offsets[:-1] + ends - 1, sizes) - np.arange(x.size)
        x, levels = -x[reverse], 1.0 - _previous(levels, offsets)[reverse]
    gain = _segment_cumsums(x * (levels - _previous(levels, offsets)), offsets)
    scenario = np.arange(family_x.n_scenarios)
    y_scenario = np.repeat(scenario, np.diff(family_y.offsets))
    c = np.minimum(family_y.cum, 1.0)
    c[family_y.offsets[1:] - 1] = 1.0
    # complex keys order and compare lexicographically, exactly
    k = np.searchsorted(np.repeat(scenario, sizes) + 1j * levels, y_scenario + 1j * c)
    k = np.minimum(k, ends[y_scenario] - 1)
    g = gain[k] - x[k] * (levels[k] - c)
    per_scenario = _segment_dots(family_y.support, g - _previous(g, family_y.offsets),
                                 family_y.offsets)
    total = np.cumsum(family_x.pis * per_scenario)[-1]  # as compose_es_mean sums them
    return float(0.0 + total if direction == "sup" else 0.0 - total)  # never -0.0


def coherent_sup(family_x: ConditionalLawFamily, density_family: DensityFamily) -> float:
    """Largest comonotone coupling bound over a finite density family."""
    if not isinstance(density_family, DensityFamily):
        density_family = DensityFamily(tuple(density_family))
    return max(hl_bound(family_x, member, "sup") for member in density_family.members)


def es_tail_density(family: ConditionalLawFamily, p: float) -> ConditionalLawFamily:
    """The density member whose coupling bound realizes E[ES_p(X | W)].

    Per scenario the density takes the value 1 / (1-p) with probability
    1-p (the conditional tail) and 0 otherwise.
    """
    p = _level(p, "ES level", "[0, 1)")
    support, cum = ([1.0], [1.0]) if p == 0 else ([0.0, 1.0 / (1.0 - p)], [p, 1.0])
    n = family.n_scenarios
    return ConditionalLawFamily._from_flat(family.pis, np.tile(support, n), np.tile(cum, n),
                                           np.arange(n + 1) * len(support), family._labels)


def es_composition(family: ConditionalLawFamily, p: float, outer: str = "esssup",
                   q: float | None = None) -> float:
    """Coherent composition: esssup or ES_q of the per-scenario ES_p values."""
    values = _segment_es(family.support, family.cum, family.offsets, np.full(family.n_scenarios, p))
    law = StepCDF.from_values(values, family.pis)
    if outer == "esssup":
        return scalar.esssup(law)
    if outer == "es":
        return scalar.es(law, _level(q, "outer ES level", "[0, 1)"))
    raise ValidationError("outer must be 'esssup' or 'es'")
