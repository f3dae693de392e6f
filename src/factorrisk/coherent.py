"""Coherent factor risk measures via conditional quantile coupling.

The central primitive is the conditional rearrangement bound

    sup / inf over Z with (Z, W) distributed as (X, W) of E[Z Y]
        = sum_i pi_i * integral of q_{X,i}(t or 1-t) * q_{Y,i}(t) dt,

an exact computation for discrete laws obtained by merging the cumulative
breakpoints of the two conditional quantile step functions.  A finite
family of scenario-conditional densities then represents a coherent factor
risk measure as the largest coupling bound over the family, and the
ES-of-conditional-ES compositions give simple coherent closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalar
from .core import ConditionalLawFamily, StepCDF, _segment_es
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


def _same_partition(a: ConditionalLawFamily, b: ConditionalLawFamily):
    if a.n_scenarios != b.n_scenarios:
        raise ValidationError("families must share the scenario partition")
    if np.max(np.abs(a.pis - b.pis)) > PARTITION_TOL:
        raise ValidationError("families must share the scenario weights")


def _quantile_product(law_x: StepCDF, law_y: StepCDF, reverse_x: bool) -> float:
    """Exact integral of q_X(t) * q_Y(t) dt on (0,1), optionally q_X(1-t).

    Both quantile functions are step functions of t; merging their
    cumulative breakpoints makes the product piecewise constant, so the
    integral is a finite sum with no quadrature error.
    """
    cx = law_x.cum
    breaks_x = 1.0 - cx[::-1] if reverse_x else cx
    grid = np.unique(np.concatenate([[0.0], breaks_x, law_y.cum, [1.0]]))
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    mids = 0.5 * (grid[:-1] + grid[1:])
    tx = 1.0 - mids if reverse_x else mids
    ix = np.minimum(np.searchsorted(cx, tx, side="left"), cx.size - 1)
    iy = np.minimum(np.searchsorted(law_y.cum, mids, side="left"), law_y.cum.size - 1)
    vals = law_x.support[ix] * law_y.support[iy]
    return float(vals @ np.diff(grid))


def hl_bound(family_x: ConditionalLawFamily, family_y: ConditionalLawFamily,
             direction: str = "sup") -> float:
    """Conditional rearrangement bound on E[Z Y] over all Z coupled as X.

    ``direction='sup'`` pairs the conditional quantiles comonotonically,
    ``direction='inf'`` antitonically.  The two families must live on the
    same scenario partition.  It loops over the laws: one flat merge of
    every scenario's breakpoints gave the same bits, 8x faster at 16k boxes
    but 2.8x slower at 4,096 boxes of 244 atoms (2-core x86-64, numpy 2.4).
    """
    if direction not in ("sup", "inf"):
        raise ValidationError("direction must be 'sup' or 'inf'")
    _same_partition(family_x, family_y)
    reverse_x = direction == "inf"
    return float(sum(
        pi * _quantile_product(law_x, law_y, reverse_x)
        for pi, law_x, law_y in zip(family_x.pis, family_x.laws, family_y.laws)
    ))


def coherent_sup(family_x: ConditionalLawFamily, density_family: DensityFamily) -> float:
    """Largest comonotone coupling bound over a finite density family."""
    if not isinstance(density_family, DensityFamily):
        density_family = DensityFamily(tuple(density_family))
    for member in density_family.members:
        _same_partition(family_x, member)
    return max(hl_bound(family_x, member, "sup") for member in density_family.members)


def es_tail_density(family: ConditionalLawFamily, p: float) -> ConditionalLawFamily:
    """The density member whose coupling bound realizes E[ES_p(X | W)].

    Per scenario the density takes the value 1 / (1-p) with probability
    1-p (the conditional tail) and 0 otherwise.
    """
    if not 0 <= p < 1:
        raise ValidationError("ES level must lie in [0, 1)")
    if p == 0:
        law = StepCDF(np.array([1.0]), np.array([1.0]))
    else:
        law = StepCDF(np.array([0.0, 1.0 / (1.0 - p)]), np.array([p, 1.0]))
    return ConditionalLawFamily(family.pis, (law,) * family.n_scenarios, family.labels)


def es_composition(family: ConditionalLawFamily, p: float, outer: str = "esssup",
                   q: float | None = None) -> float:
    """Coherent composition: esssup or ES_q of the per-scenario ES_p values."""
    values = _segment_es(family.support, family.cum, family.offsets, np.full(family.n_scenarios, p))
    law = StepCDF.from_values(values, family.pis)
    if outer == "esssup":
        return scalar.esssup(law)
    if outer == "es":
        if q is None:
            raise ValidationError("outer ES level must lie in [0, 1)")
        return scalar.es(law, q)
    raise ValidationError("outer must be 'esssup' or 'es'")
