"""Quantile factor risk measures and the CoVaR / CoES family.

A quantile factor risk measure is the first point x at which the vector of
scenario-conditional CDF values enters an upward-closed acceptance region:

    rho(X, W) = inf { x : (F_1(x), ..., F_n(x)) in D }.

For step CDFs the CDF profile only changes at merged support points and is
componentwise nondecreasing, so the infimum is attained at a support
breakpoint and the scan is exact.  The acceptance region generalizes the
classical left quantile (one scenario, D = [p, 1]) and covers VaR-of-VaR,
worst-scenario VaR, and the CoVaR family through conditioning events.

Built-in predicates accept when a weighted count of scenarios with
F_i(x) >= p reaches a level.  Every predicate, built-in or from
:func:`pred_custom`, is read on exact CDF rows only (``core._sweep``): the
rows at block anchors and the last row bracket the first accepted row,
and a bisection in that block finds it, equal to the dense scan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import scalar
from .conditioning import VarBox, broadcast_levels, event_law, tail_box
from .core import (ConditionalLawFamily, JointSample, Resolved, ScenarioFunctional, _count,
                   _level, _rng, _spot_check, _sweep)
from .errors import EmptyEventError, NullQuantileEventError, ValidationError


@dataclass(frozen=True, eq=False)
class IncreasingSetPredicate(ScenarioFunctional):
    """Upward-closed acceptance test on scenario CDF profiles.

    ``apply`` is batched: ``U`` is an (m, n) matrix of CDF profiles and the
    result is a boolean vector.  Upward closure (u <= u' and accept(u)
    implies accept(u')) makes the support scan well defined; custom
    predicates are spot-checked for it at construction.
    """

    survival = False
    result_type = bool


def _at_least(s, cut):
    return s >= cut


def _counting(p, weights, cut):
    """resolve: accept once sum_i weights_i [F_i >= p] >= cut."""
    def resolve(pi, labels):
        w = weights(pi, labels)
        return Resolved(w, np.full(pi.size, p), cut(pi))
    return IncreasingSetPredicate(_at_least, resolve, _at_least)


def pred_var_of_var(p: float, q: float) -> IncreasingSetPredicate:
    """Accept once scenarios of total weight >= q have F_i(x) >= p.

    The induced measure is VaR_q(VaR_p(X | W)).
    """
    p, q = _level(p, "level p", "(0, 1)"), _level(q, "level q", "(0, 1]")
    # the float sum of all weights may land under q = 1; every scenario
    # still makes total weight, so the all-ones profile is accepted
    return _counting(p, lambda pi, labels: pi, lambda pi: min(q, pi.sum()))


def pred_esssup_var(p: float) -> IncreasingSetPredicate:
    """Accept once every scenario has F_i(x) >= p: esssup VaR_p(X | W)."""
    p = _level(p, "level p", "(0, 1)")
    return _counting(p, lambda pi, labels: np.ones(pi.size), lambda pi: float(pi.size))


def pred_single_scenario(scenario, p: float) -> IncreasingSetPredicate:
    """Accept on one scenario's CDF alone: VaR_p(X | scenario)."""
    p = _level(p, "level p", "(0, 1]")

    def weights(pi, labels):
        w = np.zeros(pi.size)
        w[_scenario_index(scenario, labels, pi.size)] = 1.0
        return w
    return _counting(p, weights, lambda pi: 1.0)


def _scenario_index(scenario, labels, n: int) -> int:
    if isinstance(scenario, (int, np.integer)):
        idx = int(scenario)
        if not 0 <= idx < n:
            raise ValidationError(f"scenario index {idx} out of range")
        return idx
    if labels is None:
        raise ValidationError("label-addressed predicate needs scenario labels")
    if scenario in labels:
        return labels.index(scenario)
    raise ValidationError(f"scenario label {scenario!r} not found")


def pred_custom(func: Callable, n_scenarios: int, *, vectorized: bool = False,
                check_pairs: int = 1000, seed: int = 0) -> IncreasingSetPredicate:
    """Wrap a user predicate, spot-checking upward closure and the poles.

    ``func`` sees exact CDF rows (one at a time, or a C-contiguous matrix
    when vectorized, which must return one value per row): the block
    anchors and the last row, then at most ceil(log2 block) + 1 single rows
    (``core._sweep``).  The spot check (``core._spot_check``) hands it the
    poles, then ``check_pairs`` random ordered pairs in chunks of the
    engine's size (``core._chunk_rows``): each chunk's lower profiles, then
    its upper ones.  Each matrix is a copy, which ``func`` may write into.
    A predicate that passes the spot check but is not upward closed gets a
    row it accepts whose row below it rejects (or row 0).
    """
    pred = IncreasingSetPredicate(func=func, vectorized=vectorized)
    n, check_pairs = _count(n_scenarios, "n_scenarios", 1), _count(check_pairs, "check_pairs", 1)
    _spot_check(pred, (np.full(n, 1.0 / n),), check_pairs, _rng(seed),
                ("predicate must reject the all-zeros profile",
                 "predicate must accept the all-ones profile",
                 "predicate failed the upward-closure spot check"))
    return pred


def quantile_factor(family: ConditionalLawFamily, pred: IncreasingSetPredicate) -> float:
    """Smallest merged-support point whose CDF profile is accepted.

    Acceptance at the largest support point is guaranteed (all CDFs are 1
    there and the predicate accepts the all-ones profile).  Found by
    bisection of exact rows; see :func:`pred_custom` for its contract.
    """
    xs = family._grid[0]
    hits = np.flatnonzero(_sweep(family, pred, xs.size))
    if hits.size == 0:
        raise ValidationError("predicate rejected the all-ones profile")
    return float(xs[hits[0]])


def _event_cdf(sample: JointSample, alpha, mode: str, box: VarBox | None):
    """Law of X on the mode's event; ``equal`` is the degenerate box [alpha, alpha]."""
    if mode == "box":
        if box is None:
            raise ValidationError("box mode requires a VarBox")
    elif mode == "tail":
        box = tail_box(alpha, sample.n_factors)
    elif mode == "equal":
        alpha = broadcast_levels(alpha, sample.n_factors)
        box = VarBox(alpha, alpha)
    else:
        raise ValidationError(f"unknown conditioning mode {mode!r}")
    try:
        return event_law(sample, box)
    except EmptyEventError:
        if mode != "equal":
            raise
        raise NullQuantileEventError(
            "the factor quantile point carries no joint mass; "
            "equality conditioning needs a discrete factor"
        ) from None


def covar(sample: JointSample, alpha, beta_level: float, mode: str = "tail",
          box: VarBox | None = None) -> float:
    """CoVaR: left quantile of X at ``beta_level`` on a factor distress event.

    ``mode='tail'`` conditions on W >= VaR_alpha(W), ``mode='box'`` on a
    VarBox event, and ``mode='equal'`` on W == VaR_alpha(W) (discrete
    factors only).
    """
    return scalar.var(_event_cdf(sample, alpha, mode, box), beta_level)


def coes(sample: JointSample, alpha, beta_level: float, mode: str = "tail",
         box: VarBox | None = None) -> float:
    """CoES: expected shortfall of X at ``beta_level`` on a distress event."""
    return scalar.es(_event_cdf(sample, alpha, mode, box), beta_level)
