"""Scenario-distortion risk measures (the generalized Choquet engine).

A scenario distortion ``psi`` maps a vector of per-scenario survival
probabilities to [0, 1], monotonically, with psi(0)=0 and psi(1)=1.  For a
conditional law family with merged support x_(1) < ... < x_(m), the factor
risk measure is the exact finite sum

    rho(X, W) = x_(1) + sum_{k<m} psi(s_k, pi) * (x_(k+1) - x_(k)),

where s_k collects the scenario survivals 1 - F_i(x_(k)).  The survival
profile is piecewise constant between support points, so the sum equals
the Choquet integral with no quadrature error.

Every built-in distortion has the form outer(sum_i w_i f_i(s_i)).  The
engine (``core._sweep``) evaluates it at all m breakpoints in O(T log T)
time and O(T) memory for T atoms: each atom changes one scenario's term
once, and a cumulative sum, restarted from an exact row every block,
carries the profile; a 0/1 one (a jump at ``Resolved.cut``) is bisected on
exact rows.  A user callable from :func:`psi_custom` is evaluated on dense
survival rows instead, a bounded chunk of breakpoints at a time.

Built-in distortions cover the distorted/averaged conditional VaR and ES
families; composition helpers evaluate the same measures through their
per-scenario closed forms, giving an independent route used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import scalar
from .conditioning import LevelMap, event_law
from .core import (ConditionalLawFamily, JointSample, Resolved, ScenarioFunctional, StepCDF,
                   _lazy_labels, _merged_grid, _scenario_var, _segment_es, _sweep)
from .errors import ValidationError

CONDITION_A_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ScenarioDistortion(ScenarioFunctional):
    """Monotone functional on per-scenario survival vectors.

    ``apply`` evaluates the functional on a batch: ``V`` is an (m, n)
    matrix of survival vectors, ``pi`` the scenario weights, and the result
    has length m.  Built-ins are ``outer(sum_i w_i term(v_i, a_i))`` (see
    :class:`~factorrisk.core.ScenarioFunctional`); a custom ``func`` must
    be reentrant, as the engine may call it on chunks of breakpoints.
    """

    def __call__(self, v, pi, labels=None) -> float:
        return float(self.apply(np.atleast_2d(v), pi, labels)[0])


def _survival(v, a):
    return v


def _exceeds(v, t):
    """One scenario's VaR term: the survival exceeds the tail mass t."""
    return v > t


def _capped(v, t):
    """One scenario's ES term at tail mass t: min(v, t) / t."""
    return np.minimum(v, t) / t


def _pi_weighted(tails=None, cut=None):
    """resolve: weights pi, per-scenario tail masses ``tails(n, labels)``."""
    def resolve(pi, labels):
        return Resolved(pi, np.zeros(pi.size) if tails is None else tails(pi.size, labels), cut)
    return resolve


def _var_levels(levels: LevelMap, n: int, labels) -> np.ndarray:
    g = levels.resolve(n, labels)
    if np.any(g <= 0) or np.any(g > 1):
        raise ValidationError("VaR scenario levels must lie in (0, 1]")
    return g


def _es_levels(levels: LevelMap, n: int, labels) -> np.ndarray:
    g = levels.resolve(n, labels)
    if np.any(g >= 1) or np.any(g < 0):
        raise ValidationError("ES scenario levels must lie in [0, 1)")
    return g


def _tails(levels, check):
    levels = LevelMap.of(levels)
    return lambda n, labels: 1.0 - check(levels, n, labels)


def psi_mean() -> ScenarioDistortion:
    """psi(v) = sum_i pi_i v_i; the conditional-expectation mixture."""
    return ScenarioDistortion(_survival, _pi_weighted())


def psi_lambda_of_var(lam: scalar.DistortionFunction, levels) -> ScenarioDistortion:
    """Distorted conditional VaR: rho = rho_Lambda(VaR_{g(W)}(X | W))."""
    cut = 1.0 - lam.level if lam.kind == "var_level" else None
    return ScenarioDistortion(_exceeds, _pi_weighted(_tails(levels, _var_levels), cut),
                              lambda s, cut: lam(s))


def psi_mean_of_var(levels) -> ScenarioDistortion:
    """Average conditional VaR: rho = E[VaR_{g(W)}(X | W)]."""
    return ScenarioDistortion(_exceeds, _pi_weighted(_tails(levels, _var_levels)))


def psi_mean_of_es(levels) -> ScenarioDistortion:
    """Average conditional ES: rho = E[ES_{g(W)}(X | W)]."""
    return ScenarioDistortion(_capped, _pi_weighted(_tails(levels, _es_levels)))


def psi_es_on_box(p: float, subset: Sequence[int]) -> ScenarioDistortion:
    """Conditional ES on a scenario subevent: rho = ES_p(X | W in B)."""
    if not 0 <= p < 1:
        raise ValidationError("ES level must lie in [0, 1)")
    idx = np.unique(np.asarray(tuple(int(i) for i in subset), dtype=np.int64))

    def resolve(pi, labels):
        if idx.size == 0 or idx[0] < 0 or idx[-1] >= pi.size:
            raise ValidationError("scenario subset out of range")
        w = np.zeros(pi.size)
        w[idx] = pi[idx] / pi[idx].sum()
        return Resolved(w, np.full(pi.size, 1.0 - p))
    return ScenarioDistortion(_capped, resolve)


def psi_indicator_var_var(p: float, q: float) -> ScenarioDistortion:
    """The 0/1 distortion whose Choquet integral is VaR_q(VaR_p(X | W))."""
    if not 0 < p < 1 or not 0 < q <= 1:
        raise ValidationError("indicator levels need p in (0,1) and q in (0,1]")
    tails = _pi_weighted(lambda n, labels: np.full(n, 1.0 - p), 1.0 - q)
    return ScenarioDistortion(_exceeds, tails, lambda s, cut: np.where(s > cut, 1.0, 0.0))


def psi_custom(func: Callable, n_scenarios: int, *, vectorized: bool = False,
               check_pairs: int = 1000, seed: int = 0) -> ScenarioDistortion:
    """Wrap a user functional, spot-checking monotonicity and normalization.

    Monotonicity is sampled on ``check_pairs`` random ordered pairs; a pass
    is evidence, not proof.  The profile ``func`` receives (one row,
    or a matrix of rows when vectorized) is valid only during the call: the
    next rows are built in the same buffer, so keep a copy of any part of
    it that must outlive the call (a returned view is copied out in time).
    """
    psi = ScenarioDistortion(func=func, vectorized=vectorized)
    rng = np.random.default_rng(seed)
    n = int(n_scenarios)
    for pi in (np.full(n, 1.0 / n), _random_simplex(rng, n)):
        lo = psi(np.zeros(n), pi)
        hi = psi(np.ones(n), pi)
        if abs(lo) > 1e-12 or abs(hi - 1.0) > 1e-12:
            raise ValidationError("custom distortion must map 0 -> 0 and 1 -> 1")
        # the upper profiles are made in the lower ones' buffer once those
        # are evaluated, so the callable's temporaries never meet two matrices
        a = rng.random((check_pairs, n))
        va = psi.apply(a, pi).copy()  # the callable may return a view of its rows
        a += rng.random((check_pairs, n))
        vb = psi.apply(np.minimum(a, 1.0, out=a), pi)
        if np.any(vb < va - 1e-12):
            raise ValidationError("custom distortion failed the monotonicity spot check")
    return psi


def _random_simplex(rng, n: int) -> np.ndarray:
    w = rng.random(n) + 1e-3
    return w / w.sum()


def choquet_factor(family: ConditionalLawFamily, psi: ScenarioDistortion) -> float:
    """Evaluate the scenario-Choquet risk measure on a conditional family.

    Exact for discrete laws: survivals are evaluated at the merged support
    breakpoints only, where the integrand is piecewise constant.
    """
    xs, at = _merged_grid(family)
    if xs.size == 1:
        return float(xs[0])
    vals = _sweep(family, psi, xs[:-1], at)
    return float(xs[0] + vals @ np.diff(xs))


def compose_var_distortion(family: ConditionalLawFamily, levels,
                           lam: scalar.DistortionFunction) -> float:
    """rho_Lambda of the discrete law of per-scenario VaR_{g_i}(X | i).

    Closed-form route for the ``lambda_of_var`` distortion; agrees with
    :func:`choquet_factor` on discrete families except at exact probability
    ties, where a float cumsum landing ulps under a level takes the next atom.
    """
    g = _var_levels(LevelMap.of(levels), family.n_scenarios, _lazy_labels(family))
    return scalar.distortion_rho(StepCDF.from_values(_scenario_var(family, g), family.pis), lam)


def compose_es_mean(family: ConditionalLawFamily, levels) -> float:
    """E[ES_{g(W)}(X | W)] via per-scenario expected shortfalls."""
    g = _es_levels(LevelMap.of(levels), family.n_scenarios, _lazy_labels(family))
    es = _segment_es(family.support, family.cum, family.offsets, g)
    return float(np.cumsum(family.pis * es)[-1])  # the bits of Python's sum, in order


def es_on_event(sample: JointSample, event, p: float) -> float:
    """ES_p of the loss conditionally on W falling in the event.

    ``event`` is a VarBox or a collection of exact factor values (the
    discrete-scenario flavor).  Empty events are rejected.
    """
    return scalar.es(event_law(sample, event), p)


class ConditionAWitness(NamedTuple):
    """A quadruple violating the coherence inequality, with the deficit."""

    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    deficit: float


def condition_a_check(psi: ScenarioDistortion, pi, trials: int = 10_000,
                      seed: int = 0) -> ConditionAWitness | None:
    """Randomized falsifier for the coherence condition on ``psi``.

    Samples quadruples g1 <= f1, f2 <= g2 with f1 + f2 = g1 + g2 and tests
    psi(f1) + psi(f2) >= psi(g1) + psi(g2) - 1e-12.  Returns the first
    violating witness, or None if all trials pass.  A pass is evidence of
    coherence, never a certificate: the inequality quantifies over an
    infinite function class.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    pi = np.asarray(pi, dtype=float)
    rng = np.random.default_rng(seed)
    n = pi.size
    chunk = 2048
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        u1 = rng.random((m, n))
        u2 = rng.random((m, n))
        g1 = np.minimum(u1, u2)
        g2 = np.maximum(u1, u2)
        t = rng.random((m, n))
        f1 = g1 + t * (g2 - g1)
        f2 = g2 - t * (g2 - g1)
        lhs = psi.apply(f1, pi) + psi.apply(f2, pi)
        rhs = psi.apply(g1, pi) + psi.apply(g2, pi)
        bad = np.flatnonzero(lhs < rhs - CONDITION_A_SLACK)
        if bad.size:
            i = int(bad[0])
            return ConditionAWitness(f1[i], f2[i], g1[i], g2[i], float(rhs[i] - lhs[i]))
        done += m
    return None
