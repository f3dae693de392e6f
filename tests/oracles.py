"""Slow, structurally independent reference implementations.

These exist for the test suite: a Riemann sum where the engine uses an
exact breakpoint sum, factorial enumeration where the coupling bound uses
sorted pairing, and a random feasibility sweep where the sharing solver
uses the pointwise-minimum closed form.  They call nothing from the main
code paths beyond public constructors and the evaluator objects that are
themselves the inputs under test.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from factorrisk import ConditionalLawFamily, StepCDF, ValidationError

DEFAULT_GRID_POINTS = 10**5


def cdf_matrix(family: ConditionalLawFamily, xs) -> np.ndarray:
    """F_i(x) for every scenario i and point x, one law at a time; shape
    (len(xs), n): the dense reference for the profile rows of the engines."""
    xs = np.asarray(xs, dtype=float)
    return np.column_stack([law.cdf(xs) for law in family.laws])


def dense_choquet(family: ConditionalLawFamily, psi) -> float:
    """The Choquet sum of ``psi`` on the dense survival rows of the merged support."""
    xs = family.merged_support()
    if xs.size == 1:
        return float(xs[0])
    vals = psi.apply(1 - cdf_matrix(family, xs[:-1]), family.pis, family.labels)
    return float(xs[0] + vals @ np.diff(xs))


def dense_quantile(family: ConditionalLawFamily, pred) -> float:
    """The first merged-support point whose dense CDF row ``pred`` accepts."""
    xs = family.merged_support()
    accepted = pred.apply(cdf_matrix(family, xs), family.pis, family.labels)
    return float(xs[np.flatnonzero(accepted)[0]])


def choquet_riemann_oracle(family: ConditionalLawFamily, psi, step: float | None = None) -> float:
    """Left Riemann sum of the scenario-Choquet integral on a fine grid.

    Integrates psi over [0, inf) and (psi - 1) over (-inf, 0); the grid
    spans the support hull, outside which the integrand vanishes.
    Converges to the engine value as step -> 0.
    """
    xs = family.merged_support()
    lo, hi = float(xs[0]), float(xs[-1])
    if hi == lo:
        return lo
    if step is None:
        step = (hi - lo) / DEFAULT_GRID_POINTS
    if step <= 0:
        raise ValidationError("step must be positive")
    a, b = min(0.0, lo), max(0.0, hi)
    grid = np.arange(a, b, step)
    surv = 1.0 - cdf_matrix(family, grid)
    vals = psi.apply(surv, family.pis, family.labels)
    integrand = np.where(grid >= 0.0, vals, vals - 1.0)
    return float(integrand.sum() * step)


def oracle_tolerance(family: ConditionalLawFamily, step: float | None = None) -> float:
    """Test tolerance 10 * step * range for the Riemann oracle."""
    xs = family.merged_support()
    span = float(xs[-1] - xs[0])
    if span == 0:
        return 1e-12
    if step is None:
        step = span / DEFAULT_GRID_POINTS
    return 10.0 * step * span


def hl_bruteforce_oracle(x_grids, y_grids, pis) -> tuple[float, float]:
    """Exact sup/inf of E[X Y'] over within-scenario pairings of atom grids.

    Each scenario supplies equal-probability atom lists for X and Y of a
    common size at most 6; every permutation of the Y atoms is enumerated.
    The objective decomposes across scenarios, so each scenario is
    maximized independently.
    """
    pis = np.asarray(pis, dtype=float)
    if len(x_grids) != pis.size or len(y_grids) != pis.size:
        raise ValidationError("atom grids must align with scenario weights")
    sup = 0.0
    inf = 0.0
    for pi, xg, yg in zip(pis, x_grids, y_grids):
        xg = np.asarray(xg, dtype=float)
        yg = np.asarray(yg, dtype=float)
        if xg.size != yg.size:
            raise ValidationError("X and Y atom grids must have equal size per scenario")
        if xg.size > 6:
            raise ValidationError("factorial enumeration is limited to 6 atoms per scenario")
        prods = [float(xg @ np.array(perm)) / xg.size for perm in permutations(yg)]
        sup += pi * max(prods)
        inf += pi * min(prods)
    return sup, inf


def grids_to_family(grids, pis, labels=None) -> ConditionalLawFamily:
    """Equal-probability atom grids as a conditional law family."""
    laws = tuple(StepCDF.from_values(np.asarray(g, dtype=float)) for g in grids)
    return ConditionalLawFamily(np.asarray(pis, dtype=float), laws, labels)


def _profile_value(x_law: StepCDF, agents, slopes: np.ndarray) -> float:
    """Aggregate risk of a slope profile, summed directly interval by interval."""
    xs = x_law.support
    n = len(agents)
    total = n * (xs[0] / n)
    if xs.size == 1:
        return float(total)
    deltas = np.diff(xs)
    for i, (psi, family) in enumerate(agents):
        surv = 1.0 - cdf_matrix(family, xs[:-1])
        vals = psi.apply(surv, family.pis, family.labels)
        total += float(vals @ (slopes[i] * deltas))
    return float(total)


def sharing_sweep_oracle(x_law: StepCDF, agents, trials: int = 200,
                         seed: int = 0) -> float:
    """Best aggregate risk found over random feasible comonotone profiles.

    Trial 0 always injects the argmin-indicator profile (equal tie split),
    so the sweep returns the optimal value whenever that profile is
    optimal; the remaining trials draw random slope columns from a
    Dirichlet distribution.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    agents = list(agents)
    xs = x_law.support
    n = len(agents)
    m = xs.size - 1
    vals = np.vstack([
        psi.apply(1.0 - cdf_matrix(family, xs[:-1]), family.pis, family.labels)
        if m else np.zeros(0)
        for psi, family in agents
    ])
    mins = vals.min(axis=0) if m else np.zeros(0)
    is_min = vals <= mins[None, :] + 1e-12
    best_profile = is_min / is_min.sum(axis=0)[None, :] if m else np.zeros((n, 0))
    best = _profile_value(x_law, agents, best_profile)
    rng = np.random.default_rng(seed)
    for _ in range(trials - 1):
        profile = rng.dirichlet(np.ones(n), size=m).T if m else np.zeros((n, 0))
        best = min(best, _profile_value(x_law, agents, profile))
    return best
