"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Every tolerance is pinned here; expected constants for the 8-atom
reference fixture are recomputed by independent enumeration before the
main code paths are checked against them.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

import factorrisk as fr
from oracles import (
    choquet_riemann_oracle,
    grids_to_family,
    hl_bruteforce_oracle,
    oracle_tolerance,
    sharing_sweep_oracle,
)
from conftest import (
    D1_ATOMS,
    family_of,
    random_discrete_dist,
    random_joint_pair,
    random_sharing_fixture,
    scenario_laws,
    transform_family,
)

SEED = 20260808


def criterion(number: int, description: str, budget_seconds: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            elapsed = time.time() - start
            print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
            )
        return wrapper
    return decorate


# ----------------------------------------------------------------------
# independent enumeration helpers (plain Python, no engine calls)
# ----------------------------------------------------------------------

def enum_pairs(atoms, select=None):
    """(value, mass) pairs of X over the selected atoms, renormalized."""
    chosen = [(x, p) for x, w, p in atoms if select is None or select(w)]
    total = sum(p for _, p in chosen)
    merged: dict[float, float] = {}
    for x, p in chosen:
        merged[x] = merged.get(x, 0.0) + p / total
    return sorted(merged.items())


def enum_var(pairs, level):
    acc = 0.0
    for x, p in pairs:
        acc += p
        if acc >= level - 1e-15:
            return x
    return pairs[-1][0]


def enum_es(pairs, level):
    acc = 0.0
    total = 0.0
    for x, p in pairs:
        lo, hi = acc, acc + p
        take = min(hi, 1.0) - max(lo, level)
        if take > 0:
            total += x * take
        acc = hi
    return total / (1.0 - level)


def enum_mean(pairs):
    return sum(x * p for x, p in pairs)


def norm_inv_bisect(p: float) -> float:
    lo, hi = -40.0, 40.0
    if p < 0.5:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(-mid / math.sqrt(2)) < p:
                lo = mid
            else:
                hi = mid
    else:
        target = 1.0 - p
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(mid / math.sqrt(2)) > target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def builtin_psis(rng, n_scenarios):
    g = rng.uniform(0.1, 0.9, n_scenarios)
    size = int(rng.integers(1, n_scenarios + 1))
    subset = tuple(sorted(rng.choice(n_scenarios, size=size, replace=False).tolist()))
    return [
        fr.psi_mean(),
        fr.psi_lambda_of_var(fr.es_distortion(0.4), g),
        fr.psi_mean_of_var(g),
        fr.psi_mean_of_es(g),
        fr.psi_es_on_box(0.5, subset),
        fr.psi_indicator_var_var(0.7, 0.6),
    ]


@criterion(1, "Choquet engine matches the Riemann oracle and composition identities", 30.0)
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        fam = family_of(random_discrete_dist(rng))
        tol = oracle_tolerance(fam)
        for psi in builtin_psis(rng, fam.n_scenarios):
            engine = fr.choquet_factor(fam, psi)
            riemann = choquet_riemann_oracle(fam, psi)
            assert abs(engine - riemann) <= tol
        g = rng.uniform(0.1, 0.9, fam.n_scenarios)
        lam = fr.es_distortion(0.35)
        assert fr.choquet_factor(fam, fr.psi_lambda_of_var(lam, g)) == pytest.approx(
            fr.compose_var_distortion(fam, g, lam), abs=1e-12)
        assert fr.choquet_factor(fam, fr.psi_mean_of_es(g)) == pytest.approx(
            fr.compose_es_mean(fam, g), abs=1e-12)


@criterion(2, "reference-fixture values recomputed by enumeration, matched at 1e-12", 1.0)
def test_criterion_2_reference_fixture():
    marg = enum_pairs(D1_ATOMS)
    in_0 = enum_pairs(D1_ATOMS, lambda w: w == 0.0)
    in_1 = enum_pairs(D1_ATOMS, lambda w: w == 1.0)
    scen_vars = sorted([enum_var(in_0, 0.75), enum_var(in_1, 0.75)])
    var_pairs = [(v, 0.5) for v in scen_vars]
    scen_es = sorted([enum_es(in_0, 0.5), enum_es(in_1, 0.5)])
    es_pairs = [(v, 0.5) for v in scen_es]

    expected = {
        "var": enum_var(marg, 0.5),
        "es": enum_es(marg, 0.5),
        "mean": enum_mean(marg),
        "var_var": enum_var(var_pairs, 0.5),
        "esssup_var": max(scen_vars),
        "mean_es": 0.5 * scen_es[0] + 0.5 * scen_es[1],
        "es_es": enum_es(es_pairs, 0.5),
        "covar": enum_var(in_1, 0.5),
        "coes": enum_es(in_1, 0.5),
        "mes": enum_mean(in_1),
    }
    frozen = {
        "var": 3.0, "es": 5.5, "mean": 3.75, "var_var": 3.0, "esssup_var": 6.0,
        "mean_es": 5.25, "es_es": 7.0, "covar": 4.0, "coes": 7.0, "mes": 5.0,
    }
    assert expected == frozen

    dist = fr.DiscreteJointDistribution.from_atoms(D1_ATOMS)
    sample = dist.to_sample()
    fam = fr.from_sample(sample, fr.partition_discrete(sample))
    marginal_cdf = fr.marginal(dist)
    got = {
        "var": fr.var(marginal_cdf, 0.5),
        "es": fr.es(marginal_cdf, 0.5),
        "mean": marginal_cdf.mean(),
        "var_var": fr.quantile_factor(fam, fr.pred_var_of_var(0.75, 0.5)),
        "esssup_var": fr.quantile_factor(fam, fr.pred_esssup_var(0.75)),
        "mean_es": fr.compose_es_mean(fam, 0.5),
        "es_es": fr.es_composition(fam, 0.5, outer="es", q=0.5),
        "covar": fr.covar(sample, 0.75, 0.5),
        "coes": fr.coes(sample, 0.75, 0.5),
        "mes": fr.mes(sample, 0.75),
    }
    for key, value in got.items():
        assert value == pytest.approx(frozen[key], abs=1e-12), key


@criterion(3, "axiom suites M, CA, N, LI, OR, AD over 500 random fixtures each", 60.0)
def test_criterion_3_axioms():
    rng = np.random.default_rng(SEED + 1)

    for _ in range(500):  # monotonicity
        fam = family_of(random_discrete_dist(rng))
        psi = builtin_psis(rng, fam.n_scenarios)[int(rng.integers(6))]
        shift = float(rng.uniform(0, 2))
        kink = float(rng.uniform(-2, 2))
        up = transform_family(fam, lambda x: x + shift + 0.5 * np.maximum(x - kink, 0))
        assert fr.choquet_factor(up, psi) >= fr.choquet_factor(fam, psi) - 1e-12

    for _ in range(500):  # comonotonic additivity
        fam = family_of(random_discrete_dist(rng))
        psi = builtin_psis(rng, fam.n_scenarios)[int(rng.integers(6))]
        c = float(np.median(fam.merged_support()))
        f = lambda x: 0.4 * x + 0.6 * np.maximum(x - c, 0.0)
        g = lambda x: x - f(x)
        total = fr.choquet_factor(fam, psi)
        split = (fr.choquet_factor(transform_family(fam, f), psi)
                 + fr.choquet_factor(transform_family(fam, g), psi))
        assert split == pytest.approx(total, abs=1e-12)

    one = fr.StepCDF.from_values([1.0])
    for _ in range(500):  # normalization
        n = int(rng.integers(1, 4))
        pis = rng.dirichlet(np.ones(n))
        pis = np.maximum(pis, 0.05)
        pis = pis / pis.sum()
        fam = fr.ConditionalLawFamily(pis, tuple(one for _ in range(n)))
        psi = builtin_psis(rng, n)[int(rng.integers(6))]
        assert fr.choquet_factor(fam, psi) == pytest.approx(1.0, abs=1e-12)

    for _ in range(500):  # law invariance under atom permutation
        dist = random_discrete_dist(rng)
        perm = rng.permutation(dist.xs.size)
        dist2 = fr.DiscreteJointDistribution(dist.xs[perm], dist.ws[perm], dist.ps[perm])
        fam, fam2 = family_of(dist), family_of(dist2)
        psi = builtin_psis(rng, fam.n_scenarios)[int(rng.integers(6))]
        assert fr.choquet_factor(fam, psi) == fr.choquet_factor(fam2, psi)

    preds = [lambda: fr.pred_var_of_var(0.6, 0.5), lambda: fr.pred_esssup_var(0.4),
             lambda: fr.pred_single_scenario(0, 0.7)]
    for _ in range(500):  # ordinality
        fam = family_of(random_discrete_dist(rng, span=3.0))
        pred = preds[int(rng.integers(3))]()
        base = fr.quantile_factor(fam, pred)
        assert fr.quantile_factor(transform_family(fam, np.exp), pred) == np.exp(base)
        assert fr.quantile_factor(
            transform_family(fam, lambda x: 2 * x + 1), pred) == 2 * base + 1

    for _ in range(500):  # additivity of the linear family
        fam_x, fam_y, fam_sum = random_joint_pair(rng)
        q = rng.dirichlet(np.ones(fam_x.n_scenarios))
        assert fr.linear_factor(fam_sum, q) == pytest.approx(
            fr.linear_factor(fam_x, q) + fr.linear_factor(fam_y, q), abs=1e-12)


@criterion(4, "coherence falsifier passes/violates as expected; subadditivity holds", 30.0)
def test_criterion_4_condition_a():
    pi2 = np.array([0.5, 0.5])
    pi3 = np.array([0.25, 0.5, 0.25])
    assert fr.condition_a_check(fr.psi_mean(), pi2, trials=10_000, seed=SEED) is None
    assert fr.condition_a_check(
        fr.psi_mean_of_es(np.array([0.3, 0.5, 0.7])), pi3, trials=10_000, seed=SEED) is None
    assert fr.condition_a_check(
        fr.psi_es_on_box(0.5, (1,)), pi2, trials=10_000, seed=SEED) is None
    witness = fr.condition_a_check(
        fr.psi_indicator_var_var(0.75, 0.5), pi2, trials=10_000, seed=SEED)
    assert witness is not None and witness.deficit > 1e-12

    rng = np.random.default_rng(SEED + 2)
    for _ in range(500):
        fam_x, fam_y, fam_sum = random_joint_pair(rng)
        psi = fr.psi_mean_of_es(float(rng.uniform(0, 0.9)))
        gap = (fr.choquet_factor(fam_x, psi) + fr.choquet_factor(fam_y, psi)
               - fr.choquet_factor(fam_sum, psi))
        assert gap >= -1e-10


@criterion(5, "coupling bounds equal factorial enumeration on 100 fixtures", 60.0)
def test_criterion_5_hardy_littlewood():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        n_scen = int(rng.integers(1, 4))
        x_grids, pis = scenario_laws(rng, n_scen, max_atoms=6)
        y_grids = [np.round(rng.uniform(-5, 5, np.asarray(g).size), 3) for g in x_grids]
        fam_x = grids_to_family(x_grids, pis)
        fam_y = grids_to_family(y_grids, pis)
        sup_o, inf_o = hl_bruteforce_oracle(x_grids, y_grids, pis)
        assert fr.hl_bound(fam_x, fam_y, "sup") == pytest.approx(sup_o, abs=1e-12)
        assert fr.hl_bound(fam_x, fam_y, "inf") == pytest.approx(inf_o, abs=1e-12)


@criterion(6, "sharing optimum equals min standalone; never beaten by a sweep", 30.0)
def test_criterion_6_risk_sharing():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(50):
        x_law, families = random_sharing_fixture(rng, n_agents=int(rng.integers(1, 4)))
        agents = []
        standalone = []
        for fam in families:
            p = float(rng.uniform(0.2, 0.9))
            q = float(rng.uniform(0.2, 1.0))
            agents.append((fr.psi_indicator_var_var(p, q), fam))
            standalone.append(fr.quantile_factor(fam, fr.pred_var_of_var(p, q)))
        value, allocation = fr.inf_convolution(x_law, agents)
        assert value == pytest.approx(min(standalone), abs=1e-12)
        recomputed = fr.allocation_value_check(allocation, agents, x_law)
        assert recomputed == pytest.approx(value, abs=1e-10)
        best = sharing_sweep_oracle(x_law, agents, trials=200, seed=int(rng.integers(10**6)))
        assert best >= value - 1e-10
        assert best == pytest.approx(value, abs=1e-6)


@criterion(7, "regression pipeline consistency on simulated data", 120.0)
def test_criterion_7_gaussian_pipeline():
    # composite estimator vs closed form on a 50-value discrete factor
    sigma = 1.0
    values = np.array([fr.norm_inv((k + 0.5) / 50) for k in range(50)])
    data = fr.simulate(0.0, [1.0], sigma, fr.DiscreteFactorSpec(values), 2 * 10**5,
                       seed=SEED)
    fit = fr.ols_fit(data)
    fam = fr.from_sample(data, fr.partition_discrete(data))
    for p in (0.95, 0.975):
        for q in (0.5, 0.9):
            empirical = fr.quantile_factor(fam, fr.pred_var_of_var(p, q))
            model = fr.gaussian_rho(fit, data, p, q)
            assert abs(empirical - model) <= 0.05 * sigma, (p, q)

    # analytic checkpoint: standard normal factor, unit noise
    gauss = fr.simulate(0.0, [1.0], 1.0, fr.GaussianFactorSpec(np.zeros(1), np.eye(1)),
                        10**6, seed=SEED)
    gfit = fr.ols_fit(gauss)
    grid = fr.diff_grid(gfit, gauss, [0.975], [0.5], master_seed=SEED)
    assert grid.diff[0] == pytest.approx(1 / math.sqrt(2) - 1, abs=0.01)

    # matching level equals the analytic solve of VaR_q0(W) = (sqrt2 - 1) Ninv(p)
    q0 = fr.find_matching_q(gfit, gauss, 0.975, master_seed=SEED)
    analytic = 0.5 * math.erfc(-((math.sqrt(2) - 1) * norm_inv_bisect(0.975)) / math.sqrt(2))
    assert q0 == pytest.approx(analytic, abs=0.01)

    # diff is exactly nondecreasing in q along every grid row
    grid = fr.diff_grid(gfit, gauss, [0.95, 0.975], [0.5, 0.6, 0.7, 0.8, 0.9],
                        master_seed=SEED)
    n_q = grid.q_values.size
    for i in range(grid.p_values.size):
        row = grid.diff[i * n_q:(i + 1) * n_q]
        assert np.all(np.diff(row) >= 0.0)


@criterion(8, "numeric utilities: inverse normal, OLS recovery, report layout", 60.0)
def test_criterion_8_numeric_utilities():
    rng = np.random.default_rng(SEED + 5)
    for p in rng.random(1000):
        assert abs(fr.norm_inv(float(p)) - norm_inv_bisect(float(p))) <= 1e-9

    w = np.linspace(-2.0, 3.0, 80)
    noiseless = fr.ols_fit(fr.JointSample(2.0 + 3.0 * w, w))
    assert noiseless.beta0 == pytest.approx(2.0, rel=1e-10)
    assert noiseless.beta[0] == pytest.approx(3.0, rel=1e-10)

    W = rng.standard_normal((10**4, 2))
    y = 0.5 + W @ np.array([1.0, -2.0]) + 0.1 * rng.standard_normal(10**4)
    noisy = fr.ols_fit(fr.JointSample(y, W))
    assert np.all(np.abs(noisy.coef - np.array([0.5, 1.0, -2.0])) <= 3.0 * noisy.stderr)

    from factorrisk.cli import regression_report

    text = regression_report(noisy)
    header_tokens = text.splitlines()[0].split()
    assert header_tokens == ["coef", "std", "err", "t", "P>|t|", "[0.025", "0.975]"]
