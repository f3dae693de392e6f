"""Rejection branches, each with its exception type and message.

One row per check that no other test reached: the call that trips it, the
exception type and the message as raised.  The CLI rows run ``cli.main``
and compare the exit code and stderr.  Two checks have no row:
``DiscreteJointDistribution``'s "all atoms were dropped as negligible" needs
about 1e15 atoms to fire, and ``ols_fit``'s "residuals are not orthogonal
to the design" guards a numerical failure of the solve.
"""

import json
import re

import numpy as np
import pytest

from factorrisk import (ConditionalLawFamily, DensityFamily, DiffGrid, DiscreteFactorSpec,
                        DiscreteJointDistribution, DistortionFunction,
                        GaussianFactorSpec, JointSample, LevelMap, PiecewiseLinearAllocation,
                        ScenarioWeighting, StepCDF, ValidationError, VarBox,
                        allocation_value_check, coherent_sup, covar, diff_grid, es_composition,
                        es_on_event, es_tail_density, find_matching_q, gaussian_rho, hl_bound,
                        inf_convolution, ols_fit, piecewise_linear_distortion, plain_var,
                        pred_custom, pred_single_scenario, psi_mean, quantile_factor, simulate)
from factorrisk.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, main, read_csv
from factorrisk.sharing import transform_family

LAW = StepCDF([1.0, 2.0], [0.5, 1.0])
FAMILY = ConditionalLawFamily([0.5, 0.5], [LAW, LAW])
X_LAW = StepCDF([1.0, 2.0], [0.5, 1.0])
TWO_AGENTS = PiecewiseLinearAllocation([1.0, 2.0], [[0.5], [0.5]])


def _regression():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((200, 2))
    sample = JointSample(w @ [1.0, -0.5] + rng.standard_normal(200), w,
                         loss_name="X", factor_names=("W1", "W2"))
    return ols_fit(sample), sample


FIT, SAMPLE = _regression()
THREE_FACTORS = JointSample(SAMPLE.loss, np.column_stack([SAMPLE.factors, SAMPLE.loss]))


def _zero_plain():
    """A fit of a zero loss: every coefficient, sigma and plain VaR is 0."""
    w = np.random.default_rng(4).standard_normal((20, 2))
    sample = JointSample(np.zeros(20), w)
    return ols_fit(sample), sample


def _upward_violation(u, pi):
    """Accepts the all-ones row and a band of means, which rows above leave."""
    return bool(u.min() >= 1.0 or 0.2 < u.mean() < 0.5)


# where: (the call, the exception type, its message)
REJECTIONS = {
    "core.py:212 weights length": (
        lambda: JointSample([1.0, 2.0], [0.0, 1.0], weights=[1.0]),
        ValidationError, "expected 2 weights, got 1"),
    "core.py:214 negative weight": (
        lambda: JointSample([1.0, 2.0], [0.0, 1.0], weights=[1.0, -1.0]),
        ValidationError, "weights must be nonnegative"),
    "core.py:274 StepCDF lengths": (
        lambda: StepCDF([1.0, 2.0], [1.0]),
        ValidationError, "support and cum must have equal length"),
    "core.py:367 atom arrays": (
        lambda: DiscreteJointDistribution([1.0, 2.0], [[0.0], [1.0]], [1.0]),
        ValidationError, "atom arrays must align: xs (M,), ws (M,N), ps (M,)"),
    "core.py:397 no atoms": (
        lambda: DiscreteJointDistribution.from_atoms([]),
        ValidationError, "atom list must be nonempty"),
    "core.py from_atoms ragged": (
        lambda: DiscreteJointDistribution.from_atoms([(1.0, [0.0], 0.5), (2.0, [0.0, 1.0], 0.5)]),
        ValidationError, "factor vectors must have one length, got shapes [(1,), (2,)]"),
    "core.py from_atoms ragged scalar": (
        lambda: DiscreteJointDistribution.from_atoms([(1.0, 0.0, 0.5), (2.0, (1.0, 2.0), 0.5)]),
        ValidationError, "factor vectors must have one length, got shapes [(1,), (2,)]"),
    "core.py:433 factor names": (
        lambda: JointSample([1.0, 2.0], [0.0, 1.0], factor_names=("A", "B")),
        ValidationError, "factor_names must match the number of factor columns"),
    "core.py:458 mask shape": (
        lambda: SAMPLE.subsample([True]), ValidationError, "mask must align with rows"),
    "core.py:460 empty subsample": (
        lambda: SAMPLE.subsample(np.zeros(SAMPLE.n_rows, dtype=bool)),
        ValidationError, "subsample must retain positive weight"),
    "core.py:916 profile width": (
        lambda: psi_mean().apply(np.zeros((1, 3)), [0.5, 0.5]),
        ValidationError, "profile matrix width must equal the number of scenarios"),
    "coherent.py:50 negative density": (
        lambda: DensityFamily((ConditionalLawFamily([1.0], [StepCDF([-1.0, 3.0], [0.5, 1.0])]),)),
        ValidationError, "density values must be nonnegative"),
    "coherent.py:74 direction": (
        lambda: hl_bound(FAMILY, FAMILY, "up"),
        ValidationError, "direction must be 'sup' or 'inf'"),
    "coherent.py:128 outer": (
        lambda: es_composition(FAMILY, 0.5, "max"),
        ValidationError, "outer must be 'esssup' or 'es'"),
    "conditioning.py:40 box shapes": (
        lambda: VarBox([0.1, 0.2], [0.9]),
        ValidationError, "alpha and beta must be aligned level vectors"),
    "conditioning.py:91 level vector": (
        lambda: LevelMap.of([0.5, 0.5, 0.5]).resolve(2),
        ValidationError, "level vector has 3 entries, expected 2"),
    "conditioning.py:94 label-keyed levels": (
        lambda: LevelMap.of({"a": 0.5}).resolve(2),
        ValidationError, "label-keyed level map needs scenario labels"),
    "conditioning.py:238 event width": (
        lambda: es_on_event(SAMPLE, [[0.0, 1.0, 2.0]], 0.5),
        ValidationError, "event factor values must match the factor dimension"),
    "linear.py:50 weighting tag": (
        lambda: ScenarioWeighting.of("nope"), ValidationError, "unknown weighting tag 'nope'"),
    "linear.py:67 label-keyed weights": (
        lambda: ScenarioWeighting.of({"a": 1.0}).resolve(FAMILY),
        ValidationError, "label-keyed weighting needs scenario labels"),
    "quantile.py:97 scenario index": (
        lambda: quantile_factor(FAMILY, pred_single_scenario(5, 0.5)),
        ValidationError, "scenario index 5 out of range"),
    "quantile.py:100 scenario label": (
        lambda: quantile_factor(FAMILY, pred_single_scenario("a", 0.5)),
        ValidationError, "label-addressed predicate needs scenario labels"),
    "quantile.py:129 upward closure": (
        lambda: pred_custom(_upward_violation, 3),
        ValidationError, "predicate failed the upward-closure spot check"),
    "quantile.py:143 all-ones rejected": (
        # uniform pi over three scenarios passes the pole checks; FAMILY's 0.5s fail
        lambda: quantile_factor(FAMILY, pred_custom(
            lambda u, pi: bool(u.min() >= 1.0 and pi.max() < 0.5), 3)),
        ValidationError, "predicate rejected the all-ones profile"),
    "quantile.py:151 box mode": (
        lambda: covar(SAMPLE, 0.5, 0.9, mode="box"),
        ValidationError, "box mode requires a VarBox"),
    "quantile.py:158 mode": (
        lambda: covar(SAMPLE, 0.5, 0.9, mode="nope"),
        ValidationError, "unknown conditioning mode 'nope'"),
    "regression.py:97 too few rows": (
        lambda: ols_fit(JointSample([1.0, 2.0, 3.0], [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])),
        ValidationError, "need more than N+1=3 observations, got 3"),
    "regression.py:168 covariance shape": (
        lambda: GaussianFactorSpec([0.0, 0.0], [[1.0]]),
        ValidationError, "covariance shape must match the mean vector"),
    "regression.py:171 covariance symmetry": (
        lambda: GaussianFactorSpec([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]]),
        ValidationError, "covariance must be symmetric"),
    "regression.py:195 no factor values": (
        lambda: DiscreteFactorSpec([]), ValidationError, "values must be a nonempty (k, N) array"),
    "regression.py:209 negative sigma": (
        lambda: simulate(0.0, [1.0], -1.0, DiscreteFactorSpec([0.0, 1.0]), 10),
        ValidationError, "sigma must be nonnegative"),
    "regression.py:214 spec dimension": (
        lambda: simulate(0.0, [1.0, 2.0], 1.0, DiscreteFactorSpec([0.0, 1.0]), 10),
        ValidationError, "factor spec dimension must match beta"),
    "regression.py:262 plain-var mode": (
        lambda: plain_var(FIT, SAMPLE, 0.9, "nope"),
        ValidationError, "plain-var mode must be one of ('model', 'empirical')"),
    "regression.py:298 grid column": (
        lambda: DiffGrid(np.array([0.9]), np.array([0.5]), np.array([1.0, 2.0]), np.array([1.0]),
                         np.array([0.0])),
        ValidationError, "grid column rho_factor must have 1 rows"),
    "regression.py:305 diff column": (
        lambda: DiffGrid(np.array([0.9]), np.array([0.5]), np.array([2.0]), np.array([1.0]),
                         np.array([0.5])),
        ValidationError, "diff column is inconsistent with its definition"),
    "regression.py:335 empty levels": (
        lambda: diff_grid(FIT, SAMPLE, [], [0.5]), ValidationError, "level lists must be nonempty"),
    "regression.py:374 zero plain VaR": (
        lambda: find_matching_q(*_zero_plain(), 0.9, "empirical"),
        ValidationError, "plain VaR is zero; diff is undefined"),
    "scalar.py:55 knot vectors": (
        lambda: piecewise_linear_distortion([0.0, 1.0], [0.0, 0.5, 1.0]),
        ValidationError, "piecewise_linear requires aligned knot vectors"),
    "scalar.py:57 knot grid": (
        lambda: piecewise_linear_distortion([0.0, 0.5, 0.4, 1.0], [0.0, 0.2, 0.3, 1.0]),
        ValidationError, "knot grid must increase strictly from 0 to 1"),
    "scalar.py:61 decreasing": (
        lambda: piecewise_linear_distortion([0.0, 0.3, 0.6, 1.0], [0.0, 0.8, 0.6, 1.0]),
        ValidationError, "distortion must be nondecreasing on the grid"),
    "scalar.py:65 kind": (
        lambda: DistortionFunction("nope"), ValidationError, "unknown distortion kind 'nope'"),
    "sharing.py:52 breakpoints": (
        lambda: PiecewiseLinearAllocation([1.0, 1.0], [[1.0]]),
        ValidationError, "breakpoints must be strictly increasing"),
    "sharing.py:59 slope sums": (
        lambda: PiecewiseLinearAllocation([1.0, 2.0], [[0.5], [0.4]]),
        ValidationError, "slopes must sum to 1 on every interval"),
    "sharing.py:93 agent pair": (
        lambda: inf_convolution(X_LAW, [(psi_mean(), LAW)]),
        ValidationError, "each agent must be a (ScenarioDistortion, family) pair"),
    "sharing.py:162 agent count": (
        lambda: allocation_value_check(TWO_AGENTS, [(psi_mean(), FAMILY)], X_LAW),
        ValidationError, "allocation and agent list are misaligned"),
    "sharing.py:164 breakpoints of X": (
        lambda: allocation_value_check(TWO_AGENTS, [(psi_mean(), FAMILY)] * 2,
                                       StepCDF([1.0, 3.0], [0.5, 1.0])),
        ValidationError, "allocation breakpoints must equal the support of X"),
    # an agent index outside 0 .. n_agents - 1 read the last agent's part
    # (-1) or raised numpy's IndexError (n_agents)
    "sharing.py agent below the first": (
        lambda: TWO_AGENTS.h(-1, 1.5), ValidationError, "agent must be an integer >= 0, got -1"),
    "sharing.py agent above the last": (
        lambda: TWO_AGENTS.h(2, 1.5), ValidationError, "agent must be < n_agents = 2, got 2"),
    "sharing.py transform_family agent below": (
        lambda: transform_family(FAMILY, TWO_AGENTS, -1), ValidationError,
        "agent must be an integer >= 0, got -1"),
    "sharing.py transform_family agent above": (
        lambda: transform_family(FAMILY, TWO_AGENTS, np.int64(5)), ValidationError,
        "agent must be < n_agents = 2, got 5"),
    # numpy's "matmul: Input operand 1 has a mismatch in its core dimension 0"
    **{f"regression.py {name} factor count": (
        call, ValidationError, "the sample has 3 factors but the fit has 2")
       for name, call in (
           ("gaussian_rho", lambda: gaussian_rho(FIT, THREE_FACTORS, 0.9, 0.5)),
           ("plain_var", lambda: plain_var(FIT, THREE_FACTORS, 0.9, "model")),
           ("diff_grid", lambda: diff_grid(FIT, THREE_FACTORS, [0.9], [0.5])),
           ("find_matching_q", lambda: find_matching_q(FIT, THREE_FACTORS, 0.95)))},
}


@pytest.mark.parametrize("where", list(REJECTIONS))
def test_rejection(where):
    call, kind, message = REJECTIONS[where]
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_every_agent_index_below_the_count_is_read():
    alloc = PiecewiseLinearAllocation([1.0, 2.0], [[0.25], [0.75]])
    assert [alloc.h(i, 2.0) for i in (0, 1, np.int64(1), 1.0)] == [0.75, 1.25, 1.25, 1.25]


def test_fitted_checks_the_factor_count():
    # numpy's matmul ValueError before the check
    for factors, n in ((np.ones((4, 3)), 3), (np.float64(1.0), 0)):
        with pytest.raises(ValidationError) as exc:
            FIT.fitted(factors)
        assert str(exc.value) == f"the factor matrix has {n} factors but the fit has 2"
    rows = SAMPLE.factors
    assert FIT.fitted(rows).tobytes() == (FIT.beta0 + rows @ FIT.beta).tobytes()
    assert FIT.fitted(rows[3].tolist()) == FIT.beta0 + rows[3] @ FIT.beta


def test_diff_grid_takes_lists():
    # a list column raised AttributeError: 'list' object has no attribute 'size'
    grid = DiffGrid([0.9], [0.5], [2.0], [1.0], [1.0])
    assert grid.p.tolist() == [0.9] and grid.q.tolist() == [0.5] and grid.diff.tolist() == [1.0]
    with pytest.raises(ValidationError, match=r"^grid column rho_factor must have 1 rows$"):
        DiffGrid([0.9], [0.5], [2.0, 3.0], [1.0], [1.0])
    columns = [np.array([0.9]), np.array([0.5]), np.array([2.0]), np.array([1.0]), np.array([1.0])]
    grid = DiffGrid(*columns)
    assert all(getattr(grid, name) is column for name, column in zip(
        ("p_values", "q_values", "rho_factor", "rho_plain", "diff"), columns))


def test_a_small_mass_shortfall_is_renormalized():
    """ps summing to 1 - 5e-13 pass the 1e-12 check and are scaled to total 1."""
    ps = [0.5, 0.5 - 5e-13]
    dist = DiscreteJointDistribution([1.0, 2.0], [0.0, 1.0], ps)
    assert dist.ps.tobytes() == (np.array(ps) / sum(ps)).tobytes()
    assert DiscreteJointDistribution([1.0, 2.0], [0.0, 1.0], [0.5, 0.5]).ps.tolist() == [0.5, 0.5]


def test_coherent_sup_of_a_plain_iterable():
    family = ConditionalLawFamily([0.5, 0.5], [StepCDF([1.0, 2.0], [0.5, 1.0]),
                                               StepCDF([0.0, 4.0], [0.25, 1.0])])
    member = es_tail_density(family, 0.5)
    assert coherent_sup(family, [member]) == coherent_sup(family, DensityFamily((member,)))
    assert coherent_sup(family, iter([member])) == hl_bound(family, member)


@pytest.fixture
def csv(tmp_path):
    path = tmp_path / "d.csv"
    rows = ["X,W"] + [f"{x},{w}" for x, w in
                      [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (4, 1), (6, 1), (8, 1)]]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


# cli.py line: (argv after the data flags, or None for no data; exit code; stderr)
CLI_REJECTIONS = {
    "52 no file": (["measure", "--data", "{missing}", "--target", "X", "--measure", "mes",
                    "--alpha", "0.5"], EXIT_DATA, "data error: no such file: {missing}"),
    "57 empty file": (["measure", "--data", "{empty}", "--target", "X", "--measure", "mes",
                       "--alpha", "0.5"], EXIT_DATA,
                      "data error: empty file: a header row is required"),
    "435 numbers": (["simulate", "--n", "10", "--beta", "1,x"], EXIT_USAGE,
                    "usage error: expected comma-separated numbers, got '1,x'"),
    "513 agent parameter": (["share", "--data", "{csv}", "--target", "X", "--agents",
                             "var-var:p=abc@W"], EXIT_USAGE,
                            "usage error: bad agent parameter 'p=abc'"),
    "516 agent column": (["share", "--data", "{csv}", "--target", "X", "--agents",
                          "var-var:p=0.9,q=0.5@Z"], EXIT_USAGE,
                         "usage error: agent factor column 'Z' not in data"),
    "622 no agents": (["share", "--data", "{csv}", "--target", "X", "--agents", " ; "],
                      EXIT_USAGE, "usage error: at least one agent spec is required"),
    "640 discrete factor": (["simulate", "--n", "10", "--beta", "1,2", "--discrete-values", "0,1"],
                            EXIT_USAGE, "usage error: discrete scalar values imply a single factor"),
    # each blamed the loss: "loss must be finite, got nan"
    "simulate beta0": (["simulate", "--n", "10", "--beta0", "inf", "--beta", "1"], EXIT_NUMERIC,
                       "numeric rejection: beta0 must be finite, got inf"),
    "simulate beta": (["simulate", "--n", "10", "--beta", "1,nan"], EXIT_NUMERIC,
                      "numeric rejection: beta must be finite, got nan"),
    "simulate sigma": (["simulate", "--n", "10", "--beta", "1", "--sigma", "nan"], EXIT_NUMERIC,
                       "numeric rejection: sigma must be finite, got nan"),
    # numpy's overflow warning went to stderr first (an error under this suite's filter)
    "simulate overflow": (["simulate", "--n", "10", "--beta", "1e308", "--sigma", "1e308"],
                          EXIT_NUMERIC, "numeric rejection: loss must be finite, got inf"),
    "simulate no beta": (["simulate", "--n", "10", "--beta", ","], EXIT_NUMERIC,
                         "numeric rejection: beta must be nonempty"),
    "simulate no discrete beta": (["simulate", "--n", "10", "--beta", ",", "--discrete-values",
                                   "0,1"], EXIT_NUMERIC, "numeric rejection: beta must be nonempty"),
}


@pytest.mark.parametrize("where", list(CLI_REJECTIONS))
def test_cli_rejection(where, csv, tmp_path, capsys):
    argv, code, message = CLI_REJECTIONS[where]
    (tmp_path / "empty.csv").write_text("")
    paths = {"csv": csv, "missing": str(tmp_path / "missing.csv"),
             "empty": str(tmp_path / "empty.csv")}
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr() == ("", message.format(**paths) + "\n")


def test_cli_regress_json_payload(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["simulate", "--n", "300", "--beta", "1,-0.5", "--seed", "3",
                 "--output", str(path)]) == 0
    assert main(["regress", "--data", str(path), "--target", "X", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    fit = ols_fit(read_csv(path, target="X"))
    assert list(payload) == ["names", "coef", "stderr", "tstat", "pvalue", "ci95", "sigma", "dof"]
    assert payload["names"] == ["const", "W1", "W2"]
    assert payload["coef"] == fit.coef.tolist() and payload["stderr"] == fit.stderr.tolist()
    assert payload["tstat"] == fit.tstat.tolist() and payload["pvalue"] == fit.pvalue.tolist()
    assert payload["ci95"] == fit.ci95.tolist()
    assert payload["sigma"] == fit.sigma and payload["dof"] == 297
    assert out == json.dumps(payload, indent=2) + "\n"
    assert re.search(r'"dof": 297\n}\n$', out)


def test_cli_regress_json_writes_none_for_a_nan_statistic(tmp_path, capsys):
    """A zero loss fits with zero standard errors: each t statistic and p
    value is NaN, written as null."""
    path = tmp_path / "zero.csv"
    rows = ["X,W"] + [f"0,{w}" for w in (0.5, -1.0, 2.0, 0.25, 3.0, -0.75)]
    path.write_text("\n".join(rows) + "\n")
    assert main(["regress", "--data", str(path), "--target", "X", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coef"] == [0.0, 0.0] and payload["stderr"] == [0.0, 0.0]
    assert payload["tstat"] == [None, None] and payload["pvalue"] == [None, None]
