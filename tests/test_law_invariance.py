"""One law, one answer: outputs that read the joint law of (X, W) alone.

The paper defines a factor risk measure as a function of the joint law of
(X, W).  Permuting the rows of an equally weighted sample keeps that law,
and so does the number of CPUs the process may use (``core._cpus``,
patched to 1, 2 and 4).  On hypothesis draws of equally weighted samples,
with discrete factors and in quantile boxes, at levels on the count ratios
C / T and off them, every ``cli.MEASURES`` evaluator, the coupling bound
``hl_bound(fam, es_tail_density(fam, p))`` and a two-agent
``inf_convolution`` give the same bits under both; a rejection must be the
same rejection.  A vectorized ``psi_custom`` Choquet value and a
``diff_grid`` on more than 2 * 2**14 rows, large enough that their work
runs on helper threads, are checked under the CPU count only: the grid's
drawn plain VaR gives each row its own noise term, so a permutation moves
it.  The CLI half: a CSV and the same CSV with its data lines shuffled give
the same ``measure`` exit code and output bytes.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factorrisk import (FactorRiskError, JointSample, StepCDF, choquet_factor, diff_grid,
                        es_tail_density, from_sample, hl_bound, inf_convolution, ols_fit,
                        partition_discrete, partition_quantile_boxes, psi_custom,
                        psi_indicator_var_var, psi_mean_of_es)
from factorrisk import cli, core

CPUS = (1, 2, 4)


@st.composite
def cases(draw):
    """An equally weighted sample, its bins (None: discrete factors), a
    request of levels, and a row permutation."""
    T = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_factors = draw(st.integers(1, 2))
    # few decimals tie losses and factor values
    loss = np.round(rng.standard_normal(T) * 3, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        bins = None
        factors = rng.integers(0, draw(st.integers(1, 3)), (T, n_factors)).astype(float)
    else:
        bins = draw(st.integers(2, min(T, 5)))
        factors = np.round(rng.standard_normal((T, n_factors)), draw(st.integers(0, 3)))
    level = st.one_of(st.integers(1, T - 1).map(lambda c: c / T), st.floats(0.01, 0.99))
    request = cli.MeasureRequest("", "X", "", p=draw(level), q=draw(level),
                                 alpha=(draw(level),), bins=bins)
    return JointSample(loss, factors), request, rng.permutation(T)


def _outcome(call):
    """The bits of ``call()``'s floats, or its rejection."""
    try:
        return b"".join(np.asarray(v, dtype=float).tobytes() for v in call())
    except FactorRiskError as exc:
        return type(exc).__name__, str(exc)


def _answers(sample: JointSample, request) -> dict:
    """Every measure of the CLI, the coupling bound of the ES tail density
    and a two-agent risk sharing, on ``sample`` and its family."""
    partition = (partition_discrete(sample) if request.bins is None
                 else partition_quantile_boxes(sample, request.bins))
    family = from_sample(sample, partition)
    out = {name: _outcome(lambda: [m.evaluate(request, family if m.on_family else sample)])
           for name, m in cli.MEASURES.items()}
    out["hl_bound"] = _outcome(lambda: [hl_bound(family, es_tail_density(family, request.p))])

    def share():
        agents = [(psi_mean_of_es(request.p), family),
                  (psi_indicator_var_var(request.p, request.q), family)]
        value, allocation = inf_convolution(StepCDF.from_values(sample.loss), agents)
        return value, allocation.breakpoints, allocation.slopes
    out["inf_convolution"] = _outcome(share)
    return out


def _at_cpus(cpus: int, call):
    with mock.patch.object(core, "_cpus", lambda: cpus):
        return call()


@settings(max_examples=150, deadline=None)
@given(cases())
def test_permutation_and_cpu_count_keep_every_bit(case):
    sample, request, perm = case
    want = _answers(sample, request)
    assert _answers(JointSample(sample.loss[perm], sample.factors[perm]), request) == want
    for cpus in CPUS:
        assert _at_cpus(cpus, lambda: _answers(sample, request)) == want, cpus


def test_threaded_routes_keep_the_bits_of_one_cpu():
    rng = np.random.default_rng(41)
    # about 1,000 boxes: 64-row chunks, over 4 ranges of _MIN_RANGE_CHUNKS calls
    sample = JointSample(rng.standard_normal(10_000), rng.standard_normal((10_000, 2)))
    family = from_sample(sample, partition_quantile_boxes(sample, 32))
    calls = -(-family.merged_support().size // core._chunk_rows(family.n_scenarios))
    assert calls >= max(CPUS) * core._MIN_RANGE_CHUNKS
    psi = psi_custom(lambda V, pi: (np.sqrt(V) * pi).sum(axis=1), family.n_scenarios,
                     vectorized=True)
    # two full QR blocks of ols_fit, and a grid row of more than 2**14 rows per p
    T = 2 * 2**14 + 1
    W = rng.standard_normal((T, 2))
    data = JointSample(0.2 + W @ [1.0, -0.5] + 0.8 * rng.standard_normal(T), W)

    def answers():
        fit = ols_fit(data)
        grid = diff_grid(fit, data, [0.9, 0.95, 0.975, 0.99], [0.5, 0.9])
        return (choquet_factor(family, psi), fit.coef, fit.stderr, fit.residuals,
                grid.rho_factor, grid.rho_plain, grid.diff)
    want = _outcome(lambda: _at_cpus(1, answers))
    for cpus in CPUS[1:]:
        assert _outcome(lambda: _at_cpus(cpus, answers)) == want, cpus


def _measure(path: Path, request, name: str):
    """``factorrisk measure`` on ``path``: exit code, stdout and stderr."""
    argv = ["measure", "--data", str(path), "--target", "X", "--measure", name,
            "--p", repr(request.p), "--q", repr(request.q), "--alpha", repr(request.alpha[0])]
    if request.bins is not None:
        argv += ["--bins", str(request.bins)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(cases())
def test_shuffled_csv_lines_give_the_same_bytes(case):
    sample, request, perm = case
    header = ",".join(["X"] + [f"W{j + 1}" for j in range(sample.n_factors)])
    lines = [",".join(map(repr, row)) for row in np.column_stack([sample.loss, sample.factors])
             .tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        answers = []
        for order in (range(len(lines)), perm):  # one path, so messages naming it agree
            path.write_text("\n".join([header] + [lines[i] for i in order]) + "\n")
            answers.append([_measure(path, request, name) for name in cli.MEASURES])
    assert answers[0] == answers[1]
