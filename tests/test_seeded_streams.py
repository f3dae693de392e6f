"""One seeded generator, and one QR route for every fit.

Every seeded stream comes from ``core._rng(seed, *rows)``: with no row it
is ``np.random.default_rng(seed)``'s stream, and with a row index it is
the stream of ``SeedSequence(seed, spawn_key=(row,))``, the per-row
stream of ``plain_var``, ``diff_grid`` and ``find_matching_q``.  A seed
or row index that is not an integer >= 0 is a ``ValidationError`` (CLI
exit 4), by the one ``_count`` rule (the sites are in ``test_input_rules``).

``ols_fit`` QRs the stacked R blocks even when there is one block: a
second ``geqrf`` of an upper-triangular matrix returns it bit for bit,
since every reflector has tau = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from factorrisk import (DiscreteFactorSpec, GaussianFactorSpec, JointSample, ValidationError,
                        condition_a_check, diff_grid, find_matching_q, ols_fit, plain_var,
                        pred_custom, psi_custom, psi_mean, regression, scalar, simulate)
from factorrisk import core, distortion, quantile
from factorrisk.cli import EXIT_NUMERIC, main

SEEDS = [0, 1, 7, 20260808, 2**32, 2**64 - 1, 2**70 + 3, np.int64(5), np.uint32(9), True]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_a_seed_gives_default_rngs_stream(seed):
    want = np.random.default_rng(seed)
    got = core._rng(seed)
    assert _bits(got.random(16)) == _bits(want.random(16))
    assert got.integers(0, 2**62, 8).tolist() == want.integers(0, 2**62, 8).tolist()
    assert _bits(got.standard_normal(16)) == _bits(want.standard_normal(16))


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("row", [0, 1, 4, 2**40, np.int64(3)], ids=repr)
def test_a_row_gives_the_former_per_row_stream(seed, row):
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(row,)))
    got = core._rng(seed, row)
    assert _bits(got.random(16)) == _bits(want.random(16))
    assert _bits(got.standard_normal(16)) == _bits(want.standard_normal(16))


@pytest.fixture
def streams(monkeypatch):
    """The (seed, rows) of every generator built, each module's ``_rng``
    spied on, and the first draws of a fresh generator of the same key."""
    built = []

    def spy(seed, *rows):
        built.append((seed, rows, core._rng(seed, *rows).random(4)))
        return core._rng(seed, *rows)
    for module in (regression, distortion, quantile):
        monkeypatch.setattr(module, "_rng", spy)
    return built


def _regression_sample():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((300, 2))
    sample = JointSample(w @ [1.0, -0.5] + rng.standard_normal(300), w)
    return ols_fit(sample), sample


@pytest.mark.parametrize("seed", [0, 1, 20260808, 2**70 + 3, np.int64(5)], ids=repr)
def test_every_generator_draws_default_rngs_stream(streams, seed):
    fit, sample = _regression_sample()
    simulate(0.0, [1.0], 1.0, DiscreteFactorSpec([0.0, 1.0]), 10, seed)
    psi_custom(lambda v, pi: float(v @ pi), 2, seed=seed, check_pairs=5)
    pred_custom(lambda c, pi: bool(c.min() >= 0.5), 2, seed=seed, check_pairs=5)
    condition_a_check(psi_mean(), [0.5, 0.5], trials=5, seed=seed)
    plain_var(fit, sample, 0.9, "model", seed, row_index=6)
    diff_grid(fit, sample, [0.9, 0.95, 0.99], [0.5], "model", seed)
    find_matching_q(fit, sample, 0.95, "model", seed)
    keys = [(s, rows) for s, rows, _ in streams]
    assert keys == [(seed, ())] * 4 + [(seed, (6,)), (seed, (0,)), (seed, (1,)), (seed, (2,)),
                                       (seed, (0,))]
    for s, rows, first in streams:
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=rows) if rows
                                     else seed)
        assert _bits(first) == _bits(want.random(4))


@pytest.mark.parametrize("seed", [0, 20260808, 2**70 + 3])
def test_simulate_and_plain_var_are_the_former_draws(seed):
    spec = GaussianFactorSpec([0.1, -0.2], [[1.0, 0.3], [0.3, 1.0]])
    sample = simulate(0.5, [1.0, -0.5], 0.8, spec, 500, seed)
    rng = np.random.default_rng(seed)
    w = spec.draw(rng, 500)
    x = 0.5 + w @ np.array([1.0, -0.5]) + 0.8 * rng.standard_normal(500)
    assert _bits(sample.loss) == _bits(JointSample(x, w).loss)
    fit = ols_fit(sample)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    values = fit.fitted(sample.factors) + fit.sigma * rng.standard_normal(500)
    assert _bits(plain_var(fit, sample, 0.9, "model", seed, row_index=3)) == \
        _bits(scalar.quantiles(values, sample.weights, 0.9))


def test_empirical_plain_var_reads_no_seed():
    fit, sample = _regression_sample()
    want = plain_var(fit, sample, 0.9, "empirical")
    for seed in (-1, 1.5, None):
        assert _bits(plain_var(fit, sample, 0.9, "empirical", seed, row_index=-1)) == _bits(want)
        assert _bits(diff_grid(fit, sample, [0.9], [0.5], "empirical", seed).rho_plain) == \
            _bits([want])


def test_seed_and_row_messages():
    with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got -1$"):
        core._rng(-1, -1)  # the seed is checked first
    with pytest.raises(ValidationError, match=r"^row index must be an integer >= 0, got -1$"):
        core._rng(0, -1)


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "s.csv"
    assert main(["simulate", "--n", "200", "--beta", "1,-0.5", "--seed", "3",
                 "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "10", "--beta", "1", "--seed", "-1"],
    ["heatmap", "--target", "X", "--p", "0.9", "--q", "0.5", "--seed", "-1"],
])
def test_cli_negative_seed_is_a_numeric_rejection(sim_csv, capsys, argv):
    if argv[0] == "heatmap":
        argv = argv + ["--data", sim_csv]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", "numeric rejection: seed must be an integer >= 0, got -1\n")


def test_cli_empirical_heatmap_ignores_the_seed(sim_csv, capsys):
    argv = ["heatmap", "--data", sim_csv, "--target", "X", "--p", "0.9", "--q", "0.5",
            "--plain-var", "empirical"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--seed", "-1"]) == 0
    assert capsys.readouterr().out == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 3000), st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "rounded", "columns"]))
def test_a_second_geqrf_of_an_upper_triangle_returns_its_bits(k, extra, seed, kind):
    """ols_fit's one-block route rests on this: np.triu of a first geqrf,
    factored again, comes back bit for bit, every tau 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k + extra, k)) * 10.0 ** rng.integers(-8, 9, k)
    if kind == "rounded":
        a = np.round(a, 1)  # ties and exact zeros
    elif kind == "columns":
        a[:, 0] = 1.0  # the constant column of [1 | W | y]
    geqrf, = sla.get_lapack_funcs(("geqrf",), (a,))
    r = np.triu(geqrf(np.asfortranarray(a))[0][:k])
    qr, tau, _, info = geqrf(np.vstack([r]))
    assert info == 0 and not tau.any()
    assert np.triu(qr[:k]).tobytes() == r.tobytes()


@pytest.mark.parametrize("rows", [6, 500, 10_000, 2**14])
def test_one_block_fit_is_the_former_one(rows):
    """The fit of one block equals the fit that skipped the stacked QR."""
    rng = np.random.default_rng(rows)
    w = rng.standard_normal((rows, 4))
    sample = JointSample(w @ [1.0, -0.5, 0.3, 0.2] + rng.standard_normal(rows), w)
    fit = ols_fit(sample)
    geqrf, = sla.get_lapack_funcs(("geqrf",), (w,))
    block = np.column_stack([np.ones(rows), sample.factors, sample.loss])
    r_all = np.triu(geqrf(np.asfortranarray(block))[0][:6])
    qty, r, piv = sla.qr_multiply(r_all[:5, :5], r_all[:5, 5], mode="right", pivoting=True)
    coef = sla.solve_triangular(r, qty)[np.argsort(piv)]
    assert _bits(fit.coef) == _bits(coef)
