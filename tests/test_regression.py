import math
import os
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import factorrisk
from factorrisk import (
    DiscreteFactorSpec,
    GaussianFactorSpec,
    JointSample,
    RankDeficientError,
    StepCDF,
    ValidationError,
    diff_grid,
    find_matching_q,
    gaussian_rho,
    norm_inv,
    ols_fit,
    plain_var,
    simulate,
)
from factorrisk import core, regression, scalar
from factorrisk.core import _map
from factorrisk.regression import RegressionFit


def phi(x: float) -> float:
    if x <= 0:
        return 0.5 * math.erfc(-x / math.sqrt(2))
    return 1.0 - 0.5 * math.erfc(x / math.sqrt(2))


def norm_inv_bisect(p: float) -> float:
    """Bisection on the normal CDF, evaluated in the nearer tail for accuracy."""
    lo, hi = -40.0, 40.0
    if p < 0.5:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(-mid / math.sqrt(2)) < p:
                lo = mid
            else:
                hi = mid
    else:
        survival_target = 1.0 - p
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(mid / math.sqrt(2)) > survival_target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


class TestNormInv:
    def test_symmetry_at_half(self):
        assert norm_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_points(self):
        assert norm_inv(0.975) == pytest.approx(1.959963985, abs=1e-9)
        assert norm_inv(0.841344746) == pytest.approx(1.0, abs=1e-6)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(91)
        levels = np.concatenate([rng.random(1000), [1e-9, 1e-5, 1 - 1e-5, 1 - 1e-9]])
        for p in levels:
            assert abs(norm_inv(float(p)) - norm_inv_bisect(float(p))) <= 1e-9

    def test_boundaries_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValidationError):
                norm_inv(bad)


class TestOlsFit:
    def test_noiseless_plant(self):
        w = np.linspace(-2.0, 3.0, 60)
        y = 2.0 + 3.0 * w
        fit = ols_fit(JointSample(y, w))
        assert fit.beta0 == pytest.approx(2.0, rel=1e-10)
        assert fit.beta[0] == pytest.approx(3.0, rel=1e-10)
        assert fit.sigma == pytest.approx(0.0, abs=1e-8)

    def test_noisy_plant_within_three_stderr(self):
        rng = np.random.default_rng(92)
        W = rng.standard_normal((10**4, 2))
        y = 0.5 + W @ np.array([1.0, -2.0]) + 0.1 * rng.standard_normal(10**4)
        fit = ols_fit(JointSample(y, W))
        target = np.array([0.5, 1.0, -2.0])
        assert np.all(np.abs(fit.coef - target) <= 3.0 * fit.stderr)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(93)
        W = rng.standard_normal((500, 3))
        y = 1.0 + W @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(500)
        fit = ols_fit(JointSample(y, W))
        X = np.column_stack([np.ones(500), JointSample(y, W).factors])
        r = fit.residuals
        for j in range(4):
            rel = abs(r @ X[:, j]) / (np.linalg.norm(r) * np.linalg.norm(X[:, j]))
            assert rel <= 1e-8

    def test_tstat_definition(self):
        rng = np.random.default_rng(94)
        W = rng.standard_normal((200, 1))
        y = W[:, 0] + 0.5 * rng.standard_normal(200)
        fit = ols_fit(JointSample(y, W))
        ok = fit.stderr > 0
        assert np.allclose(fit.tstat[ok], fit.coef[ok] / fit.stderr[ok])

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(95)
        w1 = rng.standard_normal(100)
        W = np.column_stack([w1, 2.0 * w1])
        y = w1 + rng.standard_normal(100)
        sample = JointSample(y, W, loss_name="y", factor_names=("a", "b"))
        with pytest.raises(RankDeficientError) as exc:
            ols_fit(sample)
        assert len(exc.value.columns) >= 1
        assert set(exc.value.columns) <= {"const", "a", "b"}

    @pytest.mark.parametrize("make, bad", [
        (lambda w, z: np.column_stack([w, 2.0 * w]), ("a",)),
        (lambda w, z: np.column_stack([w, np.full(w.size, 3.0)]), ("const",)),
        (lambda w, z: np.column_stack([w, z, np.zeros(w.size)]), ("c",)),
        (lambda w, z: np.column_stack([w, z, w - 0.5 * z]), ("a",)),
    ])
    def test_rank_check_equals_economic_pivoted_qr(self, make, bad):
        """The rank check reads R of a raw pivoted QR; its verdict and the
        named columns are those of the pivoted QR that forms Q."""
        from scipy import linalg as sla
        rng = np.random.default_rng(97)
        w, z = rng.standard_normal(100), rng.standard_normal(100)
        W = make(w, z)
        names = ("a", "b", "c")[:W.shape[1]]
        sample = JointSample(w + rng.standard_normal(100), W, loss_name="y", factor_names=names)
        X = np.column_stack([np.ones(100), sample.factors])
        _, r, piv = sla.qr(X, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int((diag > diag.max() * max(100 * np.finfo(float).eps, 1e-10)).sum())
        want = tuple((("const",) + names)[j] for j in sorted(piv[rank:]))
        with pytest.raises(RankDeficientError) as exc:
            ols_fit(sample)
        assert exc.value.columns == want == bad
        assert str(bad) in str(exc.value)

    @pytest.mark.parametrize("rows", [3000, 40_000])
    def test_coefficients_come_from_the_block_qr(self, rows):
        """The fit is the tall-skinny QR route of ``_block_route_coef``, bit
        for bit, in one block (3,000 rows) and in three (40,000)."""
        rng = np.random.default_rng(98)
        W = rng.standard_normal((rows, 4))
        sample = JointSample(0.2 + W @ np.arange(1.0, 5.0) + rng.standard_normal(rows), W)
        fit = ols_fit(sample)
        coef = _block_route_coef(sample.factors, sample.loss)
        assert fit.coef.tobytes() == coef.tobytes()
        want = sample.loss - (coef[0] + sample.factors @ coef[1:])
        assert fit.residuals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_badly_scaled_near_collinear_design(self, seed):
        """Columns scaled from 1e-3 to 1e3 and a full-rank pair at correlation
        0.99995 make the pivot order differ from the column order.  The fit
        agrees with lstsq and with the exact rational solution of the normal
        equations; lstsq runs on the design with unit column norms, since on
        the raw columns its SVD route is itself about 1e-11 off the exact
        solution here."""
        from fractions import Fraction
        from scipy import linalg as sla
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((400, 5))
        W = np.column_stack([1e-3 * z[:, 0], 1e3 * z[:, 1], z[:, 2],
                             z[:, 2] + 1e-2 * z[:, 3], 10.0 * z[:, 4]])
        sample = JointSample(0.5 + W @ np.array([2e3, -2e-3, 1.0, -1.0, 0.3])
                             + rng.standard_normal(400), W)
        X = np.column_stack([np.ones(400), sample.factors])
        assert sla.qr(X, mode="raw", pivoting=True)[2].tolist() != list(range(6))
        fit = ols_fit(sample)
        norms = np.linalg.norm(X, axis=0)
        scaled = X / norms
        lstsq = np.linalg.lstsq(scaled, sample.loss, rcond=None)[0] / norms
        assert np.all(np.abs(fit.coef - lstsq) <= 1e-12 * np.maximum(1.0, np.abs(lstsq)))
        rows = [[Fraction(v) for v in row] for row in X.tolist()]
        target = [Fraction(v) for v in sample.loss.tolist()]
        gram = [[sum(row[i] * row[j] for row in rows) for j in range(6)] for i in range(6)]
        rhs = [sum(row[i] * t for row, t in zip(rows, target)) for i in range(6)]
        for c in range(6):  # Gauss-Jordan elimination, exact
            for i in range(6):
                if i != c:
                    f = gram[i][c] / gram[c][c]
                    gram[i] = [u - f * v for u, v in zip(gram[i], gram[c])]
                    rhs[i] -= f * rhs[c]
        exact = np.array([float(rhs[i] / gram[i][i]) for i in range(6)])
        assert np.all(np.abs(fit.coef - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))
        want = fit.sigma * np.sqrt(np.diag(np.linalg.inv(scaled.T @ scaled))) / norms
        assert np.all(np.abs(fit.stderr - want) <= 1e-9 * want)

    @pytest.mark.parametrize("rows, blocks", [(500, 1), (2**14, 1), (40_000, 3)])
    def test_block_qr_forms_no_q(self, monkeypatch, rows, blocks):
        """A fit runs one unpivoted ``geqrf`` per row block of [1 | W | y],
        one more on the stacked R blocks (one block too), and one
        pivoted ``qr_multiply`` on the (N+1) x (N+1) R of [1 | W], whose
        LAPACK calls are one pivoted factorization and one product with the
        stored reflectors: no Q formed, no least-squares solver."""
        import scipy.linalg
        import scipy.linalg._decomp_qr as decomp_qr
        calls, geqrf, lapack = [], [], []
        for module, name in [(scipy.linalg, "qr"), (scipy.linalg, "qr_multiply"),
                             (scipy.linalg, "lstsq"), (np.linalg, "qr"), (np.linalg, "lstsq")]:
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        real_funcs = scipy.linalg.get_lapack_funcs

        def wrap(name, func):
            def call(a, *args, **kwargs):
                geqrf.append((name, a.shape))
                return func(a, *args, **kwargs)
            return call

        def funcs_spy(names, *args, **kwargs):
            return [wrap(n, f) for n, f in zip(names, real_funcs(names, *args, **kwargs))]

        def lapack_spy(names, *args, **kwargs):
            lapack.extend(names)
            return real_funcs(names, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", funcs_spy)
        monkeypatch.setattr(decomp_qr, "get_lapack_funcs", lapack_spy)
        rng = np.random.default_rng(99)
        W = rng.standard_normal((rows, 3))
        ols_fit(JointSample(W.sum(axis=1) + rng.standard_normal(rows), W))
        sizes = [min(2**14, rows - s) for s in range(0, rows, 2**14)]
        want = [("geqrf", (b, 5)) for b in sizes] + [("geqrf", (5 * blocks, 5))]
        # the block QRs run on the cores in any order; the stacked R is factored last
        assert sorted(geqrf[:-1]) == sorted(want[:-1])
        assert geqrf[-1] == want[-1]
        assert calls == [("qr_multiply", (4, 4))]
        assert sorted(lapack) == ["geqp3", "ormqr"]

    def test_block_qr_builds_no_design(self):
        """At 3e5 rows and 7 factors the design [1 | W] alone would take
        19 MB; the fit's traced allocations (its blocks, the residuals and
        one product W @ beta) peak within 10 MB."""
        import tracemalloc
        rng = np.random.default_rng(100)
        W = rng.standard_normal((300_000, 7))
        sample = JointSample(W.sum(axis=1) + rng.standard_normal(300_000), W)
        ols_fit(JointSample(np.arange(5.0) ** 2, np.arange(5.0)))  # loads scipy
        tracemalloc.start()
        try:
            ols_fit(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_zero_residual_fit_has_nan_inference(self):
        fit = ols_fit(JointSample(np.zeros(10), np.arange(10.0)))
        assert not fit.residuals.any()
        assert np.all(fit.stderr == 0)
        assert np.isnan(fit.tstat).all() and np.isnan(fit.pvalue).all()

    def test_fit_weighs_every_row_equally(self):
        """Sample weights do not enter the fit: weights 1..50 fit the bits
        of the unweighted sample."""
        data = simulate(0.1, [1.0, -0.5], 0.8, GaussianFactorSpec(np.zeros(2), np.eye(2)), 50,
                        seed=2)
        weighted = ols_fit(JointSample(data.loss, data.factors, np.arange(1.0, 51.0)))
        plain = ols_fit(data)
        for name in ("coef", "stderr", "residuals"):
            assert getattr(weighted, name).tobytes() == getattr(plain, name).tobytes(), name
        assert weighted.sigma.hex() == plain.sigma.hex()


def _block_route_coef(W, y):
    """The block route through ``scipy.linalg.qr``: R of [1 | W | y] per
    block of 2**14 rows, R of the stacked blocks, and the coefficients from
    the pivoted QR of R's leading (N+1) x (N+1) part and its last column."""
    from scipy import linalg as sla
    k = W.shape[1] + 1

    def r_of(a):  # the top k + 1 rows of R, all that are not zero
        return sla.qr(a, mode="r")[0][:k + 1]

    augmented = np.column_stack([np.ones(y.size), W, y])
    blocks = [r_of(augmented[s:s + 2**14]) for s in range(0, y.size, 2**14)]
    r_all = blocks[0] if len(blocks) == 1 else r_of(np.vstack(blocks))
    qty, r, piv = sla.qr_multiply(r_all[:k, :k], r_all[:k, k], mode="right", pivoting=True)
    coef = np.empty(k)
    coef[piv] = sla.solve_triangular(r, qty)
    return coef


class TestBlockEdges:
    """Fits whose row count sits at an edge of the 2**14-row blocks: N + 2
    rows, a block one row short, one full block, and one, two or three full
    blocks followed by a last block of 1, 1 or 3 rows, fewer than the 6
    columns of [1 | W | y]."""

    @pytest.mark.parametrize("rows", [6, 2**14 - 1, 2**14, 2**14 + 1, 2 * 2**14 + 1,
                                      3 * 2**14 + 3])
    def test_fit_agrees_with_lstsq(self, rows):
        rng = np.random.default_rng(rows)
        W = rng.standard_normal((rows, 4)) * np.array([1e-2, 1.0, 10.0, 1e3])
        sample = JointSample(0.5 + W @ np.array([3.0, -1.0, 0.2, 1e-3])
                             + rng.standard_normal(rows), W)
        fit = ols_fit(sample)
        X = np.column_stack([np.ones(rows), sample.factors])
        norms = np.linalg.norm(X, axis=0)
        scaled = X / norms
        lstsq = np.linalg.lstsq(scaled, sample.loss, rcond=None)[0] / norms
        assert np.all(np.abs(fit.coef - lstsq) <= 1e-12 * np.maximum(1.0, np.abs(lstsq)))
        want = fit.sigma * np.sqrt(np.diag(np.linalg.inv(scaled.T @ scaled))) / norms
        assert np.all(np.abs(fit.stderr - want) <= 1e-9 * want)

    @pytest.mark.parametrize("make, bad", [
        (lambda w, z: np.column_stack([w, 2.0 * w]), ("a",)),
        (lambda w, z: np.column_stack([w, np.full(w.size, 3.0)]), ("const",)),
        (lambda w, z: np.column_stack([w, z, np.zeros(w.size)]), ("c",)),
        (lambda w, z: np.column_stack([w, z, w - 0.5 * z]), ("a",)),
    ])
    def test_rank_check_across_blocks(self, make, bad):
        """At 40,000 rows (three blocks) the verdict and the named columns
        are those of the pivoted QR of the whole design."""
        from scipy import linalg as sla
        rows = 40_000
        rng = np.random.default_rng(97)
        w, z = rng.standard_normal(rows), rng.standard_normal(rows)
        W = make(w, z)
        names = ("a", "b", "c")[:W.shape[1]]
        sample = JointSample(w + rng.standard_normal(rows), W, loss_name="y", factor_names=names)
        X = np.column_stack([np.ones(rows), sample.factors])
        _, r, piv = sla.qr(X, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int((diag > diag.max() * max(rows * np.finfo(float).eps, 1e-10)).sum())
        want = tuple((("const",) + names)[j] for j in sorted(piv[rank:]))
        with pytest.raises(RankDeficientError) as exc:
            ols_fit(sample)
        assert exc.value.columns == want == bad


class TestOlsInferenceMatchesStudentT:
    """The p-values and 95% intervals equal the ``scipy.stats.t`` route bit for bit."""

    @pytest.mark.parametrize("rows, n_fac, noise", [
        (3, 1, 1.0),          # dof = 1
        (300, 3, 1.0),
        (300_000, 1, 1.0),
        (1_000, 2, 1e-6),     # |t| ~ 1e7: the p-value underflows to 0
    ])
    def test_bit_equal_to_scipy_stats(self, rows, n_fac, noise):
        rng = np.random.default_rng(rows)
        W = rng.standard_normal((rows, n_fac))
        fit = ols_fit(JointSample(0.3 + W.sum(axis=1) + noise * rng.standard_normal(rows), W))
        assert fit.dof == rows - n_fac - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = np.where(fit.stderr > 0, fit.coef / fit.stderr, np.nan)
        pvalue = np.where(np.isfinite(tstat), 2.0 * stats.t.sf(np.abs(tstat), fit.dof), np.nan)
        tcrit = float(stats.t.ppf(0.975, fit.dof))
        ci95 = np.column_stack([fit.coef - tcrit * fit.stderr, fit.coef + tcrit * fit.stderr])
        assert np.array_equal(fit.tstat, tstat, equal_nan=True)
        assert np.array_equal(fit.pvalue, pvalue, equal_nan=True)
        assert np.array_equal(fit.ci95, ci95, equal_nan=True)
        if noise < 1e-3:
            assert np.all(fit.pvalue[1:] == 0.0)


def test_package_import_loads_no_scipy():
    """Importing the package and its CLI loads numpy only; ``ols_fit`` loads
    scipy's linear algebra and special functions, never ``scipy.stats``."""
    code = (
        "import sys, numpy as np, factorrisk, factorrisk.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "factorrisk.ols_fit(factorrisk.JointSample(np.arange(5.0) ** 2, np.arange(5.0)))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(factorrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout.splitlines()
    assert out == ["[]", "False"]


def test_package_import_loads_no_thread_pool():
    """``import factorrisk`` starts no thread and loads no
    ``concurrent.futures``.  A grid whose rows run on helper threads, plain
    ``threading.Thread`` s, leaves no thread and loads no thread pool
    (``concurrent.futures.thread``; scipy's linear algebra, which
    ``ols_fit`` loads, imports ``concurrent.futures`` itself)."""
    code = (
        "import sys, threading, numpy as np, factorrisk\n"
        "from factorrisk import core, regression\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        "core._cpus, regression._MIN_ITEM_ROWS = (lambda: 2), 0\n"
        "data = factorrisk.JointSample(np.arange(50.0) % 7, np.arange(50.0))\n"
        "factorrisk.diff_grid(factorrisk.ols_fit(data), data, [0.9, 0.95], [0.5])\n"
        "print('concurrent.futures.thread' in sys.modules, threading.active_count())\n"
    )
    src = str(Path(factorrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout.splitlines()
    assert out == ["False 1", "False 1"]


class TestSimulate:
    def test_deterministic_under_seed(self):
        spec = GaussianFactorSpec(np.zeros(2), np.eye(2))
        one = simulate(0.1, [1.0, -1.0], 0.5, spec, 1000, seed=7)
        two = simulate(0.1, [1.0, -1.0], 0.5, spec, 1000, seed=7)
        assert np.array_equal(one.loss, two.loss)
        assert np.array_equal(one.factors, two.factors)

    def test_sigma_zero_exact_affine(self):
        spec = DiscreteFactorSpec(np.array([0.0, 1.0, 2.0]))
        data = simulate(1.0, [2.0], 0.0, spec, 500, seed=3)
        assert np.allclose(data.loss, 1.0 + 2.0 * data.factors[:, 0])

    def test_mean_within_clt_bound(self):
        n = 10**5
        spec = GaussianFactorSpec(np.array([1.0]), np.array([[4.0]]))
        data = simulate(2.0, [0.5], 1.0, spec, n, seed=11)
        model_sd = math.sqrt(0.25 * 4.0 + 1.0)
        assert abs(data.loss.mean() - 2.5) <= 4.0 * model_sd / math.sqrt(n)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianFactorSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGaussianRho:
    def test_million_draw_checkpoint(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 10**6, seed=123)
        fit = ols_fit(data)
        value = gaussian_rho(fit, data, 0.975, 0.5)
        assert value == pytest.approx(1.959964, abs=0.01)

    def test_sigma_zero_reduces_to_factor_quantile(self):
        spec = DiscreteFactorSpec(np.arange(10.0))
        data = simulate(1.0, [1.0], 0.0, spec, 5000, seed=5)
        fit = ols_fit(data)
        from factorrisk import StepCDF, var

        idx = data.factors @ fit.beta
        expected = fit.beta0 + var(StepCDF.from_values(idx, data.weights), 0.7)
        assert gaussian_rho(fit, data, 0.5, 0.7) == pytest.approx(expected, abs=1e-10)

    def test_beta_zero_ignores_q(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal(800)
        y = np.full(800, 3.0)
        fit = ols_fit(JointSample(y, w))
        data = JointSample(y, w)
        a = gaussian_rho(fit, data, 0.9, 0.2)
        b = gaussian_rho(fit, data, 0.9, 0.8)
        assert a == pytest.approx(b, abs=1e-10)
        assert a == pytest.approx(fit.beta0 + fit.sigma * norm_inv(0.9), abs=1e-10)


class TestDiffGrid:
    def test_factor_free_model_diff_zero(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal(2000)
        y = np.full(2000, 2.5)
        sample = JointSample(y, w)
        fit = ols_fit(sample)
        grid = diff_grid(fit, sample, [0.9, 0.95], [0.3, 0.6], master_seed=1)
        assert np.all(np.abs(grid.diff) <= 1e-10)

    def test_analytic_checkpoint(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 10**6, seed=123)
        fit = ols_fit(data)
        grid = diff_grid(fit, data, [0.975], [0.5], master_seed=99)
        assert grid.diff[0] == pytest.approx(1 / math.sqrt(2) - 1, abs=0.01)

    def test_monotone_in_q_within_rows(self):
        spec = GaussianFactorSpec(np.zeros(2), np.eye(2))
        data = simulate(0.5, [1.0, 0.5], 0.8, spec, 20000, seed=21)
        fit = ols_fit(data)
        grid = diff_grid(fit, data, [0.9, 0.95, 0.975], [0.4, 0.5, 0.7, 0.9],
                         master_seed=2)
        n_q = grid.q_values.size
        for i in range(grid.p_values.size):
            row = grid.diff[i * n_q:(i + 1) * n_q]
            assert np.all(np.diff(row) >= 0)
            assert np.all(grid.rho_plain[i * n_q:(i + 1) * n_q]
                          == grid.rho_plain[i * n_q])

    def test_row_order_is_p_major(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 5000, seed=31)
        fit = ols_fit(data)
        grid = diff_grid(fit, data, [0.9, 0.95], [0.5, 0.6], master_seed=3)
        assert grid.p.tolist() == [0.9, 0.9, 0.95, 0.95]
        assert grid.q.tolist() == [0.5, 0.6, 0.5, 0.6]
        assert grid.n_rows == 4

    def test_plain_modes(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 50000, seed=41)
        fit = ols_fit(data)
        model = plain_var(fit, data, 0.95, "model", master_seed=1)
        emp = plain_var(fit, data, 0.95, "empirical")
        target = math.sqrt(2.0) * norm_inv(0.95)
        for value in (model, emp):
            assert value == pytest.approx(target, abs=0.05)

    def test_empirical_mode_has_no_randomness(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 5000, seed=51)
        fit = ols_fit(data)
        a = plain_var(fit, data, 0.9, "empirical", master_seed=1)
        b = plain_var(fit, data, 0.9, "empirical", master_seed=999)
        assert a == b


class TestFindMatchingQ:
    def test_gaussian_fixture_matches_analytic_solve(self):
        spec = GaussianFactorSpec(np.zeros(1), np.eye(1))
        data = simulate(0.0, [1.0], 1.0, spec, 10**6, seed=123)
        fit = ols_fit(data)
        q0 = find_matching_q(fit, data, 0.975, master_seed=99)
        analytic = phi((math.sqrt(2.0) - 1.0) * norm_inv_bisect(0.975))
        assert q0 == pytest.approx(analytic, abs=0.01)
        # the returned level brackets the sign change of diff
        lo = gaussian_rho(fit, data, 0.975, max(q0 - 0.01, 1e-6))
        hi = gaussian_rho(fit, data, 0.975, min(q0 + 0.01, 1 - 1e-6))
        plain = plain_var(fit, data, 0.975, "model", master_seed=99, row_index=0)
        assert lo / plain - 1.0 <= 1e-6
        assert hi / plain - 1.0 >= -1e-6

    def test_no_sign_change_rejected_with_boundary_diffs(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal(2000)
        y = np.full(2000, 2.5)
        sample = JointSample(y, w)
        fit = ols_fit(sample)
        with pytest.raises(ValidationError, match="diff"):
            find_matching_q(fit, sample, 0.95, master_seed=1)


def _reference_grid(fit, data, p_values, q_values, mode, seed):
    """The grid cell by cell: one plain_var per p row (each refitting the
    values or rebuilding the loss law), one gaussian_rho per cell."""
    rf, rp = [], []
    for i, p in enumerate(p_values):
        plain = plain_var(fit, data, p, mode, seed, i)
        for q in q_values:
            rf.append(gaussian_rho(fit, data, p, q))
            rp.append(plain)
    return np.array(rf), np.array(rp)


def _reference_matching_q(fit, data, p, seed, tol, max_iter=60):
    """The former find_matching_q: a bisection of diff over q that
    re-evaluates gaussian_rho at every step."""
    plain = plain_var(fit, data, p, "model", seed, 0)

    def diff_at(q):
        return gaussian_rho(fit, data, p, q) / plain - 1.0

    lo, hi = 1e-9, 1.0 - 1e-9
    d_lo = diff_at(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        d_mid = diff_at(mid)
        if abs(d_mid) <= tol:
            return mid
        if (d_mid < 0) == (d_lo < 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sorted_matching_q(fit, data, p, seed):
    """F_L(c-) read off the sorted factor index: the rows whose diff, one
    Python float expression per row, keeps the sign of the smallest row's;
    their count over T for equal weights, else the law's cum at the last of
    their values (checked against the correctly rounded sum of their weights)."""
    plain = plain_var(fit, data, p, "model", seed, 0)
    index = data.factors @ fit.beta
    order = np.argsort(index, kind="stable")
    x, w = index[order].tolist(), data.weights[order]
    shift = fit.sigma * norm_inv(p)
    diffs = [(fit.beta0 + v + shift) / plain - 1.0 for v in x]
    below = diffs[0] < 0
    count = next(i for i, d in enumerate(diffs) if (d < 0) != below or d == 0)
    if (w == w[0]).all():
        return count / len(x)
    law = StepCDF.from_values(index, data.weights)
    q0 = float(law.cum[len(set(x[:count])) - 1])
    assert abs(q0 - math.fsum(w[:count].tolist())) <= 1e-12
    return q0


def _vectorized_matching_q(fit, data, p, mode):
    """find_matching_q as one vectorized diff over every point: the count of
    points whose diff has the sign of diff(1e-9); None where diff keeps its sign."""
    plain = plain_var(fit, data, p, mode)
    index, shift = data.factors @ fit.beta, fit.sigma * norm_inv(p)
    if (data.weights == data.weights[0]).all():
        points, cum = index, None
        ends = np.array([scalar.quantiles(index, None, 1e-9),
                         scalar.quantiles(index, None, 1.0 - 1e-9)])
    else:
        law = StepCDF.from_values(index, data.weights)
        points, cum = law.support, law.cum
        ends = scalar.var(law, [1e-9, 1.0 - 1e-9])
    d_lo, d_hi = ((fit.beta0 + ends + shift) / plain - 1.0).tolist()
    if not (d_lo < 0 < d_hi or d_hi < 0 < d_lo):
        return None
    diff = (fit.beta0 + points + shift) / plain - 1.0
    count = np.count_nonzero(diff < 0 if d_lo < 0 else diff > 0)
    return count / points.size if cum is None else float(cum[count - 1])


# integer values tie with each other and with an integer match point; +-0.0 are one point
_POINTS = st.one_of(st.integers(-6, 6).map(float), st.sampled_from([-0.0, 0.0]),
                    st.floats(-8, 8))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(_POINTS, min_size=2, max_size=40),
       beta0=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-4, 4)),
       shift=st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-4, 4)),
       plain=st.one_of(st.integers(-6, 6).map(float), st.floats(-8, 8)).filter(bool))
def test_threshold_count_equals_the_vectorized_count(points, beta0, shift, plain):
    """diff(x) = (beta0 + x + shift) / plain - 1 is monotone in x (rising for
    plain > 0, falling for plain < 0), so the points where it keeps the sign
    of diff(min) are those below one threshold: np.count_nonzero of the
    vectorized diff, the equal-weight route's count, for either sign of plain."""
    points = np.array(points)
    ends = [points.min() + 0.0, points.max() + 0.0]
    with np.errstate(over="ignore"):  # a tiny plain: diff overflows to +-inf, still monotone
        d_lo, d_hi = ((beta0 + np.array(ends) + shift) / plain - 1.0).tolist()
        diff = (beta0 + points + shift) / plain - 1.0
    assume(d_lo < 0 < d_hi or d_hi < 0 < d_lo)
    want = np.count_nonzero(diff < 0 if d_lo < 0 else diff > 0)

    def keeps_sign(x):
        d = (beta0 + x + shift) / plain - 1.0
        return d < 0 if d_lo < 0 else d > 0
    assert np.count_nonzero(points < regression._threshold(keeps_sign, *ends)) == want


def _index_fit(beta0, beta, sigma):
    """A fit holding only what find_matching_q and plain_var read."""
    nan = np.full(2, np.nan)
    return RegressionFit(beta0=beta0, beta=np.array([beta]), sigma=sigma, stderr=nan,
                         tstat=nan, pvalue=nan, ci95=np.full((2, 2), np.nan),
                         residuals=nan, dof=1, names=("const", "W1"))


@settings(max_examples=200, deadline=None)
@given(st.data())
@pytest.mark.parametrize("weighted", [False, True], ids=["equal", "weighted"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain>0", "plain<0"])
def test_matching_q_equals_the_vectorized_count(weighted, sign, data):
    """find_matching_q's threshold count is the vectorized count, on the
    equal-weight route and the weighted law's support, with integer indices
    tied at the match point; its value is a Python float either way."""
    n = data.draw(st.integers(2, 30))
    factor = data.draw(st.lists(_POINTS, min_size=n, max_size=n))
    loss = data.draw(st.lists(st.integers(1, 6).map(float) | st.floats(0.5, 8), min_size=n,
                              max_size=n))
    weights = (data.draw(st.lists(st.integers(1, 4).map(float), min_size=n, max_size=n))
               if weighted else None)
    sample = JointSample(sign * np.array(loss), factor, weights)
    fit = _index_fit(data.draw(st.sampled_from([0.0, 1.0, -0.5])),
                     data.draw(st.sampled_from([1.0, -1.0, 0.5])),
                     data.draw(st.sampled_from([0.0, 0.25])))
    p = data.draw(st.floats(0.05, 0.95))
    want = _vectorized_matching_q(fit, sample, p, "empirical")
    if want is None:
        with pytest.raises(ValidationError, match="does not change sign"):
            find_matching_q(fit, sample, p, "empirical")
        return
    got = find_matching_q(fit, sample, p, "empirical")
    assert type(got) is float and got.hex() == want.hex()


def _one_array_quantile(fitted, sigma, seed, p):
    """scalar.quantiles(fitted + sigma * z, None, p), z the (seed, row 0)
    stream drawn at once, as bytes, or the error it raises."""
    values = fitted + sigma * core._rng(seed, 0).standard_normal(fitted.size)
    try:
        return np.float64(scalar.quantiles(values, None, p)).tobytes()
    except ValidationError as exc:
        return str(exc)


def _lone_level(data, n):
    """A level p near the rank the test draws: k = 0, k = n - 1 or between,
    each at its boundary (C / n) or just above it; and 1, 2 or 4 CPUs."""
    c = data.draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
                  | st.integers(max(n - 5, 0), n - 1), label="rank")
    p = data.draw(st.sampled_from([c / n, float(np.nextafter(c / n, 1.0))])
                  .filter(lambda x: 0 < x < 1), label="p")
    return p, data.draw(st.sampled_from([1, 2, 4]), label="cpus")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_lone_drawn_level_is_the_one_array_quantile(data):
    """Model plain_var on equally weighted rows draws its noise in two
    halves and reads them on two threads (regression._split_var); it is
    scalar.quantiles(fit.fitted(W) + sigma * z, None, p) of the same stream
    bit for bit: odd and even T, 1, 2 and 4 CPUs with no floor on rows per
    item, k = 0, k = n - 1 and between, heavy ties (sigma = 0 on integer
    factors), and a non-finite end (beta0 = +-inf or NaN), which raises the
    one array's error."""
    n = data.draw(st.integers(1, 64), label="rows")
    ties = data.draw(st.booleans(), label="ties")
    factor = data.draw(st.lists(st.integers(-3, 3).map(float) if ties else st.floats(-8, 8),
                                min_size=n, max_size=n))
    beta0 = data.draw(st.sampled_from([0.0, 1.0, -0.5, np.inf, -np.inf, np.nan]), label="beta0")
    fit = _index_fit(beta0, data.draw(st.sampled_from([1.0, -2.0])),
                     0.0 if ties else data.draw(st.sampled_from([0.25, 3.0])))
    sample = JointSample(np.zeros(n), factor)
    p, cpus = _lone_level(data, n)
    seed = data.draw(st.integers(0, 2**32))
    want = _one_array_quantile(fit.fitted(sample.factors), fit.sigma, seed, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regression, "_MIN_ITEM_ROWS", 0)
        mp.setattr(core, "_cpus", lambda: cpus)
        try:
            got = np.float64(_threads_after(
                lambda: plain_var(fit, sample, p, "model", seed))).tobytes()
        except ValidationError as exc:
            got = str(exc)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_split_read_keeps_both_zeros_and_the_first_bad_value(data):
    """regression._split_var on fitted values that a fit cannot make, written
    by its index item: -0.0 beside 0.0 (sigma = 0 keeps both signs), heavy
    ties, and infinities and NaN in either half.  Each is the one array's
    quantile bit for bit, or the one array's error, naming the same first
    non-finite value."""
    n = data.draw(st.integers(1, 64), label="rows")
    specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    values = np.array(data.draw(st.lists(specials | st.floats(-1e6, 1e6), min_size=n,
                                         max_size=n)))
    sigma = data.draw(st.sampled_from([0.0, 1.0]), label="sigma")
    p, cpus = _lone_level(data, n)
    seed = data.draw(st.integers(0, 2**32))
    want = _one_array_quantile(values, sigma, seed, p)
    fitted = np.empty(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regression, "_MIN_ITEM_ROWS", 0)
        mp.setattr(core, "_cpus", lambda: cpus)
        try:
            got = np.float64(_threads_after(lambda: regression._split_var(
                sigma, core._rng(seed, 0), p, [partial(np.copyto, fitted, values)],
                fitted))).tobytes()
        except ValidationError as exc:
            got = str(exc)
    assert got == want


def _gaussian_sample():
    spec = GaussianFactorSpec(np.zeros(3), np.eye(3))
    return simulate(0.5, [1.0, -0.5, 0.25], 0.8, spec, 4000, seed=61)


def _weighted_sample():
    data = _gaussian_sample()
    weights = np.random.default_rng(62).random(data.n_rows)
    return JointSample(data.loss, data.factors, weights)


def _tied_sample():
    # integer factors and coefficients: many rows share one index value
    spec = DiscreteFactorSpec(np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]], float))
    return simulate(1.0, [2.0, 2.0], 0.5, spec, 3000, seed=63)


SAMPLES = [_gaussian_sample, _weighted_sample, _tied_sample]


class TestIndexLawBuiltOnce:
    P = [0.9, 0.95, 0.975, 0.99]
    Q = [0.1, 0.25, 0.5, 0.75, 0.9, 0.999]

    @pytest.mark.parametrize("make", SAMPLES)
    @pytest.mark.parametrize("mode", ["model", "empirical"])
    def test_grid_equals_cell_by_cell_route(self, make, mode):
        data = make()
        fit = ols_fit(data)
        grid = diff_grid(fit, data, self.P, self.Q, plain_mode=mode, master_seed=7)
        rf, rp = _reference_grid(fit, data, self.P, self.Q, mode, 7)
        assert np.array_equal(grid.rho_factor, rf)
        assert np.array_equal(grid.rho_plain, rp)

    @pytest.mark.parametrize("make", SAMPLES)
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_matching_q_equals_stepwise_route(self, make, tol):
        # q0 is F_L(c-) read off the sorted index, whatever tol, and the former
        # bisection (tol=0) converges to it within 1 ulp
        data = make()
        fit = ols_fit(data)
        q0 = find_matching_q(fit, data, 0.95, master_seed=8, tol=tol)
        assert q0 == _sorted_matching_q(fit, data, 0.95, 8)
        assert abs(q0 - _reference_matching_q(fit, data, 0.95, 8, 0.0)) <= np.spacing(q0)

    def test_tol_has_no_effect(self):
        data = _gaussian_sample()
        fit = ols_fit(data)
        q0 = find_matching_q(fit, data, 0.95, master_seed=8)
        for tol in (0.0, 1e-6, 0.5):
            assert find_matching_q(fit, data, 0.95, master_seed=8, tol=tol) == q0
        for tol in (math.nan, -1e-6):
            with pytest.raises(ValidationError, match="tol"):
                find_matching_q(fit, data, 0.95, master_seed=8, tol=tol)

    def test_grid_rejects_out_of_range_level(self):
        data = _gaussian_sample()
        fit = ols_fit(data)
        for p_values, q_values in (([0.9, 1.0], [0.5]), ([0.9], [0.0, 0.5])):
            with pytest.raises(ValidationError, match="levels"):
                diff_grid(fit, data, p_values, q_values)


def _one_cpu(call):
    """``call()`` with one usable CPU (``core._cpus``): every piece runs inline."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_cpus", lambda: 1)
        return call()


def _threads_after(call):
    """``call()``'s result, checking that it left no thread running."""
    before = threading.active_count()
    result = call()
    assert threading.active_count() == before
    return result


class TestWorkOnEveryCore:
    """``ols_fit``'s row blocks, the index's row ranges, a grid's p rows,
    the one level's draw beside the index (in two halves, the first read on
    the helper, under equal weights) and an empirical grid's two sorts
    run on the caller and helper threads (``core._map``), with the bits of
    one thread: the process's usable CPUs, and four CPUs (three helpers on
    any host), give the bytes of one CPU.  The floor on rows per item is
    patched to 0, so the small samples here spread too, except where a test
    sizes its sample around the real floor; what stays under it is
    ``test_small_calls_stay_on_the_caller``'s."""

    CPUS = [None, 4]

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(regression, "_MIN_ITEM_ROWS", 0)
        if cpus is not None:
            monkeypatch.setattr(core, "_cpus", lambda: cpus)

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("rows, weighted", [(500, False), (2 * 2**14 + 1, False),
                                                (2 * 2**14 + 1, True)])
    def test_fit_bytes(self, monkeypatch, cpus, rows, weighted):
        rng = np.random.default_rng(rows)
        W = rng.standard_normal((rows, 4))
        weights = rng.random(rows) + 0.1 if weighted else None
        sample = JointSample(0.3 + W @ [1.0, -0.5, 0.2, 0.1] + rng.standard_normal(rows), W,
                             weights)
        want = _one_cpu(lambda: ols_fit(sample))
        self._cpus(monkeypatch, cpus)
        got = _threads_after(lambda: ols_fit(sample))
        for name in ("coef", "stderr", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.sigma.hex() == want.sigma.hex()

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("mode", ["model", "empirical"])
    @pytest.mark.parametrize("make", [_gaussian_sample, _weighted_sample],
                             ids=["equal", "weighted"])
    def test_grid_bytes_and_rows(self, monkeypatch, cpus, mode, make):
        data = make()
        fit = ols_fit(data)
        p_values, q_values = [0.9, 0.95, 0.975, 0.99, 0.995], [0.5, 0.9]
        want = _one_cpu(lambda: diff_grid(fit, data, p_values, q_values, mode, 7))
        self._cpus(monkeypatch, cpus)
        got = _threads_after(lambda: diff_grid(fit, data, p_values, q_values, mode, 7))
        for name in ("rho_factor", "rho_plain", "diff"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        rows = [plain_var(fit, data, p, mode, 7, row_index=i) for i, p in enumerate(p_values)]
        assert np.array(rows).tobytes() == got.rho_plain[::len(q_values)].tobytes()

    @pytest.mark.parametrize("rows", [2**14 - 1, 2**14 + 1, 2 * 2**14 + 1])
    @pytest.mark.parametrize("mode", ["model", "empirical"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["equal", "weighted"])
    def test_plain_match_and_grid_bytes_at_the_floor(self, monkeypatch, rows, mode, weighted):
        """At the real floor, on each side of it and with a one-row last
        block: plain_var, find_matching_q (a Python float on both routes) and
        the grid at 1, 2 and 4 CPUs are the bytes of one CPU."""
        rng = np.random.default_rng(rows)
        W = rng.standard_normal((rows, 3))
        weights = rng.random(rows) + 0.1 if weighted else None
        data = JointSample(0.5 + W @ [1.0, -0.5, 0.25] + 0.8 * rng.standard_normal(rows), W,
                           weights)
        fit = ols_fit(data)

        def outputs():
            grid = diff_grid(fit, data, [0.9, 0.95, 0.99], [0.5, 0.9], mode, 7)
            q0 = find_matching_q(fit, data, 0.95, mode, 7)
            assert type(q0) is float
            return (np.array([plain_var(fit, data, 0.95, mode, 7, 2), q0]).tobytes(),
                    grid.rho_factor.tobytes(), grid.rho_plain.tobytes(), grid.diff.tobytes())
        want = _one_cpu(outputs)
        for cpus in (2, 4):
            monkeypatch.setattr(core, "_cpus", lambda: cpus)
            assert _threads_after(outputs) == want, cpus

    def test_split_draw_under_stress(self, monkeypatch):
        """The index item reads the first half of the noise only once it is
        drawn, and the caller reads the second only once the index item has
        written the fitted values: under a 1 us switch interval, model
        plain_var at 100 seeds (so no half can hold the last call's draw)
        is the one-array quantile, bit for bit."""
        self._cpus(monkeypatch, 4)
        data = _gaussian_sample()
        fit = ols_fit(data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [np.float64(_threads_after(lambda: plain_var(fit, data, 0.95, "model", seed)))
                   .tobytes() for seed in range(100)]
        finally:
            sys.setswitchinterval(interval)
        fitted = fit.fitted(data.factors)
        assert got == [_one_array_quantile(fitted, fit.sigma, seed, 0.95) for seed in range(100)]

    def test_map_keeps_order_and_reraises_a_helper_error(self, monkeypatch):
        """The results come back in item order; an error that only a helper
        thread meets raises in the caller, after the helpers have stopped."""
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        assert _threads_after(lambda: _map(lambda x: x * x, range(50))) == \
            [x * x for x in range(50)]
        caller, helper_took_one = threading.current_thread(), threading.Event()

        def fn(x):
            if threading.current_thread() is caller:
                # the caller holds its item until a helper has taken one
                assert helper_took_one.wait(60)
                return x
            helper_took_one.set()
            raise ValidationError("failed on a helper thread")
        with pytest.raises(ValidationError, match="failed on a helper thread"):
            _threads_after(lambda: _map(fn, [0, 1]))

    @pytest.mark.parametrize("failing", [0, 1])
    def test_map_stops_after_an_error(self, monkeypatch, failing):
        """The first error, on the caller or a helper, stops every thread
        after its current item: of 1,000 items that each sleep 1 ms (which
        releases the GIL), a few are taken, not all."""
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        taken = []

        def fn(x):
            taken.append(x)
            if x == failing:
                raise ValidationError("item failed")
            time.sleep(1e-3)
        with pytest.raises(ValidationError, match="item failed"):
            _threads_after(lambda: _map(fn, range(1000)))
        assert failing in taken and len(taken) < 100

    def test_map_takes_each_item_once_under_stress(self, monkeypatch):
        """Eight threads on any host and a 1 us switch interval: every item is
        taken by exactly one thread, and each result lands at its index."""
        monkeypatch.setattr(core, "_cpus", lambda: 8)
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _threads_after(lambda: _map(lambda x: taken.append(x) or -x, range(5000)))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(5000))
        assert got == [-x for x in range(5000)]

    def test_one_item_or_one_cpu_starts_no_thread(self, monkeypatch):
        caller, before = threading.current_thread(), threading.active_count()

        def fn(x):
            assert threading.current_thread() is caller
            assert threading.active_count() == before
            return -x
        monkeypatch.setattr(core, "_cpus", lambda: 4)
        assert _map(fn, [3]) == [-3] and _map(fn, []) == []
        assert _map(fn, range(5), inline=True) == [0, -1, -2, -3, -4]
        monkeypatch.setattr(core, "_cpus", lambda: 1)
        assert _map(fn, range(5)) == [0, -1, -2, -3, -4]

    def test_cpus_without_an_affinity_mask(self, monkeypatch):
        """Where the platform has no affinity mask, the host's CPU count, or 1
        when the host cannot tell."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert core._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core._cpus() == 1

    def test_small_calls_stay_on_the_caller(self, monkeypatch):
        """Under ``_MIN_ITEM_ROWS`` rows per item no thread starts at four
        CPUs: a grid on 4,000 rows (each drawn level 4,000 rows) and a fit
        whose second block holds one row; a fit of two full blocks spreads,
        one helper for its block QRs and one for its residual blocks."""
        started = []
        thread = threading.Thread

        def spy(*args, **kwargs):
            started.append(None)
            return thread(*args, **kwargs)
        monkeypatch.setattr(core, "_cpus", lambda: 4)
        monkeypatch.setattr(threading, "Thread", spy)
        data = _gaussian_sample()
        fit = _threads_after(lambda: ols_fit(data))
        _threads_after(lambda: diff_grid(fit, data, [0.9, 0.95, 0.99], [0.5], "model"))
        rng = np.random.default_rng(5)
        for rows in (2**14 + 1, 2 * 2**14):
            W = rng.standard_normal((rows, 2))
            _threads_after(lambda: ols_fit(JointSample(W @ [1.0, -0.5] + rng.random(rows), W)))
        assert len(started) == 2  # the two-block fit's helper, once per pass


def test_each_call_is_two_flat_passes(monkeypatch):
    """``gaussian_rho``, ``plain_var``, ``diff_grid`` and ``find_matching_q``
    make at most two ``_map`` calls each, at four CPUs with no floor on rows
    per item, and none starts inside another's item, on the caller or a
    helper (a nested map's threads would open heap arenas of their own).  A
    model grid sorts its index in the second call, beside its drawn levels."""
    data = _gaussian_sample()
    fit = ols_fit(data)
    monkeypatch.setattr(regression, "_MIN_ITEM_ROWS", 0)
    monkeypatch.setattr(core, "_cpus", lambda: 4)
    maps, nested, index_sorts = [], [], []
    running = threading.local()  # the map whose item this thread runs

    def spy_map(fn, items, inline=False):
        nested.append(getattr(running, "map", None))
        maps.append(None)
        number = len(maps)

        def item(x):
            outer, running.map = getattr(running, "map", None), number
            try:
                return fn(x)
            finally:
                running.map = outer
        return _map(item, items, inline)

    quantiles = scalar.quantiles

    def spy_quantiles(values, weights, levels):
        if np.ndim(levels) == 1 and values is not data.loss:  # the index's sort
            index_sorts.append(getattr(running, "map", None))
        return quantiles(values, weights, levels)
    monkeypatch.setattr(regression, "_map", spy_map)
    monkeypatch.setattr(scalar, "quantiles", spy_quantiles)
    calls = {"gaussian_rho": lambda mode: gaussian_rho(fit, data, 0.9, 0.5),
             "plain_var": lambda mode: plain_var(fit, data, 0.9, mode),
             "diff_grid": lambda mode: diff_grid(fit, data, [0.9, 0.95, 0.99], [0.5, 0.9], mode),
             "find_matching_q": lambda mode: find_matching_q(fit, data, 0.9, mode)}
    for name, call in calls.items():
        for mode in ("model", "empirical"):
            maps.clear(), nested.clear(), index_sorts.clear()
            _threads_after(lambda: call(mode))
            assert len(maps) <= 2, (name, mode, len(maps))
            assert nested == [None] * len(maps), (name, mode, nested)
            if name == "diff_grid":
                assert index_sorts == [2], (mode, index_sorts)
