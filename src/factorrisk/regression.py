"""Factor regression pipeline: OLS, Gaussian closed form, and Diff grids.

The evaluation model is X = beta0 + beta . W + sigma * eps with standard
normal idiosyncratic noise.  Under it the VaR-of-conditional-VaR factor
measure has the closed form

    rho(X, W) = beta0 + VaR_q(beta . W) + sigma * Ninv(p),

whose factor quantile is taken empirically from a factor sample.  The
plain benchmark is VaR_p(beta0 + beta . W + sigma * eps), and the grid
statistic diff = rho(X, W) / rho(X) - 1 measures the percentage change of
the factor measure against the plain quantile.  All randomness is driven
by seeds derived deterministically from a master seed and the grid row, so
repeated evaluations agree bit for bit.  Equally weighted data build no
law: each quantile is an order statistic (``scalar.quantiles``), and a grid
reads all its q levels from one sort of beta . W.
The passes over the T rows run on the calling thread and up to one plain
helper thread per further usable CPU (``core._map``, which also runs a
custom distortion's dense chunks): ``ols_fit``'s block QRs and then its
residual blocks, and the two passes that ``gaussian_rho``, model
``plain_var``, ``diff_grid`` and ``find_matching_q`` each make, one
``_passes`` call: first the factor index beta . W over row ranges, and
the fitted values beside it where a level is drawn, with a lone drawn
level's noise drawn in two halves, the first read on the helper as the
caller draws the second (``_split_var``); then all that reads the index or
the loss, the index's sort at the q levels, each drawn p level, or one
sort of the loss at the p levels.  numpy, BLAS and LAPACK release the GIL,
each piece writes only its own output, and the outputs are the sequential
ones bit for bit; no option selects this.  A call with fewer than
``_MIN_ITEM_ROWS`` rows per item (a grid or a draw on fewer rows, a fit or
an index whose second block is shorter) runs inline, where a thread costs
more than it saves.  A vectorized ``psi_custom`` callable may therefore be
called from several threads at once, in any chunk order, and must keep no
state between calls; row callables stay on the calling thread.  scipy is
imported inside ``ols_fit``, its only user, so importing the package loads
numpy alone and starts no thread.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import JointSample, StepCDF, _as_1d, _count, _first, _level, _map, _rng
from . import scalar
from .errors import RankDeficientError, ValidationError

PLAIN_MODES = ("model", "empirical")
DEFAULT_SEED = 20260808
_QR_ROWS = 2**14  # rows per in-cache block of ols_fit's QR: 128 KB per float64 column
# Rows of work per item below which a _map call runs inline: a helper
# thread's start, join and GIL hand-offs cost about what it saves at 12,000
# to 24,000 rows per item (ols_fit's second block, a grid's drawn levels).
_MIN_ITEM_ROWS = 2**14


@dataclass(frozen=True)
class RegressionFit:
    """OLS coefficients with standard inference columns.

    ``stderr``, ``tstat``, ``pvalue`` and ``ci95`` are aligned with
    ``names`` (the constant first, then the factor columns).  ``tstat`` is
    coefficient over standard error wherever the standard error is
    positive, NaN otherwise.
    """

    beta0: float
    beta: np.ndarray
    sigma: float
    stderr: np.ndarray
    tstat: np.ndarray
    pvalue: np.ndarray
    ci95: np.ndarray
    residuals: np.ndarray
    dof: int
    names: tuple[str, ...]

    @property
    def coef(self) -> np.ndarray:
        return np.concatenate(([self.beta0], self.beta))

    def fitted(self, factors: np.ndarray) -> np.ndarray:
        return self.beta0 + _fit_factors(self, factors, "the factor matrix") @ self.beta


def ols_fit(data: JointSample) -> RegressionFit:
    """Least squares of ``data.loss`` on every column of ``data.factors``
    plus a constant.  Columns are chosen once, when the sample is built
    (``read_csv``'s ``target``, ``factors`` and ``skip``); the names are
    ``data.factor_names``, or W1, W2, ... when the sample has none.  The
    fit weighs every row equally whatever ``data.weights`` holds: a sample
    weighted 1..50 fits the coefficients of the unweighted one.

    A tall-skinny QR factors [1 | W | y] in blocks of ``_QR_ROWS`` rows,
    independent pieces spread over the cores by :func:`_map`, then their
    stacked R blocks in index order: R's last column holds Q'y, and no T x
    (N+1) design is built.  The pivoted QR of R's (N+1) x (N+1) corner,
    which never forms Q, decides the rank and solves, un-permuted.  A
    second :func:`_map` over row blocks writes the residuals and sums their
    dots with the design, block by block, for the orthogonality check; the
    residual scale is one dot of the whole residual vector, with the
    degrees-of-freedom corrected divisor T - N - 1.  Rank deficiency is
    rejected with the offending column names.
    """
    from scipy import linalg as sla
    from scipy import special

    y, W = data.loss, data.factors
    names = data.factor_names or tuple(f"W{j + 1}" for j in range(data.n_factors))
    T, n_fac = W.shape
    if T <= n_fac + 1:
        raise ValidationError(f"need more than N+1={n_fac + 1} observations, got {T}")
    k = n_fac + 1
    all_names = ("const",) + tuple(names)
    geqrf, = sla.get_lapack_funcs(("geqrf",), (W,))

    def block_r(s):
        block = np.empty((min(T - s, _QR_ROWS), k + 1), order="F")
        block[:, 0], block[:, 1:k], block[:, k] = 1.0, W[s:s + _QR_ROWS], y[s:s + _QR_ROWS]
        return np.triu(geqrf(block, overwrite_a=1)[0][:k + 1])

    ranges, inline = _row_ranges(T)
    # a lone last row is a QR block of its own here: the stacked R keeps its bits
    stacked = np.vstack(_map(block_r, range(0, T, _QR_ROWS), inline))
    r_all = np.triu(geqrf(stacked)[0][:k + 1])
    qty, r, piv = sla.qr_multiply(r_all[:k, :k], r_all[:k, k], mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    # collinearity below the 12-digit ingestion rounding counts as deficient
    rank_tol = diag.max() * max(T * np.finfo(float).eps, 1e-10)
    rank = int((diag > rank_tol).sum())
    if rank < k:
        bad = tuple(all_names[j] for j in sorted(piv[rank:]))
        raise RankDeficientError(f"design matrix is rank deficient; columns {bad}", bad)
    unpivot = np.argsort(piv)
    coef = sla.solve_triangular(r, qty)[unpivot]
    rinv = sla.solve_triangular(r, np.eye(k))  # (X'X)^-1 = P R^-1 R^-T P'
    residuals = np.empty(T)

    def block_residuals(rows):
        """The rows' residuals y - (c0 + W c), written in place, and their
        partial dots [sum r, r'W] for the orthogonality check."""
        a, b = rows
        part = np.matmul(W[a:b], coef[1:], out=residuals[a:b])
        part += coef[0]
        np.subtract(y[a:b], part, out=part)
        return np.concatenate(([part.sum()], part @ W[a:b]))

    partials = _map(block_residuals, ranges, inline)
    dof = T - n_fac - 1
    sse = float(residuals @ residuals)
    sigma = math.sqrt(sse / dof)
    stderr = sigma * np.sqrt((rinv * rinv).sum(axis=1))[unpivot]
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(stderr > 0, coef / stderr, np.nan)
    pvalue = np.where(np.isfinite(tstat), 2.0 * special.stdtr(dof, -np.abs(tstat)), np.nan)
    tcrit = float(special.stdtrit(dof, 0.975))
    ci95 = np.column_stack([coef - tcrit * stderr, coef + tcrit * stderr])
    # residuals at ingestion-rounding scale carry no direction; ||X_j|| = ||R e_j||
    resid_norm, col_norms = math.sqrt(sse), np.linalg.norm(r_all, axis=0)
    if resid_norm > 1e-10 * max(1.0, col_norms[k]):
        dots = sum(partials)  # in block order
        if (np.abs(dots) / (resid_norm * col_norms[:k]) > 1e-8).any():
            raise ValidationError("residuals are not orthogonal to the design")
    return RegressionFit(
        beta0=float(coef[0]),
        beta=coef[1:].copy(),
        sigma=sigma,
        stderr=stderr,
        tstat=tstat,
        pvalue=pvalue,
        ci95=ci95,
        residuals=residuals,
        dof=dof,
        names=all_names,
    )


def norm_inv(p: float) -> float:
    """Inverse standard normal CDF: Wichura's AS241 algorithm, accurate to
    about 1e-16 relative, as the standard library's ``NormalDist`` gives
    it.  Boundary levels rejected."""
    import statistics

    return statistics.NormalDist().inv_cdf(_level(p, "level p", "(0, 1)", 0))


@dataclass(frozen=True)
class GaussianFactorSpec:
    """Multivariate normal factor model with mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValidationError("covariance shape must match the mean vector")
        _as_1d(mean.ravel(), "mean"), _as_1d(cov.ravel(), "covariance")  # finite
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValidationError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-10 * max(1.0, abs(eigvals.max())):
            raise ValidationError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def draw(self, rng, n: int) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.cov)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        return self.mean + rng.standard_normal((n, self.mean.size)) @ root.T


@dataclass(frozen=True)
class DiscreteFactorSpec:
    """Uniform draw over an explicit set of factor values."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValidationError("values must be a nonempty (k, N) array")
        _as_1d(values.ravel(), "factor values")
        object.__setattr__(self, "values", values)

    def draw(self, rng, n: int) -> np.ndarray:
        idx = rng.integers(0, self.values.shape[0], size=n)
        return self.values[idx]


def simulate(beta0: float, beta, sigma: float, factor_spec, n: int,
             seed: int = DEFAULT_SEED) -> JointSample:
    """Draw a deterministic sample of the regression model under a seed."""
    n = _count(n, "n", 1)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    for name, value in (("beta0", beta0), ("beta", beta), ("sigma", sigma)):
        finite = np.isfinite(value)
        if not finite.all():
            raise ValidationError(f"{name} must be finite, got {_first(value, ~finite)!r}")
    if sigma < 0:
        raise ValidationError("sigma must be nonnegative")
    rng = _rng(seed)
    W = factor_spec.draw(rng, n)
    if W.shape[1] != beta.size:
        raise ValidationError("factor spec dimension must match beta")
    eps = rng.standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):  # JointSample rejects a non-finite loss
        x = beta0 + W @ beta + sigma * eps
    names = tuple(f"W{j + 1}" for j in range(beta.size))
    return JointSample(x, W, loss_name="X", factor_names=names)


def _fit_factors(fit: RegressionFit, factors, what: str) -> np.ndarray:
    """``factors`` (a (T, N) matrix or a row of N) as a float array, checked
    to hold the fit's N factors; ``what`` names it in the message."""
    factors = np.asarray(factors, dtype=float)
    n = factors.shape[-1] if factors.ndim else 0
    if n != fit.beta.size:
        raise ValidationError(f"{what} has {n} factors but the fit has {fit.beta.size}")
    return factors


def _row_ranges(T: int) -> tuple[list, bool]:
    """The row ranges of a pass over T rows, ``_QR_ROWS`` rows each, and
    whether :func:`_map` runs them inline (the second, the smaller of the
    first two, is shorter than ``_MIN_ITEM_ROWS``).  A lone last row joins
    the range before it: numpy takes a one-row product W[a:b] @ v as a dot,
    whose sum runs in another order than a matrix product's, so every row
    has the whole product's bits."""
    cuts = [*range(0, max(T - 1, 1), _QR_ROWS), T]
    return list(itertools.pairwise(cuts)), min(T - _QR_ROWS, _QR_ROWS) < _MIN_ITEM_ROWS


def _call(job):
    return job()


def _rho(fit: RegressionFit, index_var, p: float):
    """The closed form at the index quantile ``index_var`` (a value or an array)."""
    return fit.beta0 + index_var + fit.sigma * norm_inv(p)


def gaussian_rho(fit: RegressionFit, factor_sample: JointSample, p: float,
                 q: float) -> float:
    """Closed-form factor measure beta0 + VaR_q(beta . W) + sigma * Ninv(p)."""
    p, q = _level(p, "level p", "(0, 1)", 0), _level(q, "level q", "(0, 1)", 0)
    return _rho(fit, _passes(fit, factor_sample, q, [], "model", None, [])[1], p)


def plain_var(fit: RegressionFit, data: JointSample, p: float, mode: str = "model",
              master_seed: int = DEFAULT_SEED, row_index: int = 0) -> float:
    """The benchmark VaR_p(X) under the fitted model or the raw target.

    ``model`` draws one noise term per observation on top of the fitted
    values, ``empirical`` takes the weighted quantile of the observed
    target column.  Each is the left quantile of its values
    (``scalar.quantiles``): with equal weights, the order statistic of rank
    min{C : C / n >= p} (``scalar._rank``, the one rank rule).  On equally
    weighted rows the model's noise is drawn in two halves of its one
    stream, each read on its own thread as the other is drawn or the index
    built (:func:`_split_var`); the value is the one-array quantile's, bit
    for bit.
    """
    p = _level(p, "level p", "(0, 1)", 0)
    if mode == "empirical":  # the loss alone: no index, and no seed read
        return scalar.quantiles(data.loss, data.weights, p)
    return _passes(fit, data, None, [p], mode, master_seed, [row_index])[2][0]


def _passes(fit: RegressionFit, data: JointSample, q_values, p_values, mode: str,
            master_seed, rows):
    """The factor index beta . W of ``data``'s rows, its quantiles at
    ``q_values`` (None where none is read) and :func:`plain_var` at each of
    ``p_values``, level i seeded by (master_seed, rows[i]): two flat
    :func:`_map` passes over the rows, the one route of ``gaussian_rho``,
    model ``plain_var``, ``diff_grid`` and ``find_matching_q``.

    The first writes the index, W[a:b] @ beta over :func:`_row_ranges`
    (the bits of W @ beta), and where a level is drawn the fitted values
    beta0 + index beside it (``fit.fitted``'s bits), into arrays allocated
    here: glibc keeps what a helper thread frees in its own arena, and a
    nested map's thread would open one.  A lone drawn level on equally
    weighted rows is then read in :func:`_split_var`'s one pass; on other
    weights its noise is drawn beside the index.  The second pass runs what
    reads them: the index's sort at ``q_values``; each drawn level's
    fitted + sigma * z, built in place, and its quantile (in place, through
    ``scalar._rank``, under equal weights); or one sort of the loss at
    every p.  A pass with a drawn level or a sort runs inline under
    ``_MIN_ITEM_ROWS`` rows, the index alone as :func:`_row_ranges` says."""
    if mode not in PLAIN_MODES:
        raise ValidationError(f"plain-var mode must be one of {PLAIN_MODES}")
    W, n = _fit_factors(fit, data.factors, "the sample"), data.n_rows
    index, (ranges, inline) = np.empty(n), _row_ranges(n)
    second = [] if q_values is None else [partial(scalar.quantiles, index, data.weights, q_values)]
    gens, fitted, equal = [], None, False
    if mode == "empirical":
        second.append(partial(scalar.quantiles, data.loss, data.weights, p_values))
    elif p_values:  # the generators are built in row order, here; their draws run on the cores
        gens, fitted = [_rng(master_seed, row) for row in rows], np.empty(n)
        equal = bool((data.weights == data.weights[0]).all())

    def index_rows(a, b):
        np.matmul(W[a:b], fit.beta, out=index[a:b])
        if fitted is not None:
            np.add(fit.beta0, index[a:b], out=fitted[a:b])

    first = [partial(index_rows, a, b) for a, b in ranges]
    if len(gens) == 1 and equal and q_values is None:
        return index, None, [_split_var(fit.sigma, gens[0], p_values[0], first, fitted)]
    draws = [partial(gen.standard_normal, n) for gen in gens]
    if len(draws) == 1:
        z = np.empty(n)
        first, draws, inline = [partial(draws[0], out=z), *first], [lambda: z], n < _MIN_ITEM_ROWS

    def level_var(draw, p):
        values = draw()
        values *= fit.sigma
        values += fitted
        if equal:  # the values are this level's own: ordered in place, not copied
            return scalar._order_statistics(values, p, scalar._finite_ends(values, values), True)
        return scalar.quantiles(values, data.weights, p)

    _map(_call, first, inline)
    out = _map(_call, second + [partial(level_var, *d) for d in zip(draws, p_values)],
               n < _MIN_ITEM_ROWS)
    index_vars = None if q_values is None else out.pop(0)
    return index, index_vars, out.pop().tolist() if mode == "empirical" else out


def _split_var(sigma: float, gen, p: float, index_rows, fitted: np.ndarray) -> float:
    """``scalar.quantiles(fitted + sigma * z, None, p)``, bit for bit, z the
    next ``fitted.size`` normals of ``gen``, in one :func:`_map` of two
    items: the index item runs ``index_rows`` (which write ``fitted``).

    ``gen`` draws z in two consecutive halves, the one stream bit for bit.
    The index item waits until the first half is drawn and reads it in
    place while the draw item draws the second; the caller reads the second
    half after.  To read a half is to make it sigma * z + fitted, take its
    min and max and move its M = n - k largest values to its end by
    ``np.partition``, k the rank of ``scalar._rank``.  The M largest of all
    n are among the two kept sets, whatever the ties, so the order
    statistic of rank k is that of rank size - M in their union.  At k = 0
    or n - 1 it is an end; + 0.0 reads -0.0 as 0.0.  A non-finite end goes
    to ``scalar.quantiles``, which raises its error: a half holding a
    non-finite value is not reordered, so it names the same value.  Inline
    (one CPU, or under ``_MIN_ITEM_ROWS`` rows) the draw item runs first,
    so the wait returns at once."""
    n = fitted.size
    z, half, first_half = np.empty(n), n // 2, threading.Event()
    k = scalar._rank(p, n).item()
    keep = n - k

    def read(a, b):
        part = z[a:b]
        part *= sigma
        part += fitted[a:b]
        ends = part.min(initial=np.inf), part.max(initial=-np.inf)  # an empty half adds none
        if b - a > keep and np.isfinite(ends).all():
            part.partition(b - a - keep)
        return ends, part[max(b - a - keep, 0):]

    def draw():
        try:
            gen.standard_normal(half, out=z[:half])
        finally:  # a failed draw still wakes the index item; _map raises its error
            first_half.set()
        gen.standard_normal(n - half, out=z[half:])

    def index_and_first_half():
        for item in index_rows:
            item()
        first_half.wait()
        return read(0, half)

    halves = [_map(_call, [draw, index_and_first_half], n < _MIN_ITEM_ROWS)[1], read(half, n)]
    ends = np.array([e for e, _ in halves])
    lo, hi = ends[:, 0].min(), ends[:, 1].max()
    if not np.isfinite((lo, hi)).all():
        return scalar.quantiles(z, None, p)
    if k in (0, n - 1):
        return float((lo, hi)[k > 0] + 0.0)
    kept = np.concatenate([part for _, part in halves])
    kept.partition(kept.size - keep)
    return float(kept[kept.size - keep] + 0.0)


@dataclass(frozen=True)
class DiffGrid:
    """Long-format grid of (p, q, rho_factor, rho_plain, diff) rows.

    Rows are p-major then q, covering the Cartesian product of the
    requested levels, which are stored once; the ``p`` and ``q`` columns
    are built from them on each read.  ``diff`` is rho_factor /
    rho_plain - 1, NaN where rho_plain is zero.
    """

    p_values: np.ndarray
    q_values: np.ndarray
    rho_factor: np.ndarray
    rho_plain: np.ndarray
    diff: np.ndarray

    def __post_init__(self):
        for name in ("p_values", "q_values", "rho_factor", "rho_plain", "diff"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        size = self.p_values.size * self.q_values.size
        for name in ("rho_factor", "rho_plain", "diff"):
            if getattr(self, name).size != size:
                raise ValidationError(f"grid column {name} must have {size} rows")
        ok = self.rho_plain != 0
        rf, rp, diff = self.rho_factor[ok], self.rho_plain[ok], self.diff[ok]
        with np.errstate(all="ignore"):
            expected = rf / rp - 1.0
            gap = np.abs(diff - expected)
        # tolerance admits a diff by another float expression, as (rf - rp) / rp,
        # where the definition is finite (a NaN gap, from a NaN diff, admits none);
        # a quotient of finite rhos that overflows admits its own infinity alone
        within = np.where(np.isfinite(expected), gap <= 1e-7 * (1.0 + np.abs(expected)),
                          np.isfinite(rf) & np.isfinite(rp) & (diff == expected))
        if not within.all() or np.any(~np.isnan(self.diff[~ok])):
            raise ValidationError("diff column is inconsistent with its definition")

    @property
    def p(self) -> np.ndarray:
        return np.repeat(self.p_values, self.q_values.size)

    @property
    def q(self) -> np.ndarray:
        return np.tile(self.q_values, self.p_values.size)

    @property
    def n_rows(self) -> int:
        return self.diff.size


def diff_grid(fit: RegressionFit, data: JointSample, p_values: Sequence[float],
              q_values: Sequence[float], plain_mode: str = "model",
              master_seed: int = DEFAULT_SEED) -> DiffGrid:
    """Evaluate the factor/plain comparison over a Cartesian level grid.

    The plain VaR is computed once per p row with a seed derived from
    (master_seed, row index), so each row shares one benchmark and diff is
    exactly nondecreasing in q whenever the benchmark is positive.  The
    factor index beta . W is computed once per call, every q is read from
    one sort of it, and the fitted values behind the benchmark are built
    from it; output order is p-major.
    """
    p_values = _level(p_values, "p levels", "(0, 1)", 1)
    q_values = _level(q_values, "q levels", "(0, 1)", 1)
    if p_values.size == 0 or q_values.size == 0:
        raise ValidationError("level lists must be nonempty")
    _, index_vars, plains = _passes(fit, data, q_values, p_values.tolist(), plain_mode,
                                    master_seed, range(p_values.size))
    rf = np.array([_rho(fit, v, p) for p in p_values.tolist() for v in index_vars.tolist()])
    rp = np.repeat(plains, q_values.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(rp != 0, rf / rp - 1.0, np.nan)
    return DiffGrid(p_values, q_values, rf, rp, diff)


def find_matching_q(fit: RegressionFit, data: JointSample, p: float,
                    plain_mode: str = "model", master_seed: int = DEFAULT_SEED,
                    tol: float = 1e-6) -> float:
    """The level q0 where the factor measure meets the plain VaR_p(X).

    diff(q) = rho(X, W) / plain - 1 is a step function of q: it keeps the
    sign of diff(1e-9) while VaR_q(L), L = beta . W, lies below the match
    point c, where beta0 + c + sigma * Ninv(p) is the plain VaR.  q0 is
    F_L(c-), the mass of L below c: the largest q at which diff keeps that
    sign, where a bisection of diff over q converges.  With equal weights it
    is C / T, C the count of rows whose diff (the float expression of
    :func:`gaussian_rho`) has the sign of diff(1e-9); with other weights it
    is the law's cum at its last such atom.

    C is counted by one threshold.  As a float function of the index value
    x, diff = fl(fl(fl(beta0 + x) + sigma * Ninv(p)) / plain) - 1 is monotone,
    because IEEE rounding is: it rises in x when plain > 0 and falls when
    plain < 0.  So the values where diff keeps its sign are those below one
    float t, which a bisection over the floats' bit patterns finds in at
    most 64 scalar evaluations (sigma * Ninv(p) taken once, outside them),
    and one comparison pass over the index (or the law's support) counts
    them.  The bisection starts from the index's ends, one ``min`` and one
    ``max`` of it under equal weights.  The plain VaR is :func:`plain_var`'s,
    drawn in two halves under equal weights.  The result is a Python float.

    Requires diff to change sign between q = 1e-9 and 1 - 1e-9; otherwise
    the boundary diffs are reported in the error (a factor-free model is
    already matching everywhere).  ``tol`` (>= 0) is checked and has no
    effect: it set the former bisection's stopping rule.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol!r}")
    p, lo, hi = _level(p, "level p", "(0, 1)", 0), 1e-9, 1.0 - 1e-9
    index, _, (plain,) = _passes(fit, data, None, [p], plain_mode, master_seed, [0])
    if plain == 0:
        raise ValidationError("plain VaR is zero; diff is undefined")
    if (data.weights == data.weights[0]).all():
        points, cum = index, None
        # ranks 1 and T below 1e9 rows: one min and one max of the index
        ends = np.array(scalar._finite_ends(index, index)) + 0.0
    else:
        law = StepCDF.from_values(index, data.weights)
        points, cum = law.support, law.cum
        ends = scalar.var(law, [lo, hi])
    shift = fit.sigma * norm_inv(p)  # _rho's last term, taken once

    def diff(x):  # the float expression of _rho(fit, x, p) / plain - 1
        return (fit.beta0 + x + shift) / plain - 1.0

    d_lo, d_hi = diff(ends).tolist()
    if not (d_lo < 0 < d_hi or d_hi < 0 < d_lo):
        raise ValidationError(
            f"diff does not change sign over q: diff({lo:g})={d_lo:.6g}, "
            f"diff({hi:g})={d_hi:.6g}"
        )

    def keeps_sign(x):  # diff at x has the sign of d_lo
        return diff(x) < 0 if d_lo < 0 else diff(x) > 0

    count = int(np.count_nonzero(points < _threshold(keeps_sign, *ends.tolist())))
    return count / points.size if cum is None else float(cum[count - 1])


def _threshold(holds, lo: float, hi: float) -> float:
    """The least float t at which ``holds`` fails, for a predicate true at
    ``lo``, false at ``hi`` and monotone in x (true below any float where
    it holds), which -0.0 and 0.0 meet alike: it holds exactly at x < t.
    A bisection over the floats in order, as integers, of at most 64 calls."""
    def key(x):  # sign-magnitude bits to two's complement; both zeros at 0
        bits = int(np.array(x).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))

    def value(k):
        return float(np.array(k if k >= 0 else -k - 2**63, np.int64).view(np.float64))

    a, b = key(lo), key(hi)
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if holds(value(mid)) else (a, mid)
    return value(b)
