"""Domain types for joint loss/factor data.

The whole library works on the joint law of a scalar loss X and a factor
vector W of length N.  Three representations cover every use case:

* ``DiscreteJointDistribution`` -- an exact atom list (x, w, p).  This is
  the ground truth for brute-force enumeration.
* ``JointSample`` -- empirical rows (loss, factor vector, weight), the
  ingestion object for CSV data and simulation output.
* ``ConditionalLawFamily`` -- scenario weights pi_i paired with one step
  CDF per scenario, i.e. the discrete conditional laws F(x | scenario i).

All types are immutable after construction and safe to share across
threads.  Probability bookkeeping is validated to 1e-12 and conditional
mixtures reproduce the marginal exactly (1e-10), so downstream risk
evaluations are exact finite sums rather than approximations.

``ScenarioFunctional`` is the common form of the scenario distortions and
acceptance predicates, and ``_sweep`` is the one engine that evaluates
them on every point of a grid (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
MIN_ATOM_MASS = 1e-15
SIGNIFICANT_DIGITS = 12
# Working-set budget of one chunk of dense profile rows (user callables);
# the profile matrix of a chunk takes an eighth of it, leaving room for
# its transposed copy and the callable's own temporaries.
DENSE_CHUNK_BYTES = 16 * 2**20
# The swept sum restarts from an exact dense row every max(n, this) grid rows.
MIN_SWEEP_BLOCK = 256


def round_significant(values, digits: int = SIGNIFICANT_DIGITS) -> np.ndarray:
    """Round to ``digits`` significant digits, elementwise.

    Factor values are canonicalized this way on ingestion so that grouping
    by factor value is a deterministic float operation.  Values whose
    magnitude sits beyond 1e+-300 are left unchanged (rounding there would
    overflow the scale and such values are already degenerate as factors).
    """
    arr = np.array(values, dtype=float)
    flat = arr.ravel()
    nz = (flat != 0.0) & np.isfinite(flat)
    if nz.any():
        vals = flat[nz]
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.floor(np.log10(np.abs(vals)))
            scale = np.power(10.0, digits - 1 - mag)
            rounded = np.round(vals * scale) / scale
            good = np.isfinite(rounded)
            flat[nz] = np.where(good, rounded, vals)
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class StepCDF:
    """A right-continuous step distribution function on the real line.

    ``support`` is strictly increasing, ``cum`` is the strictly increasing
    sequence of cumulative probabilities at the support points, with
    ``cum[-1] == 1`` up to 1e-12.  ``F(x)`` equals ``cum`` at the largest
    support point <= x and 0 below the first.
    """

    support: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        support = _as_1d(self.support, "support")
        cum = _as_1d(self.cum, "cum")
        if support.shape != cum.shape:
            raise ValidationError("support and cum must have equal length")
        if not (support[1:] > support[:-1]).all():
            raise ValidationError("support must be strictly increasing")
        if cum[0] <= 0 or not (cum[1:] > cum[:-1]).all():
            raise ValidationError("cum must be strictly increasing and positive")
        if abs(cum[-1] - 1.0) > PROB_TOL:
            raise ValidationError(f"total mass must be 1 within {PROB_TOL}, got {cum[-1]!r}")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "cum", _freeze(cum))

    @classmethod
    def from_values(cls, values, weights=None) -> "StepCDF":
        """Build the weighted empirical CDF of ``values``.

        Equal values are merged by summing weights; weights normalize to 1.
        """
        vals = _as_1d(values, "values")
        if weights is None:
            w = np.full(vals.shape, 1.0 / vals.size)
        else:
            w = _as_1d(weights, "weights")
            if w.shape != vals.shape:
                raise ValidationError("values and weights must have equal length")
            if np.any(w < 0):
                raise ValidationError("weights must be nonnegative")
            total = w.sum()
            if total <= 0:
                raise ValidationError("weights must have positive total")
            w = w / total
        uniq, inverse = np.unique(vals, return_inverse=True)
        masses = np.zeros(uniq.shape)
        np.add.at(masses, inverse, w)
        keep = masses > MIN_ATOM_MASS
        masses = masses[keep]
        cum = np.cumsum(masses)
        # cumsum drift over many atoms is rescaled away, keeping cum[-1] == 1
        return cls(uniq[keep], cum / cum[-1])

    @property
    def masses(self) -> np.ndarray:
        return np.diff(self.cum, prepend=0.0)

    def cdf(self, x) -> np.ndarray | float:
        """Evaluate F(x); right-continuous, vectorized over ``x``."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cum))
        out = padded[idx]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def mean(self) -> float:
        return float(self.support @ self.masses)

    def shift_scale(self, shift: float = 0.0, scale: float = 1.0) -> "StepCDF":
        """Law of ``scale * X + shift`` for scale > 0."""
        if scale <= 0:
            raise ValidationError("scale must be positive")
        return StepCDF(scale * self.support + shift, self.cum.copy())


@dataclass(frozen=True)
class DiscreteJointDistribution:
    """Exact atom list of a joint law of (X, W).

    Atoms are canonicalized on construction: factor values rounded to 12
    significant digits, atoms sorted lexicographically by (w, x), equal
    (w, x) pairs merged by summing mass, and atoms lighter than 1e-15
    dropped with the remaining mass renormalized.  Canonicalization is
    idempotent, so any two atom orderings of the same joint law produce
    identical objects and identical downstream risk values.
    """

    xs: np.ndarray
    ws: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        xs = _as_1d(self.xs, "xs")
        ps = _as_1d(self.ps, "ps")
        ws = np.asarray(self.ws, dtype=float)
        if ws.ndim == 1:
            ws = ws.reshape(-1, 1)
        if ws.ndim != 2 or ws.shape[0] != xs.size or ps.size != xs.size:
            raise ValidationError("atom arrays must align: xs (M,), ws (M,N), ps (M,)")
        if ws.shape[1] < 1:
            raise ValidationError("factor dimension N must be >= 1")
        if not np.all(np.isfinite(ws)):
            raise ValidationError("factor values must be finite")
        if np.any(ps <= 0):
            raise ValidationError("atom masses must be positive")
        total = ps.sum()
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"atom masses must sum to 1 within {PROB_TOL}, got {total!r}")

        ws = round_significant(ws)
        order = np.lexsort(np.column_stack([xs, ws[:, ::-1]]).T)
        xs, ws, ps = xs[order], ws[order], ps[order]
        key = np.column_stack([ws, xs])
        new_atom = np.ones(xs.size, dtype=bool)
        new_atom[1:] = np.any(key[1:] != key[:-1], axis=1)
        group = np.cumsum(new_atom) - 1
        merged_p = np.zeros(group[-1] + 1)
        np.add.at(merged_p, group, ps)
        xs, ws = xs[new_atom], ws[new_atom]
        keep = merged_p > MIN_ATOM_MASS
        xs, ws, merged_p = xs[keep], ws[keep], merged_p[keep]
        if xs.size == 0:
            raise ValidationError("all atoms were dropped as negligible")
        total = merged_p.sum()
        # renormalize only when mass was actually lost, keeping the
        # canonical form bit-stable under reconstruction
        if abs(total - 1.0) > 1e-13:
            merged_p = merged_p / total

        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ws", _freeze(ws))
        object.__setattr__(self, "ps", _freeze(merged_p))

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple]) -> "DiscreteJointDistribution":
        """Build from an iterable of (x, w, p) with w a scalar or a vector."""
        rows = list(atoms)
        if not rows:
            raise ValidationError("atom list must be nonempty")
        xs = np.array([r[0] for r in rows], dtype=float)
        ws = np.array([np.atleast_1d(np.asarray(r[1], dtype=float)) for r in rows])
        ps = np.array([r[2] for r in rows], dtype=float)
        return cls(xs, ws, ps)

    @property
    def n_factors(self) -> int:
        return self.ws.shape[1]

    def to_sample(self) -> "JointSample":
        """Atoms as weighted sample rows (one row per atom)."""
        return JointSample(self.xs.copy(), self.ws.copy(), self.ps.copy())


@dataclass(frozen=True)
class JointSample:
    """Empirical rows (loss, factor vector, weight).

    Weights normalize to sum 1 on construction (uniform 1/T when absent).
    Factor values are canonically rounded so that grouping rows by factor
    value is deterministic.  Optional column names travel with the data for
    CSV-driven workflows.
    """

    loss: np.ndarray
    factors: np.ndarray
    weights: np.ndarray | None = None
    loss_name: str | None = None
    factor_names: tuple[str, ...] | None = None

    def __post_init__(self):
        loss = _as_1d(self.loss, "loss")
        factors = np.asarray(self.factors, dtype=float)
        if factors.ndim == 1:
            factors = factors.reshape(-1, 1)
        if factors.ndim != 2 or factors.shape[0] != loss.size:
            raise ValidationError("factors must be a T x N matrix aligned with loss")
        if factors.shape[1] < 1:
            raise ValidationError("factor dimension N must be >= 1")
        if not np.all(np.isfinite(factors)):
            raise ValidationError("factor values must be finite")
        if self.weights is None:
            w = np.full(loss.shape, 1.0 / loss.size)
        else:
            w = _as_1d(self.weights, "weights")
            if w.shape != loss.shape:
                raise ValidationError("weights must align with loss")
            if np.any(w < 0):
                raise ValidationError("weights must be nonnegative")
            total = w.sum()
            if total <= 0:
                raise ValidationError("weights must have positive total")
            w = w / total
        if self.factor_names is not None and len(self.factor_names) != factors.shape[1]:
            raise ValidationError("factor_names must match the number of factor columns")
        object.__setattr__(self, "loss", _freeze(loss))
        object.__setattr__(self, "factors", _freeze(round_significant(factors)))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_rows(self) -> int:
        return self.loss.size

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]

    def column(self, name: str) -> np.ndarray:
        """Look up a named column (the loss column or any factor column)."""
        if self.loss_name is not None and name == self.loss_name:
            return self.loss
        if self.factor_names is not None and name in self.factor_names:
            return self.factors[:, self.factor_names.index(name)]
        raise ValidationError(f"unknown column {name!r}")

    def subsample(self, mask) -> "JointSample":
        """Rows selected by boolean mask, weights renormalized."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.loss.shape:
            raise ValidationError("mask must align with rows")
        if not mask.any() or self.weights[mask].sum() <= 0:
            raise ValidationError("subsample must retain positive weight")
        return JointSample(
            self.loss[mask],
            self.factors[mask],
            self.weights[mask],
            loss_name=self.loss_name,
            factor_names=self.factor_names,
        )


@dataclass(frozen=True)
class Scenario:
    """One cell of a scenario partition: label, member rows, probability."""

    label: object
    rows: np.ndarray
    weight: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0:
            raise ValidationError("scenario rows must be a nonempty index vector")
        if self.weight <= 0:
            raise ValidationError("scenario weight must be positive")
        object.__setattr__(self, "rows", _freeze(rows))


@dataclass(frozen=True)
class ScenarioPartition:
    """Disjoint scenarios covering every retained (positive-weight) row."""

    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        scenarios = tuple(self.scenarios)
        if not scenarios:
            raise ValidationError("partition must contain at least one scenario")
        # a sort, not np.unique (a hash table in numpy 2.4) or a bincount,
        # whose memory would grow with the largest index; out-of-range
        # indices are rejected where the rows meet a sample (from_sample)
        all_rows = np.sort(np.concatenate([s.rows for s in scenarios]))
        if (all_rows[1:] == all_rows[:-1]).any():
            raise ValidationError("scenario row sets must be pairwise disjoint")
        total = sum(s.weight for s in scenarios)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"scenario weights must sum to 1 within {PROB_TOL}")
        object.__setattr__(self, "scenarios", scenarios)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.scenarios])

    @property
    def labels(self) -> tuple:
        return tuple(s.label for s in self.scenarios)


@dataclass(frozen=True)
class ConditionalLawFamily:
    """Scenario probabilities pi_i with the conditional law of X per scenario.

    This is the computational form of the conditional-distribution kernel:
    scenario i occurs with probability pi_i and X restricted to it follows
    ``laws[i]``.  The pi-mixture of the conditional laws is the marginal
    law of X; :meth:`mixture` materializes it.
    """

    pis: np.ndarray
    laws: tuple[StepCDF, ...]
    labels: tuple | None = None

    def __post_init__(self):
        pis = _as_1d(self.pis, "pis")
        laws = tuple(self.laws)
        if len(laws) != pis.size:
            raise ValidationError("pis and laws must align")
        if np.any(pis <= 0):
            raise ValidationError("scenario probabilities must be positive")
        if abs(pis.sum() - 1.0) > PROB_TOL:
            raise ValidationError(f"scenario probabilities must sum to 1 within {PROB_TOL}")
        for law in laws:
            if not isinstance(law, StepCDF):
                raise ValidationError("laws must be StepCDF instances")
        if self.labels is not None and len(self.labels) != pis.size:
            raise ValidationError("labels must align with scenarios")
        object.__setattr__(self, "pis", _freeze(pis))
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "labels", tuple(self.labels) if self.labels is not None else None)

    @property
    def n_scenarios(self) -> int:
        return self.pis.size

    def merged_support(self) -> np.ndarray:
        return np.unique(np.concatenate([law.support for law in self.laws]))

    def cdf_matrix(self, xs) -> np.ndarray:
        """F_i(x) for every scenario i and point x; shape (len(xs), n)."""
        xs = np.asarray(xs, dtype=float)
        return np.column_stack([law.cdf(xs) for law in self.laws])

    def mixture(self) -> StepCDF:
        """The pi-weighted mixture of the conditional laws (marginal of X)."""
        values = np.concatenate([law.support for law in self.laws])
        masses = np.concatenate([pi * law.masses for pi, law in zip(self.pis, self.laws)])
        return StepCDF.from_values(values, masses)

    def scenario_means(self) -> np.ndarray:
        return np.array([law.mean() for law in self.laws])


def from_sample(sample: JointSample, partition: ScenarioPartition) -> ConditionalLawFamily:
    """Per-scenario weighted empirical conditional laws.

    ``pi_i`` is the summed normalized row weight of scenario i; a scenario
    whose rows all carry zero weight is rejected.  The partition must cover
    the sample's positive-weight rows so the pi's sum to one.

    Every law equals ``StepCDF.from_values`` of its scenario's rows bit for
    bit.  The laws are built in batches of consecutive scenarios, one pass
    per batch (see :func:`_batch_laws`); a batch holds up to
    ``_BATCH_ROWS`` rows, so that many small scenarios share one pass and
    its arrays stay cache-sized.
    """
    scenarios = partition.scenarios
    sizes = [s.rows.size for s in scenarios]
    pis, laws = [], []
    first = 0
    while first < len(scenarios):
        last, n_rows = first + 1, sizes[first]
        while last < len(scenarios) and n_rows + sizes[last] <= _BATCH_ROWS:
            n_rows += sizes[last]
            last += 1
        batch_pis, batch_laws = _batch_laws(sample, scenarios[first:last])
        pis.append(batch_pis)
        laws += batch_laws
        first = last
    return ConditionalLawFamily(np.concatenate(pis), tuple(laws),
                                tuple(s.label for s in scenarios))


# rows per batch of from_sample: 128 KB per float64 array, so a batch's
# arrays stay in cache; larger batches were no faster and took more memory
_BATCH_ROWS = 2**14


def _batch_laws(sample: JointSample, scenarios) -> tuple[np.ndarray, list]:
    """The ``pi_i`` (each scenario's ``w.sum()``) and the laws
    ``StepCDF.from_values`` of each of ``scenarios``, in one pass.

    Each scenario's losses are argsorted as ``np.unique`` sorts them (so
    equal losses keep the same representative, down to the sign of a
    zero), and one ``bincount`` sums every atom's mass in row order, as
    ``np.add.at`` does.  Only the argsort, the ``sum`` and the ``cumsum``
    for ``cum`` run per scenario, since their bits depend on that grouping.
    """
    rows = np.concatenate([s.rows for s in scenarios])
    if rows.min() < 0 or rows.max() >= sample.n_rows:
        raise ValidationError("partition indices out of range for sample")
    bounds = np.cumsum([0] + [s.rows.size for s in scenarios]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    w = sample.weights[rows]
    pis = np.array([w[a:b].sum() for a, b in spans])
    empty = np.flatnonzero(pis <= 0)
    if empty.size:
        label = scenarios[empty[0]].label
        raise ValidationError(f"scenario {label!r} is empty after weight normalization")
    x = sample.loss[rows]
    order = np.concatenate([a + x[a:b].argsort() for a, b in spans])
    x = x[order]
    new = np.empty(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    new[bounds[:-1]] = True
    atom_of_sorted = np.cumsum(new) - 1
    atom = np.empty_like(atom_of_sorted)
    atom[order] = atom_of_sorted
    masses = np.bincount(atom, weights=w / np.repeat(pis, np.diff(bounds)))
    keep = masses > MIN_ATOM_MASS
    support, masses = x[new][keep], masses[keep]
    ends = np.cumsum(np.add.reduceat(keep, atom_of_sorted[bounds[:-1]], dtype=np.int64))
    laws = []
    for a, b in zip([0] + ends[:-1].tolist(), ends.tolist()):
        cum = masses[a:b].cumsum()
        # cumsum drift over many atoms is rescaled away, keeping cum[-1] == 1
        laws.append(StepCDF(support[a:b], cum / cum[-1]))
    return pis, laws


def marginal(dist: DiscreteJointDistribution) -> StepCDF:
    """CDF of X ignoring W; masses at equal x merged."""
    return StepCDF.from_values(dist.xs, dist.ps)


class Resolved(NamedTuple):
    """A built-in functional fixed on one family's scenarios."""

    w: np.ndarray            # scenario weights of the sum
    a: np.ndarray            # per-scenario parameter of the term
    cut: float | None = None  # where the outer map jumps; None if it is continuous


@dataclass(frozen=True, eq=False)
class ScenarioFunctional:
    """``outer(sum_i w_i * term(y_i, a_i))`` of a per-scenario profile ``y``.

    ``y`` holds one probability per scenario: the survival 1 - F_i(x) for a
    scenario distortion, the CDF value F_i(x) for an acceptance predicate.
    ``term`` is elementwise with a per-scenario parameter, ``resolve(pi,
    labels)`` returns the :class:`Resolved` weights, parameters and jump
    point, and ``outer(s, cut)`` maps the sum (None: the identity).  A user
    callable ``func`` takes the place of all three; it sees whole profile
    rows and is evaluated densely.
    """

    term: Callable | None = None
    resolve: Callable | None = None
    outer: Callable | None = None
    func: Callable | None = None
    vectorized: bool = False

    survival: ClassVar[bool] = True
    result_type: ClassVar[type] = float

    def apply(self, Y, pi, labels=None) -> np.ndarray:
        """Evaluate on a batch of profiles ``Y``, one row each: the dense formula."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        pi = np.asarray(pi, dtype=float)
        if Y.shape[1] != pi.size:
            raise ValidationError("profile matrix width must equal the number of scenarios")
        if self.func is None:
            r = self.resolve(pi, labels)
            return self.finish(self.row_sums(Y, r), r)
        if self.vectorized:
            return np.asarray(self.func(Y, pi), dtype=self.result_type)
        return np.array([self.result_type(self.func(y, pi)) for y in Y])

    def row_sums(self, Y: np.ndarray, r: Resolved) -> np.ndarray:
        # numpy's pairwise sum over contiguous rows gives each row the same
        # bits in any batch; a BLAS matrix-vector product does not
        return (self.term(np.ascontiguousarray(Y), r.a) * r.w).sum(axis=1)

    def finish(self, s: np.ndarray, r: Resolved) -> np.ndarray:
        return s if self.outer is None else self.outer(s, r.cut)


def _sweep(family: ConditionalLawFamily, fn: ScenarioFunctional, grid) -> np.ndarray:
    """``fn`` on the scenario profile at every point of the increasing ``grid``.

    Built-ins run in O(T log T) time and O(T) memory for T atoms: each
    atom changes its scenario's term once, at the first grid point at or
    above it, so one ``bincount`` of the changes and a cumulative sum give
    every row's sum.  The sum restarts from an exact dense row every block
    of max(n, MIN_SWEEP_BLOCK) rows, so rounding never accumulates across
    blocks.  Where the swept sum lies within its rounding bound of the
    outer map's jump, the dense formula decides, by bisection over those
    rows (the dense formula is monotone along the grid).  So jump decisions
    equal the dense formula's bit for bit, and continuous values agree to
    a few ulps.  A user callable sees dense rows, in chunks of
    DENSE_CHUNK_BYTES / 8.  Each F_i is a step function along the grid, so
    a chunk is one exact row at its first grid point, after which scenario
    i keeps its value until its next atom sets its own cum from the atom's
    row on.  Laid out one scenario per row, the chunk is a sequence of
    constant runs, which one ``np.repeat`` writes; each value is a copy of
    a cum (or of 1 - cum), so the rows equal the per-cell lookup bit for bit.
    """
    grid = np.asarray(grid, dtype=float)
    pis, labels, n, G = family.pis, family.labels, family.n_scenarios, grid.size
    sizes = np.array([law.support.size for law in family.laws])
    starts = np.cumsum(sizes) - sizes
    scen = np.repeat(np.arange(n), sizes)
    cum = np.concatenate([law.cum for law in family.laws])
    at = np.searchsorted(grid, np.concatenate([law.support for law in family.laws]), side="left")
    key = scen * (G + 1) + at  # nondecreasing: scenario-major, laws sorted
    offsets = np.arange(n) * (G + 1)

    y = 1.0 - cum if fn.survival else cum

    def rows(ks: np.ndarray) -> np.ndarray:
        """Exact profile rows at grid indices ``ks``; shape (len(ks), n)."""
        pos = np.searchsorted(key, (offsets[:, None] + ks[None, :]).ravel(), side="right") - 1
        pos = pos.reshape(n, ks.size)
        F = np.ascontiguousarray(np.where(pos >= starts[:, None], cum[pos], 0.0).T)
        return 1.0 - F if fn.survival else F

    if fn.func is not None:
        step = max(1, DENSE_CHUNK_BYTES // (64 * n))
        live = np.flatnonzero(at < G)
        live = live[np.argsort(at[live] // step, kind="stable")]  # key order per chunk
        bounds = np.searchsorted(at[live] // step, np.arange(-(-G // step) + 1))
        out = []
        for j, k in enumerate(range(0, G, step)):
            c = min(step, G - k)
            atoms = live[bounds[j]:bounds[j + 1]]
            # the chunk's transpose, one scenario per row, is a run of the
            # exact anchor value and then one run per atom from the atom's
            # row on; of atoms sharing a row, the last gets the row
            ins = np.searchsorted(scen[atoms], np.arange(n))
            values = np.insert(y[atoms], ins, rows(np.array([k]))[0])
            begin = np.insert(scen[atoms] * c + at[atoms] - k, ins, np.arange(n) * c)
            runs = np.repeat(values, np.diff(begin, append=n * c)).reshape(n, c)
            out.append(fn.apply(np.ascontiguousarray(runs.T), pis, labels))
        return np.concatenate(out)

    r = fn.resolve(pis, labels)
    block = max(n, MIN_SWEEP_BLOCK)
    n_blocks = -(-G // block)
    anchors = fn.row_sums(rows(np.arange(n_blocks) * block), r)
    contrib = r.w[scen] * fn.term(y, r.a[scen])
    before = np.roll(contrib, 1)
    before[starts] = r.w * fn.term(np.full(n, 1.0 if fn.survival else 0.0), r.a)
    steps = np.bincount(at, weights=contrib - before, minlength=n_blocks * block + 1)
    steps = steps[:n_blocks * block].reshape(n_blocks, block)
    steps[:, 0] = 0.0
    s = (np.cumsum(steps, axis=1) + anchors[:, None]).ravel()[:G]
    # where every term is zero the dense sum is exactly 0; the swept sum may
    # keep a residue of a few ulps, which a steep outer map (ES near level 1
    # divides by 1 - q) would blow up. The count of nonzero terms is exact.
    live = (contrib != 0).astype(float) - (before != 0)
    n_live = np.count_nonzero(before[starts]) + np.cumsum(np.bincount(at, weights=live,
                                                                      minlength=G + 1)[:G])
    s[n_live == 0] = 0.0
    out = fn.finish(s, r)
    if r.cut is None:
        return out
    # built-in terms lie in [0, 1] and move monotonically along the grid, so
    # |swept - dense| stays below (2n + 2 block + atoms per row + 8) ulp of
    # sum |w|: both carry the dense anchor's rounding, the sweep adds block-
    # local sums of changes totalling at most sum |w|; 4x is the margin
    per_row = np.bincount(at).max()
    bound = 4 * (2 * n + 2 * block + per_row + 8) * np.finfo(float).eps * np.abs(r.w).sum()
    near = np.flatnonzero(np.abs(s - r.cut) <= bound)
    if near.size:
        def dense(j):
            return fn.finish(fn.row_sums(rows(near[j:j + 1]), r), r)[0]
        first, last = dense(0), dense(near.size - 1)
        lo, hi = (0, 0) if first == last else (1, near.size - 1)
        while lo < hi:  # the first of the near rows whose dense value is ``last``
            mid = (lo + hi) // 2
            if dense(mid) == last:
                hi = mid
            else:
                lo = mid + 1
        out[near[:lo]] = first
        out[near[lo:]] = last
    return out
