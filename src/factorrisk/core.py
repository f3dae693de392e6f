"""Domain types for joint loss/factor data.

The whole library works on the joint law of a scalar loss X and a factor
vector W of length N.  Three representations cover every use case:

* ``DiscreteJointDistribution`` -- an exact atom list (x, w, p).  This is
  the ground truth for brute-force enumeration.
* ``JointSample`` -- empirical rows (loss, factor vector, weight), the
  ingestion object for CSV data and simulation output.
* ``ConditionalLawFamily`` -- scenario weights pi_i paired with the
  discrete conditional laws F(x | scenario i).

Scenarios are stored flat, in CSR form: a ``ScenarioPartition`` holds one
array of member rows cut into scenarios by ``offsets``, and a
``ConditionalLawFamily`` one ``support`` and one ``cum`` array cut into
laws by its ``offsets``.  They are validated once, vectorized, when built;
the per-scenario ``Scenario`` and ``StepCDF`` objects (``scenarios``,
``laws``) and the labels are read-only views, built on first access.

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
from functools import cached_property, partial
from typing import Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
MIN_ATOM_MASS = 1e-15
SIGNIFICANT_DIGITS = 12
# Working-set budget of one chunk of dense profile rows (user distortions);
# the profile matrix of a chunk takes an eighth of it, so the matrix, the
# runs it is built from and the callable's own temporaries stay in a
# core's L2 cache.
DENSE_CHUNK_BYTES = 4 * 2**20
# A dense chunk is scattered into a copy of the carried row where its
# changed cells are at most this share of it, else built transposed: the
# measured crossover, where a changed cell's scatter costs about five
# cells of the transposed build.
DENSE_SCATTER_SHARE = 0.2
# Exact anchor rows open every block of max(n, this) grid rows (see _sweep).
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


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, unvalidated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _exactly_one(**given: bool) -> None:
    """Reject unless exactly one of the named alternatives is given."""
    if sum(given.values()) != 1:
        raise ValidationError(f"provide exactly one of {', '.join(given)}")


def _as_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _normalized_weights(weights, n: int) -> np.ndarray:
    """``weights`` of ``n`` rows scaled to total 1; 1/n each when None."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _as_1d(weights, "weights")
    if w.size != n:
        raise ValidationError(f"expected {n} weights, got {w.size}")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValidationError("weights must have positive total")
    return w / total


def _check_laws(support: np.ndarray, cum: np.ndarray, offsets: np.ndarray) -> None:
    """Validate the step CDFs ``support[a:b]``, ``cum[a:b]`` for each segment
    [a, b) of ``offsets``, all at once."""
    starts, ends = offsets[:-1], offsets[1:]
    if (ends <= starts).any():
        raise ValidationError("every law needs at least one support point")
    between = ends[:-1] - 1  # the pairs (last of one law, first of the next)
    increasing, rising = support[1:] > support[:-1], cum[1:] > cum[:-1]
    increasing[between] = rising[between] = True
    if not increasing.all():
        raise ValidationError("support must be strictly increasing")
    if (cum[starts] <= 0).any() or not rising.all():
        raise ValidationError("cum must be strictly increasing and positive")
    last = cum[ends - 1]
    off = np.flatnonzero(np.abs(last - 1.0) > PROB_TOL)
    if off.size:
        raise ValidationError(f"total mass must be 1 within {PROB_TOL}, got {last[off[0]]!r}")


def _signed_zeros(values: np.ndarray) -> bool:
    """Whether ``values`` hold both -0.0 and 0.0, equal values of unequal bits."""
    sign = np.signbit(values[values == 0.0])
    return bool(sign.any() and not sign.all())


def _holds_zero(points: np.ndarray) -> bool:
    """Whether the increasing ``points`` hold a zero of either sign."""
    k = points.searchsorted(0.0)
    return bool(k < points.size and points[k] == 0.0)


def _equal_weight_atoms(values: np.ndarray, c: float):
    """The atoms of ``values`` at the common weight ``c``, as
    ``StepCDF.from_values`` finds them: the sorted distinct values and
    each one's mass, or None where ``values`` hold both -0.0 and 0.0."""
    x = np.sort(values)
    # the zeros are read from the input: numpy's vectorized sort may write
    # one zero's bits in place of the other's
    if x.searchsorted(0.0, "right") - x.searchsorted(0.0, "left") > 1 and _signed_zeros(values):
        return None
    new = np.empty(x.size, dtype=bool)
    new[0] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    if new.all():  # distinct values: an atom per row
        return x, np.full(x.size, c)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=x.size)
    # an atom of k rows weighs c + c + ... + c, added in turn as bincount adds
    return x[starts], np.cumsum(np.full(counts.max(), c))[counts - 1]


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
        _check_laws(support, cum, np.array([0, support.size]))
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "cum", _freeze(cum))

    @classmethod
    def from_values(cls, values, weights=None) -> "StepCDF":
        """Build the weighted empirical CDF of ``values``.

        Equal values are merged by summing weights; weights normalize to 1.

        Two routes give the same ``support`` and ``cum`` bit for bit.  Equally
        weighted values (every CSV, ``simulate`` or subsample column) take one
        ``np.sort`` and the runs of equal values in it
        (:func:`_equal_weight_atoms`).  Other weights take ``np.unique``'s
        argsort and inverse, and a ``bincount`` that adds each atom's weights
        in row order.  With a common weight c the ``bincount`` adds c to
        itself once per row of the atom, which is the cumulative sum of k
        copies of c for an atom of k rows.  Equal values are equal bits, except
        -0.0 and 0.0: where the values hold both, ``np.unique``'s argsort
        decides which sign the zero atom keeps, so they take the
        ``np.unique`` route.
        """
        vals = _as_1d(values, "values")
        w = _normalized_weights(weights, vals.size)
        atoms = _equal_weight_atoms(vals, w[0]) if (w == w[0]).all() else None
        if atoms is None:
            uniq, inverse = np.unique(vals, return_inverse=True)
            # bincount adds each atom's weights in row order, as np.add.at does
            atoms = uniq, np.bincount(inverse, weights=w, minlength=uniq.size)
        return cls._of_masses(*atoms)

    @classmethod
    def _of_masses(cls, support, masses) -> "StepCDF":
        """The law of atoms ``support`` weighing ``masses`` (overwritten), as
        ``from_values`` finishes it."""
        keep = masses > MIN_ATOM_MASS
        if not keep.all():
            support, masses = support[keep], masses[keep]
        cum = np.cumsum(masses, out=masses)
        # cumsum drift over many atoms is rescaled away, keeping cum[-1] == 1
        cum /= cum[-1]
        return cls(support, cum)

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
        merged_p = np.bincount(np.cumsum(new_atom) - 1, weights=ps)
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
        w = _normalized_weights(self.weights, loss.size)
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


@dataclass(frozen=True, init=False, eq=False)
class ScenarioPartition:
    """Disjoint scenarios covering every retained (positive-weight) row.

    Stored flat: scenario i holds the rows ``rows[offsets[i]:offsets[i + 1]]``
    and has probability ``weights[i]``.  A quantile-box partition keeps each
    factor's distinct quantile ``cuts`` (None otherwise).  ``labels`` and the
    :class:`Scenario` objects of ``scenarios`` are read-only views, built on
    first access and not validated again.  ``ScenarioPartition(scenarios)``
    flattens a sequence of scenarios.
    """

    rows: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    cuts: tuple | None

    def __init__(self, scenarios: Iterable[Scenario]):
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValidationError("partition must contain at least one scenario")
        rows = np.concatenate([s.rows for s in scenarios])
        # a sort, not np.unique (a hash table in numpy 2.4) or a bincount,
        # whose memory would grow with the largest index; out-of-range
        # indices are rejected where the rows meet a sample (from_sample)
        if (np.diff(np.sort(rows)) == 0).any():
            raise ValidationError("scenario row sets must be pairwise disjoint")
        self._set(rows, np.cumsum([0] + [s.rows.size for s in scenarios]),
                  np.array([s.weight for s in scenarios], dtype=float), None)
        self.__dict__.update(scenarios=scenarios, labels=tuple(s.label for s in scenarios))

    @classmethod
    def _from_flat(cls, rows, offsets, weights, labels: Callable[[], tuple] | None,
                   cuts: tuple | None = None) -> "ScenarioPartition":
        """The partition of these arrays; ``labels()`` builds the labels when
        first read (a picklable callable, such as a ``partial``); the
        builders' ``rows``, a permutation of retained rows, are disjoint."""
        partition = object.__new__(cls)
        partition._set(rows, offsets, weights, labels, cuts)
        return partition

    def _set(self, rows, offsets, weights, labels, cuts=None):
        if abs(weights.sum() - 1.0) > PROB_TOL:
            raise ValidationError(f"scenario weights must sum to 1 within {PROB_TOL}")
        for name, value in (("rows", rows), ("offsets", offsets), ("weights", weights)):
            object.__setattr__(self, name, _freeze(value))
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "_labels", labels)

    @property
    def n_scenarios(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def labels(self) -> tuple:
        return self._labels()

    @cached_property
    def scenarios(self) -> tuple[Scenario, ...]:
        bounds = self.offsets.tolist()
        return tuple(_unchecked(Scenario, label=label, rows=self.rows[a:b], weight=weight)
                     for label, a, b, weight in zip(self.labels, bounds[:-1], bounds[1:],
                                                    self.weights.tolist()))


@dataclass(frozen=True, init=False, eq=False)
class ConditionalLawFamily:
    """Scenario probabilities pi_i with the conditional law of X per scenario.

    This is the computational form of the conditional-distribution kernel:
    scenario i occurs with probability pi_i and X restricted to it follows
    ``laws[i]``.  The pi-mixture of the conditional laws is the marginal
    law of X; :meth:`mixture` materializes it.

    Stored flat: law i is the step CDF with support ``support[a:b]`` and
    cumulative probabilities ``cum[a:b]``, for a, b = ``offsets[i]``,
    ``offsets[i + 1]``.  ``laws`` (:class:`StepCDF` views of those slices)
    and ``labels`` are read-only, built on first access and not validated
    again.  ``ConditionalLawFamily(pis, laws, labels)`` flattens a sequence
    of StepCDF.  The merged support and each atom's index in it, which the
    engines and :meth:`mixture` read, come from the sort that built the
    laws (``from_sample``), else from one sorting ``np.unique`` when first
    read.
    """

    pis: np.ndarray
    support: np.ndarray
    cum: np.ndarray
    offsets: np.ndarray

    def __init__(self, pis, laws: Iterable[StepCDF], labels=None):
        pis = _as_1d(pis, "pis")
        laws = tuple(laws)
        if len(laws) != pis.size:
            raise ValidationError("pis and laws must align")
        if not all(isinstance(law, StepCDF) for law in laws):
            raise ValidationError("laws must be StepCDF instances")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != pis.size:
                raise ValidationError("labels must align with scenarios")
        self._set(pis, np.concatenate([law.support for law in laws]),
                  np.concatenate([law.cum for law in laws]),
                  np.cumsum([0] + [law.support.size for law in laws]), None)
        self.__dict__.update(laws=laws, labels=labels)

    @classmethod
    def _from_flat(cls, pis, support, cum, offsets, labels: Callable[[], tuple | None] | None,
                   grid: tuple | None = None) -> "ConditionalLawFamily":
        """The family of these arrays; ``labels()`` builds the labels when
        first read (a picklable callable; None: no labels); ``grid``, when
        given, is the merged support and each atom's index in it."""
        family = object.__new__(cls)
        family._set(pis, support, cum, offsets, labels)
        if grid is not None:
            family.__dict__["_grid"] = grid
        return family

    def _set(self, pis, support, cum, offsets, labels):
        if np.any(pis <= 0):
            raise ValidationError("scenario probabilities must be positive")
        if abs(pis.sum() - 1.0) > PROB_TOL:
            raise ValidationError(f"scenario probabilities must sum to 1 within {PROB_TOL}")
        _check_laws(support, cum, offsets)
        for name, value in (("pis", pis), ("support", support), ("cum", cum),
                            ("offsets", offsets)):
            object.__setattr__(self, name, _freeze(value))
        object.__setattr__(self, "_labels", labels)

    @property
    def n_scenarios(self) -> int:
        return self.pis.size

    @cached_property
    def labels(self) -> tuple | None:
        return None if self._labels is None else self._labels()

    @cached_property
    def laws(self) -> tuple[StepCDF, ...]:
        bounds = self.offsets.tolist()
        return tuple(_unchecked(StepCDF, support=self.support[a:b], cum=self.cum[a:b])
                     for a, b in zip(bounds[:-1], bounds[1:]))

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The merged support and each atom's index in it (:func:`_grid_of`)."""
        return _grid_of(self.support, *np.unique(self.support, return_inverse=True))

    def merged_support(self) -> np.ndarray:
        return self._grid[0].copy()

    def _masses(self) -> np.ndarray:
        """Each atom's mass within its law, as ``StepCDF.masses`` finds it."""
        masses = np.diff(self.cum, prepend=0.0)
        masses[self.offsets[:-1]] = self.cum[self.offsets[:-1]]  # each law starts from 0
        return masses

    def mixture(self) -> StepCDF:
        """The pi-weighted mixture of the conditional laws (marginal of X):
        ``StepCDF.from_values(support, masses)`` bit for bit, each merged
        atom's mass one ``bincount`` over the atoms' stored index."""
        masses = self._masses()
        masses *= np.repeat(self.pis, np.diff(self.offsets))
        points, at = self._grid
        if _holds_zero(points) and _signed_zeros(self.support):
            return StepCDF.from_values(self.support, masses)  # its argsort picks the zero's bits
        masses /= masses.sum()  # as from_values normalizes its weights
        return StepCDF._of_masses(points, np.bincount(at, weights=masses, minlength=points.size))

    def scenario_means(self) -> np.ndarray:
        return _segment_dots(self.support, self._masses(), self.offsets)


def from_sample(sample: JointSample, partition: ScenarioPartition) -> ConditionalLawFamily:
    """Per-scenario weighted empirical conditional laws, built flat.

    ``pi_i`` is the summed normalized row weight of scenario i; a scenario
    whose rows all carry zero weight is rejected.  The partition must cover
    the sample's positive-weight rows so the pi's sum to one.  Each law is
    ``StepCDF.from_values`` of its scenario's rows (:func:`_segment_laws`),
    and the family keeps each atom's index in the merged support from the
    same sort.
    """
    rows, offsets = partition.rows, partition.offsets
    if rows.min() < 0 or rows.max() >= sample.n_rows:
        raise ValidationError("partition indices out of range for sample")
    w = sample.weights[rows]
    pis = _segment_sums(w, offsets)
    empty = np.flatnonzero(pis <= 0)
    if empty.size:
        label = partition.labels[empty[0]]
        raise ValidationError(f"scenario {label!r} is empty after weight normalization")
    w /= np.repeat(pis, np.diff(offsets))
    support, cum, law_offsets, grid = _segment_laws(sample.loss[rows], w, offsets)
    return ConditionalLawFamily._from_flat(pis, support, cum, law_offsets,
                                           _label_source(partition), grid)


def _label_source(owner):
    """Labels for a family built from ``owner``: its label source, or a
    ``partial`` of its built labels, so the family keeps none of its arrays."""
    built = owner.__dict__.get("labels")
    return owner._labels if built is None else partial(tuple, built)


def _segment_laws(values: np.ndarray, w: np.ndarray, offsets: np.ndarray):
    """Support, cum and offsets of ``StepCDF.from_values(values[a:b], w[a:b])``
    for each segment [a, b) of ``offsets`` (``w`` totals 1 in each), bit for
    bit, and the merged grid (:func:`_grid_of`).

    One ``argsort`` of all the values ranks them (:func:`_ranks`).  An atom
    is a segment's run of one rank; in cache-sized batches of segments
    (:func:`_batches`) one sort of (segment, rank) keys (:func:`_sorted_keys`)
    numbers the atoms in segment and value order, and ``bincount`` sums each
    one's mass in row order.  An atom's index in the merged support is its
    rank, re-ranked where atoms were dropped.  Where a segment holds both
    -0.0 and 0.0, its zero atom takes the bits of the zero that its own
    argsort lists first (:func:`_first_zeros`).
    """
    rank, points = _ranks(values)
    zeros = _first_zeros(values, offsets) if _holds_zero(points) else {}
    support, masses, sizes, at, n_atoms = [], [], [], [], 0
    for s, e in _batches(offsets):
        a, b = offsets[s], offsets[e]
        key = rank[a:b].astype(np.int64)
        if e - s > 1:
            key += np.repeat(np.arange(e - s) * points.size, np.diff(offsets[s:e + 1]))
        key, order = _sorted_keys(key, (e - s) * points.size)
        new = np.empty(b - a, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        of_sorted = np.cumsum(new)
        of_sorted -= 1
        atom = np.empty_like(of_sorted)
        atom[order] = of_sorted
        batch = np.bincount(atom, weights=w[a:b])  # in row order, as np.add.at adds
        n_atoms += batch.size
        keep = batch > MIN_ATOM_MASS
        sizes.append(np.add.reduceat(keep, of_sorted[offsets[s:e] - a], dtype=np.int64))
        first = a + order[new][keep]  # a row of each kept atom
        support.append(values[first])
        at.append(rank[first])
        masses.append(batch[keep])
    del rank, values  # the caller's gather is freed here, for the peak memory
    support, sizes, at = np.concatenate(support), np.concatenate(sizes), np.concatenate(at)
    if at.size < n_atoms:  # atoms were dropped: re-rank
        present = np.zeros(points.size, dtype=bool)
        present[at] = True
        if not present.all():
            at = (np.cumsum(present, dtype=at.dtype) - 1)[at]
            points = points[present]
    law_offsets = np.concatenate(([0], np.cumsum(sizes)))
    masses = np.concatenate(masses)  # the list is freed here, for the peak memory
    cum = _segment_cumsums(masses, law_offsets)
    del masses
    # cumsum drift over many atoms is rescaled away, keeping each law's last cum == 1
    cum /= np.repeat(cum[law_offsets[1:] - 1], sizes)
    for i, zero in zeros.items():
        law = support[law_offsets[i]:law_offsets[i + 1]]
        k = law.searchsorted(0.0)
        if k < law.size and law[k] == 0.0:  # unless the zero atom was dropped
            law[k] = zero
    return support, cum, law_offsets, _grid_of(support, points, at)


def _sorted_keys(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``key`` (int64, in [0, bound)) sorted, and the positions that sort it,
    equal keys in position order: one ``np.sort`` of each key shifted above
    its position, which sorts several times faster than an ``argsort``, or
    an argsort where the two do not fit 63 bits."""
    shift = (key.size - 1).bit_length()
    if bound << shift > 2**63:
        order = np.argsort(key, kind="stable")
        return key[order], order
    key <<= shift
    key |= np.arange(key.size)
    key.sort()
    return key >> shift, key & ((1 << shift) - 1)


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's dense rank among ``values``, and the distinct values in
    order, from one ``argsort``."""
    order = np.argsort(values)
    x = values[order]
    new = np.empty(x.size, dtype=bool)
    new[0] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    points = x[new]
    del x
    ranks = np.cumsum(new, dtype=np.int32 if values.size < 2**31 else np.intp)
    ranks -= 1
    rank = np.empty_like(ranks)
    rank[order] = ranks
    return rank, points


def _first_zeros(values: np.ndarray, offsets: np.ndarray) -> dict:
    """For each segment of ``values`` that holds both -0.0 and 0.0, the zero
    that the segment's own argsort (``np.unique``'s sort) lists first."""
    if not _signed_zeros(values):
        return {}
    zero = values == 0.0
    neg = np.add.reduceat(zero & np.signbit(values), offsets[:-1], dtype=np.int64)
    both = (neg > 0) & (neg < np.add.reduceat(zero, offsets[:-1], dtype=np.int64))
    zeros = {}
    for i in np.flatnonzero(both).tolist():
        seg = values[offsets[i]:offsets[i + 1]]
        seg = seg[seg.argsort()]
        zeros[i] = seg[seg.searchsorted(0.0)]
    return zeros


# values per batch of _segment_laws' atoms: 128 KB per float64 array, so that
# a batch's arrays stay in cache and its transient memory stays small
_BATCH_ROWS = 2**14


def _batches(offsets: np.ndarray):
    """Batches [s, e) of consecutive segments of ``offsets``: up to
    ``_BATCH_ROWS`` rows, or one longer segment."""
    s, n = 0, offsets.size - 1
    while s < n:
        e = max(s + 1, int(np.searchsorted(offsets, offsets[s] + _BATCH_ROWS, side="right")) - 1)
        yield s, e
        s = e


def _equal_lengths(offsets: np.ndarray):
    """For each length of the segments of ``offsets``: those segments, and
    an index whose row k selects the k-th of them (a (1, L) view for a
    segment alone in its length)."""
    if offsets.size == 2:  # one segment, as each scalar.es has: nothing to group
        yield slice(None), np.s_[None, offsets[0]:offsets[1]]
        return
    sizes = np.diff(offsets)
    by_size = np.argsort(sizes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(sizes[by_size])) + 1).tolist(), by_size.size]
    for i, j in zip(bounds[:-1], bounds[1:]):
        segs = by_size[i:j]
        a, length = offsets[segs[0]], sizes[segs[0]]
        yield segs, (np.s_[None, a:a + length] if j - i == 1
                     else offsets[segs, None] + np.arange(length))


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[a:b].sum()`` for each segment [a, b) of ``offsets``, bit for
    bit: numpy sums each contiguous row of a matrix as it sums a 1-D array,
    so the segments of one length are summed as the rows of one matrix."""
    out = np.empty(offsets.size - 1)
    for segs, positions in _equal_lengths(offsets):
        out[segs] = values[positions].sum(axis=1)
    return out


def _segment_cumsums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[a:b].cumsum()`` for each segment [a, b) of ``offsets``, bit
    for bit, as the row cumsums of one matrix per segment length."""
    out = np.empty_like(values)
    for _, positions in _equal_lengths(offsets):
        out[positions] = values[positions].cumsum(axis=1)
    return out


def _segment_dots(x: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``x[a:b] @ y[a:b]`` for each segment [a, b) of ``offsets``, bit for
    bit: the segments of one length are one stack of (1, L) @ (L, 1)
    products, each of which numpy hands to the BLAS dot as it does a 1-D @."""
    out = np.empty(offsets.size - 1)
    for segs, positions in _equal_lengths(offsets):
        out[segs] = (x[positions][:, None, :] @ y[positions][:, :, None]).ravel()
    return out


def _segment_es(support: np.ndarray, cum: np.ndarray, offsets: np.ndarray,
                a: np.ndarray) -> np.ndarray:
    """``scalar.es`` of each law (segment of ``offsets``) at its level ``a[i]``:
    each atom weighs the part of (previous cum, cum] inside (a_i, 1]."""
    bad = np.flatnonzero(~((a >= 0) & (a < 1)))  # written so that NaN fails it
    if bad.size:
        raise ValidationError(f"ES level must be in [0, 1), got {a[bad[0]].item()!r}")
    lo = np.concatenate(([0.0], cum[:-1]))
    lo[offsets[:-1]] = 0.0
    seg = np.maximum(np.minimum(cum, 1.0) - np.maximum(lo, np.repeat(a, np.diff(offsets))), 0.0)
    return _segment_dots(support, seg, offsets) / (1.0 - a)


def _scenario_var(family: ConditionalLawFamily, g: np.ndarray) -> np.ndarray:
    """Each law's left quantile at its level ``g[i]`` in (0, 1], as
    ``scalar.var`` finds it: the law's count of cum below g_i is the index
    that ``searchsorted(side="left")`` returns, capped at its last atom."""
    starts, ends = family.offsets[:-1], family.offsets[1:]
    below = family.cum < np.repeat(g, np.diff(family.offsets))
    idx = starts + np.add.reduceat(below, starts, dtype=np.int64)
    return family.support[np.minimum(idx, ends - 1)]


def marginal(dist: DiscreteJointDistribution) -> StepCDF:
    """CDF of X ignoring W; masses at equal x merged."""
    return StepCDF.from_values(dist.xs, dist.ps)


class Resolved(NamedTuple):
    """A built-in functional fixed on one family's scenarios."""

    w: np.ndarray            # scenario weights of the sum
    a: np.ndarray            # per-scenario parameter of the term
    cut: float | None = None  # where the outer map jumps, making it a step (_sweep); None: never


@dataclass(frozen=True, eq=False)
class ScenarioFunctional:
    """``outer(sum_i w_i * term(y_i, a_i))`` of a per-scenario profile ``y``.

    ``y`` holds one probability per scenario: the survival 1 - F_i(x) for a
    scenario distortion, the CDF value F_i(x) for an acceptance predicate.
    ``term`` is elementwise with a per-scenario parameter, ``resolve(pi,
    labels)`` returns the :class:`Resolved` weights, parameters and jump
    point, and ``outer(s, cut)`` maps the sum (None: the identity).  A user
    callable ``func`` takes the place of all three; it sees whole profile
    rows: all of them for a distortion, a few for a predicate (:func:`_sweep`).
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


class _LabelView:
    """A family's labels, built when first read: :func:`_sweep` and the
    closed forms hand them to every level map, and only label-keyed ones
    read them."""

    def __init__(self, family: ConditionalLawFamily):
        self._family = family

    def __len__(self) -> int:
        return self._family.n_scenarios

    def __getitem__(self, i):
        return self._family.labels[i]

    def __iter__(self):
        return iter(self._family.labels)

    def __contains__(self, label) -> bool:
        return label in self._family.labels

    def index(self, label) -> int:
        return self._family.labels.index(label)


def _lazy_labels(family: ConditionalLawFamily):
    """The labels given to the family (or None), else a :class:`_LabelView`."""
    return family.labels if family._labels is None else _LabelView(family)


def _grid_of(support: np.ndarray, points: np.ndarray,
             at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merged support ``points`` of the atoms ``support`` and their
    indices ``at`` in it, read-only.  The zero point keeps the bits of the
    support's zeros; where those are both -0.0 and 0.0, the points are those
    of the hashing ``np.unique(support)``, which may keep either."""
    if _holds_zero(points):
        zero = support[support == 0.0]
        points = np.unique(support) if _signed_zeros(zero) else np.where(points == 0.0,
                                                                         zero[0], points)
    return _freeze(points), _freeze(at)


def _merged_grid(family: ConditionalLawFamily) -> tuple[np.ndarray, np.ndarray]:
    """The merged support and each atom's index in it, for :func:`_sweep`
    (stored as the rank's 32-bit int where it fits, read as intp)."""
    points, at = family._grid
    return points, at.astype(np.intp, copy=False)


def _atom_counts(scen, first, n: int, n_rows: int) -> np.ndarray:
    """Each scenario's count of atoms at rows 0..n_rows - 1, shape (n, n_rows):
    an atom counts from row ``first`` on; at ``first == n_rows`` it never counts."""
    count = np.bincount(scen * (n_rows + 1) + first, minlength=n * (n_rows + 1))
    return np.cumsum(count.reshape(n, n_rows + 1)[:, :n_rows], axis=1)


def _callable_rows(fn: ScenarioFunctional, Y: np.ndarray, pis, labels) -> np.ndarray:
    """A user callable on the profile rows ``Y``: one value per row, or a
    rejection (a wrong shape would otherwise be broadcast over the rows)."""
    result = fn.apply(Y, pis, labels)
    if result.shape != (len(Y),):
        raise ValidationError("a vectorized callable must return one value per profile row")
    return result


def _scatter_chunk(Y, carried, s, r, lengths, values) -> None:
    """Write a dense chunk ``Y`` (c rows, n columns, C-contiguous) as the
    carried row plus one run per atom: atom i of scenario s[i] holds
    values[i] on rows r[i] .. r[i] + lengths[i] - 1, by one flat scatter."""
    n = Y.shape[1]
    Y[:] = carried
    first = np.cumsum(lengths) - lengths  # each run's first changed cell
    cell = np.arange(lengths.sum()) * n
    Y.reshape(-1)[cell + np.repeat((r - first) * n + s, lengths)] = np.repeat(values, lengths)


def _transposed_chunk(Y, carried, s, r, values) -> None:
    """The chunk of :func:`_scatter_chunk`, written one scenario per row as
    consecutive runs (the carried value up to the scenario's first atom,
    then one run per atom) and copied transposed into ``Y``."""
    c, n = Y.shape
    scenarios = np.arange(n)
    at_run = np.arange(1, s.size + 1) + s  # each atom's run follows its scenario's carried run
    carried_run = scenarios + np.searchsorted(s, scenarios)
    run_values, begin = np.empty(n + s.size), np.empty(n + s.size, dtype=np.intp)
    run_values[carried_run], begin[carried_run] = carried, scenarios * c
    run_values[at_run], begin[at_run] = values, s * c + r
    Y[:] = np.repeat(run_values, np.diff(begin, append=n * c)).reshape(n, c).T


def _dense(fn: ScenarioFunctional, pis, labels, scen, at, y, carried, G: int) -> np.ndarray:
    """A user distortion on every dense profile row, one chunk of rows at a
    time in one reused buffer (see :func:`_sweep`)."""
    n = pis.size
    step = max(1, DENSE_CHUNK_BYTES // (64 * n))
    live = np.flatnonzero(at < G)
    live = live[np.argsort(at[live] // step, kind="stable")]  # (scenario, row) order per chunk
    s, values, r = scen[live], y[live], at[live]
    chunk = r // step
    r -= chunk * step  # the row within its chunk
    n_chunks = -(-G // step)
    bounds = np.searchsorted(chunk, np.arange(n_chunks + 1))
    # each atom's run ends at its scenario's next atom in the chunk, or at
    # the chunk's end; of atoms sharing a row, the last gets the row
    lengths = np.minimum(G - chunk * step, step)
    same = (s[1:] == s[:-1]) & (chunk[1:] == chunk[:-1])
    lengths[:-1][same] = r[1:][same]
    lengths -= r
    cells = np.bincount(chunk, weights=lengths, minlength=n_chunks)  # changed cells per chunk
    buffer = np.empty((min(step, G), n))
    out = np.empty(G, dtype=fn.result_type)
    for j, k in enumerate(range(0, G, step)):
        Y = buffer[:G - k]
        a, b = bounds[j], bounds[j + 1]
        if cells[j] <= DENSE_SCATTER_SHARE * Y.size:
            _scatter_chunk(Y, carried, s[a:b], r[a:b], lengths[a:b], values[a:b])
        else:
            _transposed_chunk(Y, carried, s[a:b], r[a:b], values[a:b])
        carried = Y[-1].copy()
        # the callable may return a view of Y, which the next chunk overwrites
        out[k:k + len(Y)] = _callable_rows(fn, Y, pis, labels)
    return out


def _sweep(family: ConditionalLawFamily, fn: ScenarioFunctional, grid, at=None) -> np.ndarray:
    """``fn`` on the scenario profile at every point of the increasing ``grid``.

    ``at`` is each atom's grid index, ``searchsorted(grid, family.support)``;
    where the grid is the merged support, :func:`_merged_grid` gives it.
    An exact row reads each scenario's value at its count of atoms at or
    below it; the anchor rows open blocks of max(n, MIN_SWEEP_BLOCK) rows
    and count each atom from block ceil(at / block) on (:func:`_atom_counts`).

    A step functional (a predicate, or a built-in whose outer map jumps at
    ``Resolved.cut``) changes value once along the grid, so it reads exact
    rows only.  The anchors and the last row, evaluated at once, bracket the
    change in one block, and a bisection there finds the first row that
    takes the last row's value.  A probe is the row below the bracket with
    each scenario's last atom in the bracket up to the probe set, and the
    bracket keeps only its own atoms.  That is at most ceil(log2 block)
    single rows, equal to the dense formula's bit for bit.  A predicate that
    is not upward closed gets an accepted row whose row below is rejected.

    Continuous built-ins take O(T log T) time and O(T) memory for T atoms:
    each atom changes its scenario's term once, at the first grid point at
    or above it, so one ``bincount`` of the changes and a cumulative sum,
    restarted from the exact anchor in every block, give every row's sum.

    A user distortion (``psi_custom``) sees dense rows in chunks of
    DENSE_CHUNK_BYTES / 64 / n rows, each built in one reused buffer from
    the carried row (the previous chunk's last; survival 1 below the grid)
    plus one run per atom, up to its scenario's next atom or the chunk's
    end: a flat scatter of the runs where they cover at most
    DENSE_SCATTER_SHARE of the chunk (:func:`_scatter_chunk`), else one
    ``np.repeat`` of the runs laid out one scenario per row, copied
    transposed (:func:`_transposed_chunk`).  Each value is a copy of 1 - cum
    or of the carried row, so the rows equal the per-cell lookup bit for
    bit.  Every matrix is C-contiguous and valid only during the call.
    """
    grid = np.asarray(grid, dtype=float)
    pis, n, G = family.pis, family.n_scenarios, grid.size
    labels = _lazy_labels(family)
    starts, cum = family.offsets[:-1], family.cum
    scen = np.repeat(np.arange(n), np.diff(family.offsets))
    if at is None:
        at = np.searchsorted(grid, family.support, side="left")
    r = None if fn.func is not None else fn.resolve(pis, labels)
    block = max(n, MIN_SWEEP_BLOCK)
    n_blocks = -(-G // block)
    first = -(-at // block)  # the first block anchor at or above each atom

    def profile(count: np.ndarray) -> np.ndarray:
        F = np.ascontiguousarray(np.where(count > 0, cum[starts[:, None] + count - 1], 0.0).T)
        return 1.0 - F if fn.survival else F

    if fn.result_type is bool or (r is not None and r.cut is not None):
        def value(Y):  # fn on these exact profile rows
            return _callable_rows(fn, Y, pis, labels) if r is None else fn.finish(
                fn.row_sums(Y, r), r)

        first += at == G  # atoms past the grid never count; column n_blocks is row G - 1
        count = _atom_counts(scen, first, n, n_blocks + 1)
        v = value(profile(count))
        j = np.flatnonzero(v == v[-1])[0]
        if j == 0:
            return np.full(G, v[-1])
        lo, hi = (j - 1) * block, min(j * block, G - 1)  # rows that take v[j - 1], v[-1]
        inside = np.flatnonzero(first == j)  # the atoms on rows lo + 1 .. hi, then the bracket's
        row, s_in, at_in = profile(count[:, j - 1:j]), scen[inside], at[inside]
        y_in = 1.0 - cum[inside] if fn.survival else cum[inside]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            low = at_in <= mid
            probe, s_low = row.copy(), s_in[low]  # a scenario's last atom up to mid sets it
            probe[0, s_low] = y_in[low][np.searchsorted(s_low, s_low, side="right") - 1]
            if value(probe)[0] != v[-1]:
                lo, row, low = mid, probe, ~low
            else:
                hi = mid
            s_in, at_in, y_in = s_in[low], at_in[low], y_in[low]
        return np.repeat(v[[j - 1, -1]], [hi, G - hi])

    y = 1.0 - cum if fn.survival else cum
    below = np.full(n, 1.0 if fn.survival else 0.0)  # the profile below the grid
    if r is None:
        return _dense(fn, pis, labels, scen, at, y, below, G)
    anchors = fn.row_sums(profile(_atom_counts(scen, first, n, n_blocks)), r)
    contrib = r.w[scen] * fn.term(y, r.a[scen])
    before = np.roll(contrib, 1)
    before[starts] = r.w * fn.term(below, r.a)
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
    return fn.finish(s, r)
