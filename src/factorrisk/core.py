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
them on the points of a family's merged support (see its docstring).
"""

from __future__ import annotations

import itertools
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
MIN_ATOM_MASS = 1e-15
SIGNIFICANT_DIGITS = 12
# Values per block of round_significant: 1 MB per float64 temporary, in a
# core's L2 cache.
_ROUND_BLOCK = 2**17
# Working-set budget of one chunk of dense profile rows (user distortions);
# the profile state and the copy handed to the callable take an eighth of it
# each, so both, the atoms set into the state and the callable's own
# temporaries stay in a core's L2 cache.
DENSE_CHUNK_BYTES = 4 * 2**20
# Chunks per thread of a custom distortion's sweep, at the least: a range
# of chunks pays for its own state and thread (see _dense).
_MIN_RANGE_CHUNKS = 32
# Exact anchor rows open every block of max(n, this) grid rows (see _sweep).
MIN_SWEEP_BLOCK = 256


def round_significant(values) -> np.ndarray:
    """Round to ``SIGNIFICANT_DIGITS`` significant digits, elementwise.

    Factor values are canonicalized this way on ingestion so that grouping
    by factor value is a deterministic float operation.  Values whose
    magnitude sits beyond 1e+-300 are left unchanged (rounding there would
    overflow the scale and such values are already degenerate as factors).
    The rounding runs in place on the copy, in blocks (:func:`_round_in_place`).
    """
    return _round_in_place(_entered(values))


def _round_in_place(arr: np.ndarray, given=None) -> np.ndarray:
    """``arr``, a new C-ordered float array, rounded as
    :func:`round_significant` rounds, in place: ``_ROUND_BLOCK`` values at a
    time, so the temporaries stay in cache.  A zero, a non-finite value or
    one whose scale overflows rounds to a non-finite value and is kept.
    With ``given``, the factor values ``arr`` was entered from, a
    non-finite value is rejected, named as it was given."""
    flat = arr.reshape(-1)
    scale, rounded = np.empty((2, min(flat.size, _ROUND_BLOCK)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(0, flat.size, _ROUND_BLOCK):
            block = flat[s:s + _ROUND_BLOCK]
            x, y = scale[:block.size], rounded[:block.size]
            if given is not None and not np.isfinite(block).all():
                bad = s + int(np.argmin(np.isfinite(block)))
                raise ValidationError("factor values must be finite, "
                                      f"got {np.asarray(given).ravel()[bad].item()!r}")
            np.abs(block, out=x)
            np.log10(x, out=x)
            np.floor(x, out=x)
            np.subtract(SIGNIFICANT_DIGITS - 1, x, out=x)
            np.power(10.0, x, out=x)
            np.multiply(block, x, out=y)
            np.round(y, out=y)
            np.divide(y, x, out=y)
            np.copyto(block, y, where=np.isfinite(y))
    return arr


def _entered(values) -> np.ndarray:
    """``values`` as a new float array with each -0.0 read as 0.0 (x + 0.0
    is x, and 0.0 at -0.0): the one zero of every value the library takes
    in, since -0.0 and 0.0 are one point of a law."""
    arr = np.asarray(values)  # no copy of an array
    if arr.dtype.kind not in "biuf":  # strings, objects, None: read as float(), NaN for None
        arr = np.asarray(values, dtype=float)
    # one pass, numbers cast as read, into a new C-ordered array for _round_in_place
    return np.add(arr, 0.0, out=np.empty(arr.shape), dtype=float)


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


def _first(values, bad):
    """The first of ``values`` (flat order) where ``bad`` holds, as it was
    given, for a message: a Python number, so an int 1 prints ``1``."""
    return np.asarray(values).ravel()[np.flatnonzero(bad)[:1]].item()


def _as_1d(values, name: str) -> np.ndarray:
    arr = _entered(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite, got {_first(values, ~np.isfinite(arr))!r}")
    return arr


# each interval a level may be named by: the comparisons its values pass at 0 and at 1
_INTERVALS = {"(0, 1)": (operator.lt, operator.lt), "(0, 1]": (operator.lt, operator.le),
              "[0, 1)": (operator.le, operator.lt), "[0, 1]": (operator.le, operator.le)}


def _level(value, name: str, interval: str):
    """``value``, a level or an array of levels, checked to be in ``interval``
    (a key of ``_INTERVALS``): a float, or a float array.  NaN lies in none;
    the message names the first value outside as it was given."""
    low, high = _INTERVALS[interval]
    if isinstance(value, (float, int)):  # the common case, without numpy
        if low(0, value) and high(value, 1):
            return float(value)
        outside = True
    else:
        arr = np.asarray(value, dtype=float)
        outside = ~(low(0, arr) & high(arr, 1))
        if not outside.any():
            return arr if arr.ndim else float(arr)
    raise ValidationError(f"{name} must be in {interval}, got {_first(value, outside)!r}")


def _count(value, name: str, minimum: int) -> int:
    """``value``, a count, as an int: an integer (of any type) at least
    ``minimum``.  NaN, infinities and fractions fail; the message names the
    value as it was given."""
    try:
        whole = value == int(value)  # int() raises on NaN and infinities
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and int(value) >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _rng(seed, *spawn_key) -> np.random.Generator:
    """``np.random.default_rng(seed)``, or its child spawned at the row indices ``spawn_key``."""
    seed, key = _count(seed, "seed", 0), tuple(_count(k, "row index", 0) for k in spawn_key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _probabilities(values, name: str) -> np.ndarray:
    """``values`` as a new 1-D float array of probabilities: finite,
    nonnegative and summing to 1 within PROB_TOL.  NaN fails; the message
    names the first offending value as it was given, or the sum."""
    p = _as_1d(values, name)
    if (p < 0).any():
        raise ValidationError(f"{name} must be nonnegative, got {_first(values, p < 0)!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{name} must sum to 1 within {PROB_TOL}, got {total!r}")
    return p


def _factor_matrix(values, n_rows: int, name: str) -> np.ndarray:
    """``values`` as a new, canonically rounded ``n_rows`` x N float matrix,
    N >= 1 and finite; a vector is read as one column."""
    f = _entered(values)
    if f.ndim == 1:
        f = f.reshape(-1, 1)
    if f.ndim != 2 or f.shape[0] != n_rows or f.shape[1] < 1:
        raise ValidationError(f"{name} must be a {n_rows} x N matrix, N >= 1, "
                              f"got shape {f.shape}")
    return _round_in_place(f, values)


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
    w /= total  # w is _as_1d's copy
    return w


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


def _equal_weight_atoms(x: np.ndarray):
    """The law of the sorted, equally weighted values ``x``: the distinct
    values and each one's cum C / n, C the count of values up to it (one
    correctly rounded division per atom).  For a level p that is the
    correctly rounded value of a fraction r (k / bins, a decimal), ``cum < p``
    then decides C / n < r exactly, unless n times r's denominator exceeds
    about 2**52."""
    last = np.empty(x.size, dtype=bool)
    last[-1] = True
    np.not_equal(x[1:], x[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    support = x[ends]
    ends += 1
    return support, ends / x.size


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

        Equally weighted values (weights None or all one value: every CSV,
        ``simulate`` or subsample column) take one ``np.sort``, and each
        atom's cum is C / n, C the count of values up to it
        (:func:`_equal_weight_atoms`): the left quantile at p is the order
        statistic of rank min{C : C / n >= p}.  Other weights take each
        value's dense rank (:func:`_ranks`), a ``bincount`` that adds each
        atom's weights in row order, and their cumulative sum.  Equal values
        are equal bits, as values enter with one zero (:func:`_entered`).
        """
        vals = _as_1d(values, "values")
        w = _normalized_weights(weights, vals.size)
        if (w == w[0]).all():
            vals.sort()  # in place: vals is _as_1d's copy
            return cls._of_cum(*_equal_weight_atoms(vals))
        rank, uniq = _ranks(vals)
        # bincount adds each atom's weights in row order, as np.add.at does
        return cls._of_masses(uniq, np.bincount(rank, weights=w, minlength=uniq.size))

    @classmethod
    def _of_masses(cls, support, masses) -> "StepCDF":
        """The law of atoms ``support`` (kept, read-only) weighing ``masses``
        (overwritten), as ``from_values`` finishes it."""
        keep = masses > MIN_ATOM_MASS
        if not keep.all():
            support, masses = support[keep], masses[keep]
        cum = np.cumsum(masses, out=masses)
        # cumsum drift over many atoms is rescaled away, keeping cum[-1] == 1
        cum /= cum[-1]
        return cls._of_cum(support, cum)

    @classmethod
    def _of_cum(cls, support, cum) -> "StepCDF":
        """The law of ``support`` and ``cum``, library-built arrays with one
        zero: checked, and kept read-only without a copy."""
        _check_laws(support, cum, np.array([0, support.size]))
        return _unchecked(cls, support=_freeze(support), cum=_freeze(cum))

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


@dataclass(frozen=True)
class DiscreteJointDistribution:
    """Exact atom list of a joint law of (X, W).

    Atoms are canonicalized on construction: factor values rounded to 12
    significant digits, atoms sorted lexicographically by (w, x), equal
    (w, x) pairs merged by summing mass, and atoms lighter than 1e-15
    dropped with the remaining mass renormalized.  The canonical order
    comes from the same cells as ``partition_discrete``'s: the dense ranks
    of each w column and of x grouped by :func:`_cells`.  Canonicalization
    is idempotent: the canonical object builds itself again bit for bit.
    The masses of a merged (w, x) pair are summed in the order the atoms
    were given, so two orderings of one joint law can differ in the last
    bits of ``ps``: masses 0.1, 0.2, 0.3 merge to 0.6000000000000001, and
    0.3, 0.2, 0.1 to 0.6.
    """

    xs: np.ndarray
    ws: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        xs = _as_1d(self.xs, "xs")
        ws = _factor_matrix(self.ws, xs.size, "ws")
        ps = _probabilities(self.ps, "atom masses")
        if ps.size != xs.size:
            raise ValidationError("atom arrays must align: xs (M,), ws (M,N), ps (M,)")
        if np.any(ps <= 0):
            raise ValidationError("atom masses must be positive")

        codes, values = zip(*[_ranks(col) for col in (*ws.T, xs)])
        order, offsets = _cells(codes, [v.size for v in values])
        first = order[offsets[:-1]]
        merged_p = np.bincount(np.repeat(np.arange(first.size), np.diff(offsets)), weights=ps[order])
        xs, ws = xs[first], ws[first]
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
        ws = [np.atleast_1d(np.asarray(r[1], dtype=float)) for r in rows]
        shapes = sorted({w.shape for w in ws})
        if len(shapes) > 1:
            raise ValidationError(f"factor vectors must have one length, got shapes {shapes}")
        ps = np.array([r[2] for r in rows], dtype=float)
        return cls(xs, np.array(ws), ps)

    @property
    def n_factors(self) -> int:
        return self.ws.shape[1]

    def to_sample(self) -> "JointSample":
        """Atoms as weighted sample rows (one row per atom)."""
        return JointSample(self.xs, self.ws, self.ps)


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
        factors = _factor_matrix(self.factors, loss.size, "factors")
        w = _normalized_weights(self.weights, loss.size)
        if self.factor_names is not None and len(self.factor_names) != factors.shape[1]:
            raise ValidationError("factor_names must match the number of factor columns")
        object.__setattr__(self, "loss", _freeze(loss))
        object.__setattr__(self, "factors", _freeze(factors))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_rows(self) -> int:
        return self.loss.size

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]

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
        if not self.weight > 0:
            raise ValidationError("scenario weight must be positive, "
                                  f"got {_first(self.weight, True)!r}")
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
        labels = tuple(s.label for s in scenarios)
        self._set(rows, np.cumsum([0] + [s.rows.size for s in scenarios]),
                  np.array([s.weight for s in scenarios], dtype=float), partial(tuple, labels))
        self.__dict__.update(scenarios=scenarios, labels=labels)

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
        weights = _probabilities(weights, "scenario weights")
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
    laws (``from_sample``), else from one ``argsort`` (:func:`_ranks`) when
    first read.
    """

    pis: np.ndarray
    support: np.ndarray
    cum: np.ndarray
    offsets: np.ndarray

    def __init__(self, pis, laws: Iterable[StepCDF], labels=None):
        laws = tuple(laws)
        if len(laws) != np.size(pis):
            raise ValidationError("pis and laws must align")
        if not all(isinstance(law, StepCDF) for law in laws):
            raise ValidationError("laws must be StepCDF instances")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(laws):
                raise ValidationError("labels must align with scenarios")
        self._set(pis, np.concatenate([law.support for law in laws]),
                  np.concatenate([law.cum for law in laws]),
                  np.cumsum([0] + [law.support.size for law in laws]),
                  None if labels is None else partial(tuple, labels))
        self.__dict__.update(laws=laws, labels=labels)

    @classmethod
    def _from_flat(cls, pis, support, cum, offsets, labels: Callable[[], tuple] | None,
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
        pis = _probabilities(pis, "scenario probabilities")
        if np.any(pis <= 0):
            raise ValidationError("scenario probabilities must be positive")
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
        """The merged support and each atom's index in it (int32 where it fits), read-only."""
        at, points = _ranks(self.support)
        return _freeze(points), _freeze(at)

    def merged_support(self) -> np.ndarray:
        return self._grid[0].copy()

    def _masses(self) -> np.ndarray:
        """Each atom's mass within its law, as ``StepCDF.masses`` finds it."""
        return self.cum - _previous(self.cum, self.offsets)

    def mixture(self) -> StepCDF:
        """The pi-weighted mixture of the conditional laws (marginal of X):
        ``StepCDF.from_values(support, masses)`` bit for bit, one ``bincount``
        over each atom's index in the merged support: of the atoms, where
        all weigh the same (the count rule C / n), else of their masses."""
        points, at = self._grid
        masses = self._masses()
        masses *= np.repeat(self.pis, np.diff(self.offsets))
        if (masses == masses[0]).all():
            return StepCDF._of_cum(points, np.cumsum(np.bincount(at)) / at.size)
        masses /= masses.sum()  # as from_values normalizes its weights
        return StepCDF._of_masses(points, np.bincount(at, weights=masses, minlength=points.size))

    def scenario_means(self) -> np.ndarray:
        return _segment_dots(self.support, self._masses(), self.offsets)


def from_sample(sample: JointSample, partition: ScenarioPartition) -> ConditionalLawFamily:
    """Per-scenario weighted empirical conditional laws, built flat.

    ``pi_i`` is the summed normalized row weight of scenario i, summed as
    the partitions sum ``partition.weights`` (:func:`_segment_sums`; once
    per scenario length where all weights are one value), so the pis follow
    this sample; a scenario whose rows all carry zero weight is rejected.
    The partition must cover the sample's positive-weight rows so the pi's
    sum to one.  Each law is ``StepCDF.from_values`` of its scenario's rows
    (:func:`_segment_laws`), counted where each scenario's rows weigh the
    same, and the family keeps each atom's index in the merged support from
    the same sort.
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
    support, cum, law_offsets, grid = _segment_laws(sample.loss[rows], w, offsets, pis)
    return ConditionalLawFamily._from_flat(pis, support, cum, law_offsets, partition._labels, grid)


def _segment_laws(values: np.ndarray, w: np.ndarray, offsets: np.ndarray, totals: np.ndarray):
    """Support, cum and offsets of ``StepCDF.from_values(values[a:b], w[a:b])``
    for each segment [a, b) of ``offsets``, bit for bit, ``w`` divided in
    place by ``totals``, its positive segment sums (:func:`_segment_sums`),
    as ``from_values`` normalizes; and the merged support with each atom's
    index in it, read-only.
    ``values`` hold no -0.0, so equal values are equal bits: a sample's
    losses (:func:`_entered`), or ``PiecewiseLinearAllocation.h`` of a
    family's support, whose last term adds +0.0.

    One ``argsort`` of all the values ranks them (:func:`_ranks`), and one
    sort of the keys segment * P + rank (P distinct values) lists each
    segment's ranks in order in its own rows: a run of one key is an atom,
    its rank is its index in the merged support and its cum is the count
    rule C / n, C the segment's rows up to the run's end.  Where any
    segment's normalized weights differ (max != min), the sort carries the
    keys' positions (:func:`_sorted_keys`), ``bincount`` sums each atom's
    mass in row order, atoms under ``MIN_ATOM_MASS`` are dropped and
    re-ranked, and those weighted segments take their accumulated masses as
    cum.
    """
    starts, n_rows = offsets[:-1], np.diff(offsets)
    w /= np.repeat(totals, n_rows)
    rank, points = _ranks(values)
    del values  # the caller's gather is freed here, for the peak memory: the support is points[at]
    weighted = np.maximum.reduceat(w, starts) != np.minimum.reduceat(w, starts)
    any_weighted = weighted.any()
    base = np.arange(n_rows.size, dtype=np.int64) * points.size  # each segment's first key
    key = np.repeat(base, n_rows)
    key += rank
    dtype = rank.dtype
    del rank
    if any_weighted:
        key, order = _sorted_keys(key, n_rows.size * points.size)
        w = w[order]  # in sorted order: freed with the positions before the atoms are built
        del order
    else:
        key.sort()
    last = np.empty(key.size, dtype=bool)  # where each atom's rows end, in sorted order
    last[-1] = True
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    if any_weighted:
        # each sorted row's atom: an atom's rows are in row order, so bincount
        # adds each atom's weights in row order, as np.add.at does
        atom = np.cumsum(last)
        atom -= last
        masses = np.bincount(atom, weights=w)
        del atom, w
    ends = np.flatnonzero(last)
    sizes = np.add.reduceat(last, starts, dtype=np.int64)  # each segment's atoms
    del last
    law_offsets = np.concatenate(([0], np.cumsum(sizes)))
    at = key[ends]
    del key  # freed before the atoms' segment keys, for the peak memory
    at -= np.repeat(base, sizes)
    at = at.astype(dtype, copy=False)
    ends += 1
    ends -= np.repeat(starts, sizes)  # C, the segment's rows up to the atom
    cum = ends / np.repeat(n_rows, sizes)  # the count rule
    del ends
    if any_weighted:
        keep = masses > MIN_ATOM_MASS
        if not keep.all():  # drop, and re-rank where a point lost its last atom
            sizes = np.add.reduceat(keep, law_offsets[:-1], dtype=np.int64)
            law_offsets = np.concatenate(([0], np.cumsum(sizes)))
            at, cum, masses = at[keep], cum[keep], masses[keep]
            present = np.zeros(points.size, dtype=bool)
            present[at] = True
            if not present.all():
                at = (np.cumsum(present, dtype=at.dtype) - 1)[at]
                points = points[present]
        sums = _segment_cumsums(masses, law_offsets)
        del masses
        # cumsum drift over many atoms is rescaled away, keeping each law's last cum == 1
        sums /= np.repeat(sums[law_offsets[1:] - 1], sizes)
        np.copyto(cum, sums, where=np.repeat(weighted, sizes))
        del sums
    return points[at], cum, law_offsets, (_freeze(points), _freeze(at))


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
    order = key & ((1 << shift) - 1)
    key >>= shift
    return key, order


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


def _cells(codes: list[np.ndarray], radices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The positions grouped by their vector of per-column codes, cells in
    lexicographic order and each cell's positions in order, and the cells'
    offsets in it: one stable sort (:func:`_sorted_keys`), at any number of
    cells, of the codes folded into one mixed-radix int64 key, first column
    most significant.  Where the next column would overflow the key, it is
    re-ranked to its dense rank (:func:`_ranks`), which keeps its order;
    that rank is int32 below 2**31 positions, so it is widened to int64.
    """
    key, size = np.zeros(codes[0].size, dtype=np.int64), 1
    for column, radix in zip(codes, radices):
        if size * radix > 2**63:
            key, uniq = _ranks(key)
            key, size = key.astype(np.int64), uniq.size
        key *= radix  # in place: no temporary of n keys per column
        key += column
        size *= radix
    key, order = _sorted_keys(key, size)
    return order, np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [key.size]))


def _equal_lengths(offsets: np.ndarray):
    """For each length of the segments of ``offsets``: those segments, and
    an index whose row k selects the k-th of them (a (1, L) view for a
    segment alone in its length)."""
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
    so the segments of one length are summed as the rows of one matrix.
    Where the values are all one nonzero value (equal bits: the weights of
    an equally weighted sample), a segment's sum depends on its length
    alone, so ``values[:k]`` is summed once per distinct length k."""
    if values.size and values[0] != 0 and (values == values[0]).all():
        of_length, lengths = _ranks(np.diff(offsets))
        return np.array([values[:k].sum() for k in lengths.tolist()])[of_length]
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


def _previous(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each value's predecessor in its segment of ``offsets``; 0 at a segment's start."""
    prev = np.concatenate(([0.0], values[:-1]))
    prev[offsets[:-1]] = 0.0
    return prev


def _segment_es(support: np.ndarray, cum: np.ndarray, offsets: np.ndarray,
                a: np.ndarray) -> np.ndarray:
    """``scalar.es`` of each law (segment of ``offsets``) at its level ``a[i]``:
    each atom weighs the part of (previous cum, cum] inside (a_i, 1]."""
    a = _level(a, "ES level", "[0, 1)")
    lo = _previous(cum, offsets)
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
    point, and ``outer(s, cut)`` maps the sum (None: the identity); its
    labels are None or a :class:`_LabelView` (``iter``, ``in``, ``index``).
    A user callable ``func`` takes the place of all three and gets no labels;
    it sees whole profile rows: all for a distortion, a few for a predicate.
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
            result = np.asarray(self.func(Y, pi), dtype=self.result_type)
            if result.shape != (len(Y),):  # a wrong shape would be broadcast over the rows
                raise ValidationError("a vectorized callable must return one value per profile row")
            return result
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

    def __iter__(self):
        return iter(self._family.labels)

    def __contains__(self, label) -> bool:
        return label in self._family.labels

    def index(self, label) -> int:
        return self._family.labels.index(label)


def _lazy_labels(family: ConditionalLawFamily):
    """None for a family without labels, else a :class:`_LabelView`."""
    return None if family._labels is None else _LabelView(family)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map(fn, items, inline: bool = False) -> list:
    """``[fn(x) for x in items]``, in order.

    The calling thread and up to min(len(items), :func:`_cpus`) - 1 helper
    threads (plain ``threading.Thread`` s) each take the next item from a
    shared index, so the caller works too, and its heap serves most of the
    allocations.  The first exception, on any thread, stops every thread
    after its current item and re-raises here, once every helper has
    stopped.  With one item, one CPU or ``inline`` (the caller's floor on
    work per item) the same loop runs inline and no thread starts.
    """
    items = list(items)
    out, errors = [None] * len(items), []
    taken, lock = itertools.count(), threading.Lock()

    def work():
        try:
            while not errors:
                with lock:  # each index goes to one thread
                    i = next(taken)
                if i >= len(items):
                    return
                out[i] = fn(items[i])
        except BaseException as exc:  # re-raised on the caller
            errors.append(exc)

    n_helpers = 0 if inline else min(len(items), _cpus()) - 1
    helpers = [threading.Thread(target=work) for _ in range(n_helpers)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return out


def _atom_counts(scen, first, n: int, n_rows: int) -> np.ndarray:
    """Each scenario's count of atoms at rows 0..n_rows - 1, shape (n, n_rows):
    an atom counts from row ``first`` on; at ``first == n_rows`` it never counts."""
    count = np.bincount(scen * (n_rows + 1) + first, minlength=n * (n_rows + 1))
    return np.cumsum(count.reshape(n, n_rows + 1)[:, :n_rows], axis=1)


def _chunk_rows(n: int) -> int:
    """Rows per chunk of dense profile rows for n scenarios, from ``DENSE_CHUNK_BYTES``
    as it is when called: the engine's chunks and :func:`_spot_check`'s."""
    return max(1, DENSE_CHUNK_BYTES // (64 * n))


def _spot_check(fn: ScenarioFunctional, weightings, check_pairs: int, rng, messages) -> None:
    """A user callable's poles and ``check_pairs`` random ordered pairs, under each weighting:
    0 and 1 within 1e-12 (``messages`` 0 and 1), then one draw of lower profiles, walked in
    :func:`_chunk_rows` chunks.  The callable gets a copy of a chunk, which then becomes its
    upper profiles in place (the next draw added, capped at 1); an upper value more than
    1e-12 below its lower one fails (``messages`` 2).  A chunked draw is the whole draw."""
    for pi in weightings:
        for pole, message in zip((0.0, 1.0), messages):
            if abs(float(fn.apply(np.full((1, pi.size), pole), pi)[0]) - pole) > 1e-12:
                raise ValidationError(message)
        draw, step = rng.random((check_pairs, pi.size)), _chunk_rows(pi.size)
        for k in range(0, check_pairs, step):
            rows = draw[k:k + step]
            lower = fn.apply(rows.copy(), pi)
            rows += rng.random(rows.shape)
            if np.any(fn.apply(np.minimum(rows, 1.0, out=rows), pi) < lower - 1e-12):
                raise ValidationError(messages[2])
        del draw, rows  # before the next weighting's draw


def _dense(fn: ScenarioFunctional, pis, scen, at, y, profile, S: int, G: int) -> np.ndarray:
    """A user distortion on every dense profile row in S calls, call j on grid
    rows j, j + S, j + 2S, ...  The calls run in contiguous ranges through
    :func:`_map`: for a vectorized callable one per usable CPU, each of at
    least ``_MIN_RANGE_CHUNKS`` calls; else one, on the calling thread.  A
    range that starts at call j0 starts from its own state, the ``profile``
    at grid rows j0 + iS, and each later call's rows are the state with that
    call's atoms, each on its own row, set.  The states and the copies the
    callable gets are allocated here, on the calling thread."""
    n = pis.size
    live = np.flatnonzero(at < G)
    row, chunk = np.divmod(at[live], S)
    chunk, order = _sorted_keys(chunk.astype(np.int64), S)
    live = live[order]
    cell, values = row[order].astype(np.intp) * n + scen[live], y[live]
    bounds = np.searchsorted(chunk, np.arange(S + 1))
    out = np.empty(G, dtype=fn.result_type)

    def run(task):
        j0, j1, state, work = task
        flat = state.reshape(-1)
        for j in range(j0, j1):
            if j > j0:  # call j0's atoms are in its state already
                flat[cell[bounds[j]:bounds[j + 1]]] = values[bounds[j]:bounds[j + 1]]
            c = -(-(G - j) // S)
            np.copyto(work[:c], state[:c])  # the callable may write into its matrix
            out[j::S] = fn.apply(work[:c], pis)  # or return a view of it

    k = max(1, min(S // _MIN_RANGE_CHUNKS, _cpus())) if fn.vectorized else 1
    tasks = []
    for j0, j1 in itertools.pairwise([S * i // k for i in range(k + 1)]):
        # an atom counts from the first of these rows at or above it (at - j0 > -S)
        state = profile(_atom_counts(scen, -(-(at - j0) // S), n, -(-(G - j0) // S)))
        tasks.append((j0, j1, state, np.empty_like(state)))
    _map(run, tasks)
    return out


def _sweep(family: ConditionalLawFamily, fn: ScenarioFunctional, G: int) -> np.ndarray:
    """``fn`` on the scenario profile at the first G = m - 1 or m points of
    the family's merged support of m points, ``family._grid[0][:G]``.

    Each atom's grid row is its stored index in it, ``family._grid[1]``, int32
    where it fits (each product of it is with an intp array or below G, and
    ``np.cumsum`` widens it); at G = m - 1 the atoms on row G are past the
    swept points.  G = 0 gives an empty array, calling no user distortion.
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
    single rows, equal to the dense formula's bit for bit.  A user predicate
    gets a copy of each matrix, which it may write into.  A predicate that
    is not upward closed gets an accepted row whose row below is rejected.

    Continuous built-ins take O(T log T) time and O(T) memory for T atoms:
    each atom changes its scenario's term once, on its own grid row, so one
    ``bincount`` of the changes and a cumulative sum, restarted from the
    exact anchor in every block, give every row's sum.

    A user distortion (``psi_custom``) sees dense rows in S = ceil(G / step)
    calls, step = :func:`_chunk_rows` rows: call j gets grid rows j, j + S,
    j + 2S, ...  Moving from call j to j + 1 moves every row up by
    one grid point, so one state matrix carries the rows: it starts as the
    anchor rows of blocks of S rows, and before call j only the atoms on
    grid rows j + iS are set into it, so each atom is written once over the
    whole sweep.  The callable gets a copy of the state's first
    ceil((G - j) / S) rows, which it may write into.  Each value is a copy of
    1 - cum or 1, so the rows equal the per-cell lookup bit for bit.  Every
    matrix is C-contiguous and valid only during the call.  A vectorized
    callable's S calls run in contiguous ranges of at least
    ``_MIN_RANGE_CHUNKS`` calls, one per usable CPU, each from its own state
    (:func:`_dense`): it may be called from several threads at once, in any
    order of j, so it must keep no state between calls; each call gets the
    same matrix, so the output is the one-thread output bit for bit.  A row
    callable runs every call on the calling thread, in the order of j.
    """
    pis, n, at = family.pis, family.n_scenarios, family._grid[1]
    labels = _lazy_labels(family)
    starts, cum = family.offsets[:-1], family.cum
    scen = np.repeat(np.arange(n), np.diff(family.offsets))
    r = None if fn.func is not None else fn.resolve(pis, labels)

    def profile(count: np.ndarray) -> np.ndarray:
        F = np.ascontiguousarray(np.where(count > 0, cum[starts[:, None] + count - 1], 0.0).T)
        return 1.0 - F if fn.survival else F

    if r is None and fn.result_type is not bool:  # a user distortion: dense rows
        if G == 0:
            return np.empty(0, dtype=fn.result_type)
        y = 1.0 - cum if fn.survival else cum
        return _dense(fn, pis, scen, at, y, profile, -(-G // _chunk_rows(n)), G)
    block = max(n, MIN_SWEEP_BLOCK)
    n_blocks = -(-G // block)
    first = -(-at // block)  # the first block anchor at or above each atom
    if fn.result_type is bool or r.cut is not None:
        def value(Y):  # fn on these exact profile rows; a user predicate gets a copy
            return fn.apply(Y.copy(), pis) if r is None else fn.finish(fn.row_sums(Y, r), r)

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
