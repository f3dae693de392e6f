"""Scenario partitions and conditioning events on factor vectors.

Discrete factors are grouped by exact (canonically rounded) value.
Continuous factors are handled through empirical quantile boxes, and
distress events of the form VaR_a(W_j) <= W_j <= VaR_b(W_j) are built by
componentwise left quantiles of the factor columns.  Conditioning is
always an exact row selection with weight renormalization; there is no
kernel smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import scalar
from .core import (JointSample, ScenarioPartition, StepCDF, _cells, _count, _exactly_one,
                   _level, _ranks, _segment_sums, round_significant)
from .errors import EmptyEventError, ValidationError


@dataclass(frozen=True)
class VarBox:
    """Quantile-level box: the event VaR_alpha(W) <= W <= VaR_beta(W).

    ``alpha`` in (0,1)^N, ``beta`` in (0,1]^N, componentwise alpha <= beta.
    The induced event must carry positive empirical probability; that is
    checked where the box is applied.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ValidationError("alpha and beta must be aligned level vectors")
        _level(alpha, "alpha levels", "(0, 1)")
        _level(beta, "beta levels", "(0, 1]")
        if np.any(alpha > beta):
            raise ValidationError("alpha must be componentwise <= beta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class LevelMap:
    """Per-scenario quantile levels g_i, or one constant level.

    Holds either a constant, a vector aligned to the scenario order, or a
    mapping from scenario label to level.  Levels are validated to [0, 1];
    each operation further restricts to its own admissible range (VaR needs
    (0, 1], ES needs [0, 1)).
    """

    constant: float | None = None
    values: np.ndarray | None = None
    by_label: dict | None = None

    def __post_init__(self):
        _exactly_one(constant=self.constant is not None, values=self.values is not None,
                     by_label=self.by_label is not None)
        if self.values is not None:
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
            if self.values.ndim != 1:
                raise ValidationError(f"level vector must be 1-D, got shape {self.values.shape}")
        _level(self.constant if self.constant is not None
               else self.values if self.values is not None
               else list(self.by_label.values()), "scenario level", "[0, 1]")

    @classmethod
    def of(cls, spec) -> "LevelMap":
        """Coerce a float, a sequence, a dict, or a LevelMap into a LevelMap."""
        if isinstance(spec, LevelMap):
            return spec
        if isinstance(spec, dict):
            return cls(by_label=dict(spec))
        if np.ndim(spec) == 0:
            return cls(constant=float(spec))
        return cls(values=np.asarray(spec, dtype=float))

    def resolve(self, n: int, labels=None) -> np.ndarray:
        """Levels aligned to ``n`` scenarios (label-keyed maps need labels)."""
        if self.constant is not None:
            return np.full(n, self.constant)
        if self.values is not None:
            if self.values.size != n:
                raise ValidationError(f"level vector has {self.values.size} entries, expected {n}")
            return self.values.copy()
        if labels is None:
            raise ValidationError("label-keyed level map needs scenario labels")
        try:
            return np.array([float(self.by_label[lab]) for lab in labels])
        except KeyError as exc:
            raise ValidationError(f"no level assigned to scenario label {exc.args[0]!r}") from exc


def _retained_rows(sample: JointSample) -> np.ndarray:
    return np.flatnonzero(sample.weights > 0)


def partition_discrete(sample: JointSample) -> ScenarioPartition:
    """One scenario per distinct factor vector, in lexicographic label order.

    Rows with zero weight are not retained; a factor value seen only on
    zero-weight rows therefore contributes no scenario.

    The columns' dense ranks (:func:`~factorrisk.core._ranks`) are grouped
    as one mixed-radix key by one stable sort (:func:`~factorrisk.core._cells`,
    as a ``DiscreteJointDistribution``'s atoms), not ``np.unique(axis=0)``.
    """
    rows = _retained_rows(sample)
    facs = sample.factors[rows]
    codes, values = zip(*[_ranks(col) for col in facs.T])
    order, offsets = _cells(codes, [v.size for v in values])
    uniq = facs[order[offsets[:-1]]]  # a cell's members hold equal bits: factors have one zero
    members = rows[order]
    return ScenarioPartition._from_flat(members, offsets,
                                        _segment_sums(sample.weights[members], offsets),
                                        partial(_value_labels, uniq))


def _value_labels(uniq: np.ndarray) -> tuple:
    return tuple(map(tuple, uniq)) if uniq.shape[1] > 1 else tuple(uniq[:, 0].tolist())


def partition_quantile_boxes(sample: JointSample, bins_per_factor: int) -> ScenarioPartition:
    """Cartesian quantile-box partition for (effectively) continuous factors.

    Each factor column is cut at its empirical left quantiles at levels
    k / bins, k = 1..bins-1 (``scalar.quantiles``: for equally weighted rows
    the order statistics of rank ceil(k T / bins)), into left-open
    right-closed intervals (the lowest interval absorbs everything below).
    Empty boxes are dropped.
    Ties can merge cuts, which the partition's ``cuts`` show.  The boxes'
    interval codes (:func:`_interval_codes`) are grouped by
    :func:`~factorrisk.core._cells`; a label is built from them when read.
    """
    bins = _count(bins_per_factor, "bins_per_factor", 1)
    rows = _retained_rows(sample)
    weights, cuts, codes = sample.weights[rows], [], []
    levels = np.arange(1, bins) / bins
    for j in range(sample.n_factors):
        col = sample.factors[rows, j]
        cuts.append(np.unique(scalar.quantiles(col, weights, levels)))
        codes.append(_interval_codes(col, cuts[-1]))
    order, offsets = _cells(codes, [e.size + 1 for e in cuts])
    box_codes = [c[order[offsets[:-1]]] for c in codes]
    members = rows[order]
    return ScenarioPartition._from_flat(members, offsets,
                                        _segment_sums(sample.weights[members], offsets),
                                        partial(_box_labels, cuts, box_codes), tuple(cuts))


def _interval_codes(col: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Each value's interval index, the count of cuts below it: 0 for w <= e_1,
    k for e_k < w <= e_{k+1}; a pass per cut into bytes below 255 cuts, else a binary search."""
    if cuts.size >= 255:
        return np.searchsorted(cuts, col, side="left")
    code, above = np.zeros(col.size, dtype=np.uint8), np.empty(col.size, dtype=bool)
    for cut in cuts:
        code += np.greater(col, cut, out=above).view(np.uint8)
    return code


def _box_labels(cuts: list[np.ndarray], box_codes: list[np.ndarray]) -> tuple[str, ...]:
    names = [np.array([_interval_label(e, k) for k in range(e.size + 1)], dtype=object)[c]
             for e, c in zip(cuts, box_codes)]
    return tuple(map("*".join, zip(*names)))


def _interval_label(cuts: np.ndarray, code: int) -> str:
    lo = "-inf" if code == 0 else f"{cuts[code - 1]:.6g}"
    hi = "inf" if code == cuts.size else f"{cuts[code]:.6g}"
    return f"({lo},{hi}]"


def box_mask(sample: JointSample, box: VarBox) -> np.ndarray:
    """Boolean row mask of the event VaR_alpha(W) <= W <= VaR_beta(W)."""
    if box.alpha.size != sample.n_factors:
        raise ValidationError("box level vectors must match the factor dimension")
    rows = _retained_rows(sample)
    mask = np.zeros(sample.n_rows, dtype=bool)
    keep = np.ones(rows.size, dtype=bool)
    for j in range(sample.n_factors):
        col = sample.factors[rows, j]
        lo, hi = scalar.quantiles(col, sample.weights[rows], [box.alpha[j], box.beta[j]])
        keep &= (col >= lo) & (col <= hi)
    mask[rows[keep]] = True
    return mask


def event_mask(sample: JointSample, event) -> np.ndarray:
    """Row mask of a VarBox event or of a collection of exact factor vectors,
    zero-weight rows left out; an event of zero probability is rejected."""
    if isinstance(event, VarBox):
        mask = box_mask(sample, event)
    else:
        values = round_significant(np.atleast_2d(np.asarray(event, dtype=float)))
        if values.shape[1] != sample.n_factors:
            raise ValidationError("event factor values must match the factor dimension")
        mask = np.zeros(sample.n_rows, dtype=bool)
        for row in values:
            mask |= np.all(sample.factors == row, axis=1)
        mask &= sample.weights > 0
    if not mask.any():
        raise EmptyEventError("conditioning event has zero probability")
    return mask


def event_law(sample: JointSample, event) -> StepCDF:
    """Law of the loss on the event of :func:`event_mask`, weights renormalized:
    the one route from an event to a law, read by CoVaR, CoES, MES and ES on an event."""
    mask = event_mask(sample, event)
    return StepCDF.from_values(sample.loss[mask], sample.weights[mask])


def var_box_event(sample: JointSample, box: VarBox) -> JointSample:
    """Subsample on the VaR box event, weights renormalized; empty events are rejected."""
    return sample.subsample(event_mask(sample, box))


def broadcast_levels(levels, n_factors: int | None = None) -> np.ndarray:
    """``levels`` as a vector; a single level is repeated for each of ``n_factors``."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    return np.full(n_factors, levels[0]) if n_factors and levels.size == 1 else levels


def tail_box(alpha, n_factors: int | None = None) -> VarBox:
    """The upper-tail box [alpha, 1]: the event W >= VaR_alpha(W)."""
    alpha = broadcast_levels(alpha, n_factors)
    return VarBox(alpha, np.ones_like(alpha))
