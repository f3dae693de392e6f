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

import numpy as np

from . import scalar
from .core import JointSample, Scenario, ScenarioPartition, StepCDF
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
        if np.any(alpha <= 0) or np.any(alpha >= 1):
            raise ValidationError("alpha levels must lie in (0, 1)")
        if np.any(beta <= 0) or np.any(beta > 1):
            raise ValidationError("beta levels must lie in (0, 1]")
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
        given = sum(x is not None for x in (self.constant, self.values, self.by_label))
        if given != 1:
            raise ValidationError("provide exactly one of constant, values, by_label")
        if self.constant is not None:
            self._check(self.constant)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            for v in vals:
                self._check(v)
            object.__setattr__(self, "values", vals)
        if self.by_label is not None:
            for v in self.by_label.values():
                self._check(v)

    @staticmethod
    def _check(v):
        if not 0 <= v <= 1:
            raise ValidationError(f"scenario level must lie in [0, 1], got {v!r}")

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


def _group(rows: np.ndarray, inverse: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """``rows[inverse == i]`` for every group i, in one stable sort."""
    inverse = inverse.reshape(-1)
    # numpy sorts 16-bit keys stably by radix, about 6x faster than int64 keys
    key = inverse.astype(np.uint16) if n_groups <= 2**16 else inverse
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(inverse, minlength=n_groups))
    return np.split(rows[order], ends[:-1])


def partition_discrete(sample: JointSample) -> ScenarioPartition:
    """One scenario per distinct factor vector, in lexicographic label order.

    Rows with zero weight are not retained; a factor value seen only on
    zero-weight rows therefore contributes no scenario.

    Rows are ranked by folding one column at a time into a mixed-radix
    int64 key (previous rank times the column's distinct-value count plus
    the value's code), re-ranked with a 1-D ``np.unique``, in place of
    ``np.unique(..., axis=0)`` on the rows.  Where a column holds both -0.0
    and 0.0, which of them labels the scenario is the choice of that
    row sort, so such samples still take it.
    """
    rows = _retained_rows(sample)
    facs = sample.factors[rows]
    zero, negative = facs == 0, np.signbit(facs)
    if ((zero & negative).any(axis=0) & (zero & ~negative).any(axis=0)).any():
        uniq, rank = np.unique(facs, axis=0, return_inverse=True)
    else:
        rank = None
        for col in facs.T:
            values, codes = np.unique(col, return_inverse=True)
            rank = codes if rank is None else np.unique(rank * values.size + codes,
                                                        return_inverse=True)[1]
        uniq = np.empty((rank.max() + 1, facs.shape[1]))
        uniq[rank] = facs
    scenarios = []
    for i, members in enumerate(_group(rows, rank, uniq.shape[0])):
        weight = float(sample.weights[members].sum())
        label = tuple(uniq[i]) if uniq.shape[1] > 1 else float(uniq[i, 0])
        scenarios.append(Scenario(label, members, weight))
    return ScenarioPartition(tuple(scenarios))


def _column_cdf(sample: JointSample, j: int, rows: np.ndarray) -> StepCDF:
    return StepCDF.from_values(sample.factors[rows, j], sample.weights[rows])


def partition_quantile_boxes(sample: JointSample, bins_per_factor: int) -> ScenarioPartition:
    """Cartesian quantile-box partition for (effectively) continuous factors.

    Each factor column is cut at its empirical left quantiles at levels
    k / bins, k = 1..bins-1, into left-open right-closed intervals (the
    lowest interval absorbs everything below).  Empty boxes are dropped.
    """
    if bins_per_factor < 1:
        raise ValidationError("bins_per_factor must be >= 1")
    rows = _retained_rows(sample)
    n_fac = sample.n_factors
    edges = []
    for j in range(n_fac):
        cdf = _column_cdf(sample, j, rows)
        cuts = [scalar.var(cdf, k / bins_per_factor) for k in range(1, bins_per_factor)]
        edges.append(np.unique(cuts))
    codes = np.zeros((rows.size, n_fac), dtype=np.int64)
    rank = np.zeros(rows.size, dtype=np.int64)
    for j in range(n_fac):
        # interval index: 0 for w <= e_1, k for e_k < w <= e_{k+1}, top above
        codes[:, j] = np.searchsorted(edges[j], sample.factors[rows, j], side="left")
        # lexicographic rank of the codes so far: a mixed-radix key whose
        # previous rank stays below the row count, so it cannot overflow
        _, rank = np.unique(rank * (edges[j].size + 1) + codes[:, j], return_inverse=True)
    uniq = np.empty((rank.max() + 1, n_fac), dtype=np.int64)
    uniq[rank] = codes
    scenarios = []
    for i, members in enumerate(_group(rows, rank, uniq.shape[0])):
        weight = float(sample.weights[members].sum())
        if weight <= 0:
            continue
        label = "*".join(_interval_label(edges[j], uniq[i, j]) for j in range(n_fac))
        scenarios.append(Scenario(label, members, weight))
    return ScenarioPartition(tuple(scenarios))


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
        cdf = _column_cdf(sample, j, rows)
        lo = scalar.var(cdf, float(box.alpha[j]))
        hi = scalar.var(cdf, float(box.beta[j]))
        col = sample.factors[rows, j]
        keep &= (col >= lo) & (col <= hi)
    mask[rows[keep]] = True
    return mask


def var_box_event(sample: JointSample, box: VarBox) -> JointSample:
    """Subsample on the VaR box event, weights renormalized.

    Rejects when the event carries no weight (the box is only meaningful
    for events of positive probability).
    """
    mask = box_mask(sample, box)
    if not mask.any():
        raise EmptyEventError("VaR box event has zero probability")
    return sample.subsample(mask)


def tail_box(alpha, n_factors: int | None = None) -> VarBox:
    """The upper-tail box [alpha, 1]: the event W >= VaR_alpha(W)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if n_factors is not None and alpha.size == 1 and n_factors > 1:
        alpha = np.full(n_factors, alpha[0])
    return VarBox(alpha, np.ones_like(alpha))
