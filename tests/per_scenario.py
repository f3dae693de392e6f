"""Per-scenario reference builds of partitions, conditional families and laws.

These are the package's former routes, kept as a test reference for the flat
layout: one ``Scenario`` per partition cell (one ``np.split`` of a stable
sort), and one ``StepCDF`` per law, built in batches of consecutive scenarios
with a per-scenario argsort, ``sum`` and ``cumsum``.  Their results go
through the public constructors ``ScenarioPartition(scenarios)`` and
``ConditionalLawFamily(pis, laws, labels)``.  ``from_values`` is the former
``StepCDF.from_values``, one ``np.unique`` and ``bincount`` for any weights.
``event_law`` selects an event's rows one row at a time, and
``equal_event_law`` is the former ``quantile._equal_event_cdf``.

The former searches and re-sorts of the quantile-box path are kept too:
``interval_codes`` (a binary search per value), ``block_counts`` (the
sweep's anchor rows and last row, a binary search per scenario and row) and
``merged_grid`` (two ``np.unique`` of the support).

So are the former per-law loops of the closed forms and the sharing check:
``es`` (``scalar.es``'s own formula), ``scenario_means``, ``linear_factor``,
``compose_var_distortion``, ``compose_es_mean``, ``es_composition`` and
``transform_family``, each over the ``family.laws`` views.
"""

from __future__ import annotations

import numpy as np

from factorrisk import (ConditionalLawFamily, JointSample, LevelMap, Scenario, ScenarioPartition,
                        ScenarioWeighting, StepCDF, ValidationError, VarBox, scalar)
from factorrisk.conditioning import _interval_label, broadcast_levels
from factorrisk.core import MIN_ATOM_MASS, _lazy_labels, round_significant
from factorrisk.distortion import _es_levels, _var_levels

BATCH_ROWS = 2**14


def from_values(values, weights=None) -> StepCDF:
    vals = np.asarray(values, dtype=float)
    if weights is None:
        w = np.full(vals.shape, 1.0 / vals.size)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    uniq, inverse = np.unique(vals, return_inverse=True)
    masses = np.bincount(inverse, weights=w, minlength=uniq.size)
    keep = masses > MIN_ATOM_MASS
    cum = np.cumsum(masses[keep])
    return StepCDF(uniq[keep], cum / cum[-1])


def _retained_rows(sample: JointSample) -> np.ndarray:
    return np.flatnonzero(sample.weights > 0)


def group(rows: np.ndarray, inverse: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """``rows[inverse == i]`` for every group i, in one stable sort."""
    inverse = inverse.reshape(-1)
    key = inverse.astype(np.uint16) if n_groups <= 2**16 else inverse
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(inverse, minlength=n_groups))
    return np.split(rows[order], ends[:-1])


def partition_discrete(sample: JointSample) -> ScenarioPartition:
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
    for i, members in enumerate(group(rows, rank, uniq.shape[0])):
        weight = float(sample.weights[members].sum())
        label = tuple(uniq[i]) if uniq.shape[1] > 1 else float(uniq[i, 0])
        scenarios.append(Scenario(label, members, weight))
    return ScenarioPartition(tuple(scenarios))


def partition_quantile_boxes(sample: JointSample, bins_per_factor: int) -> ScenarioPartition:
    rows = _retained_rows(sample)
    n_fac = sample.n_factors
    edges = []
    for j in range(n_fac):
        cdf = from_values(sample.factors[rows, j], sample.weights[rows])
        cuts = [scalar.var(cdf, k / bins_per_factor) for k in range(1, bins_per_factor)]
        edges.append(np.unique(cuts))
    codes = np.zeros((rows.size, n_fac), dtype=np.int64)
    rank = np.zeros(rows.size, dtype=np.int64)
    for j in range(n_fac):
        codes[:, j] = np.searchsorted(edges[j], sample.factors[rows, j], side="left")
        _, rank = np.unique(rank * (edges[j].size + 1) + codes[:, j], return_inverse=True)
    uniq = np.empty((rank.max() + 1, n_fac), dtype=np.int64)
    uniq[rank] = codes
    scenarios = []
    for i, members in enumerate(group(rows, rank, uniq.shape[0])):
        weight = float(sample.weights[members].sum())
        label = "*".join(_interval_label(edges[j], uniq[i, j]) for j in range(n_fac))
        scenarios.append(Scenario(label, members, weight))
    return ScenarioPartition(tuple(scenarios))


def from_sample(sample: JointSample, partition: ScenarioPartition) -> ConditionalLawFamily:
    scenarios = partition.scenarios
    sizes = [s.rows.size for s in scenarios]
    pis, laws = [], []
    first = 0
    while first < len(scenarios):
        last, n_rows = first + 1, sizes[first]
        while last < len(scenarios) and n_rows + sizes[last] <= BATCH_ROWS:
            n_rows += sizes[last]
            last += 1
        batch_pis, batch_laws = _batch_laws(sample, scenarios[first:last])
        pis.append(batch_pis)
        laws += batch_laws
        first = last
    return ConditionalLawFamily(np.concatenate(pis), tuple(laws),
                                tuple(s.label for s in scenarios))


def _batch_laws(sample: JointSample, scenarios) -> tuple[np.ndarray, list]:
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
        laws.append(StepCDF(support[a:b], cum / cum[-1]))
    return pis, laws


def _column_law(sample: JointSample, j: int) -> StepCDF:
    rows = _retained_rows(sample)
    return from_values(sample.factors[rows, j], sample.weights[rows])


def _law_on(sample: JointSample, rows) -> StepCDF | None:
    """The loss law on ``rows``, or None for no rows (an empty event)."""
    rows = np.asarray(rows, dtype=np.int64)
    return from_values(sample.loss[rows], sample.weights[rows]) if rows.size else None


def event_law(sample: JointSample, event) -> StepCDF | None:
    """Loss law on a VarBox event or on the rows equal to one of the factor
    vectors ``event``, testing each retained row on its own."""
    if isinstance(event, VarBox):
        laws = [_column_law(sample, j) for j in range(sample.n_factors)]
        lows = [scalar.var(law, float(a)) for law, a in zip(laws, event.alpha)]
        highs = [scalar.var(law, float(b)) for law, b in zip(laws, event.beta)]

        def inside(w):
            return all(lo <= v <= hi for lo, v, hi in zip(lows, w, highs))
    else:
        points = [tuple(p) for p in round_significant(np.atleast_2d(event))]

        def inside(w):
            return tuple(w) in points
    return _law_on(sample, [r for r in _retained_rows(sample) if inside(sample.factors[r])])


def equal_event_law(sample: JointSample, alpha) -> StepCDF | None:
    """Loss law on W == VaR_alpha(W): the rows equal to the rounded point of
    componentwise left quantiles, as the former ``quantile._equal_event_cdf`` found them."""
    alpha = broadcast_levels(alpha, sample.n_factors)
    point = round_significant([scalar.var(_column_law(sample, j), float(a))
                               for j, a in enumerate(alpha)])
    mask = np.all(sample.factors == point, axis=1) & (sample.weights > 0)
    return _law_on(sample, np.flatnonzero(mask))


def interval_codes(col: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    return np.searchsorted(cuts, col, side="left")


def block_counts(scen: np.ndarray, at: np.ndarray, n: int, block: int,
                 n_blocks: int) -> np.ndarray:
    """Scenario i's count of atoms at or below grid row b * block, as the
    former anchor rows found it: where the needle (i, b * block) falls in
    the nondecreasing (scenario, grid index) keys of the atoms."""
    width = max(int(at.max()), n_blocks * block) + 1
    key = scen * width + at
    needles = np.arange(n)[:, None] * width + np.arange(n_blocks) * block
    starts = np.searchsorted(scen, np.arange(n))
    return np.searchsorted(key, needles.ravel(), side="right").reshape(n, n_blocks) - starts[:, None]


def merged_grid(family: ConditionalLawFamily) -> tuple[np.ndarray, np.ndarray]:
    return family.merged_support(), np.unique(family.support, return_inverse=True)[1]



def es(cdf: StepCDF, alpha: float) -> float:
    if not 0 <= alpha < 1:
        raise ValidationError(f"ES level must be in [0, 1), got {alpha!r}")
    lo = np.concatenate(([0.0], cdf.cum[:-1]))
    seg = np.minimum(cdf.cum, 1.0) - np.maximum(lo, alpha)
    seg = np.clip(seg, 0.0, None)
    return float(cdf.support @ seg / (1.0 - alpha))


def scenario_means(family: ConditionalLawFamily) -> np.ndarray:
    return np.array([law.mean() for law in family.laws])


def linear_factor(family: ConditionalLawFamily, weighting) -> float:
    q = ScenarioWeighting.of(weighting).resolve(family)
    return float(q @ scenario_means(family))


def compose_var_distortion(family: ConditionalLawFamily, levels, lam) -> float:
    g = _var_levels(LevelMap.of(levels), family.n_scenarios, _lazy_labels(family))
    vars_ = np.array([scalar.var(law, gi) for law, gi in zip(family.laws, g)])
    return scalar.distortion_rho(StepCDF.from_values(vars_, family.pis), lam)


def compose_es_mean(family: ConditionalLawFamily, levels) -> float:
    g = _es_levels(LevelMap.of(levels), family.n_scenarios, _lazy_labels(family))
    return float(sum(pi * es(law, gi) for pi, law, gi in zip(family.pis, family.laws, g)))


def es_composition(family: ConditionalLawFamily, p: float, outer: str = "esssup",
                   q: float | None = None) -> float:
    values = np.array([es(law, p) for law in family.laws])
    law = StepCDF.from_values(values, family.pis)
    if outer == "esssup":
        return scalar.esssup(law)
    if outer == "es":
        if q is None:
            raise ValidationError("outer ES level must lie in [0, 1)")
        return es(law, q)
    raise ValidationError("outer must be 'esssup' or 'es'")


def transform_family(family: ConditionalLawFamily, allocation, agent: int) -> ConditionalLawFamily:
    laws = [StepCDF.from_values(allocation.h(agent, law.support), law.masses)
            for law in family.laws]
    return ConditionalLawFamily(family.pis.copy(), tuple(laws), family.labels)
