"""Per-scenario reference builds of partitions, conditional families and laws.

These are the package's former routes, kept as a test reference for the flat
layout: one ``Scenario`` per partition cell (one ``np.split`` of a stable
sort), and one ``StepCDF`` per law, built in batches of consecutive scenarios
with a per-scenario argsort, ``sum`` and ``cumsum``.  Their results go
through the public constructors ``ScenarioPartition(scenarios)`` and
``ConditionalLawFamily(pis, laws, labels)``.  ``from_values`` is the former
``StepCDF.from_values``, one ``np.unique`` and ``bincount`` for any weights,
with equal weights' cum taken as each atom's cumulative row count over n
(the count rule).
``event_law`` selects an event's rows one row at a time, and
``equal_event_law`` is the former ``quantile._equal_event_cdf``.

The former searches and re-sorts of the quantile-box path are kept too:
``interval_codes`` (a binary search per value), ``block_counts`` (the
sweep's anchor rows and last row, a binary search per scenario and row) and
``merged_grid`` (two ``np.unique`` of the support).  ``ranks`` is the
former dense rank of every caller of ``core._ranks``: ``np.unique`` with
its inverse, the two arrays in ``_ranks``' order.  ``mixture`` is the
former ``mixture()``, the definition: ``StepCDF.from_values`` of the
support weighted by each atom's pi-scaled mass.  ``segment_laws`` is
the former ``core._segment_laws``, which took every family, equally
weighted or not, through the weighted loop over batches of consecutive
segments of up to ``BATCH_ROWS`` rows (``batches``): position-carrying key
sorts, a ``bincount`` of each atom's mass, the ``MIN_ATOM_MASS`` pass and a
re-rank.

So are the former per-law loops of the closed forms, the sharing check and
the coupling bound: ``es`` (``scalar.es``'s own formula), ``scenario_means``,
``linear_factor``, ``compose_var_distortion``, ``compose_es_mean``,
``es_composition``, ``transform_family`` and ``hl_bound`` (a merge of the two
laws' breakpoints per scenario), each over the ``family.laws`` views, and
``es_tail_density``'s former build through the public constructor.

``round_significant`` is the former ``core.round_significant``: one pass
over the whole array that gathers its nonzero finite values, rounds them
and scatters them back.  ``discrete_joint`` is the former canonical atom
list of ``DiscreteJointDistribution``: one ``np.lexsort`` by (w, x) and a
row-by-row compare of neighbours.  ``h_at_breakpoints`` is the former
``PiecewiseLinearAllocation.h_at_breakpoints``: one n x m cumsum of every
agent's slopes.
"""

from __future__ import annotations

import numpy as np

from factorrisk import (ConditionalLawFamily, JointSample, LevelMap, Scenario, ScenarioPartition,
                        ScenarioWeighting, StepCDF, ValidationError, VarBox, scalar)
from factorrisk.conditioning import _interval_label, broadcast_levels
from factorrisk import core
from factorrisk.core import MIN_ATOM_MASS, SIGNIFICANT_DIGITS, _entered, _lazy_labels
from factorrisk.distortion import _es_levels, _var_levels

BATCH_ROWS = 2**14


def round_significant(values) -> np.ndarray:
    """Round to ``SIGNIFICANT_DIGITS`` significant digits, elementwise.

    Factor values are canonicalized this way on ingestion so that grouping
    by factor value is a deterministic float operation.  Values whose
    magnitude sits beyond 1e+-300 are left unchanged (rounding there would
    overflow the scale and such values are already degenerate as factors).
    """
    arr = _entered(values)
    flat = arr.ravel()
    nz = (flat != 0.0) & np.isfinite(flat)
    if nz.any():
        vals = flat[nz]
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.floor(np.log10(np.abs(vals)))
            scale = np.power(10.0, SIGNIFICANT_DIGITS - 1 - mag)
            rounded = np.round(vals * scale) / scale
            good = np.isfinite(rounded)
            flat[nz] = np.where(good, rounded, vals)
    return arr


def from_values(values, weights=None) -> StepCDF:
    vals = np.asarray(values, dtype=float)
    if weights is None:
        w = np.full(vals.shape, 1.0 / vals.size)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    uniq, inverse = np.unique(vals, return_inverse=True)
    if (w == w[0]).all():
        return StepCDF(uniq, np.cumsum(np.bincount(inverse)) / vals.size)
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
    w = w / np.repeat(pis, np.diff(bounds))
    masses = np.bincount(atom, weights=w)
    counts = np.bincount(atom)
    keep = masses > MIN_ATOM_MASS
    support, masses, counts = x[new][keep], masses[keep], counts[keep]
    ends = np.cumsum(np.add.reduceat(keep, atom_of_sorted[bounds[:-1]], dtype=np.int64))
    laws = []
    for (a, b), (r, s) in zip(zip([0] + ends[:-1].tolist(), ends.tolist()), spans):
        if (w[r:s] == w[r]).all():  # equal weights: the count rule
            cum = np.cumsum(counts[a:b]) / (s - r)
        else:
            cum = masses[a:b].cumsum()
            cum = cum / cum[-1]
        laws.append(StepCDF(support[a:b], cum))
    return pis, laws


def batches(offsets: np.ndarray):
    """Batches [s, e) of consecutive segments of ``offsets``: up to
    ``BATCH_ROWS`` rows, or one longer segment."""
    s, n = 0, offsets.size - 1
    while s < n:
        e = max(s + 1, int(np.searchsorted(offsets, offsets[s] + BATCH_ROWS, side="right")) - 1)
        yield s, e
        s = e


def segment_laws(values: np.ndarray, w: np.ndarray, offsets: np.ndarray, totals: np.ndarray):
    starts, n_rows = offsets[:-1], np.diff(offsets)
    w /= np.repeat(totals, n_rows)
    rank, points = core._ranks(values)
    equal = np.maximum.reduceat(w, starts) == np.minimum.reduceat(w, starts)
    support, cum, sizes, at, n_atoms = [], [], [], [], 0
    for s, e in batches(offsets):
        a, b = offsets[s], offsets[e]
        key = rank[a:b].astype(np.int64)
        if e - s > 1:
            key += np.repeat(np.arange(e - s) * points.size, np.diff(offsets[s:e + 1]))
        key, order = core._sorted_keys(key, (e - s) * points.size)
        new = np.empty(b - a, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        of_sorted = np.cumsum(new) - 1
        atom = np.empty_like(of_sorted)
        atom[order] = of_sorted
        batch = np.bincount(atom, weights=w[a:b])
        n_atoms += batch.size
        keep = batch > MIN_ATOM_MASS
        sizes.append(np.add.reduceat(keep, of_sorted[offsets[s:e] - a], dtype=np.int64))
        head = np.flatnonzero(new)
        count = np.append(head[1:], b - a)[keep]
        head = head[keep]
        first = a + order[head]
        support.append(values[first])
        at.append(rank[first])
        seg = s + key[head] // points.size
        count += a
        count -= offsets[seg]
        part = count / n_rows[seg]
        if not equal[s:e].all():
            local = np.concatenate(([0], np.cumsum(sizes[-1])))
            sums = core._segment_cumsums(batch[keep], local)
            sums /= np.repeat(sums[local[1:] - 1], sizes[-1])
            weighted = ~equal[seg]
            part[weighted] = sums[weighted]
        cum.append(part)
    support, sizes, at = np.concatenate(support), np.concatenate(sizes), np.concatenate(at)
    if at.size < n_atoms:
        present = np.zeros(points.size, dtype=bool)
        present[at] = True
        if not present.all():
            at = (np.cumsum(present, dtype=at.dtype) - 1)[at]
            points = points[present]
    law_offsets = np.concatenate(([0], np.cumsum(sizes)))
    return support, np.concatenate(cum), law_offsets, (points, at)


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


def ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse, uniq


def mixture(family: ConditionalLawFamily) -> StepCDF:
    masses = np.concatenate([pi * law.masses for pi, law in zip(family.pis, family.laws)])
    return StepCDF.from_values(family.support, masses)



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
            raise ValidationError("outer ES level must be in [0, 1), got None")
        return es(law, q)
    raise ValidationError("outer must be 'esssup' or 'es'")


def transform_family(family: ConditionalLawFamily, allocation, agent: int) -> ConditionalLawFamily:
    laws = [StepCDF.from_values(allocation.h(agent, law.support), law.masses)
            for law in family.laws]
    return ConditionalLawFamily(family.pis.copy(), tuple(laws), family.labels)


def quantile_product(law_x: StepCDF, law_y: StepCDF, reverse_x: bool) -> float:
    """Integral of q_X(t) * q_Y(t) dt on (0, 1), or of q_X(1 - t) * q_Y(t):
    the product is constant between the merged breakpoints of both laws."""
    cx = law_x.cum
    breaks_x = 1.0 - cx[::-1] if reverse_x else cx
    grid = np.unique(np.concatenate([[0.0], breaks_x, law_y.cum, [1.0]]))
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    mids = 0.5 * (grid[:-1] + grid[1:])
    tx = 1.0 - mids if reverse_x else mids
    ix = np.minimum(np.searchsorted(cx, tx, side="left"), cx.size - 1)
    iy = np.minimum(np.searchsorted(law_y.cum, mids, side="left"), law_y.cum.size - 1)
    vals = law_x.support[ix] * law_y.support[iy]
    return float(vals @ np.diff(grid))


def hl_bound(family_x: ConditionalLawFamily, family_y: ConditionalLawFamily,
             direction: str = "sup") -> float:
    return float(sum(pi * quantile_product(law_x, law_y, direction == "inf")
                     for pi, law_x, law_y in zip(family_x.pis, family_x.laws, family_y.laws)))


def es_tail_density(family: ConditionalLawFamily, p: float) -> ConditionalLawFamily:
    if p == 0:
        law = StepCDF(np.array([1.0]), np.array([1.0]))
    else:
        law = StepCDF(np.array([0.0, 1.0 / (1.0 - p)]), np.array([p, 1.0]))
    return ConditionalLawFamily(family.pis, (law,) * family.n_scenarios, family.labels)


def discrete_joint(xs, ws, ps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = core._as_1d(xs, "xs")
    ws = core._factor_matrix(ws, xs.size, "ws")
    ps = core._probabilities(ps, "atom masses")
    order = np.lexsort(np.column_stack([xs, ws[:, ::-1]]).T)
    xs, ws, ps = xs[order], ws[order], ps[order]
    key = np.column_stack([ws, xs])
    new_atom = np.ones(xs.size, dtype=bool)
    new_atom[1:] = np.any(key[1:] != key[:-1], axis=1)
    merged_p = np.bincount(np.cumsum(new_atom) - 1, weights=ps)
    xs, ws = xs[new_atom], ws[new_atom]
    keep = merged_p > MIN_ATOM_MASS
    xs, ws, merged_p = xs[keep], ws[keep], merged_p[keep]
    total = merged_p.sum()
    if abs(total - 1.0) > 1e-13:
        merged_p = merged_p / total
    return xs, ws, merged_p


def h_at_breakpoints(allocation) -> np.ndarray:
    xs = allocation.breakpoints
    start = np.full((allocation.n_agents, 1), xs[0] / allocation.n_agents)
    return np.concatenate([start, start + np.cumsum(allocation.slopes * np.diff(xs), axis=1)],
                          axis=1)
