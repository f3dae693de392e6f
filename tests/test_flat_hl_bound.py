"""The coupling bound and its density family on the flat arrays.

``hl_bound`` integrates the quantile of X up to each of Y's levels on the
families' flat ``support``, ``cum`` and ``offsets``.  It must agree with the
former per-law merge of breakpoints, kept in ``per_scenario.py``, within a
few ulps (1e-12 relative here): both directions, single-atom laws, planted
ties (equally weighted laws whose cum values coincide across the two
families), labelled and unlabelled families, and Y laws of 1, 2 and many
atoms.  Far from zero, where Y takes both signs, the bound cancels terms
of size |x| |y|, and any two summation orders differ in ulps of those
terms: there both routes are held to exact rational values instead.

Neither ``hl_bound`` nor ``coherent_sup`` nor ``es_tail_density`` reads the
per-law ``laws`` views, and ``es_tail_density`` builds no labels.
"""

from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_scenario
from factorrisk import (ConditionalLawFamily, DensityFamily, JointSample, StepCDF,
                        coherent_sup, compose_es_mean, es_tail_density, from_sample, hl_bound,
                        partition_quantile_boxes)

EQUAL_SIZES = (1, 2, 3, 4, 6, 8, 12)
EPS = np.finfo(float).eps


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _law(rng, k: int, equal: bool, by_hand: bool, offset: float) -> StepCDF:
    """k distinct atoms on a half-integer grid; equal masses make cum values
    j/k, which coincide across laws of related sizes."""
    ticks = np.sort(rng.choice(np.arange(-3 * k - 3, 3 * k + 4), k, replace=False))
    support = offset + 0.5 * ticks
    masses = np.ones(k) if equal else rng.integers(1, 5, k).astype(float)
    if by_hand:  # normalized by hand: the last cum may end an ulp off 1
        return StepCDF(support, np.cumsum(masses / masses.sum()))
    return StepCDF.from_values(support, masses)


@st.composite
def pairs(draw, offsets=(0.0, 0.25), y_forms=("one", "two", "many", "equal", "mixed")):
    """Two families on one partition: X's laws of 1 to 12 atoms (all single
    atoms, or all equally weighted, when drawn so), shifted by one of
    ``offsets``, and Y's of 1, 2 or many."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    x_form = draw(st.sampled_from(("single", "equal", "mixed")))
    y_form = draw(st.sampled_from(y_forms))
    by_hand = draw(st.booleans())
    offset = draw(st.sampled_from(offsets))
    x_laws, y_laws = [], []
    for _ in range(n):
        if x_form == "single":
            x_laws.append(_law(rng, 1, False, by_hand, offset))
        else:
            equal = x_form == "equal" or rng.random() < 0.5
            k = int(rng.choice(EQUAL_SIZES)) if equal else int(rng.integers(1, 9))
            x_laws.append(_law(rng, k, equal, by_hand, offset))
        sizes = {"one": 1, "two": 2, "many": int(rng.integers(20, 80))}
        equal = y_form == "equal" or (y_form == "mixed" and rng.random() < 0.5)
        k = (sizes[y_form] if y_form in sizes
             else int(rng.choice(EQUAL_SIZES)) if equal else int(rng.integers(1, 9)))
        y_laws.append(_law(rng, k, equal, by_hand, 0.0))
    weights = rng.integers(1, 5, n).astype(float)
    pis = weights / weights.sum()
    labels = tuple(f"s{i}" for i in range(n)) if draw(st.booleans()) else None
    return (ConditionalLawFamily(pis, x_laws, labels),
            ConditionalLawFamily(pis.copy(), y_laws, labels if draw(st.booleans()) else None))


def _exact(fam_x, fam_y, direction: str) -> Fraction:
    """The bound in rational arithmetic: on each interval between the merged
    breakpoints both quantiles are constant (each law's last level counts
    as 1)."""
    total = Fraction(0)
    for pi, law_x, law_y in zip(fam_x.pis, fam_x.laws, fam_y.laws):
        cx, cy = [Fraction(c) for c in law_x.cum], [Fraction(c) for c in law_y.cum]
        breaks = [1 - c for c in cx] if direction == "inf" else cx
        grid = sorted({Fraction(0), Fraction(1), *(c for c in breaks + cy if 0 < c < 1)})
        part = Fraction(0)
        for a, b in zip(grid[:-1], grid[1:]):
            kx = bisect_left(cx, 1 - a if direction == "inf" else b)
            ky = bisect_left(cy, b)
            part += (Fraction(law_x.support[min(kx, len(cx) - 1)])
                     * Fraction(law_y.support[min(ky, len(cy) - 1)]) * (b - a))
        total += Fraction(pi) * part
    return total


def _term_size(fam_x, fam_y) -> float:
    """sum_i pi_i max|x| max|y|: the size of the terms the bound sums."""
    return sum(pi * np.abs(law_x.support).max() * np.abs(law_y.support).max()
               for pi, law_x, law_y in zip(fam_x.pis, fam_x.laws, fam_y.laws))


def _loss_and_partition(seed: int, n_rows: int, factors: int, bins: int):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_rows, factors))
    sample = JointSample(w.sum(axis=1) + rng.standard_normal(n_rows), w)
    return sample, partition_quantile_boxes(sample, bins)


class TestFlatBoundEqualsPerLawLoop:

    @settings(max_examples=300, deadline=None)
    @given(pairs(), st.sampled_from(("sup", "inf")))
    def test_random_pairs(self, pair, direction):
        fam_x, fam_y = pair
        assert _close(hl_bound(fam_x, fam_y, direction),
                      per_scenario.hl_bound(fam_x, fam_y, direction))

    @settings(max_examples=100, deadline=None)
    @given(pairs(offsets=(0.0, 0.25, 1e6)), st.sampled_from((0.0, 0.25, 0.5, 0.75, 0.9)))
    def test_tail_density_is_the_es_mean(self, pair, p):
        fam_x, _ = pair
        tail = es_tail_density(fam_x, p)
        value = hl_bound(fam_x, tail, "sup")
        assert _close(value, per_scenario.hl_bound(fam_x, tail, "sup"))
        assert _close(value, compose_es_mean(fam_x, p))

    @settings(max_examples=150, deadline=None)
    @given(pairs(offsets=(1e6, -1e9), y_forms=("one", "two", "equal", "mixed")),
           st.sampled_from(("sup", "inf")))
    def test_far_from_zero_both_routes_are_near_exact(self, pair, direction):
        fam_x, fam_y = pair
        exact, size = _exact(fam_x, fam_y, direction), _term_size(fam_x, fam_y)
        for route in (hl_bound, per_scenario.hl_bound):
            assert abs(Fraction(route(fam_x, fam_y, direction)) - exact) <= 16 * EPS * size

    @pytest.mark.parametrize("bins", [2, 8])
    def test_empirical_families(self, bins):
        sample, partition = _loss_and_partition(3, 5000, 3, bins)
        fam = from_sample(sample, partition)
        other = from_sample(JointSample(np.random.default_rng(4).standard_normal(5000),
                                        sample.factors), partition)
        for fam_y in (es_tail_density(fam, 0.9), other):
            for direction in ("sup", "inf"):
                assert _close(hl_bound(fam, fam_y, direction),
                              per_scenario.hl_bound(fam, fam_y, direction))


class TestNoLawViews:

    def test_bound_sup_and_density_read_flat_arrays(self, monkeypatch):
        sample, partition = _loss_and_partition(5, 4000, 2, 4)
        fam = from_sample(sample, partition)
        other = from_sample(JointSample(np.random.default_rng(6).standard_normal(4000),
                                        sample.factors), partition)

        def laws(self):
            raise AssertionError("read the per-law views")

        monkeypatch.setattr(ConditionalLawFamily, "laws", property(laws))
        tail = es_tail_density(fam, 0.9)
        for direction in ("sup", "inf"):
            hl_bound(fam, tail, direction)
            hl_bound(fam, other, direction)
        coherent_sup(fam, DensityFamily((tail,)))


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


class TestTailDensityBuild:

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    def test_lazy_labels_stay_unbuilt_and_match_the_former_build(self, p):
        sample, partition = _loss_and_partition(7, 3000, 2, 4)
        fam = from_sample(sample, partition)
        tail = es_tail_density(fam, p)
        assert "labels" not in fam.__dict__
        assert "labels" not in tail.__dict__
        former = per_scenario.es_tail_density(fam, p)
        for name in ("pis", "support", "cum", "offsets"):
            assert _bits(getattr(tail, name)) == _bits(getattr(former, name))
        assert tail.labels == former.labels == fam.labels

    @pytest.mark.parametrize("labels", [None, ("a", "b", "c")])
    def test_public_families(self, labels):
        laws = (StepCDF.from_values([1.0, 2.0]), StepCDF.from_values([0.0]),
                StepCDF.from_values([3.0, 4.0, 5.0]))
        fam = ConditionalLawFamily(np.array([0.2, 0.3, 0.5]), laws, labels)
        tail, former = es_tail_density(fam, 0.4), per_scenario.es_tail_density(fam, 0.4)
        for name in ("pis", "support", "cum", "offsets"):
            assert _bits(getattr(tail, name)) == _bits(getattr(former, name))
        assert tail.labels == former.labels == labels
