"""A -0.0 reads as 0.0 wherever a value enters the library.

-0.0 and 0.0 are one point of a joint law, so the constructors and
``StepCDF.from_values`` read every -0.0 as 0.0.  Built from inputs that hold
both zeros, every stored array, label and derived array must hold no -0.0,
and must equal bit for bit the same build from the inputs with ``+ 0.0``
applied first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorrisk import (ConditionalLawFamily, DiscreteJointDistribution, JointSample, StepCDF,
                        from_sample, partition_discrete, pred_single_scenario, quantile_factor)
from factorrisk.core import _entered, round_significant
from factorrisk.sharing import PiecewiseLinearAllocation, transform_family

# laws holding -0.0 next to laws holding 0.0
SUPPORTS = [[-0.0, 1.0], [0.0], [-1.0, 1.0], [0.0], [-1.0, 1.0], [-0.0]]


def _built(loss, factors, weights, supports) -> dict:
    """Every array that the entries store or derive, built from these inputs."""
    sample = JointSample(loss, factors, weights)
    partition = partition_discrete(sample)
    family = from_sample(sample, partition)
    x_law = family.mixture()
    share = np.linspace(0.0, 1.0, x_law.support.size - 1)
    allocation = PiecewiseLinearAllocation(x_law.support, np.vstack([share, 1.0 - share]))
    mapped = transform_family(family, allocation, 0)
    laws = [StepCDF(s, np.arange(1, len(s) + 1) / len(s)) for s in supports]
    of_laws = ConditionalLawFamily(np.full(len(laws), 1 / len(laws)), laws)
    dist = DiscreteJointDistribution(loss, factors, weights / weights.sum())
    equal, weighted = StepCDF.from_values(loss), StepCDF.from_values(loss, weights)
    return {
        "loss": sample.loss, "factors": sample.factors,
        "labels": np.array(partition.labels, dtype=float),
        "from_sample": family.support, "merged_support": family.merged_support(),
        "mixture": x_law.support, "mixture cum": x_law.cum,
        "transform_family": mapped.support, "transformed merged": mapped.merged_support(),
        "equal weights": equal.support, "equal weights cum": equal.cum,
        "unequal weights": weighted.support, "unequal weights cum": weighted.cum,
        "StepCDF": laws[0].support, "laws": of_laws.support,
        "laws merged": of_laws.merged_support(), "laws mixture": of_laws.mixture().support,
        "quantile_factor": np.array(quantile_factor(of_laws, pred_single_scenario(1, 0.5))),
        "xs": dist.xs, "ws": dist.ws, "ps": dist.ps,
    }


@pytest.mark.parametrize("seed", range(5))
def test_negative_zero_reads_as_zero_everywhere(seed):
    rng = np.random.default_rng(seed)
    T = 300
    loss = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5], T)
    factors = np.column_stack([rng.choice([-0.0, 0.0, 1.0], T), rng.choice([-0.0, 0.0], T)])
    weights = rng.random(T) + 0.1 if seed % 2 else np.ones(T)
    assert np.signbit(loss[loss == 0]).any() and np.signbit(factors[factors == 0]).any()
    got = _built(loss, factors, weights, SUPPORTS)
    want = _built(loss + 0.0, factors + 0.0, weights, [np.add(s, 0.0) for s in SUPPORTS])
    assert got["quantile_factor"] == 0.0
    for name, array in got.items():
        assert not np.signbit(array[array == 0]).any(), name
        assert array.dtype == want[name].dtype and array.shape == want[name].shape, name
        assert array.tobytes() == want[name].tobytes(), name


@st.composite
def entering_values(draw):
    """Values as they may enter: 0-d, 1-d or 2-d float arrays laid out C, F or
    strided, holding -0.0 cells, and lists, float32 and int arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ndim = draw(st.integers(0, 2))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    base = np.array(np.round(rng.standard_normal(tuple(2 * k for k in shape)), 1))
    base[rng.random(base.shape) < 0.3] = -0.0
    layout = draw(st.sampled_from(["C", "F", "strided", "list", "float32", "int"]))
    values = base[tuple(slice(None, None, 2) for _ in shape)] if shape else base
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        return values
    if layout == "list":
        return values.tolist()
    if layout == "float32":
        return values.astype(np.float32)
    if layout == "int":
        return values.astype(np.int64)
    return values.copy()


@settings(max_examples=200, deadline=None)
@given(entering_values())
def test_entered_is_the_two_step_copy(values):
    # a new C-ordered, writeable float array with the bits of values + 0.0,
    # whatever the input's layout or type
    want = np.asarray(values, dtype=float) + 0.0
    before = np.array(values, copy=True)
    got = _entered(values)
    assert type(got) is np.ndarray and got.flags.c_contiguous and got.flags.writeable
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not np.signbit(got[got == 0]).any()
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(got, values)
        assert np.array_equal(values, before) and values.tobytes() == before.tobytes()


def test_round_significant_rounds_a_0d_input():
    x = np.array(1.2345678901234567)
    got = round_significant(x)
    assert type(got) is np.ndarray and got.shape == ()
    assert got.tobytes() == round_significant(np.array([1.2345678901234567])).tobytes()
    assert got != x
    assert not np.signbit(round_significant(np.array(-0.0)))
