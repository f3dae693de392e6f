"""Memory bounds of ingest, the conditional family and the evaluation
engine at scale.

At T = 5e4 rows and n = 512 quantile boxes the dense (support x scenarios)
matrix alone is 205 MB; the built-in engine must stay in O(T) memory, and a
custom callable in a bounded number of dense chunks.  Ingest (``JointSample``,
``read_csv``, ``simulate``) must peak at a small multiple of the loss and
factor arrays it returns.  At n = 4,096 scenarios the spot check of a custom
callable holds its (check_pairs, n) lower draw and engine-sized chunks, and
``condition_a_check`` chunks only.  Peaks are measured with tracemalloc, which numpy
reports its buffers to.
"""

import tracemalloc

import numpy as np
import pytest

from factorrisk import (
    GaussianFactorSpec,
    JointSample,
    choquet_factor,
    compose_es_mean,
    condition_a_check,
    from_sample,
    inf_convolution,
    partition_discrete,
    partition_quantile_boxes,
    pred_custom,
    pred_var_of_var,
    psi_custom,
    psi_indicator_var_var,
    psi_mean,
    psi_mean_of_es,
    quantile_factor,
    simulate,
)
from factorrisk import cli
from factorrisk.core import DENSE_CHUNK_BYTES

T = 50_000
BINS = 8  # 8 ** 3 = 512 boxes, all occupied at this size
BUILT_IN_LIMIT = 50 * 2**20


@pytest.fixture(scope="module")
def wide_family():
    spec = GaussianFactorSpec(np.zeros(3), np.eye(3))
    sample = simulate(0.1, (1.0, -0.5, 0.3), 0.8, spec, n=T, seed=7)
    family = from_sample(sample, partition_quantile_boxes(sample, BINS))
    assert family.n_scenarios == BINS ** 3
    return family


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _es_mean(V, pi):
    return (np.minimum(V, 0.1) / 0.1) @ pi


class TestPeakMemory:
    def test_choquet_mean_of_es(self, wide_family):
        _, peak = traced_peak(choquet_factor, wide_family, psi_mean_of_es(0.9))
        assert peak < BUILT_IN_LIMIT

    def test_quantile_var_of_var(self, wide_family):
        _, peak = traced_peak(quantile_factor, wide_family, pred_var_of_var(0.95, 0.5))
        assert peak < BUILT_IN_LIMIT

    def test_inf_convolution(self, wide_family):
        agents = [(psi_indicator_var_var(0.95, 0.5), wide_family),
                  (psi_mean_of_es(0.9), wide_family)]
        _, peak = traced_peak(inf_convolution, wide_family.mixture(), agents)
        assert peak < BUILT_IN_LIMIT

    def test_custom_callable_runs_in_chunks(self, wide_family):
        m = wide_family.merged_support().size
        assert m * wide_family.n_scenarios * 8 >= 8 * DENSE_CHUNK_BYTES
        psi = psi_custom(_es_mean, wide_family.n_scenarios, vectorized=True)
        value, peak = traced_peak(choquet_factor, wide_family, psi)
        assert peak < 2 * DENSE_CHUNK_BYTES
        assert value == pytest.approx(compose_es_mean(wide_family, 0.9), abs=1e-12)


SPOT_N, PAIRS = 4096, 1000  # the spot checks' default check_pairs


def _half_at_median(U, pi):
    return (U >= 0.5) @ pi >= 0.5


class TestSpotCheckPeakMemory:
    LIMIT = 1.25 * 8 * PAIRS * SPOT_N  # the lower draw and a quarter more

    def test_psi_custom(self):
        _, peak = traced_peak(lambda: psi_custom(_es_mean, SPOT_N, vectorized=True))
        assert peak < self.LIMIT

    def test_pred_custom(self):
        _, peak = traced_peak(lambda: pred_custom(_half_at_median, SPOT_N, vectorized=True))
        assert peak < self.LIMIT

    def test_condition_a_check(self):
        pi = np.full(SPOT_N, 1.0 / SPOT_N)
        witness, peak = traced_peak(condition_a_check, psi_mean(), pi, 2048)
        assert witness is None
        assert peak < 8e6


def _data_bytes(sample):
    """The bytes of a sample's loss and factor arrays (its weights, 1/T each
    unless given, are one more loss column)."""
    return sample.loss.nbytes + sample.factors.nbytes


class TestIngestPeakMemory:
    def test_joint_sample(self):
        rng = np.random.default_rng(1)
        loss, factors = rng.standard_normal(200_000), rng.standard_normal((200_000, 3))
        sample, peak = traced_peak(JointSample, loss, factors)
        assert peak <= 1.5 * _data_bytes(sample)

    def test_joint_sample_of_integer_factors(self):
        # one float copy of the factors, not a conversion and then a copy
        rng = np.random.default_rng(1)
        loss, factors = rng.standard_normal(200_000), rng.integers(-50, 50, (200_000, 3))
        sample, peak = traced_peak(JointSample, loss, factors)
        assert peak <= 1.5 * _data_bytes(sample)

    def test_read_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        assert cli.main(["simulate", "--n", "200000", "--beta", "1.0,-0.5,0.3", "--seed", "2",
                         "--output", str(path)]) == cli.EXIT_OK
        sample, peak = traced_peak(cli.read_csv, path, "X")
        assert sample.factors.shape == (200_000, 3)
        assert peak <= 2.5 * _data_bytes(sample) + path.stat().st_size

    def test_simulate(self):
        spec = GaussianFactorSpec(np.zeros(7), np.eye(7))
        sample, peak = traced_peak(simulate, 0.1, [1.0] * 7, 0.8, spec, 300_000, 1)
        assert peak <= 3 * _data_bytes(sample)

    def test_weighted_from_sample(self):
        # 2e5 rows in 2,000 scenarios, losses at 3 decimals: the former loop
        # over batches of 2**14 rows peaked at 9.3 MB
        rng = np.random.default_rng(0)
        T = 200_000
        sample = JointSample(np.round(rng.standard_normal(T), 3), rng.integers(0, 2000, T),
                             rng.random(T) + 0.1)
        partition = partition_discrete(sample)
        assert partition.n_scenarios == 2000
        family, peak = traced_peak(from_sample, sample, partition)
        assert family.n_scenarios == 2000
        assert peak <= 9.3e6
