import numpy as np
import pytest

from factorrisk import (
    StepCDF,
    ValidationError,
    distortion_rho,
    es,
    es_distortion,
    esssup,
    identity_distortion,
    marginal,
    piecewise_linear_distortion,
    var,
    var_distortion,
)


def random_cdf(rng, max_atoms=10):
    n = int(rng.integers(1, max_atoms + 1))
    values = np.round(rng.uniform(-10, 10, n), 3)
    weights = rng.dirichlet(np.ones(n))
    return StepCDF.from_values(values, np.maximum(weights, 1e-3))


class TestVar:
    def test_d1(self, d1_dist):
        m = marginal(d1_dist)
        assert var(m, 0.5) == 3.0
        assert var(m, 1.0) == 8.0

    def test_point_mass(self):
        cdf = StepCDF.from_values([4.2])
        for a in (0.01, 0.5, 1.0):
            assert var(cdf, a) == 4.2

    def test_level_domain(self, d1_dist):
        m = marginal(d1_dist)
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValidationError):
                var(m, bad)


class TestEs:
    def test_d1(self, d1_dist):
        assert es(marginal(d1_dist), 0.5) == pytest.approx(5.5, abs=1e-12)

    def test_es_zero_is_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cdf = random_cdf(rng)
            assert es(cdf, 0.0) == pytest.approx(cdf.mean(), abs=1e-12)

    def test_uniform_top_half(self):
        cdf = StepCDF.from_values([1.0, 2.0, 3.0, 4.0])
        assert es(cdf, 0.5) == pytest.approx(3.5, abs=1e-12)

    def test_atom_straddling_level(self):
        cdf = StepCDF.from_values([0.0, 10.0], [0.5, 0.5])
        # level 0.25 takes half of the first atom and all of the second
        assert es(cdf, 0.25) == pytest.approx((0.25 * 0 + 0.5 * 10) / 0.75, abs=1e-12)

    def test_level_domain(self, d1_dist):
        with pytest.raises(ValidationError):
            es(marginal(d1_dist), 1.0)


class TestDistortionRho:
    def test_d1_identity_is_mean(self, d1_dist):
        m = marginal(d1_dist)
        assert distortion_rho(m, identity_distortion()) == pytest.approx(3.75, abs=1e-12)

    def test_d1_var_level(self, d1_dist):
        m = marginal(d1_dist)
        assert distortion_rho(m, var_distortion(0.5)) == pytest.approx(3.0, abs=1e-12)

    def test_d1_es_level(self, d1_dist):
        m = marginal(d1_dist)
        assert distortion_rho(m, es_distortion(0.5)) == pytest.approx(5.5, abs=1e-12)

    def test_var_level_matches_var_on_random_cdfs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cdf = random_cdf(rng)
            p = float(rng.uniform(0.05, 0.95))
            while np.any(np.abs(cdf.cum - p) < 1e-9):
                p = float(rng.uniform(0.05, 0.95))
            assert distortion_rho(cdf, var_distortion(p)) == pytest.approx(
                var(cdf, p), abs=1e-12)

    def test_es_level_matches_es_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            cdf = random_cdf(rng)
            p = float(rng.uniform(0.0, 0.95))
            assert distortion_rho(cdf, es_distortion(p)) == pytest.approx(
                es(cdf, p), abs=1e-12)

    def test_cash_invariance_and_positive_homogeneity(self):
        rng = np.random.default_rng(13)
        lams = [identity_distortion(), es_distortion(0.3), var_distortion(0.7),
                piecewise_linear_distortion([0, 0.25, 1], [0, 0.6, 1])]
        for _ in range(100):
            cdf = random_cdf(rng)
            lam = lams[int(rng.integers(len(lams)))]
            a = float(rng.uniform(-5, 5))
            scale = float(rng.uniform(0.1, 4.0))
            base = distortion_rho(cdf, lam)
            shifted = distortion_rho(StepCDF(scale * cdf.support + a, cdf.cum), lam)
            assert shifted == pytest.approx(scale * base + a, abs=1e-12)

    def test_comonotonic_additivity(self):
        rng = np.random.default_rng(14)
        lams = [identity_distortion(), es_distortion(0.4), var_distortion(0.6)]
        for _ in range(100):
            cdf = random_cdf(rng)
            lam = lams[int(rng.integers(len(lams)))]
            c = float(np.median(cdf.support))
            f = lambda x: 0.4 * x + 0.6 * np.maximum(x - c, 0.0)
            g = lambda x: x - f(x)
            rho_f = distortion_rho(StepCDF.from_values(f(cdf.support), cdf.masses), lam)
            rho_g = distortion_rho(StepCDF.from_values(g(cdf.support), cdf.masses), lam)
            assert rho_f + rho_g == pytest.approx(distortion_rho(cdf, lam), abs=1e-12)


class TestPiecewiseLinear:
    def test_interpolates(self):
        lam = piecewise_linear_distortion([0.0, 0.5, 1.0], [0.0, 0.9, 1.0])
        assert lam(0.25) == pytest.approx(0.45)
        assert lam(0.75) == pytest.approx(0.95)

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValidationError):
            piecewise_linear_distortion([0.0, 0.5, 1.0], [0.0, 0.9, 0.8])

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValidationError):
            piecewise_linear_distortion([0.0, 1.0], [0.1, 1.0])

    def test_esssup(self, d1_dist):
        assert esssup(marginal(d1_dist)) == 8.0
