import numpy as np
import pytest
from scipy.stats import kstest

from fastmvg import InvalidParameter, RngStream, derive_seed


class TestReproducibility:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        assert a.standard_normal(1)[0] == b.standard_normal(1)[0]
        np.testing.assert_array_equal(a.standard_normal(100), b.standard_normal(100))
        assert a.uniform() == b.uniform()
        assert a.gamma(2.0, 3.0) == b.gamma(2.0, 3.0)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert not np.array_equal(a.standard_normal(10), b.standard_normal(10))

    def test_distinct_seeds_differ(self):
        a = RngStream(1, 0)
        b = RngStream(2, 0)
        assert not np.array_equal(a.standard_normal(10), b.standard_normal(10))

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        children = {derive_seed(7, i) for i in range(1000)}
        assert len(children) == 1000


class TestDistributions:
    def test_standard_normal_moments(self):
        z = RngStream(2024, 0).standard_normal(100_000)
        assert abs(z.mean()) < 0.013  # 4 / sqrt(1e5)
        assert abs(z.var() - 1.0) < 0.02

    def test_gamma_shape_one_is_exponential(self):
        rng = RngStream(7, 0)
        g = np.array([rng.gamma(1.0, 2.0) for _ in range(100_000)])
        assert kstest(g, "expon", args=(0, 0.5)).statistic < 0.01

    def test_gamma_mean_small_shape(self):
        # Shapes near 0.5 appear in variance updates; check the mean.
        rng = RngStream(8, 0)
        g = np.array([rng.gamma(0.5, 1.0) for _ in range(100_000)])
        assert abs(g.mean() - 0.5) < 4 * np.sqrt(0.5 / 100_000)

    def test_uniform_open_interval(self):
        rng = RngStream(9, 0)
        u = rng.uniform(size=100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / 100_000)

    def test_invalid_parameters(self):
        rng = RngStream(0, 0)
        with pytest.raises(InvalidParameter):
            rng.gamma(0.0, 1.0)
        with pytest.raises(InvalidParameter):
            rng.gamma(1.0, -1.0)
