import math

import numpy as np
import pytest

from frictionopt import (
    ArctanDrift,
    BlackScholes,
    Factor,
    NoisePanel,
    PathDependentBS,
    ThetaGrid,
    TimeGrid,
    gaussian_panel,
    lattice_panel,
    simulate,
    simulate_panel,
)
from frictionopt.errors import ConfigError, InvalidModelError
from frictionopt.scenario import lattice_paths


def per_path_generator_panel(grid, paths, drivers, seed):
    """The panel's definition: path m draws from a fresh Philox generator
    keyed by (seed, m)."""
    inc = np.empty((paths, grid.steps, drivers))
    for m in range(paths):
        bits = np.random.Philox(key=np.array([seed, m], dtype=np.uint64))
        inc[m] = np.random.Generator(bits).standard_normal((grid.steps, drivers))
    return inc * math.sqrt(grid.dt)


class TestTimeGrid:
    def test_uniform_grid_endpoints(self):
        g = TimeGrid(2.0, 8)
        assert g.times[0] == 0.0
        assert g.times[-1] == 2.0
        assert g.dt == 0.25
        np.testing.assert_allclose(np.diff(g.times), g.dt)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 5)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0)


class TestGaussianPanel:
    def test_shape_and_variance(self):
        g = TimeGrid(1.0, 20)
        n = gaussian_panel(g, 4000, 2, seed=5)
        assert n.increments.shape == (4000, 20, 2)
        # var of each increment is dt; 3 SE guard on the pooled estimate
        var = n.increments.var()
        count = n.increments.size
        se = g.dt * math.sqrt(2.0 / count)
        assert abs(var - g.dt) < 3 * se

    def test_seed_determinism(self):
        g = TimeGrid(1.0, 6)
        a = gaussian_panel(g, 50, 1, seed=9)
        b = gaussian_panel(g, 50, 1, seed=9)
        assert np.array_equal(a.increments, b.increments)
        c = gaussian_panel(g, 50, 1, seed=10)
        assert not np.array_equal(a.increments, c.increments)

    def test_substreams_independent_of_path_count(self):
        g = TimeGrid(1.0, 6)
        small = gaussian_panel(g, 8, 1, seed=3)
        large = gaussian_panel(g, 64, 1, seed=3)
        assert np.array_equal(small.increments, large.increments[:8])

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_draws_match_one_generator_per_path(self, seed):
        g = TimeGrid(1.0, 7)
        for paths in (1, 5, 33):
            for drivers in (1, 3):
                got = gaussian_panel(g, paths, drivers, seed=seed).increments
                assert got.tobytes() == per_path_generator_panel(g, paths, drivers, seed).tobytes()

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 10**23])
    def test_a_seed_outside_64_bits_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="below 2\\*\\*64"):
            gaussian_panel(TimeGrid(1.0, 2), 3, 1, seed=seed)

    def test_the_largest_64_bit_seed_keys_its_own_stream(self):
        g = TimeGrid(1.0, 3)
        got = gaussian_panel(g, 4, 1, seed=(1 << 64) - 1).increments
        assert got.tobytes() == per_path_generator_panel(g, 4, 1, (1 << 64) - 1).tobytes()

    def test_probs_uniform(self):
        g = TimeGrid(1.0, 3)
        n = gaussian_panel(g, 10, 1, seed=0)
        np.testing.assert_allclose(n.probs, 0.1)


class TestNoisePanel:
    def test_reads_paths_and_drivers_from_its_increments(self):
        g = TimeGrid(1.0, 4)
        n = NoisePanel("mc", g, np.zeros((5, 4, 3)))
        assert (n.paths, n.drivers) == (5, 3)
        assert gaussian_panel(g, 6, 2, seed=1).drivers == lattice_panel(g, 2).drivers == 2

    @pytest.mark.parametrize("shape", [(5, 3, 1), (5, 5, 1), (5, 4), (5, 4, 1, 1), (0, 4, 1)])
    def test_refuses_increments_off_its_grid(self, shape):
        with pytest.raises(ConfigError, match=r"increments must have shape \(paths, 4, drivers\)"):
            NoisePanel("mc", TimeGrid(1.0, 4), np.zeros(shape))

    @pytest.mark.parametrize("paths", [1, 3, 10])
    def test_weighs_every_path_equally(self, paths):
        n = NoisePanel("mc", TimeGrid(1.0, 2), np.zeros((paths, 2, 1)))
        assert n.probs.tolist() == np.full(paths, 1.0 / paths).tolist()
        assert not n.probs.flags.writeable


class TestLatticePanel:
    def test_exhaustive_signs(self):
        g = TimeGrid(1.0, 3)
        n = lattice_panel(g, 1)
        assert n.paths == 8
        assert n.probs.sum() == 1.0
        vals = np.unique(n.increments)
        np.testing.assert_allclose(np.abs(vals), math.sqrt(g.dt))
        # every sign pattern appears exactly once
        patterns = {tuple(np.sign(n.increments[m, :, 0]).astype(int)) for m in range(8)}
        assert len(patterns) == 8

    def test_prefix_blocks_contiguous(self):
        g = TimeGrid(1.0, 3)
        n = lattice_panel(g, 1)
        # first half of the paths all start with an up move
        assert np.all(n.increments[:4, 0, 0] > 0)
        assert np.all(n.increments[4:, 0, 0] < 0)

    def test_size_guard(self):
        with pytest.raises(ConfigError):
            lattice_panel(TimeGrid(1.0, 30), 1)

    @pytest.mark.parametrize("drivers", [0, -1])
    def test_drivers_below_one_are_refused(self, drivers):
        # the message gaussian_panel gives, from the rule the config parser reads too
        with pytest.raises(ConfigError, match="^drivers must be at least 1$"):
            lattice_paths(3, drivers)
        with pytest.raises(ConfigError, match="^drivers must be at least 1$"):
            lattice_panel(TimeGrid(1.0, 3), drivers)
        with pytest.raises(ConfigError, match="^drivers must be at least 1$"):
            gaussian_panel(TimeGrid(1.0, 3), 4, drivers)


class TestBlackScholes:
    def test_zero_vol_is_deterministic_exponential(self):
        g = TimeGrid(1.0, 25)
        n = gaussian_panel(g, 16, 1, seed=1)
        s = simulate(BlackScholes(0.1, 0.0), n)
        np.testing.assert_allclose(s[:, -1], math.exp(0.1), rtol=1e-14)

    def test_exact_log_step(self):
        # one path, one step: S_1 = exp((mu - sigma^2/2) dt + sigma dW) bit-for-bit
        g = TimeGrid(1.0, 1)
        n = gaussian_panel(g, 5, 1, seed=2)
        mu, sig = 0.07, 0.3
        s = simulate(BlackScholes(mu, sig), n)
        dw = n.increments[:, 0, 0]
        expected = np.exp((mu - 0.5 * sig**2) * g.dt + sig * dw)
        np.testing.assert_array_equal(s[:, 1], expected)

    def test_weak_terminal_mean(self):
        g = TimeGrid(1.0, 10)
        n = gaussian_panel(g, 40000, 1, seed=7)
        s = simulate(BlackScholes(0.05, 0.2), n)
        term = s[:, -1]
        se = term.std(ddof=1) / math.sqrt(len(term))
        assert abs(term.mean() - math.exp(0.05)) < 3 * se

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidModelError):
            BlackScholes(0.1, -0.2)
        with pytest.raises(InvalidModelError):
            BlackScholes(0.1, 0.2, s0=0.0)


class TestArctanDrift:
    def test_terminal_bounds(self):
        g = TimeGrid(1.0, 50)
        n = gaussian_panel(g, 1000, 1, seed=7)
        s = simulate(ArctanDrift(), n)
        assert s[:, -1].min() > 7.0 / 4.0
        assert s[:, -1].max() < 9.0 / 4.0
        # whole path band: t + 3/4 < S_t < t + 5/4
        t = g.times[None, :]
        assert np.all(s > t + 0.75)
        assert np.all(s < t + 1.25)

    def test_initial_price_one(self):
        g = TimeGrid(1.0, 4)
        n = gaussian_panel(g, 10, 1, seed=0)
        s = simulate(ArctanDrift(), n)
        np.testing.assert_array_equal(s[:, 0], 1.0)


class TestPathDependentBS:
    def test_constant_coefficients_match_black_scholes(self):
        g = TimeGrid(1.0, 12)
        n = gaussian_panel(g, 30, 1, seed=4)
        pd = PathDependentBS(mu_fn=lambda t, past: 0.08, sigma_fn=lambda t, past: 0.25)
        bs = simulate(BlackScholes(0.08, 0.25), n)
        s = simulate(pd, n)
        np.testing.assert_allclose(s, bs, rtol=1e-12)

    def test_clamping_applies(self):
        g = TimeGrid(1.0, 4)
        n = gaussian_panel(g, 10, 1, seed=4)
        wild = PathDependentBS(
            mu_fn=lambda t, past: 1e9,
            sigma_fn=lambda t, past: 1e9,
            mu_bounds=(-0.5, 0.5),
            sigma_bounds=(0.1, 0.4),
        )
        s = simulate(wild, n)
        capped = simulate(PathDependentBS(mu_fn=lambda t, past: 0.5, sigma_fn=lambda t, past: 0.4), n)
        np.testing.assert_allclose(s, capped, rtol=1e-12)

    def test_coefficients_see_only_the_past(self):
        g = TimeGrid(1.0, 5)
        n = gaussian_panel(g, 8, 1, seed=6)
        seen = []
        pd = PathDependentBS(
            mu_fn=lambda t, past: seen.append(past.shape[1]) or 0.0,
            sigma_fn=lambda t, past: 0.2,
        )
        simulate(pd, n)
        assert seen == [0, 1, 2, 3, 4]


class TestFactor:
    def test_zero_loadings_reduce_to_plain_dynamics(self):
        g = TimeGrid(1.0, 10)
        n = gaussian_panel(g, 20, 2, seed=8)
        f = Factor(
            theta=((0.0, 0.0), (0.0, 0.0)),
            m_fn=lambda y: 0.05,
            g_fn=lambda y: 0.0,
            sigma=0.2,
            rho=(0.0, 0.0),
        )
        s = np.empty((20, 11))
        f.simulate(n, s)
        bs = simulate(BlackScholes(0.05, 0.2), n)
        np.testing.assert_allclose(s, bs, rtol=1e-12)

    def test_theta_feeds_the_drift(self):
        g = TimeGrid(1.0, 10)
        n = gaussian_panel(g, 500, 2, seed=8)
        base = dict(m_fn=lambda y: 0.0, g_fn=lambda y: 0.0, sigma=0.2, rho=(0.1, 0.1), y0=1.0)
        low = Factor(theta=((0.0, 0.0), (0.0, 0.0)), **base)
        high = Factor(theta=((0.5, 0.0), (0.0, 0.0)), **base)
        s_low = simulate(low, n)
        s_high = simulate(high, n)
        # positive drift loading on a positive factor raises prices pathwise at first step
        assert np.all(s_high[:, 1] > s_low[:, 1])

    def test_needs_two_drivers(self):
        g = TimeGrid(1.0, 4)
        n1 = gaussian_panel(g, 10, 1, seed=0)
        f = Factor(theta=((0.0, 0.0), (0.0, 0.0)), m_fn=lambda y: 0.0, g_fn=lambda y: 0.0, sigma=0.2, rho=(0.1, 0.1))
        with pytest.raises(ConfigError):
            simulate(f, n1)


class TestSimulatePanel:
    def test_common_noise_drift_monotonicity(self):
        # same noise, higher drift: prices dominate path by path
        g = TimeGrid(1.0, 20)
        n = gaussian_panel(g, 4, 1, seed=42)
        thetas = ThetaGrid((BlackScholes(-0.1, 0.2), BlackScholes(0.1, 0.2)))
        prices = simulate_panel(thetas, n)
        assert np.all(prices[1][:, 1:] > prices[0][:, 1:])

    def test_mixed_driver_families_share_a_panel(self):
        g = TimeGrid(1.0, 5)
        n = gaussian_panel(g, 16, 2, seed=1)
        f = Factor(theta=((0.0, 0.0), (0.0, 0.0)), m_fn=lambda y: 0.0, g_fn=lambda y: 0.0, sigma=0.2, rho=(0.1, 0.1))
        thetas = ThetaGrid((BlackScholes(0.1, 0.2), f))
        assert simulate_panel(thetas, n).shape == (2, 16, 6)

    def test_returns_the_read_only_price_stack(self):
        g = TimeGrid(1.0, 4)
        n = gaussian_panel(g, 6, 1, seed=2)
        models = (BlackScholes(0.1, 0.2), BlackScholes(-0.05, 0.25))
        prices = simulate_panel(ThetaGrid(models), n)
        assert type(prices) is np.ndarray and prices.dtype == np.float64
        assert not prices.flags.writeable
        for k, model in enumerate(models):
            assert prices[k].tobytes() == simulate(model, n).tobytes()

    def test_error_carries_theta_index(self):
        g = TimeGrid(1.0, 5)
        n = gaussian_panel(g, 8, 1, seed=1)
        thetas = ThetaGrid((BlackScholes(0.1, 0.2), Factor(theta=((0.0, 0.0), (0.0, 0.0)), m_fn=lambda y: 0.0, g_fn=lambda y: 0.0, sigma=0.2, rho=(0.1, 0.1))))
        with pytest.raises(ConfigError, match="theta index 1"):
            simulate_panel(thetas, n)
