import math

import numpy as np
import pytest

from frictionopt import (
    ArctanDrift,
    BlackScholes,
    PriceSystem,
    TimeGrid,
    constant_cps,
    cps_certificate,
    entropy_membership,
    gaussian_panel,
    girsanov_cps,
    lattice_cps,
    lattice_panel,
    polarity_gap,
    registered_cps,
    simulate,
    supermartingale_check,
    verify_band,
    verify_martingale,
)
from frictionopt.cps import TOL, Z_MAX, drift_z, standard_error, within
from frictionopt.errors import ConfigError, ContractViolation, NoCpsConstructibleError


def arctan_fixture(paths=200, steps=20, seed=7):
    g = TimeGrid(1.0, steps)
    noise = gaussian_panel(g, paths, 1, seed=seed)
    prices = simulate(ArctanDrift(), noise)
    return g, noise, prices


def lattice_fixture(steps=6, mu=0.1, sigma=0.2, s0=1.0):
    g = TimeGrid(1.0, steps)
    noise = lattice_panel(g, 1)
    prices = simulate(BlackScholes(mu, sigma, s0), noise)
    return g, noise, prices


def two_path_panel():
    """Two equally weighted paths over two steps."""
    return gaussian_panel(TimeGrid(1.0, 2), 2, 1, seed=0)


class TestPriceSystem:
    def test_q_probs(self):
        ps = PriceSystem(np.ones((2, 3)), np.asarray([0.5, 1.5]), two_path_panel(), 0.0)
        np.testing.assert_array_equal(ps.q_probs, [0.25, 0.75])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigError):
            PriceSystem(np.ones((2, 3)), np.asarray([0.0, 2.0]), two_path_panel(), 0.0)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ConfigError):
            PriceSystem(np.ones((2, 3)), np.asarray([1.0, 1.5]), two_path_panel(), 0.0)

    def test_rejects_nonpositive_shadow(self):
        shadow = np.ones((2, 3))
        shadow[1, 2] = 0.0
        with pytest.raises(ConfigError):
            PriceSystem(shadow, np.ones(2), two_path_panel(), 0.0)

    def test_rejects_non_finite_shadow_and_weights(self):
        shadow = np.ones((2, 3))
        shadow[0, 1] = np.inf
        with pytest.raises(ConfigError):
            PriceSystem(shadow, np.ones(2), two_path_panel(), 0.0)
        with pytest.raises(ConfigError):
            PriceSystem(np.ones((2, 3)), np.full(2, np.nan), two_path_panel(), 0.0)

    def test_rejects_bad_mu_level(self):
        with pytest.raises(ConfigError):
            PriceSystem(np.ones((2, 3)), np.ones(2), two_path_panel(), 1.0)

    def test_rejects_a_panel_with_another_path_count(self):
        g = TimeGrid(1.0, 2)
        with pytest.raises(ConfigError, match="on this panel"):
            PriceSystem(np.ones((2, 3)), np.ones(2), gaussian_panel(g, 3, 1, seed=0), 0.0)
        with pytest.raises(ConfigError, match="on this panel"):
            PriceSystem(np.ones((4, 3)), np.ones(4), lattice_panel(TimeGrid(1.0, 3), 1), 0.0)


class TestVerifyBand:
    def test_constant_shadow_inside_arctan_band(self):
        g, noise, prices = arctan_fixture()
        ps = constant_cps(noise, 0.75)
        rep = verify_band(prices, ps, 2.0 / 3.0)
        assert rep.holds
        assert rep.strict
        assert rep.delta > 0.0

    def test_shadow_at_ask_holds_without_strictness(self):
        g, noise, prices = lattice_fixture()
        ps = lattice_cps(prices, noise)
        rep = verify_band(prices, ps, 0.1)
        assert rep.holds
        assert not rep.strict
        assert rep.delta == 0.0

    def test_violation_reports_worst_coordinates(self):
        g = TimeGrid(1.0, 2)
        noise = gaussian_panel(g, 4, 1, seed=0)
        prices = np.ones((4, 3))
        prices[2, 1] = 0.25  # shadow 1 sits far above this ask
        ps = constant_cps(noise, 1.0)
        rep = verify_band(prices, ps, 0.5)
        assert not rep.holds
        assert rep.worst == (2, 1)

    def test_parameter_validation(self):
        g, noise, prices = lattice_fixture(steps=2)
        ps = lattice_cps(prices, noise)
        with pytest.raises(ConfigError):
            verify_band(prices, ps, 0.0)
        with pytest.raises(ConfigError):
            verify_band(prices[:, :-1], ps, 0.1)


class TestGirsanovCps:
    def test_raw_density_has_unit_mean_within_monte_carlo_error(self):
        g = TimeGrid(1.0, 12)
        noise = gaussian_panel(g, 8000, 1, seed=13)
        model = BlackScholes(0.1, 0.2)
        a = model.mu / model.sigma
        w_t = noise.increments[:, :, 0].sum(axis=1)
        raw = np.exp(-a * w_t - 0.5 * a * a * g.horizon)
        mean = raw.mean()
        se = raw.std(ddof=1) / math.sqrt(raw.size)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_weights_are_renormalized_exactly(self):
        g = TimeGrid(1.0, 10)
        noise = gaussian_panel(g, 500, 1, seed=3)
        ps = girsanov_cps(BlackScholes(0.1, 0.2), simulate(BlackScholes(0.1, 0.2), noise), noise)
        assert float(np.dot(noise.probs, ps.weights)) == pytest.approx(1.0, abs=1e-14)

    def test_shadow_is_martingale_in_mc_mode(self):
        g = TimeGrid(1.0, 8)
        noise = gaussian_panel(g, 4000, 1, seed=5)
        ps = girsanov_cps(BlackScholes(0.1, 0.2), simulate(BlackScholes(0.1, 0.2), noise), noise)
        rep = verify_martingale(ps)
        assert rep.mode == "mc"
        assert rep.passed

    def test_a_true_system_passes_above_three_standard_errors(self):
        # one of this panel's 4 steps drifts by 3.09 standard errors, inside
        # the 4-step threshold of 3.40 that keeps the one-step false-alarm rate
        noise = gaussian_panel(TimeGrid(1.0, 4), 200, 1, seed=11)
        model = BlackScholes(0.1, 0.2)
        rep = verify_martingale(girsanov_cps(model, simulate(model, noise), noise))
        assert Z_MAX < rep.max_z < drift_z(4)
        assert rep.passed

    def test_rejects_degenerate_and_foreign_models(self):
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 10, 1, seed=0)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        with pytest.raises(NoCpsConstructibleError):
            girsanov_cps(BlackScholes(0.1, 0.0), prices, noise)
        with pytest.raises(NoCpsConstructibleError):
            girsanov_cps(ArctanDrift(), prices, noise)

    def test_density_underflow_is_no_construction(self):
        # mu/sigma = 50: exp(-a W_T - a^2 T / 2) underflows to 0 on every path
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 200, 1, seed=0)
        model = BlackScholes(0.1, 0.002)
        with pytest.raises(NoCpsConstructibleError):
            girsanov_cps(model, simulate(model, noise), noise)


class TestLatticeCps:
    def test_exact_martingale_node_by_node(self):
        g, noise, prices = lattice_fixture()
        ps = lattice_cps(prices, noise)
        rep = verify_martingale(ps)
        assert rep.mode == "lattice"
        assert rep.passed
        assert rep.max_drift <= 1e-12

    @pytest.mark.parametrize("steps", [2, 10])
    @pytest.mark.parametrize("s0", [1e6, 1e9])
    def test_exact_system_verifies_at_large_prices(self, s0, steps):
        # the node drifts are rounding of the prices' size (1.2e-10 at s0 1e6
        # on 2 steps), which the slack relative to the prices forgives
        g, noise, prices = lattice_fixture(steps=steps, s0=s0)
        rep = verify_martingale(lattice_cps(prices, noise))
        assert rep.passed
        assert rep.max_drift <= 1e-15 * prices.max() * steps

    def test_weights_form_a_probability(self):
        g, noise, prices = lattice_fixture()
        ps = lattice_cps(prices, noise)
        assert np.all(ps.weights > 0.0)
        assert float(ps.q_probs.sum()) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_gaussian_panels(self):
        g = TimeGrid(1.0, 3)
        noise = gaussian_panel(g, 8, 1, seed=0)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        with pytest.raises(ConfigError):
            lattice_cps(prices, noise)

    def test_rejects_moves_that_do_not_straddle(self):
        # drift so strong that both lattice moves land above the node price
        g, noise, prices = lattice_fixture(steps=2, mu=2.0, sigma=0.1)
        with pytest.raises(NoCpsConstructibleError):
            lattice_cps(prices, noise)


class TestRegisteredCps:
    def test_shrink_buys_strict_band_slack(self):
        g = TimeGrid(1.0, 6)
        noise = gaussian_panel(g, 100, 1, seed=1)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        ps = registered_cps(BlackScholes(0.1, 0.2), prices, noise, 0.1, shrink=0.95)
        assert ps.mu_level == pytest.approx(0.05)
        assert ps.label == "girsanov(mu=0.1, sigma=0.2)"
        rep = verify_band(prices, ps, 0.1)
        assert rep.strict

    def test_shrink_preserves_exactness(self):
        g, noise, prices = lattice_fixture()
        ps = registered_cps(BlackScholes(0.1, 0.2), prices, noise, 0.1, shrink=0.97)
        assert (ps.mu_level, ps.label) == (pytest.approx(0.03), "lattice")
        np.testing.assert_array_equal(ps.shadow, 0.97 * prices)
        assert verify_martingale(ps).max_drift <= 1e-12

    @pytest.mark.parametrize("shrink", [0.0, 1.0, 1.5, -0.5])
    def test_rejects_shrink_outside_the_unit_interval(self, shrink):
        g, noise, prices = lattice_fixture(steps=2)
        with pytest.raises(ConfigError, match="shrink must lie in"):
            registered_cps(BlackScholes(0.1, 0.2), prices, noise, 0.1, shrink=shrink)

    @pytest.mark.parametrize("kind", ["mc", "lattice"])
    def test_the_certificate_decides_first_on_any_panel(self, kind):
        g = TimeGrid(1.0, 4)
        noise = lattice_panel(g, 1) if kind == "lattice" else gaussian_panel(g, 50, 1, seed=2)
        prices = simulate(ArctanDrift(), noise)
        ps = registered_cps(ArctanDrift(), prices, noise, 0.7)
        assert (ps.label, ps.mu_level) == ("constant", 0.0)
        np.testing.assert_array_equal(ps.shadow, 0.75)
        assert verify_band(prices, ps, 0.7).strict and verify_martingale(ps).passed
        assert registered_cps(ArctanDrift(), prices, noise, 0.3) is None

    def test_shrink_scales_the_constant_shadow(self):
        g, noise, prices = arctan_fixture()
        ps = registered_cps(ArctanDrift(), prices, noise, 0.7, shrink=0.95)
        assert (ps.label, ps.mu_level) == ("constant", pytest.approx(0.05))
        np.testing.assert_array_equal(ps.shadow, 0.95 * 0.75)
        assert verify_band(prices, ps, 0.7).strict
        # 0.375 sits below the bid 0.3 S wherever S > 1.25
        assert not verify_band(prices, registered_cps(ArctanDrift(), prices, noise, 0.7, shrink=0.5), 0.7).holds

    def test_models_without_a_construction_get_none(self):
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 20, 1, seed=0)
        model = BlackScholes(0.1, 0.0)
        assert registered_cps(model, simulate(model, noise), noise, 0.1, shrink=0.9) is None

    @pytest.mark.parametrize("kind", ["mc", "lattice"])
    def test_a_construction_leaves_the_callers_prices_writable(self, kind):
        g = TimeGrid(1.0, 3)
        noise = lattice_panel(g, 1) if kind == "lattice" else gaussian_panel(g, 20, 1, seed=0)
        model = BlackScholes(0.1, 0.2)
        prices = np.array(simulate(model, noise))
        ps = girsanov_cps(model, prices, noise) if kind == "mc" else lattice_cps(prices, noise)
        assert np.shares_memory(ps.shadow, prices)
        assert prices.flags.writeable and not ps.shadow.flags.writeable


class TestMartingaleRejection:
    """Shadows that are not Q-martingales: drifting prices under the base
    measure itself (weights identically one)."""

    @pytest.mark.parametrize("s0", [1.0, 1e6, 1e9])
    def test_lattice_mode_rejects_a_drifting_shadow(self, s0):
        mu, sigma = 0.1, 0.2
        g, noise, prices = lattice_fixture(steps=4, mu=mu, sigma=sigma, s0=s0)
        ps = PriceSystem(prices, np.ones(noise.paths), noise, 0.0)
        rep = verify_martingale(ps)
        assert rep.mode == "lattice"
        assert not rep.passed
        # one step from a node at S multiplies by exp((mu - sigma^2/2) dt) and
        # by e^{+-sigma sqrt(dt)} with probability 1/2 each
        factor = math.exp((mu - 0.5 * sigma**2) * g.dt) * math.cosh(sigma * math.sqrt(g.dt)) - 1.0
        assert rep.max_drift == pytest.approx(abs(factor) * prices[:, :-1].max(), rel=1e-9)
        assert rep.max_drift > 1e-10 * prices.max()

    @pytest.mark.parametrize("s0", [1.0, 1e6, 1e9])
    def test_mc_mode_rejects_a_drifting_shadow(self, s0):
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 2000, 1, seed=4)
        prices = simulate(BlackScholes(2.0, 0.2, s0), noise)
        ps = PriceSystem(prices, np.ones(noise.paths), noise, 0.0)
        rep = verify_martingale(ps)
        assert rep.mode == "mc"
        assert not rep.passed
        inc = np.diff(prices, axis=1)
        z = np.abs(inc.mean(axis=0)) * math.sqrt(noise.paths) / inc.std(axis=0, ddof=1)
        assert rep.max_z == pytest.approx(z.max(), rel=1e-9)
        assert rep.max_z > 3.0
        assert rep.max_drift == pytest.approx(np.abs(inc.mean(axis=0)).max(), rel=1e-9)


class TestSupermartingale:
    def test_martingale_passes_exactly(self):
        g, noise, prices = lattice_fixture()
        ps = lattice_cps(prices, noise)
        rep = supermartingale_check(ps.shadow, ps)
        assert rep.passed
        assert abs(rep.max_drift) <= 1e-12

    def test_decreasing_process_passes(self):
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        values = np.tile(-noise.grid.times, (noise.paths, 1))
        rep = supermartingale_check(values, ps)
        assert rep.passed
        assert rep.max_drift == pytest.approx(-g.dt)

    def test_increasing_process_fails(self):
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        values = np.tile(noise.grid.times, (noise.paths, 1))
        rep = supermartingale_check(values, ps)
        assert not rep.passed
        assert rep.max_drift == pytest.approx(g.dt)

    @pytest.mark.parametrize("rise, ok", [(0.25, True), (1e6, False)])
    def test_rises_are_judged_relative_to_the_values(self, rise, ok):
        # 0.25 on values of 1e15 is rounding (2.5e-16 relative); 1e6 is a
        # relative rise of 1e-9, ten times the slack
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        values = np.full((noise.paths, g.steps + 1), 1e15)
        values[:, -1] += rise
        rep = supermartingale_check(values, ps)
        # the node sums of values near 1e15 round in steps of 0.125
        assert rep.passed is ok
        assert rep.max_drift == pytest.approx(rise, abs=0.5)

    def test_an_infinite_value_earns_no_rounding_slack(self):
        # the -inf node drifts to -inf; the others rise by 1e-3, judged
        # against the absolute slack, not an infinite one
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        values = np.zeros((noise.paths, g.steps + 1))
        values[:, -1] = 1e-3
        values[0, -1] = -np.inf
        rep = supermartingale_check(values, ps)
        assert not rep.passed
        assert rep.max_drift == pytest.approx(1e-3)

    def test_non_adapted_process_is_a_contract_violation(self):
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        values = np.zeros_like(prices)
        values[:, 0] = np.arange(noise.paths)  # varies inside the root node
        with pytest.raises(ContractViolation):
            supermartingale_check(values, ps)

    def test_mc_mode_flags_deterministic_drift_up(self):
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 50, 1, seed=2)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        ps = girsanov_cps(BlackScholes(0.1, 0.2), prices, noise)
        values = np.tile(noise.grid.times, (noise.paths, 1))
        rep = supermartingale_check(values, ps)
        assert rep.mode == "mc"
        assert not rep.passed


    @pytest.mark.parametrize("rise, ok", [(0.25, True), (1e6, False)])
    def test_mc_rises_are_judged_relative_to_the_values(self, rise, ok):
        # every path rises by the same amount, so the step's standard error
        # is 0 and only the rounding slack, relative to 1e15, can forgive it
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 50, 1, seed=2)
        ps = constant_cps(noise, 1.0)
        values = np.full((noise.paths, g.steps + 1), 1e15)
        values[:, -1] += rise
        rep = supermartingale_check(values, ps)
        assert rep.mode == "mc"
        assert rep.passed is ok
        assert rep.max_drift == rise and rep.max_z == math.inf

    def test_mc_mode_fails_an_undefined_drift(self):
        g = TimeGrid(1.0, 4)
        noise = gaussian_panel(g, 50, 1, seed=2)
        ps = constant_cps(noise, 1.0)
        values = np.zeros((noise.paths, g.steps + 1))
        values[3, 2] = np.nan
        rep = supermartingale_check(values, ps)
        assert rep.max_z == math.inf
        assert not rep.passed


class TestEntropy:
    def test_log_conjugate_entropy_matches_closed_form(self):
        # E[-ln Z - 1] = (mu/sigma)^2 T / 2 - 1 for the drift-removal density
        g = TimeGrid(1.0, 10)
        noise = gaussian_panel(g, 20000, 1, seed=11)
        ps = girsanov_cps(BlackScholes(0.1, 0.2), simulate(BlackScholes(0.1, 0.2), noise), noise)
        rep = entropy_membership(ps, lambda w: -np.log(w) - 1.0)
        assert rep.finite
        assert abs(rep.estimate - (-0.875)) <= 3.0 * rep.se

    def test_infinite_values_flagged(self):
        g, noise, prices = lattice_fixture(steps=2)
        ps = lattice_cps(prices, noise)
        rep = entropy_membership(ps, lambda w: np.full_like(w, np.inf))
        assert not rep.finite
        assert rep.estimate == math.inf

    def test_lattice_estimate_is_exact(self):
        g, noise, prices = lattice_fixture(steps=3)
        ps = lattice_cps(prices, noise)
        rep = entropy_membership(ps, lambda w: -np.log(w) - 1.0)
        assert rep.se == 0.0
        assert rep.estimate == pytest.approx(float(np.dot(noise.probs, -np.log(ps.weights) - 1.0)), rel=1e-15)


class TestPolarity:
    def test_reachable_payoff_saturates_the_bound(self):
        g, noise, prices = lattice_fixture(steps=4)
        ps = lattice_cps(prices, noise)
        x0, y = 2.0, 1.5
        terminal = np.full(noise.paths, x0)
        rep = polarity_gap(terminal, ps, x0, y)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(rep.bound, rel=1e-12)

    def test_lattice_payoff_five_percent_above_the_bound_is_flagged(self):
        # the lattice expectation is exact, so no standard error forgives a
        # payoff worth 5% more than x0 under Q
        g, noise, prices = lattice_fixture(steps=4)
        ps = lattice_cps(prices, noise)
        x0, y = 2.0, 1.5
        rep = polarity_gap(np.full(noise.paths, 1.05 * x0), ps, x0, y)
        assert rep.se == 0.0
        assert rep.lhs == pytest.approx(1.05 * rep.bound, rel=1e-12)
        assert not rep.satisfied

    def test_unreachable_payoff_is_flagged(self):
        g = TimeGrid(1.0, 2)
        noise = gaussian_panel(g, 16, 1, seed=0)
        prices = np.ones((16, 3))
        ps = constant_cps(noise, 1.0)
        rep = polarity_gap(np.full(16, 3.0), ps, x0=2.0, y=1.0)
        assert not rep.satisfied
        assert rep.lhs > rep.bound


class TestStandardError:
    def test_one_monte_carlo_path_has_zero_standard_error(self):
        noise = gaussian_panel(TimeGrid(1.0, 2), 1, 1, seed=0)
        assert standard_error(np.array([2.5]), noise) == 0.0


class TestDriftZ:
    def test_one_step_keeps_z_max(self):
        assert drift_z(1) == Z_MAX

    @pytest.mark.parametrize("steps, z", [(4, 3.40), (50, 4.04)])
    def test_more_steps_share_the_one_step_false_alarm_rate(self, steps, z):
        assert drift_z(steps) == pytest.approx(z, abs=5e-3)
        one_step = math.erfc(Z_MAX / math.sqrt(2.0))
        assert steps * math.erfc(drift_z(steps) / math.sqrt(2.0)) == pytest.approx(one_step, rel=1e-9)


class TestWithin:
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "bound, se", [(1.0, 0.0), (1.0, 0.5), (1.0, math.inf), (math.inf, 0.0), (math.inf, math.inf)]
    )
    def test_an_infinite_or_nan_value_fails_whatever_its_standard_error(self, value, bound, se):
        assert not within(value, bound, se)

    @pytest.mark.parametrize("bound, se", [(1.0, 0.0), (1.0, math.inf), (-1e300, 0.0), (math.inf, 0.0)])
    def test_a_minus_infinite_value_holds(self, bound, se):
        assert within(-math.inf, bound, se)

    @pytest.mark.parametrize(
        "value, bound, se, ok",
        [
            (1.0, 1.0, 0.0, True),
            (1.0 + TOL / 2, 1.0, 0.0, True),
            (1.0 + 2 * TOL, 1.0, 0.0, False),
            (1.0 + Z_MAX * 0.1, 1.0, 0.1, True),
            (1.0 + Z_MAX * 0.1 + 1e-6, 1.0, 0.1, False),
            (1e300, 1.0, math.inf, True),
            (1.0, -math.inf, 0.0, False),
            (1.0, math.nan, 0.0, False),
        ],
    )
    def test_finite_verdicts(self, value, bound, se, ok):
        assert within(value, bound, se) is ok

    @pytest.mark.parametrize(
        "value, bound, scale, ok",
        [
            (1e6 + 0.5e-4, 1e6, 0.0, True),
            (1e6 + 2e-4, 1e6, 0.0, False),
            (-1e6 + 0.5e-4, -1e6, 0.0, True),
            (0.5e-4, 0.0, 1e6, True),
            (2e-4, 0.0, 1e6, False),
            (0.5e-4, 0.0, 0.0, False),
            (0.5 * TOL, 0.0, 0.5, True),
            (2 * TOL, 0.0, 0.5, False),
        ],
    )
    def test_the_rounding_slack_scales_with_what_it_judges(self, value, bound, scale, ok):
        # TOL * max(1, |bound|, scale): absolute below magnitude 1
        assert within(value, bound, 0.0, scale) is ok

    @pytest.mark.parametrize("z, ok", [(Z_MAX, False), (4.0, True)])
    def test_z_sets_the_standard_errors_forgiven(self, z, ok):
        assert within(1.0 + 3.5 * 0.1, 1.0, 0.1, z=z) is ok


class TestCertificate:
    def test_nonexistence_below_two_thirds(self):
        cert = cps_certificate(ArctanDrift(), 0.42)
        assert cert is not None
        assert not cert.exists
        assert cert.test_value == pytest.approx((1.0 - 0.42) * 7.0 / 4.0)
        assert cert.test_value > 1.0

    def test_existence_at_two_thirds_and_above(self):
        for lam in (2.0 / 3.0, 0.8):
            cert = cps_certificate(ArctanDrift(), lam)
            assert cert is not None
            assert cert.exists
            assert cert.shadow_level == 0.75

    def test_indeterminate_middle_range_returns_none(self):
        assert cps_certificate(ArctanDrift(), 0.5) is None

    def test_unregistered_model_returns_none(self):
        assert cps_certificate(BlackScholes(0.1, 0.2), 0.3) is None

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            cps_certificate(ArctanDrift(), 0.0)

    def test_certified_constant_system_verifies_end_to_end(self):
        g, noise, prices = arctan_fixture(paths=300, steps=25, seed=9)
        lam = 2.0 / 3.0
        cert = cps_certificate(ArctanDrift(), lam)
        ps = constant_cps(noise, cert.shadow_level)
        assert verify_band(prices, ps, lam).holds
        assert verify_martingale(ps).passed
