import numpy as np
import pytest

from frictionopt import (
    ArctanDrift,
    BlackScholes,
    CostSpec,
    Strategy,
    ThetaGrid,
    TimeGrid,
    check_admissible_rplus,
    gaussian_panel,
    run_ledger,
    shadow_value,
    simulate,
    simulate_panel,
)
from frictionopt import accounting
from frictionopt.accounting import settle
from frictionopt.errors import ConfigError, ContractViolation


def random_strategy(grid, paths, rng, h0_scale=1.0, jump_scale=0.2, flatten=True, nonneg_h0=False):
    d_up = np.zeros((paths, grid.steps + 1))
    d_dn = np.zeros((paths, grid.steps + 1))
    d_up[:, 1:] = rng.exponential(jump_scale, size=(paths, grid.steps))
    d_dn[:, 1:] = rng.exponential(jump_scale, size=(paths, grid.steps))
    h0 = float(rng.normal(0.0, h0_scale))
    if nonneg_h0:
        h0 = abs(h0)
    d_up[:, 0], d_dn[:, 0] = max(h0, 0.0), max(-h0, 0.0)
    if flatten:
        d_up[:, -1] = 0.0
        d_dn[:, -1] = 0.0
        pos = 0.0
        for i in range(grid.steps):
            pos = (pos + d_up[:, i]) - d_dn[:, i]
        d_dn[:, -1] = np.maximum(pos, 0.0)
        d_up[:, -1] = np.maximum(-pos, 0.0)
    return Strategy(d_up, d_dn)


def sequential_ledger(strategy, prices, cost):
    """Cash, position and liquidation value one step at a time from cash x0
    and a flat position, the time-zero trade in column 0 included:
    cash_i = (cash_{i-1} - S_i up_i) + (1 - lambda) S_i dn_i."""
    lam = cost.lam
    cash = np.empty(prices.shape)
    pos = np.empty(strategy.d_up.shape)
    cash_prev, pos_prev = cost.x0, 0.0
    for i in range(prices.shape[-1]):
        cash[..., i] = (
            cash_prev
            - prices[..., i] * strategy.d_up[:, i]
            + (1.0 - lam) * prices[..., i] * strategy.d_dn[:, i]
        )
        pos[:, i] = (pos_prev + strategy.d_up[:, i]) - strategy.d_dn[:, i]
        cash_prev, pos_prev = cash[..., i], pos[:, i]
    liq = cash + np.maximum(pos, 0.0) * ((1.0 - lam) * prices) - np.maximum(-pos, 0.0) * prices
    return cash, pos, liq


def rounding_fixture(h0, models=None):
    """Jumps mixing 1e16 with 1 and 0.1 steps against prices near 1 and
    1e-3, so the running sums round differently in another order; prices
    of one model, or a stack of `models`."""
    g = TimeGrid(1.0, 11)
    rng = np.random.default_rng(5)
    shape = (64, g.steps + 1) if models is None else (models, 64, g.steps + 1)
    prices = rng.choice([1.0, 0.7, 1.3, 1e-3], size=shape) * rng.uniform(0.9, 1.1, size=shape)
    jumps = [rng.choice([0.0, 0.1, 1.0, 1e16], size=(64, g.steps + 1)) for _ in range(2)]
    jumps[0][:, 0], jumps[1][:, 0] = max(h0, 0.0), max(-h0, 0.0)
    strat = Strategy(jumps[0], jumps[1])
    cost = CostSpec(0.03, 1.0)
    cash = sequential_ledger(strat, prices, cost)[0]
    # the inputs do tell association orders apart
    net = (1.0 - cost.lam) * prices[..., 1:] * jumps[1][:, 1:] - prices[..., 1:] * jumps[0][:, 1:]
    assert not np.array_equal(cash[..., :1] + np.cumsum(net, axis=-1), cash[..., 1:])
    return strat, prices, cost


class TestRunLedger:
    @pytest.mark.parametrize("h0", [1e16, -0.1, 0.0])
    def test_matches_sequential_recursion_bitwise(self, h0):
        strat, prices, cost = rounding_fixture(h0)
        ledger = run_ledger(strat, prices, cost)
        cash, pos, liq = sequential_ledger(strat, prices, cost)
        assert ledger.cash.tobytes() == cash.tobytes()
        assert ledger.position.tobytes() == pos.tobytes()
        assert ledger.liq.tobytes() == liq.tobytes()

    @pytest.mark.parametrize("h0", [1e16, -0.1, 0.0])
    def test_settle_over_a_price_stack_matches_sequential_recursion_bitwise(self, h0):
        # what a ledger records for one model, settle yields for every model
        # of a stack at once
        strat, prices, cost = rounding_fixture(h0, models=3)
        steps = list(settle(strat.d_up, strat.d_dn, strat.position(), prices, cost))
        cash, _, liq = sequential_ledger(strat, prices, cost)
        assert np.stack([c for c, _ in steps], axis=-1).tobytes() == cash.tobytes()
        assert np.stack([q for _, q in steps], axis=-1).tobytes() == liq.tobytes()

    def test_zero_strategy_identity(self):
        g = TimeGrid(1.0, 10)
        noise = gaussian_panel(g, 50, 1, seed=0)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        led = run_ledger(Strategy.zero(g, 50), prices, CostSpec(0.1, 7.0))
        np.testing.assert_array_equal(led.cash, 7.0)
        np.testing.assert_array_equal(led.position, 0.0)
        np.testing.assert_array_equal(led.liq, 7.0)

    def test_worked_round_trip(self):
        # x=10, lambda=0.01, S constant 2: buy 1 at t=0, sell at T
        prices = np.full((1, 2), 2.0)
        d_dn = np.array([[0.0, 1.0]])
        strat = Strategy(np.array([[1.0, 0.0]]), d_dn)
        led = run_ledger(strat, prices, CostSpec(0.01, 10.0))
        assert led.cash[0, 0] == 8.0
        assert led.cash[0, 1] == 9.98
        assert led.liq[0, 1] == 9.98
        assert led.position[0, 1] == 0.0
        # round-trip cost is lambda * S
        assert 10.0 - led.liq[0, 1] == pytest.approx(0.02, abs=1e-15)

    def test_short_side_settles_at_bid(self):
        prices = np.full((1, 2), 2.0)
        strat = Strategy(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        led = run_ledger(strat, prices, CostSpec(0.25, 10.0))
        # sell 1 at (1-lam)*2 = 1.5, buy back at 2
        assert led.cash[0, 0] == 11.5
        assert led.cash[0, 1] == 9.5
        assert led.position[0, 1] == 0.0

    def test_arctan_buy_and_hold_bound(self):
        # buy 1 at t=0, sell at T, lambda = 2/3: liq_T = x - S_0 + S_T/3 >= x - 1 + 7/12
        g = TimeGrid(1.0, 50)
        noise = gaussian_panel(g, 1000, 1, seed=7)
        prices = simulate(ArctanDrift(), noise)
        d_up = np.zeros((1000, 51))
        d_up[:, 0] = 1.0
        d_dn = np.zeros((1000, 51))
        d_dn[:, -1] = 1.0
        strat = Strategy(d_up, d_dn)
        x = 2.0
        led = run_ledger(strat, prices, CostSpec(2.0 / 3.0, x))
        expected = x - prices[:, 0] + prices[:, -1] / 3.0
        np.testing.assert_allclose(led.liq[:, -1], expected, rtol=1e-12)
        assert led.liq[:, -1].min() >= x - 1.0 + 7.0 / 12.0

    def test_cash_conservation_identity(self):
        g = TimeGrid(1.0, 20)
        noise = gaussian_panel(g, 40, 1, seed=3)
        prices = simulate(BlackScholes(0.05, 0.3), noise)
        rng = np.random.default_rng(12)
        lam, x = 0.02, 5.0
        for _ in range(25):
            strat = random_strategy(g, 40, rng, flatten=False)
            led = run_ledger(strat, prices, CostSpec(lam, x))
            rhs = -(prices * strat.d_up).sum(axis=1) + ((1 - lam) * prices * strat.d_dn).sum(axis=1)
            np.testing.assert_allclose(led.cash[:, -1] - x, rhs, rtol=1e-12, atol=1e-12)

    def test_cost_monotonicity(self):
        g = TimeGrid(1.0, 8)
        noise = gaussian_panel(g, 30, 1, seed=5)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        rng = np.random.default_rng(9)
        strat = random_strategy(g, 30, rng, h0_scale=0.0, flatten=True)
        led_lo = run_ledger(strat, prices, CostSpec(0.01, 3.0))
        led_hi = run_ledger(strat, prices, CostSpec(0.10, 3.0))
        assert np.all(led_hi.liq[:, -1] <= led_lo.liq[:, -1])

    def test_ledger_arrays_are_read_only_and_share_no_memory_with_the_prices(self):
        g = TimeGrid(1.0, 6)
        noise = gaussian_panel(g, 20, 1, seed=2)
        stack = simulate_panel(ThetaGrid([BlackScholes(0.1, 0.2), ArctanDrift()]), noise)
        prices = stack[1].copy()
        strat = random_strategy(g, 20, np.random.default_rng(3))
        for given in (stack[1], prices):
            ledger = run_ledger(strat, given, CostSpec(0.1, 1.0))
            for arr in (ledger.cash, ledger.position, ledger.liq):
                assert not arr.flags.writeable
                assert not np.shares_memory(arr, stack)
                assert not np.shares_memory(arr, prices)

    def test_grid_mismatch(self):
        g = TimeGrid(1.0, 4)
        strat = Strategy.zero(g, 3)
        with pytest.raises(ConfigError):
            run_ledger(strat, np.ones((3, 4)), CostSpec(0.1, 1.0))

    def test_a_price_stack_is_refused(self):
        # a ledger records one model; settle walks a stack without one
        g = TimeGrid(1.0, 4)
        with pytest.raises(ConfigError, match=r"prices must have shape \(3, 5\), got \(2, 3, 5\)"):
            run_ledger(Strategy.zero(g, 3), np.ones((2, 3, 5)), CostSpec(0.1, 1.0))


class TestTerminalLinearity:
    def test_flat_terminal_position_makes_liq_equal_cash(self):
        g = TimeGrid(1.0, 6)
        noise = gaussian_panel(g, 25, 1, seed=2)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        rng = np.random.default_rng(4)
        strat = random_strategy(g, 25, rng, flatten=True)
        led = run_ledger(strat, prices, CostSpec(0.05, 4.0))
        np.testing.assert_array_equal(led.position[:, -1], 0.0)
        np.testing.assert_array_equal(led.liq[:, -1], led.cash[:, -1])

    def test_midpoint_combination_bitwise_on_dyadic_fixture(self):
        # dyadic prices and jumps: every product and sum is exact, so the
        # ledger of (A+B)/2 hits the average of the ledgers bit for bit
        prices = np.array([[1.0, 1.25, 0.75, 1.5], [1.0, 0.5, 1.75, 2.0]])
        lam = 0.5
        a_up = np.array([[0.0, 0.25, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        b_up = np.array([[0.0, 0.75, 0.5, 0.0], [0.0, 0.0, 0.25, 0.0]])

        a_up[:, 0], b_up[:, 0] = 0.5, 0.25

        def flatten(d_up):
            d_dn = np.zeros_like(d_up)
            d_dn[:, 3] = d_up[:, 0] + d_up[:, 1] + d_up[:, 2]
            return d_dn

        cost = CostSpec(lam, 4.0)
        a = Strategy(a_up, flatten(a_up))
        b = Strategy(b_up, flatten(b_up))
        mid_up = (a_up + b_up) / 2.0
        mid = Strategy(mid_up, flatten(mid_up))
        led_a = run_ledger(a, prices, cost)
        led_b = run_ledger(b, prices, cost)
        led_mid = run_ledger(mid, prices, cost)
        np.testing.assert_array_equal(led_mid.liq[:, -1], (led_a.liq[:, -1] + led_b.liq[:, -1]) / 2.0)

    def test_midpoint_combination_float_tolerance_on_simulated_prices(self):
        # averaging d_up and d_dn coordinatewise (terminal trades included)
        # keeps liq_T affine: the mid strategy still nets to zero at T and
        # cash_T is linear in the trade coordinates once h0 >= 0 on both legs
        g = TimeGrid(1.0, 8)
        noise = gaussian_panel(g, 64, 1, seed=11)
        prices = simulate(BlackScholes(0.08, 0.25), noise)
        rng = np.random.default_rng(21)
        cost = CostSpec(0.03, 5.0)
        a = random_strategy(g, 64, rng, flatten=True, nonneg_h0=True)
        b = random_strategy(g, 64, rng, flatten=True, nonneg_h0=True)
        mid = Strategy((a.d_up + b.d_up) / 2.0, (a.d_dn + b.d_dn) / 2.0)
        led_a = run_ledger(a, prices, cost)
        led_b = run_ledger(b, prices, cost)
        led_mid = run_ledger(mid, prices, cost)
        assert np.abs(led_mid.position[:, -1]).max() < 1e-12
        np.testing.assert_allclose(led_mid.liq[:, -1], (led_a.liq[:, -1] + led_b.liq[:, -1]) / 2.0, rtol=1e-12)


class TestShadowValue:
    def test_zero_position_shadow_equals_cash(self):
        g = TimeGrid(1.0, 5)
        noise = gaussian_panel(g, 20, 1, seed=1)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        value, terminal = shadow_value(Strategy.zero(g, 20), prices, prices * 0.95, CostSpec(0.1, 3.0))
        np.testing.assert_array_equal(value, 3.0)
        np.testing.assert_array_equal(terminal, 3.0)

    def test_flat_terminal_shadow_equals_liq(self):
        g = TimeGrid(1.0, 6)
        noise = gaussian_panel(g, 30, 1, seed=8)
        prices = simulate(BlackScholes(0.1, 0.2), noise)
        rng = np.random.default_rng(5)
        strat = random_strategy(g, 30, rng, flatten=True)
        cost = CostSpec(0.05, 6.0)
        value, terminal = shadow_value(strat, prices, prices * 0.97, cost)
        np.testing.assert_array_equal(value[:, -1], run_ledger(strat, prices, cost).liq[:, -1])
        np.testing.assert_array_equal(terminal, value[:, -1])

    def test_band_shadow_dominates_liq_everywhere(self):
        g = TimeGrid(1.0, 10)
        noise = gaussian_panel(g, 50, 1, seed=6)
        prices = simulate(BlackScholes(0.05, 0.25), noise)
        rng = np.random.default_rng(17)
        lam = 0.1
        for _ in range(10):
            strat = random_strategy(g, 50, rng, flatten=True)
            cost = CostSpec(lam, 8.0)
            value, _ = shadow_value(strat, prices, 0.95 * prices, cost)
            assert np.all(run_ledger(strat, prices, cost).liq <= value)

    def test_matches_the_recorded_ledger_bitwise(self):
        g = TimeGrid(1.0, 12)
        noise = gaussian_panel(g, 40, 1, seed=9)
        prices = simulate(BlackScholes(0.08, 0.3), noise)
        rng = np.random.default_rng(23)
        cost = CostSpec(0.07, 2.5)
        strat = random_strategy(g, 40, rng, flatten=False)
        sp = prices * rng.uniform(1.0 - cost.lam, 1.0, size=prices.shape)
        value, terminal = shadow_value(strat, prices, sp, cost)
        led = run_ledger(strat, prices, cost)
        assert value.tobytes() == (led.cash + led.position * sp).tobytes()
        assert terminal.tobytes() == led.liq[:, -1].tobytes()
        assert not value.flags.writeable and not terminal.flags.writeable

    def test_mismatched_shapes_raise(self):
        g = TimeGrid(1.0, 4)
        strat = Strategy.zero(g, 3)
        prices = np.ones((3, 5))
        cost = CostSpec(0.1, 1.0)
        with pytest.raises(ConfigError, match=r"must have shape \(3, 5\), got \(3, 5\) and \(3, 4\)"):
            shadow_value(strat, prices, np.ones((3, 4)), cost)
        with pytest.raises(ConfigError, match=r"must have shape \(3, 5\), got \(2, 3, 5\) and \(3, 5\)"):
            shadow_value(strat, np.ones((2, 3, 5)), prices, cost)

    def test_a_shadow_outside_the_band_is_not_checked(self):
        # above the ask on some entries, a short position marked there can
        # fall below liq; the in-band entries still dominate
        g = TimeGrid(1.0, 8)
        noise = gaussian_panel(g, 60, 1, seed=4)
        prices = simulate(BlackScholes(0.05, 0.3), noise)
        rng = np.random.default_rng(31)
        cost = CostSpec(0.1, 5.0)
        outside = rng.random(prices.shape) < 0.3
        sp = np.where(outside, 1.05 * prices, 0.95 * prices)
        for _ in range(10):
            strat = random_strategy(g, 60, rng, flatten=True)
            value, _ = shadow_value(strat, prices, sp, cost)
            liq = run_ledger(strat, prices, cost).liq
            assert np.all(liq[~outside] <= value[~outside])

    def test_a_violation_inside_the_band_raises(self, monkeypatch):
        # a liquidation value above the shadow value inside the band cannot
        # come from settle; a broken walk must not pass unnoticed
        g = TimeGrid(1.0, 3)
        prices = np.ones((2, 4))
        strat = random_strategy(g, 2, np.random.default_rng(1))

        def inflated(d_up, d_dn, position, prices, cost):
            for cash, liq in settle(d_up, d_dn, position, prices, cost):
                yield cash, liq + 1.0

        monkeypatch.setattr(accounting, "settle", inflated)
        with pytest.raises(ContractViolation):
            shadow_value(strat, prices, prices, CostSpec(0.1, 1.0))


class TestAdmissibility:
    def test_zero_strategy_admissible_for_positive_capital(self):
        g = TimeGrid(1.0, 4)
        prices = np.ones((3, 5))
        led = run_ledger(Strategy.zero(g, 3), prices, CostSpec(0.2, 1.0))
        assert check_admissible_rplus(led).admissible

    def test_overleveraged_block_is_flagged_with_coordinates(self):
        # x=1, H0=10 on S=1, lambda=0.5: cash_0 = -9 and liq_0 = -9 + 10*0.5 = -4
        prices = np.ones((2, 3))
        d_up = np.zeros((2, 3))
        d_up[:, 0] = 10.0
        d_dn = np.zeros((2, 3))
        d_dn[:, -1] = 10.0
        strat = Strategy(d_up, d_dn)
        led = run_ledger(strat, prices, CostSpec(0.5, 1.0))
        rep = check_admissible_rplus(led)
        assert not rep.admissible
        assert rep.first_violation == (0, 0)

    def test_only_the_model_whose_price_falls_reports_the_violation(self):
        # two models on one strategy: only the second model's price drop at
        # t_1 on path 1 takes the liquidation value of H0 = 2 below zero
        prices = np.array([np.ones((2, 3)), [[1.0, 1.0, 1.0], [1.0, 0.4, 1.0]]])
        d_up = np.zeros((2, 3))
        d_up[:, 0] = 2.0
        d_dn = np.zeros((2, 3))
        d_dn[:, -1] = 2.0
        strat = Strategy(d_up, d_dn)
        rep = check_admissible_rplus(run_ledger(strat, prices[1], CostSpec(0.5, 1.5)))
        assert not rep.admissible
        assert rep.reason == "liquidation value went negative"
        assert rep.first_violation == (1, 1)
        assert check_admissible_rplus(run_ledger(strat, prices[0], CostSpec(0.5, 1.5))).admissible

    def test_open_terminal_position_is_flagged(self):
        prices = np.full((1, 3), 2.0)
        strat = Strategy(np.array([[0.25, 0.0, 0.0]]), np.zeros((1, 3)))
        led = run_ledger(strat, prices, CostSpec(0.01, 10.0))
        rep = check_admissible_rplus(led)
        assert not rep.admissible
        assert rep.reason == "terminal position not flattened"
