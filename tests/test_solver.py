import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from frictionopt import (
    BlackScholes,
    CostSpec,
    NoisePanel,
    OptimizerSettings,
    PolicyCodec,
    RobustProblem,
    Strategy,
    ThetaGrid,
    TimeGrid,
    brute_force,
    check_admissible_rplus,
    default_price_systems,
    duality_report,
    exp_utility,
    gaussian_panel,
    girsanov_cps,
    lattice_panel,
    log_utility,
    objective,
    power_utility,
    run_ledger,
    solve,
    table_utility,
)
from frictionopt import solver as solver_module
from frictionopt.accounting import shadow_value
from frictionopt.cps import polarity_gap, supermartingale_check
from frictionopt.errors import ConfigError, NoFeasiblePointError, OracleTooLargeError
from frictionopt.solver import _supergradient
from frictionopt.utility import scaled_value, vector_conjugate
from test_accounting import sequential_ledger


def lattice_problem(steps=2, lam=0.01, x0=1.0, mus=(0.1,), sigma=0.2, **kw):
    g = TimeGrid(1.0, steps)
    noise = lattice_panel(g, 1)
    thetas = ThetaGrid(tuple(BlackScholes(m, sigma) for m in mus))
    kw.setdefault("policy_class", "lattice-policy")
    return RobustProblem(CostSpec(lam, x0), thetas, log_utility(), noise, **kw)


def gaussian_problem(steps=4, paths=200, lam=0.01, x0=1.0, mus=(0.1,), sigma=0.2, seed=0, **kw):
    g = TimeGrid(1.0, steps)
    noise = gaussian_panel(g, paths, 1, seed=seed)
    thetas = ThetaGrid(tuple(BlackScholes(m, sigma) for m in mus))
    return RobustProblem(CostSpec(lam, x0), thetas, log_utility(), noise, **kw)


class TestRobustProblemValidation:
    def test_domain_admissibility_pairing(self):
        g = TimeGrid(1.0, 2)
        noise = gaussian_panel(g, 8, 1, seed=0)
        thetas = ThetaGrid((BlackScholes(0.1, 0.2),))
        assert RobustProblem(CostSpec(0.01, 1.0), thetas, log_utility(), noise).admissibility == "rplus"
        # a whole-line utility needs no positive capital
        whole_line = RobustProblem(CostSpec(0.01, -1.0), thetas, exp_utility(), noise)
        assert whole_line.admissibility == "supermartingale"
        with pytest.raises(ConfigError):
            RobustProblem(CostSpec(0.01, 0.0), thetas, log_utility(), noise)

    def test_rplus_needs_positive_capital(self):
        g = TimeGrid(1.0, 2)
        noise = gaussian_panel(g, 8, 1, seed=0)
        thetas = ThetaGrid((BlackScholes(0.1, 0.2),))
        with pytest.raises(ConfigError):
            RobustProblem(CostSpec(0.01, -1.0), thetas, log_utility(), noise)

    def test_lattice_policy_needs_lattice_noise(self):
        with pytest.raises(ConfigError):
            gaussian_problem(policy_class="lattice-policy")


def repeat_decode(codec, vecs):
    """The signed time-zero parameter as a buy or a sell in column 0, a
    per-step np.repeat of each node's increment over its block of paths,
    then the closing trade by the sequential position recursion."""
    vecs = np.atleast_2d(vecs)
    n1 = codec.steps + 1
    d_up = np.zeros((len(vecs), codec.paths, n1))
    d_dn = np.zeros((len(vecs), codec.paths, n1))
    d_up[:, :, 0] = np.maximum(vecs[:, :1], 0.0)
    d_dn[:, :, 0] = np.maximum(-vecs[:, :1], 0.0)
    ofs = 1
    for j, nodes in enumerate(codec.nodes_per_step):
        block = codec.paths // nodes
        d_up[:, :, j + 1] = np.repeat(vecs[:, ofs : ofs + nodes], block, axis=1)
        if not codec.long_only:
            dn = ofs + codec.n_side
            d_dn[:, :, j + 1] = np.repeat(vecs[:, dn : dn + nodes], block, axis=1)
        ofs += nodes
    d_up, d_dn = d_up.reshape(-1, n1), d_dn.reshape(-1, n1)
    pos = np.zeros(len(d_up))
    for i in range(codec.steps):
        pos = (pos + d_up[:, i]) - d_dn[:, i]
    d_dn[:, -1] = np.maximum(pos, 0.0)
    d_up[:, -1] = np.maximum(-pos, 0.0)
    return d_up, d_dn


def broadcast_rows(codec, rows):
    """(batch, rows, steps + 1) schedule rows as (batch * paths, steps + 1)
    per-path arrays, vector-major."""
    return np.broadcast_to(rows, (len(rows), codec.paths, codec.steps + 1)).reshape(-1, codec.steps + 1)


class TestPolicyCodec:
    @pytest.mark.parametrize(
        "prob",
        [
            gaussian_problem(steps=6, paths=7),
            gaussian_problem(steps=4, paths=5, long_only=True),
            lattice_problem(steps=2),
            lattice_problem(steps=3),
            lattice_problem(steps=3, long_only=True),
        ],
        ids=["deterministic", "deterministic-long-only", "lattice-2", "lattice-3", "lattice-3-long-only"],
    )
    @pytest.mark.parametrize("batch", [None, 3])
    def test_gather_decode_matches_repeat_reference(self, prob, batch):
        codec = PolicyCodec(prob)
        rng = np.random.default_rng(4)
        size = codec.n_params if batch is None else (batch, codec.n_params)
        vecs = rng.choice([0.0, 0.1, 0.7, 1e16], size=size)
        if batch is None:
            strat = codec.decode(vecs)
            got = [broadcast_rows(codec, a[None]) for a in (strat.d_up, strat.d_dn)]
        else:
            vecs[:, 0] = vecs[0, 0]
            got = [broadcast_rows(codec, a) for a in codec.decode_rows(vecs)[:2]]
        d_up, d_dn = repeat_decode(codec, vecs)
        assert got[0].tobytes() == d_up.tobytes()
        assert got[1].tobytes() == d_dn.tobytes()

    @pytest.mark.parametrize("prob", [lattice_problem(steps=3), gaussian_problem(steps=4, paths=5)],
                             ids=["lattice-3", "deterministic"])
    def test_batch_with_different_h0_stacks_the_single_decodes(self, prob):
        codec = PolicyCodec(prob)
        rng = np.random.default_rng(8)
        vecs = np.stack([codec.project(v) for v in rng.choice([0.0, 0.1, 0.7, 1e16], size=(4, codec.n_params))])
        vecs[:, 0] = [2.5, -6.25, 0.0, 1e16]
        d_up, d_dn, pos = (broadcast_rows(codec, a) for a in codec.decode_rows(vecs))
        singles = [codec.decode(v) for v in vecs]
        assert d_up.tobytes() == broadcast_rows(codec, np.stack([s.d_up for s in singles])).tobytes()
        assert d_dn.tobytes() == broadcast_rows(codec, np.stack([s.d_dn for s in singles])).tobytes()
        # the batch's positions are the recursion over each decoded strategy
        assert pos.tobytes() == broadcast_rows(codec, np.stack([s.position() for s in singles])).tobytes()
        # the time-zero trade is a buy or a sell in column 0, and every
        # position closes exactly
        np.testing.assert_array_equal(pos[:: codec.paths, 0], vecs[:, 0])
        np.testing.assert_array_equal(pos[:, -1], 0.0)

    def test_deterministic_layout(self):
        codec = PolicyCodec(gaussian_problem(steps=4))
        assert codec.nodes_per_step == [1, 1, 1]
        assert codec.n_params == 1 + 3 + 3

    def test_long_only_drops_sell_block(self):
        codec = PolicyCodec(gaussian_problem(steps=4, long_only=True))
        assert codec.n_params == 1 + 3
        assert codec.dn_index is None
        strat = codec.decode(np.asarray([0.5, 0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(strat.d_dn[:, :-1], 0.0)

    def test_lattice_layout_counts_tree_nodes(self):
        codec = PolicyCodec(lattice_problem(steps=3))
        assert codec.nodes_per_step == [2, 4]
        assert codec.n_params == 1 + 6 + 6

    def test_zero_decodes_to_flat_strategy(self):
        codec = PolicyCodec(lattice_problem(steps=3))
        strat = codec.decode(codec.zero())
        np.testing.assert_array_equal(strat.position(), 0.0)

    def test_decode_closes_the_position_bitwise(self):
        prob = lattice_problem(steps=3)
        codec = PolicyCodec(prob)
        rng = np.random.default_rng(0)
        vec = codec.project(rng.normal(0.3, 0.5, size=codec.n_params))
        strat = codec.decode(vec)
        ledger = run_ledger(strat, prob.prices[0], prob.cost)
        np.testing.assert_array_equal(ledger.position[:, -1], 0.0)

    def test_lattice_expansion_maps_nodes_to_path_blocks(self):
        prob = lattice_problem(steps=3)
        codec = PolicyCodec(prob)
        vec = codec.zero()
        np.testing.assert_array_equal(codec.up_index[:, 0], [1, 1, 1, 1, 2, 2, 2, 2])
        vec[1:3] = [0.25, 0.75]  # two nodes after the first move
        strat = codec.decode(vec)
        np.testing.assert_array_equal(strat.d_up[:4, 1], 0.25)
        np.testing.assert_array_equal(strat.d_up[4:, 1], 0.75)

    def test_projection(self):
        codec = PolicyCodec(gaussian_problem(steps=3))
        vec = np.asarray([-1.0, -0.5, 0.5, -0.2, 0.3])
        out = codec.project(vec)
        np.testing.assert_array_equal(out, [-1.0, 0.0, 0.5, 0.0, 0.3])
        codec_lo = PolicyCodec(gaussian_problem(steps=3, long_only=True))
        assert codec_lo.project(np.asarray([-1.0, 0.1, 0.2]))[0] == 0.0

    def test_decode_validates_shape(self):
        codec = PolicyCodec(lattice_problem(steps=2))
        with pytest.raises(ConfigError):
            codec.decode(np.zeros(codec.n_params + 1))


class TestObjective:
    def test_zero_strategy_scores_utility_of_capital(self):
        prob = gaussian_problem(x0=2.0, mus=(0.1, -0.1))
        res = objective(prob, PolicyCodec(prob).zero())
        assert res.feasible
        np.testing.assert_allclose(res.per_theta, math.log(2.0), rtol=1e-14)
        assert res.robust_value == pytest.approx(math.log(2.0), rel=1e-14)
        assert res.argmin_theta == 0  # tie resolves to the lowest index

    def test_overleveraged_vector_reported_infeasible(self):
        prob = gaussian_problem(lam=0.5, x0=1.0)
        codec = PolicyCodec(prob)
        vec = codec.zero()
        vec[0] = 10.0
        res = objective(prob, vec)
        assert not res.feasible
        assert res.robust_value == -math.inf
        assert "theta" in res.reason

    def test_zero_terminal_wealth_is_feasible_by_every_verdict(self):
        # buying 2 at 1 and selling at the bid 0.5 ends with wealth exactly 0:
        # admissible, with log utility -inf
        g = TimeGrid(1.0, 1)
        thetas = ThetaGrid((BlackScholes(0.0, 0.0),))
        prob = RobustProblem(CostSpec(0.5, 1.0), thetas, log_utility(), lattice_panel(g, 1), "lattice-policy")
        vec = np.array([2.0])
        res = objective(prob, vec)
        assert res.feasible and res.reason == "ok"
        assert res.robust_value == -math.inf
        assert check_admissible_rplus(run_ledger(prob.codec.decode(vec), prob.prices[0], prob.cost)).admissible
        assert brute_force(prob, [2.0], [0.0]).n_feasible == 1

    def test_batched_models_match_per_model_ledgers(self):
        prob = gaussian_problem(mus=(0.1, 0.0, -0.1))
        codec = PolicyCodec(prob)
        vec = codec.project(np.linspace(0.1, 0.4, codec.n_params))
        res = objective(prob, vec)
        strat = codec.decode(vec)
        ledgers = [run_ledger(strat, prob.prices[k], prob.cost) for k in range(prob.n_thetas)]
        per = [np.dot(prob.noise.probs, prob.utility(led.terminal_liq())) for led in ledgers]
        np.testing.assert_allclose(res.per_theta, per, rtol=1e-14, atol=0.0)
        assert res.argmin_theta == int(np.argmin(per))
        np.testing.assert_array_equal(res.terminal_wealth, ledgers[res.argmin_theta].terminal_liq())
        np.testing.assert_array_equal(res.pre_liq_position, ledgers[0].position[:, -2])

    @pytest.mark.parametrize("leg, value", [(0, math.nan), (1, math.nan), (1, -0.5), (-1, -0.5), (-1, math.inf)])
    def test_negative_or_nan_leg_raises(self, leg, value):
        prob = gaussian_problem(steps=3, paths=8)
        vec = prob.codec.zero()
        vec[leg] = value
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            objective(prob, vec)

    def test_peak_memory_is_a_fraction_of_the_price_stack(self):
        # the settle walk holds a few (models, paths) arrays per grid time,
        # never a per-path copy of the schedule or a recorded ledger
        prob = gaussian_problem(steps=50, paths=20_000, mus=(0.1, -0.05))
        vec = prob.codec.project(np.full(prob.codec.n_params, 0.01))
        objective(prob, vec)
        tracemalloc.start()
        try:
            objective(prob, vec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * prob.prices.nbytes


def referee_settle(problem, vecs):
    """Terminal liquidation values (K, batch, paths), positions (batch, paths,
    steps + 1) and liq < 0 flags (K, batch) of parameter vectors, from
    per-path strategies (repeat_decode) settled one step at a time by
    test_accounting.sequential_ledger."""
    terminal, positions, negative = [], [], []
    for vec in vecs:
        strat = Strategy(*repeat_decode(problem.codec, vec))
        _, pos, liq = sequential_ledger(strat, problem.prices, problem.cost)
        terminal.append(liq[..., -1])
        positions.append(pos)
        negative.append((liq < 0.0).any(axis=(1, 2)))
    return np.stack(terminal, axis=1), np.stack(positions), np.stack(negative, axis=1)


def referee_expectations(problem, terminal, negative):
    """(K, batch) E[U] as the solver forms it, one (K * batch, paths) @ probs
    product, and -inf where the nonnegative-wealth rule applies and fails."""
    k, batch, paths = terminal.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        per = (problem.utility(terminal.reshape(-1, paths)) @ problem.noise.probs).reshape(k, batch)
    if problem.admissibility == "rplus":
        per[negative] = -math.inf
    return per


REFEREE_PROBLEMS = {
    "deterministic-mc": gaussian_problem(steps=5, paths=64, lam=0.02, x0=3.0, mus=(0.1, -0.05)),
    "deterministic-lattice": lattice_problem(
        steps=3, lam=0.02, x0=3.0, mus=(0.1, -0.05), policy_class="deterministic-schedule"
    ),
    "lattice-policy": lattice_problem(steps=3, lam=0.02, x0=3.0, mus=(0.1, -0.05)),
}


def referee_problem(name, utility):
    prob = REFEREE_PROBLEMS[name]
    return prob if utility == "log" else replace(prob, utility=exp_utility(1.0))


@pytest.mark.parametrize("utility", ["log", "exp"])
@pytest.mark.parametrize("name", sorted(REFEREE_PROBLEMS))
class TestSettleWalkAgainstSequentialLedger:
    """objective and brute_force settle through the walk in accounting.settle;
    the referee settles materialized per-path strategies step by step, so the
    two share no settlement code."""

    def vectors(self, prob):
        rng = np.random.default_rng(21)
        vecs = np.stack([prob.codec.project(v) for v in rng.uniform(-1.0, 0.8, size=(6, prob.codec.n_params))])
        vecs[-1, 0] = 40.0  # liquidation value goes negative on a down move
        return vecs

    def test_objective_matches_bitwise(self, name, utility):
        prob = referee_problem(name, utility)
        for vec in self.vectors(prob):
            terminal, pos, negative = referee_settle(prob, vec[None])
            per = referee_expectations(prob, terminal, negative)[:, 0]
            res = objective(prob, vec)
            assert res.per_theta.tobytes() == per.tobytes()
            assert res.terminal_wealth.tobytes() == terminal[res.argmin_theta, 0].tobytes()
            assert res.pre_liq_position.tobytes() == pos[0, :, -2].tobytes()
            assert res.feasible == (not negative.any() or prob.admissibility != "rplus")

    def test_brute_force_chunk_matches_bitwise(self, name, utility):
        prob = referee_problem(name, utility)
        vecs = self.vectors(prob)
        terminal, _, negative = referee_settle(prob, vecs)
        # the call brute_force makes for each chunk of combinations (the
        # oracle itself refuses Monte Carlo panels; the chunk does not care)
        got_terminal, per, ok = solver_module._settle(
            prob, *prob.codec.decode_rows(vecs), prob.prices[:, None]
        )
        assert got_terminal.tobytes() == terminal.tobytes()
        assert per.tobytes() == referee_expectations(prob, terminal, negative).tobytes()
        want_ok = ~negative if prob.admissibility == "rplus" else np.ones_like(negative)
        np.testing.assert_array_equal(ok, want_ok)
        if utility == "log":
            assert not ok.all()  # the fixture exercises the nonnegative-wealth rule


def fd_supergradient(problem, vec, k, h=1e-6):
    """Central finite difference of model k's expected utility, the reference
    for the exact supergradient.  Where the projection clamps a leg at zero the
    stencil shrinks to the one-sided quotient into the feasible side."""
    codec = PolicyCodec(problem)
    g = np.empty(codec.n_params)
    for j in range(codec.n_params):
        vp, vm = vec.copy(), vec.copy()
        vp[j] += h
        vm[j] -= h
        vp, vm = codec.project(vp), codec.project(vm)
        g[j] = (objective(problem, vp).per_theta[k] - objective(problem, vm).per_theta[k]) / (vp[j] - vm[j])
    return g


UTILITIES = {
    # name: (utility, x0); the table's knots avoid x0, so the zero
    # strategy's wealth sits on a linear piece
    "log": (log_utility(), 1.0),
    "power": (power_utility(0.5), 1.0),
    "exp": (exp_utility(1.5), 0.5),
    "custom-table": (table_utility([0.3, 0.7, 0.95, 1.25, 2.0, 4.0], [-1.5, -0.4, 0.0, 0.3, 0.7, 1.2]), 1.1),
}


def adjoint_problem(utility_name, policy):
    utility, x0 = UTILITIES[utility_name]
    thetas = ThetaGrid((BlackScholes(0.1, 0.2), BlackScholes(-0.05, 0.25)))
    kw = {"long_only": policy == "long-only"}
    if policy == "lattice":
        grid = TimeGrid(1.0, 2)
        return RobustProblem(CostSpec(0.02, x0), thetas, utility, lattice_panel(grid, 1),
                             policy_class="lattice-policy", **kw)
    grid = TimeGrid(1.0, 5)
    return RobustProblem(CostSpec(0.02, x0), thetas, utility, gaussian_panel(grid, 300, 1, seed=4), **kw)


@pytest.mark.parametrize("policy", ["deterministic", "long-only", "lattice"])
@pytest.mark.parametrize("utility_name", sorted(UTILITIES))
class TestSupergradient:
    def check(self, prob, vec, rtol):
        res = objective(prob, vec)
        assert res.feasible
        exact = _supergradient(prob, vec, res)
        ref = fd_supergradient(prob, vec, res.argmin_theta)
        assert np.linalg.norm(exact - ref) <= rtol * np.linalg.norm(ref), (exact, ref)

    def test_matches_finite_differences_at_an_interior_point(self, utility_name, policy):
        prob = adjoint_problem(utility_name, policy)
        codec = PolicyCodec(prob)
        vec = np.random.default_rng(7).uniform(0.02, 0.12, size=codec.n_params)
        vec[0] = 0.3 if policy == "long-only" else -0.2
        self.check(prob, vec, 1e-8)

    def test_zero_strategy_takes_the_finite_difference_kink_convention(self, utility_name, policy):
        # every leg sits at its bound and every pre-liquidation position is 0
        prob = adjoint_problem(utility_name, policy)
        self.check(prob, PolicyCodec(prob).zero(), 1e-5)


def test_supergradient_overflow_takes_the_finite_guard():
    # U'(X) = a e^{-a X} overflows at a = 1e6 and X = -7e-4, so the weighted
    # sums meet inf - inf; the guard maps every slope to a finite one, and
    # no floating-point warning escapes (the suite turns warnings into errors)
    g = TimeGrid(1.0, 3)
    thetas = ThetaGrid((BlackScholes(0.1, 0.2),))
    prob = RobustProblem(CostSpec(0.01, -7e-4), thetas, exp_utility(1e6), gaussian_panel(g, 16, 1, seed=0))
    zero = prob.codec.zero()
    res = objective(prob, zero)
    assert res.feasible and res.robust_value < -1e300
    grad = _supergradient(prob, zero, res)
    assert np.isfinite(grad).all()
    rep = solve(prob, OptimizerSettings(iters=3))
    assert rep.best_value == res.robust_value
    np.testing.assert_array_equal(rep.best_params, zero)


class TestSolve:
    def test_deterministic_replay(self):
        prob = lattice_problem(steps=2)
        settings = OptimizerSettings(iters=25)
        a = solve(prob, settings)
        b = solve(prob, settings)
        np.testing.assert_array_equal(a.best_params, b.best_params)
        assert a.history == b.history
        assert a.best_value == b.best_value

    def test_prohibitive_cost_keeps_the_zero_strategy(self):
        # a 50 percent spread swamps the drift, so not trading is optimal
        prob = lattice_problem(steps=1, lam=0.5)
        rep = solve(prob, OptimizerSettings(iters=30))
        assert rep.best_value == 0.0
        np.testing.assert_array_equal(rep.best_params, 0.0)

    def test_trading_beats_idle_when_costs_are_small(self):
        prob = lattice_problem(steps=2, lam=0.01)
        rep = solve(prob, OptimizerSettings(iters=60, step0=1.0))
        assert rep.best_value > math.log(1.0) + 0.05

    def test_worst_model_drives_a_long_only_book(self):
        prob = gaussian_problem(steps=3, paths=100, mus=(-0.1, 0.1), long_only=True)
        rep = solve(prob, OptimizerSettings(iters=20))
        assert all(row[2] == 0 for row in rep.history)
        assert rep.best_value == pytest.approx(0.0, abs=1e-12)

    def test_enlarging_the_family_cannot_raise_the_value(self):
        single = solve(lattice_problem(steps=2, mus=(0.1,)), OptimizerSettings(iters=40))
        pair = solve(lattice_problem(steps=2, mus=(0.1, -0.1)), OptimizerSettings(iters=40))
        assert pair.best_value <= single.best_value + 1e-6

    def test_report_shape(self):
        prob = lattice_problem(steps=2)
        rep = solve(prob, OptimizerSettings(iters=15))
        assert len(rep.history) == 16
        assert rep.best_params.size == PolicyCodec(prob).n_params
        assert rep.strategy.d_up.shape == rep.strategy.d_dn.shape == (prob.codec.rows, prob.noise.grid.steps + 1)

    def test_memory_does_not_grow_with_iterations(self):
        # a 10-step lattice policy has 2045 parameters, so one vector held
        # per iteration would show in the peak
        prob = lattice_problem(steps=10, lam=0.02, x0=3.0, mus=(0.1, 0.05))
        peaks = []
        for iters in (100, 400):
            tracemalloc.start()
            try:
                solve(prob, OptimizerSettings(iters=iters, step0=1.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestUnchangedIterateReuse:
    """On criterion 6's two-model lattice fixture the ascent often projects
    back onto its current iterate; solve then reuses that evaluation."""

    SETTINGS = OptimizerSettings(iters=300, step0=1.0)

    def spy(self, monkeypatch):
        """Record projections and objective calls, in order."""
        events = []
        real_objective, real_project = solver_module.objective, PolicyCodec.project

        def objective_spy(problem, vec):
            res = real_objective(problem, vec)
            events.append(("objective", vec.tobytes(), res))
            return res

        def project_spy(codec, vec):
            out = real_project(codec, vec)
            events.append(("project", out.tobytes(), out))
            return out

        monkeypatch.setattr(solver_module, "objective", objective_spy)
        monkeypatch.setattr(PolicyCodec, "project", project_spy)
        return events

    def test_fewer_evaluations_than_iterations(self, monkeypatch):
        events = self.spy(monkeypatch)
        solve(lattice_problem(steps=2, mus=(0.1, 0.05)), self.SETTINGS)
        calls = sum(kind == "objective" for kind, _, _ in events)
        assert calls < self.SETTINGS.iters + 1

    def test_reused_points_reevaluate_bitwise(self, monkeypatch):
        prob = lattice_problem(steps=2, mus=(0.1, 0.05))
        events = self.spy(monkeypatch)
        report = solve(prob, self.SETTINGS)
        monkeypatch.undo()
        evaluated = {key: res for kind, key, res in events if kind == "objective"}
        projections = [(i, key, out) for i, (kind, key, out) in enumerate(events) if kind == "project"]
        # no step halvings on this fixture: one projection per iteration
        assert len(projections) == self.SETTINGS.iters
        reused = 0
        for k, (i, key, vec) in enumerate(projections, start=1):
            if i + 1 < len(events) and events[i + 1][:2] == ("objective", key):
                continue
            # the candidate projected back onto the current iterate, whose
            # evaluation solve kept
            reused += 1
            fresh = objective(prob, vec)
            assert fresh.per_theta.tobytes() == evaluated[key].per_theta.tobytes()
            assert (fresh.robust_value, fresh.argmin_theta) == report.history[k][1:3]
        assert reused > 100


class TestBruteForce:
    def test_one_step_growth_optimum_matches_closed_form(self):
        # with a vanishing spread the one-step optimum is the growth portfolio
        # h* = -(a + b) / (2 a b) for up and down returns a and b
        prob = lattice_problem(steps=1, lam=1e-9)
        prices = prob.prices[0]
        a = prices[0, 1] / prices[0, 0] - 1.0
        b = prices[1, 1] / prices[1, 0] - 1.0
        h_star = -(a + b) / (2.0 * a * b)
        grid = np.arange(0.0, 4.0001, 0.02)
        rep = brute_force(prob, grid, [0.0])
        assert abs(rep.best_params[0] - h_star) <= 0.011
        assert rep.n_combos == grid.size

    def test_vectorized_recursion_agrees_with_the_ledger(self):
        prob = lattice_problem(steps=2, lam=0.03)
        rep = brute_force(prob, np.arange(-1.0, 1.01, 0.25), np.arange(0.0, 0.51, 0.25))
        codec = PolicyCodec(prob)
        check = objective(prob, codec.project(rep.best_params))
        assert check.feasible
        assert check.robust_value == pytest.approx(rep.value, abs=1e-12)
        np.testing.assert_allclose(check.per_theta, rep.per_theta, atol=1e-12)

    def test_neighbor_gap_is_a_resolution_certificate(self):
        prob = lattice_problem(steps=1, lam=1e-9)
        rep = brute_force(prob, np.arange(0.0, 4.0001, 0.05), [0.0])
        assert rep.neighbor_gap > 0.0

    def test_guards(self):
        with pytest.raises(ConfigError):
            brute_force(gaussian_problem(steps=2), [0.0, 1.0], [0.0])
        with pytest.raises(OracleTooLargeError):
            brute_force(lattice_problem(steps=4 - 1 + 1), [0.0], [0.0])
        with pytest.raises(OracleTooLargeError):
            brute_force(lattice_problem(steps=2), np.linspace(0, 1, 17), np.linspace(0, 1, 17))
        with pytest.raises(ConfigError):
            brute_force(lattice_problem(steps=1), [1.0, 0.0], [0.0])
        with pytest.raises(ConfigError):
            brute_force(lattice_problem(steps=2), [0.0, 1.0], [-0.5, 0.0])

    def test_no_feasible_grid_point(self):
        prob = lattice_problem(steps=1, lam=0.5)
        with pytest.raises(NoFeasiblePointError):
            brute_force(prob, [10.0, 12.0], [0.0])


class TestLongOnlyRefusesShortSales:
    """A 2-step long-only lattice policy on a falling market, where a short
    sale at time zero would pay: every decode refuses a negative h0, so no
    evaluation prices a short sale, and the oracle agrees with solve that
    not trading is best."""

    @staticmethod
    def problem():
        return lattice_problem(steps=2, lam=0.02, x0=3.0, mus=(-0.3,), long_only=True)

    @staticmethod
    def short_sale(prob):
        vec = prob.codec.zero()
        vec[0] = -1.0
        return vec

    def test_objective_refuses_a_short_sale(self):
        prob = self.problem()
        with pytest.raises(ConfigError, match="h0 must be nonnegative"):
            objective(prob, self.short_sale(prob))
        assert objective(prob, prob.codec.zero()).robust_value == math.log(3.0)

    def test_decode_refuses_a_short_sale(self):
        prob = self.problem()
        codec = prob.codec
        with pytest.raises(ConfigError, match="h0 must be nonnegative"):
            codec.decode(self.short_sale(prob))
        # one short sale in a batch refuses the whole batch
        with pytest.raises(ConfigError, match="h0 must be nonnegative"):
            codec.decode_rows(np.stack([codec.zero(), self.short_sale(prob)]))
        # the projection clamps h0 to zero, which decodes to no trade
        strat = codec.decode(codec.project(self.short_sale(prob)))
        np.testing.assert_array_equal(strat.d_dn, 0.0)
        np.testing.assert_array_equal(strat.d_up, 0.0)

    def test_brute_force_refuses_a_negative_h0_grid(self):
        prob = self.problem()
        with pytest.raises(ConfigError, match="h0 must be nonnegative"):
            brute_force(prob, np.arange(-2.0, 2.01, 0.5), [0.0, 0.5])
        rep = brute_force(prob, np.arange(0.0, 2.01, 0.5), [0.0, 0.5])
        np.testing.assert_array_equal(rep.best_params, 0.0)
        assert rep.value == solve(prob).best_value == math.log(3.0)


class TestDefaultPriceSystems:
    def test_lattice_construction_per_model(self):
        prob = lattice_problem(steps=2, mus=(0.1, -0.1))
        systems = default_price_systems(prob)
        assert [k for k, _ in systems] == [0, 1]
        assert all("lattice" in ps.label for _, ps in systems)

    def test_gaussian_uses_drift_removal(self):
        prob = gaussian_problem(steps=2, paths=16)
        systems = default_price_systems(prob)
        assert len(systems) == 1
        assert systems[0][1].mu_level == 0.0
        assert "girsanov" in systems[0][1].label


class TestDualityReport:
    def test_lattice_bounds_hold_exactly(self):
        prob = lattice_problem(steps=2, x0=3.0)
        rep = solve(prob, OptimizerSettings(iters=40))
        dual = duality_report(prob, rep, default_price_systems(prob))
        assert dual.all_ok
        assert len(dual.rows) == 1
        for row in dual.rows:
            assert row.supermartingale.passed and row.supermartingale.mode == "lattice"
            assert row.se == row.polarity.se == 0.0
            assert row.u_hat <= row.bound + 1e-10
        ratios = [r.ratio for r in dual.inada]
        assert ratios == sorted(ratios, reverse=True)

    def test_row_counts_scale_with_systems(self):
        prob = lattice_problem(steps=2, x0=3.0, mus=(0.1, -0.1))
        rep = solve(prob, OptimizerSettings(iters=10))
        dual = duality_report(prob, rep, default_price_systems(prob))
        assert [r.theta_index for r in dual.rows] == [0, 1]
        assert len(dual.inada) == 3

    def test_each_row_carries_its_own_models_checks(self):
        prob = lattice_problem(steps=2, x0=3.0, mus=(0.1, -0.1))
        rep = solve(prob, OptimizerSettings(iters=10))
        systems = default_price_systems(prob)
        dual = duality_report(prob, rep, systems)
        for row, (k, ps) in zip(dual.rows, systems):
            value, terminal = shadow_value(rep.strategy, prob.prices[k], ps.shadow, prob.cost)
            assert row.theta_index == k
            assert row.supermartingale == supermartingale_check(value, ps)
            assert row.polarity == polarity_gap(terminal, ps, prob.cost.x0, row.y)

    def test_scaled_rows_come_from_the_identities(self):
        prob = lattice_problem(steps=2, x0=3.0)
        rep = solve(prob, OptimizerSettings(iters=40))
        dual = duality_report(prob, rep, default_price_systems(prob))
        v = rep.best_value
        assert [r.value for r in dual.inada] == [v, v + math.log(4.0), v + math.log(16.0)]
        assert [r.ratio for r in dual.inada] == [v / 3.0, (v + math.log(4.0)) / 12.0, (v + math.log(16.0)) / 48.0]
        assert dual.growth_ok

    def test_peak_memory_holds_one_models_shadow_walk_at_a_time(self):
        # each model is valued in one walk over its own prices, building no
        # ledger, and released before the next model's walk; recording a
        # ledger per model peaks above 3x the stack, and positions built on
        # per-path copies of the schedule rows near 1.9x
        prob = gaussian_problem(steps=10, paths=2000, mus=(0.1, -0.05))
        rep = solve(prob, OptimizerSettings(iters=3))
        systems = default_price_systems(prob)
        assert [k for k, _ in systems] == [0, 1]
        duality_report(prob, rep, systems)
        tracemalloc.start()
        try:
            duality_report(prob, rep, systems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * prob.prices.nbytes


def lattice_duality_family(utility):
    """The lattice-duality benchmark's 2-step lattice-policy family."""
    g = TimeGrid(1.0, 2)
    thetas = ThetaGrid((BlackScholes(0.10, 0.2), BlackScholes(0.05, 0.2)))
    return RobustProblem(CostSpec(0.02, 3.0), thetas, utility, lattice_panel(g, 1), policy_class="lattice-policy")


def mc_trade_family(utility):
    """The README grid and panel, with two positive drifts, so the optimum
    trades."""
    g = TimeGrid(1.0, 50)
    thetas = ThetaGrid((BlackScholes(0.10, 0.2), BlackScholes(0.06, 0.25)))
    return RobustProblem(CostSpec(0.01, 1.0), thetas, utility, gaussian_panel(g, 1000, 1, seed=7))


def closed_form_bound(name, param, x0, w, probs):
    """min over y > 0 of E[V(y w)] + x0 y for log, power with exponent param
    and exp with rate param, exact for any mean m of the weights."""
    def mean(v):
        return float(np.dot(probs, v))

    if name == "log":
        return math.log(x0) - mean(np.log(w))
    if name == "power":
        q = param / (param - 1.0)
        return x0**param / param * mean(w**q) ** (1.0 - param)
    m = mean(w)
    return 1.0 - m * math.exp(-(param * x0 + mean(w * np.log(w))) / m)


def sweep_bound(u, x0, w, probs):
    """The best of the five fixed levels the dual sweep used to check."""
    return min(float(np.dot(probs, vector_conjugate(u, y * w))) + x0 * y for y in (0.25, 0.5, 1.0, 2.0, 4.0))


def lattice_weight_ratios():
    """w_max / w_min of each price system of the lattice-duality family."""
    systems = default_price_systems(lattice_duality_family(log_utility()))
    return [ps.weights.max() / ps.weights.min() for _, ps in systems]


def slope_table(ratio):
    """A whole-line table with end slopes 10 ratio and 10: its conjugate is
    finite on [10, 10 ratio], so a system's bound is finite only on the
    levels [10 / w_min, 10 ratio / w_max], above e."""
    return table_utility([-1.0, 0.0, 1.0], [-10.0 * ratio, 0.0, 10.0])


SWEEP_FIXTURES = {
    "lattice-log": lambda: lattice_duality_family(log_utility()),
    "lattice-power": lambda: lattice_duality_family(power_utility(0.5)),
    "lattice-exp": lambda: lattice_duality_family(exp_utility(1.0)),
    "lattice-table": lambda: lattice_duality_family(table_utility([0.5, 1.0, 2.0, 4.0], [-1.0, 0.0, 0.5, 0.6])),
    "mc-trade-log": lambda: mc_trade_family(log_utility()),
    "narrow-window-table": lambda: lattice_duality_family(slope_table(1.01 * max(lattice_weight_ratios()))),
    "empty-window-table": lambda: lattice_duality_family(slope_table(0.99 * min(lattice_weight_ratios()))),
}


class TestBestDualLevel:
    @pytest.mark.parametrize("family", [lattice_duality_family, mc_trade_family], ids=["lattice", "mc"])
    @pytest.mark.parametrize("name, param", [("log", None), ("power", 0.5), ("exp", 1.0)], ids=["log", "power", "exp"])
    def test_bound_is_the_closed_form_minimum(self, family, name, param):
        utility = log_utility() if name == "log" else {"power": power_utility, "exp": exp_utility}[name](param)
        prob = family(utility)
        systems = default_price_systems(prob)
        dual = duality_report(prob, solve(prob, OptimizerSettings(iters=2)), systems)
        assert [r.theta_index for r in dual.rows] == [k for k, _ in systems] == [0, 1]
        for row, (_, ps) in zip(dual.rows, systems):
            assert abs(row.bound - closed_form_bound(name, param, prob.cost.x0, ps.weights, prob.noise.probs)) <= 1e-12
            # f is flat to rounding within about sqrt(eps) of its minimizer
            if name == "log":
                assert abs(row.y * prob.cost.x0 - 1.0) <= 1e-6

    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    def test_bound_is_at_most_the_five_level_sweep(self, name):
        prob = SWEEP_FIXTURES[name]()
        systems = default_price_systems(prob)
        dual = duality_report(prob, solve(prob, OptimizerSettings(iters=2)), systems)
        assert len(dual.rows) == len(systems) == 2
        for row, (_, ps) in zip(dual.rows, systems):
            assert row.bound <= sweep_bound(prob.utility, prob.cost.x0, ps.weights, prob.noise.probs) + 1e-12
            assert row.ok and row.polarity.satisfied and row.polarity.bound == prob.cost.x0 * row.y
            # every fixed level misses a table's window, and the bound is
            # finite exactly where the window is not empty
            if name.endswith("window-table"):
                assert math.isinf(sweep_bound(prob.utility, prob.cost.x0, ps.weights, prob.noise.probs))
                assert math.isfinite(row.bound) == (name == "narrow-window-table")


def nested_panel(fine, steps):
    """The steps-step panel whose every increment is the sum of the fine
    panel's increments inside that coarse step."""
    paths, fine_steps, drivers = fine.increments.shape
    inc = fine.increments.reshape(paths, steps, fine_steps // steps, drivers).sum(axis=2)
    return NoisePanel("mc", TimeGrid(fine.grid.horizon, steps), inc)


def embed_schedule(params, steps, shift=0):
    """An N-step schedule [h0, up_1..up_{N-1}, dn_1..dn_{N-1}] as a 2N-step
    one: coarse step i trades at fine step 2i - shift, no trades between."""
    fine = np.zeros(1 + 2 * (2 * steps - 1))
    fine[0] = params[0]
    at = 2 * np.arange(1, steps) - shift
    fine[at] = params[1:steps]
    fine[2 * steps - 1 + at] = params[steps:]
    return fine


def test_a_schedule_keeps_its_value_on_the_refined_grid():
    """N-step panels nested in one 80-step panel: an N-step schedule, moved
    to the even steps of the 2N-step grid, settles on the same prices, so
    V*_N <= V*_2N; moved one fine step early, it does not."""
    fine = gaussian_panel(TimeGrid(1.0, 80), 1000, 1, seed=7)
    thetas = ThetaGrid((BlackScholes(0.10, 0.2), BlackScholes(0.06, 0.25)))

    def family(steps):
        return RobustProblem(CostSpec(0.01, 1.0), thetas, log_utility(), nested_panel(fine, steps))

    for steps in (5, 10, 20, 40):
        coarse, refined = family(steps), family(2 * steps)
        params = solve(coarse, OptimizerSettings(iters=50)).best_params
        value = objective(coarse, params).robust_value
        assert abs(objective(refined, embed_schedule(params, steps)).robust_value - value) <= 1e-12
        assert abs(objective(refined, embed_schedule(params, steps, shift=1)).robust_value - value) > 1e-9


SCALING = {
    # name: (utility, x0, whether the policy scales with x0)
    "log": (log_utility(), 1.0, True),
    "power": (power_utility(0.4), 1.0, True),
    "exp": (exp_utility(1.5), 0.5, False),
}


@pytest.mark.parametrize("policy", ["deterministic", "long-only", "lattice"])
@pytest.mark.parametrize("utility_name", sorted(SCALING))
def test_objective_obeys_the_scaling_identity(utility_name, policy):
    """The premise of utility.scaled_value: gains are positively homogeneous
    in the policy, so on random feasible policies the objective at
    (k x0, k theta) is the identity applied to the objective at (x0, theta);
    exp translates instead, so it keeps theta."""
    utility, x0, scales = SCALING[utility_name]
    thetas = ThetaGrid((BlackScholes(0.1, 0.2), BlackScholes(-0.05, 0.25)))
    kw = {"long_only": policy == "long-only"}
    if policy == "lattice":
        grid = TimeGrid(1.0, 2)
        noise = lattice_panel(grid, 1)
        kw["policy_class"] = "lattice-policy"
    else:
        grid = TimeGrid(1.0, 5)
        noise = gaussian_panel(grid, 300, 1, seed=4)
    base = RobustProblem(CostSpec(0.02, x0), thetas, utility, noise, **kw)
    codec = PolicyCodec(base)
    rng = np.random.default_rng(5)
    for _ in range(4):
        vec = codec.project(rng.uniform(0.0, 0.1, codec.n_params))
        vec[0] = rng.uniform(0.0 if policy == "long-only" else -0.3, 0.3)
        res = objective(base, vec)
        assert res.feasible
        for k in (0.25, 4.0, 16.0):
            scaled = objective(replace(base, cost=CostSpec(0.02, k * x0)), k * vec if scales else vec)
            assert scaled.feasible
            want = [scaled_value(utility, float(v), x0, k) for v in res.per_theta]
            np.testing.assert_allclose(scaled.per_theta, want, rtol=1e-12, atol=0.0)
            assert scaled.robust_value == pytest.approx(scaled_value(utility, res.robust_value, x0, k), rel=1e-12)


def concavity_problem(policy):
    """BS(0.10, 0.2) and BS(0.06, 0.25), both drifts positive so that trading
    pays: a 200-path, 10-step Monte Carlo schedule, or a 4-step lattice."""
    thetas = ThetaGrid((BlackScholes(0.10, 0.2), BlackScholes(0.06, 0.25)))
    if policy == "mc":
        g = TimeGrid(1.0, 10)
        return RobustProblem(CostSpec(0.01, 1.0), thetas, log_utility(), gaussian_panel(g, 200, 1, seed=7))
    g = TimeGrid(1.0, 4)
    return RobustProblem(CostSpec(0.01, 1.0), thetas, log_utility(), lattice_panel(g, 1), policy_class=policy)


@pytest.mark.parametrize("policy", ["mc", "deterministic-schedule", "lattice-policy"])
def test_robust_objective_is_concave(policy):
    """Terminal wealth is concave in the policy (the time-zero trade and the
    closing mark are each the minimum of two linear pieces, and every other
    leg enters linearly), U is concave and increasing, and a minimum over
    models keeps concavity; so between feasible points the objective never
    falls below its chord, and a stationary point is a global optimum."""
    problem = concavity_problem(policy)
    codec = problem.codec
    rng = np.random.default_rng(12)
    points = []
    while len(points) < 120:
        vec = codec.project(rng.normal(0.0, 0.5, codec.n_params) * (rng.random(codec.n_params) < 0.7))
        res = objective(problem, vec)
        if res.feasible:
            points.append((vec, res.robust_value))
    for (a, fa), (b, fb) in zip(points[::2], points[1::2]):
        for t in (0.25, 0.5, 0.75):
            mid = objective(problem, t * a + (1.0 - t) * b)
            assert mid.feasible
            assert mid.robust_value >= t * fa + (1.0 - t) * fb - 1e-12


class TestScaledSolvesAgree:
    """Where the solver converges, solving again at k x0 lands on the
    identity; duality_report relies on that instead of solving again."""

    def test_criterion_8_exp_fixture(self):
        grid = TimeGrid(1.0, 3)
        base = RobustProblem(
            CostSpec(0.02, 0.5), ThetaGrid((BlackScholes(0.1, 0.2),)), exp_utility(1.0), 
            lattice_panel(grid, 1),
        )
        settings = OptimizerSettings(iters=80, step0=0.5)
        v = solve(base, settings).best_value
        for k in (4.0, 16.0):
            solved = solve(replace(base, cost=CostSpec(0.02, 0.5 * k)), settings).best_value
            assert abs(solved - scaled_value(base.utility, v, 0.5, k)) <= 1e-9, k

    def test_lattice_duality_config_at_four_x0(self):
        prob = lattice_problem(steps=2, lam=0.02, x0=3.0, mus=(0.1, 0.05))
        settings = OptimizerSettings(iters=300, step0=1.0)
        v = solve(prob, settings).best_value
        solved = solve(replace(prob, cost=CostSpec(0.02, 12.0)), settings).best_value
        assert abs(solved - (v + math.log(4.0))) <= 1e-9
