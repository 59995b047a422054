"""End-to-end acceptance battery.

One test per shipped guarantee, each asserted at its stated tolerance and
wall-clock budget.  Run with `pytest -v` to get one pass/fail line per
criterion; each test also prints a PASS line with the measured figures.
"""

import json
import math
import time

import numpy as np

from frictionopt import (
    ArctanDrift,
    BlackScholes,
    CostSpec,
    MonotonePath,
    OptimizerSettings,
    PolicyCodec,
    RationalEnumeration,
    RobustProblem,
    Strategy,
    ThetaGrid,
    TimeGrid,
    brute_force,
    conjugate,
    constant_cps,
    cps_certificate,
    default_price_systems,
    delta2_ratio,
    duality_report,
    exp_utility,
    gaussian_panel,
    girsanov_cps,
    komlos_average,
    lattice_panel,
    log_utility,
    luxemburg_norm,
    orlicz_conjugate,
    polarity_gap,
    rho,
    run_ledger,
    shadow_value,
    simulate,
    solve,
    supermartingale_check,
    verify_band,
    young_pair,
)
from frictionopt.cli import main as cli_main


def random_flat_strategy(grid, paths, rng, nonneg_h0=False):
    d_up = np.zeros((paths, grid.steps + 1))
    d_dn = np.zeros((paths, grid.steps + 1))
    d_up[:, 1:-1] = rng.exponential(0.2, size=(paths, grid.steps - 1))
    d_dn[:, 1:-1] = rng.exponential(0.2, size=(paths, grid.steps - 1))
    h0 = float(rng.normal(0.0, 1.0))
    if nonneg_h0:
        h0 = abs(h0)
    d_up[:, 0], d_dn[:, 0] = max(h0, 0.0), max(-h0, 0.0)
    pos = 0.0
    for i in range(grid.steps):
        pos = (pos + d_up[:, i]) - d_dn[:, i]
    d_dn[:, -1] = np.maximum(pos, 0.0)
    d_up[:, -1] = np.maximum(-pos, 0.0)
    return Strategy(d_up, d_dn)


def test_criterion_01_arctan_cps_thresholds():
    started = time.perf_counter()
    grid = TimeGrid(1.0, 50)
    noise = gaussian_panel(grid, 1000, 1, seed=7)
    prices = simulate(ArctanDrift(), noise)

    lam_high = 2.0 / 3.0
    ps = constant_cps(noise, 0.75)
    band = verify_band(prices, ps, lam_high)
    assert band.holds
    assert band.delta >= 0.0
    # the same inequality checked entrywise with zero tolerance
    assert np.all(0.75 - (1.0 - lam_high) * prices >= 0.0)
    assert np.all(prices - 0.75 >= 0.0)

    lam_low = 0.42
    cert = cps_certificate(ArctanDrift(), lam_low)
    assert cert is not None
    assert not cert.exists
    assert cert.test_value == (1.0 - lam_low) * 7.0 / 4.0
    assert cert.test_value > 1.0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (band delta {band.delta:.3e}, certificate {cert.test_value:.6f} > 1, {elapsed:.2f} s)")


def test_criterion_02_conjugate_young_closed_forms():
    started = time.perf_counter()
    ys = [0.25, 0.5, 1.0, 2.0, 4.0]
    u_log = log_utility()
    for y in ys:
        assert abs(conjugate(u_log, y) - (-math.log(y) - 1.0)) < 1e-8
    u_exp = exp_utility(1.0)
    for y in ys:
        assert abs(conjugate(u_exp, y) - (1.0 - y + y * math.log(y))) < 1e-8

    pair = young_pair(u_exp)
    assert abs(pair.beta - 1.0) < 1e-6
    xs = np.asarray([0.0, 0.5, 1.0, 2.0, 5.0])
    np.testing.assert_array_equal(pair.phi_star(xs), np.expm1(xs))

    grid20 = np.linspace(0.1, 5.0, 20)
    back = np.asarray([orlicz_conjugate(pair.phi_star, float(y)) for y in grid20])
    assert np.max(np.abs(back - pair.phi(grid20))) < 1e-7

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2: PASS (beta err {abs(pair.beta - 1.0):.2e}, biconjugation err {np.max(np.abs(back - pair.phi(grid20))):.2e}, {elapsed:.2f} s)")


def test_criterion_03_luxemburg_norm_analytic():
    started = time.perf_counter()
    pair = young_pair(exp_utility(1.0))
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        got = luxemburg_norm(np.full(64, c), pair.phi_star)
        worst = max(worst, abs(got - c / math.log(2.0)))
        assert abs(got - c / math.log(2.0)) < 1e-9
    rng = np.random.default_rng(3)
    x = rng.exponential(1.0, size=200)
    base = luxemburg_norm(x, pair.phi_star)
    for c in (0.5, 1.0, 2.0):
        assert abs(luxemburg_norm(c * x, pair.phi_star) - c * base) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 3: PASS (worst closed-form err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_04_delta2_ratio():
    started = time.perf_counter()
    pair = young_pair(exp_utility(1.0))
    rep = delta2_ratio(pair.phi)
    assert rep.grid_max == 1e6
    assert rep.finite
    assert 1.9 <= rep.ratio_estimate <= 2.2
    rep_star = delta2_ratio(pair.phi_star)
    assert not rep_star.finite
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 4: PASS (ratio {rep.ratio_estimate:.4f} in [1.9, 2.2], complementary flagged, {elapsed:.2f} s)")


def test_criterion_05_accounting_identities():
    started = time.perf_counter()
    grid = TimeGrid(1.0, 20)
    noise = gaussian_panel(grid, 1000, 1, seed=3)
    prices = simulate(BlackScholes(0.05, 0.3), noise)
    lam, x0 = 0.1, 5.0
    cost = CostSpec(lam, x0)
    rng = np.random.default_rng(12)
    shadows = (prices, 0.95 * prices, (1.0 - lam) * prices)
    for _ in range(100):
        strat = random_flat_strategy(grid, 1000, rng)
        led = run_ledger(strat, prices, cost)
        rhs = -(prices * strat.d_up).sum(axis=1) + ((1 - lam) * prices * strat.d_dn).sum(axis=1)
        np.testing.assert_allclose(led.cash[:, -1] - x0, rhs, rtol=1e-12, atol=1e-12)
        for sp in shadows:
            value, terminal = shadow_value(strat, prices, sp, cost)
            assert np.all(led.liq <= value)
            np.testing.assert_array_equal(terminal, led.liq[:, -1])

    # terminal-value linearity with the position closed: exact on a dyadic
    # fixture where every product and sum is a representable float
    dy_prices = np.array([[1.0, 1.25, 0.75, 1.5], [1.0, 0.5, 1.75, 2.0]])
    a_up = np.array([[0.5, 0.25, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
    b_up = np.array([[0.25, 0.75, 0.5, 0.0], [0.25, 0.0, 0.25, 0.0]])

    def flat(d_up):
        d_dn = np.zeros_like(d_up)
        d_dn[:, 3] = d_up[:, 0] + d_up[:, 1] + d_up[:, 2]
        return d_dn

    dy_cost = CostSpec(0.5, 4.0)
    a = Strategy(a_up, flat(a_up))
    b = Strategy(b_up, flat(b_up))
    mid_up = (a_up + b_up) / 2.0
    mid = Strategy(mid_up, flat(mid_up))
    la, lb, lm = (run_ledger(s, dy_prices, dy_cost) for s in (a, b, mid))
    assert np.all(lm.position[:, -1] == 0.0)
    np.testing.assert_array_equal(lm.liq[:, -1], (la.liq[:, -1] + lb.liq[:, -1]) / 2.0)

    # and to 1e-12 relative on the simulated panel
    sa = random_flat_strategy(grid, 1000, rng, nonneg_h0=True)
    sb = random_flat_strategy(grid, 1000, rng, nonneg_h0=True)
    sm = Strategy((sa.d_up + sb.d_up) / 2.0, (sa.d_dn + sb.d_dn) / 2.0)
    la, lb, lm = (run_ledger(s, prices, cost) for s in (sa, sb, sm))
    np.testing.assert_allclose(lm.liq[:, -1], (la.liq[:, -1] + lb.liq[:, -1]) / 2.0, rtol=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 5: PASS (100 strategies conserved, 3 shadows dominated, linearity exact, {elapsed:.2f} s)")


def _oracle_problem(mus):
    grid = TimeGrid(1.0, 2)
    noise = lattice_panel(grid, 1)
    thetas = ThetaGrid(tuple(BlackScholes(m, 0.2) for m in mus))
    return RobustProblem(
        CostSpec(0.01, 1.0), thetas, log_utility(), noise, policy_class="lattice-policy"
    )


def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()
    h0_grid = np.arange(0.0, 3.0001, 0.05)
    node_grid = np.arange(0.0, 0.30001, 0.05)
    settings = OptimizerSettings(iters=300, step0=1.0)
    gaps = []
    for mus in ((0.1,), (0.1, 0.05)):
        problem = _oracle_problem(mus)
        oracle = brute_force(problem, h0_grid, node_grid)
        rep = solve(problem, settings)
        diff = abs(rep.best_value - oracle.value)
        assert diff <= oracle.neighbor_gap, (mus, diff, oracle.neighbor_gap)
        gaps.append((diff, oracle.neighbor_gap))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "criterion 6: PASS (singleton diff {:.1e} <= gap {:.1e}; pair diff {:.1e} <= gap {:.1e}, {:.1f} s)".format(
            gaps[0][0], gaps[0][1], gaps[1][0], gaps[1][1], elapsed
        )
    )


def test_criterion_07_supermartingale_and_polarity():
    started = time.perf_counter()
    # lattice fixtures: exact checks for every registered price system
    for mus in ((0.1,), (0.1, 0.05)):
        grid = TimeGrid(1.0, 3)
        noise = lattice_panel(grid, 1)
        problem = RobustProblem(
            CostSpec(0.01, 1.0),
            ThetaGrid(tuple(BlackScholes(m, 0.2) for m in mus)),
            log_utility(),
            noise,
            policy_class="lattice-policy",
        )
        rep = solve(problem, OptimizerSettings(iters=120, step0=0.5))
        for k, ps in default_price_systems(problem):
            value, terminal = shadow_value(rep.strategy, problem.prices[k], ps.shadow, problem.cost)
            np.testing.assert_array_equal(terminal, run_ledger(rep.strategy, problem.prices[k], problem.cost).liq[:, -1])
            sm = supermartingale_check(value, ps)
            assert sm.mode == "lattice"
            assert sm.passed, (mus, k, sm.max_drift)
            for y in (0.5, 1.0, 2.0):
                pg = polarity_gap(terminal, ps, problem.cost.x0, y)
                assert pg.lhs <= pg.bound + 1e-10, (mus, k, y, pg.lhs - pg.bound)

    # Monte Carlo mode: re-issue a solved deterministic schedule on a large
    # Gaussian panel and check the same statements within three standard errors
    grid = TimeGrid(1.0, 5)
    lat = lattice_panel(grid, 1)
    model = BlackScholes(0.1, 0.2)
    det = RobustProblem(CostSpec(0.01, 1.0), ThetaGrid((model,)), log_utility(), lat)
    rep = solve(det, OptimizerSettings(iters=120, step0=0.5))
    mc_noise = gaussian_panel(grid, 100000, 1, seed=17)
    mc = RobustProblem(CostSpec(0.01, 1.0), ThetaGrid((model,)), log_utility(), mc_noise)
    strat = PolicyCodec(mc).decode(rep.best_params)
    ps = girsanov_cps(model, mc.prices[0], mc_noise)
    value, terminal = shadow_value(strat, mc.prices[0], ps.shadow, mc.cost)
    sm = supermartingale_check(value, ps)
    assert sm.mode == "mc"
    assert sm.passed, sm.max_z
    pg = polarity_gap(terminal, ps, mc.cost.x0, 1.0)
    assert pg.satisfied, (pg.lhs, pg.bound, pg.se)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 7: PASS (lattice exact, mc max_z {sm.max_z:.2f} <= 3, {elapsed:.1f} s)")


def test_criterion_08_duality_bound_and_inada():
    started = time.perf_counter()
    fixtures = []
    grid3 = TimeGrid(1.0, 3)
    fixtures.append(
        (
            "lattice-log",
            RobustProblem(
                CostSpec(0.02, 3.0),
                ThetaGrid((BlackScholes(0.1, 0.2),)),
                log_utility(),
                lattice_panel(grid3, 1),
                policy_class="lattice-policy",
            ),
            OptimizerSettings(iters=80, step0=0.5),
        )
    )
    grid5 = TimeGrid(1.0, 5)
    fixtures.append(
        (
            "mc-log",
            RobustProblem(
                CostSpec(0.02, 3.0),
                ThetaGrid((BlackScholes(0.1, 0.2), BlackScholes(0.05, 0.2))),
                log_utility(),
                gaussian_panel(grid5, 1500, 1, seed=21),
            ),
            OptimizerSettings(iters=60, step0=0.5),
        )
    )
    fixtures.append(
        (
            "lattice-exp",
            RobustProblem(
                CostSpec(0.02, 0.5),
                ThetaGrid((BlackScholes(0.1, 0.2),)),
                exp_utility(1.0),
                lattice_panel(grid3, 1),
            ),
            OptimizerSettings(iters=80, step0=0.5),
        )
    )

    for name, problem, settings in fixtures:
        rep = solve(problem, settings)
        dual = duality_report(problem, rep, default_price_systems(problem))
        assert all(r.ok for r in dual.rows), name
        assert all(r.polarity.satisfied for r in dual.rows), name
        assert all(r.supermartingale.passed for r in dual.rows), name
        ratios = [r.ratio for r in dual.inada]
        assert all(ratios[i + 1] <= ratios[i] + 1e-9 for i in range(len(ratios) - 1)), (name, ratios)
        assert dual.all_ok, name

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 8: PASS (3 fixtures bounded at each system's best level, ratios nonincreasing, {elapsed:.1f} s)")


def test_criterion_09_robust_monotonicity_worst_theta():
    started = time.perf_counter()
    settings = OptimizerSettings(iters=150, step0=0.5)
    values = []
    for mus in ((0.1,), (0.1, 0.0), (0.1, 0.0, -0.1)):
        values.append(solve(_oracle_problem(mus), settings).best_value)
    assert values[1] <= values[0] + 1e-6
    assert values[2] <= values[1] + 1e-6

    grid = TimeGrid(1.0, 10)
    noise = gaussian_panel(grid, 500, 1, seed=3)
    problem = RobustProblem(
        CostSpec(0.01, 1.0),
        ThetaGrid((BlackScholes(-0.1, 0.2), BlackScholes(0.1, 0.2))),
        log_utility(),
        noise,
        long_only=True,
    )
    rep = solve(problem, OptimizerSettings(iters=80, step0=0.25))
    worst = [row[2] for row in rep.history]
    assert all(k == 0 for k in worst[1:]), worst

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "criterion 9: PASS (values {:.6f} >= {:.6f} >= {:.6f}; low-drift model active on all {} iterations, {:.1f} s)".format(
            values[0], values[1], values[2], len(worst) - 1, elapsed
        )
    )


def test_criterion_10_averaging_and_rho_suite():
    started = time.perf_counter()
    grid = TimeGrid(1.0, 4)
    enum = RationalEnumeration(1.0, 12)
    f = MonotonePath(grid, np.asarray([0.0, 0.25, 0.5, 0.0, 0.25]))
    g = MonotonePath(grid, np.asarray([0.0, 0.5, 0.0, 0.25, 0.5]))
    h = MonotonePath(grid, np.asarray([0.0, 0.0, 0.75, 0.25, 0.0]))
    assert rho(f, f, enum).value == 0.0
    assert rho(f, g, enum).value == rho(g, f, enum).value
    assert rho(f, g, enum).value > 0.0
    assert rho(f, h, enum).value <= rho(f, g, enum).value + rho(g, h, enum).value

    base = np.asarray([0.0, 0.5, 0.25, 0.0, 0.75])
    const = komlos_average([MonotonePath(grid, base)] * 6)
    np.testing.assert_array_equal(const.candidate.jumps, base)

    a = np.asarray([0.0, 0.5, 0.0, 0.25, 0.5])
    b = np.asarray([0.0, 0.0, 0.5, 0.25, 0.0])
    alt = komlos_average([MonotonePath(grid, a if i % 2 == 0 else b) for i in range(8)])
    np.testing.assert_array_equal(alt.candidate.jumps, (a + b) / 2.0)

    rng = np.random.default_rng(0)
    g10 = TimeGrid(1.0, 10)
    enum40 = RationalEnumeration(1.0, 40)
    seq = []
    for _ in range(1000):
        jumps = np.zeros(11)
        jumps[1:] = rng.exponential(0.1, size=10)
        seq.append(MonotonePath(g10, jumps))
    c10 = komlos_average(seq[:10]).candidate
    c100 = komlos_average(seq[:100]).candidate
    c1000 = komlos_average(seq).candidate
    d1 = rho(c10, c100, enum40).value
    d2 = rho(c100, c1000, enum40).value
    assert 2.0 * d2 <= d1, (d1, d2)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 10: PASS (axioms exact, fixtures exact, distances {d1:.4f} -> {d2:.4f}, {elapsed:.1f} s)")


def test_criterion_11_reproducibility(tmp_path):
    started = time.perf_counter()
    doc = {
        "seed": 5,
        "grid": {"horizon": 1.0, "steps": 10},
        "noise": {"kind": "mc", "paths": 300},
        "cost": {"lambda": 0.01, "x0": 1.0},
        "thetas": [
            {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
            {"type": "black_scholes", "mu": -0.1, "sigma": 0.2},
        ],
        "utility": {"name": "log"},
        "optimizer": {"iters": 40},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    outs = {}
    for name, threads in (("a1", "1"), ("a2", "1"), ("b8", "8")):
        out = tmp_path / name
        code = cli_main(["solve", "--config", str(cfg), "--threads", threads, "--out", str(out)])
        assert code == 0
        outs[name] = out
    names = ["report.json", "history.csv", "strategy.csv", "ledger_worst.csv"]
    for fname in names:
        ref = (outs["a1"] / fname).read_bytes()
        assert (outs["a2"] / fname).read_bytes() == ref, fname
        assert (outs["b8"] / fname).read_bytes() == ref, fname
    # the manifests agree on every content digest (wall time may differ)
    digests = [
        json.loads((outs[k] / "manifest.json").read_text())["outputs"] for k in ("a1", "a2", "b8")
    ]
    assert digests[0] == digests[1] == digests[2]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 11: PASS (5 outputs byte-identical across reruns and threads 1 vs 8, {elapsed:.1f} s)")
