"""Robust expected-utility maximization over a finite model family.

The decision variable is a trading policy (time-zero block plus nonnegative
buy/sell increments, with the final step reserved for forced liquidation, so
terminal positions are flat by construction).  The objective is the worst
expected utility of terminal liquidation wealth across the family, evaluated
on common noise; it is maximized by projected supergradient ascent along the
exact gradient of the active (worst) model's objective.

Every evaluation settles the policy's schedule rows once against every
model in one settle walk (accounting.settle), without building a ledger.
Terminal liquidation wealth is piecewise linear in the policy, so that
gradient comes in closed form from the walk that evaluates the iterate
(see _supergradient).  Where the one-sided slopes differ it takes their mean,
except at a leg's lower bound 0, where it takes the slope into the feasible
side.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Optional, Sequence

import numpy as np

from .accounting import CostSpec, Strategy, check_jumps, position_recursion, settle, shadow_value
from .config import OptimizerSettings, check_capital, check_policy_class
from .cps import (
    DriftReport,
    PolarityReport,
    PriceSystem,
    polarity_gap,
    registered_cps,
    standard_error,
    supermartingale_check,
    within,
)
from .errors import ConfigError, NoFeasiblePointError, OracleTooLargeError
from .records import record
from .scenario import NoisePanel, ThetaGrid, lattice_block, simulate_panel
from .utility import UtilitySpec, best_dual_level, growth_ok, scaled_value, vector_conjugate

ARGMIN_TIE_TOL = 1e-12
# halvings of a rejected step (robust value -inf) before the iterate stays put
MAX_HALVINGS = 40


@record
class RobustProblem:
    """A robust utility maximization instance on a shared noise panel.

    policy_class is "deterministic-schedule" (one increment schedule applied
    on every path) or "lattice-policy" (increments may depend on the tree
    node, lattice panels only).  The price stack (simulate_panel) and the
    policy codec are built once, from the other fields.
    """

    cost: CostSpec
    thetas: ThetaGrid
    utility: UtilitySpec
    noise: NoisePanel
    policy_class: str = "deterministic-schedule"
    long_only: bool = False
    prices: np.ndarray = field(init=False, repr=False, compare=False)
    codec: PolicyCodec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_policy_class(self.policy_class, self.noise.kind)
        check_capital(self.utility, self.cost.x0)
        object.__setattr__(self, "prices", simulate_panel(self.thetas, self.noise))
        object.__setattr__(self, "codec", PolicyCodec(self))

    @property
    def admissibility(self) -> str:
        """The utility's domain decides the rule: "rplus" (liquidation value
        nonnegative throughout) for positive-axis utilities, "supermartingale"
        for whole-line ones (positions are flattened structurally and shadow
        values are monitored against registered price systems)."""
        return "rplus" if self.utility.domain == "positive" else "supermartingale"

    @property
    def n_thetas(self) -> int:
        return len(self.thetas)


class PolicyCodec:
    """Bijection between flat parameter vectors and admissible-by-shape strategies.

    Layout: [h0, buy increments, sell increments].  h0 is the signed trade at
    time zero, written as a buy (h0 > 0) or a sell (h0 < 0) into column 0.
    Deterministic schedules carry one scalar per trading step 1..N-1; lattice
    policies carry one scalar per tree node at each of those steps.  Step N is
    not parametrized: the codec always appends the forced liquidation trade
    that closes the position, using the same floating-point recursion the
    ledger applies, so terminal positions are exactly zero.  long_only
    problems drop the sell block and refuse a negative h0 (project clamps it
    to zero).

    A vector decodes to schedule rows that broadcast over the paths: one row
    for a deterministic schedule, one per path for a lattice policy.  The
    layout is compiled once: up_index (and dn_index, None when long-only)
    holds the parameter column that drives each row's increment at each
    trading step, shape (rows, N-1), so decoding is one gather per side; runs
    lists (nodes, first step, end step) for each run of consecutive trading
    steps that share a node count.
    """

    def __init__(self, problem: RobustProblem):
        noise = problem.noise
        self.paths = noise.paths
        self.steps = noise.grid.steps
        if problem.policy_class == "deterministic-schedule":
            blocks = [self.paths] * max(self.steps - 1, 0)
            self.rows = 1
        else:
            blocks = [lattice_block(noise, i) for i in range(1, self.steps)]
            self.rows = self.paths
        self.nodes_per_step = [self.paths // b for b in blocks]
        self.n_side = int(sum(self.nodes_per_step))
        self.long_only = problem.long_only
        self.n_params = 1 + self.n_side + (0 if self.long_only else self.n_side)
        nodes = np.asarray(self.nodes_per_step, dtype=np.intp)
        first_column = 1 + np.cumsum(nodes) - nodes
        self.up_index = first_column + np.arange(self.rows)[:, None] // np.asarray(blocks, dtype=np.intp)
        self.dn_index = None if self.long_only else self.up_index + self.n_side
        self.runs: list[tuple[int, int, int]] = []
        for i, n in enumerate(self.nodes_per_step, start=1):
            if self.runs and self.runs[-1][0] == n:
                self.runs[-1] = (n, self.runs[-1][1], i + 1)
            else:
                self.runs.append((n, i, i + 1))

    def zero(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def project(self, vec: np.ndarray) -> np.ndarray:
        out = np.array(vec, float)
        np.maximum(out[1:], 0.0, out=out[1:])
        if self.long_only:
            out[0] = max(out[0], 0.0)
        return out

    def decode_rows(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d_up, d_dn, position) of a (batch, n_params) stack of vectors, each
        of shape (batch, rows, steps + 1), closing trade included.  Raises
        ConfigError when a jump is negative or not finite, or when h0 is
        negative on a long-only problem."""
        vecs = np.asarray(vecs, float)
        if vecs.ndim != 2 or vecs.shape[1] != self.n_params:
            raise ConfigError(f"parameter vector must have shape ({self.n_params},)")
        if self.long_only and (vecs[:, 0] < 0.0).any():
            raise ConfigError("h0 must be nonnegative on a long-only problem")
        shape = (vecs.shape[0], self.rows, self.steps + 1)
        d_up, d_dn = np.zeros(shape), np.zeros(shape)
        np.maximum(vecs[:, :1], 0.0, out=d_up[:, :, 0])
        np.maximum(-vecs[:, :1], 0.0, out=d_dn[:, :, 0])
        d_up[:, :, 1:-1] = vecs[:, self.up_index]
        if self.dn_index is not None:
            d_dn[:, :, 1:-1] = vecs[:, self.dn_index]
        pos = position_recursion(d_up, d_dn)
        last = pos[..., -2]
        np.maximum(last, 0.0, out=d_dn[..., -1])
        np.maximum(-last, 0.0, out=d_up[..., -1])
        check_jumps("d_up", d_up)
        check_jumps("d_dn", d_dn)
        # the recursion's own step with the closing trade: exactly zero
        pos[..., -1] = (last + d_up[..., -1]) - d_dn[..., -1]
        return d_up, d_dn, pos

    def decode(self, vec: np.ndarray) -> Strategy:
        """Strategy of one parameter vector: its schedule rows."""
        # drop the position's flows before Strategy copies the rows, so a
        # decode peaks at the four row arrays the work budget counts
        d_up, d_dn = self.decode_rows(np.asarray(vec, float)[None])[:2]
        return Strategy(d_up[0], d_dn[0])


@record
class ObjectiveResult:
    """Worst-case expected utility of a parameter vector; infeasible vectors
    are reported as such rather than mapped to a low value.  terminal_wealth
    (the argmin model's, per path) and pre_liq_position (the holdings before
    the forced liquidation) are what the supergradient needs."""

    feasible: bool
    per_theta: np.ndarray
    robust_value: float
    argmin_theta: int
    terminal_wealth: np.ndarray
    pre_liq_position: np.ndarray
    reason: str = "ok"


def _settle(problem: RobustProblem, d_up: np.ndarray, d_dn: np.ndarray, pos: np.ndarray, prices: np.ndarray):
    """Settle schedule rows (PolicyCodec.decode_rows) against a price stack of
    shape (K, [1,] paths, steps + 1) in one settle walk.  Returns the terminal
    liquidation values, the (K, batch) expected terminal utilities and the
    (K, batch) admissibility mask: under rplus a settlement fails, and its
    expected utility reads -inf, when its liquidation value goes negative;
    the codec closes every position exactly, so the flat-terminal half of
    the rule holds by construction."""
    low = math.inf  # the lowest liquidation value; fmin passes over nan
    for _, liq in settle(d_up, d_dn, pos, prices, problem.cost):
        low = np.fmin(low, liq)
    k, paths = prices.shape[0], problem.noise.paths
    with np.errstate(divide="ignore", invalid="ignore"):
        per = (problem.utility(liq.reshape(-1, paths)) @ problem.noise.probs).reshape(k, -1)
    ok = ~(low < 0.0).reshape(per.shape + (paths,)).any(axis=2) | (problem.admissibility != "rplus")
    per[~ok] = -math.inf
    return liq, per, ok


def objective(problem: RobustProblem, vec: np.ndarray) -> ObjectiveResult:
    """Evaluate min over the family of the expected terminal utility, settling
    every model in one settle walk.

    A vector is infeasible when any model's admissibility check in the settle
    walk fails; that is reported distinctly from a finite (or -inf) objective
    value, so an admissible vector whose terminal wealth is 0 on some path is
    feasible with value -inf.  A negative or non-finite leg raises ConfigError.
    """
    rows = problem.codec.decode_rows(np.asarray(vec, float)[None])
    terminal, per, ok = _settle(problem, *rows, problem.prices)
    per, ok = per[:, 0], ok[:, 0]
    pre_liq = np.repeat(rows[2][0, :, -2], problem.noise.paths // problem.codec.rows)
    if not ok.all():
        k = int(np.argmin(ok))  # the first inadmissible model
        return ObjectiveResult(
            False, per, -math.inf, k, terminal[k].copy(), pre_liq, reason=f"inadmissible under theta {k}"
        )
    # the active model: the lowest index within ARGMIN_TIE_TOL of the minimum
    lo = float(per.min())
    k = int((per <= lo + ARGMIN_TIE_TOL).nonzero()[0][0])
    return ObjectiveResult(True, per, lo, k, terminal[k].copy(), pre_liq)


@record
class SolveReport:
    """The best iterate a solve visited, its values, the history rows and its strategy."""

    best_params: np.ndarray
    best_value: float
    per_theta: np.ndarray
    argmin_theta: int
    history: tuple
    strategy: Strategy


# an overflowing U'(X) makes inf and nan sums, which the return maps to finite slopes
@np.errstate(invalid="ignore", over="ignore")
def _supergradient(problem: RobustProblem, vec: np.ndarray, res: ObjectiveResult) -> np.ndarray:
    """Exact gradient of the active model's expected utility at vec, from the
    terminal wealth and pre-liquidation position of the settle walk that
    produced res.

    Terminal wealth is X = cash_{N-1} + c_N pos_{N-1}, where the closing mark
    c_N is (1 - lambda) S_N for a long and S_N for a short position.  Per path
    dX/dup_i = -S_i + c_N, dX/ddn_i = (1 - lambda) S_i - c_N and
    dX/dh0 = -S_0 + c_N (-(1 - lambda) S_0 + c_N when short at time zero), and
    the gradient is E[U'(X) dX/dtheta] summed over each parameter's block of
    paths.  At kinks (h0 = 0, pos_{N-1} = 0) the right and left slopes differ:
    a leg at its lower bound 0 takes the right one, every other parameter the
    mean of both.
    """
    codec, lam = problem.codec, problem.cost.lam
    prices = problem.prices[res.argmin_theta]
    n1 = prices.shape[1]
    s_n = prices[:, -1]
    bid_n = (1.0 - lam) * s_n
    pos = res.pre_liq_position
    # rows w S_0 .. w S_N, then w mark_up and w mark_dn, the closing marks once
    # pos_{N-1} is nudged up (raising h0 or a buy) or down; every sum below
    # reduces contiguous blocks of one row of this array
    wm = np.empty((n1 + 2, prices.shape[0]))
    w = problem.noise.probs * problem.utility.deriv(res.terminal_wealth)
    np.multiply(prices.T, w, out=wm[:n1])
    np.multiply(w, np.where(pos < 0.0, s_n, bid_n), out=wm[n1])
    np.multiply(w, np.where(pos > 0.0, bid_n, s_n), out=wm[n1 + 1])

    def sided(right, left, at_bound):
        return np.where(at_bound, right, 0.5 * (right + left))

    g = np.empty(codec.n_params)
    h0 = vec[0]
    s0, up_total, dn_total = wm[[0, -2, -1]].sum(axis=1)
    right = -(s0 if h0 >= 0.0 else (1.0 - lam) * s0) + up_total
    left = -(s0 if h0 > 0.0 else (1.0 - lam) * s0) + dn_total
    g[0] = right if codec.long_only and h0 <= 0.0 else 0.5 * (right + left)
    # the steps of a run share one node count, so one reduction gives the
    # (steps, nodes) sums of w S_i and the node sums of the marks, which do not
    # depend on the step
    ofs = 1
    for nodes, first, end in codec.runs:
        sums = wm.reshape(n1 + 2, nodes, -1).sum(axis=2)
        s_i, c_up, c_dn = sums[first:end], sums[-2], sums[-1]
        up = slice(ofs, ofs + s_i.size)
        g[up] = sided(c_up - s_i, c_dn - s_i, vec[up].reshape(s_i.shape) <= 0.0).reshape(-1)
        if not codec.long_only:
            dn = slice(up.start + codec.n_side, up.stop + codec.n_side)
            bid_s = (1.0 - lam) * s_i
            g[dn] = sided(bid_s - c_dn, bid_s - c_up, vec[dn].reshape(s_i.shape) <= 0.0).reshape(-1)
        ofs = up.stop
    return np.nan_to_num(g, copy=False, nan=0.0, posinf=1e6, neginf=-1e6)


def solve(problem: RobustProblem, settings: OptimizerSettings = OptimizerSettings()) -> SolveReport:
    """Maximize the robust objective by projected supergradient ascent.

    Deterministic for a fixed problem and settings: the start point is the
    zero strategy, gradients are exact (see _supergradient), and no randomness
    enters the iteration.  A candidate that projects back onto the current
    iterate bit for bit keeps that iterate's evaluation and gradient instead
    of settling the same point again.  A candidate whose robust value is -inf
    (inadmissible, or zero terminal wealth under a positive-axis utility) has
    its step halved.  Returns the best visited iterate.  Only the current
    point, the candidate, the best point and one gradient are held, so memory
    does not grow with settings.iters.
    """
    codec = problem.codec
    cur = codec.zero()
    cur_res = objective(problem, cur)

    def evaluate(vec: np.ndarray) -> ObjectiveResult:
        if vec.tobytes() == cur.tobytes():
            return cur_res
        return objective(problem, vec)

    best_vec, best_res = cur, cur_res
    history = [(0, cur_res.robust_value, cur_res.argmin_theta, 0.0)]
    g = None  # the gradient at cur, recomputed only once cur has moved
    for k in range(1, settings.iters + 1):
        if g is None:
            g = _supergradient(problem, cur, cur_res)
            norm = math.sqrt(g @ g)
        if norm < 1e-15:
            history.append((k, cur_res.robust_value, cur_res.argmin_theta, 0.0))
            continue
        step = settings.step0 / math.sqrt(k)
        cand = codec.project(cur + step * g / norm)
        cand_res = evaluate(cand)
        halvings = 0
        while cand_res.robust_value == -math.inf and halvings < MAX_HALVINGS:
            step *= 0.5
            cand = codec.project(cur + step * g / norm)
            cand_res = evaluate(cand)
            halvings += 1
        if cand_res.robust_value == -math.inf:
            cand, cand_res, step = cur, cur_res, 0.0
        if cand_res is not cur_res:
            g = None
        cur, cur_res = cand, cand_res
        history.append((k, cur_res.robust_value, cur_res.argmin_theta, step))
        if cur_res.robust_value > best_res.robust_value:
            best_vec, best_res = cur, cur_res
    return SolveReport(
        best_params=best_vec,
        best_value=best_res.robust_value,
        per_theta=best_res.per_theta,
        argmin_theta=best_res.argmin_theta,
        history=tuple(history),
        strategy=codec.decode(best_vec),
    )


@record
class BruteForceReport:
    """Exhaustive grid optimum on a lattice panel, with the largest objective
    gap to the optimum's axis neighbors as the resolution certificate."""

    best_params: np.ndarray
    value: float
    per_theta: np.ndarray
    neighbor_gap: float
    n_combos: int
    n_feasible: int


MAX_BRUTE_COMBOS = 1_000_000
BRUTE_CHUNK_ROWS = 1 << 13


def brute_force(problem: RobustProblem, h0_grid: Sequence[float], up_grid: Sequence[float]) -> BruteForceReport:
    """Exact enumeration of the robust objective over a parameter product grid:
    h0_grid for the time-zero trade and up_grid for every buy and sell increment.

    Requires a lattice panel (so expectations are exact sums) and at most
    three trading steps; the combination count must stay within 10^6.
    """
    if problem.noise.kind != "lattice":
        raise ConfigError("the brute-force oracle runs on lattice panels only")
    if problem.noise.grid.steps > 3:
        raise OracleTooLargeError("the brute-force oracle supports at most 3 steps")
    codec = problem.codec
    sides = codec.n_side if codec.long_only else 2 * codec.n_side
    axes = [np.asarray(h0_grid, float)] + [np.asarray(up_grid, float)] * sides
    if any(np.any(a[1:] < a[:-1]) for a in axes):
        raise ConfigError("grids must be sorted ascending")
    if any(np.any(a < 0.0) for a in axes[1:]):
        raise ConfigError("increment grids must be nonnegative")
    sizes = tuple(len(a) for a in axes)
    n_combos = int(np.prod(sizes))
    if n_combos > MAX_BRUTE_COMBOS:
        raise OracleTooLargeError(f"{n_combos} combinations exceed the {MAX_BRUTE_COMBOS} budget")
    digits = np.unravel_index(np.arange(n_combos), sizes)
    vecs = np.stack([axes[j][digits[j]] for j in range(len(axes))], axis=1)

    per_theta = np.empty((problem.n_thetas, n_combos))
    feasible = np.empty(n_combos, dtype=bool)
    # combinations are settled in chunks of at most BRUTE_CHUNK_ROWS paths
    chunk = max(1, min(n_combos, BRUTE_CHUNK_ROWS // problem.noise.paths))
    prices = problem.prices[:, None]
    for lo in range(0, n_combos, chunk):
        hi = min(lo + chunk, n_combos)
        _, per_theta[:, lo:hi], ok = _settle(problem, *codec.decode_rows(vecs[lo:hi]), prices)
        feasible[lo:hi] = ok.all(axis=0)
    robust = per_theta.min(axis=0)
    robust[~feasible] = -math.inf
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        raise NoFeasiblePointError("no grid point is admissible")
    best = int(np.argmax(robust))
    best_digits = [int(d[best]) for d in digits]
    gap = 0.0
    for j, dsize in enumerate(sizes):
        for move in (-1, 1):
            nd = list(best_digits)
            nd[j] += move
            if not (0 <= nd[j] < dsize):
                continue
            flat = int(np.ravel_multi_index(nd, sizes))
            if math.isfinite(robust[flat]):
                gap = max(gap, float(robust[best] - robust[flat]))
    return BruteForceReport(
        best_params=vecs[best].copy(),
        value=float(robust[best]),
        per_theta=per_theta[:, best].copy(),
        neighbor_gap=gap,
        n_combos=n_combos,
        n_feasible=n_feasible,
    )


def default_price_systems(problem: RobustProblem) -> list[tuple[int, PriceSystem]]:
    """(model index, price system) for every model of the family that has a
    registered system on the problem's panel (cps.registered_cps)."""
    systems = (
        registered_cps(model, problem.prices[k], problem.noise, problem.cost.lam)
        for k, model in enumerate(problem.thetas.models)
    )
    return [(k, ps) for k, ps in enumerate(systems) if ps is not None]


@record
class DualityRow:
    """Model theta_index's primal value u_hat against the bound v_hat + x0 y at
    level y, with the polarity check of its terminal payoff at that level and
    the supermartingale check of its shadow value process."""

    theta_index: int
    y: float
    u_hat: float
    v_hat: float
    bound: float
    se: float
    ok: bool
    polarity: PolarityReport
    supermartingale: DriftReport


@record
class InadaRow:
    """The value at the endowment x = scale x0, and value / x (None where unknown)."""

    scale: float
    x: float
    value: Optional[float]
    ratio: Optional[float]


@record
class DualityReport:
    """The rows and verdicts of duality_report."""

    rows: tuple[DualityRow, ...]
    inada: tuple[InadaRow, ...]
    growth_ok: bool
    all_ok: bool


def duality_report(
    problem: RobustProblem,
    report: SolveReport,
    price_systems: Sequence[tuple[int, PriceSystem]],
) -> DualityReport:
    """Diagnostics relating the solved primal value to dual quantities.

    Each model with a registered price system is valued in one walk and
    gets one row: its shadow value process must be a supermartingale under
    the system; at the system's best dual level y (utility.best_dual_level)
    the primal value must stay below E[V(y w)] + x0 y, the tightest bound
    the system gives, and the terminal payoff must satisfy the polarity
    bound E[X y w] <= x0 y, which scales with y, so one level checks it;
    all three are judged by cps.within (exact on lattice panels; a row
    where V is infinite at every level has an infinite bound and holds);
    and the utility must grow sublinearly (utility.growth_ok).  For information,
    the values at the endowments k x0, k = 1, 4 and 16, come from the exact
    identities of utility.scaled_value, with value / (k x0) as ratio: None
    where the utility has no identity, ratio None at zero wealth.
    """
    noise = problem.noise
    rows = []
    x0 = problem.cost.x0
    for k, ps in price_systems:
        value, terminal = shadow_value(report.strategy, problem.prices[k], ps.shadow, problem.cost)
        sm = supermartingale_check(value, ps)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_se = standard_error(problem.utility(terminal), noise)
        u_hat = float(report.per_theta[k])
        y = best_dual_level(problem.utility, ps.weights, noise.probs, x0)
        vvals = vector_conjugate(problem.utility, y * ps.weights)
        v_hat = float(np.dot(noise.probs, vvals))
        se = math.hypot(u_se, standard_error(vvals, noise))
        bound = v_hat + x0 * y
        pg = polarity_gap(terminal, ps, x0, y)
        rows.append(DualityRow(k, y, u_hat, v_hat, bound, se, within(u_hat, bound, se), pg, sm))
        # release this model's walk before the next model's runs
        del value, terminal
    inada_rows = []
    for s in (1.0, 4.0, 16.0):
        val = scaled_value(problem.utility, report.best_value, x0, s)
        ratio = None if val is None or x0 * s == 0.0 else val / (x0 * s)
        inada_rows.append(InadaRow(s, x0 * s, val, ratio))
    grows = growth_ok(problem.utility)
    all_ok = grows and all(r.ok and r.polarity.satisfied and r.supermartingale.passed for r in rows)
    return DualityReport(tuple(rows), tuple(inada_rows), grows, all_ok)
