"""Tooling of the existence proof, which no command runs: monotone step
paths with a summable metric and the tail averages that extract convergent
subsequences, and for whole-line utilities the Orlicz-space objects.

Young pairs split the conjugate V at beta, the left derivative of U at zero,
into a convex function Phi vanishing on [0, beta] and its complementary
function Phi*(x) = -U(-x); the Delta2 doubling test and the Luxemburg norm
are taken of either.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Callable, Optional, Sequence

import numpy as np

# position_recursion is re-exported: bench/tracer.py traces it under this module's name
from .accounting import check_jumps, position_recursion  # noqa: F401
from .errors import (
    AssumptionViolationError, ConfigError, ConjugateUnboundedError, GridMismatchError, IndeterminateError,
)
from .records import record
from .scenario import TimeGrid, _readonly
from .utility import Array, UtilitySpec, _bracket, _ternary_max, check_assumptions, vector_conjugate


@record
class MonotonePath:
    """Nondecreasing right-continuous step path on a grid, zero at time zero.

    jumps[i] >= 0 is the increment placed at t_i; jumps[0] must be zero.  The
    path value at t is the sum of all jumps at grid times <= t.
    """

    grid: TimeGrid
    jumps: np.ndarray

    def __post_init__(self) -> None:
        jumps = np.array(self.jumps, float)  # a copy: the caller's array stays writable
        if jumps.shape != (self.grid.steps + 1,):
            raise ConfigError(f"jumps must have shape ({self.grid.steps + 1},), got {jumps.shape}")
        if jumps[0] != 0.0:
            raise ConfigError("a path started at zero cannot jump at time zero")
        check_jumps("path", jumps)
        object.__setattr__(self, "jumps", _readonly(jumps))

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.jumps)

    def terminal(self) -> float:
        return float(self.jumps.sum())

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Right-continuous evaluation at arbitrary times in [0, horizon]."""
        t = np.asarray(times, float)
        if np.any(t < 0.0) or np.any(t > self.grid.horizon + 1e-12):
            raise ConfigError("evaluation times must lie in [0, horizon]")
        idx = np.searchsorted(self.grid.times, t, side="right") - 1
        return self.cumulative[np.clip(idx, 0, self.grid.steps)]

    def value(self, t: float) -> float:
        return float(self.values_at(np.asarray([t]))[0])


@record
class RationalEnumeration:
    """The first `length` points of the enumeration T, 0, T/2, T/3, 2T/3, T/4, 3T/4, ...

    Rational multiples p/q of the horizon are listed denominator-major with
    reduced fractions only, so each point appears exactly once.  The leading
    point is always the horizon itself.
    """

    horizon: float
    length: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be positive")
        if self.length < 1:
            raise ConfigError("enumeration length must be at least 1")
        pts = [self.horizon, 0.0]
        q = 2
        while len(pts) < self.length:
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    pts.append(p * self.horizon / q)
                    if len(pts) == self.length:
                        break
            q += 1
        object.__setattr__(self, "points", _readonly(np.asarray(pts[: self.length])))


@record
class RhoResult:
    """rho on an enumeration, with the bound on its discarded tail."""

    value: float
    truncation_bound: float


def rho(f: MonotonePath, g: MonotonePath, enum: RationalEnumeration) -> RhoResult:
    """Truncated summable metric sum_k 2^{-k} |f(r_k) - g(r_k)| over the enumeration.

    The discarded tail is bounded by 2^{-(K-1)} (f(T) + g(T)) because both
    paths are nonnegative and capped by their terminal values.
    """
    if not np.array_equal(f.grid.times, g.grid.times):
        raise GridMismatchError("rho compares paths on a common grid only")
    if abs(enum.horizon - f.grid.horizon) > 1e-12:
        raise GridMismatchError("enumeration horizon differs from the paths' horizon")
    diffs = np.abs(f.values_at(enum.points) - g.values_at(enum.points))
    weights = np.power(2.0, -np.arange(enum.length, dtype=float))
    value = float(np.dot(weights, diffs))
    bound = 2.0 ** (-(enum.length - 1)) * (f.terminal() + g.terminal())
    return RhoResult(value=value, truncation_bound=bound)


@record
class KomlosResult:
    """Tail Cesaro averages of a path sequence and the deepest average as limit candidate.

    averages[n] is the arithmetic mean of seq[n:], a convex combination of the
    input paths; the candidate is averages[0], the mean over the whole supplied
    window, which is the closest available proxy for the limiting average as
    the window grows.
    """

    averages: tuple[MonotonePath, ...]
    candidate: MonotonePath


def komlos_average(seq: Sequence[MonotonePath]) -> KomlosResult:
    """Convex tail averages of a sequence of monotone paths on one grid."""
    if len(seq) == 0:
        raise ConfigError("cannot average an empty sequence")
    grid = seq[0].grid
    for p in seq[1:]:
        if not np.array_equal(p.grid.times, grid.times):
            raise GridMismatchError("all paths must share one grid")
    stack = np.stack([p.jumps for p in seq])
    n = len(seq)
    # suffix means computed from a reversed cumulative sum, one pass
    suffix = np.cumsum(stack[::-1], axis=0)[::-1]
    counts = np.arange(n, 0, -1, dtype=float)[:, None]
    avgs = tuple(MonotonePath(grid, suffix[i] / counts[i]) for i in range(n))
    return KomlosResult(averages=avgs, candidate=avgs[0])


@record
class ConvergenceReport:
    """Per-grid-time verdicts for convergence of averages toward a limit path.

    A grid time is checked when it is the horizon or when the limit's jump
    there is at most tol (approximate continuity points); it passes when every
    supplied average is within tol of the limit at that time.
    """

    times: np.ndarray
    checked: np.ndarray
    passed: np.ndarray

    @property
    def pass_fraction(self) -> float:
        n_checked = int(self.checked.sum())
        if n_checked == 0:
            return 1.0
        return float(self.passed[self.checked].sum() / n_checked)


def converges_at_continuity_points(
    averages: Sequence[MonotonePath], limit: MonotonePath, tol: float
) -> ConvergenceReport:
    if len(averages) == 0:
        raise ConfigError("need at least one average to check")
    grid = limit.grid
    for p in averages:
        if not np.array_equal(p.grid.times, grid.times):
            raise GridMismatchError("averages and limit must share one grid")
    checked = limit.jumps <= tol
    checked = checked.copy()
    checked[-1] = True
    lim_vals = limit.cumulative
    worst = np.zeros(grid.steps + 1)
    for p in averages:
        worst = np.maximum(worst, np.abs(p.cumulative - lim_vals))
    passed = worst <= tol
    return ConvergenceReport(times=grid.times, checked=_readonly(checked), passed=_readonly(passed))


def orlicz_conjugate(phi: Callable[[Array], Array], y: float, tol: float = 1e-10) -> float:
    """Conjugate of a convex function on the positive axis: sup_{x >= 0} (x y - phi(x))."""
    if y < 0.0:
        raise ConjugateUnboundedError("Orlicz conjugate requested at negative y")

    def g(x: float) -> float:
        return x * y - float(phi(np.asarray([x]))[0])

    _, best = _ternary_max(g, 0.0, _bracket(g, 1.0, f"Orlicz conjugate diverges at y = {y}"), tol)
    return max(best, g(0.0))


@record
class YoungPair:
    """Complementary pair built from a whole-line utility.

    beta is the left derivative of U at zero; phi vanishes on [0, beta] and
    equals V(y) - V(beta) beyond it; phi_star(x) = -U(-x) is the complementary
    convex function.  delta2_finite records whether phi passes the doubling
    diagnostic on the default grid.
    """

    beta: float
    v_at_beta: float
    phi: Callable[[Array], Array]
    phi_star: Callable[[Array], Array]
    delta2_finite: bool


def young_pair(u: UtilitySpec) -> YoungPair:
    """Build the complementary Young pair of a whole-line utility."""
    failures = check_assumptions(u)
    if failures:
        raise AssumptionViolationError(f"utility fails structural checks: {failures}")
    # U' just left of 0, where a knot at 0 would give the mean of its two slopes
    beta = float(u.deriv(np.asarray([math.nextafter(0.0, -1.0)]))[0])
    if not (beta > 0.0 and math.isfinite(beta)):
        raise AssumptionViolationError(f"left derivative at zero must be positive, got {beta}")
    v_beta = float(vector_conjugate(u, np.asarray([beta]))[0])

    def phi(y: Array) -> Array:
        y = np.asarray(y, float)
        out = np.zeros_like(y)
        above = y > beta
        if np.any(above):
            out[above] = np.maximum(vector_conjugate(u, y[above]) - v_beta, 0.0)
        return out

    def phi_star(x: Array) -> Array:
        x = np.asarray(x, float)
        return -u(-x)

    d2 = delta2_ratio(phi)
    return YoungPair(beta=beta, v_at_beta=v_beta, phi=phi, phi_star=phi_star, delta2_finite=d2.finite)


@record
class Delta2Report:
    """Doubling diagnostic for a convex function on a geometric grid.

    ratio_estimate is the largest phi(2x)/phi(x) over the top decade of the
    grid; finite is True when the top-decade maximum does not exceed the
    previous decade's, i.e. the doubling ratios are not still growing."""

    ratio_estimate: float
    finite: bool
    grid_max: float


def delta2_ratio(phi: Callable[[Array], Array], grid: Optional[np.ndarray] = None) -> Delta2Report:
    if grid is None:
        grid = np.geomspace(1.0, 1e6, 121)
    grid = np.asarray(grid, float)
    if np.any(grid <= 0.0) or grid.size < 10:
        raise ConfigError("delta2 grid must be positive with at least 10 points")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(phi(grid), float)
    pos = vals > 0.0
    if not np.any(pos):
        raise IndeterminateError("phi vanishes on the whole grid; doubling ratio undefined")
    x = grid[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.asarray(phi(2.0 * x), float) / vals[pos]
    top = x >= x[-1] / 10.0
    prev = (x >= x[-1] / 100.0) & ~top
    top_max = float(np.max(ratios[top]))
    if not np.any(prev):
        return Delta2Report(ratio_estimate=top_max, finite=math.isfinite(top_max), grid_max=float(x[-1]))
    prev_max = float(np.max(ratios[prev]))
    finite = math.isfinite(top_max) and top_max <= prev_max * (1.0 + 1e-9)
    return Delta2Report(ratio_estimate=top_max, finite=finite, grid_max=float(x[-1]))


def luxemburg_norm(sample: Array, phi: Callable[[Array], Array]) -> float:
    """Luxemburg gauge inf{g > 0 : mean phi(|X| / g) <= 1} of an empirical sample.

    Brackets by doubling and bisects to relative width 1e-12; the all-zero
    sample has norm zero by convention.
    """
    x = np.abs(np.asarray(sample, float))
    if x.size == 0:
        raise ConfigError("cannot take the norm of an empty sample")
    if not np.all(np.isfinite(x)):
        raise ConfigError("sample must be finite")
    if np.all(x == 0.0):
        return 0.0

    def mean_phi(g: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.mean(np.asarray(phi(x / g), float)))

    hi = float(np.max(x))
    for _ in range(2000):
        if mean_phi(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise IndeterminateError("could not bracket the Luxemburg norm from above")
    lo = hi
    for _ in range(2000):
        cand = lo / 2.0
        if mean_phi(cand) <= 1.0:
            lo = cand
        else:
            break
    else:
        return 0.0
    # invariant: mean_phi(lo) <= 1 < mean_phi(lo / 2)
    a, b = lo / 2.0, lo
    while (b - a) > 1e-12 * b:
        mid = 0.5 * (a + b)
        if mean_phi(mid) <= 1.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
