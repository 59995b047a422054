"""Finite-variation machinery: monotone step paths, a summable metric on them,
and the tail-averaging construction used to extract convergent subsequences.

Trading strategies are pairs of nondecreasing right-continuous paths started
at zero just before time zero (cumulative buys and cumulative sells), so
everything here is phrased for nonnegative step functions living on a shared
time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, GridMismatchError
from .scenario import TimeGrid, _readonly


@dataclass(frozen=True)
class MonotonePath:
    """Nondecreasing right-continuous step path on a grid, zero at time zero.

    jumps[i] >= 0 is the increment placed at t_i; jumps[0] must be zero.  The
    path value at t is the sum of all jumps at grid times <= t.
    """

    grid: TimeGrid
    jumps: np.ndarray

    def __post_init__(self) -> None:
        jumps = np.asarray(self.jumps, float)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RhoResult:
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Strategy:
    """Trading strategy as schedule rows of cumulative buy and sell jumps.

    d_up and d_dn hold the nonnegative jumps of the cumulative-buy and
    cumulative-sell paths, with shape (rows, steps + 1): one row traded the
    same way on every path, or one row per path.  Column 0 is the block
    trade at time zero, so the position starts flat before it.  Settlement
    broadcasts the rows against the prices.
    """

    grid: TimeGrid
    d_up: np.ndarray
    d_dn: np.ndarray

    def __post_init__(self) -> None:
        for name, arr in (("d_up", self.d_up), ("d_dn", self.d_dn)):
            a = np.asarray(arr, float)
            if a.ndim != 2 or a.shape[1] != self.grid.steps + 1:
                raise ConfigError(f"{name} must have shape (rows, {self.grid.steps + 1})")
            check_jumps(name, a)
            object.__setattr__(self, name, _readonly(a))
        if self.d_up.shape[0] != self.d_dn.shape[0]:
            raise ConfigError("d_up and d_dn must have the same rows")

    def position(self) -> np.ndarray:
        """Holdings per row and grid time, by the same left-to-right recursion
        the accounting ledger uses, so flattened positions cancel bit-exactly."""
        return position_recursion(self.d_up, self.d_dn)

    @classmethod
    def zero(cls, grid: TimeGrid, rows: int = 1) -> "Strategy":
        z = np.zeros((rows, grid.steps + 1))
        return cls(grid, z, z.copy())


def check_jumps(name: str, jumps: np.ndarray) -> None:
    if not ((jumps >= 0.0) & (jumps < math.inf)).all():
        raise ConfigError(f"{name} jumps must be finite and nonnegative")


def position_recursion(d_up: np.ndarray, d_dn: np.ndarray) -> np.ndarray:
    """pos_i = (pos_{i-1} + d_up_i) - d_dn_i from a flat pos_{-1} = 0, kept in
    this exact association order so a final sell of the running position
    lands on zero.

    One running sum along time over the interleaved flows
    [up_0, -dn_0, up_1, -dn_1, ...], keeping every other entry: add
    accumulates strictly left to right, and x + (-y) is x - y in IEEE
    arithmetic, so every bit matches the step-by-step recursion.  Time is
    the last axis; any leading axes are kept."""
    flows = np.empty(d_up.shape + (2,))
    flows[..., 0] = d_up
    np.negative(d_dn, out=flows[..., 1])
    flows = flows.reshape(d_up.shape[:-1] + (-1,))
    np.add.accumulate(flows, axis=-1, out=flows)
    return flows[..., 1::2]
