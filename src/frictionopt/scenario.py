"""Scenario generation: time grids, shared noise panels, and price-process families.

All models in a family are driven by the same noise panel (common random
numbers), so that worst-case comparisons across parameters are not polluted
by independent sampling error.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, InvalidModelError
from .records import record

MAX_LATTICE_SLOTS = 22


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@record
class TimeGrid:
    """Uniform trading grid 0 = t_0 < t_1 < ... < t_N = horizon."""

    horizon: float
    steps: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ConfigError(f"horizon must be a positive finite number, got {self.horizon}")
        if not (isinstance(self.steps, int) and self.steps >= 1):
            raise ConfigError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "times", _readonly(np.linspace(0.0, self.horizon, self.steps + 1)))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@record(eq=False)
class NoisePanel:
    """Brownian increments shared by every model in a scenario family.

    increments has shape (paths, steps, drivers); entry (m, i, j) is the
    increment of driver j over (t_i, t_{i+1}] on path m, with variance dt
    under the path weights in probs, 1 / paths on every path.  kind is "mc"
    for Gaussian sampling and "lattice" for the exhaustive two-point tree.
    A panel equals only itself and hashes by id.
    """

    kind: str
    grid: TimeGrid
    increments: np.ndarray
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("mc", "lattice"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.increments.ndim != 3 or self.increments.shape[1] != self.grid.steps or self.paths < 1:
            raise ConfigError(f"increments must have shape (paths, {self.grid.steps}, drivers) with paths >= 1")
        object.__setattr__(self, "probs", _readonly(np.full(self.paths, 1.0 / self.paths)))

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    @property
    def drivers(self) -> int:
        return self.increments.shape[2]


def gaussian_panel(grid: TimeGrid, paths: int, drivers: int = 1, seed: int = 0) -> NoisePanel:
    """Monte Carlo noise panel with counter-based per-path substreams.

    Path m draws its (steps, drivers) block from a Philox generator keyed by
    (seed, m), in (step, driver) order, so enlarging the panel appends new
    paths without disturbing existing ones.
    """
    if paths < 1:
        raise ConfigError("paths must be at least 1")
    if drivers < 1:
        raise ConfigError("drivers must be at least 1")
    if not 0 <= seed < 1 << 64:  # the width of a Philox key word
        raise ConfigError(f"seed must be a nonnegative integer below 2**64, got {seed}")
    inc = np.empty((paths, grid.steps, drivers))
    root_dt = math.sqrt(grid.dt)
    # one generator, rewound for each path to the state a fresh
    # Philox(key=(seed, m)) starts from: counter 0 and an empty buffer
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    for m in range(paths):
        fresh["state"]["key"][1] = m
        bits.state = fresh
        inc[m] = gen.standard_normal((grid.steps, drivers))
    inc *= root_dt
    return NoisePanel("mc", grid, _readonly(inc))


def lattice_paths(steps: int, drivers: int) -> int:
    """Paths of a lattice on `steps` steps of `drivers` drivers, 2^(steps *
    drivers); fewer than 1 driver, or a tree of more than MAX_LATTICE_SLOTS
    increment slots, is refused."""
    if drivers < 1:
        raise ConfigError("drivers must be at least 1")
    slots = steps * drivers
    if slots > MAX_LATTICE_SLOTS:
        raise ConfigError(
            f"lattice needs 2^{slots} paths; {MAX_LATTICE_SLOTS} increment slots is the supported maximum"
        )
    return 1 << slots


def lattice_panel(grid: TimeGrid, drivers: int = 1) -> NoisePanel:
    """Exhaustive two-point panel: every sign pattern of +-sqrt(dt) increments.

    Paths are ordered so that the first increment slot is the most significant
    bit (sign +1 first); paths sharing a slot prefix therefore form contiguous
    blocks, which makes conditional expectations per tree node a reshape.
    """
    n_paths = lattice_paths(grid.steps, drivers)
    slots = grid.steps * drivers
    idx = np.arange(n_paths, dtype=np.uint64)[:, None]
    shifts = np.arange(slots - 1, -1, -1, dtype=np.uint64)[None, :]
    bits = (idx >> shifts) & 1
    signs = 1.0 - 2.0 * bits.astype(float)
    inc = signs.reshape(n_paths, grid.steps, drivers) * math.sqrt(grid.dt)
    return NoisePanel("lattice", grid, _readonly(inc))


def lattice_block(noise: NoisePanel, step: int) -> int:
    """Paths per tree node after `step` steps of a lattice panel: by the path
    order of lattice_panel they form contiguous blocks of this length."""
    if noise.kind != "lattice":
        raise ConfigError("tree-node grouping needs a lattice panel")
    return noise.paths >> (step * noise.drivers)


class Model:
    """A parametrized risky-asset model consuming the first `drivers` noise columns."""

    drivers: int = 1
    s0: float = 1.0

    def simulate(self, noise: NoisePanel, out: np.ndarray) -> None:
        """Write the prices on the panel's grid into out, a (paths, steps + 1) view."""
        raise NotImplementedError


@record
class BlackScholes(Model):
    """Geometric Brownian motion, stepped exactly in log space."""

    mu: float
    sigma: float
    s0: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise InvalidModelError(f"sigma must be nonnegative, got {self.sigma}")
        if self.s0 <= 0.0:
            raise InvalidModelError(f"s0 must be positive, got {self.s0}")

    def simulate(self, noise: NoisePanel, out: np.ndarray) -> None:
        out[:, 0] = self.s0
        logs = out[:, 1:]
        np.multiply(self.sigma, noise.increments[:, :, 0], out=logs)
        np.add(logs, (self.mu - 0.5 * self.sigma**2) * noise.grid.dt, out=logs)
        np.cumsum(logs, axis=1, out=logs)
        np.exp(logs, out=logs)
        np.multiply(logs, self.s0, out=logs)


@record
class PathDependentBS(Model):
    """Log-Euler scheme whose per-step drift and volatility are functions of
    the current time and the driver history up to that time.

    mu_fn and sigma_fn receive (t_i, past) where past has shape
    (paths, i) and holds the driver increments observed strictly before t_i;
    they return a scalar or a per-path array.  Outputs are clamped to the
    stated bounds so the coefficients stay admissible whatever the callables do.
    """

    mu_fn: Callable[[float, np.ndarray], np.ndarray]
    sigma_fn: Callable[[float, np.ndarray], np.ndarray]
    mu_bounds: tuple[float, float] = (-10.0, 10.0)
    sigma_bounds: tuple[float, float] = (1e-8, 10.0)
    s0: float = 1.0

    def __post_init__(self) -> None:
        if self.s0 <= 0.0:
            raise InvalidModelError(f"s0 must be positive, got {self.s0}")
        if not (self.mu_bounds[0] <= self.mu_bounds[1]):
            raise InvalidModelError("mu_bounds must be ordered")
        if not (0.0 < self.sigma_bounds[0] <= self.sigma_bounds[1]):
            raise InvalidModelError("sigma_bounds must be ordered and strictly positive")

    def simulate(self, noise: NoisePanel, out: np.ndarray) -> None:
        grid, dw = noise.grid, noise.increments[:, :, 0]
        out[:, 0] = self.s0
        log_s = np.full(noise.paths, math.log(self.s0))
        for i in range(grid.steps):
            t_i = float(grid.times[i])
            past = dw[:, :i]
            mu_i = np.clip(np.broadcast_to(np.asarray(self.mu_fn(t_i, past), float), (noise.paths,)), *self.mu_bounds)
            sig_i = np.clip(
                np.broadcast_to(np.asarray(self.sigma_fn(t_i, past), float), (noise.paths,)), *self.sigma_bounds
            )
            log_s = log_s + (mu_i - 0.5 * sig_i**2) * grid.dt + sig_i * dw[:, i]
            out[:, i + 1] = np.exp(log_s)


@record
class Factor(Model):
    """Two-driver model: the asset loads on driver 1, an observable factor Y
    loads on both drivers and feeds the asset drift.

    With theta a 2x2 parameter matrix, the asset follows a log-Euler step with
    drift m(Y) + sigma * (theta[0,0] * Y + theta[1,0]) and volatility sigma;
    the factor follows an explicit Euler step
    dY = (g(Y) + rho[0] * (theta[0,0] * Y + theta[1,0])
               + rho[1] * (theta[0,1] * Y + theta[1,1])) dt
         + rho[0] dW1 + rho[1] dW2.
    """

    theta: tuple[tuple[float, float], tuple[float, float]]
    m_fn: Callable[[np.ndarray], np.ndarray]
    g_fn: Callable[[np.ndarray], np.ndarray]
    sigma: float
    rho: tuple[float, float]
    s0: float = 1.0
    y0: float = 0.0

    drivers = 2

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise InvalidModelError(f"sigma must be positive, got {self.sigma}")
        if self.s0 <= 0.0:
            raise InvalidModelError(f"s0 must be positive, got {self.s0}")

    def simulate(self, noise: NoisePanel, out: np.ndarray) -> None:
        th, grid = self.theta, noise.grid
        dw1 = noise.increments[:, :, 0]
        dw2 = noise.increments[:, :, 1]
        out[:, 0] = self.s0
        log_s = np.full(noise.paths, math.log(self.s0))
        yi = np.full(noise.paths, self.y0)
        for i in range(grid.steps):
            load1 = th[0][0] * yi + th[1][0]
            load2 = th[0][1] * yi + th[1][1]
            drift_s = np.asarray(self.m_fn(yi), float) + self.sigma * load1
            log_s = log_s + (drift_s - 0.5 * self.sigma**2) * grid.dt + self.sigma * dw1[:, i]
            drift_y = np.asarray(self.g_fn(yi), float) + self.rho[0] * load1 + self.rho[1] * load2
            yi = yi + drift_y * grid.dt + self.rho[0] * dw1[:, i] + self.rho[1] * dw2[:, i]
            out[:, i + 1] = np.exp(log_s)


@record
class ArctanDrift(Model):
    """Closed-form family S_t = 1 + t + arctan(W_t) / (2 pi) on [0, horizon].

    Every path stays inside (t + 3/4, t + 5/4), so bid and ask are bounded
    away from zero without any clamping.
    """

    s0: float = 1.0

    def __post_init__(self) -> None:
        if self.s0 != 1.0:
            raise InvalidModelError("the arctan family is pinned at s0 = 1")

    def simulate(self, noise: NoisePanel, out: np.ndarray) -> None:
        out[:, 0] = 0.0
        np.cumsum(noise.increments[:, :, 0], axis=1, out=out[:, 1:])
        np.arctan(out, out=out)
        np.divide(out, 2.0 * math.pi, out=out)
        np.add(out, 1.0 + noise.grid.times, out=out)


@record
class ThetaGrid:
    """Finite family of candidate models sharing one noise panel."""

    models: tuple[Model, ...]

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise ConfigError("theta grid must contain at least one model")

    def __len__(self) -> int:
        return len(self.models)


def simulate(model: Model, noise: NoisePanel, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Simulate one model on the shared panel into out, a (paths, steps + 1)
    view (a new array when None), and return it read-only."""
    if noise.drivers < model.drivers:
        raise ConfigError(
            f"model needs {model.drivers} driver(s) but the noise panel carries {noise.drivers}"
        )
    if out is None:
        out = np.empty((noise.paths, noise.grid.steps + 1))
    # an overflow shows as non-finite prices, which the check below rejects;
    # errstate is set here, not left to the CLI, for library callers too
    with np.errstate(all="ignore"):
        model.simulate(noise, out)
    if not np.all(np.isfinite(out)):
        raise InvalidModelError("simulation produced non-finite prices")
    if np.any(out <= 0.0):
        raise InvalidModelError("simulation produced nonpositive prices")
    return _readonly(out)


def simulate_panel(thetas: ThetaGrid, noise: NoisePanel) -> np.ndarray:
    """Simulate every candidate model on the same noise panel, returning the
    read-only price stack of shape (K, paths, steps + 1); model k is written
    into its slice k of one preallocated block."""
    prices = np.empty((len(thetas), noise.paths, noise.grid.steps + 1))
    for idx, model in enumerate(thetas.models):
        try:
            simulate(model, noise, prices[idx])
        except Exception as exc:
            raise type(exc)(f"theta index {idx}: {exc}") from exc
    return _readonly(prices)
