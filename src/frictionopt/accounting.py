"""Trading strategies and their exact accounting under proportional costs.

A strategy is a pair of nondecreasing right-continuous paths started at zero
just before time zero (cumulative buys and cumulative sells), held as their
jumps on the time grid.  Purchases pay the ask price S and sales receive the
bid (1 - lambda) S; the block trade at time zero settles like any other, at
the t_0 prices.  All balances follow the jump-at-t convention: a trade placed
at t_i settles at the t_i price and is reflected in the balances from t_i on.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractViolation
from .records import record
from .scenario import TimeGrid, _readonly


@record
class CostSpec:
    """Proportional cost level and initial cash endowment."""

    lam: float
    x0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise ConfigError(f"lambda must lie strictly between 0 and 1, got {self.lam}")
        if not math.isfinite(self.x0):
            raise ConfigError("x0 must be finite")


@record
class Strategy:
    """Trading strategy as schedule rows of cumulative buy and sell jumps.

    d_up and d_dn hold the nonnegative jumps of the cumulative-buy and
    cumulative-sell paths, with shape (rows, steps + 1): one row traded the
    same way on every path, or one row per path.  Column 0 is the block
    trade at time zero, so the position starts flat before it.  Settlement
    broadcasts the rows against the prices, which must have steps + 1 points.
    """

    d_up: np.ndarray
    d_dn: np.ndarray

    def __post_init__(self) -> None:
        for name, arr in (("d_up", self.d_up), ("d_dn", self.d_dn)):
            a = np.array(arr, float)  # a copy: the caller's array stays writable
            if a.ndim != 2:
                raise ConfigError(f"{name} must have shape (rows, steps + 1)")
            check_jumps(name, a)
            object.__setattr__(self, name, _readonly(a))
        if self.d_up.shape != self.d_dn.shape:
            raise ConfigError("d_up and d_dn must have the same shape")

    def position(self) -> np.ndarray:
        """Holdings per row and grid time, by the same left-to-right recursion
        the accounting ledger uses, so flattened positions cancel bit-exactly."""
        return position_recursion(self.d_up, self.d_dn)

    @classmethod
    def zero(cls, grid: TimeGrid, rows: int = 1) -> "Strategy":
        z = np.zeros((rows, grid.steps + 1))
        return cls(z, z.copy())


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


@record
class AccountingLedger:
    """Cash, holdings and liquidation value of one model, each of shape
    (paths, steps + 1): the recorded settle walk.  position is a read-only
    broadcast view of the strategy's rows.

    liq marks holdings to the unfavourable side (long positions at the bid,
    short positions at the ask).
    """

    cash: np.ndarray
    position: np.ndarray
    liq: np.ndarray

    def terminal_liq(self) -> np.ndarray:
        return self.liq[:, -1]


def settle(d_up: np.ndarray, d_dn: np.ndarray, position: np.ndarray, prices: np.ndarray, cost: CostSpec):
    """Walk t_0 .. t_N and yield (cash_i, liq_i), the one settlement kernel.

    Jumps and positions have time on their last axis and broadcast against
    the prices at each grid time (paths, or models by paths, or a batch of
    schedules by paths).  Cash starts at x0 and follows
    cash_i = (cash_{i-1} - S_i up_i) + (1 - lambda) S_i dn_i, the time-zero
    trade in column 0 included; liq_i closes position_i at the same marks.
    Each yield is a fresh array.
    """
    cash = cost.x0
    for i in range(prices.shape[-1]):
        s = prices[..., i]
        bid = (1.0 - cost.lam) * s
        cash = (cash - s * d_up[..., i]) + bid * d_dn[..., i]
        pos = position[..., i]
        # mark the long leg against the bid so that for any shadow price
        # inside the band (including its edges) liq <= cash + pos * sp holds
        # bitwise, by monotonicity of rounding in the per-entry products
        yield cash, (cash + np.maximum(pos, 0.0) * bid) - np.maximum(-pos, 0.0) * s


def _model_shape(strategy: Strategy, prices: np.ndarray) -> tuple[int, int]:
    """The (paths, steps + 1) shape one model's prices must have for the
    strategy's rows, one or one per path, to broadcast against them."""
    rows, points = strategy.d_up.shape
    return (prices.shape[0] if rows == 1 and prices.ndim == 2 else rows), points


def run_ledger(strategy: Strategy, prices: np.ndarray, cost: CostSpec) -> AccountingLedger:
    """Settle a strategy against one model's simulated prices, shape
    (paths, steps + 1), recording every step of the settle walk."""
    prices = np.asarray(prices, float)
    shape = _model_shape(strategy, prices)
    if prices.shape != shape:
        raise ConfigError(f"prices must have shape {shape}, got {prices.shape}")
    pos = strategy.position()
    cash, liq = np.empty(shape), np.empty(shape)
    for i, step in enumerate(settle(strategy.d_up, strategy.d_dn, pos, prices, cost)):
        cash[:, i], liq[:, i] = step
    return AccountingLedger(cash=_readonly(cash), position=np.broadcast_to(pos, shape), liq=_readonly(liq))


def shadow_value(strategy: Strategy, prices: np.ndarray, shadow_prices: np.ndarray, cost: CostSpec):
    """Settle a strategy against one model's prices and return
    (value, terminal_liq): the shadow value cash_i + position_i * sp_i,
    shape (paths, steps + 1), and the liquidation value at t_N.

    Wherever a shadow price sits inside the bid-ask band, marking to it is
    at least as favourable as liquidation; that dominance is asserted entry
    by entry because it is a consequence of the band, not an extra
    assumption.
    """
    prices, sp = np.asarray(prices, float), np.asarray(shadow_prices, float)
    shape = _model_shape(strategy, prices)
    if prices.shape != shape or sp.shape != shape:
        raise ConfigError(f"prices and shadow prices must have shape {shape}, got {prices.shape} and {sp.shape}")
    pos = strategy.position()
    value = np.empty(shape)
    for i, (cash, liq) in enumerate(settle(strategy.d_up, strategy.d_dn, pos, prices, cost)):
        s, spi = prices[:, i], sp[:, i]
        value[:, i] = cash + pos[:, i] * spi
        if np.any(((1.0 - cost.lam) * s <= spi) & (spi <= s) & (liq > value[:, i])):
            raise ContractViolation("liquidation value exceeded the shadow value inside the band")
    return _readonly(value), _readonly(liq)


@record
class AdmissibilityReport:
    """first_violation is the (path, time) index of the first failing entry."""

    admissible: bool
    reason: str
    first_violation: Optional[tuple[int, int]] = None


def check_admissible_rplus(ledger: AccountingLedger) -> AdmissibilityReport:
    """Nonnegative-wealth admissibility: liq >= 0 at every path and grid
    time, and the terminal position is exactly zero (everything
    liquidated)."""
    bad = ledger.liq < 0.0
    if np.any(bad):
        first = tuple(int(j) for j in np.argwhere(bad)[0])
        return AdmissibilityReport(False, "liquidation value went negative", first)
    open_pos = ledger.position[:, -1] != 0.0
    if np.any(open_pos):
        m = int(np.argmax(open_pos))
        return AdmissibilityReport(False, "terminal position not flattened", (m, ledger.position.shape[1] - 1))
    return AdmissibilityReport(True, "ok")
