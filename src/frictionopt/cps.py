"""Consistent price systems: shadow prices inside the bid-ask band together
with a change of measure under which they are martingales.

A pair (shadow, Q) is consistent at cost level lambda when
(1 - lambda) S <= shadow <= S holds pathwise and shadow is a Q-martingale;
it is strict when the band holds with room to spare on both sides.  The
measure change is carried as per-path weights dQ/dP against the base
probabilities of the noise panel the system was built on.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractViolation, NoCpsConstructibleError
from .records import record
from .scenario import ArctanDrift, BlackScholes, Model, NoisePanel, _readonly, lattice_block

Array = np.ndarray


@record
class PriceSystem:
    """Shadow prices (paths, steps + 1) and measure weights (paths,) on the
    noise panel they were built on, and the bandwidth margin mu_level in
    [0, 1) the construction aimed for.

    Weights are normalized: their mean under the panel probabilities is 1
    within 1e-12, and every weight is strictly positive (equivalent change
    of measure).
    """

    shadow: Array
    weights: Array
    noise: NoisePanel
    mu_level: float
    label: str = ""

    def __post_init__(self) -> None:
        shape = (self.noise.paths, self.noise.grid.steps + 1)
        if self.shadow.shape != shape or self.weights.shape != shape[:1]:
            raise ConfigError(f"shadow and weights must have shapes {shape} and {shape[:1]} on this panel")
        if not (np.isfinite(self.shadow).all() and np.all(self.shadow > 0.0)):
            raise ConfigError("shadow prices must be finite and strictly positive")
        if not (np.isfinite(self.weights).all() and np.all(self.weights > 0.0)):
            raise ConfigError("measure weights must be finite and strictly positive")
        if abs(float(np.dot(self.noise.probs, self.weights)) - 1.0) > 1e-12:
            raise ConfigError("measure weights must average to 1 under the panel probabilities")
        if not (0.0 <= self.mu_level < 1.0):
            raise ConfigError(f"mu_level must lie in [0, 1), got {self.mu_level}")

    @property
    def q_probs(self) -> Array:
        return self.noise.probs * self.weights


@record
class BandReport:
    """Pathwise band check: delta is the smallest slack
    min(shadow - (1 - lambda) S, S - shadow) over all paths and times,
    floored at zero for reporting; strict requires genuinely positive slack."""

    holds: bool
    strict: bool
    delta: float
    worst: tuple[int, int]


def verify_band(prices: Array, ps: PriceSystem, lam: float) -> BandReport:
    if prices.shape != ps.shadow.shape:
        raise ConfigError("prices and shadow must share a shape")
    if not (0.0 < lam < 1.0):
        raise ConfigError("lambda must lie strictly between 0 and 1")
    slack = np.multiply(1.0 - lam, prices)
    np.subtract(ps.shadow, slack, out=slack)
    np.minimum(slack, prices - ps.shadow, out=slack)
    raw = float(slack.min())
    m, i = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return BandReport(holds=raw >= 0.0, strict=raw > 0.0, delta=max(raw, 0.0), worst=(int(m), int(i)))


def girsanov_cps(model: BlackScholes, prices: Array, noise: NoisePanel) -> PriceSystem:
    """Price system for a geometric Brownian model by drift removal.

    The weights are the terminal density exp(-(mu/sigma) W_T - (mu/sigma)^2 T / 2)
    evaluated on the panel (then renormalized to empirical mean one), under
    which the model's exactly-stepped log-Euler prices on the panel, prices,
    are a martingale; the shadow is a read-only view of prices themselves.
    """
    if not isinstance(model, BlackScholes):
        raise NoCpsConstructibleError("drift-removal construction applies to the geometric Brownian family")
    if model.sigma == 0.0:
        raise NoCpsConstructibleError("deterministic model with drift admits no martingale shadow")
    a = model.mu / model.sigma
    w_t = noise.increments[:, :, 0].sum(axis=1)
    raw = np.exp(-a * w_t - 0.5 * a * a * noise.grid.horizon)
    total = float(np.dot(noise.probs, raw))
    if not (0.0 < total < math.inf):
        raise NoCpsConstructibleError(f"drift-removal density under- or overflows on this panel (mu/sigma = {a:g})")
    weights = raw / total
    return PriceSystem(
        shadow=_readonly(np.asarray(prices, float).view()),
        weights=_readonly(weights),
        noise=noise,
        mu_level=0.0,
        label=f"girsanov(mu={model.mu}, sigma={model.sigma})",
    )


def constant_cps(noise: NoisePanel, level: float) -> PriceSystem:
    """Price system with a constant shadow price on every path of the panel;
    any constant is a martingale under the base measure itself (weights
    identically one)."""
    if level <= 0.0:
        raise ConfigError("constant shadow level must be positive")
    return PriceSystem(
        shadow=_readonly(np.full((noise.paths, noise.grid.steps + 1), float(level))),
        weights=_readonly(np.ones(noise.paths)),
        noise=noise,
        mu_level=0.0,
        label="constant",
    )


def lattice_cps(prices: Array, noise: NoisePanel) -> PriceSystem:
    """Exact martingale measure for adapted prices on a binomial lattice.

    At each tree node the one-step conditional law puts mass q on the upper
    half and 1 - q on the lower half with q solving the node's martingale
    equation for the prices, whose read-only view is the shadow.  Weights
    multiply the per-step likelihood ratios q / p_half along each path, so
    the shadow is a martingale exactly, node by node; so is any positive
    multiple of it, whose q is the same.
    """
    if noise.kind != "lattice":
        raise ConfigError("exact construction needs a lattice panel")
    if noise.drivers != 1:
        raise NoCpsConstructibleError("exact lattice construction is single-driver")
    shadow = np.asarray(prices, float)
    if shadow.shape != (noise.paths, noise.grid.steps + 1):
        raise ConfigError("prices do not match the lattice panel")
    n = noise.grid.steps
    m = noise.paths
    weights = np.ones(m)
    for i in range(n):
        block = lattice_block(noise, i)
        half = block // 2
        nodes = m // block
        s_now = shadow[::block, i]
        s_up = shadow[::block, i + 1]
        s_dn = shadow[half::block, i + 1]
        denom = s_up - s_dn
        if np.any(np.abs(denom) < 1e-15):
            raise NoCpsConstructibleError("degenerate node: up and down moves coincide")
        q = (s_now - s_dn) / denom
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise NoCpsConstructibleError("martingale weights left (0, 1); price moves do not straddle the node price")
        ratio = np.empty((nodes, block))
        ratio[:, :half] = (2.0 * q)[:, None]
        ratio[:, half:] = (2.0 * (1.0 - q))[:, None]
        weights *= ratio.reshape(m)
    total = float(np.dot(noise.probs, weights))
    if abs(total - 1.0) > 1e-9:
        raise ContractViolation("lattice weights failed to normalize")
    weights = weights / total
    return PriceSystem(
        shadow=_readonly(shadow.view()),
        weights=_readonly(weights),
        noise=noise,
        mu_level=0.0,
        label="lattice",
    )


# slack every verdict forgives for rounding, relative to the magnitude judged
TOL = 1e-10
# standard errors by which a Monte Carlo estimate may exceed its bound
Z_MAX = 3.0


def standard_error(values: Array, noise: NoisePanel) -> float:
    """Standard error of the panel-weighted mean of values (paths,): 0 on a
    lattice panel, whose expectations are exact sums; otherwise over the
    n_eff = 1 / sum(probs^2) samples, 0 for one and inf if a value is not finite."""
    if noise.kind == "lattice":
        return 0.0
    if not np.isfinite(values).all():
        return math.inf
    mean = float(np.dot(noise.probs, values))
    var = float(np.dot(noise.probs, (values - mean) ** 2))
    n_eff = 1.0 / float(np.sum(noise.probs**2))
    if n_eff <= 1.0:
        return 0.0
    return math.sqrt(var / (n_eff - 1.0))


def within(value: float, bound: float, se: float, scale: float = 0.0, z: float = Z_MAX) -> bool:
    """The verdict value <= bound, forgiving z standard errors and
    TOL * max(1, |bound|, scale), where scale is the magnitude of the
    quantities value was computed from.  A value of +inf or nan fails
    whatever its standard error."""
    return value < math.inf and value <= bound + z * se + TOL * max(1.0, abs(bound), scale)


def drift_z(steps: int) -> float:
    """The z at which each of a Monte Carlo panel's steps is judged,
    -Phi^-1(Phi(-Z_MAX) / steps) and never below Z_MAX: a true martingale
    then fails some step's check at most as often as it fails one step's at
    Z_MAX (3 at one step, 3.40 at 4 steps, 4.04 at 50)."""
    from statistics import NormalDist  # loaded by Monte Carlo drift checks only

    phi = NormalDist()
    return max(Z_MAX, -phi.inv_cdf(phi.cdf(-Z_MAX) / steps))


@record
class DriftReport:
    """Step-by-step drift of a value process under Q, each step judged by
    within(rise, 0, se, scale, z): rise is |drift| for the martingale check
    and the signed drift for the supermartingale check, scale the largest
    |X| at the step's two times (a time where X is not finite counts 0), and
    z is drift_z(steps) in mc mode.

    In lattice mode a step's rise is the largest over its tree nodes of the
    exact E_Q[X_{i+1} | node] - X_i, with se 0; in mc mode it is the weighted
    mean increment E_P[w (X_{i+1} - X_i)] with its standard error, and max_z
    counts the largest rise in standard errors (0 on lattices).  max_drift
    is the largest rise judged."""

    passed: bool
    mode: str
    max_drift: float
    max_z: float


def _z(rise: float, se: float) -> float:
    """Standard errors by which a step's drift rises above zero; inf for a
    nan drift, or a rise without a finite positive standard error."""
    if rise <= 0.0:
        return 0.0
    return rise / se if 0.0 < se < math.inf and rise < math.inf else math.inf


def _drift_report(values: Array, ps: PriceSystem, two_sided: bool) -> DriftReport:
    """The DriftReport of values (paths, steps + 1) under ps; two_sided
    judges |drift| instead of the signed drift."""
    noise = ps.noise
    qp = ps.q_probs
    mags = np.maximum(values.max(axis=0), -values.min(axis=0))
    mags[~np.isfinite(mags)] = 0.0
    steps = values.shape[1] - 1
    z = Z_MAX if noise.kind == "lattice" else drift_z(steps)
    passed, worst, max_z = True, -math.inf, 0.0
    for i in range(steps):
        if noise.kind == "lattice":
            block = lattice_block(noise, i)
            num = (qp * values[:, i + 1]).reshape(-1, block).sum(axis=1)
            den = qp.reshape(-1, block).sum(axis=1)
            drift = num / den - values[::block, i]
            rise, se = float(np.max(np.abs(drift) if two_sided else drift)), 0.0
        else:
            inc = ps.weights * (values[:, i + 1] - values[:, i])
            drift = float(np.dot(noise.probs, inc))
            rise, se = abs(drift) if two_sided else drift, standard_error(inc, noise)
            max_z = max(max_z, _z(rise, se))
        passed = within(rise, 0.0, se, float(max(mags[i], mags[i + 1])), z) and passed
        worst = max(worst, rise)
    return DriftReport(passed=passed, mode=noise.kind, max_drift=worst, max_z=max_z)


def verify_martingale(ps: PriceSystem) -> DriftReport:
    return _drift_report(ps.shadow, ps, two_sided=True)


def supermartingale_check(values: Array, ps: PriceSystem) -> DriftReport:
    values = np.asarray(values, float)
    if values.shape != ps.shadow.shape:
        raise ConfigError("value process must match the shadow array shape")
    if ps.noise.kind == "lattice":
        for i in range(values.shape[1] - 1):
            spread = values[:, i].reshape(-1, lattice_block(ps.noise, i))
            if float(np.max(spread.max(axis=1) - spread.min(axis=1))) > 1e-9:
                raise ContractViolation("value process is not adapted to the lattice filtration")
    return _drift_report(values, ps, two_sided=False)


@record
class EntropyReport:
    """Generalized-entropy membership: estimate of E[V(dQ/dP)] with its
    standard error (see standard_error), plus a finiteness heuristic (no
    single path carries half the mass of the estimate)."""

    estimate: float
    se: float
    finite: bool
    max_share: float


def entropy_membership(ps: PriceSystem, vconj: Callable[[Array], Array]) -> EntropyReport:
    vals = np.asarray(vconj(ps.weights), float)
    se = standard_error(vals, ps.noise)
    if not np.all(np.isfinite(vals)):
        return EntropyReport(estimate=math.inf, se=se, finite=False, max_share=1.0)
    est = float(np.dot(ps.noise.probs, vals))
    mass = ps.noise.probs * np.abs(vals)
    total = float(mass.sum())
    share = float(mass.max() / total) if total > 0.0 else 0.0
    return EntropyReport(estimate=est, se=se, finite=share < 0.5, max_share=share)


@record
class PolarityReport:
    """One-sided polarity bound E_P[X y w] <= x0 y for payoffs X reachable
    from x0 and deflators y w built from a price system, judged by within."""

    lhs: float
    bound: float
    se: float
    satisfied: bool


def polarity_gap(terminal: Array, ps: PriceSystem, x0: float, y: float) -> PolarityReport:
    vals = np.asarray(terminal, float) * ps.weights * y
    lhs = float(np.dot(ps.noise.probs, vals))
    se = standard_error(vals, ps.noise)
    bound = x0 * y
    return PolarityReport(lhs=lhs, bound=bound, se=se, satisfied=within(lhs, bound, se))


@record
class CpsCertificate:
    """Analytic existence or nonexistence verdict for a model and cost level."""

    exists: bool
    test_value: float
    reason: str
    shadow_level: Optional[float] = None


def cps_certificate(model: Model, lam: float) -> Optional[CpsCertificate]:
    """Closed-form certificates for registered model families.

    For the arctan family: terminal prices exceed 7/4 on every path while the
    initial price is 1, so for (1 - lambda) * 7/4 > 1 any shadow would have to
    end strictly above every value it may start from, contradicting the
    martingale property; for lambda >= 2/3 the constant 3/4 sits inside the
    band at all times and is trivially a martingale.  Models without a
    registered certificate return None.
    """
    if not (0.0 < lam < 1.0):
        raise ConfigError("lambda must lie strictly between 0 and 1")
    if isinstance(model, ArctanDrift):
        floor = (1.0 - lam) * 7.0 / 4.0
        if floor > 1.0:
            return CpsCertificate(
                exists=False,
                test_value=floor,
                reason=(
                    "terminal bid exceeds every admissible initial shadow: "
                    f"(1 - lambda) * 7/4 = {floor:.6f} > 1 = S_0"
                ),
            )
        if lam >= 2.0 / 3.0:
            return CpsCertificate(
                exists=True,
                test_value=floor,
                reason="constant shadow 3/4 lies inside the band on every path",
                shadow_level=0.75,
            )
        return None
    return None


def registered_cps(
    model: Model, prices: Array, noise: NoisePanel, lam: float, shrink: Optional[float] = None
) -> Optional[PriceSystem]:
    """A model's registered price system on its panel, or None.

    Where cps_certificate has a verdict it decides on any panel: the constant
    shadow at its level if a system exists, else None.  Otherwise the node
    construction on lattices, drift removal for BlackScholes with sigma > 0,
    else None.  shrink, when given, scales the chosen system's shadow by c in
    (0, 1), buying strict band slack on the upper side; mu_level records 1 - c.
    """
    if shrink is not None and not (0.0 < shrink < 1.0):
        raise ConfigError(f"shrink must lie in (0, 1), got {shrink}")
    cert = cps_certificate(model, lam)
    if cert is not None:
        ps = constant_cps(noise, cert.shadow_level) if cert.exists else None
    elif noise.kind == "lattice":
        ps = lattice_cps(prices, noise)
    elif isinstance(model, BlackScholes) and model.sigma > 0.0:
        ps = girsanov_cps(model, prices, noise)
    else:
        ps = None
    if ps is None or shrink is None:
        return ps
    return PriceSystem(
        shadow=_readonly(shrink * ps.shadow), weights=ps.weights, noise=noise, mu_level=1.0 - shrink, label=ps.label
    )
