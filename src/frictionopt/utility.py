"""Utility functions, their convex conjugates, and the checks that a utility
meets the growth and structural assumptions of the duality theory.

Utilities are concave and nondecreasing, either on the positive axis (log,
power) or on the whole line (bounded exponential-type).  Each factory builds
the utility's closed forms: U, U', the conjugate V(y) = sup_x (U(x) - x y),
the asymptotic elasticity and the identity that scales an optimal value with
the endowment.  conjugate() computes V by ternary search on the concave map
x -> U(x) - x y instead, and the tests hold every closed form to it; the same
searches find a price system's best dual level (best_dual_level).  The
Orlicz-space objects built from them live in fvproc.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ConjugateUnboundedError
from .records import record

Array = np.ndarray


@record
class UtilitySpec:
    """A concave nondecreasing utility with its domain convention and closed
    forms.

    domain is "positive" for utilities defined on (0, inf) (extended by -inf
    at nonpositive wealth) or "real" for whole-line utilities.  fn is U, deriv
    is U' (the solver's supergradient) and conj is V; each takes and returns
    numpy arrays.  elasticity is the asymptotic elasticity
    lim sup x U'(x) / U(x) as x grows (nan when unknown).  rescale(v, x0, k),
    when given, is the optimal value at endowment k x0 from the value v at x0.
    """

    name: str
    domain: str
    fn: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    conj: Callable[[Array], Array]
    elasticity: float = math.nan
    rescale: Optional[Callable[[float, float, float], float]] = None

    def __post_init__(self) -> None:
        if self.domain not in ("positive", "real"):
            raise ConfigError(f"domain must be 'positive' or 'real', got {self.domain!r}")

    def __call__(self, x: Array) -> Array:
        return self.fn(np.asarray(x, float))


def log_utility() -> UtilitySpec:
    def fn(x: Array) -> Array:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)

    def deriv(x: Array) -> Array:
        return np.where(x > 0.0, 1.0 / np.where(x > 0.0, x, 1.0), np.inf)

    return UtilitySpec(
        "log", "positive", fn, deriv, lambda y: -np.log(y) - 1.0, elasticity=0.0,
        rescale=lambda v, x0, k: v + math.log(k),
    )


def power_utility(p: float) -> UtilitySpec:
    """U(x) = x^p / p for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ConfigError(f"power exponent must lie in (0, 1), got {p}")

    def fn(x: Array) -> Array:
        with np.errstate(invalid="ignore"):
            return np.where(x > 0.0, np.power(np.where(x > 0.0, x, 1.0), p) / p, -np.inf)

    def deriv(x: Array) -> Array:
        return np.where(x > 0.0, np.power(np.where(x > 0.0, x, 1.0), p - 1.0), np.inf)

    def conj(y: Array) -> Array:
        return (1.0 / p - 1.0) * np.power(y, p / (p - 1.0))

    return UtilitySpec("power", "positive", fn, deriv, conj, elasticity=p, rescale=lambda v, x0, k: k**p * v)


def exp_utility(a: float = 1.0) -> UtilitySpec:
    """Whole-line bounded utility U(x) = 1 - exp(-a x), normalized to U(0) = 0."""
    if not (0.0 < a < math.inf):
        raise ConfigError(f"exp utility needs a finite a > 0, got {a}")

    def fn(x: Array) -> Array:
        with np.errstate(over="ignore"):
            return 1.0 - np.exp(-a * x)

    def deriv(x: Array) -> Array:
        with np.errstate(over="ignore"):
            return a * np.exp(-a * x)

    def conj(y: Array) -> Array:
        # sup_x (1 - e^{-ax} - xy) at x = -ln(y/a)/a
        return 1.0 - y / a + (y / a) * np.log(y / a)

    def rescale(v: float, x0: float, k: float) -> float:
        with np.errstate(over="ignore"):
            return float(1.0 - np.exp(-a * (k - 1.0) * x0) * (1.0 - v))

    return UtilitySpec("exp", "real", fn, deriv, conj, rescale=rescale)


def table_utility(xs: Sequence[float], us: Sequence[float]) -> UtilitySpec:
    """Piecewise-linear utility through given knots, extrapolated by end slopes.

    Knots must be strictly increasing in x with concave nondecreasing values.
    The domain is "real" when the knots cross zero, otherwise "positive".
    The conjugate is exact: V(y) = max_j (u_j - x_j y), on the positive axis
    also over the x -> 0+ end value u_0 - s_0 x_0 (a knot at 0); it is +inf
    for y below the last slope and, on the whole line, above the first.
    """
    x = np.asarray(xs, float)
    u = np.asarray(us, float)
    if x.ndim != 1 or x.shape != u.shape or x.size < 2:
        raise ConfigError("table utility needs two equal-length 1d knot arrays")
    if np.any(np.diff(x) <= 0.0):
        raise ConfigError("knot abscissae must be strictly increasing")
    slopes = np.diff(u) / np.diff(x)
    if np.any(slopes < 0.0):
        raise ConfigError("table utility must be nondecreasing")
    if np.any(np.diff(slopes) > 1e-12):
        raise ConfigError("table utility must be concave")
    domain = "real" if x[0] < 0.0 else "positive"

    def fn(q: Array) -> Array:
        lo = u[0] + slopes[0] * (np.minimum(q, x[0]) - x[0])
        hi = u[-1] + slopes[-1] * (np.maximum(q, x[-1]) - x[-1])
        mid = np.interp(q, x, u)
        out = np.where(q < x[0], lo, np.where(q > x[-1], hi, mid))
        if domain == "positive":
            out = np.where(q > 0.0, out, -np.inf)
        return out

    # slope on each of the n + 1 pieces (-inf, x0), (x0, x1), ..., (x_{n-1}, inf);
    # at a knot the mean of the two adjacent slopes
    piece_slopes = np.concatenate([slopes[:1], slopes, slopes[-1:]])

    def deriv(q: Array) -> Array:
        left = piece_slopes[np.searchsorted(x, q, side="left")]
        right = piece_slopes[np.searchsorted(x, q, side="right")]
        out = 0.5 * (left + right)
        if domain == "positive":
            out = np.where(q > 0.0, out, np.inf)
        return out

    heights, abscissae = u, x
    if domain == "positive":
        heights, abscissae = np.append(u, u[0] - slopes[0] * x[0]), np.append(x, 0.0)

    def conj(y: Array) -> Array:
        out = np.max(heights - abscissae * y[..., None], axis=-1)
        unbounded = y < slopes[-1]
        if domain == "real":
            unbounded |= y > slopes[0]
        return np.where(unbounded, np.inf, out)

    # a positive last slope makes U grow linearly: elasticity 1; flat, 0
    return UtilitySpec("custom-table", domain, fn, deriv, conj, elasticity=1.0 if slopes[-1] > 0.0 else 0.0)


def scaled_value(u: UtilitySpec, value: float, x0: float, k: float) -> Optional[float]:
    """The optimal value at endowment k x0 from the optimal value v at x0.
    Gains are positively homogeneous in the policy under proportional costs
    and the nonnegative-wealth set is a cone, so log adds log k and power
    scales by k^p; exp translates instead: 1 - e^{-a (k - 1) x0} (1 - v).
    None for a utility without such an identity."""
    if k == 1.0:
        return value
    return None if u.rescale is None else u.rescale(value, x0, k)


def growth_ok(u: UtilitySpec) -> bool:
    """The growth condition under which optimal strategies exist: asymptotic
    elasticity below 1 on the positive axis (Kramkov & Schachermayer), the
    structural checks of check_assumptions on the whole line."""
    return not check_assumptions(u) if u.domain == "real" else u.elasticity < 1.0


_BRACKET_CAP = 1e120
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _bracket(g: Callable[[float], float], x: float, message: str) -> float:
    """Double x while the concave g still rises from x to 2x and return the
    first 2x it does not rise to: the maximizer lies on 0's side of it.
    Doubling past _BRACKET_CAP in size means g has no maximum."""
    while g(2.0 * x) > g(x):
        x *= 2.0
        if abs(x) > _BRACKET_CAP:
            raise ConjugateUnboundedError(message)
    return 2.0 * x


def _ternary_max(g: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Maximize a concave scalar function on [lo, hi] to abscissa width tol."""
    a, b = lo, hi
    while b - a > tol:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if g(m1) < g(m2):
            a = m1
        else:
            b = m2
    x = 0.5 * (a + b)
    return x, g(x)


def conjugate(u: UtilitySpec, y: float, tol: float = 1e-10) -> float:
    """V(y) = sup_x (U(x) - x y) by bracketing and ternary search.

    For positive-domain utilities the supremum runs over x > 0; for whole-line
    utilities over all reals.  A bracket that keeps growing past 1e120 means
    the conjugate is infinite at this y.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise ConjugateUnboundedError(f"conjugate requested at y = {y}; finite only for y > 0")

    def g(x: float) -> float:
        return float(u(np.asarray([x]))[0]) - x * y

    hi = _bracket(g, 1.0, f"conjugate diverges at y = {y}")
    if u.domain == "positive":
        probe = min(1.0, hi / 4.0)
        while g(0.5 * probe) > g(probe) and probe > 1e-280:
            probe *= 0.5
        lo = probe * 0.25
    else:
        lo = _bracket(g, -1.0, f"conjugate diverges at y = {y}")
    _, best = _ternary_max(g, lo, hi, tol)
    return best


def best_dual_level(u: UtilitySpec, weights: Array, probs: Array, x0: float) -> float:
    """The level y > 0 that minimizes the dual bound f(y) = E[V(y w)] + x0 y
    of a price system's weights w, by bracketing and ternary search on the
    concave -f along log y, from y = 1 or the nearer end of f's window.

    f is finite where every y w lies in V's domain [U'(inf), U'(-inf)]:
    all of (0, inf) for log, power and exp, the end slopes for a table.
    The search stays in that window, cut to where every y w is a normal
    float.  Where the window is empty f is +inf at every level, and its
    lower end is returned.
    """
    with np.errstate(all="ignore"):
        slope_lo, slope_hi = u.deriv(np.asarray([np.inf, -np.inf]))
    # max and min keep the window inside the normal floats: U'(inf) is 0 and
    # U'(-inf) inf for log, power and exp
    y_lo = float(max(_TINY, slope_lo) / np.min(weights))
    y_hi = float(min(_HUGE, slope_hi) / np.max(weights))
    if not y_lo < y_hi:
        return y_lo
    lo, hi = math.log(y_lo), math.log(y_hi)
    mid = min(max(0.0, lo), hi)

    def g(s: float) -> float:
        # a level past the window reads as its end, so a bracket stops there;
        # one where V's arithmetic over- or underflows to nan, as unbounded
        y = math.exp(min(max(mid + s, lo), hi))
        f = float(np.dot(probs, vector_conjugate(u, y * weights))) + x0 * y
        return -math.inf if math.isnan(f) else -f

    a = max(_bracket(g, -1.0, "dual bound has no minimum"), lo - mid)
    b = min(_bracket(g, 1.0, "dual bound has no minimum"), hi - mid)
    return math.exp(mid + _ternary_max(g, a, b, 1e-10)[0])


def vector_conjugate(u: UtilitySpec, points: Array) -> Array:
    """V on an array of strictly positive points, by the utility's closed form."""
    pts = np.asarray(points, float)
    if np.any(pts <= 0.0):
        raise ConjugateUnboundedError("vectorized conjugate needs strictly positive points")
    return np.asarray(u.conj(pts), float)


def check_assumptions(u: UtilitySpec) -> tuple[str, ...]:
    """Structural checks for whole-line utilities: U(0) = 0, nondecreasing
    and concave on probes (judged from U' there), bounded above (U'(inf) = 0
    and a small rise far right), and U(x)/x increasing toward -infinity,
    where U reaching -inf counts as a rise.  Returns the name of each check
    that fails; empty when all pass."""
    if u.domain != "real":
        raise ConfigError("assumption checks apply to whole-line utilities")
    failures = []
    probes = np.asarray([-1e3, -1e2, -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 1e2, 1e3])
    with np.errstate(all="ignore"):
        slopes = np.asarray(u.deriv(probes), float)
        top = float(u.deriv(np.asarray([np.inf]))[0])
        tail = float(u(np.asarray([1e8]))[0]) - float(u(np.asarray([1e6]))[0])
        xs = np.asarray([-10.0, -1e2, -1e3])
        vals = np.asarray(u(xs), float)
        ratios = vals / xs
    if float(u(np.asarray([0.0]))[0]) != 0.0:
        failures.append("U(0) != 0")
    if not np.all(slopes >= 0.0):
        failures.append("not nondecreasing")
    if not np.all(slopes[1:] <= slopes[:-1] + 1e-9):
        failures.append("not concave on probes")
    if not (top <= 0.0 and tail <= 1e-6 * 1e8):
        failures.append("appears unbounded above")
    if not np.all((ratios[1:] > ratios[:-1]) | (vals[1:] == -np.inf)):
        failures.append("U(x)/x not increasing along x -> -inf probes")
    return tuple(failures)
