"""Run configuration: strict JSON parsing with defaults for everything except
the model family, the cost level, and the utility.

Unknown keys anywhere in the document are rejected, so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from .accounting import CostSpec
from .errors import ConfigError
from .records import record
from .scenario import (
    ArctanDrift,
    BlackScholes,
    Factor,
    Model,
    NoisePanel,
    PathDependentBS,
    ThetaGrid,
    TimeGrid,
    gaussian_panel,
    lattice_panel,
    lattice_paths,
)
from .utility import UtilitySpec, exp_utility, log_utility, power_utility, table_utility

if TYPE_CHECKING:
    from .solver import RobustProblem


# bytes a config may ask a command to hold at once; a config over it is
# refused before anything is allocated
MAX_WORK_BYTES = 1 << 30


def _check_work_budget(steps: int, paths: int, drivers: int, models: int, policy_class: str) -> None:
    """Count what a command holds at its peak: the price stack, the noise
    panel, two arrays the size of one model's prices (a ledger's cash and
    liq, or the band check's buffers) and the time grid, and for a lattice
    policy also the codec's two index arrays and one decode's four arrays."""
    arrays = {
        f"price stack of {models} x {paths} x {steps + 1}": models * paths * (steps + 1),
        f"noise panel of {paths} x {steps} x {drivers}": paths * steps * drivers,
        f"2 model arrays of {paths} x {steps + 1}": 2 * paths * (steps + 1),
        f"time grid of {steps + 1}": steps + 1,
    }
    if policy_class == "lattice-policy":
        arrays[f"2 codec indices of {paths} x {steps - 1}"] = 2 * paths * (steps - 1)
        arrays[f"4 decode arrays of {paths} x {steps + 1}"] = 4 * paths * (steps + 1)
    total = 8 * sum(arrays.values())
    if total > MAX_WORK_BYTES:
        parts = ", ".join(f"{name} ({8 * n:,} bytes)" for name, n in arrays.items())
        raise ConfigError(f"the {parts} would take {total:,} bytes, over the work budget of {MAX_WORK_BYTES:,} bytes")


POLICY_CLASSES = ("deterministic-schedule", "lattice-policy")


def check_policy_class(policy_class: Any, noise_kind: str) -> None:
    """A policy class is one of POLICY_CLASSES, and a lattice policy needs
    lattice noise, whose tree nodes it is indexed by."""
    if policy_class not in POLICY_CLASSES:
        raise ConfigError(f"policy.class must be one of {', '.join(POLICY_CLASSES)}, got {policy_class!r}")
    if policy_class == "lattice-policy" and noise_kind != "lattice":
        raise ConfigError("lattice policies need a lattice noise panel")


def check_capital(utility: UtilitySpec, x0: float) -> None:
    """A positive-axis utility is judged by nonnegative-wealth
    admissibility, which needs positive capital: at x0 <= 0 even the zero
    strategy fails it."""
    if utility.domain == "positive" and x0 <= 0.0:
        raise ConfigError("nonnegative-wealth admissibility needs x0 > 0")


def _require_keys(section: str, d: dict, allowed: set[str], required: set[str] = frozenset()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing required key(s) in {section}: {sorted(missing)}")


def _number(where: str, v: Any) -> float:
    """A finite JSON number as a float; NaN, the infinities and integers too
    large for a float are not numbers here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _num(section: str, d: dict, key: str, default: Optional[float] = None) -> float:
    return _number(f"{section}.{key}", d.get(key, default))


def _numbers(where: str, v: Any, length: Optional[int] = None) -> tuple[float, ...]:
    """A JSON array of numbers, of the given length when one is given."""
    if not isinstance(v, list) or (length is not None and len(v) != length):
        size = "" if length is None else f"{length} "
        raise ConfigError(f"{where} must be an array of {size}numbers, got {v!r}")
    return tuple(_number(f"{where}[{i}]", x) for i, x in enumerate(v))


def _int(section: str, d: dict, key: str, default: Optional[int] = None, least: Optional[int] = None) -> int:
    """An integer that is not a bool, and at least `least` when one is given."""
    v = d.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{section}.{key} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ConfigError(f"{section}.{key} must be at least {least}, got {v}")
    return v


def _coeff_fn(section: str, d: Any):
    """Coefficient selector for the path-dependent family: a constant or an
    affine function of time, both JSON-representable."""
    _require_keys(section, d, {"kind", "value", "a", "b"}, {"kind"})
    kind = d["kind"]
    if kind == "const":
        c = _num(section, d, "value")
        return lambda t, past: c
    if kind == "linear_t":
        a = _num(section, d, "a")
        b = _num(section, d, "b")
        return lambda t, past: a * t + b
    raise ConfigError(f"{section}.kind must be 'const' or 'linear_t', got {kind!r}")


def parse_model(spec: Any, idx: int) -> Model:
    section = f"thetas[{idx}]"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{section} must be an object with a 'type' key")
    mtype = spec["type"]
    if mtype == "black_scholes":
        _require_keys(section, spec, {"type", "mu", "sigma", "s0"}, {"mu", "sigma"})
        return BlackScholes(mu=_num(section, spec, "mu"), sigma=_num(section, spec, "sigma"),
                            s0=_num(section, spec, "s0", 1.0))
    if mtype == "arctan_drift":
        _require_keys(section, spec, {"type"})
        return ArctanDrift()
    if mtype == "path_dependent_bs":
        _require_keys(
            section, spec, {"type", "mu", "sigma", "mu_bounds", "sigma_bounds", "s0"}, {"mu", "sigma"}
        )
        kwargs: dict[str, Any] = {
            "mu_fn": _coeff_fn(f"{section}.mu", spec["mu"]),
            "sigma_fn": _coeff_fn(f"{section}.sigma", spec["sigma"]),
            "s0": _num(section, spec, "s0", 1.0),
        }
        for key in ("mu_bounds", "sigma_bounds"):
            if key in spec:
                kwargs[key] = _numbers(f"{section}.{key}", spec[key], 2)
        return PathDependentBS(**kwargs)
    if mtype == "factor":
        _require_keys(
            section, spec, {"type", "theta", "sigma", "rho", "m", "g", "s0", "y0"}, {"theta", "sigma", "rho"}
        )
        th = spec["theta"]
        if not isinstance(th, list) or len(th) != 2:
            raise ConfigError(f"{section}.theta must be a 2x2 array")
        m_spec = spec.get("m", {"kind": "affine", "a": 0.0, "b": 0.0})
        g_spec = spec.get("g", {"kind": "affine", "a": 0.0, "b": 0.0})

        def affine(sec: str, d: Any):
            _require_keys(sec, d, {"kind", "a", "b"}, {"kind"})
            if d["kind"] != "affine":
                raise ConfigError(f"{sec}.kind must be 'affine'")
            a, b = _num(sec, d, "a", 0.0), _num(sec, d, "b", 0.0)
            return lambda y: a * y + b

        return Factor(
            theta=tuple(_numbers(f"{section}.theta[{r}]", row, 2) for r, row in enumerate(th)),
            m_fn=affine(f"{section}.m", m_spec),
            g_fn=affine(f"{section}.g", g_spec),
            sigma=_num(section, spec, "sigma"),
            rho=_numbers(f"{section}.rho", spec["rho"], 2),
            s0=_num(section, spec, "s0", 1.0),
            y0=_num(section, spec, "y0", 0.0),
        )
    raise ConfigError(f"{section}.type {mtype!r} is not a known model type")


def parse_utility(spec: Any) -> UtilitySpec:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("utility must be an object with a 'name' key")
    name = spec["name"]
    if name == "log":
        _require_keys("utility", spec, {"name"})
        return log_utility()
    if name == "power":
        _require_keys("utility", spec, {"name", "p"}, {"p"})
        return power_utility(_num("utility", spec, "p"))
    if name == "exp":
        _require_keys("utility", spec, {"name", "a"})
        return exp_utility(_num("utility", spec, "a", 1.0))
    if name == "custom-table":
        _require_keys("utility", spec, {"name", "x", "u"}, {"x", "u"})
        return table_utility(_numbers("utility.x", spec["x"]), _numbers("utility.u", spec["u"]))
    raise ConfigError(f"utility name {name!r} is not known")


@record
class OptimizerSettings:
    """Projected supergradient ascent controls for solver.solve: iters
    iterations (an integer of at least 1), and steps of step0 / sqrt(k) along
    the normalized supergradient (step0 positive and finite).  A rejected step
    (robust value -inf) is halved up to solver.MAX_HALVINGS times before the
    iterate stays put.
    """

    iters: int = 150
    step0: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.iters, int) or isinstance(self.iters, bool):
            raise ConfigError(f"optimizer.iters must be an integer, got {self.iters!r}")
        if self.iters < 1:
            raise ConfigError(f"optimizer.iters must be at least 1, got {self.iters}")
        if not 0.0 < self.step0 < math.inf:
            raise ConfigError(f"optimizer.step0 must be positive and finite, got {self.step0!r}")


TOP_KEYS = {
    "seed", "threads", "out", "grid", "noise", "cost", "thetas", "utility",
    "policy", "optimizer", "verify",
}


@record
class RunConfig:
    """Fully resolved run configuration plus the normalized document that
    produced it (echoed into manifests)."""

    seed: int
    threads: int
    out: str
    grid: TimeGrid
    noise_kind: str
    noise_paths: int
    noise_drivers: int
    cost: CostSpec
    thetas: ThetaGrid
    utility: UtilitySpec
    policy_class: str
    long_only: bool
    optimizer: OptimizerSettings
    verify: dict
    echo: dict = field(repr=False)

    def build_noise(self) -> NoisePanel:
        if self.noise_kind == "lattice":
            return lattice_panel(self.grid, self.noise_drivers)
        return gaussian_panel(self.grid, self.noise_paths, self.noise_drivers, self.seed)

    def build_problem(self) -> RobustProblem:
        from .solver import RobustProblem

        return RobustProblem(
            cost=self.cost,
            thetas=self.thetas,
            utility=self.utility,
            noise=self.build_noise(),
            policy_class=self.policy_class,
            long_only=self.long_only,
        )


def load_config(path: str | Path, overrides: Optional[dict] = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def parse_config(doc: Any, overrides: Optional[dict] = None) -> RunConfig:
    """Validate a config document and apply CLI overrides (seed, threads, out)."""
    _require_keys("config", doc, TOP_KEYS, {"thetas", "cost", "utility"})
    doc = dict(doc)
    for key, val in (overrides or {}).items():
        if val is not None:
            doc[key] = val

    seed = _int("config", doc, "seed", 0, least=0)
    if seed >= 1 << 64:  # the width of a Philox key word
        raise ConfigError(f"config.seed must be below 2**64, got {seed}")
    threads = _int("config", doc, "threads", 1, least=1)
    out = doc.get("out", "run-out")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError(f"out must be a nonempty string without NUL characters, got {out!r}")

    grid_spec = doc.get("grid", {})
    _require_keys("grid", grid_spec, {"horizon", "steps"})
    horizon, steps = _num("grid", grid_spec, "horizon", 1.0), _int("grid", grid_spec, "steps", 50, least=1)

    noise_spec = doc.get("noise", {})
    _require_keys("noise", noise_spec, {"kind", "paths", "drivers"})
    noise_kind = noise_spec.get("kind", "mc")
    if noise_kind not in ("mc", "lattice"):
        raise ConfigError(f"noise.kind must be 'mc' or 'lattice', got {noise_kind!r}")
    noise_paths = _int("noise", noise_spec, "paths", 1000, least=1 if noise_kind == "mc" else None)
    noise_drivers = _int("noise", noise_spec, "drivers", 0)

    cost_spec = doc.get("cost")
    _require_keys("cost", cost_spec, {"lambda", "x0"}, {"lambda"})
    cost = CostSpec(lam=_num("cost", cost_spec, "lambda"), x0=_num("cost", cost_spec, "x0", 1.0))

    theta_spec = doc.get("thetas")
    if not isinstance(theta_spec, list) or not theta_spec:
        raise ConfigError("thetas must be a nonempty array of model objects")
    thetas = ThetaGrid(tuple(parse_model(s, i) for i, s in enumerate(theta_spec)))
    needed_drivers = max(m.drivers for m in thetas.models)
    if noise_drivers == 0:
        noise_drivers = needed_drivers
    elif noise_drivers < needed_drivers:
        raise ConfigError(f"noise.drivers = {noise_drivers} but the family needs {needed_drivers}")

    utility = parse_utility(doc.get("utility"))
    check_capital(utility, cost.x0)

    policy_spec = doc.get("policy", {})
    _require_keys("policy", policy_spec, {"class", "long_only"})
    policy_class = policy_spec.get("class", "deterministic-schedule")
    check_policy_class(policy_class, noise_kind)
    long_only = policy_spec.get("long_only", False)
    if not isinstance(long_only, bool):
        raise ConfigError("policy.long_only must be a boolean")
    if noise_kind == "lattice":  # a lattice ignores paths: it enumerates every sign path of the grid
        noise_paths = lattice_paths(steps, noise_drivers)
    _check_work_budget(steps, noise_paths, noise_drivers, len(thetas), policy_class)
    grid = TimeGrid(horizon, steps)

    opt_spec = doc.get("optimizer", {})
    _require_keys("optimizer", opt_spec, {"iters", "step0"})
    optimizer = OptimizerSettings(iters=opt_spec.get("iters", 150), step0=_num("optimizer", opt_spec, "step0", 0.25))

    verify = doc.get("verify", {})
    _require_keys("verify", verify, {"theta_index", "construction", "shrink"})
    theta_index = _int("verify", verify, "theta_index", 0)
    if not (0 <= theta_index < len(thetas)):
        raise ConfigError("verify.theta_index out of range")
    # verify-cps checks the model's registered system (cps.registered_cps),
    # the one duality checks; the key stays so that configs naming it parse
    if verify.get("construction", "auto") != "auto":
        raise ConfigError(f"verify.construction must be 'auto', got {verify['construction']!r}")
    shrink = None if verify.get("shrink") is None else _num("verify", verify, "shrink")
    if shrink is not None and not 0.0 < shrink < 1.0:
        raise ConfigError(f"verify.shrink must lie in (0, 1) or be null, got {shrink!r}")
    verify_resolved = {"theta_index": theta_index, "shrink": shrink}

    echo = {
        "seed": seed,
        "threads": threads,
        "out": out,
        "grid": {"horizon": grid.horizon, "steps": grid.steps},
        "noise": {"kind": noise_kind, "paths": noise_paths, "drivers": noise_drivers},
        "cost": {"lambda": cost.lam, "x0": cost.x0},
        "thetas": theta_spec,
        "utility": {k: v for k, v in (doc.get("utility") or {}).items()},
        "policy": {"class": policy_class, "long_only": long_only},
        "optimizer": {
            "iters": optimizer.iters,
            "step0": optimizer.step0,
        },
        "verify": verify_resolved,
    }
    return RunConfig(
        seed=seed,
        threads=threads,
        out=out,
        grid=grid,
        noise_kind=noise_kind,
        noise_paths=noise_paths,
        noise_drivers=noise_drivers,
        cost=cost,
        thetas=thetas,
        utility=utility,
        policy_class=policy_class,
        long_only=long_only,
        optimizer=optimizer,
        verify=verify_resolved,
        echo=echo,
    )
