"""The record contract: every frozen record the package declares behaves as
the frozen dataclass it replaced, and the dataclasses functions accept it."""

import dataclasses
import math
import pkgutil
from dataclasses import FrozenInstanceError, asdict, fields, is_dataclass, replace
from importlib import import_module

import numpy as np
import pytest

import frictionopt
from frictionopt import (
    ArctanDrift,
    BlackScholes,
    CostSpec,
    MonotonePath,
    OptimizerSettings,
    RationalEnumeration,
    TimeGrid,
    UtilitySpec,
    brute_force,
    check_admissible_rplus,
    constant_cps,
    converges_at_continuity_points,
    cps_certificate,
    default_price_systems,
    delta2_ratio,
    duality_report,
    entropy_membership,
    exp_utility,
    gaussian_panel,
    komlos_average,
    objective,
    polarity_gap,
    rho,
    run_ledger,
    solve,
    supermartingale_check,
    verify_band,
    verify_martingale,
    young_pair,
)
from frictionopt.config import parse_config
from frictionopt.errors import ConfigError, InvalidModelError


def record_classes() -> list:
    """Every dataclass the package's modules define, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(frictionopt.__path__):
        module = import_module(f"frictionopt.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and is_dataclass(value) and value.__module__ == module.__name__:
                found[value.__qualname__] = value
    return [found[name] for name in sorted(found)]


RECORDS = record_classes()

DOC = {
    "seed": 3,
    "grid": {"horizon": 1.0, "steps": 2},
    "noise": {"kind": "mc", "paths": 8, "drivers": 2},
    "cost": {"lambda": 0.01, "x0": 1.0},
    "thetas": [
        {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
        {"type": "path_dependent_bs", "mu": {"kind": "const", "value": 0.05}, "sigma": {"kind": "const", "value": 0.2}},
        {"type": "factor", "theta": [[0.1, 0.0], [0.0, 0.0]], "sigma": 0.2, "rho": [1.0, 0.0]},
        {"type": "arctan_drift"},
    ],
    "utility": {"name": "log"},
    "optimizer": {"iters": 2},
}
LATTICE = dict(DOC, noise={"kind": "lattice"}, thetas=DOC["thetas"][:1], policy={"class": "lattice-policy"})


@pytest.fixture(scope="module")
def examples() -> dict:
    """One instance of every record class, made by the engine's own calls."""
    config = parse_config(DOC)
    problem = config.build_problem()
    report = solve(problem, config.optimizer)
    systems = default_price_systems(problem)
    ps = systems[0][1]
    dual = duality_report(problem, report, systems)
    ledger = run_ledger(report.strategy, problem.prices[0], problem.cost)
    value, terminal = ledger.liq, ledger.terminal_liq()
    path = MonotonePath(config.grid, np.array([0.0, 1.0, 0.5]))
    enum = RationalEnumeration(1.0, 4)
    komlos = komlos_average([path, path])
    pair = young_pair(exp_utility(1.0))
    lattice = parse_config(LATTICE).build_problem()
    made = [
        config, config.grid, config.cost, config.utility, config.optimizer, config.thetas, *config.thetas.models,
        problem.noise, problem, report, report.strategy, objective(problem, report.best_params), ps, dual,
        dual.rows[0], dual.inada[0], ledger, check_admissible_rplus(ledger),
        verify_band(problem.prices[0], ps, 0.01), verify_martingale(ps), supermartingale_check(value, ps),
        entropy_membership(ps, lambda w: -np.log(w) - 1.0), polarity_gap(terminal, ps, 1.0, 1.0),
        cps_certificate(ArctanDrift(), 0.42), path, enum, rho(path, path, enum),
        komlos, converges_at_continuity_points(komlos.averages, komlos.candidate, 1e-9), pair,
        delta2_ratio(pair.phi), brute_force(lattice, [0.0, 1.0], [0.0]),
    ]
    return {type(obj): obj for obj in made}


def init_arguments(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}


def test_every_record_class_has_an_example(examples):
    assert len(RECORDS) == 34
    assert sorted(examples, key=lambda cls: cls.__qualname__) == RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_assignment_and_deletion_raise(self, examples, cls):
        obj = examples[cls]
        for name in [f.name for f in fields(obj)] + ["not_a_field"]:
            with pytest.raises(FrozenInstanceError, match=name):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError, match=name):
                delattr(obj, name)

    def test_the_dataclasses_functions_accept_it(self, examples, cls):
        obj = examples[cls]
        names = [f.name for f in fields(obj)]
        assert is_dataclass(obj) and is_dataclass(cls)
        assert list(asdict(obj)) == names
        copy = replace(obj)
        assert type(copy) is cls and repr(copy) == repr(obj)
        assert cls.__match_args__ == tuple(init_arguments(obj))

    def test_repr_shows_the_repr_fields_only(self, examples, cls):
        text = repr(examples[cls])
        assert text.startswith(f"{cls.__qualname__}(")
        for f in fields(cls):
            assert (f" {f.name}=" in text or f"({f.name}=" in text) == f.repr

    def test_a_missing_unexpected_or_repeated_argument_raises(self, examples, cls):
        kwargs = init_arguments(examples[cls])
        first = next(iter(kwargs))
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**kwargs, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(kwargs[first], **kwargs)
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*kwargs.values(), None)
        required = [f.name for f in fields(cls) if f.init and f.default is f.default_factory is dataclasses.MISSING]
        if required:
            with pytest.raises(TypeError, match=f"missing .*required positional argument.*'{required[0]}'"):
                cls()
        assert repr(cls(*kwargs.values())) == repr(examples[cls])


def test_hidden_fields_are_the_derived_and_echoed_ones():
    hidden = {(cls.__qualname__, f.name) for cls in RECORDS for f in fields(cls) if not f.repr}
    assert hidden == {
        ("NoisePanel", "probs"),
        ("RationalEnumeration", "points"),
        ("RobustProblem", "codec"),
        ("RobustProblem", "prices"),
        ("RunConfig", "echo"),
        ("TimeGrid", "times"),
    }


def test_replace_reruns_post_init():
    with pytest.raises(InvalidModelError, match="sigma"):
        replace(BlackScholes(0.1, 0.2), sigma=-1.0)
    with pytest.raises(ConfigError, match="lambda"):
        replace(CostSpec(0.01, 1.0), lam=1.0)
    grid = replace(TimeGrid(1.0, 2), steps=4)
    assert grid.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_scalar_records_compare_and_hash_by_their_fields():
    assert CostSpec(0.01, 1.0) == CostSpec(lam=0.01, x0=1.0)
    assert CostSpec(0.01, 1.0) != CostSpec(0.02, 1.0)
    assert hash(CostSpec(0.01, 1.0)) == hash(CostSpec(x0=1.0, lam=0.01)) == hash((0.01, 1.0))
    assert BlackScholes(0.1, 0.2) == BlackScholes(0.1, 0.2, s0=1.0)
    assert len({BlackScholes(0.1, 0.2), BlackScholes(0.1, 0.2, 1.0), BlackScholes(0.1, 0.3)}) == 2
    assert TimeGrid(1.0, 2) == TimeGrid(1.0, 2)  # times is not compared
    assert CostSpec.__eq__(CostSpec(0.01, 1.0), BlackScholes(0.01, 1.0)) is NotImplemented
    assert BlackScholes(0.1, 0.2) != ArctanDrift()
    assert repr(CostSpec(0.01, 1.0)) == "CostSpec(lam=0.01, x0=1.0)"


def test_panels_and_price_systems_compare_and_hash_by_identity():
    """Their fields are arrays, which have no value equality: a panel or a
    price system equals only itself, so it can be asked whether a system
    sits on a given panel."""
    grid = TimeGrid(1.0, 2)
    panel, twin = gaussian_panel(grid, 3), gaussian_panel(grid, 3)
    ps, ps_twin = constant_cps(panel, 0.75), constant_cps(panel, 0.75)
    for obj, other in ((panel, twin), (ps, ps_twin)):
        assert obj == obj and obj != other and not obj == other
        assert hash(obj) == object.__hash__(obj)
        assert len({obj, other, obj}) == 2
    assert ps.noise == panel and ps.noise != twin
    assert replace(panel) != panel and replace(ps) != ps


def test_defaults_fill_omitted_fields():
    settings = OptimizerSettings(step0=0.5)
    assert (settings.iters, settings.step0) == (150, 0.5)
    u = UtilitySpec("u", "real", abs, abs, abs)
    assert math.isnan(u.elasticity) and u.rescale is None
    match BlackScholes(0.1, 0.2):
        case BlackScholes(mu, sigma, s0):
            assert (mu, sigma, s0) == (0.1, 0.2, 1.0)
