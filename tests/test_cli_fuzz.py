"""Seeded config-mutation fuzz of the CLI's exit-code contract.

Every mutation of two small, valid configs (a 2-step lattice and a 4-step
Monte Carlo family) is run through ``cli.main`` in process: the exit code
must be 0, 2, 3 or 4, and stderr (with any Python warning counted as a line
of it) must be empty or one ``error:`` line.  A mutation drops a key, swaps
a value's type, sets NaN, an infinity or a negative number, or wraps a value
in a list or an object.  Mutations that would fall back to a default above
the work budget (grid steps 5, paths 200, iterations 5) are left out.
"""

import json
import math
import random
import warnings

import pytest

from frictionopt.cli import main

SEED = 20180611
CASES = 300
COMMANDS = ("simulate", "verify-cps", "solve", "duality")

LATTICE_DOC = {
    "seed": 3,
    "grid": {"horizon": 1.0, "steps": 2},
    "noise": {"kind": "lattice", "paths": 64, "drivers": 1},
    "cost": {"lambda": 0.01, "x0": 3.0},
    "thetas": [
        {"type": "black_scholes", "mu": 0.1, "sigma": 0.2, "s0": 1.0},
        {
            "type": "path_dependent_bs",
            "mu": {"kind": "linear_t", "a": 0.05, "b": 0.02},
            "sigma": {"kind": "const", "value": 0.2},
            "mu_bounds": [-1.0, 1.0],
        },
    ],
    "utility": {"name": "log"},
    "policy": {"class": "lattice-policy", "long_only": False},
    "optimizer": {"iters": 3, "step0": 0.25},
    "verify": {"theta_index": 0, "construction": "auto", "shrink": 0.99},
}

MC_DOC = {
    "seed": 7,
    "threads": 2,
    "grid": {"horizon": 1.0, "steps": 4},
    "noise": {"kind": "mc", "paths": 64},
    "cost": {"lambda": 0.05, "x0": 1.0},
    "thetas": [
        {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
        {"type": "factor", "theta": [[-0.5, 0.0], [0.1, 0.0]], "sigma": 0.2, "rho": [0.3, 0.9],
         "m": {"kind": "affine", "a": 0.0, "b": 0.1}},
        {"type": "arctan_drift"},
    ],
    "utility": {"name": "exp", "a": 1.0},
    "optimizer": {"iters": 2},
    "verify": {"theta_index": 1},
}

# (section, key, default, cap): a resolved value above cap is out of budget
BUDGET = (("grid", "steps", 50, 5), ("noise", "paths", 1000, 200), ("optimizer", "iters", 150, 5))


def _nodes(node, path=()):
    """(path, value) of every key and list element below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _replacements(value):
    """(kind, new value) pairs; None as the new value of "drop" deletes."""
    negative = -abs(value) - 1 if isinstance(value, (int, float)) and not isinstance(value, bool) else -1
    return [
        ("drop", None),
        ("null", None),
        ("bool", True),
        ("string", "x"),
        ("list", []),
        ("object", {}),
        ("nan", math.nan),
        ("inf", math.inf),
        ("-inf", -math.inf),
        ("negative", negative),
        ("wrap-list", [value]),
        ("wrap-object", {"value": value}),
    ]


def _mutated(doc, path, kind, new):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if kind == "drop":
        del target[last]
    else:
        target[last] = new
    return doc


def _within_budget(doc) -> bool:
    for section, key, default, cap in BUDGET:
        spec = doc.get(section, {})
        value = spec.get(key, default) if isinstance(spec, dict) else None
        if isinstance(value, (int, float)) and value > cap:
            return False
    return True


def _cases():
    rng = random.Random(SEED)
    cases = []
    for name, doc in (("lattice", LATTICE_DOC), ("mc", MC_DOC)):
        for path, value in _nodes(doc):
            for kind, new in _replacements(value):
                mutated = _mutated(doc, path, kind, new)
                if _within_budget(mutated):
                    label = f"{name}:{'.'.join(map(str, path))}:{kind}"
                    cases.append((label, mutated))
    rng.shuffle(cases)
    return [(label, doc, rng.choice(COMMANDS)) for label, doc in cases[:CASES]]


def _run(tmp_path, capsys, doc, command, n):
    config = tmp_path / f"c{n}.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(config), "--out", str(tmp_path / f"o{n}")])
    err = capsys.readouterr().err
    lines = err.splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, lines


def _contract_breaches(code, lines) -> list:
    breaches = []
    if code not in (0, 2, 3, 4):
        breaches.append(f"exit {code}")
    if lines and (len(lines) > 1 or not lines[0].startswith("error: ")):
        breaches.append(f"stderr {lines!r}")
    return breaches


def test_mutated_configs_keep_the_exit_code_contract(tmp_path, capsys):
    cases = _cases()
    assert len(cases) == CASES
    failures, codes = [], set()
    for n, (label, doc, command) in enumerate(cases):
        try:
            code, lines = _run(tmp_path, capsys, doc, command, n)
        except Exception as exc:  # an escaped exception is a traceback and exit 1 on the command line
            failures.append(f"{command} {label}: raised {exc!r}")
            continue
        codes.add(code)
        failures.extend(f"{command} {label}: {b}" for b in _contract_breaches(code, lines))
    assert failures == []
    assert {0, 2, 3} <= codes  # the mutations reach past the parser


BLACK_SCHOLES = {"type": "black_scholes", "mu": 0.1, "sigma": 0.2}
FACTOR = MC_DOC["thetas"][1]

# large finite inputs that overflow inside numpy: (command, config changes, exit code)
OVERFLOWS = {
    "bs-mu": ("simulate", {"thetas": [dict(BLACK_SCHOLES, mu=1e300), BLACK_SCHOLES]}, 2),
    "horizon": ("simulate", {"grid": {"horizon": 1e300, "steps": 4}}, 2),
    "factor-theta-y0": (
        "simulate",
        {"thetas": [BLACK_SCHOLES, dict(FACTOR, theta=[[1e200, 0.0], [0.1, 0.0]], y0=1e200), {"type": "arctan_drift"}]},
        2,
    ),
    "exp-a-x0": ("duality", {"utility": {"name": "exp", "a": 1e300}, "cost": {"lambda": 0.05, "x0": 1e308}}, 3),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_an_overflow_is_judged_by_its_check_without_a_warning(tmp_path, capsys, case, threads):
    # the explicit checks judge the overflowed values; numpy's warnings
    # about them stay off stderr at every --threads setting
    command, over, expected = OVERFLOWS[case]
    code, lines = _run(tmp_path, capsys, dict(MC_DOC, threads=threads, **over), command, 0)
    assert code == expected
    assert _contract_breaches(code, lines) == []
    assert not [line for line in lines if "Warning" in line]
    if command == "duality":
        # a dual level whose conjugate overflows is passed over, not reported
        text = (tmp_path / "o0" / "duality.json").read_text()
        assert "nan" not in text
        # the polarity row's left side overflows to inf: it fails, although its standard error is inf too
        [row] = json.loads(text)["rows"]
        pol = row["polarity"]
        assert (pol["lhs"], pol["se"], pol["satisfied"]) == ("inf", "inf", False)


MULTI_DRIVER_LATTICES = {
    "factor": {
        "grid": {"horizon": 1.0, "steps": 2},
        "noise": {"kind": "lattice"},
        "cost": {"lambda": 0.01, "x0": 1.0},
        "thetas": [{"type": "factor", "theta": [[0.1, 0.0], [0.0, 0.0]], "sigma": 0.2, "rho": [1.0, 0.0]}],
        "utility": {"name": "log"},
        "policy": {"class": "lattice-policy"},
        "optimizer": {"iters": 3},
    },
    "three-drivers": {
        "grid": {"horizon": 1.0, "steps": 2},
        "noise": {"kind": "lattice", "drivers": 3},
        "cost": {"lambda": 0.01, "x0": 1.0},
        "thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}],
        "utility": {"name": "log"},
        "optimizer": {"iters": 3},
    },
}


@pytest.mark.parametrize("command", ["duality", "verify-cps"])
@pytest.mark.parametrize("family", sorted(MULTI_DRIVER_LATTICES))
def test_multi_driver_lattices_write_a_construction_verdict(tmp_path, capsys, family, command):
    code, lines = _run(tmp_path, capsys, MULTI_DRIVER_LATTICES[family], command, 0)
    assert (code, lines) == (3, [])
    result = json.loads((tmp_path / "o0" / f"{command.split('-')[0]}.json").read_text())
    assert result["verdict"] == "construction failed: exact lattice construction is single-driver"
