"""The benchmark (bench/) drives the CLI and calls the library from its
tracer and its output checks; a name or signature that no longer resolves
would break it, so those uses are checked here.  Nothing under bench/ is
changed."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from frictionopt import brute_force
from frictionopt.cli import main
from frictionopt.config import parse_config
from frictionopt.harness import write_csv, write_manifest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench_module("workloads")


def test_every_traced_name_resolves():
    tracer = load_bench_module("tracer")
    missing = []
    for layer, attr in tracer.TRACED:
        obj = importlib.import_module(f"frictionopt.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{attr}")
    assert len(tracer.TRACED) > 0
    assert missing == []


@pytest.mark.parametrize("writer, first", [(write_csv, "path"), (write_manifest, "out_dir")])
def test_traced_writers_take_their_location_first(writer, first):
    # the tracer reads args[0] of each call: the CSV it counts rows and bytes
    # of, and the directory whose manifest it sums bytes_digested from
    param = next(iter(inspect.signature(writer).parameters.values()))
    assert (param.name, param.kind) == (first, inspect.Parameter.POSITIONAL_OR_KEYWORD)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_every_workload_config_parses(name):
    for seed in (3, 7):
        parse_config(WORKLOADS.WORKLOADS[name].config(seed))


def test_lattice_oracle_call_runs():
    # lattice_duality_prepare's call, on a small grid
    problem = parse_config(WORKLOADS.lattice_duality_config(7)).build_problem()
    oracle = brute_force(problem, np.arange(0.0, 3.0001, 1.0), np.arange(0.0, 0.20001, 0.1))
    assert oracle.n_combos == 4 * 3**4
    assert np.isfinite(oracle.value) and oracle.neighbor_gap >= 0.0


def test_mc_solve_check_passes_on_a_solve(tmp_path):
    # mc_solve_check evaluates objective(problem, best_params) from report.json
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS.mc_solve_config(7)))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    ctx = WORKLOADS.Context(config)
    WORKLOADS.mc_solve_prepare(ctx)
    info = {}
    assert WORKLOADS.mc_solve_check(out, ctx, info) == []
    assert info["robust_value"] == json.loads((out / "report.json").read_text())["best_value"]
