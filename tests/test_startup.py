"""Start-up budget: what a fresh interpreter loads for ``import frictionopt``,
for parsing a config and for every command at ``--threads`` 1 and 2, and
the CLI's one BLAS thread."""

import hashlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import frictionopt
from frictionopt.harness import CSV_CHUNK_ROWS

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PRINT_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"

EXPORTS = """
    AccountingLedger CostSpec check_admissible_rplus run_ledger shadow_value
    BandReport CpsCertificate PriceSystem constant_cps cps_certificate entropy_membership girsanov_cps
    lattice_cps polarity_gap registered_cps supermartingale_check verify_band verify_martingale
    KomlosResult MonotonePath RationalEnumeration Strategy converges_at_continuity_points komlos_average rho
    ArctanDrift BlackScholes Factor NoisePanel PathDependentBS ThetaGrid TimeGrid
    gaussian_panel lattice_panel simulate simulate_panel
    BruteForceReport DualityReport ObjectiveResult OptimizerSettings PolicyCodec RobustProblem SolveReport
    brute_force default_price_systems duality_report objective solve
    UtilitySpec YoungPair check_assumptions conjugate delta2_ratio exp_utility log_utility luxemburg_norm
    orlicz_conjugate power_utility table_utility vector_conjugate young_pair
""".split()

MC_CONFIG = {
    "grid": {"horizon": 1.0, "steps": 3},
    "noise": {"kind": "mc", "paths": 8},
    "cost": {"lambda": 0.01},
    "thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}, {"type": "arctan_drift"}],
    "utility": {"name": "log"},
}


def fresh(code: str, *args: str, **env) -> object:
    """Run code in a fresh interpreter with no BLAS variable set beyond env;
    return the JSON it prints last."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args], env={**base, **env}, capture_output=True, text=True, check=True
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    loaded = fresh(f"import frictionopt; {PRINT_MODULES}")
    assert [m for m in loaded if m.startswith(("numpy", "frictionopt"))] == ["frictionopt"]


def test_parsing_a_config_loads_neither_solver_nor_a_thread_pool(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(MC_CONFIG))
    code = f"import sys; from frictionopt.config import load_config; load_config(sys.argv[1]); {PRINT_MODULES}"
    loaded = fresh(code, str(config))
    assert "frictionopt.config" in loaded
    assert not {"frictionopt.solver", "frictionopt.cps", "concurrent.futures"} & set(loaded)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["simulate", "verify-cps", "solve", "duality"])
def test_no_command_starts_a_thread_pool(tmp_path, command, threads):
    """--threads sizes only simulate's forked CSV workers: no command, at any
    setting, loads concurrent.futures or the logging it imports."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(MC_CONFIG, optimizer={"iters": 3})))
    code = (
        "import sys; from frictionopt.cli import main; "
        "assert main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3], '--threads', sys.argv[4]]) == 0; "
        + PRINT_MODULES
    )
    loaded = fresh(code, command, str(config), str(tmp_path / "o"), threads)
    assert (tmp_path / "o" / "manifest.json").is_file()
    assert not {"concurrent.futures", "logging"} & set(loaded)


def test_no_command_leaves_a_thread_or_an_exit_handler(tmp_path):
    """cli.entry ends the process with os._exit, which neither joins threads
    nor runs atexit handlers: after every command, at two threads, only the
    main thread runs and no handler has been registered since start-up."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(MC_CONFIG, optimizer={"iters": 3})))
    code = (
        "import atexit, json, sys, threading; handlers = atexit._ncallbacks(); from frictionopt.cli import main; "
        "argv = ['--config', sys.argv[1], '--threads', '2', '--out']; "
        "codes = [main([c, *argv, sys.argv[2] + c]) for c in sys.argv[3:]]; "
        "print(json.dumps([codes, threading.active_count(), atexit._ncallbacks() - handlers]))"
    )
    assert fresh(code, str(config), str(tmp_path / "o-"), "simulate", "verify-cps", "solve", "duality") == [
        [0, 0, 0, 0], 1, 0
    ]


def test_simulate_on_two_threads_forks_csv_workers_without_multiprocessing(tmp_path):
    """At two threads and two usable CPUs, a forked worker formats some of
    prices.csv's chunks (9 of CSV_CHUNK_ROWS = 2048 rows) through os.fork
    and os.pipe, which need no multiprocessing."""
    rows = 2 * 2100 * 4
    assert -(-rows // CSV_CHUNK_ROWS) > 1
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(MC_CONFIG, noise={"kind": "mc", "paths": 2100})))
    out = tmp_path / "o"
    code = (
        "import sys; from frictionopt.cli import main; "
        "assert main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2], '--threads', '2']) == 0; "
        + PRINT_MODULES
    )
    loaded = fresh(code, str(config), str(out))
    assert (out / "prices.csv").read_bytes().count(b"\n") == 1 + rows
    assert "multiprocessing" not in loaded


def test_no_command_loads_the_proof_tooling(tmp_path):
    """fvproc holds the existence proof's paths and Orlicz objects, which no
    command runs: neither importing the CLI nor running a command loads it."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(MC_CONFIG, optimizer={"iters": 3})))
    code = (
        "import json, sys; from frictionopt.cli import main; loaded = ['frictionopt.fvproc' in sys.modules]; "
        "codes = [main([c, '--config', sys.argv[1], '--out', sys.argv[2] + c]) for c in sys.argv[3:]]; "
        "print(json.dumps([codes, loaded + ['frictionopt.fvproc' in sys.modules]]))"
    )
    commands = ["simulate", "verify-cps", "solve", "duality"]
    codes, loaded = fresh(code, str(config), str(tmp_path / "o-"), *commands)
    assert codes == [0, 0, 0, 0]
    assert loaded == [False, False]


def test_lattice_commands_digest_their_outputs_without_openssl(tmp_path):
    """A lattice run never imports numpy.random, so nothing maps OpenSSL's
    libcrypto; the manifest digests with the interpreter's own SHA-256, and
    every digest is the one hashlib gives."""
    config = tmp_path / "run.json"
    thetas = [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}, {"type": "black_scholes", "mu": 0.05, "sigma": 0.25}]
    config.write_text(json.dumps(dict(MC_CONFIG, noise={"kind": "lattice"}, thetas=thetas, optimizer={"iters": 3})))
    code = (
        "import json, sys; from frictionopt.cli import main; "
        "codes = [main([c, '--config', sys.argv[1], '--out', sys.argv[2] + c]) for c in sys.argv[3:]]; "
        "print(json.dumps([codes, sorted({'hashlib', '_hashlib'} & set(sys.modules))]))"
    )
    commands = ["duality", "solve"]
    codes, loaded = fresh(code, str(config), str(tmp_path / "o-"), *commands)
    assert codes == [0, 0]
    assert loaded == []
    for command in commands:
        out = tmp_path / f"o-{command}"
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert len(outputs) == {"duality": 1, "solve": 4}[command]
        for entry in outputs:
            assert entry["sha256"] == hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()


def test_every_export_resolves_lazily():
    assert sorted(frictionopt.__all__) == sorted(EXPORTS) and len(EXPORTS) == 61
    assert set(EXPORTS) <= set(dir(frictionopt))
    for name in EXPORTS:
        value = getattr(frictionopt, name)
        owner = import_module(f"frictionopt.{frictionopt._ORIGIN[name]}")
        assert value is getattr(owner, name)
    assert frictionopt.solver is import_module("frictionopt.solver")
    with pytest.raises(AttributeError, match="no_such_name"):
        frictionopt.no_such_name


def test_every_dataclass_is_a_record():
    """A record shares records.__init__, where a stray @dataclass would
    generate its own; records itself is not exported."""
    from frictionopt import records

    classes = {
        value
        for info in pkgutil.iter_modules(frictionopt.__path__)
        for value in vars(import_module(f"frictionopt.{info.name}")).values()
        if isinstance(value, type) and "__dataclass_fields__" in vars(value)
    }
    assert classes
    assert sorted(cls.__qualname__ for cls in classes if cls.__init__ is not records.__init__) == []
    assert "records" not in frictionopt._EXPORTS


THREADS = (
    "import json, os; import frictionopt.cli, numpy; "
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task'))]))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
def test_cli_runs_numpy_on_one_blas_thread():
    assert fresh(THREADS) == ["1", 1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_leaves_a_users_blas_setting_in_place(var):
    openblas, _ = fresh(THREADS, **{var: "2"})
    assert openblas == ("2" if var == "OPENBLAS_NUM_THREADS" else None)
