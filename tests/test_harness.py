import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frictionopt.cli import main
from frictionopt.config import OptimizerSettings, load_config, parse_config
from frictionopt.errors import ConfigError
from frictionopt.harness import (
    CSV_CHUNK_ROWS,
    DIGEST_BLOCK_BYTES,
    SOLVE_OUTPUTS,
    _digest,
    write_csv,
    write_json,
    write_manifest,
)
from frictionopt.scenario import Factor, simulate_panel

BASE_DOC = {
    "grid": {"horizon": 1.0, "steps": 3},
    "noise": {"kind": "lattice"},
    "cost": {"lambda": 0.01, "x0": 1.0},
    "thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}],
    "utility": {"name": "log"},
    "policy": {"class": "lattice-policy"},
    "optimizer": {"iters": 12},
}


def make_doc(**over):
    doc = {k: (v.copy() if isinstance(v, (dict, list)) else v) for k, v in BASE_DOC.items()}
    doc.update(over)
    return doc


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def duality_verdict(tmp_path, capsys, doc) -> str:
    """Run duality on a family with no usable price system: it must exit 3
    without an error line and write only the verdict, digested in the
    manifest.  Returns the verdict."""
    out = tmp_path / "o"
    code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == ""
    result = json.loads((out / "duality.json").read_text())
    assert set(result) == {"all_ok", "verdict"} and result["all_ok"] is False
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"] == {"exit": 3, "all_ok": False}
    [entry] = manifest["outputs"]
    data = (out / "duality.json").read_bytes()
    assert entry == {"name": "duality.json", "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return result["verdict"]


def reference_csv(header, rows) -> str:
    """Row-by-row rendering, one repr per cell, that the columnar writer
    must reproduce byte for byte."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


PATH_BS = {"type": "path_dependent_bs", "mu": {"kind": "const", "value": 0.1}, "sigma": {"kind": "const", "value": 0.2}}
FACTOR = {"type": "factor", "theta": [[0.1, 0.0], [0.0, 0.0]], "sigma": 0.2, "rho": [1.0, 0.0]}
TWO_BS = [
    {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
    {"type": "black_scholes", "mu": -0.05, "sigma": 0.25},
]


class TestParseConfig:
    def test_minimal_document_resolves_defaults(self):
        cfg = parse_config(
            {
                "thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}],
                "cost": {"lambda": 0.05},
                "utility": {"name": "log"},
            }
        )
        assert cfg.seed == 0
        assert cfg.threads == 1
        assert cfg.out == "run-out"
        assert cfg.grid.steps == 50
        assert cfg.noise_kind == "mc"
        assert cfg.noise_paths == 1000
        assert cfg.noise_drivers == 1
        assert cfg.cost.x0 == 1.0
        assert cfg.build_problem().admissibility == "rplus"
        assert cfg.policy_class == "deterministic-schedule"
        assert cfg.verify == {"theta_index": 0, "shrink": None}
        assert not hasattr(cfg, "duality")

    def test_whole_line_utility_switches_admissibility(self):
        cfg = parse_config(make_doc(utility={"name": "exp"}, policy={"class": "deterministic-schedule"}))
        assert cfg.build_problem().admissibility == "supermartingale"

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ConfigError):
            parse_config(make_doc(extra=1))
        with pytest.raises(ConfigError):
            parse_config(make_doc(cost={"lambda": 0.01, "x0": 1.0, "fee": 2.0}))
        with pytest.raises(ConfigError):
            parse_config(make_doc(optimizer={"iters": 10, "momentum": 0.9}))
        with pytest.raises(ConfigError):  # the gradient is exact; there is no step to set
            parse_config(make_doc(optimizer={"iters": 10, "fd_step": 1e-6}))
        with pytest.raises(ConfigError):  # solve draws no random numbers
            parse_config(make_doc(optimizer={"iters": 10, "seed": 0}))

    def test_missing_required_sections(self):
        doc = make_doc()
        del doc["cost"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError):
            parse_config(make_doc(cost={"lambda": True}))

    def test_seed_and_threads_validation(self):
        with pytest.raises(ConfigError):
            parse_config(make_doc(seed=-1))
        with pytest.raises(ConfigError):
            parse_config(make_doc(threads=0))

    @pytest.mark.parametrize(
        "over, error",
        [
            ({"seed": -1}, "config.seed must be at least 0, got -1"),
            ({"threads": 0}, "config.threads must be at least 1, got 0"),
            ({"optimizer": {"iters": 0}}, "optimizer.iters must be at least 1, got 0"),
            ({"noise": {"kind": "mc", "paths": 0}, "policy": {}}, "noise.paths must be at least 1, got 0"),
            ({"grid": {"horizon": 1.0, "steps": 0}}, "grid.steps must be at least 1, got 0"),
        ],
    )
    def test_integer_bounds_name_the_key(self, over, error):
        with pytest.raises(ConfigError) as exc:
            parse_config(make_doc(**over))
        assert str(exc.value) == error

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"step0": -1.0}, "optimizer.step0 must be positive and finite, got -1.0"),
            ({"step0": 0.0}, "optimizer.step0 must be positive and finite, got 0.0"),
            ({"step0": float("nan")}, "optimizer.step0 must be positive and finite, got nan"),
            ({"step0": float("inf")}, "optimizer.step0 must be positive and finite, got inf"),
            ({"iters": -3}, "optimizer.iters must be at least 1, got -3"),
            ({"iters": 0}, "optimizer.iters must be at least 1, got 0"),
            ({"iters": 2.5}, "optimizer.iters must be an integer, got 2.5"),
            ({"iters": True}, "optimizer.iters must be an integer, got True"),
        ],
    )
    def test_optimizer_settings_validate_themselves(self, kwargs, error):
        # the library refuses what parse_config refuses: a descent, a silent
        # empty run or a late TypeError
        with pytest.raises(ConfigError) as exc:
            OptimizerSettings(**kwargs)
        assert str(exc.value) == error

    def test_lattice_ignores_paths(self):
        # a lattice has every sign path of its grid, whatever paths says
        for steps, drivers, paths in ((3, 1, 0), (3, 2, 1000), (20, 1, 4)):
            noise = {"kind": "lattice", "paths": paths, "drivers": drivers}
            cfg = parse_config(make_doc(grid={"horizon": 1.0, "steps": steps}, noise=noise, policy={}))
            assert cfg.noise_paths == cfg.echo["noise"]["paths"] == 2 ** (steps * drivers)

    def test_driver_count_must_cover_the_family(self):
        factor = {
            "type": "factor",
            "theta": [[0.1, 0.0], [0.0, 0.0]],
            "sigma": 0.2,
            "rho": [1.0, 0.0],
        }
        cfg = parse_config(make_doc(thetas=[factor], noise={"kind": "mc", "paths": 16}, policy={}))
        assert cfg.noise_drivers == 2
        assert isinstance(cfg.thetas.models[0], Factor)
        with pytest.raises(ConfigError):
            parse_config(
                make_doc(thetas=[factor], noise={"kind": "mc", "paths": 16, "drivers": 1}, policy={})
            )

    def test_verify_theta_index_range(self):
        with pytest.raises(ConfigError):
            parse_config(make_doc(verify={"theta_index": 3}))

    def test_duality_levels_are_not_a_setting(self):
        # each price system is bounded at its own best level, and duality has no settings
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in config: \['duality'\]"):
            parse_config(make_doc(duality={"ys": [0.5, 1.0]}))

    def test_overrides_apply_when_set(self):
        doc = make_doc()
        cfg = parse_config(doc, overrides={"seed": 9, "threads": 4, "out": "elsewhere"})
        assert (cfg.seed, cfg.threads, cfg.out) == (9, 4, "elsewhere")
        cfg2 = parse_config(doc, overrides={"seed": None})
        assert cfg2.seed == 0

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_build_problem_round_trip(self):
        cfg = parse_config(make_doc())
        problem = cfg.build_problem()
        assert problem.noise.kind == "lattice"
        assert problem.policy_class == "lattice-policy"
        assert problem.n_thetas == 1

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        cfg = parse_config(doc)
        assert doc["verify"]["construction"] == "auto"
        assert cfg.verify == {"theta_index": 0, "shrink": None}

    def test_readme_library_example_runs(self):
        root = Path(__file__).resolve().parents[1]
        section = (root / "README.md").read_text().split("## Library", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        value, argmin = run.stdout.split()
        assert math.isfinite(float(value)) and argmin in ("0", "1")


class TestWriters:
    def test_csv_uses_exact_float_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1, 2], np.asarray([1.0 / 3.0, 0.5]), (True, False)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == f"1,{1.0 / 3.0!r},true"
        assert lines[2] == "2,0.5,false"

    def test_csv_matches_row_by_row_repr_across_chunks(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 2 * CSV_CHUNK_ROWS + 123
        payload_nan = np.asarray([0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64)
        pool = np.concatenate([[-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 0.1, 1.0], payload_nan])
        repeats = rng.choice(pool, n)
        distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        ints = rng.choice(np.asarray([0, -1, 7, 2**63 - 1, -(2**63)], np.int64), n)
        flags = rng.random(n) < 0.5
        header = ["repeats", "distinct", "ints", "flags", "counter"]
        columns = [repeats, distinct, ints, flags, list(range(n))]
        path = tmp_path / "golden.csv"
        write_csv(path, header, columns)
        text = path.read_text()
        assert text == reference_csv(header, zip(*columns))
        first_chunk = {line.split(",")[0] for line in text.splitlines()[1 : CSV_CHUNK_ROWS + 1]}
        assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16"} <= first_chunk

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros((2, 2)), np.zeros(4)])

    @pytest.mark.parametrize(
        "shape", [(2 * CSV_CHUNK_ROWS // 129 + 1, 129), (3, 7, CSV_CHUNK_ROWS // 8 + 5)], ids=["2-D", "3-D"]
    )
    def test_csv_writes_any_shape_and_view_in_c_order_across_chunks(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        lead = np.arange(shape[0]).reshape(-1, *[1] * (len(shape) - 1))
        columns = [
            rng.standard_normal(shape),
            rng.standard_normal(shape[::-1]).T,  # transposed: not contiguous
            rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2],  # strided
            np.broadcast_to(lead, shape),  # broadcast: zero strides
            np.broadcast_to(rng.random(shape[-1]), shape),
            np.broadcast_to(rng.random(shape[-1]) < 0.5, shape),
        ]
        header = ["normal", "transposed", "strided", "lead", "last", "flag"]
        assert sum(c.flags.c_contiguous for c in columns) == 1 and np.prod(shape) > 2 * CSV_CHUNK_ROWS
        path = tmp_path / "views.csv"
        write_csv(path, header, columns)
        assert path.read_text() == reference_csv(header, zip(*[np.ravel(c) for c in columns]))

    def test_digest_reads_in_blocks(self, tmp_path):
        path = tmp_path / "blocks.bin"
        path.write_bytes(np.random.default_rng(2).bytes(64 * DIGEST_BLOCK_BYTES + 17))
        tracemalloc.start()
        try:
            entry = _digest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert entry == {"name": "blocks.bin", "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        assert peak < 4 * DIGEST_BLOCK_BYTES

    @pytest.mark.parametrize("openssl", [True, False], ids=["openssl", "builtin"])
    @pytest.mark.parametrize("size", [0, 1, DIGEST_BLOCK_BYTES, 64 * DIGEST_BLOCK_BYTES + 17])
    def test_digest_is_hashlibs_with_or_without_openssl(self, tmp_path, monkeypatch, openssl, size):
        """Where OpenSSL is not loaded the digest comes from the interpreter's
        built-in SHA-256, and it is the same."""
        from frictionopt import harness

        path = tmp_path / "data.bin"
        data = np.random.default_rng(size).bytes(size)
        path.write_bytes(data)
        if not openssl:
            monkeypatch.delitem(sys.modules, "_hashlib")
        assert (type(harness._sha256()).__module__ == "_hashlib") == openssl
        assert _digest(path) == {"name": "data.bin", "sha256": hashlib.sha256(data).hexdigest(), "bytes": size}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 2048, 8192])
    def test_chunk_size_changes_no_byte(self, tmp_path, monkeypatch, chunk_rows, workers):
        from frictionopt import harness

        monkeypatch.setattr(harness, "CSV_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(3)
        shape = (3, 7, 401)  # 8,421 rows: more than one chunk at every size
        columns = [
            np.broadcast_to(np.arange(shape[0])[:, None, None], shape),
            np.broadcast_to(rng.random(shape[-1]), shape),
            rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2],
            rng.standard_normal(shape[::-1]).T,
        ]
        header = ["lead", "last", "strided", "transposed"]
        path = tmp_path / "chunks.csv"
        write_csv(path, header, columns, workers)
        assert path.read_text() == reference_csv(header, zip(*[np.ravel(c) for c in columns]))
        assert_no_child_left()

    def test_json_is_sorted_and_numpy_safe(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": np.float64(0.5), "a": np.asarray([1, 2]), "c": np.inf})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        back = json.loads(text)
        assert back == {"a": [1, 2], "b": 0.5, "c": "inf"}

    def test_manifest_digests_every_output_except_itself(self, tmp_path):
        cfg = parse_config(make_doc())
        (tmp_path / "data.csv").write_text("x\n1\n")
        (tmp_path / "stale.csv").write_text("left by an earlier command\n")
        write_manifest(tmp_path, "solve", cfg, {"note": 1}, started=0.0, outputs=["data.csv"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        names = [f["name"] for f in manifest["outputs"]]
        assert names == ["data.csv"]
        expected = hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == expected
        assert manifest["engine"]["name"] == "frictionopt"
        assert "wall_time_s" in manifest


class TestCli:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out

    def test_selftest_reports_a_failed_check(self, monkeypatch, capsys):
        from frictionopt import harness

        monkeypatch.setattr(harness, "conjugate", lambda u, y: 0.0)
        assert main(["selftest"]) == 3
        assert "selftest: FAIL" in capsys.readouterr().out
        # the checks must not be asserts, which python -O strips
        script = "import sys; from frictionopt import harness; harness.conjugate = lambda u, y: 0.0; " \
                 "sys.exit(harness.cmd_selftest())"
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 3, run.stdout + run.stderr

    def test_simulate_writes_prices(self, tmp_path):
        doc = make_doc(noise={"kind": "mc", "paths": 6}, policy={})
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "prices.csv").read_text().splitlines()
        assert lines[0] == "theta_index,path,time_index,time,price"
        assert len(lines) == 1 + 1 * 6 * 4

    def test_simulate_prices_match_row_by_row_rendering(self, tmp_path):
        thetas = [
            {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
            {"type": "black_scholes", "mu": -0.05, "sigma": 0.25},
        ]
        doc = make_doc(thetas=thetas, noise={"kind": "mc", "paths": 2100}, policy={}, seed=4)
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        cfg = load_config(cfg_path)
        prices = simulate_panel(cfg.thetas, cfg.build_noise())
        assert prices.size > CSV_CHUNK_ROWS
        rows = (
            (k, m, i, cfg.grid.times[i], prices[k, m, i])
            for k in range(prices.shape[0])
            for m in range(prices.shape[1])
            for i in range(prices.shape[2])
        )
        expected = reference_csv(["theta_index", "path", "time_index", "time", "price"], rows)
        assert (tmp_path / "o" / "prices.csv").read_bytes() == expected.encode()

    def test_solve_outputs_and_reruns_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, make_doc())
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        for name in ("report.json", "history.csv", "strategy.csv", "ledger_worst.csv"):
            fa = (tmp_path / "a" / name).read_bytes()
            fb = (tmp_path / "b" / name).read_bytes()
            assert fa == fb, name
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert set(report) == {
            "best_value", "per_theta", "argmin_theta", "n_params", "policy_class", "admissibility", "best_params", "h0",
        }
        assert report["policy_class"] == "lattice-policy"
        assert report["best_value"] >= 0.0

    def test_manifest_leaves_out_an_earlier_commands_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, make_doc())
        out = tmp_path / "shared"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = [f["name"] for f in manifest["outputs"]]
        assert names == sorted(["report.json", "history.csv", "strategy.csv", "ledger_worst.csv"])
        assert (out / "prices.csv").is_file()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        doc = make_doc()
        del doc["utility"]
        code = main(["solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "over",
        [
            {"thetas": [dict(PATH_BS, mu_bounds=["x", 1])]},
            {"thetas": [dict(PATH_BS, sigma_bounds=[0.1])]},
            {"thetas": [dict(FACTOR, theta=[["a", 0], [0, 0]])], "policy": {}},
            {"thetas": [dict(FACTOR, theta=[1, 2])], "policy": {}},
            {"thetas": [dict(FACTOR, rho=[1.0, "b"])], "policy": {}},
            {"utility": {"name": "custom-table", "x": ["a", 1.0], "u": [0.0, 1.0]}},
            {"optimizer": {"step0": 0}},
            {"optimizer": {"step0": -1.0}},
            {"optimizer": {"step0": float("nan")}},
            {"optimizer": {"step0": float("inf")}},
            {"optimizer": {"seed": 0}},
            {"optimizer": {"tail_fraction": 0.5}},
            {"verify": {"shrink": 1.5}},
            {"verify": {"shrink": -0.5}},
            {"verify": {"shrink": float("nan")}},
            {"thetas": [{"type": "black_scholes", "mu": float("nan"), "sigma": 0.2}]},
            {"thetas": [dict(FACTOR, rho=[float("-inf"), 0.0])]},
            {"utility": {"name": "exp", "a": float("inf")}, "policy": {}},
            {"cost": {"lambda": 0.01, "x0": 10**400}},
            {"admissibility": "rplus"},
            {"noise": {"kind": "mc", "paths": 0}, "policy": {}},
            {"noise": {"kind": "mc", "paths": -3}, "policy": {}},
            {"grid": {"horizon": 1.0, "steps": 23}, "noise": {"kind": "lattice"}},
        ],
        ids=[
            "mu_bounds-string", "sigma_bounds-short", "theta-string", "theta-flat", "rho-string",
            "table-knot-string", "step0-zero", "step0-negative", "step0-nan", "step0-inf", "optimizer-seed",
            "optimizer-tail-fraction", "verify-shrink-above", "verify-shrink-negative", "verify-shrink-nan",
            "mu-nan", "rho-minus-inf", "exp-a-inf",
            "x0-huge-int", "admissibility-key", "mc-paths-zero", "mc-paths-negative", "lattice-23-steps",
        ],
    )
    def test_bad_values_exit_2_at_parse_time(self, tmp_path, capsys, over):
        code = main(["solve", "--config", write_config(tmp_path, make_doc(**over)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-cps", "solve"])
    @pytest.mark.parametrize(
        "over, error",
        [
            ({"policy": {"class": "bogus"}},
             "policy.class must be one of deterministic-schedule, lattice-policy, got 'bogus'"),
            ({"noise": {"kind": "mc", "paths": 16}}, "lattice policies need a lattice noise panel"),
        ],
        ids=["unknown-class", "lattice-policy-on-mc"],
    )
    def test_bad_policy_class_exits_2_at_parse_time(self, tmp_path, capsys, command, over, error):
        out = tmp_path / "o"
        code = main([command, "--config", write_config(tmp_path, make_doc(**over)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, over, error",
        [
            ("duality", {"duality": {"ys": [1.0]}}, "unknown key(s) in config: ['duality']"),
            ("duality", {"duality": {"shrink": 0.99}}, "unknown key(s) in config: ['duality']"),
            ("duality", {"duality": {"inada_scales": [1.0]}}, "unknown key(s) in config: ['duality']"),
            ("duality", {"duality": {}}, "unknown key(s) in config: ['duality']"),
            ("verify-cps", {"verify": {"construction": "lattice"}},
             "verify.construction must be 'auto', got 'lattice'"),
            ("verify-cps", {"verify": {"construction": "girsanov"}},
             "verify.construction must be 'auto', got 'girsanov'"),
            ("verify-cps", {"verify": {"construction": "constant"}},
             "verify.construction must be 'auto', got 'constant'"),
            ("verify-cps", {"verify": {"level": 0.75}}, "unknown key(s) in verify: ['level']"),
        ],
        ids=[
            "duality-ys", "duality-shrink", "duality-inada-scales", "duality-empty", "verify-construction-lattice",
            "verify-construction-girsanov", "verify-construction-constant", "verify-level",
        ],
    )
    def test_a_setting_that_checks_or_changes_nothing_exits_2_at_parse_time(
        self, tmp_path, capsys, command, over, error
    ):
        out = tmp_path / "o"
        code = main([command, "--config", write_config(tmp_path, make_doc(**over)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_informational_or_unresolved_settings_still_parse(self):
        # cps.registered_cps scales whichever system it chooses, the constant
        # shadow included, so every shrink in (0, 1) changes what is checked
        cfg = parse_config(make_doc(verify={"construction": "auto", "shrink": 0.5}))
        assert cfg.verify["shrink"] == 0.5

    @pytest.mark.parametrize("command", ["simulate", "verify-cps", "solve", "duality"])
    @pytest.mark.parametrize("x0", [0.0, -0.5])
    def test_positive_axis_utility_without_capital_exits_2_at_parse_time(self, tmp_path, capsys, command, x0):
        out = tmp_path / "o"
        doc = make_doc(cost={"lambda": 0.01, "x0": x0})
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: nonnegative-wealth admissibility needs x0 > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--out", "st"], ["--seed", "3"], ["--threads", "2"]])
    def test_selftest_takes_no_options(self, tmp_path, monkeypatch, capsys, option):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["selftest", *option])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--out", "o"],
            ["selftest", "--out", "st"],
            [],
            ["solve", "--config", "run.json", "--out", "o", "--threads", "abc"],
        ],
        ids=["no-config", "selftest-out", "no-command", "threads-not-int"],
    )
    def test_usage_errors_print_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, make_doc())
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.err.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_prints_usage_to_stdout_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: frictionopt")
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["simulate", "verify-cps"])
    def test_mc_panel_without_paths_exits_2_at_parse_time(self, tmp_path, capsys, command):
        # solve is among the parse-time cases above; a lattice ignores paths
        out = tmp_path / "o"
        doc = make_doc(noise={"kind": "mc", "paths": 0}, policy={})
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: noise.paths must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, argv, error",
        [
            ({"seed": 1 << 64}, ["--out", "o"], "config.seed must be below 2**64, got 18446744073709551616"),
            ({}, ["--out", "o", "--seed", "99999999999999999999999"],
             "config.seed must be below 2**64, got 99999999999999999999999"),
            ({"out": "a\0b"}, [], "out must be a nonempty string without NUL characters, got 'a\\x00b'"),
            ({}, ["--out", "a\0b"], "out must be a nonempty string without NUL characters, got 'a\\x00b'"),
        ],
        ids=["seed-key", "seed-flag", "out-nul-key", "out-nul-flag"],
    )
    def test_a_seed_past_64_bits_or_a_nul_in_out_exits_2_at_parse_time(
        self, tmp_path, monkeypatch, capsys, over, argv, error
    ):
        monkeypatch.chdir(tmp_path)
        doc = make_doc(noise={"kind": "mc", "paths": 4}, policy={}, **over)
        code = main(["simulate", "--config", write_config(tmp_path, doc), *argv])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "over, argv", [({"seed": (1 << 64) - 1}, []), ({}, ["--seed", str((1 << 64) - 1)])], ids=["key", "flag"]
    )
    def test_the_largest_64_bit_seed_runs(self, tmp_path, over, argv):
        doc = make_doc(noise={"kind": "mc", "paths": 4}, policy={}, **over)
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o"), *argv])
        assert code == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["seed"] == (1 << 64) - 1

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_at_or_under_a_file_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if below else blocker
        code = main(["simulate", "--config", write_config(tmp_path, make_doc()), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot create output directory: ") and err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(json.dumps(make_doc()).encode().replace(b'"log"', b'"l\xf6g"'))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_engine_error_without_a_code_of_its_own_exits_3(self, tmp_path, monkeypatch, capsys):
        from frictionopt import cli
        from frictionopt.errors import ContractViolation

        def boom(cfg, out=None):
            raise ContractViolation("an invariant broke")

        monkeypatch.setattr(cli, "cmd_duality", boom)
        code = main(["duality", "--config", write_config(tmp_path, make_doc()), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: an invariant broke\n"

    def test_duality_with_a_rising_table_fails_growth(self, tmp_path, capsys):
        # the table's conjugate is +inf below its last slope 1/3, so the best
        # level lies above it, where the bound is finite; asymptotic
        # elasticity 1 fails the growth verdict
        doc = make_doc(utility={"name": "custom-table", "x": [0.1, 1.0, 4.0], "u": [-2.0, 0.0, 1.0]},
                       optimizer={"iters": 2})
        out = tmp_path / "o"
        code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (3, "")
        text = (out / "duality.json").read_text()
        assert "nan" not in text
        result = json.loads(text)
        assert result["growth_ok"] is False and result["all_ok"] is False
        [row] = result["rows"]
        # write_json spells a non-finite float as a string
        assert row["y"] > 1.0 / 3.0 and isinstance(row["bound"], float) and row["ok"] is True
        assert row["polarity"]["satisfied"] is True

    def test_verify_cps_with_a_rising_table_reports_infinite_entropy(self, tmp_path):
        # last slope 1: V(w) is +inf on the paths whose weight w is below 1
        doc = make_doc(utility={"name": "custom-table", "x": [0.1, 1.0, 2.0], "u": [-2.0, 0.0, 1.0]})
        out = tmp_path / "v"
        assert main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        entropy = json.loads((out / "verify.json").read_text())["entropy"]
        assert entropy["finite"] is False and entropy["estimate"] == "inf"

    @pytest.mark.parametrize(
        "over", [{"noise": {"kind": "mc", "paths": 50}, "policy": {}}, {}], ids=["mc", "lattice"]
    )
    def test_duality_without_a_price_system_writes_a_verdict(self, tmp_path, capsys, over):
        # at lambda 0.3 the arctan certificate proves that no system exists
        doc = make_doc(
            thetas=[{"type": "arctan_drift"}],
            cost={"lambda": 0.3, "x0": 1.0},
            grid={"horizon": 1.0, "steps": 5},
            optimizer={"iters": 2},
            **over,
        )
        verdict = duality_verdict(tmp_path, capsys, doc)
        assert verdict == "no price system construction is registered for this family"

    def test_duality_with_an_unbuildable_price_system_writes_a_verdict(self, tmp_path, capsys):
        # at mu 2, sigma 0.1 both lattice moves rise above the node price, so
        # the node construction has no martingale weights in (0, 1)
        doc = make_doc(
            thetas=[{"type": "black_scholes", "mu": 2.0, "sigma": 0.1}],
            cost={"lambda": 0.02, "x0": 3.0},
            grid={"horizon": 1.0, "steps": 2},
        )
        verdict = duality_verdict(tmp_path, capsys, doc)
        assert verdict.startswith("construction failed: martingale weights left (0, 1)")

    def test_the_environment_does_not_set_the_worker_count(self, tmp_path, monkeypatch):
        # --threads, else the config's threads (default 1), is the only source
        doc = make_doc(noise={"kind": "mc", "paths": 4}, policy={})
        monkeypatch.setenv("ENGINE_THREADS", "2")
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 1

    def test_verify_cps_nonexistence_exits_3(self, tmp_path):
        doc = make_doc(
            thetas=[{"type": "arctan_drift"}],
            cost={"lambda": 0.42, "x0": 1.0},
            noise={"kind": "mc", "paths": 50},
            grid={"horizon": 1.0, "steps": 10},
            policy={},
        )
        out = tmp_path / "v"
        code = main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        result = json.loads((out / "verify.json").read_text())
        assert result["certificate"]["exists"] is False
        assert "no consistent price system" in result["verdict"]

    def test_verify_cps_density_underflow_is_not_verified(self, tmp_path):
        # mu/sigma = 50 underflows the drift-removal density on every path
        doc = make_doc(
            thetas=[{"type": "black_scholes", "mu": 0.1, "sigma": 0.002}],
            noise={"kind": "mc", "paths": 50},
            grid={"horizon": 1.0, "steps": 5},
            policy={},
        )
        out = tmp_path / "v"
        code = main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        result = json.loads((out / "verify.json").read_text())
        assert result["verdict"].startswith("construction failed")

    def test_verify_cps_constant_shadow_verifies(self, tmp_path):
        doc = make_doc(
            thetas=[{"type": "arctan_drift"}],
            cost={"lambda": 0.7, "x0": 1.0},
            noise={"kind": "mc", "paths": 50},
            grid={"horizon": 1.0, "steps": 10},
            policy={},
        )
        out = tmp_path / "v"
        code = main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        result = json.loads((out / "verify.json").read_text())
        assert result["verdict"] == "verified"
        assert result["band"]["holds"] is True
        assert result["martingale"]["passed"] is True

    def test_verify_cps_on_an_mc_panel_writes_a_finite_drift(self, tmp_path):
        doc = make_doc(noise={"kind": "mc", "paths": 200}, grid={"horizon": 1.0, "steps": 5}, policy={})
        out = tmp_path / "v"
        assert main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        martingale = json.loads((out / "verify.json").read_text())["martingale"]
        assert (martingale["passed"], martingale["mode"]) == (True, "mc")
        assert isinstance(martingale["max_drift"], float) and 0.0 <= martingale["max_drift"] < math.inf
        assert 0.0 <= martingale["max_z"] <= 3.0

    @pytest.mark.parametrize("shrink, code, strict", [(0.95, 0, True), (0.5, 3, False)])
    def test_verify_shrink_scales_the_constant_shadow(self, tmp_path, shrink, code, strict):
        doc = make_doc(
            thetas=[{"type": "arctan_drift"}],
            cost={"lambda": 0.7, "x0": 1.0},
            noise={"kind": "mc", "paths": 50},
            grid={"horizon": 1.0, "steps": 10},
            policy={},
            verify={"shrink": shrink},
        )
        out = tmp_path / "v"
        assert main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)]) == code
        result = json.loads((out / "verify.json").read_text())
        assert (result["label"], result["mu_level"]) == ("constant", pytest.approx(1.0 - shrink))
        assert (result["band"]["holds"], result["band"]["strict"]) == (strict, strict)
        assert result["verdict"] == ("verified" if code == 0 else "verification failed")

    def test_arctan_on_a_lattice_is_decided_by_its_certificate(self, tmp_path, capsys):
        # at lambda 0.7 the constant shadow 3/4 is the system on any panel;
        # the node construction finds no martingale weights for these prices
        doc = make_doc(thetas=[{"type": "arctan_drift"}], cost={"lambda": 0.7, "x0": 1.0})
        cfg_path = write_config(tmp_path, doc)
        assert main(["verify-cps", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
        result = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert (result["verdict"], result["label"], result["martingale"]["mode"]) == ("verified", "constant", "lattice")
        assert main(["duality", "--config", cfg_path, "--out", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "d" / "duality.json").read_text())["all_ok"] is True

    @pytest.mark.parametrize("command", ["solve", "duality", "verify-cps"])
    def test_power_utility_runs(self, tmp_path, capsys, command):
        doc = make_doc(utility={"name": "power", "p": 0.5})
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize(
        "utility, error",
        [
            ({"name": "power"}, "missing required key(s) in utility: ['p']"),
            ({"name": "power", "p": 1.5}, "power exponent must lie in (0, 1), got 1.5"),
        ],
        ids=["missing-p", "p-above-1"],
    )
    def test_bad_power_utility_exits_2_at_parse_time(self, tmp_path, capsys, utility, error):
        out = tmp_path / "o"
        code = main(["solve", "--config", write_config(tmp_path, make_doc(utility=utility)), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("step0, steps", [(100.0, [0.0, 100.0 / 2**8]), (1e300, [0.0, 0.0, 0.0, 0.0])])
    def test_solve_halves_a_step_that_leaves_the_domain(self, tmp_path, step0, steps):
        # on the README config a first step of 100 leaves the admissible set
        # and eight halvings bring it back; no halving of 1e300 does, so the
        # iterate stays at the zero strategy with step 0
        doc = make_doc(
            seed=7,
            grid={"horizon": 1.0, "steps": 50},
            noise={"kind": "mc", "paths": 1000},
            thetas=TWO_BS,
            policy={"class": "deterministic-schedule", "long_only": False},
            optimizer={"iters": 3, "step0": step0},
        )
        out = tmp_path / "s"
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
        assert [float(r[3]) for r in rows[: len(steps)]] == steps
        if step0 == 1e300:
            assert json.loads((out / "report.json").read_text())["best_value"] == 0.0
            assert {float(r[1]) for r in rows} == {0.0}

    @pytest.mark.parametrize(
        "over",
        [
            {},
            {"thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}]},
            {"thetas": [{"type": "black_scholes", "mu": 0.1, "sigma": 0.0}]},
            {"thetas": [{"type": "arctan_drift"}], "cost": {"lambda": 0.7, "x0": 1.0}},
            {"thetas": [{"type": "arctan_drift"}], "cost": {"lambda": 0.3, "x0": 1.0}},
            {"thetas": [FACTOR]},
            {"thetas": [{"type": "arctan_drift"}], "cost": {"lambda": 0.7, "x0": 1.0}, "noise": {"kind": "lattice"}},
            {"thetas": [{"type": "arctan_drift"}], "cost": {"lambda": 0.3, "x0": 1.0}, "noise": {"kind": "lattice"}},
        ],
        ids=["lattice", "bs", "bs-sigma-0", "arctan-0.7", "arctan-0.3", "factor", "lattice-arctan-0.7",
             "lattice-arctan-0.3"],
    )
    def test_verify_cps_auto_picks_the_duality_system(self, tmp_path, over):
        from frictionopt.solver import default_price_systems

        if over:
            over = {"noise": {"kind": "mc", "paths": 50}, "grid": {"horizon": 1.0, "steps": 5}, "policy": {}, **over}
        cfg_path = write_config(tmp_path, make_doc(**over))
        out = tmp_path / "v"
        main(["verify-cps", "--config", cfg_path, "--out", str(out)])
        label = json.loads((out / "verify.json").read_text()).get("label")
        systems = dict(default_price_systems(load_config(cfg_path).build_problem()))
        assert label == (systems[0].label if 0 in systems else None)

    @pytest.mark.parametrize(
        "over",
        [
            {"thetas": TWO_BS, "grid": {"horizon": 1.0, "steps": 2}},
            {"thetas": TWO_BS, "grid": {"horizon": 1.0, "steps": 5}, "noise": {"kind": "mc", "paths": 50},
             "policy": {}},
        ],
        ids=["lattice", "mc-black-scholes"],
    )
    def test_verify_cps_and_duality_check_one_system(self, tmp_path, over):
        from frictionopt.solver import default_price_systems

        systems = dict(default_price_systems(parse_config(make_doc(**over)).build_problem()))
        assert sorted(systems) == [0, 1]
        for k, ps in systems.items():
            out = tmp_path / f"v{k}"
            cfg_path = write_config(tmp_path, make_doc(verify={"theta_index": k}, **over))
            assert main(["verify-cps", "--config", cfg_path, "--out", str(out)]) == 0
            result = json.loads((out / "verify.json").read_text())
            assert (result["label"], result["mu_level"]) == (ps.label, ps.mu_level)

    def test_verify_cps_simulates_only_its_model(self, tmp_path, capsys):
        # model 1 overflows, which fails simulate and duality at exit 2
        doc = make_doc(thetas=TWO_BS[:1], noise={"kind": "mc", "paths": 50}, grid={"horizon": 1.0, "steps": 5},
                       policy={})
        wider = dict(doc, thetas=[TWO_BS[0], dict(TWO_BS[0], mu=1e300)])
        written = []
        for name, d in (("one", doc), ("two", wider)):
            out = tmp_path / name
            assert main(["verify-cps", "--config", write_config(tmp_path, d, f"{name}.json"), "--out", str(out)]) == 0
            written.append((out / "verify.json").read_bytes())
        assert written[1] == written[0]
        cfg_path = write_config(tmp_path, dict(wider, verify={"theta_index": 1}), "model1.json")
        assert main(["verify-cps", "--config", cfg_path, "--out", str(tmp_path / "m1")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_cps_exact_on_lattice(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify-cps", "--config", write_config(tmp_path, make_doc()), "--out", str(out)])
        assert code == 0
        result = json.loads((out / "verify.json").read_text())
        assert result["martingale"]["mode"] == "lattice"
        assert result["martingale"]["max_drift"] <= 1e-12

    @pytest.mark.parametrize("s0", [1e6, 1e9])
    def test_verify_cps_exact_at_large_prices(self, tmp_path, s0):
        # the node drifts round at the prices' size (1.2e-10 at s0 1e6), and
        # the rounding slack scales with them
        doc = make_doc(grid={"horizon": 1.0, "steps": 2}, thetas=[dict(BASE_DOC["thetas"][0], s0=s0)])
        out = tmp_path / "v"
        assert main(["verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        result = json.loads((out / "verify.json").read_text())
        assert result["verdict"] == "verified"
        assert 0.0 < result["martingale"]["max_drift"] <= 1e-15 * s0

    def test_duality_at_large_capital_exits_0(self, tmp_path):
        # the shadow value process rises by rounding (0.25 on values of 1e15)
        # and the polarity row's lhs sits one rounding step above its bound
        doc = make_doc(cost={"lambda": 0.01, "x0": 1e15}, utility={"name": "power", "p": 0.5}, optimizer={"iters": 30})
        out = tmp_path / "d"
        assert main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        result = json.loads((out / "duality.json").read_text())
        assert result["all_ok"] is True
        [row] = result["rows"]
        assert 0.0 < row["supermartingale"]["max_drift"] <= 1.0
        assert row["polarity"]["lhs"] == pytest.approx(row["polarity"]["bound"], rel=1e-15)

    def test_duality_pipeline(self, tmp_path):
        doc = make_doc(
            cost={"lambda": 0.01, "x0": 3.0},
            optimizer={"iters": 20},
        )
        out = tmp_path / "d"
        code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        result = json.loads((out / "duality.json").read_text())
        assert result["all_ok"] is True
        [row] = result["rows"]
        assert row["polarity"]["satisfied"] is True
        assert row["supermartingale"]["passed"] is True and row["supermartingale"]["mode"] == "lattice"

    def test_duality_json_nests_each_models_checks_in_its_row(self, tmp_path):
        doc = make_doc(
            thetas=[dict(BASE_DOC["thetas"][0], mu=mu) for mu in (0.1, -0.1)],
            cost={"lambda": 0.01, "x0": 3.0},
        )
        out = tmp_path / "d"
        assert main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        result = json.loads((out / "duality.json").read_text())
        assert "polarity" not in result and "supermartingale_ok" not in result
        assert [row["theta_index"] for row in result["rows"]] == [0, 1]
        for row in result["rows"]:
            assert row["polarity"]["bound"] == pytest.approx(3.0 * row["y"], rel=1e-15)
            assert row["supermartingale"]["mode"] == "lattice"
            assert row["ok"] and row["polarity"]["satisfied"] and row["supermartingale"]["passed"]

    def test_duality_on_the_readme_config_exits_0(self, tmp_path, capsys):
        # log(k)/k rises on (0, e), so a ratio verdict failed this config at
        # x0 = 1; growth is judged from the utility instead
        doc = {
            "seed": 7,
            "grid": {"horizon": 1.0, "steps": 50},
            "noise": {"kind": "mc", "paths": 1000},
            "cost": {"lambda": 0.01, "x0": 1.0},
            "thetas": [
                {"type": "black_scholes", "mu": 0.10, "sigma": 0.2},
                {"type": "black_scholes", "mu": -0.05, "sigma": 0.25},
            ],
            "utility": {"name": "log"},
            "policy": {"class": "deterministic-schedule", "long_only": False},
            "optimizer": {"iters": 3, "step0": 0.25},
            "verify": {"theta_index": 0, "construction": "auto"},
        }
        out = tmp_path / "d"
        code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        result = json.loads((out / "duality.json").read_text())
        assert result["growth_ok"] is True and result["all_ok"] is True

    @pytest.mark.parametrize("x0", [0.0, -0.5, -50.0])
    def test_exp_duality_at_nonpositive_capital_exits_0(self, tmp_path, capsys, x0):
        doc = make_doc(cost={"lambda": 0.01, "x0": x0}, utility={"name": "exp", "a": 1.0}, optimizer={"iters": 20})
        out = tmp_path / "d"
        code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        inada = json.loads((out / "duality.json").read_text())["inada"]
        assert [r["x"] for r in inada] == [x0, 4.0 * x0, 16.0 * x0]
        assert all((r["ratio"] is None) == (x0 == 0.0) for r in inada)

    def test_duality_solves_once(self, tmp_path, monkeypatch):
        from frictionopt import harness, solver

        calls, real = [], solver.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", counted)
        monkeypatch.setattr(solver, "solve", counted)
        cfg = load_config(write_config(tmp_path, make_doc(cost={"lambda": 0.01, "x0": 3.0}, out=str(tmp_path / "d"))))
        assert harness.run("duality", harness.cmd_duality, cfg) == 0
        assert len(calls) == 1

    def test_duality_with_a_flat_ended_table_has_no_scaled_rows(self, tmp_path, capsys):
        doc = make_doc(
            utility={"name": "custom-table", "x": [0.5, 1.0, 2.0, 4.0], "u": [-1.0, 0.0, 0.5, 0.5]},
            cost={"lambda": 0.01, "x0": 3.0},
            grid={"horizon": 1.0, "steps": 2},
            optimizer={"iters": 5},
        )
        out = tmp_path / "d"
        code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        result = json.loads((out / "duality.json").read_text())
        assert [(r["value"], r["ratio"]) for r in result["inada"][1:]] == [(None, None), (None, None)]
        assert result["inada"][0]["value"] == result["best_value"]
        assert result["growth_ok"] is True


# the lattice-duality benchmark config at seed 7
LATTICE_DUALITY_DOC = {
    "seed": 7,
    "grid": {"horizon": 1.0, "steps": 2},
    "noise": {"kind": "lattice"},
    "cost": {"lambda": 0.02, "x0": 3.0},
    "thetas": [
        {"type": "black_scholes", "mu": 0.10, "sigma": 0.2},
        {"type": "black_scholes", "mu": 0.05, "sigma": 0.2},
    ],
    "utility": {"name": "log"},
    "policy": {"class": "lattice-policy", "long_only": False},
    "optimizer": {"iters": 300, "step0": 1.0},
}


def test_a_lattice_manifest_echoes_its_real_path_count(tmp_path):
    # the config gives no paths, whose default is 1000; the 2-step tree has 4
    out = tmp_path / "d"
    assert main(["duality", "--config", write_config(tmp_path, LATTICE_DUALITY_DOC), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["noise"] == {"kind": "lattice", "paths": 4, "drivers": 1}


@pytest.mark.parametrize(
    "utility, grows",
    [
        ({"name": "exp", "a": 7.2}, True),
        ({"name": "custom-table", "x": [-2.0, -1.0, 0.0, 1.0, 2.0], "u": [-5.0, -2.0, 0.0, 1.0, 1.000001]}, False),
    ],
    ids=["exp-overflowing-far-left", "table-rising-forever"],
)
def test_duality_judges_whole_line_growth_by_the_utility(tmp_path, capsys, utility, grows):
    # every row holds either way; exp at a = 7.2 overflows U at the far-left
    # probes but is bounded, while the table's last slope 1e-6 never flattens
    out, doc = tmp_path / "d", dict(LATTICE_DUALITY_DOC, utility=utility)
    code = main(["duality", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0 if grows else 3, "")
    result = json.loads((out / "duality.json").read_text())
    assert all(row["ok"] for row in result["rows"])
    assert result["growth_ok"] is result["all_ok"] is grows


class TestStrategyCsv:
    """strategy.csv holds every trade, the time-zero one in its time_index 0
    rows: per path, the running sum of d_up - d_dn in the recursion's order
    is the ledger's position column bit for bit."""

    @pytest.mark.parametrize(
        "thetas, sign",
        [(LATTICE_DUALITY_DOC["thetas"], 1.0), ([{"type": "black_scholes", "mu": -0.10, "sigma": 0.2}], -1.0)],
        ids=["long-at-time-zero", "short-at-time-zero"],
    )
    def test_running_sum_of_the_trades_is_the_ledger_position(self, tmp_path, thetas, sign):
        out = tmp_path / "s"
        doc = dict(LATTICE_DUALITY_DOC, thetas=thetas)
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        h0 = json.loads((out / "report.json").read_text())["h0"]
        assert sign * h0 > 2.0  # about 2.24 long and 6.36 short
        strategy = np.loadtxt(out / "strategy.csv", delimiter=",", skiprows=1)
        ledger = np.loadtxt(out / "ledger_worst.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(strategy[:, :2], ledger[:, :2])
        n1 = doc["grid"]["steps"] + 1
        d_up, d_dn, position = (a.reshape(-1, n1) for a in (strategy[:, 2], strategy[:, 3], ledger[:, 3]))
        np.testing.assert_array_equal(d_up[:, 0] - d_dn[:, 0], h0)
        pos = np.zeros(len(d_up))
        for i in range(n1):
            pos = (pos + d_up[:, i]) - d_dn[:, i]
            assert pos.tobytes() == position[:, i].tobytes(), i


class TestWorkBudget:
    @pytest.mark.parametrize(
        "over, estimate",
        [
            ({"grid": {"horizon": 1.0, "steps": 10**12}},
             "1 x 1000 x 1000000000001 (8,000,000,000,008,000 bytes)"),
            ({"noise": {"kind": "mc", "paths": 10**14}},
             "1 x 100000000000000 x 51 (40,800,000,000,000,000 bytes)"),
        ],
        ids=["steps-1e12", "paths-1e14"],
    )
    def test_huge_config_exits_2_without_allocating(self, tmp_path, capsys, over, estimate):
        doc = make_doc(**{"grid": {"horizon": 1.0, "steps": 50}, "noise": {"kind": "mc", "paths": 1000},
                          "policy": {}, **over})
        path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the price stack of ") and err.count("\n") == 1
        assert estimate in err
        assert peak < 1 << 20
        assert not (tmp_path / "o").exists()

    def test_simulate_writes_its_outputs_in_chunk_bounded_memory(self, tmp_path, monkeypatch):
        """Past the panel, writing and digesting prices.csv holds O(CSV_CHUNK_ROWS)
        rows, never an array as large as the price stack.  simulate_panel's own
        transients are left out: the peak is reset when it returns."""
        from frictionopt import harness

        def panel_then_reset_peak(*args, **kwargs):
            panel = simulate_panel(*args, **kwargs)
            tracemalloc.reset_peak()
            return panel

        monkeypatch.setattr(harness, "simulate_panel", panel_then_reset_peak)
        thetas = [
            {"type": "black_scholes", "mu": 0.1, "sigma": 0.2},
            {"type": "black_scholes", "mu": -0.05, "sigma": 0.25},
        ]
        grid, noise = {"horizon": 1.0, "steps": 50}, {"kind": "mc", "paths": 2000}
        path = write_config(tmp_path, make_doc(grid=grid, noise=noise, policy={}, thetas=thetas))
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        price_stack, noise_panel = 8 * 2 * 2000 * 51, 8 * 2000 * 50
        # per chunk row: five cells' strings and pointers and the joined line;
        # about 400 bytes measured in a fresh interpreter, imports included
        assert peak < price_stack + noise_panel + 512 * CSV_CHUNK_ROWS

    def test_what_a_command_holds_is_measured_against_one_budget(self):
        # 4 models x 100k paths x 51 times: the stack (about 163 MB), the
        # noise panel and two model arrays, about 285 MB in all, are accepted
        ok = make_doc(grid={"horizon": 1.0, "steps": 50}, noise={"kind": "mc", "paths": 100_000}, policy={},
                      thetas=[{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}] * 4)
        parse_config(ok)
        wide = dict(ok, noise={"kind": "mc", "paths": 10**7, "drivers": 6},
                    thetas=[{"type": "black_scholes", "mu": 0.1, "sigma": 0.2}])
        with pytest.raises(ConfigError, match="noise panel of 10000000 x 50 x 6"):
            parse_config(wide)
        # a lattice has 2^(steps x drivers) paths whatever noise.paths says;
        # one model on 22 steps is a 772 MB stack, which a rule on the
        # largest array alone accepts, but its noise and model arrays and a
        # lattice policy's indices and decode take 7.5 GB
        with pytest.raises(ConfigError, match=r"price stack of 1 x 4194304 x 23 \(771,751,936 bytes\), .* "
                                              r"would take 7,549,747,384 bytes, over the work budget"):
            parse_config(make_doc(grid={"horizon": 1.0, "steps": 22}))
        # on 20 steps a schedule fits, and a lattice policy does not
        lattice = make_doc(grid={"horizon": 1.0, "steps": 20})
        parse_config(dict(lattice, policy={"class": "deterministic-schedule"}))
        with pytest.raises(ConfigError, match=r"2 codec indices of 1048576 x 19 \(318,767,104 bytes\), "
                                              r"4 decode arrays of 1048576 x 21 \(704,643,072 bytes\) "
                                              r"would take 1,719,664,808 bytes"):
            parse_config(lattice)


# a solve whose optimum trades and whose strategy.csv and ledger_worst.csv span several chunks
TRADING_SOLVE = make_doc(
    thetas=[TWO_BS[0], {"type": "black_scholes", "mu": 0.06, "sigma": 0.25}],
    grid={"horizon": 1.0, "steps": 5},
    noise={"kind": "mc", "paths": 2100},
    policy={"class": "deterministic-schedule"},
    optimizer={"iters": 2},
)
forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="CSV workers are forked processes")
# the two-model family whose optimum trades, at 20,000 paths and 50 steps:
# a 16.3 MB price stack, and a 3-iteration solve
PEAK_DOC = make_doc(
    seed=7,
    thetas=TRADING_SOLVE["thetas"],
    grid={"horizon": 1.0, "steps": 50},
    noise={"kind": "mc", "paths": 20_000},
    policy={"class": "deterministic-schedule"},
    optimizer={"iters": 3},
)


class TestCommandPeaks:
    """Each command's whole peak (tracemalloc around main) as a multiple of
    the price stack.  Every model simulates into its own slice of the stack,
    and a strategy settles as its schedule rows, so past the stack and the
    noise panel a command holds about one model's arrays at a time; with
    per-path copies of the prices and the rows each command read about 3.5x.

    write_csv formats only the first chunk of each file here: its memory is
    bounded by a chunk whatever the file's length (see
    test_simulate_writes_its_outputs_in_chunk_bounded_memory), and formatting
    two million rows under tracemalloc takes about 15 s."""

    @pytest.mark.parametrize(
        "command, bound", [("simulate", 2.0), ("duality", 2.5), ("solve", 3.0), ("verify-cps", 2.75)]
    )
    def test_peak_is_a_small_multiple_of_the_price_stack(self, tmp_path, monkeypatch, command, bound):
        from frictionopt import harness

        def first_chunk(path, header, columns, workers=1):
            write_csv(path, header, [np.asarray(c).flat[:CSV_CHUNK_ROWS] for c in columns], workers)

        monkeypatch.setattr(harness, "write_csv", first_chunk)
        path = write_config(tmp_path, PEAK_DOC)
        tracemalloc.start()
        try:
            code = main([command, "--config", path, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound * 8 * 2 * 20_000 * 51


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
class TestCsvWorkers:
    """--threads sets how many processes format the chunks of prices.csv;
    the bytes are the same at every count, and every worker is reaped."""

    @pytest.mark.parametrize(
        "command, doc, outputs",
        [
            ("simulate", make_doc(thetas=TWO_BS, noise={"kind": "mc", "paths": 2100}, policy={}), ["prices.csv"]),
            ("solve", TRADING_SOLVE, ["ledger_worst.csv", "strategy.csv", "history.csv", "report.json"]),
        ],
        ids=["simulate", "solve"],
    )
    def test_outputs_are_byte_identical_at_any_thread_count(self, tmp_path, monkeypatch, command, doc, outputs):
        # three usable CPUs, so --threads 3 forks two workers wherever a file has three chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg_path = write_config(tmp_path, doc)
        written = {}
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            assert main([command, "--config", cfg_path, "--out", str(out), "--threads", str(threads)]) == 0
            assert_no_child_left()
            written[threads] = [(out / name).read_bytes() for name in outputs]
        assert written[1][0].count(b"\n") > CSV_CHUNK_ROWS + 1
        assert written[2] == written[1] and written[3] == written[1]

    def test_a_failing_worker_exits_3_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        from frictionopt import harness

        parent, chunk = os.getpid(), harness._csv_chunk

        def fail_in_a_worker(sources, lo):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return chunk(sources, lo)

        monkeypatch.setattr(harness, "_csv_chunk", fail_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        doc = make_doc(thetas=TWO_BS, noise={"kind": "mc", "paths": 2100}, policy={})
        cfg_path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o"), "--threads", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: CSV worker ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert_no_child_left()

    def test_workers_are_capped_by_the_usable_cpus(self, tmp_path, monkeypatch):
        """--threads 64 on a 2-CPU affinity forks once; a second fork would
        raise instead of starting a crowd."""
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            if len(forks) > 1:
                raise OSError("a second CSV worker was started")
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        doc = make_doc(thetas=TWO_BS, noise={"kind": "mc", "paths": 2100}, policy={})
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o"), "--threads", "64"]) == 0
        assert_no_child_left()
        assert forks == [1]
        # a one-chunk file never forks
        write_csv(tmp_path / "small.csv", ["a"], [np.arange(CSV_CHUNK_ROWS)], workers=64)
        assert forks == [1]

    def test_solve_formats_its_csvs_in_process(self, tmp_path, monkeypatch):
        from frictionopt.harness import SOLVE_OUTPUTS

        forks = []

        def refused_fork():
            forks.append(1)
            raise OSError("solve started a CSV worker")

        monkeypatch.setattr(os, "fork", refused_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg_path = write_config(tmp_path, TRADING_SOLVE)
        written = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert main(["solve", "--config", cfg_path, "--out", str(out), "--threads", str(threads)]) == 0
            written[threads] = [(out / name).read_bytes() for name in SOLVE_OUTPUTS]
        assert forks == []
        assert (tmp_path / "t2" / "ledger_worst.csv").read_bytes().count(b"\n") > CSV_CHUNK_ROWS + 1
        assert written[2] == written[1]

    def test_without_fork_the_writer_runs_serially(self, tmp_path, monkeypatch):
        columns = [np.arange(3 * CSV_CHUNK_ROWS), np.linspace(0.0, 1.0, 3 * CSV_CHUNK_ROWS)]
        write_csv(tmp_path / "forked.csv", ["i", "x"], columns, workers=2)
        monkeypatch.delattr(os, "fork")
        write_csv(tmp_path / "serial.csv", ["i", "x"], columns, workers=2)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()
        assert (tmp_path / "serial.csv").read_text() == reference_csv(["i", "x"], zip(*columns))


# a simulate whose prices.csv spans nine chunks, so --threads 2 forks a worker
SIMULATE_9_CHUNKS = make_doc(thetas=TWO_BS, noise={"kind": "mc", "paths": 2100}, policy={})


class TestWriteFailures:
    """An output that cannot be written ends the run like an --out that
    cannot be created: exit 2, one error line, no traceback and no worker
    left behind."""

    @pytest.mark.parametrize(
        "command, doc, threads, blocked",
        [
            ("simulate", SIMULATE_9_CHUNKS, 1, "prices.csv"),
            ("simulate", SIMULATE_9_CHUNKS, 2, "prices.csv"),
            ("verify-cps", make_doc(), 1, "verify.json"),
            ("solve", make_doc(), 1, "report.json"),
            ("solve", make_doc(), 1, "history.csv"),
            ("duality", make_doc(), 1, "duality.json"),
            ("simulate", make_doc(noise={"kind": "mc", "paths": 4}, policy={}), 1, "manifest.json"),
        ],
        ids=["prices-1", "prices-2", "verify", "report", "history", "duality", "manifest"],
    )
    def test_a_directory_in_an_outputs_place_exits_2(self, tmp_path, monkeypatch, capfd, command, doc, threads, blocked):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "o"
        (out / blocked / "inside").mkdir(parents=True)
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out), "--threads", str(threads)]
        code = main(argv)
        captured = capfd.readouterr()  # the file descriptors, so a worker's stderr is caught too
        assert code == 2
        assert captured.err.startswith("error: cannot write output: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert (out / blocked / "inside").is_dir()
        assert_no_child_left()


MC_SCHEDULE_SOLVE = make_doc(
    noise={"kind": "mc", "paths": 50}, policy={"class": "deterministic-schedule"}, optimizer={"iters": 3}
)


def cli_process(*argv: str, unbuffered: bool = False, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run the CLI in its own process, as ``python -m frictionopt.cli`` runs
    it.  PYTHONUNBUFFERED is removed unless unbuffered is set, so stdout is
    block-buffered and a write that cannot land fails at the final flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "frictionopt.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


class TestProcessExit:
    """A CLI process ends at its last output, without the interpreter's
    teardown: its exit codes and files are main's, and stdout that cannot be
    written exits 2 with one error line."""

    def test_selftest_through_a_pipe_passes(self):
        run = cli_process("selftest")
        assert (run.returncode, run.stdout, run.stderr) == (0, "selftest: PASS\n", "")

    def test_solve_writes_the_bytes_main_writes(self, tmp_path):
        cfg_path = write_config(tmp_path, MC_SCHEDULE_SOLVE)
        run = cli_process("solve", "--config", cfg_path, "--out", str(tmp_path / "process"))
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "in-process")]) == 0
        manifests = []
        for out in (tmp_path / "process", tmp_path / "in-process"):
            assert sorted(os.listdir(out)) == sorted([*SOLVE_OUTPUTS, "manifest.json"])
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_time_s"], manifest["config"]["out"]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        for name in SOLVE_OUTPUTS:
            assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes(), name

    def test_a_bad_config_exits_2_with_one_error_line(self, tmp_path):
        doc = make_doc()
        del doc["utility"]
        run = cli_process("solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o"))
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1

    def test_verify_cps_nonexistence_exits_3_with_its_verdict(self, tmp_path):
        doc = make_doc(thetas=[{"type": "arctan_drift"}], cost={"lambda": 0.42, "x0": 1.0},
                       noise={"kind": "mc", "paths": 50}, grid={"horizon": 1.0, "steps": 10}, policy={})
        out = tmp_path / "v"
        run = cli_process("verify-cps", "--config", write_config(tmp_path, doc), "--out", str(out))
        assert (run.returncode, run.stdout, run.stderr) == (3, "", "")
        verdict = json.loads((out / "verify.json").read_text())["verdict"]
        assert verdict == "no consistent price system exists at this cost level"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
    def test_selftest_output_that_cannot_be_written_exits_2(self, sink, unbuffered):
        if sink == "full-device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            with open("/dev/full", "wb") as stdout:
                run = cli_process("selftest", unbuffered=unbuffered, stdout=stdout)
        else:
            read_fd, write_fd = os.pipe()
            os.close(read_fd)
            try:
                run = cli_process("selftest", unbuffered=unbuffered, stdout=write_fd)
            finally:
                os.close(write_fd)
        assert run.returncode == 2
        assert run.stderr.startswith("error: cannot write output: ") and run.stderr.count("\n") == 1

    def test_a_failed_run_leaves_no_stale_manifest(self, tmp_path):
        cfg_path, out = write_config(tmp_path, MC_SCHEDULE_SOLVE), tmp_path / "o"
        assert cli_process("solve", "--config", cfg_path, "--out", str(out), "--seed", "1").returncode == 0
        strategy = (out / "strategy.csv").read_bytes()
        (out / "history.csv").unlink()
        (out / "history.csv").mkdir()
        run = cli_process("solve", "--config", cfg_path, "--out", str(out), "--seed", "2")
        assert run.returncode == 2
        assert run.stderr.startswith("error: cannot write output: ") and run.stderr.count("\n") == 1
        assert not (out / "manifest.json").exists()
        # the files written before the failure stay, and those after it are the first run's
        assert (out / "report.json").is_file() and (out / "strategy.csv").read_bytes() == strategy


# a solve whose optimum trades on a 50-step grid: ledger_worst.csv has full
# cash and liq columns, 51-row periods and 5,100 rows
TRADING_SOLVE_50 = dict(TRADING_SOLVE, grid={"horizon": 1.0, "steps": 50}, noise={"kind": "mc", "paths": 100})


def recorded_csv_columns(tmp_path, monkeypatch, command, doc) -> dict:
    """Run command and return each CSV it writes as (header, columns), the
    arrays exactly as the command passes them to write_csv."""
    from frictionopt import harness

    seen = {}

    def recording(path, header, columns, workers=1):
        seen[path.name] = (header, columns)
        write_csv(path, header, columns, workers)

    monkeypatch.setattr(harness, "write_csv", recording)
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    return seen


@forking
class TestCellSources:
    """write_csv fixes each column's cell source once per file: a broadcast
    column whose compact base fits a chunk is formatted once from that base,
    any other column chunk by chunk, once per run of equal values where its
    first chunk repeats values in runs.  The bytes are the row-by-row rendering's whichever
    source a column takes, at any worker count."""

    def test_a_broadcast_base_is_formatted_once_per_file(self, tmp_path, monkeypatch):
        from frictionopt import harness

        formatted, cells = [], harness._csv_cells

        def counted(column, *args):
            formatted.append(len(column))
            return cells(column, *args)

        monkeypatch.setattr(harness, "_csv_cells", counted)
        shape = (4, 1000, 51)  # simulate's prices.csv on the benchmark's family
        prices = np.random.default_rng(8).lognormal(size=shape)
        columns = np.broadcast_arrays(
            np.arange(4)[:, None, None], np.arange(1000)[:, None], np.arange(51), np.linspace(0.0, 1.0, 51), prices
        )
        path = tmp_path / "prices.csv"
        write_csv(path, ["theta_index", "path", "time_index", "time", "price"], columns)
        assert path.read_bytes().count(b"\n") == 1 + prices.size
        assert prices.size < sum(formatted) <= prices.size + 4 + 1000 + 51 + 51

    def test_a_base_larger_than_a_chunk_is_formatted_chunk_by_chunk(self, tmp_path):
        """A path column at 20,000 paths is broadcast from a base ten chunks
        long: formatting that base whole would hold its 20,000 cells."""
        shape = (20_000, 3)
        columns = np.broadcast_arrays(np.arange(shape[0])[:, None], np.arange(shape[1]))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "paths.csv", ["path", "time_index"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "paths.csv").read_bytes().count(b"\n") == 1 + 60_000
        assert peak < 256 * CSV_CHUNK_ROWS

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "doc, name, full, chunk_rows",
        [
            # 16 paths x 5 times; chunks of 17 rows split the 5-row periods
            (dict(LATTICE_DUALITY_DOC, grid={"horizon": 1.0, "steps": 4}, optimizer={"iters": 40, "step0": 1.0}),
             "strategy.csv", ["d_up", "d_dn"], 17),
            # 100 paths x 51 times; 2,048 = 40 x 51 + 8
            (TRADING_SOLVE_50, "ledger_worst.csv", ["cash", "liq"], CSV_CHUNK_ROWS),
            (TRADING_SOLVE_50, "strategy.csv", [], CSV_CHUNK_ROWS),
        ],
        ids=["lattice-strategy", "trading-ledger", "schedule-strategy"],
    )
    def test_the_callers_column_mixes_are_rendered_row_by_row(
        self, tmp_path, monkeypatch, doc, name, full, chunk_rows, workers
    ):
        from frictionopt import harness

        header, columns = recorded_csv_columns(tmp_path, monkeypatch, "solve", doc)[name]
        columns = [np.asarray(c) for c in columns]
        assert [h for h, c in zip(header, columns) if 0 not in c.strides] == full
        monkeypatch.setattr(harness, "CSV_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = tmp_path / name
        write_csv(path, header, columns, workers)
        assert columns[0].size > 2 * chunk_rows
        assert path.read_text() == reference_csv(header, zip(*[np.ravel(c) for c in columns]))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("constant_first", [True, False], ids=["constant-then-distinct", "distinct-then-runs"])
    def test_a_full_column_whose_chunks_differ_in_repeats(self, tmp_path, monkeypatch, constant_first, workers):
        """The rule is read off a column's first chunk; later chunks that
        would have chosen the other way give the same bytes: distinct values
        formatted by runs, or runs of -0.0, 0.0 and NaN payloads formatted
        value by value."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(12)
        n = 3 * CSV_CHUNK_ROWS + 5
        payload_nan = np.asarray([0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64)
        pool = np.concatenate([[-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1], payload_nan])
        distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        runs = np.repeat(rng.choice(pool, n), 8)[:n]
        if constant_first:
            column = np.concatenate([np.full(CSV_CHUNK_ROWS, 0.25), distinct[CSV_CHUNK_ROWS:]])
        else:
            column = np.concatenate([distinct[:CSV_CHUNK_ROWS], runs[CSV_CHUNK_ROWS:]])
        ints = np.concatenate([np.zeros(CSV_CHUNK_ROWS, np.int64), rng.integers(-(2**62), 2**62, n - CSV_CHUNK_ROWS)])
        header = ["x", "ints", "flags", "runs"]
        columns = [column, ints if constant_first else ints[::-1], np.arange(n) % 3 == 0, runs]
        path = tmp_path / "mixed.csv"
        write_csv(path, header, columns, workers)
        assert path.read_text() == reference_csv(header, zip(*columns))
        assert_no_child_left()
