"""Batch harness: run the engine from a config file and leave a reproducible
directory of CSV/JSON outputs plus a manifest with content digests.

Numeric outputs are byte-identical across reruns with the same config and
across --threads settings; the manifest additionally records wall time,
which is the one field expected to vary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .accounting import CostSpec, Strategy, check_admissible_rplus, run_ledger
from .config import RunConfig
from .cps import (
    constant_cps,
    cps_certificate,
    entropy_membership,
    registered_cps,
    verify_band,
    verify_martingale,
)
from .errors import ConfigError, EngineError, NoCpsConstructibleError
from .scenario import ArctanDrift, TimeGrid, gaussian_panel, simulate, simulate_panel
from .solver import default_price_systems, duality_report, solve
from .utility import conjugate, log_utility, vector_conjugate


# rows formatted and written at a time; a chunk's strings take about 260
# bytes a row of prices.csv.  write_csv on simulate's 204k-row prices.csv,
# in process on a 2-core host whose speed varied by a third from run to
# run (two runs, each the median of 7):
#   chunk rows   CPU, 1 worker   CPU, 2 workers   tracemalloc peak
#   1024         230-235 ms      234-287 ms       0.30 MB
#   2048         164-178 ms      187-295 ms       0.53 MB
#   8192         169 ms          234-258 ms       1.89 MB
# CPU is flat from 2048 to 8192 rows and rises below
CSV_CHUNK_ROWS = 1 << 11
# bytes read at a time when digesting an output file; 1 MiB blocks read no
# faster and raised simulate's peak RSS by about 2 MB
DIGEST_BLOCK_BYTES = 1 << 16
# the cells of rows lo .. lo + CSV_CHUNK_ROWS of one column
CellSource = Callable[[int], list[str]]


def _keyed(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable[[Any], str]]:
    """The column as the values to format, integer keys that tell their
    cells apart, and the formatter of one value: booleans as true/false,
    integers with str, anything else as a float's shortest exact repr, so
    files are stable across platforms.  Floats are keyed by bit pattern,
    which keeps -0.0 apart from 0.0 and every NaN payload formats as nan."""
    if column.dtype == np.bool_:
        return column, column.view(np.uint8), ("false", "true").__getitem__
    if column.dtype.kind in "iu":
        return column, column, str
    column = column.astype(np.float64, copy=False)
    return column, column.view(np.int64), float.__repr__


def _csv_cells(column: np.ndarray, runs: bool) -> list[str]:
    """The cells of one contiguous 1-D column.  A cell depends only on its
    value, so with runs each run of equal values is formatted once; without,
    every value is formatted in turn.  Neither sorts: a process's first
    numpy sort or np.unique maps 0.2 to 0.5 MB more of numpy's code."""
    column, keys, fmt = _keyed(column)
    if not runs:
        return list(map(fmt, column.tolist()))
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    cells = np.array(list(map(fmt, column[starts].tolist())), dtype=object)
    return cells.repeat(np.diff(starts, append=keys.size)).tolist()


def _cell_source(column: np.ndarray) -> CellSource:
    """One column's cell source, by a rule fixed once per file.  A broadcast
    column (zero strides, as np.broadcast_arrays makes) whose compact base,
    every zero-stride axis cut to length 1, fits a chunk has that base
    formatted once, and each chunk copies its cells out of an object view
    broadcast from it.  Any other column is formatted chunk by chunk, by
    runs where its first chunk holds at most half as many runs of equal
    values as values."""
    base = column[tuple(slice(1) if s == 0 else slice(None) for s in column.strides)]
    if base.size < column.size and base.size <= CSV_CHUNK_ROWS:
        cells = np.array(_csv_cells(base.ravel(), False), dtype=object).reshape(base.shape)
        cells = np.broadcast_to(cells, column.shape)
        return lambda lo: cells.flat[lo : lo + CSV_CHUNK_ROWS].tolist()
    keys = _keyed(column.flat[:CSV_CHUNK_ROWS])[1]
    runs = 2 * (np.count_nonzero(keys[1:] != keys[:-1]) + 1) <= keys.size
    return lambda lo: _csv_cells(column.flat[lo : lo + CSV_CHUNK_ROWS], runs)


def _csv_chunk(sources: Sequence[CellSource], lo: int) -> bytes:
    """Rows lo .. lo + CSV_CHUNK_ROWS of a file, one cell from each source."""
    return ("\n".join(map(",".join, zip(*(cells(lo) for cells in sources)))) + "\n").encode()


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Any], workers: int = 1) -> None:
    """Write equally shaped column arrays under header, one row per element
    in C order, streaming CSV_CHUNK_ROWS rows at a time.  Each chunk is copied
    flat out of its column, so a broadcast or strided view is never
    materialized whole, and each column's cell source (_cell_source) is
    built before any worker is forked.

    Chunk j is formatted by worker j mod w, with w = min(workers, usable
    CPUs, chunks), or 1 where os.fork is missing.  Worker 0 is this process;
    the others are forked before the file is opened and send their chunks
    back through a pipe each, length-prefixed, to be written in order.  A
    pipe holds a worker at most one chunk ahead, so memory stays
    O(w * CSV_CHUNK_ROWS) rows, and the bytes are the same for every w.  A
    worker that fails raises EngineError; every worker is reaped before
    write_csv returns or raises."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size if columns else 0
    if len(columns) != len(header) or any(c.shape != columns[0].shape for c in columns):
        shapes = [c.shape for c in columns]
        raise ValueError(f"{len(header)} equally shaped columns expected, got shapes {shapes}")
    starts = range(0, n, CSV_CHUNK_ROWS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = max(1, min(workers, cpus, len(starts))) if hasattr(os, "fork") else 1
    sources = [_cell_source(c) for c in columns]
    forked: list[tuple[int, Any]] = []  # (pid, read end of its pipe)
    try:
        for w in range(1, count):
            forked.append(_fork_worker(starts[w::count], sources))
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for j, lo in enumerate(starts):
                f.write(_csv_chunk(sources, lo) if j % count == 0 else _receive(*forked[j % count - 1]))
    finally:
        failed = _reap(forked)
    if failed:
        raise EngineError(f"CSV worker {failed[0]} failed while writing {path.name}")


def _fork_worker(starts: range, sources: Sequence[CellSource]) -> tuple[int, Any]:
    """Fork a worker that formats the chunks at starts and writes each to a
    pipe as an 8-byte length and the chunk; return its pid and the pipe's
    read end.  The child ends only through os._exit, so it never runs the
    caller's exit path or flushes the stdio it shares with the parent."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise EngineError(f"cannot start a CSV worker: {exc}") from exc
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                for lo in starts:
                    data = _csv_chunk(sources, lo)
                    out.write(len(data).to_bytes(8, "little"))
                    out.write(data)
                    out.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _receive(pid: int, pipe) -> bytes:
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data
    raise EngineError(f"CSV worker {pid} ended before sending its chunk")


def _reap(forked: list) -> list:
    """Close every worker's pipe, so that a worker still writing stops, then
    wait for each; return the pids that did not exit 0."""
    for _, pipe in forked:
        pipe.close()
    return [pid for pid, _ in forked if os.waitpid(pid, 0)[1] != 0]


def _jsonify(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n")


def _sha256():
    """A SHA-256 hasher: OpenSSL's where the process has loaded it already
    (every run that imports numpy.random has, through secrets and hmac),
    else the interpreter's built-in one, as random does for _sha512.  The
    built-in is about 7x slower, but spares a lattice run mapping 3.4 MB of
    libcrypto to hash a few kilobytes; the digest is the same."""
    if "_hashlib" not in sys.modules:
        for name in ("_sha2", "_sha256"):  # Python 3.12+, 3.10 and 3.11
            try:
                return __import__(name).sha256()
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256()


def _digest(path: Path) -> dict:
    sha, size = _sha256(), 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(DIGEST_BLOCK_BYTES), b""):
            sha.update(block)
            size += len(block)
    return {"name": path.name, "sha256": sha.hexdigest(), "bytes": size}


def write_manifest(
    out_dir: Path, command: str, cfg: RunConfig, summary: dict, started: float, outputs: Sequence[str]
) -> None:
    """Write manifest.json digesting the named outputs, the files this command
    wrote; anything else in out_dir (say, an earlier command's) is left out."""
    manifest = {
        "engine": {"name": "frictionopt", "version": __version__},
        "command": command,
        "config": cfg.echo,
        "summary": summary,
        "outputs": [_digest(out_dir / name) for name in sorted(outputs)],
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    write_json(out_dir / "manifest.json", manifest)


def _prepare(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out or above it, or no permission
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out_dir


def cmd_simulate(cfg: RunConfig) -> int:
    """Simulate the whole family on the shared panel and dump prices to CSV."""
    started = time.monotonic()
    out_dir = _prepare(cfg)
    noise = cfg.build_noise()
    prices = simulate_panel(cfg.thetas, noise)

    models, paths, points = prices.shape
    write_csv(
        out_dir / "prices.csv",
        ["theta_index", "path", "time_index", "time", "price"],
        np.broadcast_arrays(
            np.arange(models)[:, None, None], np.arange(paths)[:, None], np.arange(points), noise.grid.times, prices
        ),
        workers=cfg.threads,
    )
    summary = {
        "paths": noise.paths,
        "steps": noise.grid.steps,
        "thetas": len(cfg.thetas),
        "terminal_means": [float(np.dot(noise.probs, prices[k][:, -1])) for k in range(len(cfg.thetas))],
    }
    write_manifest(out_dir, "simulate", cfg, summary, started, ["prices.csv"])
    return 0


def cmd_verify_cps(cfg: RunConfig) -> int:
    """Simulate model verify.theta_index and verify its registered price
    system (cps.registered_cps, the one duality checks): band, martingale
    property and entropy membership; exit 3 when verification fails, no
    system can be built or a nonexistence certificate fires."""
    started = time.monotonic()
    out_dir = _prepare(cfg)
    noise = cfg.build_noise()
    k = cfg.verify["theta_index"]
    model = cfg.thetas.models[k]
    prices = simulate(model, noise)
    cert = cps_certificate(model, cfg.cost.lam)
    result: dict[str, Any] = {"theta_index": k, "lambda": cfg.cost.lam, "certificate": cert}
    code = 3
    try:
        ps = registered_cps(model, prices, noise, cfg.cost.lam, cfg.verify["shrink"])
    except NoCpsConstructibleError as exc:
        result["verdict"] = f"construction failed: {exc}"
    else:
        if cert is not None and not cert.exists:
            result["verdict"] = "no consistent price system exists at this cost level"
        elif ps is None:
            result["verdict"] = f"construction failed: no automatic construction for theta {k} on this panel"
        else:
            band = verify_band(prices, ps, cfg.cost.lam)
            mart = verify_martingale(ps)
            entropy = entropy_membership(ps, lambda w: vector_conjugate(cfg.utility, w))
            result.update(
                {
                    "label": ps.label,
                    "mu_level": ps.mu_level,
                    "band": band,
                    "martingale": mart,
                    "entropy": entropy,
                }
            )
            ok = band.holds and mart.passed
            result["verdict"] = "verified" if ok else "verification failed"
            code = 0 if ok else 3
    write_json(out_dir / "verify.json", result)
    write_manifest(out_dir, "verify-cps", cfg, {"exit": code, "verdict": result["verdict"]}, started, ["verify.json"])
    return code


SOLVE_OUTPUTS = ("report.json", "history.csv", "strategy.csv", "ledger_worst.csv")


def _time_zero_trade(strat: Strategy) -> float:
    """The signed block trade at time zero, the same on every path."""
    return float(strat.d_up[0, 0] - strat.d_dn[0, 0])


def _write_solve_outputs(out_dir: Path, problem, report) -> None:
    write_json(
        out_dir / "report.json",
        {
            "best_value": report.best_value,
            "per_theta": report.per_theta,
            "argmin_theta": report.argmin_theta,
            "n_params": report.best_params.size,
            "policy_class": problem.policy_class,
            "admissibility": problem.admissibility,
            "best_params": report.best_params,
            "h0": _time_zero_trade(report.strategy),
        },
    )
    iters, values, argmins, steps = zip(*report.history)
    write_csv(
        out_dir / "history.csv", ["iter", "robust_value", "argmin_theta", "step"], [iters, values, argmins, steps]
    )
    # these two files are formatted in process: their columns repeat few
    # distinct values, so forked workers cost more CPU than they save in wall time
    strat = report.strategy
    columns = np.broadcast_arrays(
        np.arange(problem.noise.paths)[:, None], np.arange(problem.noise.grid.steps + 1), strat.d_up, strat.d_dn
    )
    path, time_index = columns[:2]
    write_csv(out_dir / "strategy.csv", ["path", "time_index", "d_up", "d_dn"], columns)
    ledger = run_ledger(strat, problem.prices[report.argmin_theta], problem.cost)
    write_csv(
        out_dir / "ledger_worst.csv",
        ["path", "time_index", "cash", "position", "liq"],
        [path, time_index, ledger.cash, ledger.position, ledger.liq],
    )


def cmd_solve(cfg: RunConfig) -> int:
    """Solve the robust problem and write report, history, strategy and the
    worst-model ledger."""
    started = time.monotonic()
    out_dir = _prepare(cfg)
    problem = cfg.build_problem()
    report = solve(problem, cfg.optimizer)
    _write_solve_outputs(out_dir, problem, report)
    summary = {
        "best_value": report.best_value,
        "argmin_theta": report.argmin_theta,
        "h0": _time_zero_trade(report.strategy),
    }
    write_manifest(out_dir, "solve", cfg, summary, started, SOLVE_OUTPUTS)
    return 0


def cmd_duality(cfg: RunConfig) -> int:
    """Solve, then check duality bounds, polarity and the utility's growth
    against the registered price systems; exit 3 when any check fails or no
    price system is registered for the family or can be built on its panel
    (then nothing is solved)."""
    started = time.monotonic()
    out_dir = _prepare(cfg)
    problem = cfg.build_problem()
    verdict = "no price system construction is registered for this family"
    try:
        systems = default_price_systems(problem)
    except NoCpsConstructibleError as exc:
        systems, verdict = [], f"construction failed: {exc}"
    if systems:
        report = solve(problem, cfg.optimizer)
        dual = duality_report(problem, report, systems)
        result = {"best_value": report.best_value, **dataclasses.asdict(dual)}
    else:
        result = {"verdict": verdict, "all_ok": False}
    write_json(out_dir / "duality.json", result)
    code = 0 if result["all_ok"] else 3
    write_manifest(out_dir, "duality", cfg, {"exit": code, "all_ok": result["all_ok"]}, started, ["duality.json"])
    return code


def cmd_selftest() -> int:
    """Small built-in battery touching every module; exit 3 on any failure."""
    grid = TimeGrid(1.0, 10)
    noise = gaussian_panel(grid, 64, 1, seed=1)
    prices = simulate(ArctanDrift(), noise)
    cert = cps_certificate(ArctanDrift(), 0.7)
    ledger = run_ledger(Strategy.zero(grid), prices, CostSpec(0.1, 1.0))
    checks = {
        "arctan prices stay in (0.75, 2.25)": prices.min() > 0.75 and prices.max() < 2.25,
        "a price system exists at lambda 0.7": cert is not None and cert.exists,
        "the constant shadow lies in the band": verify_band(prices, constant_cps(noise, 0.75), 2.0 / 3.0).holds,
        "log conjugate at 2": abs(conjugate(log_utility(), 2.0) - (-np.log(2.0) - 1.0)) < 1e-8,
        "the zero strategy is admissible": check_admissible_rplus(ledger).admissible,
        "the zero strategy keeps its cash": float(np.max(np.abs(ledger.liq - 1.0))) == 0.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"selftest: FAIL ({'; '.join(failed)})")
        return 3
    print("selftest: PASS")
    return 0
