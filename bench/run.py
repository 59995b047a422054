"""Closed-loop benchmark of the frictionopt CLI.

    python3 bench/run.py --workload mc-solve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it invokes the
CLI one process at a time for ``--seconds`` seconds, tracing off, and reports
the end-to-end metrics declared in BENCHMARK.json.  With ``--trace 1`` it
alternates untraced invocations with traced ones (bench/tracer.py) and
reports the per-layer metrics.  Every invocation gets a fresh output
directory, and its outputs are checked outside the timed region.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0
SETUP_SNIPPET = "import sys; from frictionopt.config import load_config; load_config(sys.argv[1])"


@dataclass
class Invocation:
    traced: bool
    warmup: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    manifest_wall_s: float | None = None
    trace: dict | None = None


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


class Launcher:
    """Runs each child through bench/launcher.py, started while this process
    is still small, so the child's peak RSS is its own (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list, env: dict, stdout: Path, stderr: Path, timeout: float) -> dict:
        """Run one child to completion: wall_s, cpu_s, maxrss_kb and exit code."""
        req = {"argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(stdout), "stderr": str(stderr),
               "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(inv: Invocation, inv_dir: Path, workload, ctx) -> None:
    out = inv_dir / "out"
    stderr = (inv_dir / "stderr").read_text(errors="replace")
    if inv.code != 0:
        inv.problems.append(f"exit code {inv.code}")
    if "Traceback (most recent call last)" in stderr:
        inv.problems.append("traceback on stderr")
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        inv.problems.append("no manifest.json")
        return
    manifest = json.loads(manifest_path.read_text())
    inv.manifest_wall_s = manifest.get("wall_time_s")
    files = sorted(p for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    inv.digests = {p.name: sha256(p) for p in files}
    listed = {e["name"]: e["sha256"] for e in manifest.get("outputs", [])}
    if listed != inv.digests:
        inv.problems.append("manifest digests do not match the output files")
    try:
        inv.problems.extend(workload.check(out, ctx, inv.info))
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        inv.problems.append(f"output check raised {exc!r}")


def invoke(launcher: Launcher, n: int, traced: bool, warmup: bool, workload, ctx, env: dict, work: Path, deadline: float) -> Invocation:
    inv_dir = work / f"inv{n}"
    inv_dir.mkdir()
    cli = [workload.command, "--config", str(ctx.config_path), "--out", str(inv_dir / "out"),
           "--threads", str(workload.threads)]
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(inv_dir / "trace.json"), *cli]
    else:
        argv = [sys.executable, "-m", "frictionopt.cli", *cli]
    try:
        timeout = max(deadline - perf_counter(), 5.0)
        r = launcher.run(argv, env, inv_dir / "stdout", inv_dir / "stderr", timeout)
        inv = Invocation(traced, warmup, r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024.0, r["code"])
        check_outputs(inv, inv_dir, workload, ctx)
        if traced and (inv_dir / "trace.json").is_file():
            inv.trace = json.loads((inv_dir / "trace.json").read_text())
        elif traced:
            inv.problems.append("traced run wrote no trace")
        return inv
    finally:
        shutil.rmtree(inv_dir, ignore_errors=True)


def setup_probe(launcher: Launcher, env: dict, work: Path, config_path: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing frictionopt and loading the config."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
    r = launcher.run(argv, env, work / "setup.out", work / "setup.err", max(deadline - perf_counter(), 5.0))
    if r["code"] != 0:
        raise RuntimeError(f"setup probe exited {r['code']}: {(work / 'setup.err').read_text()[-500:]}")
    return r["wall_s"]


def percentile_summary(values: list) -> str:
    """The highest of p99.9/p99/p95/p90/p75 that has at least ten samples
    beyond it, with the sample count."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"n={n} p{p:g}={cut:.6g}"
    return f"n={n} (no percentile with >=10 samples beyond it)"


def layer_metric(name: str, untraced: list, traced: list) -> float:
    traces = [inv.trace for inv in traced]
    first = traces[0]
    if name == "trace.overhead_s":
        return statistics.median(i.wall_s for i in traced) - statistics.median(i.wall_s for i in untraced)
    if name == "cli.outside_cmd_s":
        return statistics.median(i.wall_s - i.manifest_wall_s for i in untraced if i.manifest_wall_s is not None)
    if name in ("trace.cmd_s", "trace.unattributed_s"):
        key = "total_s" if name == "trace.cmd_s" else "s"
        return statistics.median(
            sum(v[key] for k, v in t["layers"].items() if k.startswith("harness.cmd_")) for t in traces
        )
    if name == "solver.ledger_passes_per_iter":
        iters = first["counts"].get("solver.iterations", 0)
        calls = first["layers"].get("accounting.run_ledger", {}).get("calls", 0)
        return calls / iters if iters else 0.0
    if name in first["counts"]:
        return first["counts"][name]
    span, _, stat = name.rpartition(".")
    if stat == "calls":
        return first["layers"].get(span, {}).get("calls", 0)
    if stat in ("s", "self_s"):
        return statistics.median(t["layers"].get(span, {}).get("s", 0.0) for t in traces)
    raise KeyError(name)


def deterministic_counts(trace: dict) -> dict:
    counts = dict(trace["counts"])
    counts.update({f"{k}.calls": v["calls"] for k, v in trace["layers"].items()})
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "frictionopt" / "cli.py").is_file():
        return fail(f"no frictionopt sources under {ROOT / 'src'}; run from a source checkout")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layers.json").read_text())
    mapped = [m for group in layer_map["groups"] for m in group["metrics"]]
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(mapped) != sorted(declared):
        return fail("bench/layers.json and BENCHMARK.json disagree on the per-layer metrics")

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ENGINE_THREADS", None)
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher()  # before anything heavy is loaded here
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config(args.seed), indent=2))
        ctx = Context(config_path)
        workload.prepare(ctx)
        setup_probe(launcher, env, work, config_path, deadline)  # fills the bytecode cache; not timed

        # setup probes are spread over the run, between invocations, so that
        # their median covers the same stretch of time as the invocations
        setup: list[float] = []
        setup_repeats = 0 if args.trace else SETUP_REPEATS
        # the first invocation of a run tends to be slow; it is checked but
        # left out of the medians
        invocations = [invoke(launcher, 0, False, True, workload, ctx, env, work, deadline)]
        at_least = 3 if args.trace else 2  # trace mode needs one untraced and one traced invocation
        loop_start = perf_counter()
        while len(invocations) < at_least or (
            perf_counter() - loop_start < args.seconds and perf_counter() < deadline - 60.0
        ):
            traced = bool(args.trace) and len(invocations) % 2 == 0
            invocations.append(invoke(launcher, len(invocations), traced, False, workload, ctx, env, work, deadline))
            due = setup_repeats * min((perf_counter() - loop_start) / args.seconds, 1.0)
            while len(setup) < due:
                setup.append(setup_probe(launcher, env, work, config_path, deadline))
        while len(setup) < setup_repeats:
            setup.append(setup_probe(launcher, env, work, config_path, deadline))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    reference = invocations[0].digests
    for inv in invocations[1:]:
        if inv.digests and reference and inv.digests != reference:
            inv.problems.append("outputs differ from the run's first invocation")
    failed = [inv for inv in invocations if inv.problems]
    untraced = [inv for inv in invocations if not inv.traced and not inv.warmup]
    traced = [inv for inv in invocations if inv.traced and inv.trace]

    print(f"workload {workload.name}  command {workload.command} --threads {workload.threads}  seed {args.seed}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"invocations {len(invocations)} (warm-up 1, untraced {len(untraced)}, "
          f"traced {len(invocations) - len(untraced) - 1})  "
          f"failed {len(failed)}  error_rate {len(failed) / len(invocations):.4g}")
    for inv in failed:
        print(f"  failure ({'traced' if inv.traced else 'untraced'}): {'; '.join(inv.problems)}")
    for key in ("robust_value", "oracle_diff", "oracle_gap", "max_z"):
        vals = [inv.info[key] for inv in invocations if key in inv.info]
        if vals:
            print(f"{key} {vals[0]!r}" + ("" if len(set(vals)) == 1 else f" (varies: {sorted(set(vals))})"))
    for name, digest in sorted(reference.items()):
        print(f"sha256 {name} {digest}")

    metrics = {}
    if args.trace == 0:
        walls = [i.wall_s for i in untraced]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(i.cpu_s for i in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
        }
        print(f"wall_s {percentile_summary(walls)}; setup_s n={len(setup)}; medians reported")
        print("wall_s samples " + " ".join(f"{w:.3f}" for w in walls))
        print("setup_s samples " + " ".join(f"{w:.3f}" for w in setup))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        if not traced:
            print("no traced invocation produced a trace", file=sys.stderr)
            return 1
        counts = [deterministic_counts(inv.trace) for inv in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("warning: call counts differ between traced invocations")
        iters = traced[0].trace["counts"].get("solver.iterations", 0)
        print(f"traced invocations {len(traced)}; spans per invocation {traced[0].trace['spans']}; "
              f"ledger_passes_per_iter base: {iters} optimizer iterations")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {
                "value": layer_metric(m["name"], untraced, traced),
                "unit": m["unit"],
            }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if args.trace and metrics["trace.cmd_s"]["value"] > 0:
        share = metrics["trace.unattributed_s"]["value"] / metrics["trace.cmd_s"]["value"]
        print(f"trace.unattributed_s is {share:.3%} of trace.cmd_s")
    result = {"correct": not failed, "attempted": len(invocations), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
