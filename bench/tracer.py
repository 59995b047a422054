"""Outside-in span tracer for the frictionopt CLI.

Run as a script, it installs the tracer, runs one CLI command and writes the
per-layer aggregates as JSON:

    python3 bench/tracer.py TRACE.json solve --config run.json --out DIR

The tracer wraps the public functions each layer exports at every name a
frictionopt module holds them under (``frictionopt.solver.run_ledger`` as
well as ``frictionopt.accounting.run_ledger``) and the class attributes
``PolicyCodec.decode`` and ``UtilitySpec.__call__``, so calls are timed where
callers look them up and no file under ``src/`` changes.  Span stacks are per
thread; ``ThreadPoolExecutor.submit`` is wrapped so that work run on a pool
thread has the submitting span as its parent.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer module, exported name) pairs; a dotted name is a class attribute.
# The cmd_* functions are the root span of every command.
TRACED = (
    ("config", "load_config"),
    ("harness", "cmd_simulate"),
    ("harness", "cmd_verify_cps"),
    ("harness", "cmd_solve"),
    ("harness", "cmd_duality"),
    ("harness", "write_csv"),
    ("harness", "write_json"),
    ("harness", "write_manifest"),
    ("scenario", "gaussian_panel"),
    ("scenario", "lattice_panel"),
    ("scenario", "simulate_panel"),
    ("scenario", "simulate"),
    ("fvproc", "position_recursion"),
    ("accounting", "run_ledger"),
    ("accounting", "check_admissible_rplus"),
    ("utility", "UtilitySpec.__call__"),
    ("utility", "vector_conjugate"),
    ("cps", "girsanov_cps"),
    ("cps", "lattice_cps"),
    ("cps", "verify_band"),
    ("cps", "verify_martingale"),
    ("cps", "entropy_membership"),
    ("cps", "supermartingale_check"),
    ("cps", "polarity_gap"),
    ("solver", "PolicyCodec.decode"),
    ("solver", "objective"),
    ("solver", "solve"),
    ("solver", "default_price_systems"),
    ("solver", "duality_report"),
)


class Tracer:
    """Records (id, parent, name, start, end) spans in memory; per-layer
    counters that are not call counts go into ``counts``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts = {"utility.vector_conjugate.points": 0, "solver.iterations": 0}
        self.written_csv: list[Path] = []
        self.manifests: list[Path] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "utility.vector_conjugate":
            self.counts["utility.vector_conjugate.points"] += int(np.size(args[1]))
        elif name == "harness.write_csv":
            self.written_csv.append(Path(args[0]))
        elif name == "harness.write_manifest":
            self.manifests.append(Path(args[0]) / "manifest.json")
        elif name == "solver.solve":
            self.counts["solver.iterations"] += len(result.history) - 1

    def wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer._stack()[-1]

            def run(*a, **kw):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = [parent]
                try:
                    return fn(*a, **kw)
                finally:
                    stack[:] = saved

            return submit(pool, run, *args, **kwargs)

        return traced_submit

    def aggregate(self) -> dict:
        """Self time (span minus the union of its children's intervals) and
        call count per span name, plus the output counters."""
        children = defaultdict(list)
        for sid, parent, _name, start, end in self.spans:
            children[parent].append((start, end))
        layers: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "total_s": 0.0, "calls": 0})
        for sid, _parent, name, start, end in self.spans:
            total = end - start
            agg = layers[name]
            agg["s"] += total - _covered(children.get(sid, ()), start, end)
            agg["total_s"] += total
            agg["calls"] += 1
        counts = dict(self.counts)
        rows = nbytes = 0
        for path in self.written_csv:
            data = path.read_bytes()
            rows += data.count(b"\n") - 1
            nbytes += len(data)
        counts["harness.write_csv.rows"] = rows
        counts["harness.write_csv.bytes"] = nbytes
        counts["harness.write_manifest.bytes_digested"] = sum(
            entry["bytes"] for path in self.manifests for entry in json.loads(path.read_text())["outputs"]
        )
        return {"layers": dict(layers), "counts": counts, "spans": len(self.spans)}


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def install(tracer: Tracer) -> None:
    """Replace every traced function at each frictionopt name that holds it."""
    import frictionopt.cli  # noqa: F401  (imports every layer the CLI uses)

    modules = [m for name, m in list(sys.modules.items()) if name == "frictionopt" or name.startswith("frictionopt.")]
    for layer, attr in TRACED:
        module = importlib.import_module(f"frictionopt.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{attr}", cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(f"{layer}.{attr}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    pool_cls = concurrent.futures.ThreadPoolExecutor
    pool_cls.submit = tracer.wrap_submit(pool_cls.submit)


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from frictionopt.cli import main as cli_main

    code = cli_main(argv[1:])
    trace_path.write_text(json.dumps(tracer.aggregate()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
