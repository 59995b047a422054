"""Command line entry point.

Exit codes: 0 success, 2 bad configuration or an output that cannot be
written, 3 verification failure or any other engine error.  Errors print
one ``error:`` line on stderr, never a traceback.  Stdout is an output too:
``selftest`` whose verdict cannot be written (a closed pipe, a full disk)
exits 2 with ``error: cannot write output: ...``.

The process ends right after its outputs are written and stdout and stderr
are flushed, without the interpreter's teardown (see entry).

``--threads``, else the config's ``threads``, is the engine's one
parallelism control: the number of processes that format simulate's
prices.csv.
Unless the user sets one of BLAS_THREAD_VARS, the CLI runs numpy's BLAS on
one thread: set before numpy loads, this keeps OpenBLAS from starting an
idle worker per core in every process, and keeps long dot products (which
OpenBLAS splits across its threads) byte-identical from host to host.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# numpy loads below, with the BLAS setting above in force
import numpy as np  # noqa: E402

from .config import load_config  # noqa: E402
from .errors import ConfigError, EngineError  # noqa: E402
from .harness import cmd_duality, cmd_selftest, cmd_simulate, cmd_solve, cmd_verify_cps, run  # noqa: E402

EXIT_CONFIG = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exits 2; subparsers
    are built from the same class."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frictionopt",
        description="Robust utility maximization under proportional transaction costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "simulate the model family on the shared noise panel"),
        ("verify-cps", "construct and verify a consistent price system"),
        ("solve", "solve the robust utility maximization problem"),
        ("duality", "solve and run duality diagnostics"),
        ("selftest", "run the built-in smoke battery"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "selftest":
            continue
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None, help="CSV-formatting processes (overrides config)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"simulate": cmd_simulate, "verify-cps": cmd_verify_cps, "solve": cmd_solve, "duality": cmd_duality}
    try:
        if args.command == "selftest":
            return cmd_selftest()
        # an overflow ends in an explicit check's error, so numpy's warnings
        # about it would only break the one-line stderr contract
        with np.errstate(all="ignore"):
            cfg = load_config(args.config, overrides={"seed": args.seed, "threads": args.threads, "out": args.out})
            return run(args.command, command[args.command], cfg)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_VERIFY


def entry() -> None:
    """The process entry point, of ``python -m frictionopt.cli`` and of the
    ``frictionopt`` console script: run main, flush stdout and stderr, and
    end the process with os._exit, skipping the interpreter's teardown
    (mostly numpy's).  Stdout that cannot be flushed exits 2 with one
    ``error: cannot write output:`` line.

    The skip loses nothing, because when main returns every output file is
    closed, write_csv has reaped its forked workers, no command has started
    a thread, and the package registers no atexit handler.  A usage error
    or --help (SystemExit from the parser) and an uncaught exception do not
    return from main, so they keep the full teardown."""
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
