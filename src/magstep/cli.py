"""Command-line front end: propagation runs, convergence studies, verification.

All numeric CSV output uses 17 significant digits (round-trip exact for
doubles), a header row and LF line endings, so identical flags produce
byte-identical files.

Exit codes: 0 success, 1 usage error, 2 numerical-precondition failure
(including running out of memory and float overflow or division by zero),
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .evolution import convergence_study, default_ladder, propagate
from .hamiltonians import HamiltonianModel, ModelError, builtin_case, load_model
from .linalg import PreconditionError
from .magnus_steps import ALL_METHODS, MethodId, StepContext
from .verify import MIN_GL_POINTS, OracleConfig, check_closed_forms, check_symmetry_suite

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


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


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
        p.add_argument("--case", choices=["I", "II", "III", "IV"], help="builtin two-state parameter case")
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
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--dim", type=int, default=2)
    ver.add_argument("--dt", type=_finite_float, default=1.0, help="step of the certified terms (nonzero)")
    ver.add_argument("--points", type=int, default=8, help="Gauss-Legendre points per axis")
    ver.add_argument("--draws", type=int, default=100, help="random draws per identity (>= 1)")
    ver.add_argument("--tolerance", type=float, default=None, help="override every identity tolerance")
    ver.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("list-methods", help="print the method names in their fixed order")
    return parser


def _cmd_propagate(args) -> int:
    model = _resolve_model(args)
    method = MethodId.from_name(args.method)
    span = args.t_final - args.t0
    if span <= 0:
        raise PreconditionError(f"--t-final must exceed --t0, got {args.t_final} and {args.t0}")
    if (args.dt is None) == (args.n_steps is None):
        raise UsageError("give exactly one of --dt or --n-steps")
    if args.n_steps is not None:
        n = args.n_steps
        if n < 1:
            raise UsageError("--n-steps must be positive")
    else:
        if args.dt <= 0:
            raise UsageError("--dt must be positive")
        if not math.isfinite(span / args.dt):
            raise PreconditionError(f"--dt {args.dt!r} gives more steps than a float can count")
        n = max(1, int(round(span / args.dt)))
    if not 0 <= args.initial < model.dim:
        raise UsageError(f"--initial must be in 0..{model.dim - 1}")
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[args.initial] = 1.0

    trace = propagate(method, model, args.t0, args.t_final, n, psi0, StepContext(hbar=args.hbar))
    header = ["t"] + [f"pop_{i}" for i in range(model.dim)] + ["unitarity_defect"]
    rows = (
        [trace.times[k], *trace.populations[k], trace.unitarity_defects[k]]
        for k in range(len(trace.times))
    )
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _cmd_converge(args) -> int:
    model = _resolve_model(args)
    methods = _resolve_methods(args.methods)
    dts = args.dts if args.dts else default_ladder(args.t_final, args.t0)
    report = convergence_study(
        model, methods, dts=dts, tf=args.t_final, t0=args.t0, ctx=StepContext(hbar=args.hbar)
    )
    lines = ["method,dt,n_steps,error"]
    for r in report.records:
        lines.append(f"{r.method.value},{_fmt(r.dt)},{r.n_steps},{_fmt(r.error)}")
    lines.append("method,slope")
    for method in methods:
        lines.append(f"{method.value},{_fmt(report.slopes[method])}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.draws < 1:
        raise UsageError("--draws must be at least 1")
    if args.points < MIN_GL_POINTS:
        raise UsageError(f"--points must be at least {MIN_GL_POINTS}")
    if args.dt == 0.0:
        raise UsageError("--dt must be nonzero")
    cfg = OracleConfig(gl_points_per_axis=args.points, seed=args.seed, dim=args.dim, dt=args.dt)
    rows = []
    if args.suite in ("closed-forms", "all"):
        kwargs = {"draws": args.draws}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        rows.extend(check_closed_forms(cfg, **kwargs).rows)
    if args.suite in ("symmetry", "all"):
        kwargs = {"draws": args.draws, "oracle_draws": min(args.draws, 25)}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        rows.extend(check_symmetry_suite(cfg, **kwargs).rows)
    _write_csv(
        args.out,
        ["identity", "max_rel_dev", "tolerance", "pass"],
        ([r.identity, r.max_rel_dev, r.tolerance, r.passed] for r in rows),
    )
    failed = [r.identity for r in rows if not r.passed]
    if failed:
        print(f"verification FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
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
