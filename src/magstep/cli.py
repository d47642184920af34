"""Command-line front end: propagation runs, convergence studies, verification.

All numeric CSV output uses 17 significant digits (round-trip exact for
doubles), a header row and LF line endings, so identical flags produce
byte-identical files.  Every file goes through one writer, which formats and
writes a fixed-size block of rows before it formats the next.  Its float
fields are exactly Python's ``'%.17g' % x``.  A block of floats alone, as
``propagate`` writes, is written by one numpy kernel for the whole block
(:func:`_g17_lines`).  Its 17 digits are the rounded
double-double product of |x| and a power of ten, whose error is below about
2**-46; a value that error could round either way (a remainder within 2**-30
of one half), a value outside about 1e±280 and a non-finite value are
formatted by ``%`` itself.  The digits are laid out four at a time, each
4-digit group looked up in one table of all 10,000, in a frame of six
8-byte words per field, word by word over the block (:func:`_g17_frame`).
A table with a column of names, step counts or ``true``/``false`` (every
``converge`` and ``verify`` table) is short, and each of its rows is one
``%`` format: its floats ``'%.17g'``, its other fields their ``str``.

The command line is read by one argparse parser, built once per process
(:func:`build_parser`).  Each subcommand names its handler as a parser
default, and each numeric flag's domain lives in its argparse type
(:func:`_number`), so a value outside it is refused as argparse reads the
flag, before a method or model name is looked up, with one line of the form
``argument --dim: must be from 2 to 12, got '13'``.  ``--case``/``--model``
and ``propagate``'s ``--dt``/``--n-steps`` are argparse groups of which
exactly one must be given.

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
import functools
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


# rows formatted per block of the writer: at 1024 rows a block's text and
# values stay below the memory peak of the propagation itself
_CSV_BLOCK_ROWS = 1024

# The %.17g kernel handles |x| in [1e-280, 1e280] (and 0), where 10**(16 - k)
# and Veltkamp's split stay in the normal range, and leaves to Python's own
# '%.17g' any remainder within _G17_TIE of one half: the kernel's error is
# below about 2**-46, so the margin covers it many times over
_G17_SPAN = 280
_G17_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_G17_WORD = np.dtype("<u8")


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The kernel's read-only tables, built on first use: in about 0.75 ms
    in a fresh process, 0.35 ms once numpy is warm (medians; 2 cores,
    Python 3.11, numpy 2.4.6).

    ``hi + lo`` is 10**e to within 2**-104 relative for e from -265 to 297.
    ``kept`` and ``int_digits`` are counts of D's digits; the rest are
    8-byte words of a field's layout (see :func:`_g17_frame`), among them
    ``digits``, one word for each 4-digit group from 0000 to 9999.  Words
    are written as bytes, so they read the same on any byte order.
    """
    # 10**e = 10**(23 m) * 10**b with 0 <= b <= 22, where 10**b is a double
    # and 10**(23 m) is the double-double of its exact value (to 2**-106)
    e = np.arange(15 - _G17_SPAN, 18 + _G17_SPAN)
    m, b = np.divmod(e, 23)
    steps = []
    # e ascends, so m does: m[0] and m[-1] are its least and greatest
    for j in range(m[0], m[-1] + 1):
        t = 10 ** (23 * abs(j))
        # j < 0: q / 2**s is 10**(23 j) truncated to 2**-s, 110 bits below it
        s = 0 if j >= 0 else t.bit_length() + 110
        q = t if j >= 0 else (1 << s) // t
        h = float(q)
        steps.append((math.ldexp(h, -s), math.ldexp(float(q - int(h)), -s)))
    steps = np.array(steps)[m - m[0]]
    hi, lo = _dd_times(np.array([float(10**j) for j in range(23)])[b], steps[:, 0], steps[:, 1])

    # grid[j, g]: digit j of the 4-digit group g, for g from 0000 to 9999
    grid = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    # a group as a word: its digits at the even bytes, each followed by its point slot
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, ::2] = 48 + grid.T
    # kept[i, g]: how many of D's 17 digits run through the last nonzero
    # digit of g as its group i, 0 if g = 0; flat, so group i starts at 10000 i
    last = np.maximum.reduce((grid > 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
    kept = (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (last > 0)
    # cover[i, keep]: the digit bytes of group i that the first `keep` digits of D cover
    cover = b"".join((b"\xff\0" * min(4, max(0, keep - 4 * i - 1))).ljust(8, b"\0") for i in range(4) for keep in range(18))
    # layout key: X + 4 for the fixed form (-4 <= X <= 16), 21 for the
    # exponent form; int_digits[key] of D's digits precede the point
    int_digits = np.array([0] * 4 + list(range(1, 18)) + [1], np.uint8)
    # lead[key]: the "0.000" of the fixed form below 1, from byte 1
    lead = b"".join(b"\0" + b"0.000"[:1 - x].ljust(7, b"\0") for x in range(-4, 0)) + bytes(8 * 18)
    # head: the sign, and D's first digit at byte 6
    head = b"".join(sign.ljust(6, b"\0") + bytes([48 + f, 0]) for sign in (b"", b"-") for f in range(10))
    # exps: nothing for the fixed form, then "e-281" to "e+281"
    exps = b"".join([bytes(8)] + [(b"e%+03d" % x).ljust(8, b"\0") for x in range(-_G17_SPAN - 1, _G17_SPAN + 2)])
    digits, cover, lead, head, exps = (np.frombuffer(t, _G17_WORD) for t in (digits, cover, lead, head, exps))
    cover, kept = cover.reshape(4, 18), kept.ravel()
    for t in (hi, lo, digits, kept, cover, int_digits, lead, head, exps):
        t.setflags(write=False)
    return hi, lo, digits, kept, cover, int_digits, lead, head, exps


def _dd_times(a, b, b_lo):
    """a · (b + b_lo) as p + e: p = fl(a · b), and e the rest, rounded once.

    By Dekker's product, a · b = p + (a · b - p) exactly: Veltkamp's split
    cuts each factor into two halves of 26 bits, whose products are exact.
    """
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    bh = b * _SPLIT
    bl = bh - b
    bh -= bl
    np.subtract(b, bh, out=bl)
    p = a * b
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    bl *= al
    e += bl
    np.multiply(a, b_lo, out=al)
    e += al
    return p, e


def _g17_scaled(a, k, hi, lo):
    """⌊a · 10**(16 - k)⌋ as int64 and the remainder in [0, 1), both to
    within about 2**-46 where the product is in [2**53, 2**57), as it is for
    the right k: there p = fl(a · hi) is an integer."""
    i = _G17_SPAN + 1 - k  # the index of 10**(16 - k) in hi and lo
    p, r = _dd_times(a, hi.take(i), lo.take(i))
    q = np.floor(r)
    r -= q
    d = p.astype(np.int64)
    d += q.astype(np.int64)
    return d, r


def _g17_digits(x, hi, lo):
    """D, the 17 significant digits of |x| as an int64, its exponent k
    (|x| ≈ D · 10**(k - 16)), and where the kernel's D is certain.

    D rounds half to even, so a value whose remainder is near one half is
    left uncertain; so is every value outside the kernel's range.  A zero
    gets D = 0.
    """
    a = np.abs(x)
    ok = a >= 10.0**-_G17_SPAN
    ok &= a <= 10.0**_G17_SPAN
    zero = a == 0.0
    a[~ok] = 1.0
    ok |= zero
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.int64)
    d, r = _g17_scaled(a, k, hi, lo)
    # log10 can miss by one next to a power of ten
    shift = (d >= 10**17).astype(np.int64)
    shift -= d < 10**16
    fix = shift.nonzero()[0]
    if fix.size:
        k[fix] += shift[fix]
        d[fix], r[fix] = _g17_scaled(a[fix], k[fix], hi, lo)
    d += r > 0.5
    r -= 0.5
    np.abs(r, out=r)
    ok &= r >= _G17_TIE
    top = d == 10**17  # rounded up into the next decade
    d[top] = 10**16
    k += top
    d[zero] = 0
    return d, k, ok


def _g17_frame(x):
    """Each value of ``x`` laid out as its ``%.17g`` text in six words, NUL
    where nothing is written, and where that text is certain.

    The frame is word-major, ``(6, x.size)``: word 0 holds the sign, the
    "0.000" lead of the fixed form below 1, D's first digit and a point
    slot; words 1 to 4 hold D's four 4-digit groups, each digit followed by
    a point slot; word 5 holds the exponent and, in byte 7, room for the
    separator.  C's %g rules pick the layout from X, the exponent of the
    rounded value: the fixed form for -4 <= X < 17, else d.ddde±XX.
    Trailing zeros after the point are dropped, and the point too when
    nothing follows it.
    """
    hi, lo, digits, kept, cover, int_digits_of, lead, head, exps = _g17_tables()
    d, k, ok = _g17_digits(x, hi, lo)
    frame = np.empty((6, x.size), _G17_WORD)
    # D = f·10**16 + groups[0]·10**12 + ... + groups[3], split in halves of
    # 8 digits and those in two groups each; d is left holding f.  Each split
    # is a // and a multiply-subtract: numpy divides by a constant on a fast
    # path that np.divmod does not take
    groups = np.empty((2, 2, x.size), np.int64)
    q = d // 10**8
    np.subtract(d, q * 10**8, out=groups[1, 1])
    d = q // 10**8
    np.subtract(q, d * 10**8, out=groups[0, 1])
    np.floor_divide(groups[:, 1], 10**4, out=groups[:, 0])
    groups[:, 1] -= groups[:, 0] * 10**4
    groups = groups.reshape(4, -1)
    digits.take(groups, out=frame[1:5], mode="clip")  # "clip": take buffers an out only to raise
    groups += np.arange(0, 40000, 10000)[:, None]  # group i's row of kept
    keep = np.maximum.reduce(kept.take(groups), axis=0)  # D's digits through its last nonzero one
    fixed = (k >= -4) & (k <= 16)
    key = np.where(fixed, k + 4, 21)
    int_digits = int_digits_of.take(key)
    np.maximum(keep, int_digits, out=keep)  # the fixed form keeps its integer digits
    frame[1:5] &= cover.take(keep, axis=1)
    np.bitwise_or(head.take(d + 10 * np.signbit(x)), lead.take(key), out=frame[0])
    exps.take(np.where(fixed, 0, k + _G17_SPAN + 2), out=frame[5], mode="clip")
    # the point follows D's digit int_digits - 1, at byte 2 * int_digits + 5
    point = ((keep > int_digits) & (int_digits > 0)).nonzero()[0]
    word, byte = np.divmod(2 * int_digits[point] + 5, 8)
    frame.view(np.uint8).reshape(6, -1, 8)[word, point, byte] = ord(".")
    return frame, ok


def _g17_lines(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as CSV lines, each field ``'%.17g' % x``.

    Every byte equals Python's: a value whose text the kernel cannot be
    sure of (a remainder near one half, |x| outside [1e-280, 1e280] or a
    non-finite x) is formatted by Python's ``%`` instead, written into its
    column of the frame before the separators are.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    frame, ok = _g17_frame(x)
    unsure = (~ok).nonzero()[0]
    texts = np.array([b"%.17g" % v for v in x[unsure].tolist()], "S48")
    frame[:, unsure] = texts.view(_G17_WORD).reshape(-1, 6).T
    ends = frame[5].reshape(rows, cols)
    ends[:, :-1] |= ord(",") << 56
    ends[:, -1] |= ord("\n") << 56
    text = frame.T.tobytes()
    del frame, ends  # so the frame is freed before the squeezed copy is made
    return text.translate(None, b"\0")


def _csv_rows(columns) -> bytes:
    """One block of a table's rows.  A block of float arrays only goes through
    one :func:`_g17_lines` call.  A table with a column of names, counts or
    ``true``/``false`` is written one ``%`` format per row, each float field
    ``%.17g``, the kernel's own reference, and any other its ``str``."""
    if all(isinstance(c, np.ndarray) for c in columns):
        return _g17_lines(np.column_stack(columns))
    line = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(line % row for row in zip(*cells)).encode("ascii")


def _write_csv(path: str, *tables) -> None:
    """Write ``(header, columns)`` tables one after another to one file.

    ``columns`` is a sequence of equal-length columns whose rows side by
    side make the table's rows: float arrays, 1-D or 2-D, or sequences of
    strings and integers (beside which a float array is 1-D).  Rows are
    stacked, formatted and written ``_CSV_BLOCK_ROWS`` at a time, so only
    one block's values and text are held at once.
    """
    with open(path, "wb") as f:
        for header, columns in tables:
            f.write(",".join(header).encode("ascii") + b"\n")
            for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                f.write(_csv_rows([c[start:start + _CSV_BLOCK_ROWS] for c in columns]))


def _number(kind, need: str, ok):
    """An argparse type: ``kind(text)``, refused as ``must be {need}`` unless
    ``ok`` holds for it.  It bears ``kind``'s name, so argparse reports a
    value ``kind`` cannot read as an "invalid int value" or "invalid float
    value"."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _resolve_model(args) -> HamiltonianModel:
    if args.case is not None:
        return builtin_case(args.case)
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read model file {args.model}: {exc}") from exc
    return load_model(text)


def _resolve_methods(spec: str) -> list[MethodId]:
    names = [s for s in spec.replace(",", " ").split() if s]
    if not names:
        raise UsageError("--methods requires at least one method name or 'all'")
    if any(n.lower() == "all" for n in names):
        return list(ALL_METHODS)
    return [MethodId.from_name(n) for n in names]


@functools.cache
def build_parser() -> _Parser:
    """The command line's parser, built once per process: each subcommand's
    handler is its ``handler`` default, and each numeric flag's domain is
    checked by its type as the flag is read."""
    parser = _Parser(prog="magstep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    finite = _number(float, "finite", math.isfinite)
    positive = _number(float, "positive and finite", lambda x: 0 < x < math.inf)

    def add_model_flags(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--case", choices=list(BUILTIN_CASES), help="builtin two-state parameter case")
        source.add_argument("--model", help="JSON model file")
        p.add_argument("--hbar", type=positive, default=1.0)
        p.add_argument("--t0", type=finite, default=0.0)
        p.add_argument("--t-final", type=finite, default=100.0)

    prop = sub.add_parser("propagate", help="evolve an initial basis state and record populations")
    add_model_flags(prop)
    prop.add_argument("--method", required=True, help="step scheme name (see list-methods)")
    steps = prop.add_mutually_exclusive_group(required=True)
    steps.add_argument("--dt", type=positive, help="target step size; snapped to the nearest integer step count")
    steps.add_argument("--n-steps", type=_number(int, "positive", lambda n: n > 0), help="exact number of uniform steps")
    prop.add_argument("--initial", type=int, default=0, help="0-based index of the initial basis state")
    prop.add_argument("--out", required=True, help="output CSV path")
    prop.set_defaults(handler=_cmd_propagate)

    conv = sub.add_parser("converge", help="error-vs-stepsize study over a dt ladder")
    add_model_flags(conv)
    conv.add_argument("--methods", default="all", help="comma-separated method names, or 'all'")
    conv.add_argument("--dt", type=positive, action="append", dest="dts", help="ladder entry; repeatable (default: the bundled ladder)")
    conv.add_argument("--out", required=True, help="output CSV path")
    conv.set_defaults(handler=_cmd_converge)

    ver = sub.add_parser("verify", help="run the oracle certification suites")
    ver.add_argument("--suite", choices=["closed-forms", "symmetry", "all"], default="all")
    ver.add_argument("--seed", type=_number(int, "non-negative", lambda n: n >= 0), default=0, help="seed of the random draws (>= 0)")
    ver.add_argument(
        "--dim", type=_number(int, f"from 2 to {MAX_DIM}", lambda n: 2 <= n <= MAX_DIM), default=2,
        help=f"dimension of the drawn Hamiltonians, 2 to {MAX_DIM}: at 1 every commutator term is 0, "
        f"and above {MAX_DIM} the const-roundtrip row can fail on correct arithmetic",
    )
    ver.add_argument("--dt", type=_number(float, "finite and nonzero", lambda dt: 0 < abs(dt) < math.inf), default=1.0, help="step of the certified terms (nonzero)")
    ver.add_argument("--draws", type=_number(int, "at least 1", lambda n: n >= 1), default=100, help="random draws per identity (>= 1)")
    ver.add_argument("--out", required=True, help="output CSV path")
    ver.set_defaults(handler=_cmd_verify)

    sub.add_parser("list-methods", help="print the method names in their fixed order").set_defaults(handler=_cmd_list_methods)
    return parser


def _cmd_propagate(args) -> int:
    model = _resolve_model(args)
    method = MethodId.from_name(args.method)
    n = args.n_steps
    if n is None:
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
    _write_csv(args.out, (header, (trace.times, trace.populations, trace.unitarity_defects)))
    return EXIT_OK


def _cmd_converge(args) -> int:
    model = _resolve_model(args)
    methods = _resolve_methods(args.methods)
    report = convergence_study(model, methods, dts=args.dts, tf=args.t_final, t0=args.t0, hbar=args.hbar)
    records = report.records
    _write_csv(
        args.out,
        (
            ["method", "dt", "n_steps", "error"],
            (
                [r.method.value for r in records],
                np.array([r.dt for r in records]),
                [r.n_steps for r in records],
                np.array([r.error for r in records]),
            ),
        ),
        (["method", "slope"], ([m.value for m in methods], np.array([report.slopes[m] for m in methods]))),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
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
    columns = (
        [r.identity for r in rows],
        np.array([r.max_rel_dev for r in rows]),
        np.array([r.tolerance for r in rows]),
        ["true" if r.passed else "false" for r in rows],
    )
    _write_csv(args.out, (["identity", "max_rel_dev", "tolerance", "pass"], columns))
    failed = [r.identity for r in rows if not r.passed]
    if failed:
        print(f"verification FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_list_methods(args) -> int:
    print("\n".join(method.value for method in ALL_METHODS))
    return EXIT_OK


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The parser is built on the first call in a process and reused; it
    checks every numeric flag's domain in the flag's type, and hands the
    parsed flags to the subcommand's handler, the one call made here.
    Every error the handler raises is mapped to its exit code below.

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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
