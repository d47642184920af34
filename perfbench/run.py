#!/usr/bin/env python3
"""magstep benchmark: one workload per run, each op one ``magstep.cli.run`` call.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``workloads.py``): ``trajectory`` (me6 propagate, every row
written), ``convergence`` (converge --methods all), ``certify`` (verify
--suite all) and ``wide-model`` (blanes6-gauss propagate of a dense dim-8
model).  The loop is closed and single-threaded: one op at a time, BLAS
pinned to one thread.  After one warm-up op the run repeats the op until
``--seconds`` have passed and at least ``MIN_OPS`` timed ops have run (or,
on a machine too slow for that, ``MAX_MEASURE_S`` have passed), and checks
every op's output; an op whose output fails its check counts as failed.

Op times are reported in reference seconds: the run times the fixed kernel
of ``calibration.py`` before the first op and after every op, and scales
each op's wall time by ``REFERENCE_S`` over the mean of the two kernel times
around it.  That cancels most of the drift in machine speed that shared
machines show over seconds to minutes; the raw wall times (warm-up first)
and kernel times are kept in the run record.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median wall time of ``SETUP_REPEATS`` fresh processes that
  import magstep and generate the workload's inputs, scaled by the median
  kernel time of the whole run (start-up time varies too much from probe
  to probe for the per-op scaling);
* ``wall_s``: median op time;
* ``wall_s_tail``: the 75th percentile of the op times
  (``statistics.quantiles(times, n=4)[2]``).  The percentile is fixed, so a
  faster program is read at the same rank as a slower one; ``MIN_OPS`` timed
  ops put at least 10 beyond it.  ``attempted`` gives the op count, warm-up
  included;
* ``work_per_s``: work units of all timed ops over their summed op time
  (steps propagated, or oracle draws for ``certify``);
* ``peak_rss_mb``: peak resident memory of this process, which runs only
  this workload.

``--trace 1`` alternates traced and untraced ops and prints the per-module
metrics of ``spans.py`` as medians over the traced ops, times in reference
seconds.  The environment record gives the tracing overhead as the
difference of the traced and untraced op-time medians, next to the
interquartile range of the untraced op times; ``tracing_overhead_resolved``
is false when the overhead is smaller than that noise.

The second-to-last stdout line is ``{"record": ...}``, a JSON record of the
run (inputs, op times, environment); the last is the result object.  The
entries of ``results/*.jsonl`` are such records, one per line.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_OPS = 40  # timed ops per run (traced plus untraced): 10 beyond the 75th percentile
MAX_MEASURE_S = 45.0  # unless --seconds is longer, no run measures for longer than this

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _import_magstep():
    if not (SRC / "magstep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no magstep sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import magstep.cli

    return magstep


def _openblas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall times of fresh processes that import magstep and make the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _quartiles(times: list[float]) -> list[float]:
    return statistics.quantiles(times, n=4) if len(times) > 1 else times * 3


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 setup_repeats: int, min_ops: int) -> tuple[dict, dict]:
    """Measure one workload; return (result object, run record)."""
    import calibration
    import spans
    import workloads

    magstep = _import_magstep()
    setup_times = measure_setup(workload, seed, setup_repeats)
    calib = calibration.Calibration()
    kernel = [calib.seconds()]  # kernel[i] and kernel[i + 1] bracket op i
    tracer = spans.Tracer() if trace else None
    raw, times, traced_times, layer, failures = [], [], [], [], []

    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        op = workloads.PREPARE[workload](seed, Path(tmp), size, workloads.load_expected())

        def one(traced: bool) -> float:
            """Run, time and check one op; return its time in reference seconds."""
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                if traced:
                    rc, op_spans = tracer.run_op(lambda: magstep.cli.run(op.argv))
                else:
                    rc = magstep.cli.run(op.argv)
                problems = None
            except Exception as exc:  # a crash of the program under test is a failed op
                problems = [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
            kernel.append(calib.seconds())
            scale = 2.0 * calibration.REFERENCE_S / (kernel[-2] + kernel[-1])
            raw.append(elapsed)
            if problems is None:
                try:
                    problems = op.check(rc)
                except (OSError, ValueError, IndexError) as exc:  # missing or malformed CSV
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                failures.append(problems)
                print(f"op {len(raw)} failed: {'; '.join(problems)}", file=sys.stderr)
            elif traced:
                useful = None
                if op.argv[0] == "propagate":
                    useful = op.out.read_bytes().count(b"\n") - 1
                metrics = spans.layer_metrics(op_spans, op.out.stat().st_size, useful)
                layer.append({k: v * scale if spans.LAYER_METRICS[k] == "s" else v
                              for k, v in metrics.items()})
            return elapsed * scale

        one(False)  # warm-up, checked but not timed
        start = time.perf_counter()
        while True:
            traced = trace and len(times) > len(traced_times)
            (traced_times if traced else times).append(one(traced))
            elapsed = time.perf_counter() - start
            enough = len(times) + len(traced_times) >= min_ops or elapsed >= MAX_MEASURE_S
            if elapsed >= seconds and enough and (not trace or traced_times):
                break

    env = environment()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "inputs": op.info,
        "argv": [Path(a).name if a.startswith(tmp) else a for a in op.argv],
        "work_per_op": op.work,
        "work_unit": workloads.WORK_UNITS[workload],
        "n_ops": len(times),
        "op_times_s": times,
        "raw_op_times_s": raw,
        "kernel_times_s": kernel,
        "setup_times_s": setup_times,
        "env": env,
        "failures": failures[:5],
    }
    if trace:
        overhead = statistics.median(traced_times) - statistics.median(times)
        q = _quartiles(times)
        env["tracing_overhead_s"] = overhead
        env["tracing_overhead_noise_s"] = q[2] - q[0]
        env["tracing_overhead_resolved"] = abs(overhead) > q[2] - q[0]
        record["traced_op_times_s"] = traced_times
        values = spans.median_metrics(layer) if layer else {}
        units = spans.LAYER_METRICS
    else:
        env["tracing_overhead_s"] = None  # measured by --trace 1 runs
        values = {
            "setup_s": statistics.median(setup_times) * calibration.REFERENCE_S / statistics.median(kernel),
            "wall_s": statistics.median(times),
            "wall_s_tail": _quartiles(times)[2],
            "work_per_s": op.work * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    record["metrics"] = metrics
    result = {"correct": not failures, "attempted": len(raw), "failed": len(failures), "metrics": metrics}
    return result, record


def setup_only(workload: str, seed: int) -> None:
    import workloads

    _import_magstep()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        workloads.PREPARE[workload](seed, Path(tmp), "full", workloads.load_expected())


def smoke() -> int:
    """Run every workload at its smoke size, traced and not, and check that the
    metric names printed are exactly those in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    bad = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, _ = run_workload(workload, 0, 0.0, bool(trace), "smoke", 1, 2)
            names = list(result["metrics"])
            status = "ok" if result["correct"] and names == want[trace] else "FAILED"
            print(f"smoke {workload} trace={trace}: {status} ({result['attempted']} ops)")
            if status != "ok":
                bad.append((workload, trace, result["failed"], sorted(set(names) ^ set(want[trace]))))
    for item in bad:
        print(f"smoke failure (workload, trace, failed ops, metric names not matching): {item}",
              file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, check metric names")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  "full", SETUP_REPEATS, MIN_OPS)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
