"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Each workload turns a seed into the arguments of one ``magstep.cli.run`` call
(an "op") plus any input files it needs, and knows how to check the CSV that
call writes.  magstep sees only the generated flags and files.

Committed expected values (``expected.json``) exist for a finite set of input
variants, so the seed picks a variant: ``trajectory`` a builtin case and an
initial state, ``wide-model`` one of ``WIDE_VARIANTS`` generated models.
``make_expected.py`` regenerates that file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

CASES = ("I", "II", "III", "IV")
METHOD_ORDERS = {
    "me2": 2, "me3": 4, "me4-full": 4, "me4-nc": 4, "me6": 6,
    "blanes4": 4, "blanes4-gauss": 4, "iserles4-gauss": 4, "blanes6-gauss": 6,
}

# Named tolerances of the output checks.
POPULATION_SUM_TOL = 1e-10   # |sum of populations - 1| on every row
UNITARITY_TOL = 1e-10        # worst accumulated unitarity defect on any row
FINAL_ROW_TOL = 1e-10        # |final population - committed value|
SLOPE_WINDOW = 0.5           # |fitted slope - method order|
T_FINAL_TOL = 1e-12          # |last grid time - t_final|

WIDE_DIM = 8
WIDE_TERMS = 2
WIDE_VARIANTS = 16

# Per-op sizes, full and smoke.  Full sizes keep one op near or below half a
# second on the reference machine, so the minimum op count of a run fits in
# the time one run may take.
SIZES = {
    "trajectory": {"full": {"n_steps": 8192}, "smoke": {"n_steps": 256}},
    "convergence": {
        "full": {"t_final": 6.25, "counts": (1024, 512, 256, 128, 64, 32)},
        "smoke": {"t_final": 3.125, "counts": (512, 256, 128, 64, 32, 16)},
    },
    "certify": {"full": {"dim": 3, "draws": 1}, "smoke": {"dim": 2, "draws": 1}},
    "wide-model": {"full": {"n_steps": 4096}, "smoke": {"n_steps": 64}},
}


@dataclass
class Op:
    """One prepared CLI call and the check of its output."""

    argv: list[str]
    out: Path
    work: float                       # work units done by one op
    check: Callable[[int], list[str]]  # exit code -> problems (empty if correct)
    info: dict                        # the seeded input choices, for the run record


_STREAMS = {"trajectory": 0, "convergence": 1, "certify": 2, "wide-model": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_trajectory_csv(
    rc: int, out: Path, dim: int, n_steps: int, t_final: float, expected: list[float]
) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    header, rows = _read_csv(out)
    want = ["t"] + [f"pop_{i}" for i in range(dim)] + ["unitarity_defect"]
    if header != want:
        return [f"header {header} != {want}"]
    if len(rows) != n_steps + 1:
        return [f"{len(rows)} rows, expected {n_steps + 1}"]
    table = np.array(rows, dtype=float)
    problems = []
    pop_err = float(np.max(np.abs(table[:, 1:-1].sum(axis=1) - 1.0)))
    if not pop_err <= POPULATION_SUM_TOL:
        problems.append(f"population sum off by {pop_err:.3e} > {POPULATION_SUM_TOL:g}")
    defect = float(np.max(table[:, -1]))
    if not defect <= UNITARITY_TOL:
        problems.append(f"unitarity defect {defect:.3e} > {UNITARITY_TOL:g}")
    if not abs(table[-1, 0] - t_final) <= T_FINAL_TOL:
        problems.append(f"last time {table[-1, 0]!r} != {t_final}")
    dev = float(np.max(np.abs(table[-1, 1:-1] - np.asarray(expected))))
    if not dev <= FINAL_ROW_TOL:
        problems.append(f"final populations differ from committed values by {dev:.3e} > {FINAL_ROW_TOL:g}")
    return problems


def trajectory_variant(seed: int) -> tuple[str, int]:
    rng = _rng("trajectory", seed)
    return CASES[int(rng.integers(len(CASES)))], int(rng.integers(2))


def trajectory_argv(case: str, initial: int, n: int, out: Path) -> list[str]:
    return ["propagate", "--case", case, "--method", "me6", "--t-final", "100",
            "--n-steps", str(n), "--initial", str(initial), "--out", str(out)]


def prepare_trajectory(seed: int, workdir: Path, size: str, expected: dict) -> Op:
    n = SIZES["trajectory"][size]["n_steps"]
    case, initial = trajectory_variant(seed)
    out = workdir / "trajectory.csv"
    argv = trajectory_argv(case, initial, n, out)
    want = expected["trajectory"][str(n)][f"{case}/{initial}"]
    return Op(
        argv, out, float(n),
        lambda rc: _check_trajectory_csv(rc, out, 2, n, 100.0, want),
        {"case": case, "initial": initial, "n_steps": n},
    )


def wide_model_json(variant: int) -> str:
    """Dense dim-8 Hermitian model: an offset and two sinusoids per upper-triangle entry."""
    rng = np.random.default_rng([variant, 8])
    entries = []
    for i in range(WIDE_DIM):
        for j in range(i, WIDE_DIM):
            re = float(rng.uniform(-2.0, 2.0)) if i == j else float(rng.uniform(-0.5, 0.5))
            im = 0.0 if i == j else float(rng.uniform(-0.5, 0.5))
            terms = [
                {"amp": float(rng.uniform(0.1, 1.0)), "omega": float(rng.uniform(0.2, 3.0)),
                 "phase": float(rng.uniform(0.0, 2.0 * math.pi))}
                for _ in range(WIDE_TERMS)
            ]
            entries.append({"i": i, "j": j, "offset": [re, im], "terms": terms})
    return json.dumps({"dim": WIDE_DIM, "entries": entries}, indent=1)


def wide_initial(variant: int) -> int:
    return variant % WIDE_DIM


def wide_variant(seed: int) -> int:
    return int(_rng("wide-model", seed).integers(WIDE_VARIANTS))


def wide_argv(model: Path, initial: int, n: int, out: Path) -> list[str]:
    return ["propagate", "--model", str(model), "--method", "blanes6-gauss", "--t-final", "100",
            "--n-steps", str(n), "--initial", str(initial), "--out", str(out)]


def prepare_wide_model(seed: int, workdir: Path, size: str, expected: dict) -> Op:
    n = SIZES["wide-model"][size]["n_steps"]
    variant = wide_variant(seed)
    initial = wide_initial(variant)
    model = workdir / "wide-model.json"
    model.write_text(wide_model_json(variant), encoding="utf-8")
    out = workdir / "wide-model.csv"
    argv = wide_argv(model, initial, n, out)
    want = expected["wide-model"][str(n)][str(variant)]
    return Op(
        argv, out, float(n),
        lambda rc: _check_trajectory_csv(rc, out, WIDE_DIM, n, 100.0, want),
        {"variant": variant, "initial": initial, "n_steps": n},
    )


def _check_convergence(rc: int, out: Path, counts: tuple[int, ...]) -> list[str]:
    # Exit code 0 also certifies the reference cross-check: the CLI exits 2
    # when the two 6th-order references disagree by more than 1e-8.
    if rc != 0:
        return [f"exit code {rc}"]
    lines = out.read_text(encoding="ascii").splitlines()
    n_rec = len(METHOD_ORDERS) * len(counts)
    if lines[0] != "method,dt,n_steps,error" or lines[n_rec + 1] != "method,slope":
        return ["unexpected CSV layout"]
    problems = []
    for line in lines[1:n_rec + 1]:
        method, _, n, err = line.split(",")
        if not (int(n) in counts and 0.0 < float(err) < math.inf):
            problems.append(f"bad record {line}")
    slopes = dict(line.split(",") for line in lines[n_rec + 2:])
    if set(slopes) != set(METHOD_ORDERS):
        return problems + [f"slope rows {sorted(slopes)}"]
    for method, order in METHOD_ORDERS.items():
        if not abs(float(slopes[method]) - order) <= SLOPE_WINDOW:
            problems.append(f"{method} slope {slopes[method]} not in {order}+-{SLOPE_WINDOW}")
    return problems


def prepare_convergence(seed: int, workdir: Path, size: str, expected: dict) -> Op:
    spec = SIZES["convergence"][size]
    t_final, counts = spec["t_final"], spec["counts"]
    case = CASES[int(_rng("convergence", seed).integers(len(CASES)))]
    out = workdir / "convergence.csv"
    argv = ["converge", "--case", case, "--methods", "all", "--t-final", repr(t_final)]
    for n in counts:
        argv += ["--dt", repr(t_final / n)]
    argv += ["--out", str(out)]
    # steps propagated: every ladder rung per method, plus the me6 reference
    # and its blanes6-gauss cross-check at 8x the finest rung
    work = len(METHOD_ORDERS) * sum(counts) + 2 * 8 * max(counts)
    return Op(argv, out, float(work), lambda rc: _check_convergence(rc, out, counts),
              {"case": case, "t_final": t_final, "counts": list(counts)})


def _check_certify(rc: int, out: Path, identities: list[str]) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    header, rows = _read_csv(out)
    if header != ["identity", "max_rel_dev", "tolerance", "pass"]:
        return [f"header {header}"]
    problems = [f"{r[0]} failed" for r in rows if r[3] != "true"]
    got = [r[0] for r in rows]
    if got != identities:
        problems.append(f"identity rows {got} != expected list")
    return problems


def prepare_certify(seed: int, workdir: Path, size: str, expected: dict) -> Op:
    spec = SIZES["certify"][size]
    verify_seed = int(_rng("certify", seed).integers(2**31))
    out = workdir / "certify.csv"
    argv = ["verify", "--suite", "all", "--seed", str(verify_seed), "--dim", str(spec["dim"]),
            "--draws", str(spec["draws"]), "--out", str(out)]
    identities = expected["certify"]["identities"]
    return Op(argv, out, float(spec["draws"]), lambda rc: _check_certify(rc, out, identities),
              {"verify_seed": verify_seed, **spec})


PREPARE = {
    "trajectory": prepare_trajectory,
    "convergence": prepare_convergence,
    "certify": prepare_certify,
    "wide-model": prepare_wide_model,
}

WORK_UNITS = {
    "trajectory": "propagated steps",
    "convergence": "propagated steps, references included",
    "certify": "oracle draws per identity",
    "wide-model": "propagated steps",
}
