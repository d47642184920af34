"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive artifacts (full-ladder convergence reports for the four
builtin cases, the fine-grid population traces) are computed once per session
and shared across criteria.
"""

import numpy as np

from magstep.evolution import propagate, relative_error
from magstep.hamiltonians import builtin_case
from magstep.linalg import expm_antihermitian, unitarity_defect
from magstep.magnus_steps import (
    ALL_METHODS,
    MethodId,
    exponent,
    sample_nodes,
    step,
)
from magstep.verify import OracleConfig, check_closed_forms, random_hermitian

from conftest import CASES

T_FINAL = 100.0

FOURTH_ORDER = (
    MethodId.ME3,
    MethodId.ME4_FULL,
    MethodId.ME4_NC,
    MethodId.BLANES4,
    MethodId.BLANES4_GAUSS,
    MethodId.ISERLES4_GAUSS,
)
SIXTH_ORDER = (MethodId.ME6, MethodId.BLANES6_GAUSS)


def report_line(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    return ok


def test_criterion_1_unitarity(population_traces):
    rng = np.random.default_rng(20240917)
    worst_step = 0.0
    for method in ALL_METHODS:
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            samples = {nu: random_hermitian(rng, dim) for nu in sample_nodes(method)}
            theta = exponent(method, samples, float(rng.uniform(0.05, 1.0)))
            worst_step = max(worst_step, unitarity_defect(expm_antihermitian(theta)))

    worst_run = 0.0
    model = builtin_case("I")
    for method in ALL_METHODS:
        trace = propagate(method, model, 0.0, T_FINAL, 16384, [1, 0])
        worst_run = max(worst_run, float(trace.unitarity_defects.max()))

    ok = worst_step <= 1e-12 and worst_run <= 1e-9
    assert report_line(
        1,
        "unitarity",
        ok,
        f"per-step defect {worst_step:.2e} <= 1e-12, "
        f"16384-step case-I defect {worst_run:.2e} <= 1e-9",
    )


def test_criterion_2_closed_form_certification():
    # 100 draws per identity, spread over dims 2..6 and both step sizes
    worst: dict[str, float] = {}
    failed = []
    for dim in (2, 3, 4, 5, 6):
        for dt in (0.1, 1.0):
            cfg = OracleConfig(seed=1000 + dim, dim=dim, dt=dt, draws=10)
            report = check_closed_forms(cfg)
            for row in report.rows:
                worst[row.identity] = max(worst.get(row.identity, 0.0), row.max_rel_dev)
                if not row.passed:
                    failed.append(f"{row.identity}@dim{dim},dt{dt}")
    ok = not failed
    assert report_line(
        2,
        "closed-form certification",
        ok,
        f"{len(worst)} identities x 100 draws, worst dev {max(worst.values()):.2e}"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_3_convergence_slopes(ladder_reports):
    windows = []
    for case in CASES:
        slopes = ladder_reports[case].slopes
        windows.append((case, "me2", slopes[MethodId.ME2], 2.0, 0.3))
        for m in FOURTH_ORDER:
            windows.append((case, m.value, slopes[m], 4.0, 0.4))
        for m in SIXTH_ORDER:
            windows.append((case, m.value, slopes[m], 6.0, 0.5))
    bad = [
        f"case {case} {name}: slope {slope:.3f} not in {target}+-{width}"
        for case, name, slope, target, width in windows
        if not abs(slope - target) <= width
    ]
    worst_dev = max(abs(s - t) / w for _, _, s, t, w in windows)
    ok = not bad
    assert report_line(
        3,
        "convergence slopes",
        ok,
        f"36 slope windows over cases I-IV, worst window fraction {worst_dev:.2f}"
        + (f"; violations: {bad}" if bad else ""),
    ), bad


def test_criterion_4_ranking(ladder_reports):
    violations = []
    for case in ("III", "IV"):
        report = ladder_reports[case]
        errors = {
            (r.method, r.n_steps): r.error for r in report.records
        }
        for n in (512, 1024):  # the two largest step sizes
            e = {m: errors[(m, n)] for m in ALL_METHODS}
            trio_worst = max(e[MethodId.ME3], e[MethodId.ME4_NC], e[MethodId.BLANES4])
            checks = [
                ("iserles < me4-full", e[MethodId.ISERLES4_GAUSS] < e[MethodId.ME4_FULL]),
                ("me4-full < blanes4-gauss", e[MethodId.ME4_FULL] < e[MethodId.BLANES4_GAUSS]),
                ("blanes4-gauss < worst(me3, me4-nc, blanes4)", e[MethodId.BLANES4_GAUSS] < trio_worst),
                ("blanes6-gauss < me6", e[MethodId.BLANES6_GAUSS] < e[MethodId.ME6]),
            ]
            violations.extend(
                f"case {case}, n={n}: {label}" for label, passed in checks if not passed
            )
    ok = not violations
    assert report_line(
        4,
        "relative-accuracy ranking",
        ok,
        "cases III-IV at the two largest steps"
        + (f"; violations: {violations}" if violations else ""),
    )


def test_criterion_5_population_physics(population_traces):
    worst_sum = 0.0
    worst_range = 0.0
    for case in CASES:
        pops = population_traces[case].populations
        assert pops.shape == (16385, 2)
        worst_sum = max(worst_sum, float(np.max(np.abs(pops.sum(axis=1) - 1.0))))
        worst_range = max(worst_range, float(max(-pops.min(), pops.max() - 1.0)))

    # periodic beating: normalized autocorrelation of the case-I excited-state
    # population regains > 0.9 at some lag past the main lobe
    x = population_traces["I"].populations[:, 1]
    x = x - x.mean()
    n = len(x)
    max_lag = n - 200  # keep a meaningful overlap window
    r = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        a, b = x[: n - lag], x[lag:]
        r[lag] = (a @ b) / np.sqrt((a @ a) * (b @ b))
    first_negative = int(np.nonzero(r < 0)[0][0])
    secondary_peak = float(np.max(r[first_negative:]))

    ok = worst_sum <= 1e-10 and worst_range <= 1e-12 and secondary_peak > 0.9
    assert report_line(
        5,
        "population physics",
        ok,
        f"sum defect {worst_sum:.2e} <= 1e-10, range excess {worst_range:.2e} <= 1e-12, "
        f"case-I autocorrelation secondary peak {secondary_peak:.3f} > 0.9",
    )


def test_criterion_6_commuting_limit():
    rng = np.random.default_rng(5)
    h0 = random_hermitian(rng, 2)
    poly = np.polynomial.Polynomial([0.4, -1.1, 0.6])  # quadratic
    antideriv = poly.integ()
    worst = 0.0
    for dt in (0.05, 0.2, 0.5, 1.0):
        for t0 in (0.0, 0.3):
            exact_const = expm_antihermitian(-1j * dt * h0)
            exact_quad = expm_antihermitian(
                -1j * (antideriv(t0 + dt) - antideriv(t0)) * h0
            )
            for method in (MethodId.ME3, MethodId.ME4_FULL, MethodId.ME4_NC):
                u_const = step(method, lambda t: h0, t0, dt)
                u_quad = step(method, lambda t: poly(t) * h0, t0, dt)
                worst = max(worst, relative_error(u_const, exact_const))
                worst = max(worst, relative_error(u_quad, exact_quad))
    ok = worst <= 1e-13
    assert report_line(
        6,
        "commuting-limit exactness",
        ok,
        f"worst single-step error {worst:.2e} <= 1e-13 for constant and quadratic drives",
    )


def test_criterion_7_reference_cross_check(ladder_reports):
    agreements = {case: ladder_reports[case].reference_agreement for case in CASES}
    ok = all(v <= 1e-8 for v in agreements.values())
    detail = ", ".join(f"case {c}: {v:.2e}" for c, v in agreements.items())
    assert report_line(
        7,
        "reference cross-check",
        ok,
        f"me6 vs blanes6-gauss at dt={T_FINAL / (8 * 16384):.6g}: {detail}",
    )
