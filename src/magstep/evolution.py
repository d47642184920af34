"""Compose step propagators over an interval and run convergence studies.

The propagator is accumulated left-multiplicatively over a uniform grid,
recording populations and the unitarity defect at every grid point.  The
convergence harness measures the relative Frobenius error of each scheme
against a reference trajectory computed by the 6th-order scheme on a much
finer grid, cross-checked against an independent 6th-order scheme before it
is trusted, and fits the log-log order of accuracy per method.

For speed the driver assembles all step exponents in one broadcasted call
and exponentiates them with a single batched eigendecomposition; this is
algebraically the same per-step arithmetic as :func:`magstep.magnus_steps.step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hamiltonians import HamiltonianModel
from .linalg import Array, PreconditionError, dagger, expm_antihermitian, frobenius_norm
from .magnus_steps import DEFAULT_CONTEXT, MethodId, StepContext, exponent, sample_nodes

__all__ = [
    "EvolutionTrace",
    "ConvergenceRecord",
    "ConvergenceReport",
    "ReferenceSpec",
    "DEFAULT_LADDER_STEP_COUNTS",
    "default_ladder",
    "propagate",
    "relative_error",
    "fit_order",
    "convergence_study",
]

# Step-count ladder of the bundled experiments: successive halvings of the
# step from t_f/512 down to t_f/16384.
DEFAULT_LADDER_STEP_COUNTS: tuple[int, ...] = (16384, 8192, 4096, 2048, 1024, 512)

# Reference grid is 8x finer than the finest ladder rung.
REFERENCE_REFINEMENT = 8

_DIVISIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class EvolutionTrace:
    """Grid times, per-time populations and unitarity defects, final propagator."""

    times: Array
    populations: Array
    unitarity_defects: Array
    final_propagator: Array


def _as_sampler_arrays(model, node_times: Array) -> Array:
    if isinstance(model, HamiltonianModel):
        return model.sample_many(node_times)
    return np.stack([np.asarray(model(float(t)), dtype=np.complex128) for t in node_times])


def propagate(
    method: MethodId,
    model,
    t0: float,
    tf: float,
    n_steps: int,
    initial_state,
    ctx: StepContext = DEFAULT_CONTEXT,
) -> EvolutionTrace:
    """Evolve from ``t0`` to ``tf`` in ``n_steps`` uniform steps.

    ``model`` is a :class:`HamiltonianModel` or any callable ``t -> matrix``.
    Populations are ``|<n|U(t)|psi0>|^2`` from the accumulated propagator
    applied to the initial state, never re-normalized.
    """
    if not math.isfinite(tf - t0):
        raise ValueError(f"t0, tf and tf - t0 must be finite, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    if n_steps < 1:
        raise PreconditionError(f"n_steps must be positive, got {n_steps}")
    psi0 = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > 1e-12:
        raise PreconditionError(f"initial state must be normalized, got norm {norm!r}")
    # no array of the run is larger than the (n_steps + 1, d, d) propagator
    # array; d is psi0's length, checked against the Hamiltonian below
    if (int(n_steps) + 1) * psi0.size**2 * 16 > np.iinfo(np.intp).max:
        raise PreconditionError(
            f"n_steps=10^{math.log10(int(n_steps)):.2f} is too large: the (n_steps + 1, "
            f"{psi0.size}, {psi0.size}) complex propagator array would exceed the "
            f"{np.iinfo(np.intp).max} bytes this platform can address"
        )

    dt = (tf - t0) / n_steps
    t_grid = t0 + dt * np.arange(n_steps + 1)
    step_start = t_grid[:-1]

    samples = {
        node: _as_sampler_arrays(model, step_start + node * dt)
        for node in sample_nodes(method)
    }
    dim, shape = psi0.size, samples[sample_nodes(method)[0]].shape
    if shape != (n_steps, dim, dim):
        raise PreconditionError(
            f"initial state has length {dim}; Hamiltonian samples must be ({dim}, {dim}), got {shape[1:]}"
        )
    theta = exponent(method, samples, dt, ctx)
    u_steps = expm_antihermitian(theta)

    cumulative = np.empty((n_steps + 1, dim, dim), dtype=np.complex128)
    cumulative[0] = np.eye(dim)
    acc = cumulative[0]
    for k in range(n_steps):
        acc = u_steps[k] @ acc
        cumulative[k + 1] = acc

    populations = np.abs(cumulative @ psi0) ** 2
    defects = frobenius_norm(dagger(cumulative) @ cumulative - np.eye(dim))
    return EvolutionTrace(
        times=t_grid,
        populations=populations,
        unitarity_defects=np.asarray(defects),
        final_propagator=cumulative[-1],
    )


def relative_error(u_approx, u_ref) -> float:
    """``||u_approx - u_ref||_F / ||u_ref||_F``."""
    a = np.asarray(u_approx, dtype=np.complex128)
    r = np.asarray(u_ref, dtype=np.complex128)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    ref_norm = frobenius_norm(r)
    if ref_norm == 0.0:
        raise ValueError("reference propagator has zero norm")
    return float(frobenius_norm(a - r)) / float(ref_norm)


def fit_order(
    dts: Sequence[float],
    errors: Sequence[float],
    floor: float | Sequence[float] = 0.0,
    ceiling: float = np.inf,
) -> float:
    """Least-squares slope of ln(error) against ln(dt).

    Records with ``error <= floor`` sit at the rounding floor of the
    accumulated matrix product and records with ``error >= ceiling`` are
    outside the asymptotic regime; both are excluded so they cannot flatten
    the fit.  ``floor`` may be per-record.
    """
    dts = list(dts)
    errors = list(errors)
    floors = np.broadcast_to(np.asarray(floor, dtype=float), (len(dts),))
    pairs = [
        (dt, err)
        for dt, err, flr in zip(dts, errors, floors)
        if flr < err < ceiling
    ]
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 usable records in the fit window, got {len(pairs)}")
    log_dt = np.log([p[0] for p in pairs])
    log_err = np.log([p[1] for p in pairs])
    slope, _ = np.polyfit(log_dt, log_err, 1)
    return float(slope)


@dataclass(frozen=True)
class ReferenceSpec:
    """How to build the reference propagator for a convergence study."""

    method: MethodId = MethodId.ME6
    n_steps: int | None = None  # default: REFERENCE_REFINEMENT x finest ladder rung
    cross_check_method: MethodId = MethodId.BLANES6_GAUSS
    cross_check_tolerance: float = 1e-8


@dataclass(frozen=True)
class ConvergenceRecord:
    method: MethodId
    dt: float
    n_steps: int
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    records: tuple[ConvergenceRecord, ...]
    slopes: dict[MethodId, float]
    reference_n_steps: int
    reference_dt: float
    reference_agreement: float

    def errors_for(self, method: MethodId) -> list[ConvergenceRecord]:
        return [r for r in self.records if r.method == method]


def default_ladder(tf: float, t0: float = 0.0) -> list[float]:
    """The bundled step-size ladder: ``(tf - t0) / n`` for the standard counts."""
    return [(tf - t0) / n for n in DEFAULT_LADDER_STEP_COUNTS]


def _steps_for(dt: float, span: float) -> int:
    if not math.isfinite(dt):
        raise ValueError(f"step size must be finite, got {dt!r}")
    if dt <= 0:
        raise PreconditionError(f"step size must be positive, got {dt}")
    if not math.isfinite(span / dt):
        raise PreconditionError(f"dt={dt!r} gives more steps over {span!r} than a float can count")
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > _DIVISIBILITY_RTOL * max(1.0, abs(span)):
        raise PreconditionError(
            f"dt={dt!r} does not divide the interval length {span!r} "
            f"to an integer step count within {_DIVISIBILITY_RTOL:g} relative"
        )
    return n


def convergence_study(
    model,
    methods: Sequence[MethodId],
    dts: Sequence[float] | None = None,
    tf: float = 100.0,
    t0: float = 0.0,
    reference: ReferenceSpec = ReferenceSpec(),
    ctx: StepContext = DEFAULT_CONTEXT,
) -> ConvergenceReport:
    """Errors of each (method, dt) against a fine-grid reference, plus fitted slopes.

    The reference is computed once, then independently cross-checked with a
    second 6th-order scheme at the same step size; the study refuses to run if
    the two disagree beyond ``reference.cross_check_tolerance``.
    """
    span = tf - t0
    if span <= 0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    if dts is None:
        dts = default_ladder(tf, t0)
    counts = [_steps_for(dt, span) for dt in dts]

    n_ref = reference.n_steps
    if n_ref is None:
        n_ref = REFERENCE_REFINEMENT * max(counts)
    dim = _as_sampler_arrays(model, np.asarray([t0])).shape[-1]
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[0] = 1.0

    u_ref = propagate(reference.method, model, t0, tf, n_ref, psi0, ctx).final_propagator
    u_check = propagate(
        reference.cross_check_method, model, t0, tf, n_ref, psi0, ctx
    ).final_propagator
    agreement = relative_error(u_check, u_ref)
    if not agreement <= reference.cross_check_tolerance:
        raise PreconditionError(
            f"reference propagators disagree: {reference.method.value} vs "
            f"{reference.cross_check_method.value} relative error {agreement:.3e} "
            f"exceeds {reference.cross_check_tolerance:g}"
        )

    records: list[ConvergenceRecord] = []
    for method in methods:
        for dt, n in zip(dts, counts):
            u = propagate(method, model, t0, tf, n, psi0, ctx).final_propagator
            records.append(ConvergenceRecord(method, float(dt), n, relative_error(u, u_ref)))

    # A product of n machine-accurate unitaries drifts by O(n * eps), and the
    # reference trajectory contributes its own share, so records below
    # eps * (n + n_ref) measure rounding, not truncation.  Records with errors
    # past a few percent are outside the asymptotic regime.
    eps = np.finfo(float).eps
    slopes: dict[MethodId, float] = {}
    for method in methods:
        own = [r for r in records if r.method == method]
        floors = [eps * (r.n_steps + n_ref) for r in own]
        try:
            slopes[method] = fit_order(
                [r.dt for r in own], [r.error for r in own], floor=floors, ceiling=0.05
            )
        except ValueError:
            slopes[method] = float("nan")  # not enough rungs in the fit window

    return ConvergenceReport(
        records=tuple(records),
        slopes=slopes,
        reference_n_steps=n_ref,
        reference_dt=span / n_ref,
        reference_agreement=agreement,
    )
