"""Compose step propagators over an interval and run convergence studies.

A trajectory holds the propagator at every point of a uniform grid, from
which it records populations and the unitarity defect.  Those prefixes of the
step product (later steps on the left) come from a two-level blocked scan:
about 2 sqrt(n) batched matrix products, written in place into the output
array, instead of n single ones.  The convergence harness needs only final
propagators, which it forms by a pairwise product of the step propagators
with no prefixes, populations or defects.  It measures the relative
Frobenius error of each scheme's final propagator against a reference
computed by the 6th-order scheme on a much finer grid, cross-checked against
an independent 6th-order scheme before it is trusted, and fits the log-log
order of accuracy per method.

For speed the driver assembles all step exponents in one broadcasted call
and exponentiates them in one batched ``expm_antihermitian`` call (an
eigendecomposition, or the closed su(2) form at d = 2); this is the same
per-step arithmetic as :func:`magstep.magnus_steps.step`.  Every product of
propagator stacks goes through ``linalg.matmul``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hamiltonians import HamiltonianModel
from .linalg import Array, PreconditionError, expm_antihermitian, frobenius_norm, matmul, unitarity_defect
from .magnus_steps import DEFAULT_CONTEXT, MethodId, StepContext, exponent, sample_nodes

__all__ = [
    "EvolutionTrace",
    "ConvergenceRecord",
    "ConvergenceReport",
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

# The reference propagator of a convergence study: the 6th-order scheme on a
# grid 8x finer than the finest ladder rung, trusted only if the independent
# 6th-order scheme on the same grid agrees with it to REFERENCE_AGREEMENT_TOL
# relative.
REFERENCE_METHOD = MethodId.ME6
CROSS_CHECK_METHOD = MethodId.BLANES6_GAUSS
REFERENCE_REFINEMENT = 8
REFERENCE_AGREEMENT_TOL = 1e-8

# Largest |‖psi0‖ - 1| accepted for an initial state.
STATE_NORM_TOL = 1e-12

# Errors at or above this are outside the asymptotic regime of a slope fit.
FIT_ERROR_CEILING = 0.05

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


def _node_samples(method: MethodId, model, step_start: Array, dt: float, dim: int) -> dict[float, Array]:
    """Hamiltonian samples at each node of every step, ``(n_steps, dim, dim)`` each."""
    samples = {node: _as_sampler_arrays(model, step_start + node * dt) for node in sample_nodes(method)}
    shape = samples[sample_nodes(method)[0]].shape
    if shape != (len(step_start), dim, dim):
        raise PreconditionError(
            f"initial state has length {dim}; Hamiltonian samples must be ({dim}, {dim}), got {shape[1:]}"
        )
    return samples


def _step_propagators(
    method: MethodId, model, t0: float, tf: float, n_steps: int, dim: int, ctx: StepContext
) -> tuple[Array, Array]:
    """Grid times and the ``(n_steps, dim, dim)`` step propagators of a uniform grid."""
    if not math.isfinite(tf - t0):
        raise ValueError(f"t0, tf and tf - t0 must be finite, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    if n_steps < 1:
        raise PreconditionError(f"n_steps must be positive, got {n_steps}")
    # no array of the run is larger than the (n_steps + 1, d, d) propagator
    # array; d is checked against the Hamiltonian below
    if (int(n_steps) + 1) * dim**2 * 16 > np.iinfo(np.intp).max:
        raise PreconditionError(
            f"n_steps=10^{math.log10(int(n_steps)):.2f} is too large: the (n_steps + 1, "
            f"{dim}, {dim}) complex propagator array would exceed the "
            f"{np.iinfo(np.intp).max} bytes this platform can address"
        )

    dt = (tf - t0) / n_steps
    t_grid = t0 + dt * np.arange(n_steps + 1)
    # the node dict is not named here: exponent replaces each of its stacks
    # by the scaled one, so no node is held twice
    theta = exponent(method, _node_samples(method, model, t_grid[:-1], dt, dim), dt, ctx)
    return t_grid, expm_antihermitian(theta)


def _prefix_products(u: Array) -> Array:
    """The ``n + 1`` prefixes ``I, u[0], u[1] u[0], ...`` of ``n`` step propagators.

    A two-level blocked scan, later steps on the left: the first ``w * (n //
    w)`` steps, ``w = isqrt(n)``, form ``n // w`` blocks viewed in place in
    the output.  All blocks advance their local prefixes together, one
    batched product per position; then each block is chained, in place, onto
    the last prefix of the block before it, one batched product per block.
    The fewer than ``w`` leftover steps follow one at a time, so about 2 sqrt(n)
    batched products replace n single ones, and nothing the size of ``u`` is
    allocated besides the output.
    """
    n, dim = len(u), u.shape[-1]
    width = math.isqrt(n)
    blocks = n // width
    full = blocks * width
    out = np.empty((n + 1, dim, dim), dtype=np.complex128)
    out[0] = np.eye(dim)
    local = out[1:full + 1].reshape(blocks, width, dim, dim)
    steps = u[:full].reshape(blocks, width, dim, dim)
    local[:, 0] = steps[:, 0]
    for j in range(1, width):
        matmul(steps[:, j], local[:, j - 1], out=local[:, j])
    for b in range(1, blocks):
        matmul(local[b], local[b - 1, -1], out=local[b])
    for k in range(full, n):
        matmul(u[k], out[k], out=out[k + 1])
    return out


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
    psi0 = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise PreconditionError(f"initial state must be normalized, got norm {norm!r}")
    dim = psi0.size
    t_grid, u_steps = _step_propagators(method, model, t0, tf, n_steps, dim, ctx)

    cumulative = _prefix_products(u_steps)
    populations = np.abs(cumulative @ psi0) ** 2
    return EvolutionTrace(
        times=t_grid,
        populations=populations,
        unitarity_defects=unitarity_defect(cumulative),
        final_propagator=cumulative[-1],
    )


def _final_propagator(
    method: MethodId, model, t0: float, tf: float, n_steps: int, dim: int, ctx: StepContext
) -> Array:
    """U(tf) alone: the step propagators multiplied pairwise, later steps on the left.

    Each level multiplies neighbouring pairs in one batched product and carries
    an odd trailing factor over unchanged, so n - 1 products take ceil(log2 n)
    levels and no prefix is ever stored.
    """
    _, u = _step_propagators(method, model, t0, tf, n_steps, dim, ctx)
    while len(u) > 1:
        tail = u[len(u) - len(u) % 2:]
        u = np.concatenate([matmul(u[1::2], u[0:len(u) - 1:2]), tail])
    return u[0]


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
    ctx: StepContext = DEFAULT_CONTEXT,
) -> ConvergenceReport:
    """Errors of each (method, dt) against a fine-grid reference, plus fitted slopes.

    The reference is :data:`REFERENCE_METHOD` on ``REFERENCE_REFINEMENT``
    times the finest rung's step count.  It is computed once, then
    independently cross-checked with :data:`CROSS_CHECK_METHOD` on the same
    grid; the study refuses to run if the two disagree beyond
    :data:`REFERENCE_AGREEMENT_TOL` relative.
    """
    span = tf - t0
    if span <= 0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    if dts is None:
        dts = default_ladder(tf, t0)
    if len(dts) == 0:
        raise ValueError("dts must list at least one step size, got an empty ladder")
    counts = [_steps_for(dt, span) for dt in dts]

    n_ref = REFERENCE_REFINEMENT * max(counts)
    dim = _as_sampler_arrays(model, np.asarray([t0])).shape[-1]

    u_ref = _final_propagator(REFERENCE_METHOD, model, t0, tf, n_ref, dim, ctx)
    u_check = _final_propagator(CROSS_CHECK_METHOD, model, t0, tf, n_ref, dim, ctx)
    agreement = relative_error(u_check, u_ref)
    if not agreement <= REFERENCE_AGREEMENT_TOL:
        raise PreconditionError(
            f"reference propagators disagree: {REFERENCE_METHOD.value} vs "
            f"{CROSS_CHECK_METHOD.value} relative error {agreement:.3e} "
            f"exceeds {REFERENCE_AGREEMENT_TOL:g}"
        )

    records: list[ConvergenceRecord] = []
    for method in methods:
        for dt, n in zip(dts, counts):
            u = _final_propagator(method, model, t0, tf, n, dim, ctx)
            records.append(ConvergenceRecord(method, float(dt), n, relative_error(u, u_ref)))

    # A product of n machine-accurate unitaries drifts by O(n * eps), and the
    # reference contributes its own share, so records below
    # eps * (n + n_ref) measure rounding, not truncation.
    eps = np.finfo(float).eps
    slopes: dict[MethodId, float] = {}
    for method in methods:
        own = [r for r in records if r.method == method]
        floors = [eps * (r.n_steps + n_ref) for r in own]
        try:
            slopes[method] = fit_order(
                [r.dt for r in own], [r.error for r in own], floor=floors, ceiling=FIT_ERROR_CEILING
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
