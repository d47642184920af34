"""Compose step propagators over an interval and run convergence studies.

The step pipeline streams over fixed-size chunks of a uniform grid:
:func:`_step_chunks` samples, checks, builds and exponentiates one chunk of
steps at a time (all step exponents of a chunk in one broadcasted call, then
one batched ``expm_antihermitian``: an eigendecomposition, or the closed
su(2) form at d = 2), the same per-step arithmetic as
:func:`magstep.magnus_steps.step`.  A chunk's stacks take ``CHUNK_BYTES``
each, so besides its outputs a run holds the same memory at any step count.

A trajectory records the populations and the unitarity defect of the
propagator at every grid point.  Each chunk's prefixes of the step product
(later steps on the left) come from a two-level blocked scan started at the
propagator carried from the chunk before: about 2 sqrt(n) batched matrix
products instead of n single ones.  The convergence harness needs only final
propagators, which it forms by a pairwise product within each chunk times
the carried propagator, with no prefixes, populations or defects.  It
measures the relative Frobenius error of each scheme's final propagator
against a reference computed by the 6th-order scheme on a much finer grid,
cross-checked against an independent 6th-order scheme before it is trusted,
and fits the log-log order of accuracy per method.  Every product of
propagator stacks goes through ``linalg.matmul``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

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

# Bytes of one complex (chunk, d, d) stack: the step pipeline runs over
# chunks of CHUNK_BYTES // (16 d**2) steps, 16384 at d = 2 and 1024 at d = 8,
# so what it holds besides the outputs does not grow with the step count.
CHUNK_BYTES = 2**20


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


def _trajectory_bytes(n_steps: int, dim: int) -> int:
    """Bytes of the arrays that grow with the step count: the times,
    populations and unitarity defects of a trajectory and the CLI's row
    array, ``n_steps + 1`` rows of ``2 dim + 4`` float64 values."""
    return (int(n_steps) + 1) * (2 * dim + 4) * 8


def _physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _step_chunks(
    method: MethodId, model, t0: float, tf: float, n_steps: int, dim: int, ctx: StepContext
) -> Iterator[tuple[int, Array]]:
    """``(start, u)`` for consecutive chunks of a uniform grid's steps: ``u``
    holds the step propagators of steps ``start, start + 1, ...``, at most
    ``CHUNK_BYTES // (16 dim**2)`` of them.

    The grid is checked when this is called, before anything is sampled; each
    chunk is sampled, checked, built and exponentiated only when it is
    reached, so no ``(n, d, d)`` stack outlives its chunk.  A chunk's step
    starts ``t0 + dt * arange(start, stop)`` are the same floats as the slice
    of the whole grid.
    """
    if not math.isfinite(tf - t0):
        raise ValueError(f"t0, tf and tf - t0 must be finite, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    if n_steps < 1:
        raise PreconditionError(f"n_steps must be positive, got {n_steps}")
    # also stops a convergence ladder whose rungs could never be counted out;
    # d is checked against the Hamiltonian in each chunk
    if _trajectory_bytes(n_steps, dim) > np.iinfo(np.intp).max:
        raise PreconditionError(
            f"n_steps=10^{math.log10(int(n_steps)):.2f} is too large: its n_steps + 1 "
            f"grid points, at {2 * dim + 4} floats each in a trajectory, would exceed "
            f"the {np.iinfo(np.intp).max} bytes this platform can address"
        )

    dt = (tf - t0) / n_steps
    width = max(1, CHUNK_BYTES // (16 * dim**2))

    def chunk(start: int) -> Array:
        step_start = t0 + dt * np.arange(start, min(start + width, n_steps))
        # the node dict is not named here: exponent replaces each of its stacks
        # by the scaled one, so no node is held twice
        theta = exponent(method, _node_samples(method, model, step_start, dt, dim), dt, ctx)
        return expm_antihermitian(theta)

    return ((start, chunk(start)) for start in range(0, int(n_steps), width))


def _prefix_products(u: Array, carry: Array) -> Array:
    """The ``n + 1`` prefixes ``carry, u[0] carry, u[1] u[0] carry, ...`` of
    ``n`` step propagators, later steps on the left.

    ``carry`` is the propagator at the first step's start: the identity for
    the first chunk of a grid, the last prefix of the chunk before for each
    later one.  A two-level blocked scan: the first ``w * (n // w)`` steps,
    ``w = isqrt(n)``, form ``n // w`` blocks viewed in place in the output.
    All blocks advance their local prefixes together, one batched product per
    position; then each block is chained, in place, onto the prefix just
    before it (``carry`` for block 0), one batched product per block.  The
    fewer than ``w`` leftover steps follow one at a time, so about 2 sqrt(n)
    batched products replace n single ones, and nothing the size of ``u`` is
    allocated besides the output.  A product with the identity is exact, so
    a grid of one chunk gets the prefixes of a scan that starts at I.
    """
    n, dim = len(u), u.shape[-1]
    width = math.isqrt(n)
    blocks = n // width
    full = blocks * width
    out = np.empty((n + 1, dim, dim), dtype=np.complex128)
    out[0] = carry
    local = out[1:full + 1].reshape(blocks, width, dim, dim)
    steps = u[:full].reshape(blocks, width, dim, dim)
    local[:, 0] = steps[:, 0]
    for j in range(1, width):
        matmul(steps[:, j], local[:, j - 1], out=local[:, j])
    for b in range(blocks):
        matmul(local[b], out[b * width], out=local[b])
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
    applied to the initial state, never re-normalized.  Raises
    :class:`PreconditionError` before sampling if the outputs, which grow
    with ``n_steps``, would not fit in physical memory.
    """
    psi0 = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise PreconditionError(f"initial state must be normalized, got norm {norm!r}")
    dim = psi0.size
    chunks = _step_chunks(method, model, t0, tf, n_steps, dim, ctx)
    need, memory = _trajectory_bytes(n_steps, dim), _physical_memory_bytes()
    if memory is not None and need > memory:
        raise PreconditionError(
            f"n_steps=10^{math.log10(int(n_steps)):.2f} is too large: its times, "
            f"populations, unitarity defects and output rows take about "
            f"{need / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB of physical memory"
        )

    times = t0 + (tf - t0) / n_steps * np.arange(n_steps + 1)
    populations = np.empty((n_steps + 1, dim))
    defects = np.empty(n_steps + 1)
    carry = np.eye(dim, dtype=np.complex128)
    for start, u in chunks:
        prefixes = _prefix_products(u, carry)
        rows = slice(start, start + len(prefixes))
        populations[rows] = np.abs(prefixes @ psi0) ** 2
        defects[rows] = unitarity_defect(prefixes)
        carry = prefixes[-1]
    return EvolutionTrace(
        times=times,
        populations=populations,
        unitarity_defects=defects,
        final_propagator=carry,
    )


def _final_propagator(
    method: MethodId, model, t0: float, tf: float, n_steps: int, dim: int, ctx: StepContext
) -> Array:
    """U(tf) alone: the step propagators multiplied pairwise, later steps on the left.

    Within a chunk, each level multiplies neighbouring pairs in one batched
    product and carries an odd trailing factor over unchanged, so n - 1
    products take ceil(log2 n) levels and no prefix is ever stored; each
    chunk's product then multiplies the product of the chunks before it, so
    a grid of one chunk takes no product beyond its own.
    """
    products = []
    for _, u in _step_chunks(method, model, t0, tf, n_steps, dim, ctx):
        while len(u) > 1:
            tail = u[len(u) - len(u) % 2:]
            u = np.concatenate([matmul(u[1::2], u[0:len(u) - 1:2]), tail])
        products.append(u[0])
    return functools.reduce(lambda carry, p: matmul(p, carry), products)


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
