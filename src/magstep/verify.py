"""Quadrature oracles for the time-ordered integrals behind each step scheme.

The first four exact integrals (single integral, nested commutator double,
triple and quadruple integrals) are evaluated here by Gauss-Legendre
quadrature over polynomial interpolants of the Hamiltonian.  The nested range
``t_k <= s_n <= ... <= s_1 <= t_k + dt`` is collapsed onto one tensor grid:
each level's rule is mapped affinely onto ``[t_k, s_{k-1}]`` for every node of
the levels outside it, so level k holds ``p**k`` nodes and the product of the
local weights.  Every integrand is multilinear in its Hamiltonians, so the
innermost level is summed first (``sum_i w_i [A, H(s_i)] = [A, sum_i w_i
H(s_i)]``); the integrand is then evaluated once, batched over the
``p**(n-1)`` outer nodes, and summed with the product weights.  That is the
nested rule summed in another order, so it keeps its exactness: for every
integral taken here the integrand has degree at most 15 in each time, which
the 8-point rule integrates exactly up to rounding.  This makes the 1e-11
certification tolerances meaningful.  Every closed-form commutator expression
used by the step schemes is checked against the matching oracle over seeded
random Hermitian samples.

``check_closed_forms`` calls the step builders' own term functions
(``magnus_steps.m1_simpson`` ... ``m4_linear``), so a wrong coefficient in a
scheme fails certification.  The terms take the step as ``tau = dt / ħ``, the
only place ħ enters; here ħ = 1 and ``tau`` is ``cfg.dt``, which must be
finite and nonzero.  Every suite needs at least one draw (the CLI rejects
``--draws`` below 1), and a row whose worst deviation is NaN (say, from a
Frobenius norm that overflows at a huge ``dt``) fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import Array, commutator, dagger, frobenius_norm, unitarity_defect
from .magnus_steps import (
    ALL_METHODS,
    StepContext,
    m1_boole,
    m1_simpson,
    m2_cubic,
    m2_linear,
    m2_quadratic,
    m3_linear,
    m3_quadratic,
    m4_linear,
    step,
)

__all__ = [
    "OracleConfig",
    "CheckRow",
    "CheckReport",
    "random_hermitian",
    "interpolant",
    "oracle_Mn",
    "check_closed_forms",
    "check_symmetry_suite",
]


# Fewest Gauss-Legendre points per axis.  8 points integrate degree 15
# exactly: the n-fold integral of a degree-q interpolant has degree n*q + n - 1
# in its outermost time, 15 for the highest case taken here (n = 4, cubic).
MIN_GL_POINTS = 8


@dataclass(frozen=True)
class OracleConfig:
    """Oracle precision and sampling knobs."""

    gl_points_per_axis: int = MIN_GL_POINTS
    seed: int = 0
    dim: int = 2
    dt: float = 1.0

    def __post_init__(self):
        if self.gl_points_per_axis < MIN_GL_POINTS:
            raise ValueError(f"gl_points_per_axis must be >= {MIN_GL_POINTS}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not (math.isfinite(self.dt) and self.dt != 0.0):
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")


@dataclass(frozen=True)
class CheckRow:
    identity: str
    max_rel_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_dev <= self.tolerance


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[CheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def row(self, identity: str) -> CheckRow:
        for r in self.rows:
            if r.identity == identity:
                return r
        raise KeyError(identity)


def random_hermitian(rng: np.random.Generator, dim: int) -> Array:
    """(B + B†)/2 with entries of B uniform in the complex unit square."""
    b = rng.uniform(0.0, 1.0, (dim, dim)) + 1j * rng.uniform(0.0, 1.0, (dim, dim))
    return 0.5 * (b + b.conj().T)


def interpolant(samples: Sequence[Array], degree: int, t_k: float, dt: float) -> Callable[[float | Array], Array]:
    """Lagrange matrix polynomial through ``degree + 1`` equally spaced samples
    on ``[t_k, t_k + dt]`` (degree 0 is the constant equal to its one sample).

    The returned function maps a time, or an array of times of shape ``S``, to
    a ``(*S, d, d)`` stack: the ``(*S, degree + 1)`` Lagrange basis contracted
    with the stack of samples."""
    if not 0 <= degree <= 4:
        raise ValueError(f"degree must be in 0..4, got {degree}")
    if len(samples) != degree + 1:
        raise ValueError(f"degree {degree} needs {degree + 1} samples, got {len(samples)}")
    mats = np.stack([np.asarray(s, dtype=np.complex128) for s in samples])
    if degree == 0:
        return lambda t: np.broadcast_to(mats[0], np.shape(t) + mats.shape[1:])
    nodes = [t_k + dt * j / degree for j in range(degree + 1)]

    def h(t: float | Array) -> Array:
        t = np.asarray(t, dtype=np.float64)
        basis = [
            math.prod((t - xm) / (xj - xm) for m, xm in enumerate(nodes) if m != j)
            for j, xj in enumerate(nodes)
        ]
        return np.tensordot(np.stack(basis, axis=-1), mats, axes=1)

    return h


@functools.lru_cache(maxsize=None)
def _gl_rule(n_points: int) -> tuple[Array, Array]:
    return np.polynomial.legendre.leggauss(n_points)


def _nested_grid(n: int, t_k: float, dt: float, x: Array, w: Array) -> list[tuple[Array, Array, Array]]:
    """Levels 1..n of the Gauss-Legendre grid of the time-ordered simplex
    ``t_k + dt >= s_1 >= s_2 >= ... >= s_n >= t_k`` (reversed when dt < 0).

    Level k is ``(nodes, local, product)``, each of shape ``(p,)*k``: the rule
    ``x, w`` mapped onto ``[t_k, s_{k-1}]`` (``s_0 = t_k + dt``) for every
    node of the outer levels, its weights, and the product of the local
    weights of levels 1..k.  The maps are affine, so a negative ``dt`` needs
    no special case.
    """
    levels = []
    upper, product = np.float64(t_k + dt), np.float64(1.0)
    for _ in range(n):
        half = np.expand_dims(0.5 * (upper - t_k), -1)
        nodes = half * x + np.expand_dims(0.5 * (t_k + upper), -1)
        local = half * w
        product = np.expand_dims(product, -1) * local
        levels.append((nodes, local, product))
        upper = nodes
    return levels


def _m3_integrand(ha, hb, hc):
    return commutator(ha, commutator(hb, hc)) + commutator(commutator(ha, hb), hc)


def _m4_integrand(ha, hb, hc, hd):
    return (
        commutator(commutator(commutator(ha, hb), hc), hd)
        + commutator(ha, commutator(commutator(hb, hc), hd))
        + commutator(ha, commutator(hb, commutator(hc, hd)))
        + commutator(hb, commutator(hc, commutator(hd, ha)))
    )


_INTEGRANDS = {2: commutator, 3: _m3_integrand, 4: _m4_integrand}


def oracle_Mn(h: Callable[[Array], Array], n: int, t_k: float, dt: float, cfg: OracleConfig) -> Array:
    """n-fold time-ordered integral of the exact expansion term, n in 1..4.

    ``h`` maps an array of times of shape ``S`` to a ``(*S, d, d)`` stack (as
    :func:`interpolant` does); it is called once per level of the collapsed
    grid of :func:`_nested_grid`.  The integrand is linear in its innermost
    ``H``, so that level is contracted with its local weights first; the
    integrand is then evaluated once over the ``(p,)*(n-1)`` outer grid and
    contracted with the product weights.  The quadruple integral includes its
    overall factor 2.  The result is exact for polynomial ``h`` within the
    configured point count.  The innermost level holds ``p**n`` matrices
    (4096 at n = 4 and p = 8), which bounds the memory of a call.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"n must be in 1..4, got {n}")
    x, w = _gl_rule(cfg.gl_points_per_axis)
    levels = _nested_grid(n, t_k, dt, x, w)
    nodes_n, local_n, _ = levels[-1]
    inner = np.einsum("...i,...ijk->...jk", local_n, h(nodes_n))
    if n == 1:
        return inner
    # pad each outer level's times with unit axes to broadcast over the outer grid
    outer = [h(s.reshape(s.shape + (1,) * (n - 1 - s.ndim))) for s, _, _ in levels[:-1]]
    weights, values = levels[-2][2], _INTEGRANDS[n](*outer, inner)
    value = np.einsum("i,ijk->jk", weights.ravel(), values.reshape(weights.size, *values.shape[-2:]))
    return 2.0 * value if n == 4 else value


def _nested3_scalar(g, t_k: float, dt: float, cfg: OracleConfig) -> float:
    """Triple time-ordered integral of a scalar integrand g(t1, t2, t3) that
    broadcasts over arrays of times."""
    x, w = _gl_rule(cfg.gl_points_per_axis)
    (s1, _, _), (s2, _, _), (s3, _, product) = _nested_grid(3, t_k, dt, x, w)
    return float(np.sum(product * g(s1[:, None, None], s2[..., None], s3)))


def _rel_dev(value: Array, reference: Array) -> float:
    ref = frobenius_norm(reference)
    dev = frobenius_norm(np.asarray(value) - np.asarray(reference))
    return float(dev) / max(float(ref), 1e-300)


class _MaxTracker:
    """Worst value per identity; a NaN, once seen, stays the worst."""

    def __init__(self):
        self._values: dict[str, float] = {}

    def update(self, name: str, value: float) -> None:
        self._values[name] = float(np.maximum(self._values.get(name, 0.0), value))

    def rows(self, tolerances: dict[str, float], default_tol: float) -> list[CheckRow]:
        return [
            CheckRow(name, dev, tolerances.get(name, default_tol))
            for name, dev in self._values.items()
        ]


def check_closed_forms(cfg: OracleConfig, draws: int = 100, tolerance: float = 1e-11) -> CheckReport:
    """Certify every closed-form commutator expression against the oracles.

    Runs ``draws`` seeded random-Hermitian trials at ``cfg.dim``/``cfg.dt`` and
    reports the worst relative deviation per identity.
    """
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.dt
    track = _MaxTracker()
    c_alt = -(5.0 + math.sqrt(21.0)) / 2.0

    def certify(name: str, closed_form: Array, h, n: int) -> None:
        track.update(name, _rel_dev(closed_form, oracle_Mn(h, n, 0.0, dt, cfg)))

    for _ in range(draws):
        h0, hq1, ht1, hh, ht2, hq3, h1 = (random_hermitian(rng, cfg.dim) for _ in range(7))
        h_lin = interpolant([h0, h1], 1, 0.0, dt)
        h_quad = interpolant([h0, hh, h1], 2, 0.0, dt)
        h_cub = interpolant([h0, ht1, ht2, h1], 3, 0.0, dt)
        h_quart = interpolant([h0, hq1, hh, hq3, h1], 4, 0.0, dt)

        # single integral: Simpson over (0, 1/2, 1) and Boole over quarters
        certify("m1-simpson", m1_simpson(h0, hh, h1, dt), h_quad, 1)
        certify("m1-boole", m1_boole(h0, hq1, hh, hq3, h1, dt), h_quart, 1)

        # double integral: linear, quadratic (both printed forms) and cubic;
        # the paper's sum form of the quadratic one is used by no step scheme
        certify("m2-linear", m2_linear(h0, h1, dt), h_lin, 2)
        m2_oracle = oracle_Mn(h_quad, 2, 0.0, dt, cfg)
        m2_sum = (dt**2 / 30.0) * (
            commutator(h1, h0) + 4.0 * commutator(hh, h0) + 4.0 * commutator(h1, hh)
        )
        m2_single = m2_quadratic(h0, hh, h1, dt)
        track.update("m2-quadratic-sum", _rel_dev(m2_sum, m2_oracle))
        track.update("m2-quadratic-single", _rel_dev(m2_single, m2_oracle))
        track.update("m2-quadratic-forms-agree", _rel_dev(m2_sum, m2_single))
        certify("m2-cubic", m2_cubic(h0, ht1, ht2, h1, dt), h_cub, 2)

        # triple integral: linear and quadratic
        certify("m3-linear", m3_linear(h0, h1, dt), h_lin, 3)
        certify("m3-quadratic", m3_quadratic(h0, hh, h1, dt), h_quad, 3)

        # quadruple integral: the single-tower form, both roots
        m4_oracle = oracle_Mn(h_lin, 4, 0.0, dt, cfg)
        m4_main, m4_alt = m4_linear(h0, h1, dt), m4_linear(h0, h1, dt, root=c_alt)
        track.update("m4-linear", _rel_dev(m4_main, m4_oracle))
        track.update("m4-linear-alt-root", _rel_dev(m4_alt, m4_oracle))
        track.update("m4-roots-agree", _rel_dev(m4_main, m4_alt))

        # constant interpolant: all commutator integrals vanish identically
        h_const = interpolant([0.5 * (h0 + h1)], 0, 0.0, dt)
        for n in (2, 3, 4):
            track.update(
                f"degree0-m{n}-vanishes",
                float(frobenius_norm(oracle_Mn(h_const, n, 0.0, dt, cfg))),
            )

    # scalar triple integrals of the linear-interpolant decomposition
    scalars = [
        ("nested-scalar-1", lambda t1, t2, t3: (dt - t1) * (t2 - t3) / dt**2, dt**3 / 120.0),
        ("nested-scalar-2", lambda t1, t2, t3: t1 * (t2 - t3) / dt**2, dt**3 / 30.0),
        ("nested-scalar-3", lambda t1, t2, t3: (dt - t3) * (t2 - t1) / dt**2, -(dt**3) / 30.0),
        ("nested-scalar-4", lambda t1, t2, t3: t3 * (t2 - t1) / dt**2, -(dt**3) / 120.0),
    ]
    for name, g, expected in scalars:
        got = _nested3_scalar(g, 0.0, dt, cfg)
        track.update(name, abs(got - expected) / abs(expected))

    tolerances = {
        "m2-quadratic-forms-agree": 1e-13,
        "m4-roots-agree": 1e-12,
        "nested-scalar-1": 1e-14,
        "nested-scalar-2": 1e-14,
        "nested-scalar-3": 1e-14,
        "nested-scalar-4": 1e-14,
    }
    return CheckReport(tuple(track.rows(tolerances, tolerance)))


def _random_smooth_sampler(rng: np.random.Generator, dim: int) -> Callable[[float], Array]:
    a0 = random_hermitian(rng, dim)
    a1 = random_hermitian(rng, dim)
    a2 = random_hermitian(rng, dim)
    w1, w2 = rng.uniform(0.5, 2.0, size=2)

    def sampler(t: float) -> Array:
        return a0 + a1 * np.sin(w1 * t) + a2 * np.cos(w2 * t)

    return sampler


def check_symmetry_suite(
    cfg: OracleConfig,
    draws: int = 200,
    oracle_draws: int = 25,
    tolerance: float = 1e-12,
) -> CheckReport:
    """Unitarity and backward-adjoint checks over all methods, plus the
    sign flip of every oracle integral under reversal of the step."""
    rng = np.random.default_rng(cfg.seed)
    track = _MaxTracker()
    ctx = StepContext()

    dim_cap = max(2, min(cfg.dim, 6))
    for method in ALL_METHODS:
        for _ in range(draws):
            dim = int(rng.integers(2, dim_cap + 1))
            sampler = _random_smooth_sampler(rng, dim)
            t_k = float(rng.uniform(-1.0, 1.0))
            dt = cfg.dt * float(rng.uniform(0.5, 1.0))
            forward = step(method, sampler, t_k, dt, ctx)
            backward = step(method, sampler, t_k + dt, -dt, ctx)
            track.update(f"unitarity-{method.value}", float(unitarity_defect(forward)))
            track.update(
                f"backward-adjoint-{method.value}",
                float(frobenius_norm(backward - dagger(forward))),
            )

    # constant Hamiltonian: backward step exactly undoes the forward step
    const = random_hermitian(rng, cfg.dim)
    eye = np.eye(cfg.dim)
    for method in ALL_METHODS:
        fwd = step(method, lambda t: const, 0.0, cfg.dt, ctx)
        bwd = step(method, lambda t: const, cfg.dt, -cfg.dt, ctx)
        track.update("const-roundtrip", float(frobenius_norm(bwd @ fwd - eye)))

    # time-ordered integrals flip sign when the endpoints are exchanged
    for _ in range(oracle_draws):
        samples = [random_hermitian(rng, cfg.dim) for _ in range(4)]
        h = interpolant(samples, 3, 0.0, cfg.dt)
        for n in range(1, 5):
            fwd = oracle_Mn(h, n, 0.0, cfg.dt, cfg)
            rev = oracle_Mn(h, n, cfg.dt, -cfg.dt, cfg)
            track.update(f"oracle-sign-flip-m{n}", _rel_dev(rev, -fwd))

    tolerances = {"const-roundtrip": 1e-14}
    return CheckReport(tuple(track.rows(tolerances, tolerance)))
