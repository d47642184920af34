"""Quadrature oracles for the time-ordered integrals behind each step scheme.

The first four exact integrals (single integral, nested commutator double,
triple and quadruple integrals) are evaluated here by nested Gauss-Legendre
quadrature over polynomial interpolants of the Hamiltonian.  Because those
integrands are low-degree polynomials, fixed-order quadrature is exact up to
rounding, which makes the 1e-11 certification tolerances meaningful.  Every
closed-form commutator expression used by the step schemes is checked against
the matching oracle over seeded random Hermitian samples.

``check_closed_forms`` calls the step builders' own term functions
(``magnus_steps.m1_simpson`` ... ``m4_linear``), so a wrong coefficient in a
scheme fails certification.  The terms take the step as ``tau = dt / ħ``, the
only place ħ enters; here ħ = 1 and ``tau`` is ``cfg.dt``.  Every suite needs
at least one draw (the CLI rejects ``--draws`` below 1).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class OracleConfig:
    """Oracle precision and sampling knobs; 8 Gauss points per axis is ample
    for integrands of per-axis polynomial degree <= 4."""

    gl_points_per_axis: int = 8
    seed: int = 0
    dim: int = 2
    dt: float = 1.0

    def __post_init__(self):
        if self.gl_points_per_axis < 8:
            raise ValueError("gl_points_per_axis must be >= 8")
        if self.dim < 1:
            raise ValueError("dim must be positive")


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


def interpolant(samples: Sequence[Array], degree: int, t_k: float, dt: float) -> Callable[[float], Array]:
    """Lagrange matrix polynomial through ``degree + 1`` equally spaced samples
    on ``[t_k, t_k + dt]`` (degree 0 is the constant equal to its one sample)."""
    if not 0 <= degree <= 4:
        raise ValueError(f"degree must be in 0..4, got {degree}")
    if len(samples) != degree + 1:
        raise ValueError(f"degree {degree} needs {degree + 1} samples, got {len(samples)}")
    mats = [np.asarray(s, dtype=np.complex128) for s in samples]
    if degree == 0:
        const = mats[0]
        return lambda t: const
    nodes = [t_k + dt * j / degree for j in range(degree + 1)]

    def h(t: float) -> Array:
        out = np.zeros_like(mats[0])
        for j, hj in enumerate(mats):
            lj = 1.0
            for m, xm in enumerate(nodes):
                if m != j:
                    lj *= (t - xm) / (nodes[j] - xm)
            out = out + lj * hj
        return out

    return h


def _gl_rule(n_points: int):
    return np.polynomial.legendre.leggauss(n_points)


def _scaled(a: float, b: float, x: Array, w: Array):
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def _integrate(f, a: float, b: float, x: Array, w: Array):
    ts, ws = _scaled(a, b, x, w)
    acc = ws[0] * f(ts[0])
    for t, wt in zip(ts[1:], ws[1:]):
        acc = acc + wt * f(t)
    return acc


def _integrate_stacked(f_stack, a: float, b: float, x: Array, w: Array):
    # f_stack maps the node times to a (p, d, d) stack; innermost axes of the
    # nested quadratures are evaluated this way to keep the node loop in numpy
    ts, ws = _scaled(a, b, x, w)
    vals = f_stack(ts)
    return np.einsum("i,ijk->jk", ws, vals)


def _m3_integrand(ha, hb, hc):
    return commutator(ha, commutator(hb, hc)) + commutator(commutator(ha, hb), hc)


def _m4_integrand(ha, hb, hc, hd):
    return (
        commutator(commutator(commutator(ha, hb), hc), hd)
        + commutator(ha, commutator(commutator(hb, hc), hd))
        + commutator(ha, commutator(hb, commutator(hc, hd)))
        + commutator(hb, commutator(hc, commutator(hd, ha)))
    )


def oracle_Mn(h: Callable[[float], Array], n: int, t_k: float, dt: float, cfg: OracleConfig) -> Array:
    """n-fold time-ordered integral of the exact expansion term, n in 1..4.

    The quadruple integral includes its overall factor 2.  Each inner range
    ``[t_k, tau]`` is mapped onto the Gauss-Legendre reference interval, so the
    result is exact for polynomial ``h`` within the configured point count.
    """
    x, w = _gl_rule(cfg.gl_points_per_axis)
    t_end = t_k + dt

    def h_stack(ts):
        return np.stack([h(t) for t in ts])

    if n == 1:
        return _integrate(h, t_k, t_end, x, w)
    if n == 2:
        def outer2(t1):
            h1 = h(t1)
            return _integrate_stacked(lambda ts: commutator(h1, h_stack(ts)), t_k, t1, x, w)
        return _integrate(outer2, t_k, t_end, x, w)
    if n == 3:
        def outer3(t1):
            h1 = h(t1)

            def mid3(t2):
                h2 = h(t2)
                return _integrate_stacked(
                    lambda ts: _m3_integrand(h1, h2, h_stack(ts)), t_k, t2, x, w
                )

            return _integrate(mid3, t_k, t1, x, w)
        return _integrate(outer3, t_k, t_end, x, w)
    if n == 4:
        def outer4(t1):
            h1 = h(t1)

            def mid4(t2):
                h2 = h(t2)

                def inner4(t3):
                    h3 = h(t3)
                    return _integrate_stacked(
                        lambda ts: _m4_integrand(h1, h2, h3, h_stack(ts)), t_k, t3, x, w
                    )

                return _integrate(inner4, t_k, t2, x, w)

            return _integrate(mid4, t_k, t1, x, w)
        return 2.0 * _integrate(outer4, t_k, t_end, x, w)
    raise ValueError(f"n must be in 1..4, got {n}")


def _nested3_scalar(g, t_k: float, dt: float, cfg: OracleConfig) -> float:
    """Triple time-ordered integral of a scalar integrand g(t1, t2, t3)."""
    x, w = _gl_rule(cfg.gl_points_per_axis)

    def outer(t1):
        def mid(t2):
            return _integrate(lambda t3: g(t1, t2, t3), t_k, t2, x, w)
        return _integrate(mid, t_k, t1, x, w)

    return float(_integrate(outer, t_k, t_k + dt, x, w))


def _rel_dev(value: Array, reference: Array) -> float:
    ref = frobenius_norm(reference)
    dev = frobenius_norm(np.asarray(value) - np.asarray(reference))
    return float(dev) / max(float(ref), 1e-300)


class _MaxTracker:
    def __init__(self):
        self._values: dict[str, float] = {}

    def update(self, name: str, value: float) -> None:
        self._values[name] = max(self._values.get(name, 0.0), float(value))

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
