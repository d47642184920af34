"""Quadrature oracles for the time-ordered integrals behind each step scheme.

The first four exact integrals (single integral, nested commutator double,
triple and quadruple integrals) are evaluated here by Gauss-Legendre
quadrature over polynomial interpolants of the Hamiltonian.  The nested range
``t_k <= s_n <= ... <= s_1 <= t_k + dt`` is collapsed onto one tensor grid:
level k's rule of ``m_k`` points is mapped affinely onto ``[t_k, s_{k-1}]``
for every node of the levels outside it, so level k holds ``m_1 ... m_k``
nodes and the product of the local weights.  Every integrand is
multilinear in its Hamiltonians, so the innermost level is summed first
(``sum_i w_i [A, H(s_i)] = [A, sum_i w_i H(s_i)]``); the integrand is then
evaluated once, batched over the ``m_1 ... m_{n-1}`` outer nodes, and
summed with the product weights.  That is the nested rule summed in
another order, so it keeps its exactness.  For a degree-q interpolant,
once the levels inside it are integrated, level j (1 outermost) has degree
``(n - j + 1)(q + 1) - 1`` in its own time, so it takes the ``m_j =
ceil((n - j + 1)(q + 1) / 2)`` points that integrate it exactly up to
rounding (a product rule of Stroud's conical kind: from 1 point for a
constant's double integral to 10, 8, 5 and 3 for a quartic's quadruple
one).  This makes the 1e-11 certification tolerances meaningful.  Every
closed-form commutator expression used by the step schemes is checked
against the matching oracle over seeded random Hermitian samples.

The rules are fixed: the point count follows from that degree, an
interpolant's degree from its sample count, and each kind of row has one
tolerance constant named for what it bounds (``ORACLE_AGREEMENT_TOL`` ...
``CONST_ROUNDTRIP_TOL``), which no caller can override.  The draws are at
least 2x2, because at d = 1 every bracket, and so every commutator term,
is 0.

``check_closed_forms`` calls the step builders' own term functions
(``magnus_steps.omega1_simpson`` ... ``omega4_linear``), so a wrong
coefficient in a scheme fails certification.  Those take each bracket from
``magnus_steps.commutator``: one matrix product, or at d = 2 a cross
product of su(2) coordinates; the oracle integrands here use the general
``ab - ba`` of ``linalg.commutator``, so the two sides share no bracket
kernel.  Up to d = 4 they share no product kernel either: there
``linalg.commutator`` sums broadcast elementwise products, while the
builders' products are cross products at d = 2 and ``np.matmul`` at d = 3
and 4; above d = 4 both take ``np.matmul``.  The terms take generator samples
``A = -iH dt/ħ`` on the unit step; here ħ = 1, and the draws are ``A =
-i cfg.dt H``, where ``cfg.dt`` must be finite, its fourth power a float
and ``|cfg.dt|**3 / 120`` a normal float.  The terms get them as
``magnus_steps._theta`` hands them to a builder, through
``magnus_steps.generators`` (so in su(2) coordinates at d = 2), and each
term is compared as a matrix (``magnus_steps.as_matrix``).  The
oracle takes the interpolant of the same samples over ``[0, 1]``, and
Omega_n is its n-th integral over ``n!``: every integral is multilinear in
the samples, so scaling them by ``-i dt`` costs the oracle nothing of its
independence.  Every suite needs at least one draw (both suites raise
``ValueError`` for ``draws`` below 1, and the CLI rejects ``--draws`` below
1 with its own usage message), and a row whose worst deviation is NaN
fails: a Frobenius norm that overflows at a huge ``dt``, or a relative
deviation the norm cannot measure because its squares would underflow or
the reference's overflow (:func:`_rel_dev`), so no row passes by reading
0.  The degree-0 rows, the commutator integrals of a constant
interpolant, which are 0, are measured the same way (:func:`_relative`)
against their scale for the draw, ``||a_const||_F**n``, so they cannot
pass at any ``dt`` by being small.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import Array, commutator, dagger, frobenius_norm, unitarity_defect
from .magnus_steps import (
    ALL_METHODS,
    as_matrix,
    generators,
    omega1_boole,
    omega1_simpson,
    omega2_cubic,
    omega2_linear,
    omega2_quadratic,
    omega3_linear,
    omega3_quadratic,
    omega4_linear,
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


# The tolerance of each kind of row, named for what it bounds.
ORACLE_AGREEMENT_TOL = 1e-11  # a closed form against its oracle; a degree-0 integral, over its scale, against 0
PRINTED_FORMS_TOL = 1e-13  # the two printed forms of the quadratic Omega_2
OMEGA4_ROOTS_TOL = 1e-12  # Omega_4 at one root of its tower against the other
NESTED_SCALAR_TOL = 1e-14  # a scalar triple integral against its closed form
SYMMETRY_TOL = 1e-12  # unitarity, backward adjoint, sign flip of an oracle integral
CONST_ROUNDTRIP_TOL = 1e-14  # backward after forward step of a constant Hamiltonian

# The largest dimension the CLI certifies.  ``const-roundtrip`` bounds the
# absolute ||bwd fwd - I||_F, whose rounding grows with d, at the fixed
# CONST_ROUNDTRIP_TOL.  With --suite all --draws 1, seeds 0 to 19 pass
# every row at each d from 2 to 12 (12: at most 9.3e-15); at 13 seeds 4,
# 5 and 14 fail that row (up to 1.24e-14), and at 16 ten of 21 seeds do.
# Rarer seeds fail it below the bound too (seed 192 at d = 8, 1.05e-14).
MAX_DIM = 12


@dataclass(frozen=True)
class OracleConfig:
    """Seed, dimension and step of the certification draws."""

    seed: int = 0
    dim: int = 2
    dt: float = 1.0

    def __post_init__(self):
        # at d = 1 every bracket is 0, so no commutator term would be checked
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not (math.isfinite(self.dt) and self.dt != 0.0):
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def interpolant(samples: Sequence[Array], t_k: float, dt: float) -> Callable[[float | Array], Array]:
    """Lagrange matrix polynomial through 1 to 5 equally spaced samples on
    ``[t_k, t_k + dt]``, of degree ``len(samples) - 1`` (degree 0 is the
    constant equal to its one sample).

    The returned function maps a time, or an array of times of shape ``S``, to
    a ``(*S, d, d)`` stack: the ``(*S, degree + 1)`` Lagrange basis contracted
    with the stack of samples.  It carries its degree as ``h.degree``, from
    which :func:`oracle_Mn` takes its point count."""
    degree = len(samples) - 1
    if not 0 <= degree <= 4:
        raise ValueError(f"degree must be in 0..4, got {degree} ({len(samples)} samples)")
    mats = np.stack([np.asarray(s, dtype=np.complex128) for s in samples])
    if degree == 0:
        def h(t: float | Array) -> Array:
            return np.broadcast_to(mats[0], np.shape(t) + mats.shape[1:])
    else:
        nodes = np.array([t_k + dt * j / degree for j in range(degree + 1)])
        # others[j] lists the nodes m != j, in order, so basis j is the
        # product of the factors (t - x_m) / (x_j - x_m) taken left to right
        others = nodes[[[m for m in range(degree + 1) if m != j] for j in range(degree + 1)]]
        denominators = nodes[:, None] - others
        flat = mats.reshape(degree + 1, -1)

        def h(t: float | Array) -> Array:
            t = np.asarray(t, dtype=np.float64)
            basis = np.multiply.reduce((t[..., None, None] - others) / denominators, axis=-1)
            return (basis.reshape(-1, degree + 1) @ flat).reshape(basis.shape[:-1] + mats.shape[1:])

    h.degree = degree
    return h


# The p-point Gauss-Legendre rule, which integrates degree 2p - 1 exactly,
# built on first use of each p because importing numpy.polynomial takes a
# few ms.
@functools.cache
def _gl_rule(p: int) -> tuple[Array, Array]:
    return np.polynomial.legendre.leggauss(p)


def _nested_grid(t_k: float, dt: float, rules: Sequence[tuple[Array, Array]]) -> list[tuple[Array, Array, Array]]:
    """Levels 1..n of the Gauss-Legendre grid of the time-ordered simplex
    ``t_k + dt >= s_1 >= s_2 >= ... >= s_n >= t_k`` (reversed when dt < 0),
    one ``(x, w)`` rule per level, level 1 outermost.

    Level k is ``(nodes, local, product)``, each of shape ``(m_1, ..., m_k)``
    for rules of ``m_1, ..., m_k`` points: rule k mapped onto ``[t_k,
    s_{k-1}]`` (``s_0 = t_k + dt``) for every node of the outer levels, its
    weights, and the product of the local weights of levels 1..k.  The maps
    are affine, so a negative ``dt`` needs no special case.
    """
    levels = []
    upper, product = np.float64(t_k + dt), np.float64(1.0)
    for x, w in rules:
        half = (0.5 * (upper - t_k))[..., None]
        nodes = half * x + (0.5 * (t_k + upper))[..., None]
        local = half * w
        product = product[..., None] * local
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


def oracle_Mn(h: Callable[[Array], Array], n: int, t_k: float, dt: float) -> Array:
    """n-fold time-ordered integral of the exact expansion term, n in 1..4.

    ``h`` maps an array of times of shape ``S`` to a ``(*S, d, d)`` stack (as
    :func:`interpolant` does); it is called once per level of the collapsed
    grid of :func:`_nested_grid`.  The integrand is linear in its innermost
    ``H``, so that level is contracted with its local weights first; the
    integrand is then evaluated once over the ``(m_1, ..., m_{n-1})`` outer
    grid and contracted with the product weights.  The quadruple integral
    includes its overall factor 2.

    For an ``h`` of degree q, once the levels inside it are integrated,
    level j (1 outermost) has degree ``(n - j + 1)(q + 1) - 1`` in its own
    time, so it takes the ``m_j = ceil((n - j + 1)(q + 1) / 2)`` points that
    integrate it exactly: the result is exact, up to rounding, for every
    ``h`` of :func:`interpolant`, whatever the bracket structure of the
    integrand.  An ``h`` without a ``degree`` attribute is taken as quartic,
    the highest degree :func:`interpolant` builds.  The innermost level
    holds ``m_1 ... m_n`` matrices (at most 10 * 8 * 5 * 3 = 1200, quartic
    at n = 4; 384 cubic, 24 linear), which bounds the memory of a call.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"n must be in 1..4, got {n}")
    q = getattr(h, "degree", 4)
    levels = _nested_grid(t_k, dt, [_gl_rule(((n - j) * (q + 1) + 1) // 2) for j in range(n)])
    nodes_n, local_n, _ = levels[-1]
    inner = np.einsum("...i,...ijk->...jk", local_n, h(nodes_n))
    if n == 1:
        return inner
    # pad each outer level's times with unit axes to broadcast over the outer grid
    outer = [h(s.reshape(s.shape + (1,) * (n - 1 - s.ndim))) for s, _, _ in levels[:-1]]
    weights, values = levels[-2][2], _INTEGRANDS[n](*outer, inner)
    value = np.einsum("i,ijk->jk", weights.ravel(), values.reshape(weights.size, *values.shape[-2:]))
    return 2.0 * value if n == 4 else value


def _nested3_scalar(g, t_k: float, dt: float) -> float:
    """Triple time-ordered integral of a scalar integrand g(t1, t2, t3) that
    broadcasts over arrays of times and has degree at most 1 in each, so
    once the levels inside it are integrated its times s_3, s_2 and s_1 have
    degree 1, 3 and 5, which 1, 2 and 3 points integrate exactly."""
    (s1, _, _), (s2, _, _), (s3, _, product) = _nested_grid(t_k, dt, [_gl_rule(p) for p in (3, 2, 1)])
    return float(np.add.reduce(product * g(s1[:, None, None], s2[..., None], s3), axis=None))


def _rel_dev(value: Array, reference: Array) -> float:
    """``||value - reference||_F / ||reference||_F``, by :func:`_relative`."""
    return _relative(np.asarray(value) - np.asarray(reference), frobenius_norm(reference))


def _relative(deviation: Array, scale: float) -> float:
    """``||deviation||_F / scale``, or NaN, which fails its row, where the
    Frobenius norm cannot measure it: unless a deviation at the scale's
    rounding level, ``eps * scale``, has a finite normal square.
    ``frobenius_norm`` squares the entries, so below that a deviation's
    squares underflow and a wrong value reads 0 (the m4 rows at ``|dt| =
    1e-36``); above it the scale is inf, or a reference's norm is, and any
    finite deviation reads 0 too."""
    floor = sys.float_info.epsilon * scale
    if not sys.float_info.min <= floor * floor < math.inf:
        return math.nan
    return float(frobenius_norm(deviation)) / scale


class _MaxTracker:
    """Worst value and its tolerance per identity; a NaN, once seen, stays
    the worst."""

    def __init__(self):
        self._rows: dict[str, CheckRow] = {}

    def update(self, name: str, value: float, tolerance: float) -> None:
        worst = self._rows[name].max_rel_dev if name in self._rows else 0.0
        self._rows[name] = CheckRow(name, float(np.maximum(worst, value)), tolerance)

    def rows(self) -> list[CheckRow]:
        return list(self._rows.values())


def _checked_draws(draws: int) -> int:
    """``draws`` as an ``int``; raise ``TypeError`` naming it unless it is
    an integer, and ``ValueError`` unless it is at least 1."""
    try:
        draws = operator.index(draws)
    except TypeError:
        raise TypeError(f"draws must be an integer, got {draws!r}") from None
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    return draws


def check_closed_forms(cfg: OracleConfig, draws: int = 100) -> CheckReport:
    """Certify every closed-form commutator expression against the oracles.

    Runs ``draws`` seeded random-Hermitian trials at ``cfg.dim``/``cfg.dt`` and
    reports the worst relative deviation per identity.  Raises
    ``OverflowError`` for a ``cfg.dt`` whose fourth power, the scale of
    Omega_4, is not a float, and ``ZeroDivisionError`` for one whose
    ``dt**3 / 120``, the smallest nested scalar integral and a divisor of
    its row, is in magnitude below the smallest normal float (about
    2.2e-308, so ``|dt|`` below about 1.3875e-102), where its rounding is
    too coarse for the row's tolerance; both before any draw, naming ``dt``.
    A negative ``dt`` is a valid step.  Raises ``TypeError`` for a
    ``draws`` that is not an integer and ``ValueError`` for one below 1
    first, since the rows a suite of no draws reports check nothing.
    """
    draws = _checked_draws(draws)
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.dt
    try:
        dt**4
    except OverflowError as exc:
        raise OverflowError(f"dt={dt!r} is too large: dt**4, the scale of Omega_4, overflows the float range") from exc
    if abs(dt) ** 3 / 120.0 < sys.float_info.min:
        raise ZeroDivisionError(f"dt={dt!r} is too small: dt**3 / 120, the smallest nested scalar integral, is below the smallest normal float in magnitude")
    track = _MaxTracker()
    c_alt = -(5.0 + math.sqrt(21.0)) / 2.0

    def oracle_omega(a, n: int) -> Array:
        return oracle_Mn(a, n, 0.0, 1.0) / math.factorial(n)

    def certify(name: str, closed_form: Array, a, n: int) -> None:
        track.update(name, _rel_dev(as_matrix(closed_form), oracle_omega(a, n)), ORACLE_AGREEMENT_TOL)

    for _ in range(draws):
        h = [random_hermitian(rng, cfg.dim) for _ in range(7)]
        a0, aq1, at1, ah, at2, aq3, a1 = ((-1j * dt) * x for x in h)
        # the same draws as a builder takes them
        g0, gq1, gt1, gh, gt2, gq3, g1 = generators(h, dt)
        a_lin = interpolant([a0, a1], 0.0, 1.0)
        a_quad = interpolant([a0, ah, a1], 0.0, 1.0)
        a_cub = interpolant([a0, at1, at2, a1], 0.0, 1.0)
        a_quart = interpolant([a0, aq1, ah, aq3, a1], 0.0, 1.0)

        # single integral: Simpson over (0, 1/2, 1) and Boole over quarters
        certify("m1-simpson", omega1_simpson(g0, gh, g1), a_quad, 1)
        certify("m1-boole", omega1_boole(g0, gq1, gh, gq3, g1), a_quart, 1)

        # double integral: linear, quadratic (both printed forms) and cubic;
        # the paper's sum form of the quadratic one is used by no step scheme
        certify("m2-linear", omega2_linear(g0, g1), a_lin, 2)
        omega2 = oracle_omega(a_quad, 2)
        omega2_sum = (1.0 / 60.0) * (
            commutator(a1, a0) + 4.0 * commutator(ah, a0) + 4.0 * commutator(a1, ah)
        )
        omega2_single = as_matrix(omega2_quadratic(g0, gh, g1))
        track.update("m2-quadratic-sum", _rel_dev(omega2_sum, omega2), ORACLE_AGREEMENT_TOL)
        track.update("m2-quadratic-single", _rel_dev(omega2_single, omega2), ORACLE_AGREEMENT_TOL)
        track.update("m2-quadratic-forms-agree", _rel_dev(omega2_sum, omega2_single), PRINTED_FORMS_TOL)
        certify("m2-cubic", omega2_cubic(g0, gt1, gt2, g1), a_cub, 2)

        # triple integral: linear and quadratic
        certify("m3-linear", omega3_linear(g0, g1), a_lin, 3)
        certify("m3-quadratic", omega3_quadratic(g0, gh, g1), a_quad, 3)

        # quadruple integral: the single-tower form, both roots
        omega4 = oracle_omega(a_lin, 4)
        omega4_main = as_matrix(omega4_linear(g0, g1))
        omega4_alt = as_matrix(omega4_linear(g0, g1, root=c_alt))
        track.update("m4-linear", _rel_dev(omega4_main, omega4), ORACLE_AGREEMENT_TOL)
        track.update("m4-linear-alt-root", _rel_dev(omega4_alt, omega4), ORACLE_AGREEMENT_TOL)
        track.update("m4-roots-agree", _rel_dev(omega4_main, omega4_alt), OMEGA4_ROOTS_TOL)

        # constant interpolant: all commutator integrals vanish identically;
        # each is measured against its scale for the draw, ||a_const||_F**n,
        # a product, which reads inf where a float power would raise
        const = 0.5 * (a0 + a1)
        a_const = interpolant([const], 0.0, 1.0)
        const_norm = float(frobenius_norm(const))
        for n in (2, 3, 4):
            vanishing = _relative(oracle_Mn(a_const, n, 0.0, 1.0), math.prod([const_norm] * n))
            track.update(f"degree0-m{n}-vanishes", vanishing, ORACLE_AGREEMENT_TOL)

    # scalar triple integrals of the linear-interpolant decomposition
    scalars = [
        ("nested-scalar-1", lambda t1, t2, t3: (dt - t1) * (t2 - t3) / dt**2, dt**3 / 120.0),
        ("nested-scalar-2", lambda t1, t2, t3: t1 * (t2 - t3) / dt**2, dt**3 / 30.0),
        ("nested-scalar-3", lambda t1, t2, t3: (dt - t3) * (t2 - t1) / dt**2, -(dt**3) / 30.0),
        ("nested-scalar-4", lambda t1, t2, t3: t3 * (t2 - t1) / dt**2, -(dt**3) / 120.0),
    ]
    for name, g, expected in scalars:
        got = _nested3_scalar(g, 0.0, dt)
        track.update(name, abs(got - expected) / abs(expected), NESTED_SCALAR_TOL)
    return CheckReport(tuple(track.rows()))


def _random_smooth_sampler(rng: np.random.Generator, dim: int) -> Callable[[float], Array]:
    a0 = random_hermitian(rng, dim)
    a1 = random_hermitian(rng, dim)
    a2 = random_hermitian(rng, dim)
    w1, w2 = rng.uniform(0.5, 2.0, size=2)

    def sampler(t: float) -> Array:
        return a0 + a1 * np.sin(w1 * t) + a2 * np.cos(w2 * t)

    return sampler


def check_symmetry_suite(cfg: OracleConfig, draws: int = 200) -> CheckReport:
    """Unitarity and backward-adjoint checks over all methods, ``draws``
    each, plus the sign flip of every oracle integral under reversal of the
    step, over ``min(draws, 25)`` draws.  Raises ``TypeError`` or
    ``ValueError`` for a ``draws`` that is not an integer of at least 1, as
    :func:`check_closed_forms` does."""
    draws = _checked_draws(draws)
    rng = np.random.default_rng(cfg.seed)
    track = _MaxTracker()

    dim_cap = min(cfg.dim, 6)
    for method in ALL_METHODS:
        for _ in range(draws):
            dim = int(rng.integers(2, dim_cap + 1))
            sampler = _random_smooth_sampler(rng, dim)
            t_k = float(rng.uniform(-1.0, 1.0))
            dt = cfg.dt * float(rng.uniform(0.5, 1.0))
            forward = step(method, sampler, t_k, dt)
            backward = step(method, sampler, t_k + dt, -dt)
            track.update(f"unitarity-{method.value}", float(unitarity_defect(forward)), SYMMETRY_TOL)
            adjoint_defect = float(frobenius_norm(backward - dagger(forward)))
            track.update(f"backward-adjoint-{method.value}", adjoint_defect, SYMMETRY_TOL)

    # constant Hamiltonian: backward step exactly undoes the forward step
    const = random_hermitian(rng, cfg.dim)
    eye = np.eye(cfg.dim)
    for method in ALL_METHODS:
        fwd = step(method, lambda t: const, 0.0, cfg.dt)
        bwd = step(method, lambda t: const, cfg.dt, -cfg.dt)
        track.update("const-roundtrip", float(frobenius_norm(bwd @ fwd - eye)), CONST_ROUNDTRIP_TOL)

    # time-ordered integrals flip sign when the endpoints are exchanged
    for _ in range(min(draws, 25)):
        samples = [random_hermitian(rng, cfg.dim) for _ in range(4)]
        h = interpolant(samples, 0.0, cfg.dt)
        for n in range(1, 5):
            fwd = oracle_Mn(h, n, 0.0, cfg.dt)
            rev = oracle_Mn(h, n, cfg.dt, -cfg.dt)
            track.update(f"oracle-sign-flip-m{n}", _rel_dev(rev, -fwd), SYMMETRY_TOL)
    return CheckReport(tuple(track.rows()))
