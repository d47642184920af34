"""Step propagators that keep the exponent inside a single matrix exponential.

Each scheme combines Hamiltonian samples at fixed fractions of the step into
an anti-Hermitian exponent Theta and returns ``U = exp(Theta)``.  Truncating
inside the exponent is what preserves unitarity at every order; the schemes
differ in quadrature nodes and in how many nested commutators they keep.

``exponent`` broadcasts: samples may be single ``(d, d)`` matrices or stacks
``(n, d, d)`` sharing one scalar ``dt``, which is how the evolution driver
assembles a whole trajectory worth of exponents in one call.  ħ enters
once, as the scaled step ``tau = dt / ħ`` handed to every builder.

Samples are validated once, on entry to ``exponent``: complex, square,
finite, Hermitian to ``SAMPLE_HERMITICITY_TOL`` and all of one shape.  The
term functions and builders after that are plain arithmetic; their result
stays in the Lie algebra u(d), and ``step`` (like the evolution driver)
exponentiates it with ``expm_antihermitian``, which checks the exponent.

Every bracket here goes through :func:`commutator`, which forms one matrix
product instead of two.  Its precondition is that the operands are each
Hermitian or each anti-Hermitian, which the sample check and the brackets
themselves keep: in the Hermitian convention of the term functions a bracket
of two samples is anti-Hermitian, the next level Hermitian, and so on, while
``blanes6-gauss`` works on ``A = -iH`` and stays anti-Hermitian throughout.
For samples that are Hermitian only to ``SAMPLE_HERMITICITY_TOL``, the
kernel returns the exact (anti-)Hermitian part of the bracket, which
differs from ``ab - ba`` by the order of that defect.

Each Magnus term M1..M4 a scheme uses has one closed form here
(``m1_simpson`` ... ``m4_linear``); ``verify.check_closed_forms`` certifies
these same functions against the quadrature oracles, whose integrands use
the general two-product ``linalg.commutator``.  The sums of brackets are in
skew normal form (Blanes, Casas & Ros, BIT 40 (2000) 434): M2 of the cubic
interpolant takes 2 brackets, M3 of the quadratic one 6, so a ``me6``
exponent takes 11.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .linalg import (
    Array,
    DimensionMismatchError,
    PreconditionError,
    as_complex_square,
    dagger,
    expm_antihermitian,
    hermiticity_defect,
    relative_defect,
)

__all__ = [
    "MethodId",
    "ALL_METHODS",
    "StepContext",
    "MissingNodeError",
    "NonHermitianSampleError",
    "sample_nodes",
    "exponent",
    "step",
    "GAUSS2_LO",
    "GAUSS2_HI",
    "GAUSS3_LO",
    "GAUSS3_HI",
    "QUAD_COMMUTATOR_ROOT",
]

# Quadrature nodes as fractions of the step, at full double precision.
GAUSS2_LO = 0.5 - math.sqrt(3.0) / 6.0
GAUSS2_HI = 0.5 + math.sqrt(3.0) / 6.0
GAUSS3_LO = 0.5 - math.sqrt(15.0) / 10.0
GAUSS3_HI = 0.5 + math.sqrt(15.0) / 10.0
_THIRD = 1.0 / 3.0
_TWO_THIRDS = 2.0 / 3.0

# Root of the quadratic that collapses the quadruple integral of the linear
# interpolant into a single triple-commutator tower; the conjugate root
# -(5 + sqrt(21))/2 yields the same matrix.
QUAD_COMMUTATOR_ROOT = -(5.0 - math.sqrt(21.0)) / 2.0

# Relative Hermiticity defect above which a Hamiltonian sample is rejected.
SAMPLE_HERMITICITY_TOL = 1e-10


class MethodId(enum.Enum):
    """The nine step schemes, by their CLI names."""

    ME2 = "me2"
    ME3 = "me3"
    ME4_FULL = "me4-full"
    ME4_NC = "me4-nc"
    ME6 = "me6"
    BLANES4 = "blanes4"
    BLANES4_GAUSS = "blanes4-gauss"
    ISERLES4_GAUSS = "iserles4-gauss"
    BLANES6_GAUSS = "blanes6-gauss"

    @classmethod
    def from_name(cls, name: str) -> "MethodId":
        key = str(name).strip().lower()
        for method in cls:
            if method.value == key:
                return method
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown method {name!r}; valid methods: {valid}")


# Documented fixed order used by "--methods all" and the reports.
ALL_METHODS: tuple[MethodId, ...] = (
    MethodId.ME2,
    MethodId.ME3,
    MethodId.ME4_FULL,
    MethodId.ME4_NC,
    MethodId.ME6,
    MethodId.BLANES4,
    MethodId.BLANES4_GAUSS,
    MethodId.ISERLES4_GAUSS,
    MethodId.BLANES6_GAUSS,
)


@dataclass(frozen=True)
class StepContext:
    """Per-step numerical context: hbar."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


DEFAULT_CONTEXT = StepContext()


class MissingNodeError(ValueError):
    """A required Hamiltonian sample node was not supplied."""


class NonHermitianSampleError(PreconditionError):
    """A Hamiltonian sample fails the Hermiticity test."""

    def __init__(self, node: float, defect: float, tol: float):
        self.node = node
        self.defect = float(defect)
        super().__init__(
            f"Hamiltonian sample at node {node} is not Hermitian: "
            f"defect {self.defect:.3e} exceeds tolerance {tol:.3e}"
        )


_NODES: dict[MethodId, tuple[float, ...]] = {
    MethodId.ME2: (0.0, 1.0),
    MethodId.ME3: (0.0, 0.5, 1.0),
    MethodId.ME4_FULL: (0.0, 0.5, 1.0),
    MethodId.ME4_NC: (0.0, 0.5, 1.0),
    MethodId.ME6: (0.0, 0.25, _THIRD, 0.5, _TWO_THIRDS, 0.75, 1.0),
    MethodId.BLANES4: (0.0, 0.5, 1.0),
    MethodId.BLANES4_GAUSS: (GAUSS2_LO, GAUSS2_HI),
    MethodId.ISERLES4_GAUSS: (GAUSS2_LO, GAUSS2_HI),
    MethodId.BLANES6_GAUSS: (GAUSS3_LO, 0.5, GAUSS3_HI),
}


def sample_nodes(method: MethodId) -> tuple[float, ...]:
    """Fractions of the step at which the scheme samples the Hamiltonian."""
    return _NODES[method]


def _checked_samples(method: MethodId, samples: Mapping[float, Array]) -> dict[float, Array]:
    out: dict[float, Array] = {}
    for node in sample_nodes(method):
        if node not in samples:
            raise MissingNodeError(f"missing Hamiltonian sample at node {node!r} for {method.value}")
        h = as_complex_square(samples[node])
        ratio, defect = relative_defect(hermiticity_defect, h)
        if not ratio <= SAMPLE_HERMITICITY_TOL:
            raise NonHermitianSampleError(node, defect, SAMPLE_HERMITICITY_TOL)
        out[node] = h
    if len({h.shape for h in out.values()}) > 1:
        shapes = ", ".join(f"node {node}: {h.shape}" for node, h in out.items())
        raise DimensionMismatchError(f"Hamiltonian samples for {method.value} differ in shape ({shapes})")
    return out


def exponent(method: MethodId, samples: Mapping[float, Array], dt, ctx: StepContext = DEFAULT_CONTEXT) -> Array:
    """Anti-Hermitian exponent Theta with ``U = exp(Theta)`` for one step.

    ``samples`` maps node fractions (from :func:`sample_nodes`) to Hermitian
    matrices; values may be stacked as ``(n, d, d)``, all of one shape.
    """
    h = _checked_samples(method, samples)
    tau = float(dt) / ctx.hbar
    return _EXPONENT_BUILDERS[method](h, tau)


def commutator(a: Array, b: Array, hermitian: bool = False) -> Array:
    """``[a, b]`` from the one product ``ab``.

    Requires ``a† = s_a a`` and ``b† = s_b b`` with signs ``s_a, s_b = ±1``;
    then ``ba = s_a s_b (ab)†`` and ``[a, b] = ab - s_a s_b (ab)†``.
    Operands of one kind (both Hermitian or both anti-Hermitian) give an
    anti-Hermitian bracket, the default; ``hermitian=True`` states that they
    are of opposite kind, which makes the bracket Hermitian.  Either way the
    result is exactly (anti-)Hermitian.
    """
    p = a @ b
    if hermitian:
        p += dagger(p)
    else:
        p -= dagger(p)
    return p


# Closed forms of the Magnus terms M1..M4 of the Lagrange interpolant through
# equally spaced samples (h0 at the start of the step, h1 at its end, hh at the
# midpoint, hq*/ht* at quarters/thirds), for a step of length tau.  Brackets
# of two samples are anti-Hermitian, brackets of a sample with those Hermitian.

def m1_simpson(h0, hh, h1, tau):
    return (tau / 6.0) * (h0 + 4.0 * hh + h1)


def m1_boole(h0, hq1, hh, hq3, h1, tau):
    return (tau / 90.0) * (7.0 * h0 + 32.0 * hq1 + 12.0 * hh + 32.0 * hq3 + 7.0 * h1)


def m2_linear(h0, h1, tau):
    return (tau**2 / 6.0) * commutator(h1, h0)


def m2_quadratic(h0, hh, h1, tau):
    return (tau**2 / 30.0) * commutator(h0 + 4.0 * hh, h0 - h1)


def m2_cubic(h0, ht1, ht2, h1, tau):
    # skew normal form of 117([ht1,h0] + [h1,ht2]) + 47[h1,h0] + 144([h1,ht1]
    # + [ht2,h0]) + 729[ht2,ht1]: the coefficient matrix has rank 4
    out = commutator(
        ht1 + (16.0 / 13.0) * ht2 + (47.0 / 117.0) * h1, 117.0 * h0 - 729.0 * ht2 - 144.0 * h1
    )
    tail = commutator(h1, ht2)
    tail *= 3024.0 / 13.0
    out += tail
    out *= tau**2 / 3360.0
    return out


def m3_linear(h0, h1, tau):
    return (tau**3 / 40.0) * commutator(h1 - h0, commutator(h1, h0), hermitian=True)


def m3_quadratic(h0, hh, h1, tau):
    # the ten brackets of the printed form regrouped over the three inner
    # brackets [hh,h0], [hh,h1] and [h1,h0], accumulated one at a time
    out = commutator(64.0 * (hh + h1) - 44.0 * h0, commutator(hh, h0), hermitian=True)
    out += commutator(64.0 * (hh + h0) - 44.0 * h1, commutator(hh, h1), hermitian=True)
    out += commutator(9.0 * (h1 - h0), commutator(h1, h0), hermitian=True)
    out *= tau**3 / 2520.0
    return out


def m4_linear(h0, h1, tau, root=QUAD_COMMUTATOR_ROOT):
    return (tau**4 / 210.0) * commutator(
        (1.0 / root) * h0 - h1, commutator(h1 - root * h0, commutator(h1, h0), hermitian=True)
    )


# Each builder maps the checked samples and tau = dt / ħ to
# Theta = -i M1 - M2/2 + i M3/6 + M4/24 (or the scheme's own regrouping).

def _exponent_me2(h, tau):
    return (-0.5j * tau) * (h[0.0] + h[1.0])


def _exponent_me3(h, tau):
    h0, hh, h1 = h[0.0], h[0.5], h[1.0]
    return -1j * m1_simpson(h0, hh, h1, tau) - m2_linear(h0, h1, tau) / 2.0


def _exponent_me4_nc(h, tau):
    h0, hh, h1 = h[0.0], h[0.5], h[1.0]
    return -1j * m1_simpson(h0, hh, h1, tau) - m2_quadratic(h0, hh, h1, tau) / 2.0


def _exponent_me4_full(h, tau):
    return _exponent_me4_nc(h, tau) + (1j / 6.0) * m3_linear(h[0.0], h[1.0], tau)


def _exponent_me6(h, tau):
    h0, hq1, ht1, hh, ht2, hq3, h1 = (
        h[0.0], h[0.25], h[_THIRD], h[0.5], h[_TWO_THIRDS], h[0.75], h[1.0],
    )
    return (
        -1j * m1_boole(h0, hq1, hh, hq3, h1, tau)
        - m2_cubic(h0, ht1, ht2, h1, tau) / 2.0
        + (1j / 6.0) * m3_quadratic(h0, hh, h1, tau)
        + m4_linear(h0, h1, tau) / 24.0
    )


def _exponent_blanes4(h, tau):
    h0, hh, h1 = h[0.0], h[0.5], h[1.0]
    k = (tau**2 / 72.0) * commutator(h1 - h0, h0 + 4.0 * hh + h1)
    return -1j * m1_simpson(h0, hh, h1, tau) - k


def _exponent_blanes4_gauss(h, tau):
    g1, g2 = h[GAUSS2_LO], h[GAUSS2_HI]
    s = (tau / 2.0) * (g1 + g2)
    k = (math.sqrt(3.0) / 12.0) * tau**2 * commutator(g2, g1)
    return -1j * s - k


def _exponent_iserles4_gauss(h, tau):
    g1, g2 = h[GAUSS2_LO], h[GAUSS2_HI]
    triple = (tau**3 / 80.0) * commutator(g2 - g1, commutator(g2, g1), hermitian=True)
    return _exponent_blanes4_gauss(h, tau) + 1j * triple


def _exponent_blanes6_gauss(h, tau):
    # Built from the generator A = -i H, so the term mixing 3- and 4-fold
    # commutators carries the right power of tau in each part, and every
    # bracket has anti-Hermitian operands.
    a1 = -1j * h[GAUSS3_LO]
    a2 = -1j * h[0.5]
    a3 = -1j * h[GAUSS3_HI]
    b0 = (5.0 / 18.0) * (a1 + a3) + (4.0 / 9.0) * a2
    b1 = (math.sqrt(15.0) / 36.0) * (a3 - a1)
    b2 = (1.0 / 24.0) * (a1 + a3)
    m1 = tau * b0
    m2 = tau**2 * commutator(b1, 3.0 * b0 - 12.0 * b2)
    m34 = (3.0 / 10.0) * tau * commutator(b1, m2) + tau**2 * commutator(
        b0, commutator(b0, (tau / 2.0) * b2 - m2 / 120.0)
    )
    return m1 + 0.5 * m2 + m34


_EXPONENT_BUILDERS: dict[MethodId, Callable] = {
    MethodId.ME2: _exponent_me2,
    MethodId.ME3: _exponent_me3,
    MethodId.ME4_FULL: _exponent_me4_full,
    MethodId.ME4_NC: _exponent_me4_nc,
    MethodId.ME6: _exponent_me6,
    MethodId.BLANES4: _exponent_blanes4,
    MethodId.BLANES4_GAUSS: _exponent_blanes4_gauss,
    MethodId.ISERLES4_GAUSS: _exponent_iserles4_gauss,
    MethodId.BLANES6_GAUSS: _exponent_blanes6_gauss,
}


def step(
    method: MethodId,
    sampler: Callable[[float], Array],
    t_k: float,
    dt: float,
    ctx: StepContext = DEFAULT_CONTEXT,
) -> Array:
    """Unitary propagator over ``[t_k, t_k + dt]``; negative ``dt`` steps backward."""
    if dt == 0.0:
        raise PreconditionError("step size dt must be nonzero")
    samples = {node: sampler(t_k + node * dt) for node in sample_nodes(method)}
    theta = exponent(method, samples, dt, ctx)
    return expm_antihermitian(theta)
