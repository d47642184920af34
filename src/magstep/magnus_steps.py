"""Step propagators that keep the exponent inside a single matrix exponential.

Each scheme combines Hamiltonian samples at fixed fractions of the step into
an anti-Hermitian exponent Theta and returns ``U = exp(Theta)``.  Truncating
inside the exponent is what preserves unitarity at every order; the schemes
differ in quadrature nodes and in how many nested commutators they keep.

A scheme is one ``_SCHEMES`` entry: its nodes, in ascending order, and the
builder that takes the generator at each node as one positional argument,
in that order.  :func:`sample_nodes`, the sample check, :func:`_theta` and
the evolution module read that table and nothing else, and ``ALL_METHODS``
is the declaration order of :class:`MethodId`.  Every entry point that
takes a method, :func:`sample_nodes` included, raises ``TypeError`` naming
the argument and listing the valid methods for anything that is not a
:class:`MethodId` (``_checked_method``), before anything is sampled, so
the table is read only with a method it holds.

``exponent`` and :func:`_theta` broadcast: samples may be single ``(d, d)``
matrices or stacks ``(n, d, d)`` sharing one scalar ``dt`` or taking a
per-step ``(n,)`` array of them, which is how the evolution driver assembles
a chunk's worth of exponents, steps of several grids among them, in one
call.

ħ is a plain number: the ``hbar`` keyword (default 1) of ``exponent`` and
``step``, and of ``evolution.propagate`` and ``convergence_study``, which
hand it on unchanged.  :func:`_theta` is the one place it is read; every
entry point raises ``ValueError`` for an ``hbar`` that is not positive and
finite (``_checked_hbar``) before any sample is looked at.

``exponent`` and ``step`` take Hamiltonian samples as matrices, real ones
included, and validate them once, in :func:`_checked_samples`:
each must be complex and square, and one ``linalg.checked_square`` call
over the stack of every node's matrices, single or stacked, rejects a NaN
or Inf entry and measures each matrix's Hermiticity defect against
``SAMPLE_HERMITICITY_TOL``; then the samples must be all of one shape.  An
error names the first node at fault, as a check node by node would.  The
evolution driver checks a callable sampler's samples by the same function,
:func:`_hermitian`, once each, as it samples them, and a
``HamiltonianModel``'s not at all, since they are Hermitian by
construction.  :func:`_theta` builds Theta from the checked
samples: each is scaled, once, to the generator ``A = -iH dt/ħ`` of the
step taken as the unit interval; that is the only place ``dt`` and ħ
enter.  The term functions and builders after that are plain arithmetic on
``A`` (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, Sec. 2-3):
each Magnus term Omega_n is a real combination of nested brackets of
anti-Hermitian matrices, so the exponent stays in the Lie algebra u(d).  A
scaling or a term that overflows the float range raises
``PreconditionError``.
``exponent`` returns Theta as a matrix.  ``step`` is its checks and its
sampling around :func:`_step_stack`, the stacked pipeline that
``verify.check_symmetry_suite`` runs on its draws' stacks; that pipeline,
like the evolution driver, hands the Theta it built to ``linalg._expm``
without checking it again: it is the library's own output, not an input.
Both entry points also raise ``ValueError`` for a ``dt`` with a NaN or
infinite entry, after ħ and before any sample (``_checked_dt``); ``step``
then does the same for a non-finite ``t_k`` or step end ``t_k + dt``.

At d = 2 the same arithmetic runs on real su(2) coordinates (the u(2) =
R + su(2) = R + R^3 reduction): a generator ``A = -i (c I + x sx + y sy + z
sz)`` is the component-major array ``(c, x, y, z)``, of shape ``(4,)`` or
``(4, n)``.  :func:`generators`, which turns the samples into the builders'
generators, is the only place that representation is chosen: it converts a
checked 2x2 matrix sample with ``linalg.su2_coordinates`` and takes the
coordinates a two-level ``HamiltonianModel`` gives the driver as they are,
to the same floats.  :func:`commutator`, :func:`as_matrix`, which gives
``exponent`` the matrix Theta, and ``linalg._expm``, which takes either,
follow the generators' dtype.  ``linalg._expm`` returns a two-level
propagator in Cayley-Klein form, and ``step`` hands it back as its 2x2
matrix through ``linalg._propagator_matrix``, the one function that forms
it, so ``step`` has the bits of a one-step grid's final propagator.

Every bracket here goes through :func:`commutator`.  On coordinates it is
the cross product ``(0, 2 a x b)``.  On matrices it forms one product
instead of two: for anti-Hermitian operands ``ba = (ab)†``, and that
product is numpy's ``@``.  The sample check and the brackets themselves
keep that precondition.  For samples that are Hermitian only to
``SAMPLE_HERMITICITY_TOL``, the kernel returns the exact anti-Hermitian
part of the bracket, which differs from ``ab - ba`` by the order of that
defect; the coordinates are those of the sample's Hermitian part, so the
cross product is that same anti-Hermitian part.

Each Magnus term Omega_1..Omega_4 a scheme uses has one closed form here
(``omega1_simpson`` ... ``omega4_linear``); ``verify.check_closed_forms``
certifies these same functions against the quadrature oracles, whose
integrands use the general two-product ``linalg.commutator``.  The sums of
brackets are in skew normal form (Blanes, Casas & Ros, BIT 40 (2000) 434):
Omega_2 of the cubic interpolant takes 2 brackets, Omega_3 of the quadratic
one 6, so a ``me6`` exponent takes 11.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    Array,
    DimensionMismatchError,
    PreconditionError,
    _expm,
    _propagator_matrix,
    _square,
    checked_square,
    dagger,
    su2_coordinates,
    su2_matrix,
)

__all__ = [
    "MethodId",
    "ALL_METHODS",
    "MissingNodeError",
    "NonHermitianSampleError",
    "sample_nodes",
    "generators",
    "as_matrix",
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


# Documented fixed order used by "--methods all" and the reports: the
# declaration order of MethodId.
ALL_METHODS: tuple[MethodId, ...] = tuple(MethodId)


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


def _checked_method(method, name: str = "method") -> MethodId:
    """``method``, once it is known to be a :class:`MethodId`: ``TypeError``
    naming the argument ``name`` and listing the valid methods otherwise, a
    method's name (``"me2"``) included, which ``MethodId.from_name`` takes."""
    if not isinstance(method, MethodId):
        valid = ", ".join(m.value for m in MethodId)
        raise TypeError(f"{name} must be a MethodId, got {method!r}; valid methods: {valid} (MethodId.from_name takes these names)")
    return method


def sample_nodes(method: MethodId) -> tuple[float, ...]:
    """Fractions of the step at which the scheme samples the Hamiltonian;
    ``TypeError`` unless ``method`` is a :class:`MethodId`."""
    return _SCHEMES[_checked_method(method)][0]


def _checked_hbar(hbar: float) -> None:
    """Raise ``ValueError`` unless ``hbar`` is positive and finite."""
    if not (hbar > 0 and math.isfinite(hbar)):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def _checked_dt(dt) -> None:
    """Raise ``ValueError`` naming ``dt`` unless each of its entries, a
    scalar's or a per-step array's, is finite."""
    if not np.logical_and.reduce(np.isfinite(dt), axis=None):
        k = int(np.argmax(~np.isfinite(np.ravel(dt))))
        raise ValueError(f"dt must be finite, got {np.ravel(dt)[k]}" + (f" at step {k}" if np.ndim(dt) else ""))


def _checked_dt_shape(dt, samples_shape: tuple[int, ...] | None) -> None:
    """Raise ``ValueError`` naming ``dt`` and both shapes unless ``dt`` is a
    scalar or, for samples stacked as ``(n, d, d)``, an ``(n,)`` array: one
    step per matrix.  ``samples_shape`` is None for ``step``'s one step,
    which takes a scalar only."""
    steps = samples_shape[:1] if samples_shape is not None and len(samples_shape) == 3 else ()
    if np.shape(dt) not in ((), steps):
        want = f"a scalar or of shape {steps}" if steps else "a scalar"
        of = "one step" if samples_shape is None else f"samples of shape {samples_shape}"
        raise ValueError(f"dt must be {want} for {of}, got dt of shape {np.shape(dt)}")


def _checked_samples(method: MethodId, samples: Mapping[float, Array]) -> list[Array]:
    """The samples at ``method``'s nodes, in node order, each a C-ordered
    complex (stack of) square matrix(es), as ``linalg.checked_square``
    returns it, with the values given.  Raises
    :class:`MissingNodeError` for a node ``samples`` lacks,
    :class:`NonHermitianSampleError` naming the first node with a matrix
    that is not Hermitian to ``SAMPLE_HERMITICITY_TOL``, and
    :class:`DimensionMismatchError` unless all are of one shape.

    Every matrix of every node is checked by one ``linalg.checked_square``
    call over their stack (:func:`_hermitian`), which measures each matrix
    on its own; samples that differ in dimension cannot be stacked, fail in
    any case and take one call per node.  A node's own fault, a missing,
    non-numeric or non-square sample, is raised once the nodes before it
    pass, and a mismatch of shapes last, so each input raises what a check
    node by node, in node order, raises, but for one order: a NaN or Inf
    entry in any node of a call is raised before a Hermiticity fault."""
    nodes = _SCHEMES[method][0]
    arrays = []
    try:
        for node in nodes:
            if node not in samples:
                raise MissingNodeError(f"missing Hamiltonian sample at node {node!r} for {method.value}")
            arrays.append(_square(samples[node]))
    finally:
        # the samples read before a node's own fault are checked all the
        # same, and a fault among them is raised in its place
        for i, part in enumerate([arrays] if len({h.shape[-1] for h in arrays}) == 1 else [[h] for h in arrays]):
            flat = [h.reshape(math.prod(h.shape[:-2]), *h.shape[-2:]) for h in part]
            ends = np.add.accumulate([len(f) for f in flat])
            _hermitian(np.concatenate(flat), [(node, end - len(f), end) for node, f, end in zip(nodes[i:], flat, ends)])
    if len({h.shape for h in arrays}) > 1:
        shapes = ", ".join(f"node {node}: {h.shape}" for node, h in zip(nodes, arrays))
        raise DimensionMismatchError(f"Hamiltonian samples for {method.value} differ in shape ({shapes})")
    return arrays


def _hermitian(stack: Array, spans: list[tuple[float, int, int]]) -> Array:
    """``stack``, an ``(n, d, d)`` stack of samples, as one
    ``linalg.checked_square`` call returns it, once every matrix passes the
    Hermiticity test: :class:`NonHermitianSampleError` otherwise, naming
    the node of the first ``(node, a, b)`` of ``spans`` whose matrices ``a
    ... b - 1`` of the stack include one that fails, with their largest
    defect.  The one sample check of ``exponent``, ``step`` and the
    evolution driver."""
    stack, ratio, defect = checked_square(stack, 1)
    passed = ratio <= SAMPLE_HERMITICITY_TOL
    # the spans are searched only once a matrix has failed
    for node, a, b in () if np.logical_and.reduce(passed) else spans:
        if not np.logical_and.reduce(passed[a:b]):
            raise NonHermitianSampleError(node, np.maximum.reduce(defect[a:b]), SAMPLE_HERMITICITY_TOL)
    return stack


def generators(samples: list[Array], tau) -> list[Array]:
    """Replace each Hermitian sample ``H`` in the list ``samples`` by the
    generator ``A = -i tau H`` a builder takes, and return the list.

    Each sample is a complex matrix (stack), as ``linalg.checked_square``
    returns it, or a two-level model's float64 su(2) coordinates; nothing
    else reaches this function, so the dtype tells the two apart.  ``tau``
    is a scalar or, for stacked samples, a per-step ``(n,)`` array.
    At d = 2 a generator is the real, component-major ``(4, ...)`` array
    ``(c, x, y, z)`` of ``A = -i (c I + x sx + y sy + z sz)``, a per-step
    ``tau`` broadcasting along the last axis: ``tau`` times
    ``linalg.su2_coordinates`` of a complex 2x2 sample, scaled in place, or
    ``tau`` times a float64 sample, which is su(2) coordinates already (a
    two-level model's, from the evolution driver), in a new array, since it
    may view the same memory as another node's.  Otherwise it is the
    complex matrix, in a new array, a per-step ``tau`` broadcasting as ``(n,
    1, 1)``.  This is the one place the representation is chosen.  Each
    sample is replaced as its generator is made, so no unscaled copy
    outlives its scaled one.
    """
    per_step = np.ndim(tau) != 0
    for i in range(len(samples)):
        if samples[i].dtype == np.float64:
            samples[i] = samples[i] * tau
        elif samples[i].shape[-2:] == (2, 2):
            samples[i] = su2_coordinates(samples[i])
            samples[i] *= tau
        else:
            samples[i] = (-1j * (tau[:, None, None] if per_step else tau)) * samples[i]
    return samples


def as_matrix(a: Array) -> Array:
    """The matrix of a generator, or of a sum of Magnus terms of generators,
    in either representation: su(2) coordinates become their 2x2 matrix,
    and a matrix is returned as it is.  ``exponent`` applies it to Theta; the
    certification, to every closed form."""
    return su2_matrix(a) if a.dtype == np.float64 else a


def _theta(method: MethodId, samples: list[Array], dt, hbar: float) -> Array:
    """Theta of ``method``, in the generators' representation, from
    ``samples``: a list, in node order, of checked Hermitian matrices
    (stacks) or of a two-level model's su(2) coordinates, all of one shape.

    Each sample in the list is replaced by its generator (:func:`generators`,
    ``tau = dt / ħ``), so no unscaled copy outlives its scaled one, and the
    builder sums the Magnus terms of those.  ``dt`` is a scalar or a
    per-step ``(n,)`` array: step ``k`` then gets exactly the exponent a
    call with ``dt[k]`` alone would give it.  Raises
    :class:`PreconditionError` naming ``dt/hbar``, at the ``dt`` of largest
    magnitude, if the scaling or a term overflows the float range.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            tau = np.asarray(dt, dtype=np.float64)[()] / hbar
            return _SCHEMES[method][1](*generators(samples, tau))
    except FloatingPointError as exc:
        steps = np.ravel(dt)
        raise PreconditionError(
            f"the {method.value} exponent overflows the float range at "
            f"dt/hbar = {float(steps[np.argmax(np.abs(steps))]):.3e}/{hbar:.3e}"
        ) from exc


def exponent(method: MethodId, samples: Mapping[float, Array], dt, hbar: float = 1.0) -> Array:
    """Anti-Hermitian exponent Theta with ``U = exp(Theta)`` for one step.

    ``samples`` maps node fractions (from :func:`sample_nodes`) to Hermitian
    matrices, real or complex, stacked as ``(n, d, d)`` or not, all of one
    shape.  No sample is written to, so two nodes may share memory.  ``dt``
    is a scalar or, for stacks, a per-step ``(n,)`` array.  Raises
    ``TypeError`` unless ``method`` is a :class:`MethodId`, then
    ``ValueError`` unless ``hbar`` is positive and finite, then unless every
    ``dt`` is finite, before any sample is checked; then checks the samples
    (:func:`_checked_samples`), then ``dt``'s shape against theirs
    (:func:`_checked_dt_shape`), and returns the complex matrix (stack) of
    :func:`_theta`.
    """
    _checked_method(method)
    _checked_hbar(hbar)
    _checked_dt(dt)
    checked = _checked_samples(method, samples)
    _checked_dt_shape(dt, checked[0].shape)
    return as_matrix(_theta(method, checked, dt, hbar))


def commutator(a: Array, b: Array) -> Array:
    """``[a, b]`` of two anti-Hermitian operands, in their representation.

    Matrices: with ``a† = -a`` and ``b† = -b``, ``ba = (ab)†``, so ``[a, b]
    = ab - (ab)†`` from the one product ``ab``, which is exactly
    anti-Hermitian.  Real su(2) coordinates ``(c, x, y, z)`` of ``-i (c I +
    x sx + y sy + z sz)``: ``[sj, sk] = 2i eps_jkl sl`` makes the bracket
    ``(0, 2 a x b)``, the identity parts dropping out.
    """
    if a.dtype == np.float64:
        out = np.empty(np.broadcast(a, b).shape)
        out[0] = 0.0
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            row = out[i, ...]
            np.multiply(a[j], b[k], out=row)
            row -= a[k] * b[j]
        out[1:] *= 2.0
        return out
    p = a @ b
    p -= dagger(p)
    return p


# Closed forms of the Magnus terms Omega_1..Omega_4 of the Lagrange
# interpolant through equally spaced generator samples on the unit step (a0
# at its start, a1 at its end, ah at the midpoint, aq*/at* at quarters/
# thirds).  Each is a real combination of brackets of anti-Hermitian
# matrices, so it is anti-Hermitian too.

def omega1_simpson(a0, ah, a1):
    return (1.0 / 6.0) * (a0 + 4.0 * ah + a1)


def omega1_boole(a0, aq1, ah, aq3, a1):
    return (1.0 / 90.0) * (7.0 * a0 + 32.0 * aq1 + 12.0 * ah + 32.0 * aq3 + 7.0 * a1)


def omega2_linear(a0, a1):
    return (1.0 / 12.0) * commutator(a1, a0)


def omega2_quadratic(a0, ah, a1):
    return (1.0 / 60.0) * commutator(a0 + 4.0 * ah, a0 - a1)


def omega2_cubic(a0, at1, at2, a1):
    # skew normal form of 117([at1,a0] + [a1,at2]) + 47[a1,a0] + 144([a1,at1]
    # + [at2,a0]) + 729[at2,at1]: the coefficient matrix has rank 4
    out = commutator(
        at1 + (16.0 / 13.0) * at2 + (47.0 / 117.0) * a1, 117.0 * a0 - 729.0 * at2 - 144.0 * a1
    )
    tail = commutator(a1, at2)
    tail *= 3024.0 / 13.0
    out += tail
    out *= 1.0 / 6720.0
    return out


def omega3_linear(a0, a1):
    return (1.0 / 240.0) * commutator(a1 - a0, commutator(a1, a0))


def omega3_quadratic(a0, ah, a1):
    # the ten brackets of the printed form regrouped over the three inner
    # brackets [ah,a0], [ah,a1] and [a1,a0], accumulated one at a time
    out = commutator(64.0 * (ah + a1) - 44.0 * a0, commutator(ah, a0))
    out += commutator(64.0 * (ah + a0) - 44.0 * a1, commutator(ah, a1))
    out += commutator(9.0 * (a1 - a0), commutator(a1, a0))
    out *= 1.0 / 15120.0
    return out


def omega4_linear(a0, a1, root=QUAD_COMMUTATOR_ROOT):
    # the inner brackets before the outer operand, so its temporaries do
    # not coexist with theirs
    inner = commutator(a1 - root * a0, commutator(a1, a0))
    return (1.0 / 5040.0) * commutator((1.0 / root) * a0 - a1, inner)


# Each builder takes the generator samples positionally, in its scheme's node
# order, and returns Theta = Omega_1 + Omega_2 (+ Omega_3 + Omega_4), or the
# scheme's own regrouping.  The builders with brackets form them before the
# bracket-free sums, so that no sum's temporaries coexist with a bracket's,
# and add the terms in place from left to right, so Theta has the bits of
# the written-out sum Omega_1 + Omega_2 + ...

def _exponent_me2(a0, a1):
    return 0.5 * (a0 + a1)


def _exponent_me3(a0, ah, a1):
    return omega1_simpson(a0, ah, a1) + omega2_linear(a0, a1)


def _exponent_me4_nc(a0, ah, a1):
    tail = omega2_quadratic(a0, ah, a1)
    out = omega1_simpson(a0, ah, a1)
    out += tail
    return out


def _exponent_me4_full(a0, ah, a1):
    out = _exponent_me4_nc(a0, ah, a1)
    out += omega3_linear(a0, a1)
    return out


def _exponent_me6(a0, aq1, at1, ah, at2, aq3, a1):
    # ((Omega_1 + Omega_2) + Omega_3) + Omega_4: Omega_3 and Omega_2 are formed
    # before the bracket-free Omega_1, and Omega_4 once those three are
    # summed, so that at most one term is held while a bracket is formed
    omega3 = omega3_quadratic(a0, ah, a1)
    omega2 = omega2_cubic(a0, at1, at2, a1)
    out = omega1_boole(a0, aq1, ah, aq3, a1)
    out += omega2
    out += omega3
    del omega2, omega3
    out += omega4_linear(a0, a1)
    return out


def _exponent_blanes4(a0, ah, a1):
    tail = commutator(a1 - a0, a0 + 4.0 * ah + a1)
    tail *= 1.0 / 72.0
    out = omega1_simpson(a0, ah, a1)
    out += tail
    return out


def _exponent_blanes4_gauss(g1, g2):
    tail = commutator(g2, g1)
    tail *= math.sqrt(3.0) / 12.0
    out = 0.5 * (g1 + g2)
    out += tail
    return out


def _exponent_iserles4_gauss(g1, g2):
    # blanes4-gauss plus a correction whose inner bracket is its [g2, g1]
    c = commutator(g2, g1)
    tail = commutator(g2 - g1, c)
    tail *= 1.0 / 80.0
    c *= math.sqrt(3.0) / 12.0
    out = 0.5 * (g1 + g2)
    out += c
    out += tail
    return out


def _exponent_blanes6_gauss(a1, a2, a3):
    # moments b0, b1, b2 of the generator about the midpoint, from the
    # three Gauss samples a1, a2, a3; each temporary is scaled and summed in
    # place and dropped once spent, in the operand order of
    # b0 + m2 / 2 + 3/10 [b1, m2] + [b0, [b0, b2 / 2 - m2 / 120]]
    b2 = a1 + a3
    b0 = (5.0 / 18.0) * b2
    b0 += (4.0 / 9.0) * a2
    b1 = a3 - a1
    b1 *= math.sqrt(15.0) / 36.0
    b2 *= 1.0 / 24.0
    m2 = 3.0 * b0
    m2 -= 12.0 * b2
    m2 = commutator(b1, m2)
    m34 = commutator(b1, m2)
    del b1
    m34 *= 3.0 / 10.0
    b2 *= 0.5
    b2 -= m2 / 120.0
    inner = commutator(b0, b2)
    del b2
    m34 += commutator(b0, inner)
    del inner
    m2 *= 0.5
    m2 += b0
    m2 += m34
    return m2


# Each scheme, once: the step fractions it samples H at, in ascending order,
# and the builder that takes the generators at those nodes.
_SCHEMES: dict[MethodId, tuple[tuple[float, ...], Callable[..., Array]]] = {
    MethodId.ME2: ((0.0, 1.0), _exponent_me2),
    MethodId.ME3: ((0.0, 0.5, 1.0), _exponent_me3),
    MethodId.ME4_FULL: ((0.0, 0.5, 1.0), _exponent_me4_full),
    MethodId.ME4_NC: ((0.0, 0.5, 1.0), _exponent_me4_nc),
    MethodId.ME6: ((0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0), _exponent_me6),
    MethodId.BLANES4: ((0.0, 0.5, 1.0), _exponent_blanes4),
    MethodId.BLANES4_GAUSS: ((GAUSS2_LO, GAUSS2_HI), _exponent_blanes4_gauss),
    MethodId.ISERLES4_GAUSS: ((GAUSS2_LO, GAUSS2_HI), _exponent_iserles4_gauss),
    MethodId.BLANES6_GAUSS: ((GAUSS3_LO, 0.5, GAUSS3_HI), _exponent_blanes6_gauss),
}


def step(
    method: MethodId,
    sampler: Callable[[float], Array],
    t_k: float,
    dt: float,
    hbar: float = 1.0,
) -> Array:
    """Unitary propagator over ``[t_k, t_k + dt]``; negative ``dt`` steps backward.

    Raises ``TypeError`` unless ``method`` is a :class:`MethodId`.  ``dt``
    is a scalar: an array is a ``ValueError`` naming its shape
    (:func:`_checked_dt_shape`).  Then raises :class:`PreconditionError` for
    ``dt = 0`` and ``ValueError`` unless ``hbar`` is positive and finite, then
    unless ``dt`` is finite, then unless ``t_k`` and the step's end ``t_k +
    dt`` are, before the sampler is called.  Those checks and the sampling
    are all ``step`` adds to :func:`_step_stack`, which checks the sampler's
    matrices as ``exponent`` checks them, exponentiates Theta by
    ``linalg._expm``, as the evolution driver does, and rebuilds a
    two-level result from its Cayley-Klein form by
    ``linalg._propagator_matrix``, as the driver's final propagators are."""
    _checked_method(method)
    _checked_dt_shape(dt, None)
    if dt == 0.0:
        raise PreconditionError("step size dt must be nonzero")
    _checked_hbar(hbar)
    _checked_dt(dt)
    if not (math.isfinite(t_k) and math.isfinite(float(t_k) + float(dt))):
        raise ValueError(f"t_k and t_k + dt must be finite, got t_k={t_k!r}, dt={dt!r}")
    return _step_stack(method, {node: sampler(t_k + node * dt) for node in _SCHEMES[method][0]}, dt, hbar)


def _step_stack(method: MethodId, samples: Mapping[float, Array], dt, hbar: float) -> Array:
    """The propagator (stack) of the steps ``dt`` from ``samples``, a mapping
    of ``method``'s nodes to single matrices or ``(n, d, d)`` stacks, with
    a scalar or per-step ``(n,)`` ``dt``: the samples checked by
    :func:`_checked_samples`, Theta by :func:`_theta`, its exponential by
    ``linalg._expm`` and a two-level result's matrix by
    ``linalg._propagator_matrix``.  Nothing else is checked.  :func:`step`
    runs it after its own checks and sampling, and
    ``verify.check_symmetry_suite`` on stacks of its draws; each step of a
    stack gets the bits it gets alone."""
    return _propagator_matrix(_expm(_theta(method, _checked_samples(method, samples), dt, hbar)))
