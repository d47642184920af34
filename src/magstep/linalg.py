"""Dense complex matrix kernels: commutators, norms, and exactly unitary exponentials.

All functions accept a single ``(d, d)`` matrix or a stack ``(..., d, d)``;
norms return a float for a single matrix and an array for a stack.  The
exponential of an anti-Hermitian matrix is unitary to rounding at every
magnitude.  :func:`_expm` is the one place its kernel is picked: su(2)
coordinates take a closed form, and every matrix, single or in a stack,
one of six kernels by one tier dispatch (the cuts' ``searchsorted`` of
its 1-norm).  Up to ``TAYLOR_NORM_CUT``, about 1.1025, it is a
Taylor polynomial, of the lowest degree of ``TAYLOR_DEGREES`` whose
remainder at that norm is below half a unit roundoff (Higham, SIAM J.
Matrix Anal. Appl. 26 (2005) 1179; Al-Mohy and Higham, ibid. 31 (2009)
970), so the polynomial is the exponential, and unitary, to rounding:

    degree             6       9       12      16      18
    1-norm up to       0.0161  0.1071  0.3178  0.7917  1.1025
    batched products   3       4       5       6       7

Paterson-Stockmeyer (SIAM J. Comput. 2 (1973) 60) evaluates each.  Above
the top cut it is the eigendecomposition of the Hermitian matrix ``i *
theta``, unitary whatever the size of the exponent.

Two-level systems (d = 2) never form a matrix on the step path, because
numpy's batched ``@`` and ``eigh`` spend nearly all their time on
per-matrix overhead at that size.  :func:`expm_antihermitian` writes the
exponent in the Pauli basis, whose su(2) exponential :func:`_expm` takes
in closed form, and :func:`_expm` returns a propagator in Cayley-Klein
form, ``U = e^{-i phi} [[alpha, -conj(beta)], [beta, conj(alpha)]]``, as a
float64 row (re alpha - 1, im alpha, re beta, im beta, phi).  The evolution
driver's product tree multiplies these rows (:func:`_product`, the angles
adding), starts from their identity (:func:`_identity`), and reads
populations and unitarity defects off them (:func:`_observables`); each of
the three takes complex matrices at any d as well, told apart by dtype.
:func:`_propagator_matrix` is the one place a row becomes its 2x2 matrix:
``step``'s and ``expm_antihermitian``'s results, a trajectory's final
propagator and a convergence study's finals.  :func:`commutator`, the
general ``ab - ba`` of the certification oracles, forms both products as
sums of broadcast elementwise products up to d = 4, where that overhead
still outweighs a small complex product, and uses ``@`` above; every other
product of matrices is numpy's ``@``.  The step builders work on su(2)
coordinates at d = 2: :func:`su2_coordinates` converts a checked 2x2
sample and :func:`su2_matrix` turns coordinates back into a matrix.

Only two functions validate.  :func:`checked_square` is the one boundary
check, and the one measure of a Hermiticity or anti-Hermiticity defect: it
coerces a (stack of) square matrix(es) to complex128, rejects a NaN or Inf
entry, and measures each matrix's ``||a -+ a†||_F`` relative to its norm,
scaling a matrix with huge entries down first, by its own power of two, so
that a finite matrix can neither overflow its own test nor have its defect
read 0 beside a huge neighbour.  Callers apply it once at their input
boundary, and take the largest result or the first failing matrix.
:func:`expm_antihermitian` takes matrices only, real ones included, and
applies it to every exponent before it calls :func:`_expm`.  ``step`` and
the step pipeline call :func:`_expm` unchecked on the exponents they build
themselves, su(2) coordinates or matrices.
:func:`commutator` checks nothing but that its operands are square of one
dimension, and the Frobenius norm and the unitarity defect are plain
formulas: a NaN or Inf entry comes back as a NaN or Inf result rather than
an exception.

On the paths that run per step, per oracle and per norm, the library calls
numpy's C level itself: ufunc methods such as ``np.add.reduce``,
``np.maximum.reduce`` and ``np.logical_and.reduce``, array methods such as
``.swapaxes`` and ``.searchsorted``, and indexing such as ``x[..., None]``.
It does not call the Python-level wrappers around them (``np.sum``,
``ndarray.max``, ``ndarray.all``, ``np.swapaxes``, ``np.expand_dims``,
``np.tensordot`` and the like), which each cost 1 to 10 us around the same
C call, more than the arithmetic on one small matrix, and give the same
bits.  ``np.einsum``, ``np.errstate``, ``np.linalg.eigh`` and ``np.polyfit``
stay, and so do ``np.ndim`` and ``np.shape`` where the argument can be a
Python number.
"""

from __future__ import annotations

import math
import sys

import numpy as np

Array = np.ndarray

__all__ = [
    "PreconditionError",
    "DimensionMismatchError",
    "NotAntiHermitianError",
    "EXPONENT_ANTIHERMITICITY_TOL",
    "TAYLOR_NORM_CUT",
    "dagger",
    "commutator",
    "frobenius_norm",
    "unitarity_defect",
    "checked_square",
    "su2_coordinates",
    "su2_matrix",
    "expm_antihermitian",
]

# Relative anti-Hermiticity defect above which an exponent is rejected.
EXPONENT_ANTIHERMITICITY_TOL = 1e-10


class PreconditionError(ValueError):
    """A numerical precondition was violated (bad step size, broken symmetry, ...)."""


class DimensionMismatchError(ValueError):
    """Operands do not share a common square dimension."""


class NotAntiHermitianError(PreconditionError):
    """Exponent fails the anti-Hermiticity test; usually a buggy exponent formula.

    Attributes:
        defect: Frobenius norm of ``theta + theta†`` that tripped the check.
    """

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not anti-Hermitian: defect {self.defect:.3e} "
            f"exceeds tolerance {self.tol:.3e}"
        )


def dagger(a: Array) -> Array:
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.asarray(a).swapaxes(-1, -2))


def commutator(a, b) -> Array:
    """Return ``ab - ba`` of (stacks of) square matrices, broadcast over the
    leading axes like ``@``.

    Up to d = 4 each of ``ab`` and ``ba`` is a sum over the inner index of
    broadcast elementwise products, ``a[..., :, k, None] * b[..., None, k,
    :]`` added for k = 0 ... d - 1 in that order: numpy's batched ``@`` calls
    BLAS once per matrix, and that overhead outweighs the arithmetic of a
    small complex product.  Above d = 4 it is exactly ``a @ b - b @ a``; the
    cut is where ``verify --suite all`` measured the two kernels to cross
    (summed products about 7% faster at d = 4, 15% slower at d = 5 and twice
    as slow at d = 8).  Either way the result has the dtype of ``@``.  The
    only check is the shape: both operands must be (stacks of) d x d
    matrices of one d, else :class:`DimensionMismatchError`.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape[-2:] != a.shape[-2:]:
        raise DimensionMismatchError(f"expected square operands of one dimension, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] > 4:
        return a @ b - b @ a
    return _summed_product(a, b) - _summed_product(b, a)


def _summed_product(a: Array, b: Array) -> Array:
    """``a @ b`` of square operands as a sum of broadcast elementwise products."""
    res = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        res += a[..., :, k, None] * b[..., None, k, :]
    return res


def frobenius_norm(a) -> float | Array:
    """Root-sum-square of entry magnitudes, (sum_ij |a_ij|^2)^(1/2)."""
    a = np.asarray(a)
    out = np.sqrt(np.add.reduce(np.abs(a) ** 2, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


def unitarity_defect(u) -> float | Array:
    """``||u†u - I||_F``; the identity is subtracted from ``u†u`` in place."""
    u = np.asarray(u)
    p = dagger(u) @ u
    np.einsum("...ii->...i", p)[...] -= 1
    return frobenius_norm(p)


def _square(a) -> Array:
    """``a`` as a C-ordered complex128 (stack of) square matrix(es):
    :class:`DimensionMismatchError` for any other shape."""
    arr = np.asarray(a, dtype=np.complex128, order="C")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def checked_square(a, sign: int) -> tuple[Array, float | Array, float | Array]:
    """Coerce ``a`` to a C-ordered complex128 (stack of) square matrix(es) and
    measure each matrix's defect ``||a - sign a†||_F``: ``sign = 1`` for the
    Hermiticity defect, ``sign = -1`` for the anti-Hermiticity defect.

    Returns the array, each matrix's ``defect / max(1, ||a||_F)`` and each
    matrix's defect: floats for a single matrix, arrays of the stack's
    leading shape for a stack.  Raises :class:`DimensionMismatchError` for
    a non-square shape and ``ValueError`` for a NaN or Inf entry.

    Both squared norms are taken in one pass each, over the interleaved
    float64 view of the matrices.  Only when one of them is not finite does
    the check look at the entries: a NaN or Inf entry is then rejected, and
    each finite matrix whose sums of squares overflow, which happens once
    its entries pass about 1e154, is measured again divided by the power of
    two that brings its own largest entry below 2 to the 480th, about
    3.1e144.  The division
    is exact, no sum of squares of the result can overflow, and no other
    matrix is scaled, so no matrix can pass its own test by overflowing its
    norm or by a neighbour's scale underflowing its defect.
    """
    arr = _square(a)
    # viewed as a stack even for one matrix, so the norms come back as arrays
    stack = arr.reshape((math.prod(arr.shape[:-2]),) + arr.shape[-2:])
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        defect_sq, norm_sq = _squared_norms(stack, sign)
        # neither sum is negative, so their sum is finite only if both are
        finite = np.isfinite(defect_sq + norm_sq)
        if not np.logical_and.reduce(finite):
            if not np.logical_and.reduce(np.isfinite(arr), axis=None):
                raise ValueError("matrix contains NaN or Inf entries")
            # |z| of a finite z can pass the float range (inf, without a warning): cap it
            largest = np.minimum(np.maximum.reduce(np.abs(stack), axis=(1, 2)), sys.float_info.max)
            # dividing the other matrices by 1 leaves their sums as they were
            scale = np.where(finite, 1.0, np.ldexp(1.0, np.frexp(largest)[1] - 480))
            defect_sq, norm_sq = _squared_norms(stack / scale[:, None, None], sign)
        # defect(a) / max(1, ||a||_F) = defect(a/scale) / max(1/scale, ||a/scale||_F);
        # the product reads inf, without a warning, for a defect beyond the float range
        defect = np.sqrt(defect_sq)
        ratio = defect / np.maximum(1.0 / scale, np.sqrt(norm_sq))
        # [()] makes the values of a single matrix numpy floats
        return arr, ratio.reshape(arr.shape[:-2])[()], (defect * scale).reshape(arr.shape[:-2])[()]


def _squared_norms(x: Array, sign: int) -> tuple[Array, Array]:
    """``||x - sign x†||_F**2`` and ``||x||_F**2`` of a C-ordered complex stack."""
    diff = np.empty_like(x)
    np.conjugate(x.swapaxes(-1, -2), out=diff)
    (np.subtract if sign > 0 else np.add)(x, diff, out=diff)
    return tuple(np.einsum("nij,nij->n", v, v) for v in (diff.view(np.float64), x.view(np.float64)))


# Rows over the columns re h00, im h00, re h01, im h01, re h10, im h10, re
# h11, im h11 of a 2x2 matrix's interleaved float64 view: the su(2)
# coordinates (h00 + h11)/2, re (h01 + h10)/2, im (h10 - h01)/2 and (h00 -
# h11)/2.  Each row has two nonzero weights, so its product with the columns
# is exact in any summation order, and every entry is halved before two are
# added, so no finite matrix overflows them.
_SU2_COORDINATES = 0.5 * np.array(
    [[1, 0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, -1, 0]],
    dtype=np.float64,
)


def su2_coordinates(h) -> Array:
    """The su(2) coordinates of a (stack of) 2x2 matrix(es) ``h``.

    Returns the real, component-major ``(4, ...)`` array ``(c, x, y, z)`` of
    the Hermitian part ``c I + x sx + y sy + z sz`` of ``h``, which are also
    the coordinates of the generator ``-i h``.  Meant for what
    :func:`checked_square` returns, a C-ordered complex128 stack; it checks
    nothing.
    """
    arr = np.asarray(h, dtype=np.complex128, order="C")
    # one row of eight floats per matrix, read as columns by the weights above
    f = arr.reshape(-1, 4).view(np.float64).reshape(-1, 8).T
    return np.matmul(_SU2_COORDINATES, f).reshape((4,) + arr.shape[:-2])


def su2_matrix(v) -> Array:
    """The 2x2 anti-Hermitian matrix ``-i (c I + x sx + y sy + z sz)`` of
    su(2) coordinates ``v = (c, x, y, z)``, component-major as
    :func:`su2_coordinates` returns them; a stack for stacked coordinates."""
    c, x, y, z = np.asarray(v, dtype=np.float64)
    out = np.zeros(c.shape + (2, 2), dtype=np.complex128)
    # [..., i, 2j] and [..., i, 2j + 1] are the real and imaginary parts of
    # entry (i, j); signs are flipped by multiplying, because numpy 2.4's
    # np.negative writes wrong entries into an out= with an 8-element stride
    f = out.view(np.float64)
    np.subtract(-c, z, out=f[..., 0, 1])
    np.subtract(z, c, out=f[..., 1, 3])
    np.multiply(y, -1.0, out=f[..., 0, 2])
    f[..., 1, 0] = y
    np.multiply(x, -1.0, out=f[..., 0, 3])
    f[..., 1, 1] = f[..., 0, 3]
    return out


def expm_antihermitian(theta) -> Array:
    """Exponential of an anti-Hermitian matrix, exactly unitary up to rounding.

    ``theta`` is a ``(d, d)`` matrix or a stack ``(..., d, d)``, real or
    complex.  Raises ``ValueError`` for a non-finite entry and
    :class:`NotAntiHermitianError` unless ``||theta + theta†||_F <=
    EXPONENT_ANTIHERMITICITY_TOL * max(1, ||theta||_F)``, both evaluated by
    :func:`checked_square`, so an exponent too large for its norm is still
    tested.  Then it returns :func:`_expm` of the su(2) coordinates of
    ``i*theta`` at d = 2, and of ``theta`` itself above: the closed form at d
    = 2, and above it the Taylor polynomial of each matrix of 1-norm up to
    ``TAYLOR_NORM_CUT``, of the lowest degree whose cut covers that norm, the
    eigendecomposition of each above.
    """
    theta, ratio, defect = checked_square(theta, -1)
    if not np.logical_and.reduce(ratio <= EXPONENT_ANTIHERMITICITY_TOL, axis=None):
        raise NotAntiHermitianError(np.maximum.reduce(defect, axis=None), EXPONENT_ANTIHERMITICITY_TOL)
    return _propagator_matrix(_expm(su2_coordinates(1j * theta) if theta.shape[-1] == 2 else theta))


def _taylor_norm_cut(degree: int, unit: float) -> float:
    """The largest norm ``x`` at which ``x**(m + 1) / (m + 1)! / (1 - x / (m
    + 2))``, a bound on the remainder of the degree-``m`` Taylor polynomial
    of exp at a matrix of norm ``x`` (the tail's terms fall at least
    geometrically, by ``x / (m + 2)``), is at most ``unit``: bisected to the
    last bit, the bound increasing on ``[0, m + 2)``."""
    lo, hi = 0.0, degree + 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if mid ** (degree + 1) / math.factorial(degree + 1) / (1.0 - mid / (degree + 2)) <= unit:
            lo = mid
        else:
            hi = mid
    return lo


# The Taylor degrees that exponentiate a d > 2 exponent, each the highest
# that Paterson-Stockmeyer evaluates in its number of batched products (3,
# 4, 5, 6 and 7), and the largest 1-norm each takes: where its remainder
# bound reaches 2**-54, half a unit roundoff, about 0.0161, 0.1071, 0.3178,
# 0.7917 and 1.1025.  Each matrix takes the lowest degree whose cut covers
# its norm, so every one keeps the same bound.
TAYLOR_DEGREES = (6, 9, 12, 16, 18)
_TAYLOR_TIERS = tuple((m, _taylor_norm_cut(m, 2.0**-54)) for m in TAYLOR_DEGREES)
TAYLOR_NORM_CUT = _TAYLOR_TIERS[-1][1]
_TAYLOR_CUTS = np.array([cut for _, cut in _TAYLOR_TIERS])
_TAYLOR_COEFFICIENTS = tuple(1.0 / math.factorial(k) for k in range(TAYLOR_DEGREES[-1] + 1))

# Bytes of the row block of a stack the Taylor polynomial takes at a time,
# 256 matrices at d = 8: its powers and partial sums, at most six arrays of
# that size, take 1.5 MiB whatever the stack's length
TAYLOR_BLOCK_BYTES = 2**18


def _expm(theta: Array) -> Array:
    """``exp(theta)``, unchecked, of an exponent the library built or checked:
    the one place an exponential's kernel is picked.

    Real float64 ``theta`` is su(2) coordinates, anti-Hermitian by type, and
    goes to :func:`_expm_su2` as a stack of at least one set, so a single
    step's coordinates take the SIMD loops a stack's do, and get the same
    bits, not numpy's scalar arithmetic; the result is Cayley-Klein rows,
    ``(5,)`` for one set and ``(n, 5)`` for a stack.  A complex (stack of)
    anti-Hermitian matrix(es) goes through one tier dispatch, for a single
    matrix as for a stack: :func:`_expm_taylor` of each matrix whose 1-norm
    is at most ``TAYLOR_NORM_CUT``, at the lowest degree of
    ``TAYLOR_DEGREES`` whose cut covers that norm, :func:`_expm_eigh` of
    each above.  A matrix's bits depend on it alone, not on the stack it is
    in.  Matrices all in one tier go to their kernel whole; only a stack
    that spans tiers is split.  An empty ``theta`` (0×0 matrices, or none)
    has the empty exponential of its own shape."""
    if theta.dtype == np.float64:
        return _expm_su2(theta.reshape(4, -1)).reshape(theta.shape[1:] + (5,))
    if theta.size == 0:
        return np.empty_like(theta)
    norms = np.maximum.reduce(np.add.reduce(np.abs(theta), axis=-2), axis=-1)
    # tier k takes the norms in (cut[k - 1], cut[k]]; past the last cut, and
    # a NaN norm, is eigh's tier
    tiers = _TAYLOR_CUTS.searchsorted(norms)
    low, high = int(np.minimum.reduce(tiers, axis=None)), int(np.maximum.reduce(tiers, axis=None))
    if low == high:
        return _expm_tier(theta, low)
    out = np.empty_like(theta)
    for tier in range(low, high + 1):
        rows = tiers == tier
        if np.logical_or.reduce(rows, axis=None):
            out[rows] = _expm_tier(theta[rows], tier)
    return out


def _expm_tier(theta: Array, tier: int) -> Array:
    """The kernel of tier ``tier`` of :func:`_expm` at ``theta``."""
    if tier == len(TAYLOR_DEGREES):
        return _expm_eigh(theta)
    return _expm_taylor(theta, TAYLOR_DEGREES[tier])


def _expm_taylor(theta: Array, degree: int) -> Array:
    """The degree-``degree`` Taylor polynomial of exp at a complex (stack
    of) matrix(es) ``theta``, unchecked.

    Paterson-Stockmeyer with ``s = isqrt(degree)``: with ``X`` ... ``X**s``
    formed in ``s - 1`` products, the polynomial is the top block and then,
    for j from the top down to 0 in steps of s, ``B_j + (previous) X**s``,
    where ``B_j`` sums ``X**i / (j + i)!`` over i = 0 ... s - 1 (the top
    block up to the degree).  Where ``s`` divides the degree the top block
    is the scalar ``I / degree!``, and the first Horner step scales ``X**s``
    instead of multiplying by it.  Degrees 6, 9, 12, 16 and 18 take 3, 4,
    5, 6 and 7 batched products.  The stack is taken in row blocks of at
    most ``TAYLOR_BLOCK_BYTES``.  Each matrix's products are BLAS calls of
    its own and the sums are elementwise, in a fixed order, so its bits
    depend on it alone.
    """
    d = theta.shape[-1]
    stack = np.ascontiguousarray(theta).reshape(-1, d, d)
    out = np.empty_like(stack)
    rows = max(1, TAYLOR_BLOCK_BYTES // (16 * d * d))
    s = math.isqrt(degree)
    c = _TAYLOR_COEFFICIENTS[:degree + 1]
    for start in range(0, len(stack), rows):
        powers = [stack[start:start + rows]]
        for k in range(2, s + 1):
            # X**k as X**(k - k // 2) X**(k // 2): X**2 X for k = 3, X**2 X**2 for 4
            powers.append(np.matmul(powers[k - k // 2 - 1], powers[k // 2 - 1]))
        xs = powers.pop()
        powers = [p.view(np.float64) for p in powers]
        scratch = np.empty_like(powers[0])
        j = degree - degree % s
        if j == degree:
            # the top block is c[degree] I: its product with X**s is a scaling
            j -= s
            acc = (xs.view(np.float64) * c[degree]).view(np.complex128)
        else:
            acc = np.zeros(xs.shape, xs.dtype)
        _add_powers(acc, powers, c[j:j + s], scratch)
        for j in range(j - s, -1, -s):
            # the last product is written straight into the output
            acc = np.matmul(acc, xs, out=out[start:start + rows] if j == 0 else None)
            _add_powers(acc, powers, c[j:j + s], scratch)
    return out.reshape(theta.shape)


def _add_powers(acc: Array, powers: list[Array], c: tuple[float, ...], scratch: Array) -> None:
    """``acc += c[0] I + c[1] X + c[2] X**2 + ...`` in place, on the
    interleaved float64 views ``powers`` of ``X, X**2, ...``: each real
    coefficient scales its power into ``scratch``, which is then added to
    ``acc``, one power after another, and ``c[0]`` is added to the real
    part of each diagonal entry."""
    flat = acc.view(np.float64)
    for coefficient, power in zip(c[1:], powers):
        np.multiply(power, coefficient, out=scratch)
        flat += scratch
    # entry (i, i)'s real part is float i * (2d + 2) of a matrix's 2d**2
    d = acc.shape[-1]
    flat.reshape(len(acc), -1)[:, ::2 * d + 2] += c[0]


def _expm_eigh(theta: Array) -> Array:
    """``exp(theta)`` of a complex anti-Hermitian (stack of) matrix(es),
    unchecked: diagonalizes the Hermitian matrix ``i*theta = V diag(w) V†``
    (real ``w``) and returns ``V diag(exp(-i w)) V†``, scaling ``V`` in place
    once ``V†`` is taken."""
    w, v = np.linalg.eigh(1j * theta)
    vh = dagger(v)
    np.multiply(v, np.exp(-1j * w)[..., None, :], out=v)
    return v @ vh


def _expm_su2(v) -> Array:
    """``exp(theta)``, in Cayley-Klein form, of the (stack of) 2x2
    anti-Hermitian matrices ``theta`` whose Hermitian part ``i*theta = c I +
    x sx + y sy + z sz`` has su(2) coordinates ``v = (c, x, y, z)``,
    component-major as :func:`su2_coordinates` returns them, unchecked.  The
    su(2) coordinates of an exponent ``theta = -i (c I + x sx + y sy + z
    sz)`` are those of ``i*theta``, so they are taken as they are.

    ``exp(theta) = e^{-ic} (cos r I - i s (x sx + y sy + z sz))``, ``r =
    |(x, y, z)|``, ``s = sin r / r``: ``alpha = cos r - i s z``, held as
    ``alpha - 1``, ``beta = s y - i s x`` and ``phi = c`` (see
    :func:`_product`).  The coordinates halve every entry before two are
    added, so no sum can overflow.  ``r`` is ``sqrt(x*x + y*y + z*z)``, a
    ninth of the time of a nested ``hypot`` (numpy's ``hypot`` has no SIMD
    loop), within an ulp or two of it; a stack with a coordinate past 1e150,
    whose squares could overflow, takes the nested ``hypot``, finite for any
    finite exponent.  ``s`` divides ``sin r`` itself by ``r`` (1 at r = 0),
    so the result is unitary to rounding at every magnitude; ``np.sinc(r /
    pi)`` would re-round the angle, and at large ``r`` take the sine of
    another angle than the cosine.
    """
    c, x, y, z = v
    # x*x + y*y + z*z overflows only for a coordinate past about 1e154
    huge = np.maximum.reduce(np.abs(v[1:]), axis=None, initial=0.0) > 1e150
    r = np.hypot(np.hypot(x, y), z) if huge else np.sqrt(x * x + y * y + z * z)
    s = np.divide(np.sin(r), r, out=np.ones(r.shape), where=r > 0)
    out = np.empty(r.shape + (5,))
    # cos r - 1 is exact for cos r >= 1/2 (Sterbenz), where 1 + (cos r - 1)
    # is cos r again, and (-s) z is -(s z) bit for bit
    out[..., 0], out[..., 1], out[..., 2], out[..., 3], out[..., 4] = np.cos(r) - 1.0, -s * z, s * y, -s * x, c
    return out


# Two-level propagators in Cayley-Klein form.  A 2x2 unitary is U =
# e^{-i phi} [[alpha, -conj(beta)], [beta, conj(alpha)]], |alpha|**2 +
# |beta|**2 = 1 (the u(2) = u(1) + su(2) split; Goldstein, Poole & Safko,
# Classical Mechanics, 3rd ed., Sec. 4.5), held as the float64 row (re alpha
# - 1, im alpha, re beta, im beta, phi), a stack of them as (n, 5).  That is
# what :func:`_expm` returns for su(2) coordinates, and what the step
# pipeline's product tree multiplies and stores: the float64 dtype tells it
# from a complex matrix, which every function here takes as well.  The row
# holds alpha - 1, not alpha, so that a product of two steps near the
# identity rounds its small terms and never a sum near 1: with alpha itself
# the roundings at 1 of a smooth drive's neighbouring steps add up, and
# |alpha|**2 + |beta|**2 - 1 of case I's final propagator, me2 and me6 over
# 131072 steps of [0, 10], read -7870 and -7966 eps, against at most 172
# eps either way in cases I to IV, at 16384 to 131072 steps, with alpha - 1
# (214 when the tree multiplied 2x2 matrices).  The identity is the zero
# row.  The matrix is formed only at the edges, by :func:`_propagator_matrix`.

def _ck_columns(u: Array) -> Array:
    """The complex ``(alpha - 1, beta)`` of Cayley-Klein rows ``u``, as a
    ``(2, n)`` view, a single row taken as a stack of one."""
    return u.reshape(-1, 5)[:, :4].view(np.complex128).T


def _identity(like: Array) -> Array:
    """The identity propagator in the form of the propagators ``like``: the
    zero row, alpha = 1, beta = 0 and phi = 0, in Cayley-Klein form."""
    return np.zeros(5) if like.dtype == np.float64 else np.eye(like.shape[-1], dtype=np.complex128)


def _product(a: Array, b: Array, out: Array | None = None) -> Array:
    """``a @ b`` of (stacks of) propagators of one form and shape.

    Matrices take ``np.matmul``.  In Cayley-Klein form ``alpha = alpha_a
    alpha_b - conj(beta_a) beta_b``, ``beta = beta_a alpha_b + conj(alpha_a)
    beta_b`` and ``phi = phi_a + phi_b``; with ``d = alpha - 1`` as the rows
    hold it, ``d = d_a d_b + d_a + d_b - conj(beta_a) beta_b`` and ``beta =
    beta_a d_b + beta_a + beta_b + conj(d_a) beta_b``, summed in that order.
    The identity's zero row on either side changes no other bit than the
    sign of a zero, and a single row takes the loops of a stack of one.
    ``out`` must not overlap ``a`` or ``b``.
    """
    if a.dtype != np.float64:
        return np.matmul(a, b, out=out)
    out = np.empty(a.shape) if out is None else out
    (da, ba), (db, bb), (dz, bz) = _ck_columns(a), _ck_columns(b), _ck_columns(out)
    np.multiply(da, db, out=dz)
    dz += da
    dz += db
    dz -= np.conj(ba) * bb
    np.multiply(ba, db, out=bz)
    bz += ba
    bz += bb
    bz += np.conj(da) * bb
    np.add(a[..., 4], b[..., 4], out=out[..., 4])
    return out


def _propagator_matrix(u: Array) -> Array:
    """The matrix (stack) of propagators ``u``: Cayley-Klein rows become
    ``e^{-i phi} [[alpha, -conj(beta)], [beta, conj(alpha)]]``, and a matrix
    is returned as it is.  The one place a two-level propagator's matrix is
    formed: ``step``'s and ``expm_antihermitian``'s results, a trajectory's
    final propagator and the convergence errors' finals."""
    if u.dtype != np.float64:
        return u
    d, beta = _ck_columns(u)
    phase = np.exp(-1j * u.reshape(-1, 5)[:, 4])
    out = np.empty((len(phase), 4), dtype=np.complex128)
    # the phase is the left operand of every product, each written to out:
    # numpy's complex multiply is not bitwise commutative
    for k, entry in enumerate((d + 1.0, -np.conj(beta), beta, np.conj(d + 1.0))):
        np.multiply(phase, entry, out=out[:, k])
    return out.reshape(u.shape[:-1] + (2, 2))


def _observables(u: Array, psi: Array) -> tuple[Array, Array]:
    """``|u psi|**2`` and :func:`unitarity_defect` of each propagator of the
    stack ``u``.  In Cayley-Klein form, with ``psi = (a, b)``, the phase
    leaves the populations ``|alpha a - conj(beta) b|**2`` and ``|beta a +
    conj(alpha) b|**2`` alone and is exactly unitary: ``U†U = (|alpha|**2 +
    |beta|**2) I``, so the defect is ``sqrt(2) ||alpha|**2 + |beta|**2 -
    1|``, taken from ``d = alpha - 1`` as ``2 re d + |d|**2 + |beta|**2``,
    the squares of re d, im d, re beta and im beta summed left to right, so
    no sum rounds at 1."""
    if u.dtype != np.float64:
        return np.abs(u @ psi) ** 2, unitarity_defect(u)
    (d, beta), (a, b) = _ck_columns(u), psi
    w = np.array([a * (d + 1.0) - b * np.conj(beta), a * beta + b * np.conj(d + 1.0)])
    q = 2.0 * u[:, 0] + np.add.reduce(u[:, :4] ** 2, axis=-1)
    return (w.real**2 + w.imag**2).T, math.sqrt(2.0) * np.abs(q)
