"""Dense complex matrix kernels: commutators, norms, and exactly unitary exponentials.

All functions accept a single ``(d, d)`` matrix or a stack ``(..., d, d)``;
norms return a float for a single matrix and an array for a stack.  The
exponential of an anti-Hermitian matrix goes through the eigendecomposition
of the Hermitian matrix ``i * theta``, which keeps the result unitary to
machine precision regardless of the size of the exponent.

Only two functions validate: :func:`as_complex_square` (complex dtype,
square shape, finite entries), which callers apply once at their input
boundary, and :func:`expm_antihermitian`, which checks its exponent.
:func:`commutator` compares nothing but the operands' dimension, and the
norms and defects are plain formulas: a NaN or Inf entry comes back as a
NaN or Inf result rather than an exception.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

__all__ = [
    "PreconditionError",
    "DimensionMismatchError",
    "NotAntiHermitianError",
    "EXPONENT_ANTIHERMITICITY_TOL",
    "as_complex_square",
    "dagger",
    "commutator",
    "frobenius_norm",
    "hermiticity_defect",
    "anti_hermiticity_defect",
    "unitarity_defect",
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


def as_complex_square(a) -> Array:
    """Coerce to complex128 and validate a (stack of) finite square matrix(es)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def dagger(a: Array) -> Array:
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def commutator(a, b) -> Array:
    """Return ``ab - ba``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"incompatible operands: dims {a.shape[-1]} and {b.shape[-1]}"
        )
    return a @ b - b @ a


def frobenius_norm(a) -> float | Array:
    """Root-sum-square of entry magnitudes, (sum_ij |a_ij|^2)^(1/2)."""
    a = np.asarray(a)
    out = np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


def hermiticity_defect(a) -> float | Array:
    """``||a - a†||_F``; zero iff Hermitian."""
    return frobenius_norm(a - dagger(a))


def anti_hermiticity_defect(a) -> float | Array:
    """``||a + a†||_F``; zero iff anti-Hermitian."""
    return frobenius_norm(a + dagger(a))


def unitarity_defect(u) -> float | Array:
    """``||u†u - I||_F``."""
    u = np.asarray(u)
    return frobenius_norm(dagger(u) @ u - np.eye(u.shape[-1]))


def expm_antihermitian(theta) -> Array:
    """Exponential of an anti-Hermitian matrix, exactly unitary up to rounding.

    Diagonalizes the Hermitian matrix ``i*theta = V diag(w) V†`` (real ``w``) and
    returns ``V diag(exp(-i w)) V†``.  Raises ``ValueError`` for a non-finite
    entry and :class:`NotAntiHermitianError` unless ``||theta + theta†||_F <=
    EXPONENT_ANTIHERMITICITY_TOL * max(1, ||theta||_F)``.
    """
    theta = as_complex_square(theta)
    defect = anti_hermiticity_defect(theta)
    bound = EXPONENT_ANTIHERMITICITY_TOL * np.maximum(1.0, frobenius_norm(theta))
    if not np.all(defect <= bound):
        raise NotAntiHermitianError(float(np.max(defect)), EXPONENT_ANTIHERMITICITY_TOL)
    w, v = np.linalg.eigh(1j * theta)
    return (v * np.exp(-1j * w)[..., None, :]) @ dagger(v)
