"""Unitarity-preserving Magnus step propagators for time-dependent Hamiltonians.

A small dense-matrix toolkit for propagating the time-dependent Schrodinger
equation one step at a time while staying exactly unitary: nine step schemes
of orders 2 to 6, declarative sinusoidal Hamiltonian models, a quadrature
oracle suite that certifies every closed-form commutator expression, and a
convergence-study harness.
"""

from .evolution import (
    ConvergenceRecord,
    ConvergenceReport,
    EvolutionTrace,
    convergence_study,
    default_ladder,
    fit_order,
    propagate,
    relative_error,
)
from .hamiltonians import (
    EntrySpec,
    HamiltonianModel,
    ModelError,
    SinusoidTerm,
    builtin_case,
    load_model,
)
from .linalg import (
    DimensionMismatchError,
    NotAntiHermitianError,
    PreconditionError,
    commutator,
    expm_antihermitian,
    frobenius_norm,
    unitarity_defect,
)
from .magnus_steps import (
    ALL_METHODS,
    MethodId,
    exponent,
    sample_nodes,
    step,
)
from .verify import (
    CheckReport,
    CheckRow,
    OracleConfig,
    check_closed_forms,
    check_symmetry_suite,
    interpolant,
    oracle_Mn,
    random_hermitian,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "CheckReport",
    "CheckRow",
    "ConvergenceRecord",
    "ConvergenceReport",
    "DimensionMismatchError",
    "EntrySpec",
    "EvolutionTrace",
    "HamiltonianModel",
    "MethodId",
    "ModelError",
    "NotAntiHermitianError",
    "OracleConfig",
    "PreconditionError",
    "SinusoidTerm",
    "builtin_case",
    "check_closed_forms",
    "check_symmetry_suite",
    "commutator",
    "convergence_study",
    "default_ladder",
    "expm_antihermitian",
    "exponent",
    "fit_order",
    "frobenius_norm",
    "interpolant",
    "load_model",
    "oracle_Mn",
    "propagate",
    "random_hermitian",
    "relative_error",
    "sample_nodes",
    "step",
    "unitarity_defect",
]
