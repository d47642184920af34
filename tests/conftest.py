import numpy as np
import pytest

from magstep.evolution import convergence_study, propagate
from magstep.hamiltonians import builtin_case
from magstep.magnus_steps import ALL_METHODS, MethodId

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CASES = ["I", "II", "III", "IV"]


@pytest.fixture
def pauli():
    return SX, SY, SZ


@pytest.fixture(scope="session")
def ladder_reports():
    """Full-ladder convergence reports for the four builtin cases."""
    return {
        case: convergence_study(builtin_case(case), ALL_METHODS, tf=100.0)
        for case in CASES
    }


@pytest.fixture(scope="session")
def population_traces():
    """Fine-grid population traces (16384 steps to t=100) for the four cases."""
    return {
        case: propagate(MethodId.ME4_NC, builtin_case(case), 0.0, 100.0, 16384, [1, 0])
        for case in CASES
    }
