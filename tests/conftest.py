import numpy as np
import pytest

from magstep.evolution import convergence_study, propagate
from magstep.hamiltonians import HamiltonianModel, builtin_case
from magstep.magnus_steps import ALL_METHODS, MethodId
from magstep.verify import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CASES = ["I", "II", "III", "IV"]


def smooth_sampler(rng, dim):
    """``H(t) = a0 + a1 sin(w1 t) + a2 cos(w2 t)`` of three random Hermitian
    matrices and two frequencies, drawn in that order, as one draw of
    ``verify.check_symmetry_suite`` draws them after its dimension."""
    a0 = random_hermitian(rng, dim)
    a1 = random_hermitian(rng, dim)
    a2 = random_hermitian(rng, dim)
    w1, w2 = rng.uniform(0.5, 2.0, size=2)

    def sampler(t):
        return a0 + a1 * np.sin(w1 * t) + a2 * np.cos(w2 * t)

    return sampler


class SampledError(AssertionError):
    """A sampling guard was reached: a HamiltonianModel was sampled."""


def forbid_sampling(monkeypatch, error=SampledError):
    """Make every method by which the step pipeline samples a
    HamiltonianModel raise ``error``: ``su2_coordinates`` for a two-level
    model, ``sample_many`` for any other.  A test that a check runs before
    sampling pairs this guard with a control that it fires on valid input."""

    def refuse(self, ts):
        raise error(f"sampled a dim-{self.dim} model at {np.size(ts)} times")

    for name in ("su2_coordinates", "sample_many"):
        monkeypatch.setattr(HamiltonianModel, name, refuse)


def count_samples(monkeypatch) -> list[int]:
    """Count, per call, the times at which any HamiltonianModel is sampled;
    the list fills as the pipeline samples."""
    sizes = []
    for name in ("su2_coordinates", "sample_many"):
        original = getattr(HamiltonianModel, name)

        def counted(self, ts, original=original):
            sizes.append(int(np.size(ts)))
            return original(self, ts)

        monkeypatch.setattr(HamiltonianModel, name, counted)
    return sizes


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
