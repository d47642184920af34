import numpy as np
import pytest

from magstep.linalg import (
    EXPONENT_ANTIHERMITICITY_TOL,
    DimensionMismatchError,
    NotAntiHermitianError,
    anti_hermiticity_defect,
    commutator,
    dagger,
    expm_antihermitian,
    frobenius_norm,
    hermiticity_defect,
    unitarity_defect,
)
from magstep.verify import random_hermitian

from conftest import I2, SX, SY, SZ


def naive_matmul(a, b):
    """Triple-loop matrix product, independent of numpy's @."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


def expm_taylor(theta, terms=30):
    """Scaled-and-squared truncated exponential series."""
    norm = frobenius_norm(theta)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    x = theta / 2**squarings
    acc = np.eye(theta.shape[0], dtype=complex)
    term = np.eye(theta.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestCommutator:
    def test_pauli(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ)

    def test_self_commutator_is_zero(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 4)
        assert np.all(commutator(a, a) == 0)

    def test_against_naive_product_oracle(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        got = commutator(a, b)
        expected = naive_matmul(a, b) - naive_matmul(b, a)
        assert np.allclose(got, expected, atol=1e-14)
        # commutator of Hermitian matrices is anti-Hermitian
        assert anti_hermiticity_defect(got) <= 1e-13 * max(1.0, frobenius_norm(got))

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert np.array_equal(commutator(a, b), -commutator(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))


class TestKernelsAreFormulas:
    # only as_complex_square and expm_antihermitian validate; a non-finite
    # entry passes through the kernels and comes out as a non-finite result
    def test_nan_propagates_instead_of_raising(self):
        bad = np.full((2, 2), np.nan, dtype=complex)
        assert np.all(np.isnan(commutator(bad, SX)))
        for defect in (hermiticity_defect, anti_hermiticity_defect, unitarity_defect):
            assert np.isnan(defect(bad))


class TestNorms:
    def test_identity(self):
        assert frobenius_norm(I2) == pytest.approx(np.sqrt(2))

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)

    def test_hermiticity_defect_hermitian(self):
        assert hermiticity_defect(SX) == 0.0

    def test_hermiticity_defect_antihermitian(self):
        # a - a† = 2i*sx, whose norm is 2*sqrt(2)
        assert hermiticity_defect(1j * SX) == pytest.approx(2 * np.sqrt(2))

    def test_hermiticity_defect_random_construction(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert hermiticity_defect(0.5 * (b + b.conj().T)) <= 1e-15


class TestExpmAntiHermitian:
    def test_zero_exponent(self):
        assert np.allclose(expm_antihermitian(np.zeros((2, 2))), I2)

    def test_diagonal_exponent(self):
        u = expm_antihermitian(-1j * (np.pi / 2) * SZ)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-15)

    def test_rotation_against_series_oracle(self):
        theta = -1j * 0.3 * SX
        u = expm_antihermitian(theta)
        closed = np.cos(0.3) * I2 - 1j * np.sin(0.3) * SX
        assert np.allclose(u, closed, atol=1e-15)
        assert np.allclose(u, expm_taylor(theta), atol=1e-13)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_series_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        theta = -1j * rng.uniform(0.1, 3.0) * random_hermitian(rng, dim)
        assert np.allclose(expm_antihermitian(theta), expm_taylor(theta), atol=1e-12)

    def test_unitarity_many_seeds(self):
        # spec-level guarantee: 1e-12 over >= 1000 random draws, dims <= 16
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            theta = -1j * rng.uniform(0.01, 5.0) * random_hermitian(rng, dim)
            u = expm_antihermitian(theta)
            worst = max(worst, unitarity_defect(u))
        assert worst <= 1e-12

    def test_group_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            theta = -1j * rng.uniform(0.1, 2.0) * random_hermitian(rng, dim)
            u = expm_antihermitian(theta)
            v = expm_antihermitian(-theta)
            assert frobenius_norm(v - dagger(u)) <= 1e-12

    def test_rejects_non_antihermitian(self):
        with pytest.raises(NotAntiHermitianError) as excinfo:
            expm_antihermitian(SX)
        assert excinfo.value.defect == pytest.approx(2 * np.sqrt(2))
        assert excinfo.value.tol == EXPONENT_ANTIHERMITICITY_TOL

    @pytest.mark.parametrize("delta, accepted", [(1e-11, True), (1e-10, False)])
    def test_relative_tolerance(self, delta, accepted):
        # theta = -i sx + delta I: defect 2 sqrt(2) delta against max(1, ||theta||) ~ sqrt(2)
        theta = -1j * SX + delta * I2
        if accepted:
            expm_antihermitian(theta)
        else:
            with pytest.raises(NotAntiHermitianError):
                expm_antihermitian(theta)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expm_antihermitian(bad)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(9)
        thetas = np.stack([-1j * random_hermitian(rng, 2) for _ in range(6)])
        batched = expm_antihermitian(thetas)
        for k in range(6):
            assert np.allclose(batched[k], expm_antihermitian(thetas[k]), atol=1e-14)
