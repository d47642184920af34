import math
import warnings

import numpy as np
import pytest

from magstep import linalg
from magstep.linalg import (
    EXPONENT_ANTIHERMITICITY_TOL,
    TAYLOR_NORM_CUT,
    DimensionMismatchError,
    NotAntiHermitianError,
    PreconditionError,
    checked_square,
    commutator,
    dagger,
    expm_antihermitian,
    frobenius_norm,
    su2_coordinates,
    su2_matrix,
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


EPS = np.finfo(float).eps

# Largest unitarity defect of an exponential just below and just above
# each Taylor tier's cut, at d = 3, 8 and 16: measured at most 8.3e-16 where
# a Taylor polynomial takes the matrix, and 1.41e-14 just above
# TAYLOR_NORM_CUT (the eigendecomposition, at d = 16).
UNITARITY_AT_THE_CUT_TOL = 3e-14

# Largest Frobenius distance between the Taylor polynomial and the
# eigendecomposition below TAYLOR_NORM_CUT and on either side of each lower
# cut, at d = 3, 8 and 16: measured at most 2.5e-15, 4.6e-15 and 7.7e-15,
# the rounding of the eigendecomposition.
TAYLOR_EIGH_AGREEMENT_TOL = 2e-14


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def centred_hermitian(rng, shape):
    """Hermitian (stack) with zero-mean Gaussian entries, shape ``(..., d, d)``."""
    b = complex_normal(rng, shape)
    return 0.5 * (b + dagger(b))


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


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
        assert frobenius_norm(got + dagger(got)) <= 1e-13 * max(1.0, frobenius_norm(got))

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert np.array_equal(commutator(a, b), -commutator(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))

    # both kernels take only square operands of one dimension: a 1-D or
    # non-square operand would otherwise give a summed-product array at d <= 4
    @pytest.mark.parametrize(
        "shapes", [((3,), (3,)), ((3, 3), (3,)), ((2, 3), (2, 3)), ((3, 3), (2, 3)), ((5, 6), (6, 5))], ids=str
    )
    def test_non_square_operands_are_a_dimension_mismatch(self, shapes):
        a, b = (np.ones(s) for s in shapes)
        with pytest.raises(DimensionMismatchError):
            commutator(a, b)


# Largest entrywise gap between commutator and a loop-product ab - ba for
# operands with entries of order 1: the summed products and BLAS each round
# their own products and sums, at most a few ulps of the d-term sums apart.
COMMUTATOR_REFERENCE_TOL = 1e-14

# Operand shapes: one matrix, equal stacks, the broadcast pairs of the
# oracle's triple and quadruple integrands on a grid of 8 points per level,
# and the pairs of a cubic interpolant's quadruple integral, whose levels
# take 8, 6, 4 and 2 points: (8, 1, 1) x (8, 6, 1) and (8, 6, 1) x (8, 6, 4).
COMMUTATOR_SHAPES = [
    ((), ()),
    ((5,), (5,)),
    ((8, 1), (8, 8)),
    ((8, 1, 1), (8, 8, 8)),
    ((8, 8, 1), (8, 8, 8)),
    ((8, 1, 1), (8, 6, 1)),
    ((8, 6, 1), (8, 6, 4)),
]


def naive_commutator(a, b):
    """``ab - ba`` of each pair of the broadcast stacks, by :func:`naive_matmul`."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    out = np.empty(shape, dtype=complex)
    for idx in np.ndindex(shape[:-2]):
        out[idx] = naive_matmul(a[idx], b[idx]) - naive_matmul(b[idx], a[idx])
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestCommutatorKernels:
    # d <= 4 takes the summed elementwise products, d = 5 numpy's @: both are
    # the general ab - ba, so the operands here are not anti-Hermitian
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("shapes", COMMUTATOR_SHAPES, ids=str)
    def test_matches_the_loop_product(self, dim, shapes):
        rng = np.random.default_rng(dim)
        a, b = (random_complex(rng, s + (dim, dim)) for s in shapes)
        for x, y in ((a, b), (b, a)):
            got = commutator(x, y)
            assert got.shape == np.broadcast_shapes(x.shape, y.shape)
            assert np.max(np.abs(got - naive_commutator(x, y))) <= COMMUTATOR_REFERENCE_TOL

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("shapes", COMMUTATOR_SHAPES, ids=str)
    def test_self_commutator_and_antisymmetry_are_exact(self, dim, shapes):
        rng = np.random.default_rng(10 + dim)
        a, b = (random_complex(rng, s + (dim, dim)) for s in shapes)
        assert np.all(commutator(a, a) == 0) and np.all(commutator(b, b) == 0)
        assert np.array_equal(commutator(a, b), -commutator(b, a))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("dtypes", [(int, int), (float, float), (np.float32, np.float32), (float, complex)], ids=str)
    def test_result_type_is_that_of_matmul(self, dim, dtypes):
        rng = np.random.default_rng(20 + dim)
        a, b = (rng.integers(-3, 4, (4, dim, dim)).astype(t) for t in dtypes)
        got, want = commutator(a, b), a @ b - b @ a
        assert got.dtype == want.dtype
        # small integers: every product and sum is exact in either order
        assert np.array_equal(got, want)


class TestKernelsAreFormulas:
    # only checked_square and expm_antihermitian validate; a non-finite
    # entry passes through the kernels and comes out as a non-finite result
    def test_nan_propagates_instead_of_raising(self):
        bad = np.full((2, 2), np.nan, dtype=complex)
        assert np.all(np.isnan(commutator(bad, SX)))
        for formula in (frobenius_norm, unitarity_defect):
            assert np.isnan(formula(bad))


class TestNorms:
    def test_identity(self):
        assert frobenius_norm(I2) == pytest.approx(np.sqrt(2))

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)

    def test_unitarity_defect_is_the_plain_formula(self):
        # the identity is subtracted in place, with the same rounding as the
        # out-of-place formula, for complex, real and integer inputs
        rng = np.random.default_rng(12)
        u = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        for x in (u, u.real, u[0], np.eye(2, dtype=int), 2 * np.eye(2, dtype=int)):
            want = frobenius_norm(dagger(x) @ x - np.eye(x.shape[-1]))
            assert np.array_equal(unitarity_defect(x), want)


# Largest relative gap between checked_square's one-pass norms and the plain
# formulas (|z|**2 summed), which round differently: a few ulp of the result.
CHECK_FORMULA_TOL = 4 * EPS


class TestCheckedSquare:
    def test_hermitian_has_zero_defect(self):
        assert checked_square(SX, 1)[1:] == (0.0, 0.0)

    def test_antihermitian_input_has_the_hermiticity_defect(self):
        # a - a† = 2i*sx, whose norm is 2*sqrt(2), against ||a||_F = sqrt(2)
        _, ratio, defect = checked_square(1j * SX, 1)
        assert defect == pytest.approx(2 * np.sqrt(2))
        assert ratio == pytest.approx(2.0)

    def test_random_construction_is_hermitian(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert checked_square(0.5 * (b + b.conj().T), 1)[2] <= 1e-15

    def test_matches_unscaled_formula(self):
        rng = np.random.default_rng(12)
        # Hermitian plus a small anti-Hermitian part, at three sizes
        a = np.stack(
            [s * random_hermitian(rng, 3) + 1e-3j * random_hermitian(rng, 3) for s in (0.1, 1.0, 40.0)]
        )
        arr, ratio, defect = checked_square(a, -1)
        assert arr.dtype == np.complex128 and np.array_equal(arr, a)
        # entries far below the overflow range: no scaling, the plain formulas to a few ulp
        want_defect = frobenius_norm(a + dagger(a))
        want_ratio = want_defect / np.maximum(1.0, frobenius_norm(a))
        assert ratio.shape == defect.shape == (3,)
        assert np.all(abs(ratio - want_ratio) <= CHECK_FORMULA_TOL * want_ratio)
        assert np.all(abs(defect - want_defect) <= CHECK_FORMULA_TOL * want_defect)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_level_parts_match_unscaled_formula(self, sign):
        # d = 2, at magnitudes from far below to far above 1
        rng = np.random.default_rng(14)
        for s in (1e-100, 0.1, 1.0, 40.0, 1e100):
            a = s * random_hermitian(rng, 2) + 1e-3j * s * random_hermitian(rng, 2)
            _, ratio, defect = checked_square(a, sign)
            want_defect = frobenius_norm(a - sign * dagger(a))
            want_ratio = want_defect / max(1.0, frobenius_norm(a))
            assert abs(ratio - want_ratio) <= CHECK_FORMULA_TOL * want_ratio
            assert abs(defect - want_defect) <= CHECK_FORMULA_TOL * want_defect

    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e200, 1e307])
    def test_finite_at_extreme_magnitudes(self, scale):
        # scale * (sz + i I): defect 2 sqrt(2) scale, norm 2 scale
        _, ratio, defect = checked_square(scale * (SZ + 1j * I2), 1)
        direct_ratio = 2.0 * np.sqrt(2) * scale / max(1.0, 2.0 * scale)
        assert ratio / direct_ratio == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert defect / scale == pytest.approx(2.0 * np.sqrt(2), rel=1e-12, abs=0.0)

    def test_strided_and_real_input_measured_as_a_complex_copy(self):
        rng = np.random.default_rng(13)
        a = complex_normal(rng, (4, 3, 3))
        for x in (np.swapaxes(a, -1, -2), a[:, ::-1, ::-1], a.real):
            copy = np.array(x, dtype=np.complex128)
            arr, ratio, defect = checked_square(x, 1)
            assert arr.flags.c_contiguous and np.array_equal(arr, copy)
            _, copy_ratio, copy_defect = checked_square(copy, 1)
            assert np.array_equal(ratio, copy_ratio) and np.array_equal(defect, copy_defect)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (0, 2, 2), (2, 3, 4, 4), (0, 0), (2, 0, 0)])
    def test_zero_and_empty_stacks(self, shape):
        _, ratio, defect = checked_square(np.zeros(shape, dtype=complex), 1)
        assert np.shape(ratio) == np.shape(defect) == shape[:-2]
        assert not np.any(ratio) and not np.any(defect)
        assert isinstance(ratio, float) == (len(shape) == 2)
        assert expm_antihermitian(np.zeros(shape, dtype=complex)).shape == shape

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("huge", [1e300, 1e308])
    def test_each_matrix_of_a_stack_is_measured_alone(self, sign, huge):
        # entries near the float range in one matrix, whose sums of squares
        # overflow, beside a small one with a relative defect of about 1e-7:
        # each is scaled by its own power of two, if at all, so the small one
        # keeps the ratio and defect it has alone instead of underflowing to 0
        skew = np.triu(np.ones((3, 3)), 1)
        big = huge * (np.diag([1.0, -1.0, 0.5]) + 1e-3 * skew)
        small = (1.0 if sign == 1 else 1j) * random_hermitian(np.random.default_rng(15), 3) + 1e-7 * skew
        stack = np.stack([big, small])
        _, ratio, defect = checked_square(stack, sign)
        for k in range(2):
            assert (ratio[k], defect[k]) == checked_square(stack[k], sign)[1:], k
        assert ratio[1] > 1e-8


class TestSu2Coordinates:
    # su2_coordinates, the coordinates (c, x, y, z) of -i h = -i (c I + x sx
    # + y sy + z sz) of a checked 2x2 sample, and su2_matrix, its inverse
    def test_pauli_basis(self):
        for k, h in enumerate((I2, SX, SY, SZ)):
            v = su2_coordinates(h)
            assert np.array_equal(v, np.eye(4)[k])
            assert np.array_equal(su2_matrix(v), -1j * h)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_coordinates_of_the_hermitian_part(self, lead):
        rng = np.random.default_rng(40 + len(lead))
        h = centred_hermitian(rng, lead + (2, 2))
        a = h + 1e-3j * centred_hermitian(rng, lead + (2, 2))
        v = su2_coordinates(a)
        assert v.shape == (4,) + lead and v.dtype == np.float64
        assert np.all(frobenius_norm(1j * su2_matrix(v) - h) <= 4 * EPS * frobenius_norm(h))

    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e200, 1e307])
    def test_extreme_magnitudes(self, scale):
        a = scale * (SZ + 1j * I2 + 0.5 * SX)
        assert np.array_equal(su2_coordinates(a), scale * np.array([0.0, 0.5, 0.0, 1.0]))

    def test_finite_coordinates_of_entries_near_the_float_limit(self):
        # each coordinate halves its two entries before adding them
        big = np.finfo(float).max
        h = np.array([[big, big - 1j * big], [big + 1j * big, big]])
        assert checked_square(h, 1)[1:] == (0.0, 0.0)
        assert np.array_equal(su2_coordinates(h), [big, big, big, 0.0])

    def test_round_trip_is_exact_for_hermitian_input(self):
        # entries on a binary grid, where every sum and half is exact: matrix
        # to coordinates to matrix and back again reproduce every bit
        rng = np.random.default_rng(41)
        h = centred_hermitian(rng, (64, 2, 2))
        h = np.round(h * 1024.0) / 1024.0
        v = su2_coordinates(h)
        assert np.array_equal(su2_matrix(v), -1j * h)
        assert np.array_equal(su2_coordinates(1j * su2_matrix(v)), v)

    def test_round_trip_rounds_only_c_and_z(self):
        # for general entries x and y come back exactly; c and z pass through
        # c +- z and back, a few roundings of at most half an ulp each
        rng = np.random.default_rng(42)
        v = rng.normal(size=(4, 256))
        back = su2_coordinates(1j * su2_matrix(v))
        assert np.array_equal(back[1:3], v[1:3])
        assert np.all(np.abs(back - v) <= 2 * EPS * np.max(np.abs(v[[0, 3]]), axis=0))

    def test_strided_and_real_input_read_as_a_complex_copy(self):
        rng = np.random.default_rng(43)
        a = complex_normal(rng, (4, 2, 2))
        for x in (np.swapaxes(a, -1, -2), a[:, ::-1, ::-1], a.real):
            assert np.array_equal(su2_coordinates(x), su2_coordinates(np.array(x, dtype=np.complex128)))

    def test_empty_stack(self):
        v = su2_coordinates(np.zeros((0, 2, 2)))
        assert v.shape == (4, 0)
        assert su2_matrix(v).shape == (0, 2, 2)


class TestExpmAntiHermitian:
    # exp of 0x0 matrices, or of no matrix, is empty in the input's shape
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3, 3), (2, 0, 0)])
    def test_empty_exponent(self, shape):
        u = expm_antihermitian(np.zeros(shape))
        assert u.shape == shape and u.dtype == np.complex128

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

    def test_rejects_huge_non_antihermitian(self):
        # ||theta||_F overflows at entries of 1e200; the test must still fail
        with pytest.raises(NotAntiHermitianError) as excinfo:
            expm_antihermitian(1e200 * SX)
        assert excinfo.value.defect == pytest.approx(2e200 * np.sqrt(2))

    def test_rejects_a_small_defect_beside_a_huge_exponent(self):
        # the first matrix's sums of squares overflow; the second's relative
        # defect, about 1.6e-7, fails whatever its neighbour's size
        a = -1j * random_hermitian(np.random.default_rng(16), 3)
        with pytest.raises(NotAntiHermitianError) as excinfo:
            expm_antihermitian(np.stack([1e300 * a, a + 1e-7 * np.triu(np.ones((3, 3)), 1)]))
        assert excinfo.value.defect == pytest.approx(1e-7 * np.sqrt(6.0))

    def test_rejects_non_antihermitian_whose_defect_alone_overflows(self):
        # ||theta||_F**2 = 1.44e308 is finite, ||theta + theta†||_F**2 is not:
        # the check must measure the defect scaled, not report inf
        theta = 6e153 * np.array([[1, -1j], [1j, 1]])
        with pytest.raises(NotAntiHermitianError) as excinfo:
            expm_antihermitian(theta)
        assert excinfo.value.defect == pytest.approx(2.4e154)

    def test_huge_antihermitian_is_unitary(self):
        u = expm_antihermitian(-1e200j * SX)
        assert unitarity_defect(u) <= 1e-14

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(9)
        thetas = np.stack([-1j * random_hermitian(rng, 2) for _ in range(6)])
        batched = expm_antihermitian(thetas)
        for k in range(6):
            assert np.allclose(batched[k], expm_antihermitian(thetas[k]), atol=1e-14)

    # each matrix of a stack, and a single matrix, take the same SIMD loops
    # at d = 2, so a matrix's bits do not depend on how it is handed in
    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_single_matrix_has_its_bits_in_a_stack(self, dim):
        rng = np.random.default_rng(10)
        thetas = np.stack([-1j * random_hermitian(rng, dim) for _ in range(37)])
        batched = expm_antihermitian(thetas)
        for k in range(37):
            assert expm_antihermitian(thetas[k]).tobytes() == batched[k].tobytes(), k

    @pytest.mark.parametrize("dim", [2, 4])
    def test_real_antisymmetric_matrix_is_a_matrix(self, dim):
        # a float64 exponent is a matrix like any other, at every shape
        rng = np.random.default_rng(8)
        a = rng.normal(size=(dim, dim))
        a = a - a.T
        u = expm_antihermitian(a)
        assert u.shape == (dim, dim) and unitarity_defect(u) <= 1e-14
        assert u.tobytes() == expm_antihermitian(a.astype(np.complex128)).tobytes()
        assert np.allclose(u, expm_taylor(a.astype(np.complex128)), atol=1e-12)


def antihermitian_of_norm(rng, n, dim, norms):
    """``n`` random anti-Hermitian ``dim`` x ``dim`` matrices of the 1-norms ``norms``."""
    h = centred_hermitian(rng, (n, dim, dim))
    return -1j * h * (np.asarray(norms) / np.abs(h).sum(axis=-2).max(axis=-1))[:, None, None]


# Each Taylor degree of the d > 2 exponential, the 1-norm cut below which it
# is taken, bracketed, and the batched products it costs.
TAYLOR_TIERS = [
    (6, 0.0160, 0.0161, 3),
    (9, 0.1071, 0.1072, 4),
    (12, 0.3178, 0.3179, 5),
    (16, 0.7917, 0.7918, 6),
    (18, 1.1024, 1.1025, 7),
]
TAYLOR_CUTS = [linalg._taylor_norm_cut(degree, 2.0**-54) for degree, *_ in TAYLOR_TIERS]


def one_norms(thetas):
    return np.abs(thetas).sum(axis=-2).max(axis=-1)


def tier_of(norms):
    """The index in ``TAYLOR_TIERS`` of the lowest cut at or above each
    norm, ``len(TAYLOR_TIERS)`` (the eigendecomposition) above them all."""
    return sum((np.asarray(norms) > cut).astype(int) for cut in TAYLOR_CUTS)


def norms_in_tiers(rng, tiers):
    """A 1-norm inside each tier's interval, up to 4x the top cut for the
    eigendecomposition's."""
    bounds = [0.0] + TAYLOR_CUTS + [4.0 * TAYLOR_NORM_CUT]
    tiers = np.asarray(tiers)
    lo, hi = np.take(bounds, tiers), np.take(bounds, tiers + 1)
    return lo + rng.uniform(0.02, 0.98, len(tiers)) * (hi - lo)


class TestExpmMatrix:
    # the d > 2 kernel: the Taylor polynomial of the lowest degree whose cut
    # covers a matrix's 1-norm, the eigendecomposition above the top cut
    def test_the_cut_is_where_the_remainder_bound_reaches_half_a_unit_roundoff(self):
        def bound(x):
            return x**19 / math.factorial(19) / (1.0 - x / 20.0)

        assert 1.1024 < TAYLOR_NORM_CUT < 1.1025
        assert bound(TAYLOR_NORM_CUT) <= 2.0**-54 < bound(np.nextafter(TAYLOR_NORM_CUT, 2.0))

    @pytest.mark.parametrize("degree, lo, hi, products", TAYLOR_TIERS)
    def test_each_tier_cut_is_where_its_remainder_bound_reaches_half_a_unit_roundoff(self, degree, lo, hi, products):
        def bound(x):
            return x ** (degree + 1) / math.factorial(degree + 1) / (1.0 - x / (degree + 2))

        cut = dict(linalg._TAYLOR_TIERS)[degree]
        assert lo < cut < hi
        assert bound(cut) <= 2.0**-54 < bound(np.nextafter(cut, 2.0))

    def test_the_tiers_are_the_degrees_in_order_of_their_cuts(self):
        assert linalg.TAYLOR_DEGREES == tuple(degree for degree, *_ in TAYLOR_TIERS)
        assert linalg._TAYLOR_TIERS == tuple(zip(linalg.TAYLOR_DEGREES, TAYLOR_CUTS))
        assert TAYLOR_CUTS == sorted(TAYLOR_CUTS) and TAYLOR_CUTS[-1] == TAYLOR_NORM_CUT

    @pytest.mark.parametrize("degree, lo, hi, products", TAYLOR_TIERS)
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_each_degree_takes_its_number_of_batched_products(self, monkeypatch, degree, lo, hi, products, blocks):
        # that many products per row block, and the exponential's value
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
        rng = np.random.default_rng(740 + degree)
        rows = linalg.TAYLOR_BLOCK_BYTES // (16 * 8 * 8)
        thetas = antihermitian_of_norm(rng, blocks * rows, 8, np.full(blocks * rows, 0.9 * lo))
        got = linalg._expm_taylor(thetas, degree)
        assert len(calls) == blocks * products
        monkeypatch.undo()
        assert np.max(frobenius_norm(got - linalg._expm_eigh(thetas))) <= TAYLOR_EIGH_AGREEMENT_TOL

    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_each_matrix_gets_the_bits_it_gets_alone(self, dim):
        # a stack of two row blocks and a part of a third, its rows in every
        # tier in a random order
        rng = np.random.default_rng(700 + dim)
        n = 2 * (linalg.TAYLOR_BLOCK_BYTES // (16 * dim * dim)) + 5
        tiers = rng.permutation(n) % (len(TAYLOR_TIERS) + 1)
        thetas = antihermitian_of_norm(rng, n, dim, norms_in_tiers(rng, tiers))
        assert np.array_equal(tier_of(one_norms(thetas)), tiers)
        got = linalg._expm(thetas)
        assert got.tobytes() == expm_antihermitian(thetas).tobytes()
        for tier in range(len(TAYLOR_TIERS) + 1):
            for rows in (tiers == tier, (tiers == tier) | (tiers == tier + 1), tiers != tier):
                assert got[rows].tobytes() == linalg._expm(thetas[rows]).tobytes(), tier
        assert got[3:].tobytes() == linalg._expm(thetas[3:]).tobytes()
        for k in list(range(0, n, 97)) + [n - 1]:
            assert got[k].tobytes() == linalg._expm(thetas[k]).tobytes(), k
            assert got[k].tobytes() == expm_antihermitian(thetas[k]).tobytes(), k

    @pytest.mark.parametrize("dim", [3, 8, 16])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("degree", [degree for degree, *_ in TAYLOR_TIERS])
    def test_unitary_just_below_and_just_above_the_cut(self, dim, side, degree):
        # and, on each side of a Taylor tier's cut, the eigendecomposition's
        # value: the degrees on either side agree with it
        rng = np.random.default_rng(710 + dim)
        cut = dict(linalg._TAYLOR_TIERS)[degree]
        thetas = antihermitian_of_norm(rng, 256, dim, np.full(256, cut * (1.0 + side * 2.0**-40)))
        assert np.all((one_norms(thetas) <= cut) == (side < 0))
        got = linalg._expm(thetas)
        assert np.max(unitarity_defect(got)) <= UNITARITY_AT_THE_CUT_TOL
        assert np.max(frobenius_norm(got - linalg._expm_eigh(thetas))) <= TAYLOR_EIGH_AGREEMENT_TOL

    @pytest.mark.parametrize("dim", [3, 8, 16])
    @pytest.mark.parametrize("fraction", [1e-6, 0.1, 0.5, 1.0])
    def test_agrees_with_the_eigendecomposition_below_the_cut(self, dim, fraction):
        rng = np.random.default_rng(720 + dim)
        thetas = antihermitian_of_norm(rng, 64, dim, np.full(64, fraction * TAYLOR_NORM_CUT))
        got = linalg._expm(thetas)
        assert np.max(frobenius_norm(got - linalg._expm_eigh(thetas))) <= TAYLOR_EIGH_AGREEMENT_TOL

    @staticmethod
    def record_kernels(monkeypatch):
        """Replace both kernels by wrappers that append ``(degree, theta)``
        to the returned list, ``None`` for the eigendecomposition."""
        seen = []
        taylor, eigh = linalg._expm_taylor, linalg._expm_eigh
        monkeypatch.setattr(linalg, "_expm_taylor", lambda t, degree: seen.append((degree, t)) or taylor(t, degree))
        monkeypatch.setattr(linalg, "_expm_eigh", lambda t: seen.append((None, t)) or eigh(t))
        return seen

    @pytest.mark.parametrize("tier", range(len(TAYLOR_TIERS) + 1))
    def test_a_stack_in_one_tier_goes_to_its_kernel_whole(self, monkeypatch, tier):
        # no gather or scatter unless the stack spans tiers
        rng = np.random.default_rng(730 + tier)
        seen = self.record_kernels(monkeypatch)
        degree = (linalg.TAYLOR_DEGREES + (None,))[tier]
        thetas = antihermitian_of_norm(rng, 5, 4, norms_in_tiers(rng, [tier] * 5))
        for theta in (thetas, thetas[0]):
            seen.clear()
            linalg._expm(theta)
            assert len(seen) == 1 and seen[0][0] == degree and seen[0][1] is theta

    @staticmethod
    def record_tiers(monkeypatch):
        """Replace the tier lookup by a wrapper that appends ``(tier,
        theta)`` to the returned list and returns an empty result."""
        seen = []
        monkeypatch.setattr(linalg, "_expm_tier", lambda t, tier: seen.append((tier, t)) or np.empty_like(t))
        return seen

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("tier", range(len(TAYLOR_TIERS) + 1))
    def test_a_single_matrix_takes_the_one_tier_dispatch(self, monkeypatch, tier, dim):
        # as a stack in one tier does: one lookup, with its tier, of the
        # matrix itself
        rng = np.random.default_rng(750 + tier)
        seen = self.record_tiers(monkeypatch)
        (theta,) = antihermitian_of_norm(rng, 1, dim, norms_in_tiers(rng, [tier]))
        linalg._expm(theta)
        assert len(seen) == 1 and seen[0][0] == tier and seen[0][1] is theta

    def test_a_nan_norm_is_in_the_eigendecomposition_s_tier(self, monkeypatch):
        seen = self.record_tiers(monkeypatch)
        theta = np.zeros((3, 3), dtype=np.complex128)
        theta[1, 2] = np.nan
        linalg._expm(theta)
        assert len(seen) == 1 and seen[0][0] == len(TAYLOR_TIERS) and seen[0][1] is theta

    def test_a_stack_across_tiers_gives_each_tier_its_rows_once(self, monkeypatch):
        rng = np.random.default_rng(736)
        seen = self.record_kernels(monkeypatch)
        tiers = np.array([5, 2, 0, 2, 5, 3, 0])
        thetas = antihermitian_of_norm(rng, len(tiers), 4, norms_in_tiers(rng, tiers))
        linalg._expm(thetas)
        degrees = linalg.TAYLOR_DEGREES + (None,)
        assert [degree for degree, _ in seen] == [degrees[tier] for tier in (0, 2, 3, 5)]
        for (_, t), tier in zip(seen, (0, 2, 3, 5)):
            assert np.array_equal(t, thetas[tiers == tier])


class TestExpmSu2:
    # the d = 2 closed form of expm_antihermitian, against an independent
    # exponential: scipy's scaling-and-squaring Pade approximant
    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e3])
    def test_matches_scipy_expm(self, scale):
        from scipy.linalg import expm

        rng = np.random.default_rng(int(-np.log10(scale)) + 400)
        thetas = -1j * scale * centred_hermitian(rng, (64, 2, 2))
        got = expm_antihermitian(thetas)
        for theta, u in zip(thetas, got):
            assert frobenius_norm(u - expm(theta)) <= 4 * EPS * max(1.0, frobenius_norm(theta))

    def test_single_matrix_takes_the_closed_form(self):
        theta = -0.7j * SY + 0.2j * SZ - 0.4j * I2
        r = np.hypot(0.7, 0.2)
        want = np.exp(-0.4j) * (np.cos(r) * I2 - 1j * np.sin(r) / r * (0.7 * SY - 0.2 * SZ))
        assert frobenius_norm(expm_antihermitian(theta) - want) <= 4 * EPS

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_zero_exponent_is_the_identity_exactly(self, shape):
        assert np.array_equal(expm_antihermitian(np.zeros(shape)), np.broadcast_to(I2, shape))

    def test_huge_exponent_is_a_finite_unitary_without_warnings(self):
        rng = np.random.default_rng(17)
        theta = -1e200j * centred_hermitian(rng, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = expm_antihermitian(theta)
        assert np.all(np.isfinite(u))
        assert unitarity_defect(u) <= 1e-14

    def test_unitary_at_every_magnitude(self):
        # sin r / r is sin(r) divided by r: a re-rounded angle (np.sinc(r/pi))
        # loses unitarity entirely once an ulp of r is a sizeable angle
        rng = np.random.default_rng(18)
        scales = 10.0 ** rng.uniform(-3.0, 300.0, size=(512, 1, 1))
        u = expm_antihermitian(-1j * scales * centred_hermitian(rng, (512, 2, 2)))
        assert np.max(unitarity_defect(u)) <= 1e-14

    def test_rejects_non_antihermitian_stack_member(self):
        rng = np.random.default_rng(19)
        thetas = -1j * centred_hermitian(rng, (4, 2, 2))
        thetas[2] = SX
        with pytest.raises(NotAntiHermitianError):
            expm_antihermitian(thetas)


def rebuilt(v):
    """The matrices of the d = 2 exponential of su(2) coordinates ``v``:
    its Cayley-Klein rows, rebuilt by the one edge function."""
    return linalg._propagator_matrix(linalg._expm_su2(v))


class TestExpmOfCoordinates:
    # the unchecked d = 2 kernel the driver and step hand Theta's su(2)
    # coordinates (c, x, y, z) of theta = -i (c I + x sx + y sy + z sz) to:
    # the matrix path's result, to rounding, without forming the matrix
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_matrix_path(self, seed):
        # the matrix path rounds c + z and c - z into its diagonal, so the
        # two agree to a few ulps of the largest coordinate, and both are unitary
        rng = np.random.default_rng(600 + seed)
        shape = [(4,), (4, 1), (4, 4), (4, 500)][seed % 4]
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-300.0, 150.0, size=shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = rebuilt(v.copy())
        assert u.shape == shape[1:] + (2, 2)
        w = expm_antihermitian(su2_matrix(v))
        assert np.all(np.abs(u - w).max(axis=(-2, -1)) <= 4 * EPS * np.maximum(1.0, np.abs(v).max(axis=0)))
        assert np.max(unitarity_defect(u)) <= 1e-14

    def test_a_long_stack_has_the_bits_of_its_halves(self):
        # from 16384 steps (256 KiB per complex entry) numpy could take a
        # nameless temporary's product with the phase in place, operands
        # swapped, and a complex product is not bitwise commutative
        v = np.random.default_rng(620).normal(size=(4, 20000))
        halves = [rebuilt(v[:, :10000].copy()), rebuilt(v[:, 10000:].copy())]
        assert np.array_equal(rebuilt(v.copy()), np.concatenate(halves))

    def test_zeros_of_either_sign(self):
        # signed zeros give the identity exactly, and leave the other
        # coordinates' values as the matrix path has them
        signs = (0.0, -0.0)
        z = np.array(np.meshgrid(signs, signs, signs, signs, indexing="ij")).reshape(4, -1)
        assert np.array_equal(rebuilt(z.copy()), np.broadcast_to(I2, (16, 2, 2)))
        vals = (0.0, -0.0, 1.5, -2.25)
        v = np.array(np.meshgrid(vals, vals, vals, vals, indexing="ij")).reshape(4, -1)
        assert np.array_equal(rebuilt(v.copy()), expm_antihermitian(su2_matrix(v)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_non_finite_coordinate_is_the_value_error_of_the_matrix_check(self, bad, k, shape):
        # the kernel checks nothing; the matrix of a non-finite coordinate is
        # rejected by the one check, with no numpy warning
        v = np.ones(shape)
        v[k] = bad
        with np.errstate(invalid="ignore"):
            theta = su2_matrix(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf") as info:
                expm_antihermitian(theta)
        assert not isinstance(info.value, PreconditionError)

    def test_finite_coordinates_whose_entries_overflow_are_a_finite_unitary(self):
        # c - z = 2e308 is no float, so the matrix has an infinite entry; the
        # kernel never forms it and exponentiates the coordinates as they are
        v = np.array([1e308, 0.0, 0.0, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = rebuilt(v.copy())
        assert np.all(np.isfinite(u)) and unitarity_defect(u) <= 1e-14
        assert u[0, 0] == pytest.approx(1.0, abs=4 * EPS) and u[0, 1] == 0 and u[1, 0] == 0


def matrix_expm_su2(v):
    """The d = 2 exponential that formed each step's 2x2 matrix itself,
    before two-level propagators were kept in Cayley-Klein form: the phase
    ``e^{-ic}`` times each entry of ``cos r I - i (sin r / r) (x sx + y sy
    + z sz)``, the phase the left operand of every product, each entry a
    named array."""
    c, x, y, z = np.array(v, dtype=np.float64)
    r = np.hypot(np.hypot(x, y), z)
    sinc = np.divide(np.sin(r), r, out=np.ones(r.shape), where=r > 0)
    cos = np.cos(r)
    phase = np.exp(-1j * c)
    x *= sinc
    y *= sinc
    z *= sinc
    out = np.empty(r.shape + (2, 2), dtype=np.complex128)
    entry = cos - 1j * z
    out[..., 0, 0] = phase * entry
    entry = cos + 1j * z
    out[..., 1, 1] = phase * entry
    entry = -y - 1j * x
    out[..., 0, 1] = phase * entry
    entry = y - 1j * x
    out[..., 1, 0] = phase * entry
    return out


# Largest entry of a Cayley-Klein product's rebuilt matrix off the product
# of the factors' rebuilt matrices, relative to 1 + |phi_a + phi_b|: the
# phase rounds as a sum of angles, the matrix product entry by entry.
# Measured at most 1.6 eps on seeded factors of coordinates 1e-3 to 100
# (0.9 eps, 2.0e-16, where both phases are 0).
CK_PRODUCT_TOL = 4 * EPS

# Largest entry of a rebuilt exponential off the matrix exponential's,
# relative to max(1, r): r = sqrt(x*x + y*y + z*z) can leave the nested
# hypot by an ulp or two, which moves cos r and sin r by as much times r,
# and where cos r < 1/2 the row's alpha - 1 = cos r - 1 rounds, so 1 +
# (alpha - 1) can leave cos r by an ulp.  Measured at most 1.6 eps on
# seeded stacks of coordinates 1e-3 to 100 (5.4e-14 at r near 300); 55% of
# those steps keep their bits, as does every one whose r and hypot's agree
# and whose cos r >= 1/2.  Of 16384 steps of coordinates about 0.01, as a
# fine grid's, all but one keep their bits, that one within 0.5 eps.
CK_REBUILT_TOL = 4 * EPS

# Stack sizes of the exponential's bit comparisons: one step, short stacks,
# a level of the tree of a 16384-step chunk, and a whole chunk.
CK_STACK_SIZES = [1, 2, 3, 7, 100, 1024, 8192, 16384]


def ck_stack(rng, n, scale=1.0):
    """Cayley-Klein rows of ``n`` steps of seeded su(2) coordinates."""
    return linalg._expm(scale * rng.normal(size=(4, n)))


class TestCayleyKlein:
    # two-level propagators as (alpha, beta, phi): the exponential, the
    # product, the identity and the one edge function, _propagator_matrix
    @pytest.mark.parametrize("n", CK_STACK_SIZES)
    def test_rebuilt_matrices_have_the_bits_of_the_matrix_exponential(self, n):
        # coordinates over five decades, so r takes every range of sin r / r;
        # the same bits wherever r is hypot's and cos r >= 1/2, within
        # CK_REBUILT_TOL max(1, r) elsewhere
        rng = np.random.default_rng(1000 + n)
        v = rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(4, n))
        u = linalg._expm(v)
        assert u.shape == (n, 5) and u.dtype == np.float64
        got, want = linalg._propagator_matrix(u), matrix_expm_su2(v)
        r = np.hypot(np.hypot(v[1], v[2]), v[3])
        near = (np.sqrt(v[1] ** 2 + v[2] ** 2 + v[3] ** 2) == r) & (np.cos(r) >= 0.5)
        assert same_bits(got[near], want[near])
        assert np.all(np.abs(got - want) <= CK_REBUILT_TOL * np.maximum(1.0, r)[:, None, None])

    def test_fine_grid_steps_keep_the_bits_of_the_matrix_exponential(self):
        rng = np.random.default_rng(1005)
        v = rng.normal(size=(4, 16384)) * 0.01
        got, want = linalg._propagator_matrix(linalg._expm(v)), matrix_expm_su2(v)
        same = [g.tobytes() == w.tobytes() for g, w in zip(got, want)]
        assert sum(same) >= 16383 and np.all(np.abs(got - want) <= 0.5 * EPS)

    def test_a_single_step_has_the_bits_of_a_stack_of_one(self):
        rng = np.random.default_rng(1010)
        for v in rng.normal(size=(64, 4)) * 3.0:
            u = linalg._expm(v)
            assert u.shape == (5,)
            assert same_bits(u, linalg._expm(v[:, None])[0])
            assert same_bits(linalg._propagator_matrix(u), linalg._propagator_matrix(u[None])[0])

    def test_the_rows_are_alpha_minus_one_beta_and_phi(self):
        v = np.array([0.4, 0.3, -0.2, 0.7])
        r = np.sqrt(0.3**2 + 0.2**2 + 0.7**2)
        s = np.sin(r) / r
        want = [np.cos(r) - 1.0, -s * 0.7, s * -0.2, -s * 0.3, 0.4]
        assert np.allclose(linalg._expm(v), want, rtol=0, atol=2 * EPS)

    @pytest.mark.parametrize("n", [1, 10, 1000, 8192])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0])
    def test_product_agrees_with_the_product_of_the_rebuilt_matrices(self, n, scale):
        rng = np.random.default_rng(1020 + n)
        a, b = ck_stack(rng, n, scale), ck_stack(rng, n, scale)
        got = linalg._propagator_matrix(linalg._product(a, b))
        want = linalg._propagator_matrix(a) @ linalg._propagator_matrix(b)
        dev = np.max(np.abs(got - want), axis=(-2, -1))
        assert np.all(dev <= CK_PRODUCT_TOL * (1.0 + np.abs(a[:, 4] + b[:, 4])))

    def test_product_of_single_rows_has_the_bits_of_a_stack_s(self):
        rng = np.random.default_rng(1030)
        a, b = ck_stack(rng, 64), ck_stack(rng, 64)
        whole = linalg._product(a, b)
        for k in range(64):
            assert same_bits(linalg._product(a[k], b[k]), whole[k]), k

    def test_product_writes_a_strided_out(self):
        # as the prefixes' down-sweep writes every other row
        rng = np.random.default_rng(1040)
        a, b = ck_stack(rng, 9), ck_stack(rng, 9)
        out = np.full((18, 5), np.nan)
        assert linalg._product(a, b, out=out[1::2]).base is out
        assert same_bits(out[1::2].copy(), linalg._product(a, b)) and np.all(np.isnan(out[0::2]))

    @pytest.mark.parametrize("n", [1, 1000])
    def test_the_identity_on_either_side_changes_no_bit(self, n):
        # so the identity a piece of odd length is padded with carries its
        # last factor up unchanged, and the identity carry of a grid's first
        # chunk leaves its prefixes as the tree makes them
        rng = np.random.default_rng(1050 + n)
        u = ck_stack(rng, n, 3.0)
        eye = linalg._identity(u)
        assert same_bits(eye, np.zeros(5))
        stacked = np.broadcast_to(eye, u.shape).copy()
        assert same_bits(linalg._product(u, stacked), u)
        assert same_bits(linalg._product(stacked, u), u)
        for row in u[:16]:
            assert same_bits(linalg._product(row, eye), row)
            assert same_bits(linalg._product(eye, row), row)
        assert np.array_equal(linalg._propagator_matrix(eye), I2)

    @pytest.mark.parametrize(
        "v",
        [
            (0.0, 0.0, 0.0, 0.0),
            (-0.0, -0.0, 0.0, -0.0),
            (1e300, 0.0, 0.0, 0.0),
            (-1e300, 0.3, -0.2, 0.1),
            (0.5, 1e300, 0.0, 0.0),
            (0.0, 6e299, -7e299, 5e299),
            (-1e300, -1e300, 1e300, -1e300),
        ],
        ids=["zero", "signed-zeros", "huge-c", "huge-negative-c", "huge-r", "huge-r-every-axis", "all-huge"],
    )
    def test_extreme_exponents_give_a_finite_unitary(self, v):
        v = np.array(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = linalg._expm(v)
            m = linalg._propagator_matrix(u)
            squared = linalg._product(u, u)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(m)) and np.all(np.isfinite(squared))
        assert unitarity_defect(m) <= 1e-14
        _, defects = linalg._observables(np.stack([u, squared]), np.array([1.0, 0.0]))
        assert np.all(defects <= 1e-14)
        if not np.any(v[1:]):
            # r = 0: alpha = 1 and beta = 0 exactly
            assert list(u[:4]) == [0.0, 0.0, 0.0, 0.0]

    def test_observables_of_cayley_klein_rows(self):
        # populations |alpha a - conj(beta) b|**2 and |beta a + conj(alpha)
        # b|**2 are |U psi|**2 of the rebuilt matrix, the phase dropped, and
        # the defect is sqrt(2) ||alpha|**2 + |beta|**2 - 1|, bit for bit,
        # from d = alpha - 1 as 2 re d + |d|**2 + |beta|**2
        rng = np.random.default_rng(1060)
        u = ck_stack(rng, 200, 10.0)
        u[:, 2:4] *= 1.0 + 1e-12 * rng.normal(size=(200, 1))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        populations, defects = linalg._observables(u, psi)
        assert populations.shape == (200, 2) and defects.shape == (200,)
        m = linalg._propagator_matrix(u)
        assert np.max(np.abs(populations - np.abs(m @ psi) ** 2)) <= 8 * EPS
        dr, di, br, bi = u[:, :4].T
        assert same_bits(defects, math.sqrt(2.0) * np.abs(2.0 * dr + (((dr * dr + di * di) + br * br) + bi * bi)))
        assert np.max(np.abs(defects - unitarity_defect(m))) <= 8 * EPS

    @pytest.mark.parametrize("scale", [2e150, 1e200, 1e307])
    def test_coordinates_whose_squares_overflow_take_the_nested_hypot(self, scale):
        # past 1e150 the sum of squares could leave the float range: the
        # whole stack takes r = hypot(hypot(x, y), z), finite and unitary
        rng = np.random.default_rng(1070)
        v = rng.uniform(-0.5, 0.5, size=(4, 16))
        v[1:, 3] *= scale / np.max(np.abs(v[1:, 3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = linalg._expm(v)
        r = np.hypot(np.hypot(v[1], v[2]), v[3])
        s = np.divide(np.sin(r), r, out=np.ones(r.shape), where=r > 0)
        assert same_bits(u[:, 0], np.cos(r) - 1.0) and same_bits(u[:, 2], s * v[2])
        _, defects = linalg._observables(u, np.array([1.0, 0.0]))
        assert np.all(np.isfinite(u)) and np.all(defects <= 1e-14)

    def test_below_the_squares_range_r_is_the_root_of_the_sum_of_squares(self):
        rng = np.random.default_rng(1071)
        v = rng.normal(size=(4, 64)) * 1e149
        r = np.sqrt(v[1] * v[1] + v[2] * v[2] + v[3] * v[3])
        assert same_bits(linalg._expm(v)[:, 0], np.cos(r) - 1.0)

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_matrices_take_numpy_s_product_and_observables(self, dim):
        # the functions the tree shares at every d are numpy's own above 2
        rng = np.random.default_rng(1080 + dim)
        a, b = (linalg._expm(-1j * centred_hermitian(rng, (6, dim, dim))) for _ in range(2))
        assert same_bits(linalg._product(a, b), np.matmul(a, b))
        out = np.empty_like(a)
        assert linalg._product(a, b, out=out) is out and same_bits(out, np.matmul(a, b))
        assert same_bits(linalg._identity(a), np.eye(dim, dtype=np.complex128))
        assert linalg._propagator_matrix(a) is a
        psi = np.eye(dim)[0]
        populations, defects = linalg._observables(a, psi)
        assert same_bits(populations, np.abs(a @ psi) ** 2) and same_bits(defects, unitarity_defect(a))
