import inspect
import math
import re

import numpy as np
import pytest

from magstep import evolution, linalg, magnus_steps
from magstep.evolution import convergence_study, propagate, relative_error
from magstep.hamiltonians import EntrySpec, HamiltonianModel, SinusoidTerm, builtin_case
from magstep.linalg import (
    DimensionMismatchError,
    PreconditionError,
    dagger,
    expm_antihermitian,
    frobenius_norm,
    unitarity_defect,
)
from magstep.magnus_steps import (
    ALL_METHODS,
    GAUSS2_HI,
    GAUSS2_LO,
    GAUSS3_HI,
    GAUSS3_LO,
    MethodId,
    MissingNodeError,
    NonHermitianSampleError,
    SAMPLE_HERMITICITY_TOL,
    as_matrix,
    exponent,
    generators,
    omega1_boole,
    omega1_simpson,
    omega2_cubic,
    omega2_linear,
    omega2_quadratic,
    omega3_linear,
    omega3_quadratic,
    omega4_linear,
    sample_nodes,
    step,
)
from magstep.verify import random_hermitian

from conftest import SX, SY, SZ, smooth_sampler


def random_samples(rng, method, dim):
    return {node: random_hermitian(rng, dim) for node in sample_nodes(method)}


class TestMethodIds:
    def test_all_methods_order(self):
        assert [m.value for m in ALL_METHODS] == [
            "me2",
            "me3",
            "me4-full",
            "me4-nc",
            "me6",
            "blanes4",
            "blanes4-gauss",
            "iserles4-gauss",
            "blanes6-gauss",
        ]
        assert ALL_METHODS == tuple(MethodId)

    def test_from_name(self):
        assert MethodId.from_name("ME4-Full") is MethodId.ME4_FULL

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="me2"):
            MethodId.from_name("runge-kutta")


# the TypeError of a method given as anything but a MethodId: it names the
# argument and lists the valid methods
NOT_A_METHOD = "^method must be a MethodId, got 'me2'; valid methods: " + re.escape(", ".join(m.value for m in MethodId))


class TestMethodIsAMethodId:
    # each entry point refuses a method's name with the TypeError naming the
    # argument, before it samples anything, and not the KeyError of the
    # scheme table
    def test_sample_nodes(self):
        with pytest.raises(TypeError, match=NOT_A_METHOD):
            sample_nodes("me2")

    def test_exponent(self):
        with pytest.raises(TypeError, match=NOT_A_METHOD):
            exponent("me2", {0.0: SX, 1.0: SX}, 0.1)

    @pytest.mark.parametrize("method", ["me2", None, 2, MethodId])
    def test_step_samples_nothing(self, method):
        times = []

        def sampler(t):
            times.append(t)
            return SX

        with pytest.raises(TypeError, match=f"^method must be a MethodId, got {re.escape(repr(method))}; valid methods: "):
            step(method, sampler, 0.0, 0.1)
        assert times == []


class TestSampleNodes:
    def test_endpoint_methods(self):
        assert sample_nodes(MethodId.ME2) == (0.0, 1.0)

    def test_simpson_methods(self):
        for m in (MethodId.ME3, MethodId.ME4_FULL, MethodId.ME4_NC, MethodId.BLANES4):
            assert sample_nodes(m) == (0.0, 0.5, 1.0)

    def test_two_point_gauss(self):
        expected = (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6)
        for m in (MethodId.BLANES4_GAUSS, MethodId.ISERLES4_GAUSS):
            assert sample_nodes(m) == pytest.approx(expected)
        assert GAUSS2_LO + GAUSS2_HI == pytest.approx(1.0)

    def test_three_point_gauss(self):
        assert sample_nodes(MethodId.BLANES6_GAUSS) == pytest.approx(
            (0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10)
        )
        assert GAUSS3_LO + GAUSS3_HI == pytest.approx(1.0)

    def test_seven_node_method(self):
        assert sample_nodes(MethodId.ME6) == (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)

    def test_nodes_sorted_within_unit_interval(self):
        for m in ALL_METHODS:
            nodes = sample_nodes(m)
            assert list(nodes) == sorted(nodes)
            assert all(0.0 <= nu <= 1.0 for nu in nodes)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_builder_takes_one_generator_per_node(self, method):
        nodes, builder = magnus_steps._SCHEMES[method]
        assert nodes == sample_nodes(method)
        params = inspect.signature(builder).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
        assert len(params) == len(nodes)


class TestExponent:
    def test_commuting_limit_is_plain_exponent(self):
        # constant samples: every commutator drops, every rule has unit weight sum
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 3)
        dt = 0.37
        for m in ALL_METHODS:
            samples = {node: h for node in sample_nodes(m)}
            theta = exponent(m, samples, dt)
            assert frobenius_norm(theta - (-1j * dt) * h) <= 1e-13 * frobenius_norm(h)

    def test_third_order_pauli_value(self):
        # hand evaluation: Theta = -(i/2)(sz+sx) + (i/6) sy
        samples = {0.0: SZ, 0.5: 0.5 * (SZ + SX), 1.0: SX}
        theta = exponent(MethodId.ME3, samples, 1.0)
        expected = -0.5j * (SZ + SX) + (1j / 6) * SY
        assert np.allclose(theta, expected, atol=1e-15)

    def test_exponent_is_antihermitian(self):
        rng = np.random.default_rng(42)
        for m in ALL_METHODS:
            for _ in range(30):
                dim = int(rng.integers(2, 7))
                theta = exponent(m, random_samples(rng, m, dim), float(rng.uniform(0.1, 1.0)))
                assert frobenius_norm(theta + dagger(theta)) <= 1e-12 * max(1.0, frobenius_norm(theta))

    def test_hbar_rescaling_consistency(self):
        # Theta(H, hbar=s) must equal Theta(H/s, hbar=1) for every scheme; this
        # pins the hbar power on each nested-commutator term.
        rng = np.random.default_rng(8)
        s = 3.7
        for m in ALL_METHODS:
            samples = random_samples(rng, m, 3)
            scaled = {k: v / s for k, v in samples.items()}
            theta_a = exponent(m, samples, 0.83, hbar=s)
            theta_b = exponent(m, scaled, 0.83, hbar=1.0)
            assert frobenius_norm(theta_a - theta_b) <= 1e-14 * max(1.0, frobenius_norm(theta_b))

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_caller_samples_are_left_unchanged(self, method):
        rng = np.random.default_rng(8)
        samples = {node: np.stack([random_hermitian(rng, 3) for _ in range(2)]) for node in sample_nodes(method)}
        copies = {node: h.copy() for node, h in samples.items()}
        arrays = dict(samples)
        exponent(method, samples, 0.4, hbar=0.7)
        assert list(samples) == list(copies)
        for node, h in samples.items():
            assert h is arrays[node]
            assert np.array_equal(h, copies[node])

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_coordinate_samples_give_the_matrix_samples_bits(self, method):
        # a two-level model's path in the driver: _theta of its su(2)
        # coordinates gives coordinates whose matrix has the bits of
        # exponent of the matrices
        rng = np.random.default_rng(21)
        matrices = {node: np.stack([random_hermitian(rng, 2) for _ in range(5)]) for node in sample_nodes(method)}
        dts = rng.uniform(0.1, 1.0, 5)
        for dt in (0.37, dts):
            want = exponent(method, matrices, dt, hbar=0.9)
            coords = [linalg.su2_coordinates(h) for h in matrices.values()]
            theta = magnus_steps._theta(method, coords, dt, 0.9)
            assert (theta.dtype, theta.shape, want.shape) == (np.float64, (4, 5), (5, 2, 2))
            assert as_matrix(theta).tobytes() == want.tobytes()
        single = [linalg.su2_coordinates(h[0]) for h in matrices.values()]
        theta = magnus_steps._theta(method, single, 0.37, 1.0)
        assert theta.shape == (4,)
        assert as_matrix(theta).tobytes() == exponent(method, {n: h[0] for n, h in matrices.items()}, 0.37).tobytes()

    def test_real_identity_samples_give_a_complex_4x4_theta(self):
        theta = exponent(MethodId.ME2, {0.0: np.eye(4), 1.0: np.eye(4)}, 0.1)
        assert theta.dtype == np.complex128 and theta.shape == (4, 4)
        assert np.array_equal(theta, -0.1j * np.eye(4))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_a_real_4_by_n_sample_is_a_non_square_matrix(self, n):
        samples = {0.0: np.ones((4, n)), 1.0: np.ones((4, n))}
        with pytest.raises(DimensionMismatchError, match=rf"square matrix, got shape \(4, {n}\)"):
            exponent(MethodId.ME2, samples, 0.1)

    def test_step_reads_a_real_4x4_sample_as_a_matrix(self):
        h = np.diag([1.0, -1.0, 0.5, 2.0])
        u = step(MethodId.ME2, lambda t: h, 0.0, 0.3)
        assert np.allclose(u, np.diag(np.exp(-0.3j * np.diag(h))), atol=1e-14)

    def test_missing_node_is_named(self):
        with pytest.raises(MissingNodeError, match="0.5"):
            exponent(MethodId.ME3, {0.0: SZ, 1.0: SX}, 0.1)

    def test_non_hermitian_sample_rejected(self):
        samples = {0.0: SZ, 0.5: SZ + 0.01j * np.eye(2), 1.0: SX}
        with pytest.raises(NonHermitianSampleError) as excinfo:
            exponent(MethodId.ME3, samples, 0.1)
        # sample minus its adjoint is 0.02j * I, with Frobenius norm 0.02*sqrt(2)
        assert excinfo.value.defect == pytest.approx(0.02 * np.sqrt(2))

    def test_sample_tolerance_independent_of_expm_tolerance(self):
        # the sample check has its own tolerance, not the exponent's: a 1e-6
        # defect is small but 1e4 times SAMPLE_HERMITICITY_TOL, so it is rejected
        eps = 1e-6 / (2.0 * np.sqrt(2.0))  # Hermiticity defect of SZ + i*eps*I is 1e-6
        samples = {0.0: SZ, 0.5: SZ + 1j * eps * np.eye(2), 1.0: SX}
        with pytest.raises(NonHermitianSampleError) as excinfo:
            exponent(MethodId.ME3, samples, 0.1)
        assert excinfo.value.defect == pytest.approx(1e-6)
        assert f"{SAMPLE_HERMITICITY_TOL:.3e}" in str(excinfo.value)

    def test_mixed_stack_lengths_rejected_naming_the_nodes(self):
        # broadcasting a 1-stack against a 5-stack must not yield 5 exponents
        samples = {0.0: np.stack([SZ]), 1.0: np.stack([SX] * 5)}
        with pytest.raises(DimensionMismatchError, match=r"node 0\.0: \(1, 2, 2\), node 1\.0: \(5, 2, 2\)"):
            exponent(MethodId.ME2, samples, 0.1)

    def test_mixed_dims_rejected_naming_the_nodes(self):
        samples = {0.0: SZ, 0.5: SZ, 1.0: np.eye(3)}
        with pytest.raises(DimensionMismatchError, match=r"node 0\.5: \(2, 2\), node 1\.0: \(3, 3\)"):
            exponent(MethodId.ME3, samples, 0.1)

    def test_coordinate_and_matrix_stacks_of_one_array_shape_rejected(self):
        # nine 2x2 samples become (4, 3, 3) generator coordinates, the array
        # shape of four 3x3 samples: the shapes compared are the matrices'
        samples = {0.0: np.zeros((3, 3, 2, 2)), 1.0: np.zeros((4, 3, 3))}
        with pytest.raises(DimensionMismatchError, match=r"node 0\.0: \(3, 3, 2, 2\), node 1\.0: \(4, 3, 3\)"):
            exponent(MethodId.ME2, samples, 0.1)

    # a non-finite t_k, or a step whose end overflows, is named before any
    # sample: no sample-check failure naming neither, no numpy warning first
    @pytest.mark.parametrize("t_k, dt", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (1e308, 1e308)],
                             ids=["nan", "inf", "-inf", "end-overflows"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_non_finite_t_k_raises_a_value_error_naming_it(self, method, dim, t_k, dt):
        entries = {(0, 1): EntrySpec(0.5, (SinusoidTerm(1.0, 2.0),)), (dim - 1, dim - 1): EntrySpec(1.0)}
        model = HamiltonianModel(dim, entries)

        def sampler(t):
            pytest.fail("sampled")

        with np.errstate(all="raise"):
            for s in (model.sample, sampler):
                with pytest.raises(ValueError, match="t_k and t_k \\+ dt must be finite, got t_k=") as info:
                    step(method, s, t_k, dt)
                assert not isinstance(info.value, PreconditionError)

    # a t_k that is not a real number is named, not by math.isfinite's bare
    # TypeError, before the sampler is called
    @pytest.mark.parametrize("t_k", [None, "0", 1j], ids=["none", "str", "complex"])
    def test_a_t_k_that_is_not_a_real_number_is_a_type_error_naming_it(self, t_k):
        def sampler(t):
            pytest.fail("sampled")

        for s in (builtin_case("I").sample, sampler):
            with pytest.raises(TypeError, match=f"^t_k must be a real number, got {re.escape(repr(t_k))}$"):
                step(MethodId.ME2, s, t_k, 0.1)

    @pytest.mark.parametrize("t_k", [np.float64(0.25), np.int64(1)], ids=["float64", "int64"])
    def test_a_numpy_t_k_steps(self, t_k):
        sample = builtin_case("I").sample
        assert step(MethodId.ME6, sample, t_k, 0.1).tobytes() == step(MethodId.ME6, sample, float(t_k), 0.1).tobytes()

    def test_a_finite_step_near_the_float_limit_still_steps(self):
        u = step(MethodId.ME4_NC, builtin_case("I").sample, 1e308, -1.0)
        assert unitarity_defect(u) < 1e-14

    def test_nan_sample_rejected(self):
        samples = {0.0: SZ, 0.5: np.full((2, 2), np.nan), 1.0: SX}
        with pytest.raises(ValueError, match="NaN or Inf"):
            exponent(MethodId.ME3, samples, 0.1)

    def test_huge_non_hermitian_sample_rejected(self):
        # ||sample||_F overflows to inf at entries of 1e200; the relative test
        # must not turn into defect <= inf
        samples = {0.0: 1e200 * (SZ + 1j * np.eye(2)), 1.0: SZ}
        with pytest.raises(NonHermitianSampleError) as excinfo:
            exponent(MethodId.ME2, samples, 0.1)
        assert excinfo.value.node == 0.0
        assert excinfo.value.defect == pytest.approx(2e200 * np.sqrt(2))

    def test_non_hermitian_sample_whose_defect_alone_overflows(self):
        # ||a||_F**2 = 1.44e308 is finite, ||a - a†||_F**2 is not: the check
        # must measure the defect scaled, not report inf
        a = 6e153 * np.array([[1j, 1], [-1, 1j]])
        with pytest.raises(NonHermitianSampleError) as excinfo:
            exponent(MethodId.ME2, {0.0: a, 1.0: a}, 0.1)
        assert excinfo.value.node == 0.0
        assert excinfo.value.defect == pytest.approx(2.4e154)

    def test_huge_hermitian_sample_accepted(self):
        theta = exponent(MethodId.ME2, {0.0: 1e200 * SZ, 1.0: 1e200 * SX}, 1e-200)
        assert np.allclose(theta, -0.5j * (SZ + SX), atol=1e-15)

    def test_builders_assemble_the_term_functions(self):
        # Theta = Omega_1 + Omega_2 (+ Omega_3 + Omega_4), every term taken on
        # the generator samples A = -i (dt / hbar) H
        rng = np.random.default_rng(5)
        dt, hbar = 0.61, 0.37
        scale = -1j * (np.float64(dt) / hbar)
        h = [random_hermitian(rng, 3) for _ in range(7)]
        a0, aq1, at1, ah, at2, aq3, a1 = (scale * x for x in h)
        omega1 = omega1_simpson(a0, ah, a1)
        expected = {
            MethodId.ME3: omega1 + omega2_linear(a0, a1),
            MethodId.ME4_NC: omega1 + omega2_quadratic(a0, ah, a1),
            MethodId.ME4_FULL: omega1 + omega2_quadratic(a0, ah, a1) + omega3_linear(a0, a1),
            MethodId.ME6: omega1_boole(a0, aq1, ah, aq3, a1)
            + omega2_cubic(a0, at1, at2, a1)
            + omega3_quadratic(a0, ah, a1)
            + omega4_linear(a0, a1),
        }
        by_node = dict(zip(sample_nodes(MethodId.ME6), h))
        for m, want in expected.items():
            theta = exponent(m, {node: by_node[node] for node in sample_nodes(m)}, dt, hbar=hbar)
            assert frobenius_norm(theta - want) <= 1e-15 * frobenius_norm(want)

    @pytest.mark.parametrize(
        "method, hbar",
        [(MethodId.ME2, 1e-310), (MethodId.ME6, 1e-81), (MethodId.BLANES6_GAUSS, 1e-81)],
        ids=["me2-tau", "me6-bracket", "blanes6-gauss-bracket"],
    )
    def test_overflowing_exponent_is_a_precondition_naming_dt_over_hbar(self, method, hbar):
        # dt/hbar itself past the float range, or finite generators whose
        # fourfold brackets overflow: one PreconditionError, never a NaN or
        # Inf exponent
        samples = random_samples(np.random.default_rng(9), method, 2)
        with pytest.raises(PreconditionError, match="dt/hbar"):
            exponent(method, samples, 1.0, hbar=hbar)

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_per_step_dt_equals_one_call_per_step(self, method, dim):
        # steps of several grids in one stack: each gets exactly its own exponent
        rng = np.random.default_rng(70 + dim)
        dts = np.array([0.3, 0.1, -0.2, 0.7, 1e-3, 0.3])
        samples = {
            node: np.stack([random_hermitian(rng, dim) for _ in dts]) for node in sample_nodes(method)
        }
        got = exponent(method, samples, dts, hbar=1.7)
        want = np.stack([
            exponent(method, {node: h[k] for node, h in samples.items()}, dt, hbar=1.7)
            for k, dt in enumerate(dts)
        ])
        assert np.array_equal(got, want)

    # a per-step dt gives one step per matrix of a stack; any other shape is
    # refused naming dt and both shapes, at d = 2 as at d = 3, where numpy
    # broadcast some of them into a stack of another shape and refused others
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "stack, dt_shape, want",
        [((), (2,), "a scalar"), ((), (1,), "a scalar"), ((5,), (5, 1), "a scalar or of shape (5,)"),
         ((5,), (4,), "a scalar or of shape (5,)"), ((1,), (1, 1), "a scalar or of shape (1,)")],
    )
    def test_a_dt_of_another_shape_is_refused_naming_both(self, dim, stack, dt_shape, want):
        shape = (*stack, dim, dim)
        samples = {node: np.broadcast_to(np.eye(dim), shape) for node in sample_nodes(MethodId.ME4_NC)}
        message = re.escape(f"dt must be {want} for samples of shape {shape}, got dt of shape {dt_shape}")
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            exponent(MethodId.ME4_NC, samples, np.full(dt_shape, 0.1))
        assert not isinstance(info.value, PreconditionError)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stack", [(), (1,), (5,)])
    def test_a_scalar_or_one_dt_per_matrix_is_taken(self, dim, stack):
        rng = np.random.default_rng(dim)
        samples = {node: np.broadcast_to(random_hermitian(rng, dim), (*stack, dim, dim)) for node in sample_nodes(MethodId.ME2)}
        scalar = exponent(MethodId.ME2, samples, 0.3)
        assert scalar.shape == (*stack, dim, dim)
        assert np.array_equal(exponent(MethodId.ME2, samples, np.full(stack, 0.3)), scalar)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_names_the_largest_per_step_dt(self, dim):
        h = np.stack([random_hermitian(np.random.default_rng(8), dim)] * 3)
        samples = {node: h for node in sample_nodes(MethodId.ME2)}
        with pytest.raises(PreconditionError, match=r"dt/hbar = -1\.000e\+300/1\.000e-10"):
            exponent(MethodId.ME2, samples, np.array([0.5, -1e300, 2.0]), hbar=1e-10)


# a few roundings of half an ulp each, relative to the sample
GENERATOR_ROUNDING_TOL = 4 * np.finfo(float).eps



class TestHbar:
    # hbar is a plain number, checked once, where exponent reads it and
    # before it checks a sample (the NaN one below); every entry point
    # reaches that check before it builds an exponent
    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["exponent", "step", "propagate", "convergence_study"])
    def test_bad_hbar_raises_a_value_error_naming_it(self, entry, hbar):
        model = builtin_case("I")
        calls = {
            "exponent": lambda: exponent(MethodId.ME2, {0.0: np.full((2, 2), np.nan), 1.0: SZ}, 0.1, hbar=hbar),
            "step": lambda: step(MethodId.ME2, model.sample, 0.0, 0.1, hbar=hbar),
            "propagate": lambda: propagate(MethodId.ME2, model, 0.0, 1.0, 4, [1, 0], hbar=hbar),
            "convergence_study": lambda: convergence_study(
                model, [MethodId.ME2], dts=[0.5, 0.25], tf=1.0, hbar=hbar
            ),
        }
        with pytest.raises(ValueError, match="hbar must be positive and finite") as info:
            calls[entry]()
        assert not isinstance(info.value, PreconditionError)

    # an hbar that is not a real number is named, not by '>''s bare
    # TypeError, before its other checks and before any sample is checked
    @pytest.mark.parametrize("hbar", ["1", None, 1j], ids=["str", "none", "complex"])
    @pytest.mark.parametrize("entry", ["exponent", "step", "propagate", "convergence_study"])
    def test_an_hbar_that_is_not_a_real_number_is_a_type_error_naming_it(self, entry, hbar):
        model = builtin_case("I")
        calls = {
            "exponent": lambda: exponent(MethodId.ME2, {0.0: np.full((2, 2), np.nan), 1.0: SZ}, 0.1, hbar=hbar),
            "step": lambda: step(MethodId.ME2, model.sample, 0.0, 0.1, hbar=hbar),
            "propagate": lambda: propagate(MethodId.ME2, model, 0.0, 1.0, 4, [1, 0], hbar=hbar),
            "convergence_study": lambda: convergence_study(
                model, [MethodId.ME2], dts=[0.5, 0.25], tf=1.0, hbar=hbar
            ),
        }
        with pytest.raises(TypeError, match=f"^hbar must be a real number, got {re.escape(repr(hbar))}$"):
            calls[entry]()

    @pytest.mark.parametrize("hbar", [np.float32(0.5), np.int64(2)], ids=["float32", "int64"])
    def test_a_numpy_hbar_is_taken(self, hbar):
        samples = {0.0: SX, 1.0: SZ}
        assert exponent(MethodId.ME2, samples, 0.1, hbar=hbar).tobytes() == exponent(
            MethodId.ME2, samples, 0.1, hbar=float(hbar)
        ).tobytes()


class TestGenerators:
    # the one place the builders' representation is chosen
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_generator_is_minus_i_tau_h_in_place_of_the_sample(self, dim):
        rng = np.random.default_rng(60 + dim)
        h = [np.stack([random_hermitian(rng, dim) for _ in range(3)]) for _ in range(2)]
        copies = [x.copy() for x in h]
        tau = np.float64(0.7)
        out = generators(h, tau)
        assert out is h
        for g, x in zip(out, copies):
            if dim == 2:
                assert g.shape == (4, 3) and g.dtype == np.float64
                assert np.array_equal(g, tau * linalg.su2_coordinates(x))
            else:
                assert np.array_equal(g, (-1j * tau) * x)
            # c and z of a 2x2 sample pass through c +- z and back
            bound = GENERATOR_ROUNDING_TOL * tau * frobenius_norm(x)
            assert np.all(frobenius_norm(as_matrix(g) - (-1j * tau) * x) <= bound)

    def test_caller_arrays_are_not_modified(self):
        rng = np.random.default_rng(64)
        for dim in (2, 3):
            x = random_hermitian(rng, dim)
            copy = x.copy()
            generators([x], 0.5)
            assert np.array_equal(x, copy)

    def test_coordinate_views_sharing_memory_are_left_unchanged(self):
        # a two-level model's node 0 and node 1 view one array of grid
        # coordinates, overlapping
        ends = np.random.default_rng(3).normal(size=(4, 6))
        copy = ends.copy()
        out = generators([ends[:, :-1], ends[:, 1:]], 0.625)
        assert ends.tobytes() == copy.tobytes()
        assert [g.tobytes() for g in out] == [(0.625 * copy[:, :-1]).tobytes(), (0.625 * copy[:, 1:]).tobytes()]

    def test_as_matrix_returns_a_matrix_as_it_is(self):
        a = -1j * np.asarray(SX, dtype=complex)
        assert as_matrix(a) is a


class TestStep:
    def test_zero_hamiltonian_gives_identity(self):
        for m in ALL_METHODS:
            u = step(m, lambda t: np.zeros((2, 2)), 0.0, 0.3)
            assert np.allclose(u, np.eye(2), atol=1e-15)

    # a 0x0 Hamiltonian steps by the 0x0 propagator, as its exponent is 0x0
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_empty_hamiltonian_gives_an_empty_propagator(self, method):
        u = step(method, lambda t: np.zeros((0, 0)), 0.0, 0.1)
        assert u.shape == (0, 0) and u.dtype == np.complex128

    def test_constant_sigma_z_quarter_turn(self):
        expected = np.diag([-1j, 1j])
        for m in ALL_METHODS:
            u = step(m, lambda t: SZ, 1.3, np.pi / 2)
            assert np.allclose(u, expected, atol=1e-13)

    def test_zero_dt_rejected(self):
        with pytest.raises(PreconditionError):
            step(MethodId.ME2, lambda t: SZ, 0.0, 0.0)

    # a non-finite dt is named before the sampler is called: no NaN
    # propagator at d = 2, no numpy eigh failure at d = 3
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_non_finite_dt_raises_a_value_error_naming_it(self, method, dim, dt):
        def sampler(t):
            pytest.fail("sampled")

        with pytest.raises(ValueError, match="dt must be finite") as info:
            step(method, sampler, 0.0, dt)
        assert not isinstance(info.value, PreconditionError)
        with pytest.raises(ValueError, match="dt must be finite") as info:
            exponent(method, {node: np.eye(dim) for node in sample_nodes(method)}, dt)
        assert not isinstance(info.value, PreconditionError)

    # step takes a scalar dt only: an array, even of one zero, is refused
    # naming its shape before dt = 0 is tested or the sampler is called
    @pytest.mark.parametrize("dt", [[0.1, 0.2], [0.0], [[0.1]]], ids=["two", "one-zero", "nested"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_an_array_dt_is_refused_naming_its_shape(self, dim, dt):
        def sampler(t):
            pytest.fail("sampled")

        message = re.escape(f"dt must be a scalar for one step, got dt of shape {np.shape(dt)}")
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            step(MethodId.ME2, sampler, 0.0, np.array(dt))
        assert not isinstance(info.value, PreconditionError)
        # a 0-d array is a scalar
        assert np.array_equal(step(MethodId.ME2, lambda t: np.eye(dim), 0.0, np.array(0.25)),
                              step(MethodId.ME2, lambda t: np.eye(dim), 0.0, 0.25))

    def test_a_per_step_dt_with_one_nan_names_its_step(self):
        samples = {node: np.stack([np.eye(3)] * 3) for node in sample_nodes(MethodId.ME4_NC)}
        with pytest.raises(ValueError, match="dt must be finite, got nan at step 1"):
            exponent(MethodId.ME4_NC, samples, np.array([0.1, np.nan, 0.2]))

    def test_dt_is_checked_after_hbar(self):
        for call in (lambda hbar: exponent(MethodId.ME2, {0.0: SZ, 1.0: SZ}, np.nan, hbar=hbar),
                     lambda hbar: step(MethodId.ME2, lambda t: SZ, 0.0, np.nan, hbar=hbar)):
            with pytest.raises(ValueError, match="hbar"):
                call(0.0)
            with pytest.raises(ValueError, match="dt must be finite"):
                call(1.0)

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            step(MethodId.ME6, lambda t: SZ if t < 0.5 else np.full((2, 2), np.nan), 0.0, 1.0)

    def test_unitarity_random_samples(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for m in ALL_METHODS:
            for _ in range(60):
                dim = int(rng.integers(2, 9))
                theta = exponent(m, random_samples(rng, m, dim), float(rng.uniform(0.05, 1.0)))
                worst = max(worst, unitarity_defect(expm_antihermitian(theta)))
        assert worst <= 1e-12

    def test_backward_step_is_adjoint(self):
        # nodes are symmetric under nu -> 1 - nu, so the backward step over the
        # same interval must be the conjugate transpose of the forward step
        rng = np.random.default_rng(17)
        a0, a1, a2 = (random_hermitian(rng, 3) for _ in range(3))

        def sampler(t):
            return a0 + a1 * np.sin(1.1 * t) + a2 * np.cos(0.6 * t)

        for m in ALL_METHODS:
            fwd = step(m, sampler, 0.4, 0.25)
            bwd = step(m, sampler, 0.65, -0.25)
            assert frobenius_norm(bwd - dagger(fwd)) <= 1e-12


H3 = random_hermitian(np.random.default_rng(3), 3)
SKEW3 = np.triu(np.ones((3, 3)), 1)

# me6's seven single 3x3 samples: H3 at every node but these, a matrix by
# node index or None for a node left out
ONE_CALL_CASES = {
    "missing": {3: None},
    "nan-before-missing": {1: np.full((3, 3), np.nan), 3: None},
    "non-square": {k: np.ones((3, 2)) for k in range(7)},
    "mixed-shapes": {3: np.eye(2)},
    "nan": {2: np.full((3, 3), np.nan)},
    "inf": {6: np.diag([np.inf, 0.0, 0.0])},
    "non-hermitian-first": {0: H3 + SKEW3},
    "non-hermitian-middle": {3: H3 + SKEW3},
    "non-hermitian-last": {6: H3 + SKEW3},
    "non-hermitian-and-mixed-shapes": {1: np.eye(2), 4: H3 + SKEW3},
    "mixed-shapes-then-non-hermitian": {1: np.eye(2), 4: np.triu(np.ones((2, 2)))},
    # a node with entries of 1e300 beside one whose relative defect is 1e-7:
    # one power of two for the whole stack would read the latter's defect 0
    "rescale": {0: 1e300 * np.diag([1.0, -1.0, 0.5]), 6: H3 + 1e-7 * SKEW3},
    "not-numbers": {4: np.full((3, 3), "x")},
    "hermitian": {2: np.diag([1.0, 2.0, 3.0])},
    "hermitian-huge": {5: 1e200 * np.diag([1.0, -1.0, 2.0])},
    "hermitian-nested-lists": {k: H3.tolist() for k in range(7)},
    "empty": {k: np.zeros((0, 0)) for k in range(7)},
}
# the value faults with a (2, 3, 3) stack at every node: H3, then that
# node's single matrix
ONE_CALL_CASES |= {
    f"stacked-{case}": {k: np.stack([H3, h]) for k, h in ONE_CALL_CASES[case].items()}
    for case in ("nan", "inf", "non-hermitian-first", "non-hermitian-middle", "non-hermitian-last", "rescale")
}
# entries of 1e300 and a relative defect of about 6.5e-7 in one node's
# stack: one power of two for the stack would read the latter's defect 0
ONE_CALL_CASES["stacked-rescale-in-one-node"] = {3: np.stack([1e300 * H3, H3 + 1e-6 * SKEW3])}


def me6_samples(case):
    overrides = ONE_CALL_CASES[case]
    default = np.stack([H3, H3]) if case.startswith("stacked") else H3
    picked = {node: overrides.get(k, default) for k, node in enumerate(sample_nodes(MethodId.ME6))}
    return {node: h for node, h in picked.items() if h is not None}


def outcome(call):
    """The exception type, message and node ``call()`` raises, or its result's bytes."""
    try:
        return call().tobytes()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "node", None)


def checked_square(a, sign):
    """``linalg.checked_square`` with the largest ratio and defect of a
    stack's matrices, for the reference below."""
    arr, ratio, defect = linalg.checked_square(a, sign)
    return arr, np.maximum.reduce(ratio, axis=None, initial=0.0), np.maximum.reduce(defect, axis=None, initial=0.0)


def per_node_check(method, samples):
    """The sample check node by node, in node order, one ``checked_square``
    call per node: the reference whose outcome, by type, message and node,
    ``magnus_steps._checked_samples``'s one call must have."""
    nodes = magnus_steps._SCHEMES[method][0]
    out = []
    for node in nodes:
        if node not in samples:
            raise MissingNodeError(f"missing Hamiltonian sample at node {node!r} for {method.value}")
        h, ratio, defect = checked_square(samples[node], 1)
        if not ratio <= SAMPLE_HERMITICITY_TOL:
            raise NonHermitianSampleError(node, defect, SAMPLE_HERMITICITY_TOL)
        out.append(h)
    if len({h.shape for h in out}) > 1:
        shapes = ", ".join(f"node {node}: {h.shape}" for node, h in zip(nodes, out))
        raise DimensionMismatchError(f"Hamiltonian samples for {method.value} differ in shape ({shapes})")
    return out


class TestOneCallSampleCheck:
    # every node's matrices are checked by one checked_square call over their
    # stack, and each input must raise what the per-node loop raises, by
    # type, message and node, or give the bytes it gives

    # a step samples every node, so it takes the cases that leave none out
    @pytest.mark.parametrize(
        "case, entry",
        [(case, "exponent") for case in ONE_CALL_CASES]
        + [
            (case, "step")
            for case, overrides in ONE_CALL_CASES.items()
            if all(h is not None for h in overrides.values())
        ],
    )
    def test_outcome_is_the_per_node_loops(self, monkeypatch, case, entry):
        samples = me6_samples(case)
        if entry == "exponent":
            call = lambda: exponent(MethodId.ME6, samples, 0.1)
        else:
            # t_k = 0 and dt = 1, so each sampled time is its node
            call = lambda: step(MethodId.ME6, lambda t: samples[t], 0.0, 1.0)
        got = outcome(call)
        monkeypatch.setattr(magnus_steps, "_checked_samples", per_node_check)
        assert got == outcome(call)
        assert isinstance(got, bytes) == case.startswith(("hermitian", "empty"))

    @pytest.mark.parametrize(
        "case, node, defect",
        [("rescale", 1.0, 1e-7), ("stacked-rescale", 1.0, 1e-7), ("stacked-rescale-in-one-node", 0.5, 1e-6)],
    )
    def test_rescale_case_names_the_small_node(self, case, node, defect):
        with pytest.raises(NonHermitianSampleError) as info:
            exponent(MethodId.ME6, me6_samples(case), 0.1)
        assert info.value.node == node
        assert info.value.defect == pytest.approx(defect * np.sqrt(6.0))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_one_check_per_single_matrix_step(self, monkeypatch, method, dim):
        h = random_hermitian(np.random.default_rng(dim), dim)
        calls = []

        def counted(a, sign):
            calls.append(np.shape(a))
            return linalg.checked_square(a, sign)

        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        step(method, lambda t: h, 0.0, 0.3)
        assert calls == [(len(sample_nodes(method)), dim, dim)]

    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_one_check_per_stacked_exponent(self, monkeypatch, lead):
        # every node's stack in one call, whatever the stacks' leading shape
        calls = []

        def counted(a, sign):
            calls.append(np.shape(a))
            return linalg.checked_square(a, sign)

        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        theta = exponent(MethodId.ME6, {node: np.broadcast_to(H3, lead + (3, 3)) for node in sample_nodes(MethodId.ME6)}, 0.1)
        assert theta.shape == lead + (3, 3)
        assert calls == [(7 * math.prod(lead), 3, 3)]


# Steps per stack from which an array of the step pipeline reaches 256 KiB,
# the size from which numpy may take a product with a nameless temporary in
# place, operands swapped: at d = 2 one complex entry of the propagators,
# 16 bytes a step; at d = 3 Theta, 144 bytes a step (2**18 / 144 = 1820.4).
LONG_STACKS = {2: 16384, 3: 1821}

# Steps per slice of the same stack, each far below that size.
SHORT_SLICE = 128


class TestLongStacks:
    # complex multiply is not bitwise commutative (the SIMD loop uses FMA), so
    # a product numpy computes in place as ``temp *= a`` may round otherwise
    # than ``a * temp``: each step's bits must not depend on its stack's length
    @pytest.mark.parametrize("dim", sorted(LONG_STACKS))
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_a_long_stack_has_the_bits_of_its_short_slices(self, method, dim):
        rng = np.random.default_rng(900 + dim)
        n = LONG_STACKS[dim]
        if dim == 2:
            # a two-level model's su(2) coordinates, as the driver samples them
            samples = [rng.normal(size=(4, n)) for _ in sample_nodes(method)]
        else:
            shape = (len(sample_nodes(method)), n, dim, dim)
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            samples = list(0.5 * (b + dagger(b)))
        # at d = 3, steps of 1-norm from about 3e-3 to 5, in every tier of the exponential
        dt = 10.0 ** rng.uniform(-3.0, 0.0, n)

        def propagators(lo, hi):
            # at d = 2 the Cayley-Klein rows' matrices, as step forms them
            return linalg._propagator_matrix(linalg._expm(magnus_steps._theta(method, [h[..., lo:hi] if dim == 2 else h[lo:hi] for h in samples], dt[lo:hi], 1.0)))

        whole = propagators(0, n)
        assert (whole[:, 0, 0] if dim == 2 else whole).nbytes >= 2**18
        sliced = [propagators(lo, lo + SHORT_SLICE) for lo in range(0, n, SHORT_SLICE)]
        assert whole.tobytes() == np.concatenate(sliced).tobytes()


def gate_kernel(theta):
    """``exp(theta)`` of one d > 2 matrix by the kernel its 1-norm picks,
    compared cut by cut: the lowest Taylor tier whose cut covers the norm,
    the eigendecomposition past the top cut or at a NaN norm."""
    norm = np.abs(theta).sum(axis=-2).max()
    for degree, cut in linalg._TAYLOR_TIERS:
        if norm <= cut:
            return degree, linalg._expm_taylor(theta, degree)
    return None, linalg._expm_eigh(theta)


class TestStepKernels:
    # step's single matrix goes through the tier dispatch the driver's
    # stacks take, once, and gets the kernel, and the bits, that comparing
    # its 1-norm with each cut gives it
    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_step_has_the_bits_of_its_tier_kernel(self, monkeypatch, method, dim):
        rng = np.random.default_rng(950 + dim)
        sampler = smooth_sampler(rng, dim)
        tiers, lookup = [], linalg._expm_tier
        monkeypatch.setattr(linalg, "_expm_tier", lambda t, tier: tiers.append(tier) or lookup(t, tier))
        degrees = set()
        # steps dense enough in size to put a Theta in every tier
        for dt in np.geomspace(1e-4, 2.0, 48).tolist():
            t_k = float(rng.uniform(-1.0, 1.0))
            theta = exponent(method, {node: sampler(t_k + node * dt) for node in sample_nodes(method)}, dt)
            degree, want = gate_kernel(theta)
            degrees.add(degree)
            tiers.clear()
            assert step(method, sampler, t_k, dt).tobytes() == want.tobytes(), dt
            assert tiers == [(linalg.TAYLOR_DEGREES + (None,)).index(degree)]
        assert degrees == set(linalg.TAYLOR_DEGREES) | {None}

    # a single step's su(2) coordinates are exponentiated as a stack of one,
    # so step gives a step the bits the step pipeline gives it, at d = 2 as
    # above: at d = 2 numpy's scalar complex multiply and its SIMD loop
    # differ in the last bit
    @pytest.mark.parametrize("sampler", ["model", "callable", "dim3"])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_step_has_the_bits_of_the_step_pipeline(self, method, sampler):
        model = builtin_case("II")
        call = smooth_sampler(np.random.default_rng(953), 3) if sampler == "dim3" else model.sample
        source = model if sampler == "model" else call
        dim = 3 if sampler == "dim3" else 2
        for t0 in (0.0, 0.5, 3.0):
            (want,) = evolution._final_propagators([(method, 1)], source, t0, t0 + 0.25, dim)
            assert step(method, call, t0, 0.25).tobytes() == want.tobytes(), t0

    # every step of a chunk on a grid whose times and step are exact floats,
    # its Cayley-Klein row made a matrix by linalg._propagator_matrix, as
    # step's result is
    @pytest.mark.parametrize("case", ["I", "II", "IV"])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_step_has_the_bits_of_each_step_of_a_chunk(self, method, case):
        model = builtin_case(case)
        [(_, u)] = evolution._step_chunks([(method, 16)], model, 0.0, 4.0, 2)
        for k in range(16):
            assert step(method, model.sample, 0.25 * k, 0.25).tobytes() == linalg._propagator_matrix(u[k]).tobytes(), k

    # step is its checks and sampling around _step_stack, the pipeline the
    # symmetry suite runs on stacks of its draws: each step of a stack, its
    # own sampler, start and signed size, has the bits step gives it alone,
    # across every tier of the d > 2 exponential in one stack
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_step_has_the_bits_of_its_row_of_a_stack(self, monkeypatch, method, dim):
        rng = np.random.default_rng(960 + dim)
        n = 24
        samplers = [smooth_sampler(rng, dim) for _ in range(n)]
        t_k = rng.uniform(-1.0, 1.0, n).tolist()
        dt = (rng.choice([-1.0, 1.0], n) * np.geomspace(1e-3, 4.0, n)).tolist()
        samples = {node: np.array([f(t + node * h) for f, t, h in zip(samplers, t_k, dt)]) for node in sample_nodes(method)}
        tiers, lookup = [], linalg._expm_tier
        monkeypatch.setattr(linalg, "_expm_tier", lambda t, tier: tiers.append(tier) or lookup(t, tier))
        stack = magnus_steps._step_stack(method, samples, np.array(dt), 1.0)
        assert stack.shape == (n, dim, dim)
        assert min(dt) < 0.0 < max(dt)
        if dim > 2:
            assert len(tiers) >= 4 and tiers[-1] == len(linalg.TAYLOR_DEGREES), tiers
        for k in range(n):
            assert step(method, samplers[k], t_k[k], dt[k]).tobytes() == stack[k].tobytes(), k


EXPECTED_LOCAL_SLOPE = {
    MethodId.ME2: 3,
    MethodId.ME3: 5,
    MethodId.ME4_FULL: 5,
    MethodId.ME4_NC: 5,
    MethodId.ME6: 7,
    MethodId.BLANES4: 5,
    MethodId.BLANES4_GAUSS: 5,
    MethodId.ISERLES4_GAUSS: 5,
    MethodId.BLANES6_GAUSS: 7,
}


class TestLocalOrder:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_single_step_error_scaling(self, method):
        # single-step error against the 6th-order scheme on a 1000x finer grid
        model = builtin_case("I")
        t_k = 0.3
        dts = [0.6, 0.45, 0.3, 0.2] if EXPECTED_LOCAL_SLOPE[method] == 7 else [0.4, 0.3, 0.2, 0.15, 0.1]
        errs = []
        for dt in dts:
            u = step(method, model.sample, t_k, dt)
            ref = propagate(
                MethodId.ME6, model, t_k, t_k + dt, 1000, [1, 0]
            ).final_propagator
            errs.append(relative_error(u, ref))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        expected = EXPECTED_LOCAL_SLOPE[method]
        if method is MethodId.ME3:
            # nominally order 3, practically order 4: local slope at least 5
            assert slope >= expected - 0.4
        else:
            assert abs(slope - expected) <= 0.4

    def test_me4_full_small_step_vs_substepped_reference(self):
        model = builtin_case("I")
        u = step(MethodId.ME4_FULL, model.sample, 0.0, 0.1)
        ref = propagate(MethodId.ME6, model, 0.0, 0.1, 1000, [1, 0]).final_propagator
        assert relative_error(u, ref) < 1e-6


class TestCommutingFamilyReduction:
    # H(t) = f(t) * H0 with polynomial f: commutators vanish and the step is
    # the plain exponential of the method's scalar quadrature of f
    DEGREE3 = (
        MethodId.ME3,
        MethodId.ME4_FULL,
        MethodId.ME4_NC,
        MethodId.BLANES4,
        MethodId.BLANES4_GAUSS,
        MethodId.ISERLES4_GAUSS,
    )
    DEGREE5 = (MethodId.ME6, MethodId.BLANES6_GAUSS)

    @staticmethod
    def _check(methods, coeffs, t0, dt):
        rng = np.random.default_rng(23)
        h0 = random_hermitian(rng, 2)
        poly = np.polynomial.Polynomial(coeffs)
        integral = poly.integ()(t0 + dt) - poly.integ()(t0)
        exact = expm_antihermitian(-1j * integral * h0)
        for m in methods:
            u = step(m, lambda t: poly(t) * h0, t0, dt)
            assert relative_error(u, exact) <= 1e-13, m

    def test_cubic_families(self):
        self._check(self.DEGREE3, [0.4, -1.2, 0.9, 0.3], t0=0.2, dt=0.9)

    def test_quintic_families(self):
        self._check(self.DEGREE5, [0.4, -1.2, 0.9, 0.3, -0.5, 0.2], t0=0.2, dt=0.9)

    def test_constant_family_all_methods(self):
        self._check(ALL_METHODS, [0.7], t0=-0.3, dt=1.0)


# Relative agreement of the one-product bracket with the two-product
# linalg.commutator, in units of ||a||_F ||b||_F.
BRACKET_AGREEMENT_TOL = 1e-14
# Relative agreement of the skew normal forms with the printed sums of brackets.
SKEW_FORM_TOL = 1e-14


class TestOneProductBracket:
    @staticmethod
    def operands(rng, dim, kinds):
        # "h": Hermitian, "a": anti-Hermitian, as stacks of four matrices
        make = {"h": lambda: random_hermitian(rng, dim), "a": lambda: -1j * random_hermitian(rng, dim)}
        return [np.stack([make[kind]() for _ in range(4)]) for kind in kinds]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("kinds", ["hh", "aa"])
    def test_equals_two_product_commutator(self, dim, kinds):
        rng = np.random.default_rng(dim)
        a, b = self.operands(rng, dim, kinds)
        got = magnus_steps.commutator(a, b)
        want = linalg.commutator(a, b)
        bound = BRACKET_AGREEMENT_TOL * frobenius_norm(a) * frobenius_norm(b)
        assert np.all(frobenius_norm(got - want) <= bound)
        assert np.all(frobenius_norm(got + dagger(got)) == 0.0)

    @pytest.mark.parametrize("lead", [(), (4,)], ids=["single", "stack"])
    def test_coordinate_bracket_is_the_matrix_bracket(self, lead):
        # real su(2) coordinates: (0, 2 a x b), the coordinates of [A, B]
        rng = np.random.default_rng(30 + len(lead))
        a, b = rng.normal(size=(4,) + lead), rng.normal(size=(4,) + lead)
        got = magnus_steps.commutator(a, b)
        assert got.shape == a.shape and got.dtype == np.float64
        assert np.all(got[0] == 0.0)
        want = linalg.su2_coordinates(1j * linalg.commutator(linalg.su2_matrix(a), linalg.su2_matrix(b)))
        bound = BRACKET_AGREEMENT_TOL * np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
        assert np.all(np.linalg.norm(got - want, axis=0) <= bound)

    def test_operands_are_not_modified(self):
        rng = np.random.default_rng(4)
        a, b = self.operands(rng, 3, "aa")
        a_copy, b_copy = a.copy(), b.copy()
        magnus_steps.commutator(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_every_operand_is_exactly_antihermitian(self, monkeypatch, method):
        # the one bracket convention: from exactly Hermitian samples, every
        # operand a builder passes to the kernel is an exactly anti-Hermitian
        # combination of generators A = -i (dt / hbar) H.  At d = 2 the
        # operands are the real su(2) coordinates of such combinations, and
        # any real coordinates are those of an anti-Hermitian matrix.
        operands = []
        kernel = magnus_steps.commutator

        def recorded(a, b):
            operands.extend((a, b))
            return kernel(a, b)

        monkeypatch.setattr(magnus_steps, "commutator", recorded)
        rng = np.random.default_rng(12)
        for dim in (2, 3, 8):
            operands.clear()
            samples = {
                node: np.stack([random_hermitian(rng, dim) for _ in range(3)]) for node in sample_nodes(method)
            }
            assert all(np.array_equal(h, dagger(h)) for h in samples.values())
            exponent(method, samples, 0.7, hbar=0.61)
            assert len(operands) == 2 * TestBracketCount.EXPECTED[method]
            for operand in operands:
                if dim == 2:
                    assert operand.dtype == np.float64 and operand.shape == (4, 3)
                else:
                    assert np.all(frobenius_norm(operand + dagger(operand)) == 0.0)


class TestSkewNormalForms:
    # The paper's printed sums of brackets, on the generator samples and kept
    # here only, against the regrouped forms the step builders use.
    @staticmethod
    def printed_omega2_cubic(a0, at1, at2, a1):
        c = linalg.commutator
        return (1.0 / 6720.0) * (
            117.0 * (c(at1, a0) + c(a1, at2))
            + 47.0 * c(a1, a0)
            + 144.0 * (c(a1, at1) + c(at2, a0))
            + 729.0 * c(at2, at1)
        )

    @staticmethod
    def printed_omega3_quadratic(a0, ah, a1):
        c = linalg.commutator
        return (1.0 / 15120.0) * (
            64.0 * c(ah + a1, c(ah, a0))
            + 64.0 * c(ah + a0, c(ah, a1))
            + 44.0 * (c(a0, c(a0, ah)) + c(a1, c(a1, ah)))
            + 9.0 * c(a1 - a0, c(a1, a0))
        )

    @staticmethod
    def generators(rng, dim, count):
        # the Hermitian draws, then the step they are scaled by
        h = [random_hermitian(rng, dim) for _ in range(count)]
        tau = float(rng.uniform(0.1, 2.0))
        return [(-1j * tau) * x for x in h]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_omega2_cubic_matches_printed_form(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            a0, at1, at2, a1 = self.generators(rng, dim, 4)
            want = self.printed_omega2_cubic(a0, at1, at2, a1)
            got = omega2_cubic(a0, at1, at2, a1)
            assert frobenius_norm(got - want) <= SKEW_FORM_TOL * frobenius_norm(want)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_omega3_quadratic_matches_printed_form(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(20):
            a0, ah, a1 = self.generators(rng, dim, 3)
            want = self.printed_omega3_quadratic(a0, ah, a1)
            got = omega3_quadratic(a0, ah, a1)
            assert frobenius_norm(got - want) <= SKEW_FORM_TOL * frobenius_norm(want)


class TestBracketCount:
    # brackets per exponent, all through magnus_steps.commutator
    EXPECTED = {
        MethodId.ME2: 0,
        MethodId.ME3: 1,
        MethodId.ME4_FULL: 3,
        MethodId.ME4_NC: 1,
        MethodId.ME6: 11,
        MethodId.BLANES4: 1,
        MethodId.BLANES4_GAUSS: 1,
        MethodId.ISERLES4_GAUSS: 2,
        MethodId.BLANES6_GAUSS: 4,
    }

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_brackets_per_exponent(self, monkeypatch, method):
        calls = []
        kernel = magnus_steps.commutator

        def counted(a, b):
            calls.append(1)
            return kernel(a, b)

        monkeypatch.setattr(magnus_steps, "commutator", counted)
        rng = np.random.default_rng(6)
        samples = {
            node: np.stack([random_hermitian(rng, 2) for _ in range(5)]) for node in sample_nodes(method)
        }
        theta = exponent(method, samples, 0.3)
        assert theta.shape == (5, 2, 2)
        assert len(calls) == self.EXPECTED[method]
