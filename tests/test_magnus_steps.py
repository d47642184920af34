import numpy as np
import pytest

from magstep.evolution import propagate, relative_error
from magstep.hamiltonians import builtin_case
from magstep.linalg import (
    DimensionMismatchError,
    PreconditionError,
    anti_hermiticity_defect,
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
    StepContext,
    exponent,
    m1_boole,
    m1_simpson,
    m2_cubic,
    m2_linear,
    m2_quadratic,
    m3_linear,
    m3_quadratic,
    m4_linear,
    sample_nodes,
    step,
)
from magstep.verify import random_hermitian

from conftest import SX, SY, SZ


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

    def test_from_name(self):
        assert MethodId.from_name("ME4-Full") is MethodId.ME4_FULL

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="me2"):
            MethodId.from_name("runge-kutta")


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
                assert anti_hermiticity_defect(theta) <= 1e-12 * max(1.0, frobenius_norm(theta))

    def test_hbar_rescaling_consistency(self):
        # Theta(H, hbar=s) must equal Theta(H/s, hbar=1) for every scheme; this
        # pins the hbar power on each nested-commutator term.
        rng = np.random.default_rng(8)
        s = 3.7
        for m in ALL_METHODS:
            samples = random_samples(rng, m, 3)
            scaled = {k: v / s for k, v in samples.items()}
            theta_a = exponent(m, samples, 0.83, StepContext(hbar=s))
            theta_b = exponent(m, scaled, 0.83, StepContext(hbar=1.0))
            assert frobenius_norm(theta_a - theta_b) <= 1e-14 * max(1.0, frobenius_norm(theta_b))

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

    def test_nan_sample_rejected(self):
        samples = {0.0: SZ, 0.5: np.full((2, 2), np.nan), 1.0: SX}
        with pytest.raises(ValueError, match="NaN or Inf"):
            exponent(MethodId.ME3, samples, 0.1)

    def test_builders_assemble_the_term_functions(self):
        # Theta = -i M1 - M2/2 + i M3/6 + M4/24, every term taken at tau = dt / hbar
        rng = np.random.default_rng(5)
        dt, ctx = 0.61, StepContext(hbar=0.37)
        tau = dt / ctx.hbar
        h0, hq1, ht1, hh, ht2, hq3, h1 = (random_hermitian(rng, 3) for _ in range(7))
        m1 = -1j * m1_simpson(h0, hh, h1, tau)
        m2_quad = m2_quadratic(h0, hh, h1, tau) / 2.0
        expected = {
            MethodId.ME3: m1 - m2_linear(h0, h1, tau) / 2.0,
            MethodId.ME4_NC: m1 - m2_quad,
            MethodId.ME4_FULL: m1 - m2_quad + (1j / 6.0) * m3_linear(h0, h1, tau),
            MethodId.ME6: -1j * m1_boole(h0, hq1, hh, hq3, h1, tau)
            - m2_cubic(h0, ht1, ht2, h1, tau) / 2.0
            + (1j / 6.0) * m3_quadratic(h0, hh, h1, tau)
            + m4_linear(h0, h1, tau) / 24.0,
        }
        by_node = dict(zip(sample_nodes(MethodId.ME6), (h0, hq1, ht1, hh, ht2, hq3, h1)))
        for m, want in expected.items():
            theta = exponent(m, {node: by_node[node] for node in sample_nodes(m)}, dt, ctx)
            assert frobenius_norm(theta - want) <= 1e-15 * frobenius_norm(want)


class TestStep:
    def test_zero_hamiltonian_gives_identity(self):
        for m in ALL_METHODS:
            u = step(m, lambda t: np.zeros((2, 2)), 0.0, 0.3)
            assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_constant_sigma_z_quarter_turn(self):
        expected = np.diag([-1j, 1j])
        for m in ALL_METHODS:
            u = step(m, lambda t: SZ, 1.3, np.pi / 2)
            assert np.allclose(u, expected, atol=1e-13)

    def test_zero_dt_rejected(self):
        with pytest.raises(PreconditionError):
            step(MethodId.ME2, lambda t: SZ, 0.0, 0.0)

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
