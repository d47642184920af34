import numpy as np
import pytest

from magstep import verify
from magstep.linalg import commutator, frobenius_norm
from magstep.magnus_steps import (
    GAUSS2_HI,
    GAUSS2_LO,
    QUAD_COMMUTATOR_ROOT,
    MethodId,
    exponent,
)
from magstep.verify import (
    CheckReport,
    OracleConfig,
    check_closed_forms,
    check_symmetry_suite,
    interpolant,
    oracle_Mn,
    random_hermitian,
)

from conftest import SX, SZ

CFG = OracleConfig(gl_points_per_axis=8, seed=0, dim=2, dt=1.0)


class TestInterpolant:
    def test_linear_midpoint_is_average(self):
        h = interpolant([SZ, SX], 1, 0.0, 1.0)
        assert np.allclose(h(0.5), 0.5 * (SZ + SX))

    def test_quadratic_exactness(self):
        rng = np.random.default_rng(1)
        poly = lambda t: 0.3 - 1.1 * t + 0.7 * t * t
        dt = 0.8
        samples = [poly(x * dt) * SZ for x in (0.0, 0.5, 1.0)]
        h = interpolant(samples, 2, 0.0, dt)
        for t in rng.uniform(0.0, dt, 50):
            assert np.allclose(h(t), poly(t) * SZ, atol=1e-13)

    def test_cubic_through_thirds(self):
        dt = 1.5
        samples = [(x * dt) ** 3 * SX for x in (0, 1 / 3, 2 / 3, 1.0)]
        h = interpolant(samples, 3, 0.0, dt)
        for t in np.linspace(0, dt, 17):
            assert np.allclose(h(t), t**3 * SX, atol=1e-12)

    def test_degree_zero_is_constant(self):
        h = interpolant([SX], 0, 0.0, 1.0)
        assert np.allclose(h(0.123), SX)

    @pytest.mark.parametrize("degree", range(5))
    def test_array_of_times_matches_scalar_calls(self, degree):
        rng = np.random.default_rng(30 + degree)
        samples = [random_hermitian(rng, 3) for _ in range(degree + 1)]
        h = interpolant(samples, degree, 0.2, 0.9)
        ts = rng.uniform(0.2, 1.1, (3, 4))
        got = h(ts)
        assert got.shape == (3, 4, 3, 3)
        expected = np.stack([np.stack([h(t) for t in row]) for row in ts])
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            interpolant([SZ, SX], 2, 0.0, 1.0)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="degree"):
            interpolant([SZ] * 6, 5, 0.0, 1.0)


class TestOracleAgainstClosedForms:
    # closed forms of the low-order integrals over a linear interpolant
    def test_single_integral_linear(self):
        rng = np.random.default_rng(2)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 1, 0.0, dt)
        got = oracle_Mn(h, 1, 0.0, dt, CFG)
        assert np.allclose(got, (dt / 2) * (h0 + h1), atol=1e-14)

    def test_double_integral_linear(self):
        rng = np.random.default_rng(3)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 1, 0.0, dt)
        got = oracle_Mn(h, 2, 0.0, dt, CFG)
        assert np.allclose(got, (dt**2 / 6) * commutator(h1, h0), atol=1e-14)

    def test_triple_integral_linear(self):
        rng = np.random.default_rng(4)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 1, 0.0, dt)
        got = oracle_Mn(h, 3, 0.0, dt, CFG)
        expected = (dt**3 / 40) * commutator(h1 - h0, commutator(h1, h0))
        assert np.allclose(got, expected, atol=1e-14)

    def test_degree_zero_commutator_integrals_vanish(self):
        h = interpolant([SZ + SX], 0, 0.0, 1.0)
        for n in (2, 3, 4):
            assert frobenius_norm(oracle_Mn(h, n, 0.0, 1.0, CFG)) == 0.0

    def test_n_out_of_range(self):
        h = interpolant([SZ], 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            oracle_Mn(h, 5, 0.0, 1.0, CFG)

    def test_quadruple_tower_pauli(self):
        # H0 = sz, H1 = sx at dt = 1 against the quadrature value
        h = interpolant([SZ, SX], 1, 0.0, 1.0)
        got = oracle_Mn(h, 4, 0.0, 1.0, CFG)
        c = QUAD_COMMUTATOR_ROOT
        tower = (1.0 / 210.0) * commutator(
            (1 / c) * SZ - SX, commutator(SX - c * SZ, commutator(SX, SZ))
        )
        assert np.allclose(got, tower, atol=1e-12)


class TestOracleQuadrature:
    # A cubic interpolant is the highest degree that 8 points per axis
    # integrate exactly at n = 4 (outermost degree 4*3 + 3 = 15), so any
    # point count from 8 up gives the same integrals up to rounding.  A wrong
    # range map or product weight would make them depend on the point count.
    POINT_COUNT_AGREEMENT_TOL = 1e-13

    @staticmethod
    def cubic():
        rng = np.random.default_rng(40)
        return interpolant([random_hermitian(rng, 3) for _ in range(4)], 3, 0.3, 0.8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_independent_of_point_count(self, n):
        h = self.cubic()
        base = oracle_Mn(h, n, 0.3, 0.8, OracleConfig(gl_points_per_axis=8))
        for points in (9, 12):
            got = oracle_Mn(h, n, 0.3, 0.8, OracleConfig(gl_points_per_axis=points))
            dev = frobenius_norm(got - base) / frobenius_norm(base)
            assert dev <= self.POINT_COUNT_AGREEMENT_TOL, (points, dev)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_batched_interpolant_call_per_level(self, n):
        h = self.cubic()
        calls = []

        def counted(ts):
            calls.append(np.shape(ts))
            return h(ts)

        oracle_Mn(counted, n, 0.3, 0.8, CFG)
        assert len(calls) <= n
        assert max(int(np.prod(shape)) for shape in calls) == 8**n


class TestGaussNodeForms:
    # The two-point Gauss schemes sample g1, g2 at GAUSS2_LO, GAUSS2_HI; the
    # linear interpolant through those samples fixes M1..M3.  The terms are
    # read back from the builders' exponents, so they are exact only up to
    # rounding of the (much larger) exponent they are read from.
    @staticmethod
    def draws():
        rng = np.random.default_rng(21)
        for _ in range(5):
            dt = float(rng.uniform(0.3, 1.2))
            g1, g2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
            slope = (g2 - g1) / (GAUSS2_HI - GAUSS2_LO)
            h = interpolant([g1 - GAUSS2_LO * slope, g1 + (1.0 - GAUSS2_LO) * slope], 1, 0.0, dt)
            samples = {GAUSS2_LO: g1, GAUSS2_HI: g2}
            yield dt, h, samples

    def test_blanes4_gauss_commutator_is_half_m2(self):
        # sqrt(3)/12 dt^2 [g2, g1] = M2 / 2
        for dt, h, samples in self.draws():
            theta = exponent(MethodId.BLANES4_GAUSS, samples, dt)
            k = -(theta + 1j * oracle_Mn(h, 1, 0.0, dt, CFG))
            half_m2 = 0.5 * oracle_Mn(h, 2, 0.0, dt, CFG)
            assert frobenius_norm(k - half_m2) <= 1e-14 * frobenius_norm(theta)

    def test_iserles4_gauss_triple_is_sixth_m3(self):
        # dt^3/80 [g2 - g1, [g2, g1]] = M3 / 6
        for dt, h, samples in self.draws():
            theta = exponent(MethodId.ISERLES4_GAUSS, samples, dt)
            triple = -1j * (theta - exponent(MethodId.BLANES4_GAUSS, samples, dt))
            sixth_m3 = oracle_Mn(h, 3, 0.0, dt, CFG) / 6.0
            assert frobenius_norm(triple - sixth_m3) <= 1e-14 * frobenius_norm(theta)


@pytest.fixture(scope="module")
def closed_form_report() -> CheckReport:
    return check_closed_forms(OracleConfig(seed=7, dim=3, dt=1.0), draws=10)


@pytest.fixture(scope="module")
def symmetry_report() -> CheckReport:
    return check_symmetry_suite(
        OracleConfig(seed=11, dim=4, dt=0.8), draws=20, oracle_draws=5
    )


class TestCheckClosedForms:
    def test_all_identities_pass(self, closed_form_report):
        failing = [r.identity for r in closed_form_report.rows if not r.passed]
        assert closed_form_report.all_passed, f"failing identities: {failing}"

    def test_expected_identities_present(self, closed_form_report):
        names = {r.identity for r in closed_form_report.rows}
        expected = {
            "m1-simpson",
            "m1-boole",
            "m2-linear",
            "m2-quadratic-sum",
            "m2-quadratic-single",
            "m2-quadratic-forms-agree",
            "m2-cubic",
            "m3-linear",
            "m3-quadratic",
            "m4-linear",
            "m4-linear-alt-root",
            "m4-roots-agree",
            "degree0-m2-vanishes",
            "degree0-m3-vanishes",
            "degree0-m4-vanishes",
            "nested-scalar-1",
            "nested-scalar-2",
            "nested-scalar-3",
            "nested-scalar-4",
        }
        assert expected <= names

    def test_scalar_integrals_tight(self, closed_form_report):
        for k in range(1, 5):
            row = closed_form_report.row(f"nested-scalar-{k}")
            assert row.tolerance == 1e-14
            assert row.passed

    def test_both_roots_agree(self, closed_form_report):
        assert closed_form_report.row("m4-roots-agree").max_rel_dev <= 1e-12

    def test_printed_forms_agree(self, closed_form_report):
        assert closed_form_report.row("m2-quadratic-forms-agree").max_rel_dev <= 1e-13

    def test_small_step(self):
        report = check_closed_forms(OracleConfig(seed=3, dim=2, dt=0.1), draws=5)
        assert report.all_passed

    def test_wrong_coefficient_in_a_term_fails(self, monkeypatch):
        # the certification calls the term functions the step builders use, so
        # a wrong prefactor there (me6's m4 at dt^4/210.5) must fail its rows
        m4_linear = verify.m4_linear
        monkeypatch.setattr(
            verify, "m4_linear", lambda *args, **kw: (210.0 / 210.5) * m4_linear(*args, **kw)
        )
        report = check_closed_forms(OracleConfig(seed=7, dim=3, dt=1.0), draws=1)
        failing = [r.identity for r in report.rows if not r.passed]
        assert failing == ["m4-linear", "m4-linear-alt-root"]


class TestCheckSymmetrySuite:
    def test_all_pass(self, symmetry_report):
        failing = [r.identity for r in symmetry_report.rows if not r.passed]
        assert symmetry_report.all_passed, f"failing checks: {failing}"

    def test_per_method_rows_present(self, symmetry_report):
        names = {r.identity for r in symmetry_report.rows}
        assert "unitarity-me6" in names
        assert "backward-adjoint-blanes6-gauss" in names
        assert "const-roundtrip" in names

    def test_oracle_sign_flip_rows(self, symmetry_report):
        for n in range(1, 5):
            assert symmetry_report.row(f"oracle-sign-flip-m{n}").passed


class TestOracleConfig:
    def test_point_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(gl_points_per_axis=4)

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(dim=0)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
    def test_dt_must_be_finite_and_nonzero(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and nonzero"):
            OracleConfig(dt=dt)


class TestMaxTracker:
    @pytest.mark.parametrize("values", [(1e-15, np.nan), (np.nan, 1e-15), (np.nan,)])
    def test_nan_is_kept_and_fails_the_row(self, values):
        # max(0.0, nan) is 0.0, which would pass a row that never compared anything
        track = verify._MaxTracker()
        for value in values:
            track.update("identity", value)
        (row,) = track.rows({}, 1e-12)
        assert np.isnan(row.max_rel_dev)
        assert not row.passed
