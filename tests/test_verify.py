import dataclasses
import inspect
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest

from magstep import linalg, magnus_steps, verify
from magstep.linalg import commutator, dagger, frobenius_norm, unitarity_defect
from magstep.magnus_steps import (
    ALL_METHODS,
    GAUSS2_HI,
    GAUSS2_LO,
    QUAD_COMMUTATOR_ROOT,
    MethodId,
    exponent,
    step,
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

from conftest import SX, SZ, smooth_sampler


class TestRandomHermitian:
    # both parts of B come from one uniform call, which gives the matrices
    # and leaves the stream where two (dim, dim) calls did
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_one_call_draws_what_two_calls_drew(self, dim):
        one, two = np.random.default_rng(dim), np.random.default_rng(dim)
        for _ in range(5):
            b = two.uniform(0.0, 1.0, (dim, dim)) + 1j * two.uniform(0.0, 1.0, (dim, dim))
            assert random_hermitian(one, dim).tobytes() == (0.5 * (b + b.conj().T)).tobytes()
        assert one.uniform() == two.uniform()


class TestInterpolant:
    def test_linear_midpoint_is_average(self):
        h = interpolant([SZ, SX], 0.0, 1.0)
        assert np.allclose(h(0.5), 0.5 * (SZ + SX))

    def test_quadratic_exactness(self):
        rng = np.random.default_rng(1)
        poly = lambda t: 0.3 - 1.1 * t + 0.7 * t * t
        dt = 0.8
        samples = [poly(x * dt) * SZ for x in (0.0, 0.5, 1.0)]
        h = interpolant(samples, 0.0, dt)
        for t in rng.uniform(0.0, dt, 50):
            assert np.allclose(h(t), poly(t) * SZ, atol=1e-13)

    def test_cubic_through_thirds(self):
        dt = 1.5
        samples = [(x * dt) ** 3 * SX for x in (0, 1 / 3, 2 / 3, 1.0)]
        h = interpolant(samples, 0.0, dt)
        for t in np.linspace(0, dt, 17):
            assert np.allclose(h(t), t**3 * SX, atol=1e-12)

    def test_degree_zero_is_constant(self):
        h = interpolant([SX], 0.0, 1.0)
        assert np.allclose(h(0.123), SX)

    @pytest.mark.parametrize("degree", range(5))
    def test_array_of_times_matches_scalar_calls(self, degree):
        rng = np.random.default_rng(30 + degree)
        samples = [random_hermitian(rng, 3) for _ in range(degree + 1)]
        h = interpolant(samples, 0.2, 0.9)
        ts = rng.uniform(0.2, 1.1, (3, 4))
        got = h(ts)
        assert got.shape == (3, 4, 3, 3)
        expected = np.stack([np.stack([h(t) for t in row]) for row in ts])
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("degree", range(1, 5))
    def test_basis_has_the_bits_of_the_per_factor_product(self, degree, dim):
        # each basis function is the product of the factors (t - x_m) / (x_j
        # - x_m), m != j, taken left to right, as math.prod takes them, and
        # h(t) is its contraction with the samples, tensordot's bits; the
        # dims and the grid's 10 to 1200 nodes take BLAS's other paths
        rng = np.random.default_rng(50 + degree)
        samples = [random_hermitian(rng, dim) for _ in range(degree + 1)]
        mats = np.stack(samples)
        for t_k, dt in ((0.0, 1.0), (0.3, 0.8), (float(rng.uniform(-1.0, 1.0)), -float(rng.uniform(0.1, 2.0)))):
            h = interpolant(samples, t_k, dt)
            nodes = [t_k + dt * j / degree for j in range(degree + 1)]
            rules = [verify._gl_rule(p) for p in (10, 8, 5, 3)]
            grid = [s for s, _, _ in verify._nested_grid(t_k, dt, rules)]
            for ts in grid + [t_k + dt * rng.uniform(0.0, 1.0, (7, 2)), t_k + 0.37 * dt, nodes[-1]]:
                t = np.asarray(ts, dtype=np.float64)
                basis = [
                    math.prod((t - xm) / (xj - xm) for m, xm in enumerate(nodes) if m != j)
                    for j, xj in enumerate(nodes)
                ]
                expected = np.tensordot(np.stack(basis, axis=-1), mats, axes=1)
                got = h(ts)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [0, 6])
    def test_degree_out_of_range(self, count):
        # the degree is the sample count minus one, and only 0..4 are taken
        with pytest.raises(ValueError, match=f"degree must be in 0..4, got {count - 1}"):
            interpolant([SZ] * count, 0.0, 1.0)


class TestOracleAgainstClosedForms:
    # closed forms of the low-order integrals over a linear interpolant
    def test_single_integral_linear(self):
        rng = np.random.default_rng(2)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 0.0, dt)
        got = oracle_Mn(h, 1, 0.0, dt)
        assert np.allclose(got, (dt / 2) * (h0 + h1), atol=1e-14)

    def test_double_integral_linear(self):
        rng = np.random.default_rng(3)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 0.0, dt)
        got = oracle_Mn(h, 2, 0.0, dt)
        assert np.allclose(got, (dt**2 / 6) * commutator(h1, h0), atol=1e-14)

    def test_triple_integral_linear(self):
        rng = np.random.default_rng(4)
        h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dt = 0.7
        h = interpolant([h0, h1], 0.0, dt)
        got = oracle_Mn(h, 3, 0.0, dt)
        expected = (dt**3 / 40) * commutator(h1 - h0, commutator(h1, h0))
        assert np.allclose(got, expected, atol=1e-14)

    def test_degree_zero_commutator_integrals_vanish(self):
        h = interpolant([SZ + SX], 0.0, 1.0)
        for n in (2, 3, 4):
            assert frobenius_norm(oracle_Mn(h, n, 0.0, 1.0)) == 0.0

    def test_n_out_of_range(self):
        h = interpolant([SZ], 0.0, 1.0)
        with pytest.raises(ValueError):
            oracle_Mn(h, 5, 0.0, 1.0)

    def test_quadruple_tower_pauli(self):
        # H0 = sz, H1 = sx at dt = 1 against the quadrature value
        h = interpolant([SZ, SX], 0.0, 1.0)
        got = oracle_Mn(h, 4, 0.0, 1.0)
        c = QUAD_COMMUTATOR_ROOT
        tower = (1.0 / 210.0) * commutator(
            (1 / c) * SZ - SX, commutator(SX - c * SZ, commutator(SX, SZ))
        )
        assert np.allclose(got, tower, atol=1e-12)


class TestOracleQuadrature:
    # Once the levels inside it are integrated, level j of the n-fold
    # integral of a degree-q interpolant (j = 1 outermost) has degree (n - j +
    # 1)(q + 1) - 1 in its own time, so the oracle gives it m_j = ceil((n - j
    # + 1)(q + 1) / 2) points, and p(n, q) = m_1 at the outermost level.  Any
    # point count from there up gives the same integrals up to rounding, and
    # one point fewer at any one level does not.  A wrong range map, product
    # weight or point count would make them depend on the point count.
    POINT_COUNT_AGREEMENT_TOL = 1e-13

    @staticmethod
    def points(n, q):
        return -(-n * (q + 1) // 2)

    @staticmethod
    def level_points(n, q):
        return tuple(((n - j) * (q + 1) + 1) // 2 for j in range(n))

    @staticmethod
    def of_degree(q):
        rng = np.random.default_rng(40 + q)
        return interpolant([random_hermitian(rng, 3) for _ in range(q + 1)], 0.3, 0.8)

    @staticmethod
    def with_points(monkeypatch, h, n, points):
        rule = np.polynomial.legendre.leggauss(points)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_gl_rule", lambda p: rule)
            return oracle_Mn(h, n, 0.3, 0.8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_independent_of_point_count(self, q, n, monkeypatch):
        # 12 points integrate degree 23, past the quartic's 19 at n = 4, which
        # the 8 points once taken for every integral do not; 9 points are
        # compared wherever they are exact too
        h = self.of_degree(q)
        base = oracle_Mn(h, n, 0.3, 0.8)
        for points in (9, 12):
            if points < self.points(n, q):
                continue
            got = self.with_points(monkeypatch, h, n, points)
            dev = frobenius_norm(got - base) / frobenius_norm(base)
            assert dev <= self.POINT_COUNT_AGREEMENT_TOL, (points, dev)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_each_level_takes_the_fewest_points_its_degree_bound_needs(self, q, n, monkeypatch):
        # one point fewer at one level alone leaves the 12-point integral by
        # more than rounding, so no level takes more points than its degree
        # bound needs.  Where that bound is attained, that is the fewest
        # exact points.  At the third level from the inside (n - j + 1 = 3)
        # of an even q, (n - j + 1)(q + 1) is odd and the level's top
        # coefficient, a sum of brackets of H's leading coefficient with
        # itself, cancels: the degree is one lower, so one point fewer is
        # exact there too, and two fewer are not
        h = self.of_degree(q)
        exact = self.with_points(monkeypatch, h, n, 12)
        nested_grid = verify._nested_grid

        def deviation(level, points):
            taken = []

            def patched(t_k, dt, rules):
                rules = list(rules)
                taken.append([len(x) for x, _ in rules])
                rules[level] = np.polynomial.legendre.leggauss(points)
                return nested_grid(t_k, dt, rules)

            with monkeypatch.context() as patch:
                patch.setattr(verify, "_nested_grid", patched)
                got = oracle_Mn(h, n, 0.3, 0.8)
            assert taken == [list(self.level_points(n, q))]
            return frobenius_norm(got - exact) / frobenius_norm(exact)

        for level, m in enumerate(self.level_points(n, q)):
            if m == 1:
                continue
            if q % 2 == 0 and n - level == 3:
                assert deviation(level, m - 1) <= self.POINT_COUNT_AGREEMENT_TOL, (level + 1, m)
                m -= 1
            dev = deviation(level, m - 1)
            assert dev > self.POINT_COUNT_AGREEMENT_TOL, (level + 1, m, dev)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_for_a_constant_against_its_scale(self, n, monkeypatch):
        # for n > 1 the integral is 0, so it is measured against ||C||_F**n,
        # as the degree-0 rows measure it
        h = self.of_degree(0)
        dev = frobenius_norm(self.with_points(monkeypatch, h, n, 12) - oracle_Mn(h, n, 0.3, 0.8))
        assert dev <= self.POINT_COUNT_AGREEMENT_TOL * frobenius_norm(h(0.0)) ** n, dev

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4, None], ids=lambda q: f"degree{q}")
    def test_one_batched_interpolant_call_per_level(self, q, n):
        # the innermost level's call, the only one with n axes, covers the
        # whole grid (m_1, ..., m_n); an h without a degree is taken as
        # quartic, the highest interpolant builds
        h = self.of_degree(4 if q is None else q)
        calls = []

        def counted(ts):
            calls.append(np.shape(ts))
            return h(ts)

        if q is not None:
            counted.degree = q
        oracle_Mn(counted, n, 0.3, 0.8)
        assert len(calls) <= n
        assert [shape for shape in calls if len(shape) == n] == [self.level_points(n, 4 if q is None else q)]

    def test_work_of_one_draw_of_each_suite(self, monkeypatch):
        # 19 oracle calls whose innermost levels hold 972 matrices in all
        # (9127 with every level at the outermost level's point count)
        innermost = []

        def counted_oracle(h, n, t_k, dt):
            sizes = []

            def counted(ts):
                sizes.append(np.size(ts))
                return h(ts)

            counted.degree = h.degree
            value = oracle_Mn(counted, n, t_k, dt)
            innermost.append(max(sizes))
            return value

        monkeypatch.setattr(verify, "oracle_Mn", counted_oracle)
        cfg = OracleConfig(seed=5, dim=3, draws=1)
        check_closed_forms(cfg)
        check_symmetry_suite(cfg)
        assert (len(innermost), sum(innermost)) == (19, 972)


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
            h = interpolant([g1 - GAUSS2_LO * slope, g1 + (1.0 - GAUSS2_LO) * slope], 0.0, dt)
            samples = {GAUSS2_LO: g1, GAUSS2_HI: g2}
            yield dt, h, samples

    def test_blanes4_gauss_commutator_is_half_m2(self):
        # sqrt(3)/12 dt^2 [g2, g1] = M2 / 2
        for dt, h, samples in self.draws():
            theta = exponent(MethodId.BLANES4_GAUSS, samples, dt)
            k = -(theta + 1j * oracle_Mn(h, 1, 0.0, dt))
            half_m2 = 0.5 * oracle_Mn(h, 2, 0.0, dt)
            assert frobenius_norm(k - half_m2) <= 1e-14 * frobenius_norm(theta)

    def test_iserles4_gauss_triple_is_sixth_m3(self):
        # dt^3/80 [g2 - g1, [g2, g1]] = M3 / 6
        for dt, h, samples in self.draws():
            theta = exponent(MethodId.ISERLES4_GAUSS, samples, dt)
            triple = -1j * (theta - exponent(MethodId.BLANES4_GAUSS, samples, dt))
            sixth_m3 = oracle_Mn(h, 3, 0.0, dt) / 6.0
            assert frobenius_norm(triple - sixth_m3) <= 1e-14 * frobenius_norm(theta)


@pytest.fixture(scope="module")
def closed_form_report() -> CheckReport:
    return check_closed_forms(OracleConfig(seed=7, dim=3, dt=1.0, draws=10))


@pytest.fixture(scope="module")
def symmetry_report() -> CheckReport:
    return check_symmetry_suite(OracleConfig(seed=11, dim=4, dt=0.8, draws=20))


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
        report = check_closed_forms(OracleConfig(seed=3, dim=2, dt=0.1, draws=5))
        assert report.all_passed

    def test_wrong_coefficient_in_a_term_fails(self, monkeypatch):
        # the certification calls the term functions the step builders use, so
        # a wrong prefactor there (me6's Omega_4 weight 210 as 210.5) must fail its rows
        omega4_linear = verify.omega4_linear
        monkeypatch.setattr(
            verify, "omega4_linear", lambda *args, **kw: (210.0 / 210.5) * omega4_linear(*args, **kw)
        )
        report = check_closed_forms(OracleConfig(seed=7, dim=3, dt=1.0, draws=1))
        failing = [r.identity for r in report.rows if not r.passed]
        assert failing == ["m4-linear", "m4-linear-alt-root"]

    def test_perturbed_skew_coefficient_fails_m2_cubic(self, monkeypatch):
        # recompile the builders' own omega2_cubic with its 16/13 scaled by 1.001
        source = textwrap.dedent(inspect.getsource(magnus_steps.omega2_cubic))
        assert source.count("16.0 / 13.0") == 1
        namespace = dict(vars(magnus_steps))
        exec(source.replace("16.0 / 13.0", "1.001 * 16.0 / 13.0"), namespace)
        monkeypatch.setattr(verify, "omega2_cubic", namespace["omega2_cubic"])
        report = check_closed_forms(OracleConfig(seed=7, dim=3, dt=1.0, draws=1))
        failing = [r.identity for r in report.rows if not r.passed]
        assert failing == ["m2-cubic"]

    def test_flipped_cross_product_fails_at_dim_2(self, monkeypatch):
        # at d = 2 the terms take su(2) coordinates, whose bracket is a cross
        # product: recompile the builders' commutator with its sign flipped
        source = textwrap.dedent(inspect.getsource(magnus_steps.commutator))
        assert source.count("out[1:] *= 2.0") == 1
        namespace = dict(vars(magnus_steps))
        exec(source.replace("out[1:] *= 2.0", "out[1:] *= -2.0"), namespace)
        monkeypatch.setattr(magnus_steps, "commutator", namespace["commutator"])
        failing = {r.identity for r in check_closed_forms(OracleConfig(seed=7, dim=2, draws=1)).rows if not r.passed}
        # every term with an odd number of brackets, and the printed form of
        # Omega_2, which takes the oracle's brackets, against the flipped one
        assert failing == {
            "m2-linear",
            "m2-quadratic-single",
            "m2-quadratic-forms-agree",
            "m2-cubic",
            "m4-linear",
            "m4-linear-alt-root",
        }
        # the matrix kernel of d = 3 is untouched
        assert check_closed_forms(OracleConfig(seed=7, dim=3, draws=1)).all_passed


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


def per_step_symmetry_suite(cfg):
    """The symmetry suite's rows as one ``step`` call per check, in the
    suite's draw order: the rows its stacked steps must give bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    track = verify._MaxTracker()
    dim_cap = min(cfg.dim, 6)
    for method in ALL_METHODS:
        for _ in range(cfg.draws):
            dim = int(rng.integers(2, dim_cap + 1))
            sampler = smooth_sampler(rng, dim)
            t_k = float(rng.uniform(-1.0, 1.0))
            dt = cfg.dt * float(rng.uniform(0.5, 1.0))
            forward = step(method, sampler, t_k, dt)
            backward = step(method, sampler, t_k + dt, -dt)
            track.update(f"unitarity-{method.value}", float(unitarity_defect(forward)), verify.SYMMETRY_TOL)
            adjoint_defect = float(frobenius_norm(backward - dagger(forward)))
            track.update(f"backward-adjoint-{method.value}", adjoint_defect, verify.SYMMETRY_TOL)
    const = random_hermitian(rng, cfg.dim)
    eye = np.eye(cfg.dim)
    for method in ALL_METHODS:
        fwd = step(method, lambda t: const, 0.0, cfg.dt)
        bwd = step(method, lambda t: const, cfg.dt, -cfg.dt)
        track.update("const-roundtrip", float(frobenius_norm(bwd @ fwd - eye)), verify.CONST_ROUNDTRIP_TOL)
    for _ in range(min(cfg.draws, 25)):
        samples = [random_hermitian(rng, cfg.dim) for _ in range(4)]
        h = interpolant(samples, 0.0, cfg.dt)
        for n in range(1, 5):
            fwd = oracle_Mn(h, n, 0.0, cfg.dt)
            rev = oracle_Mn(h, n, cfg.dt, -cfg.dt)
            track.update(f"oracle-sign-flip-m{n}", verify._rel_dev(rev, -fwd), verify.SYMMETRY_TOL)
    return track.rows()


def row_bits(rows):
    return [(r.identity, np.float64(r.max_rel_dev).tobytes(), r.tolerance) for r in rows]


class TestStackedSymmetrySuite:
    # each dim with its own seed; 5 draws in blocks of 2 run full blocks
    # while drawing and a short last block after the constant draw
    @pytest.mark.parametrize("draws,block", [(1, None), (3, None), (5, 2)])
    @pytest.mark.parametrize("dt", [1.0, -1.0, 1e-3])
    @pytest.mark.parametrize("dim,seed", [(2, 42), (3, 7), (4, 1234567), (5, 42), (6, 7), (8, 1234567), (12, 42)])
    def test_rows_are_the_per_step_loops_bits(self, monkeypatch, dim, seed, dt, draws, block):
        if block is not None:
            monkeypatch.setattr(verify, "SYMMETRY_BLOCK_DRAWS", block)
        cfg = OracleConfig(seed=seed, dim=dim, dt=dt, draws=draws)
        assert row_bits(check_symmetry_suite(cfg).rows) == row_bits(per_step_symmetry_suite(cfg))

    def test_one_stacked_step_per_method_and_dim(self, monkeypatch):
        # each with one sample check of all its nodes' matrices
        calls, checks, stacked, checked = [], [], verify._step_stack, linalg.checked_square
        monkeypatch.setattr(verify, "_step_stack", lambda method, *a: calls.append(method) or stacked(method, *a))
        for module in (linalg, magnus_steps):
            monkeypatch.setattr(module, "checked_square", lambda a, sign: checks.append(sign) or checked(a, sign))
        check_symmetry_suite(OracleConfig(seed=12345, dim=3, draws=1))
        assert len(calls) == 12 and checks == [1] * 12
        # the default CLI draws of dim 3 draw both dims for every method
        calls.clear()
        checks.clear()
        check_symmetry_suite(OracleConfig(seed=12345, dim=3, draws=100))
        assert calls == [m for m in ALL_METHODS for _ in range(2)]
        assert checks == [1] * 18

    # with every block of 8 draws the peak holds at about 1 MB (within 2%
    # from 32 to 128 draws here); with one block per method, it grows about
    # twofold over that range
    def test_peak_memory_does_not_grow_with_draws(self, monkeypatch):
        monkeypatch.setattr(verify, "SYMMETRY_BLOCK_DRAWS", 8)
        cfg = OracleConfig(seed=3, dim=6)
        check_symmetry_suite(dataclasses.replace(cfg, draws=2))
        peaks = []
        for draws in (32, 128):
            tracemalloc.start()
            try:
                check_symmetry_suite(dataclasses.replace(cfg, draws=draws))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestNamedTolerances:
    # (constant, its value, the prefixes of the identities it bounds); the
    # first match wins, so the two single rows precede the general m2/m4 rows
    KINDS = [
        ("PRINTED_FORMS_TOL", 1e-13, ("m2-quadratic-forms-agree",)),
        ("OMEGA4_ROOTS_TOL", 1e-12, ("m4-roots-agree",)),
        ("NESTED_SCALAR_TOL", 1e-14, ("nested-scalar-",)),
        ("CONST_ROUNDTRIP_TOL", 1e-14, ("const-roundtrip",)),
        ("SYMMETRY_TOL", 1e-12, ("unitarity-", "backward-adjoint-", "oracle-sign-flip-")),
        ("ORACLE_AGREEMENT_TOL", 1e-11, ("m1-", "m2-", "m3-", "m4-", "degree0-")),
    ]

    @classmethod
    def kind(cls, identity):
        return next(name for name, _, prefixes in cls.KINDS if identity.startswith(prefixes))

    def test_values(self):
        for name, value, _ in self.KINDS:
            assert getattr(verify, name) == value, name

    def test_each_row_reads_its_constant_at_call_time(self, monkeypatch):
        # distinct stand-in values show which constant each row took
        stand_ins = {name: (k + 1) * 1e-3 for k, (name, _, _) in enumerate(self.KINDS)}
        for name, value in stand_ins.items():
            monkeypatch.setattr(verify, name, value)
        cfg = OracleConfig(seed=5, dim=3, draws=1)
        rows = check_closed_forms(cfg).rows + check_symmetry_suite(cfg).rows
        assert {self.kind(r.identity) for r in rows} == set(stand_ins)
        for r in rows:
            assert r.tolerance == stand_ins[self.kind(r.identity)], r.identity


class TestOracleConfig:
    # at d = 1 every bracket is 0, so a wrong commutator term would pass
    @pytest.mark.parametrize("dim", [0, 1])
    def test_dim_floor(self, dim):
        with pytest.raises(ValueError, match="dim must be at least 2"):
            OracleConfig(dim=dim)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
    def test_dt_must_be_finite_and_nonzero(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and nonzero"):
            OracleConfig(dt=dt)

    # named here, not by math.isfinite's bare "must be real number, not str"
    @pytest.mark.parametrize("dt", ["1", None])
    def test_a_dt_that_is_not_a_real_number_is_a_type_error_naming_it(self, dt):
        with pytest.raises(TypeError, match=f"^dt must be a real number, got {re.escape(repr(dt))}$"):
            OracleConfig(dt=dt)

    def test_numpy_floats_are_taken_as_dt(self):
        assert OracleConfig(dt=np.float32(0.5)).dt == 0.5

    def test_seed_must_be_non_negative(self):
        # named here, not by numpy's bare "expected non-negative integer" at the first draw
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            OracleConfig(seed=-1)

    # named here, not by numpy's bare TypeError at the first draw or by '<'
    @pytest.mark.parametrize("field,value", [("dim", 2.5), ("dim", 3.0), ("dim", "3"), ("dim", None), ("seed", 1.5), ("seed", "1")])
    def test_a_non_integer_dim_or_seed_is_a_type_error_naming_it(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            OracleConfig(**{field: value})

    def test_numpy_integers_are_taken(self):
        cfg = OracleConfig(seed=np.uint32(5), dim=np.int64(3), draws=1)
        assert check_symmetry_suite(cfg).rows == check_symmetry_suite(OracleConfig(seed=5, dim=3, draws=1)).rows


class TestDraws:
    # a suite of no draws would report only its draw-free rows, and pass
    @pytest.mark.parametrize("draws", [0, -5])
    def test_draws_below_one_raise_naming_draws(self, draws):
        with pytest.raises(ValueError, match=f"^draws must be at least 1, got {draws}$"):
            OracleConfig(draws=draws)

    # a draw count that is not an integer is a TypeError naming draws, not
    # range()'s or >='s bare one
    @pytest.mark.parametrize("draws", [1.5, "3", None], ids=["float", "str", "none"])
    def test_non_integer_draws_raise_a_type_error_naming_draws(self, draws):
        with pytest.raises(TypeError, match=f"^draws must be an integer, got {re.escape(repr(draws))}$"):
            OracleConfig(draws=draws)

    def test_replace_checks_draws_again(self):
        with pytest.raises(ValueError, match="^draws must be at least 1, got 0$"):
            dataclasses.replace(OracleConfig(draws=3), draws=0)

    @pytest.mark.parametrize("suite", [check_closed_forms, check_symmetry_suite], ids=lambda f: f.__name__)
    def test_a_numpy_integer_draws_runs(self, suite):
        assert suite(OracleConfig(seed=5, draws=np.int64(2))).rows == suite(OracleConfig(seed=5, draws=2)).rows

    # the config is the one place a draw count is set
    @pytest.mark.parametrize("suite", [check_closed_forms, check_symmetry_suite], ids=lambda f: f.__name__)
    def test_each_suite_takes_the_config_alone(self, suite):
        assert list(inspect.signature(suite).parameters) == ["cfg"]


class TestMaxTracker:
    @pytest.mark.parametrize("values", [(1e-15, np.nan), (np.nan, 1e-15), (np.nan,)])
    def test_nan_is_kept_and_fails_the_row(self, values):
        # max(0.0, nan) is 0.0, which would pass a row that never compared anything
        track = verify._MaxTracker()
        for value in values:
            track.update("identity", value, 1e-12)
        (row,) = track.rows()
        assert np.isnan(row.max_rel_dev)
        assert not row.passed
