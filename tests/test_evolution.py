import numpy as np
import pytest

from magstep import evolution, linalg, magnus_steps
from magstep.evolution import (
    ReferenceSpec,
    convergence_study,
    default_ladder,
    fit_order,
    propagate,
    relative_error,
)
from magstep.hamiltonians import EntrySpec, HamiltonianModel, builtin_case
from magstep.linalg import PreconditionError, as_complex_square
from magstep.magnus_steps import ALL_METHODS, MethodId

from conftest import SX

RABI = HamiltonianModel(2, {(0, 1): EntrySpec(1.0)})  # constant sigma_x coupling


class TestPropagate:
    def test_zero_hamiltonian(self):
        model = HamiltonianModel(2, {})
        tr = propagate(MethodId.ME4_FULL, model, 0.0, 5.0, 50, [1, 0])
        assert np.allclose(tr.final_propagator, np.eye(2), atol=1e-14)
        assert np.allclose(tr.populations, np.tile([1.0, 0.0], (51, 1)), atol=1e-14)

    def test_rabi_flop(self):
        tr = propagate(MethodId.ME4_NC, RABI, 0.0, np.pi, 100, [1, 0])
        # |<1|exp(-i sx t)|0>|^2 = sin^2 t
        assert np.allclose(tr.populations[:, 1], np.sin(tr.times) ** 2, atol=1e-9)
        assert tr.populations[50, 1] == pytest.approx(1.0, abs=1e-10)  # t = pi/2
        assert tr.populations[-1, 1] == pytest.approx(0.0, abs=1e-10)  # t = pi

    def test_grid(self):
        tr = propagate(MethodId.ME2, RABI, 1.0, 3.0, 4, [0, 1])
        assert np.allclose(tr.times, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert tr.populations.shape == (5, 2)
        assert tr.unitarity_defects.shape == (5,)

    @pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
    def test_population_conservation(self, case):
        tr = propagate(MethodId.ME4_NC, builtin_case(case), 0.0, 20.0, 2000, [1, 0])
        sums = tr.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10
        assert tr.populations.min() >= -1e-12
        assert tr.populations.max() <= 1.0 + 1e-12

    def test_callable_sampler_matches_model(self):
        from magstep.hamiltonians import SinusoidTerm

        model = HamiltonianModel(2, {(0, 1): EntrySpec(0.0, (SinusoidTerm(1.0, 1.0),))})
        tr_callable = propagate(MethodId.ME3, lambda t: np.sin(t) * SX, 0.0, 1.0, 20, [1, 0])
        tr_model = propagate(MethodId.ME3, model, 0.0, 1.0, 20, [1, 0])
        assert np.allclose(
            tr_callable.final_propagator, tr_model.final_propagator, atol=1e-14
        )
        assert np.allclose(tr_callable.populations, tr_model.populations, atol=1e-14)

    def test_semigroup_consistency(self):
        model = builtin_case("II")
        for method in (MethodId.ME4_FULL, MethodId.BLANES6_GAUSS):
            full = propagate(method, model, 0.0, 8.0, 400, [1, 0]).final_propagator
            first = propagate(method, model, 0.0, 4.0, 200, [1, 0]).final_propagator
            second = propagate(method, model, 4.0, 8.0, 200, [1, 0]).final_propagator
            assert relative_error(second @ first, full) <= 1e-12

    def test_rejects_reversed_interval(self):
        with pytest.raises(PreconditionError):
            propagate(MethodId.ME2, RABI, 1.0, 0.5, 10, [1, 0])

    def test_rejects_unnormalized_state(self):
        with pytest.raises(PreconditionError, match="normalized"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10, [1, 1])

    def test_rejects_wrong_state_length(self):
        with pytest.raises(PreconditionError, match="length"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10, [1, 0, 0])

    def test_rejects_sampler_that_returns_no_matrix(self):
        # two steps of a length-2 vector stack to a 2x2 "matrix"
        with pytest.raises(PreconditionError, match=r"must be \(2, 2\), got \(2,\)"):
            propagate(MethodId.ME2, lambda t: np.ones(2), 0.0, 1.0, 2, [1, 0])

    def test_rejects_unaddressable_grid_before_sampling(self, monkeypatch):
        def no_sampling(self, ts):
            raise AssertionError("sampled an unaddressable grid")

        monkeypatch.setattr(HamiltonianModel, "sample_many", no_sampling)
        with pytest.raises(PreconditionError, match=r"n_steps=10\^18\.00 "):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**18, [1, 0])

    @pytest.mark.parametrize(
        "t0, tf", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_interval_before_sampling(self, monkeypatch, t0, tf):
        def no_sampling(self, ts):
            raise AssertionError("sampled a non-finite grid")

        monkeypatch.setattr(HamiltonianModel, "sample_many", no_sampling)
        with pytest.raises(ValueError, match="must be finite") as info:
            propagate(MethodId.ME2, RABI, t0, tf, 4, [1, 0])
        assert not isinstance(info.value, PreconditionError)

    def test_rejects_nan_sample(self):
        def sampler(t):
            return SX if t < 0.5 else np.full((2, 2), np.nan)

        with pytest.raises(ValueError, match="NaN or Inf"):
            propagate(MethodId.ME2, sampler, 0.0, 1.0, 4, [1, 0])

    @pytest.mark.parametrize(
        "method, calls", [(MethodId.ME6, 8), (MethodId.BLANES6_GAUSS, 4), (MethodId.ME2, 3)]
    )
    def test_validates_each_node_stack_and_the_exponent_once(self, monkeypatch, method, calls):
        # one check per sample node and one on Theta; the kernels between them check nothing
        seen = []

        def counted(a):
            seen.append(np.shape(a))
            return as_complex_square(a)

        monkeypatch.setattr(linalg, "as_complex_square", counted)
        monkeypatch.setattr(magnus_steps, "as_complex_square", counted)
        propagate(method, builtin_case("I"), 0.0, 1.0, 16, [1, 0])
        assert seen == [(16, 2, 2)] * calls


class TestRelativeError:
    def test_identical(self):
        assert relative_error(SX, SX) == 0.0

    def test_negated(self):
        u = np.diag([1j, -1j])
        assert relative_error(u, -u) == pytest.approx(2.0)

    def test_identity_vs_sigma_x(self):
        assert relative_error(np.eye(2), SX) == pytest.approx(np.sqrt(2))

    def test_zero_reference(self):
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(SX, np.zeros((2, 2)))


class TestFitOrder:
    def test_exact_sixth_power(self):
        dts = [0.2, 0.1]
        errs = [3.0 * dt**6 for dt in dts]
        assert fit_order(dts, errs) == pytest.approx(6.0)

    def test_exact_fourth_power_many_points(self):
        dts = [0.4, 0.2, 0.1, 0.05]
        errs = [0.7 * dt**4 for dt in dts]
        assert fit_order(dts, errs) == pytest.approx(4.0, abs=1e-12)

    def test_constant_errors(self):
        assert fit_order([0.2, 0.1, 0.05], [1e-9, 1e-9, 1e-9]) == pytest.approx(0.0)

    def test_floor_excludes_saturated_records(self):
        dts = [0.4, 0.2, 0.1, 0.05]
        errs = [0.7 * 0.4**4, 0.7 * 0.2**4, 1e-14, 1e-14]
        slope = fit_order(dts, errs, floor=1e-13)
        assert slope == pytest.approx(4.0, abs=1e-9)

    def test_ceiling_excludes_preasymptotic_records(self):
        dts = [0.4, 0.2, 0.1]
        errs = [0.9, 0.2 * 0.2**2, 0.2 * 0.1**2]
        assert fit_order(dts, errs, ceiling=0.5) == pytest.approx(2.0, abs=1e-9)

    def test_too_few_usable(self):
        with pytest.raises(ValueError, match="usable"):
            fit_order([0.1], [1e-4])
        with pytest.raises(ValueError, match="usable"):
            fit_order([0.2, 0.1], [1e-15, 1e-15], floor=1e-13)


class TestConvergenceStudy:
    def test_default_ladder(self):
        dts = default_ladder(100.0)
        assert len(dts) == 6
        assert dts[0] == pytest.approx(0.006103515625)
        assert dts[-1] == pytest.approx(0.1953125)
        # the printed three-significant-figure labels round-trip to these rungs
        for dt, n in zip(dts, (16384, 8192, 4096, 2048, 1024, 512)):
            assert round(100.0 / dt) == n

    def test_small_study_slopes_and_reference(self):
        model = builtin_case("I")
        tf = 10.0
        dts = [tf / n for n in (200, 100, 50)]
        report = convergence_study(model, [MethodId.ME2, MethodId.ME4_FULL], dts=dts, tf=tf)
        assert report.reference_n_steps == 8 * 200
        assert report.reference_agreement <= 1e-8
        assert report.slopes[MethodId.ME2] == pytest.approx(2.0, abs=0.3)
        assert report.slopes[MethodId.ME4_FULL] == pytest.approx(4.0, abs=0.4)
        for record in report.records:
            assert record.n_steps * record.dt == pytest.approx(tf, rel=1e-9)

    def test_error_monotone_in_dt(self):
        model = builtin_case("I")
        tf = 10.0
        report = convergence_study(
            model, [MethodId.ME3], dts=[tf / n for n in (400, 200, 100, 50)], tf=tf
        )
        errs = [r.error for r in sorted(report.records, key=lambda r: r.dt)]
        assert errs == sorted(errs)

    def test_rejects_non_dividing_dt(self):
        with pytest.raises(PreconditionError, match="integer step count"):
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=[0.3], tf=10.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="finite") as info:
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=[dt], tf=10.0)
        assert not isinstance(info.value, PreconditionError)

    def test_nan_reference_agreement_is_refused(self, monkeypatch):
        monkeypatch.setattr(evolution, "relative_error", lambda a, r: float("nan"))
        with pytest.raises(PreconditionError, match="disagree"):
            convergence_study(
                builtin_case("I"), [MethodId.ME2], dts=[0.5], tf=1.0,
                reference=ReferenceSpec(n_steps=16),
            )

    def test_reference_override(self):
        model = builtin_case("I")
        report = convergence_study(
            model,
            [MethodId.ME3],
            dts=[0.1],
            tf=5.0,
            reference=ReferenceSpec(n_steps=2000),
        )
        assert report.reference_n_steps == 2000
        assert report.reference_dt == pytest.approx(0.0025)
        # a single rung cannot support a slope fit
        assert np.isnan(report.slopes[MethodId.ME3])

    def test_synthesized_power_law_slope(self):
        # harness example: errors exactly C*dt^4 fit to slope 4.000
        dts = default_ladder(100.0)
        errs = [2.5 * dt**4 for dt in dts]
        assert fit_order(dts, errs) == pytest.approx(4.0, abs=1e-9)

    def test_full_ladder_error_monotonicity(self, ladder_reports):
        # error nonincreasing as dt shrinks, except records at the rounding floor
        eps = np.finfo(float).eps
        for case, report in ladder_reports.items():
            floor = lambda r: eps * (r.n_steps + report.reference_n_steps)
            for method in ALL_METHODS:
                recs = sorted(report.errors_for(method), key=lambda r: r.dt)
                for finer, coarser in zip(recs, recs[1:]):
                    if finer.error <= floor(finer):
                        continue
                    assert finer.error <= coarser.error, (
                        f"case {case} {method.value}: error rose from dt={coarser.dt} "
                        f"({coarser.error:.3e}) to dt={finer.dt} ({finer.error:.3e})"
                    )


class TestAgainstAdaptiveOdeIntegrator:
    # independent end-to-end oracle: integrate dU/dt = -i H(t) U with an
    # adaptive high-order scheme from another library and compare propagators
    @pytest.mark.parametrize("case", ["I", "III"])
    def test_matches_dop853(self, case):
        from scipy.integrate import solve_ivp

        model = builtin_case(case)
        tf = 10.0

        def rhs(t, y):
            u = y.reshape(2, 2)
            return (-1j * model.sample(t) @ u).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, tf),
            np.eye(2, dtype=complex).ravel(),
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
        )
        assert sol.success
        u_ode = sol.y[:, -1].reshape(2, 2)
        for method in (MethodId.ME6, MethodId.BLANES6_GAUSS):
            u = propagate(method, model, 0.0, tf, 8192, [1, 0]).final_propagator
            assert relative_error(u, u_ode) <= 1e-8
