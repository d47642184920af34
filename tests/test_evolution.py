import tracemalloc

import numpy as np
import pytest

from magstep import evolution, linalg, magnus_steps
from magstep.evolution import (
    convergence_study,
    default_ladder,
    fit_order,
    propagate,
    relative_error,
)
from magstep.hamiltonians import EntrySpec, HamiltonianModel, SinusoidTerm, builtin_case
from magstep.linalg import PreconditionError, checked_square
from magstep.magnus_steps import ALL_METHODS, MethodId, NonHermitianSampleError

from conftest import SX

RABI = HamiltonianModel(2, {(0, 1): EntrySpec(1.0)})  # constant sigma_x coupling

# The pairwise product, the blocked prefix scan and the sequential product of
# the same step propagators differ only by rounding: at most 4.9e-15 (22 eps)
# relative at n = 1000 and 1001, d = 2 and 8.
PRODUCT_ORDER_TOL = 1e-13

# Growth of a run's traced peak memory, outputs excluded, from 2048 to 8192
# steps of a dense d = 8 model (one chunk's stacks take 16 MB either way).
CHUNK_PEAK_SLACK = 64 * 1024

# Steps per chunk by dimension, and a step count of three chunks at that
# dimension, the last one ragged.
THREE_CHUNKS = {2: (16384, 2 * 16384 + 5), 8: (1024, 2 * 1024 + 37)}


def dense_model(dim, seed):
    """Every upper-triangle entry driven by an offset and two sinusoids."""
    rng = np.random.default_rng(seed)
    upper = {}
    for i in range(dim):
        for j in range(i, dim):
            im = 0.0 if i == j else rng.uniform(-1.0, 1.0)
            terms = tuple(
                SinusoidTerm(rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 6.0))
                for _ in range(2)
            )
            upper[(i, j)] = EntrySpec(complex(rng.uniform(-1.0, 1.0), im), terms)
    return HamiltonianModel(dim, upper)


DENSE8 = dense_model(8, seed=5)


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

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_worst_unitarity_defect(self, method):
        tr = propagate(method, builtin_case("I"), 0.0, 100.0, 8192, [1, 0])
        assert np.max(tr.unitarity_defects) <= 1e-13

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

        def counted(a, sign):
            seen.append(np.shape(a))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        propagate(method, builtin_case("I"), 0.0, 1.0, 16, [1, 0])
        assert seen == [(16, 2, 2)] * calls

    @pytest.mark.parametrize(
        "method, calls", [(MethodId.ME6, 8), (MethodId.BLANES6_GAUSS, 4), (MethodId.ME2, 3)]
    )
    def test_validates_each_chunk_once(self, monkeypatch, method, calls):
        # three chunks at d = 8, each checked once per node and once on Theta
        width, n = THREE_CHUNKS[8]
        seen = []

        def counted(a, sign):
            seen.append(np.shape(a))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        propagate(method, DENSE8, 0.0, 1.0, n, np.eye(8)[0])
        assert seen == [(width, 8, 8)] * (2 * calls) + [(n - 2 * width, 8, 8)] * calls

    def test_rejects_nan_sample_in_a_later_chunk(self):
        # dt = 1, so step k spans [k, k + 1]: only steps past the first chunk see a NaN
        width, n = THREE_CHUNKS[8]
        h = DENSE8.sample(0.0)

        def sampler(t):
            return h if t < width + 0.5 else np.full((8, 8), np.nan)

        with pytest.raises(ValueError, match="NaN or Inf"):
            propagate(MethodId.ME2, sampler, 0.0, float(n), n, np.eye(8)[0])

    def test_rejects_non_hermitian_sample_in_a_later_chunk(self):
        width, n = THREE_CHUNKS[8]
        h = DENSE8.sample(0.0)
        skewed = h + np.triu(np.ones((8, 8)), 1)

        def sampler(t):
            # only midpoints of steps past the first chunk are not Hermitian
            return skewed if t > width and t % 1 == 0.5 else h

        with pytest.raises(NonHermitianSampleError) as info:
            propagate(MethodId.ME3, sampler, 0.0, float(n), n, np.eye(8)[0])
        assert info.value.node == 0.5
        assert info.value.defect == pytest.approx(np.sqrt(56.0))

    def test_rejects_grid_beyond_physical_memory_before_sampling(self, monkeypatch):
        def no_sampling(self, ts):
            raise AssertionError("sampled a grid beyond physical memory")

        monkeypatch.setattr(HamiltonianModel, "sample_many", no_sampling)
        # 10**6 steps at d = 2: (10**6 + 1) rows of 8 float64 values, about 64 MB
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: 2**25)
        with pytest.raises(PreconditionError, match=r"n_steps=10\^6\.00 is too large: .* physical memory"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**6, [1, 0])

    @pytest.mark.parametrize("memory", [101 * 64, None], ids=["just-fits", "unknown"])
    def test_preflight_passes_a_grid_that_fits(self, monkeypatch, memory):
        # 100 steps at d = 2 take 101 rows of 8 float64 values; None skips the check
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: memory)
        assert len(propagate(MethodId.ME2, RABI, 0.0, 1.0, 100, [1, 0]).times) == 101

    def test_peak_memory_is_flat_in_the_step_count(self):
        # beyond its outputs, a run holds one chunk's stacks whatever the step count
        def traced_peak(n):
            tracemalloc.start()
            try:
                trace = propagate(MethodId.ME6, DENSE8, 0.0, 10.0, n, np.eye(8)[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(
                a.nbytes
                for a in (trace.times, trace.populations, trace.unitarity_defects, trace.final_propagator)
            )
            return peak - outputs

        assert traced_peak(8192) - traced_peak(2048) <= CHUNK_PEAK_SLACK


def step_propagators(method, model, n):
    """The chunks of a grid over [0, 10] and the step propagators they hold, in order."""
    chunks = list(
        evolution._step_chunks(method, model, 0.0, 10.0, n, model.dim, magnus_steps.DEFAULT_CONTEXT)
    )
    return [start for start, _ in chunks], np.concatenate([u for _, u in chunks])


def sequential_prefixes(u, carry=None):
    prefixes = [np.eye(u.shape[-1], dtype=complex) if carry is None else carry]
    for step in u:
        prefixes.append(step @ prefixes[-1])
    return np.stack(prefixes)


def relative_deviation(got, want):
    return np.max(linalg.frobenius_norm(got - want) / linalg.frobenius_norm(want))


class TestFinalPropagator:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_pairwise_product_equals_accumulated_trajectory(self, model, method, n):
        psi0 = np.eye(model.dim)[0]
        trace = propagate(method, model, 0.0, 10.0, n, psi0)
        final = evolution._final_propagator(
            method, model, 0.0, 10.0, n, model.dim, magnus_steps.DEFAULT_CONTEXT
        )
        assert final.shape == (model.dim, model.dim)
        assert relative_error(final, trace.final_propagator) <= PRODUCT_ORDER_TOL


class TestPrefixProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 1000, 1001])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_blocked_scan_equals_sequential_prefixes(self, model, method, n):
        starts, u = step_propagators(method, model, n)
        assert starts == [0]
        got = evolution._prefix_products(u, np.eye(model.dim))
        assert got.shape == (n + 1, model.dim, model.dim)
        assert np.array_equal(got[0], np.eye(model.dim))
        assert relative_deviation(got, sequential_prefixes(u)) <= PRODUCT_ORDER_TOL

    @pytest.mark.parametrize("n", [1, 7, 1001])
    def test_scan_starts_at_the_carried_propagator(self, n):
        _, u = step_propagators(MethodId.ME6, DENSE8, n)
        carry = linalg.expm_antihermitian(-1j * DENSE8.sample(0.3))
        got = evolution._prefix_products(u, carry)
        assert np.array_equal(got[0], carry)
        assert relative_deviation(got, sequential_prefixes(u, carry)) <= PRODUCT_ORDER_TOL

    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_identity_carry_changes_no_bit(self, model):
        # so a grid of one chunk gets the prefixes of a scan that starts at I
        _, u = step_propagators(MethodId.ME6, model, 1000)
        assert np.array_equal(linalg.matmul(u, np.eye(model.dim, dtype=complex)), u)


class TestChunkBoundaries:
    @pytest.mark.parametrize(
        "method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value
    )
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_chunked_run_equals_sequential_product(self, model, method):
        width, n = THREE_CHUNKS[model.dim]
        starts, u = step_propagators(method, model, n)
        assert starts == [0, width, 2 * width]
        want = sequential_prefixes(u)

        # the scan of each chunk, carried on from the chunk before
        carry, got = np.eye(model.dim), []
        for start in starts:
            prefixes = evolution._prefix_products(u[start:start + width], carry)
            got.append(prefixes[1:])
            carry = prefixes[-1]
        assert relative_deviation(np.concatenate(got), want[1:]) <= PRODUCT_ORDER_TOL

        psi0 = np.eye(model.dim)[0]
        trace = propagate(method, model, 0.0, 10.0, n, psi0)
        assert trace.populations.shape == (n + 1, model.dim)
        assert np.max(np.abs(trace.populations - np.abs(want @ psi0) ** 2)) <= PRODUCT_ORDER_TOL
        assert np.max(np.abs(trace.unitarity_defects - linalg.unitarity_defect(want))) <= PRODUCT_ORDER_TOL
        assert relative_error(trace.final_propagator, want[-1]) <= PRODUCT_ORDER_TOL
        final = evolution._final_propagator(
            method, model, 0.0, 10.0, n, model.dim, magnus_steps.DEFAULT_CONTEXT
        )
        assert relative_error(final, trace.final_propagator) <= PRODUCT_ORDER_TOL


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
        assert report.reference_dt == pytest.approx(tf / (8 * 200))
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

    def test_builds_no_trajectory(self, monkeypatch):
        def no_trajectory(*args, **kwargs):
            raise AssertionError("a convergence study needs only final propagators")

        monkeypatch.setattr(evolution, "propagate", no_trajectory)
        report = convergence_study(
            builtin_case("I"), [MethodId.ME2, MethodId.ME4_FULL], dts=[0.5, 0.25, 0.125], tf=2.0
        )
        assert report.reference_agreement <= 1e-8
        assert len(report.records) == 6
        assert report.slopes[MethodId.ME2] == pytest.approx(2.0, abs=0.3)

    def test_rejects_empty_ladder_before_sampling(self, monkeypatch):
        def no_sampling(self, ts):
            raise AssertionError("sampled for an empty ladder")

        monkeypatch.setattr(HamiltonianModel, "sample_many", no_sampling)
        with pytest.raises(ValueError, match="dts") as info:
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=[], tf=1.0)
        assert not isinstance(info.value, PreconditionError)

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
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=[0.5], tf=1.0)

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
