import linecache
import math
import os
import re
import sys
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
from magstep.hamiltonians import BUILTIN_CASES, EntrySpec, HamiltonianModel, SinusoidTerm, builtin_case
from magstep.linalg import PreconditionError, checked_square
from magstep.magnus_steps import ALL_METHODS, MethodId, NonHermitianSampleError

from conftest import SX, SampledError, count_samples, forbid_sampling

RABI = HamiltonianModel(2, {(0, 1): EntrySpec(1.0)})  # constant sigma_x coupling

# The pairwise product, the tree's down-sweep of prefixes and the sequential
# product of the same step propagators differ only by rounding: at most
# 5.3e-15 (24 eps) relative at n = 1000 and 1001, d = 2 and 8, over the nine
# schemes.
PRODUCT_ORDER_TOL = 1e-13

# Growth of a run's traced peak memory, outputs excluded, from 2048 to 8192
# steps of a dense d = 8 model (one chunk's stacks take 16 MB either way).
CHUNK_PEAK_SLACK = 64 * 1024

# Traced peak memory of one propagate over two chunks of a dense d = 8 model
# (2048 steps), above what was held before it, per scheme.  A chunk's stacks
# take 1 MiB each; measured 4.22, 6.29, 8.29, 7.29, 12.29, 7.29, 4.29, 6.29
# and 9.29 MiB in the order below.
MiB = 2**20
ME2_TWO_CHUNK_PEAK = 4.5 * MiB
ME3_TWO_CHUNK_PEAK = 6.5 * MiB
ME4_FULL_TWO_CHUNK_PEAK = 8.5 * MiB
ME4_NC_TWO_CHUNK_PEAK = 7.5 * MiB
ME6_TWO_CHUNK_PEAK = 12.5 * MiB
BLANES4_TWO_CHUNK_PEAK = 7.5 * MiB
BLANES4_GAUSS_TWO_CHUNK_PEAK = 4.5 * MiB
ISERLES4_GAUSS_TWO_CHUNK_PEAK = 6.5 * MiB
BLANES6_GAUSS_TWO_CHUNK_PEAK = 9.5 * MiB
TWO_CHUNK_PEAKS = {
    MethodId.ME2: ME2_TWO_CHUNK_PEAK,
    MethodId.ME3: ME3_TWO_CHUNK_PEAK,
    MethodId.ME4_FULL: ME4_FULL_TWO_CHUNK_PEAK,
    MethodId.ME4_NC: ME4_NC_TWO_CHUNK_PEAK,
    MethodId.ME6: ME6_TWO_CHUNK_PEAK,
    MethodId.BLANES4: BLANES4_TWO_CHUNK_PEAK,
    MethodId.BLANES4_GAUSS: BLANES4_GAUSS_TWO_CHUNK_PEAK,
    MethodId.ISERLES4_GAUSS: ISERLES4_GAUSS_TWO_CHUNK_PEAK,
    MethodId.BLANES6_GAUSS: BLANES6_GAUSS_TWO_CHUNK_PEAK,
}

# Distance of a two-level final propagator's det / |det| from exp(-2i
# int (H00 + H11) / 2 dt), me6 over 131072 steps of [0, 100]: measured at most
# 2.9e-14 in cases I to IV (2.0e-14 when the product tree multiplied
# matrices), about two ulps of the angle, which is near 100.
FINAL_PHASE_TOL = 1e-13

# Steps per chunk by dimension, and a step count of three chunks at that
# dimension, the last one ragged.
THREE_CHUNKS = {2: (16384, 2 * 16384 + 5), 8: (1024, 2 * 1024 + 37)}

# Step counts whose last chunk holds one step: two chunks at d = 2, three at
# d = 8, so that chunk's tree is its root alone.
ONE_STEP_TAILS = {2: 16384 + 1, 8: 2 * 1024 + 1}

# Step counts of one chunk for the down-sweep: one step, odd and even levels,
# and a level of odd length under the root.
PREFIX_LENGTHS = [1, 2, 3, 4, 5, 7, 1000, 1001]

# A ladder per dimension whose first rung, 2 widths + 37 steps, is cut into
# three pieces; its 37-step tail and the next two rungs share a chunk, the
# fourth rung would straddle that chunk's end and starts the last one, and
# the fifth joins it.
PACKED_LADDERS = {2: (2 * 16384 + 37, 9000, 5000, 4000, 3000), 8: (2 * 1024 + 37, 600, 300, 200, 500)}

# Ladders of the one-pass tests, run by all nine methods together: odd and
# one-step rungs, then, at d = 2 and 8, a rung longer than one chunk, whose
# tail shares a chunk with the next method's first rungs.  At d = 3 the
# sampler is a Python callable, called once per time, so its rungs stay
# short, and all nine methods share one chunk.
ONE_PASS_LADDERS = {2: (1001, 7, 1, THREE_CHUNKS[2][0] + 37), 3: (101, 7, 4, 1), 8: (301, 7, 1, THREE_CHUNKS[8][0] + 37)}

# Traced peak memory of convergence_study on the benchmark's convergence
# ladder (case II over [0, 6.25], rungs of 1024 ... 32 steps, all nine
# methods), above what was held before it.  Its 8192-step reference pass
# peaks there, at its me6 samples and generators: 3.2547 MiB when each
# method took a ladder pass of its own, 3.2566 MiB with one pass for all
# methods, whose grouping by method holds 2 KiB more then.
WORKLOAD_STUDY_PEAK = 3.26 * 2**20

# Traced peak of one d = 8 chunk that holds all nine methods' rungs of 50,
# 30, 20, 7 and 1 steps (972 steps), above what was held before it:
# measured 3.89 MiB, for the chunk's shared samples (1.06 MiB), its Theta
# (0.95 MiB), and the stacks of each method's exponent, of the exponential
# and of the tree.
ALL_METHODS_CHUNK_PEAK = 4.25 * 2**20
ALL_METHODS_CHUNK_LADDER = (50, 30, 20, 7, 1)

# A dense d = 8 ladder over [0, 10] that fits one chunk: every step of its
# coarse rung has a Theta of 1-norm above linalg.TAYLOR_NORM_CUT (8.6 to
# 15.5 for me2, me6 and blanes6-gauss), every step of its fine rung one in
# the degree-12 Taylor tier (0.12 to 0.17), so the chunk is split between
# the eigendecomposition and the polynomial.
ACROSS_THE_CUT = (8, 600)


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
DENSE3 = dense_model(3, seed=7)


def runs(method, counts):
    """The runs of one method over the grids of ``counts`` steps."""
    return [(method, n) for n in counts]


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

    def test_a_callable_sample_of_another_shape_is_refused_as_it_is_taken(self):
        # the time and both shapes are named, in words that fit a study,
        # which takes no initial state, as well as a trajectory
        message = r"^Hamiltonian samples must be \({0}, {0}\), got \({1}, {1}\) at t={2}$"
        with pytest.raises(PreconditionError, match=message.format(2, 3, r"0\.015625")):
            convergence_study(lambda t: SX if t == 0 else np.eye(3), [MethodId.ME2], dts=[0.5], tf=1.0)
        with pytest.raises(PreconditionError, match=message.format(2, 3, r"0\.5")):
            propagate(MethodId.ME2, lambda t: SX if t < 0.5 else np.eye(3), 0.0, 1.0, 4, [1, 0])
        with pytest.raises(PreconditionError, match=message.format(3, 2, r"0\.5")):
            propagate(MethodId.ME2, lambda t: np.eye(3) if t < 0.5 else SX, 0.0, 1.0, 4, [1, 0, 0])

    def test_rejects_unaddressable_grid_before_sampling(self, monkeypatch):
        forbid_sampling(monkeypatch)
        with pytest.raises(PreconditionError, match=r"n_steps=10\^18\.00 "):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**18, [1, 0])

    # a step count that is not an integer is a TypeError naming n_steps, not
    # numpy's or <'s bare one, and is refused before anything is sampled
    @pytest.mark.parametrize(
        "n_steps", [10.0, 10.5, np.float64(8), "4", None], ids=["float", "fraction", "numpy-float", "str", "none"]
    )
    def test_non_integer_n_steps_raises_a_type_error_naming_it(self, monkeypatch, n_steps):
        forbid_sampling(monkeypatch)
        message = re.escape(f"n_steps must be an integer, got {n_steps!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            propagate(MethodId.ME2, builtin_case("I"), 0.0, 1.0, n_steps, [1, 0])

    def test_n_steps_is_checked_after_the_interval_and_before_its_sign(self):
        with pytest.raises(ValueError, match="t0, tf and tf - t0 must be finite"):
            propagate(MethodId.ME2, RABI, 0.0, np.inf, 10.5, [1, 0])
        with pytest.raises(TypeError, match="n_steps must be an integer"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, -0.5, [1, 0])

    def test_a_numpy_integer_n_steps_runs(self):
        got = propagate(MethodId.ME2, builtin_case("I"), 0.0, 1.0, np.int64(4), [1, 0])
        want = propagate(MethodId.ME2, builtin_case("I"), 0.0, 1.0, 4, [1, 0])
        assert got.times.tobytes() == want.times.tobytes()
        assert got.populations.tobytes() == want.populations.tobytes()

    @pytest.mark.parametrize("entry", ["propagate", "convergence_study"])
    @pytest.mark.parametrize(
        "t0, tf", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_interval_before_sampling(self, monkeypatch, t0, tf, entry):
        # one interval check for both: a convergence study does not complain
        # about a step size the caller never gave
        forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="t0, tf and tf - t0 must be finite") as info:
            if entry == "propagate":
                propagate(MethodId.ME2, RABI, t0, tf, 4, [1, 0])
            else:
                convergence_study(RABI, [MethodId.ME2], tf=tf, t0=t0)
        assert not isinstance(info.value, PreconditionError)

    def test_rejects_nan_sample(self):
        def sampler(t):
            return SX if t < 0.5 else np.full((2, 2), np.nan)

        with pytest.raises(ValueError, match="NaN or Inf"):
            propagate(MethodId.ME2, sampler, 0.0, 1.0, 4, [1, 0])

    @pytest.mark.parametrize(
        "method, matrices", [(MethodId.ME6, 17 + 5 * 16), (MethodId.BLANES6_GAUSS, 3 * 16), (MethodId.ME2, 17)]
    )
    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_validates_each_callable_node_stack_once(self, monkeypatch, method, matrices, sampler):
        # a callable's samples at d = 2 are taken in one call and checked in
        # one, each matrix once, though node 0 and node 1 both read the grid's.
        # A model's samples are Hermitian by construction and get none, and
        # Theta, the library's own output, gets none either way
        model = builtin_case("I")
        seen = []

        def counted(a, sign):
            seen.append((np.shape(a), sign))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        propagate(method, model if sampler == "model" else lambda t: model.sample(t), 0.0, 1.0, 16, [1, 0])
        assert seen == ([((matrices, 2, 2), 1)] if sampler == "callable" else [])

    @pytest.mark.parametrize("method, inner, ends", [(MethodId.ME6, 5, 1), (MethodId.BLANES6_GAUSS, 3, 0), (MethodId.ME2, 0, 1)])
    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_validates_each_chunk_once(self, monkeypatch, method, inner, ends, sampler):
        # three chunks at d = 8: a callable's samples are checked as each
        # sampling call takes them, one call per inner node's steps and one
        # for the grid's times, each matrix once; a model's not at all.  The
        # callable returns one sample, so that it costs no model evaluation
        # per time
        width, n = THREE_CHUNKS[8]
        h = DENSE8.sample(0.0)
        seen = []

        def counted(a, sign):
            seen.append(np.shape(a))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        propagate(method, DENSE8 if sampler == "model" else lambda t: h, 0.0, 1.0, n, np.eye(8)[0])
        want = [(size + end, 8, 8) for size in (width, width, n - 2 * width) for end in [0] * inner + [1] * ends]
        assert seen == (want if sampler == "callable" else [])

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_a_small_defect_beside_a_huge_sample(self, dim):
        # t = 1 gives entries of 1e300 and t = 3 a relative defect of about
        # 6.5e-7, both on the grid: each sample is measured alone, so the
        # latter fails, named by node 0, which reads t = 3 as a step start
        h = DENSE3.sample(0.0) if dim == 3 else SX
        skewed = h + 1e-6 * np.triu(np.ones((dim, dim)), 1)

        def sampler(t):
            return {1.0: 1e300 * h, 3.0: skewed}.get(t, h)

        with pytest.raises(NonHermitianSampleError) as info:
            propagate(MethodId.ME2, sampler, 0.0, 8.0, 8, np.eye(dim)[0])
        assert info.value.node == 0.0
        assert info.value.defect == pytest.approx(1e-6 * np.sqrt(dim * (dim - 1)))

    def test_rejects_grid_beyond_physical_memory_before_sampling(self, monkeypatch):
        forbid_sampling(monkeypatch)
        # 10**6 steps at d = 2: (10**6 + 1) rows of 4 float64 values, about 32 MB
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: 2**24)
        with pytest.raises(PreconditionError, match=r"n_steps=10\^6\.00 is too large: .* physical memory"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**6, [1, 0])

    @pytest.mark.parametrize("memory", [101 * 32, None], ids=["just-fits", "unknown"])
    def test_preflight_passes_a_grid_that_fits(self, monkeypatch, memory):
        # 100 steps at d = 2 take 101 rows of 4 float64 values; None skips the check
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

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_peak_memory_of_two_chunks(self, method):
        # each chunk's stacks are released before the next chunk is built,
        # and the builders drop their spent temporaries
        propagate(method, DENSE8, 0.0, 10.0, 64, np.eye(8)[0])  # first-call allocations
        n = 2 * THREE_CHUNKS[8][0]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            propagate(method, DENSE8, 0.0, 10.0, n, np.eye(8)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= TWO_CHUNK_PEAKS[method]


def step_propagators(method, model, n):
    """The chunks of a grid over [0, 10] and the step propagators they hold, in order."""
    chunks = list(evolution._step_chunks([(method, n)], model, 0.0, 10.0, model.dim))
    assert all(len(pieces) == 1 and pieces[0][0] == 0 for pieces, _ in chunks)
    return [pieces[0][1] for pieces, _ in chunks], np.concatenate([u for _, u in chunks])


def matrices(u):
    """The matrices of propagators ``u``: d = 2 Cayley-Klein rows rebuilt by
    the one edge function, matrices as they are."""
    return linalg._propagator_matrix(u)


def exponential_at(model, t):
    """``exp(-i H(t))`` in the step pipeline's form of propagators."""
    h = model.sample(t)
    return linalg._expm(linalg.su2_coordinates(h) if model.dim == 2 else -1j * h)


def sequential_prefixes(u, carry=None):
    """The prefixes of the matrices ``u``, each step multiplied onto the
    one before."""
    prefixes = [np.eye(u.shape[-1], dtype=complex) if carry is None else carry]
    for step in u:
        prefixes.append(step @ prefixes[-1])
    return np.stack(prefixes)


def traced_peak(call):
    """``call()``'s result and its traced peak memory above what was held before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


def relative_deviation(got, want):
    return np.max(linalg.frobenius_norm(got - want) / linalg.frobenius_norm(want))


class TestFinalPropagator:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000, "three-chunks", "one-step-tail"])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_pairwise_product_equals_accumulated_trajectory(self, model, method, n):
        # one tree serves both: propagate's last prefix is each chunk's root
        # multiplied onto the chunks before it, as _final_propagators does
        n = {"three-chunks": THREE_CHUNKS[model.dim][1], "one-step-tail": ONE_STEP_TAILS[model.dim]}.get(n, n)
        psi0 = np.eye(model.dim)[0]
        trace = propagate(method, model, 0.0, 10.0, n, psi0)
        (final,) = evolution._final_propagators([(method, n)], model, 0.0, 10.0, model.dim)
        assert final.shape == (model.dim, model.dim)
        assert np.array_equal(final, trace.final_propagator)

    @pytest.mark.parametrize("method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value)
    def test_peak_memory_is_flat_in_the_chunk_count(self, method):
        # a chunk's step propagators are released before the next chunk is
        # built, so three chunks peak as high as one, beyond the pieces'
        # products they carry
        width = THREE_CHUNKS[8][0]
        evolution._final_propagators([(method, 64)], DENSE8, 0.0, 10.0, 8)  # first-call allocations
        _, one = traced_peak(lambda: evolution._final_propagators([(method, width)], DENSE8, 0.0, 10.0, 8))
        _, three = traced_peak(lambda: evolution._final_propagators([(method, 3 * width)], DENSE8, 0.0, 10.0, 8))
        assert three - one <= CHUNK_PEAK_SLACK


class TestPrefixes:
    @pytest.mark.parametrize("n", PREFIX_LENGTHS)
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_down_sweep_equals_sequential_prefixes(self, model, method, n):
        starts, u = step_propagators(method, model, n)
        assert starts == [0]
        got = matrices(evolution._prefixes(u, linalg._identity(u)))
        assert got.shape == (n + 1, model.dim, model.dim)
        assert np.array_equal(got[0], np.eye(model.dim))
        assert relative_deviation(got, sequential_prefixes(matrices(u))) <= PRODUCT_ORDER_TOL

    @pytest.mark.parametrize("n", PREFIX_LENGTHS)
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_down_sweep_starts_at_the_carried_propagator(self, model, n):
        _, u = step_propagators(MethodId.ME6, model, n)
        carry = exponential_at(model, 0.3)
        got = evolution._prefixes(u, carry)
        assert np.array_equal(got[0], carry)
        assert relative_deviation(matrices(got), sequential_prefixes(matrices(u), matrices(carry))) <= PRODUCT_ORDER_TOL
        # the last prefix is the tree's root times the carry
        *_, root = evolution._tree_levels(u, [n])
        assert np.array_equal(got[-1], evolution._product(root[0], carry))

    @pytest.mark.parametrize("n, levels", [(1, 0), (2, 1), (7, 3), (1000, 10), (1001, 10)])
    def test_one_batched_product_per_level_each_way(self, monkeypatch, n, levels):
        # ceil(log2 n) products up the tree, as many back down, and the root
        # times the carry
        _, u = step_propagators(MethodId.ME2, DENSE8, n)
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return linalg._product(*args, **kwargs)

        monkeypatch.setattr(evolution, "_product", counted)
        evolution._prefixes(u, np.eye(8, dtype=complex))
        assert len(calls) == 2 * levels + 1
        assert calls[-1] == (8, 8)

    # at d = 2 the identity is the zero Cayley-Klein row (alpha = 1, beta =
    # 0, phi = 0), which test_linalg.py's TestCayleyKlein also checks on
    # seeded stacks
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_identity_carry_changes_no_bit(self, model):
        # so the first chunk's root times I is the root _final_propagators keeps
        _, u = step_propagators(MethodId.ME6, model, 1000)
        eye = linalg._identity(u)
        assert evolution._product(u, np.broadcast_to(eye, u.shape)).tobytes() == u.tobytes()
        assert all(evolution._product(v, eye).tobytes() == v.tobytes() for v in u[:16])

    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_identity_on_the_left_changes_no_bit(self, model):
        # so the identity that the tree appends to an odd piece hands the
        # piece's last factor on as it is, in a batch or alone
        _, u = step_propagators(MethodId.ME6, model, 1000)
        eye = linalg._identity(u)
        assert evolution._product(np.broadcast_to(eye, u.shape), u).tobytes() == u.tobytes()
        assert all(evolution._product(eye, v).tobytes() == v.tobytes() for v in u[:16])
        assert evolution._product(eye, eye).tobytes() == eye.tobytes()


def piecewise_tree(u):
    """The product of one piece's step propagators, later steps on the left:
    neighbouring pairs multiplied level by level, an odd trailing factor
    carried over unchanged."""
    while len(u) > 1:
        tail = u[len(u) - len(u) % 2:]
        u = np.concatenate([evolution._product(u[1::2], u[0:len(u) - 1:2]), tail])
    return u[0]


class TestTreeLevels:
    # chunks of (grid, start, stop) pieces: odd, even and one-step pieces in
    # one chunk, a lone one-step grid, two equal odd pieces, and a grid whose
    # pieces span two chunks
    LAYOUTS = {
        "7-1-4-3": [[(0, 0, 7), (1, 0, 1), (2, 0, 4), (3, 0, 3)]],
        "1": [[(0, 0, 1)]],
        "5-5": [[(0, 0, 5), (1, 0, 5)]],
        "two-chunks": [[(0, 0, 6)], [(0, 6, 11), (1, 0, 3)]],
    }

    @staticmethod
    def reduce_chunks(monkeypatch, chunks, dim, seed):
        """``_final_propagators`` of random step propagators laid out in
        ``chunks``, Cayley-Klein rows at d = 2 and complex matrices above,
        and the per-piece reference of the same factors."""
        rng = np.random.default_rng(seed)
        stacks = []
        for pieces in chunks:
            n = sum(stop - start for _, start, stop in pieces)
            if dim == 2:
                stacks.append(linalg._expm(rng.normal(size=(4, n))))
            else:
                stacks.append(rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))
        monkeypatch.setattr(evolution, "_step_chunks", lambda *args: iter(zip(chunks, stacks)))
        grids = 1 + max(grid for pieces in chunks for grid, _, _ in pieces)
        counts = [0] * grids
        for pieces in chunks:
            for grid, _, stop in pieces:
                counts[grid] = stop
        got = evolution._final_propagators(runs(MethodId.ME2, counts), None, 0.0, 1.0, dim)

        want = [linalg._identity(stacks[0]) for _ in range(grids)]
        for pieces, u in zip(chunks, stacks):
            offset = 0
            for grid, start, stop in pieces:
                want[grid] = evolution._product(piecewise_tree(u[offset:offset + stop - start]), want[grid])
                offset += stop - start
        return got, [matrices(w) for w in want]

    @pytest.mark.parametrize("chunks", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("dim", [2, 8])
    def test_level_batched_tree_equals_per_piece_trees(self, monkeypatch, chunks, dim):
        got, want = self.reduce_chunks(monkeypatch, chunks, dim, seed=dim)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_levels_are_yielded_without_the_identities(self):
        # pieces of 7, 1, 4 and 3 steps are padded to 8, 2, 4 and 4 before the
        # first product, but each level holds only its pieces' products
        u = np.random.default_rng(3).normal(size=(15, 2, 2)) + 0j
        levels = list(evolution._tree_levels(u, [7, 1, 4, 3]))
        assert levels[0] is u
        assert [len(level) for level in levels] == [15, 9, 5, 4]

    @pytest.mark.parametrize(
        "counts, levels",
        [((1024, 512, 256, 128, 64, 32), 10), ((7, 1, 4, 3), 3), ((5, 5), 3), ((1,), 0)],
    )
    def test_one_batched_product_per_level(self, monkeypatch, counts, levels):
        # the levels of the chunk's longest piece, ceil(log2 n); grids of one
        # piece take no product beyond their tree
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return linalg._product(*args, **kwargs)

        monkeypatch.setattr(evolution, "_product", counted)
        finals = evolution._final_propagators(runs(MethodId.ME2, counts), builtin_case("IV"), 0.0, 1.0, 2)
        assert len(finals) == len(counts)
        assert len(calls) == levels


class TestChunkBoundaries:
    @pytest.mark.parametrize(
        "method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value
    )
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    @pytest.mark.parametrize("grid", ["three-chunks", "one-step-tail"])
    def test_chunked_run_equals_sequential_product(self, model, method, grid):
        width, n = THREE_CHUNKS[model.dim]
        if grid == "one-step-tail":
            n = ONE_STEP_TAILS[model.dim]
        starts, u = step_propagators(method, model, n)
        assert starts == list(range(0, n, width))
        want = sequential_prefixes(matrices(u))

        # the down-sweep of each chunk, carried on from the chunk before
        carry, got = linalg._identity(u), []
        for start in starts:
            prefixes = evolution._prefixes(u[start:start + width], carry)
            got.append(prefixes[1:])
            carry = prefixes[-1]
        assert relative_deviation(matrices(np.concatenate(got)), want[1:]) <= PRODUCT_ORDER_TOL

        psi0 = np.eye(model.dim)[0]
        trace = propagate(method, model, 0.0, 10.0, n, psi0)
        assert trace.populations.shape == (n + 1, model.dim)
        assert np.max(np.abs(trace.populations - np.abs(want @ psi0) ** 2)) <= PRODUCT_ORDER_TOL
        assert np.max(np.abs(trace.unitarity_defects - linalg.unitarity_defect(want))) <= PRODUCT_ORDER_TOL
        assert relative_error(trace.final_propagator, want[-1]) <= PRODUCT_ORDER_TOL
        assert np.array_equal(trace.final_propagator, matrices(carry))
        (final,) = evolution._final_propagators([(method, n)], model, 0.0, 10.0, model.dim)
        assert np.array_equal(final, trace.final_propagator)


def matmul_lines_run(call):
    """The magstep source lines ``call()`` runs that hold a matrix product,
    ``@`` or ``matmul(`` outside a comment, each as ``(module, function)``.
    A line trace sees the ``@`` operator, which no patch of ``np.matmul``
    can."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name))
        return local

    def trace(frame, event, arg):
        return local if frame.f_globals.get("__name__", "").startswith("magstep") else None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(old)
    hits = set()
    for filename, lineno, function in seen:
        code = linecache.getline(filename, lineno).split("#")[0]
        if "@" in code or "matmul(" in code:
            hits.add((os.path.basename(filename), function))
    return hits


class TestTwoLevelCayleyKlein:
    # at d = 2 every step propagator, tree level, prefix and carry is a
    # Cayley-Klein row; the matrix is formed only at the edges
    @pytest.mark.parametrize("method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value)
    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_populations_of_a_complex_state_match_the_sequential_matrices(self, method, sampler):
        # a seeded state off every basis vector, over three chunks from a
        # model; a callable, sampled one time per call, takes one chunk
        model = builtin_case("III")
        rng = np.random.default_rng(77)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        n = THREE_CHUNKS[2][1] if sampler == "model" else 2001
        _, u = step_propagators(method, model, n)
        want = sequential_prefixes(matrices(u))
        trace = propagate(method, model if sampler == "model" else model.sample, 0.0, 10.0, n, psi0)
        assert np.max(np.abs(trace.populations - np.abs(want @ psi0) ** 2)) <= PRODUCT_ORDER_TOL
        assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) <= PRODUCT_ORDER_TOL
        assert relative_error(trace.final_propagator, want[-1]) <= PRODUCT_ORDER_TOL

    @pytest.mark.parametrize("case", ["I", "IV"])
    def test_the_defect_column_is_the_norm_drift_of_each_prefix(self, case):
        # sqrt(2) ||alpha|**2 + |beta|**2 - 1| of each prefix, bit for bit,
        # from d = alpha - 1 as 2 re d + |d|**2 + |beta|**2
        model = builtin_case(case)
        width, n = THREE_CHUNKS[2]
        starts, u = step_propagators(MethodId.ME6, model, n)
        carry, rows = linalg._identity(u), [linalg._identity(u)[None]]
        for start in starts:
            prefixes = evolution._prefixes(u[start:start + width], carry)
            rows.append(prefixes[1:])
            carry = prefixes[-1]
        dr, di, br, bi, _ = np.concatenate(rows).T
        want = math.sqrt(2.0) * np.abs(2.0 * dr + (((dr * dr + di * di) + br * br) + bi * bi))
        trace = propagate(MethodId.ME6, model, 0.0, 10.0, n, [1.0, 0.0])
        assert trace.unitarity_defects.tobytes() == want.tobytes()
        assert np.max(trace.unitarity_defects) <= PRODUCT_ORDER_TOL

    @pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
    def test_the_phase_is_the_integral_of_half_the_trace(self, case):
        # det U = e^{-2i phi} (|alpha|**2 + |beta|**2), and exactly det U(T)
        # = exp(-i int tr H dt): phi, a sum of 131072 angles over 8 chunks,
        # is int (H00 + H11) / 2 dt, which me6's nodes integrate exactly to
        # rounding for these sinusoids
        a1, w1, a2, w2, _, _ = BUILTIN_CASES[case]
        span = 100.0
        phi = span / 2 + a1 * (1 - math.cos(w1 * span)) / (2 * w1) + a2 * (1 - math.cos(w2 * span)) / (2 * w2)
        (u,) = evolution._final_propagators([(MethodId.ME6, 2**17)], builtin_case(case), 0.0, span, 2)
        det = np.linalg.det(u)
        assert abs(det / abs(det) - np.exp(-2j * phi)) <= FINAL_PHASE_TOL

    def test_a_study_forms_its_matrices_once_per_pass(self, monkeypatch):
        # the finals of all a pass's runs become matrices in one call, with
        # the bits each gets alone
        calls = []
        edge = linalg._propagator_matrix
        monkeypatch.setattr(evolution, "_propagator_matrix", lambda u: calls.append(u.shape) or edge(u))
        ladder = runs(MethodId.ME4_NC, (7, 1, 16)) + runs(MethodId.ME6, (5,))
        finals = evolution._final_propagators(ladder, builtin_case("IV"), 0.0, 1.0, 2)
        assert calls == [(4, 5)]
        for (method, n), got in zip(ladder, finals):
            calls.clear()
            (want,) = evolution._final_propagators([(method, n)], builtin_case("IV"), 0.0, 1.0, 2)
            assert calls == [(1, 5)] and got.tobytes() == want.tobytes()

    def test_the_step_path_makes_no_matrix_product(self):
        # a two-level trajectory over two chunks and a study of every method:
        # exponentials, trees, prefixes and observables all in Cayley-Klein
        # form.  A callable's 2x2 samples take one real product each way to
        # their su(2) coordinates, before the step path
        model = builtin_case("II")
        psi0 = np.array([0.6, 0.8j])
        assert matmul_lines_run(lambda: propagate(MethodId.ME6, model, 0.0, 10.0, ONE_STEP_TAILS[2], psi0)) == set()
        assert matmul_lines_run(lambda: convergence_study(model, ALL_METHODS, dts=[0.5, 0.25, 0.125], tf=2.0)) == set()
        for call in (
            lambda: propagate(MethodId.ME4_NC, model.sample, 0.0, 1.0, 40, psi0),
            lambda: convergence_study(model.sample, ALL_METHODS, dts=[0.5, 0.25], tf=1.0),
        ):
            assert matmul_lines_run(call) == {("linalg.py", "su2_coordinates")}

    def test_the_line_trace_sees_a_matrix_product(self):
        # the control: the same trace at d = 8, whose steps, tree and
        # observables take matrix products, finds each of them
        hits = matmul_lines_run(lambda: propagate(MethodId.ME2, DENSE8, 0.0, 1.0, 4, np.eye(8)[0]))
        assert hits >= {("linalg.py", name) for name in ("_product", "_observables", "unitarity_defect")}


class TestPackedLadder:
    @pytest.mark.parametrize("dim", [2, 8])
    def test_layout(self, dim):
        width = THREE_CHUNKS[dim][0]
        counts = PACKED_LADDERS[dim]
        long = counts[0]
        assert list(evolution._packed(counts, width)) == [
            [(0, 0, width)],
            [(0, width, 2 * width)],
            [(0, 2 * width, long), (1, 0, counts[1]), (2, 0, counts[2])],
            [(3, 0, counts[3]), (4, 0, counts[4])],
        ]

    @pytest.mark.parametrize("counts, width, want", [
        ((3, 5, 2), 10, [[(0, 0, 3), (1, 0, 5), (2, 0, 2)]]),
        ((10, 1, 10), 10, [[(0, 0, 10)], [(1, 0, 1)], [(2, 0, 10)]]),
        ((20, 4), 10, [[(0, 0, 10)], [(0, 10, 20)], [(1, 0, 4)]]),
        ((4, 25, 3), 10, [[(0, 0, 4)], [(1, 0, 10)], [(1, 10, 20)], [(1, 20, 25), (2, 0, 3)]]),
    ], ids=["one-chunk", "exact-widths", "whole-widths", "tail-joined"])
    def test_a_grid_that_fits_a_chunk_is_never_split(self, counts, width, want):
        assert list(evolution._packed(counts, width)) == want

    @pytest.mark.parametrize(
        "method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value
    )
    @pytest.mark.parametrize("model", [builtin_case("IV"), DENSE8], ids=["IV", "dense8"])
    def test_packed_ladder_equals_one_grid_calls(self, monkeypatch, model, method):
        # the same step starts, node times, tau and products in the same
        # order; at d = 8 also for chunks whose steps span the exponential's
        # tiers, each step exponentiated as on its grid alone
        rows = []
        for name in ("_expm_taylor", "_expm_eigh"):
            kernel = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda t, *degree, name=name, kernel=kernel: rows.append((name, *degree, len(t))) or kernel(t, *degree))
        for counts in [PACKED_LADDERS[model.dim]] + ([ACROSS_THE_CUT] if model.dim == 8 else []):
            rows.clear()
            packed = evolution._final_propagators(runs(method, counts), model, 0.0, 10.0, model.dim)
            if counts == ACROSS_THE_CUT:
                assert rows == [("_expm_taylor", 12, 600), ("_expm_eigh", 8)]
            assert len(packed) == len(counts)
            for n, got in zip(counts, packed):
                (want,) = evolution._final_propagators([(method, n)], model, 0.0, 10.0, model.dim)
                assert np.array_equal(got, want), n

    def test_a_packed_chunk_of_full_width_equals_one_grid_calls(self):
        # two rungs fill one 16384-step d = 2 chunk, the length from which
        # numpy could reorder a product of the closed su(2) exponential
        counts = (10000, THREE_CHUNKS[2][0] - 10000)
        assert list(evolution._packed(counts, THREE_CHUNKS[2][0])) == [[(0, 0, 10000), (1, 0, counts[1])]]
        model = builtin_case("I")
        packed = evolution._final_propagators(runs(MethodId.ME4_NC, counts), model, 0.0, 50.0, 2)
        for n, got in zip(counts, packed):
            (want,) = evolution._final_propagators([(MethodId.ME4_NC, n)], model, 0.0, 50.0, 2)
            assert np.array_equal(got, want), n

    def test_pieces_come_in_chunk_order(self):
        width, _ = THREE_CHUNKS[8]
        counts = PACKED_LADDERS[8]
        chunks = list(evolution._step_chunks(runs(MethodId.ME2, counts), DENSE8, 0.0, 10.0, 8))
        assert [pieces for pieces, _ in chunks] == list(evolution._packed(counts, width))
        assert [len(u) for _, u in chunks] == [sum(stop - start for _, start, stop in pieces) for pieces, _ in chunks]

    @pytest.mark.parametrize("method, inner, ends", [(MethodId.ME6, 5, 1), (MethodId.BLANES6_GAUSS, 3, 0), (MethodId.ME2, 0, 1)])
    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_validates_each_packed_chunk_once(self, monkeypatch, method, inner, ends, sampler):
        # a callable's samples get one check per sampling call, each piece's
        # inner nodes' steps and then its grid's times, so each matrix is
        # checked once, not once per rung or method; a model's get none
        width, _ = THREE_CHUNKS[8]
        counts = PACKED_LADDERS[8]
        h = DENSE8.sample(0.0)
        seen = []

        def counted(a, sign):
            seen.append(np.shape(a))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        evolution._final_propagators(runs(method, counts), DENSE8 if sampler == "model" else lambda t: h, 0.0, 1.0, 8)
        # each chunk's pieces' steps, node by node, then their grids' times
        chunks = [[width], [width], [counts[0] - 2 * width, counts[1], counts[2]], [counts[3], counts[4]]]
        want = [(size + end, 8, 8) for sizes in chunks for end in [0] * inner + [1] * ends for size in sizes]
        assert seen == (want if sampler == "callable" else [])

    def test_checks_every_rung_before_sampling(self, monkeypatch):
        # a rung of 10**18 steps makes a reference grid of 8 * 10**18, the
        # largest of the study, which is refused before anything is sampled
        forbid_sampling(monkeypatch)
        with pytest.raises(PreconditionError, match=r"n_steps=10\^18\.90 "):
            convergence_study(RABI, [MethodId.ME2], dts=[0.25, 1e-18], tf=1.0)


class TestOnePassLadder:
    # every (method, rung) of a ladder in one chunk pass, each with the bits
    # of its own pass
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_each_run_has_the_bits_of_its_own_pass(self, dim):
        model = {2: builtin_case("IV"), 3: callable_of(DENSE3), 8: DENSE8}[dim]
        ladder = [(method, n) for method in ALL_METHODS for n in ONE_PASS_LADDERS[dim]]
        width = evolution.CHUNK_BYTES // (16 * dim**2)
        chunks = list(evolution._packed([n for _, n in ladder], width))
        # methods share chunks
        assert any(len({ladder[run][0] for run, _, _ in pieces}) > 1 for pieces in chunks)
        joint = evolution._final_propagators(ladder, model, 0.0, 10.0, dim)
        assert len(joint) == len(ladder)
        for (method, n), got in zip(ladder, joint):
            (want,) = evolution._final_propagators([(method, n)], model, 0.0, 10.0, dim)
            assert np.array_equal(got, want), (method.value, n)

    @pytest.mark.parametrize("model", [builtin_case("III"), DENSE3, DENSE8], ids=["III", "dense3", "dense8"])
    def test_each_error_is_the_relative_error_of_its_own_pass(self, model):
        # the stacked Frobenius norm of the study gives each record the
        # floats of relative_error on its run's own final propagator
        report = convergence_study(model, ALL_METHODS, dts=[0.5, 0.25, 0.125], tf=2.0)
        (u_ref,) = evolution._final_propagators([(evolution.REFERENCE_METHOD, report.reference_n_steps)], model, 0.0, 2.0, model.dim)
        assert len(report.records) == 3 * len(ALL_METHODS)
        for record in report.records:
            (u,) = evolution._final_propagators([(record.method, record.n_steps)], model, 0.0, 2.0, model.dim)
            assert record.error == relative_error(u, u_ref), record

    def test_interleaved_runs_are_grouped_by_method(self):
        # a chunk's pieces come method by method, each method's in run order,
        # and every run still gets its own pass's bits
        ladder = [(MethodId.ME6, 7), (MethodId.ME2, 7), (MethodId.ME6, 5), (MethodId.ME2, 1), (MethodId.BLANES6_GAUSS, 7)]
        [(pieces, u)] = evolution._step_chunks(ladder, DENSE8, 0.0, 10.0, 8)
        assert pieces == [(0, 0, 7), (2, 0, 5), (1, 0, 7), (3, 0, 1), (4, 0, 7)]
        assert len(u) == 27
        joint = evolution._final_propagators(ladder, DENSE8, 0.0, 10.0, 8)
        for (method, n), got in zip(ladder, joint):
            (want,) = evolution._final_propagators([(method, n)], DENSE8, 0.0, 10.0, 8)
            assert np.array_equal(got, want), (method.value, n)

    @pytest.mark.parametrize(
        "methods, per_step, ends",
        [
            ((MethodId.ME3, MethodId.ME4_NC, MethodId.BLANES4), 2, 1),
            ((MethodId.BLANES4_GAUSS, MethodId.ISERLES4_GAUSS), 2, 0),
            ((MethodId.ME6, MethodId.BLANES6_GAUSS), 8, 1),
            (ALL_METHODS, 10, 1),
        ],
        ids=["ends-and-midpoint", "gauss2", "me6-gauss3", "all"],
    )
    def test_each_time_of_a_rung_is_sampled_once(self, methods, per_step, ends):
        # runs of one rung share its grid and its node times: me3, me4-nc and
        # blanes4 take 2n + 1 samples, not 3 (2n + 1); all nine methods take
        # the grid and nine inner nodes, 10n + 1
        n, times = 40, []

        def sampler(t):
            times.append(t)
            return RABI.sample(t)

        evolution._final_propagators([(method, n) for method in methods], sampler, 0.0, 1.0, 2)
        assert len(times) == per_step * n + ends
        assert len(set(times)) == len(times)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_sampled_matrix_is_checked_once(self, monkeypatch, dim):
        # a callable all-methods ladder of 64 and 32 steps samples 10n + 1
        # matrices per rung, 962 in all, and checks each once: the stacks it
        # checks, one after the other, are its samples in the order taken
        model = builtin_case("I") if dim == 2 else DENSE3
        sampled, checked = [], []

        def sampler(t):
            sampled.append(model.sample(t))
            return sampled[-1]

        def counted(a, sign):
            checked.append(np.array(a))
            return checked_square(a, sign)

        monkeypatch.setattr(linalg, "checked_square", counted)
        monkeypatch.setattr(magnus_steps, "checked_square", counted)
        evolution._final_propagators([(method, n) for method in ALL_METHODS for n in (64, 32)], sampler, 0.0, 1.0, dim)
        assert len(sampled) == 962
        assert np.concatenate(checked).tobytes() == np.array(sampled, dtype=np.complex128).tobytes()

    def test_each_rung_s_times_are_sampled_once_in_one_call(self, monkeypatch):
        # two rungs of me4-nc and blanes4 in one chunk: 14 midpoints and 9 + 5
        # ends, as for one method, in one call at d = 2
        sizes = count_samples(monkeypatch)
        evolution._final_propagators(runs(MethodId.ME4_NC, (8, 4)) + runs(MethodId.BLANES4, (8, 4)), RABI, 0.0, 1.0, 2)
        assert sizes == [26]

    @pytest.mark.parametrize("fraction", [0.5, magnus_steps.GAUSS2_LO], ids=["midpoint", "gauss2"])
    def test_a_bad_sample_names_the_node_its_first_method_names(self, fraction):
        # each method's samples are checked as in its own pass, in the order
        # of the runs: the error is that of the first run whose pass raises
        h = DENSE3.sample(0.0)
        skewed = h + np.triu(np.ones((3, 3)), 1)
        bad = {2.0 + fraction, 5.0 + fraction}

        def sampler(t):
            return skewed if t in bad else h

        ladder = runs(MethodId.ME2, (8,)) + [(method, 8) for method in ALL_METHODS[1:]]
        for method, n in ladder:
            try:
                evolution._final_propagators([(method, n)], sampler, 0.0, 8.0, 3)
            except NonHermitianSampleError as exc:
                want = exc
                break
        else:
            pytest.fail("no method's own pass reads a bad sample")
        with pytest.raises(NonHermitianSampleError) as info:
            evolution._final_propagators(ladder, sampler, 0.0, 8.0, 3)
        assert (info.value.node, info.value.defect) == (want.node, want.defect)
        assert info.value.node == fraction

    def test_the_study_peak_is_the_reference_pass_s(self, monkeypatch):
        # on the benchmark's ladder: the study peaks no higher than when each
        # method took its own pass, and the ladder pass, all nine methods in
        # two chunks, no higher than the 8192-step reference pass
        dts = [6.25 / n for n in (1024, 512, 256, 128, 64, 32)]
        study = lambda: convergence_study(builtin_case("II"), ALL_METHODS, dts=dts, tf=6.25)
        study()  # first-call allocations
        _, peak = traced_peak(study)
        assert peak <= WORKLOAD_STUDY_PEAK

        passes = []
        packed = evolution._final_propagators

        def measured(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = packed(*args)
            passes.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(evolution, "_final_propagators", measured)
        traced_peak(study)
        reference, cross_check, ladder = passes
        assert ladder <= reference

    def test_peak_memory_of_an_all_methods_chunk(self):
        ladder = [(method, n) for method in ALL_METHODS for n in ALL_METHODS_CHUNK_LADDER]
        assert len(list(evolution._packed([n for _, n in ladder], THREE_CHUNKS[8][0]))) == 1
        evolution._final_propagators(ladder, DENSE8, 0.0, 10.0, 8)  # first-call allocations
        _, peak = traced_peak(lambda: evolution._final_propagators(ladder, DENSE8, 0.0, 10.0, 8))
        assert peak <= ALL_METHODS_CHUNK_PEAK


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

    def test_needs_two_distinct_dt_values(self):
        # two records at one dt leave no slope, however many there are
        with pytest.raises(ValueError, match="distinct dt"):
            fit_order([0.1, 0.1], [1e-4, 2e-4])
        with pytest.raises(ValueError, match="distinct dt"):
            fit_order([0.2, 0.1, 0.1], [0.9, 1e-4, 1e-4], ceiling=0.5)

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
        forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="dts") as info:
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=[], tf=1.0)
        assert not isinstance(info.value, PreconditionError)

    @pytest.mark.parametrize("dts", [[0.5, 0.25, 0.5], [0.5, 0.5 + 1e-12]], ids=["equal", "same-count"])
    def test_rejects_repeated_step_count_before_sampling(self, monkeypatch, dts):
        forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="step count 2 more than once") as info:
            convergence_study(builtin_case("I"), [MethodId.ME2], dts=dts, tf=1.0)
        assert not isinstance(info.value, PreconditionError)

    def test_rejects_empty_methods_before_sampling(self, monkeypatch):
        # a study of no method would run both reference passes for no record
        forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="methods must list at least one method") as info:
            convergence_study(builtin_case("I"), [], dts=[0.5], tf=1.0)
        assert not isinstance(info.value, PreconditionError)

    def test_rejects_repeated_method_before_sampling(self, monkeypatch):
        forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="me2 more than once") as info:
            convergence_study(builtin_case("I"), [MethodId.ME2, MethodId.ME6, MethodId.ME2], dts=[0.5], tf=1.0)
        assert not isinstance(info.value, PreconditionError)

    def test_one_pass_for_the_whole_ladder(self, monkeypatch):
        # the reference, the cross-check, then one packed pass over every
        # method's ladder
        calls = []
        packed = evolution._final_propagators

        def counted(runs, model, t0, tf, dim, hbar):
            calls.append(list(runs))
            return packed(runs, model, t0, tf, dim, hbar)

        monkeypatch.setattr(evolution, "_final_propagators", counted)
        convergence_study(builtin_case("I"), [MethodId.ME2, MethodId.ME6], dts=[0.5, 0.25, 0.125], tf=2.0)
        assert calls == [
            [(evolution.REFERENCE_METHOD, 128)],
            [(evolution.CROSS_CHECK_METHOD, 128)],
            runs(MethodId.ME2, (4, 8, 16)) + runs(MethodId.ME6, (4, 8, 16)),
        ]

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


class TestSamplingGuard:
    # the controls of the "before sampling" tests above: the same guard, the
    # same entry point, valid input, and the guard fires
    @pytest.mark.parametrize(
        "call",
        [
            lambda: propagate(MethodId.ME2, RABI, 0.0, 1.0, 4, [1, 0]),
            lambda: propagate(MethodId.ME2, DENSE3, 0.0, 1.0, 4, np.eye(3)[0]),
            lambda: convergence_study(RABI, [MethodId.ME2], dts=[0.5, 0.25], tf=1.0),
            lambda: convergence_study(RABI, [MethodId.ME2, MethodId.ME6], dts=[0.5], tf=1.0),
            lambda: evolution._final_propagators(runs(MethodId.ME2, (4, 8)), RABI, 0.0, 1.0, 2),
        ],
        ids=["propagate", "propagate-dim3", "convergence-study", "two-methods", "ladder"],
    )
    def test_fires_on_a_valid_run(self, monkeypatch, call):
        forbid_sampling(monkeypatch)
        with pytest.raises(SampledError):
            call()

    def test_fires_on_a_grid_that_fits_in_memory(self, monkeypatch):
        forbid_sampling(monkeypatch)
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: 2**40)
        with pytest.raises(SampledError):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**6, [1, 0])


def callable_of(model):
    return lambda t: model.sample(t)


class TestModelCoordinates:
    # A two-level model is sampled as su(2) coordinates, a callable as complex
    # matrices that exponent checks and converts; on grids whose times
    # t0 + dt j are exact (dt a power of two) both give the same bits.

    @pytest.mark.parametrize("model", [builtin_case("III"), dense_model(2, seed=3), DENSE3], ids=["case-III", "dense2", "dense3"])
    @pytest.mark.parametrize("method", [MethodId.ME2, MethodId.ME6, MethodId.BLANES6_GAUSS], ids=lambda m: m.value)
    def test_model_and_callable_give_the_same_bits(self, model, method):
        psi0 = np.eye(model.dim)[1]
        a = propagate(method, model, 0.0, 4.0, 64, psi0)
        b = propagate(method, callable_of(model), 0.0, 4.0, 64, psi0)
        for name in ("populations", "unitarity_defects", "final_propagator"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        counts = (64, 32, 16, 8)
        finals = evolution._final_propagators(runs(method, counts), model, 0.0, 4.0, model.dim)
        wrapped = evolution._final_propagators(runs(method, counts), callable_of(model), 0.0, 4.0, model.dim)
        assert [u.tobytes() for u in finals] == [u.tobytes() for u in wrapped]

    @pytest.mark.parametrize(
        "model, tf, n", [(builtin_case("II"), 48.0, 24576), (DENSE3, 16.0, 8192)], ids=["case-II", "dense3"]
    )
    def test_multi_chunk_grid_gives_the_same_bits(self, model, tf, n):
        # steps of 2**-9: two chunks, the second a part one, at d = 2 (16384
        # steps a chunk) and at d = 3 (7281).
        # The callable keeps what model.sample returned for each time, so the
        # second pass over the grid costs no Python calls
        psi0 = np.eye(model.dim)[0]
        seen = {}

        def sampler(t):
            if t not in seen:
                seen[t] = model.sample(t)
            return seen[t]

        a = propagate(MethodId.ME2, model, 0.0, tf, n, psi0)
        b = propagate(MethodId.ME2, sampler, 0.0, tf, n, psi0)
        assert a.populations.tobytes() == b.populations.tobytes()
        assert a.final_propagator.tobytes() == b.final_propagator.tobytes()
        (u,) = evolution._final_propagators([(MethodId.ME2, n)], model, 0.0, tf, model.dim)
        (w,) = evolution._final_propagators([(MethodId.ME2, n)], sampler, 0.0, tf, model.dim)
        assert u.tobytes() == w.tobytes()
        assert len(seen) == n + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_coordinates_equal_those_of_the_sampled_matrices(self, seed):
        # complex coupling offsets, zero ones and missing entries included
        rng = np.random.default_rng(seed)
        upper = {}
        for i, j in ((0, 0), (1, 1), (0, 1)):
            if rng.uniform() < 0.25:
                continue
            im = 0.0 if i == j else rng.choice([0.0, -0.0, rng.normal()])
            terms = tuple(SinusoidTerm(rng.normal(), rng.uniform(0.1, 5.0), rng.uniform(0.0, 6.0)) for _ in range(rng.integers(0, 3)))
            upper[(i, j)] = EntrySpec(complex(rng.normal(), im), terms)
        model = HamiltonianModel(2, upper)
        ts = rng.uniform(-50.0, 50.0, 33)
        want = linalg.su2_coordinates(model.sample_many(ts))
        assert model.su2_coordinates(ts).tobytes() == want.tobytes()
        assert model.su2_coordinates(ts[0]).tobytes() == want[:, 0].tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_model_samples_are_exactly_hermitian(self, dim, seed):
        # so the check a model's samples skip cannot fire; nor, above d = 2,
        # could the one Theta skips: the Theta the driver builds from them is
        # exactly anti-Hermitian (at d = 2 it is su(2) coordinates, so by type)
        model = dense_model(dim, seed=100 + seed)
        ts = np.random.default_rng(seed).uniform(-100.0, 100.0, 257)
        assert not np.any(checked_square(model.sample_many(ts), 1)[1:])
        if dim == 2:
            return
        for method in ALL_METHODS:
            for dt in (0.01, 0.7, 5.0):
                samples = [model.sample_many(ts + node * dt) for node in magnus_steps.sample_nodes(method)]
                theta = magnus_steps._theta(method, samples, dt, 1.0)
                assert not np.any(checked_square(theta, -1)[1:]), (method, dt)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_an_overflowing_model_sample_is_a_precondition_error(self, dim):
        # omega * t overflows to inf, whose sine is NaN: a valid model past
        # the float range, reported with the first such time and no numpy
        # warning (the suite turns a RuntimeWarning into an error)
        entries = {(0, 0): EntrySpec(0.0, (SinusoidTerm(1.0, 1e308),)), (0, 1): EntrySpec(1.0)}
        model = HamiltonianModel(dim, entries)
        psi0 = np.eye(dim)[0]
        with pytest.raises(PreconditionError, match=r"model overflows the float range: its sample at t=2\.0 "):
            propagate(MethodId.ME2, model, 0.0, 4.0, 4, psi0)
        with pytest.raises(PreconditionError, match="model overflows the float range"):
            evolution._final_propagators(runs(MethodId.ME4_NC, (8, 4)), model, 0.0, 4.0, dim)

    def test_a_nan_callable_sample_is_the_value_error_of_a_nan_matrix(self):
        # a callable's samples are checked by exponent, with the matrices' error
        model = HamiltonianModel(2, {(0, 0): EntrySpec(0.0, (SinusoidTerm(1.0, 1e308),)), (0, 1): EntrySpec(1.0)})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf") as info:
            propagate(MethodId.ME2, callable_of(model), 0.0, 4.0, 4, [1, 0])
        assert not isinstance(info.value, PreconditionError)

    def test_a_model_of_another_dimension_is_refused_before_sampling(self, monkeypatch):
        forbid_sampling(monkeypatch)
        with pytest.raises(PreconditionError, match=r"must be \(2, 2\), got \(3, 3\)"):
            propagate(MethodId.ME2, DENSE3, 0.0, 1.0, 4, [1, 0])


class TestSampledTimes:
    # a scheme with nodes at both ends of the step samples each grid time once
    @pytest.mark.parametrize(
        "method, per_step", [(MethodId.ME2, 1), (MethodId.ME4_NC, 2), (MethodId.ME6, 6), (MethodId.BLANES6_GAUSS, 3)]
    )
    def test_step_ends_are_sampled_once(self, monkeypatch, method, per_step):
        sizes = count_samples(monkeypatch)
        propagate(method, RABI, 0.0, 1.0, 40, [1, 0])
        shared = method is not MethodId.BLANES6_GAUSS
        assert sum(sizes) == 40 * per_step + shared

    @pytest.mark.parametrize("model, want", [(RABI, [5 * 40 + 41]), (DENSE3, [40] * 5 + [41])])
    def test_a_two_level_chunk_is_sampled_in_one_call(self, monkeypatch, model, want):
        # me6's five inner nodes, then the grid; above d = 2 each keeps its own
        # call, so that exponent can free each stack as it scales it
        sizes = count_samples(monkeypatch)
        propagate(MethodId.ME6, model, 0.0, 1.0, 40, np.eye(model.dim)[0])
        assert sizes == want

    def test_a_callable_gets_the_shared_ends_too(self):
        times = []

        def sampler(t):
            times.append(t)
            return RABI.sample(t)

        propagate(MethodId.ME2, sampler, 0.0, 1.0, 40, [1, 0])
        assert times == list(0.0 + (1.0 / 40) * np.arange(41))

    def test_packed_ladder_samples_each_rung_s_grid_once(self, monkeypatch):
        # rungs of 8, 4 and 2 steps in one chunk: 14 midpoints and 9 + 5 + 3
        # ends, in one call at d = 2
        sizes = count_samples(monkeypatch)
        evolution._final_propagators(runs(MethodId.ME4_NC, (8, 4, 2)), RABI, 0.0, 1.0, 2)
        assert sizes == [31]

    def test_convergence_workload_sample_count(self, monkeypatch):
        # the benchmark's convergence op: 138,369 sampled times when every
        # node of every step was sampled and a one-point dimension probe
        # preceded the study; 118,117 with the step ends shared and no probe;
        # 95,911 with every method's ladder in one pass, where each chunk
        # samples each of its times once: 73,729 for the two references,
        # then 16,134 for the first eight methods' ladders in one chunk and
        # 6,048 for blanes6-gauss's in the next
        from magstep.cli import run

        sizes = count_samples(monkeypatch)
        dts = [x for n in (1024, 512, 256, 128, 64, 32) for x in ("--dt", repr(6.25 / n))]
        out = os.devnull
        assert run(["converge", "--case", "IV", "--methods", "all", "--t-final", "6.25", *dts, "--out", out]) == 0
        assert sizes == [49153, 24576, 16134, 6048]


class TestHbarBeforeSampling:
    @pytest.mark.parametrize("hbar", [0.0, np.nan])
    def test_convergence_study_samples_nothing(self, monkeypatch, hbar):
        sizes = count_samples(monkeypatch)
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            convergence_study(builtin_case("I"), ALL_METHODS, tf=1.0, hbar=hbar)
        assert sizes == []

    def test_a_callable_study_samples_nothing(self):
        # hbar is checked before the callable's dimension probe
        times = []

        def sampler(t):
            times.append(t)
            return SX

        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            convergence_study(sampler, ALL_METHODS, tf=1.0, hbar=0.0)
        assert times == []

    def test_convergence_study_checks_hbar_before_the_interval(self):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            convergence_study(RABI, [MethodId.ME2], tf=np.inf, hbar=0.0)

    def test_propagate_checks_hbar_before_the_memory_preflight(self, monkeypatch):
        forbid_sampling(monkeypatch)
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: 2**20)
        with pytest.raises(ValueError, match="hbar must be positive and finite") as info:
            propagate(MethodId.ME2, RABI, 0.0, 1.0, 10**12, [1, 0], hbar=0.0)
        assert not isinstance(info.value, PreconditionError)


class TestMethodIsAMethodId:
    # a method's name is refused with a TypeError naming the argument and
    # listing the valid methods, before anything is sampled
    VALID = re.escape(", ".join(m.value for m in MethodId))

    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_propagate_samples_nothing(self, monkeypatch, sampler):
        sizes, times = count_samples(monkeypatch), []

        def recorded(t):
            times.append(t)
            return SX

        with pytest.raises(TypeError, match=f"^method must be a MethodId, got 'me2'; valid methods: {self.VALID}"):
            propagate("me2", RABI if sampler == "model" else recorded, 0.0, 1.0, 4, [1, 0])
        assert sizes == times == []

    @pytest.mark.parametrize(
        "methods, message",
        [
            (["me2"], r"methods\[0\] must be a MethodId, got 'me2'"),
            ([MethodId.ME2, "me6"], r"methods\[1\] must be a MethodId, got 'me6'"),
            # the type of each entry is checked before a method listed twice
            ([MethodId.ME2, MethodId.ME2, "me6"], r"methods\[2\] must be a MethodId"),
            ("me2", "methods must be a sequence of MethodId, got 'me2'"),
            ((m for m in ALL_METHODS), "methods must be a sequence of MethodId, got <generator"),
        ],
        ids=["name", "second-name", "before-repeats", "string", "generator"],
    )
    @pytest.mark.parametrize("sampler", ["model", "callable"])
    def test_convergence_study_samples_nothing(self, monkeypatch, methods, message, sampler):
        # not even both references, nor a callable's dimension probe
        sizes, times = count_samples(monkeypatch), []

        def recorded(t):
            times.append(t)
            return SX

        with pytest.raises(TypeError, match=f"^{message}"):
            convergence_study(RABI if sampler == "model" else recorded, methods, dts=[0.5], tf=1.0)
        assert sizes == times == []

    def test_the_error_lists_the_valid_methods(self):
        with pytest.raises(TypeError, match=f"; valid methods: {self.VALID} "):
            convergence_study(RABI, ["me2"], dts=[0.5], tf=1.0)


def count_checks(monkeypatch) -> dict[str, int]:
    """Count the driver's calls of its hbar, interval and size checks; the
    size check is counted as its one call of ``_trajectory_bytes``."""
    counts = dict.fromkeys(("_checked_hbar", "_checked_span", "_trajectory_bytes"), 0)
    for name in counts:
        original = getattr(evolution, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(evolution, name, counted)
    return counts


class TestOnePreflight:
    # each entry point checks each input once, and the chunk pipeline it
    # drives checks none of them again
    def test_the_convergence_workload_checks_each_input_once(self, monkeypatch):
        # the benchmark's convergence op: 11 hbar, 12 interval and 56 size
        # checks when every packed pass checked them again
        from magstep.cli import run

        counts = count_checks(monkeypatch)
        dts = [x for n in (1024, 512, 256, 128, 64, 32) for x in ("--dt", repr(6.25 / n))]
        assert run(["converge", "--case", "IV", "--methods", "all", "--t-final", "6.25", *dts, "--out", os.devnull]) == 0
        assert counts == {"_checked_hbar": 1, "_checked_span": 1, "_trajectory_bytes": 1}

    @pytest.mark.parametrize("model", [RABI, DENSE8], ids=["dim2", "dim8"])
    def test_propagate_checks_each_input_once(self, monkeypatch, model):
        # three chunks at either dimension
        counts = count_checks(monkeypatch)
        propagate(MethodId.ME2, model, 0.0, 1.0, THREE_CHUNKS[model.dim][1], np.eye(model.dim)[0])
        assert counts == {"_checked_hbar": 1, "_checked_span": 1, "_trajectory_bytes": 1}

    def test_sampling_a_model_does_not_check_its_dimension(self):
        # propagate checks a model's dimension once, so _sampled trusts it
        times = np.linspace(0.0, 1.0, 4)
        assert evolution._sampled(DENSE8, times, 3, []).tobytes() == DENSE8.sample_many(times).tobytes()

    @pytest.mark.parametrize("memory", [2**24, None], ids=["physical", "unknown"])
    def test_one_size_preflight_names_the_limit_it_hits(self, monkeypatch, memory):
        forbid_sampling(monkeypatch)
        monkeypatch.setattr(evolution, "_physical_memory_bytes", lambda: memory)
        n, limit = (10**6, "physical memory") if memory else (10**18, "address space")
        with pytest.raises(PreconditionError, match=rf"n_steps=10\^{math.log10(n):.2f} is too large: .* GiB of {limit}$"):
            propagate(MethodId.ME2, RABI, 0.0, 1.0, n, [1, 0])
