import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from magstep.hamiltonians import (
    EntrySpec,
    HamiltonianModel,
    ModelError,
    SinusoidTerm,
    builtin_case,
    load_model,
)
from magstep.linalg import checked_square

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CASE_I_JSON = json.dumps(
    {
        "dim": 2,
        "entries": [
            {"i": 0, "j": 0, "offset": [0.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0, "phase": 0.0}]},
            {"i": 1, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0, "phase": 0.0}]},
            {"i": 0, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0, "phase": 0.0}]},
        ],
    }
)


class TestBuiltinCases:
    def test_case_i_parameters(self):
        m = builtin_case("I")
        assert np.allclose(m.sample(0.0), [[0, 1], [1, 1]])

    def test_case_i_quarter_period(self):
        m = builtin_case("I")
        assert np.allclose(m.sample(np.pi / 2), [[1, 2], [2, 2]])

    def test_case_iii_sample(self):
        m = builtin_case("III")
        s3, s03 = np.sin(3.0), np.sin(0.3)
        expected = [[s03, 1 + s03], [1 + s03, 1 + s3]]
        assert np.allclose(m.sample(0.3), expected)

    def test_case_iv_frequency(self):
        m = builtin_case("IV")
        # coupling oscillates at angular frequency 10
        assert m.sample(np.pi / 20)[0, 1] == pytest.approx(2.0)

    def test_unknown_case(self):
        with pytest.raises(ModelError):
            builtin_case("V")


class TestSampling:
    def test_hermitian_on_dense_grid(self):
        # sample_many writes conj(v) into each mirror entry, so the defect of
        # every sample is exactly 0
        for case in ["I", "II", "III", "IV"]:
            m = builtin_case(case)
            ts = np.linspace(0.0, 50.0, 10_000)
            hs = m.sample_many(ts)
            assert checked_square(hs, 1)[1:] == (0.0, 0.0)

    def test_su2_coordinates_of_the_builtin_cases(self):
        # (c, x, y, z) of H = c I + x sx + y sy + z sz, read off the entries
        for case in ["I", "II", "III", "IV"]:
            m = builtin_case(case)
            ts = np.linspace(0.0, 50.0, 1001)
            h = m.sample_many(ts)
            c, x, y, z = m.su2_coordinates(ts)
            assert np.allclose(c, (h[:, 0, 0] + h[:, 1, 1]).real / 2, rtol=0, atol=1e-15)
            assert np.allclose(z, (h[:, 0, 0] - h[:, 1, 1]).real / 2, rtol=0, atol=1e-15)
            assert np.array_equal(x, h[:, 0, 1].real) and np.array_equal(y, -h[:, 0, 1].imag)

    def test_su2_coordinates_need_two_levels(self):
        with pytest.raises(ModelError, match="dim 3"):
            HamiltonianModel(3, {}).su2_coordinates(np.zeros(2))

    def test_sample_many_matches_scalar(self):
        m = builtin_case("II")
        ts = np.array([0.0, 0.37, 1.2])
        stacked = m.sample_many(ts)
        for k, t in enumerate(ts):
            assert np.array_equal(stacked[k], m.sample(float(t)))

    def test_periodicity_commensurate_cases(self):
        # cases I and II have all frequencies integer, hence period 2*pi
        for case in ["I", "II"]:
            m = builtin_case(case)
            for t in [0.0, 0.31, 2.7]:
                assert np.allclose(m.sample(t + 2 * np.pi), m.sample(t), atol=1e-12)

    def test_phase_offsets(self):
        m = HamiltonianModel(
            2, {(0, 1): EntrySpec(0.0, (SinusoidTerm(1.0, 1.0, np.pi / 2),))}
        )
        assert m.sample(0.0)[0, 1] == pytest.approx(1.0)  # sin(pi/2)


def reference_real_value(entry, ts):
    """An entry's real part, each term evaluated on its own: the per-entry
    loop the sinusoid table replaced, kept as the bitwise reference."""
    ts = np.asarray(ts, dtype=float)
    out = np.full(ts.shape, entry.offset.real + 0.0)
    scratch = np.empty_like(out)
    for term in entry.terms:
        np.multiply(term.angular_frequency, ts, out=scratch)
        scratch += term.phase
        np.sin(scratch, out=scratch)
        scratch *= term.amplitude
        out += scratch
    return out


def reference_sample_many(model, ts):
    """The stack, one complex entry at a time, each added to a zero stack
    with its conjugate below the diagonal."""
    ts = np.asarray(ts, dtype=float)
    h = np.zeros(ts.shape + (model.dim, model.dim), dtype=np.complex128)
    for (i, j), entry in model.upper_triangle.items():
        v = reference_real_value(entry, ts) + complex(0.0, entry.offset.imag)
        h[..., i, j] += v
        if i != j:
            h[..., j, i] += np.conj(v)
    return h


def reference_su2_coordinates(model, ts):
    """(c, x, y, z) from the entries' real values, one entry at a time."""
    ts = np.asarray(ts, dtype=float)
    e00, e11, coupling = (model.upper_triangle.get(ij) for ij in ((0, 0), (1, 1), (0, 1)))
    out = np.empty((4,) + ts.shape)
    out[1] = 0.0 if coupling is None else reference_real_value(coupling, ts)
    out[2] = 0.0 if coupling is None else 0.0 - coupling.offset.imag
    out[3] = 0.0 if e00 is None else reference_real_value(e00, ts)
    out[3] *= 0.5
    h11 = 0.0 if e11 is None else reference_real_value(e11, ts)
    h11 *= 0.5
    out[0] = out[3] + h11
    out[3] -= h11
    return out


def shared_sinusoid_model(dim, seed):
    """A seeded model whose terms draw (omega, phase) from a pool of four
    pairs, so pairs repeat within and across entries.  Entries go missing,
    and offsets, frequencies, phases and amplitudes are zeros of either sign
    often enough that pairs differing only in a zero's sign share a row."""
    rng = np.random.default_rng([dim, seed])

    def number(scale):
        return float(rng.choice([0.0, -0.0, scale * rng.normal()]))

    pool = [(number(3.0), number(3.0)) for _ in range(4)]
    upper = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.uniform() < 0.3:
                continue
            im = 0.0 if i == j else number(1.0)
            terms = tuple(SinusoidTerm(number(1.0), *pool[rng.integers(4)]) for _ in range(rng.integers(0, 4)))
            upper[(i, j)] = EntrySpec(complex(number(1.0), im), terms)
    return HamiltonianModel(dim, upper)


def sinusoid_rows(model):
    return len(model._sinusoids(np.zeros(0))[0])


class TestSinusoidTable:
    TIMES = {
        "scalar": lambda rng: rng.uniform(-50.0, 50.0),
        "1-D": lambda rng: np.concatenate([[0.0, -0.0], rng.uniform(-50.0, 50.0, 31)]),
        "2-D": lambda rng: rng.uniform(-50.0, 50.0, (3, 7)),
    }

    @pytest.mark.parametrize("shape", TIMES)
    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("seed", range(6))
    def test_samples_equal_the_per_entry_loop_bitwise(self, seed, dim, shape):
        model = shared_sinusoid_model(dim, seed)
        ts = self.TIMES[shape](np.random.default_rng(seed))
        want = reference_sample_many(model, ts)
        got = model.sample_many(ts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if dim == 2:
            want = reference_su2_coordinates(model, ts)
            got = model.su2_coordinates(ts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", TIMES)
    def test_edge_models_equal_the_per_entry_loop_bitwise(self, shape):
        # an empty model; -0.0 offsets with a complex and a -0.0j coupling
        # offset; one (omega, phase) pair written with +0.0 and with -0.0
        ts = self.TIMES[shape](np.random.default_rng(7))
        models = [
            HamiltonianModel(2, {}),
            HamiltonianModel(3, {}),
            HamiltonianModel(2, {(0, 0): EntrySpec(complex(-0.0, -0.0)), (0, 1): EntrySpec(complex(-0.0, 0.75))}),
            HamiltonianModel(3, {(1, 2): EntrySpec(complex(-0.0, -0.0), (SinusoidTerm(-0.0, 1.0),))}),
            HamiltonianModel(2, {
                (0, 0): EntrySpec(-0.0, (SinusoidTerm(1.0, 0.0, -0.0), SinusoidTerm(2.0, -0.0, 0.0))),
                (0, 1): EntrySpec(complex(0.5, -0.0), (SinusoidTerm(-1.0, -0.0, -0.0), SinusoidTerm(0.5, 2.0, -0.0))),
                (1, 1): EntrySpec(0.0, (SinusoidTerm(1.5, 2.0, 0.0),)),
            }),
        ]
        assert sinusoid_rows(models[-1]) == 2
        for model in models:
            assert model.sample_many(ts).tobytes() == reference_sample_many(model, ts).tobytes()
            if model.dim == 2:
                assert model.su2_coordinates(ts).tobytes() == reference_su2_coordinates(model, ts).tobytes()

    @pytest.mark.parametrize("case, rows", [("I", 1), ("II", 2), ("III", 2), ("IV", 2)])
    def test_one_row_per_distinct_sinusoid_of_a_builtin_case(self, case, rows):
        assert sinusoid_rows(builtin_case(case)) == rows

    def test_the_wide_model_has_a_row_per_term(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        # 36 entries of two sinusoids each, all distinct
        assert sinusoid_rows(load_model(workloads.wide_model_json(0))) == 72

    def test_a_model_keeps_a_read_only_copy_of_its_entries(self):
        # an entry set after construction would skip __post_init__'s checks
        # (a complex diagonal gives a non-Hermitian sample), so neither an
        # assignment through the model nor one to the caller's dict reaches it
        entries = {(0, 0): EntrySpec(1.0, (SinusoidTerm(1.0, 1.0),)), (0, 1): EntrySpec(0.5)}
        model = HamiltonianModel(2, entries)
        ts = np.linspace(0.0, 5.0, 11)
        before = model.sample_many(ts).tobytes(), model.su2_coordinates(ts).tobytes()
        with pytest.raises(TypeError):
            model.upper_triangle[(0, 0)] = EntrySpec(0.5j)
        with pytest.raises(TypeError):
            builtin_case("I").upper_triangle[(0, 0)] = EntrySpec(0.5j)
        entries[(0, 0)] = EntrySpec(0.5j)
        entries[(0, 1)] = EntrySpec(0.5, (SinusoidTerm(2.0, 7.0, 0.25),))
        assert (model.sample_many(ts).tobytes(), model.su2_coordinates(ts).tobytes()) == before
        assert sinusoid_rows(model) == 1
        assert checked_square(model.sample_many(ts), 1)[1:] == (0.0, 0.0)


class TestLoadModel:
    def test_round_trip_case_i(self):
        m = load_model(CASE_I_JSON)
        ref = builtin_case("I")
        for t in np.linspace(0, 10, 64):
            assert np.allclose(m.sample(t), ref.sample(t), atol=0)

    def test_rejects_complex_diagonal(self):
        text = json.dumps(
            {"dim": 2, "entries": [{"i": 0, "j": 0, "offset": [0.0, 0.5], "terms": []}]}
        )
        with pytest.raises(ModelError, match=r"diagonal"):
            load_model(text)

    def test_three_level_model_is_hermitian(self):
        text = json.dumps(
            {
                "dim": 3,
                "entries": [
                    {"i": 0, "j": 0, "offset": [0.5, 0.0], "terms": []},
                    {"i": 2, "j": 2, "offset": [-0.5, 0.0], "terms": []},
                    {"i": 0, "j": 2, "offset": [0.0, 0.3], "terms": [{"amp": 0.7, "omega": 2.0}]},
                ],
            }
        )
        m = load_model(text)
        assert checked_square(m.sample(1.0), 1)[1:] == (0.0, 0.0)

    def test_parse_error_reports_position(self):
        with pytest.raises(ModelError, match=r"line \d+"):
            load_model("{not json")

    def test_rejects_lower_triangle_indices(self):
        text = json.dumps({"dim": 2, "entries": [{"i": 1, "j": 0, "offset": [1, 0]}]})
        with pytest.raises(ModelError, match=r"i <= j"):
            load_model(text)

    def test_rejects_duplicate_entries(self):
        text = json.dumps(
            {
                "dim": 2,
                "entries": [
                    {"i": 0, "j": 1, "offset": [1, 0]},
                    {"i": 0, "j": 1, "offset": [2, 0]},
                ],
            }
        )
        with pytest.raises(ModelError, match=r"duplicate"):
            load_model(text)

    @pytest.mark.parametrize("terms", [5, {"amp": 1}])
    def test_rejects_terms_that_are_not_a_list(self, terms):
        text = json.dumps({"dim": 2, "entries": [{"i": 0, "j": 1, "terms": terms}]})
        with pytest.raises(ModelError, match=r"^entries\[0\]: 'terms' must be a list$"):
            load_model(text)

    def test_rejects_missing_dim(self):
        with pytest.raises(ModelError, match=r"dim"):
            load_model("{}")

    def test_finite_offset_whose_modulus_overflows_is_accepted(self):
        # |1.5e308 (1 + i)| is past the float range; each part is finite
        m = HamiltonianModel(2, {(0, 1): EntrySpec(complex(1.5e308, 1.5e308))})
        assert m.sample(0.0)[0, 1] == complex(1.5e308, 1.5e308)

    @pytest.mark.parametrize("offset", [complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_rejects_nonfinite_offset(self, offset):
        with pytest.raises(ModelError, match="offset"):
            EntrySpec(offset)

    def test_rejects_nonfinite_term(self):
        with pytest.raises(ModelError):
            SinusoidTerm(float("inf"), 1.0)
