import json

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

    def test_real_value_is_the_real_part_of_value(self):
        entry = EntrySpec(complex(0.5, -2.0), (SinusoidTerm(1.5, 2.0, 0.3), SinusoidTerm(-0.5, 7.0)))
        ts = np.linspace(-3.0, 3.0, 41)
        v = entry.value(ts)
        assert np.array_equal(entry.real_value(ts), v.real) and np.all(v.imag == -2.0)

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
        entry = EntrySpec(complex(1.5e308, 1.5e308))
        assert entry.value(0.0) == complex(1.5e308, 1.5e308)

    @pytest.mark.parametrize("offset", [complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_rejects_nonfinite_offset(self, offset):
        with pytest.raises(ModelError, match="offset"):
            EntrySpec(offset)

    def test_rejects_nonfinite_term(self):
        with pytest.raises(ModelError):
            SinusoidTerm(float("inf"), 1.0)
