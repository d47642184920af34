import json

import numpy as np
import pytest

from magstep.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    run,
)
from magstep.hamiltonians import HamiltonianModel

CASE_I_JSON = json.dumps(
    {
        "dim": 2,
        "entries": [
            {"i": 0, "j": 0, "offset": [0.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0}]},
            {"i": 1, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0}]},
            {"i": 0, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0}]},
        ],
    }
)


def read_lines(path):
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n")
    return text.splitlines()


class TestListMethods:
    def test_order(self, capsys):
        assert run(["list-methods"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert out == [
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


class TestPropagate:
    def test_case_run_with_n_steps(self, tmp_path):
        out = tmp_path / "pop.csv"
        code = run(
            [
                "propagate", "--case", "I", "--method", "me4-nc",
                "--n-steps", "200", "--t-final", "2.0",
                "--initial", "0", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "t,pop_0,pop_1,unitarity_defect"
        assert len(lines) == 202  # header + 201 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        sums = [sum(float(v) for v in line.split(",")[1:3]) for line in lines[1:]]
        assert max(abs(s - 1.0) for s in sums) < 1e-10

    def test_dt_snaps_to_integer_step_count(self, tmp_path):
        out = tmp_path / "pop.csv"
        code = run(
            [
                "propagate", "--case", "II", "--method", "me2",
                "--dt", "0.01", "--t-final", "2.0", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(read_lines(out)) == 202  # 200 steps

    def test_model_file(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(CASE_I_JSON)
        out = tmp_path / "pop.csv"
        code = run(
            [
                "propagate", "--model", str(model_path), "--method", "me3",
                "--n-steps", "50", "--t-final", "1.0", "--out", str(out),
            ]
        )
        assert code == EXIT_OK

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "pop.csv"
        run(
            [
                "propagate", "--case", "I", "--method", "me2",
                "--n-steps", "3", "--t-final", "1.0", "--out", str(out),
            ]
        )
        third = read_lines(out)[2].split(",")
        assert float(third[0]) == 1.0 / 3.0  # exact round trip of the grid time

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "propagate", "--case", "III", "--method", "blanes4-gauss",
            "--n-steps", "100", "--t-final", "4.0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_method_lists_valid_ids(self, tmp_path, capsys):
        code = run(
            [
                "propagate", "--case", "I", "--method", "rk4",
                "--n-steps", "10", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "me4-full" in err and "blanes6-gauss" in err

    def test_requires_one_model_source(self, tmp_path, capsys):
        code = run(
            ["propagate", "--method", "me2", "--n-steps", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_rejects_both_dt_and_n_steps(self, tmp_path):
        code = run(
            [
                "propagate", "--case", "I", "--method", "me2", "--dt", "0.1",
                "--n-steps", "10", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE

    def test_unreadable_model_file(self, tmp_path):
        code = run(
            [
                "propagate", "--model", str(tmp_path / "missing.json"),
                "--method", "me2", "--n-steps", "2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE

    def test_out_of_memory_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(self, ts):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(HamiltonianModel, "sample_many", exhausted)
        out = tmp_path / "pop.csv"
        code = run(
            ["propagate", "--case", "I", "--method", "me2", "--n-steps", "4", "--out", str(out)]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed:")
        assert "out of memory" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_invalid_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "entries": [{"i": 0, "j": 0, "offset": [0, 1]}]}')
        code = run(
            [
                "propagate", "--model", str(bad), "--method", "me2",
                "--n-steps", "2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE


class TestConverge:
    def converge(self, tmp_path, name="err.csv", extra=()):
        out = tmp_path / name
        code = run(
            [
                "converge", "--case", "I", "--methods", "me2,me4-full",
                "--t-final", "5.0", "--dt", "0.1", "--dt", "0.05", "--dt", "0.025",
                "--out", str(out), *extra,
            ]
        )
        return code, out

    def test_records_and_slopes(self, tmp_path):
        code, out = self.converge(tmp_path)
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "method,dt,n_steps,error"
        data = [line.split(",") for line in lines[1:7]]
        assert [row[0] for row in data] == ["me2"] * 3 + ["me4-full"] * 3
        assert [int(row[2]) for row in data[:3]] == [50, 100, 200]
        errs = [float(row[3]) for row in data[:3]]
        assert errs == sorted(errs, reverse=True)  # error shrinks with dt
        assert lines[7] == "method,slope"
        slopes = dict(line.split(",") for line in lines[8:])
        assert float(slopes["me2"]) == pytest.approx(2.0, abs=0.3)
        assert float(slopes["me4-full"]) == pytest.approx(4.0, abs=0.4)

    def test_byte_identical_reruns(self, tmp_path):
        _, first = self.converge(tmp_path, "a.csv")
        _, second = self.converge(tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_methods_all_expands_to_nine(self, tmp_path):
        out = tmp_path / "err.csv"
        code = run(
            [
                "converge", "--case", "I", "--methods", "all", "--t-final", "2.0",
                "--dt", "0.05", "--dt", "0.025", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = read_lines(out)
        methods = {line.split(",")[0] for line in lines[1:19]}
        assert len(methods) == 9

    def test_non_dividing_dt_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "err.csv"
        code = run(
            ["converge", "--case", "I", "--t-final", "10.0", "--dt", "0.3", "--out", str(out)]
        )
        assert code == EXIT_NUMERICAL
        assert "integer step count" in capsys.readouterr().err


class TestStepSizeLimits:
    # --dt 1e-300 snaps to about 1e302 steps: more than an array can address,
    # so it must fail before any grid is sampled; only the one-point dimension
    # probe of a convergence study may sample
    @pytest.fixture(autouse=True)
    def no_grid_sampling(self, monkeypatch):
        sample_many = HamiltonianModel.sample_many

        def probe_only(self, ts):
            assert np.size(ts) <= 1, f"sampled a grid of {np.size(ts)} times"
            return sample_many(self, ts)

        monkeypatch.setattr(HamiltonianModel, "sample_many", probe_only)

    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2"], ["converge", "--methods", "me2"]]
    )
    def test_unaddressable_grid_is_numerical_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = run(command + ["--case", "I", "--dt", "1e-300", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed:")
        assert "n_steps=" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2"], ["converge", "--methods", "me2"]]
    )
    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_is_usage_error(self, tmp_path, capsys, command, dt):
        out = tmp_path / "x.csv"
        code = run(command + ["--case", "I", "--dt", dt, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--dt" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2"], ["converge", "--methods", "me2"]]
    )
    def test_step_count_overflowing_a_float_is_numerical_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = run(command + ["--case", "I", "--t-final", "1e300", "--dt", "1e-10", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "1e-10" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(
            [
                "verify", "--suite", "closed-forms", "--seed", "42", "--dim", "2",
                "--draws", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "identity,max_rel_dev,tolerance,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_determinism(self, tmp_path):
        args = ["verify", "--suite", "symmetry", "--seed", "7", "--dim", "3", "--draws", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_tolerance_fails_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(
            [
                "verify", "--suite", "closed-forms", "--draws", "2",
                "--tolerance", "0", "--out", str(out),
            ]
        )
        assert code == EXIT_VERIFY_FAILED
        assert "FAILED" in capsys.readouterr().err
        lines = read_lines(out)
        assert any(line.endswith("false") for line in lines[1:])


    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_is_usage_error(self, tmp_path, capsys, draws):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "all", "--draws", draws, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--draws" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_points_is_usage_error_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "all", "--points", "4", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--points must be at least 8" in err
        assert "gl_points_per_axis" not in err
        assert not out.exists()


class TestBadStepAndTimeFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--dt", "0"], "--dt"),
            (["verify", "--dt", "nan"], "--dt"),
            (["verify", "--dt", "inf"], "--dt"),
            (["propagate", "--method", "me2", "--n-steps", "4", "--t-final", "inf"], "--t-final"),
            (["propagate", "--method", "me2", "--n-steps", "4", "--t0", "nan"], "--t0"),
            (["converge", "--methods", "me2", "--t-final", "inf"], "--t-final"),
            (["converge", "--methods", "me2", "--t0=-inf"], "--t0"),
        ],
    )
    def test_usage_error_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        model = [] if argv[0] == "verify" else ["--case", "I"]
        assert run(argv + model + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error:") and flag in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # numpy's overflow and invalid-value warnings come before the error
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dt, error", [("1e80", "OverflowError"), ("1e-200", "ZeroDivisionError")])
    def test_arithmetic_error_is_numerical_failure(self, tmp_path, capsys, dt, error):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "closed-forms", "--draws", "1", "--dt", dt, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"magstep: numerical precondition failed: {error}:")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_deviation_fails_its_row(self, tmp_path):
        # at dt = 1e60 the Frobenius norms of the M3 and M4 oracles overflow,
        # so their relative deviations are NaN and must not read as a pass
        out = tmp_path / "report.csv"
        code = run(
            ["verify", "--suite", "symmetry", "--dim", "2", "--draws", "1", "--dt", "1e60", "--out", str(out)]
        )
        assert code == EXIT_VERIFY_FAILED
        rows = {line.split(",")[0]: line.split(",")[1:] for line in read_lines(out)[1:]}
        for n in (3, 4):
            dev, _, passed = rows[f"oracle-sign-flip-m{n}"]
            assert (dev, passed) == ("nan", "false")


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "propagate" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run([]) == EXIT_USAGE
