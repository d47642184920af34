import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import magstep
from magstep import cli, evolution, verify
from magstep.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    run,
)
from magstep.evolution import convergence_study, propagate
from magstep.hamiltonians import builtin_case
from magstep.magnus_steps import MethodId
from magstep.verify import MAX_DIM, OracleConfig, check_symmetry_suite

from conftest import SampledError, forbid_sampling

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


def report_rows(path):
    """A verify CSV's rows by identity: ``[max_rel_dev, tolerance, pass]`` as text."""
    return {line.split(",")[0]: line.split(",")[1:] for line in read_lines(path)[1:]}


def value_text(x):
    """A CSV field as the format has always written it, one value at a time."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return x


def table_text(header, rows):
    return "".join(",".join(map(value_text, row)) + "\n" for row in [header, *rows])


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


# The huge-offset run below turns the state by hypot(1.5, 1.5) * 1e8 = 2.1e8
# rad in all.  One ulp of that angle is 3e-8 rad, so its inputs fix the
# populations only to about that.
HUGE_OFFSET_POPULATION_TOL = 1e-7


class TestPropagate:
    def test_finite_offset_near_the_float_limit(self, tmp_path):
        # a constant coupling h01 = 1.5e308 (1 + i): each part is finite, its
        # modulus and the sums of its entries are not, and neither the model
        # check nor the su(2) coordinates of the samples may overflow
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"dim": 2, "entries": [{"i": 0, "j": 1, "offset": [1.5e308, 1.5e308]}]}))
        out = tmp_path / "pop.csv"
        argv = [
            "propagate", "--model", str(model), "--method", "me6", "--n-steps", "4",
            "--t-final", "1e-300", "--out", str(out),
        ]
        assert run(argv) == EXIT_OK
        pops = [float(x) for x in read_lines(out)[-1].split(",")[1:3]]
        angle = math.hypot(1.5, 1.5) * 1e8
        want = [math.cos(angle) ** 2, math.sin(angle) ** 2]
        assert pops == pytest.approx(want, rel=0.0, abs=HUGE_OFFSET_POPULATION_TOL)

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

    # grid points are steps + 1: one short of four row blocks, four full
    # blocks, and one and two rows past them
    @pytest.mark.parametrize("extra", [-2, -1, 0, 1])
    def test_csv_reads_back_as_the_trace(self, tmp_path, extra):
        n = 4 * magstep.cli._CSV_BLOCK_ROWS + extra
        out = tmp_path / "pop.csv"
        argv = ["propagate", "--case", "II", "--method", "me4-nc", "--n-steps", str(n),
                "--t-final", "7.0", "--initial", "1", "--out", str(out)]
        assert run(argv) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "t,pop_0,pop_1,unitarity_defect"
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        trace = propagate(MethodId.ME4_NC, builtin_case("II"), 0.0, 7.0, n, [0, 1], hbar=1.0)
        assert values.shape == (n + 1, 4)
        assert np.array_equal(values[:, 0], trace.times)
        assert np.array_equal(values[:, 1:3], trace.populations)
        assert np.array_equal(values[:, 3], trace.unitarity_defects)

    def test_writer_stacks_one_block_of_rows_at_a_time(self, tmp_path, monkeypatch):
        # the trace's columns go to the writer as they are: no (n + 1, d + 2)
        # row array, whose 256 KiB here would be the writer's peak; a block of
        # 128 rows, its text and its values peak at about 60 KiB
        monkeypatch.setattr(magstep.cli, "_CSV_BLOCK_ROWS", 128)
        n = 2**13
        rng = np.random.default_rng(4)
        columns = (np.linspace(0.0, 1.0, n), rng.random((n, 2)), rng.random(n))
        out = tmp_path / "pop.csv"
        tracemalloc.start()
        try:
            magstep.cli._write_csv(str(out), (["t", "a", "b", "d"], columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * 4 * 8 // 2
        stacked = tmp_path / "stacked.csv"
        rows = np.column_stack(columns)
        magstep.cli._write_csv(str(stacked), (["t", "a", "b", "d"], (rows,)))
        assert out.read_bytes() == stacked.read_bytes()

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_out_of_memory_is_numerical_error(self, tmp_path, capsys, monkeypatch, dim):
        # a two-level model is sampled as su(2) coordinates, any other as
        # matrices: both run out of memory here
        forbid_sampling(monkeypatch, lambda message: MemoryError(f"Unable to allocate: {message}"))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"dim": dim, "entries": [{"i": 0, "j": 1, "offset": [1.0, 0.0]}]}))
        out = tmp_path / "pop.csv"
        code = run(
            ["propagate", "--model", str(model), "--method", "me2", "--n-steps", "4", "--out", str(out)]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed:")
        assert "out of memory" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2", "--n-steps", "16"], ["converge", "--methods", "me2"]]
    )
    def test_overflowing_model_is_numerical_error(self, tmp_path, capsys, dim, command):
        # omega * t passes the float range and its sine is NaN: one line,
        # exit 2, and no numpy warning (the suite turns one into an error)
        model = tmp_path / "model.json"
        entries = [{"i": 0, "j": 0, "terms": [{"amp": 1.0, "omega": 1e308}]}, {"i": 0, "j": 1, "offset": [1.0, 0.0]}]
        model.write_text(json.dumps({"dim": dim, "entries": entries}))
        out = tmp_path / "x.csv"
        assert run(command + ["--model", str(model), "--t-final", "10", "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed: the model overflows the float range")
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

    @pytest.mark.parametrize("terms", [5, {"amp": 1}])
    def test_model_terms_not_a_list(self, tmp_path, capsys, terms):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [{"i": 0, "j": 1, "terms": terms}]}))
        out = tmp_path / "x.csv"
        code = run(
            ["propagate", "--model", str(bad), "--method", "me2", "--n-steps", "2", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "magstep: error: entries[0]: 'terms' must be a list\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["offset[0]", "offset[1]", "terms[0].amp", "terms[0].omega", "terms[0].phase"])
    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2", "--n-steps", "2"], ["converge", "--methods", "me2"]]
    )
    def test_model_number_beyond_the_float_range(self, tmp_path, capsys, command, field):
        # JSON reads a 401-digit integer exactly, and float() of it overflows:
        # a usage error naming the field, as for 1e999 there
        entry = {"i": 0, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0, "phase": 0.0}]}
        if field.startswith("offset"):
            entry["offset"][int(field[7])] = "BIG"
        else:
            entry["terms"][0][field.split(".")[1]] = "BIG"
        text = json.dumps({"dim": 2, "entries": [entry]})
        for big, got in (("1" + "0" * 400, "an integer of 401 digits"), ("1e999", "inf"), ("-1e999", "-inf")):
            bad = tmp_path / "bad.json"
            bad.write_text(text.replace('"BIG"', big))
            out = tmp_path / "x.csv"
            assert run(command + ["--model", str(bad), "--t-final", "1", "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == f"magstep: error: entries[0].{field}: expected a finite number, got {got}\n"
            assert not out.exists()

    @pytest.mark.parametrize("field", ["dim", "i", "offset[0]", "terms[0].amp"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_model_integer_past_the_int_conversion_limit(self, tmp_path, capsys, field, sign):
        # Python converts at most sys.get_int_max_str_digits() digits to an
        # int (4300 by default); a longer JSON literal is read as the float
        # it is, so its field's own check names it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            model = {"dim": 2, "entries": [{"i": 0, "j": 1, "offset": [1.0, 0.0], "terms": [{"amp": 1.0, "omega": 1.0}]}]}
            if field == "dim":
                model["dim"] = "BIG"
            elif field == "i":
                model["entries"][0]["i"] = "BIG"
            elif field == "offset[0]":
                model["entries"][0]["offset"][0] = "BIG"
            else:
                model["entries"][0]["terms"][0]["amp"] = "BIG"
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(model).replace('"BIG"', sign + "1" + "0" * 5000))
            out = tmp_path / "x.csv"
            code = run(["propagate", "--model", str(bad), "--method", "me2", "--n-steps", "2", "--out", str(out)])
        finally:
            sys.set_int_max_str_digits(limit)
        message = {
            "dim": "'dim' must be a positive integer",
            "i": "entries[0]: index i must be an integer",
            "offset[0]": "entries[0].offset[0]: expected a finite number",
            "terms[0].amp": "entries[0].terms[0].amp: expected a finite number",
        }[field]
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"magstep: error: {message}, got {sign}inf\n"
        assert not out.exists()


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

    def test_single_dt_writes_nan_slopes(self, tmp_path):
        # one rung leaves no slope to fit; the records and the NaN slope rows
        # read as they always have
        out = tmp_path / "err.csv"
        argv = ["converge", "--case", "I", "--methods", "me2,me6", "--t-final", "5.0",
                "--dt", "0.1", "--out", str(out)]
        assert run(argv) == EXIT_OK
        report = convergence_study(builtin_case("I"), [MethodId.ME2, MethodId.ME6], dts=[0.1], tf=5.0)
        records = [(r.method.value, r.dt, r.n_steps, r.error) for r in report.records]
        want = (table_text(["method", "dt", "n_steps", "error"], records)
                + table_text(["method", "slope"], [("me2", float("nan")), ("me6", float("nan"))]))
        assert out.read_text(encoding="ascii") == want
        assert read_lines(out)[-2:] == ["me2,nan", "me6,nan"]

    def test_repeated_rung_is_usage_error_naming_the_step_count(self, tmp_path, capsys):
        out = tmp_path / "err.csv"
        argv = ["converge", "--case", "I", "--methods", "me2", "--t-final", "1",
                "--dt", "0.5", "--dt", "0.5", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error: ") and "step count 2 " in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_repeated_method_is_usage_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "err.csv"
        argv = ["converge", "--case", "I", "--methods", "me2,me2", "--t-final", "1",
                "--dt", "0.5", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error: ") and "me2 more than once" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "interval, code, message",
        [
            (["--t0=-1e308", "--t-final=1e308"], EXIT_USAGE, "t0, tf and tf - t0 must be finite"),
            (["--t0", "2", "--t-final", "1"], EXIT_NUMERICAL, "tf must exceed t0"),
        ],
        ids=["non-finite", "reversed"],
    )
    @pytest.mark.parametrize("steps", [["--n-steps", "4"], ["--dt", "1"]], ids=["n-steps", "dt"])
    def test_propagate_checks_the_interval_before_the_step(self, tmp_path, capsys, interval, code, message, steps):
        # one check, the library's, whichever way the steps are given: --dt 1
        # is not blamed for an interval whose length is not a float
        out = tmp_path / "pop.csv"
        argv = ["propagate", "--case", "I", "--method", "me2", *interval, *steps, "--out", str(out)]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "interval, code, message",
        [
            (["--t0=-1e308", "--t-final=1e308"], EXIT_USAGE, "t0, tf and tf - t0 must be finite"),
            (["--t0", "2", "--t-final", "1"], EXIT_NUMERICAL, "tf must exceed t0"),
        ],
        ids=["non-finite", "reversed"],
    )
    def test_interval_is_checked_as_propagate_checks_it(self, tmp_path, capsys, interval, code, message):
        out = tmp_path / "err.csv"
        assert run(["converge", "--case", "I", "--methods", "me2", *interval, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_non_dividing_dt_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "err.csv"
        code = run(
            ["converge", "--case", "I", "--t-final", "10.0", "--dt", "0.3", "--out", str(out)]
        )
        assert code == EXIT_NUMERICAL
        assert "integer step count" in capsys.readouterr().err


class TestStepSizeLimits:
    # --dt 1e-300 snaps to about 1e302 steps: more than an array can address,
    # so it must fail before anything is sampled (a convergence study takes a
    # model's dimension without sampling it)
    @pytest.fixture(autouse=True)
    def no_grid_sampling(self, monkeypatch):
        forbid_sampling(monkeypatch)

    @pytest.mark.parametrize(
        "command", [["propagate", "--method", "me2"], ["converge", "--methods", "me2"]]
    )
    def test_the_guard_fires_on_a_valid_step(self, tmp_path, command):
        with pytest.raises(SampledError):
            run(command + ["--case", "I", "--t-final", "1", "--dt", "0.25", "--out", str(tmp_path / "x.csv")])

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

    # dims 2 to 4 take linalg.commutator's summed products, dim 5 its @
    @pytest.mark.parametrize("dim", ["2", "3", "4", "5"])
    def test_wrong_term_weight_fails_with_exit_3(self, tmp_path, capsys, monkeypatch, dim):
        # Omega_4's 1/5040 as 1/50, in the term function the certification calls
        omega4_linear = verify.omega4_linear
        monkeypatch.setattr(
            verify, "omega4_linear", lambda *args, **kw: (5040.0 / 50.0) * omega4_linear(*args, **kw)
        )
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "closed-forms", "--dim", dim, "--draws", "2", "--out", str(out)])
        assert code == EXIT_VERIFY_FAILED
        assert "FAILED" in capsys.readouterr().err
        failed = [line.split(",")[0] for line in read_lines(out)[1:] if line.endswith("false")]
        assert failed == ["m4-linear", "m4-linear-alt-root"]

    @pytest.mark.parametrize("flag", [["--points", "12"], ["--tolerance", "1"]])
    def test_quadrature_and_tolerance_are_not_flags(self, tmp_path, capsys, flag):
        # the point count and every tolerance are fixed by magstep.verify
        out = tmp_path / "report.csv"
        assert run(["verify", "--suite", "all", *flag, "--out", str(out)]) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_is_usage_error(self, tmp_path, capsys, draws):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "all", "--draws", draws, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--draws" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_oracle_configs(self):
        args = cli.build_parser().parse_args(["verify", "--out", "report.csv"])
        defaults = OracleConfig()
        assert (args.seed, args.dim, args.dt, args.draws) == (defaults.seed, defaults.dim, defaults.dt, defaults.draws)


class TestVerifyDimBound:
    # MAX_DIM is the largest dim at which seeds 0 to 19 pass every row
    @pytest.mark.parametrize("seed", [0, 19, 42])
    def test_every_row_passes_at_the_largest_accepted_dim(self, tmp_path, seed):
        out = tmp_path / "report.csv"
        args = ["verify", "--suite", "all", "--dim", str(MAX_DIM), "--seed", str(seed), "--draws", "1"]
        assert run(args + ["--out", str(out)]) == EXIT_OK
        assert all(line.endswith(",true") for line in read_lines(out)[1:])

    def test_the_next_dim_is_refused(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "all", "--dim", str(MAX_DIM + 1), "--draws", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"magstep: error: argument --dim: must be from 2 to {MAX_DIM}, got '{MAX_DIM + 1}'\n"
        assert not out.exists()


class TestBadStepAndTimeFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--dt", "0"], "--dt"),
            (["verify", "--dt", "nan"], "--dt"),
            (["verify", "--dt", "inf"], "--dt"),
            (["verify", "--dim", "0"], "--dim"),
            (["verify", "--dim", "1"], "--dim"),
            (["verify", "--seed", "-1"], "--seed"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "4", "--t-final", "inf"], "--t-final"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "4", "--t0", "nan"], "--t0"),
            (["converge", "--case", "I", "--methods", "me2", "--t-final", "inf"], "--t-final"),
            (["converge", "--case", "I", "--methods", "me2", "--t0=-inf"], "--t0"),
            (["converge", "--case", "I", "--methods", "me2", "--dt", "0"], "--dt"),
            (["converge", "--case", "I", "--methods", "me2", "--dt", "0.5", "--dt", "-0.5"], "--dt"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "0"], "--n-steps"),
            (["propagate", "--case", "I", "--method", "me2", "--dt", "0"], "--dt"),
            (["propagate", "--case", "I", "--method", "me2", "--dt=-1"], "--dt"),
            (["verify", "--dim", "13"], "--dim"),
            (["propagate", "--case", "I", "--model", "m.json", "--method", "me2", "--n-steps", "4"], "--case --model"),
            (["propagate", "--method", "me2", "--n-steps", "4"], "--case --model"),
            (["converge", "--case", "I", "--model", "m.json", "--methods", "me2"], "--case --model"),
            (["converge", "--methods", "me2"], "--case --model"),
            (["propagate", "--case", "I", "--method", "me2", "--dt", "1", "--n-steps", "4"], "--dt --n-steps"),
            (["propagate", "--case", "I", "--method", "me2"], "--dt --n-steps"),
            (["propagate", "--case", "I", "--method", "me2", "--dt", "abc"], "--dt"),
            (["verify", "--dt", "abc"], "--dt"),
            (["verify", "--dim", "abc"], "--dim"),
            # an option where a value belongs is no value
            (["verify", "--dt"], "--dt"),
            # a flag's value is refused as it is read, before the method's
            # name is looked up
            (["propagate", "--case", "I", "--method", "nope", "--n-steps", "0"], "--n-steps"),
            (["propagate", "--case", "I", "--method", "nope", "--hbar", "0", "--n-steps", "4"], "--hbar"),
            (["propagate", "--model", "missing.json", "--method", "me2", "--hbar", "nan", "--n-steps", "4"], "--hbar"),
            (["converge", "--case", "I", "--methods", "nope", "--hbar=-1"], "--hbar"),
            (["converge", "--case", "I", "--methods", "me2", "--hbar", "inf"], "--hbar"),
        ],
    )
    def test_usage_error_naming_the_flag(self, tmp_path, capsys, argv, flag):
        # flag names only: argparse's own wording differs between Pythons
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error:") and all(name in err for name in flag.split())
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # a negative number in exponent notation is a value as a word of its
    # own, as it is after "=": the same exit code, CSV bytes and stderr
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["verify", "--suite", "symmetry", "--draws", "1"], "--dt", "-1e-3"),
            (["verify", "--suite", "symmetry", "--draws", "1"], "--dt", "-.5e1"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "4", "--t-final", "1"], "--t0", "-1e-3"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "4"], "--t-final", "-1E+2"),
            (["converge", "--case", "I", "--methods", "me2", "--dt", "0.5", "--dt", "0.25"], "--hbar", "-1e-3"),
        ],
    )
    def test_a_negative_number_in_exponent_notation_is_a_value(self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "x.csv"
        results = []
        for form in ([flag, value], [f"{flag}={value}"]):
            code = run(argv + form + ["--out", str(out)])
            results.append((code, out.read_bytes() if out.exists() else None, capsys.readouterr().err))
            out.unlink(missing_ok=True)
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][2]

    # an unparsable value reads as argparse reads one for the flag's type
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["verify", "--dt", "abc"], "float"),
            (["verify", "--dim", "abc"], "int"),
            (["verify", "--draws", "1.5"], "int"),
            (["propagate", "--case", "I", "--method", "me2", "--n-steps", "2.5"], "int"),
            (["converge", "--case", "I", "--t-final", "x"], "float"),
        ],
    )
    def test_an_unparsable_value_names_its_type(self, tmp_path, capsys, argv, kind):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert f"invalid {kind} value" in capsys.readouterr().err

    # numpy's overflow and invalid-value warnings stay off stderr
    @pytest.mark.parametrize(
        "dt, error, scale",
        [
            ("1e80", "OverflowError", "dt**4"),
            ("1e-200", "ZeroDivisionError", "dt**3 / 120"),
            # dt**3 / 120 is subnormal: finite, but its rounding fails the rows
            ("1e-103", "ZeroDivisionError", "dt**3 / 120"),
            # the bound is on the magnitude: a negative dt is checked alike
            ("-1e-103", "ZeroDivisionError", "dt**3 / 120"),
        ],
    )
    def test_arithmetic_error_is_numerical_failure(self, tmp_path, capsys, dt, error, scale):
        out = tmp_path / "report.csv"
        # "--dt=" so argparse takes "-1e-103" as a value, not an option
        code = run(["verify", "--suite", "closed-forms", "--draws", "1", f"--dt={dt}", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"magstep: numerical precondition failed: {error}: dt={float(dt)!r} is too ")
        assert scale in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # dt**3 / 120 is a normal float from |dt| = 1.3875e-102 up, so the
    # nested-scalar rows are measured and pass there; the m2 to m4 rows and
    # the degree-0 rows, whose deviations' squares underflow, read NaN and
    # fail the run.  A negative dt is a valid step
    @pytest.mark.parametrize("dt", ["2e-102", "-2e-102", "-1"])
    def test_smallest_dt_whose_nested_scalar_integral_is_normal_passes(self, tmp_path, dt):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "closed-forms", "--draws", "1", f"--dt={dt}", "--out", str(out)])
        rows = report_rows(out)
        for k in range(1, 5):
            assert rows[f"nested-scalar-{k}"][2] == "true"
        unmeasured = [name for name, (dev, _, _) in rows.items() if dev == "nan"]
        if dt == "-1":
            assert code == EXIT_OK and unmeasured == []
        else:
            assert code == EXIT_VERIFY_FAILED
            assert unmeasured == [name for name in rows if name[:2] in ("m2", "m3", "m4") or name[:7] == "degree0"]

    @pytest.mark.parametrize(
        "suite, dt, unmeasured",
        [
            ("closed-forms", "1e-36", ["m4-linear", "m4-linear-alt-root", "m4-roots-agree", "degree0-m4-vanishes"]),
            ("closed-forms", "1e-60", ["m3-linear", "m3-quadratic", "m4-linear", "m4-linear-alt-root", "m4-roots-agree",
                                       "degree0-m3-vanishes", "degree0-m4-vanishes"]),
            ("closed-forms", "1e40", ["m4-linear", "m4-linear-alt-root", "m4-roots-agree"]),
            ("symmetry", "1e-40", ["oracle-sign-flip-m4"]),
        ],
    )
    def test_a_deviation_the_norm_cannot_measure_fails_its_row(self, tmp_path, suite, dt, unmeasured):
        # below about |dt| = 1.5e-34 the squares of an m4 deviation underflow,
        # so a wrong term would read 0, and so do those of a degree-0 m4
        # integral's at its scale; at 1e40 the m4 reference's norm is inf
        out = tmp_path / "report.csv"
        draws = "3" if suite == "closed-forms" else "2"
        assert run(["verify", "--suite", suite, "--draws", draws, "--dt", dt, "--out", str(out)]) == EXIT_VERIFY_FAILED
        rows = report_rows(out)
        assert [name for name, (dev, _, _) in rows.items() if dev == "nan"] == unmeasured
        assert all(rows[name][2] == "false" for name in unmeasured)

    def test_a_small_dt_whose_rows_are_measured_passes(self, tmp_path):
        # at 1e-30 every row is measured, the m4 ones at about 2e-15
        out = tmp_path / "report.csv"
        assert run(["verify", "--suite", "closed-forms", "--draws", "3", "--dt", "1e-30", "--out", str(out)]) == EXIT_OK
        rows = report_rows(out)
        for name in ("m4-linear", "m4-linear-alt-root", "m4-roots-agree"):
            assert 0.0 < float(rows[name][0]) <= float(rows[name][1])

    def test_a_wrong_degree0_m4_value_fails_at_a_small_dt(self, tmp_path, monkeypatch):
        # at 1e-30 the m4 integral of a constant interpolant has a scale of
        # about 1e-120, so a wrong value of 1e-125 in every entry, far below
        # ORACLE_AGREEMENT_TOL in absolute terms, is off by about 1e-5 of it
        interpolant, oracle = verify.interpolant, verify.oracle_Mn
        constant = set()

        def tagged(samples, t_k, dt):
            h = interpolant(samples, t_k, dt)
            if len(samples) == 1:
                constant.add(h)
            return h

        def wrong(h, n, t_k, dt):
            value = oracle(h, n, t_k, dt)
            return value + 1e-125 if n == 4 and h in constant else value

        monkeypatch.setattr(verify, "interpolant", tagged)
        monkeypatch.setattr(verify, "oracle_Mn", wrong)
        out = tmp_path / "report.csv"
        assert run(["verify", "--suite", "closed-forms", "--draws", "3", "--dt", "1e-30", "--out", str(out)]) == EXIT_VERIFY_FAILED
        rows = report_rows(out)
        assert [name for name, (_, _, passed) in rows.items() if passed == "false"] == ["degree0-m4-vanishes"]
        assert 1e-7 < float(rows["degree0-m4-vanishes"][0]) < 1e-3

    def test_overflowing_deviation_fails_its_row(self, tmp_path, capsys):
        # at dt = 1e60 the Frobenius norms of the M3 and M4 oracles overflow,
        # so their relative deviations are NaN and must not read as a pass
        out = tmp_path / "report.csv"
        code = run(
            ["verify", "--suite", "symmetry", "--dim", "2", "--draws", "1", "--dt", "1e60", "--out", str(out)]
        )
        assert code == EXIT_VERIFY_FAILED
        err = capsys.readouterr().err
        assert err.startswith("verification FAILED for:") and len(err.splitlines()) == 1
        rows = {line.split(",")[0]: line.split(",")[1:] for line in read_lines(out)[1:]}
        for n in (3, 4):
            dev, _, passed = rows[f"oracle-sign-flip-m{n}"]
            assert (dev, passed) == ("nan", "false")
        # every row, NaN and false included, reads as it always has
        with np.errstate(all="ignore"):
            report = check_symmetry_suite(OracleConfig(dim=2, dt=1e60, draws=1))
        want = table_text(
            ["identity", "max_rel_dev", "tolerance", "pass"],
            [(r.identity, r.max_rel_dev, r.tolerance, r.passed) for r in report.rows],
        )
        assert out.read_text(encoding="ascii") == want


def dense_model_json(dim, seed):
    """A model with every upper-triangle entry driven, so no bracket is sparse."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(dim):
        for j in range(i, dim):
            im = 0.0 if i == j else float(rng.uniform(-1.0, 1.0))
            terms = [
                {"amp": float(rng.uniform(0.1, 1.0)), "omega": float(rng.uniform(0.5, 3.0)),
                 "phase": float(rng.uniform(0.0, 6.0))}
                for _ in range(2)
            ]
            entries.append({"i": i, "j": j, "offset": [float(rng.uniform(-1.0, 1.0)), im], "terms": terms})
    return json.dumps({"dim": dim, "entries": entries})


class TestBlasThreadReproducibility:
    # the CSV must not depend on how many threads BLAS splits a product over
    @pytest.mark.parametrize("method", ["me6", "blanes6-gauss"])
    def test_csv_identical_for_one_and_two_threads(self, tmp_path, method):
        model = tmp_path / "dense8.json"
        model.write_text(dense_model_json(8, seed=5))
        src = str(Path(magstep.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{method}-{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            argv = [
                sys.executable, "-m", "magstep.cli", "propagate", "--model", str(model),
                "--method", method, "--t-final", "10", "--n-steps", "256", "--initial", "3",
                "--out", str(out),
            ]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 258
        assert outputs[0] == outputs[1]


class TestHbar:
    @staticmethod
    def halved(model_json):
        model = json.loads(model_json)
        for entry in model["entries"]:
            entry["offset"] = [0.5 * x for x in entry["offset"]]
            for term in entry["terms"]:
                term["amp"] *= 0.5
        return json.dumps(model)

    @pytest.mark.parametrize("method", ["me2", "me4-full", "me6", "blanes6-gauss"])
    def test_hbar_two_equals_halved_model(self, tmp_path, method):
        # hbar enters once, as dt/hbar: halving every offset and amplitude is
        # exact in binary, so the two runs must agree to the byte
        dense = dense_model_json(3, seed=11)
        outputs = []
        for name, text, hbar in (("full", dense, "2"), ("half", self.halved(dense), "1")):
            model, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            model.write_text(text)
            argv = [
                "propagate", "--model", str(model), "--method", method, "--hbar", hbar,
                "--t-final", "5", "--n-steps", "64", "--initial", "1", "--out", str(out),
            ]
            assert run(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 66
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command",
        [["propagate", "--method", "me2", "--n-steps", "4"],
         ["converge", "--methods", "me2", "--t-final", "1", "--dt", "0.5", "--dt", "0.25"]],
        ids=["propagate", "converge"],
    )
    @pytest.mark.parametrize("hbar", ["0", "nan", "-1"])
    def test_bad_hbar_is_usage_error_naming_it(self, tmp_path, capsys, hbar, command):
        out = tmp_path / "pop.csv"
        argv = command + ["--case", "I", "--hbar", hbar, "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error:") and "hbar" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_bad_hbar_is_reported_before_the_ladder(self, tmp_path, capsys):
        # 0.3 does not divide 10 either, but --hbar is refused as it is read
        out = tmp_path / "err.csv"
        argv = ["converge", "--case", "I", "--hbar", "-1", "--dt", "0.3", "--t-final", "10", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error:") and "argument --hbar: must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["propagate", "--method", "me2", "--n-steps", "4"],
         ["propagate", "--method", "me2", "--dt", "0.25"],
         ["converge", "--methods", "me2"],
         ["propagate", "--method", "me2", "--dt", "1e-310"],
         ["converge", "--methods", "me2", "--dt", "1e-310"]],
        ids=["propagate", "propagate-dt", "converge", "propagate-uncountable-dt", "converge-uncountable-dt"],
    )
    def test_bad_hbar_is_reported_before_a_reversed_interval(self, tmp_path, capsys, monkeypatch, command):
        # a bad --hbar is refused as argparse reads it; a good one is checked
        # once, and the interval once after it, whether or not the step count
        # of a --dt is a float
        counts = dict.fromkeys(("_checked_hbar", "_checked_span"), 0)
        for owner, name in ((evolution, "_checked_hbar"), (evolution, "_checked_span"), (cli, "_checked_span")):
            def counted(*args, name=name, original=getattr(owner, name)):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)
        out = tmp_path / "x.csv"
        for hbar, code in (("-1", EXIT_USAGE), ("1", EXIT_NUMERICAL)):
            argv = command + ["--case", "I", "--hbar", hbar, "--t0", "2", "--t-final", "1", "--out", str(out)]
            assert run(argv) == code
            err = capsys.readouterr().err
            want = "argument --hbar: must be positive and finite" if hbar == "-1" else "tf must exceed t0"
            assert want in err and len(err.splitlines()) == 1
            assert not out.exists()
        assert counts == {"_checked_hbar": 1, "_checked_span": 1}

    def test_bad_hbar_is_reported_before_the_memory_preflight(self, tmp_path, capsys, monkeypatch):
        # 10**12 steps would not fit in memory either, but --hbar is refused
        # as it is read
        forbid_sampling(monkeypatch)
        out = tmp_path / "pop.csv"
        argv = ["propagate", "--case", "I", "--method", "me2", "--n-steps", "1000000000000",
                "--hbar", "0", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("magstep: error:") and "argument --hbar: must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, hbar",
        [(m.value, "1e-310") for m in magstep.ALL_METHODS] + [("me6", "1e-80"), ("blanes6-gauss", "1e-80")],
    )
    def test_overflowing_exponent_is_numerical_failure(self, tmp_path, capsys, method, hbar):
        # at 1e-310 dt/hbar itself overflows; at 1e-80 the generators are
        # finite and the fourfold brackets of the sixth-order schemes overflow
        out = tmp_path / "pop.csv"
        argv = [
            "propagate", "--case", "I", "--method", method, "--n-steps", "4", "--hbar", hbar,
            "--out", str(out),
        ]
        assert run(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed:") and "dt/hbar" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_overflowing_symmetry_step_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(["verify", "--suite", "symmetry", "--draws", "1", "--dt", "1e80", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("magstep: numerical precondition failed:") and "dt/hbar" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "propagate" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run([]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["propagate", "converge"])
    def test_case_choices_are_the_builtin_cases_in_order(self, capsys, command):
        assert run([command, "--help"]) == 0
        assert "--case {I,II,III,IV}" in capsys.readouterr().out

    def test_dim_help_gives_the_reasons_for_its_range(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
        assert run(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert f"2 to {MAX_DIM}: at 1 every commutator term is 0" in out
        assert f"above {MAX_DIM} the const-roundtrip row can fail on correct arithmetic" in out


class TestOneParser:
    def test_the_parser_is_built_once_per_process(self, monkeypatch, tmp_path, capsys):
        assert run(["list-methods"]) == EXIT_OK  # builds it, if no test has yet
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert run(["list-methods"]) == EXIT_OK
        assert run(["verify", "--dim", "13", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert built == []

    def test_two_converge_runs_write_only_their_own_rungs(self, tmp_path):
        # each parse starts --dt's list afresh, though the parser is shared
        def step_counts(path):
            return [line.split(",")[2] for line in read_lines(path)[1:] if line.count(",") == 3]

        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        argv = ["converge", "--case", "I", "--methods", "me2", "--t-final", "1"]
        assert run(argv + ["--dt", "0.5", "--dt", "0.25", "--out", str(first)]) == EXIT_OK
        assert run(argv + ["--dt", "0.125", "--out", str(second)]) == EXIT_OK
        assert step_counts(first) == ["2", "4"]
        assert step_counts(second) == ["8"]


class TestAllocatorPin:
    # run pins glibc's mmap and trim thresholds once per process; each test
    # starts from an unpinned process and a stand-in C library

    @staticmethod
    def stand_in(monkeypatch, library):
        opened = []

        def cdll(name):
            opened.append(name)
            if isinstance(library, Exception):
                raise library
            return library

        monkeypatch.setattr(magstep.cli, "_allocator_pinned", False)
        monkeypatch.setattr(magstep.cli.ctypes, "CDLL", cdll)
        return opened

    @staticmethod
    def libc(calls, result=1):
        def mallopt(param, value):
            calls.append((param, value))
            return result

        return types.SimpleNamespace(mallopt=mallopt)

    def test_pins_once_per_process(self, monkeypatch, capsys):
        calls = []
        opened = self.stand_in(monkeypatch, self.libc(calls))
        assert run(["list-methods"]) == EXIT_OK
        assert run(["list-methods"]) == EXIT_OK
        assert opened == [None]
        # M_MMAP_THRESHOLD (-3) first, then M_TRIM_THRESHOLD (-1)
        assert calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]

    def test_trim_threshold_is_left_alone_unless_the_mmap_threshold_took(self, monkeypatch, capsys):
        calls = []
        self.stand_in(monkeypatch, self.libc(calls, result=0))
        assert run(["list-methods"]) == EXIT_OK
        assert calls == [(-3, 32 * 2**20)]

    COMMANDS = [
        (["list-methods"], EXIT_OK),
        (["propagate", "--case", "I", "--method", "me4-nc", "--n-steps", "100"], EXIT_OK),
        (["converge", "--case", "II", "--methods", "me2,me6", "--t-final", "1", "--dt", "0.1", "--dt", "0.05"], EXIT_OK),
        (["verify", "--suite", "closed-forms", "--draws", "2"], EXIT_OK),
        (["propagate", "--case", "I", "--method", "nope", "--n-steps", "4"], EXIT_USAGE),
        (["propagate", "--case", "I", "--method", "me2", "--n-steps", "4", "--t0", "1", "--t-final", "0"], EXIT_NUMERICAL),
    ]

    @pytest.mark.parametrize(
        "library", [OSError("no C library"), types.SimpleNamespace()], ids=["no-library", "no-mallopt"]
    )
    def test_exit_codes_and_outputs_do_not_depend_on_the_pin(self, monkeypatch, tmp_path, capsys, library):
        def outcomes(tag):
            seen = []
            for i, (argv, code) in enumerate(self.COMMANDS):
                out = tmp_path / f"{tag}-{i}.csv"
                rc = run(argv + (["--out", str(out)] if argv[0] != "list-methods" else []))
                seen.append((rc, out.read_bytes() if out.exists() else None, capsys.readouterr()))
            return seen

        pinned = outcomes("pinned")
        assert [rc for rc, _, _ in pinned] == [code for _, code in self.COMMANDS]
        opened = self.stand_in(monkeypatch, library)
        assert outcomes("unpinned") == pinned
        assert opened == [None]


def percent_lines(block):
    """The rows of a 2-D float block as the CSV writer once wrote them: one
    %-format per row, applied to a whole block of rows by one ``%``."""
    rows, cols = block.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist())).encode("ascii")


def powers_of_ten_and_neighbours():
    """Every power of ten from 1e-300 to 1e300, as the nearest double, with
    the next double either way, of either sign."""
    p = 10.0 ** np.arange(-300, 301)
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([x, -x])


class TestG17Kernel:
    # the writer's %.17g kernel must give Python's '%.17g' % x byte for byte,
    # falling back to it for every value it cannot be sure of

    # 10 columns is the width of a dim-8 propagate table
    @pytest.mark.parametrize("cols", [1, 3, 4, 10])
    def test_random_bit_patterns(self, cols):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 2**15, dtype=np.uint64, endpoint=False)
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                             2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
        x = np.concatenate([specials, bits.view(np.float64)])
        block = x[: x.size - x.size % cols].reshape(-1, cols)
        assert cli._g17_lines(block) == percent_lines(block)

    def test_powers_of_ten_and_their_neighbours(self):
        x = powers_of_ten_and_neighbours()
        assert cli._g17_lines(x.reshape(-1, 2)) == percent_lines(x.reshape(-1, 2))

    def test_switches_between_the_fixed_and_exponent_forms(self):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        x = edges[:, None] * (1.0 + np.arange(-8, 9) * 2.0**-52)
        x = np.concatenate([x.ravel(), np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            [9.9999999999999995e-05, 9.99999999999999999e-5, 99999999999999999.0]])
        x = np.concatenate([x, -x])
        text = cli._g17_lines(x.reshape(-1, 1))
        assert text == percent_lines(x.reshape(-1, 1))
        assert {b"1.0000000000000001e-05", b"0.0001", b"10000000000000000", b"1e+17"} <= set(text.split())

    def test_exact_ties_round_half_to_even(self):
        x = np.array([[2.0**-25, 3 * 2.0**-25]])
        assert cli._g17_lines(x) == b"2.9802322387695312e-08,8.9406967163085938e-08\n" == percent_lines(x)
        # both are exact ties at the 17th digit, which the kernel leaves to '%'
        assert not cli._g17_digits(x.ravel(), *cli._g17_tables()[:2])[2].any()
        # such a value in a row's first or last field is written into the
        # frame before the row's separators are
        unsure = np.array([2.0**-25, 1e-300, np.nan, -np.inf])
        block = np.random.default_rng(5).random((4, 10))
        block[:, 0], block[:, -1] = unsure, unsure[::-1]
        ok = cli._g17_digits(block.ravel(), *cli._g17_tables()[:2])[2].reshape(block.shape)
        assert ok[:, 1:-1].all() and not ok[:, [0, -1]].any()
        assert cli._g17_lines(block) == percent_lines(block)

    def test_values_that_round_up_into_the_next_decade(self):
        # the nearest doubles to 1e-14, 1e+98, ... lie below them but round
        # to them at 17 digits: D = 10**17 is read as 10**16 at k + 1
        up = np.array([v for v in powers_of_ten_and_neighbours()
                       if v > 0 and ("%.17g" % v).startswith("1e")
                       and Fraction(float(v)) < Fraction(10) ** int(("%.17g" % v)[2:])])
        assert up.size >= 10
        assert cli._g17_lines(up.reshape(-1, 1)) == percent_lines(up.reshape(-1, 1))

    def test_the_kernel_formats_in_range_values_itself(self):
        # the fallback to '%' is only for exact ties at the 17th digit (common
        # where a double has few fraction bits, as near 1e15), or the kernel
        # would go untested by every comparison above
        rng = np.random.default_rng(3)
        x = rng.random(4096) * 10.0 ** rng.integers(-270, 270, 4096)
        ok = cli._g17_digits(x, *cli._g17_tables()[:2])[2]
        assert ok.mean() > 0.99
        for v in x[~ok]:
            digits = Decimal(float(v)).as_tuple().digits
            assert len(digits) == 18 and digits[17] == 5
        x = np.array([np.nan, np.inf, 1e-300, 1e300, 5e-324])
        assert not cli._g17_digits(x, *cli._g17_tables()[:2])[2].any()

    def test_tables_are_built_once_and_read_only(self):
        tables = cli._g17_tables()
        assert cli._g17_tables() is tables
        assert not any(t.flags.writeable for t in tables)


class TestPercentText:
    # every CSV is byte-identical to the %-format text of the same values

    def test_propagate(self, tmp_path):
        n = cli._CSV_BLOCK_ROWS + 5  # two blocks
        out = tmp_path / "pop.csv"
        argv = ["propagate", "--case", "III", "--method", "me6", "--n-steps", str(n), "--t-final", "30",
                "--initial", "1", "--out", str(out)]
        assert run(argv) == EXIT_OK
        trace = propagate(MethodId.ME6, builtin_case("III"), 0.0, 30.0, n, [0, 1], hbar=1.0)
        rows = np.column_stack([trace.times, trace.populations, trace.unitarity_defects])
        assert out.read_bytes() == b"t,pop_0,pop_1,unitarity_defect\n" + percent_lines(rows)

    def test_converge(self, tmp_path):
        out = tmp_path / "err.csv"
        argv = ["converge", "--case", "II", "--methods", "me2,me4-nc,blanes6-gauss", "--t-final", "2",
                "--dt", "0.1", "--dt", "0.05", "--dt", "0.025", "--out", str(out)]
        assert run(argv) == EXIT_OK
        methods = [MethodId.ME2, MethodId.ME4_NC, MethodId.BLANES6_GAUSS]
        report = convergence_study(builtin_case("II"), methods, dts=[0.1, 0.05, 0.025], tf=2.0)
        want = "method,dt,n_steps,error\n" + "".join(
            "%s,%.17g,%d,%.17g\n" % (r.method.value, r.dt, r.n_steps, r.error) for r in report.records
        ) + "method,slope\n" + "".join("%s,%.17g\n" % (m.value, report.slopes[m]) for m in methods)
        assert out.read_text(encoding="ascii") == want

    @pytest.mark.parametrize("dt", ["1", "1e60"])
    def test_verify(self, tmp_path, dt):
        # at --dt 1e60 some rows are NaN and fail
        out = tmp_path / "report.csv"
        argv = ["verify", "--suite", "all", "--dim", "3", "--draws", "1", "--dt", dt, "--out", str(out)]
        assert run(argv) in (EXIT_OK, EXIT_VERIFY_FAILED)
        cfg = OracleConfig(dim=3, dt=float(dt), draws=1)
        with np.errstate(all="ignore"):
            rows = verify.check_closed_forms(cfg).rows + check_symmetry_suite(cfg).rows
        want = "identity,max_rel_dev,tolerance,pass\n" + "".join(
            "%s,%.17g,%.17g,%s\n" % (r.identity, r.max_rel_dev, r.tolerance, "true" if r.passed else "false")
            for r in rows
        )
        assert out.read_text(encoding="ascii") == want
        assert (",nan," in want) == (dt == "1e60")
