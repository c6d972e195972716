import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbroadcast import acceptance
from vbroadcast import broadcasting as bc
from vbroadcast.cli import main
from vbroadcast.records import (
    CSV_HEADER,
    SweepRecord,
    parse_csv,
    render_csv,
    render_json,
    write_records,
)
from vbroadcast.sdp.solver import record_solves


class TestRecords:
    def test_empty_is_header_only(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_single_exact_record(self):
        rec = SweepRecord(d=2, nu=5.0 / 3.0, s=25.0 / 9.0, status="optimal")
        text = render_csv([rec])
        assert text.splitlines()[0] == CSV_HEADER
        assert ",2,1.66666667,2.77777778," in text.splitlines()[1]

    def test_round_trip_byte_identical(self):
        recs = [
            SweepRecord(a=0.5, b=0.25, d=2, nu=1.2345678912345, s=1.52416,
                        status="optimal", gap=1.2e-10, seconds=0.125),
            SweepRecord(gamma=1.8, d=3, mu=0.1218, t=0.1624, status="optimal"),
        ]
        text = render_csv(recs)
        again = render_csv(parse_csv(text))
        assert text == again

    def test_rows_sorted_by_inputs(self):
        recs = [SweepRecord(a=1.0, b=0.0, d=2, nu=1.0),
                SweepRecord(a=0.0, b=1.0, d=2, nu=1.0),
                SweepRecord(a=0.0, b=0.5, d=2, nu=1.1)]
        lines = render_csv(recs).splitlines()[1:]
        assert lines[0].startswith("0,0.5")
        assert lines[1].startswith("0,1")
        assert lines[2].startswith("1,0")

    def test_json_schema(self):
        recs = [SweepRecord(gamma=1.8, d=2, mu=0.121885, t=0.162513,
                            status="optimal")]
        rows = json.loads(render_json(recs))
        assert rows[0]["gamma"] == 1.8
        assert rows[0]["a"] is None
        assert set(rows[0]) == set(CSV_HEADER.split(","))

    def test_non_finite_numbers_are_empty(self):
        rec = SweepRecord(gamma=0.5, d=2, mu=float("nan"), t=float("inf"),
                          gap=float("-inf"), status="primal_infeasible_certificate")
        assert render_csv([rec]).splitlines()[1] == ",,0.5,2,,,,,primal_infeasible_certificate,,"
        row, = json.loads(render_json([rec]))
        assert row["mu"] is row["t"] is row["gap"] is None

    def test_nine_significant_digits(self):
        rec = SweepRecord(d=2, nu=1.0 / 3.0)
        assert "0.333333333" in render_csv([rec])
        assert json.loads(render_json([rec]))[0]["nu"] == 0.333333333

    def test_write_and_parse(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_records([SweepRecord(d=2, nu=1.0)], "csv", path)
        assert parse_csv(open(path).read())[0].d == 2


NUMBERS = st.none() | st.floats(allow_nan=False, allow_infinity=False)
RECORDS = st.lists(st.builds(
    SweepRecord, a=NUMBERS, b=NUMBERS, gamma=NUMBERS,
    d=st.none() | st.integers(1, 10 ** 6), nu=NUMBERS, s=NUMBERS, mu=NUMBERS,
    t=NUMBERS, status=st.none() | st.sampled_from(["optimal", bc.STATUS_UNCERTIFIED]),
    gap=NUMBERS, seconds=NUMBERS), max_size=6)


@settings(max_examples=200, deadline=None)
@given(RECORDS)
# inputs that differ only past the ninth digit must sort as rendered
@example([SweepRecord(a=1.0000000002, b=0.0), SweepRecord(a=1.0000000001, b=5.0)])
def test_csv_round_trip_property(records):
    text = render_csv(records)
    parsed = parse_csv(text)
    assert render_csv(parsed) == text
    for rec, got in zip(sorted(records, key=SweepRecord.sort_key), parsed, strict=True):
        for name in CSV_HEADER.split(","):
            want, have = getattr(rec, name), getattr(got, name)
            if want is None or name in ("d", "status"):
                assert have == want
            else:
                # half a unit in the ninth significant digit
                assert abs(have - want) <= 5.000001e-9 * abs(want)


class TestCliCommands:
    def test_exact_output(self, capsys):
        assert main(["exact", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "nu=1.666667" in out and "s=2.777778" in out

    def test_min_error_anchor(self, capsys):
        assert main(["min-error", "--gamma", "1", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "mu=0.2500" in out

    def test_min_error_infeasible_budget(self, capsys):
        assert main(["min-error", "--gamma", "0.5", "--dim", "2"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep-ab", "--dim", "2", "--grid", "3", "--out", out])
        assert code == 0
        recs = parse_csv(open(out).read())
        assert len(recs) == 9
        by_ab = {(r.a, r.b): r.nu for r in recs}
        for (a, b), nu in by_ab.items():
            assert abs(nu - by_ab[(b, a)]) <= 1e-5

    def test_sweep_solves_each_mirror_pair_once(self, tmp_path):
        out = tmp_path / "sweep.csv"
        with record_solves() as log:
            assert main(["sweep-ab", "--dim", "2", "--grid", "5", "--out", str(out)]) == 0
        recs = parse_csv(out.read_text())
        assert len(recs) == 25 and len(log) == 15
        by_ab = {(r.a, r.b): r for r in recs}
        for (a, b), rec in by_ab.items():
            assert replace(by_ab[(b, a)], a=a, b=b, seconds=rec.seconds) == rec

    def test_sweep_delta_diagonal(self, tmp_path):
        out = str(tmp_path / "diag.csv")
        assert main(["sweep-ab", "--dim", "2", "--delta", "0,0.75",
                     "--out", out]) == 0
        recs = parse_csv(open(out).read())
        assert [(r.a, r.b) for r in recs] == [(0.0, 0.0), (0.75, 0.75)]
        assert abs(recs[0].nu - 5.0 / 3.0) <= 1e-5
        assert abs(recs[1].nu - 1.0) <= 1e-5

    def test_infeasible_budget_writes_strict_json_and_empty_cells(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "inf.json"
        assert main(["min-error", "--gamma", "0.5", "--dim", "2",
                     "--format", "json", "--out", str(out)]) == 0
        row, = json.loads(out.read_text(), parse_constant=reject)
        assert row["status"] == "primal_infeasible_certificate"
        assert row["mu"] is row["t"] is row["gap"] is row["nu"] is None
        out = tmp_path / "inf.csv"
        assert main(["min-error", "--gamma", "0.5", "--dim", "2", "--out", str(out)]) == 0
        rec, = parse_csv(out.read_text())
        assert rec.mu is rec.t is rec.gap is rec.nu is None

    def test_tradeoff_json(self, tmp_path):
        out = str(tmp_path / "tr.json")
        assert main(["tradeoff", "--gammas", "1.0,1.8", "--dims", "2",
                     "--format", "json", "--out", out]) == 0
        rows = json.loads(open(out).read())
        assert len(rows) == 2
        mus = {row["gamma"]: row["mu"] for row in rows}
        assert abs(mus[1.0] - 0.25) <= 1e-3
        assert abs(mus[1.8] - 0.12) <= 0.02

    def test_determinism_modulo_seconds(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["sweep-ab", "--dim", "2", "--grid", "2"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0

        def strip_seconds(path):
            lines = open(path).read().splitlines()
            return [",".join(ln.split(",")[:-1]) for ln in lines]

        assert strip_seconds(out1) == strip_seconds(out2)

    def test_simulate_summary(self, capsys):
        assert main(["simulate", "--gamma", "2", "--dim", "2",
                     "--shots", "20000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "protocol: mean=" in out
        assert "analytic expectation=" in out
        assert "naive baseline" in out

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VBROADCAST_OUT_DIR", str(tmp_path))
        assert main(["exact", "--dim", "2", "--out", "exact.csv"]) == 0
        assert (tmp_path / "exact.csv").exists()


class TestExitCodes:
    def test_bad_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--dim", "not-a-number"])
        assert exc.value.code == 2

    def test_invalid_dimension(self, capsys):
        assert main(["exact", "--dim", "1"]) == 2

    def test_gamma_out_of_construction_range(self, capsys):
        assert main(["simulate", "--gamma", "12"]) == 2

    def test_negative_budget(self, capsys):
        assert main(["min-error", "--gamma", "-1", "--dim", "2"]) == 2
        assert ("error: budget gamma=-1.0 is not a finite number >= 0"
                in capsys.readouterr().err)

    def test_solver_failure(self, capsys):
        # one iteration cannot converge: surfaces as a solver failure
        assert main(["exact", "--dim", "2", "--max-iter", "1"]) == 3

    @pytest.mark.parametrize("flags", [
        ["--tol-gap", "nan"],
        ["--tol-gap", "inf", "--tol-feas", "inf"],
        ["--tol-feas", "0"],
        ["--max-iter", "0"],
    ])
    def test_unusable_stopping_rule_rejected(self, flags, capsys):
        # a NaN tolerance once ran 26 iterations and an infinite one
        # reported an uncertified nu=2; both are bad arguments
        assert main(["exact", "--dim", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_io_failure(self, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert main(["exact", "--dim", "2", "--out", missing]) == 4

    def test_large_dim_gate(self, capsys):
        # d = 6 once built 216-dimensional blocks, past the guardrail of 130;
        # reduced, every block is at most 2 x 2 and the point solves
        assert main(["tradeoff", "--gammas", "1.8", "--dims", "6"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2:4] == ["1.8", "6"] and row[8] == "optimal"

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--dims", ""],
        ["tradeoff", "--gammas", ","],
        ["sweep-ab", "--grid", "2", "--delta", ""],
    ])
    def test_empty_list_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exact", "--seed", "1"],
        ["sweep-ab", "--grid", "2", "--seed", "1"],
        ["simulate", "--out", "x.csv"],
        ["simulate", "--max-iter", "3"],
        ["verify", "--tol-gap", "1e-3"],
        ["sweep-ab", "--grid", "2", "--jobs", "2"],
    ])
    def test_unread_flag_rejected(self, argv, monkeypatch, tmp_path, capsys):
        # each subcommand accepts only the flags it reads
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(acceptance, "run_all", lambda: [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "vbroadcast.cli", "exact", "--dim", "3"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0
    assert "nu=2.000000" in proc.stdout


class TestLargeDim:
    """Every covariant problem is two 2 x 2 blocks plus scalars, so d = 6 needs
    no flag; the flag that once lifted the block-size guard is gone."""
    # tradeoff is TestExitCodes.test_large_dim_gate

    @pytest.mark.parametrize("argv", [
        ["exact", "--dim", "6"],
        ["min-error", "--dim", "6"],
        ["sweep-ab", "--dim", "6", "--delta", "0.1"],
    ])
    def test_solves_without_a_flag(self, argv, capsys):
        assert main(argv) == 0
        if argv[0] == "exact":
            assert f"nu={17 / 7:.6f}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["exact", "--dim", "6"],
        ["min-error", "--dim", "6"],
        ["sweep-ab", "--dim", "6", "--delta", "0.1"],
        ["tradeoff", "--gammas", "1.8", "--dims", "6"],
    ])
    def test_allow_large_dim_is_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--allow-large-dim"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-large-dim" in capsys.readouterr().err


class TestUncertifiedExitCode:
    @pytest.mark.parametrize("argv", [
        ["exact", "--dim", "2"],
        ["min-error", "--gamma", "1.8", "--dim", "2"],
        ["tradeoff", "--gammas", "1.8", "--dims", "2"],
    ])
    def test_failed_certificate_exits_3(self, argv, corrupted_solves, capsys):
        assert main(argv) == 3
        assert "certificate" in capsys.readouterr().err


class TestFailedPoints:
    """A point whose solve fails becomes a record with its status and empty
    outputs; every other row is still written and the exit code is 3."""

    # at 1e-12 and a cap of 3, 22 points of this grid are optimal and
    # (0.75, 0.75), (0.75, 1), (1, 0.75) are not
    ARGV = ["sweep-ab", "--dim", "2", "--grid", "5", "--tol-gap", "1e-12",
            "--tol-feas", "1e-12", "--max-iter", "3"]

    def test_sweep_writes_every_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "max_iterations" in err and " 3 of 25 points reached neither" in err
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        recs = parse_csv(text)
        assert len(recs) == 25
        failed = [r for r in recs if r.status != "optimal"]
        assert len(failed) == 3
        for r in failed:
            assert r.status == "max_iterations"
            assert (r.nu, r.s, r.mu, r.t, r.gap) == (None,) * 5
            assert r.d == 2 and None not in (r.a, r.b, r.seconds)
        line = next(l for l in text.splitlines()[1:] if "max_iterations" in l)
        assert line.split(",")[4:10] == ["", "", "", "", "max_iterations", ""]

    def test_single_solve_prints_its_status(self, capsys):
        assert main(["exact", "--dim", "2", "--max-iter", "1"]) == 3
        assert "d=2 status=max_iterations" in capsys.readouterr().out
