"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

import pfcert
from pfcert import admittance, cli, limits, oracle
from pfcert.cli import main
from pfcert.net_model import CaseError, build_case, load_case_file, partition_buses

from conftest import DATA_DIR, TWO_BUS_MATPOWER, case_path, emit_json, make_two_bus, make_weak_tie_star
from reference_values import two_bus_analytic


@pytest.fixture
def two_bus_file(tmp_path):
    path = tmp_path / "two_bus.m"
    path.write_text(TWO_BUS_MATPOWER)
    return path


def run(args):
    return main([str(a) for a in args])


def test_certify_holds(two_bus_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--case", two_bus_file, "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["holds"] is True
    assert doc["certificate"]["radii"]["r_lo"] == pytest.approx(0.317837, abs=1e-5)
    # base load 2.5 sits exactly on the strict wang boundary (4 xi = 1): fails
    assert doc["baselines"]["wang"]["holds"] is False
    assert doc["baselines"]["dvijotham"]["holds"] is True
    assert doc["voltage_bounds"]["buses"][0]["bus"] == 2


def test_certify_failure_is_exit_1_with_artifact(two_bus_file, tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--case", two_bus_file, "--scale", 5.0, "--out", out])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["certificate"]["holds"] is False
    assert doc["certificate"]["reason"] == "stress_level"


def test_certify_zero_load_prints_infinite_radii_as_null(two_bus_file, tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--case", two_bus_file, "--scale", 0, "--out", out]) == 0
    text = out.read_text()
    assert '"r_hi": null' in text and "solutionless_radius" not in text  # r_hi is printed once


@pytest.mark.parametrize("command", ["certify", "limits"])
@pytest.mark.parametrize("old, new", [
    ("\t5\t1\t90\t30\t", "\t5\t1\tNaN\t30\t"),  # bus 5's Pd
    ("\t1\t4\t0\t0.0576\t", "\t1\t4\t0\tInf\t"),  # branch 1-4's reactance
    ("\t5\t1\t90\t30\t", "\tNaN\t1\t90\t30\t"),  # bus 5's number
], ids=["bus Pd", "branch x", "bus number"])
def test_non_finite_case_data_is_an_input_error(command, old, new, tmp_path, capsys):
    """Unchecked, a NaN load prints null stress values and limits, and an infinite
    reactance cuts generator bus 1 off while the rest still certifies."""
    text = case_path("case9.m").read_text()
    assert text.count(old) == 1
    path = tmp_path / "case9.m"
    path.write_text(text.replace(old, new))
    assert run([command, "--case", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and ("non-finite" in err["message"] or "NaN" in err["message"])


@pytest.mark.parametrize("command", ["certify", "limits"])
@pytest.mark.parametrize("old, new", [
    ("\t2\t163\t6.54\t300\t-300\t1\t100\t1\t", "\t2\t163\t6.54\t300\t-300\t1\t100\tNaN\t"),  # gen 2's status
    ("\t0\t0\t1\t-360\t360;\n\t4\t5\t", "\t0\t0\tInf\t-360\t360;\n\t4\t5\t"),  # branch 1-4's status
], ids=["gen status", "branch status"])
def test_non_finite_status_is_an_input_error(command, old, new, tmp_path, capsys):
    """Read as "status > 0", a NaN generator status took generator 2 out of service:
    certify exited 0 with the certificate holding and bus 2 among the load buses."""
    text = case_path("case9.m").read_text()
    assert text.count(old) == 1
    path = tmp_path / "case9.m"
    path.write_text(text.replace(old, new))
    assert run([command, "--case", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


@pytest.mark.parametrize("old, new, field", [
    ("\t5\t1\t90\t30\t", "\t5.7\t1\t90\t30\t", "bus row 5: bus_i"),
    ("\t2\t163\t6.54\t", "\t2.5\t163\t6.54\t", "gen row 2: bus"),
    ("\t4\t5\t0.017\t", "\t4\t5.2\t0.017\t", "branch row 2: tbus"),
    ("\t1\t3\t0\t0\t", "\t1\t3.7\t0\t0\t", "bus row 1: type"),
], ids=["bus number", "gen bus", "branch end", "bus type"])
def test_fractional_bus_number_is_an_input_error(old, new, field, tmp_path, capsys):
    """Read with int(), bus 5.7 was bus 5: case9 with it certified, exit 0. A bus
    typed 3.7 was the slack, and a type-3 bus after it lost the slack flag."""
    text = case_path("case9.m").read_text()
    assert text.count(old) == 1
    path = tmp_path / "case9.m"
    path.write_text(text.replace(old, new))
    assert run(["certify", "--case", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and err["message"].startswith(field)


def test_json_case_gives_the_matpower_artifact(tmp_path):
    """A .json case is read as the JSON form, and its artifact is the .m case's byte for byte."""
    path = tmp_path / "case9.json"
    path.write_text(emit_json(load_case_file(case_path("case9.m"))))
    out = tmp_path / "cert.json"
    assert run(["certify", "--case", path, "--scale", 1.5, "--out", out]) == 0
    assert out.read_bytes() == (Path(__file__).with_name("golden") / "case9.certify.1.5.json").read_bytes()


def test_missing_case_is_exit_2(tmp_path, capsys):
    code = run(["certify", "--case", tmp_path / "missing.m"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"


def test_bad_tolerance_is_exit_2(two_bus_file, capsys):
    assert run(["solve", "--case", two_bus_file, "--tol", -1]) == 2


def test_zero_max_iter_is_exit_2(two_bus_file, capsys):
    assert run(["solve", "--case", two_bus_file, "--max-iter", 0]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "input", "message": "--max-iter must be at least 1"}


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["certify", "--case", "{case}", "--tol", "1e-12"],
        ["certify", "--case", "{case}", "--out-format", "csv"],
        ["limits", "--case", "{case}", "--max-iter", "5"],
        ["solve", "--case", "{case}", "--scale", "abc"],
        ["solve", "--case", "{case}", "--tol", "-1"],
        ["certify", "--case", "{missing}"],
        ["bounds", "--case", "{case}", "--bus", "2", "--scale-grid", "1:x:0.1"],
        ["bounds", "--case", "{case}", "--bus", "2", "--scale-grid", "nan:2:0.1"],
        ["certify", "--case", "{case}", "--format", "json"],
        ["limits", "--case", "{case}", "--bracket-lo", "1"],
        ["limits", "--case", "{case}", "--bracket-hi", "9"],
        ["oracle-limit", "--case", "{case}"],
        ["certify", "--case", "{case}", "--dump-reduction", "{missing}"],
        ["certify", "--case", "{tmp}/no_buses.json"],
        ["certify", "--case", "{tmp}/utf16.m"],
        ["certify", "--case", "{case}", "--out", "{tmp}/afile/out.json"],
        ["certify", "--case", "{tmp}/afile/x.m"],
        ["sweep", "--case", "{case}", "--direction-file", "{tmp}/afile/x.json"],
        ["solve", "--case", "{case}", "--out-format", "csv"],
        ["sweep", "--case", "{case}", "--bus-a", "5", "--bus-b", "7"],
    ],
    ids=["no command", "certify --tol", "certify --out-format", "limits --max-iter", "bad value",
         "solve --tol -1", "missing case", "grid not a number", "grid not finite", "certify --format",
         "limits --bracket-lo", "limits --bracket-hi", "removed oracle-limit", "removed certify --dump-reduction",
         "case without buses", "case not UTF-8", "output under a file", "case under a file",
         "direction file under a file", "removed solve --out-format", "removed sweep --bus-a --bus-b"],
)
def test_input_errors_are_one_json_line(args, two_bus_file, tmp_path, capsys):
    """Any OSError reading or writing a file is an input error; a path under a regular file raises
    NotADirectoryError."""
    (tmp_path / "afile").write_text("")
    (tmp_path / "no_buses.json").write_text('{"base_mva": 100}')
    (tmp_path / "utf16.m").write_bytes(TWO_BUS_MATPOWER.encode("utf-16"))  # starts with the bytes ff fe
    args = [a.format(case=two_bus_file, missing=tmp_path / "missing.m", tmp=tmp_path) for a in args]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "input"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_non_finite_scale_is_an_input_error(command, value, two_bus_file, capsys):
    """Rejected by argparse, before any load is scaled; `--scale=` lets -inf through as a value."""
    assert run([command, "--case", two_bus_file, f"--scale={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"pfcert {command}: argument --scale: invalid finite value: '{value}'"
    assert json.loads(captured.err) == {"error": "input", "message": message}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_an_input_error(value, two_bus_file, capsys):
    """Rejected by argparse: a NaN tolerance never stops the loop, and an infinite one stops it at once."""
    assert run(["solve", "--case", two_bus_file, f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"pfcert solve: argument --tol: invalid finite value: '{value}'"
    assert json.loads(captured.err) == {"error": "input", "message": message}


def test_known_solution_limits_build_one_newton_kernel(tmp_path, monkeypatch):
    """The copy re-centred on the solved base point takes the kernel that the base point's solve built."""
    built = []
    init = oracle._NewtonKernel.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(oracle._NewtonKernel, "__init__", counted)
    args = ["limits", "--case", case_path("case39.m"), "--with-oracle", "--out", tmp_path / "limits.json"]
    assert run(args) == 0
    assert len(built) == 1
    assert run([*args, "--known-solution"]) == 0
    assert len(built) == 2


def test_solve_emits_voltages(two_bus_file, tmp_path):
    out = tmp_path / "sol.json"
    code = run(["solve", "--case", two_bus_file, "--scale", 1.0, "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["voltages"][0]
    expected = two_bus_analytic(2.5, 0.0, 0.1)[0]
    assert row["bus"] == 2
    assert row["magnitude"] == pytest.approx(abs(expected), abs=1e-7)
    assert row["angle_deg"] == pytest.approx(math.degrees(math.atan2(expected.imag, expected.real)), abs=1e-5)


def test_solve_infeasible_is_exit_3(two_bus_file, capsys):
    code = run(["solve", "--case", two_bus_file, "--scale", 10.0, "--max-iter", 200])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


@pytest.mark.parametrize("args, message", [
    (["certify", "--known-solution"], "no known solution"),
    (["limits", "--gen-phasors", "solved"], "base-case power flow did not converge"),
], ids=["certify --known-solution", "limits --gen-phasors solved"])
def test_infeasible_base_case_is_exit_3(args, message, tmp_path, capsys):
    path = tmp_path / "two_bus.json"
    path.write_text(emit_json(make_two_bus(p=10.0)))
    command, *rest = args
    assert run([command, "--case", path, *rest]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and message in err["message"]


def test_dumps_stable_empty_containers_and_unknown_types():
    assert (cli.dumps_stable({}), cli.dumps_stable([]), cli.dumps_stable(())) == ("{}", "[]", "[]")
    with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
        cli.dumps_stable(object())


def test_solve_csv(two_bus_file, tmp_path):
    out = tmp_path / "sol.csv"
    assert run(["solve", "--case", two_bus_file, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bus,magnitude,angle_deg,re,im"
    assert lines[1].startswith("2,0.965925826,")


def test_an_upper_case_csv_suffix_gets_csv(two_bus_file, tmp_path):
    """The --out suffix picks the format in any case, as the --case suffix picks the reader."""
    upper, lower = tmp_path / "SOL.CSV", tmp_path / "sol.csv"
    assert run(["solve", "--case", two_bus_file, "--out", upper]) == 0
    assert run(["solve", "--case", two_bus_file, "--out", lower]) == 0
    assert upper.read_bytes() == lower.read_bytes()
    assert upper.read_text().startswith("bus,magnitude,angle_deg,re,im\n")


@pytest.mark.parametrize("name", ["cert.csv", "cert.Csv"])
def test_certify_to_a_csv_path_is_exit_2_and_writes_nothing(name, two_bus_file, tmp_path, capsys):
    """certify has no table: a .csv file would have held its JSON document."""
    out = tmp_path / name
    assert run(["certify", "--case", two_bus_file, "--out", out]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "input", "message": "certify has no CSV form: give --out a path that does not end in .csv"}


def test_limits_json_and_determinism(two_bus_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["limits", "--case", two_bus_file, "--with-oracle", "--out", out1]) == 0
    assert run(["limits", "--case", two_bus_file, "--with-oracle", "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["lambda_p"] == pytest.approx(2.0, rel=1e-9)  # base p = 2.5 -> 5.0 / 2.5
    assert doc["lambda_actual"] == pytest.approx(2.0, abs=1e-4)
    assert doc["relative_error_p"] == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("extra", [[], ["--known-solution"]], ids=["from zero", "known solution"])
def test_limits_csv_is_the_json_without_meta(extra, two_bus_file, tmp_path):
    json_out, csv_out = tmp_path / "l.json", tmp_path / "l.csv"
    assert run(["limits", "--case", two_bus_file, "--with-oracle", *extra, "--out", json_out]) == 0
    assert run(["limits", "--case", two_bus_file, "--with-oracle", *extra, "--out", csv_out]) == 0
    doc = json.loads(json_out.read_text())
    header, values = (line.split(",") for line in csv_out.read_text().splitlines())
    assert header == [key for key in doc if key != "meta"]
    assert [None if v == "" else float(v) for v in values] == [doc[key] for key in header]


def test_limits_known_solution_reports_total_scaling(two_bus_file, tmp_path):
    out = tmp_path / "k.json"
    assert run(["limits", "--case", two_bus_file, "--known-solution", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["mode"] == "from_known_solution"
    assert doc["total_scaling_p"] == pytest.approx(1 + doc["lambda_p"])


@pytest.fixture
def heavy_case14(tmp_path):
    """case14 with its load-bus demands at 0.99 of the base direction's nose (5.333484).
    About its solved point xi(S0) = 1.174 > 1, which fails the polydisc condition's
    spread and Wang's precondition even at zero increment."""
    case = load_case_file(case_path("case14.m"))
    loads = partition_buses(case)[1]
    buses = [replace(b, demand=b.demand * 5.280149) if b.id in loads else b for b in case.buses]
    path = tmp_path / "case14_heavy.json"
    path.write_text(emit_json(build_case(case.base_mva, buses, list(case.branches), list(case.gens), case.slack_bus)))
    return path


def test_certify_about_a_heavily_loaded_solution_fails_every_condition(heavy_case14, tmp_path):
    """Wang's shell raised NoCertificate when xi(S0) >= 1 (exit 3, no artifact); it fails."""
    out = tmp_path / "cert.json"
    assert run(["certify", "--case", heavy_case14, "--known-solution", "--out", out]) == 1
    doc = json.loads(out.read_text())
    assert doc["certificate"]["holds"] is False and doc["certificate"]["reason"] == "stress_spread"
    assert doc["certificate"]["stress"]["xi_max"] == pytest.approx(1.174, abs=1e-3)
    assert doc["baselines"]["wang"]["holds"] is False and "radius" not in doc["baselines"]["wang"]
    assert doc["baselines"]["wang"]["condition_value"] <= 0  # it read 0.0304310502 beside the failing shell
    assert doc["baselines"]["dvijotham"]["holds"] is False


def test_limits_where_the_spread_binds_name_no_critical_bus(heavy_case14, tmp_path):
    """lambda_p = 0 there comes from the spread X0 > 1, not from any bus's quadratic."""
    out = tmp_path / "limits.json"
    assert run(["limits", "--case", heavy_case14, "--known-solution", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert (doc["lambda_p"], doc["lambda_w"], doc["lambda_d"]) == (0, 0, 0)
    assert doc["critical_bus"] is None


def test_sweep_on_a_chosen_bus_pair_is_the_library_sweep(tmp_path):
    case = load_case_file(case_path("case9.m"))
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--case", case_path("case9.m"), "--buses", 5, 7, "--out", out]) == 0
    doc = json.loads(out.read_text())
    pairs = [(2.0 * math.pi * k / 36,) * 2 for k in range(36)]
    magnitude, _, estimates = limits.direction_sweep(*limits.prepare(case), 5, 7, pairs)
    assert doc["meta"] == {"bus_a": 5, "bus_b": 7, "magnitude": json.loads(cli.dumps_stable(magnitude))}
    assert [(row["lambda_p"], row["lambda_w"], row["lambda_d"]) for row in doc["points"]] == [
        tuple(json.loads(cli.dumps_stable(x)) for x in (est.lambda_p, est.lambda_w, est.lambda_d))
        for est in estimates]


def test_sweep_with_direction_file(two_bus_file, tmp_path):
    # a second load bus is needed; build a 3-bus star file
    star = tmp_path / "star.m"
    star.write_text(
        TWO_BUS_MATPOWER.replace(
            "\t2\t1\t250\t0\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;",
            "\t2\t1\t100\t30\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;\n"
            "\t3\t1\t80\t20\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;",
        ).replace(
            "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;",
            "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;\n"
            "\t1\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;",
        )
    )
    directions = tmp_path / "dirs.json"
    directions.write_text(json.dumps([[0.0, 0.0], [45.0, 90.0], [180.0, 270.0]]))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--case", star, "--direction-file", directions, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi_a_deg,phi_b_deg,lambda_p,lambda_w,lambda_d,lambda_actual"
    assert len(lines) == 4
    assert lines[3].startswith("180,270,")


@pytest.mark.parametrize(
    "text",
    ["[[0, 10], [20", "[[0, 10, 5]]", '{"a": 1}', "[[NaN, 0], [10, 20]]", "[[Infinity, 0]]", "[[true, false]]",
     '[["0", 10]]'],
)
def test_bad_direction_file_is_exit_2(text, tmp_path, capsys):
    directions = tmp_path / "dirs.json"
    directions.write_text(text)
    assert run(["sweep", "--case", case_path("case9.m"), "--direction-file", directions]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and "bad direction file" in err["message"]


@pytest.mark.parametrize("bus", [["--buses", 9], ["--buses", 9, "--points", 3]])
def test_sweep_with_one_bus_is_exit_2(bus, capsys):
    """One bus of the pair alone used to be dropped for the default pair."""
    assert run(["sweep", "--case", case_path("case9.m"), *bus]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "input", "message": "pfcert sweep: argument --buses: expected 2 arguments"}


@pytest.mark.parametrize("points", ["5", "36"], ids=["points 5", "points 36, the default"])
def test_sweep_points_beside_a_direction_file_is_exit_2(points, tmp_path, capsys):
    """--points used to be dropped silently beside a direction file: the file's 2 pairs gave 2 rows."""
    directions = tmp_path / "dirs.json"
    directions.write_text("[[0, 0], [90, 45]]")
    assert run(["sweep", "--case", case_path("case9.m"), "--direction-file", directions, "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and "not allowed with argument" in err["message"]


def test_bounds_grid(two_bus_file, tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--case", two_bus_file, "--bus", 2, "--scale-grid", "0.0:0.4:0.2", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,proposed,wang,dvijotham,actual"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == pytest.approx(1.0)


def test_bounds_with_oracle_absence_pattern(tmp_path):
    """The two-bus load (p = 1): wang/dvijotham hold to 2.5, proposed and the
    Newton chain (actual) to the nose at 5; each certified bound is below actual."""
    path = tmp_path / "two_bus.json"
    path.write_text(emit_json(make_two_bus(p=1.0)))
    out = tmp_path / "bounds.json"
    assert run(["bounds", "--case", path, "--bus", 2, "--scale-grid", "1.0:5.5:0.5", "--with-oracle",
                "--out", out]) == 0
    rows = json.loads(out.read_text())["profile"]
    by_lam = {row["lambda"]: row for row in rows}
    assert by_lam[2.0]["wang"] is not None and by_lam[3.0]["wang"] is None
    assert by_lam[2.0]["dvijotham"] is not None and by_lam[3.0]["dvijotham"] is None
    assert by_lam[4.5]["proposed"] is not None and by_lam[5.5]["proposed"] is None
    assert by_lam[4.5]["actual"] is not None and by_lam[5.5]["actual"] is None
    # bounds really bound, wherever both sides exist
    for row in rows:
        if row["actual"] is not None:
            for key in ("proposed", "wang", "dvijotham"):
                if row[key] is not None:
                    assert row[key] <= row["actual"] + 1e-9


def test_bounds_single_point_grid(two_bus_file, tmp_path):
    out = tmp_path / "bounds.json"
    assert run(["bounds", "--case", two_bus_file, "--bus", 2, "--scale-grid", "1.5", "--out", out]) == 0
    assert [row["lambda"] for row in json.loads(out.read_text())["profile"]] == [1.5]


def test_limits_oracle_uses_solved_generator_phasors(tmp_path):
    out = tmp_path / "lim.json"
    assert run(["limits", "--case", case_path("case9.m"), "--gen-phasors", "solved", "--with-oracle",
                "--out", out]) == 0
    assert '"lambda_actual": 2.63794682,' in out.read_text()  # the case-phasor limit is 2.6583961


def test_limits_known_solution_relative_error_is_against_the_true_limit(tmp_path):
    out = tmp_path / "k.json"
    assert run(["limits", "--case", case_path("case39.m"), "--known-solution", "--with-oracle", "--out", out]) == 0
    doc = json.loads(out.read_text())
    actual = doc["lambda_actual"]  # a total scaling from zero load, like total_scaling_*
    for key in "pwd":  # the printed inputs carry 9 significant digits
        expected = (actual - doc[f"total_scaling_{key}"]) / actual
        assert doc[f"relative_error_{key}"] == pytest.approx(expected, abs=1e-8)
    assert doc["relative_error_p"] == pytest.approx(0.1175, abs=1e-4)


@pytest.fixture
def case9_times_10k(tmp_path):
    """case9 with every bus's demand x 10^4: lambda_p = 2.44e-4, so the nose lies
    below the oracle's default lower bracket end of 1e-3."""
    case = load_case_file(case_path("case9.m"))
    buses = [replace(b, demand=b.demand * 1e4) for b in case.buses]
    path = tmp_path / "case9_x1e4.json"
    path.write_text(emit_json(build_case(case.base_mva, buses, list(case.branches), list(case.gens), case.slack_bus)))
    return path


def test_oracle_commands_answer_when_the_nose_is_below_1e_3(case9_times_10k, tmp_path):
    """Both exited 2 with "lower bracket end lambda=0.001 is itself infeasible"; the
    bracket now starts at half the certified lambda_p, inside the certified range."""
    case = load_case_file(case9_times_10k)
    red, S = limits.prepare(case)
    out = tmp_path / "limits.json"
    assert run(["limits", "--case", case9_times_10k, "--with-oracle", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["lambda_p"] <= doc["lambda_actual"]
    low = oracle.actual_limit(case, S, bracket=(1e-5, None), network=red)
    assert doc["lambda_actual"] == pytest.approx(low, rel=0, abs=2e-10)

    out = tmp_path / "sweep.json"
    assert run(["sweep", "--case", case9_times_10k, "--points", 4, "--with-oracle", "--out", out]) == 0
    doc = json.loads(out.read_text())
    pairs = [(2.0 * math.pi * k / 4,) * 2 for k in range(4)]  # the angles of --points 4
    _, directions, _ = limits.direction_sweep(red, S, doc["meta"]["bus_a"], doc["meta"]["bus_b"], pairs)
    for row, direction in zip(doc["points"], directions, strict=True):
        assert row["lambda_p"] <= row["lambda_actual"]
        low = oracle.actual_limit(case, direction, bracket=(1e-5, None), network=red)
        assert row["lambda_actual"] == pytest.approx(low, rel=0, abs=2e-10)


def test_cli_import_leaves_scipy_optimize_out():
    """Neither importing the CLI nor reading a case loads scipy.optimize or scipy.sparse.csgraph:
    every command's start-up and peak memory would pay for them."""
    code = (
        "import sys, pfcert.cli\n"
        f"pfcert.cli.load_case_file({str(case_path('case118.m'))!r})\n"
        "print([m for m in ('scipy.optimize', 'scipy.sparse.csgraph') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pfcert.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_case_reader_import_leaves_scipy_out():
    """The package pfcert imports none of its modules and binds no function or class: each name
    lives in its module alone, so importing and running the case reader loads no scipy."""
    code = (
        "import inspect, sys, pfcert.net_model\n"
        f"pfcert.net_model.load_case_file({str(case_path('case9.m'))!r})\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "print(sorted(n for n, v in vars(pfcert).items() if inspect.isfunction(v) or inspect.isclass(v)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pfcert.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


COMMANDS = [
    ["certify"],
    ["certify", "--known-solution"],
    ["solve"],
    ["limits", "--with-oracle"],
    ["limits", "--with-oracle", "--known-solution", "--gen-phasors", "solved"],
    ["sweep", "--with-oracle", "--points", 3],
    ["bounds", "--with-oracle", "--bus", 4, "--scale-grid", "1.0:2.0:0.5"],
]


@pytest.mark.parametrize("args", COMMANDS, ids=[" ".join(map(str, a)) for a in COMMANDS])
def test_every_command_factors_y_ll_once(args, tmp_path, monkeypatch):
    """Y_LL is the only complex matrix pfcert factors; the oracle's Jacobians are real."""
    splu = spla.splu
    complex_factors = []

    def counted(A, *a, **k):
        if A.dtype.kind == "c":
            complex_factors.append(A.shape)
        return splu(A, *a, **k)

    monkeypatch.setattr(spla, "splu", counted)
    command, *rest = args
    assert run([command, "--case", case_path("case39.m"), *rest, "--out", tmp_path / "out"]) == 0
    assert complex_factors == [(29, 29)]


def test_limits_with_oracle_exits_3_on_the_weak_tie(tmp_path, capsys):
    """On the weak-tie star the factorization residual check fails, and every command
    stops there: limits --with-oracle, the one command that prints the nose, too. The
    library's actual_limit still finds it (test_admittance)."""
    path = tmp_path / "weak_tie.json"
    path.write_text(emit_json(make_weak_tie_star()))
    for args in (["certify"], ["limits", "--with-oracle"]):
        assert run([*args, "--case", path, "--out", tmp_path / "o.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "o.json").exists()
        assert "residual 1.250e-01" in json.loads(captured.err)["message"]


@pytest.mark.parametrize("args", [["certify"], ["limits", "--with-oracle"]], ids=["certify", "limits --with-oracle"])
def test_solved_phasors_assemble_the_admittance_once(args, tmp_path, monkeypatch):
    build = admittance.build_admittance
    calls = []

    def counted(*a, **k):
        calls.append(1)
        return build(*a, **k)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "pfcert" and getattr(module, "build_admittance", None) is build:
            monkeypatch.setattr(module, "build_admittance", counted)
    command, *rest = args
    case = case_path("case39.m")
    assert run([command, "--case", case, *rest, "--gen-phasors", "solved", "--out", tmp_path / "out"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--points", 0],
        ["sweep", "--points", -3],
        ["sweep", "--direction-file", "[]"],
        ["bounds", "--bus", 5, "--scale-grid", "2:1:0.1"],
        ["bounds", "--bus", 5, "--scale-grid", "1:2"],
        ["bounds", "--bus", 5, "--scale-grid", "1:2:0"],
    ],
    ids=["points 0", "points -3", "empty direction file", "empty scale grid", "grid without step", "zero grid step"],
)
def test_empty_grid_is_exit_2(args, tmp_path, capsys):
    command, *rest = args
    if "--direction-file" in rest:
        rest[-1] = tmp_path / "dirs.json"
        rest[-1].write_text("[]")
    assert run([command, "--case", case_path("case9.m"), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--points", 10**5 + 1], "--points must be at most 100000"),
        (["sweep", "--direction-file", "[[0, 0], ...]"], "--direction-file must hold at most 100000 pairs"),
        (["bounds", "--bus", 5, "--scale-grid", "1:2.5:1e-12"], "grid '1:2.5:1e-12' has more than 100000 points"),
        (["bounds", "--bus", 5, "--scale-grid", "0:1e308:1e-308"],
         "grid '0:1e308:1e-308' has more than 100000 points"),
    ],
    ids=["points", "direction file", "scale grid", "scale grid of infinite span"],
)
def test_grid_over_max_grid_points_is_exit_2(args, message, tmp_path, capsys):
    """Refused before the case loads, and a grid before any list is built: 1:2.5:1e-12 asks
    for ~1.5e12 floats, and a span that overflows makes the count infinite. A direction
    file of 100,001 pairs used to be swept in full."""
    command, *rest = args
    if "--direction-file" in rest:
        rest[-1] = tmp_path / "dirs.json"
        rest[-1].write_text(json.dumps([[0, 0]] * (10**5 + 1)))
    assert run([command, "--case", case_path("case9.m"), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "message": message}


def test_scale_grid_of_max_grid_points_is_built():
    assert len(cli._parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS
    with pytest.raises(CaseError, match="more than 100000 points"):
        cli._parse_grid(f"1:{cli.MAX_GRID_POINTS + 1}:1")


@pytest.mark.parametrize(
    "args, expected",
    [
        (["certify"], 1),
        (["certify", "--known-solution", "--scale", 1.2], 3),
        (["bounds", "--bus", 4, "--scale-grid", "1.0:2.0:0.5"], 3),
    ],
    ids=["certify", "certify --known-solution", "bounds, 3 points"],
)
def test_stress_calls_per_command(args, expected, tmp_path, monkeypatch):
    """A zero base load needs no stress call: Wang reads xi(S0) = 0 directly."""
    compute_stress = pfcert.stress.compute_stress
    calls = []

    def counted(*a, **k):
        calls.append(1)
        return compute_stress(*a, **k)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "pfcert" and getattr(module, "compute_stress", None) is compute_stress:
            monkeypatch.setattr(module, "compute_stress", counted)
    command, *rest = args
    assert run([command, "--case", case_path("case39.m"), *rest, "--out", tmp_path / "out"]) in (0, 1)
    assert len(calls) == expected


COMMAND_INPUTS = {
    "certify": [],
    "solve": [],
    "limits": [],
    "sweep": ["--points", 2],
    "bounds": ["--bus", 5, "--scale-grid", "1.0:1.2:0.1"],
}


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_every_command_reads_every_option_it_defines(command, tmp_path, monkeypatch):
    """An option a command accepts but never reads would be silently ignored.
    Only the reads of the command function count, from its dispatch on."""
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    def parse_args(argv):
        parsed = vars(parser_parse_args(argv))
        func = parsed.pop("func")
        return Recorder(**parsed, func=lambda args: reads.clear() or func(args))

    parser = cli.build_parser()
    parser_parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", parse_args)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    args = [command, "--case", case_path("case9.m"), *COMMAND_INPUTS[command], "--out", tmp_path / "out"]
    assert run(args) == 0
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    assert defined - reads == set()


def readme_usage_lines() -> list[str]:
    """The `pfcert ...` lines of README's "Command-line usage" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pfcert ")]


USAGE = readme_usage_lines()


@pytest.mark.parametrize("line", USAGE, ids=[" ".join(line.partition("#")[0].split()[1:]) for line in USAGE])
def test_readme_usage_line_runs(line, tmp_path, monkeypatch, capsys):
    """Each documented command runs as written, from a directory beside data/; the line
    commented `exit 1` exits 1, every other line 0."""
    command, _, comment = line.partition("#")
    args = [str(DATA_DIR / a[len("data/"):]) if a.startswith("data/") else a for a in shlex.split(command)[1:]]
    monkeypatch.chdir(tmp_path)
    assert main(args) == (1 if "exit 1" in comment else 0)
    assert capsys.readouterr().err == ""


def readme_option_table() -> dict[str, list[str]]:
    """Each row of README's per-command option table: the command and the options its row names."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | its own options |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {command.strip().strip("`"): re.findall(r"--[a-z][a-z-]*", options) for command, options in rows}


def test_readme_option_table_matches_the_parser():
    """The table lists exactly each command's options besides the common ones, each once."""
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    common = {"--case", "--gen-phasors", "--out"}
    parsed = {name: sorted({o for a in p._actions for o in a.option_strings} - common - {"-h", "--help"})
              for name, p in subparsers.choices.items()}
    assert {command: sorted(options) for command, options in readme_option_table().items()} == parsed


def test_readme_parameter_table_matches_the_library():
    """The table lists, in signature order, each parameter with a default of every public
    function a pfcert module defines: the set CI counts."""
    modules = [pfcert] + [importlib.import_module(f"pfcert.{m.name}") for m in pkgutil.iter_modules(pfcert.__path__)]
    found = {f"{mod.__name__}.{name}": [p.name for p in inspect.signature(fn).parameters.values()
                                        if p.default is not p.empty]
             for mod in modules for name, fn in vars(mod).items()
             if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| function | its parameters with a default |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert {name.strip().strip("`"): re.findall(r"`(\w+)`", params) for name, params in rows} == {
        name: params for name, params in found.items() if params}
