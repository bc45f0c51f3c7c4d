"""Parsing, validation, partitioning, and round-trip behavior of case models."""

import importlib.util
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pfcert.net_model import (
    BranchRecord,
    CaseError,
    CaseSyntaxError,
    GenRecord,
    IslandError,
    build_case,
    excluded_gen_bus_demand,
    generator_phasors,
    load_case,
    load_case_file,
    load_power_vector,
    partition_buses,
    validate_connectivity,
)
from pfcert.oracle import newton_base_case

from conftest import BUNDLED, TWO_BUS_MATPOWER, case_path, emit_json, make_star, make_two_bus
from reference_values import reference_matpower_case


def test_two_bus_matpower_parse():
    case = load_case(TWO_BUS_MATPOWER, "matpower")
    gens, loads = partition_buses(case)
    assert gens == (1,)
    assert loads == (2,)
    assert case.bus(2).demand == pytest.approx(2.5 + 0j)  # 250 MW on a 100 MVA base
    assert case.branches[0].series_impedance == 0.1j
    assert case.branches[0].tap_ratio == 1.0
    assert case.slack_bus == 1


def test_case9_shape():
    case = load_case_file(case_path("case9.m"))
    assert len(case.buses) == 9
    assert len(case.branches) == 9
    assert sum(1 for g in case.gens if g.in_service) == 3
    gens, loads = partition_buses(case)
    assert gens == (1, 2, 3)
    assert len(loads) == 6


def test_duplicate_bus_id_rejected():
    text = TWO_BUS_MATPOWER.replace(
        "\t2\t1\t250", "\t1\t1\t250"
    )  # second bus row reuses id 1
    with pytest.raises(CaseError, match="duplicate bus id"):
        load_case(text, "matpower")


def test_unknown_bus_reference_rejected():
    text = TWO_BUS_MATPOWER.replace("\t1\t2\t0\t0.1", "\t1\t5\t0\t0.1")
    with pytest.raises(CaseError, match="unknown bus"):
        load_case(text, "matpower")


@pytest.mark.parametrize("ends, unknown", [((5, 2), 5), ((1, 6), 6), ((5, 6), 5)])
def test_a_branch_names_its_first_unknown_end(ends, unknown):
    case = make_two_bus()
    branch = replace(case.branches[0], from_bus=ends[0], to_bus=ends[1])
    with pytest.raises(CaseError, match=rf"^branch {ends[0]}-{ends[1]} references unknown bus {unknown}$"):
        build_case(100.0, list(case.buses), [branch], list(case.gens))


def test_missing_base_mva_rejected():
    text = TWO_BUS_MATPOWER.replace("mpc.baseMVA = 100;\n", "")
    with pytest.raises(CaseError, match="baseMVA"):
        load_case(text, "matpower")


BUS_2 = "\t2\t1\t250\t0\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;"
GEN_1 = "\t1\t0\t0\t300\t-300\t1.00\t100\t1\t250\t10;"
BRANCH_1 = "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;"


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        (BRANCH_1 + "\n];", BRANCH_1, 14, "matrix 'branch' is never closed"),
        ("mpc.baseMVA = 100;\n", "mpc.baseMVA = 100;\nmpc.bus_name = {\n'one';\n'two' % }\n", 4,
         "cell array 'bus_name' is never closed"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 1O0;", 3, "cannot parse scalar 'baseMVA' value '1O0'"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 100; mpc.x = 2;", 3,
         "cannot parse scalar 'baseMVA' value '100; mpc.x = 2'"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA =\n100;", 3, "cannot parse scalar 'baseMVA' value ''"),
        ("\t0\t0.1\t0", "\t0\tbogus\t0", 14, "bad number in matrix 'branch': could not convert string to float: 'bogus'"),
        (BUS_2, BUS_2.replace("\t0.90;", ";"), 5, "bus row 2 has 12 columns, expected >= 13"),
        (GEN_1, "\t1\t0\t0\t300\t-300\t1.00\t100;", 10, "gen row 1 has 7 columns, expected >= 8"),
        (BRANCH_1, "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0;", 14, "branch row 1 has 10 columns, expected >= 11"),
    ],
    ids=["unclosed matrix", "unclosed cell array", "bad scalar", "two assignments on a line", "scalar on the next line",
         "bad number", "short bus row", "short gen row", "short branch row"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_syntax_errors_name_the_assignment_line(old, new, line, message, newline):
    text = TWO_BUS_MATPOWER.replace(old, new)
    assert text != TWO_BUS_MATPOWER
    with pytest.raises(CaseSyntaxError) as info:
        load_case(text.replace("\n", newline), "matpower")
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


def test_lines_without_an_assignment_are_skipped():
    """Only `[mpc.]name = ...` at a line start opens a value, and a line starting with
    "function" is never one; the rest of a line that closes a matrix is ignored, and a
    later assignment replaces an earlier one."""
    extra = "function_count = not a number\nmpc.areas(1, :) = [1 2 3\nmpc.bus = [] end\nend\n"
    text = TWO_BUS_MATPOWER.replace("mpc.baseMVA = 100;\n", "mpc.baseMVA = 100;\n" + extra)
    assert load_case(text, "matpower") == load_case(TWO_BUS_MATPOWER, "matpower")


def _reformat(text: str, rng: np.random.Generator) -> str:
    """text in another layout that reads the same: other number separators, trailing
    commas (after a row's ';' too), one-line matrices, rows ended by ';' or the line
    break alone, ']' on the last row's line or its own, comments holding brackets, a
    cell array, CRLF."""
    pick = lambda options: options[rng.integers(len(options))]

    def matrix(m: re.Match) -> str:
        rows = [row.split() for row in m.group(2).replace(";", "\n").splitlines() if row.strip()]
        rows = [pick([" ", ",", ", ", "\t", " ,  "]).join(row) + pick(["", ","]) for row in rows]
        if rng.random() < 0.3:
            return m.group(1) + "; ".join(rows) + pick([";", ""]) + "]"
        lines = [pick(["", "% ] [ = { }\n"]) + row + pick([";", "", ";,"]) for row in rows]
        return m.group(1) + pick(["", " % ] ["]) + "\n" + "\n".join(lines) + pick(["\n", ""]) + "]"

    text = re.sub(r"(=\s*\[)([^\]]*)\]", matrix, text)
    text = re.sub(r";\n", lambda m: pick([";\n", "; % [ = {\n", ";   \n"]), text)
    text = re.sub(r"[ \t]*=[ \t]*", lambda m: pick(["=", " = ", "\t=  ", " ="]), text)
    if rng.random() < 0.5:
        text = text.replace("\nmpc.bus =", "\nmpc.bus_name = {\n'one [';\n'two ]'\n};\nmpc.bus =")
    return text.replace("\n", pick(["\n", "\r\n"]))


@pytest.mark.parametrize("name", BUNDLED)
def test_reformatted_bundled_cases_read_the_same(name):
    source = case_path(f"{name}.m").read_text()
    want = load_case(source, "matpower")
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(10):
        text = _reformat(source, rng)
        assert text != source
        assert load_case(text, "matpower") == want


WIDTH = {"bus": 13, "gen": 8, "branch": 11}  # the columns each matrix's rows must have
BUS_NUMBERS = {"bus": (0, 1), "gen": (0,), "branch": (0, 1)}  # bus numbers and bus types
STATUS = {"gen": 7, "branch": 10}


def _edit_row(text: str, name: str, rng: np.random.Generator, edit) -> str:
    """text with one row of matrix `name`, picked by rng, as edit(tokens) returns it
    (a bundled case holds each matrix row on a line of its own)."""
    lines = text.split("\n")
    first = lines.index(f"mpc.{name} = [") + 1
    rows = [k for k in range(first, lines.index("];", first)) if lines[k].strip()]
    k = rows[rng.integers(len(rows))]
    lines[k] = "\t".join(edit(lines[k].rstrip(";").split())) + ";"
    return "\n".join(lines)


def _put(rng, columns, values):
    def edit(tokens):
        tokens[columns[rng.integers(len(columns))]] = values[rng.integers(len(values))]
        return tokens
    return edit


def _bad_token(text, rng, name):  # "1_0" and "٣" are numbers to float() alone
    tokens = ["bogus", "#", "1..0", "0x10", "--1", "1_0", "٣", "1e5_0"]
    return _edit_row(text, name, rng, _put(rng, range(WIDTH[name]), tokens))


def _long_row(text, rng, name):
    return _edit_row(text, name, rng, lambda tokens: tokens + ["7"] * int(rng.integers(1, 3)))


def _short_row(text, rng, name):
    return _edit_row(text, name, rng, lambda tokens: tokens[: int(rng.integers(1, WIDTH[name]))])


def _bus_number(text, rng, name):
    return _edit_row(text, name, rng, _put(rng, BUS_NUMBERS[name], ["5.5", "nan", "1e20", "inf", "-inf", "1e400"]))


def _status(text, rng, name):
    name = "gen" if name == "bus" else name
    return _edit_row(text, name, rng, _put(rng, (STATUS[name],), ["nan", "inf", "-inf", "0.2", "-0.5", "0", "-0"]))


def _signed_zero(text, rng, name):  # Python's complex division sets the signs of zero parts
    columns = {"bus": (2, 3, 4, 5, 8), "gen": (1, 5), "branch": (2, 3, 4, 8, 9)}[name]

    def edit(tokens):
        for column in rng.choice(columns, 2, replace=False):
            tokens[column] = "-0"
        return tokens
    return _edit_row(text, name, rng, edit)


def _slack(text, rng, name):  # the first bus of type 3 is the slack
    return _edit_row(text, "bus", rng, _put(rng, (1,), ["3"]))


def _row_without_numbers(text, rng, name):
    row = "\t, ,;" if rng.random() < 0.5 else ", ,"
    return text.replace(f"mpc.{name} = [\n", f"mpc.{name} = [\n{row}\n")


ERRORS = (_bad_token, _short_row, _bus_number, _status, _row_without_numbers)


def _two_errors(text, rng, name):
    first, second = rng.choice(len(ERRORS), 2, replace=False)
    return ERRORS[second](ERRORS[first](text, rng, name), rng, name)


def _crlf(text, rng, name):
    edit = (_long_row, *ERRORS)[rng.integers(len(ERRORS) + 1)]
    return edit(text, rng, name).replace("\n", "\r\n")


def _empty_matrix(text, rng, name):
    return re.sub(rf"(mpc\.{name} = \[\n)[^\]]*", r"\1", text)


def _base(text, rng, name):
    base = ["0", "-100", "nan", "inf", "1e-320", "1e300"][rng.integers(6)]
    return text.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {base};")


@pytest.mark.parametrize("edit", [_bad_token, _long_row, _short_row, _bus_number, _status, _signed_zero, _slack,
                                  _row_without_numbers, _two_errors, _crlf, _empty_matrix, _base],
                         ids=lambda edit: edit.__name__[1:])
def test_bulk_reader_matches_the_scalar_reader(edit):
    """On seeded edits of the bundled cases, load_case and the token-by-token reference
    reader give equal cases with the same bits (their reprs agree), or raise the same
    exception with the same message and line. A long row must read as the unedited case."""
    for name in BUNDLED:
        source = case_path(f"{name}.m").read_text()
        for seed in range(4):
            rng = np.random.default_rng([seed, sum(map(ord, name + edit.__name__))])
            text = edit(source, rng, ("bus", "gen", "branch")[seed % 3])
            assert text != source
            try:
                want = reference_matpower_case(text)
            except Exception as exc:
                with pytest.raises(type(exc)) as info:
                    load_case(text, "matpower")
                assert (type(info.value), str(info.value)) == (type(exc), str(exc))
                assert getattr(info.value, "line", None) == getattr(exc, "line", None)
                assert edit is not _long_row
            else:
                got = load_case(text, "matpower")
                assert repr(got) == repr(want) and got == want
                if edit is _long_row:
                    assert got == load_case(source, "matpower")


def test_case_without_buses_is_a_case_error():
    with pytest.raises(CaseError, match="case has no in-service generators"):
        load_case('{"base_mva": 100}', "json")
    with pytest.raises(CaseError, match="case has no in-service generators"):
        load_case("mpc.baseMVA = 100;\nmpc.bus = [];\nmpc.gen = [];\nmpc.branch = [];\n", "matpower")


def test_zero_base_mva_is_a_case_error():
    with pytest.raises(CaseError, match="bad value in the case: complex division by zero"):
        load_case(TWO_BUS_MATPOWER.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 0;"), "matpower")


def test_case_file_that_is_not_utf8_is_a_case_error(tmp_path):
    path = tmp_path / "two_bus.m"
    path.write_bytes(TWO_BUS_MATPOWER.encode("utf-16"))
    with pytest.raises(CaseError, match=f"^{re.escape(str(path))} is not UTF-8 text: "):
        load_case_file(path)


def test_per_unit_scaling_of_demands():
    doubled = TWO_BUS_MATPOWER.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 200;")
    base = load_case(TWO_BUS_MATPOWER, "matpower")
    scaled = load_case(doubled, "matpower")
    assert scaled.bus(2).demand == base.bus(2).demand / 2


def test_angles_parsed_as_radians():
    text = TWO_BUS_MATPOWER.replace("\t1\t1.00\t0\t345\t1\t1.10\t0.90;", "\t1\t1.00\t30\t345\t1\t1.10\t0.90;", 1)
    case = load_case(text, "matpower")
    assert case.bus(1).voltage_angle == pytest.approx(math.pi / 6)


def test_partition_two_bus(two_bus):
    assert partition_buses(two_bus) == ((1,), (2,))


def test_partition_sets_disjoint_and_cover():
    case = make_star()
    gens, loads = partition_buses(case)
    assert set(gens).isdisjoint(loads)
    assert set(gens) | set(loads) == {b.id for b in case.buses}


def test_all_generators_out_of_service_rejected():
    case = build_case(
        100.0,
        make_two_bus().buses,
        list(make_two_bus().branches),
        [GenRecord(bus=1, voltage_setpoint=1.0, in_service=False)],
    )
    with pytest.raises(CaseError, match="no in-service generators"):
        partition_buses(case)


def test_connectivity_ok(two_bus):
    validate_connectivity(two_bus)


def test_out_of_service_branch_islands_bus_2():
    case = make_two_bus(branch_in_service=False)
    with pytest.raises(IslandError) as err:
        validate_connectivity(case)
    assert err.value.unreachable == (2,)


def test_three_bus_chain_island():
    star = make_star(loads=((1.0, 0.0), (1.0, 0.0)))
    branches = [
        star.branches[0],
        BranchRecord(1, 3, 0.1j, 0.0, in_service=False),
    ]
    case = build_case(100.0, star.buses, branches, list(star.gens))
    with pytest.raises(IslandError) as err:
        validate_connectivity(case)
    assert 3 in err.value.unreachable


def test_json_round_trip_two_bus(two_bus):
    assert load_case(emit_json(two_bus), "json") == two_bus


def test_json_round_trip_case9():
    case = load_case_file(case_path("case9.m"))
    assert load_case(emit_json(case), "json") == case


def test_json_round_trip_awkward_angles():
    case = build_case(
        100.0,
        [
            b if b.id != 2 else type(b)(**{**b.__dict__, "voltage_angle": -0.236293})
            for b in make_two_bus().buses
        ],
        [BranchRecord(1, 2, 0.01 + 0.1j, 0.04, tap_ratio=1.05, phase_shift=0.0731)],
        list(make_two_bus().gens),
        slack_bus=1,
    )
    assert load_case(emit_json(case), "json") == case


def test_json_missing_base_mva():
    with pytest.raises(CaseError, match="base_mva"):
        load_case("{}", "json")


def test_json_bad_complex_pair():
    import json

    doc = json.loads(emit_json(make_two_bus()))
    doc["buses"][1]["demand"] = 2.5
    with pytest.raises(CaseError, match="re, im"):
        load_case(json.dumps(doc), "json")


@pytest.mark.parametrize("where, value", [
    (("base_mva",), math.nan),
    (("buses", 1, "voltage_angle_deg"), -math.inf),
    (("buses", 1, "id"), math.nan),
    (("branches", 0, "charging"), math.nan),
    (("gens", 0, "voltage_setpoint"), math.inf),
])
def test_json_non_finite_values_rejected(where, value):
    import json

    doc = json.loads(emit_json(make_two_bus()))
    *path, key = where
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    with pytest.raises(CaseError, match="finite|NaN"):
        load_case(json.dumps(doc), "json")


@pytest.mark.parametrize("kind", ["branches", "gens"])
@pytest.mark.parametrize("status", [math.nan, math.inf])
def test_json_non_finite_status_rejected(kind, status):
    """json reads NaN and Infinity, and bool(NaN) is True: such a status is an input error."""
    import json

    doc = json.loads(emit_json(make_two_bus()))
    doc[kind][0]["in_service"] = status
    with pytest.raises(CaseError, match="NaN|infinity"):
        load_case(json.dumps(doc), "json")


@pytest.mark.parametrize("where, value, field", [
    (("buses", 1, "id"), 2.5, "bus id"),
    (("branches", 0, "from_bus"), 1.5, "branch from_bus"),
    (("branches", 0, "to_bus"), 2.5, "branch to_bus"),
    (("gens", 0, "bus"), 1.5, "gen bus"),
    (("slack_bus",), 1.5, "slack_bus"),
], ids=["bus id", "branch from_bus", "branch to_bus", "gen bus", "slack_bus"])
def test_json_fractional_bus_number_rejected(where, value, field):
    """int() alone read bus 2.5 as bus 2, and the case loaded."""
    import json

    doc = json.loads(emit_json(make_two_bus()))
    *path, key = where
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    with pytest.raises(CaseError, match=f"^{field} {value} is not an integer bus number$"):
        load_case(json.dumps(doc), "json")


JSON_NUMBERS = [
    ("base_mva",), ("buses", 1, "id"), ("buses", 1, "demand", 0), ("buses", 1, "shunt", 1),
    ("buses", 1, "voltage_magnitude"), ("buses", 1, "voltage_angle_deg"), ("branches", 0, "from_bus"),
    ("branches", 0, "to_bus"), ("branches", 0, "series_impedance", 1), ("branches", 0, "charging"),
    ("branches", 0, "tap_ratio"), ("branches", 0, "phase_shift_deg"), ("gens", 0, "bus"),
    ("gens", 0, "voltage_setpoint"), ("gens", 0, "active_power"), ("slack_bus",),
]


@pytest.mark.parametrize("value", [True, "1.0"], ids=["true", "numeric string"])
@pytest.mark.parametrize("where", JSON_NUMBERS, ids=[" ".join(map(str, w)) for w in JSON_NUMBERS])
def test_json_numbers_must_be_json_numbers(where, value):
    """bool is an int to Python and float() reads "1.0": "slack_bus": true was bus 1,
    "demand": [true, false] was 1 p.u., and "charging": "1.0" was 1.0."""
    import json

    doc = json.loads(emit_json(make_two_bus()))
    *path, key = where
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    with pytest.raises(CaseError, match=re.escape(f"expected a number, got {value!r}")):
        load_case(json.dumps(doc), "json")


def test_json_invalid_document():
    with pytest.raises(CaseSyntaxError):
        load_case("{not json", "json")


def test_unknown_format_rejected(two_bus):
    with pytest.raises(CaseError, match="unknown case format"):
        load_case(emit_json(two_bus), "yaml")


def test_zero_impedance_in_service_branch_rejected():
    with pytest.raises(CaseError, match="zero series impedance"):
        make_two_bus(x=0.0)


def test_nonpositive_tap_rejected():
    star = make_star()
    bad = [BranchRecord(1, 2, 0.1j, 0.0, tap_ratio=0.0)] + list(star.branches[1:])
    with pytest.raises(CaseError, match="tap_ratio"):
        build_case(100.0, star.buses, bad, list(star.gens))


def test_duplicate_gen_setpoint_disagreement_warns():
    star = make_star()
    gens = [GenRecord(bus=1, voltage_setpoint=1.0), GenRecord(bus=1, voltage_setpoint=1.01)]
    with pytest.warns(UserWarning, match="disagree"):
        build_case(100.0, star.buses, list(star.branches), gens)


def test_first_in_service_setpoint_wins_and_out_of_service_buses_stay_loads():
    """Bus 1 has two in-service generators that disagree, and the first one's
    setpoint is the one both the reduction's phasors and the base-case solve
    hold; bus 2's only generator is out of service, so it stays a load bus
    whose demand is counted, while bus 1's demand is the excluded one."""
    star = make_star()
    buses = [replace(star.buses[0], demand=0.2 + 0.05j), *star.buses[1:]]
    gens = [
        GenRecord(bus=1, voltage_setpoint=1.02),
        GenRecord(bus=1, voltage_setpoint=1.05),
        GenRecord(bus=2, voltage_setpoint=1.1, in_service=False),
    ]
    with pytest.warns(UserWarning, match="keeping the first"):
        case = build_case(100.0, buses, list(star.branches), gens, slack_bus=1)
    assert partition_buses(case) == ((1,), (2, 3, 4))
    assert generator_phasors(case, (1,)).tolist() == [1.02 + 0j]
    assert abs(newton_base_case(case)[1]) == pytest.approx(1.02, abs=1e-12)
    assert load_power_vector(case, (2, 3, 4)).tolist() == [b.demand for b in star.buses[1:]]
    assert excluded_gen_bus_demand(case) == {1: 0.2 + 0.05j}


def test_patching_the_solved_state_again_changes_no_byte(tmp_path):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("patch_solved_state", root / "scripts" / "patch_solved_state.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    copy = tmp_path / "case39.m"
    copy.write_bytes(case_path("case39.m").read_bytes())
    script.patch(copy)
    assert copy.read_bytes() == case_path("case39.m").read_bytes()


def test_finiteness_is_tested_field_by_field_where_one_sum_cannot_tell():
    """build_case adds every field's magnitude in one sum; where that sum overflows on finite
    fields, or cannot take a value, the field-by-field scan decides, as it did alone."""
    case = make_two_bus()
    huge = [replace(b, demand=1e308 + 1e308j) for b in case.buses]
    assert build_case(100.0, huge, list(case.branches), list(case.gens)).buses == tuple(huge)
    with pytest.raises(CaseError, match=r"^non-finite demand in BusRecord\(id=2, demand=\(nan\+0j\)"):
        build_case(100.0, [huge[0], replace(huge[1], demand=complex("nan"))], list(case.branches), list(case.gens))
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        build_case(100.0, [replace(case.buses[0], id=10**400), *case.buses[1:]], list(case.branches), list(case.gens))


def test_gen_bus_demand_is_reported_not_counted():
    buses = list(make_two_bus().buses)
    buses[0] = type(buses[0])(**{**buses[0].__dict__, "demand": 0.5 + 0.1j})
    case = build_case(100.0, buses, list(make_two_bus().branches), list(make_two_bus().gens))
    assert excluded_gen_bus_demand(case) == {1: 0.5 + 0.1j}


@pytest.mark.parametrize(
    "name, buses, branches, gens",
    [
        ("case14.m", 14, 20, 5),
        ("case24_ieee_rts.m", 24, 38, 33),
        ("case30.m", 30, 41, 6),
        ("case39.m", 39, 46, 10),
        ("case57.m", 57, 80, 7),
        ("case118.m", 118, 186, 54),
    ],
)
def test_bundled_case_shapes(name, buses, branches, gens):
    case = load_case_file(case_path(name))
    assert len(case.buses) == buses
    assert len(case.branches) == branches
    assert sum(1 for g in case.gens if g.in_service) == gens
