"""Parsing, validation, partitioning, and round-trip behavior of case models."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

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

from conftest import TWO_BUS_MATPOWER, case_path, emit_json, make_star, make_two_bus


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


def test_missing_base_mva_rejected():
    text = TWO_BUS_MATPOWER.replace("mpc.baseMVA = 100;\n", "")
    with pytest.raises(CaseError, match="baseMVA"):
        load_case(text, "matpower")


def test_syntax_error_carries_line():
    text = TWO_BUS_MATPOWER.replace("\t0\t0.1\t0", "\t0\tbogus\t0")
    with pytest.raises(CaseSyntaxError, match="line"):
        load_case(text, "matpower")


def test_unclosed_matrix_rejected():
    text = TWO_BUS_MATPOWER[: TWO_BUS_MATPOWER.rindex("];")]
    with pytest.raises(CaseSyntaxError, match="never closed"):
        load_case(text, "matpower")


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
