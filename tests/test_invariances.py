"""Three edits of a case that leave its network unchanged, and so must leave its limits unchanged:
renumbering every bus, changing the per-unit base, and splitting a branch into two parallel halves.
Each compares lambda_p, lambda_w, lambda_d, the critical bus and the oracle's lambda_actual along the
base direction with those of the case as read, on six bundled cases."""

from dataclasses import replace

import pytest

from pfcert import limits, oracle
from pfcert.net_model import NetworkCase, load_case_file

from conftest import case_path

CASES = ("case9", "case14", "case30", "case39", "case57", "case118")
FIELDS = ("lambda_p", "lambda_w", "lambda_d")


def limits_of(case: NetworkCase):
    """The three certified limits along the base direction, and the oracle's lambda_actual."""
    red, S = limits.prepare(case)
    return limits.lambda_all(red, S), oracle.actual_limit(case, S, network=red)


@pytest.mark.parametrize("name", CASES)
def test_renumbering_every_bus_and_reversing_the_rows(name):
    """Bus i becomes 2 (N - i), N above every id, so the generators-first order of each kind of bus
    is reversed and no bus keeps its number; the bus and branch rows are read in reverse. The sums
    run in another order, so the limits agree within 3.7e-15 relative (measured at most 1.7e-15)
    and lambda_actual within 5e-15 (4.5e-15 on case57); the critical bus is the renumbered one."""
    case = load_case_file(case_path(f"{name}.m"))
    top = max(b.id for b in case.buses) + 1

    def new(i):
        return 2 * (top - i)

    renumbered = replace(
        case,
        buses=tuple(replace(b, id=new(b.id)) for b in reversed(case.buses)),
        branches=tuple(replace(br, from_bus=new(br.from_bus), to_bus=new(br.to_bus)) for br in reversed(case.branches)),
        gens=tuple(replace(g, bus=new(g.bus)) for g in case.gens),
        slack_bus=new(case.slack_bus),
    )
    (est, actual), (got, got_actual) = limits_of(case), limits_of(renumbered)
    for field in FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(est, field), rel=3.7e-15, abs=0), field
    assert got.critical_bus == (None if est.critical_bus is None else new(est.critical_bus))
    assert got_actual == pytest.approx(actual, rel=5e-15, abs=0)


@pytest.mark.parametrize("name", CASES)
def test_doubling_the_base_mva(name):
    """Doubling baseMVA halves every per-unit power and admittance and doubles every impedance, all
    exactly, so the certificate is bit-identical. The oracle's tolerances are per-unit mismatches,
    so its path may change: lambda_actual agrees within 2.2e-12 relative (measured 2.12e-12 on
    case14, exact on the other five)."""
    case = load_case_file(case_path(f"{name}.m"))
    rebased = replace(
        case,
        base_mva=2 * case.base_mva,
        buses=tuple(replace(b, demand=b.demand / 2, shunt=b.shunt / 2) for b in case.buses),
        branches=tuple(replace(br, series_impedance=2 * br.series_impedance, charging=br.charging / 2)
                       for br in case.branches),
        gens=tuple(replace(g, active_power=g.active_power / 2) for g in case.gens),
    )
    (est, actual), (got, got_actual) = limits_of(case), limits_of(rebased)
    assert got == est
    assert got_actual == pytest.approx(actual, rel=2.2e-12, abs=0)


@pytest.mark.parametrize("name", CASES)
def test_splitting_a_branch_into_two_parallel_halves(name):
    """Two parallel branches of twice the first branch's impedance and half its charging stamp
    halves that sum exactly to its own entries, each the first stamp at its position, so every
    limit and lambda_actual are bit-identical."""
    case = load_case_file(case_path(f"{name}.m"))
    first = case.branches[0]
    half = replace(first, series_impedance=2 * first.series_impedance, charging=first.charging / 2)
    split = replace(case, branches=(half, half) + case.branches[1:])
    (est, actual), (got, got_actual) = limits_of(case), limits_of(split)
    assert got == est and got_actual == actual
