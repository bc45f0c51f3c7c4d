"""Three edits of a case that leave its network unchanged, and so must leave its limits unchanged:
renumbering every bus, changing the per-unit base, and splitting a branch into two parallel halves.
Each compares lambda_p, lambda_w, lambda_d, the critical bus and the oracle's lambda_actual along the
base direction with those of the case as read, on six bundled cases. Then edits that do change the
network, to ones real case files hold (series compensation, extreme taps), on which every guarantee
must still hold."""

from dataclasses import replace

import numpy as np
import pytest

from pfcert import limits, oracle
from pfcert.certificate import certify_all
from pfcert.fixed_point import CONTAINMENT_SLACK, solve_fixed_point
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


TRANSFORMS = {
    "negated reactance": lambda br: replace(br, series_impedance=br.series_impedance.conjugate()),
    "series over-compensation": lambda br: replace(
        br, series_impedance=complex(br.series_impedance.real, -0.2 * br.series_impedance.imag)),
    "tap 0.05": lambda br: replace(br, tap_ratio=0.05),
    "tap 5": lambda br: replace(br, tap_ratio=5.0),
}


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", ["case9", "case39"])
def test_transformed_networks_keep_every_guarantee(name, transform):
    """One edit of one branch, on each of four in-service branches drawn by a fixed seed: its
    reactance negated (x -> -x) or over-compensated (x -> -0.2 x), or its tap set to 0.05 or 5.
    Each edited case answers with no error along its base direction, lambda_p <= lambda_actual,
    the certificate holds at 0.99 lambda_p, and the fixed point there converges inside its
    polydisc."""
    case = load_case_file(case_path(f"{name}.m"))
    in_service = [k for k, br in enumerate(case.branches) if br.in_service]
    for k in np.random.default_rng(20).choice(in_service, 4, replace=False):
        branches = list(case.branches)
        branches[k] = TRANSFORMS[transform](branches[k])
        edited = replace(case, branches=tuple(branches))
        red, S = limits.prepare(edited)
        lambda_p = limits.lambda_all(red, S).lambda_p
        assert 0 < lambda_p <= oracle.actual_limit(edited, S, network=red), k
        load = 0.99 * lambda_p * S
        cert, _, _ = certify_all(red, load)
        assert cert.holds, k
        res = solve_fixed_point(red, load, certificate=cert)
        assert res.converged, k
        assert (np.abs(res.u - cert.disc_centers) - cert.disc_radii).max() <= CONTAINMENT_SLACK, k
