"""Shared fixtures: hand-built desk-scale cases, data-file paths, and a JSON
case writer for round trips through the loader."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pfcert.net_model import BranchRecord, BusRecord, GenRecord, NetworkCase, build_case

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
BUNDLED = ("case9", "case14", "case24_ieee_rts", "case30", "case39", "case57", "case118")


def _bus(bus_id, p=0.0, q=0.0, vm=1.0, va=0.0, gs=0.0, bs=0.0):
    return BusRecord(
        id=bus_id,
        demand=complex(p, q),
        shunt=complex(gs, bs),
        voltage_magnitude=vm,
        voltage_angle=va,
    )


def make_two_bus(p=2.5, q=0.0, x=0.1, vg=1.0, branch_in_service=True):
    """One generator at bus 1 (vg at angle 0), one load at bus 2 behind jx."""
    return build_case(
        100.0,
        [_bus(1, vm=vg), _bus(2, p=p, q=q)],
        [BranchRecord(1, 2, complex(0.0, x), 0.0, in_service=branch_in_service)],
        [GenRecord(bus=1, voltage_setpoint=vg)],
        slack_bus=1,
    )


def make_star(loads=((1.0, 0.3), (0.8, 0.2), (0.5, 0.1)), x=0.1, vg=1.0):
    """Generator at bus 1 feeding len(loads) load buses over identical reactances."""
    buses = [_bus(1, vm=vg)]
    branches = []
    for k, (p, q) in enumerate(loads, start=2):
        buses.append(_bus(k, p=p, q=q))
        branches.append(BranchRecord(1, k, complex(0.0, x), 0.0))
    return build_case(100.0, buses, branches, [GenRecord(bus=1, voltage_setpoint=vg)], slack_bus=1)


def make_weak_tie_star():
    """Generator at bus 1 feeding 0.5+0.1j at bus 4 over x = 0.1; buses 2-3 (x = 0.1)
    hang off bus 1 by x = 1e14, which leaves Y_LL nearly singular."""
    return build_case(
        100.0,
        [_bus(1), _bus(2), _bus(3), _bus(4, p=0.5, q=0.1)],
        [BranchRecord(1, 2, 1e14j, 0.0), BranchRecord(2, 3, 0.1j, 0.0), BranchRecord(1, 4, 0.1j, 0.0)],
        [GenRecord(bus=1, voltage_setpoint=1.0)],
        slack_bus=1,
    )


TWO_BUS_MATPOWER = """\
function mpc = two_bus
mpc.version = '2';
mpc.baseMVA = 100;
%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;
\t2\t1\t250\t0\t0\t0\t1\t1.00\t0\t345\t1\t1.10\t0.90;
];
%% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin
mpc.gen = [
\t1\t0\t0\t300\t-300\t1.00\t100\t1\t250\t10;
];
%% fbus tbus r x b rateA rateB rateC ratio angle status angmin angmax
mpc.branch = [
\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture
def two_bus():
    return make_two_bus()


@pytest.fixture
def two_bus_matpower_text():
    return TWO_BUS_MATPOWER


def case_path(name: str) -> Path:
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(f"case data file {name} not available")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_ztilde(rng, n, scale=0.1):
    """Random complex matrix shaped like a normalized impedance (inductive-ish)."""
    base = rng.normal(size=(n, n)) * 0.15 + 1.0j
    return scale * base * (0.5 + rng.random((n, n)))


def random_loads(rng, n, scale=1.0):
    return scale * (rng.normal(size=n) * 0.5 + 1.0 + 1j * rng.normal(size=n) * 0.3)


def _degrees_exact(rad: float) -> float:
    """Degrees value whose radians() conversion reproduces `rad` bit-exactly.

    The radian conversion contracts by ~0.0175, so several adjacent degree
    floats round to each radian float; walk to one of them so emitted files
    reload without drift.
    """
    deg = math.degrees(rad)
    back = math.radians(deg)
    if back == rad:
        return deg
    target = math.inf if back < rad else -math.inf
    candidate = deg
    for _ in range(64):
        candidate = math.nextafter(candidate, target)
        back = math.radians(candidate)
        if back == rad:
            return candidate
        if (target > 0) != (back < rad):
            break
    return deg


def emit_json(case: NetworkCase) -> str:
    """Serialize a case to the canonical JSON form (full float precision)."""
    doc = {
        "base_mva": case.base_mva,
        "buses": [
            {
                "id": b.id,
                "demand": [b.demand.real, b.demand.imag],
                "shunt": [b.shunt.real, b.shunt.imag],
                "voltage_magnitude": b.voltage_magnitude,
                "voltage_angle_deg": _degrees_exact(b.voltage_angle),
            }
            for b in case.buses
        ],
        "branches": [
            {
                "from_bus": br.from_bus,
                "to_bus": br.to_bus,
                "series_impedance": [br.series_impedance.real, br.series_impedance.imag],
                "charging": br.charging,
                "tap_ratio": br.tap_ratio,
                "phase_shift_deg": _degrees_exact(br.phase_shift),
                "in_service": br.in_service,
            }
            for br in case.branches
        ],
        "gens": [
            {
                "bus": g.bus,
                "voltage_setpoint": g.voltage_setpoint,
                "active_power": g.active_power,
                "in_service": g.in_service,
            }
            for g in case.gens
        ],
    }
    if case.slack_bus is not None:
        doc["slack_bus"] = case.slack_bus
    return json.dumps(doc, indent=1)
