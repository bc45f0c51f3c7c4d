"""Shared fixtures: hand-built desk-scale cases and data-file paths."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pfcert.net_model import BranchRecord, BusRecord, GenRecord, build_case

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
BUNDLED = ("case9", "case14", "case24_ieee_rts", "case30", "case39", "case57", "case118")


def _bus(bus_id, p=0.0, q=0.0, vm=1.0, va=0.0, gs=0.0, bs=0.0):
    return BusRecord(
        id=bus_id,
        kind="load",
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
