"""Grid case model: parsing, validation, and bus partitioning.

Cases are normalized to per-unit on the system MVA base with angles in
radians. Buses are split into generator buses (voltage phasor fixed) and
load buses (complex demand fixed), generators first; that ordering fixes
the row/column permutation used by every downstream matrix. Which buses
hold a generator, and at which setpoint, is decided once, by
NetworkCase.generator_buses.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np


class CaseError(ValueError):
    """Invalid case data (bad syntax, broken references, failed invariants)."""


class CaseSyntaxError(CaseError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IslandError(CaseError):
    """The in-service branch graph does not span all buses."""

    def __init__(self, unreachable: tuple[int, ...]):
        self.unreachable = unreachable
        super().__init__(
            "buses unreachable from the rest of the network over in-service "
            f"branches: {sorted(unreachable)}"
        )


@dataclass(frozen=True)
class BusRecord:
    id: int
    demand: complex  # consumed power, per-unit (positive = consumption)
    shunt: complex  # shunt admittance G + jB, per-unit
    voltage_magnitude: float
    voltage_angle: float  # radians


@dataclass(frozen=True)
class BranchRecord:
    from_bus: int
    to_bus: int
    series_impedance: complex  # r + jx, per-unit
    charging: float  # total line-charging susceptance, per-unit
    tap_ratio: float = 1.0
    phase_shift: float = 0.0  # radians
    in_service: bool = True


@dataclass(frozen=True)
class GenRecord:
    bus: int
    voltage_setpoint: float
    active_power: float = 0.0  # scheduled output, per-unit (used by base-case solves)
    in_service: bool = True


class GeneratorBus(NamedTuple):
    setpoint: float  # voltage magnitude the bus holds: its first in-service generator's
    active_power: float  # scheduled output of all its in-service generators, per-unit


@dataclass(frozen=True)
class NetworkCase:
    base_mva: float
    buses: tuple[BusRecord, ...]
    branches: tuple[BranchRecord, ...]
    gens: tuple[GenRecord, ...]
    slack_bus: int | None = None  # reference bus for base-case solves

    def bus(self, bus_id: int) -> BusRecord:
        return self._bus_index[bus_id]

    @cached_property
    def _bus_index(self) -> dict[int, BusRecord]:
        return {b.id: b for b in self.buses}

    @cached_property
    def generator_buses(self) -> dict[int, GeneratorBus]:
        """The generator model, decided here once: every bus hosting an in-service
        generator, in order of first appearance in gens. The bus holds the first such
        generator's setpoint, with a warning when a later one disagrees."""
        record: dict[int, GeneratorBus] = {}
        for g in self.gens:
            if not g.in_service:
                continue
            first = record.get(g.bus, GeneratorBus(g.voltage_setpoint, 0.0))
            if abs(first.setpoint - g.voltage_setpoint) > 1e-6:
                warnings.warn(
                    f"bus {g.bus}: multiple in-service generators disagree on voltage "
                    f"setpoint ({first.setpoint} vs {g.voltage_setpoint}); keeping the first",
                    stacklevel=3,
                )
            record[g.bus] = first._replace(active_power=first.active_power + g.active_power)
        return record


def build_case(
    base_mva: float,
    buses: list[BusRecord],
    branches: list[BranchRecord],
    gens: list[GenRecord],
    slack_bus: int | None = None,
) -> NetworkCase:
    """Validate structural invariants and freeze the case.

    Partition counts (at least one generator and one load bus) are checked by
    partition_buses, not here, so pathological cases can still be constructed
    and probed. Every numeric field must be finite.
    """
    if not 0 < base_mva < math.inf:
        raise CaseError(f"base_mva must be positive and finite, got {base_mva}")
    for record in (*buses, *branches, *gens):
        for name, value in vars(record).items():
            if not cmath.isfinite(value):
                raise CaseError(f"non-finite {name} in {record}")

    seen: set[int] = set()
    for b in buses:
        if b.id in seen:
            raise CaseError(f"duplicate bus id {b.id}")
        seen.add(b.id)

    for br in branches:
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                raise CaseError(f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}")
        if br.tap_ratio <= 0:
            raise CaseError(f"branch {br.from_bus}-{br.to_bus} has tap_ratio {br.tap_ratio} <= 0")
        if br.in_service and br.series_impedance == 0:
            raise CaseError(f"in-service branch {br.from_bus}-{br.to_bus} has zero series impedance")

    for g in gens:
        if g.bus not in seen:
            raise CaseError(f"generator references unknown bus {g.bus}")

    if slack_bus is not None and slack_bus not in seen:
        raise CaseError(f"slack bus {slack_bus} is not a bus in the case")

    case = NetworkCase(
        base_mva=float(base_mva),
        buses=tuple(buses),
        branches=tuple(branches),
        gens=tuple(gens),
        slack_bus=slack_bus,
    )
    for bus_id, gen in case.generator_buses.items():
        if gen.setpoint <= 0:
            raise CaseError(f"generator at bus {bus_id} has non-positive voltage setpoint")
        if case.bus(bus_id).voltage_magnitude <= 0:
            raise CaseError(f"generator bus {bus_id} has non-positive voltage magnitude")
    return case


def partition_buses(case: NetworkCase) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split bus ids into (generator_ids, load_ids), each sorted ascending.

    A bus is a generator bus iff case.generator_buses records it. The
    concatenation generators-first defines the global matrix ordering.
    """
    gen_buses = case.generator_buses
    generator_ids = tuple(sorted(b.id for b in case.buses if b.id in gen_buses))
    load_ids = tuple(sorted(b.id for b in case.buses if b.id not in gen_buses))
    if not generator_ids:
        raise CaseError("case has no in-service generators: generator bus set is empty")
    if not load_ids:
        raise CaseError("case has no load buses: every bus hosts a generator")
    return generator_ids, load_ids


def validate_connectivity(case: NetworkCase) -> None:
    """Check the in-service branch graph spans all buses; raise IslandError if not."""
    adj: dict[int, list[int]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.in_service:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    start = case.buses[0].id
    reached = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    unreachable = tuple(b.id for b in case.buses if b.id not in reached)
    if unreachable:
        raise IslandError(unreachable)


def generator_phasors(case: NetworkCase, generator_ids: tuple[int, ...]) -> np.ndarray:
    """Fixed phasors for the generator buses: setpoint magnitude, case-file angle."""
    gen = case.generator_buses
    return np.array(
        [gen[i].setpoint * cmath.exp(1j * case.bus(i).voltage_angle) for i in generator_ids],
        dtype=complex,
    )


def load_power_vector(case: NetworkCase, load_ids: tuple[int, ...]) -> np.ndarray:
    """Complex demand S_L at the load buses, per-unit, consumption positive."""
    return np.array([case.bus(i).demand for i in load_ids], dtype=complex)


def excluded_gen_bus_demand(case: NetworkCase) -> dict[int, complex]:
    """Nonzero demands co-located at generator buses.

    The fixed-phasor generator model pins those buses' voltages regardless of
    local demand, so these loads do not enter the load power vector; they are
    reported so output metadata can flag the exclusion.
    """
    return {b.id: b.demand for b in case.buses if b.id in case.generator_buses and b.demand != 0}


def load_case(source: str, format: str = "matpower") -> NetworkCase:
    """Parse a case document and return a validated, connected NetworkCase.

    format "matpower": a MATPOWER .m case text (baseMVA/bus/gen/branch
    matrices; OPF and cost blocks ignored). format "json": the canonical
    JSON schema (see README). All quantities are converted to per-unit on
    base_mva; angles to radians.
    """
    parsers = {"matpower": _parse_matpower, "json": _parse_json}
    if format not in parsers:
        raise CaseError(f"unknown case format {format!r} (expected 'matpower' or 'json')")
    try:
        case = parsers[format](source)
    except CaseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # a value the parser cannot convert, such as int(NaN)
        raise CaseError(f"bad value in the case: {exc}") from exc
    validate_connectivity(case)
    partition_buses(case)
    return case


def load_case_file(path) -> NetworkCase:
    """load_case on a file path: JSON for a .json suffix, MATPOWER otherwise."""
    p = Path(path)
    return load_case(p.read_text(encoding="utf-8"), "json" if p.suffix.lower() == ".json" else "matpower")


# ---------------------------------------------------------------------------
# MATPOWER parsing
# ---------------------------------------------------------------------------

_ASSIGN_RE = re.compile(r"^\s*(?:\w+\.)?(\w+)\s*=\s*(.*)$", re.DOTALL)


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_matpower(source: str) -> NetworkCase:
    blocks: dict[str, tuple[list[list[float]], int]] = {}
    scalars: dict[str, float] = {}

    lines = source.splitlines()
    i = 0
    nlines = len(lines)
    while i < nlines:
        raw = _strip_comment(lines[i])
        stripped = raw.strip()
        if not stripped or stripped.startswith("function"):
            i += 1
            continue
        m = _ASSIGN_RE.match(raw)
        if not m:
            i += 1
            continue
        name, rest = m.group(1), m.group(2).strip()
        start_line = i + 1
        if rest.startswith("["):
            body = [rest[1:]]
            while "]" not in body[-1]:
                i += 1
                if i >= nlines:
                    raise CaseSyntaxError(f"matrix '{name}' is never closed", start_line)
                body.append(_strip_comment(lines[i]))
            body[-1] = body[-1][: body[-1].index("]")]
            blocks[name] = (_parse_matrix(name, body, start_line), start_line)
        elif rest.startswith("{"):
            # cell array (bus names etc.): skip to the closing brace
            while "}" not in _strip_comment(lines[i]):
                i += 1
                if i >= nlines:
                    raise CaseSyntaxError(f"cell array '{name}' is never closed", start_line)
        else:
            value = rest.rstrip(";").strip()
            if value.startswith("'") or value.startswith('"'):
                pass  # version string and friends
            else:
                try:
                    scalars[name] = float(value)
                except ValueError:
                    raise CaseSyntaxError(f"cannot parse scalar '{name}' value {value!r}", start_line)
        i += 1

    if "baseMVA" not in scalars:
        raise CaseError("missing baseMVA")
    base = scalars["baseMVA"]
    for required in ("bus", "gen", "branch"):
        if required not in blocks:
            raise CaseError(f"missing {required} matrix")

    bus_rows, bus_line = blocks["bus"]
    gen_rows, gen_line = blocks["gen"]
    branch_rows, branch_line = blocks["branch"]

    buses = []
    slack_bus = None
    for k, row in enumerate(bus_rows):
        if len(row) < 13:
            raise CaseSyntaxError(f"bus row {k + 1} has {len(row)} columns, expected >= 13", bus_line)
        bus_id = int(row[0])
        if int(row[1]) == 3 and slack_bus is None:
            slack_bus = bus_id
        buses.append(
            BusRecord(
                id=bus_id,
                demand=complex(row[2], row[3]) / base,
                shunt=complex(row[4], row[5]) / base,
                voltage_magnitude=row[7],
                voltage_angle=math.radians(row[8]),
            )
        )

    gens = []
    for k, row in enumerate(gen_rows):
        if len(row) < 8:
            raise CaseSyntaxError(f"gen row {k + 1} has {len(row)} columns, expected >= 8", gen_line)
        gens.append(
            GenRecord(
                bus=int(row[0]),
                voltage_setpoint=row[5],
                active_power=row[1] / base,
                in_service=math.ceil(row[7]) > 0,  # positive; ceil raises on NaN and inf
            )
        )

    branches = []
    for k, row in enumerate(branch_rows):
        if len(row) < 11:
            raise CaseSyntaxError(f"branch row {k + 1} has {len(row)} columns, expected >= 11", branch_line)
        tap = row[8] if row[8] != 0 else 1.0
        branches.append(
            BranchRecord(
                from_bus=int(row[0]),
                to_bus=int(row[1]),
                series_impedance=complex(row[2], row[3]),
                charging=row[4],
                tap_ratio=tap,
                phase_shift=math.radians(row[9]),
                in_service=math.ceil(row[10]) > 0,
            )
        )

    return build_case(base, buses, branches, gens, slack_bus)


def _parse_matrix(name: str, body: list[str], start_line: int) -> list[list[float]]:
    text = "\n".join(body)
    rows: list[list[float]] = []
    for chunk in re.split(r"[;\n]", text):
        chunk = chunk.strip().rstrip(",")
        if not chunk:
            continue
        try:
            rows.append([float(tok) for tok in chunk.replace(",", " ").split()])
        except ValueError as exc:
            raise CaseSyntaxError(f"bad number in matrix '{name}': {exc}", start_line)
    return rows


# ---------------------------------------------------------------------------
# Canonical JSON form
# ---------------------------------------------------------------------------


def _as_complex(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise CaseError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _parse_json(source: str) -> NetworkCase:
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno)
    if not isinstance(doc, dict):
        raise CaseError("top-level JSON value must be an object")
    if "base_mva" not in doc:
        raise CaseError("missing base_mva")

    try:
        buses = [
            BusRecord(
                id=int(b["id"]),
                demand=_as_complex(b.get("demand", [0, 0]), f"bus {b.get('id')}: demand"),
                shunt=_as_complex(b.get("shunt", [0, 0]), f"bus {b.get('id')}: shunt"),
                voltage_magnitude=float(b.get("voltage_magnitude", 1.0)),
                voltage_angle=math.radians(float(b.get("voltage_angle_deg", 0.0))),
            )
            for b in doc.get("buses", [])
        ]
        branches = [
            BranchRecord(
                from_bus=int(br["from_bus"]),
                to_bus=int(br["to_bus"]),
                series_impedance=_as_complex(
                    br["series_impedance"], f"branch {br.get('from_bus')}-{br.get('to_bus')}: series_impedance"
                ),
                charging=float(br.get("charging", 0.0)),
                tap_ratio=float(br.get("tap_ratio", 1.0)),
                phase_shift=math.radians(float(br.get("phase_shift_deg", 0.0))),
                in_service=math.ceil(br.get("in_service", True)) > 0,  # as in MATPOWER: positive, NaN and inf raise
            )
            for br in doc.get("branches", [])
        ]
        gens = [
            GenRecord(
                bus=int(g["bus"]),
                voltage_setpoint=float(g["voltage_setpoint"]),
                active_power=float(g.get("active_power", 0.0)),
                in_service=math.ceil(g.get("in_service", True)) > 0,
            )
            for g in doc.get("gens", [])
        ]
    except KeyError as exc:
        raise CaseError(f"missing required field {exc.args[0]!r}")

    slack = doc.get("slack_bus")
    return build_case(float(doc["base_mva"]), buses, branches, gens, None if slack is None else int(slack))
