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
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
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


# Each record's field values, read by attribute: vars() would build a dict for every record.
_BUS_FIELDS, _BRANCH_FIELDS, _GEN_FIELDS = (
    attrgetter(*(f.name for f in fields(cls))) for cls in (BusRecord, BranchRecord, GenRecord)
)


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
            record[g.bus] = GeneratorBus(first.setpoint, first.active_power + g.active_power)
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
    values = chain.from_iterable(chain(map(_BUS_FIELDS, buses), map(_BRANCH_FIELDS, branches), map(_GEN_FIELDS, gens)))
    try:  # inf and NaN carry through a sum of magnitudes, which Python adds in floats: one test for every field
        finite = math.isfinite(sum(map(abs, values), 0.0))
    except (AttributeError, TypeError, OverflowError):  # not a record, not a number, or an int beyond floats
        finite = False
    if not finite:  # name the non-finite field, if any (finite magnitudes may also overflow their sum)
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
        if br.from_bus not in seen or br.to_bus not in seen:
            end = br.to_bus if br.from_bus in seen else br.from_bus
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
    stack = [b.id for b in case.buses[:1]]  # a case without buses is left to partition_buses
    reached = set(stack)
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
    except (TypeError, ValueError, ArithmeticError) as exc:  # a value the parser cannot use: int(NaN), a zero baseMVA
        raise CaseError(f"bad value in the case: {exc}") from exc
    validate_connectivity(case)
    partition_buses(case)
    return case


def load_case_file(path) -> NetworkCase:
    """load_case on a file path: JSON for a .json suffix, MATPOWER otherwise."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CaseError(f"{p} is not UTF-8 text: {exc}") from exc
    return load_case(source, "json" if p.suffix.lower() == ".json" else "matpower")


def _number(value, field: str) -> float:
    """A JSON number, as float: int or float, neither bool (an int to Python) nor a string."""
    if type(value) not in (int, float):
        raise CaseError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _integer(value, field: str, kind: str = "bus number") -> int:
    """An integer read from field; int() alone would read bus 5.7 as bus 5, and true as 1."""
    _number(value, field)
    number = int(value)
    if number != value:
        raise CaseError(f"{field} {value!r} is not an integer {kind}")
    return number


# ---------------------------------------------------------------------------
# MATPOWER parsing
# ---------------------------------------------------------------------------

# An assignment `[mpc.]name = value` on a line that does not start with "function". The value
# is a [...] matrix or a {...} cell array, both of which may span lines, or the rest of the line.
_ASSIGNMENT = re.compile(
    r"^[^\S\n]*(?!function)(?:\w+\.)?(\w+)[^\S\n]*=[^\S\n]*(\[[^\]]*\]?|\{[^}]*\}?|.*)", re.MULTILINE
)
_COMMENT = re.compile(r"%.*")  # a line's first % to its end: '.' stops at '\n' alone, the only line break left
# Up to a line's first % outside a quoted string; a quote opens one if a later quote of its kind on its line closes it.
_CODE = re.compile(r"""(?:[^'"%\n]|'[^'\n]*'|"[^"\n]*"|['"])*""")


def _uncomment(m: re.Match) -> str:
    """What stays of a _COMMENT match: nothing, unless a quote comes before it on its line; then
    the line is read again, and its comment starts at its first % outside a quoted string."""
    text, start = m.string, m.start()
    line = text.rfind("\n", 0, start) + 1
    code = text[line:start]
    if "'" not in code and '"' not in code:
        return ""
    return text[start:_CODE.match(text, line).end()]


def _parse_matpower(source: str) -> NetworkCase:
    text = _COMMENT.sub(_uncomment, "\n".join(source.splitlines()))  # line numbers kept
    blocks: dict[str, tuple[np.ndarray | list[list[float]], int]] = {}
    scalars: dict[str, float] = {}
    for m in _ASSIGNMENT.finditer(text):
        name, value = m.groups()
        line = text.count("\n", 0, m.start()) + 1
        if value.startswith("["):
            if not value.endswith("]"):
                raise CaseSyntaxError(f"matrix '{name}' is never closed", line)
            blocks[name] = (_read_matrix(name, value[1:-1], line), line)
        elif value.startswith("{"):  # cell array (bus names etc.): skipped
            if not value.endswith("}"):
                raise CaseSyntaxError(f"cell array '{name}' is never closed", line)
        else:
            value = value.rstrip().rstrip(";").strip()
            if not value.startswith(("'", '"')):  # strings (the version and friends) are skipped
                try:
                    scalars[name] = float(value)
                except ValueError:
                    raise CaseSyntaxError(f"cannot parse scalar '{name}' value {value!r}", line)

    if "baseMVA" not in scalars:
        raise CaseError("missing baseMVA")
    base = scalars["baseMVA"]
    for required in _RULES:
        if required not in blocks:
            raise CaseError(f"missing {required} matrix")

    buses, slack_bus = _records("bus", _bus_columns, *blocks["bus"], base)
    gens = _records("gen", _gen_columns, *blocks["gen"], base)
    branches = _records("branch", _branch_columns, *blocks["branch"], base)
    return build_case(base, buses, branches, gens, slack_bus)


def _read_matrix(name: str, body: str, line: int) -> np.ndarray | list[list[float]]:
    """A matrix's rows, as one float64 array from one bulk read. A matrix that read rejects
    (ragged rows, a row without numbers, a bad token, or one only float() reads, such as
    1_0) is read token by token into lists, as float() reads each number."""
    # rows end at ';' or a line break, and commas separate numbers as whitespace does
    chunks = body.replace(";", "\n").split("\n")
    if "," in body:  # commas alone make no row, but a space between two makes a row of no numbers
        rows = [c.replace(",", " ") for c in chunks if c.strip().rstrip(",")]
    else:
        rows = list(filter(str.strip, chunks))
    if rows and not any(map(str.isspace, rows)):
        try:  # np.loadtxt reads a number as float() does, and refuses what float() refuses
            return np.loadtxt(rows, comments=None, ndmin=2)
        except ValueError:
            pass
    try:
        return [[float(tok) for tok in row.split()] for row in rows]
    except ValueError as exc:
        raise CaseSyntaxError(f"bad number in matrix '{name}': {exc}", line)


class _Rules(NamedTuple):  # what every row of a matrix must hold, in the order a row is checked
    width: int  # columns, at least
    integers: tuple[tuple[int, str, str], ...]  # (column, field, kind) of each integer, as _integer reports it
    divide: Callable[[list[float], float], object] | None  # the row's first division by the base: 0 raises there
    status: tuple[int, ...]  # the status column, if any, read as MATPOWER's ceil(x) > 0: NaN and inf raise


_RULES = {
    "bus": _Rules(13, ((0, "bus_i", "bus number"), (1, "type", "bus type")),
                  lambda row, base: complex(row[2], row[3]) / base, ()),  # a zero base: "complex division by zero"
    "gen": _Rules(8, ((0, "bus", "bus number"),), lambda row, base: row[1] / base, (7,)),  # "float division by zero"
    "branch": _Rules(11, ((0, "fbus", "bus number"), (1, "tbus", "bus number")), None, (10,)),
}


@np.errstate(all="ignore")  # inf and NaN arise silently, as in Python's float arithmetic
def _records(name: str, columns, matrix, line: int, base: float):
    """Matrix name's records, always built from its columns by columns(m, base). A bulk-read
    matrix that passes _RULES[name] column by column under a valid base is built at once. Any
    other (one the bulk read rejected, one that fails a rule, any under an invalid base) is first
    checked row by row, which raises the first error in row order; rows that pass are cut to width."""
    width, integers, divide, status = _RULES[name]
    if isinstance(matrix, np.ndarray):
        if 0 < base < math.inf and matrix.shape[1] >= width:  # x - trunc(x) is 0 for a finite integer x alone
            ints = matrix.take([column for column, _, _ in integers], 1)
            if not (ints - np.trunc(ints)).any() and np.isfinite(matrix.take(status, 1)).all():
                return columns(matrix, base)
        matrix = matrix.tolist()
    for k, row in enumerate(matrix):
        if len(row) < width:
            raise CaseSyntaxError(f"{name} row {k + 1} has {len(row)} columns, expected >= {width}", line)
        for column, field, kind in integers:
            _integer(row[column], f"{name} row {k + 1}: {field}", kind)
        if divide:
            divide(row, base)
        for column in status:
            math.ceil(row[column])
    return columns(np.array([row[:width] for row in matrix], float).reshape(-1, width), base)


def _complex(re: np.ndarray, im: np.ndarray) -> list[complex]:
    """complex(re, im) for each pair, bit for bit (re + 1j * im would add the signed zeros of 1j * im)."""
    z = np.empty(len(re), complex)
    z.real, z.imag = re, im
    return z.tolist()


def _per_unit(re: np.ndarray, im: np.ndarray, base: float) -> list[complex]:
    """complex(re, im) / base for each pair, bit for bit. Python divides by complex(base, 0),
    which is (re + im * 0) / base and (im - re * 0) / base for a positive base; the zero
    products set the signs of zero parts. numpy's complex division multiplies by 1 / base."""
    return _complex((re + im * 0.0) / base, (im - re * 0.0) / base)


def _bus_columns(m: np.ndarray, base: float) -> tuple[list[BusRecord], int | None]:
    ids = list(map(int, m[:, 0].tolist()))
    slack = np.flatnonzero(m[:, 1] == 3)
    demand, shunt = _per_unit(m[:, 2], m[:, 3], base), _per_unit(m[:, 4], m[:, 5], base)
    buses = list(map(BusRecord, ids, demand, shunt, m[:, 7].tolist(), np.radians(m[:, 8]).tolist()))
    return buses, ids[slack[0]] if len(slack) else None


def _gen_columns(m: np.ndarray, base: float) -> list[GenRecord]:
    on = (m[:, 7] > 0).tolist()  # MATPOWER's ceil(x) > 0, for finite x
    return list(map(GenRecord, map(int, m[:, 0].tolist()), m[:, 5].tolist(), (m[:, 1] / base).tolist(), on))


def _branch_columns(m: np.ndarray, base: float) -> list[BranchRecord]:
    tap = np.where(m[:, 8] == 0, 1.0, m[:, 8])
    return list(map(
        BranchRecord, map(int, m[:, 0].tolist()), map(int, m[:, 1].tolist()), _complex(m[:, 2], m[:, 3]),
        m[:, 4].tolist(), tap.tolist(), np.radians(m[:, 9]).tolist(), (m[:, 10] > 0).tolist(),
    ))


# ---------------------------------------------------------------------------
# Canonical JSON form
# ---------------------------------------------------------------------------


def _as_complex(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise CaseError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(_number(value[0], where), _number(value[1], where))


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
                id=_integer(b["id"], "bus id"),
                demand=_as_complex(b.get("demand", [0, 0]), f"bus {b.get('id')}: demand"),
                shunt=_as_complex(b.get("shunt", [0, 0]), f"bus {b.get('id')}: shunt"),
                voltage_magnitude=_number(b.get("voltage_magnitude", 1.0), "bus voltage_magnitude"),
                voltage_angle=math.radians(_number(b.get("voltage_angle_deg", 0.0), "bus voltage_angle_deg")),
            )
            for b in doc.get("buses", [])
        ]
        branches = [
            BranchRecord(
                from_bus=_integer(br["from_bus"], "branch from_bus"),
                to_bus=_integer(br["to_bus"], "branch to_bus"),
                series_impedance=_as_complex(
                    br["series_impedance"], f"branch {br.get('from_bus')}-{br.get('to_bus')}: series_impedance"
                ),
                charging=_number(br.get("charging", 0.0), "branch charging"),
                tap_ratio=_number(br.get("tap_ratio", 1.0), "branch tap_ratio"),
                phase_shift=math.radians(_number(br.get("phase_shift_deg", 0.0), "branch phase_shift_deg")),
                in_service=math.ceil(br.get("in_service", True)) > 0,  # as in MATPOWER: positive, NaN and inf raise
            )
            for br in doc.get("branches", [])
        ]
        gens = [
            GenRecord(
                bus=_integer(g["bus"], "gen bus"),
                voltage_setpoint=_number(g["voltage_setpoint"], "gen voltage_setpoint"),
                active_power=_number(g.get("active_power", 0.0), "gen active_power"),
                in_service=math.ceil(g.get("in_service", True)) > 0,
            )
            for g in doc.get("gens", [])
        ]
    except KeyError as exc:
        raise CaseError(f"missing required field {exc.args[0]!r}")

    slack = doc.get("slack_bus")
    slack = None if slack is None else _integer(slack, "slack_bus")
    return build_case(_number(doc["base_mva"], "base_mva"), buses, branches, gens, slack)
