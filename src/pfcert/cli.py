"""Command-line front end: certify / solve / limits / sweep / bounds.

Every command is one pipeline: _load the case and its reduction, compute, emit
one artifact. The reduction (with --known-solution, its copy re-centered on
the solved base point) forms its Ztilde, the one n x n matrix a command holds,
on first use; the copy takes the kernel that the base point's solve built.
Each command defines only the options it reads: all take --case (a .json file
is read as JSON, any other as MATPOWER), --gen-phasors and --out; solve,
limits, sweep and bounds also take --out-format {json,csv}, only solve takes
--tol and --max-iter, and sweep takes --points or --direction-file, not both.
`limits --with-oracle` prints the nose along the base direction,
`sweep --with-oracle` one along each swept direction, and `bounds --with-oracle`
the bus voltage of a Newton chain over the grid; this module, not limits, calls
the oracle.

Exit codes: 0 success, 1 certificate does not hold (for `certify`), 2 input
error (usage errors and files that cannot be read or written included), 3
numerical failure. Every error is also
written to stderr as one JSON line. This module alone knows the artifact
format: stable field order, floats at 9 significant digits (non-finite
values become JSON null, empty CSV cells) and complex values as [re, im].
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, limits, oracle
from .admittance import NotASolutionError, SingularNetworkError, renormalize_about_solution
from .certificate import Certificate, VoltageBounds, certify_all, voltage_bounds
from .fixed_point import solve_fixed_point
from .net_model import CaseError, excluded_gen_bus_demand, load_case_file
from .stress import NoCertificate

EXIT_OK = 0
EXIT_CERT_FAILS = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

MAX_GRID_POINTS = 10**5  # of a --points, --direction-file or --scale-grid grid, checked before the case loads

_BRACKETED = (dict, list, tuple, np.ndarray, complex, np.complexfloating)  # lists of these print one per line


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".9g")


def dumps_stable(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and fixed float formatting.

    A complex value prints as the pair [re, im] and is laid out like a
    two-element list, so a list of complex values prints one pair per line.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad} {dumps_stable(k)}: {dumps_stable(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if not any(isinstance(v, _BRACKETED) for v in seq):
            return "[" + ", ".join(dumps_stable(v) for v in seq) + "]"
        items = ",\n".join(f"{pad} {dumps_stable(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    """One line per row; each cell is its JSON text, with null left empty."""
    buf = io.StringIO()
    buf.write(",".join(fieldnames) + "\n")
    for row in rows:
        cells = (dumps_stable(row.get(name)) for name in fieldnames)
        buf.write(",".join("" if cell == "null" else cell for cell in cells) + "\n")
    return buf.getvalue()


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate as an artifact section."""
    m = cert.measures
    out = {
        "holds": cert.holds,
        "reason": cert.reason,
        "stress": {
            "eta_max": m.eta_max,
            "xi_max": m.xi_max,
            "gamma_max": m.gamma_max,
            "delta": m.Delta,
            "stress_level": m.stress_level,
            "stress_spread": m.stress_spread,
        },
    }
    if cert.holds:
        out["radii"] = {
            "r_lo": cert.radii.r_lo,
            "r_hi": cert.radii.r_hi,
            "degenerate": cert.radii.degenerate,
        }
        out["disc_centers"] = cert.disc_centers
        out["disc_radii"] = cert.disc_radii
        out["mu_bound"] = cert.mu_bound
    return out


def voltage_bounds_to_dict(vb: VoltageBounds) -> dict:
    """The voltage enclosures as an artifact section, angles in degrees."""
    deg = 180.0 / math.pi
    return {
        "buses": [
            {
                "bus": bus,
                "magnitude": [vb.magnitude_low[k], vb.magnitude_high[k]],
                "angle_deg": [vb.angle_low[k] * deg, vb.angle_high[k] * deg],
                "approx": vb.approx[k],
                "approx_magnitude": abs(vb.approx[k]),
                "approx_angle_deg": np.angle(vb.approx[k]) * deg,
                "full_circle": vb.full_circle[k],
            }
            for k, bus in enumerate(vb.load_ids)
        ]
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_table(args, doc: dict, fields: list[str], rows: list[dict]) -> None:
    """doc as JSON, or with --out-format csv the rows' fields as CSV."""
    _emit(args, rows_to_csv(fields, rows) if args.out_format == "csv" else dumps_stable(doc))


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _load(args):
    """The case, its reduction and its base load. With --known-solution the
    reduction is re-centered on the Newton-solved base point, whose solve pins
    the reduction's own generator phasors, so it is consistent with red.E.
    """
    case = load_case_file(args.case)
    red, S_base = limits.prepare(case, args.gen_phasors)
    if getattr(args, "known_solution", False):
        res = oracle.newton_solve(red, S_base)
        if not res.converged:
            raise SingularNetworkError("base-case power flow did not converge; no known solution")
        red = renormalize_about_solution(red, res.V_L / red.scale, S_base)
    return case, red, S_base


def _actual_limit(case, red, S, certified: float) -> float:
    """The oracle's nose along S. The bracket's lower end must be feasible, so it is
    1e-3 or, if lower, half the total scaling lambda_p certified along S."""
    return oracle.actual_limit(case, S, bracket=(min(1e-3, certified / 2), None), network=red)


def args_case_name(case) -> str:
    return f"{len(case.buses)}-bus"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    case, red, S_base = _load(args)
    cert, wang, dvij = certify_all(red, args.scale * S_base)
    meta = {
        "case": args_case_name(case),
        "gen_phasor_source": args.gen_phasors,
        "scale": args.scale,
        "known_solution": args.known_solution,
    }
    doc = {"meta": meta, "certificate": certificate_to_dict(cert)}
    doc["baselines"] = {"wang": _shell_dict(wang), "dvijotham": _shell_dict(dvij)}
    excluded = excluded_gen_bus_demand(case)
    if excluded:
        doc["meta"]["demand_at_generator_buses_excluded"] = sorted(excluded)
    if cert.holds:
        doc["voltage_bounds"] = voltage_bounds_to_dict(voltage_bounds(cert, red))
    _emit(args, dumps_stable(doc))
    return EXIT_OK if cert.holds else EXIT_CERT_FAILS


def _shell_dict(shell) -> dict:
    out = {"holds": shell.holds, "uniqueness": shell.uniqueness, "condition_value": shell.condition_value}
    if shell.holds:
        out["radius"] = shell.radius
    return out


def cmd_solve(args) -> int:
    if args.tol <= 0:
        raise CaseError("--tol must be positive")
    if args.max_iter < 1:
        raise CaseError("--max-iter must be at least 1")
    case, red, S_base = _load(args)
    S = args.scale * S_base
    res = solve_fixed_point(red, S, tol=args.tol, max_iter=args.max_iter)
    if not res.converged:
        raise SingularNetworkError(
            f"fixed-point iteration failed after {res.iterations} iterations "
            f"(residual {res.residual:.3e}): {res.note}"
        )
    rows = [
        {"bus": bus, "magnitude": abs(v), "angle_deg": np.degrees(np.angle(v)), "re": v.real, "im": v.imag}
        for bus, v in zip(red.load_ids, res.V_L)
    ]
    doc = {
        "meta": {"scale": args.scale, "iterations": res.iterations, "residual": res.residual},
        "voltages": rows,
    }
    _emit_table(args, doc, list(rows[0]), rows)
    return EXIT_OK


def cmd_limits(args) -> int:
    case, red, S_base = _load(args)
    est = limits.lambda_all(red, S_base)
    doc = {
        "meta": {
            "case": args_case_name(case),
            "mode": est.mode,
            "gen_phasor_source": args.gen_phasors,
        },
        "lambda_p": est.lambda_p,
        "lambda_w": est.lambda_w,
        "lambda_d": est.lambda_d,
        "critical_bus": est.critical_bus,
    }
    if est.mode == "from_known_solution":
        doc["total_scaling_p"] = 1.0 + est.lambda_p
        doc["total_scaling_w"] = 1.0 + est.lambda_w
        doc["total_scaling_d"] = 1.0 + est.lambda_d
    if args.with_oracle:
        bounds = {key: 1.0 + lam if est.mode == "from_known_solution" else lam
                  for key, lam in (("p", est.lambda_p), ("w", est.lambda_w), ("d", est.lambda_d))}
        actual = _actual_limit(case, red, S_base, bounds["p"])
        doc["lambda_actual"] = actual  # a total scaling from zero load in both modes
        for key, bound in bounds.items():
            doc[f"relative_error_{key}"] = (actual - bound) / actual
    _emit_table(args, doc, [k for k in doc if k != "meta"], [doc])
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.bus_a is None) != (args.bus_b is None):
        raise CaseError("give both --bus-a and --bus-b, or neither for the default pair")
    if args.direction_file:
        with open(args.direction_file, encoding="utf-8") as fh:
            try:
                degrees = [(a, b) for a, b in json.load(fh)]
            except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise CaseError(f"bad direction file {args.direction_file}: expected "
                                f"[phi_a_deg, phi_b_deg] pairs ({exc})") from exc
        if len(degrees) > MAX_GRID_POINTS:
            raise CaseError(f"--direction-file must hold at most {MAX_GRID_POINTS} pairs")
        if not all(type(phi) in (int, float) and math.isfinite(phi) for pair in degrees for phi in pair):
            raise CaseError(f"bad direction file {args.direction_file}: angles must be finite numbers")
        pairs = [(math.radians(a), math.radians(b)) for a, b in degrees]
    elif args.points > MAX_GRID_POINTS:
        raise CaseError(f"--points must be at most {MAX_GRID_POINTS}")
    else:
        pairs = [(2.0 * math.pi * k / args.points,) * 2 for k in range(args.points)]
    if not pairs:
        raise CaseError("no directions to sweep: --points must be at least 1 and a direction file non-empty")
    case, red, S_base = _load(args)
    if args.bus_a is None:
        bus_a, bus_b = limits.default_sweep_buses(red, S_base)
    else:
        bus_a, bus_b = args.bus_a, args.bus_b
    magnitude, directions, estimates = limits.direction_sweep(red, S_base, bus_a, bus_b, pairs)
    rows = [
        {
            "phi_a_deg": math.degrees(phi_a),
            "phi_b_deg": math.degrees(phi_b),
            "lambda_p": est.lambda_p,
            "lambda_w": est.lambda_w,
            "lambda_d": est.lambda_d,
            "lambda_actual": _actual_limit(case, red, S, est.lambda_p) if args.with_oracle else None,
        }
        for (phi_a, phi_b), S, est in zip(pairs, directions, estimates)
    ]
    doc = {"meta": {"bus_a": bus_a, "bus_b": bus_b, "magnitude": magnitude}, "points": rows}
    _emit_table(args, doc, list(rows[0]), rows)
    return EXIT_OK


def _parse_grid(spec: str):
    try:
        parts = [float(p) for p in spec.split(":")]
    except ValueError as exc:
        raise CaseError(f"bad grid {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, parts)):
        raise CaseError(f"bad grid {spec!r}: values must be finite")
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise CaseError(f"bad grid {spec!r}: expected start:stop:step")
    start, stop, step = parts
    if step <= 0:
        raise CaseError("grid step must be positive")
    span = (stop - start) / step + 1e-9  # floor(span) + 1 points; infinite when stop - start overflows
    if span < 0:
        raise CaseError(f"grid {spec!r} is empty: stop is below start")
    if not span < MAX_GRID_POINTS:
        raise CaseError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(math.floor(span) + 1)]


def cmd_bounds(args) -> int:
    grid = _parse_grid(args.scale_grid)
    _, red, S_base = _load(args)
    bounds = limits.bound_profile(red, S_base, args.bus, grid)
    actual = []  # |V| at the bus along a Newton chain: each solve starts from the last solution
    if args.with_oracle:
        k, warm = red.load_index(args.bus), red.E
        for lam in grid:
            res = oracle.newton_solve(red, lam * S_base, start=warm)
            if not res.converged:
                break  # past the nose; later points only get bounds
            warm = res.V_L
            actual.append(float(abs(res.V_L[k])))
    rows = [
        {"lambda": lam, "proposed": proposed, "wang": wang, "dvijotham": dvij, "actual": v}
        for lam, (proposed, wang, dvij), v in itertools.zip_longest(grid, bounds, actual)
    ]
    _emit_table(args, {"meta": {"bus": args.bus}, "profile": rows}, list(rows[0]), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors like any other; the
    subparsers are of this class too."""

    def error(self, message):
        raise CaseError(f"{self.prog}: {message}")


def finite(text: str) -> float:
    """A float option value that must be finite, like every --scale-grid value;
    argparse reports any other as an invalid finite value."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _add_common(p: argparse.ArgumentParser, out_format: bool = False) -> None:
    p.add_argument("--case", required=True, help="case file path (.json: JSON form; otherwise MATPOWER)")
    p.add_argument("--gen-phasors", choices=["case", "solved"], default="case", dest="gen_phasors",
                   help="generator phasor source: case file or solved base case")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if out_format:
        p.add_argument("--out-format", choices=["json", "csv"], default="json", dest="out_format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pfcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pfcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="evaluate the solvability certificates")
    _add_common(p)
    p.add_argument("--scale", type=finite, default=1.0, help="load scaling factor on the base demand")
    p.add_argument("--known-solution", action="store_true", dest="known_solution",
                   help="build the certificate around the solved base operating point")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="solve the power flow by certified fixed-point iteration")
    _add_common(p, out_format=True)
    p.add_argument("--scale", type=finite, default=1.0)
    p.add_argument("--tol", type=finite, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("limits", help="solvability-limit estimates along the base direction")
    _add_common(p, out_format=True)
    p.add_argument("--known-solution", action="store_true", dest="known_solution")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle",
                   help="also locate the true limit (the nose) and report relative errors")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("sweep", help="limit estimates over loading directions of two buses")
    _add_common(p, out_format=True)
    p.add_argument("--bus-a", type=int, default=None, dest="bus_a")
    p.add_argument("--bus-b", type=int, default=None, dest="bus_b")
    grid = p.add_mutually_exclusive_group()
    # argparse lets a value that is the default object pass; a str default makes a given --points 36 conflict
    grid.add_argument("--points", type=int, default="36", help="uniform angle grid size")
    grid.add_argument("--direction-file", default=None, dest="direction_file",
                      help="JSON file with [phi_a_deg, phi_b_deg] pairs")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="voltage bound profile at one bus versus loading")
    _add_common(p, out_format=True)
    p.add_argument("--bus", type=int, required=True)
    p.add_argument("--scale-grid", default="1.0:2.5:0.01", dest="scale_grid",
                   help="loading grid start:stop:step")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.set_defaults(func=cmd_bounds)

    return parser


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CaseError, OSError) as exc:
        _error_json("input", str(exc))
        return EXIT_INPUT
    except (SingularNetworkError, NotASolutionError, NoCertificate, RuntimeError) as exc:
        _error_json("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
