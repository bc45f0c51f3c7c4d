"""Command-line front end: certify / solve / limits / sweep / bounds / oracle-limit.

Exit codes: 0 success, 1 certificate does not hold (for `certify`), 2 input
error, 3 numerical failure. Errors are also emitted as structured JSON on
stderr. All emitted artifacts are deterministic: stable field order and
floats at 9 significant digits (non-finite values become JSON null).
"""

from __future__ import annotations

import argparse
import io
import math
import sys

import numpy as np

from . import __version__, limits, oracle
from .admittance import NotASolutionError, SingularNetworkError, renormalize_about_solution
from .certificate import (
    certificate_to_dict,
    certify,
    certify_dvijotham,
    certify_wang,
    voltage_bounds,
    voltage_bounds_to_dict,
)
from .fixed_point import solve_fixed_point
from .net_model import CaseError, excluded_gen_bus_demand, load_case_file
from .stress import NoCertificate, compute_stress

EXIT_OK = 0
EXIT_CERT_FAILS = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".9g")


def dumps_stable(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and fixed float formatting."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, str):
        import json

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
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_stable(v) for v in seq) + "]"
        items = ",\n".join(f"{pad} {dumps_stable(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(",".join(fieldnames) + "\n")
    for row in rows:
        cells = []
        for name in fieldnames:
            v = row.get(name)
            if v is None:
                cells.append("")
            elif isinstance(v, (float, np.floating)):
                cells.append("" if not math.isfinite(v) else format_float(float(v)))
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _load(args):
    """The case, its reduction and its base load. With --known-solution the
    reduction is re-centered on the Newton-solved base point, whose solve pins
    the reduction's own generator phasors, so it is consistent with red.E.
    """
    case = load_case_file(args.case, args.format)
    red, S_base = limits.prepare(case, args.gen_phasors)
    if getattr(args, "known_solution", False):
        res = oracle.newton_solve(case, S_base, network=red)
        if not res.converged:
            raise SingularNetworkError("base-case power flow did not converge; no known solution")
        red = renormalize_about_solution(red, res.V_L / red.E, S_base)
    return case, red, S_base


def args_case_name(case) -> str:
    return f"{len(case.buses)}-bus"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    case, red, S_base = _load(args)
    S = args.scale * S_base
    sigma = S - red.S0
    m = compute_stress(red.Ztilde, S, sigma)
    meta = {
        "case": args_case_name(case),
        "gen_phasor_source": args.gen_phasors,
        "scale": args.scale,
        "known_solution": args.known_solution,
    }
    cert = certify(m)
    if args.known_solution:
        wang = certify_wang(compute_stress(red.Ztilde, red.S0), compute_stress(red.Ztilde, sigma))
    else:
        wang = certify_wang(None, m)
    doc = {"meta": meta, "certificate": certificate_to_dict(cert)}
    doc["baselines"] = {
        "wang": _shell_dict(wang),
        "dvijotham": _shell_dict(certify_dvijotham(m)),
    }
    excluded = excluded_gen_bus_demand(case)
    if excluded:
        doc["meta"]["demand_at_generator_buses_excluded"] = sorted(excluded)
    if cert.holds:
        doc["voltage_bounds"] = voltage_bounds_to_dict(voltage_bounds(cert, red))
    if args.dump_reduction:
        from .admittance import reduction_dump

        with open(args.dump_reduction, "w", encoding="utf-8") as fh:
            fh.write(dumps_stable(reduction_dump(red)))
    _emit(args, dumps_stable(doc))
    return EXIT_OK if cert.holds else EXIT_CERT_FAILS


def _shell_dict(shell) -> dict:
    out = {"holds": shell.holds, "uniqueness": shell.uniqueness, "condition_value": shell.condition_value}
    if shell.holds:
        out["radius"] = shell.radius
    return out


def cmd_solve(args) -> int:
    case, red, S_base = _load(args)
    S = args.scale * S_base
    res = solve_fixed_point(red, S, tol=args.tol, max_iter=args.max_iter)
    if not res.converged:
        raise SingularNetworkError(
            f"fixed-point iteration failed after {res.iterations} iterations "
            f"(residual {res.residual:.3e}): {res.note}"
        )
    rows = [
        {
            "bus": bus,
            "magnitude": float(abs(res.V_L[k])),
            "angle_deg": float(np.degrees(np.angle(res.V_L[k]))),
            "re": float(res.V_L[k].real),
            "im": float(res.V_L[k].imag),
        }
        for k, bus in enumerate(red.load_ids)
    ]
    if args.out_format == "csv":
        _emit(args, rows_to_csv(["bus", "magnitude", "angle_deg", "re", "im"], rows))
    else:
        doc = {
            "meta": {"scale": args.scale, "iterations": res.iterations, "residual": res.residual},
            "voltages": rows,
        }
        _emit(args, dumps_stable(doc))
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
        actual = oracle.actual_limit(case, direction=S_base, bracket=(1e-3, None), network=red)
        doc["lambda_actual"] = actual  # a total scaling from zero load in both modes
        for key, lam in (("p", est.lambda_p), ("w", est.lambda_w), ("d", est.lambda_d)):
            bound = 1.0 + lam if est.mode == "from_known_solution" else lam
            doc[f"relative_error_{key}"] = (actual - bound) / actual
    if args.out_format == "csv":
        fields = [k for k in doc if k != "meta"]
        _emit(args, rows_to_csv(fields, [doc]))
    else:
        _emit(args, dumps_stable(doc))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.bus_a is None) != (args.bus_b is None):
        raise CaseError("give both --bus-a and --bus-b, or neither for the default pair")
    case = load_case_file(args.case, args.format)
    if args.bus_a is None or args.bus_b is None:
        bus_a, bus_b = limits.default_sweep_buses(case)
    else:
        bus_a, bus_b = args.bus_a, args.bus_b
    if args.direction_file:
        import json

        with open(args.direction_file, encoding="utf-8") as fh:
            try:
                pairs = [(math.radians(a), math.radians(b)) for a, b in json.load(fh)]
            except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise CaseError(f"bad direction file {args.direction_file}: expected "
                                f"[phi_a_deg, phi_b_deg] pairs ({exc})") from exc
    else:
        pairs = [(2.0 * math.pi * k / args.points,) * 2 for k in range(args.points)]
    if not pairs:
        raise CaseError("no directions to sweep: --points must be at least 1 and a direction file non-empty")
    sweep = limits.direction_sweep(
        case, bus_a, bus_b, pairs, gen_phasors=args.gen_phasors, with_oracle=args.with_oracle
    )
    rows = []
    for pt in sweep.points:
        row = {
            "phi_a_deg": math.degrees(pt.phi_a),
            "phi_b_deg": math.degrees(pt.phi_b),
            "lambda_p": pt.estimates.lambda_p,
            "lambda_w": pt.estimates.lambda_w,
            "lambda_d": pt.estimates.lambda_d,
            "lambda_actual": pt.estimates.lambda_actual,
        }
        rows.append(row)
    if args.out_format == "csv":
        _emit(
            args,
            rows_to_csv(
                ["phi_a_deg", "phi_b_deg", "lambda_p", "lambda_w", "lambda_d", "lambda_actual"], rows
            ),
        )
    else:
        doc = {
            "meta": {"bus_a": sweep.bus_a, "bus_b": sweep.bus_b, "magnitude": sweep.magnitude},
            "points": rows,
        }
        _emit(args, dumps_stable(doc))
    return EXIT_OK


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise CaseError(f"bad grid {spec!r}: expected start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise CaseError("grid step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise CaseError(f"grid {spec!r} is empty: stop is below start")
    return [start + k * step for k in range(count)]


def cmd_bounds(args) -> int:
    case = load_case_file(args.case, args.format)
    grid = _parse_grid(args.scale_grid)
    rows = limits.bound_profile(
        case, args.bus, grid, gen_phasors=args.gen_phasors, with_oracle=args.with_oracle
    )
    if args.out_format == "csv":
        _emit(args, rows_to_csv(["lambda", "proposed", "wang", "dvijotham", "actual"], rows))
    else:
        _emit(args, dumps_stable({"meta": {"bus": args.bus}, "profile": rows}))
    return EXIT_OK


def cmd_oracle_limit(args) -> int:
    case, red, S_base = _load(args)
    lam = oracle.actual_limit(case, direction=S_base, bracket=(args.bracket_lo, args.bracket_hi), network=red)
    _emit(args, dumps_stable({"meta": {"case": args_case_name(case)}, "lambda_actual": lam}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True, help="case file path (.m or .json)")
    p.add_argument("--format", choices=["matpower", "json"], default=None, help="case format (default: by suffix)")
    p.add_argument("--gen-phasors", choices=["case", "solved"], default="case", dest="gen_phasors",
                   help="generator phasor source: case file or solved base case")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--out-format", choices=["json", "csv"], default="json", dest="out_format")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000, dest="max_iter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pfcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="evaluate the solvability certificates")
    _add_common(p)
    p.add_argument("--scale", type=float, default=1.0, help="load scaling factor on the base demand")
    p.add_argument("--known-solution", action="store_true", dest="known_solution",
                   help="build the certificate around the solved base operating point")
    p.add_argument("--dump-reduction", default=None, dest="dump_reduction",
                   help="also write E and the normalized impedance matrix to this JSON file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="solve the power flow by certified fixed-point iteration")
    _add_common(p)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("limits", help="solvability-limit estimates along the base direction")
    _add_common(p)
    p.add_argument("--known-solution", action="store_true", dest="known_solution")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle",
                   help="also locate the true limit (the nose) and report relative errors")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("sweep", help="limit estimates over loading directions of two buses")
    _add_common(p)
    p.add_argument("--bus-a", type=int, default=None, dest="bus_a")
    p.add_argument("--bus-b", type=int, default=None, dest="bus_b")
    p.add_argument("--points", type=int, default=36, help="uniform angle grid size")
    p.add_argument("--direction-file", default=None, dest="direction_file",
                   help="JSON file with [phi_a_deg, phi_b_deg] pairs")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="voltage bound profile at one bus versus loading")
    _add_common(p)
    p.add_argument("--bus", type=int, required=True)
    p.add_argument("--scale-grid", default="1.0:2.5:0.01", dest="scale_grid",
                   help="loading grid start:stop:step")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle-limit", help="locate the actual solvability limit (the nose)")
    _add_common(p)
    p.add_argument("--bracket-lo", type=float, default=1e-3, dest="bracket_lo")
    p.add_argument("--bracket-hi", type=float, default=None, dest="bracket_hi")
    p.set_defaults(func=cmd_oracle_limit)

    return parser


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(dumps_stable({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol <= 0:
        _error_json("input", "--tol must be positive")
        return EXIT_INPUT
    if args.max_iter < 1:
        _error_json("input", "--max-iter must be at least 1")
        return EXIT_INPUT
    try:
        return args.func(args)
    except (CaseError, FileNotFoundError, IsADirectoryError) as exc:
        _error_json("input", str(exc))
        return EXIT_INPUT
    except (SingularNetworkError, NotASolutionError, NoCertificate, RuntimeError) as exc:
        _error_json("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
