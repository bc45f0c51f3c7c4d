"""Per-layer metrics from the spans of a traced run.

`.ms` metrics are the mean inclusive time of one call, over the traced
set-up and every traced operation, scaled like the end-to-end times. Counts
cover the first traced round only, so they do not depend on how many rounds
fit in the run. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

# name -> unit
PER_LAYER = {
    "net_model.load_case.ms": "ms",
    "admittance.build_admittance.ms": "ms",
    "admittance.reduce_network.ms": "ms",
    "admittance.reduction_mb": "MB",
    "stress.compute_stress.ms": "ms",
    "stress.compute_stress.calls": "count",
    "certificate.certify.ms": "ms",
    "certificate.estimate_contraction.ms": "ms",
    "certificate.voltage_bounds.ms": "ms",
    "fixed_point.solve_fixed_point.ms": "ms",
    "fixed_point.iterations": "count",
    "fixed_point.iterations_max": "count",
    "limits.lambda_all.ms": "ms",
    "limits.prepare.ms": "ms",
    "oracle.actual_limit.ms": "ms",
    "oracle.prepare_network.ms": "ms",
    "oracle.newton_solve.calls": "count",
    "oracle.newton_solve.failed": "count",
    "oracle.newton_solve.iterations": "count",
    "oracle.newton_solve.ms_per_iteration": "ms",
    "oracle.probe_success": "ratio",
    "cli.import_ms": "ms",
    "cli.main.ms": "ms",
    "cli.dumps_stable.ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans, traced, plain, cal, setup_before: int, best_of: bool) -> dict:
    def factor(op: int) -> float:
        return cal.factor(traced.records[op][3] if op >= 0 else setup_before)

    first_round = {i for i, rec in enumerate(traced.records) if rec[1] == 0}
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def ms_each(name: str) -> list[float]:
        return [1e3 * (s[2] - s[1]) * factor(s[4]) for s in by_name.get(name, [])]

    def mean_ms(name: str) -> float:
        v = ms_each(name)
        return sum(v) / len(v) if v else 0.0

    def in_round(name: str) -> list[tuple]:
        return [s for s in by_name.get(name, []) if s[4] in first_round]

    fp = [s[5] for s in in_round("fixed_point.solve_fixed_point")]
    newton = in_round("oracle.newton_solve")
    newton_all = by_name.get("oracle.newton_solve", [])
    newton_iters = sum(s[5] for s in newton_all)
    reductions = [s[7] for s in by_name.get("admittance.reduce_network", [])]

    plain_ms = plain.per_input_ms(cal, best_of)
    traced_ms = traced.per_input_ms(cal, best_of)
    overhead = statistics.median(traced_ms[j] / plain_ms[j] for j in traced_ms) - 1.0

    values = {
        "net_model.load_case.ms": mean_ms("net_model.load_case"),
        "admittance.build_admittance.ms": mean_ms("admittance.build_admittance"),
        "admittance.reduce_network.ms": mean_ms("admittance.reduce_network"),
        "admittance.reduction_mb": max(reductions, default=0) / 1e6,
        "stress.compute_stress.ms": mean_ms("stress.compute_stress"),
        "stress.compute_stress.calls": len(in_round("stress.compute_stress")),
        "certificate.certify.ms": mean_ms("certificate.certify"),
        "certificate.estimate_contraction.ms": mean_ms("certificate.estimate_contraction"),
        "certificate.voltage_bounds.ms": mean_ms("certificate.voltage_bounds"),
        "fixed_point.solve_fixed_point.ms": mean_ms("fixed_point.solve_fixed_point"),
        "fixed_point.iterations": sum(fp),
        "fixed_point.iterations_max": max(fp, default=0),
        "limits.lambda_all.ms": mean_ms("limits.lambda_all"),
        "limits.prepare.ms": mean_ms("limits.prepare"),
        "oracle.actual_limit.ms": mean_ms("oracle.actual_limit"),
        "oracle.prepare_network.ms": mean_ms("oracle.prepare_network"),
        "oracle.newton_solve.calls": len(newton),
        "oracle.newton_solve.failed": sum(1 for s in newton if not s[6]),
        "oracle.newton_solve.iterations": sum(s[5] for s in newton),
        "oracle.newton_solve.ms_per_iteration": sum(ms_each("oracle.newton_solve")) / newton_iters
        if newton_iters else 0.0,
        "oracle.probe_success": sum(1 for s in newton if s[6]) / len(newton) if newton else 0.0,
        "cli.import_ms": mean_ms("cli.import"),
        "cli.main.ms": mean_ms("cli.main"),
        "cli.dumps_stable.ms": mean_ms("cli.dumps_stable"),
        "trace.overhead_pct": 100.0 * overhead,
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
