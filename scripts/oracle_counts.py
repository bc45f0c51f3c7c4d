"""Report what the Newton oracle's limits cost, in SuperLU factorizations.

On the 7 base directions it also reports how many limits started from the
zero-load series, how many took the jump toward the nose the series predicts
(its corrector, each limit's second, solved to NEWTON_TOL after the start's
sqrt(NEWTON_TOL)), how many then took the cubic step (held the nose that the
cubic through the last two points puts beyond them), and how many ended with
a polish (a FOLD_TOL corrector right after a NEWTON_TOL one, holding the same
s). A silent fallback shows here. Then it gives factorizations per limit on
two wider sets: each case's base direction plus its 36-point `pfcert sweep`
directions (259 limits), and the benchmark's `oracle_limits` inputs.

    python scripts/oracle_counts.py
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pfcert import limits, oracle  # noqa: E402
from pfcert.net_model import load_case_file  # noqa: E402
from workloads import BUNDLED, OracleLimits  # noqa: E402

factor, series, correct = oracle._NewtonKernel.factor, oracle._series_start, oracle._NewtonKernel.correct
cubic_fold = oracle._cubic_fold
count, started, calls = [0], [], []


def counted(self, *args):
    count[0] += 1
    return factor(self, *args)


def watched(*args):
    start = series(*args)
    started.append(start is not None)
    return start


def recorded(self, *args):
    res, y, t = correct(self, *args)
    calls.append((args[7], res.converged))
    return res, y, t


def fitted(*args):
    calls.append(("cubic", args[6]))
    return cubic_fold(*args)


def factorizations(case, direction, **kwargs) -> int:
    count[0] = 0
    calls.clear()
    oracle.actual_limit(case, direction=direction, **kwargs)
    return count[0]


def main() -> None:
    oracle._NewtonKernel.factor, oracle._series_start, oracle._NewtonKernel.correct = counted, watched, recorded
    oracle._cubic_fold = fitted

    nets = {}
    for name in BUNDLED:
        case = load_case_file(ROOT / "data" / f"{name}.m")
        nets[name] = (case, *limits.prepare(case))
    per_case, jumped, cubic, polished = {}, 0, 0, 0
    for name, (case, red, S) in nets.items():
        per_case[name] = factorizations(case, S, network=red)
        jumped += calls[:2] == [(math.sqrt(oracle.NEWTON_TOL), True), (oracle.NEWTON_TOL, True)]
        cubic += ("cubic", 1.0) in calls
        polished += calls[-2:] == [(oracle.NEWTON_TOL, True), (oracle.FOLD_TOL, True)]
    print("Oracle factorizations per limit: %.1f" % (sum(per_case.values()) / len(per_case)), per_case)
    print("Series starts: %d of %d base directions" % (sum(started), len(started)))
    print("Jumps toward the series nose: %d of %d base directions" % (jumped, len(per_case)))
    print("Cubic steps after the jump: %d of %d base directions" % (cubic, len(per_case)))
    print("Limits ending with a polishing corrector: %d of %d base directions" % (polished, len(per_case)))

    swept = list(per_case.values())
    pairs = [(2.0 * math.pi * k / 36,) * 2 for k in range(36)]
    for case, red, S in nets.values():
        _, directions, _ = limits.direction_sweep(red, S, *limits.default_sweep_buses(red, S), pairs)
        swept += [factorizations(case, d, network=red) for d in directions]
    print("Factorizations per limit on the base and 36-point sweep directions: %.2f over %d limits"
          % (sum(swept) / len(swept), len(swept)))

    workload = OracleLimits(ROOT, smoke=False)
    workload.setup(seed=0)
    bench = [factorizations(workload.nets[name][0], d, bracket=(1e-3, None)) for name, _, d in workload.inputs]
    print("Factorizations per limit on the oracle_limits inputs: %.3f over %d limits"
          % (sum(bench) / len(bench), len(bench)))


if __name__ == "__main__":
    main()
