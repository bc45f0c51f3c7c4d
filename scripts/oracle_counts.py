"""Report what the Newton oracle's limits cost, in Jacobian factorizations, and how close they are.

On the 7 base directions it also reports how many limits started from the
zero-load series, how many took the jump toward the nose the series predicts
(its corrector, each limit's second, solved to NEWTON_TOL after the start's
sqrt(NEWTON_TOL)), how many then took the cubic step (held the nose that the
cubic through the last two points puts beyond them), and how many ended with
a polish (a FOLD_TOL corrector right after a NEWTON_TOL one, holding the same
s). A silent fallback shows here. Then it gives factorizations per limit on
two wider sets: each case's base direction plus its 36-point `pfcert sweep`
directions (259 limits), and the benchmark's `oracle_limits` inputs. On each
set it also counts the limits that took each fallback: a refused series start,
a failed start corrector (both start cold, from bracket[0]), plain continuation
after the jump (split by its cause: |g| stopped falling, or a corrector
failed), a polish, and a shrink after a failed corrector in the fold's bracket,
and how each answer compares with a `tol=1e-13` run along the same direction:
the largest gap below it, in units of min(1, lambda) as the tolerance is, and
how many answers lie above it (`actual_limit` promises gaps within its
`tol=1e-10` and none above).

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


def factorizations(case, direction, **kwargs) -> tuple[int, float]:
    """The factorizations a limit takes, and its answer."""
    count[0] = 0
    calls.clear()
    lam = oracle.actual_limit(case, direction=direction, **kwargs)
    return count[0], lam


def gap(case, direction, lam: float, **kwargs) -> float:
    """How far lam lies below the tol=1e-13 answer along direction, in units of min(1, lambda)."""
    tight = oracle.actual_limit(case, direction=direction, tol=1e-13, **kwargs)
    return (tight - lam) / min(1.0, tight)


def fallbacks() -> list[str]:
    """The fallbacks the last limit took, read from its corrector calls and cubic steps. In the
    jump's chain a cubic step precedes every NEWTON_TOL corrector after the jump's, and the fold's
    bracket runs FOLD_TOL correctors alone, so a NEWTON_TOL corrector after the jump that follows
    no cubic step is the continuation's; a FOLD_TOL corrector right after a NEWTON_TOL one is a
    polish, and right after a failed FOLD_TOL one, the bracket's retry at a shrunk step."""
    taken = ["refused" if not started[-1] else "cold" if not calls[0][1] else "jumped"]
    after_jump = next((k for k in range(2, len(calls))
                       if calls[k][0] == oracle.NEWTON_TOL and calls[k - 1] != ("cubic", 1.0)), None)
    if taken == ["jumped"] and after_jump is not None:
        taken.append("continued: failed corrector" if not calls[after_jump - 1][1] else "continued: |g| rose")
    pairs = list(zip(calls, calls[1:]))
    if any(a == (oracle.NEWTON_TOL, True) and b[0] == oracle.FOLD_TOL for a, b in pairs):
        taken.append("polish")
    if any(a == (oracle.FOLD_TOL, False) and b[0] == oracle.FOLD_TOL for a, b in pairs):
        taken.append("shrink")
    return taken


def report_gaps(gaps: list[float], label: str) -> None:
    print(f"Answers against a tol=1e-13 run on {label}: largest gap below it {max(gaps):.2e} "
          f"(in units of min(1, lambda)), {sum(g < 0 for g in gaps)} above it")


def report_paths(paths: list[list[str]], label: str) -> None:
    def n(path):
        return sum(path in taken for taken in paths)

    rose, failed = n("continued: |g| rose"), n("continued: failed corrector")
    print(f"Fallbacks on {label}: refused series start {n('refused')}, failed start corrector (cold start) "
          f"{n('cold')}, continuation after the jump {rose + failed} ({rose} as |g| stopped falling, {failed} "
          f"after a failed corrector), polish {n('polish')}, bracket shrink {n('shrink')}")


def main() -> None:
    oracle._NewtonKernel.factor, oracle._series_start, oracle._NewtonKernel.correct = counted, watched, recorded
    oracle._cubic_fold = fitted

    nets = {}
    for name in BUNDLED:
        case = load_case_file(ROOT / "data" / f"{name}.m")
        nets[name] = (case, *limits.prepare(case))
    per_case, jumped, cubic, polished = {}, 0, 0, 0
    for name, (case, red, S) in nets.items():
        per_case[name] = factorizations(case, S, network=red)[0]
        jumped += calls[:2] == [(math.sqrt(oracle.NEWTON_TOL), True), (oracle.NEWTON_TOL, True)]
        cubic += ("cubic", 1.0) in calls
        polished += calls[-2:] == [(oracle.NEWTON_TOL, True), (oracle.FOLD_TOL, True)]
    print("Oracle factorizations per limit: %.1f" % (sum(per_case.values()) / len(per_case)), per_case)
    print("Series starts: %d of %d base directions" % (sum(started), len(started)))
    print("Jumps toward the series nose: %d of %d base directions" % (jumped, len(per_case)))
    print("Cubic steps after the jump: %d of %d base directions" % (cubic, len(per_case)))
    print("Limits ending with a polishing corrector: %d of %d base directions" % (polished, len(per_case)))

    swept, paths, gaps = [], [], []
    pairs = [(2.0 * math.pi * k / 36,) * 2 for k in range(36)]
    for case, red, S in nets.values():
        _, directions, _ = limits.direction_sweep(red, S, *limits.default_sweep_buses(red, S), pairs)
        for d in [S] + directions:
            n, lam = factorizations(case, d, network=red)
            swept.append(n)
            paths.append(fallbacks())
            gaps.append(gap(case, d, lam, network=red))
    print("Factorizations per limit on the base and 36-point sweep directions: %.2f over %d limits"
          % (sum(swept) / len(swept), len(swept)))
    report_paths(paths, "the base and 36-point sweep directions")
    report_gaps(gaps, "the base and 36-point sweep directions")

    workload = OracleLimits(ROOT, smoke=False)
    workload.setup(seed=0)
    bench, paths, gaps = [], [], []
    for name, _, d in workload.inputs:
        case = workload.nets[name][0]
        n, lam = factorizations(case, d, bracket=(1e-3, None))
        bench.append(n)
        paths.append(fallbacks())
        gaps.append(gap(case, d, lam, bracket=(1e-3, None)))
    print("Factorizations per limit on the oracle_limits inputs: %.3f over %d limits"
          % (sum(bench) / len(bench), len(bench)))
    report_paths(paths, "the oracle_limits inputs")
    report_gaps(gaps, "the oracle_limits inputs")


if __name__ == "__main__":
    main()
