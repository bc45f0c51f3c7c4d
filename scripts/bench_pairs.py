"""Run the benchmark in alternating parent/change pairs and write BENCH_<label>.json.

The change is this checkout's working tree. The parent is a git revision, exported
with `git archive REV | tar -x` into a temporary directory that is deleted afterwards.
For each workload BENCHMARK.json gates and each seed, one pair runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

in the root of each checkout, the parent first on odd seeds, where S is BENCHMARK.json's
run_seconds. For each end-to-end metric the file holds each side's runs, median and
quartiles (statistics.quantiles, inclusive), the change's median relative to the
parent's, the pairs the change won (ties count for neither) and whether the change is
worse by no more than the metric's bound. A run whose last line
is not correct, or counts a failed operation, stops the script with exit code 1 before
any file is written.

    python3 scripts/bench_pairs.py --label candidate --parent HEAD --seeds 41 42 43 44 45 46
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


class RunFailed(Exception):
    """A benchmark run that did not finish with every operation correct."""


def last_line(stdout: str, where: str) -> dict:
    """The result a run prints as its last line, refused unless it is correct with no failed operation."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{where}: no result line")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{where}: correct={result.get('correct')}, failed={result.get('failed')}")
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def workload_summary(spec: dict, seeds: list[int], results: dict[str, list[dict]]) -> dict:
    """One workload's entry of the BENCH file from each side's last lines, in seed order."""
    out = {
        "seeds": seeds,
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent, change = ([r["metrics"][name]["value"] for r in results[side]] for side in SIDES)
        relative = statistics.median(change) / statistics.median(parent) - 1
        sign = 1 if better == "lower" else -1  # positive when the change is worse
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": better,
            "bound": bound,
            "parent": summary(parent),
            "change": summary(change),
            "relative_change": relative,
            "pairs_won_by_change": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "within_bound": sign * relative <= bound,
        }
    return out


def run(checkout: Path, command: list[str], where: str) -> dict:
    print(f"# {where}", file=sys.stderr, flush=True)
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return last_line(proc.stdout, where)


def machine() -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "cpu": cpu,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(blas) if blas and blas.isdigit() else "default",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root of this checkout")
    p.add_argument("--parent", required=True, help="the git revision to compare this working tree with")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed and workload")
    p.add_argument("--claim", default="none", help="the gain claimed, as text for the file")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        checkouts = {"parent": Path(tmp), "change": ROOT}
        try:
            for workload in (w["name"] for w in spec["workloads"]):
                results = {side: [] for side in SIDES}
                for seed in args.seeds:
                    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                               "--seconds", f"{seconds:g}", "--trace", "0"]
                    for side in SIDES if seed % 2 else SIDES[::-1]:
                        results[side].append(run(checkouts[side], command, f"{workload} seed {seed} {side}"))
                workloads[workload] = workload_summary(spec, args.seeds, results)
        except RunFailed as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1

    bench = {
        "label": args.label,
        "parent": parent_rev,
        "claim": args.claim,
        "command": " ".join(spec["command"]) + f" --workload W --seed N --seconds {seconds:g} --trace 0",
        "pairing": "parent first on odd seeds, change first on even seeds",
        "machine": machine(),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
