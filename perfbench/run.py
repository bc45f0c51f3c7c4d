#!/usr/bin/env python3
"""pfcert benchmark: one workload per run, closed loop with one client.

usage (from the root of a pfcert checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so every machine runs the same
# thread count; on two shared vCPUs a second thread only sped up the large
# mat-vecs of scale_tiled, and competes with everything else on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 25, 0.5
TAIL_MIN_INPUTS = 1000  # inputs per round for latency_p99_ms to be a 99th percentile
REF_BURST = 5  # reference-kernel calls per calibration burst
# Speed calibrated times are scaled to: each reference kernel's typical time,
# in seconds, on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, one BLAS thread).
REF_SECONDS = {"interpreter": 0.35e-3, "mixed": 0.55e-3}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_ops_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Calibration:
    """Bursts of a fixed reference kernel; an operation's speed factor comes from the two around it.

    The "interpreter" kernel does small complex numpy mat-vecs and a Python
    loop, like the Newton and limit code; "mixed" adds one vectorized pass
    over a 64 x 256 complex array, like the boundary sampling in
    estimate_contraction that sets certify_bundled's tail. With kind None
    every factor is 1 and times are reported as measured.
    """

    def __init__(self, np, kind: str | None):
        rng = np.random.default_rng(0)
        self.np = np
        self.kind = kind
        self.A = 0.01 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
        self.b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        self.theta = np.exp(2j * np.pi * np.arange(256) / 256)
        self.c = 0.01 * np.tile(self.b, 2)[:64]
        self.bursts: list[list[float]] = []

    def kernel(self) -> float:
        np = self.np
        x = np.ones(len(self.b), dtype=complex)
        for _ in range(30):
            x = 1.0 + self.A @ (self.b.conj() / x.conj())
        acc = 0.0
        for k in range(2000):
            acc += k * 0.5
        if self.kind == "mixed":
            boundary = 1.5 + self.c[:, None] * self.theta[None, :]
            acc += float((np.abs(boundary - 1.0) / np.abs(boundary)).max())
        return float(np.abs(x).max()) + acc

    def burst(self) -> int:
        times = []
        for _ in range(REF_BURST if self.kind else 0):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.bursts.append(times)
        return len(self.bursts) - 1

    def factor(self, before: int) -> float:
        """Reference time over the one measured around an interval that follows burst `before`."""
        if not self.kind:
            return 1.0
        return REF_SECONDS[self.kind] / statistics.median(self.bursts[before] + self.bursts[before + 1])


class Phase:
    """Operations of one measured phase: per record (input, round, seconds, burst before it)."""

    def __init__(self):
        self.records: list[tuple[int, int, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.wall = 0.0

    def ms(self, cal: Calibration) -> list[float]:
        return [1e3 * t * cal.factor(b) for _, _, t, b in self.records]

    def per_input_ms(self, cal: Calibration, best_of: bool = False) -> dict[int, float]:
        """Each input's median (or, best_of, minimum) time over its repeats."""
        by_input: dict[int, list[float]] = {}
        for (j, *_), t in zip(self.records, self.ms(cal)):
            by_input.setdefault(j, []).append(t)
        pick = min if best_of else statistics.median
        return {j: pick(v) for j, v in by_input.items()}


def measure(wl, cal, seconds: float, seed: int, tracer=None) -> Phase:
    """Whole rounds over wl.inputs until the next round would end after `seconds`."""
    from workloads import rng_for

    ph = Phase()
    start = perf_counter()
    before = cal.burst()
    r = 0
    while True:
        round_start = perf_counter()
        for j in range(len(wl.inputs)):
            x = wl.prepare(j, rng_for(seed, "run", r, j))
            if tracer is not None:
                tracer.op = len(ph.records)
            out = None
            t0 = perf_counter()
            try:
                out = wl.run(x)
            except Exception:  # the program failed this operation; count it and go on
                print(f"# {wl.name} op {len(ph.records)} raised:\n{traceback.format_exc()}", file=sys.stderr)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.op = -1
            ph.attempted += 1
            if out is None:
                ph.failed += 1
            else:
                try:
                    wl.check(x, out)
                except Exception:  # a violated property, or an artifact that does not parse
                    ph.failed += 1
                    ph.wrong += 1
                    print(f"# {wl.name} op {len(ph.records)} check failed:\n{traceback.format_exc()}", file=sys.stderr)
            del x, out
            ph.records.append((j, r, elapsed, before))
            if len(ph.records) % wl.ref_every == 0 or j == len(wl.inputs) - 1:
                before = cal.burst()
        r += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    ph.wall = perf_counter() - start
    return ph


def timed_setup(wl, cal, seed: int) -> float:
    before = cal.burst()
    t0 = perf_counter()
    wl.setup(seed)
    elapsed = perf_counter() - t0
    cal.burst()
    return elapsed * cal.factor(before)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def end_to_end(wl, cal, seed: int, seconds: float) -> tuple[Phase, dict]:
    np = cal.np
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        setups.append(timed_setup(wl, cal, seed))
    ph = measure(wl, cal, seconds, seed)
    per_input = list(ph.per_input_ms(cal, wl.best_of).values())
    # a round of fewer inputs has no tail of ten samples beyond a 99th percentile: report the median
    tail = 99 if len(per_input) >= TAIL_MIN_INPUTS else 50
    raw = [t for _, _, t, _ in ph.records]
    values = {
        "latency_p50_ms": statistics.median(per_input),
        "latency_p99_ms": float(np.percentile(per_input, tail)),
        "throughput_ops_s": 1e3 * len(per_input) / sum(per_input),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    print(f"# {wl.name}: {len(ph.records)} ops in {ph.wall:.2f} s over {len(wl.inputs)} inputs; "
          f"measured median {1e3 * statistics.median(raw):.4f} ms, {len(raw) / ph.wall:.3f} ops/s of wall time; "
          f"speed factor median {statistics.median(cal.factor(b) for *_, b in ph.records):.4f}; "
          f"{len(setups)} set-ups; BLAS threads {BLAS_THREADS}")
    return ph, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced(wl, cal, seed: int, seconds: float) -> tuple[list[Phase], dict]:
    """Half the run untraced, half traced; per-layer metrics and the tracing overhead."""
    from layers import layer_metrics
    from tracer import Tracer

    wl.setup(seed)
    plain = measure(wl, cal, seconds / 2, seed)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    else:
        wl.tracer = tracer
    try:
        setup_before = cal.burst()
        wl.setup(seed)
        cal.burst()
        tr = measure(wl, cal, seconds / 2, seed, tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer.spans, tr, plain, cal, setup_before, wl.best_of)
    print(f"# {wl.name}: {len(tracer.spans)} spans; untraced {len(plain.records)} ops, traced {len(tr.records)} ops")
    return [plain, tr], metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, smoke)
    cal = Calibration(np, wl.reference)
    if trace:
        phases, metrics = traced(wl, cal, seed, seconds)
    else:
        ph, metrics = end_to_end(wl, cal, seed, seconds)
        phases = [ph]
    return {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload (or --workload) at a tiny size, traced and not")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pfcert" / "__init__.py").is_file() or not (ROOT / "data" / "case9.m").is_file():
        print("perfbench: run from the root of a pfcert checkout (src/pfcert and data/ not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        ok = True
        for name in names:
            for trace in (False, True):
                result = run_one(name, args.seed, 0.0, trace, smoke=True)
                good = result["correct"] and result["failed"] == 0
                ok = ok and good
                print(f"# smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
                print(json.dumps(result))
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
