"""scripts/bench_pairs.py's aggregation, on canned last lines of perfbench/run.py: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _stdout(attempted: int, metrics: dict[str, float], failed: int = 0, correct: bool = True) -> str:
    """A run's standard output: its notes, then its result as the last line."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}
    return f"# notes of the run\n{json.dumps(result)}\n"


def _results(runs: dict[str, dict[str, list[float]]], attempted: dict[str, list[int]]) -> dict[str, list[dict]]:
    return {
        side: [bench_pairs.last_line(_stdout(a, {m: values[k] for m, values in runs[side].items()}), side)
               for k, a in enumerate(attempted[side])]
        for side in bench_pairs.SIDES
    }


def test_pairs_are_summed_up_per_metric():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == ["latency_p50_ms", "latency_p99_ms", "throughput_ops_s", "setup_s", "peak_rss_mb"]
    parent = [[10.0, 12.0, 11.0], [20.0, 20.0, 20.0], [100.0, 100.0, 100.0], [1.0, 1.0, 1.0], [50.0, 51.0, 52.0]]
    change = [[9.0, 13.0, 10.0], [30.0, 30.0, 30.0], [100.0, 120.0, 60.0], [1.25, 1.25, 1.25], [50.0, 56.0, 57.0]]
    runs = {"parent": dict(zip(names, parent)), "change": dict(zip(names, change))}
    got = bench_pairs.workload_summary(BENCHMARK, [3, 4, 5], _results(runs, {"parent": [7, 8, 9], "change": [7, 8, 6]}))
    assert got["seeds"] == [3, 4, 5]
    assert got["attempted"] == {"parent": [7, 8, 9], "change": [7, 8, 6]}
    assert got["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    p50 = got["metrics"]["latency_p50_ms"]
    assert (p50["unit"], p50["better"], p50["bound"]) == ("ms", "lower", 0.25)
    assert p50["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "runs": [10.0, 12.0, 11.0]}
    assert p50["change"] == {"median": 10.0, "q1": 9.5, "q3": 11.5, "runs": [9.0, 13.0, 10.0]}
    # (relative change, pairs won, within bound); ties win no pair, and a bound is met exactly at its edge
    want = {"latency_p50_ms": (-1 / 11, 2, True), "latency_p99_ms": (0.5, 0, False),
            "throughput_ops_s": (0.0, 1, True), "setup_s": (0.25, 0, True), "peak_rss_mb": (5 / 51, 0, True)}
    for name, (relative, won, within) in want.items():
        metric = got["metrics"][name]
        assert metric["relative_change"] == pytest.approx(relative, abs=1e-15)
        assert (metric["pairs_won_by_change"], metric["within_bound"]) == (won, within), name


def test_bench_pr26_is_rebuilt_from_its_runs():
    """The runs BENCH_pr26.json holds, as last lines, give back its workloads' entries."""
    bench = json.loads((ROOT / "BENCH_pr26.json").read_text())
    for name, want in bench["workloads"].items():
        runs = {side: {m: v[side]["runs"] for m, v in want["metrics"].items()} for side in bench_pairs.SIDES}
        got = bench_pairs.workload_summary(BENCHMARK, want["seeds"], _results(runs, want["attempted"]))
        for metric in want["metrics"].values():  # its quartiles were rounded otherwise in the last bit
            for side in bench_pairs.SIDES:
                for q in ("q1", "q3"):
                    metric[side][q] = pytest.approx(metric[side][q], rel=1e-15)
        assert got == want


@pytest.mark.parametrize("stdout, message", [
    ("", "no result line"),
    ("# notes only\n{not json\n", "no result line"),
    (_stdout(10, {}, failed=1), "correct=True, failed=1"),
    (_stdout(10, {}, correct=False), "correct=False, failed=0"),
], ids=["empty", "not JSON", "failed operation", "incorrect"])
def test_a_run_that_is_not_all_correct_is_refused(stdout, message):
    with pytest.raises(bench_pairs.RunFailed, match=f"^oracle_limits seed 3 parent: {message}$"):
        bench_pairs.last_line(stdout, "oracle_limits seed 3 parent")
