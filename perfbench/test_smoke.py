"""The benchmark's own test: every workload at a tiny size, untraced and traced, all checks on.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_runs_every_workload_correctly():
    from layers import PER_LAYER

    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 8
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(results[0]["metrics"]) == {"latency_p50_ms", "latency_p99_ms", "throughput_ops_s", "setup_s",
                                          "peak_rss_mb"}
    assert set(results[1]["metrics"]) == set(PER_LAYER)
