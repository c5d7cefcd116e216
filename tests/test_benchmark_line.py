"""The benchmark's result line stays well formed.

A short ``tables`` run of the command BENCHMARK.json declares must exit 0 and
end with one strict JSON line (no NaN or Infinity) that carries every metric
BENCHMARK.json lists for its mode, each with a finite value.  The test only
reads ``perfbench/`` and BENCHMARK.json.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("trace,listed", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_every_listed_metric(trace, listed):
    command = [sys.executable, *BENCHMARK["command"][1:], "--workload", "tables",
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for entry in BENCHMARK[listed]:
        assert entry["name"] in metrics, entry["name"]
        value = metrics[entry["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), entry["name"]
        assert math.isfinite(value), entry["name"]
