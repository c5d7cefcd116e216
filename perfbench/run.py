"""rigidkit benchmark: one workload, its end-to-end or per-layer figures.

    python3 perfbench/run.py --workload presentation|tables|normalform \\
        --seed N --seconds S --trace 0|1

Run from the repository root; rigidkit is imported from ``src``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics instead.  The
exit code is nonzero when any output fails its check.  NOTES.md gives the
reasons for each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("presentation", "tables", "normalform")
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline: float, echo: bool = True) -> tuple:
    """Run a child to completion within the deadline; (stdout, stderr, spawn time).
    The child's stderr is passed on when `echo` is set."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv[:3])} did not finish in time") from None
    if echo or proc.returncode != 0:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited with code {proc.returncode}")
    return out, err, spawned


def setup_seconds(args, deadline: float) -> float:
    """Fresh interpreter to ready: import rigidkit and warm the workload's caches."""
    times = []
    for _ in range(SETUP_PROBES):
        out, _, spawned = run_child([str(WORKER), "--workload", args.workload,
                                     "--seed", str(args.seed), "--setup-only"], deadline)
        word, _, stamp = out.strip().partition(" ")
        if word != "ready":
            raise BenchError(f"setup probe printed {out!r}")
        times.append(float(stamp) - spawned)
    return statistics.median(times)


def import_seconds(deadline: float) -> dict:
    """Cumulative import times from `python -X importtime -c 'import rigidkit.cli'`."""
    _, err, _ = run_child(["-X", "importtime", "-c", "import rigidkit.cli"], deadline, echo=False)
    cumulative = {}
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"setup.import_rigidkit_s": cumulative.get("rigidkit"),
            "setup.import_scipy_optimize_s": cumulative.get("scipy.optimize"),
            "setup.import_rigidkit_cli_s": cumulative.get("rigidkit.cli")}


def per_layer_units() -> dict:
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    units.update({"numpy.matmul8_us": "us", "numpy.inv8_us": "us", "relations.rng_for_us": "us",
                  "setup.import_rigidkit_s": "s", "setup.import_scipy_optimize_s": "s",
                  "setup.import_rigidkit_cli_s": "s", "trace.overhead_ratio": "ratio"})
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rigidkit" / "__init__.py").is_file():
        print(f"perfbench: no rigidkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = None if args.trace else setup_seconds(args, deadline)
        out, _, _ = run_child([str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              deadline)
        res = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            layer = dict(res["trace"], **import_seconds(deadline))
    except (BenchError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"fail_ratio {res['failed'] / res['attempted']:.3g} ({res['failed']}/{res['attempted']}), "
          f"op_p99_ms is p{res['op_tail_pct']:g} of {res['latency_samples']} calls",
          file=sys.stderr)
    if args.trace:
        units = per_layer_units()
        for name in res["absent"]:
            print(f"perfbench: trace target {name} is absent", file=sys.stderr)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layer.items() if value is not None}
    else:
        values = {"ops_per_s": res["ops_per_s"], "op_p50_ms": res["op_p50_ms"],
                  "op_p99_ms": res["op_tail_ms"], "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] and res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
