"""Run the benchmark on two checkouts in alternating pairs and write one JSON summary.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json

Each workload gets PAIRS = 10 pairs, the fewest that can support a claimed
gain.  Pair i runs each tree's own
``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once, with S
the run length BENCHMARK.json sets, one process at a time; the side that runs
first alternates from pair to pair (parent first in pair 1), and every
workload gets its pair i before any gets pair i+1, so a drift of the host
spreads over all of them.  The output holds every run's end-to-end metrics,
and per workload and metric each side's median and quartiles, the change's
gain in the median (positive is better) and its wins over the pairs, with the
machine facts: nproc, CPU, Python, numpy, scipy, the OpenBLAS core and
numpy's SIMD extensions (those ``np.show_runtime()`` lists).  The workloads,
the metrics, the direction in which each is better and the run length come
from BENCHMARK.json beside this script.

The first CRITERIA_PAIRS pairs also time acceptance criteria 2, 4 and 6 (the
relation suites, the commutator tables and the staircase round-trips): after
the workloads of pair i, each tree runs ``python -m pytest --durations=0`` on
the three criterion tests,
in the pair's order, and the call durations pytest reports are summarized
like a metric (lower is better).  In the first pair each tree also runs the
whole Tier-1 command once, after its criteria; its wall time is the metric
``tier1_s`` beside them, with pytest's passed and failed counts.  The file is
rewritten after every run, so a stopped run leaves the pairs it finished.
No bytecode or pytest cache is written under either tree; the Tier-1 run may
leave the git-ignored ``.hypothesis/`` and ``.benchmarks/`` folders that its
test plugins create.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
CRITERIA_PAIRS = 3
# acceptance criteria timed on both sides: metric name -> test
CRITERIA = {"criterion_2_s": "tests/test_acceptance.py::test_criterion_2_presentation_suites",
            "criterion_4_s": "tests/test_acceptance.py::test_criterion_4_commutator_tables",
            "criterion_6_s": "tests/test_acceptance.py::test_criterion_6_staircase_roundtrip"}
CRITERIA_METRICS = [{"name": name, "better": "lower", "bound": None} for name in CRITERIA]
# the Tier-1 command, timed once per side in the first pair
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIER1_METRIC = {"name": "tier1_s", "better": "lower", "bound": None}

# run in a child with the interpreter and environment the benchmark runs get
MACHINE_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
core = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename"):
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_char_p
            core = getattr(lib, name)().decode()
            break
cpu = None
if os.path.exists("/proc/cpuinfo"):
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
    "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas_core": core,
    "simd_baseline": list(umath.__cpu_baseline__),
    "simd_found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]],
    "env": {k: os.environ[k] for k in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
            if k in os.environ}}))
"""


def machine_facts() -> dict:
    out = subprocess.run([sys.executable, "-c", MACHINE_PROBE], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the tree's src/**/*.py, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_run(code: int, stdout: str, stderr: str) -> dict:
    """One run's record from its exit code and output: the result line's fields, the
    metric values by name, and run.py's summary line.  A run with no result line
    keeps its exit code and stderr tail only."""
    summary = [line for line in stderr.splitlines() if line.startswith("perfbench: ")]
    rec = {"exit": code, "stderr_line": summary[-1] if summary else stderr[-500:]}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return rec
    rec.update({key: result.get(key) for key in ("correct", "attempted", "failed")})
    rec["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return rec


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles over the pairs where both sides
    produced it, the change's gain in the median (relative to the parent's, signed
    so that positive is better), its wins and the ties.  ``pairs`` are records
    {"parent": run, "change": run}; ``metrics`` are BENCHMARK.json's end_to_end
    entries (name, better, bound)."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if all(name in p[side].get("metrics", {}) for side in SIDES)]
        if not both:
            out[name] = {"pairs": 0}
            continue
        parent = _quartiles([a for a, _ in both])
        change = _quartiles([b for _, b in both])
        out[name] = {
            "better": metric["better"], "bound": metric["bound"], "pairs": len(both),
            "parent": parent, "change": change,
            "gain": sign * (change["median"] - parent["median"]) / abs(parent["median"])
            if parent["median"] else None,
            "change_wins": sum(sign * (b - a) > 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
            "beyond_parent_iqr": sign * (change["median"] - parent["median"])
            > parent["q3"] - parent["q1"],
        }
    return out


def failed_runs(pairs: list) -> dict:
    """Per side, the runs that exited nonzero or failed an output check."""
    return {side: sum(p[side]["exit"] != 0 or p[side].get("failed") != 0 for p in pairs)
            for side in SIDES}


def parse_criteria(code: int, stdout: str) -> dict:
    """One criteria run's record from pytest's exit code and output: the call
    duration of each test in CRITERIA (a test pytest did not time is left
    out) and the number of failed tests."""
    calls = {test: float(sec) for sec, test in
             re.findall(r"^\s*([0-9.]+)s call\s+(\S+)\s*$", stdout, re.M)}
    return {"exit": code, "failed": len(re.findall(r"^FAILED ", stdout, re.M)),
            "metrics": {name: calls[test] for name, test in CRITERIA.items() if test in calls}}


def parse_tier1(code: int, stdout: str, seconds: float) -> dict:
    """One Tier-1 run's record: the exit code, the passed and failed counts of
    pytest's last line (errors count as failed) and the wall time as tier1_s."""
    lines = stdout.strip().splitlines()
    counts = {}
    for n, word in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        key = "passed" if word == "passed" else "failed"
        counts[key] = counts.get(key, 0) + int(n)
    return {"exit": code, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "metrics": {TIER1_METRIC["name"]: seconds}}


def _python(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)


def run_criteria(tree: Path) -> dict:
    proc = _python(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
                   *CRITERIA.values())
    return parse_criteria(proc.returncode, proc.stdout)


def run_tier1(tree: Path) -> dict:
    start = time.monotonic()
    proc = _python(tree, *TIER1)
    return parse_tier1(proc.returncode, proc.stdout, time.monotonic() - start)


def run_one(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout, proc.stderr)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no perfbench/run.py")

    doc = {"machine": machine_facts(),
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                      "--trace 0",
           "order": "pair i runs seed i on both sides, parent first in odd pairs and change "
                    "first in even ones; every workload gets pair i before any gets pair i+1",
           "src_sha256": {side: src_digest(tree) for side, tree in trees.items()},
           "workloads": {w: {"pairs": []} for w in workloads},
           "criteria": {"command": "python -m pytest -q -p no:cacheprovider --durations=0 "
                                   + " ".join(CRITERIA.values()),
                        "tier1_command": "python " + " ".join(TIER1), "pairs": []}}
    for i in range(1, PAIRS + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": i, "first": order[0]}
            for side in order:
                pair[side] = run_one(trees[side], workload, i, seconds)
                print(f"bench_pairs: {workload} pair {i} {side}: {pair[side]['stderr_line']}",
                      file=sys.stderr)
            entry = doc["workloads"][workload]
            entry["pairs"].append(pair)
            entry["failed_runs"] = failed_runs(entry["pairs"])
            entry["summary"] = summarize(entry["pairs"], benchmark["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
        if i <= CRITERIA_PAIRS:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_criteria(trees[side])
                if i == 1:
                    tier1 = run_tier1(trees[side])
                    pair[side]["metrics"].update(tier1.pop("metrics"))
                    pair[side]["tier1"] = tier1
                print(f"bench_pairs: criteria pair {i} {side}: {pair[side]}", file=sys.stderr)
            entry = doc["criteria"]
            entry["pairs"].append(pair)
            entry["failed_runs"] = failed_runs(entry["pairs"])
            entry["summary"] = summarize(entry["pairs"], CRITERIA_METRICS + [TIER1_METRIC])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
