"""One benchmark process: set up, run one workload, check it, report.

Started by run.py with PYTHONPATH pointing at the repository's ``src`` and
BLAS pinned to one thread.  Prints ``ready <monotonic time>`` once rigidkit
is imported and the workload's caches are warm, then (unless
``--setup-only``) one JSON line with the run's figures.  ``--write-reference``
regenerates reference.json from the code as it stands.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import timeit

import numpy as np

import tracing
import workloads


def timed_rounds(wl, seconds: float, max_rounds: int = 0):
    """Whole rounds from index 0 until `seconds` of round time have passed
    (at least one), or exactly `max_rounds` rounds when given.  Each round
    is checked as soon as it is timed and its outputs are dropped, so they
    neither cost time nor hold memory.

    Rounds take turns on the CPUs this process may use.  On a shared host
    one core can run at two thirds of the other's speed for minutes; a
    process left where the scheduler put it would time only that core."""
    rounds = []   # (call latencies in ns, ops per call, failed, problems)
    busy = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while (len(rounds) < max_rounds) if max_rounds else (not rounds or busy < seconds):
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            t0 = time.perf_counter()
            calls = wl.round(len(rounds))
            busy += time.perf_counter() - t0
            _, failed, problems = wl.check(len(rounds), calls)
            rounds.append(([ns for ns, _, _ in calls], [n for _, n, _ in calls], failed, problems))
    finally:
        os.sched_setaffinity(0, cpus)
    return rounds


def best_of_rounds(rounds):
    """Each call's best latency in seconds over the rounds, and its op count.

    Call j of every round is the same operation (same inputs, or inputs
    drawn the same way), so its minimum over k rounds is a min-of-k
    timing.  On a shared host the speed of a fixed loop swings by a factor
    of up to 1.7 within seconds; the minimum is what stays put from run to
    run (NOTES.md)."""
    best = np.min(np.array([lat for lat, _, _, _ in rounds]), axis=0) / 1e9
    return best, np.array(rounds[0][1])


def rate(rounds) -> float:
    """Operations per second of a round made of each call's best time."""
    best, ops = best_of_rounds(rounds)
    return float(ops.sum() / best.sum())


def min_of_k_us(fn, number: int, k: int = 7) -> float:
    return min(timeit.repeat(fn, number=number, repeat=k)) / number * 1e6


def primitive_timings(seed: int) -> dict:
    """ROADMAP layer L0: 8x8 complex matmul and inverse, and one rng_for."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    inv = np.linalg.inv
    rng_for = workloads.relations.rng_for
    return {
        "numpy.matmul8_us": min_of_k_us(lambda: A @ B, 20000),
        "numpy.inv8_us": min_of_k_us(lambda: inv(A), 5000),
        "relations.rng_for_us": min_of_k_us(lambda: rng_for(seed, "additivity", 7), 5000),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        print(json.dumps(workloads.write_reference()))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0
    wl.prepare()

    rounds = timed_rounds(wl, args.seconds)
    best_ms = best_of_rounds(rounds)[0] * 1e3
    q, tail = workloads.percentile_with_tail(best_ms)
    out = {"rounds": len(rounds), "ops_per_s": rate(rounds),
           "op_p50_ms": float(np.percentile(best_ms, 50)), "op_tail_ms": tail,
           "op_tail_pct": q, "latency_samples": len(best_ms)}
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = timed_rounds(wl, 0.0, max_rounds=wl.trace_rounds)
        left = tracing.leftover_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers left behind: {left}")
        out["trace"] = dict(tracer.metrics(), **primitive_timings(args.seed))
        # both sides min-of-k over the same k
        out["trace"]["trace.overhead_ratio"] = rate(traced) / rate(rounds[:len(traced)])
        out["absent"] = tracer.absent
        rounds += traced

    problems = [line for _, _, _, why in rounds for line in why]
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... and {len(problems) - 20} more", file=sys.stderr)
    out.update(
        attempted=sum(sum(r[1]) for r in rounds), failed=sum(r[2] for r in rounds),
        correct=not problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
