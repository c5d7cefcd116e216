"""Negative controls for the benchmark's own checks, and tracer hygiene.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  Each gate must reject
a result with one corrupted field, and the traced run must leave no wrapper
behind, so untraced figures never include tracing cost.
"""

import copy
import itertools

import numpy as np

import tracing
import workloads
from rigidkit import lyapunov, relations, words
from rigidkit.lyapunov import CycleSpec
from rigidkit.matrixcore import GroupSpec
from rigidkit.rootsystem import RootLabel, roots

SO43 = GroupSpec("so", 4, 3)


def _presentation_round():
    wl = workloads.Presentation(5)
    calls = []
    for spec in (GroupSpec("so", 3, 3), SO43):
        result = relations.verify_all(spec, samples=2, seed=5)
        calls.append((1, sum(e.get("samples", 0) for e in result["suites"]), result))
    wl.reference = wl.round_digest([rec for _, _, rec in calls])
    return wl, calls


def test_presentation_gate_rejects_flipped_pass():
    wl, calls = _presentation_round()
    ops, failed, problems = wl.check(0, calls)
    assert failed == 0 and not problems and ops > 0
    bad = copy.deepcopy(calls)
    next(e for e in bad[1][2]["suites"] if "samples" in e)["pass"] = False
    _, failed, problems = wl.check(0, bad)
    assert failed == ops and problems


def test_presentation_gate_rejects_large_residual():
    wl, calls = _presentation_round()
    bad = copy.deepcopy(calls)
    entry = next(e for e in bad[0][2]["suites"] if "samples" in e)
    entry["max_residual"] = float("nan")
    _, failed, problems = wl.check(0, bad)
    assert failed == entry["samples"] and problems


def _tables_round():
    wl = workloads.Tables(3)
    labels = [info.label for info in roots(SO43)][:6]
    wl.pairs = [(SO43, r, p, f"t:{r}:{p}", workloads.table_is_empty(SO43, r.coeffs, p.coeffs))
                for r, p in itertools.product(labels, labels)
                if not workloads.opposite_directions(r.coeffs, p.coeffs)]
    calls = wl.round(0)
    wl.reference = wl.round_digest([rec for _, _, rec in calls])
    return wl, calls


def test_tables_gate_rejects_swapped_term_root():
    wl, calls = _tables_round()
    ops, failed, problems = wl.check(0, calls)
    assert ops == len(wl.pairs) and failed == 0 and not problems
    j = next(j for j, (_, _, rec) in enumerate(calls) if len(rec[0]) == 1)
    other = next(rec[0][0] for _, _, rec in calls if rec[0] and rec[0][0] != calls[j][2][0][0])
    bad = list(calls)
    bad[j] = (bad[j][0], 1, ([other], bad[j][2][1]))
    _, failed, problems = wl.check(0, bad)
    assert failed == ops and problems


def test_tables_gate_rejects_wrong_emptiness_and_residual():
    wl, calls = _tables_round()
    j = next(j for j, (_, _, rec) in enumerate(calls) if rec[0])
    bad = list(calls)
    bad[j] = (bad[j][0], 1, ([], bad[j][2][1]))
    assert wl.check(0, bad)[1] > 0
    bad = list(calls)
    bad[j] = (bad[j][0], 1, (bad[j][2][0], 1e-3))
    assert wl.check(0, bad)[1] == 1


def test_normalform_gate_rejects_wrong_verdict_and_roundtrip():
    spec = GroupSpec("so", 5, 3)
    chambers = workloads.signed_permutations(spec.n)
    anti = CycleSpec((RootLabel((1, -1, 0)), RootLabel((-1, 1, 0))))
    assert workloads.cycle_feasible_exact(chambers, [r.coeffs for r in anti.roots]) is False
    wl = workloads.NormalForm(0)
    B = workloads.haar_block(np.random.default_rng(1), "so", 2)
    wl.ops = [("cyc", spec, anti, False), ("rt", spec, B)]
    calls = wl.round(0)
    assert wl.check(0, calls)[1] == 0
    lying = [calls[0][:2] + ((np.zeros(3), (0, 0, 0)),), calls[1]]
    assert wl.check(0, lying)[1] == 1
    lengths, M = calls[1][2]
    assert wl.check(0, [calls[0], calls[1][:2] + ((lengths, -M),)])[1] == 1


def test_exact_cycle_test_agrees_with_lp_on_random_cycles():
    rng = np.random.default_rng(4)
    for spec in workloads.CYCLE_POOL:
        chambers = workloads.signed_permutations(spec.n)
        labels = [info.label for info in roots(spec)]
        for _ in range(10):
            cyc = CycleSpec(tuple(labels[int(rng.integers(len(labels)))]
                                  for _ in range(int(rng.integers(1, 7)))))
            lp = lyapunov.stable_cycle_feasible(spec, cyc) is not None
            assert lp == workloads.cycle_feasible_exact(chambers, [r.coeffs for r in cyc.roots])


def test_tracer_counts_then_leaves_no_wrapper():
    originals = {(mod, attr): getattr(__import__(mod, fromlist=[attr]), attr)
                 for _, mod, attr in tracing.TARGETS}
    spec = GroupSpec("so", 5, 3)
    B = workloads.haar_block(np.random.default_rng(2), "so", 2)
    tracer = tracing.Tracer()
    with tracer:
        assert relations.x_elem is not originals[("rigidkit.generators", "x_elem")]
        relations.verify_all(SO43, samples=1, seed=0)
        words.reconstruct(spec, words.staircase_decompose(spec, B))
    assert tracing.leftover_wrappers() == []
    for (mod, attr), fn in originals.items():
        assert getattr(__import__(mod, fromlist=[attr]), attr) is fn
    assert relations.x_elem is originals[("rigidkit.generators", "x_elem")]
    m = tracer.metrics()
    assert tracer.absent == []
    assert {name for name, _, _ in tracing.metric_names()} == set(m)
    assert m["relations.run_suite.calls"] == sum(
        relations.suite_side_condition(SO43, s) is None for s in relations.suite_ids())
    assert m["generators.h_rot.calls"] > 0 and m["numpy.inv.calls"] > 0
    assert m["words.reconstruct.calls"] == 1 and m["relations.run_suite.s.additivity"] > 0
