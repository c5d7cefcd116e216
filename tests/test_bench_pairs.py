"""The summary step of tools/bench_pairs.py, on canned result lines of perfbench/run.py."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def _run(ops, p50, failed=0):
    line = json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}})
    err = "warming up\nperfbench: normalform seed 1: 3 rounds, fail_ratio 0 (0/10)\n"
    return bench_pairs.parse_run(1 if failed else 0, "progress\n" + line + "\n", err)


def test_parse_run_reads_the_last_line_and_the_summary_line():
    rec = _run(100.0, 2.0)
    assert rec == {"exit": 0, "stderr_line": "perfbench: normalform seed 1: 3 rounds, "
                   "fail_ratio 0 (0/10)", "correct": True, "attempted": 10, "failed": 0,
                   "metrics": {"ops_per_s": 100.0, "op_p50_ms": 2.0}}
    broken = bench_pairs.parse_run(3, "", "perfbench: worker.py did not finish in time\n")
    assert broken == {"exit": 3, "stderr_line": "perfbench: worker.py did not finish in time"}


def test_summarize_medians_wins_and_ties():
    pairs = [{"parent": _run(100.0, 2.0), "change": _run(130.0, 1.0)},
             {"parent": _run(110.0, 2.0), "change": _run(120.0, 2.0)},
             {"parent": _run(120.0, 3.0), "change": _run(119.0, 4.0)},
             # a run without a result line drops its pair from every metric
             {"parent": _run(90.0, 1.0), "change": bench_pairs.parse_run(3, "", "")}]
    summary = bench_pairs.summarize(pairs, METRICS)
    ops = summary["ops_per_s"]
    assert ops["pairs"] == 3
    assert ops["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert ops["change"] == {"median": 120.0, "q1": 119.5, "q3": 125.0}
    assert ops["gain"] == pytest.approx(10.0 / 110.0)
    assert (ops["change_wins"], ops["ties"], ops["beyond_parent_iqr"]) == (2, 0, False)
    p50 = summary["op_p50_ms"]   # lower is better: the gain and the wins change sign
    assert p50["parent"]["median"] == p50["change"]["median"] == 2.0
    assert (p50["gain"], p50["change_wins"], p50["ties"]) == (0.0, 1, 1)
    assert bench_pairs.failed_runs(pairs) == {"parent": 0, "change": 1}


def test_summarize_a_single_pair_and_a_gain_beyond_the_spread():
    pairs = [{"parent": _run(100.0, 2.0), "change": _run(125.0, 1.5)}]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["ops_per_s"]["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert summary["ops_per_s"]["gain"] == pytest.approx(0.25)
    assert summary["op_p50_ms"]["gain"] == pytest.approx(0.25)
    assert summary["ops_per_s"]["beyond_parent_iqr"] and summary["op_p50_ms"]["beyond_parent_iqr"]
    assert bench_pairs.summarize([], METRICS) == {"ops_per_s": {"pairs": 0},
                                                  "op_p50_ms": {"pairs": 0}}


def _criteria_out(c2, c4, c6=4.0, failed=()):
    lines = ["ACCEPTANCE 2 (presentation suites): PASS  [worst residual 1.2e-13, 14.1s]",
             ".ACCEPTANCE 4 (commutator tables): PASS  [worst residual 6.0e-16]",
             ".ACCEPTANCE 6 (staircase normal form): PASS  [worst round-trip residual 1.1e-15]",
             "."]
    lines += [f"FAILED {test} - AssertionError" for test in failed]
    lines += ["=" * 30 + " slowest durations " + "=" * 30]
    if c4 is not None:
        lines.append(f"{c4:.2f}s call     {bench_pairs.CRITERIA['criterion_4_s']}")
    lines.append(f"{c2:.2f}s call     {bench_pairs.CRITERIA['criterion_2_s']}")
    if c6 is not None:
        lines.append(f"{c6:.2f}s call     {bench_pairs.CRITERIA['criterion_6_s']}")
    lines.append(f"0.01s setup    {bench_pairs.CRITERIA['criterion_2_s']}")
    out = "\n".join(lines) + "\n3 passed in 74.1s\n"
    return bench_pairs.parse_criteria(1 if failed else 0, out)


def test_criteria_are_the_three_timed_tests():
    assert list(bench_pairs.CRITERIA) == ["criterion_2_s", "criterion_4_s", "criterion_6_s"]
    assert bench_pairs.CRITERIA["criterion_6_s"].endswith("::test_criterion_6_staircase_roundtrip")
    assert [m["name"] for m in bench_pairs.CRITERIA_METRICS] == list(bench_pairs.CRITERIA)


def test_parse_criteria_reads_the_call_durations():
    assert _criteria_out(19.8, 56.9, 4.2) == {"exit": 0, "failed": 0, "metrics": {
        "criterion_2_s": 19.8, "criterion_4_s": 56.9, "criterion_6_s": 4.2}}
    # a test pytest did not time is left out; a failed test is counted
    rec = _criteria_out(20.0, None, None, failed=["tests/test_acceptance.py::test_criterion_4"])
    assert rec == {"exit": 1, "failed": 1, "metrics": {"criterion_2_s": 20.0}}


def test_summarize_criteria_lower_is_better():
    pairs = [{"parent": _criteria_out(20.0, 57.0, 4.1), "change": _criteria_out(20.5, 44.0, 2.9)},
             {"parent": _criteria_out(19.0, 55.0, 4.0), "change": _criteria_out(19.5, 43.0, 2.8)},
             {"parent": _criteria_out(21.0, 59.0, 4.3), "change": _criteria_out(20.5, 45.0, 3.0)}]
    summary = bench_pairs.summarize(pairs, bench_pairs.CRITERIA_METRICS)
    c4 = summary["criterion_4_s"]
    assert (c4["parent"]["median"], c4["change"]["median"]) == (57.0, 44.0)
    assert c4["gain"] == pytest.approx(13.0 / 57.0)
    assert (c4["change_wins"], c4["beyond_parent_iqr"], c4["bound"]) == (3, True, None)
    c2 = summary["criterion_2_s"]
    assert (c2["gain"], c2["change_wins"]) == (pytest.approx(-0.5 / 20.0), 1)
    c6 = summary["criterion_6_s"]
    assert (c6["parent"]["median"], c6["change"]["median"]) == (4.1, 2.9)
    assert (c6["gain"], c6["change_wins"]) == (pytest.approx(1.2 / 4.1), 3)
    assert bench_pairs.failed_runs(pairs) == {"parent": 0, "change": 0}


def test_parse_tier1_reads_the_counts_and_keeps_the_wall_time():
    out = "....F.\n=== short test summary info ===\nFAILED tests/test_x.py::test_y\n" \
          "1 failed, 622 passed, 2 errors in 101.20s (0:01:41)\n"
    assert bench_pairs.parse_tier1(1, out, 104.5) == {
        "exit": 1, "passed": 622, "failed": 3, "metrics": {"tier1_s": 104.5}}
    assert bench_pairs.parse_tier1(0, "623 passed in 98.00s\n", 99.0)["passed"] == 623
    assert bench_pairs.parse_tier1(4, "", 0.5) == {"exit": 4, "passed": 0, "failed": 0,
                                                   "metrics": {"tier1_s": 0.5}}
    assert bench_pairs.TIER1[-1] == "--continue-on-collection-errors"


def test_tier1_is_summarized_beside_the_criteria_from_the_first_pair_only():
    first = {side: _criteria_out(20.0, 57.0) for side in bench_pairs.SIDES}
    first["parent"]["metrics"]["tier1_s"], first["change"]["metrics"]["tier1_s"] = 100.0, 90.0
    pairs = [first, {side: _criteria_out(19.0, 55.0) for side in bench_pairs.SIDES}]
    metrics = bench_pairs.CRITERIA_METRICS + [bench_pairs.TIER1_METRIC]
    summary = bench_pairs.summarize(pairs, metrics)
    assert summary["tier1_s"]["pairs"] == 1 and summary["criterion_2_s"]["pairs"] == 2
    assert summary["tier1_s"]["gain"] == pytest.approx(0.1)
    assert summary["tier1_s"]["change_wins"] == 1
