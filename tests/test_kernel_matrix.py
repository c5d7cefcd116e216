"""tools/kernel_matrix.py refuses a setting whose child runs another OpenBLAS core and
records the golden tests' outcomes, checked on canned probe and pytest output: no child
process, no report set and no pytest run is started."""

import importlib.util
import json
import os
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kernel_matrix", ROOT / "tools" / "kernel_matrix.py")
kernel_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_matrix)


def test_every_setting_names_a_core_openblas_honours():
    # Prescott, Core2 and Penryn fall back to Katmai kernels, so none of them is a setting
    cores = {entries["OPENBLAS_CORETYPE"] for _, entries in kernel_matrix.settings()}
    assert cores == {"SkylakeX", "Haswell", "Nehalem"}
    assert len(kernel_matrix.settings()) == 6


def test_core_mismatch_names_the_setting():
    entries = {"OPENBLAS_CORETYPE": "Nehalem", "NPY_DISABLE_CPU_FEATURES": None}
    assert kernel_matrix.core_mismatch("Nehalem.simd-default", entries,
                                       {"openblas_core": "Nehalem"}) is None
    error = kernel_matrix.core_mismatch("Nehalem.simd-default", entries, {"openblas_core": "Katmai"})
    assert "Nehalem.simd-default" in error and "Katmai" in error
    assert kernel_matrix.core_mismatch("Nehalem.simd-default", entries, {}) is not None


# pytest -q -rA output of the golden tests under a kernel that rounds otherwise
GOLDEN_OUTPUT = """\
.FF                                                                      [100%]
=================================== FAILURES ===================================
____________________ test_verify_all_matches_golden_reports ____________________
E       AssertionError: FAILED on purpose
==================================== PASSES ====================================
=========================== short test summary info ============================
PASSED tests/test_relations.py::test_commutator_golden_regression
FAILED tests/test_relations.py::test_verify_all_matches_golden_reports - Asse...
FAILED tests/test_relations.py::test_braid_su_matches_golden_reports - Assert...
2 failed, 1 passed, 130 deselected in 1.75s
"""
GOLDEN_TXT = """\
tests/test_relations.py::test_braid_su_matches_golden_reports FAILED
tests/test_relations.py::test_commutator_golden_regression PASSED
tests/test_relations.py::test_verify_all_matches_golden_reports FAILED
"""


def test_golden_results_keep_ids_and_outcomes_only():
    assert kernel_matrix.golden_results(GOLDEN_OUTPUT) == GOLDEN_TXT
    assert kernel_matrix.golden_results("no tests ran in 0.01s\n") == ""


def _fake_run(core, started, golden=GOLDEN_OUTPUT):
    """subprocess.run for kernel_matrix.main: the probe reports ``core`` (None: the
    requested one), a report set is only recorded, and pytest prints ``golden``,
    exiting 1 as it does when a test fails."""
    def run(argv, env, **kwargs):
        started.append(argv[1])
        if argv[1] == "-m":
            assert argv[2:] == kernel_matrix.GOLDEN[1:] and kwargs["cwd"] == kernel_matrix.ROOT
            return subprocess.CompletedProcess(argv, 1, golden, "")
        facts = {"openblas_core": core or env["OPENBLAS_CORETYPE"]}
        return subprocess.CompletedProcess(argv, 0, json.dumps(facts) if argv[1] == "-c" else "", "")
    return run


@pytest.mark.parametrize("core", [None, "Katmai"], ids=["honoured", "fallen-back"])
def test_a_fallen_back_core_stops_the_tool_before_its_report_set(monkeypatch, tmp_path, core):
    started = []
    monkeypatch.setattr(kernel_matrix.subprocess, "run", _fake_run(core, started))
    monkeypatch.setattr(kernel_matrix, "settings", lambda: [
        ("Nehalem.simd-default", {"OPENBLAS_CORETYPE": "Nehalem"})])
    if core is None:
        kernel_matrix.main(str(tmp_path))
        assert started == ["-c", os.path.join(kernel_matrix.TOOLS, "report_set.py"), "-m"]
        return
    with pytest.raises(SystemExit) as stop:
        kernel_matrix.main(str(tmp_path))
    assert "Nehalem.simd-default" in stop.value.code and "Katmai" in stop.value.code
    assert started == ["-c"]   # the probe ran, the report set did not
    facts = json.loads((tmp_path / "Nehalem.simd-default.machine.json").read_text())
    assert facts == {"openblas_core": "Katmai"}


def test_golden_failures_are_recorded_not_fatal(monkeypatch, tmp_path):
    started = []
    monkeypatch.setattr(kernel_matrix.subprocess, "run", _fake_run(None, started))
    kernel_matrix.main(str(tmp_path))   # every setting runs, though two goldens fail in each
    assert started.count("-m") == len(kernel_matrix.settings()) == 6
    for name, _ in kernel_matrix.settings():
        assert (tmp_path / f"{name}.golden.txt").read_text() == GOLDEN_TXT


def test_a_setting_that_runs_no_golden_test_stops_the_tool(monkeypatch, tmp_path):
    started = []
    monkeypatch.setattr(kernel_matrix.subprocess, "run",
                        _fake_run(None, started, golden="ERROR: file or directory not found\n"))
    with pytest.raises(SystemExit) as stop:
        kernel_matrix.main(str(tmp_path))
    assert "SkylakeX.simd-default" in stop.value.code and "no golden test" in stop.value.code
    assert not (tmp_path / "SkylakeX.simd-default.golden.txt").exists()
