"""tools/kernel_matrix.py refuses a setting whose child runs another OpenBLAS core,
checked on canned probe output: no child process and no report set is started."""

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


def _fake_run(core, started):
    """subprocess.run for kernel_matrix.main: the probe reports ``core`` (None: the
    requested one), and a report set is only recorded."""
    def run(argv, env, **kwargs):
        started.append(argv[1])
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
        assert started == ["-c", os.path.join(kernel_matrix.TOOLS, "report_set.py")]
        return
    with pytest.raises(SystemExit) as stop:
        kernel_matrix.main(str(tmp_path))
    assert "Nehalem.simd-default" in stop.value.code and "Katmai" in stop.value.code
    assert started == ["-c"]   # the probe ran, the report set did not
    facts = json.loads((tmp_path / "Nehalem.simd-default.machine.json").read_text())
    assert facts == {"openblas_core": "Katmai"}
