import json

import numpy as np
import pytest

from rigidkit.cli import main
from rigidkit.words import Letter, Staircase, reconstruct, word_to_json
from rigidkit.generators import Scalar
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, mat_to_json
from rigidkit.rootsystem import parse_root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "su", "--m", "4", "--n", "3", "--json")
    assert code == 0
    table = json.loads(out)
    assert len(table) == 24
    assert {"root", "multiplicity"} == set(table[0])


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "h-mult-so", "--family", "so",
                       "--m", "4", "--n", "3", "--samples", "25", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["suite"] == "h-mult-so"


def test_verify_side_condition_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rot-so", "--family", "so",
                         "--m", "4", "--n", "3")
    assert code == 2
    assert "side condition" in err


def test_bad_signature_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "h-mult-so", "--family", "so",
                         "--m", "2", "--n", "2")
    assert code == 2
    assert "m >= n >= 3" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "definitely-not-a-suite",
                     "--family", "so", "--m", "4", "--n", "3")
    assert code == 2


@pytest.mark.parametrize("command,option,value", [
    (("chain", "--family", "so", "--m", "5", "--n", "3", "--param", '{"a": [0.6, -0.8]}'),
     "--root", "-L2"),
    (("lyapunov",), "--t", "-1,2,3"),
    (("stable-cycle", "--family", "su", "--m", "4"), "--roots", "-2L1,L1-L2"),
    (("genplane", "--v2", "3,-1,2"), "--v1", "-1,2,6")],
    ids=["chain", "lyapunov", "stable-cycle", "genplane"])
def test_option_value_may_begin_with_dash(capsys, command, option, value):
    spaced = run(capsys, *command, option, value)
    assert spaced[0] == 0 and spaced[2] == ""
    assert spaced == run(capsys, *command, f"{option}={value}")


def test_missing_option_value_exit_2(capsys):
    err = _exit_2_one_line(capsys, "chain", "--root", "--json", "--param", '{"t": 1.0}')
    assert "--root" in err and "expected one argument" in err


def test_verify_all_json_deterministic(capsys):
    args = ("verify-all", "--family", "su", "--m", "3", "--n", "3",
            "--samples", "20", "--seed", "42", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rep = json.loads(out1)
    assert rep["pass"]
    skipped = [s for s in rep["suites"] if "skipped" in s]
    assert any(s["suite"] == "rot-su" for s in skipped)  # m - n = 0


@pytest.mark.parametrize("argv,suites", [
    (("verify", "--suite", "conj-su", "--family", "su", "--m", "5", "--n", "3"), ["conj-su"]),
    (("verify-all", "--family", "so", "--m", "5", "--n", "3"), None)])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_timings_go_to_stderr_only(capsys, argv, suites, json_flag):
    argv = argv + ("--samples", "3")
    code, out, err = run(capsys, *argv, *json_flag)
    timed_code, timed_out, timed_err = run(capsys, *argv, *json_flag, "--timings")
    assert (timed_code, timed_out) == (code, out) and err == ""
    if suites is None:   # one line per suite that ran, none for a skipped one
        report = json.loads(run(capsys, *argv, "--json")[1])
        suites = [entry["suite"] for entry in report["suites"] if "skipped" not in entry]
    lines = timed_err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"time {suite}" for suite in suites]
    assert all(float(line.split()[-2]) >= 0.0 and line.endswith(" s") for line in lines)


def test_chain_json(capsys):
    code, out, _ = run(capsys, "chain", "--family", "so", "--m", "4", "--n", "3",
                       "--root", "L1-L2", "--param", '{"t": 1.0}', "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["reflection_checked"] is True
    assert len(obj["factors"]) == 3
    assert obj["w"]["size"] == 7


def test_lyapunov_output(capsys):
    code, out, _ = run(capsys, "lyapunov", "--family", "so", "--m", "4", "--n", "3",
                       "--t", "3,2,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["exponents"]["total"] == 21
    assert obj["splitting"]["stable_dim"] == 9


def test_stable_cycle_commands(capsys):
    code, out, _ = run(capsys, "stable-cycle", "--roots", "L1-L2,L2-L3,L1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is True
    code, out, _ = run(capsys, "stable-cycle", "--roots", "L1-L2,L2-L1", "--json")
    assert json.loads(out)["feasible"] is False


def test_genplane_command(capsys):
    code, out, _ = run(capsys, "genplane", "--v1", "1,0,0", "--v2", "0,1,0", "--json")
    assert code == 0
    assert json.loads(out) == {"generic": False, "witness": ["L3"]}


# independent vectors whose Gram products over- or underflow in floats; the
# next two are the plane of `genplane --v1 1,2,6 --v2 3,-1,2` (generic) at
# scales 1e-12 and 1e-200, and the verdict does not depend on the scale; the
# fourth pair differs in the eleventh digit only, and is still independent.
# Genericity is exact: on the first plane L1+L3 restricts to (1e100, 1e100) and
# L2 to (1, 1); the fifth plane lies 2e-10 off the wall of L2+L3 and is generic;
# on the last, L1-L2 and L1+L2 are not proportional, but L2-L3 and L2+L3 are
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v1,v2,verdict", [
    ("1e100,1,0", "0,1,1e100", "not generic; witness: L1+L3, L2"),
    ("1e-12,2e-12,6e-12", "3e-12,-1e-12,2e-12", "generic"),
    ("1e-200,2e-200,6e-200", "3e-200,-1e-200,2e-200", "generic"),
    ("1,2,6", "1,2,6.00000000001", "not generic; witness: L1-L2, L1+L2"),
    ("-3,4,-4", "-3.0000000001,3.9999999996,-3.9999999998", "generic"),
    ("1,2,3", "1.0000000001,2,3", "not generic; witness: L2-L3, L2+L3")],
    ids=["huge", "small", "tiny", "near-dependent", "near-wall", "near-proportional"])
def test_genplane_extreme_scales(capsys, v1, v2, verdict):
    code, out, err = run(capsys, "genplane", "--v1", v1, "--v2", v2)
    assert code == 0 and out.strip() == verdict and err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v1,v2", [("1,2,3", "2,4,6"), ("0,0,0", "1,2,3")],
                         ids=["proportional", "zero"])
def test_genplane_dependent_exit_2(capsys, v1, v2):
    err = _exit_2_one_line(capsys, "genplane", "--v1", v1, "--v2", v2)
    assert "linearly dependent" in err


def test_normalform_command(tmp_path, capsys):
    theta = 0.75
    B = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                 dtype=complex)
    path = tmp_path / "block.json"
    path.write_text(json.dumps(mat_to_json(B)))
    code, out, _ = run(capsys, "normalform", "--family", "so", "--k", "2",
                       "--matrix", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [[pytest.approx(theta)]]


def test_normalform_command_unitary(tmp_path, capsys):
    # a Haar-random SU(3) block: QR of a complex Gaussian, phases and determinant fixed
    rng = np.random.default_rng(31)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    B = Q * (np.diag(R) / abs(np.diag(R)))
    B = B / np.linalg.det(B) ** (1.0 / 3.0)
    path = tmp_path / "block.json"
    path.write_text(json.dumps(mat_to_json(B)))
    code, out, _ = run(capsys, "normalform", "--family", "su", "--k", "3",
                       "--matrix", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["family"], obj["k"], [len(row) for row in obj["rows"]]) == ("su", 3, [2, 1])
    for row in obj["rows"]:
        for triple in row:
            assert len(triple) == 3 and all(isinstance(x, float) for x in triple)
    stair = Staircase("su", 3, tuple(tuple(tuple(triple) for triple in row) for row in obj["rows"]))
    assert DEFAULT_TOL.close(reconstruct(GroupSpec("su", 6, 3), stair), B)


def test_normalform_command_unitary_zero_real_part(tmp_path, capsys):
    B = np.diag([1j, -1j])
    path = tmp_path / "block.json"
    path.write_text(json.dumps(mat_to_json(B)))
    code, out, _ = run(capsys, "normalform", "--family", "su", "--k", "2",
                       "--matrix", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    stair = Staircase("su", 2, tuple(tuple(tuple(triple) for triple in row) for row in rows))
    assert DEFAULT_TOL.close(reconstruct(GroupSpec("su", 5, 3), stair), B)


def test_reduce_command(tmp_path, capsys):
    spec = GroupSpec("so", 4, 3)
    r = parse_root("L1-L2", spec)
    word = [Letter(r, Scalar(0.5), 1), Letter(r, Scalar(0.5), -1),
            Letter(r, Scalar(1.0), 1)]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word_to_json(word)))
    code, out, _ = run(capsys, "reduce", "--word", str(path), "--json")
    assert code == 0
    assert json.loads(out) == [{"root": "L1-L2", "param": {"t": 1.0}, "exp": 1}]


def test_trace_pairing_command(capsys):
    code, out, _ = run(capsys, "trace-pairing", "--m", "5", "--n", "3",
                       "--samples", "50", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_trace_pairing_json_names_failures(capsys, monkeypatch):
    from rigidkit import relations
    monkeypatch.setattr(relations, "trace_pairing", lambda spec, a, b: (1.0, 2.0))
    code, out, _ = run(capsys, "trace-pairing", "--m", "5", "--n", "3", "--samples", "3",
                       "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and len(doc["failures"]) == 3
    assert [f["sample"] for f in doc["failures"]] == [0, 1, 2]
    for failure in doc["failures"]:
        assert failure["check"].startswith("4|<a,b>|^2")
        assert set(failure["inputs"]) == {"a", "b"}
        assert failure["residual"] == pytest.approx(1.0 / 3.0)
    code, out, _ = run(capsys, "trace-pairing", "--m", "5", "--n", "3", "--samples", "3")
    assert code == 1 and out.startswith("trace pairing on SU(5,3): FAIL")


def _exit_2_one_line(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    return err


def test_oversized_spec_exit_2(capsys):
    # roots builds no matrix, so this probes the GroupSpec cap without allocating
    err = _exit_2_one_line(capsys, "roots", "--family", "so", "--m", "100", "--n", "3")
    assert "at most" in err


@pytest.mark.parametrize("param", ['{"t": 1e999}', '{"t": -1e999}', '{"t": NaN}'])
def test_non_finite_parameter_exit_2(capsys, param):
    err = _exit_2_one_line(capsys, "chain", "--family", "so", "--m", "4", "--n", "3",
                           "--root", "L1-L2", "--param", param)
    assert "finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("root, m, param", [
    ("L1-L2", 4, '{"t": 1e300}'), ("L1", 5, '{"a": [1e200, 1e200]}')], ids=["scalar", "vector"])
def test_oversized_parameter_exit_2(capsys, root, m, param):
    err = _exit_2_one_line(capsys, "chain", "--family", "so", "--m", str(m), "--n", "3",
                           "--root", root, "--param", param)
    assert "norm at most" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e308, 1e37], ids=["letters-oversized", "merge-oversized"])
def test_reduce_oversized_merge_exit_2(tmp_path, capsys, t):
    # 1e308 is refused as it is read; two letters of 1e37 pass, but their merge does not
    path = tmp_path / "word.json"
    path.write_text(json.dumps([{"root": "L1-L2", "param": {"t": t}}] * 2))
    err = _exit_2_one_line(capsys, "reduce", "--family", "so", "--m", "4", "--n", "3",
                           "--word", str(path))
    assert "norm at most" in err


@pytest.mark.parametrize("argv", [
    ("lyapunov", "--t", "1,nan,2"), ("lyapunov", "--t", "1e308,1e308,-1e308"),
    ("genplane", "--v1", "1,inf,0", "--v2", "0,1,0")], ids=["nan", "norm-overflow", "inf"])
def test_non_finite_cartan_vector_exit_2(capsys, argv):
    err = _exit_2_one_line(capsys, *argv, "--family", "so", "--m", "4", "--n", "3")
    assert "finite" in err


@pytest.mark.parametrize("argv, vector", [
    (("lyapunov", "--t", "3,,2,1"), "3,,2,1"), (("lyapunov", "--t", "3,2,1,"), "3,2,1,"),
    (("lyapunov", "--t", "3, ,2"), "3, ,2"),
    (("genplane", "--v1", "1,2,,6", "--v2", "3,-1,2"), "1,2,,6")],
    ids=["inner", "trailing", "blank", "genplane"])
def test_empty_vector_entry_exit_2(capsys, argv, vector):
    # an empty entry is refused, not dropped: the vector read is the one typed
    err = _exit_2_one_line(capsys, *argv, "--family", "so", "--m", "4", "--n", "3")
    assert repr(vector) in err and "empty entry" in err


@pytest.mark.parametrize("argv", [
    ("lyapunov", "--t", "3,1_0,1"), ("lyapunov", "--t", "\u0661,2,3"),
    ("genplane", "--v1", "1,2,6", "--v2", "3,-1,\uff12"), ("lyapunov", "--t", "3,0x1,1")],
    ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "hex"])
def test_vector_entry_not_an_ascii_decimal_exit_2(capsys, argv):
    # float() reads '1_0' as 10 and '\u0661' as 1: each entry must be the number typed
    err = _exit_2_one_line(capsys, *argv, "--family", "so", "--m", "4", "--n", "3")
    assert "ASCII decimal" in err


@pytest.mark.parametrize("argv", [("--m", "1_0"), ("--n", "\u0663"), ("--samples", "\u0661\u0660"),
                                  ("--seed", "4_2")], ids=["m", "n", "samples", "seed"])
def test_integer_option_not_an_ascii_decimal_exit_2(capsys, argv):
    err = _exit_2_one_line(capsys, "verify", "--suite", "additivity", "--family", "so",
                           "--m", "4", "--n", "3", "--samples", "2", *argv)
    assert argv[0] in err


def test_ascii_decimal_entries_are_read_as_typed(capsys):
    code, out, _ = run(capsys, "lyapunov", "--family", "so", "--m", "4", "--n", "3",
                       "--t", " 3.5 ,+2e0,.5", "--json")
    assert code == 0
    assert json.loads(out)["splitting"]["t"] == [3.5, 2.0, 0.5]


# each strictly rejected JSON input, read as a --param, a matrix file and a word file
STRICT_JSON = {"duplicate-key": ('{"t": 1, "t": 2}', "duplicate key 't'"),
               "nan": ('{"t": NaN}', "NaN is not finite"),
               "infinity": ('{"t": Infinity}', "Infinity is not finite"),
               "minus-infinity": ('{"t": -Infinity}', "-Infinity is not finite"),
               "overflow": ('{"t": -2.5e400}', "-2.5e400 is not finite"),
               "huge-integer": ('{"t": 1' + "0" * 400 + "}", "0 is not finite")}


@pytest.mark.parametrize("case", STRICT_JSON)
def test_strict_json_param_exit_2(capsys, case):
    text, why = STRICT_JSON[case]
    err = _exit_2_one_line(capsys, "chain", "--family", "so", "--m", "5", "--n", "3",
                           "--root", "L1-L2", "--param", text)
    assert why in err


@pytest.mark.parametrize("case", STRICT_JSON)
def test_strict_json_matrix_file_exit_2(tmp_path, capsys, case):
    text, why = STRICT_JSON[case]
    path = tmp_path / "block.json"
    path.write_text('{"size": 1, "entries": [[1, 0]], "pad": ' + text + "}")
    err = _exit_2_one_line(capsys, "normalform", "--family", "so", "--k", "2", "--matrix",
                           str(path))
    assert why in err


@pytest.mark.parametrize("case", STRICT_JSON)
def test_strict_json_word_file_exit_2(tmp_path, capsys, case):
    text, why = STRICT_JSON[case]
    path = tmp_path / "word.json"
    path.write_text('[{"root": "L1-L2", "param": ' + text + "}]")
    err = _exit_2_one_line(capsys, "reduce", "--family", "so", "--m", "4", "--n", "3",
                           "--word", str(path))
    assert why in err


@pytest.mark.parametrize("doc", [
    {"entries": []}, {"size": 2}, {"size": "2", "entries": []}, {"size": 1, "entries": [[1]]},
    {"size": 1, "entries": [["1", 0]]}, {"size": 1, "entries": 5}, [1, 2],
    {"size": -1, "entries": [[1, 0]]}])
def test_malformed_matrix_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "block.json"
    path.write_text(json.dumps(doc))
    _exit_2_one_line(capsys, "normalform", "--family", "so", "--k", "2", "--matrix", str(path))


@pytest.mark.parametrize("k", ["-1", "1", "x"])
def test_normalform_k_below_two_exit_2(capsys, k):
    # checked before the matrix file is read, and named as the option it is
    err = _exit_2_one_line(capsys, "normalform", "--k", k, "--matrix", "missing.json")
    assert "--k" in err and "at least 2" in err


def test_normalform_k_above_max_exit_2(capsys):
    # k is the tail of SO+(3+k, 3), so MAX_SIZE bounds it by 58; named as --k too
    err = _exit_2_one_line(capsys, "normalform", "--k", "59", "--matrix", "missing.json")
    assert "--k" in err and "at most 58" in err


def test_normalform_k_at_max(tmp_path, capsys):
    path = tmp_path / "block.json"
    path.write_text(json.dumps(mat_to_json(np.eye(58, dtype=complex))))
    code, out, _ = run(capsys, "normalform", "--k", "58", "--matrix", str(path), "--json")
    assert code == 0
    assert [len(row) for row in json.loads(out)["rows"]] == list(range(57, 0, -1))


@pytest.mark.parametrize("doc", [
    [{"root": "L1-L2"}], [{"param": {"t": 1.0}}], [{"root": 5, "param": {"t": 1.0}}],
    [{"root": "L1-L2", "param": [1.0]}], [{"root": "L1-L2", "param": {"t": "x"}}],
    [{"root": "L1-L2", "param": {"t": 1.0}, "exp": [1]}], [{"root": "L3", "param": {"a": [[1]]}}],
    [{"root": "L1-L2", "param": {"z": [1.0]}}], ["L1-L2"], {"root": "L1-L2"}])
def test_malformed_word_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(doc))
    _exit_2_one_line(capsys, "reduce", "--family", "so", "--m", "4", "--n", "3",
                     "--word", str(path))


@pytest.mark.parametrize("param", ['{"z": "ab"}', '{"t": [1]}', '[1.0]', '{"a": [[1, 2]]}'])
def test_malformed_parameter_exit_2(capsys, param):
    _exit_2_one_line(capsys, "chain", "--family", "so", "--m", "4", "--n", "3",
                     "--root", "L1-L2", "--param", param)


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "--word", "/nonexistent/file.json")
    assert code == 2


def test_determinism_across_processes():
    import os
    import pathlib
    import subprocess
    import sys
    # the child imports rigidkit from this checkout's src, whatever pytest's own path
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, "-m", "rigidkit.cli", "verify", "--suite", "commutator",
           "--family", "su", "--m", "4", "--n", "3", "--samples", "40", "--json"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("command", [["trace-pairing", "--m", "5", "--n", "3", "--samples", "50"],
                                     ["verify-all", "--family", "su", "--m", "4", "--n", "3",
                                      "--samples", "5"]], ids=lambda c: c[0])
def test_tolerance_below_rounding_fails_the_suites(capsys, command):
    # the sampler's unit vectors are unit up to rounding: a tighter tolerance
    # must fail the relations, not reject the inputs
    code, out, err = run(capsys, *command, "--tol", "1e-16", "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is False


@pytest.mark.parametrize("tol", ["nan", "-1", "1", "1e300", "1_0e-10", "\u0661e-9"],
                         ids=["tol-nan", "tol-negative", "tol-one", "tol-huge", "tol-underscore",
                              "tol-arabic-indic-digit"])
def test_invalid_tolerance_exit_2(capsys, tol):
    argv = ["verify", "--suite", "additivity", "--family", "so", "--m", "4", "--n", "3",
            "--samples", "5", "--json", "--tol", tol]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "tolerance" in err


@pytest.mark.parametrize("command", [["verify", "--suite", "additivity"], ["verify-all"],
                                     ["trace-pairing", "--m", "5"]], ids=lambda c: c[0])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_exit_2(capsys, command, samples):
    code, out, err = run(capsys, *command, "--samples", samples, "--json")
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("command", [["verify", "--suite", "additivity"], ["verify-all"],
                                     ["trace-pairing", "--m", "5"]], ids=lambda c: c[0])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_not_a_non_negative_integer_exit_2(capsys, command, seed):
    code, out, err = run(capsys, *command, "--samples", "2", "--seed", seed, "--json")
    assert code == 2
    assert out == ""
    assert "--seed" in err
