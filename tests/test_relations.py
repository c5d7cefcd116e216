import json
import pathlib
import sys

import numpy as np
import pytest

from rigidkit.errors import (DecompositionResidual, NotOnSphere, OppositeRoots,
                             SideConditionViolated, UnknownSuite)
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, identity
from rigidkit.generators import Cx, Heis, RVec, Scalar, param_from_json, param_neg
from rigidkit.rootsystem import RootLabel, parse_root, roots
from rigidkit import generators, lyapunov, relations
from rigidkit.cli import main as cli_main
from rigidkit.relations import (anti_proportional, commutator_decompose, run_suite,
                                suite_ids, suite_side_condition, trace_pairing, verify_all)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "commutators.json"
GOLDEN_REPORTS = pathlib.Path(__file__).parent / "golden" / "verify_all.json"
GOLDEN_BRAID = pathlib.Path(__file__).parent / "golden" / "braid_su.json"

SO43 = GroupSpec("so", 4, 3)
SU33 = GroupSpec("su", 3, 3)
SU43 = GroupSpec("su", 4, 3)


def test_commutator_empty_case():
    # L1-L2 and L3: no positive combination is a root, so [x, y] = id
    table = commutator_decompose(SO43, parse_root("L1-L2", SO43), Scalar(0.7),
                                 parse_root("L3", SO43), RVec((1.2,)))
    assert table.terms == ()
    assert table.residual <= 1e-12


def test_empty_commutator_table_can_fail(monkeypatch):
    # with the term search blinded (its root index is empty; x_elem still
    # validates against the real roots) the table is empty, yet [x_L1-L2, x_L2-L3]
    # is x_L1-L3 of a nonzero parameter: the certificate must reject the empty table
    monkeypatch.setattr(relations, "root_index", lambda spec: {})
    with pytest.raises(DecompositionResidual) as caught:
        commutator_decompose(SO43, parse_root("L1-L2", SO43), Scalar(0.8),
                             parse_root("L2-L3", SO43), Scalar(-1.1))
    assert caught.value.residual > DEFAULT_TOL.rel


def test_commutator_single_term_structure_constant():
    r = parse_root("L1-L2", SO43)
    p = parse_root("L2-L3", SO43)
    t, s = 0.8, -1.1
    table = commutator_decompose(SO43, r, Scalar(t), p, Scalar(s))
    assert len(table.terms) == 1
    q, par = table.terms[0]
    assert str(q) == "L1-L3"
    assert abs(abs(par.t) - abs(t * s)) < 1e-12  # structure constant is +-1


def test_commutator_multi_term_su():
    r = parse_root("L1-L2", SU43)
    p = parse_root("L2", SU43)
    table = commutator_decompose(SU43, r, Cx(0.8 - 0.5j), p, Heis(0.6, (0.3 + 0.2j,)))
    names = [str(q) for q, _ in table.terms]
    assert names == ["L1", "L1+L2", "2L1"]
    assert table.residual <= 1e-12


def test_commutator_same_root_heisenberg():
    p1 = Heis(0.6, (0.3 + 0.2j,))
    p2 = Heis(-0.3, (0.1 - 0.7j,))
    r = parse_root("L2", SU43)
    table = commutator_decompose(SU43, r, p1, r, p2)
    assert [str(q) for q, _ in table.terms] == ["2L2"]


def test_commutator_opposite_roots_rejected():
    r = parse_root("L1-L2", SU33)
    with pytest.raises(OppositeRoots):
        commutator_decompose(SU33, r, Cx(1.0 + 0j), parse_root("L2-L1", SU33), Cx(0.5 + 0j))
    # anti-proportional directions index a root group and its opposite
    with pytest.raises(OppositeRoots):
        commutator_decompose(SU43, parse_root("-L1", SU43), Heis(0.5, (0.1 + 0j,)),
                             parse_root("2L1", SU43), Scalar(1.0))
    assert anti_proportional(parse_root("-L1", SU43), parse_root("2L1", SU43))
    assert not anti_proportional(parse_root("L1", SU43), parse_root("2L1", SU43))


def test_commutator_golden_regression():
    golden = json.loads(GOLDEN.read_text())
    for key, rows in golden.items():
        fam, m, n = key.split(":")
        spec = GroupSpec(fam, int(m), int(n))
        for row in rows:
            r = parse_root(row["r"], spec)
            p = parse_root(row["p"], spec)
            a = param_from_json(row["a"])
            b = param_from_json(row["b"])
            table = commutator_decompose(spec, r, a, p, b)
            assert len(table.terms) == len(row["terms"])
            for (q, par), expected in zip(table.terms, row["terms"]):
                assert str(q) == expected["root"]
                want = param_from_json(expected["param"])
                got = np.array(list(vars(par).values()), dtype=object)
                for gv, wv in zip(_flatten(par), _flatten(want)):
                    assert abs(gv - wv) < 1e-9


def _flatten(par):
    if isinstance(par, Scalar):
        return [par.t]
    if isinstance(par, Cx):
        return [par.z]
    if isinstance(par, RVec):
        return list(par.a)
    return [par.t] + list(par.a)


def test_run_suite_h_mult():
    rep = run_suite(SO43, "h-mult-so", samples=100, seed=42)
    assert rep.passed and rep.max_residual < 1e-9
    assert rep.to_json()["suite"] == "h-mult-so"


def test_run_suite_center_su():
    rep = run_suite(SU33, "center-su", samples=1, seed=0)
    assert rep.passed
    # h_{2L3}(-1) itself: diag(1,1,-1,1,1,-1), not the identity, squares to it
    from rigidkit.generators import w_matrix
    w = w_matrix(SU33, parse_root("2L3", SU33), Scalar(-1.0))
    h = w @ w
    assert DEFAULT_TOL.close(h, np.diag([1, 1, -1, 1, 1, -1]).astype(complex))
    assert not DEFAULT_TOL.close(h, identity(6))
    assert DEFAULT_TOL.close(h @ h, identity(6))


def test_nan_residual_fails_the_suite(monkeypatch):
    # a scalar residual (trace pairing) and a matrix residual (h words through INV)
    monkeypatch.setattr(relations, "trace_pairing", lambda spec, a, b, tol: (float("nan"), 1.0))
    report = run_suite(GroupSpec("su", 5, 3), "trace-pairing", samples=3, seed=1)
    assert not report.passed and len(report.failures) == 3
    assert np.isnan(report.max_residual)
    # strict JSON: a non-finite residual is written as null
    doc = json.loads(json.dumps(report.to_json(), allow_nan=False))
    assert doc["max_residual"] is None
    assert all(failure["residual"] is None for failure in doc["failures"])
    monkeypatch.setattr(relations, "INV", lambda M: np.full_like(M, np.nan))
    report = run_suite(SO43, "h-mult-so", samples=2, seed=1)
    assert not report.passed and len(report.failures) == 2
    json.dumps(report.to_json(), allow_nan=False)


def test_nan_residual_in_verify_all_text(monkeypatch, capsys):
    monkeypatch.setattr(relations, "trace_pairing", lambda spec, a, b, tol: (float("nan"), 1.0))
    code = cli_main(["verify-all", "--family", "su", "--m", "4", "--n", "3", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "trace-pairing: FAIL  max residual non-finite" in out


def test_verify_all_matches_golden_reports():
    # the reports of the seven acceptance specs, compared byte for byte
    golden = json.loads(GOLDEN_REPORTS.read_text())
    assert len(golden) == 7
    for key, want in golden.items():
        family, m, n = key.split(":")
        got = verify_all(GroupSpec(family, int(m), int(n)), samples=20, seed=42)
        assert json.dumps(got) == json.dumps(want), key


def test_braid_su_matches_golden_reports():
    # verify_all.json has no SU spec with m - n >= 3, so these pin the SU braid
    golden = json.loads(GOLDEN_BRAID.read_text())
    assert len(golden) == 2
    for key, want in golden.items():
        family, m, n = key.split(":")
        got = run_suite(GroupSpec(family, int(m), int(n)), "braid", samples=20, seed=42)
        assert json.dumps(got.to_json()) == json.dumps(want), key


def _su2_phase(t):
    return np.diag([np.exp(1j * t), np.exp(-1j * t)])


def _su2_rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)


# draws whose exchange window is at gimbal lock: its corner entry has modulus 1
# up to rounding; dir 0 is the forward exchange, dir 1 the reverse one
@pytest.mark.parametrize("family,direction,draws", [
    ("so", 0, (0.4, 0.0, -0.4)), ("so", 0, (0.4, np.pi, 0.4)), ("so", 0, (1.3, 0.0, -1.3)),
    ("so", 1, (1.1, 0.0, -1.1)), ("so", 1, (1.1, np.pi, 1.1)), ("so", 1, (1.3, 0.0, -1.3)),
    ("su", 0, (_su2_phase(0.7), _su2_rotation(0.7), _su2_phase(1.1))),
    ("su", 1, (_su2_phase(0.4), _su2_rotation(0.7), _su2_phase(-1.1)))],
    ids=["so-fwd-0.4", "so-fwd-0.4-pi", "so-fwd-1.3", "so-rev-1.1", "so-rev-1.1-pi", "so-rev-1.3",
         "su-fwd", "su-rev"])
def test_braid_exchange_near_gimbal_lock(monkeypatch, family, direction, draws):
    pending = iter(draws)
    monkeypatch.setattr(relations, "_angle", lambda rng: next(pending))
    monkeypatch.setattr(relations, "_rand_su2", lambda rng: next(pending))
    spec = GroupSpec(family, 6, 3)
    (_, L, R, _), = relations._braid(spec, np.random.default_rng(0), direction, DEFAULT_TOL)
    assert DEFAULT_TOL.residual(L, R) < 1e-12


# ---------------------------------------------------------------------------
# negative controls: a wrong sign in a builder must fail each suite


CONTROL_SPECS = [GroupSpec("so", m, 3) for m in (3, 4, 5, 6)] + \
    [GroupSpec("su", m, 3) for m in (3, 4, 5, 6)]


def _negate_opposite_factors(monkeypatch):
    """x_alpha(p) is built as x_alpha(-p) for every negative root alpha."""
    build = generators._x_matrix

    def wrong(spec, root, p):
        if root.coeffs[root.support[0]] < 0:
            p = param_neg(p)
        return build(spec, root, p)
    monkeypatch.setattr(generators, "_x_matrix", wrong)
    monkeypatch.setattr(relations, "_x_matrix", wrong)


def _subtract_in_param_add(monkeypatch):
    add = relations.param_add
    monkeypatch.setattr(relations, "param_add",
                        lambda spec, root, p, q: add(spec, root, p, param_neg(q)))


@pytest.mark.parametrize("suite_id,spec", [
    pytest.param(sid, spec, id=f"{sid}-{spec.family}{spec.m}{spec.n}")
    for sid in suite_ids() for spec in CONTROL_SPECS if suite_side_condition(spec, sid) is None])
def test_negative_control(monkeypatch, suite_id, spec):
    # additivity only compares x elements of one root with each other, where a
    # uniform sign on x_-alpha is a relabelling; it gets a wrong sum instead
    if suite_id == "additivity":
        _subtract_in_param_add(monkeypatch)
    else:
        _negate_opposite_factors(monkeypatch)
    report = run_suite(spec, suite_id, samples=10, seed=5)
    doc = json.loads(json.dumps(report.to_json(), allow_nan=False))
    assert doc["pass"] is False and doc["failures"]
    for failure in doc["failures"]:
        assert isinstance(failure["check"], str) and failure["check"]
        assert isinstance(failure["residual"], float) and failure["residual"] > DEFAULT_TOL.rel
    assert report.max_residual == max(failure["residual"] for failure in doc["failures"])


# the suites whose samplers share words within a sample
SHARED_WORD_SUITES = [(sid, GroupSpec(family, 5, 3)) for sid, family in
                      [("h-mult-so", "so"), ("h-mult-su", "su"), ("center-so", "so"),
                       ("symbol-R", "so"), ("symbol-C", "su"), ("symbol-S1", "so"),
                       ("symbol-S1", "su"), ("conj-so", "so"), ("conj-su", "su")]]


@pytest.mark.parametrize("suite_id,spec", [
    pytest.param(sid, spec, id=f"{sid}-{spec.family}") for sid, spec in SHARED_WORD_SUITES])
def test_word_memos_are_per_sample(suite_id, spec):
    # a memo that outlived its sample would carry the wrong words into the
    # patched run (which would pass) or back out of it (the third run would fail)
    first = json.dumps(run_suite(spec, suite_id, samples=4, seed=9).to_json())
    with pytest.MonkeyPatch.context() as patch:
        _negate_opposite_factors(patch)
        assert not run_suite(spec, suite_id, samples=4, seed=9).passed
    assert json.dumps(run_suite(spec, suite_id, samples=4, seed=9).to_json()) == first


def test_no_cache_outlives_a_patched_x_matrix():
    # chain and rotation factors are shared within one call only, and the
    # splitting caches hold no generator matrix: outputs computed before,
    # under and after the negative-control patch must not leak into each other
    so, su = GroupSpec("so", 5, 3), GroupSpec("su", 5, 3)
    roots_so = [parse_root(text, so) for text in ("L1-L2", "-L1-L2", "L3", "-L3")]
    roots_su = [parse_root(text, su) for text in ("L2+L3", "-L1", "2L1")]
    rng = np.random.default_rng(4)
    chains = [(spec, r, relations.rand_param(spec, r, rng, invertible=True))
              for spec, labels in ((so, roots_so), (su, roots_su)) for r in labels]
    ab = (np.cos(0.4), np.sin(0.4))

    def outputs():
        return ([generators.w_matrix(spec, r, p) for spec, r, p in chains],
                [generators.h_rot(so, 1, ab), generators.h_rot(su, 1, ab, "imag")],
                [lyapunov.splitting(spec, [2.0, -1.0, 0.5]) for spec in (so, su)],
                json.dumps([verify_all(spec, samples=2, seed=3) for spec in (so, su)]))

    def same(a, b):
        return all(np.array_equal(A, B) and A.dtype == B.dtype for A, B in zip(a, b))

    ws, hs, splits, reports = outputs()
    with pytest.MonkeyPatch.context() as patch:
        _negate_opposite_factors(patch)
        ws_bad, hs_bad, _, reports_bad = outputs()
    assert not any(np.array_equal(A, B) for A, B in zip(ws + hs, ws_bad + hs_bad))
    assert reports_bad != reports
    ws2, hs2, splits2, reports2 = outputs()
    assert same(ws, ws2) and same(hs, hs2) and reports2 == reports
    for rep, rep2 in zip(splits, splits2):
        for basis in ("stable_basis", "unstable_basis", "neutral_basis"):
            assert same(getattr(rep, basis), getattr(rep2, basis))
        with pytest.raises(ValueError):
            rep.stable_basis[0][0, 0] = 1.0


def test_commutator_path_hashes_no_label_or_spec(monkeypatch):
    # stencils live on the labels and the root index is cached by the spec's
    # fields, so the tables path never runs a dataclass-generated __hash__
    spec = GroupSpec("su", 5, 3)
    labels = [info.label for info in roots(spec)]
    pairs = [(r, p) for r in labels for p in labels if not anti_proportional(r, p)]

    def decompose_all(rng):
        for r, p in pairs:
            a, b = relations.rand_param(spec, r, rng), relations.rand_param(spec, p, rng)
            commutator_decompose(spec, r, a, p, b)

    decompose_all(np.random.default_rng(8))    # fills the caches
    hashed = []
    for cls in (RootLabel, GroupSpec):
        generated = cls.__hash__
        monkeypatch.setattr(cls, "__hash__",
                            lambda self, h=generated: hashed.append(self) or h(self))
    decompose_all(np.random.default_rng(9))
    assert hashed == []


def _recorded_calls(monkeypatch, name):
    """Wrap relations.<name>; the returned list collects the arguments of each call."""
    calls = []
    build = getattr(relations, name)

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(relations, name, counted)
    return calls


def _sample_calls(suite_id, spec, i, *recorded):
    for calls in recorded:
        calls.clear()
    sampler = relations.SUITES[suite_id]["sampler"]
    for _ in sampler(spec, relations.rng_for(7, suite_id, i), i, DEFAULT_TOL):
        pass


def test_symbol_samplers_build_each_word_once(monkeypatch):
    spec = GroupSpec("so", 5, 3)
    inv = _recorded_calls(monkeypatch, "INV")
    rot = _recorded_calls(monkeypatch, "h_rot")
    chain = _recorded_calls(monkeypatch, "_chain")
    for i in range(12):
        _sample_calls("symbol-S1", spec, i, inv, rot, chain)
        # the symbols {ab,cd}, {ab,cd ef}, {ab,ef}, {ab cd,ef}, {cd,ef}, {cd,ab} and
        # {cd,-cd}, each h(xy) h(x)^-1 h(y)^-1, invert the words ab, cd, cd ef, ef,
        # ab cd and -cd: one inverse per distinct word
        assert len(inv) == 6
        # the words ab, cd, ef, cd ef, ab cd (= cd ab), ab ef, ab (cd ef), (ab cd) ef,
        # -cd and cd (-cd): 10, or 9 where the two triple products round alike
        words = [args[2] for args in rot]
        assert len(words) in (9, 10) and len(set(words)) == len(words)
        assert not chain
    for i in range(12):
        _sample_calls("symbol-R", spec, i, inv, rot, chain)
        # w(1)^-1 once, then h(st)^-1 once per distinct product st of the symbols
        # {t1,t2}, {t1,t2 t3}, {t1,t3}, {t1 t2,t3}, {t2,t3}, {t2,t1}, {t,1-t} and
        # {t,-t}: t1 t2 (= t2 t1), t1 (t2 t3), t1 t3, (t1 t2) t3, t2 t3, t(1-t) and
        # t(-t), 7, or 6 where the two triple products round alike
        assert len(inv) in (1 + 6, 1 + 7)
        # w(1) and the h words t1, t2, t3, t2 t3, t1 (t2 t3), t1 t2, t1 t3, (t1 t2) t3,
        # t, 1-t, -t, t(1-t), t(-t) with t = t1 unless t1 was redrawn near 1; the
        # triple products may round alike
        words = [(args[1], args[2]) for args in chain]
        assert 1 + 11 <= len(words) <= 1 + 13 and len(set(words)) == len(words)
        assert not rot


# the samplers that build chains, on a spec where each builds all of its chains
CHAIN_SUITES = [("conj-so", GroupSpec("so", 5, 3)), ("conj-su", GroupSpec("su", 5, 3)),
                ("h-mult-so", GroupSpec("so", 5, 3)), ("h-mult-su", GroupSpec("su", 5, 3)),
                ("center-so", GroupSpec("so", 5, 3)), ("symbol-R", GroupSpec("so", 5, 3)),
                ("symbol-C", GroupSpec("su", 5, 3))]


@pytest.mark.parametrize("suite_id,spec", [
    pytest.param(sid, spec, id=sid) for sid, spec in CHAIN_SUITES])
def test_no_chain_built_twice_in_a_sample(monkeypatch, suite_id, spec):
    chain = _recorded_calls(monkeypatch, "_chain")
    for i in range(12):
        _sample_calls(suite_id, spec, i, chain)
        assert chain
        # a call is (spec, root, value) or (spec, root, value, t)
        built = [(args[1], tuple(np.ravel(args[2])), (args[3:] or (0.0,))[0]) for args in chain]
        assert len(set(built)) == len(built), (suite_id, i)


@pytest.mark.parametrize("suite_id,spec", [
    pytest.param(sid, spec, id=sid)
    for sid, spec in CHAIN_SUITES + [("symbol-S1", GroupSpec("su", 5, 3))]])
def test_no_inverse_taken_twice_in_a_sample(monkeypatch, suite_id, spec):
    inv = _recorded_calls(monkeypatch, "INV")
    for i in range(12):
        _sample_calls(suite_id, spec, i, inv)
        inputs = [args[0].tobytes() for args in inv]
        assert len(set(inputs)) == len(inputs), (suite_id, i)


def test_run_suite_side_condition():
    with pytest.raises(SideConditionViolated):
        run_suite(GroupSpec("so", 3, 3), "rot-so", samples=10, seed=7)
    with pytest.raises(SideConditionViolated):
        run_suite(SO43, "rot-so", samples=10, seed=7)  # m - n = 1
    with pytest.raises(SideConditionViolated):
        run_suite(SO43, "h-mult-su", samples=10, seed=7)
    with pytest.raises(UnknownSuite):
        run_suite(SO43, "no-such-suite")


def test_every_suite_reaches_some_spec():
    specs = [GroupSpec("so", 3, 3), GroupSpec("so", 6, 3), GroupSpec("su", 3, 3),
             GroupSpec("su", 6, 3)]
    for sid in suite_ids():
        assert any(suite_side_condition(spec, sid) is None for spec in specs), sid


def test_verify_all_covers_registry():
    report = verify_all(GroupSpec("su", 3, 3), samples=5, seed=1)
    seen = {entry["suite"] for entry in report["suites"]}
    assert seen == set(suite_ids())
    assert report["pass"]


def _relations_functions():
    """Code object -> qualified name of every function and method written in
    relations.py (dataclass-generated dunders are compiled elsewhere)."""
    found = {}

    def collect(namespace):
        for value in vars(namespace).values():
            if isinstance(value, type) and value.__module__ == relations.__name__:
                collect(value)
                continue
            func = value.fget if isinstance(value, property) else value
            func = getattr(func, "__wrapped__", func)   # lru_cache
            code = getattr(func, "__code__", None)
            if code is not None and code.co_filename == relations.__file__:
                found[code] = func.__qualname__
    collect(relations)
    return found


def test_verify_all_reaches_every_function(monkeypatch):
    # a construction in relations.py is checked by verify-all or is retired; two
    # samples cover both braid directions, SU(3,3) the k = 0 return of conj-su,
    # and the negative-control run the failure path
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    # a cached function runs its body only on a miss, so its cache starts empty
    for value in vars(relations).values():
        if hasattr(value, "cache_clear") and value.__module__ == relations.__name__:
            value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for spec in (GroupSpec("so", 6, 3), GroupSpec("su", 6, 3), SU33):
            verify_all(spec, samples=2)
        _negate_opposite_factors(monkeypatch)
        verify_all(GroupSpec("so", 6, 3), samples=2)
    finally:
        sys.setprofile(previous)
    # suite_ids is the CLI's list of suites, and CommutatorTable.to_json writes
    # the tables of acceptance criterion 4 and tests/golden/commutators.json
    exempt = {"suite_ids", "CommutatorTable.to_json"}
    functions = _relations_functions()
    # methods, properties and cached functions are collected too
    assert {"_Words.get", "SuiteReport.passed", "_root_labels",
            "run_suite"} <= set(functions.values())
    missed = {name for code, name in functions.items() if code not in entered}
    assert missed <= exempt, sorted(missed - exempt)


def test_suites_pass_small_samples():
    for spec in (GroupSpec("so", 6, 3), GroupSpec("su", 6, 3)):
        for sid in suite_ids():
            if suite_side_condition(spec, sid) is not None:
                continue
            rep = run_suite(spec, sid, samples=8, seed=3)
            assert rep.passed, (sid, rep.failures[:1])
            assert rep.max_residual < 1e-9


# ---------------------------------------------------------------------------
# trace pairing


def test_trace_pairing_equal_vectors():
    for m in (4, 5, 6):
        spec = GroupSpec("su", m, 3)
        a = np.zeros(spec.tail, dtype=complex)
        a[0] = 1.0
        lhs, rhs = trace_pairing(spec, a, a)
        assert abs(lhs - spec.tail) < 1e-12  # reflection squared is the identity
        assert abs(lhs - rhs) < 1e-9


def test_trace_pairing_orthogonal_vectors():
    spec = GroupSpec("su", 6, 3)
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    lhs, rhs = trace_pairing(spec, a, b)
    assert abs(lhs - (spec.tail - 4)) < 1e-12
    assert abs(lhs - rhs) < 1e-9


def test_trace_pairing_errors():
    with pytest.raises(NotOnSphere):
        trace_pairing(GroupSpec("su", 5, 3), np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(SideConditionViolated):
        trace_pairing(GroupSpec("su", 3, 3), np.zeros(0), np.zeros(0))
    with pytest.raises(SideConditionViolated):
        trace_pairing(GroupSpec("so", 5, 3), np.array([1.0, 0]), np.array([1.0, 0]))
