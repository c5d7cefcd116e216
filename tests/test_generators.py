from functools import partial

import numpy as np
import pytest

from rigidkit.errors import (NotOnSphere, OutOfRange, ShapeMismatch, VariantUnsupported,
                             ZeroParameter)
from rigidkit.matrixcore import (DEFAULT_TOL, MAX_SIZE, GroupSpec, basis_matrix, identity,
                                 in_group, nilpotent_log)
from rigidkit.generators import (PARAM_MAX, Cx, Heis, RVec, Scalar, _param, _read_letter,
                                 check_param, h_rot, param_add, param_from_json, param_to_json,
                                 reflection, w_closed_form, w_elem, w_matrix, x_elem)
from rigidkit.rootsystem import RootLabel, mirror_position, parse_root, root_space_basis, roots
from rigidkit.relations import _Words, rand_param, rng_for
from rigidkit import generators, matrixcore

from reference import (exp_nilpotent, param_neg, verbatim_chain, verbatim_chain_params,
                       verbatim_h_rot)

SO43 = GroupSpec("so", 4, 3)
SO53 = GroupSpec("so", 5, 3)
SU33 = GroupSpec("su", 3, 3)
SU43 = GroupSpec("su", 4, 3)
ALL_SPECS = [GroupSpec("so", 3, 3), SO43, SO53, SU33, SU43, GroupSpec("su", 5, 3)]
ACCEPTANCE = [GroupSpec("so", m, 3) for m in (3, 4, 5, 6)] + [GroupSpec("su", m, 3) for m in (3, 4, 5)]
ACCEPTANCE_ROOTS = [(spec, info.label) for spec in ACCEPTANCE for info in roots(spec)]


def test_x_zero_parameter_is_identity():
    assert np.array_equal(x_elem(SO43, parse_root("L1-L2", SO43), Scalar(0.0)), identity(7))
    assert np.array_equal(x_elem(SU43, parse_root("L3", SU43), Heis(0.0, (0.0,))), identity(7))


def test_x_so_pm_example():
    M = x_elem(SO43, parse_root("L1-L2", SO43), Scalar(2.0))
    expected = identity(7) + 2.0 * (basis_matrix(7, 1, 2) - basis_matrix(7, 5, 4))
    assert np.array_equal(M, expected)


def test_x_matches_exponential_oracle():
    # every generator shape against factor-by-factor exp_nilpotent
    E = lambda s, r, c, v=1.0: basis_matrix(s, r, c, v)
    # su Heisenberg: the ordered product of central and vector factors
    t, a = 0.3, 0.5 - 0.2j
    spec = SU43
    n, s = spec.n, spec.size
    f2a = E(s, 3, 6, 1j)
    f1 = E(s, 3, 7) - E(s, 7, 6)
    f2 = E(s, 3, 7, 1j) + E(s, 7, 6, 1j)
    oracle = (exp_nilpotent((t - a.real * a.imag) * f2a)
              @ exp_nilpotent(a.real * f1) @ exp_nilpotent(a.imag * f2))
    M = x_elem(spec, parse_root("L3", spec), Heis(t, (a,)))
    assert DEFAULT_TOL.close(M, oracle)
    assert in_group(M, spec)


def test_x_matches_exponential_oracle_negative_root():
    E = lambda s, r, c, v=1.0: basis_matrix(s, r, c, v)
    t, a = -0.7, 0.4 + 0.9j
    spec = SU43
    s = spec.size
    f2a = E(s, 6, 3, 1j)
    f1 = E(s, 6, 7) - E(s, 7, 3)
    f2 = E(s, 6, 7, 1j) + E(s, 7, 3, 1j)
    oracle = (exp_nilpotent((t - a.real * a.imag) * f2a)
              @ exp_nilpotent(a.real * f1) @ exp_nilpotent(a.imag * f2))
    M = x_elem(spec, parse_root("-L3", spec), Heis(t, (a,)))
    assert DEFAULT_TOL.close(M, oracle)
    assert in_group(M, spec)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_x_in_group_and_exp_consistency(spec):
    from rigidkit.rootsystem import root_space_basis
    rng = np.random.default_rng(11)
    for info in roots(spec):
        p = rand_param(spec, info.label, rng)
        M = x_elem(spec, info.label, p)
        assert in_group(M, spec)
        if not (spec.unitary and info.label.kind == "vec"):
            # single-exponential shapes agree with exp of the algebra element
            basis = root_space_basis(spec, info.label)
            if isinstance(p, Scalar):
                X = p.t * basis[0]
            elif isinstance(p, Cx):
                X = p.z.real * basis[0] + p.z.imag * basis[1]
            else:
                X = sum(c * f for c, f in zip(p.a, basis))
            assert DEFAULT_TOL.close(M, exp_nilpotent(X))


def test_x_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        x_elem(SO43, parse_root("L1-L2", SO43), Cx(1.0 + 0j))
    with pytest.raises(ShapeMismatch):
        x_elem(SU43, parse_root("L3", SU43), RVec((1.0,)))
    with pytest.raises(ShapeMismatch):
        x_elem(SO53, parse_root("L3", SO53), RVec((1.0,)))  # wrong length


@pytest.mark.parametrize("spec, root, p", [
    (SO43, "L1-L2", Scalar(float("inf"))),
    (SO43, "L1-L2", Scalar(float("nan"))),
    (SU43, "L1-L2", Cx(complex(1.0, float("inf")))),
    (SU43, "2L3", Scalar(float("-inf"))),
    (SO53, "L3", RVec((1.0, float("nan")))),
    (SU43, "L3", Heis(float("inf"), (1.0 + 0j,))),
    (SU43, "L3", Heis(0.5, (complex(float("nan"), 0.0),))),
    # finite, but above PARAM_MAX
    (SO43, "L1-L2", Scalar(1e300)),
    (SO53, "L3", RVec((1e200, 1e200))),
    (SU43, "L1-L2", Cx(complex(2e37, 0.0))),
    (SU43, "2L3", Scalar(-1e38)),
    (SU43, "L3", Heis(1.1e37, (1.1e37 + 0j,))),
], ids=["scalar-inf", "scalar-nan", "cx-inf", "long-inf", "rvec-nan", "heis-t-inf", "heis-a-nan",
        "scalar-huge", "rvec-norm-overflows", "cx-huge", "long-huge", "heis-norm-huge"])
def test_non_finite_parameter_rejected(spec, root, p):
    # one check, so one message, whichever builder takes the parameter
    label = parse_root(root, spec)
    messages = set()
    for build in (x_elem, w_matrix, w_elem, w_closed_form):
        with pytest.raises(OutOfRange, match="finite") as err:
            build(spec, label, p)
        messages.add(str(err.value))
    assert messages == {f"parameter of root {label} must be finite with norm at most "
                        f"{PARAM_MAX:.3g}, got {p}"}


@pytest.mark.parametrize("spec, root, p, message", [
    (SO43, "L1-L2", Cx(1j), "root L1-L2 of SO+(4,3) takes Scalar, got Cx"),
    (SO53, "-L3", Heis(0.0, (1.0, 0.0)), "root -L3 of SO+(5,3) takes RVec, got Heis"),
    (SU43, "L1+L2", Scalar(1.0), "root L1+L2 of SU(4,3) takes Cx, got Scalar"),
    (SU43, "2L3", Cx(1.0), "root 2L3 of SU(4,3) takes Scalar, got Cx"),
    (SU43, "L3", RVec((1.0,)), "root L3 of SU(4,3) takes Heis, got RVec"),
    (SO43, "L1-L2", "junk", "root L1-L2 of SO+(4,3) takes Scalar, got str"),
    # raw values that are no number (scalar roots) or no 1-D array of numbers (+-L_i)
    (SO43, "L1-L2", None, "root L1-L2 of SO+(4,3) takes Scalar, got NoneType"),
    (SO43, "L1-L2", [1.0, 2.0], "root L1-L2 of SO+(4,3) takes Scalar, got list"),
    (SO43, "L1-L2", 1j, "root L1-L2 of SO+(4,3) takes Scalar, got complex"),
    (SU43, "2L3", {"t": 1.0}, "root 2L3 of SU(4,3) takes Scalar, got dict"),
    (SU43, "L1+L2", "1j", "root L1+L2 of SU(4,3) takes Cx, got str"),
    (SO53, "L3", None, "root L3 of SO+(5,3) takes RVec, got NoneType"),
    (SO53, "L3", 1.0, "root L3 of SO+(5,3) takes RVec, got float"),
    (SO53, "L3", "ab", "root L3 of SO+(5,3) takes RVec, got str"),
    (SU43, "L3", [[1.0]], "root L3 of SU(4,3) takes Heis, got list"),
    (SU43, "-L3", (1.0, None), "root -L3 of SU(4,3) takes Heis, got tuple"),
    # a central part t that is no real number, as an object and as the raw (a, t)
    (SU43, "L3", Heis("junk", (1.0,)), "root L3 of SU(4,3) takes a real central part t, got str"),
    (SU43, "-L3", Heis(None, (1.0,)),
     "root -L3 of SU(4,3) takes a real central part t, got NoneType"),
    (SU43, "L3", Heis(1j, (1.0,)), "root L3 of SU(4,3) takes a real central part t, got complex")],
    ids=["so-pm", "so-vec", "su-pm", "su-long", "su-vec", "not-a-parameter", "none-for-scalar",
         "list-for-scalar", "complex-for-real", "dict-for-scalar", "str-for-complex",
         "none-for-vector", "float-for-vector", "str-for-vector", "2d-vector", "none-in-vector",
         "str-for-t", "none-for-t", "complex-for-t"])
def test_wrong_parameter_class_is_named(spec, root, p, message):
    # the class PARAM_CLASS gives each (family, root kind), named as it always was;
    # w_matrix reads anything but a parameter object as a raw value, and check_param
    # refuses a raw value of the wrong type with the same message
    label = parse_root(root, spec)
    builds = [partial(build, spec, label, p) for build in (x_elem, w_elem, w_closed_form, w_matrix)]
    if "central part" in message:   # the same parameter as the raw (a, t)
        builds.append(partial(w_matrix, spec, label, p.a, p.t))
    for build in builds:
        with pytest.raises(ShapeMismatch) as err:
            build()
        assert str(err.value) == message


def _bound_cases():
    so, su = GroupSpec("so", MAX_SIZE - 3, 3), GroupSpec("su", MAX_SIZE - 3, 3)
    P, k = PARAM_MAX * (1.0 - 1e-15), so.tail
    return [(so, "L1-L2", Scalar(P)), (so, "L1", RVec([P] + [0.0] * (k - 1))),
            (so, "-L2", RVec([P / np.sqrt(k)] * k)), (su, "L1-L2", Cx(complex(0.6 * P, 0.8 * P))),
            (su, "2L1", Scalar(-P)), (su, "L1", Heis(P, (0j,) * k)),
            (su, "L2", Heis(0.0, (complex(P),) + (0j,) * (k - 1))),
            (su, "-L1", Heis(0.6 * P, (complex(0.8 * P),) + (0j,) * (k - 1))),
            (su, "L3", Heis(0.0, (complex(P, P) / np.sqrt(2 * k),) * k))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, root, p", _bound_cases(),
                         ids=["so-pm", "so-vec", "so-vec-spread", "su-pm", "su-long", "su-heis-t",
                              "su-heis-a", "su-heis-mixed", "su-heis-spread"])
def test_chain_certificate_at_parameter_bound_does_not_overflow(monkeypatch, spec, root, p):
    # at the largest accepted parameter and the largest spec, every matrix and
    # every Frobenius norm of the certificate is finite (the verdict may be False)
    norms = []
    frobenius = matrixcore._frobenius
    monkeypatch.setattr(matrixcore, "_frobenius", lambda X: norms.append(frobenius(X)) or norms[-1])
    cert = w_elem(spec, parse_root(root, spec), p)
    assert norms and all(np.isfinite(norms))
    assert all(np.isfinite(M).all() for M in (cert.w, cert.x_i, cert.y_i, cert.x_next))


def test_additivity_and_inverse():
    rng = np.random.default_rng(12)
    for spec in ALL_SPECS:
        labels = [i.label for i in roots(spec)]
        for _ in range(40):
            root = labels[int(rng.integers(len(labels)))]
            p = rand_param(spec, root, rng)
            q = rand_param(spec, root, rng)
            lhs = x_elem(spec, root, p) @ x_elem(spec, root, q)
            assert DEFAULT_TOL.close(lhs, x_elem(spec, root, param_add(spec, root, p, q)))
            inv = x_elem(spec, root, p) @ x_elem(spec, root, param_neg(p))
            assert DEFAULT_TOL.close(inv, identity(spec.size))


def _signed_zero_params(spec, root):
    """Parameters at the signed-zero edges of a root's letter: zeros of either sign
    in every part, and a negative long-root t."""
    z = (0.0, -0.0)
    if root.kind == "long":
        return [Scalar(t) for t in (*z, -1.25)]
    if root.kind == "pm":
        return [Cx(complex(a, b)) for a in (*z, -0.5) for b in (*z, 1.5)] if spec.unitary \
            else [Scalar(t) for t in (*z, -0.5)]
    entries = [complex(a, b) for a in (*z, -0.5) for b in z] if spec.unitary else [*z, -0.5]
    vecs = [tuple(entries[(i + j) % len(entries)] for j in range(spec.tail))
            for i in range(len(entries))]
    if spec.unitary:
        return [Heis(t, v) for t in (*z, -0.75) for v in vecs]
    return [RVec(v) for v in vecs]


def test_letter_inverse_is_the_negated_letter_byte_for_byte():
    # commutator_decompose inverts its letters as 2I - X with the a0 entry
    # turned into 2 Re(a0) - a0; that must be the letter of the negated
    # parameter, bit for bit, signed zeros included
    rng = np.random.default_rng(26)
    cases = ACCEPTANCE_ROOTS + [(GroupSpec("su", 7, 3), info.label)
                                for info in roots(GroupSpec("su", 7, 3))]
    count = 0
    for spec, root in cases:
        params = [rand_param(spec, root, rng) for _ in range(20)]
        for p in params + _signed_zero_params(spec, root):
            X = x_elem(spec, root, p)
            inv = generators._letter_inverse(root, X)
            assert inv.tobytes() == x_elem(spec, root, param_neg(p)).tobytes(), (spec, root, p)
            count += 1
    assert count > 4000


@pytest.mark.parametrize("spec", ACCEPTANCE + [GroupSpec("su", 7, 3)], ids=str)
def test_letter_stack_is_the_one_letter_calls(spec):
    # _letter writes a stack of any leading shape, here (W,) and (2, W/2), byte for
    # byte its one-letter calls: zeros of either sign in every part, and draws
    rng = np.random.default_rng(27)
    for info in roots(spec):
        root = info.label
        params = _signed_zero_params(spec, root) + [rand_param(spec, root, rng) for _ in range(6)]
        args = [generators._x_args(spec, root.kind, *check_param(spec, root, p)[:2])
                for p in params[:len(params) // 2 * 2]]
        singles = [generators._letter(spec, root, *a).tobytes() for a in args]
        columns = [np.array(c) for c in zip(*args)]
        for lead in ((len(args),), (2, len(args) // 2)):
            S = generators._letter(spec, root, *(c.reshape(lead + c.shape[1:]) for c in columns))
            assert S.shape == lead + (spec.size,) * 2
            assert [M.tobytes() for M in S.reshape((-1,) + S.shape[-2:])] == singles, (root, lead)


def test_heis_readback_and_composition_law():
    # every unitary vector root of every acceptance spec, both signs
    rng = np.random.default_rng(13)
    cases = [(spec, root) for spec, root in ACCEPTANCE_ROOTS
             if spec.unitary and root.kind == "vec"]
    assert len(cases) == 12
    for spec, root in cases:
        for _ in range(20):
            p = rand_param(spec, root, rng)
            q = rand_param(spec, root, rng)
            assert _param(spec, root, *_read_letter(spec, root, x_elem(spec, root, p))) == p
            comp = param_add(spec, root, p, q)
            # vector parts add; the central part picks up -Im<a, b>
            assert np.allclose(comp.a, np.add(p.a, q.a))
            corr = float(np.imag(np.vdot(np.asarray(q.a), np.asarray(p.a))))
            assert abs(comp.t - (p.t + q.t - corr)) < 1e-12


def _weight(spec, k):
    """Weight of basis vector k (0-based): L_{k+1}, -L_{k+1-n}, or 0 on the tail."""
    w = np.zeros(spec.n, dtype=int)
    if k < 2 * spec.n:
        w[k % spec.n] = 1 if k < spec.n else -1
    return w


def _flat(p):
    return np.hstack([np.ravel(v) for v in param_to_json(p).values()])


@pytest.mark.parametrize("spec, root", ACCEPTANCE_ROOTS,
                         ids=[f"{spec}-{root}" for spec, root in ACCEPTANCE_ROOTS])
def test_stencil_round_trip(spec, root):
    # x_elem writes through the stencil, _read_letter reads back off the log
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = rand_param(spec, root, rng)
        got = _param(spec, root, *_read_letter(spec, root, nilpotent_log(x_elem(spec, root, p))))
        assert type(got) is type(p)
        assert np.allclose(_flat(got), _flat(p), rtol=0, atol=1e-12)
    # the basis sits exactly at the stencil's entries and their mirrors, and
    # every such entry has the root as its weight
    kind, (row, col) = root.position
    lead = [(row, c) for c in range(2 * spec.n, spec.size)] if kind == "vec" else [(row, col)]
    want = set(lead) | {mirror_position(spec.n, *pos) for pos in lead}
    got = {(int(r), int(c)) for f in root_space_basis(spec, root) for r, c in np.argwhere(f != 0)}
    assert got == want
    for r, c in want:
        assert tuple(_weight(spec, r) - _weight(spec, c)) == root.coeffs


def test_w_example_so_diff():
    cert = w_elem(SO43, parse_root("L1-L2", SO43), Scalar(1.0))
    W = np.zeros((7, 7), dtype=complex)
    W[1, 0], W[0, 1] = -1.0, 1.0  # swap (1,2) with signs
    W[4, 3], W[3, 4] = -1.0, 1.0  # swap (4,5) with signs
    W[2, 2] = W[5, 5] = W[6, 6] = 1.0
    assert DEFAULT_TOL.close(cert.w, W)
    assert cert.reflection_checked


def test_w_example_so_vector():
    a = (np.sqrt(2.0), 0.0)
    cert = w_elem(SO53, parse_root("L3", SO53), RVec(a))
    W = cert.w
    assert abs(W[2, 5] + 1.0) < 1e-12  # -2|a|^-2 = -1 entry moved by the (3,6) swap
    assert abs(W[5, 2] + 1.0) < 1e-12
    B = W[6:, 6:].real
    assert np.allclose(B, np.diag([-1.0, 1.0]))
    assert cert.reflection_checked


def test_w_example_su_long():
    cert = w_elem(SU43, parse_root("L3", SU43), Heis(1.0, (0.0,)))
    W = cert.w
    assert abs(W[2, 5] - 1j) < 1e-12 and abs(W[5, 2] - 1j) < 1e-12
    assert cert.reflection_checked


def test_w_zero_parameter():
    with pytest.raises(ZeroParameter):
        w_elem(SO43, parse_root("L1-L2", SO43), Scalar(0.0))
    with pytest.raises(ZeroParameter):
        w_closed_form(SU43, parse_root("L3", SU43), Heis(0.0, (0.0,)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_chain_reflection_randomized(spec):
    rng = np.random.default_rng(14)
    for info in roots(spec):
        for _ in range(5):
            p = rand_param(spec, info.label, rng, invertible=True)
            cert = w_elem(spec, info.label, p)
            assert cert.reflection_checked
            assert DEFAULT_TOL.close(cert.x_i @ cert.y_i @ cert.x_next, cert.w)


def test_reflection_map():
    r = RootLabel((1, -1, 0))
    assert np.allclose(reflection(r, [3, 2, 1]), [2, 3, 1])
    assert np.allclose(reflection(RootLabel((1, 1, 0)), [3, 2, 1]), [-2, -3, 1])
    assert np.allclose(reflection(RootLabel((0, 0, 2)), [3, 2, 1]), [3, 2, -1])


def _h(spec, root, p1, p2):
    """h_root(p1, p2) = w(p1) w(p2)^-1, as acceptance criterion 9 forms it."""
    return w_matrix(spec, root, p1) @ np.linalg.inv(w_matrix(spec, root, p2))


def test_h_identity_when_parameters_match():
    for spec, root, p in [(SO43, "L1-L2", Scalar(1.3)),
                          (SU43, "L3", Heis(0.4, (0.2 + 0.1j,)))]:
        h = _h(spec, parse_root(root, spec), p, p)
        assert DEFAULT_TOL.close(h, identity(spec.size))


def test_h_diagonal_example_so():
    h = _h(SO43, parse_root("L1-L2", SO43), Scalar(3.0), Scalar(1.0))
    assert DEFAULT_TOL.close(h, np.diag([3.0, 1 / 3, 1, 1 / 3, 3, 1, 1]).astype(complex))


def test_h_diagonal_example_su():
    # derived by multiplying the two closed chain forms
    z = np.exp(1j * np.pi / 4)
    h = _h(SU33, parse_root("L1-L2", SU33), Cx(z), Cx(1.0 + 0j))
    expected = np.diag([z, 1 / z, 1.0, 1 / np.conj(z), np.conj(z), 1.0])
    assert DEFAULT_TOL.close(h, expected)


def test_h_rot_identity_cases():
    for spec in (SO53, GroupSpec("su", 5, 3)):
        assert DEFAULT_TOL.close(h_rot(spec, 1, (1.0, 0.0)), identity(spec.size))
        assert DEFAULT_TOL.close(h_rot(spec, 1, (-1.0, 0.0)), identity(spec.size))


def _count_builds(monkeypatch):
    """Count the letters generators._letter writes: one for a one-letter call, and
    one per letter of a stack, whose leading shape is the value's less a vector
    part's axis; the returned list grows by one per letter."""
    calls = []
    build = generators._letter

    def counted(spec, root, value, *a0):
        shape = np.shape(value)
        stack = shape[:-1] if root.kind == "vec" else shape
        calls.extend([root] * int(np.prod(stack, dtype=int)))
        return build(spec, root, value, *a0)
    monkeypatch.setattr(generators, "_letter", counted)
    return calls


def test_chain_builds_each_distinct_factor_once(monkeypatch):
    # x1 is x0 for every chain but the general Heisenberg one, and then X0
    # serves as X1 too; the factors and w stay bit-identical to three builds
    su53 = GroupSpec("su", 5, 3)
    cases = [(SO43, "L1-L2", Scalar(1.5), 2), (SO53, "-L2", RVec((0.5, -1.0)), 2),
             (SU43, "L1+L2", Cx(0.3 - 0.8j), 2), (SU43, "-2L3", Scalar(-0.7), 2),
             (su53, "L1", Heis(0.9, (0.0, 0.0)), 2), (su53, "L1", Heis(0.0, (0.5, 1j)), 2),
             (su53, "-L2", Heis(0.9, (0.5, 1j)), 3)]
    calls = _count_builds(monkeypatch)
    for spec, text, p, builds in cases:
        root = parse_root(text, spec)
        calls.clear()
        w = w_matrix(spec, root, p)
        assert len(calls) == builds, (spec, text)
        x0, y0, x1 = verbatim_chain_params(spec, root, p)
        X0, Y0, X1 = (x_elem(spec, r, q) for r, q in ((root, x0), (-root, y0), (root, x1)))
        assert np.array_equal(w, X0 @ Y0 @ X1)


def _norm(p):
    value, t = p.raw
    return np.hypot(t, np.linalg.norm(value))


def _chain_cases():
    """(spec, root, p): 20 rand_param draws for every root of the acceptance specs, one
    draw each rescaled to norm 1e-3 and 1e3, the Heisenberg branches a = 0, t = 0 and
    both nonzero, and parameters with a -0.0 part."""
    rng = np.random.default_rng(22)
    cases = []
    for spec, root in ACCEPTANCE_ROOTS:
        draws = [rand_param(spec, root, rng, invertible=True) for _ in range(20)]
        cases += [(spec, root, p) for p in draws]
        p = draws[0]
        for norm in (1e-3, 1e3):
            s = norm / _norm(p)
            q = (Scalar(p.t * s) if isinstance(p, Scalar) else Cx(p.z * s)
                 if isinstance(p, Cx) else RVec([x * s for x in p.a])
                 if isinstance(p, RVec) else Heis(p.t * s, [x * s for x in p.a]))
            cases.append((spec, root, q))
        if isinstance(p, Heis):
            cases += [(spec, root, Heis(p.t, (0j,) * spec.tail)), (spec, root, Heis(0.0, p.a)),
                      (spec, root, Heis(p.t or 0.5, p.a))]
    so, su = GroupSpec("so", 5, 3), GroupSpec("su", 5, 3)
    cases += [(so, parse_root("-L2", so), RVec((-0.0, 0.7))),
              (su, parse_root("L1", su), Heis(0.3, (complex(-0.0, -0.0), 0.6 + 0.2j))),
              (su, parse_root("L1", su), Heis(0.0, (complex(0.4, -0.0), -0.0))),
              (su, parse_root("L1-L3", su), Cx(complex(-0.0, 1.2)))]
    return cases


def test_chain_is_byte_identical_to_the_parameter_object_path():
    # the chain of raw values, through every caller, against the chain as first
    # written: parameter objects for its three factors, each letter written entry by
    # entry, then X0 @ Y0 @ X1
    for spec, root, p in _chain_cases():
        w, X0, Y0, X1 = (M.tobytes() for M in verbatim_chain(spec, root, p))
        cert = w_elem(spec, root, p)
        assert w_matrix(spec, root, p).tobytes() == w, (spec, root, p)
        assert [M.tobytes() for M in (cert.w, cert.x_i, cert.y_i, cert.x_next)] == [w, X0, Y0, X1]
        raw = ((np.array(p.a), p.t) if isinstance(p, Heis) else (np.array(p.a),)
               if isinstance(p, RVec) else (p.z,) if isinstance(p, Cx) else (p.t,))
        assert _Words(spec).w(root, *raw).tobytes() == w, (spec, root, p)


def _stack_cases():
    """(spec, root, raw parameters (value, t)) of the chain stacks compared with one-chain
    calls: for every root of the acceptance specs, 20 rand_param draws, the same draws
    rescaled to norm 1e-3 and to 1e3, a W = 1 stack, and for a +-L_i root one stack
    mixing the Heisenberg branches a = 0, t = 0 and general (unitary) and a vector
    entry of -0.0."""
    rng = np.random.default_rng(23)
    cases = []
    for spec, root in ACCEPTANCE_ROOTS:
        draws = [rand_param(spec, root, rng, invertible=True) for _ in range(20)]
        raws = [p.raw for p in draws]
        cases += [(spec, root, raws), (spec, root, raws[:1])]
        for norm in (1e-3, 1e3):
            scale = [norm / _norm(p) for p in draws]
            cases.append((spec, root, [(np.multiply(v, s), t * s) for (v, t), s in zip(raws, scale)]))
        if root.kind == "vec":
            a, t = np.array(raws[0][0]), raws[0][1]
            # a -0.0 entry, or a -0.0 real part where the vector has one entry
            zero = a.copy()
            zero[0] = complex(-0.0, a[0].imag) if spec.tail == 1 and spec.unitary else -0.0
            heis = [(0 * a, t), (a, 0.0)] if spec.unitary else []
            cases.append((spec, root, [(a, t), *heis] + [(zero, t)] * bool(zero.any())))
    return cases


def test_chain_stacks_are_byte_identical_to_one_chain_calls():
    # w_matrix on W values returns the (W, N, N) stack of the W one-chain calls, bit for
    # bit; so do the stacked inverse and the h product against w(1)^-1 broadcast over a
    # stack, which the relation word tables take
    for spec, root, raws in _stack_cases():
        values, ts = np.array([v for v, _ in raws]), [t for _, t in raws]
        S = w_matrix(spec, root, values, ts)
        singles = [w_matrix(spec, root, v, t) for v, t in raws]
        assert S.shape == (len(raws), spec.size, spec.size), (spec, root)
        assert [M.tobytes() for M in S] == [M.tobytes() for M in singles], (spec, root)
        assert [M.tobytes() for M in np.linalg.inv(S)] == [np.linalg.inv(M).tobytes()
                                                           for M in singles], (spec, root)
        if root.kind != "vec":
            one_inv = np.linalg.inv(w_matrix(spec, root, 1.0))
            assert [M.tobytes() for M in S @ one_inv] == [(M @ one_inv).tobytes()
                                                          for M in singles], (spec, root)


@pytest.mark.parametrize("spec, root, values, error", [
    (SO43, "L1-L2", [0.5, 0.0], ZeroParameter), (SO43, "L1-L2", [0.5, float("nan")], OutOfRange),
    (SU43, "L3", [[0.3 + 0j], [0j]], ZeroParameter),
    (SU43, "L3", [[0.3 + 0j], [complex(float("inf"), 0.0)]], OutOfRange)])
def test_chain_stack_validates_each_value_as_one_chain(spec, root, values, error):
    # a stack holding a bad value fails as that value's one-chain call, with its message
    label = parse_root(root, spec)
    with pytest.raises(error) as one:
        w_matrix(spec, label, np.array(values[-1]) if label.kind == "vec" else values[-1])
    with pytest.raises(error) as stacked:
        w_matrix(spec, label, np.array(values))
    assert str(stacked.value) == str(one.value)


def test_h_rot_builds_each_distinct_factor_once(monkeypatch):
    # 6 distinct factors of the 9-letter orthogonal word, 4 of the 6-letter
    # unitary one; the 2 fixed factors x_{+-L_n}(-sqrt2 e_j) are built on the
    # first call for (spec, j) only, and the product is still the verbatim word
    cases = [(GroupSpec("so", 6, 3), 2, "real", 6), (GroupSpec("su", 6, 3), 1, "real", 4),
             (GroupSpec("su", 6, 3), 2, "imag", 4)]
    generators._rot_frame.cache_clear()
    calls = _count_builds(monkeypatch)
    for spec, j, variant, builds in cases:
        ab = (np.cos(0.7), np.sin(0.7))
        for warm in (False, True):
            calls.clear()
            M = h_rot(spec, j, ab, variant)
            assert len(calls) == builds - 2 * warm, (spec, variant, warm)
            assert np.array_equal(M, verbatim_h_rot(spec, j, ab, variant))


_H_ROT_SPECS = [GroupSpec(f, m, 3) for f in ("so", "su") for m in range(5, 9)]


@pytest.mark.parametrize("spec, j, variant", [
    (spec, j, variant) for spec in _H_ROT_SPECS for j in range(1, spec.tail)
    for variant in (("real", "imag") if spec.unitary else ("real",))],
    ids=str)
def test_h_rot_is_the_verbatim_word(spec, j, variant):
    # the special angles (a sign, a zero, a negative zero) and a few generic ones,
    # byte for byte, one word at a time and as one stack
    t = np.random.default_rng([spec.size, j]).uniform(-np.pi, np.pi, size=4)
    angles = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 1.0),
              *zip(np.cos(t), np.sin(t))]
    words = [verbatim_h_rot(spec, j, ab, variant).tobytes() for ab in angles]
    assert [h_rot(spec, j, ab, variant).tobytes() for ab in angles] == words
    stack = h_rot(spec, np.full(len(angles), j), np.array(angles).T, variant)
    assert stack.shape == (len(angles), spec.size, spec.size)
    assert [M.tobytes() for M in stack] == words


def test_h_rot_stack_mixes_planes_and_variants():
    # W words over every plane and both variants, in one call
    spec = GroupSpec("su", 7, 3)
    rng = np.random.default_rng(11)
    js = rng.integers(1, spec.tail, size=12)
    theta = rng.uniform(-np.pi, np.pi, size=12)
    variants = ["imag" if x else "real" for x in rng.integers(0, 2, size=12)]
    stack = h_rot(spec, js, (np.cos(theta), np.sin(theta)), variants)
    for M, j, t, variant in zip(stack, js, theta, variants):
        assert M.tobytes() == verbatim_h_rot(spec, j, (np.cos(t), np.sin(t)), variant).tobytes()


def test_h_rot_frame_is_read_only():
    spec = GroupSpec("su", 6, 3)
    h_rot(spec, 2, (0.6, 0.8))
    _, fixed = generators._rot_frame(spec, 2)
    for X in fixed:
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 0.0


@pytest.mark.parametrize("spec", [SO53, GroupSpec("su", 6, 3)], ids=str)
def test_h_rot_j_range(monkeypatch, spec):
    # j names the tail plane (j, j+1): 1 <= j <= m-n-1, checked before any build
    calls = _count_builds(monkeypatch)
    for j in (0, spec.tail):
        with pytest.raises(OutOfRange):
            h_rot(spec, j, (1.0, 0.0))
    assert calls == []
    h_rot(spec, spec.tail - 1, (1.0, 0.0))
    assert calls


def test_h_rot_quarter_turn_block():
    s = np.sqrt(2.0) / 2.0
    M = h_rot(SO53, 1, (s, s))
    assert np.allclose(M[6:, 6:].real, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    M = h_rot(SO53, 1, (0.0, 1.0))
    assert np.allclose(M[6:, 6:].real, -np.eye(2), atol=1e-12)


def test_h_rot_imag_variant_block():
    spec = GroupSpec("su", 5, 3)
    th = 0.6
    M = h_rot(spec, 1, (np.cos(th), np.sin(th)), "imag")
    B = M[6:, 6:]
    expected = np.array([[np.cos(2 * th), -1j * np.sin(2 * th)],
                         [-1j * np.sin(2 * th), np.cos(2 * th)]])
    assert np.allclose(B, expected, atol=1e-12)


def test_h_rot_circle_homomorphism():
    rng = np.random.default_rng(15)
    for spec in (GroupSpec("so", 6, 3), GroupSpec("su", 5, 3)):
        variants = ("real", "imag") if spec.unitary else ("real",)
        for variant in variants:
            for _ in range(25):
                t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
                a, b = np.cos(t1), np.sin(t1)
                c, d = np.cos(t2), np.sin(t2)
                lhs = h_rot(spec, 1, (a, b), variant) @ h_rot(spec, 1, (c, d), variant)
                rhs = h_rot(spec, 1, (a * c - b * d, a * d + b * c), variant)
                assert DEFAULT_TOL.close(lhs, rhs)


def test_h_rot_errors():
    with pytest.raises(OutOfRange):
        h_rot(SO43, 1, (1.0, 0.0))  # m - n = 1, no rotation slots
    with pytest.raises(OutOfRange):
        h_rot(SO53, 2, (1.0, 0.0))
    with pytest.raises(NotOnSphere):
        h_rot(SO53, 1, (1.0, 1.0))
    with pytest.raises(VariantUnsupported):
        h_rot(SO53, 1, (1.0, 0.0), "imag")


@pytest.mark.parametrize("ab", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)],
                         ids=["nan-a", "nan-b", "nan-both"])
def test_h_rot_rejects_nan(ab):
    # a NaN makes |a|^2 + |b|^2 - 1 compare false against any bound
    with pytest.raises(NotOnSphere):
        h_rot(GroupSpec("su", 5, 3), 1, ab)


def test_closed_form_example_so_sum():
    pd = w_closed_form(SO43, parse_root("L1+L2", SO43), Scalar(2.0))
    assert pd.perm == (5, 4, 3, 2, 1, 6, 7)
    d = np.asarray(pd.diag)
    assert d[0] == -0.5 and d[1] == 0.5 and d[3] == -2.0 and d[4] == 2.0
    assert DEFAULT_TOL.close(pd.matrix(), w_matrix(SO43, parse_root("L1+L2", SO43), Scalar(2.0)))


def test_closed_form_example_su_vector_reflection():
    a = (1.0 + 0j, 1.0 + 0j)  # |a|^2 = 2
    spec = GroupSpec("su", 5, 3)
    pd = w_closed_form(spec, parse_root("L3", spec), Heis(0.0, a))
    d = np.asarray(pd.diag)
    assert abs(d[2] + 1.0) < 1e-12 and abs(d[5] + 1.0) < 1e-12
    expected_block = np.eye(2) - np.outer(np.conj(a), a)  # delta - 2 conj(a_k) a_l / |a|^2
    assert np.allclose(pd.block, expected_block)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_closed_form_matches_chain_product(spec):
    # round-trip oracle over every root, random parameters
    labels = [i.label for i in roots(spec)]
    count = 0
    i = 0
    while count < 500:
        rng = rng_for(21, "closedform", i)
        i += 1
        root = labels[int(rng.integers(len(labels)))]
        p = rand_param(spec, root, rng, invertible=True)
        pd = w_closed_form(spec, root, p)
        assert DEFAULT_TOL.close(pd.matrix(), w_matrix(spec, root, p))
        count += 1


def test_param_json_roundtrip():
    for p in (Scalar(1.5), Cx(0.3 - 0.7j), RVec((1.0, -2.0)), Heis(0.25, (0.1 + 0.9j, -1.0 + 0j))):
        assert param_from_json(param_to_json(p)) == p
