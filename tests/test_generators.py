import numpy as np
import pytest

from rigidkit.errors import (NotOnSphere, OutOfRange, ShapeMismatch, VariantUnsupported,
                             ZeroParameter)
from rigidkit.matrixcore import (DEFAULT_TOL, MAX_SIZE, GroupSpec, basis_matrix,
                                 exp_nilpotent, identity, in_group, nilpotent_log)
from rigidkit.generators import (PARAM_MAX, Cx, Heis, RVec, Scalar, h_elem, h_rot,
                                 heis_compose, heis_read, param_add, param_from_json,
                                 param_neg, param_to_json, reflection, w_closed_form,
                                 w_elem, w_matrix, x_elem)
from rigidkit.rootsystem import RootLabel, mirror_position, parse_root, root_space_basis, roots
from rigidkit.relations import _extract_term, rand_param, rng_for
from rigidkit import generators, matrixcore

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
    label = parse_root(root, spec)
    for build in (x_elem, w_matrix, w_elem, w_closed_form):
        with pytest.raises(OutOfRange, match="finite"):
            build(spec, label, p)


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
            assert heis_read(spec, root, x_elem(spec, root, p)) == p
            comp = heis_compose(spec, root, p, q)
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
    # x_elem writes through the stencil, _extract_term reads back off the log
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = rand_param(spec, root, rng)
        got = _extract_term(spec, root, nilpotent_log(x_elem(spec, root, p)), False)
        assert type(got) is type(p)
        assert np.allclose(_flat(got), _flat(p), rtol=0, atol=1e-12)
    # the basis sits exactly at the stencil's entries and their mirrors, and
    # every such entry has the root as its weight
    kind, (row, col) = root.position
    lead = [(row, c) for c in range(2 * spec.n, spec.size)] if kind == "vec" else [(row, col)]
    want = set(lead) | {mirror_position(spec, *pos) for pos in lead}
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


def test_h_identity_when_parameters_match():
    for spec, root, p in [(SO43, "L1-L2", Scalar(1.3)),
                          (SU43, "L3", Heis(0.4, (0.2 + 0.1j,)))]:
        h = h_elem(spec, parse_root(root, spec), p, p)
        assert DEFAULT_TOL.close(h, identity(spec.size))


def test_h_diagonal_example_so():
    h = h_elem(SO43, parse_root("L1-L2", SO43), Scalar(3.0), Scalar(1.0))
    assert DEFAULT_TOL.close(h, np.diag([3.0, 1 / 3, 1, 1 / 3, 3, 1, 1]).astype(complex))


def test_h_diagonal_example_su():
    # derived by multiplying the two closed chain forms
    z = np.exp(1j * np.pi / 4)
    h = h_elem(SU33, parse_root("L1-L2", SU33), Cx(z), Cx(1.0 + 0j))
    expected = np.diag([z, 1 / z, 1.0, 1 / np.conj(z), np.conj(z), 1.0])
    assert DEFAULT_TOL.close(h, expected)


def test_h_rot_identity_cases():
    for spec in (SO53, GroupSpec("su", 5, 3)):
        assert DEFAULT_TOL.close(h_rot(spec, 1, (1.0, 0.0)), identity(spec.size))
        assert DEFAULT_TOL.close(h_rot(spec, 1, (-1.0, 0.0)), identity(spec.size))


def _count_builds(monkeypatch):
    """Count generators._x_matrix calls; the returned list grows by one per build."""
    calls = []
    build = generators._x_matrix

    def counted(spec, root, p):
        calls.append(root)
        return build(spec, root, p)
    monkeypatch.setattr(generators, "_x_matrix", counted)
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
        x0, y0, x1 = generators.chain_params(spec, root, p)
        X0, Y0, X1 = (x_elem(spec, r, q) for r, q in ((root, x0), (-root, y0), (root, x1)))
        assert np.array_equal(w, X0 @ Y0 @ X1)


def _verbatim_h_rot(spec, j, ab, variant="real"):
    """The rotation word built factor by factor, one build per letter."""
    a, b = ab
    s2, k = np.sqrt(2.0), spec.tail
    pos, neg = parse_root(f"L{spec.n}", spec), parse_root(f"-L{spec.n}", spec)
    e = np.zeros(k)
    e[j - 1] = -s2
    if spec.unitary:
        c = np.zeros(k, dtype=complex)
        c[j - 1], c[j] = s2 * a, s2 * b * (1j if variant == "imag" else 1.0)
        pc, pe = Heis(0.0, tuple(c)), Heis(0.0, tuple(e))
        word = [(pos, pc), (neg, pc), (pos, pc), (pos, pe), (neg, pe), (pos, pe)]
    else:
        va, vb = np.zeros(k), np.zeros(k)
        va[j - 1], vb[j] = s2 * a, s2 * b
        pa, pb, pe = RVec(va), RVec(vb), RVec(e)
        word = [(pos, pa), (pos, pb), (neg, pa), (neg, pb), (pos, pa), (pos, pb),
                (pos, pe), (neg, pe), (pos, pe)]
    M = identity(spec.size)
    for root, q in word:
        M = M @ x_elem(spec, root, q)
    return M


def test_h_rot_builds_each_distinct_factor_once(monkeypatch):
    # 6 distinct factors of the 9-letter orthogonal word, 4 of the 6-letter
    # unitary one; the product is still the verbatim word, bit for bit
    cases = [(GroupSpec("so", 6, 3), 2, "real", 6), (GroupSpec("su", 6, 3), 1, "real", 4),
             (GroupSpec("su", 6, 3), 2, "imag", 4)]
    calls = _count_builds(monkeypatch)
    for spec, j, variant, builds in cases:
        ab = (np.cos(0.7), np.sin(0.7))
        calls.clear()
        M = h_rot(spec, j, ab, variant)
        assert len(calls) == builds, (spec, variant)
        assert np.array_equal(M, _verbatim_h_rot(spec, j, ab, variant))


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
