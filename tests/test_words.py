import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit.errors import NotInGroup
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, identity
from rigidkit.generators import Cx, Heis, Scalar, w_closed_form, w_matrix
from rigidkit.rootsystem import parse_root, roots
from rigidkit.relations import rand_param, rng_for
from rigidkit import generators
from rigidkit.words import (Letter, Staircase, free_reduce, load_word, reconstruct,
                            staircase_decompose, staircase_rows,
                            su2_euler, word_from_json, word_to_json)

from reference import (euler_staircase_rows, eval_word, negate_opposite_factors,
                       verbatim_chain_params, verbatim_reconstruct)

ROOT = pathlib.Path(__file__).resolve().parent.parent
_report_set = importlib.util.spec_from_file_location("report_set", ROOT / "tools" / "report_set.py")
report_set = importlib.util.module_from_spec(_report_set)
_report_set.loader.exec_module(report_set)

SO43 = GroupSpec("so", 4, 3)
SU43 = GroupSpec("su", 4, 3)


def test_eval_empty_word():
    assert np.array_equal(eval_word(SO43, []), identity(7))


def test_eval_h_word_matches_h_elem():
    # the six-letter defining word of h_{L1-L2}(t)
    t = 1.7
    r = parse_root("L1-L2", SO43)
    nr = parse_root("L2-L1", SO43)
    word = [Letter(r, Scalar(t)), Letter(nr, Scalar(-1.0 / t)), Letter(r, Scalar(t)),
            Letter(r, Scalar(-1.0)), Letter(nr, Scalar(1.0)), Letter(r, Scalar(-1.0))]
    h = w_matrix(SO43, r, Scalar(t)) @ np.linalg.inv(w_matrix(SO43, r, Scalar(1.0)))
    assert DEFAULT_TOL.close(eval_word(SO43, word), h)


def test_eval_cancellation():
    r = parse_root("L1+L2", SO43)
    word = [Letter(r, Scalar(0.8), 1), Letter(r, Scalar(0.8), -1)]
    assert DEFAULT_TOL.close(eval_word(SO43, word), identity(7))


def test_free_reduce_cancels_inverse_pair():
    r = parse_root("L1-L2", SO43)
    assert free_reduce(SO43, [Letter(r, Scalar(0.5), 1), Letter(r, Scalar(0.5), -1)]) == []


def test_free_reduce_inner_cancellation():
    # Heisenberg letters do not merge, so the outer pair survives as [A, A]
    A = Letter(parse_root("L3", SU43), Heis(0.3, (0.2 + 0.1j,)), 1)
    B = Letter(parse_root("L1-L2", SU43), Cx(1.0 + 2.0j), 1)
    Binv = Letter(parse_root("L1-L2", SU43), Cx(1.0 + 2.0j), -1)
    assert free_reduce(SU43, [A, B, Binv, A]) == [A, A]


def test_free_reduce_merges_scalar_letters():
    r = parse_root("L1-L2", SO43)
    out = free_reduce(SO43, [Letter(r, Scalar(0.25), 1), Letter(r, Scalar(0.5), 1)])
    assert out == [Letter(r, Scalar(0.75), 1)]


def test_free_reduce_drops_zero_letters():
    r = parse_root("L1-L2", SO43)
    assert free_reduce(SO43, [Letter(r, Scalar(0.0), 1)]) == []


@given(st.lists(st.tuples(st.sampled_from(["L1-L2", "L2-L3", "L1+L2", "L2-L1"]),
                          st.sampled_from([-1.0, 0.0, 0.5, 1.5]),
                          st.sampled_from([1, -1])), max_size=12))
@settings(max_examples=60, deadline=None)
def test_free_reduce_preserves_evaluation(letters):
    word = [Letter(parse_root(name, SO43), Scalar(t), e) for name, t, e in letters]
    reduced = free_reduce(SO43, word)
    assert DEFAULT_TOL.close(eval_word(SO43, word), eval_word(SO43, reduced))


def test_free_reduce_preserves_evaluation_random_words():
    # 1000 random words of length <= 30
    for spec in (SO43, GroupSpec("su", 5, 3)):
        labels = [i.label for i in roots(spec)]
        for i in range(500):
            rng = rng_for(3, "words", i)
            word = []
            for _ in range(int(rng.integers(0, 31))):
                root = labels[int(rng.integers(len(labels)))]
                p = rand_param(spec, root, rng)
                word.append(Letter(root, p, int(rng.choice([1, -1]))))
            reduced = free_reduce(spec, word)
            assert DEFAULT_TOL.close(eval_word(spec, word), eval_word(spec, reduced))


def test_is_relation_center_word():
    # relation h_{L1-L2}(-1) h_{L1+L2}(-1) = id as a twelve-letter word
    def h_letters(name, t):
        r = parse_root(name, SO43)
        nr = parse_root(str(-parse_root(name, SO43)), SO43)
        return [Letter(r, Scalar(t)), Letter(nr, Scalar(-1.0 / t)), Letter(r, Scalar(t)),
                Letter(r, Scalar(-1.0)), Letter(nr, Scalar(1.0)), Letter(r, Scalar(-1.0))]
    word = h_letters("L1-L2", -1.0) + h_letters("L1+L2", -1.0)
    assert DEFAULT_TOL.close(eval_word(SO43, word), identity(7))
    assert not DEFAULT_TOL.close(eval_word(SO43, [Letter(parse_root("L1-L2", SO43), Scalar(1.0))]),
                                 identity(7))


def test_chain_word_matches_closed_form():
    for spec, name, p in [(SO43, "L1-L2", Scalar(1.4)), (SU43, "L3", Heis(0.5, (0.3 - 0.6j,)))]:
        root = parse_root(name, spec)
        x0, y0, x1 = verbatim_chain_params(spec, root, p)
        word = [Letter(root, x0), Letter(-root, y0), Letter(root, x1)]
        assert DEFAULT_TOL.close(eval_word(spec, word), w_closed_form(spec, root, p).matrix())


def test_word_json_roundtrip(tmp_path):
    word = [Letter(parse_root("L1-L2", SU43), Cx(0.5 - 0.25j), 1),
            Letter(parse_root("L3", SU43), Heis(0.125, (1.0 + 2.0j,)), -1),
            Letter(parse_root("2L3", SU43), Scalar(0.75), 1)]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word_to_json(word)))
    assert load_word(path, SU43) == word
    assert word_from_json(word_to_json(word), SU43) == word


# ---------------------------------------------------------------------------
# staircase normal form


def _rand_so(rng, k):
    A = rng.normal(size=(k, k))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q.astype(complex)


def _rand_su(rng, k):
    A = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return Q / np.linalg.det(Q) ** (1.0 / k)


def _rand_block(rng, family, k):
    return _rand_su(rng, k) if family == "su" else _rand_so(rng, k)


# staircase entries at the special angles: the gimbal locks of an Euler triple
# (middle angle 0 and pi/2, last angle 0), signed zeros, and half and full turns
_SPECIAL_ANGLES = (0.0, -0.0, np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi)
_LOCKED_TRIPLES = ((0.3, 0.0, 0.0), (-1.1, np.pi / 2, 0.0), (0.0, -0.0, 0.0),
                   (-0.0, 0.0, -0.0), (np.pi, np.pi / 2, -np.pi), (2.0, -0.0, np.pi / 2))


def _special_staircases(family, k):
    """Staircases whose entries cycle through the special angles or triples."""
    pool = _LOCKED_TRIPLES if family == "su" else _SPECIAL_ANGLES
    entries = iter(pool * k * k)
    for shift in range(len(pool)):
        next(entries)   # a new start in the pool for each staircase
        yield Staircase(family, k, tuple(tuple(next(entries) for _ in range(kk - 1))
                                         for kk in range(k, 1, -1)))


@pytest.mark.parametrize("family", ["so", "su"])
def test_reconstruct_is_the_word_by_word_product(family):
    # one stack per staircase, byte for byte the product of its rotation words,
    # each built one letter at a time in word order
    rng = np.random.default_rng(21)
    perm3 = np.array([complex(*z) for z in report_set.PERM3["entries"]]).reshape(3, 3)
    for k in range(2, 7):
        spec = GroupSpec(family, 3 + k, 3)
        blocks = [_rand_block(rng, family, k) for _ in range(6)] + ([perm3] if k == 3 else [])
        stairs = [staircase_decompose(spec, B) for B in blocks]
        for stair in stairs + list(_special_staircases(family, k)):
            assert reconstruct(spec, stair).tobytes() == verbatim_reconstruct(spec, stair).tobytes()


@pytest.mark.parametrize("family", ["so", "su"])
def test_reconstruct_fails_under_the_negative_control(monkeypatch, family):
    # the stacked letters are built through the patched seam: x_alpha(-p) for
    # the negative root -L_n takes the words out of the compact tail subgroup
    spec = GroupSpec(family, 7, 3)
    B = _rand_block(np.random.default_rng(4), family, 4)
    stair = staircase_decompose(spec, B)
    assert DEFAULT_TOL.close(reconstruct(spec, stair), B)
    frames = generators._rot_frame   # warm, built unpatched
    negate_opposite_factors(monkeypatch)
    with pytest.raises(NotInGroup):
        reconstruct(spec, stair)
    # with the unpatched fixed factors back, only the stacked letters are wrong
    monkeypatch.setattr(generators, "_rot_frame", frames)
    with pytest.raises(NotInGroup):
        reconstruct(spec, stair)


def test_staircase_identity():
    spec = GroupSpec("so", 6, 3)
    stair = staircase_decompose(spec, np.eye(3, dtype=complex))
    assert all(abs(a) < 1e-12 for row in stair.rows for a in row)
    assert DEFAULT_TOL.close(reconstruct(spec, stair), np.eye(3, dtype=complex))


def test_staircase_single_rotation_roundtrip():
    spec = GroupSpec("so", 5, 3)
    theta = 0.9
    B = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    stair = staircase_decompose(spec, B)
    assert len(stair.rows) == 1 and len(stair.rows[0]) == 1
    assert abs(stair.rows[0][0] - theta) < 1e-12
    assert DEFAULT_TOL.close(reconstruct(spec, stair), B)
    again = staircase_decompose(spec, reconstruct(spec, stair))
    assert abs(again.rows[0][0] - theta) < 1e-10


def test_staircase_descending_pattern():
    for family, k in [("so", 4), ("su", 3)]:
        spec = GroupSpec(family, 3 + k, 3)
        rng = np.random.default_rng(7)
        B = _rand_so(rng, k) if family == "so" else _rand_su(rng, k)
        stair = staircase_decompose(spec, B)
        assert [len(row) for row in stair.rows] == list(range(k - 1, 0, -1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_staircase_roundtrip_so(k):
    spec = GroupSpec("so", 3 + k, 3)
    rng = np.random.default_rng(100 + k)
    for _ in range(60):
        B = _rand_so(rng, k)
        stair = staircase_decompose(spec, B)
        assert DEFAULT_TOL.close(reconstruct(spec, stair), B)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_staircase_roundtrip_su(k):
    spec = GroupSpec("su", 3 + k, 3)
    rng = np.random.default_rng(200 + k)
    for _ in range(60):
        B = _rand_su(rng, k)
        stair = staircase_decompose(spec, B)
        out = reconstruct(spec, stair)
        assert DEFAULT_TOL.close(out, B)
        assert DEFAULT_TOL.close(out.conj().T @ out, np.eye(k, dtype=complex))


def test_staircase_real_alphabet_rejects_complex_input():
    # the real-rotation alphabet generates only SO(k) inside SU(k); a
    # genuinely complex special-unitary block has no real staircase
    spec = GroupSpec("so", 6, 3)
    rng = np.random.default_rng(9)
    B = _rand_su(rng, 3)
    assert np.linalg.norm(B.imag) > 1e-3
    with pytest.raises(NotInGroup):
        staircase_decompose(spec, B)


def test_staircase_so_reads_the_real_part_of_a_noisy_block():
    # an imaginary part within tolerance is admitted; the rows are those of the
    # real part, and the block round-trips
    spec = GroupSpec("so", 7, 3)
    rng = np.random.default_rng(11)
    B = _rand_so(rng, 4)
    noisy = B + 1e-11j * rng.normal(size=(4, 4))
    stair = staircase_decompose(spec, noisy)
    assert stair.rows == staircase_decompose(spec, B.real).rows
    assert DEFAULT_TOL.close(reconstruct(spec, stair), B)


@pytest.mark.parametrize("family, m", [("so", 5), ("su", 5)])
@pytest.mark.parametrize("entry", [complex(np.cos(0.75), np.inf), complex(np.nan, 0.0),
                                   complex(np.cos(0.75), np.nan), complex(-np.inf, 0.0)],
                         ids=["inf-imag", "nan-real", "nan-imag", "inf-real"])
def test_staircase_rejects_a_non_finite_tail_block(family, m, entry):
    # a rotation block with one non-finite entry is outside the group; without
    # the finiteness check the orthogonal test of its imaginary part is inf > inf
    spec = GroupSpec(family, m, 3)
    B = np.array([[np.cos(0.75), -np.sin(0.75)], [np.sin(0.75), np.cos(0.75)]], dtype=complex)
    B[0, 0] = entry
    with pytest.raises(NotInGroup, match="non-finite"):
        staircase_decompose(spec, B)


def test_orthogonal_staircase_rows_are_the_first_euler_angles():
    # an orthogonal step reads its one angle directly; it is su2_euler(U^H)[0],
    # bit for bit, on Haar blocks of SO(2..5) and on blocks whose Givens steps
    # meet an exactly zero pair: the identity and a zero column
    rng = np.random.default_rng(26)
    blocks = [_rand_so(rng, k) for k in (2, 3, 4, 5) for _ in range(2500)]
    zero_col = _rand_so(rng, 4)
    zero_col[:, 3] = 0.0
    blocks += [np.eye(4, dtype=complex), zero_col, zero_col.real]
    for B in blocks:   # repr tells the signs of zeros apart
        assert repr(staircase_rows(B, False)) == repr(euler_staircase_rows(B, False))
    assert repr(staircase_rows(zero_col, False)[0]) == "(0.0, 0.0, 0.0)"


@pytest.mark.parametrize("family, rows", [
    ("so", ((-np.pi / 2, -np.pi / 2), (np.pi,))),
    ("su", (((-np.pi / 2, 0.0, 0.0), (-np.pi / 2, 0.0, 0.0)), ((np.pi, 0.0, 0.0),)))])
def test_staircase_permutation_block(family, rows):
    # a cyclic permutation: the Givens steps meet exact zero pairs
    spec = GroupSpec(family, 6, 3)
    B = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    stair = staircase_decompose(spec, B)
    assert stair.rows == rows
    assert DEFAULT_TOL.close(reconstruct(spec, stair), B)


def _euler_product(p1, p2, p3):
    """Rr(p1) Ri(p2) Rr(p3) in SU(2)."""
    c1, s1 = np.cos(p1), np.sin(p1)
    c2, s2 = np.cos(p2), np.sin(p2)
    c3, s3 = np.cos(p3), np.sin(p3)
    Rr1 = np.array([[c1, -s1], [s1, c1]])
    Ri2 = np.array([[c2, -1j * s2], [-1j * s2, c2]])
    Rr3 = np.array([[c3, -s3], [s3, c3]])
    return Rr1 @ Ri2 @ Rr3


def test_su2_euler_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        V = np.array([[q[0] + 1j * q[3], q[1] + 1j * q[2]],
                      [-q[1] + 1j * q[2], q[0] - 1j * q[3]]])
        assert np.linalg.norm(_euler_product(*su2_euler(V)) - V) < 1e-10


@pytest.mark.parametrize("middle", [lambda s: s, lambda s: np.pi / 2 - s],
                         ids=["near-zero", "near-right-angle"])
def test_su2_euler_round_trip_near_gimbal_lock(middle):
    # the lock branches run only where the middle angle is 0 or pi/2 in
    # floating point: one within 1e-16..1e-10 of a lock round-trips to a few ulps
    mats = [_euler_product(0.3, middle(s), 1.2) for s in np.logspace(-16, -10, 61)]
    worst = max(np.linalg.norm(_euler_product(*su2_euler(V)) - V) for V in mats)
    assert worst < 4e-15


@pytest.mark.parametrize("V", [np.diag([1j, -1j]), np.array([[0, 1j], [1j, 0]])],
                         ids=["diag", "antidiag"])
def test_staircase_roundtrip_su_at_zero_real_part(V):
    # both blocks have a first row with zero real part: su2_euler's pi/2 lock branch
    spec = GroupSpec("su", 5, 3)
    stair = staircase_decompose(spec, V)
    assert DEFAULT_TOL.close(reconstruct(spec, stair), V)
