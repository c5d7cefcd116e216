import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit.errors import NotInGroup
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, identity
from rigidkit.generators import Cx, Heis, Scalar, h_elem, w_closed_form
from rigidkit.rootsystem import parse_root, roots
from rigidkit.relations import rand_param, rng_for
from rigidkit.words import (Letter, eval_word, free_reduce, is_relation,
                            load_word, reconstruct, save_word, staircase_decompose,
                            su2_euler, word_from_json, word_to_json)

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
    assert DEFAULT_TOL.close(eval_word(SO43, word), h_elem(SO43, r, Scalar(t), Scalar(1.0)))


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
    assert is_relation(SO43, word)
    assert not is_relation(SO43, [Letter(parse_root("L1-L2", SO43), Scalar(1.0))])


def test_chain_word_matches_closed_form():
    from rigidkit.generators import chain_params
    for spec, name, p in [(SO43, "L1-L2", Scalar(1.4)), (SU43, "L3", Heis(0.5, (0.3 - 0.6j,)))]:
        root = parse_root(name, spec)
        x0, y0, x1 = chain_params(spec, root, p)
        word = [Letter(root, x0), Letter(-root, y0), Letter(root, x1)]
        assert DEFAULT_TOL.close(eval_word(spec, word), w_closed_form(spec, root, p).matrix())


def test_word_json_roundtrip(tmp_path):
    word = [Letter(parse_root("L1-L2", SU43), Cx(0.5 - 0.25j), 1),
            Letter(parse_root("L3", SU43), Heis(0.125, (1.0 + 2.0j,)), -1),
            Letter(parse_root("2L3", SU43), Scalar(0.75), 1)]
    path = tmp_path / "word.json"
    save_word(path, word)
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
