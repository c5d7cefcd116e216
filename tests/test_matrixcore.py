import numpy as np
import pytest

from rigidkit.errors import NotNilpotent, SizeMismatch
from rigidkit.matrixcore import (DEFAULT_TOL, GroupSpec, Tolerance, basis_matrix, bracket,
                                 exp_nilpotent, form_matrix, identity, in_algebra, in_group,
                                 mat_from_json, mat_to_json, nilpotent_log)
from rigidkit.generators import Scalar, x_elem
from rigidkit.rootsystem import parse_root, root_space_basis, roots

SPECS = [GroupSpec("so", 3, 3), GroupSpec("so", 4, 3), GroupSpec("so", 5, 3),
         GroupSpec("su", 3, 3), GroupSpec("su", 4, 3), GroupSpec("su", 5, 3)]


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("so", 2, 2)
    with pytest.raises(ValueError):
        GroupSpec("so", 3, 4)
    with pytest.raises(ValueError):
        GroupSpec("sp", 4, 3)
    assert GroupSpec("su", 5, 3).size == 8
    assert GroupSpec("su", 5, 3).tail == 2


def test_spec_size_cap():
    # the cap is checked in the constructor, before any matrix could be built
    with pytest.raises(ValueError, match="at most 64"):
        GroupSpec("so", 10**9, 3)
    with pytest.raises(ValueError, match="at most 64"):
        GroupSpec("su", 62, 3)
    assert GroupSpec("su", 61, 3).size == 64


def test_form_matrix_so33():
    G = form_matrix(GroupSpec("so", 3, 3))
    expected = np.zeros((6, 6))
    for i, j in [(1, 4), (2, 5), (3, 6), (4, 1), (5, 2), (6, 3)]:
        expected[i - 1, j - 1] = 1
    assert np.array_equal(G.real, expected)
    assert np.linalg.norm(G.imag) == 0


def test_form_matrix_so43():
    G = form_matrix(GroupSpec("so", 4, 3))
    assert G.shape == (7, 7)
    assert G[6, 6] == 1
    assert G[0, 3] == G[3, 0] == 1
    assert np.count_nonzero(G) == 7


def test_form_matrix_su53():
    G = form_matrix(GroupSpec("su", 5, 3))
    assert G.shape == (8, 8)
    assert np.linalg.norm(G.imag) == 0
    assert np.array_equal(G, G.T)
    assert np.count_nonzero(G) == 8


def test_exp_nilpotent_zero():
    Z = np.zeros((5, 5), dtype=complex)
    assert np.array_equal(exp_nilpotent(Z), np.eye(5))


def test_exp_nilpotent_terminating_series():
    spec = GroupSpec("so", 4, 3)
    X = 2.0 * (basis_matrix(7, 1, 2) - basis_matrix(7, 5, 4))
    assert np.linalg.norm(X @ X) == 0  # series terminates at k=1
    assert np.allclose(exp_nilpotent(X), np.eye(7) + X)


def test_exp_nilpotent_su_long_root():
    t = 0.7
    X = t * basis_matrix(6, 1, 4, 1j)
    assert np.allclose(exp_nilpotent(X), np.eye(6) + X)


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(np.diag([1.0, 2.0, 3.0]).astype(complex))


def test_nilpotent_log_inverts_exp():
    rng = np.random.default_rng(0)
    spec = GroupSpec("su", 4, 3)
    for info in roots(spec):
        basis = root_space_basis(spec, info.label)
        X = sum(rng.normal() * f for f in basis)
        assert DEFAULT_TOL.close(nilpotent_log(exp_nilpotent(X)), X)


def test_bracket_antisymmetry_and_mismatch():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.linalg.norm(bracket(X, X)) == 0
    Y = rng.normal(size=(6, 6))
    assert np.allclose(bracket(X, Y), -bracket(Y, X))
    with pytest.raises(SizeMismatch):
        bracket(X, np.eye(5))


def test_bracket_bilinear():
    rng = np.random.default_rng(2)
    X, Y, Z = (rng.normal(size=(5, 5)) for _ in range(3))
    a, b = rng.normal(), rng.normal()
    assert np.allclose(bracket(a * X + b * Y, Z), a * bracket(X, Z) + b * bracket(Y, Z))


def test_bracket_of_vector_roots_lands_in_sum_root_space():
    spec = GroupSpec("so", 4, 3)
    f1 = root_space_basis(spec, parse_root("L1", spec))[0]
    f2 = root_space_basis(spec, parse_root("L2", spec))[0]
    B = bracket(f1, f2)
    assert np.linalg.norm(B) > 0.5
    basis = root_space_basis(spec, parse_root("L1+L2", spec))
    coeff = np.vdot(basis[0], B) / np.vdot(basis[0], basis[0])
    assert DEFAULT_TOL.close(B, coeff * basis[0])  # projection accounts for all of B


def test_in_group_identity_and_scaling():
    for spec in SPECS:
        assert in_group(identity(spec.size), spec)
        assert not in_group(2.0 * identity(spec.size), spec)


def test_in_group_generator():
    spec = GroupSpec("so", 4, 3)
    M = x_elem(spec, parse_root("L1-L2", spec), Scalar(0.7))
    assert in_group(M, spec)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_root_vectors_lie_in_algebra(spec):
    for info in roots(spec):
        for f in root_space_basis(spec, info.label):
            assert in_algebra(f, spec)


@pytest.mark.parametrize("spec", [GroupSpec("so", 5, 3), GroupSpec("su", 4, 3)], ids=str)
def test_exp_inverse_and_membership_randomized(spec):
    # 1000 seeded random parameters across the root spaces
    rng = np.random.default_rng(42)
    labels = [info.label for info in roots(spec)]
    for _ in range(1000):
        label = labels[int(rng.integers(len(labels)))]
        basis = root_space_basis(spec, label)
        X = sum(rng.uniform(-2, 2) * f for f in basis)
        E = exp_nilpotent(X)
        assert DEFAULT_TOL.close(E @ exp_nilpotent(-X), identity(spec.size))
        assert in_group(E, spec)


def test_tolerance_scaling():
    tol = Tolerance(1e-6)
    A = np.eye(3) * 1e6
    assert tol.close(A, A + 0.1)  # relative to the large norm
    assert not DEFAULT_TOL.close(np.eye(3), np.eye(3) + 1e-6)


@pytest.mark.parametrize("rel", [float("nan"), float("inf"), 0.0, -1.0, 1.0, 2.0, 1e300])
def test_tolerance_rejects_bad_rel(rel):
    with pytest.raises(ValueError):
        Tolerance(rel)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = mat_from_json(mat_to_json(M))
    assert np.array_equal(M, back)  # 17 significant digits round-trip exactly
