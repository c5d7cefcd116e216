import numpy as np
import pytest

from rigidkit.errors import DegeneratePlane, OutOfRange, ParseError, SizeMismatch, UnknownRoot
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, basis_matrix, bracket
from rigidkit.rootsystem import (RootInfo, RootLabel, embed, hyperplane_representatives,
                                 is_generic_plane, is_root, parse_root, root_index,
                                 root_space_basis, root_table, root_value, roots)
from rigidkit.lyapunov import dim_group, splitting, zero_multiplicity

from reference import generic_plane_pairwise


def test_root_count_so33():
    table = roots(GroupSpec("so", 3, 3))
    assert len(table) == 12
    assert all(info.multiplicity == 1 for info in table)


def test_root_count_so53():
    table = roots(GroupSpec("so", 5, 3))
    pm = [info for info in table if info.label.kind == "pm"]
    vec = [info for info in table if info.label.kind == "vec"]
    assert len(pm) == 12 and all(i.multiplicity == 1 for i in pm)
    assert len(vec) == 6 and all(i.multiplicity == 2 for i in vec)


def test_root_count_su43():
    table = roots(GroupSpec("su", 4, 3))
    pm = [i for i in table if i.label.kind == "pm"]
    vec = [i for i in table if i.label.kind == "vec"]
    long_ = [i for i in table if i.label.kind == "long"]
    assert len(pm) == 12 and all(i.multiplicity == 2 for i in pm)
    assert len(vec) == 6 and all(i.multiplicity == 2 for i in vec)
    assert len(long_) == 6 and all(i.multiplicity == 1 for i in long_)


def test_roots_closed_under_negation():
    for spec in [GroupSpec("so", 5, 3), GroupSpec("su", 4, 4)]:
        labels = {info.label for info in roots(spec)}
        for info in roots(spec):
            assert -info.label in labels
            assert root_index(spec)[(-info.label).coeffs].multiplicity == info.multiplicity


def test_root_index_keyed_by_coefficients():
    for spec in [GroupSpec("so", 5, 3), GroupSpec("su", 4, 4)]:
        index = root_index(spec)
        assert list(index.values()) == roots(spec)
        assert all(c == info.label.coeffs for c, info in index.items())
        bad = RootLabel((1, 1, 1) + (0,) * (spec.n - 3))
        assert bad.coeffs not in index and not is_root(spec, bad)


@pytest.mark.parametrize("spec", [GroupSpec("so", 5, 3), GroupSpec("su", 4, 4)], ids=str)
def test_root_table_is_shared_and_read_only(spec):
    # equal specs get the one table, which the readers copy out of or read through
    table = root_table(spec.family, spec.m, spec.n)
    twin = GroupSpec(spec.family, spec.m, spec.n)
    assert twin is not spec and root_table(twin.family, twin.m, twin.n) is table
    assert root_index(twin) is root_index(spec) is table.by_coeffs
    with pytest.raises(ValueError):
        table.coeffs[0, 0] = 5.0
    t = np.random.default_rng(3).standard_normal(spec.n)
    first, index = roots(spec), dict(root_index(spec))
    reps, split = hyperplane_representatives(spec), splitting(spec, t)
    extra = RootInfo(RootLabel((1, 1, 1) + (0,) * (spec.n - 3)), 7)
    for fresh in (roots(spec), hyperplane_representatives(spec)):
        fresh.reverse()
        fresh.append(extra)
    assert roots(spec) == first and hyperplane_representatives(spec) == reps
    assert root_index(spec) == index and not is_root(spec, extra.label)
    assert all(is_root(spec, info.label) for info in first)
    assert splitting(spec, t) == split


def test_basis_so43_diff():
    spec = GroupSpec("so", 4, 3)
    basis = root_space_basis(spec, parse_root("L1-L2", spec))
    assert len(basis) == 1
    expected = basis_matrix(7, 1, 2) - basis_matrix(7, 5, 4)
    assert np.array_equal(basis[0], expected)


def test_basis_so53_vector():
    spec = GroupSpec("so", 5, 3)
    basis = root_space_basis(spec, parse_root("L3", spec))
    assert len(basis) == 2
    assert np.array_equal(basis[0], basis_matrix(8, 3, 7) - basis_matrix(8, 7, 6))
    assert np.array_equal(basis[1], basis_matrix(8, 3, 8) - basis_matrix(8, 8, 6))


def test_basis_su33_long():
    spec = GroupSpec("su", 3, 3)
    basis = root_space_basis(spec, parse_root("2L1", spec))
    assert len(basis) == 1
    assert np.array_equal(basis[0], basis_matrix(6, 1, 4, 1j))


def test_basis_length_matches_multiplicity():
    for spec in [GroupSpec("so", 6, 3), GroupSpec("su", 5, 3)]:
        for info in roots(spec):
            assert len(root_space_basis(spec, info.label)) == info.multiplicity


def test_root_value_examples():
    t = [3.0, 2.0, 1.0]
    spec = GroupSpec("su", 4, 3)
    assert root_value(parse_root("L1-L2", spec), t) == 1.0
    assert root_value(parse_root("-L3", spec), t) == -1.0
    assert root_value(parse_root("2L2", spec), t) == 4.0
    with pytest.raises(SizeMismatch):
        root_value(parse_root("L1-L2", spec), [1.0, 2.0])


def test_parse_examples():
    su43 = GroupSpec("su", 4, 3)
    so43 = GroupSpec("so", 4, 3)
    assert parse_root("L1-L2", so43).coeffs == (1, -1, 0)
    assert parse_root("2L3", su43).coeffs == (0, 0, 2)
    with pytest.raises(UnknownRoot):
        parse_root("2L3", so43)
    with pytest.raises(UnknownRoot):
        parse_root("L3", GroupSpec("so", 3, 3))  # no vector roots when m = n
    with pytest.raises(UnknownRoot):
        parse_root("L1-L1", so43)
    with pytest.raises(UnknownRoot):
        parse_root("L7", so43)
    for bad in ("", "L", "1L2", "L1*L2", "LL1", "3L1"):
        with pytest.raises(ParseError):
            parse_root(bad, so43)


@pytest.mark.parametrize("spec", [GroupSpec("so", 3, 3), GroupSpec("so", 6, 3),
                                  GroupSpec("su", 3, 3), GroupSpec("su", 6, 4)], ids=str)
def test_parse_roundtrip_all_roots(spec):
    for info in roots(spec):
        assert parse_root(str(info.label), spec) == info.label


def test_dimension_identity():
    for family in ("so", "su"):
        for n in range(3, 9):
            for m in range(n, 9):
                spec = GroupSpec(family, m, n)
                total = sum(i.multiplicity for i in roots(spec)) + zero_multiplicity(spec)
                assert total == dim_group(spec)


def test_cartan_bracket_eigenvalue():
    # [embed(t), f] = value(r, t) f for every root vector
    rng = np.random.default_rng(5)
    for spec in [GroupSpec("so", 5, 3), GroupSpec("su", 4, 3)]:
        t = rng.uniform(-2, 2, size=spec.n)
        T = embed(spec, t)
        for info in roots(spec):
            val = root_value(info.label, t)
            for f in root_space_basis(spec, info.label):
                assert DEFAULT_TOL.close(bracket(T, f), val * f)


def test_hyperplane_merging():
    # 2L_i and L_i define the same wall, so SU(4,3) has 9 hyperplanes
    reps = hyperplane_representatives(GroupSpec("su", 4, 3))
    assert len(reps) == 9
    reps_nn = hyperplane_representatives(GroupSpec("su", 3, 3))
    assert len(reps_nn) == 9  # six pm walls plus t_i = 0 from the 2L_i


def test_generic_plane_vector_root_wall():
    spec = GroupSpec("so", 4, 3)
    rep = is_generic_plane(spec, [1, 0, 0], [0, 1, 0])
    assert not rep.generic
    assert [str(r) for r in rep.witness] == ["L3"]


def test_generic_plane_proportional_pair():
    spec = GroupSpec("so", 3, 3)
    rep = is_generic_plane(spec, [1, 0, 0], [0, 1, 0])
    assert not rep.generic
    assert [str(r) for r in rep.witness] == ["L1-L3", "L1+L3"]


def test_generic_plane_brute_force_agreement():
    spec = GroupSpec("so", 4, 3)
    rep = is_generic_plane(spec, [1, 2, 6], [3, -1, 2])
    # brute force over all hyperplane pairs
    reps = hyperplane_representatives(spec)
    v1, v2 = np.array([1.0, 2, 6]), np.array([3.0, -1, 2])
    pairs = [np.array([root_value(r, v1), root_value(r, v2)]) for r in reps]
    generic = all(np.linalg.norm(p) > 1e-12 for p in pairs)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if abs(pairs[a][0] * pairs[b][1] - pairs[a][1] * pairs[b][0]) < 1e-12:
                generic = False
    assert rep.generic == generic


@pytest.mark.parametrize("spec", [GroupSpec("so", 3, 3), GroupSpec("so", 6, 4),
                                  GroupSpec("su", 4, 4), GroupSpec("su", 7, 5)], ids=str)
def test_generic_plane_matches_pairwise_loop(spec):
    # random float planes are generic; small integer planes hit vanishing
    # hyperplanes and proportional pairs, in no set order, so the witness must be
    # the pairwise loop's first one, not the first repeat a scan meets
    rng = np.random.default_rng(spec.size)
    verdicts = set()
    for draw in range(60):
        if draw % 3 == 0:
            v1, v2 = rng.standard_normal((2, spec.n))
        else:
            v1, v2 = rng.integers(-3 * (draw % 3), 3 * (draw % 3) + 1, size=(2, spec.n))
        if np.linalg.matrix_rank(np.array([v1, v2], dtype=float)) < 2:
            continue
        rep = is_generic_plane(spec, v1, v2)
        assert rep == generic_plane_pairwise(spec, v1, v2)
        verdicts.add(len(rep.witness))
    assert verdicts == {0, 1, 2}


def test_generic_plane_degenerate():
    with pytest.raises(DegeneratePlane):
        is_generic_plane(GroupSpec("so", 4, 3), [1, 2, 3], [2, 4, 6])


@pytest.mark.parametrize("bad", [[1.0, np.nan, 2.0], [1.0, np.inf, 0.0],
                                 [1e308, 1e308, -1e308]], ids=["nan", "inf", "norm-overflow"])
def test_non_finite_cartan_vectors_rejected(bad):
    spec = GroupSpec("so", 4, 3)
    with pytest.raises(OutOfRange):
        splitting(spec, bad)
    with pytest.raises(OutOfRange):
        is_generic_plane(spec, bad, [0.0, 1.0, 0.0])
    with pytest.raises(OutOfRange):
        is_generic_plane(spec, [0.0, 1.0, 0.0], bad)


def test_generic_plane_json():
    rep = is_generic_plane(GroupSpec("so", 4, 3), [1, 0, 0], [0, 1, 0])
    assert rep.to_json() == {"generic": False, "witness": ["L3"]}
