import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from rigidkit import lyapunov
from rigidkit.errors import OutOfRange, UnknownRoot
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec
from rigidkit.generators import Cx, Heis, RVec, Scalar, x_elem
from rigidkit.lyapunov import (CycleSpec, bracket_generation_check, dim_group,
                               exponent_table, splitting,
                               stable_cycle_feasible, zero_multiplicity)
from rigidkit.rootsystem import (RootLabel, embed, parse_root, root_space_basis, root_value,
                                 roots)
from rigidkit.relations import rand_param

SO43 = GroupSpec("so", 4, 3)
SU33 = GroupSpec("su", 3, 3)


def test_exponent_table_so43():
    table = exponent_table(SO43)
    nonzero = [(r, m) for r, m in table.entries if r is not None]
    assert len(nonzero) == 18 and all(m == 1 for _, m in nonzero)
    zero = [m for r, m in table.entries if r is None]
    assert zero == [3]
    assert table.total == 21 == 7 * 6 // 2


def test_exponent_table_su33():
    table = exponent_table(SU33)
    pm = [(r, m) for r, m in table.entries if r is not None and r.kind == "pm"]
    long_ = [(r, m) for r, m in table.entries if r is not None and r.kind == "long"]
    assert len(pm) == 12 and all(m == 2 for _, m in pm)
    assert len(long_) == 6 and all(m == 1 for _, m in long_)
    assert zero_multiplicity(SU33) == 5
    assert table.total == 35 == 6 * 6 - 1


def test_exponent_table_su53():
    spec = GroupSpec("su", 5, 3)
    table = exponent_table(spec)
    vec = [(r, m) for r, m in table.entries if r is not None and r.kind == "vec"]
    assert all(m == 2 * spec.tail == 4 for _, m in vec)
    assert table.total == 63 == 8 * 8 - 1


def test_exponent_table_totals_range():
    for family in ("so", "su"):
        for n in range(3, 9):
            for m in range(n, 9):
                spec = GroupSpec(family, m, n)
                assert exponent_table(spec).total == dim_group(spec)


def test_splitting_so43():
    rep = splitting(SO43, [3.0, 2.0, 1.0])
    assert (rep.stable_dim, rep.unstable_dim, rep.neutral_dim) == (9, 9, 3)
    assert rep.stable_dim + rep.unstable_dim + rep.neutral_dim == dim_group(SO43)


def test_splitting_su33():
    rep = splitting(SU33, [3.0, 2.0, 1.0])
    assert (rep.stable_dim, rep.unstable_dim, rep.neutral_dim) == (15, 15, 5)


def test_splitting_zero_vector_all_neutral():
    for spec in (SO43, SU33, GroupSpec("su", 5, 3)):
        rep = splitting(spec, [0.0] * spec.n)
        assert rep.neutral_dim == dim_group(spec)
        assert rep.stable_dim == rep.unstable_dim == 0


def test_splitting_within_the_wall_counts_as_neutral():
    # L2-L3 and L3-L2 are 1e-10 from zero, inside DEFAULT_TOL.rel * (1 + |t|)
    for spec, dims in ((SO43, (8, 8, 5)), (GroupSpec("su", 4, 3), (19, 19, 10))):
        rep = splitting(spec, [3.0, 2.0, 1.9999999999])
        assert (rep.stable_dim, rep.unstable_dim, rep.neutral_dim) == dims


def test_splitting_on_walls_counts_as_the_root_spaces():
    # at integer t every root value is an exact integer, so its sign is exact;
    # the reference counts root-space bases, the splitting root multiplicities.
    # The grid {-1, 0, 1, 2}^n holds walls such as (2,2,1), (1,1,0) and (1,-1,0)
    for spec in (GroupSpec("so", 5, 3), GroupSpec("su", 5, 3), GroupSpec("su", 5, 5)):
        spaces = [(info.label, len(root_space_basis(spec, info.label))) for info in roots(spec)]
        for t in itertools.product(range(-1, 3), repeat=spec.n):
            want = [0, 0, zero_multiplicity(spec)]
            for label, dim in spaces:
                value = root_value(label, t)
                want[0 if value < 0 else (1 if value > 0 else 2)] += dim
            rep = splitting(spec, list(t))
            assert [rep.stable_dim, rep.unstable_dim, rep.neutral_dim] == want, (spec, t)


@pytest.mark.parametrize("t", [[1.0, np.nan, 2.0], [np.inf, 0.0, 0.0],
                               [1e308, 1e308, -1e308]], ids=["nan", "inf", "norm-overflow"])
def test_splitting_rejects_non_finite_vectors(t):
    with pytest.raises(OutOfRange):
        splitting(SO43, t)


def test_splitting_neutral_basis_is_independent():
    for spec in (SO43, SU33, GroupSpec("su", 5, 3), GroupSpec("so", 6, 3)):
        rep = splitting(spec, [3.0, 2.0, 1.0])
        assert rep.neutral_dim == zero_multiplicity(spec)
        # stable and unstable dimensions agree at regular points
        assert rep.stable_dim == rep.unstable_dim


def test_bracket_generation():
    ok, rank = bracket_generation_check(SO43)
    assert ok and rank == 21
    ok, rank = bracket_generation_check(SU33)
    assert ok and rank == 35


def test_bracket_generation_negative_control():
    for spec in (SO43, SU33):
        ok, rank = bracket_generation_check(spec, include_brackets=False)
        assert not ok
        assert rank == dim_group(spec) - zero_multiplicity(spec)


def test_stable_cycle_antipodal_infeasible():
    cycle = CycleSpec((parse_root("L1-L2", SO43), parse_root("L2-L1", SO43)))
    assert stable_cycle_feasible(SO43, cycle) is None


def test_stable_cycle_feasible_example():
    cycle = CycleSpec(tuple(parse_root(s, SO43) for s in ("L1-L2", "L2-L3", "L1")))
    witness = stable_cycle_feasible(SO43, cycle)
    assert witness is not None
    for r in cycle.roots:
        assert root_value(r, witness) < 0
    # the hand-checkable witness from the statement
    for r, v in zip(cycle.roots, (-1.0, -1.0, -3.0)):
        assert root_value(r, [-3.0, -2.0, -1.0]) == v


def test_stable_cycle_infeasible_with_antipodal_pair_present():
    cycle = CycleSpec(tuple(parse_root(s, SO43) for s in ("L1+L2", "-L1-L2", "L3")))
    assert stable_cycle_feasible(SO43, cycle) is None


def test_stable_cycle_unknown_root():
    with pytest.raises(UnknownRoot):
        stable_cycle_feasible(SO43, CycleSpec((RootLabel((2, 0, 0)),)))


def test_stable_cycle_sampler_agreement():
    # probabilistic cross-check against a box sampler (documented as such)
    rng = np.random.default_rng(77)
    for fam, m, n in [("so", 5, 3), ("su", 5, 4)]:
        spec = GroupSpec(fam, m, n)
        labels = [i.label for i in roots(spec)]
        for _ in range(40):
            cycle = CycleSpec(tuple(labels[int(rng.integers(len(labels)))]
                                    for _ in range(int(rng.integers(1, 7)))))
            witness = stable_cycle_feasible(spec, cycle)
            pts = rng.uniform(-1, 1, size=(20000, spec.n))
            coeffs = np.array([r.coeffs for r in cycle.roots], dtype=float)
            hits = np.all(pts @ coeffs.T < 0, axis=1)
            if witness is None:
                assert not hits.any()
            else:
                assert all(root_value(r, witness) < 0 for r in cycle.roots)


def _chamber_points(n):
    """One point inside each Weyl chamber of type BC_n: the signed
    permutations of (1, ..., n).  No root vanishes on them."""
    return np.array([np.array(perm) * np.array(signs)
                     for perm in itertools.permutations(range(1, n + 1))
                     for signs in itertools.product((1, -1), repeat=n)], dtype=float)


@pytest.mark.parametrize("spec", [GroupSpec("so", 4, 4), GroupSpec("su", 5, 4)], ids=str)
def test_stable_cycle_matches_chamber_oracle(spec):
    # the feasible set is an open cone cut out by root hyperplanes, so it is
    # nonempty exactly when it holds a whole chamber, hence a chamber point;
    # every cycle (multiset) of length <= 3 is checked, in integer arithmetic;
    # a witness's largest cycle-root value is -1 up to rounding
    points = _chamber_points(spec.n)
    labels = [info.label for info in roots(spec)]
    feasible = 0
    for length in (1, 2, 3):
        for cyc in itertools.combinations_with_replacement(labels, length):
            A = np.array([r.coeffs for r in cyc], dtype=float)
            expect = bool(np.any(np.all(points @ A.T < 0, axis=1)))
            witness = stable_cycle_feasible(spec, CycleSpec(cyc))
            assert (witness is not None) == expect, cyc
            if witness is not None:
                assert abs((A @ witness).max() + 1.0) <= 4 * np.finfo(float).eps, cyc
                feasible += 1
    assert 0 < feasible


def test_stable_cycle_rejects_a_bad_nnls_candidate(monkeypatch):
    # u = e_1 gives the candidate t = -(L1 - L2) = (-1, 1, 0), which makes
    # L1 - L2 and L1 negative but L2 - L3 positive: the gate must refuse it
    cycle = CycleSpec(tuple(parse_root(s, SO43) for s in ("L1-L2", "L2-L3", "L1")))
    assert stable_cycle_feasible(SO43, cycle) is not None
    monkeypatch.setattr(lyapunov, "nnls", lambda E, f: (np.array([1.0, 0.0, 0.0]), 0.0))
    assert stable_cycle_feasible(SO43, cycle) is None


def test_stable_cycle_long_cycles():
    # every root of SU(12,9) holds r and -r: infeasible; its positive half
    # (first nonzero coefficient positive) is negative on -(9, 8, ..., 1)
    spec = GroupSpec("su", 12, 9)
    labels = [info.label for info in roots(spec)]
    assert stable_cycle_feasible(spec, CycleSpec(tuple(labels))) is None
    positive = tuple(r for r in labels if next(c for c in r.coeffs if c) > 0)
    assert 2 * len(positive) == len(labels)
    witness = stable_cycle_feasible(spec, CycleSpec(positive))
    assert witness is not None
    assert all(root_value(r, witness) < 0 for r in positive)


def test_cartan_conjugation_rescales_parameters():
    # exp(T) x_r(p) exp(-T) = x_r(e^{r(t)} p), Heisenberg center scales doubly
    rng = np.random.default_rng(31)
    for spec in (GroupSpec("so", 5, 3), GroupSpec("su", 4, 3)):
        t = rng.uniform(-1, 1, size=spec.n)
        D = expm(embed(spec, t))
        Dinv = np.linalg.inv(D)
        for info in roots(spec):
            p = rand_param(spec, info.label, rng)
            val = root_value(info.label, t)
            conj = D @ x_elem(spec, info.label, p) @ Dinv
            if isinstance(p, Scalar) and info.label.kind == "long":
                scaled = Scalar(np.exp(val) * p.t)
            elif isinstance(p, Scalar):
                scaled = Scalar(np.exp(val) * p.t)
            elif isinstance(p, Cx):
                scaled = Cx(np.exp(val) * p.z)
            elif isinstance(p, RVec):
                scaled = RVec(tuple(np.exp(val) * np.asarray(p.a)))
            else:
                scaled = Heis(np.exp(2 * val) * p.t,
                              tuple(np.exp(val) * np.asarray(p.a)))
            assert DEFAULT_TOL.close(conj, x_elem(spec, info.label, scaled))
