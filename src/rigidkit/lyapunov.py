"""Lyapunov combinatorics of the split Cartan action.

Exponent tables with multiplicities, the dimensions of the stable/unstable/
neutral splittings, bracket generation of the tangent space and strict
feasibility of stable cycles.

Stable cycles are decided by least-distance programming (Lawson and Hanson,
*Solving Least Squares Problems*, ch. 23) through one ``scipy.optimize.nnls``
call, and a returned witness is sign-checked exactly on every cycle root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import UnknownRoot
from .matrixcore import DEFAULT_TOL, GroupSpec, bracket
from .rootsystem import cartan_vector, is_root, root_space_basis, root_table, roots


def dim_group(spec: GroupSpec) -> int:
    s = spec.size
    return s * s - 1 if spec.unitary else s * (s - 1) // 2


def zero_multiplicity(spec: GroupSpec) -> int:
    k = spec.tail
    if spec.unitary:
        return 2 * spec.n + k * k - 1
    return spec.n + (k - 1) * k // 2


@dataclass(frozen=True)
class ExponentTable:
    """Lyapunov exponents with multiplicities; None labels the zero exponent."""

    entries: tuple

    @property
    def total(self) -> int:
        return sum(mult for _, mult in self.entries)

    def to_json(self) -> dict:
        return {"entries": [{"functional": (str(r) if r is not None else "0"),
                             "multiplicity": mult} for r, mult in self.entries],
                "total": self.total}


def exponent_table(spec: GroupSpec) -> ExponentTable:
    entries = [(info.label, info.multiplicity) for info in roots(spec)]
    entries.append((None, zero_multiplicity(spec)))
    return ExponentTable(tuple(entries))


@dataclass(frozen=True)
class SplittingReport:
    t: tuple
    stable_dim: int
    unstable_dim: int
    neutral_dim: int

    def to_json(self) -> dict:
        return {"t": list(self.t), "stable_dim": self.stable_dim,
                "unstable_dim": self.unstable_dim, "neutral_dim": self.neutral_dim}


def splitting(spec: GroupSpec, t) -> SplittingReport:
    """Count root-space directions by the sign of the exponent at t.

    Each root adds its multiplicity to the stable, unstable or neutral count.
    Walls are allowed: roots with |value| <= DEFAULT_TOL.rel * (1 + |t|)
    count as neutral, alongside the Cartan and the compact zero block
    (``zero_multiplicity``).
    """
    t = cartan_vector(spec, t)
    wall = DEFAULT_TOL.rel * (1.0 + np.linalg.norm(t))
    table = root_table(spec.family, spec.m, spec.n)
    stable, unstable, neutral = 0, 0, zero_multiplicity(spec)
    # every root value has at most two nonzero terms, each an exact product
    # of t_i with 1 or 2, so the one product rounds as each root's own dot
    for val, mult in zip((table.coeffs @ t).tolist(), table.mults):
        if val < -wall:
            stable += mult
        elif val > wall:
            unstable += mult
        else:
            neutral += mult
    return SplittingReport(tuple(float(x) for x in t), stable, unstable, neutral)


def _rank_of_span(mats) -> int:
    if not mats:
        return 0
    rows = np.array([np.concatenate([M.real.reshape(-1), M.imag.reshape(-1)]) for M in mats])
    return int(np.linalg.matrix_rank(rows, tol=1e-8))


def bracket_generation_check(spec: GroupSpec, include_brackets: bool = True):
    """Rank of the span of all root vectors (plus their pairwise brackets).

    With brackets the span must be the whole Lie algebra.  Returns
    (ok, rank) where ok means rank == dim_group(spec).
    """
    vectors = [M for info in roots(spec) for M in root_space_basis(spec, info.label)]
    mats = list(vectors)
    if include_brackets:
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                mats.append(bracket(vectors[a], vectors[b]))
    rank = _rank_of_span(mats)
    return rank == dim_group(spec), rank


@dataclass(frozen=True)
class CycleSpec:
    roots: tuple

    def __post_init__(self):
        if not self.roots:
            raise UnknownRoot("a cycle needs at least one root")


def stable_cycle_feasible(spec: GroupSpec, cycle: CycleSpec):
    """Witness t with root(t) < 0 for every cycle root, or None.

    With A the cycle's coefficient rows, the shortest t with A t <= -1 is
    a least-distance program, solved as the NNLS problem u >= 0 minimizing
    |E u - f| with E = [-A^T; 1^T] and f = e_{n+1}.  Its residual r has
    r[-1] = -|r|^2, so the cycle is infeasible exactly when r = 0, and
    otherwise t is a positive multiple of r[:n] = -A^T u.  That t is
    scaled so that its largest cycle-root value is -1 (nnls may stop short
    of the optimum) and returned only if every cycle root is negative at
    it.  That test is exact: each root value is at most two exact products
    with 1 or 2, rounded once, so its computed sign is its true sign at t.
    """
    for r in cycle.roots:
        if not is_root(spec, r):
            raise UnknownRoot(f"{r} is not a root of {spec}")
    A = np.array([r.coeffs for r in cycle.roots], dtype=float)
    f = np.zeros(spec.n + 1)
    f[-1] = 1.0
    E = np.ones((spec.n + 1, len(A)))
    np.negative(A.T, out=E[:-1])
    u, _ = nnls(E, f)
    t = -A.T @ u
    top = float((A @ t).max())
    if not top < 0:
        return None
    t = t / -top
    return t if bool(np.all(A @ t < 0)) else None

