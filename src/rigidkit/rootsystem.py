"""Restricted root system of SO+(m,n) / SU(m,n) relative to the split Cartan.

Roots are integer coefficient vectors in the dual of the Cartan: L_i - L_j
and L_i + L_j (multiplicity 1 / 2), L_i when m > n (multiplicity m-n /
2(m-n)), and 2L_i for the unitary family (multiplicity 1).  Root spaces are
produced as explicit matrices in the split basis fixed by
``matrixcore.form_matrix``.  Which vectors are roots is answered by one
index keyed by the coefficient tuple (``root_index``), so a caller doing
coefficient arithmetic looks its sums up without building a label.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (DegeneratePlane, NotRegular, OutOfRange, ParseError, SizeMismatch,
                     UnknownRoot)
from .matrixcore import GroupSpec, Tolerance, DEFAULT_TOL, basis_matrix

_ROOT_RE = re.compile(r"^([+-]?)(2?)L(\d+)(?:([+-])(2?)L(\d+))?$")


@dataclass(frozen=True)
class RootLabel:
    """A restricted root, stored as its integer coefficient vector."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    # computed once per label: the frozen dataclass keeps an instance __dict__
    @cached_property
    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    @cached_property
    def kind(self) -> str:
        """One of "pm" (±L_i±L_j), "vec" (±L_i), "long" (±2L_i)."""
        sup = self.support
        if len(sup) == 2:
            return "pm"
        if len(sup) == 1 and abs(self.coeffs[sup[0]]) == 1:
            return "vec"
        if len(sup) == 1 and abs(self.coeffs[sup[0]]) == 2:
            return "long"
        raise UnknownRoot(f"coefficient vector {self.coeffs} is not a root shape")

    @cached_property
    def position(self) -> tuple:
        """Where the root space sits in the matrix: (kind, (row, col)), 0-based.

        Row k < n carries the weight L_{k+1}, row k + n the weight -L_{k+1},
        and the tail rows weight 0; an entry (row, col) lies in the root space
        of weight(row) - weight(col).  The leading entry is the parameter entry
        of a ±L_i±L_j or ±2L_i root and the central (a0) entry of a ±L_i root,
        whose vector part fills row ``row`` at the tail columns.  It depends on
        n = len(coeffs) alone, so it is kept on the label and read without
        hashing anything.
        """
        n = len(self.coeffs)
        kind = self.kind
        up = [k for k in self.support if self.coeffs[k] > 0]
        down = [k for k in self.support if self.coeffs[k] < 0]
        if kind != "pm":
            k = self.support[0]
            return kind, ((k, k + n) if up else (k + n, k))
        if up and down:                           # L_i - L_j
            return kind, (up[0], down[0])
        if up:                                    # L_i + L_j, i < j
            return kind, (up[0], up[1] + n)
        return kind, (down[1] + n, down[0])       # -L_i - L_j, i < j

    @cached_property
    def mirror(self) -> tuple:
        """The entry the invariant form pairs with the leading entry."""
        return _mirror(len(self.coeffs), *self.position[1])

    @cached_property
    def _negated(self) -> "RootLabel":
        return RootLabel(tuple(-c for c in self.coeffs))

    def __neg__(self) -> "RootLabel":
        return self._negated

    def __str__(self):
        # Canonical form: positive term first for differences, ascending
        # index otherwise; indices are 1-based.
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "2" if abs(c) == 2 else ""
            terms.append((c > 0, f"{mag}L{i + 1}"))
        terms.sort(key=lambda t: not t[0])  # positive term leads
        out = ""
        for positive, name in terms:
            if not out:
                out = name if positive else f"-{name}"
            else:
                out += ("+" if positive else "-") + name
        return out


@dataclass(frozen=True)
class RootInfo:
    label: RootLabel
    multiplicity: int


def _unit(n: int, i: int, c: int = 1) -> tuple:
    v = [0] * n
    v[i - 1] = c
    return tuple(v)


@lru_cache(maxsize=None)
def _roots_cached(spec: GroupSpec) -> tuple:
    n = spec.n
    mult_pm = 2 if spec.unitary else 1
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = tuple(a - b for a, b in zip(_unit(n, i), _unit(n, j)))
            tot = tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j)))
            for c in (diff, tuple(-x for x in diff), tot, tuple(-x for x in tot)):
                out.append(RootInfo(RootLabel(c), mult_pm))
    if spec.m > spec.n:
        mult_vec = 2 * spec.tail if spec.unitary else spec.tail
        for i in range(1, n + 1):
            out.append(RootInfo(RootLabel(_unit(n, i)), mult_vec))
            out.append(RootInfo(RootLabel(_unit(n, i, -1)), mult_vec))
    if spec.unitary:
        for i in range(1, n + 1):
            out.append(RootInfo(RootLabel(_unit(n, i, 2)), 1))
            out.append(RootInfo(RootLabel(_unit(n, i, -2)), 1))
    return tuple(out)


def root_index(spec: GroupSpec) -> dict:
    """Coefficient tuple -> RootInfo for every root of ``spec``.

    Keyed by ``label.coeffs``: a tuple of ints hashes in C, so a lookup never
    runs a label's Python ``__hash__``.  The index itself is cached by the
    spec's fields for the same reason.  The shared dict must not be mutated.
    """
    return _root_index(spec.family, spec.m, spec.n)


@lru_cache(maxsize=None)
def _root_index(family: str, m: int, n: int) -> dict:
    return {info.label.coeffs: info for info in _roots_cached(GroupSpec(family, m, n))}


def roots(spec: GroupSpec) -> list:
    """The complete restricted root system, in a fixed deterministic order.

    Order: L_i-L_j and L_j-L_i and L_i+L_j and -L_i-L_j for i<j
    (lexicographic in (i,j)), then ±L_i, then ±2L_i.
    """
    return list(_roots_cached(spec))


def positive_roots(spec: GroupSpec) -> list:
    """Roots whose first nonzero coefficient is positive, fixed order."""
    return [info for info in _roots_cached(spec)
            if info.label.coeffs[info.label.support[0]] > 0]


def is_root(spec: GroupSpec, label: RootLabel) -> bool:
    return label.coeffs in root_index(spec)


def multiplicity(spec: GroupSpec, label: RootLabel) -> int:
    try:
        return root_index(spec)[label.coeffs].multiplicity
    except KeyError:
        raise UnknownRoot(f"{label} is not a root of {spec}") from None


def _mirror(n: int, row: int, col: int) -> tuple:
    s = lambda k: k if k >= 2 * n else (k + n if k < n else k - n)
    return s(col), s(row)


def mirror_position(spec: GroupSpec, row: int, col: int) -> tuple:
    """The entry the invariant form pairs with (row, col), 0-based.

    Every algebra element has X[s(col), s(row)] = -conj(X[row, col]), where
    s swaps k and k + n for k < 2n and fixes the tail.
    """
    return _mirror(spec.n, row, col)


def root_space_basis(spec: GroupSpec, label: RootLabel) -> list:
    """Basis matrices of the root space, in the split-basis coordinates."""
    if not is_root(spec, label):
        raise UnknownRoot(f"{label} is not a root of {spec}")
    E = lambda pos, v=1.0: basis_matrix(spec.size, pos[0] + 1, pos[1] + 1, v)
    kind, (row, col) = label.position
    if kind == "long":
        return [E((row, col), 1j)]
    entries = [(row, col)] if kind == "pm" else [(row, c) for c in range(2 * spec.n, spec.size)]
    out = []
    for pos in entries:
        mirror = mirror_position(spec, *pos)
        out.append(E(pos) - E(mirror))
        if spec.unitary:
            out.append(E(pos, 1j) + E(mirror, 1j))
    return out


def root_value(label: RootLabel, t) -> float:
    """Evaluate the root functional on a Cartan vector."""
    t = np.asarray(t, dtype=float)
    if len(label.coeffs) != t.shape[0]:
        raise SizeMismatch(f"root has {len(label.coeffs)} coefficients, vector has {t.shape[0]}")
    return float(np.dot(label.coeffs, t))


@lru_cache(maxsize=256)
def parse_label(text: str, n: int) -> RootLabel:
    """Parse the root grammar ("L1-L2", "-L1-L2", "L3", "2L3", ...) over n
    Cartan coordinates, without asking whether the label is a root.

    Raises ParseError on bad syntax and UnknownRoot on an index outside 1..n.
    """
    mt = _ROOT_RE.match(text.strip().replace(" ", ""))
    if not mt:
        raise ParseError(f"cannot parse root {text!r}")
    groups = mt.groups()
    coeffs = [0] * n
    for sign, two, idx in (groups[:3], groups[3:]):
        if idx is None:
            continue
        i = int(idx)
        if not (1 <= i <= n):
            raise UnknownRoot(f"index {i} out of range for n={n}")
        coeffs[i - 1] += (2 if two else 1) * (-1 if sign == "-" else 1)
    return RootLabel(tuple(coeffs))


def parse_root(text: str, spec: GroupSpec) -> RootLabel:
    """Parse the root grammar; UnknownRoot when the text names no root of ``spec``."""
    label = parse_label(text, spec.n)
    if not is_root(spec, label):
        raise UnknownRoot(f"{text!r} is not a root of {spec}")
    return label


def embed(spec: GroupSpec, t) -> np.ndarray:
    """Embed a Cartan vector as diag(t_1..t_n, -t_1..-t_n, 0, ..., 0)."""
    t = np.asarray(t, dtype=float)
    if t.shape != (spec.n,):
        raise SizeMismatch(f"Cartan vector must have length {spec.n}")
    d = np.zeros(spec.size, dtype=complex)
    d[: spec.n] = t
    d[spec.n : 2 * spec.n] = -t
    return np.diag(d)


def cartan_vector(spec: GroupSpec, t, what: str = "Cartan vector") -> np.ndarray:
    """``t`` as a float vector of length n.

    SizeMismatch for another length; OutOfRange when the norm, which every
    scale-relative wall is measured against, is not finite (a nan or
    infinite entry, or finite entries whose norm overflows).
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (spec.n,):
        raise SizeMismatch(f"{what} must have length {spec.n}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(t)
    if not math.isfinite(norm):
        raise OutOfRange(f"{what} must have finite entries and a finite norm, got {t.tolist()}")
    return t


def is_regular(spec: GroupSpec, t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no root functional vanishes at t (up to scale tolerance)."""
    t = cartan_vector(spec, t)
    scale = tol.rel * (1.0 + np.linalg.norm(t))
    return all(abs(root_value(info.label, t)) > scale for info in positive_roots(spec))


def weyl_chamber(spec: GroupSpec, t) -> tuple:
    """Sign vector of the positive roots at a regular Cartan vector."""
    t = np.asarray(t, dtype=float)
    if not is_regular(spec, t):
        raise NotRegular(f"{t} lies on a Lyapunov hyperplane")
    return tuple(1 if root_value(info.label, t) > 0 else -1
                 for info in positive_roots(spec))


def hyperplane_representatives(spec: GroupSpec) -> list:
    """One root per Lyapunov hyperplane (mod sign and the 2L_i doubling)."""
    seen = set()
    reps = []
    for info in positive_roots(spec):
        c = np.array(info.label.coeffs)
        g = int(np.gcd.reduce(np.abs(c[c != 0])))
        key = tuple(int(x) for x in c // g)
        if key not in seen:
            seen.add(key)
            reps.append(RootLabel(key))
    return reps


@dataclass(frozen=True)
class GenericPlaneReport:
    generic: bool
    witness: tuple  # offending RootLabel(s), empty when generic

    def to_json(self) -> dict:
        return {"generic": self.generic, "witness": [str(r) for r in self.witness]}


def is_generic_plane(spec: GroupSpec, v1, v2, tol: Tolerance = DEFAULT_TOL) -> GenericPlaneReport:
    """Decide whether span(v1, v2) meets distinct hyperplanes in distinct lines.

    The plane is generic iff every hyperplane functional restricts to a
    nonzero functional on the plane and no two distinct hyperplanes restrict
    proportionally.  The witness names the offending hyperplane(s).
    """
    v1 = cartan_vector(spec, v1, "plane vector")
    v2 = cartan_vector(spec, v2, "plane vector")
    # |u1 ^ u2|^2 = det of the Gram matrix; dependence is scale-free, so each vector
    # is scaled to largest entry 1 first: |u|^2 lies in [1, n] and cannot overflow or
    # underflow to 0
    u1, u2 = (v / np.max(np.abs(v)) if v.any() else v for v in (v1, v2))
    wedge_sq = (u1 @ u1) * (u2 @ u2) - (u1 @ u2) ** 2
    if wedge_sq <= (tol.rel ** 2) * (u1 @ u1) * (u2 @ u2):
        raise DegeneratePlane("v1 and v2 are linearly dependent")
    reps = hyperplane_representatives(spec)
    restricted = [(r, np.array([root_value(r, v1), root_value(r, v2)])) for r in reps]
    scale = tol.rel * (1.0 + max(np.linalg.norm(v1), np.linalg.norm(v2)))
    for r, pair in restricted:
        if np.linalg.norm(pair) <= scale:
            return GenericPlaneReport(False, (r,))
    for a in range(len(restricted)):
        for b in range(a + 1, len(restricted)):
            ra, pa = restricted[a]
            rb, pb = restricted[b]
            det = pa[0] * pb[1] - pa[1] * pb[0]
            if abs(det) <= tol.rel * np.linalg.norm(pa) * np.linalg.norm(pb):
                return GenericPlaneReport(False, (ra, rb))
    return GenericPlaneReport(True, ())
