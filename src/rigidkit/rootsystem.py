"""Restricted root system of SO+(m,n) / SU(m,n) relative to the split Cartan.

Roots are integer coefficient vectors in the dual of the Cartan: L_i - L_j
and L_i + L_j (multiplicity 1 / 2), L_i when m > n (multiplicity m-n /
2(m-n)), and 2L_i for the unitary family (multiplicity 1).  Root spaces are
produced as explicit matrices in the split basis of the invariant form
(``matrixcore._form_cached``).  Each spec's roots are built once, into one
shared table (``root_table``) that every reader takes them from: the roots in
order, the index keyed by the coefficient tuple (so a caller doing coefficient
arithmetic looks its sums up without building a label), the coefficient rows
and multiplicities, and the hyperplane representatives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePlane, OutOfRange, ParseError, SizeMismatch, UnknownRoot
from .matrixcore import GroupSpec, basis_matrix

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
        return mirror_position(len(self.coeffs), *self.position[1])

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


class RootTable(NamedTuple):
    """The restricted root system of one spec, built once and shared read-only."""

    infos: tuple          # the RootInfo of every root, in ``roots`` order
    by_coeffs: dict       # coefficient tuple -> RootInfo
    coeffs: np.ndarray    # the float coefficient rows, in ``roots`` order, read-only
    mults: tuple          # the multiplicities, in ``roots`` order
    hyperplanes: tuple    # one RootLabel per Lyapunov hyperplane


@lru_cache(maxsize=None)
def root_table(family: str, m: int, n: int) -> RootTable:
    """The root table of the spec (family, m, n), the one per-spec root cache.

    Keyed by the spec's fields, which hash in C, so a lookup never runs
    ``GroupSpec``'s Python ``__hash__``; the index is keyed by ``label.coeffs``
    for the same reason, so a lookup never hashes a label.  A hyperplane is
    represented by the primitive coefficient vector of its first positive root
    (first nonzero coefficient positive), which merges 2L_i with L_i.
    """
    unitary, tail = family == "su", m - n
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]   # L_1, ..., L_n
    times = lambda s, c: tuple(s * x for x in c)
    # (coefficient tuple, multiplicity) in roots order: s L_i + u L_j for i < j,
    # then s L_i when m > n, then s 2L_i for the unitary family
    shapes = [(times(s, tuple(a + u * b for a, b in zip(e[i], e[j]))), 2 if unitary else 1)
              for i in range(n) for j in range(i + 1, n) for u in (-1, 1) for s in (1, -1)]
    if tail:
        shapes += [(times(s, L), 2 * tail if unitary else tail) for L in e for s in (1, -1)]
    if unitary:
        shapes += [(times(s, L), 1) for L in e for s in (2, -2)]
    infos = tuple(RootInfo(RootLabel(c), mult) for c, mult in shapes)
    coeffs = np.array([c for c, _ in shapes], dtype=float)
    coeffs.flags.writeable = False
    walls = dict.fromkeys(tuple(x // math.gcd(*c) for x in c) for c, _ in shapes
                          if next(x for x in c if x) > 0)   # positive roots, made primitive
    return RootTable(infos, {info.label.coeffs: info for info in infos}, coeffs,
                     tuple(mult for _, mult in shapes), tuple(map(RootLabel, walls)))


def root_index(spec: GroupSpec) -> dict:
    """Coefficient tuple -> RootInfo for every root of ``spec``, from its root
    table.  The shared dict must not be mutated."""
    return root_table(spec.family, spec.m, spec.n).by_coeffs


def roots(spec: GroupSpec) -> list:
    """The complete restricted root system, in a fixed deterministic order.

    Order: L_i-L_j and L_j-L_i and L_i+L_j and -L_i-L_j for i<j
    (lexicographic in (i,j)), then ±L_i, then ±2L_i.
    """
    return list(root_table(spec.family, spec.m, spec.n).infos)


def is_root(spec: GroupSpec, label: RootLabel) -> bool:
    return label.coeffs in root_table(spec.family, spec.m, spec.n).by_coeffs


def mirror_position(n: int, row: int, col: int) -> tuple:
    """The entry the invariant form pairs with (row, col), 0-based, for a
    Cartan of rank n.

    Every algebra element has X[s(col), s(row)] = -conj(X[row, col]), where
    s swaps k and k + n for k < 2n and fixes the tail.
    """
    s = lambda k: k if k >= 2 * n else (k + n if k < n else k - n)
    return s(col), s(row)


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
        mirror = mirror_position(spec.n, *pos)
        out.append(E(pos) - E(mirror))
        if spec.unitary:
            out.append(E(pos, 1j) + E(mirror, 1j))
    return out


def root_value(label: RootLabel, t):
    """Evaluate the root functional on a Cartan vector; exact on Fractions.

    Only the nonzero coefficients (at most two) are multiplied: a zero term
    leaves the sum unchanged.
    """
    c = label.coeffs
    if len(c) != len(t):
        raise SizeMismatch(f"root has {len(c)} coefficients, vector has {len(t)}")
    return sum([c[i] * t[i] for i in label.support])


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


def hyperplane_representatives(spec: GroupSpec) -> list:
    """One root per Lyapunov hyperplane (mod sign and the 2L_i doubling)."""
    return list(root_table(spec.family, spec.m, spec.n).hyperplanes)


@dataclass(frozen=True)
class GenericPlaneReport:
    generic: bool
    witness: tuple  # offending RootLabel(s), empty when generic

    def to_json(self) -> dict:
        return {"generic": self.generic, "witness": [str(r) for r in self.witness]}


def is_generic_plane(spec: GroupSpec, v1, v2) -> GenericPlaneReport:
    """Decide whether span(v1, v2) meets distinct hyperplanes in distinct lines.

    The plane is generic iff every hyperplane functional restricts to a
    nonzero functional on the plane and no two distinct hyperplanes restrict
    proportionally.  The witness names the offending hyperplane(s).  Every
    test is exact: it runs in rational arithmetic over the given floats.
    """
    f1, f2 = ([Fraction(x) for x in cartan_vector(spec, v, "plane vector").tolist()]
              for v in (v1, v2))
    if all(f1[i] * f2[j] == f1[j] * f2[i] for j in range(spec.n) for i in range(j)):
        raise DegeneratePlane("v1 and v2 are linearly dependent")
    # a nonzero restriction (x, y) is proportional to another exactly when their
    # slopes y / x agree (None for x = 0); the groups keep the order of first
    # members, so the first group of two gives the lexicographically first pair
    lines = {}
    for r in hyperplane_representatives(spec):
        x, y = root_value(r, f1), root_value(r, f2)
        if x == y == 0:
            return GenericPlaneReport(False, (r,))
        lines.setdefault(y / x if x else None, []).append(r)
    for group in lines.values():
        if len(group) > 1:
            return GenericPlaneReport(False, (group[0], group[1]))
    return GenericPlaneReport(True, ())
