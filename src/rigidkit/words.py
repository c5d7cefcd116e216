"""Words over the generator alphabet and staircase normal forms.

A word is a sequence of letters (root, parameter, exponent ±1) standing for
the ordered product of generators; free reduction keeps that product.  The
staircase machinery expresses a compact tail-block rotation as the descending
product of adjacent-plane rotations (orthogonal: one angle per position;
unitary: an Euler triple real/imag/real per position) and reconstructs it from
rotation words.  Both families share one path: a unitary Givens step per
plane, applied in place, whose inverse is read through ``su2_euler`` (an
orthogonal step is a real rotation, whose one angle is read as su2_euler's
first angle, by the same arctan2), and the rotation words of all entries as
one stack (``plane_words``).  The unchecked Givens core also solves the braid
exchange of the relation suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInGroup, OutOfRange, ParseError, ShapeMismatch, SizeMismatch
from .matrixcore import (DEFAULT_TOL, GroupSpec, _eye, _frobenius, identity, json_field,
                         json_loads)
from .generators import (ZERO_PARAM_EPS, check_param, param_add, param_from_json, param_to_json,
                         rot_from_angle)
from .rootsystem import RootLabel, parse_root


@dataclass(frozen=True)
class Letter:
    root: RootLabel
    param: object
    exponent: int = 1

    def __post_init__(self):
        if self.exponent not in (1, -1):
            raise ShapeMismatch(f"exponent must be +1 or -1, got {self.exponent}")


def free_reduce(spec: GroupSpec, word) -> list:
    """Drop zero letters, cancel adjacent inverse pairs, merge additively.

    Adjacent letters with the same root, identical parameter and opposite
    exponents cancel; adjacent +1 letters on the same root merge through
    parameter addition (scalar and vector shapes only).  Every parameter is
    checked like a loaded one, and a zero one is one of norm at most
    ZERO_PARAM_EPS.  Evaluation is unchanged.
    """
    letters = list(word)
    changed = True
    while changed:
        changed = False
        out = []
        for letter in letters:
            if check_param(spec, letter.root, letter.param)[2] <= ZERO_PARAM_EPS:
                changed = True
                continue
            if out:
                prev = out[-1]
                if (prev.root == letter.root and prev.exponent == -letter.exponent
                        and prev.param == letter.param):
                    out.pop()
                    changed = True
                    continue
                if (prev.root == letter.root and prev.exponent == 1 == letter.exponent
                        and not (spec.unitary and letter.root.kind == "vec")):
                    merged = param_add(spec, letter.root, prev.param, letter.param)
                    out.pop()
                    if check_param(spec, letter.root, merged)[2] > ZERO_PARAM_EPS:
                        out.append(Letter(letter.root, merged, 1))
                    changed = True
                    continue
            out.append(letter)
        letters = out
    return letters


def word_to_json(word) -> list:
    return [{"root": str(l.root), "param": param_to_json(l.param), "exp": l.exponent}
            for l in word]


def word_from_json(obj, spec: GroupSpec) -> list:
    """Decode a word; ParseError when a key is missing or has the wrong type."""
    if not isinstance(obj, list):
        raise ParseError(f"a word is a JSON list of letters, got {obj!r}")
    out = []
    for item in obj:
        root = parse_root(json_field(item, "root", str), spec)
        param = param_from_json(json_field(item, "param", dict))
        check_param(spec, root, param)
        exponent = json_field(item, "exp", int) if "exp" in item else 1
        out.append(Letter(root, param, exponent))
    return out


def load_word(path: str, spec: GroupSpec) -> list:
    with open(path) as fh:
        return word_from_json(json_loads(fh.read()), spec)


# ---------------------------------------------------------------------------
# staircase normal form for the compact tail block


@dataclass(frozen=True)
class Staircase:
    """Descending rotation data: rows of lengths k-1, k-2, ..., 1.

    Row r, position i holds the rotation in tail plane (i, i+1): an angle
    for the orthogonal family, an Euler triple (real, imag, real) for the
    unitary family.
    """

    family: str
    k: int
    rows: tuple

    def to_json(self) -> dict:
        rows = [np.asarray(row, dtype=float).tolist() for row in self.rows]
        return {"family": self.family, "k": self.k, "rows": rows}


def _canon_angle(psi: float) -> float:
    psi = float((psi + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if psi == -np.pi else psi


def su2_euler(V: np.ndarray) -> tuple:
    """Euler angles (p1, p2, p3) with V = Rr(p1) Ri(p2) Rr(p3) in SU(2).

    Rr is the real rotation [[c,-s],[s,c]], Ri the imaginary rotation
    [[c,-is],[-is,c]].  At gimbal lock, a middle angle that is 0 or pi/2 in
    floating point, V fixes only p1 + p3 or p3 - p1, and p3 is set to 0.
    Short of that the generic formula holds, however close V is to a lock.
    """
    x, w = V[0, 0].real, V[0, 0].imag
    y, z = V[0, 1].real, V[0, 1].imag
    p2 = _canon_angle(float(np.arctan2(np.hypot(z, w), np.hypot(x, y))))
    if p2 == 0.0:
        return _canon_angle(float(np.arctan2(-y, x))), p2, 0.0
    if p2 == np.pi / 2:
        return _canon_angle(float(np.arctan2(w, -z))), p2, 0.0
    sum13 = np.arctan2(-y, x)
    diff31 = np.arctan2(-w, -z)
    p1 = (sum13 - diff31) / 2.0
    p3 = (sum13 + diff31) / 2.0
    return _canon_angle(float(p1)), p2, _canon_angle(float(p3))


def plane_words(spec: GroupSpec, planes, entries) -> np.ndarray:
    """The rotation words of staircase entries, entry e in tail plane
    (planes[e], planes[e] + 1), as one (E, N, N) stack: Rr(angle) for the
    orthogonal family, Rr(p1) Ri(p2) Rr(p3) for an Euler triple.  All 1 or 3
    rotations per entry are one h_rot stack; a triple is then two stacked
    products, each word byte for byte its one-word evaluation."""
    planes, angles = np.asarray(planes), np.asarray(entries, dtype=float)
    if not spec.unitary:
        return rot_from_angle(spec, planes, angles)
    E = len(planes)
    R = rot_from_angle(spec, np.tile(planes, 3), angles.T.ravel(),
                       ["real"] * E + ["imag"] * E + ["real"] * E)
    return R[:E] @ R[E:2 * E] @ R[2 * E:]


def _check_tail_block(spec: GroupSpec, B: np.ndarray) -> np.ndarray:
    k = spec.tail
    if B.shape != (k, k):
        raise SizeMismatch(f"tail block must be {k}x{k}, got {B.shape}")
    B = np.asarray(B, dtype=complex)
    # before any comparison, each of which an inf or a NaN could answer falsely
    if not np.isfinite(B).all():
        raise NotInGroup("tail block has a non-finite entry")
    if not spec.unitary:
        # an imaginary part within tolerance is dropped: the block is read by its real part
        if _frobenius(B.imag) > DEFAULT_TOL.rel * (1 + _frobenius(B)):
            raise NotInGroup("orthogonal-family tail block must be real")
        B = B.real.astype(complex)
    if not DEFAULT_TOL.close(B.conj().T @ B, _eye(k)):
        raise NotInGroup("tail block is not orthogonal/unitary to tolerance")
    if abs(np.linalg.det(B) - 1.0) > 1e-7:
        raise NotInGroup("tail block must have determinant 1")
    return B


def staircase_decompose(spec: GroupSpec, B: np.ndarray) -> Staircase:
    """Factor B in SO(k) / SU(k), checked to DEFAULT_TOL, into the descending staircase pattern."""
    k = spec.tail
    if k < 2:
        raise OutOfRange(f"staircase needs m-n >= 2, got {k}")
    return Staircase(spec.family, k, staircase_rows(_check_tail_block(spec, B), spec.unitary))


def staircase_rows(B: np.ndarray, unitary: bool) -> tuple:
    """The staircase rows of a k x k block, which is not checked to be in the group.

    Column-peeling Givens elimination: the first row of factors carries the
    last column of B, the remainder recurses on the leading block.  Each
    step U = [[y_j, -y_i], [conj y_i, conj y_j]] / |y| zeroes y_i against
    y_j in place and records U^-1 by its Euler angles; a real block gives a
    real rotation U, whose middle and last angles are 0, so the orthogonal
    family keeps the first angle only.  It reads that angle as su2_euler
    does: the imaginary parts of a real U are zeros of either sign, whose
    hypot is +0, so su2_euler takes its p2 = 0 branch, arctan2(-y, x).
    """
    B = np.array(B, dtype=complex)
    rows = []
    for kk in range(B.shape[0], 1, -1):
        row = []
        for i in range(1, kk):
            yi, yj = B[i - 1, kk - 1], B[i, kk - 1]
            nrm = float(np.hypot(abs(yi), abs(yj)))
            if nrm < 1e-300:
                U = np.eye(2, dtype=complex)
            else:
                U = np.array([[yj, -yi], [np.conj(yi), np.conj(yj)]]) / nrm
            B[i - 1:i + 1, :kk] = U @ B[i - 1:i + 1, :kk]
            row.append(su2_euler(U.conj().T) if unitary else
                       _canon_angle(float(np.arctan2(-U[1, 0].real, U[0, 0].real))))
        rows.append(tuple(row))
    return tuple(rows)


def reconstruct(spec: GroupSpec, stair: Staircase) -> np.ndarray:
    """Tail block of the ordered product of rotation words in the staircase."""
    k = spec.tail
    if stair.k != k or stair.family != spec.family:
        raise OutOfRange(f"staircase is for family={stair.family}, k={stair.k}, spec has {spec.family}, {k}")
    planes = [i for row in stair.rows for i in range(1, len(row) + 1)]
    M = _eye(spec.size)
    for P in plane_words(spec, planes, [entry for row in stair.rows for entry in row]):
        M = M @ P
    if not DEFAULT_TOL.close(M[:2 * spec.n, :2 * spec.n], _eye(2 * spec.n)):
        raise NotInGroup("rotation words left the compact tail subgroup")
    # the shared identity itself when there is no word: a fresh one is returned
    return M[2 * spec.n:, 2 * spec.n:] if planes else identity(k)
