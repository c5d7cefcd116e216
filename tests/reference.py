"""Reference constructions the tests compare rigidkit against, and the
negative-control patch of the relation suites.

The references are the plain definitions the package's closed forms replace:
the terminating exponential series of a nilpotent matrix, a generator's inverse
by parameter negation, the ordered product of a word's generators, the chain
elements from parameter objects, the rotation words h^j and the staircase
product built one letter at a time, the staircase rows read through su2_euler
at every Givens step, and membership in the Lie algebra of the invariant form.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rigidkit import generators
from rigidkit.errors import NotNilpotent, SizeMismatch
from rigidkit.generators import ZERO_PARAM_EPS, Cx, Heis, RVec, Scalar, x_elem
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, Tolerance, _form_cached, identity
from rigidkit.rootsystem import (GenericPlaneReport, RootLabel, cartan_vector,
                                 hyperplane_representatives, parse_root, root_value)


def exp_nilpotent(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Exact exponential of a nilpotent matrix via the finite series.

    Raises NotNilpotent unless ||X^size / (size-1)!|| <= tol.rel * (1 + ||X||)^size.
    As in ``nilpotent_log``, the two sides are compared in log space, so the
    bound cannot overflow, and the test is written so that a NaN or an
    overflowed power fails it.
    """
    size = X.shape[0]
    if X.shape != (size, size):
        raise SizeMismatch("exp_nilpotent needs a square matrix")
    result = identity(size)
    term = identity(size)
    for k in range(1, size):
        term = term @ X / k
        if not term.any():
            return result
        result += term
    power = term @ X  # X^size / (size-1)!
    norm_power, norm_x = np.linalg.norm(power), np.linalg.norm(X)
    if not (math.isfinite(norm_x) and (norm_power == 0 or math.log(norm_power)
            <= math.log(tol.rel) + size * math.log1p(norm_x))):
        raise NotNilpotent(f"X^{size} has norm {norm_power:.3e}, not nilpotent")
    return result


def param_neg(p):
    """Parameter of the inverse element: x(p)^-1 = x(param_neg(p))."""
    if isinstance(p, Scalar):
        return Scalar(-p.t)
    if isinstance(p, Cx):
        return Cx(-p.z)
    if isinstance(p, RVec):
        return RVec(tuple(-x for x in p.a))
    return Heis(-p.t, tuple(-x for x in p.a))


def eval_word(spec: GroupSpec, word) -> np.ndarray:
    """Ordered product of x_root(param)^exponent over the letters."""
    M = identity(spec.size)
    for letter in word:
        p = letter.param if letter.exponent == 1 else param_neg(letter.param)
        M = M @ x_elem(spec, letter.root, p)
    return M


def verbatim_h_rot(spec: GroupSpec, j, ab, variant="real") -> np.ndarray:
    """The rotation word h^j_{L_n}(sqrt2 a, sqrt2 b) built letter by letter, one
    x_elem per letter, and multiplied in word order from its first letter."""
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
    M = x_elem(spec, *word[0])
    for root, q in word[1:]:
        M = M @ x_elem(spec, root, q)
    return M


def verbatim_reconstruct(spec: GroupSpec, stair) -> np.ndarray:
    """The tail block of a staircase's product, one rotation word at a time: from
    the identity, each entry's word Rr(angle) (orthogonal) or Rr(p1) Ri(p2) Rr(p3)
    (unitary), every rotation by psi being verbatim_h_rot at (cos psi/2, sin psi/2)."""
    def rot(i, psi, variant):
        return verbatim_h_rot(spec, i, (np.cos(psi / 2.0), np.sin(psi / 2.0)), variant)
    M = identity(spec.size)
    for row in stair.rows:
        for i, entry in enumerate(row, start=1):
            if spec.unitary:
                P = rot(i, entry[0], "real") @ rot(i, entry[1], "imag") @ rot(i, entry[2], "real")
            else:
                P = rot(i, entry, "real")
            M = M @ P
    return M[2 * spec.n:, 2 * spec.n:]


def euler_staircase_rows(B: np.ndarray, unitary: bool) -> tuple:
    """The staircase rows of a block by the Givens loop that reads every step U^-1
    through su2_euler, keeping only the first angle for the orthogonal family."""
    from rigidkit.words import su2_euler
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
            euler = su2_euler(U.conj().T)
            row.append(euler if unitary else euler[0])
        rows.append(tuple(row))
    return tuple(rows)


def verbatim_chain_params(spec: GroupSpec, root: RootLabel, p) -> tuple:
    """The chain factor parameters (x0, y0, x1), w = x0 y0 x1, as parameter objects by
    the formulas the chain was first written with; y0 lives in the opposite root group."""
    if isinstance(p, Scalar):
        return p, Scalar(1.0 / p.t if root.kind == "long" else -1.0 / p.t), p
    if isinstance(p, Cx):
        return p, Cx(-1.0 / p.z), p
    a = np.asarray(p.a)
    if isinstance(p, RVec):
        return p, RVec(tuple(2.0 * a / float(a @ a))), p
    norm_a = float(np.linalg.norm(a))
    if norm_a <= ZERO_PARAM_EPS:
        return p, Heis(1.0 / p.t, p.a), p
    if abs(p.t) <= ZERO_PARAM_EPS:
        return p, Heis(0.0, tuple(2.0 * a / norm_a**2)), p
    a0 = complex(-0.5 * float(np.vdot(a, a).real), p.t)
    return p, Heis(p.t / abs(a0) ** 2, tuple(-a / a0)), Heis(p.t, tuple(np.conj(a0) / a0 * a))


def verbatim_letter(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    """x_root(p) written entry by entry into the identity, as it was first written."""
    M = identity(spec.size)
    kind, pos = root.position
    if kind == "pm":
        z = complex(p.t) if type(p) is Scalar else complex(p.z)
        M[pos] += z
        M[root.mirror] -= z.conjugate()
        return M
    if kind == "long":
        M[pos] += 1j * p.t
        return M
    row, col = pos
    a = np.asarray(p.a, dtype=complex)
    a0 = (complex(-0.5 * float(np.vdot(a, a).real), p.t) if type(p) is Heis
          else complex(-0.5 * float(a.real @ a.real)))
    M[row, 2 * spec.n:] += a
    M[2 * spec.n:, col] -= a.conjugate()
    M[pos] += a0
    return M


def verbatim_chain(spec: GroupSpec, root: RootLabel, p) -> tuple:
    """The chain element and its factors (w, X0, Y0, X1) as first written: the factor
    parameters of verbatim_chain_params, each factor by verbatim_letter, and
    w = X0 @ Y0 @ X1."""
    x0, y0, x1 = verbatim_chain_params(spec, root, p)
    X0, Y0, X1 = (verbatim_letter(spec, r, q) for r, q in ((root, x0), (-root, y0), (root, x1)))
    return X0 @ Y0 @ X1, X0, Y0, X1


def in_algebra(X: np.ndarray, spec: GroupSpec, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff X is in the Lie algebra of the form: X*G + GX = 0."""
    G = _form_cached(spec)
    left = X.conj().T if spec.unitary else X.T
    return tol.close(left @ G + G @ X, np.zeros_like(G))


def generic_plane_pairwise(spec: GroupSpec, v1, v2) -> GenericPlaneReport:
    """is_generic_plane for independent v1, v2 by the plain pairwise loop: the
    first hyperplane that vanishes on the plane, else the first pair (a, b),
    a before b, that restricts proportionally."""
    f1, f2 = ([Fraction(x) for x in cartan_vector(spec, v, "plane vector").tolist()]
              for v in (v1, v2))
    restricted = [(r, root_value(r, f1), root_value(r, f2))
                  for r in hyperplane_representatives(spec)]
    for r, x, y in restricted:
        if x == y == 0:
            return GenericPlaneReport(False, (r,))
    for a, (ra, xa, ya) in enumerate(restricted):
        for rb, xb, yb in restricted[a + 1:]:
            if xa * yb == ya * xb:
                return GenericPlaneReport(False, (ra, rb))
    return GenericPlaneReport(True, ())


def negate_opposite_factors(monkeypatch):
    """x_alpha(p) is built as x_alpha(-p) for every negative root alpha, one
    letter at a time or a stack of them."""
    # every one-root letter, chain factors and rotation letters included, is written
    # by _letter
    letter = generators._letter

    def wrong(spec, root, value, a0=0j):
        if root.coeffs[root.support[0]] < 0:
            value, a0 = -value, a0.conjugate()
        return letter(spec, root, value, a0)
    monkeypatch.setattr(generators, "_letter", wrong)
    # h_rot's fixed factors come from a cache: the patched run fills a fresh one,
    # which goes with the patch, so neither run sees the other's factors
    monkeypatch.setattr(generators, "_rot_frame",
                        lru_cache(maxsize=None)(generators._rot_frame.__wrapped__))
