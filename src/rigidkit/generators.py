"""Concrete group elements: unipotent generators, chain/Weyl and h elements.

Every one-root generator has an exact closed form (the exponential series
terminates at order two for these root spaces), so elements are assembled
entry by entry rather than through a general exponential.  The test suite
cross-checks the closed forms against ``matrixcore.exp_nilpotent``.

Parameter shapes per (family, root kind):

    so  ±L_i±L_j  -> Scalar(t)            real t
    so  ±L_i      -> RVec(a)              a in R^{m-n}
    su  ±L_i±L_j  -> Cx(z)                complex z
    su  ±2L_i     -> Scalar(t)            real t
    su  ±L_i      -> Heis(t, a)           t real, a in C^{m-n}
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CertificationError, NotOnSphere, OutOfRange, ParseError, ShapeMismatch,
                     UnknownRoot, VariantUnsupported, ZeroParameter)
from .matrixcore import (DEFAULT_TOL, MAX_SIZE, GroupSpec, Tolerance, identity, in_group,
                         json_complex, json_field, json_real)
from .rootsystem import RootLabel, embed, is_root, parse_label

ZERO_PARAM_EPS = 1e-12
# the largest parameter norm P.  The chain certificate forms triple products
# (x0 y0 x1 and w D w^-1) whose outer factors have entries up to P^2 (the a0
# entry -|a|^2/2 of a vector root) and whose middle factor has entries up to 1:
# an entry sums MAX_SIZE^2 terms up to P^4, and a Frobenius norm sums the
# squares of MAX_SIZE^2 entries, so MAX_SIZE^6 P^8 within the float range
# leaves no step of the certificate to overflow
PARAM_MAX = (sys.float_info.max / MAX_SIZE ** 6) ** 0.125


@dataclass(frozen=True)
class Scalar:
    t: float


@dataclass(frozen=True)
class Cx:
    z: complex


@dataclass(frozen=True)
class RVec:
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))


@dataclass(frozen=True)
class Heis:
    """Heisenberg parameter (t, a) of a unitary ±L_i root group element."""

    t: float
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))


def expected_shape(spec: GroupSpec, root: RootLabel):
    kind = root.kind
    if spec.unitary:
        return {"pm": Cx, "vec": Heis, "long": Scalar}[kind]
    if kind == "long":
        raise UnknownRoot(f"{root} is not a root of {spec}")
    return {"pm": Scalar, "vec": RVec}[kind]


def as_param(spec: GroupSpec, root: RootLabel, value, t: float = 0.0):
    """Wrap a raw value into the root's parameter shape.

    ``value`` is the scalar of a Scalar or Cx root and the vector part of an
    RVec or Heis root; ``t`` is the central part of a Heis parameter.
    """
    shape = expected_shape(spec, root)
    if shape is Scalar:
        return Scalar(float(value))
    if shape is Cx:
        return Cx(complex(value))
    if shape is RVec:
        return RVec(np.real(value))
    return Heis(t, tuple(value))


def check_param(spec: GroupSpec, root: RootLabel, p) -> None:
    if not is_root(spec, root):
        raise UnknownRoot(f"{root} is not a root of {spec}")
    want = expected_shape(spec, root)
    if not isinstance(p, want):
        raise ShapeMismatch(f"root {root} of {spec} takes {want.__name__}, got {type(p).__name__}")
    if want is Scalar:
        parts = (p.t,)
    elif want is Cx:
        parts = (p.z,)
    else:
        if len(p.a) != spec.tail:
            raise ShapeMismatch(f"vector parameter must have length {spec.tail}, got {len(p.a)}")
        parts = (p.t, *p.a) if want is Heis else p.a
    if not math.hypot(*map(abs, parts)) <= PARAM_MAX:   # written so that a NaN fails it
        raise OutOfRange(f"parameter of root {root} must be finite with norm at most "
                         f"{PARAM_MAX:.3g}, got {p}")


def param_norm(p) -> float:
    if isinstance(p, Scalar):
        return abs(p.t)
    if isinstance(p, Cx):
        return abs(p.z)
    if isinstance(p, RVec):
        return float(np.linalg.norm(p.a))
    return float(np.hypot(abs(p.t), np.linalg.norm(p.a)))


def is_zero_param(p) -> bool:
    return param_norm(p) <= ZERO_PARAM_EPS


def param_neg(p):
    """Parameter of the inverse element: x(p)^-1 = x(param_neg(p))."""
    if isinstance(p, Scalar):
        return Scalar(-p.t)
    if isinstance(p, Cx):
        return Cx(-p.z)
    if isinstance(p, RVec):
        return RVec(tuple(-x for x in p.a))
    return Heis(-p.t, tuple(-x for x in p.a))


def param_to_json(p) -> dict:
    if isinstance(p, Scalar):
        return {"t": p.t}
    if isinstance(p, Cx):
        return {"z": [p.z.real, p.z.imag]}
    if isinstance(p, RVec):
        return {"a": list(p.a)}
    return {"t": p.t, "a": [[x.real, x.imag] for x in p.a]}


def param_from_json(obj: dict):
    """Decode a parameter; ParseError when a value has the wrong type."""
    if not isinstance(obj, dict):
        raise ParseError(f"a parameter is a JSON object, got {obj!r}")
    keys = set(obj)
    if keys == {"t"}:
        return Scalar(json_real(obj["t"]))
    if keys == {"z"}:
        return Cx(json_complex(obj["z"]))
    if keys == {"a"}:
        return RVec(tuple(json_real(x) for x in json_field(obj, "a", list)))
    if keys == {"t", "a"}:
        return Heis(json_real(obj["t"]), tuple(json_complex(x) for x in json_field(obj, "a", list)))
    raise ShapeMismatch(f"unrecognized parameter encoding {obj}")


def heis_a0(p: Heis) -> complex:
    a = np.asarray(p.a)
    return complex(-0.5 * float(np.vdot(a, a).real), p.t)


# ---------------------------------------------------------------------------
# one-root generators


def x_elem(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    """The unipotent generator x_root(p), as an exact matrix."""
    check_param(spec, root, p)
    return _x_matrix(spec, root, p)


def _x_matrix(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
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
    # vec root: the vector fills row `row` of the tail columns and, mirrored,
    # column `col` of the tail rows; the a0 entry carries the Heisenberg part
    row, col = pos
    a = np.asarray(p.a, dtype=complex)
    a0 = heis_a0(p) if type(p) is Heis else complex(-0.5 * float(a.real @ a.real))
    tail = slice(2 * spec.n, None)
    M[row, tail] += a
    M[tail, col] -= a.conjugate()
    M[pos] += a0
    return M


def heis_read(spec: GroupSpec, root: RootLabel, M: np.ndarray) -> Heis:
    """Read the (t, a) coordinates of a unipotent ±L_i element off its entries."""
    _, (row, col) = root.position
    return Heis(float(M[row, col].imag), tuple(M[row, 2 * spec.n:]))


def heis_compose(spec: GroupSpec, root: RootLabel, p: Heis, q: Heis) -> Heis:
    """Group composition law in (t, a) coordinates, read off the product."""
    return heis_read(spec, root, _x_matrix(spec, root, p) @ _x_matrix(spec, root, q))


def param_add(spec: GroupSpec, root: RootLabel, p, q):
    """Parameter of x(p) x(q); plain addition except for the Heisenberg case."""
    if isinstance(p, Scalar):
        return Scalar(p.t + q.t)
    if isinstance(p, Cx):
        return Cx(p.z + q.z)
    if isinstance(p, RVec):
        return RVec(tuple(x + y for x, y in zip(p.a, q.a)))
    return heis_compose(spec, root, p, q)


# ---------------------------------------------------------------------------
# chain ("Weyl") elements


def chain_params(spec: GroupSpec, root: RootLabel, p):
    """The three chain factor parameters (x0, y0, x1) with w = x0 y0 x1.

    y0 lives in the opposite root group.  For scalar and vector parameters
    the two outer factors agree; the general unitary Heisenberg chain
    rotates the vector part of the trailing factor.
    """
    if is_zero_param(p):
        raise ZeroParameter(f"chain element of {root} needs a nonzero parameter")
    if isinstance(p, Scalar):
        if root.kind == "long":
            return p, Scalar(1.0 / p.t), p
        return p, Scalar(-1.0 / p.t), p
    if isinstance(p, Cx):
        return p, Cx(-1.0 / p.z), p
    if isinstance(p, RVec):
        a = np.asarray(p.a)
        y = RVec(tuple(2.0 * a / float(a @ a)))
        return p, y, p
    # unitary Heisenberg; the a0 formula covers all branches but the
    # degenerate ones are dispatched on their simpler certified forms
    a = np.asarray(p.a)
    norm_a = float(np.linalg.norm(a))
    if norm_a <= ZERO_PARAM_EPS:
        return p, Heis(1.0 / p.t, p.a), p
    if abs(p.t) <= ZERO_PARAM_EPS:
        y = Heis(0.0, tuple(2.0 * a / norm_a**2))
        return p, y, p
    a0 = heis_a0(p)
    y = Heis(p.t / abs(a0) ** 2, tuple(-a / a0))
    x1 = Heis(p.t, tuple(np.conj(a0) / a0 * a))
    return p, y, x1


def _chain_factors(spec: GroupSpec, root: RootLabel, p) -> tuple:
    """The three one-root factors (x0, y0, x1) of the chain element, as matrices.

    When chain_params returns the same outer parameter twice, X0 is built
    once and returned as X1 too.
    """
    check_param(spec, root, p)
    x0, y0, x1 = chain_params(spec, root, p)
    X0, Y0 = _x_matrix(spec, root, x0), _x_matrix(spec, -root, y0)
    return X0, Y0, (X0 if x1 is x0 else _x_matrix(spec, root, x1))


def w_matrix(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    """The chain element as a matrix, without certification."""
    X0, Y0, X1 = _chain_factors(spec, root, p)
    return X0 @ Y0 @ X1


def reflection(root: RootLabel, t) -> np.ndarray:
    """The Weyl reflection s_root acting on a Cartan vector."""
    t = np.asarray(t, dtype=float)
    coeffs = np.asarray(root.coeffs, dtype=float)
    return t - 2.0 * (coeffs @ t) / (coeffs @ coeffs) * coeffs


@dataclass(frozen=True)
class ChainCertificate:
    """w = x_i y_i x_next together with the normalizer and reflection checks."""

    w: np.ndarray
    x_i: np.ndarray
    y_i: np.ndarray
    x_next: np.ndarray
    reflection_checked: bool

    def to_json(self) -> dict:
        from .matrixcore import mat_to_json
        return {
            "factors": [mat_to_json(self.x_i), mat_to_json(self.y_i), mat_to_json(self.x_next)],
            "w": mat_to_json(self.w),
            "reflection_checked": self.reflection_checked,
        }


def w_elem(spec: GroupSpec, root: RootLabel, p, tol: Tolerance = DEFAULT_TOL) -> ChainCertificate:
    """Chain element with its factorization and reflection certificate."""
    X0, Y0, X1 = _chain_factors(spec, root, p)
    w = X0 @ Y0 @ X1
    w_inv = np.linalg.inv(w)
    ok = in_group(w, spec, tol)
    for e in np.eye(spec.n):
        lhs = w @ embed(spec, e) @ w_inv
        rhs = embed(spec, reflection(root, e))
        ok = ok and tol.close(lhs, rhs)
    return ChainCertificate(w, X0, Y0, X1, ok)


def h_elem(spec: GroupSpec, root: RootLabel, p1, p2, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """h_root(p1, p2) = w(p1) w(p2)^-1, an element centralizing the Cartan."""
    if is_zero_param(p1) or is_zero_param(p2):
        raise ZeroParameter("h element needs two nonzero parameters")
    h = w_matrix(spec, root, p1) @ np.linalg.inv(w_matrix(spec, root, p2))
    for e in np.eye(spec.n):
        D = embed(spec, e)
        if not tol.close(h @ D, D @ h):
            raise CertificationError(f"h element of {root} does not centralize the Cartan")
    return h


# ---------------------------------------------------------------------------
# planar rotation elements h^j


def h_rot(spec: GroupSpec, j: int, ab, variant: str = "real") -> np.ndarray:
    """The rotation word h^j_{L_n}(sqrt2 a, sqrt2 b), evaluated verbatim.

    The compact block is the rotation [[a^2-b^2, -2ab], [2ab, a^2-b^2]] in
    tail coordinates (j, j+1); the imaginary variant (unitary only) carries
    the conjugate block.  The word is the defining 9-factor (orthogonal) or
    6-factor (unitary) product; it is not simplified, but each of its 6
    (orthogonal) or 4 (unitary) distinct factors is built once.
    """
    a, b = ab
    if variant not in ("real", "imag"):
        raise VariantUnsupported(f"variant must be 'real' or 'imag', got {variant!r}")
    if variant == "imag" and not spec.unitary:
        raise VariantUnsupported("the imaginary variant exists only for the unitary family")
    if not (1 <= j <= spec.tail - 1):
        raise OutOfRange(f"need 1 <= j <= m-n-1 = {spec.tail - 1}, got j={j}")
    # written so that a NaN in a or b fails it
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-9:
        raise NotOnSphere(f"(a, b) must satisfy |a|^2 + |b|^2 = 1, got {ab}")
    if not spec.unitary and (isinstance(a, complex) or isinstance(b, complex)):
        raise VariantUnsupported("orthogonal rotations take real (a, b)")
    s2 = np.sqrt(2.0)
    k = spec.tail
    pos, neg = parse_label(f"L{spec.n}", spec.n), parse_label(f"-L{spec.n}", spec.n)
    if spec.unitary:
        c = np.zeros(k, dtype=complex)
        c[j - 1] = s2 * a
        c[j] = s2 * b * (1j if variant == "imag" else 1.0)
        e = np.zeros(k, dtype=complex)
        e[j - 1] = -s2
        pc, pe = Heis(0.0, tuple(c)), Heis(0.0, tuple(e))
        Xc, Yc, Xe, Ye = (_x_matrix(spec, r, q) for r, q in
                          ((pos, pc), (neg, pc), (pos, pe), (neg, pe)))
        word = (Xc, Yc, Xc, Xe, Ye, Xe)
    else:
        va = [0.0] * k
        vb = [0.0] * k
        ve = [0.0] * k
        va[j - 1] = s2 * a
        vb[j] = s2 * b
        ve[j - 1] = -s2
        pa, pb, pe = RVec(va), RVec(vb), RVec(ve)
        Xa, Xb, Ya, Yb, Xe, Ye = (_x_matrix(spec, r, q) for r, q in
                                  ((pos, pa), (pos, pb), (neg, pa), (neg, pb),
                                   (pos, pe), (neg, pe)))
        word = (Xa, Xb, Ya, Yb, Xa, Xb, Xe, Ye, Xe)
    M = identity(spec.size)
    for X in word:
        M = M @ X
    return M


def rot_from_angle(spec: GroupSpec, j: int, psi: float, variant: str = "real") -> np.ndarray:
    """Rotation by angle psi in tail plane (j, j+1): h_rot doubles the angle."""
    return h_rot(spec, j, (np.cos(psi / 2.0), np.sin(psi / 2.0)), variant)


# ---------------------------------------------------------------------------
# closed permutation-diagonal forms


@dataclass(frozen=True)
class PermDiag:
    """w as p(perm) . diag, with the unitary/orthogonal tail block.

    ``perm`` maps 1-based positions, ``diag`` is the full diagonal vector,
    ``block`` (when present) sits at rows/cols 2n+1 .. m+n.
    """

    size: int
    n: int
    perm: tuple
    diag: tuple
    block: np.ndarray | None

    def matrix(self) -> np.ndarray:
        D = np.diag(np.asarray(self.diag, dtype=complex))
        if self.block is not None:
            k = self.block.shape[0]
            D[2 * self.n:2 * self.n + k, 2 * self.n:2 * self.n + k] = self.block
        P = np.zeros((self.size, self.size), dtype=complex)
        for src in range(1, self.size + 1):
            P[self.perm[src - 1] - 1, src - 1] = 1.0
        return P @ D


def _swap_perm(size: int, swaps) -> tuple:
    perm = list(range(1, size + 1))
    for a, b in swaps:
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
    return tuple(perm)


def w_closed_form(spec: GroupSpec, root: RootLabel, p) -> PermDiag:
    """The permutation-diagonal form of the chain element."""
    check_param(spec, root, p)
    if is_zero_param(p):
        raise ZeroParameter(f"chain element of {root} needs a nonzero parameter")
    if max(root.coeffs) <= 0:
        # w_root(p) = w_{-root}(y0), with y0 the middle factor of the chain w_root(p)
        return w_closed_form(spec, -root, chain_params(spec, root, p)[1])
    n, size = spec.n, spec.size
    kind, (row, col) = root.position
    diag = [1.0 + 0j] * size
    swaps = [(row + 1, col + 1)]
    if kind == "pm":
        z = complex(p.z) if isinstance(p, Cx) else complex(p.t)
        mrow, mcol = root.mirror
        swaps.append((mrow + 1, mcol + 1))
        diag[row] = -1.0 / z
        diag[col] = z
        diag[mcol] = -np.conj(z)
        diag[mrow] = 1.0 / np.conj(z)
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), None)
    if isinstance(p, Scalar):  # unitary long root 2L_i
        diag[row] = 1j / p.t
        diag[col] = 1j * p.t
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), None)
    if isinstance(p, RVec):
        a = np.asarray(p.a, dtype=float)
        na2 = float(a @ a)
        diag[row] = -2.0 / na2
        diag[col] = -na2 / 2.0
        block = np.eye(spec.tail, dtype=complex) - 2.0 * np.outer(a, a) / na2
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), block)
    a = np.asarray(p.a, dtype=complex)
    a0 = heis_a0(p)
    diag[row] = 1.0 / np.conj(a0)
    diag[col] = a0
    block = np.eye(spec.tail, dtype=complex) + np.outer(np.conj(a), a) / a0
    return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), block)
