"""Concrete group elements: unipotent generators, chain/Weyl and h elements.

Every one-root generator has an exact closed form (the exponential series
terminates at order two for these root spaces), so elements are assembled
entry by entry rather than through a general exponential.  The test suite
cross-checks the closed forms against the terminating series of tests/reference.py.

A parameter object is decoded once, by the table PARAM_CLASS, into the raw
(value, t) the letters are computed from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, matmul

import numpy as np

from .errors import (NotOnSphere, OutOfRange, ParseError, ShapeMismatch, UnknownRoot,
                     VariantUnsupported, ZeroParameter)
from .matrixcore import (DEFAULT_TOL, MAX_SIZE, GroupSpec, _eye, in_group, json_complex,
                         json_field, json_real, mat_to_json)
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
    raw = property(lambda p: (p.t, 0.0))


@dataclass(frozen=True)
class Cx:
    z: complex
    raw = property(lambda p: (p.z, 0.0))


@dataclass(frozen=True)
class RVec:
    a: tuple
    raw = property(lambda p: (p.a, 0.0))

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))


@dataclass(frozen=True)
class Heis:
    """Heisenberg parameter (t, a) of a unitary ±L_i root group element."""

    t: float
    a: tuple
    raw = property(lambda p: (p.a, p.t))

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))


# The parameter class of each (family, root kind), the one statement of the shapes.
# An object's raw (value, t) is what the letters are computed from; t is the central
# part of a Heis parameter and 0.0 for the others:
#   so  ±L_i±L_j  Scalar(t)    real t
#   so  ±L_i      RVec(a)      a in R^{m-n}
#   su  ±L_i±L_j  Cx(z)        complex z
#   su  ±2L_i     Scalar(t)    real t
#   su  ±L_i      Heis(t, a)   t real, a in C^{m-n}
PARAM_CLASS = {("so", "pm"): Scalar, ("so", "vec"): RVec, ("su", "pm"): Cx,
               ("su", "long"): Scalar, ("su", "vec"): Heis}
# the Python and numpy numbers a raw scalar may be; a vector part is a 1-D array of numbers
_REAL = (float, int, np.floating, np.integer)
_COMPLEX = _REAL + (complex, np.complexfloating)


def _param(spec: GroupSpec, root: RootLabel, value, t=0.0):
    """The parameter object of root at the raw (value, t): the inverse of its raw."""
    cls = PARAM_CLASS[spec.family, root.kind]
    return cls(t, value) if spec.unitary and root.kind == "vec" else cls(value)


def check_param(spec: GroupSpec, root: RootLabel, p=None, value=None, t=0.0) -> tuple:
    """The one check of a parameter of root, the object p or, without one, the raw
    (value, t): the root; p's class, which must be the one PARAM_CLASS gives the root,
    and then its raw (value, t); the raw value's type; the vector length and the type
    of t; a finite norm of at most PARAM_MAX.
    Returns (v, t, norm), v the value the letters are computed from: a complex z, a
    real t, or the vector part as a contiguous complex (unitary) or real (orthogonal)
    array."""
    if not is_root(spec, root):
        raise UnknownRoot(f"{root} is not a root of {spec}")
    want = PARAM_CLASS[spec.family, root.kind]
    if p is not None:
        if not isinstance(p, want):
            raise ShapeMismatch(f"root {root} of {spec} takes {want.__name__}, "
                                f"got {type(p).__name__}")
        value, t = p.raw
    kind, unitary = root.kind, spec.unitary
    if kind != "vec":
        cx = kind == "pm" and unitary
        if not isinstance(value, _COMPLEX if cx else _REAL):
            raise ShapeMismatch(f"root {root} of {spec} takes {want.__name__}, "
                                f"got {type(value).__name__}")
        v = complex(value) if cx else float(value)
        norm = abs(v)
    else:
        a = np.asarray(value)
        if a.ndim != 1 or a.dtype.kind not in "biufc":
            raise ShapeMismatch(f"root {root} of {spec} takes {want.__name__}, "
                                f"got {type(value).__name__}")
        v = (np.ascontiguousarray(a, dtype=complex) if unitary
             else np.ascontiguousarray(a.real, dtype=float))
        if len(v) != spec.tail:
            raise ShapeMismatch(f"vector parameter must have length {spec.tail}, got {len(v)}")
        if not isinstance(t, _REAL):
            raise ShapeMismatch(f"root {root} of {spec} takes a real central part t, "
                                f"got {type(t).__name__}")
        norm = math.hypot(t, *map(abs, v.tolist()))   # no square can overflow
    if not norm <= PARAM_MAX:   # written so that a NaN fails it
        got = p if p is not None else f"{value!r} (t = {t!r})"
        raise OutOfRange(f"parameter of root {root} must be finite with norm at most "
                         f"{PARAM_MAX:.3g}, got {got}")
    return v, t, norm


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


# ---------------------------------------------------------------------------
# one-root generators


def x_elem(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    """The unipotent generator x_root(p), as an exact matrix."""
    v, t, _ = check_param(spec, root, p)
    return _x_matrix(spec, root, v, t)


def _letter(spec: GroupSpec, root: RootLabel, value, a0: complex = 0j) -> np.ndarray:
    """x_root at raw values, the one place a letter's entries are written: ``value``
    is the complex z of a +-L_i+-L_j root, the real t of a +-2L_i root, or the complex
    vector part of a +-L_i root, whose central entry is a0.  Given an array of values
    of any leading shape (scalars, or vector parts along the last axis, with central
    entries of that shape) it writes those letters as one stack of that leading shape.

    Every entry written lies off the diagonal, at the identity's 0: it is 0 plus the
    nilpotent part's entry x, a sum kept for its signed zeros.  One letter is written
    into the identity as those sums.  A stack has each x written into zeros and the
    identity added last, which forms the same sums: x + 0 is 0 + x, and -x + 0 is
    0 - x, bit for bit."""
    kind, (row, col) = root.position
    # the vector fills row `row` of the tail columns and, mirrored, column `col` of
    # the tail rows; the a0 entry at (row, col) carries the Heisenberg part
    tail = slice(2 * spec.n, None) if kind == "vec" else None
    if type(value) is np.ndarray and value.ndim > (kind == "vec"):
        S = np.zeros(value.shape[:value.ndim - (kind == "vec")] + (spec.size,) * 2, dtype=complex)
        if kind == "vec":
            S[..., row, tail], S[..., tail, col], S[..., row, col] = value, -value.conjugate(), a0
        else:
            S[..., row, col] = 1j * value if kind == "long" else value
            if kind == "pm":
                S[(..., *root.mirror)] = -value.conjugate()
        S += _eye(spec.size)
        return S
    S = _eye(spec.size).copy()
    if kind == "pm":
        S[row, col] = 0j + value
        S[root.mirror] = 0j - value.conjugate()
    elif kind == "long":
        S[row, col] = 0j + 1j * value
    else:
        S[row, tail] += value
        S[tail, col] -= value.conjugate()
        S[row, col] = 0j + a0
    return S


def _letter_inverse(root: RootLabel, X: np.ndarray) -> np.ndarray:
    """x_root(p)^-1 from the letter X = x_root(p), byte for byte the letter _letter
    writes at the negated parameter.  X = I + N + N^2/2, and N^2 is nonzero only at
    the central entry a0 of a +-L_i root, so X^-1 = I - N + N^2/2 is 2I - X but for
    that entry, which keeps the real part -|a|^2/2: it is 2 Re(a0) - a0.  Off the
    diagonal an entry is 0 - x, with the signed zeros of the 0 + (-x) _letter writes."""
    Y = 2.0 * _eye(len(X)) - X
    if root.kind == "vec":
        pos = root.position[1]
        Y[pos] = 2.0 * X[pos].real - X[pos]
    return Y


def _x_args(spec: GroupSpec, kind: str, value, t=0.0) -> tuple:
    """_letter's arguments at the raw (value, t) for a root of this kind or its negative,
    unchecked.  A +-L_i root's central entry is -|a|^2/2 + t i (complex a): |a|^2 by
    np.vdot (unitary) or the strided real parts' dot (orthogonal), as always written;
    a contiguous real dot may round differently."""
    if kind != "vec":
        return (complex(value) if kind == "pm" else value),
    a = np.asarray(value, dtype=complex)
    a2 = np.vdot(a, a) if spec.unitary else a.real.dot(a.real)
    return a, complex(-0.5 * float(a2.real), t)


def _x_matrix(spec: GroupSpec, root: RootLabel, value, t=0.0) -> np.ndarray:
    """x_root at the raw (value, t), unchecked."""
    return _letter(spec, root, *_x_args(spec, root.kind, value, t))


def _read_letter(spec: GroupSpec, root: RootLabel, X: np.ndarray) -> tuple:
    """The raw (value, t) of x_root read off the letter X, or off its nilpotent log,
    which has the same entries but the real part of a0: the inverse of _letter."""
    kind, pos = root.position
    if kind == "long":
        return float(X[pos].imag), 0.0
    if kind == "pm":
        return (complex(X[pos]) if spec.unitary else float(X[pos].real)), 0.0
    a = X[pos[0], 2 * spec.n:]
    return (a.copy(), float(X[pos].imag)) if spec.unitary else (a.real, 0.0)


def param_add(spec: GroupSpec, root: RootLabel, p, q):
    """Parameter of x(p) x(q): the raw values add, but for the Heisenberg case, whose
    composition law is read off the product."""
    (v, t), (w, s) = p.raw, q.raw
    if spec.unitary and root.kind == "vec":
        return _param(spec, root, *_read_letter(spec, root, _x_matrix(spec, root, v, t)
                                                @ _x_matrix(spec, root, w, s)))
    return _param(spec, root, tuple(map(add, v, w)) if root.kind == "vec" else v + w)


# ---------------------------------------------------------------------------
# chain ("Weyl") elements


def _chain_values(spec: GroupSpec, root: RootLabel, value, t=0.0, p=None) -> tuple:
    """The _letter arguments (x0, y0, x1) of the chain w = x0 y0 x1 at w_matrix's raw
    parameter, or at the parameter object p, y0 of -root, once check_param has checked
    it and found it nonzero.  x1 is x0 but for the general unitary Heisenberg chain,
    which rotates the trailing vector part."""
    v, t, norm = check_param(spec, root, p, value, t)
    if norm <= ZERO_PARAM_EPS:
        raise ZeroParameter(f"chain element of {root} needs a nonzero parameter")
    kind = root.kind
    if kind != "vec" or not spec.unitary:
        # y0 at 1/t, -1/z or 2a/|a|^2; an orthogonal letter has no central part
        x = _x_args(spec, kind, v)
        y = 1.0 / v if kind == "long" else -1.0 / v if kind == "pm" else 2.0 * v / float(v.dot(v))
        return x, _x_args(spec, kind, y), x
    # unitary Heisenberg; the general formula covers all branches but the
    # degenerate ones are dispatched on their simpler certified forms.  |a| is
    # np.linalg.norm's, by its own sums: the t = 0 branch divides by its square
    x = _x_args(spec, kind, v, t)
    a0, norm_a = x[1], math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    if norm_a <= ZERO_PARAM_EPS:
        return x, _x_args(spec, kind, v, 1.0 / t), x
    if abs(t) <= ZERO_PARAM_EPS:
        return x, _x_args(spec, kind, 2.0 * v / norm_a**2), x
    return (x, _x_args(spec, kind, -v / a0, t / abs(a0) ** 2),
            _x_args(spec, kind, np.conj(a0) / a0 * v, t))


def _chain_factors(spec: GroupSpec, root: RootLabel, value, t=0.0, p=None) -> tuple:
    """The factors (X0, Y0, X1) of the chain, by _letter; X0 is also X1 when x1 is x0."""
    x0, y0, x1 = _chain_values(spec, root, value, t, p)
    X0, Y0 = _letter(spec, root, *x0), _letter(spec, -root, *y0)
    return X0, Y0, (X0 if x1 is x0 else _letter(spec, root, *x1))


def w_matrix(spec: GroupSpec, root: RootLabel, p, t=0.0) -> np.ndarray:
    """The chain element w_root = X0 Y0 X1, without certification, at a parameter
    object p or at the raw parameter (p, t): the scalar of a Scalar or Cx root, the
    vector part of an RVec or Heis root and t the central part of a Heis one.

    Given W raw parameters at once (p an array of W scalars, or of W vector parts,
    and t one central part or W of them), it returns the (W, N, N) stack, each chain
    byte for byte its one-chain call: each value is validated and computed by
    _chain_values as for one chain, its letters are written as stacks and the
    products taken once for the stack.  Nothing is cached."""
    if type(p) is np.ndarray and p.ndim > (is_root(spec, root) and root.kind == "vec"):
        ts = [t] * len(p) if np.isscalar(t) else t
        x0, y0, x1 = zip(*[_chain_values(spec, root, v, s)
                           for v, s in zip(p if p.ndim > 1 else p.tolist(), ts)])
        stack = lambda r, xs: _letter(spec, r, *(np.array(c) for c in zip(*xs)))
        X0, Y0 = stack(root, x0), stack(-root, y0)
        X1 = X0 if all(x is y for x, y in zip(x1, x0)) else stack(root, x1)
        return X0 @ Y0 @ X1
    obj = p if hasattr(p, "raw") else None   # a parameter object, or a raw value
    X0, Y0, X1 = _chain_factors(spec, root, p, t, obj)
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
        return {
            "factors": [mat_to_json(self.x_i), mat_to_json(self.y_i), mat_to_json(self.x_next)],
            "w": mat_to_json(self.w),
            "reflection_checked": self.reflection_checked,
        }


def w_elem(spec: GroupSpec, root: RootLabel, p) -> ChainCertificate:
    """Chain element with its factorization and reflection certificate, to DEFAULT_TOL."""
    X0, Y0, X1 = _chain_factors(spec, root, None, p=p)
    w = X0 @ Y0 @ X1
    w_inv = np.linalg.inv(w)
    ok = in_group(w, spec)
    for e in np.eye(spec.n):
        lhs = w @ embed(spec, e) @ w_inv
        rhs = embed(spec, reflection(root, e))
        ok = ok and DEFAULT_TOL.close(lhs, rhs)
    return ChainCertificate(w, X0, Y0, X1, ok)


# ---------------------------------------------------------------------------
# planar rotation elements h^j


@lru_cache(maxsize=None)
def _rot_frame(spec: GroupSpec, j: int) -> tuple:
    """The labels L_n and -L_n, and the fixed factors x_{+-L_n}(-sqrt2 e_j) of h^j in
    one (2, N, N) array, shared and read-only: they depend on neither the angle nor
    the variant."""
    labels = tuple(parse_label(f"{sign}L{spec.n}", spec.n) for sign in ("", "-"))
    e = np.zeros(spec.tail)
    e[j - 1] = -np.sqrt(2.0)
    fixed = np.array([_x_matrix(spec, r, e) for r in labels])
    fixed.flags.writeable = False
    return labels, fixed


# where sqrt2 a and sqrt2 b sit in the vector parts of h^j: tail slots j - 1 and j
_SLOTS = np.array([-1, 0])


def h_rot(spec: GroupSpec, j, ab, variant="real") -> np.ndarray:
    """The rotation word h^j_{L_n}(sqrt2 a, sqrt2 b), evaluated verbatim.

    The compact block is the rotation [[a^2-b^2, -2ab], [2ab, a^2-b^2]] in tail
    coordinates (j, j+1); the imaginary variant (unitary only) carries the conjugate
    block.  The word is the defining 9-factor (orthogonal) or 6-factor (unitary)
    product, multiplied letter by letter from its first letter; it is not simplified.

    With an integer j this is the one-word call.  Given W words at once (j, a and b
    arrays of W entries, variant one name or W of them), it evaluates them as one
    (W, N, N) stack, each word byte for byte its one-word call.  Of a word's 6
    (orthogonal) or 4 (unitary) distinct letters, the 2 fixed ones x_{+-L_n}(-sqrt2 e_j)
    are built once per (spec, j), the others written for all the words at once.
    """
    js, pair = np.asarray(j), np.asarray(ab)
    shape = js.shape + (spec.size,) * 2
    if js.size == 1:   # one word, stacked or not: 2-D products and scalar arithmetic
        js, pair = js.reshape(()), pair.reshape(2)
    names = [variant] * js.size if isinstance(variant, str) else list(variant)
    if not {"real", "imag"}.issuperset(names):
        raise VariantUnsupported(f"variant must be 'real' or 'imag', got {variant!r}")
    if "imag" in names and not spec.unitary:
        raise VariantUnsupported("the imaginary variant exists only for the unitary family")
    planes = js.ravel().tolist()
    if not all(1 <= i < spec.tail for i in planes):
        raise OutOfRange(f"need 1 <= j <= m-n-1 = {spec.tail - 1}, got j={j}")
    a, b = pair[0], pair[1]
    # written so that a NaN in a or b fails it
    if not (abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= DEFAULT_TOL.rel).all():
        raise NotOnSphere(f"(a, b) must satisfy |a|^2 + |b|^2 = 1, got {ab}")
    if not spec.unitary and pair.dtype.kind == "c":
        raise VariantUnsupported("orthogonal rotations take real (a, b)")
    if not planes:   # an empty stack
        return np.empty(shape, dtype=complex)
    frame = {i: _rot_frame(spec, i) for i in set(planes)}
    frames = [frame[i] for i in planes]
    # the fixed factors, as they are for one word, else gathered into stacks
    fixed = frames[0][1] if js.ndim == 0 else np.array([f[1] for f in frames]).swapaxes(0, 1)
    Xe, Ye = fixed.reshape((2,) + js.shape + (spec.size,) * 2)
    v = np.sqrt(2.0) * pair
    # the vector parts: sqrt2 a at slot j, sqrt2 b at slot j+1 and zeros of either
    # sign elsewhere (the sign of a zero shows in no letter entry); the letters of
    # L_n and -L_n at them are written as two stacks, X and Y
    A = _eye(spec.tail)[np.add.outer(_SLOTS, js)] * v[..., None]
    if spec.unitary:
        # the imaginary variant turns sqrt2 b into sqrt2 b i
        A = A[:1] + A[1:] * np.array([1j if n == "imag" else 1.0 for n in names]
                                     ).reshape(js.shape + (1,))
        # the central entry as _x_args forms it, by one dot product per word
        a0 = -0.5 * np.array([np.vdot(w, w) for w in A.reshape(-1, spec.tail)]).real
        a0 = a0.reshape(A.shape[:-1])
    else:
        # one nonzero entry per vector part, so its central entry is exactly -v^2/2
        a0 = -0.5 * (v * v)
    X, Y = [_letter(spec, r, A, a0) for r in frames[0][0]]
    word = (X[0], Y[0], X[0]) if spec.unitary else (X[0], X[1], Y[0], Y[1], X[0], X[1])
    return reduce(matmul, word + (Xe, Ye, Xe)).reshape(shape)


def rot_from_angle(spec: GroupSpec, j, psi, variant="real") -> np.ndarray:
    """Rotation by angle psi in tail plane (j, j+1): h_rot doubles the angle.
    Like h_rot, it takes one word or arrays of W."""
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
            D[2 * self.n:, 2 * self.n:] = self.block
        P = np.zeros((self.size, self.size), dtype=complex)
        P[np.subtract(self.perm, 1), np.arange(self.size)] = 1.0
        return P @ D


def w_closed_form(spec: GroupSpec, root: RootLabel, p) -> PermDiag:
    """The permutation-diagonal form of the chain element, read off the letter
    values of its leading factor."""
    x0, y0, _ = _chain_values(spec, root, None, p=p)
    if max(root.coeffs) <= 0:
        # w_root(p) = w_{-root}(y0), with y0 the middle factor of the chain w_root(p)
        root, x0 = -root, y0
    n, size = spec.n, spec.size
    kind, (row, col) = root.position
    diag = [1.0 + 0j] * size
    perm = list(range(1, size + 1))   # 1-based: the stencil's entries swap
    perm[row], perm[col] = perm[col], perm[row]
    v = x0[0]   # the leading factor's value
    block = None
    if kind == "pm":
        mrow, mcol = root.mirror
        perm[mrow], perm[mcol] = perm[mcol], perm[mrow]
        diag[row] = -1.0 / v
        diag[col] = v
        diag[mcol] = -np.conj(v)
        diag[mrow] = 1.0 / np.conj(v)
    elif kind == "long":  # unitary long root 2L_i
        diag[row] = 1j / v
        diag[col] = 1j * v
    elif not spec.unitary:
        a = np.ascontiguousarray(v.real)
        na2 = float(a @ a)
        diag[row] = -2.0 / na2
        diag[col] = -na2 / 2.0
        block = np.eye(spec.tail, dtype=complex) - 2.0 * np.outer(a, a) / na2
    else:
        a0 = x0[1]
        diag[row] = 1.0 / np.conj(a0)
        diag[col] = a0
        block = np.eye(spec.tail, dtype=complex) + np.outer(np.conj(v), v) / a0
    return PermDiag(size, n, tuple(perm), tuple(diag), block)
