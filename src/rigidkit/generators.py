"""Concrete group elements: unipotent generators, chain/Weyl and h elements.

Every one-root generator has an exact closed form (the exponential series
terminates at order two for these root spaces), so elements are assembled
entry by entry rather than through a general exponential.  The test suite
cross-checks the closed forms against the terminating series of tests/reference.py.

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
from functools import lru_cache, reduce
from operator import matmul

import numpy as np

from .errors import (NotOnSphere, OutOfRange, ParseError, ShapeMismatch, UnknownRoot,
                     VariantUnsupported, ZeroParameter)
from .matrixcore import (DEFAULT_TOL, MAX_SIZE, GroupSpec, _eye, in_group, json_complex,
                         json_field, json_real)
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


def _raw(p) -> tuple:
    """The raw (value, t) of a parameter object, as the chain core takes it."""
    if isinstance(p, (RVec, Heis)):
        return p.a, (p.t if isinstance(p, Heis) else 0.0)
    return (p.z if isinstance(p, Cx) else p.t), 0.0


def check_param(spec: GroupSpec, root: RootLabel, p) -> None:
    if not is_root(spec, root):
        raise UnknownRoot(f"{root} is not a root of {spec}")
    want = expected_shape(spec, root)
    if not isinstance(p, want):
        raise ShapeMismatch(f"root {root} of {spec} takes {want.__name__}, got {type(p).__name__}")
    value, t = _raw(p)
    vector = want in (RVec, Heis)
    if vector and len(value) != spec.tail:
        raise ShapeMismatch(f"vector parameter must have length {spec.tail}, got {len(value)}")
    parts = (t, *value) if vector else (value,)
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


def _a0(spec: GroupSpec, a: np.ndarray, t=0.0) -> complex:
    """The central entry -|a|^2/2 + t i of a vector root's letter (complex a): |a|^2
    by np.vdot (unitary) or the dot of the strided real parts (orthogonal), as always
    written; a contiguous real dot may round differently."""
    return complex(-0.5 * float((np.vdot(a, a) if spec.unitary else a.real.dot(a.real)).real), t)


# ---------------------------------------------------------------------------
# one-root generators


def x_elem(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    """The unipotent generator x_root(p), as an exact matrix."""
    check_param(spec, root, p)
    return _x_matrix(spec, root, p)


def _letter(spec: GroupSpec, root: RootLabel, value, a0: complex = 0j) -> np.ndarray:
    """x_root at raw values, the one place a letter's entries are written: ``value``
    is the complex z of a +-L_i+-L_j root, the real t of a +-2L_i root, or the complex
    vector part of a +-L_i root, whose central entry is a0.  Given W values (an array
    of W scalars, or of W vector parts with W central entries) it writes the W letters
    as one (W, N, N) stack, through a view in which M[pos] is that entry of each."""
    kind, pos = root.position
    if type(value) is np.ndarray and value.ndim > (kind == "vec"):
        S = _eye(spec.size)[None].repeat(len(value), 0)
        M, value = S.transpose(1, 2, 0), value.T
    else:
        S = M = _eye(spec.size).copy()
    # every entry written lies off the diagonal, at the identity's 0: it is 0 plus
    # the nilpotent part's entry, a sum kept for its signed zeros (one entry is
    # assigned that sum, a vector part added in place)
    if kind == "pm":
        M[pos] = 0j + value
        M[root.mirror] = 0j - value.conjugate()
    elif kind == "long":
        M[pos] = 0j + 1j * value
    else:
        # the vector fills row `row` of the tail columns and, mirrored, column `col`
        # of the tail rows; the a0 entry carries the Heisenberg part
        row, col = pos
        tail = slice(2 * spec.n, None)
        M[row, tail] += value
        M[tail, col] -= value.conjugate()
        M[pos] = 0j + a0
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


def _x_matrix(spec: GroupSpec, root: RootLabel, p) -> np.ndarray:
    if type(p) is Scalar:
        return _letter(spec, root, complex(p.t) if root.kind == "pm" else p.t)
    if type(p) is Cx:
        return _letter(spec, root, complex(p.z))
    a = np.asarray(p.a, dtype=complex)
    return _letter(spec, root, a, _a0(spec, a, p.t if type(p) is Heis else 0.0))


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


def _chain_values(spec: GroupSpec, root: RootLabel, value, t=0.0) -> tuple:
    """The _letter arguments (x0, y0, x1) of the chain w = x0 y0 x1 at w_matrix's raw
    parameter, y0 of -root, after one validation: the root, the vector length, a
    finite norm of at most PARAM_MAX, a nonzero parameter.  x1 is x0 but for the
    general unitary Heisenberg chain, which rotates the trailing vector part."""
    if not is_root(spec, root):
        raise UnknownRoot(f"{root} is not a root of {spec}")
    kind, unitary = root.kind, spec.unitary
    if kind != "vec":
        s = complex(value) if kind == "pm" and unitary else float(value)
        norm = abs(s)
    else:
        a = (np.ascontiguousarray(value, dtype=complex) if unitary
             else np.ascontiguousarray(np.real(value), dtype=float))
        if len(a) != spec.tail:
            raise ShapeMismatch(f"vector parameter must have length {spec.tail}, got {len(a)}")
        # np.linalg.norm, by its own sums: the t = 0 Heisenberg branch divides by it
        na2 = a.real.dot(a.real) + a.imag.dot(a.imag) if unitary else float(a.dot(a))
        norm_a = math.sqrt(na2)
        norm = math.hypot(t, norm_a)
    if not norm <= PARAM_MAX:   # written so that a NaN fails it
        raise OutOfRange(f"parameter of root {root} must be finite with norm at most "
                         f"{PARAM_MAX:.3g}, got {value!r} (t = {t!r})")
    if norm <= ZERO_PARAM_EPS:
        raise ZeroParameter(f"chain element of {root} needs a nonzero parameter")
    if kind == "long":
        x = (s,)
        return x, (1.0 / s,), x
    if kind == "pm":
        x = (complex(s),)
        return x, ((-1.0 / s) if unitary else complex(-1.0 / s),), x
    if not unitary:
        ac, yc = a.astype(complex), (2.0 * a / na2).astype(complex)
        x = (ac, _a0(spec, ac))
        return x, (yc, _a0(spec, yc)), x
    # unitary Heisenberg; the general formula covers all branches but the
    # degenerate ones are dispatched on their simpler certified forms
    a0 = _a0(spec, a, t)
    x = (a, a0)
    if norm_a <= ZERO_PARAM_EPS:
        return x, (a, complex(a0.real, 1.0 / t)), x
    if abs(t) <= ZERO_PARAM_EPS:
        ya = 2.0 * a / norm_a**2
        return x, (ya, _a0(spec, ya)), x
    ya, xa = -a / a0, np.conj(a0) / a0 * a
    return x, (ya, _a0(spec, ya, t / abs(a0) ** 2)), (xa, _a0(spec, xa, t))


def _chain_factors(spec: GroupSpec, root: RootLabel, value, t=0.0) -> tuple:
    """The three one-root factors (X0, Y0, X1) of the chain element at a raw
    parameter, written by _letter; when x1 is x0, X0 is returned as X1 too."""
    x0, y0, x1 = _chain_values(spec, root, value, t)
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
    if isinstance(p, (Scalar, Cx, RVec, Heis)):
        check_param(spec, root, p)
        p, t = _raw(p)
    elif type(p) is np.ndarray and p.ndim > (is_root(spec, root) and root.kind == "vec"):
        ts = [t] * len(p) if np.isscalar(t) else t
        x0, y0, x1 = zip(*[_chain_values(spec, root, v, s)
                           for v, s in zip(p if p.ndim > 1 else p.tolist(), ts)])
        stack = lambda r, xs: _letter(spec, r, *(np.array(c) for c in zip(*xs)))
        X0, Y0 = stack(root, x0), stack(-root, y0)
        X1 = X0 if all(x is y for x, y in zip(x1, x0)) else stack(root, x1)
        return X0 @ Y0 @ X1
    X0, Y0, X1 = _chain_factors(spec, root, p, t)
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


def w_elem(spec: GroupSpec, root: RootLabel, p) -> ChainCertificate:
    """Chain element with its factorization and reflection certificate, to DEFAULT_TOL."""
    check_param(spec, root, p)
    X0, Y0, X1 = _chain_factors(spec, root, *_raw(p))
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
    """The label L_n and the fixed factors x_{+-L_n}(-sqrt2 e_j) of h^j in one (2, N, N)
    array, shared and read-only: they depend on neither the angle nor the variant."""
    pos, neg = parse_label(f"L{spec.n}", spec.n), parse_label(f"-L{spec.n}", spec.n)
    e = [0.0] * spec.tail
    e[j - 1] = -np.sqrt(2.0)
    pe = Heis(0.0, e) if spec.unitary else RVec(e)
    fixed = np.array([_x_matrix(spec, pos, pe), _x_matrix(spec, neg, pe)])
    fixed.flags.writeable = False
    return pos, fixed


# where sqrt2 a and sqrt2 b sit in the vector parts of h^j: tail slots j - 1 and j
_SLOTS = np.array([-1, 0])


def _vec_letters(spec: GroupSpec, root: RootLabel, A: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """x_root(a) and x_{-root}(a) of a vector root for each vector part a in A
    (D, ..., m-n), with central entries a0 (D, ...): the 2D distinct letters, each
    for a stack of words, as one (2, D, ..., N, N) array.  Entry for entry they
    are the letters _letter writes: the identity is added last, and x + 0 and
    -x + 0 are the 0 + x and 0 - x written there, signed zeros included."""
    size = spec.size
    S = np.zeros((2,) + A.shape[:-1] + (size, size), dtype=complex)
    tail = slice(2 * spec.n, None)
    col_part = -A.conj()
    for i, r in enumerate((root, -root)):
        row, col = r.position[1]
        S[i, ..., row, tail] = A
        S[i, ..., tail, col] = col_part
        S[i, ..., row, col] = a0
    S += _eye(size)
    return S


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
    if not (abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-9).all():
        raise NotOnSphere(f"(a, b) must satisfy |a|^2 + |b|^2 = 1, got {ab}")
    if not spec.unitary and pair.dtype.kind == "c":
        raise VariantUnsupported("orthogonal rotations take real (a, b)")
    if not planes:   # an empty stack
        return np.empty(shape, dtype=complex)
    frame = {i: _rot_frame(spec, i) for i in set(planes)}
    frames = [frame[i] for i in planes]
    # the fixed factors, as they are for one word, else gathered into stacks
    fixed = frames[0][1] if js.ndim == 0 else np.array([f[1] for f in frames]).swapaxes(0, 1)
    Xe, Ye = (fixed[q].reshape(js.shape + (spec.size,) * 2) for q in (0, 1))
    v = np.sqrt(2.0) * pair
    # the vector parts: sqrt2 a at slot j, sqrt2 b at slot j+1 and zeros of either
    # sign elsewhere (the sign of a zero shows in no letter entry)
    A = _eye(spec.tail)[np.add.outer(_SLOTS, js)] * v[..., None]
    if spec.unitary:
        # the imaginary variant turns sqrt2 b into sqrt2 b i
        c = A[:1] + A[1:] * np.array([1j if n == "imag" else 1.0 for n in names]
                                     ).reshape(js.shape + (1,))
        # the central entry as _a0 forms it, by one dot product per word
        a0 = -0.5 * np.array([np.vdot(w, w) for w in c.reshape(-1, spec.tail)]).real
        L = _vec_letters(spec, frames[0][0], c, a0.reshape(c.shape[:-1]))
        word = (L[0, 0], L[1, 0], L[0, 0], Xe, Ye, Xe)
    else:
        # one nonzero entry per vector part, so its central entry is exactly -v^2/2
        L = _vec_letters(spec, frames[0][0], A, -0.5 * (v * v))
        word = (L[0, 0], L[0, 1], L[1, 0], L[1, 1], L[0, 0], L[0, 1], Xe, Ye, Xe)
    return reduce(matmul, word).reshape(shape)


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
    """The permutation-diagonal form of the chain element, read off the letter
    values of its leading factor."""
    check_param(spec, root, p)
    x0, y0, _ = _chain_values(spec, root, *_raw(p))
    if max(root.coeffs) <= 0:
        # w_root(p) = w_{-root}(y0), with y0 the middle factor of the chain w_root(p)
        root, x0 = -root, y0
    n, size = spec.n, spec.size
    kind, (row, col) = root.position
    diag = [1.0 + 0j] * size
    swaps = [(row + 1, col + 1)]
    v = x0[0]   # the leading factor's value
    if kind == "pm":
        mrow, mcol = root.mirror
        swaps.append((mrow + 1, mcol + 1))
        diag[row] = -1.0 / v
        diag[col] = v
        diag[mcol] = -np.conj(v)
        diag[mrow] = 1.0 / np.conj(v)
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), None)
    if kind == "long":  # unitary long root 2L_i
        diag[row] = 1j / v
        diag[col] = 1j * v
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), None)
    if not spec.unitary:
        a = np.ascontiguousarray(v.real)
        na2 = float(a @ a)
        diag[row] = -2.0 / na2
        diag[col] = -na2 / 2.0
        block = np.eye(spec.tail, dtype=complex) - 2.0 * np.outer(a, a) / na2
        return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), block)
    a0 = x0[1]
    diag[row] = 1.0 / np.conj(a0)
    diag[col] = a0
    block = np.eye(spec.tail, dtype=complex) + np.outer(np.conj(v), v) / a0
    return PermDiag(size, n, _swap_perm(size, swaps), tuple(diag), block)
