"""Dense complex matrix arithmetic for the two matrix group families.

Everything downstream works with (m+n) x (m+n) complex matrices: Lie
algebra elements, unipotent generators, chain elements.  This module owns
the group specification, the invariant bilinear/Hermitian form, exact
logarithms of unipotent matrices, Lie brackets, group membership tests,
the matrix wire format and the global tolerance policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotNilpotent, ParseError, SizeMismatch

FAMILIES = ("so", "su")

# the largest matrix size m + n a GroupSpec admits; a spec is checked before
# any matrix is built, so an oversized request fails without allocating
MAX_SIZE = 64


@dataclass(frozen=True)
class GroupSpec:
    """Which group we are working in: SO+(m,n) ("so") or SU(m,n) ("su").

    The standing hypothesis m >= n >= 3 is enforced; the ambient matrix
    size is m + n, at most MAX_SIZE, and the compact tail block has size
    m - n.
    """

    family: str
    m: int
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not (self.m >= self.n >= 3):
            raise ValueError(f"m >= n >= 3 required, got m={self.m}, n={self.n}")
        if self.m + self.n > MAX_SIZE:
            raise ValueError(f"m + n must be at most {MAX_SIZE}, got {self.m + self.n}")

    @property
    def size(self) -> int:
        return self.m + self.n

    @property
    def tail(self) -> int:
        """Size of the compact lower-right block, m - n."""
        return self.m - self.n

    @property
    def unitary(self) -> bool:
        return self.family == "su"

    def __str__(self):
        name = "SO+" if self.family == "so" else "SU"
        return f"{name}({self.m},{self.n})"


@dataclass(frozen=True)
class Tolerance:
    """Relative Frobenius tolerance: A ~ B iff ||A-B||_F <= rel*(1+max norm).

    rel lies strictly between 0 and 1: a normalised residual is below 2, and a
    check whose failure reads 1.0 (such as "h_{2Ln}(-1) != id") must be able to fail.
    """

    rel: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rel < 1:   # written so that a NaN fails it
            raise ValueError(f"tolerance must be above 0 and below 1, got {self.rel!r}")

    def close(self, A: np.ndarray, B: np.ndarray) -> bool:
        return self.residual(A, B) <= self.rel

    def residual(self, A: np.ndarray, B: np.ndarray) -> float:
        """Normalized distance, directly comparable against ``rel``."""
        return _frobenius(A - B) / (1.0 + max(_frobenius(A), _frobenius(B)))


def _frobenius(X) -> float:
    """np.linalg.norm(X) of an array or scalar, by numpy's own formula (the
    same cast, ravel and dot products), without its dispatch."""
    x = np.asarray(X)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


DEFAULT_TOL = Tolerance()


@lru_cache(maxsize=None)
def _eye(size: int) -> np.ndarray:
    I = np.eye(size, dtype=complex)
    I.flags.writeable = False
    return I


def identity(size: int) -> np.ndarray:
    """A fresh, writable complex identity matrix."""
    return _eye(size).copy()


def basis_matrix(size: int, row: int, col: int, value: complex = 1.0) -> np.ndarray:
    """Elementary matrix with ``value`` at the 1-based position (row, col)."""
    M = np.zeros((size, size), dtype=complex)
    M[row - 1, col - 1] = value
    return M


@lru_cache(maxsize=None)
def _form_cached(spec: GroupSpec) -> np.ndarray:
    """Gram matrix of the invariant form in the split basis, shared and read-only.

    Ones at (i, i+n) and (i+n, i) for 1 <= i <= n, ones on the diagonal
    for 2n+1 <= j <= m+n, zeros elsewhere.  Real for both families.
    """
    n, size = spec.n, spec.size
    G = np.zeros((size, size), dtype=complex)
    for i in range(n):
        G[i, i + n] = 1.0
        G[i + n, i] = 1.0
    for j in range(2 * n, size):
        G[j, j] = 1.0
    G.flags.writeable = False
    return G


def nilpotent_log(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Exact logarithm of a unipotent matrix (finite Mercator series).

    The series stops at the first power of N = M - I that is exactly zero.
    When none below N^size is, M is accepted only if
    ||N^size|| <= tol.rel * (1 + ||N||)^size; the two sides are compared in
    log space, so the bound cannot overflow, and the test is written so that
    a NaN or an overflowed power fails it (NotNilpotent).
    """
    size = M.shape[0]
    N = M - _eye(size)
    X = np.zeros_like(N)
    term = N
    for k in range(1, size):
        if not term.any():
            return X
        X += ((-1) ** (k + 1)) / k * term
        term = term @ N
    norm_power, norm_n = np.linalg.norm(term), np.linalg.norm(N)
    if not (math.isfinite(norm_n) and (norm_power == 0 or math.log(norm_power)
            <= math.log(tol.rel) + size * math.log1p(norm_n))):
        raise NotNilpotent(f"(M-I)^{size} has norm {norm_power:.3e}, not unipotent")
    return X


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lie bracket XY - YX."""
    if X.shape != Y.shape:
        raise SizeMismatch(f"bracket: shapes {X.shape} and {Y.shape} differ")
    return X @ Y - Y @ X


def in_group(M: np.ndarray, spec: GroupSpec) -> bool:
    """True iff M preserves the invariant form and has determinant 1, to DEFAULT_TOL."""
    if M.shape != (spec.size, spec.size):
        return False
    G = _form_cached(spec)
    left = M.conj().T if spec.unitary else M.T
    if not DEFAULT_TOL.close(left @ G @ M, G):
        return False
    det = np.linalg.det(M)
    return bool(abs(det - 1.0) <= DEFAULT_TOL.rel * 10)


def mat_to_json(M: np.ndarray) -> dict:
    """Serialize to the wire format {"size": k, "entries": [[re, im], ...]}."""
    return {"size": M.shape[0], "entries": [[z.real, z.imag] for z in M.reshape(-1).tolist()]}


def _is_json_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_field(obj, key: str, kind):
    """obj[key] of a decoded JSON object; ParseError when ``obj`` is not an
    object, the key is missing or its value is not of type ``kind``."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"missing key {key!r} in {obj!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"key {key!r} has the wrong type: {value!r}")
    return value


def json_real(x) -> float:
    """A decoded JSON number as a float; ParseError for anything else."""
    if not _is_json_real(x):
        raise ParseError(f"expected a number, got {x!r}")
    return float(x)


def json_complex(pair) -> complex:
    """A decoded [re, im] pair as a complex number; ParseError for anything else."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_json_real, pair))):
        raise ParseError(f"expected [re, im], got {pair!r}")
    return complex(pair[0], pair[1])


def mat_from_json(obj: dict) -> np.ndarray:
    size = json_field(obj, "size", int)
    if size < 1:
        raise ParseError(f"key 'size' must be at least 1, got {size}")
    entries = json_field(obj, "entries", list)
    if len(entries) != size * size:
        raise SizeMismatch(f"expected {size * size} entries, got {len(entries)}")
    flat = np.array([json_complex(pair) for pair in entries], dtype=complex)
    return flat.reshape(size, size)


def _strict(decoded):
    """Every hook of json_loads, in one function that every object and number
    reaches: a decoded object's (key, value) pairs become a dict, a repeated key
    refused; a number as written becomes an int or a float, refused unless it is
    finite as a float (1e999 and a 400-digit integer are not), and so is the name
    of a non-standard constant (NaN, Infinity, -Infinity)."""
    if isinstance(decoded, str):
        if not math.isfinite(float(decoded)):
            raise ParseError(f"JSON number {decoded} is not finite: only finite numbers are read")
        return int(decoded) if decoded.lstrip("-").isdigit() else float(decoded)
    obj = {}
    for key, value in decoded:
        if key in obj:
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def json_loads(text: str):
    """Decode JSON input strictly: ParseError for a key repeated within an
    object (plain json keeps the last), for NaN, Infinity and -Infinity, which
    are not JSON, and for a number that overflows a float."""
    return json.loads(text, object_pairs_hook=_strict, parse_constant=_strict,
                      parse_float=_strict, parse_int=_strict)


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return mat_from_json(json_loads(fh.read()))
