"""The relation verification engine.

Every relation family of the group presentations (additivity, commutator
tables, h multiplicativity, central elements, rotation words, conjugation
lemmas, symbol axioms, braid exchange, trace pairing) runs as a seeded
randomized suite producing a machine-readable report.  Relation sides are
always assembled independently as matrices and compared; structure
constants are never hard-coded but extracted numerically and certified.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (DecompositionResidual, NoSolution, NotOnSphere, OppositeRoots,
                     PairingMismatch, SideConditionViolated, UnknownSuite)
from .matrixcore import (DEFAULT_TOL, GroupSpec, Tolerance, identity, nilpotent_log)
from .generators import (Cx, Heis, RVec, Scalar, _x_matrix, as_param, h_rot, heis_read,
                         param_add, param_neg, param_to_json, rot_from_angle,
                         w_matrix, x_elem)
from .rootsystem import RootLabel, is_root, parse_label, root_position, roots
from .words import su2_euler

INV = np.linalg.inv


# ---------------------------------------------------------------------------
# seeded sampling; sample i of a suite draws from an independent substream


def rng_for(seed: int, suite_id: str, index: int) -> np.random.Generator:
    tag = zlib.crc32(suite_id.encode())
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag, int(index))))


def _ureal(rng):
    return float(rng.uniform(-2.0, 2.0))


def _inv_real(rng):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0))


def _inv_cx(rng):
    return complex(rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))


def _unit_vec(rng, k, cx=False):
    v = rng.normal(size=k) + (1j * rng.normal(size=k) if cx else 0.0)
    return v / np.linalg.norm(v)


def _angle(rng):
    return float(rng.uniform(-np.pi, np.pi))


def rand_param(spec: GroupSpec, root: RootLabel, rng, invertible: bool = False):
    kind = root.kind
    if kind == "pm":
        if spec.unitary:
            return Cx(_inv_cx(rng) if invertible else complex(_ureal(rng), _ureal(rng)))
        return Scalar(_inv_real(rng) if invertible else _ureal(rng))
    if kind == "long":
        return Scalar(_inv_real(rng) if invertible else _ureal(rng))
    k = spec.tail
    if spec.unitary:
        while True:
            a = rng.uniform(-2, 2, size=k) + 1j * rng.uniform(-2, 2, size=k)
            t = _ureal(rng)
            if not invertible or np.hypot(abs(t), np.linalg.norm(a)) >= 0.25:
                return Heis(t, tuple(a))
    while True:
        a = rng.uniform(-2, 2, size=k)
        if not invertible or np.linalg.norm(a) >= 0.25:
            return RVec(tuple(a))


# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteReport:
    suite_id: str
    spec: GroupSpec
    samples: int
    seed: int
    max_residual: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite_id,
            "spec": {"family": self.spec.family, "m": self.spec.m, "n": self.spec.n},
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "failures": self.failures,
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


class _Recorder:
    """Collects residuals of the relation checks inside one suite run."""

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.max_residual = 0.0
        self.failures = []

    def check(self, A: np.ndarray, B: np.ndarray, sample: int, inputs) -> None:
        r = self.tol.residual(A, B)
        self.record(r, sample, inputs)

    def record(self, r: float, sample: int, inputs) -> None:
        r = float(r)
        # a NaN compares false both ways: it must still fail and show in the max
        if math.isnan(r) or r > self.max_residual:
            self.max_residual = r
        if not math.isfinite(r) or r > self.tol.rel:
            self.failures.append({"sample": sample, "inputs": _jsonable(inputs), "residual": r})


# ---------------------------------------------------------------------------
# commutator decomposition


@dataclass(frozen=True)
class CommutatorTable:
    r: RootLabel
    p: RootLabel
    terms: tuple          # ordered ((RootLabel, param), ...), ascending height
    residual: float

    def to_json(self) -> dict:
        return {"r": str(self.r), "p": str(self.p), "residual": self.residual,
                "terms": [{"root": str(q), "param": param_to_json(par)} for q, par in self.terms]}


def _extract_term(spec: GroupSpec, q: RootLabel, X: np.ndarray, has_double: bool):
    """Read the group parameter of the q-component off the nilpotent log."""
    kind, pos = root_position(spec, q)
    if kind == "pm":
        v = X[pos]
        return Cx(complex(v)) if spec.unitary else Scalar(float(v.real))
    if kind == "long":
        return Scalar(float(X[pos].imag))
    par = heis_read(spec, q, X)
    if not spec.unitary:
        return RVec(tuple(x.real for x in par.a))
    # the doubled root, when present as a term, absorbs the central part
    return Heis(0.0, par.a) if has_double else par


def anti_proportional(r: RootLabel, p: RootLabel) -> bool:
    """True when r = -c*p for some c > 0 (opposite root group directions).

    dir(L_i) and dir(2L_i) index the same one-root unipotent group, so a
    pair like (-L_i, 2L_i) pairs a group with its opposite; the commutator
    is then not unipotent and carries no decomposition.
    """
    rc = np.asarray(r.coeffs)
    pc = np.asarray(p.coeffs)
    cross = np.outer(rc, pc)
    return bool(np.all(cross == cross.T) and rc @ pc < 0)


def commutator_decompose(spec: GroupSpec, r: RootLabel, a, p: RootLabel, b,
                         tol: Tolerance = DEFAULT_TOL) -> CommutatorTable:
    """Decompose [x_r(a), x_p(b)] into one-root factors and certify it.

    The commutator is unipotent; its nilpotent logarithm is projected onto
    the root spaces i*r + j*p (i, j >= 1) and the product of the extracted
    one-root factors, taken in ascending height order, must reproduce the
    commutator.  The table is empty exactly when no i*r + j*p is a root.
    Pairs along opposite root directions (r = -c*p, c > 0) are rejected:
    their commutator leaves the unipotent world.
    """
    if anti_proportional(r, p):
        raise OppositeRoots(f"{r} and {p} span opposite root group directions")
    A = x_elem(spec, r, a)
    B = x_elem(spec, p, b)
    # one-root generators invert exactly through parameter negation
    C = A @ B @ _x_matrix(spec, r, param_neg(a)) @ _x_matrix(spec, p, param_neg(b))
    seen = {}
    for i in range(1, 4):
        for j in range(1, 4):
            c = tuple(i * x + j * y for x, y in zip(r.coeffs, p.coeffs))
            q = RootLabel(c)
            if any(v != 0 for v in c) and is_root(spec, q) and q not in seen:
                seen[q] = (i + j, i)
    order = sorted(seen, key=lambda q: seen[q])
    if not order:
        resid = tol.residual(C, identity(spec.size))
        if resid > tol.rel:
            raise DecompositionResidual(
                f"[{r}, {p}] should be trivial, residual {resid:.3e}")
        return CommutatorTable(r, p, (), resid)
    X = nilpotent_log(C, tol)
    terms = []
    for q in order:
        double = RootLabel(tuple(2 * c for c in q.coeffs))
        par = _extract_term(spec, q, X, double in seen)
        terms.append((q, par))
    P = identity(spec.size)
    for q, par in terms:
        P = P @ _x_matrix(spec, q, par)
    resid = tol.residual(P, C)
    if resid > tol.rel:
        raise DecompositionResidual(
            f"[{r}, {p}] decomposition residual {resid:.3e} exceeds tolerance")
    return CommutatorTable(r, p, tuple(terms), resid)


# ---------------------------------------------------------------------------
# trace pairing, SU(2) transporter, pair refactoring


def trace_pairing(spec: GroupSpec, a, b, tol: Tolerance = DEFAULT_TOL):
    """Both sides of the trace identity for products of vector reflections.

    lhs = 4|<a,b>|^2 + (m-n) - 4, rhs = trace of the tail block of
    w(0, sqrt2 a) w(0, sqrt2 b).  Inputs are unit vectors in C^{m-n}.
    """
    if not spec.unitary or spec.tail < 1:
        raise SideConditionViolated("trace pairing needs the unitary family with m > n")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for v in (a, b):
        if v.shape != (spec.tail,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise NotOnSphere("trace pairing takes unit vectors in C^(m-n)")
    C = _reflection_pair(spec, 1, a, b)[2 * spec.n:, 2 * spec.n:]
    lhs = 4.0 * abs(np.vdot(b, a)) ** 2 + spec.tail - 4.0
    rhs = float(np.trace(C).real)
    return lhs, rhs


def su2_transporter(a_pair, b_pair, c_pair, d_pair, tol: Tolerance = DEFAULT_TOL):
    """Unit scalar g and h in SU(2) with h a = g c and h b = g d.

    Requires <a,b> = <c,d> (Hermitian pairing); built constructively by
    first rotating c to (1, 0).
    """
    a = np.asarray(a_pair, dtype=complex)
    b = np.asarray(b_pair, dtype=complex)
    c = np.asarray(c_pair, dtype=complex)
    d = np.asarray(d_pair, dtype=complex)
    pair_ab = complex(np.vdot(b, a))
    pair_cd = complex(np.vdot(d, c))
    if abs(pair_ab - pair_cd) > 1e-8:
        raise PairingMismatch(f"pairings differ: {pair_ab} vs {pair_cd}")
    hc = np.array([[np.conj(c[0]), np.conj(c[1])], [-c[1], c[0]]])  # hc c = (1,0)
    dp = hc @ d
    wedge = a[0] * b[1] - a[1] * b[0]
    if abs(dp[1]) < 1e-12:
        g = 1.0 + 0j
    else:
        g2 = wedge / dp[1]
        g2 = g2 / abs(g2)
        g = np.sqrt(g2)
    h0 = np.array([[np.conj(a[0]) * g, np.conj(a[1]) * g],
                   [-a[1] * np.conj(g), a[0] * np.conj(g)]])
    h = hc.conj().T @ h0
    return complex(g), h


def _refl_block(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.eye(len(x), dtype=complex) - 2.0 * np.outer(np.conj(x), x) / float(np.vdot(x, x).real)


def _g1(c: float, d: float) -> np.ndarray:
    return np.array([np.cos(c) * np.cos(d) - 1j * np.sin(c) * np.sin(d),
                     np.cos(c) * np.sin(d) - 1j * np.sin(c) * np.cos(d)])


def _g2(c: float, d: float) -> np.ndarray:
    return np.array([np.cos(c) * np.cos(d) - 1j * np.sin(c) * np.sin(d),
                     np.sin(c) * np.cos(d) + 1j * np.cos(c) * np.sin(d)])


def _eig_minus_one_line(N: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(N)
    return np.conj(vecs[:, int(np.argmin(vals))])


def _line_to_g1(x: np.ndarray):
    """Angles (c, d) with g1(c, d) on the complex line of x, by case analysis."""
    x1, x2 = x
    w = x1 * x1 - x2 * x2
    cands = []
    if abs(w) < 1e-12:
        z0 = np.conj(x1) / abs(x1) if abs(x1) > 1e-7 else np.conj(x2) / abs(x2)
        cands.append((z0, 0.0))
    else:
        for sgn in (1.0, -1.0):
            z = np.sqrt(sgn * np.conj(w) / abs(w))
            for zz in (z, -z):
                zx1, zx2 = zz * x1, zz * x2
                if abs(zx1.imag) + abs(zx2.real) > 1e-14:
                    cands.append((zz, float(np.arctan2(-zx1.imag, zx2.real))))
                else:
                    cands.append((zz, 0.0))
    best = None
    Ri = lambda t: np.array([[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]])
    for zz, c in cands:
        v = Ri(-c) @ (zz * np.asarray(x))
        res = abs(v[0].imag) + abs(v[1].imag)
        if best is None or res < best[0]:
            best = (res, c, float(np.arctan2(v[1].real, v[0].real)))
    return best[1], best[2]


def _line_to_g2(x: np.ndarray):
    x1, x2 = x
    w = x1 * x1 + x2 * x2
    cands = []
    if abs(w) < 1e-12:
        z0 = np.conj(x1) / abs(x1) if abs(x1) > 1e-7 else np.conj(1j * x2) / abs(x2)
        cands.append((z0, 0.0))
    else:
        for sgn in (1.0, -1.0):
            z = np.sqrt(sgn * np.conj(w) / abs(w))
            for zz in (z, -z):
                zx1, zx2 = zz * x1, zz * x2
                if abs(zx1.imag) + abs(zx2.imag) > 1e-14:
                    cands.append((zz, float(np.arctan2(-zx1.imag, zx2.imag))))
                else:
                    cands.append((zz, float(np.arctan2(zx2.real, zx1.real))))
    best = None
    Rr = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    for zz, c in cands:
        v = Rr(-c) @ (zz * np.asarray(x))
        res = abs(v[0].imag) + abs(v[1].real)
        if best is None or res < best[0]:
            best = (res, c, float(np.arctan2(v[1].imag, v[0].real)))
    return best[1], best[2]


def wpair_refactor(spec: GroupSpec, j: int, lead, trail_angle: float, direction: str,
                   tol: Tolerance = DEFAULT_TOL):
    """Rewrite a pair of vector reflections with the prescribed shape exchange.

    Orthogonal (lead is a unit triple on S^2, slots j..j+2): the trailing
    factor moves between the (j, j+1) plane ("to_imag" input shape
    (cos x, sin x, 0)) and the (j+1, j+2) plane (output (0, cos y, sin y));
    "to_real" is the reverse.  Unitary (lead is an angle pair): the trailing
    factor moves between real-rotation and i-rotation shape.  The returned
    pair is certified to have the same matrix product as the input pair.
    """
    if direction not in ("to_imag", "to_real"):
        raise NoSolution(f"direction must be 'to_imag' or 'to_real', got {direction!r}")
    if spec.unitary:
        return _wpair_su(spec, j, lead, trail_angle, direction, tol)
    return _wpair_so(spec, j, lead, trail_angle, direction, tol)


def _chain(spec: GroupSpec, root: RootLabel, value, t: float = 0.0) -> np.ndarray:
    """Chain element of ``root`` at the raw parameter ``value`` (see as_param)."""
    return w_matrix(spec, root, as_param(spec, root, value, t))


def _reflection_pair(spec: GroupSpec, j: int, x, y) -> np.ndarray:
    """w(sqrt2 x) w(sqrt2 y) on L_n, with x and y placed from tail slot j on."""
    vec = parse_label(f"L{spec.n}", spec.n)

    def w(local):
        full = np.zeros(spec.tail, dtype=complex)
        full[j - 1:j - 1 + len(local)] = local
        return _chain(spec, vec, np.sqrt(2.0) * full)
    return w(x) @ w(y)


def _wpair_so(spec, j, lead, trail_angle, direction, tol):
    if spec.tail < 3:
        raise SideConditionViolated("orthogonal pair refactoring needs m - n >= 3")
    if not (1 <= j <= spec.tail - 2):
        raise SideConditionViolated(f"need 1 <= j <= m-n-2 = {spec.tail - 2}")
    u = np.asarray(lead, dtype=float)
    if u.shape != (3,) or abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise NotOnSphere("orthogonal lead must be a unit triple")
    x = float(trail_angle)
    if direction == "to_imag":
        v = np.array([np.cos(x), np.sin(x), 0.0])
        kill = 0   # output trailing vector has zero first slot
    else:
        v = np.array([0.0, np.cos(x), np.sin(x)])
        kill = 2
    cos_uv = float(u @ v)
    if abs(abs(cos_uv) - 1.0) < 1e-12:
        # collinear inputs: both products are the identity
        w = np.array([0.0, -1.0, 0.0]) if direction == "to_imag" else np.array([-1.0, 0.0, 0.0])
        d = -w
        yp = float(np.arctan2(w[2], w[1])) if direction == "to_imag" else float(np.arctan2(w[1], w[0]))
    else:
        e1 = u.copy()
        e2 = v - (v @ e1) * e1
        e2 /= np.linalg.norm(e2)
        alpha, beta = -e2[kill], e1[kill]
        w = alpha * e1 + beta * e2
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            w = e1.copy()
        else:
            w = w / nw
        ang_u = np.arctan2(u @ e2, u @ e1)
        ang_v = np.arctan2(v @ e2, v @ e1)
        ang_w = np.arctan2(w @ e2, w @ e1)
        theta = ang_u - ang_v
        d = np.cos(ang_w + theta) * e1 + np.sin(ang_w + theta) * e2
        yp = float(np.arctan2(w[2], w[1])) if direction == "to_imag" else float(np.arctan2(w[1], w[0]))
    L = _reflection_pair(spec, j, u, v)
    wp = np.array([0.0, np.cos(yp), np.sin(yp)]) if direction == "to_imag" \
        else np.array([np.cos(yp), np.sin(yp), 0.0])
    R = _reflection_pair(spec, j, d, wp)
    resid = tol.residual(L, R)
    if resid > 1e-8:
        raise NoSolution(f"orthogonal pair refactoring failed certification: {resid:.3e}")
    return tuple(float(t) for t in d), yp


def _wpair_su(spec, j, lead, trail_angle, direction, tol):
    if spec.tail < 2:
        raise SideConditionViolated("unitary pair refactoring needs m - n >= 2")
    if not (1 <= j <= spec.tail - 1):
        raise SideConditionViolated(f"need 1 <= j <= m-n-1 = {spec.tail - 1}")
    aa, bb = (float(lead[0]), float(lead[1]))
    x = float(trail_angle)
    if direction == "to_imag":
        lead_vec = _g2(aa, bb)
        trail_vec = np.array([np.cos(x), np.sin(x)], dtype=complex)
    else:
        lead_vec = _g1(aa, bb)
        trail_vec = np.array([np.cos(x), 1j * np.sin(x)])
    M = _refl_block(lead_vec) @ _refl_block(trail_vec)
    al, be = M[0, 0], M[0, 1]
    if direction == "to_imag":
        two_y = float(np.arctan2(al.imag, be.real))
    else:
        two_y = float(np.arctan2(-al.imag, be.imag))
    N = None
    for cand in (two_y, two_y + np.pi):
        yp = cand / 2.0
        out_vec = np.array([np.cos(yp), 1j * np.sin(yp)]) if direction == "to_imag" \
            else np.array([np.cos(yp), np.sin(yp)], dtype=complex)
        Nc = M @ _refl_block(out_vec)
        if np.linalg.norm(Nc - Nc.conj().T) < 1e-8:
            N = Nc
            break
    if N is None:
        raise NoSolution("no Hermitian completion found for the trailing factor")
    line = _eig_minus_one_line(N)
    if direction == "to_imag":
        c, d = _line_to_g1(line)
        new_lead_vec = _g1(c, d)
    else:
        c, d = _line_to_g2(line)
        new_lead_vec = _g2(c, d)
    L = _reflection_pair(spec, j, lead_vec, trail_vec)
    R = _reflection_pair(spec, j, new_lead_vec, out_vec)
    resid = tol.residual(L, R)
    if resid > 1e-8:
        raise NoSolution(f"unitary pair refactoring failed certification: {resid:.3e}")
    return (float(c), float(d)), float(yp)


# ---------------------------------------------------------------------------
# Euler-angle exchange helpers for the braid suite


def _so3_euler_bab(M):
    """Angles with M = B(b1) A(a2) B(b3); A rotates (1,2), B rotates (2,3)."""
    ca = float(np.clip(M[0, 0].real, -1.0, 1.0))
    sa = np.sqrt(max(0.0, 1.0 - ca * ca))
    if sa < 1e-12:
        if ca > 0:
            return float(np.arctan2(M[2, 1].real, M[1, 1].real)), 0.0, 0.0
        return float(np.arctan2(-M[2, 1].real, -M[1, 1].real)), np.pi, 0.0
    a2 = float(np.arctan2(sa, ca))
    b3 = float(np.arctan2(M[0, 2].real, -M[0, 1].real))
    b1 = float(np.arctan2(M[2, 0].real, M[1, 0].real))
    return b1, a2, b3


def _so3_euler_aba(M):
    """Angles with M = A(a1) B(b2) A(a3)."""
    cb = float(np.clip(M[2, 2].real, -1.0, 1.0))
    sb = np.sqrt(max(0.0, 1.0 - cb * cb))
    if sb < 1e-12:
        if cb > 0:
            return float(np.arctan2(M[1, 0].real, M[0, 0].real)), 0.0, 0.0
        return float(np.arctan2(M[1, 0].real, -M[0, 0].real)), np.pi, 0.0
    b2 = float(np.arctan2(sb, cb))
    a3 = float(np.arctan2(M[2, 0].real, M[2, 1].real))
    a1 = float(np.arctan2(M[0, 2].real, -M[1, 2].real))
    return a1, b2, a3


def _su2_completion(M):
    """Blocks (U, V, W) with M = U(23) V(12) W(23) for M in the product set."""
    al = M[0, 0]
    ssq = 1.0 - abs(al) ** 2
    if ssq < 1e-20:
        V = np.array([[al, 0], [0, np.conj(al)]])
        U = M[1:, 1:] @ np.array([[al, 0], [0, 1.0]])
        return U, V, np.eye(2, dtype=complex)
    s = np.sqrt(ssq)
    ucol = -np.array([M[1, 0], M[2, 0]]) / s
    U = np.array([[ucol[0], -np.conj(ucol[1])], [ucol[1], np.conj(ucol[0])]])
    wrow = np.array([M[0, 1], M[0, 2]]) / s
    W = np.array([[wrow[0], wrow[1]], [-np.conj(wrow[1]), np.conj(wrow[0])]])
    V = np.array([[al, s], [-s, np.conj(al)]])
    return U, V, W


def _rand_su2(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x, y, z, w = q
    return np.array([[x + 1j * w, y + 1j * z], [-y + 1j * z, x - 1j * w]])


def _su2_block_word(spec, i, V):
    """Realize an SU(2) tail block at plane (i, i+1) by rotation words."""
    p1, p2, p3 = su2_euler(V)
    return (rot_from_angle(spec, i, p1, "real")
            @ rot_from_angle(spec, i, p2, "imag")
            @ rot_from_angle(spec, i, p3, "real"))


# ---------------------------------------------------------------------------
# suite runners


def _h_word(spec, root, t):
    """h_root(t) = w(t) w(1)^-1, evaluated as the six-factor defining word."""
    return _chain(spec, root, t) @ INV(_chain(spec, root, 1.0))


def _suite_additivity(spec, samples, seed, tol):
    rec = _Recorder(tol)
    labels = [info.label for info in roots(spec)]
    for i in range(samples):
        rng = rng_for(seed, "additivity", i)
        root = labels[int(rng.integers(len(labels)))]
        p = rand_param(spec, root, rng)
        q = rand_param(spec, root, rng)
        lhs = x_elem(spec, root, p) @ x_elem(spec, root, q)
        rhs = x_elem(spec, root, param_add(spec, root, p, q))
        rec.check(lhs, rhs, i, {"root": str(root), "p": param_to_json(p), "q": param_to_json(q)})
    return samples, rec


def _suite_commutator(spec, samples, seed, tol):
    rec = _Recorder(tol)
    labels = [info.label for info in roots(spec)]
    for i in range(samples):
        rng = rng_for(seed, "commutator", i)
        while True:
            r = labels[int(rng.integers(len(labels)))]
            p = labels[int(rng.integers(len(labels)))]
            if not anti_proportional(r, p):
                break
        a = rand_param(spec, r, rng)
        b = rand_param(spec, p, rng)
        inputs = {"r": str(r), "p": str(p), "a": param_to_json(a), "b": param_to_json(b)}
        try:
            table = commutator_decompose(spec, r, a, p, b, tol)
            rec.record(table.residual, i, inputs)
        except DecompositionResidual as exc:
            rec.failures.append({"sample": i, "inputs": inputs, "residual": str(exc)})
    return samples, rec


def _suite_h_mult(spec, samples, seed, tol):
    rec = _Recorder(tol)
    root = parse_label("L1-L2", spec.n)
    sid = "h-mult-su" if spec.unitary else "h-mult-so"
    for i in range(samples):
        rng = rng_for(seed, sid, i)
        t = _inv_cx(rng) if spec.unitary else _inv_real(rng)
        s = _inv_cx(rng) if spec.unitary else _inv_real(rng)
        lhs = _h_word(spec, root, t) @ _h_word(spec, root, s)
        rhs = _h_word(spec, root, t * s)
        rec.check(lhs, rhs, i, {"t": [np.real(t), np.imag(t)], "s": [np.real(s), np.imag(s)]})
    return samples, rec


def _suite_center_so(spec, samples, seed, tol):
    rec = _Recorder(tol)
    diff, plus = parse_label("L1-L2", spec.n), parse_label("L1+L2", spec.n)
    lhs = _h_word(spec, diff, -1.0) @ _h_word(spec, plus, -1.0)
    rec.check(lhs, identity(spec.size), 0, {"relation": "h_{L1-L2}(-1) h_{L1+L2}(-1) = id"})
    return 1, rec


def _suite_center_su(spec, samples, seed, tol):
    rec = _Recorder(tol)
    n = spec.n
    if spec.tail > 0:
        w = _chain(spec, parse_label(f"L{n}", n), (0.0,) * spec.tail, t=-1.0)
    else:
        w = _chain(spec, parse_label(f"2L{n}", n), -1.0)
    h = w @ w
    # h is a nontrivial central diagonal with h^2 = id
    expected = np.ones(spec.size, dtype=complex)
    expected[n - 1] = -1.0
    expected[2 * n - 1] = -1.0
    rec.check(h, np.diag(expected), 0, {"relation": "h_{2Ln}(-1) closed form"})
    rec.check(h @ h, identity(spec.size), 1, {"relation": "h_{2Ln}(-1)^2 = id"})
    nontrivial = tol.residual(h, identity(spec.size))
    rec.record(0.0 if nontrivial > 0.5 else 1.0, 2, {"relation": "h_{2Ln}(-1) != id"})
    return 3, rec


def _suite_rot(spec, samples, seed, tol):
    rec = _Recorder(tol)
    sid = "rot-su" if spec.unitary else "rot-so"
    variants = ("real", "imag") if spec.unitary else ("real",)
    for i in range(samples):
        rng = rng_for(seed, sid, i)
        j = int(rng.integers(1, spec.tail))
        th1, th2 = _angle(rng), _angle(rng)
        a, b = np.cos(th1), np.sin(th1)
        c, d = np.cos(th2), np.sin(th2)
        variant = variants[i % len(variants)]
        lhs = h_rot(spec, j, (a, b), variant) @ h_rot(spec, j, (c, d), variant)
        rhs = h_rot(spec, j, (a * c - b * d, a * d + b * c), variant)
        rec.check(lhs, rhs, i, {"j": j, "theta": [th1, th2], "variant": variant})
    return samples, rec


def _conj_labels(n):
    """L_n, L_{n-1}, L_{n-1}-L_n and L_{n-1}+L_n: the roots of the conjugation lemmas."""
    return tuple(parse_label(text, n) for text in
                 (f"L{n}", f"L{n - 1}", f"L{n - 1}-L{n}", f"L{n - 1}+L{n}"))


def _suite_conj_so(spec, samples, seed, tol):
    rec = _Recorder(tol)
    n, k = spec.n, spec.tail
    vec, vec1, diff, plus = _conj_labels(n)
    w = partial(_chain, spec)
    for i in range(samples):
        rng = rng_for(seed, "conj-so", i)
        a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
        t = _inv_real(rng)
        na2 = float(a @ a)
        inputs = {"a": list(a), "t": t}
        Wn = w(vec, a)
        Wd = w(diff, t)
        Wd_inv = INV(Wd)
        Wn_inv = INV(Wn)
        rec.check(Wn @ Wd @ Wn_inv, w(plus, -0.5 * na2 * t), i, inputs)
        rec.check(Wn @ w(plus, t) @ Wn_inv, w(diff, -2.0 / na2 * t), i, inputs)
        Wn1 = w(vec1, a * t)
        rec.check(Wd @ Wn @ Wd_inv, Wn1, i, inputs)
        rec.check(Wd @ w(vec1, a) @ Wd_inv, w(vec, -a / t), i, inputs)
        H = Wd @ INV(w(diff, 1.0))
        rec.check(H @ Wn @ INV(H), w(vec, a / t), i, inputs)
        Hp = lambda u: w(plus, u) @ INV(w(plus, 1.0))
        rec.check(Wn @ H @ Wn_inv, Hp(-0.5 * na2 * t) @ INV(Hp(-0.5 * na2)), i, inputs)
        # reflection-group conjugation (le:14 analog at matrix level)
        cnt = int(rng.integers(1, 4))
        W = identity(spec.size)
        for _ in range(cnt):
            W = W @ w(vec, np.sqrt(2.0) * _unit_vec(rng, k))
        B = W[2 * n:, 2 * n:].real
        av = _unit_vec(rng, k)
        rec.check(W @ w(vec, np.sqrt(2.0) * av) @ INV(W),
                  w(vec, np.sqrt(2.0) * (B @ av)), i, inputs)
    return samples, rec


def _suite_conj_su(spec, samples, seed, tol):
    rec = _Recorder(tol)
    n, k = spec.n, spec.tail
    vec, vec1, diff, plus = _conj_labels(n)
    long, long1 = parse_label(f"2L{n}", n), parse_label(f"2L{n - 1}", n)
    neg, neg1 = -vec, -vec1
    w = partial(_chain, spec)
    for i in range(samples):
        rng = rng_for(seed, "conj-su", i)
        z = _inv_cx(rng)
        t = _inv_real(rng)
        Wd = w(diff, z)
        Wd_inv = INV(Wd)
        W2 = w(long, t)
        inputs = {"z": [z.real, z.imag], "t": t}
        # long-root items exist for every signature
        rec.check(Wd @ W2 @ Wd_inv, w(long1, t * abs(z) ** 2), i, inputs)
        rec.check(W2 @ Wd @ INV(W2), w(plus, -t * z * 1j), i, inputs)
        H = Wd @ INV(w(diff, 1.0))
        rec.check(H @ W2 @ INV(H), w(long, t / abs(z) ** 2), i, inputs)
        Hp = lambda u: w(plus, u) @ INV(w(plus, 1.0))
        rec.check(W2 @ H @ INV(W2), Hp(-t * z * 1j) @ INV(Hp(-t * 1j)), i, inputs)
        if k == 0:
            continue
        par = rand_param(spec, vec, rng, invertible=True)
        a = np.asarray(par.a)
        while np.linalg.norm(a) < 0.25:
            a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
        na2 = float(np.vdot(a, a).real)
        inputs = {"z": [z.real, z.imag], "t": t, "a": [[x.real, x.imag] for x in a]}
        W0a = w(vec, a)
        W0a_inv = INV(W0a)
        rec.check(W0a @ Wd @ W0a_inv, w(plus, -0.5 * na2 * z), i, inputs)
        rec.check(W0a @ w(plus, z) @ W0a_inv, w(diff, -2.0 / na2 * z), i, inputs)
        rec.check(Wd @ W0a @ Wd_inv, w(vec1, a * z), i, inputs)
        rec.check(Wd @ w(vec1, a) @ Wd_inv, w(vec, -a / z), i, inputs)
        rec.check(H @ W0a @ INV(H), w(vec, a / z), i, inputs)
        rec.check(W0a @ H @ W0a_inv, Hp(-0.5 * na2 * z) @ INV(Hp(-0.5 * na2)), i, inputs)
        # reflection-group conjugation of chains and unipotents
        cnt = int(rng.integers(1, 4))
        W = identity(spec.size)
        for _ in range(cnt):
            W = W @ w(vec, np.sqrt(2.0) * _unit_vec(rng, k, cx=True))
        B = W[2 * n:, 2 * n:]
        av = _unit_vec(rng, k, cx=True)
        sign = 1.0 if cnt % 2 == 0 else -1.0
        rec.check(W @ w(vec, np.sqrt(2.0) * av) @ INV(W),
                  w(vec, np.sqrt(2.0) * sign * (np.conj(B) @ av)), i, inputs)
        tb = _ureal(rng)
        bvec = rng.uniform(-2, 2, size=k) + 1j * rng.uniform(-2, 2, size=k)
        Lx = W @ x_elem(spec, vec, Heis(tb, tuple(bvec))) @ INV(W)
        if cnt % 2 == 0:
            Rx = x_elem(spec, vec, Heis(tb, tuple(np.conj(B) @ bvec)))
        else:
            # the t part is fixed by the central entry; only the vector flips
            Rx = x_elem(spec, neg, Heis(tb, tuple(-np.conj(B) @ bvec)))
        rec.check(Lx, Rx, i, inputs)
        # general-parameter chains
        tgen = _inv_real(rng)
        a0 = complex(-0.5 * na2, tgen)
        Wta = w(vec, a, t=tgen)
        Bta = Wta[2 * n:, 2 * n:]
        t1 = _inv_real(rng)
        bpar = rand_param(spec, vec, rng, invertible=True)
        Wt1b = w(vec, np.asarray(bpar.a), t=t1)
        lhs = Wta @ Wt1b @ INV(Wta)
        rhs = w(neg, np.conj(Bta / a0) @ np.asarray(bpar.a), t=t1 / abs(a0) ** 2)
        rec.check(lhs, rhs, i, inputs)
        rec.check(Wta @ Wd @ INV(Wta), w(plus, z * np.conj(a0)), i, inputs)
        rec.check(Wta @ w(plus, z) @ INV(Wta), w(diff, z / a0), i, inputs)
        Wp = w(plus, z)
        rec.check(Wp @ Wta @ INV(Wp), w(neg1, np.conj(1.0 / z) * a, t=tgen / abs(z) ** 2), i, inputs)
        rec.check(Wd @ Wta @ Wd_inv, w(vec1, z * a, t=tgen * abs(z) ** 2), i, inputs)
    return samples, rec


def _symbol_word(spec, root, s, t):
    """{s, t} assembled from h words; the identity matrix if the symbol dies."""
    return _h_word(spec, root, s) @ _h_word(spec, root, t) @ INV(_h_word(spec, root, s * t))


def _suite_symbol_scalar(spec, samples, seed, tol):
    rec = _Recorder(tol)
    sid = "symbol-C" if spec.unitary else "symbol-R"
    root = parse_label("L1-L2", spec.n)
    I = identity(spec.size)
    draw = _inv_cx if spec.unitary else _inv_real
    for i in range(samples):
        rng = rng_for(seed, sid, i)
        t1, t2, t3 = draw(rng), draw(rng), draw(rng)
        inputs = {"t1": [np.real(t1), np.imag(t1)], "t2": [np.real(t2), np.imag(t2)],
                  "t3": [np.real(t3), np.imag(t3)]}
        rec.check(_symbol_word(spec, root, t1, t2), I, i, inputs)
        rec.check(_symbol_word(spec, root, t1, t2 * t3),
                  _symbol_word(spec, root, t1, t2) @ _symbol_word(spec, root, t1, t3), i, inputs)
        rec.check(_symbol_word(spec, root, t1 * t2, t3),
                  _symbol_word(spec, root, t1, t3) @ _symbol_word(spec, root, t2, t3), i, inputs)
        rec.check(_symbol_word(spec, root, t1, t2) @ _symbol_word(spec, root, t2, t1), I, i, inputs)
        while abs(1.0 - t1) < 0.25:
            t1 = draw(rng)
        rec.check(_symbol_word(spec, root, t1, 1.0 - t1), I, i, inputs)
        rec.check(_symbol_word(spec, root, t1, -t1), I, i, inputs)
    return samples, rec


def _circle_mul(ab, cd):
    a, b = ab
    c, d = cd
    return (a * c - b * d, a * d + b * c)


def _suite_symbol_circle(spec, samples, seed, tol):
    rec = _Recorder(tol)
    I = identity(spec.size)
    variants = ("real", "imag") if spec.unitary else ("real",)
    def sym(j, ab, cd, variant):
        return (h_rot(spec, j, _circle_mul(ab, cd), variant)
                @ INV(h_rot(spec, j, ab, variant)) @ INV(h_rot(spec, j, cd, variant)))
    for i in range(samples):
        rng = rng_for(seed, "symbol-S1", i)
        j = int(rng.integers(1, spec.tail))
        t_ab, t_cd, t_ef = (_angle(rng) for _ in range(3))
        ab = (np.cos(t_ab), np.sin(t_ab))
        cd = (np.cos(t_cd), np.sin(t_cd))
        ef = (np.cos(t_ef), np.sin(t_ef))
        variant = variants[i % len(variants)]
        inputs = {"j": j, "ab": list(ab), "cd": list(cd), "variant": variant}
        rec.check(sym(j, ab, cd, variant), I, i, inputs)
        rec.check(sym(j, ab, _circle_mul(cd, ef), variant),
                  sym(j, ab, cd, variant) @ sym(j, ab, ef, variant), i, inputs)
        rec.check(sym(j, _circle_mul(ab, cd), ef, variant),
                  sym(j, ab, ef, variant) @ sym(j, cd, ef, variant), i, inputs)
        rec.check(sym(j, ab, cd, variant) @ sym(j, cd, ab, variant), I, i, inputs)
        rec.check(sym(j, cd, (-cd[0], -cd[1]), variant), I, i, inputs)
    return samples, rec


def _suite_braid(spec, samples, seed, tol):
    rec = _Recorder(tol)
    sid = "braid"
    n = spec.n
    for i in range(samples):
        rng = rng_for(seed, sid, i)
        j = int(rng.integers(1, spec.tail - 1))
        lo = 2 * n + j - 1
        if spec.unitary:
            V1, V2, V3 = _rand_su2(rng), _rand_su2(rng), _rand_su2(rng)
            inputs = {"j": j, "dir": i % 2}
            if i % 2 == 0:
                # H^j H^{j+1} H^j -> H^{j+1} H^j H^{j+1}
                L = (_su2_block_word(spec, j, V1) @ _su2_block_word(spec, j + 1, V2)
                     @ _su2_block_word(spec, j, V3))
                M3 = L[lo:lo + 3, lo:lo + 3]
                U, V, W = _su2_completion(M3)
                R = (_su2_block_word(spec, j + 1, U) @ _su2_block_word(spec, j, V)
                     @ _su2_block_word(spec, j + 1, W))
            else:
                # the reverse exchange, via the coordinate flip of the window
                L = (_su2_block_word(spec, j + 1, V1) @ _su2_block_word(spec, j, V2)
                     @ _su2_block_word(spec, j + 1, V3))
                M3 = L[lo:lo + 3, lo:lo + 3]
                flip = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
                U, V, W = _su2_completion(flip @ M3 @ flip)
                R = (_su2_block_word(spec, j, _flip2(U)) @ _su2_block_word(spec, j + 1, _flip2(V))
                     @ _su2_block_word(spec, j, _flip2(W)))
            rec.check(L, R, i, inputs)
        else:
            t1, t2, t3 = (_angle(rng) for _ in range(3))
            inputs = {"j": j, "angles": [t1, t2, t3], "dir": i % 2}
            if i % 2 == 0:
                L = (rot_from_angle(spec, j, t1) @ rot_from_angle(spec, j + 1, t2)
                     @ rot_from_angle(spec, j, t3))
                M3 = L[lo:lo + 3, lo:lo + 3]
                b1, a2, b3 = _so3_euler_bab(M3)
                R = (rot_from_angle(spec, j + 1, b1) @ rot_from_angle(spec, j, a2)
                     @ rot_from_angle(spec, j + 1, b3))
            else:
                L = (rot_from_angle(spec, j + 1, t1) @ rot_from_angle(spec, j, t2)
                     @ rot_from_angle(spec, j + 1, t3))
                M3 = L[lo:lo + 3, lo:lo + 3]
                a1, b2, a3 = _so3_euler_aba(M3)
                R = (rot_from_angle(spec, j, a1) @ rot_from_angle(spec, j + 1, b2)
                     @ rot_from_angle(spec, j, a3))
            rec.check(L, R, i, inputs)
    return samples, rec


def _flip2(U):
    """Conjugate an SU(2) block by the coordinate flip inside the 3-window."""
    F = np.array([[0, 1], [1, 0]], dtype=complex)
    return F @ U @ F


def _suite_trace_pairing(spec, samples, seed, tol):
    rec = _Recorder(tol)
    for i in range(samples):
        rng = rng_for(seed, "trace-pairing", i)
        a = _unit_vec(rng, spec.tail, cx=True)
        b = _unit_vec(rng, spec.tail, cx=True)
        lhs, rhs = trace_pairing(spec, a, b, tol)
        r = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
        rec.record(r, i, {"a": [[x.real, x.imag] for x in a], "b": [[x.real, x.imag] for x in b]})
    return samples, rec


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "additivity": dict(runner=_suite_additivity, families=("so", "su"), min_tail=0),
    "commutator": dict(runner=_suite_commutator, families=("so", "su"), min_tail=0),
    "h-mult-so": dict(runner=_suite_h_mult, families=("so",), min_tail=0),
    "h-mult-su": dict(runner=_suite_h_mult, families=("su",), min_tail=0),
    "center-so": dict(runner=_suite_center_so, families=("so",), min_tail=0),
    "center-su": dict(runner=_suite_center_su, families=("su",), min_tail=0),
    "rot-so": dict(runner=_suite_rot, families=("so",), min_tail=2),
    "rot-su": dict(runner=_suite_rot, families=("su",), min_tail=2),
    "conj-so": dict(runner=_suite_conj_so, families=("so",), min_tail=1),
    "conj-su": dict(runner=_suite_conj_su, families=("su",), min_tail=0),
    "symbol-R": dict(runner=_suite_symbol_scalar, families=("so",), min_tail=0),
    "symbol-C": dict(runner=_suite_symbol_scalar, families=("su",), min_tail=0),
    "symbol-S1": dict(runner=_suite_symbol_circle, families=("so", "su"), min_tail=2),
    "braid": dict(runner=_suite_braid, families=("so", "su"), min_tail=3),
    "trace-pairing": dict(runner=_suite_trace_pairing, families=("su",), min_tail=1),
}


def suite_ids():
    return list(SUITES)


def suite_side_condition(spec: GroupSpec, suite_id: str):
    """None when the suite applies to the spec, else a human-readable reason."""
    if suite_id not in SUITES:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {', '.join(SUITES)}")
    entry = SUITES[suite_id]
    if spec.family not in entry["families"]:
        return f"suite {suite_id} applies to family {'/'.join(entry['families'])}, not {spec.family}"
    if spec.tail < entry["min_tail"]:
        return f"side condition m-n >= {entry['min_tail']} violated (m-n = {spec.tail})"
    return None


def run_suite(spec: GroupSpec, suite_id: str, samples: int = 1000, seed: int = 42,
              tol: Tolerance = DEFAULT_TOL) -> SuiteReport:
    """Run one registry suite and report residuals."""
    reason = suite_side_condition(spec, suite_id)
    if reason is not None:
        raise SideConditionViolated(reason)
    done, rec = SUITES[suite_id]["runner"](spec, samples, seed, tol)
    return SuiteReport(suite_id, spec, done, seed, rec.max_residual, rec.failures)


def verify_all(spec: GroupSpec, samples: int = 1000, seed: int = 42,
               tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every applicable suite; aggregate pass/fail and worst residuals."""
    suites = []
    ok = True
    for suite_id in SUITES:
        reason = suite_side_condition(spec, suite_id)
        if reason is not None:
            suites.append({"suite": suite_id, "skipped": reason})
            continue
        report = run_suite(spec, suite_id, samples, seed, tol)
        ok = ok and report.passed
        suites.append(report.to_json())
    return {
        "spec": {"family": spec.family, "m": spec.m, "n": spec.n},
        "samples": samples,
        "seed": seed,
        "pass": ok,
        "suites": suites,
    }
