"""The relation verification engine.

Every relation family of the group presentations (additivity, commutator
tables, h multiplicativity, central elements, rotation words, conjugation
lemmas, symbol axioms, braid exchange, trace pairing) is a suite in the
SUITES registry: a sampler together with the families and the side
condition it applies to.  A sampler builds the relations of one sample as
named pairs of sides, always assembled independently as matrices; it builds
each distinct word of the sample once (chains, h words, rotation words, their
inverses and symbols) in one per-sample word table and shares it between the
sides, and nothing is kept from one sample to the next.
The one runner, run_suite, draws each sample's seeded substream, compares the
sides and produces a machine-readable report.  Structure constants are never
hard-coded but extracted numerically and certified.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import mul

import numpy as np

from .errors import (DecompositionResidual, NotOnSphere, OppositeRoots, SideConditionViolated,
                     UnknownSuite)
from .matrixcore import (DEFAULT_TOL, ROUNDING, GroupSpec, Tolerance, identity,
                         nilpotent_log)
from .generators import (Cx, Heis, RVec, Scalar, _x_matrix, as_param, h_rot, heis_read,
                         param_add, param_neg, param_to_json, w_matrix, x_elem)
from .rootsystem import RootLabel, parse_label, root_index, roots
from .words import plane_word, staircase_rows, su2_euler

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


def _rand_su2(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x, y, z, w = q
    return np.array([[x + 1j * w, y + 1j * z], [-y + 1j * z, x - 1j * w]])


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
            "max_residual": _json_float(self.max_residual),
            "failures": self.failures,
        }


def _json_float(r: float):
    """A residual for strict JSON: a non-finite one is written as null."""
    return r if math.isfinite(r) else None


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

    def check(self, name: str, lhs, rhs, sample: int, inputs) -> None:
        r = float(lhs if rhs is None else self.tol.residual(lhs, rhs))
        # a NaN compares false both ways: it must still fail and show in the max
        if math.isnan(r) or r > self.max_residual:
            self.max_residual = r
        if not math.isfinite(r) or r > self.tol.rel:
            self.failures.append({"sample": sample, "check": name, "inputs": _jsonable(inputs),
                                  "residual": _json_float(r)})


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
    kind, pos = q.position
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
    is then not unipotent and carries no decomposition.  The test is exact
    integer arithmetic: r.p < 0, and r_i p_j = r_j p_i for all i, j, which
    by Lagrange's identity |r|^2 |p|^2 - (r.p)^2 = sum_{i<j} (r_i p_j - r_j p_i)^2
    holds exactly when (r.p)^2 = |r|^2 |p|^2.
    """
    rc, pc = r.coeffs, p.coeffs
    dot = sum(map(mul, rc, pc))
    return dot < 0 and dot * dot == sum(map(mul, rc, rc)) * sum(map(mul, pc, pc))


def commutator_decompose(spec: GroupSpec, r: RootLabel, a, p: RootLabel, b,
                         tol: Tolerance = DEFAULT_TOL) -> CommutatorTable:
    """Decompose [x_r(a), x_p(b)] into one-root factors and certify it.

    The commutator is unipotent; its nilpotent logarithm is projected onto
    the root spaces i*r + j*p (i, j >= 1) and the product of the extracted
    one-root factors, taken in ascending height order, must reproduce the
    commutator.  The term roots come from coefficient arithmetic: each
    i*r + j*p is formed as an integer tuple and looked up in
    ``root_index``, which also supplies the term's label.  The table is
    empty exactly when no i*r + j*p is a root.  Pairs along opposite root
    directions (r = -c*p, c > 0) are rejected: their commutator leaves the
    unipotent world.
    """
    if anti_proportional(r, p):
        raise OppositeRoots(f"{r} and {p} span opposite root group directions")
    A = x_elem(spec, r, a)
    B = x_elem(spec, p, b)
    # one-root generators invert exactly through parameter negation
    C = A @ B @ _x_matrix(spec, r, param_neg(a)) @ _x_matrix(spec, p, param_neg(b))
    index = root_index(spec)
    seen = {}   # coefficient tuple of a term root -> (height i + j, i)
    for i in range(1, 4):
        for j in range(1, 4):
            c = tuple([i * x + j * y for x, y in zip(r.coeffs, p.coeffs)])
            if c in index and c not in seen:
                seen[c] = (i + j, i)
    terms = []
    if seen:
        X = nilpotent_log(C, tol)
        for c in sorted(seen, key=seen.get):
            q = index[c].label
            terms.append((q, _extract_term(spec, q, X, tuple([2 * v for v in c]) in seen)))
    # with no term the product P is the identity: the commutator must be trivial
    P = identity(spec.size)
    for q, par in terms:
        P = P @ _x_matrix(spec, q, par)
    resid = tol.residual(P, C)
    if resid > tol.rel:
        raise DecompositionResidual(
            f"[{r}, {p}] decomposition residual {resid:.3e} exceeds tolerance", resid)
    return CommutatorTable(r, p, tuple(terms), resid)


# ---------------------------------------------------------------------------
# trace pairing


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
        if v.shape != (spec.tail,) or abs(np.linalg.norm(v) - 1.0) > max(tol.rel, ROUNDING):
            raise NotOnSphere("trace pairing takes unit vectors in C^(m-n)")
    w = partial(_chain, spec, parse_label(f"L{spec.n}", spec.n))
    tail = (w(np.sqrt(2.0) * a) @ w(np.sqrt(2.0) * b))[2 * spec.n:, 2 * spec.n:]
    lhs = 4.0 * abs(np.vdot(b, a)) ** 2 + spec.tail - 4.0
    rhs = float(np.trace(tail).real)
    return lhs, rhs


def _chain(spec: GroupSpec, root: RootLabel, value, t: float = 0.0) -> np.ndarray:
    """Chain element of ``root`` at the raw parameter ``value`` (see as_param)."""
    return w_matrix(spec, root, as_param(spec, root, value, t))


# ---------------------------------------------------------------------------
# relation samplers: sampler(spec, rng, i, tol) yields the relations of sample
# i as (name, lhs, rhs, inputs); rhs None means lhs is a residual the sampler
# measured itself


class _Words:
    """The words of one sample (chains, their inverses, h words and whatever a
    sampler builds from them), each built on first use.

    A table lives inside one sampler call, so nothing is carried over to the
    next sample or run.  Entries are keyed by the root's coefficients (a
    RootLabel hashes through Python code) and a vector value by its entries.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.built = {}

    def get(self, key, build, *args):
        """The entry under ``key``, built as build(*args) on first use."""
        M = self.built.get(key)
        if M is None:
            M = self.built[key] = build(*args)
        return M

    def w(self, root, value, t=0.0):
        """The chain w_root at the raw parameter (value, t), built by _chain."""
        key = ("w", root.coeffs, tuple(value) if isinstance(value, np.ndarray) else value, t)
        return self.get(key, _chain, self.spec, root, value, t)

    def winv(self, root, value, t=0.0):
        """The inverse of w(root, value, t)."""
        key = ("winv", root.coeffs, tuple(value) if isinstance(value, np.ndarray) else value, t)
        return self.get(key, lambda: INV(self.w(root, value, t)))

    def h(self, root, t):
        """h_root(t) = w(t) w(1)^-1, the six-factor defining word."""
        return self.get(("h", root.coeffs, t), lambda: self.w(root, t) @ self.winv(root, 1.0))

    def hinv(self, root, t):
        """The inverse of h(root, t)."""
        return self.get(("hinv", root.coeffs, t), lambda: INV(self.h(root, t)))


@lru_cache(maxsize=None)
def _root_labels(spec: GroupSpec) -> tuple:
    return tuple(info.label for info in roots(spec))


def _draw_root(spec, rng):
    labels = _root_labels(spec)
    return labels[int(rng.integers(len(labels)))]


def _inv_scalar(spec, rng):
    """An invertible scalar of the family: real for SO, complex for SU."""
    return _inv_cx(rng) if spec.unitary else _inv_real(rng)


def _additivity(spec, rng, i, tol):
    root = _draw_root(spec, rng)
    p = rand_param(spec, root, rng)
    q = rand_param(spec, root, rng)
    yield ("x(p) x(q) = x(p+q)", x_elem(spec, root, p) @ x_elem(spec, root, q),
           x_elem(spec, root, param_add(spec, root, p, q)),
           {"root": str(root), "p": param_to_json(p), "q": param_to_json(q)})


def _commutator(spec, rng, i, tol):
    while True:
        r, p = _draw_root(spec, rng), _draw_root(spec, rng)
        if not anti_proportional(r, p):
            break
    a = rand_param(spec, r, rng)
    b = rand_param(spec, p, rng)
    try:
        residual = commutator_decompose(spec, r, a, p, b, tol).residual
    except DecompositionResidual as exc:
        residual = exc.residual
    yield ("[x_r(a), x_p(b)] = product of its root factors", residual, None,
           {"r": str(r), "p": str(p), "a": param_to_json(a), "b": param_to_json(b)})


def _h_mult(spec, rng, i, tol):
    root = parse_label("L1-L2", spec.n)
    t, s = _inv_scalar(spec, rng), _inv_scalar(spec, rng)
    h = partial(_Words(spec).h, root)
    yield "h(t) h(s) = h(ts)", h(t) @ h(s), h(t * s), {"t": t, "s": s}


def _center_so(spec, rng, i, tol):
    diff, plus = parse_label("L1-L2", spec.n), parse_label("L1+L2", spec.n)
    h = _Words(spec).h
    yield ("h_{L1-L2}(-1) h_{L1+L2}(-1) = id", h(diff, -1.0) @ h(plus, -1.0),
           identity(spec.size), {})


def _center_su(spec, rng, i, tol):
    n = spec.n
    if spec.tail > 0:
        w = _Words(spec).w(parse_label(f"L{n}", n), (0.0,) * spec.tail, -1.0)
    else:
        w = _Words(spec).w(parse_label(f"2L{n}", n), -1.0)
    h = w @ w
    expected = np.ones(spec.size, dtype=complex)
    expected[n - 1] = expected[2 * n - 1] = -1.0
    I = identity(spec.size)
    yield "h_{2Ln}(-1) closed form", h, np.diag(expected), {}
    yield "h_{2Ln}(-1)^2 = id", h @ h, I, {}
    # a central element of order two that must not be the identity
    yield "h_{2Ln}(-1) != id", 0.0 if tol.residual(h, I) > 0.5 else 1.0, None, {}


def _plane_draw(spec, rng, i, count):
    """Tail plane j, `count` angles and the rotation variant of sample i."""
    j = int(rng.integers(1, spec.tail))
    angles = [_angle(rng) for _ in range(count)]
    variants = ("real", "imag") if spec.unitary else ("real",)
    return j, angles, variants[i % len(variants)]


def _circle_mul(ab, cd):
    a, b = ab
    c, d = cd
    return (a * c - b * d, a * d + b * c)


def _rot(spec, rng, i, tol):
    j, (th1, th2), variant = _plane_draw(spec, rng, i, 2)
    ab, cd = (np.cos(th1), np.sin(th1)), (np.cos(th2), np.sin(th2))
    yield ("h(ab) h(cd) = h(ab cd)", h_rot(spec, j, ab, variant) @ h_rot(spec, j, cd, variant),
           h_rot(spec, j, _circle_mul(ab, cd), variant),
           {"j": j, "theta": [th1, th2], "variant": variant})


def _conj_labels(n):
    """L_n, L_{n-1}, L_{n-1}-L_n and L_{n-1}+L_n: the roots of the conjugation lemmas."""
    return tuple(parse_label(text, n) for text in
                 (f"L{n}", f"L{n - 1}", f"L{n - 1}-L{n}", f"L{n - 1}+L{n}"))


def _vector_conj(spec, words, a, z, inputs):
    """The six lemmas conjugating w_Ln(a) against the L_{n-1} -+ L_n chains at z,
    built from the sample's word table."""
    vec, vec1, diff, plus = _conj_labels(spec.n)
    w = words.w
    na2 = float(np.vdot(a, a).real)
    Wd, Wd_inv, H, H_inv = w(diff, z), words.winv(diff, z), words.h(diff, z), words.hinv(diff, z)
    Wv, Wv_inv = w(vec, a), words.winv(vec, a)
    yield ("w_Ln(a) w_Ln-1-Ln(z) w_Ln(a)^-1 = w_Ln-1+Ln(-|a|^2 z/2)",
           Wv @ Wd @ Wv_inv, w(plus, -0.5 * na2 * z), inputs)
    yield ("w_Ln(a) w_Ln-1+Ln(z) w_Ln(a)^-1 = w_Ln-1-Ln(-2z/|a|^2)",
           Wv @ w(plus, z) @ Wv_inv, w(diff, -2.0 / na2 * z), inputs)
    yield ("w_Ln-1-Ln(z) w_Ln(a) w_Ln-1-Ln(z)^-1 = w_Ln-1(az)",
           Wd @ Wv @ Wd_inv, w(vec1, a * z), inputs)
    yield ("w_Ln-1-Ln(z) w_Ln-1(a) w_Ln-1-Ln(z)^-1 = w_Ln(-a/z)",
           Wd @ w(vec1, a) @ Wd_inv, w(vec, -a / z), inputs)
    yield ("h_Ln-1-Ln(z) w_Ln(a) h_Ln-1-Ln(z)^-1 = w_Ln(a/z)",
           H @ Wv @ H_inv, w(vec, a / z), inputs)
    yield ("w_Ln(a) h_Ln-1-Ln(z) w_Ln(a)^-1 = h_Ln-1+Ln(-|a|^2 z/2) h_Ln-1+Ln(-|a|^2/2)^-1",
           Wv @ H @ Wv_inv, words.h(plus, -0.5 * na2 * z) @ words.hinv(plus, -0.5 * na2), inputs)


def _reflection_word(spec, words, rng, cx):
    """w_Ln(sqrt2 u_1) ... w_Ln(sqrt2 u_c) for c in 1..3 random unit vectors u."""
    vec = parse_label(f"L{spec.n}", spec.n)
    count = int(rng.integers(1, 4))
    W = identity(spec.size)
    for _ in range(count):
        W = W @ words.w(vec, np.sqrt(2.0) * _unit_vec(rng, spec.tail, cx))
    return count, W, W[2 * spec.n:, 2 * spec.n:]


def _conj_so(spec, rng, i, tol):
    vec = _conj_labels(spec.n)[0]
    words = _Words(spec)
    w = words.w
    a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    t = _inv_real(rng)
    inputs = {"a": a, "t": t}
    yield from _vector_conj(spec, words, a, t, inputs)
    # reflection-group conjugation (le:14 analog at matrix level)
    _, W, B = _reflection_word(spec, words, rng, cx=False)
    av = _unit_vec(rng, spec.tail)
    yield ("W w_Ln(sqrt2 u) W^-1 = w_Ln(sqrt2 B u)", W @ w(vec, np.sqrt(2.0) * av) @ INV(W),
           w(vec, np.sqrt(2.0) * (B.real @ av)), inputs)


def _conj_su(spec, rng, i, tol):
    n, k = spec.n, spec.tail
    vec, vec1, diff, plus = _conj_labels(n)
    long, long1 = parse_label(f"2L{n}", n), parse_label(f"2L{n - 1}", n)
    neg, neg1 = -vec, -vec1
    words = _Words(spec)
    w, winv = words.w, words.winv
    z = _inv_cx(rng)
    t = _inv_real(rng)
    Wd, Wd_inv, H, H_inv = w(diff, z), winv(diff, z), words.h(diff, z), words.hinv(diff, z)
    W2, W2_inv = w(long, t), winv(long, t)
    inputs = {"z": z, "t": t}
    # long-root items exist for every signature
    yield ("w_Ln-1-Ln(z) w_2Ln(t) w_Ln-1-Ln(z)^-1 = w_2Ln-1(t|z|^2)",
           Wd @ W2 @ Wd_inv, w(long1, t * abs(z) ** 2), inputs)
    yield ("w_2Ln(t) w_Ln-1-Ln(z) w_2Ln(t)^-1 = w_Ln-1+Ln(-itz)",
           W2 @ Wd @ W2_inv, w(plus, -t * z * 1j), inputs)
    yield ("h_Ln-1-Ln(z) w_2Ln(t) h_Ln-1-Ln(z)^-1 = w_2Ln(t/|z|^2)",
           H @ W2 @ H_inv, w(long, t / abs(z) ** 2), inputs)
    yield ("w_2Ln(t) h_Ln-1-Ln(z) w_2Ln(t)^-1 = h_Ln-1+Ln(-itz) h_Ln-1+Ln(-it)^-1",
           W2 @ H @ W2_inv, words.h(plus, -t * z * 1j) @ words.hinv(plus, -t * 1j), inputs)
    if k == 0:
        return
    a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    while np.linalg.norm(a) < 0.25:
        a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    inputs = {"z": z, "t": t, "a": a}
    yield from _vector_conj(spec, words, a, z, inputs)
    # reflection-group conjugation of chains and unipotents
    count, W, B = _reflection_word(spec, words, rng, cx=True)
    W_inv = INV(W)
    av = _unit_vec(rng, k, cx=True)
    sign = 1.0 if count % 2 == 0 else -1.0
    yield ("W w_Ln(sqrt2 u) W^-1 = w_Ln(+-sqrt2 conj(B) u)",
           W @ w(vec, np.sqrt(2.0) * av) @ W_inv,
           w(vec, np.sqrt(2.0) * sign * (np.conj(B) @ av)), inputs)
    tb = _ureal(rng)
    bvec = rng.uniform(-2, 2, size=k) + 1j * rng.uniform(-2, 2, size=k)
    Lx = W @ x_elem(spec, vec, Heis(tb, tuple(bvec))) @ W_inv
    if count % 2 == 0:
        Rx = x_elem(spec, vec, Heis(tb, tuple(np.conj(B) @ bvec)))
    else:
        # the t part is fixed by the central entry; only the vector flips
        Rx = x_elem(spec, neg, Heis(tb, tuple(-np.conj(B) @ bvec)))
    yield "W x_Ln(t, b) W^-1 = x_+-Ln(t, +-conj(B) b)", Lx, Rx, inputs
    # general-parameter chains
    tgen = _inv_real(rng)
    a0 = complex(-0.5 * float(np.vdot(a, a).real), tgen)
    Wta, Wta_inv = w(vec, a, tgen), winv(vec, a, tgen)
    Bta = Wta[2 * n:, 2 * n:]
    t1 = _inv_real(rng)
    b = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    yield ("w_Ln(t, a) w_Ln(t1, b) w_Ln(t, a)^-1 = w_-Ln(t1/|a0|^2, conj(B/a0) b)",
           Wta @ w(vec, b, t1) @ Wta_inv, w(neg, np.conj(Bta / a0) @ b, t1 / abs(a0) ** 2),
           inputs)
    yield ("w_Ln(t, a) w_Ln-1-Ln(z) w_Ln(t, a)^-1 = w_Ln-1+Ln(z conj(a0))",
           Wta @ Wd @ Wta_inv, w(plus, z * np.conj(a0)), inputs)
    yield ("w_Ln(t, a) w_Ln-1+Ln(z) w_Ln(t, a)^-1 = w_Ln-1-Ln(z/a0)",
           Wta @ w(plus, z) @ Wta_inv, w(diff, z / a0), inputs)
    yield ("w_Ln-1+Ln(z) w_Ln(t, a) w_Ln-1+Ln(z)^-1 = w_-Ln-1(t/|z|^2, conj(1/z) a)",
           w(plus, z) @ Wta @ winv(plus, z), w(neg1, np.conj(1.0 / z) * a, tgen / abs(z) ** 2),
           inputs)
    yield ("w_Ln-1-Ln(z) w_Ln(t, a) w_Ln-1-Ln(z)^-1 = w_Ln-1(t|z|^2, za)",
           Wd @ Wta @ Wd_inv, w(vec1, z * a, tgen * abs(z) ** 2), inputs)


def _symbol_scalar(spec, rng, i, tol):
    words = _Words(spec)
    root = parse_label("L1-L2", spec.n)
    h, hinv = partial(words.h, root), partial(words.hinv, root)
    # {s, t} from h words; the identity matrix if the symbol dies
    sym = lambda s, t: words.get(("sym", s, t), lambda: h(s) @ h(t) @ hinv(s * t))
    I = identity(spec.size)
    t1, t2, t3 = (_inv_scalar(spec, rng) for _ in range(3))
    inputs = {"t1": t1, "t2": t2, "t3": t3}
    yield "{t1, t2} = id", sym(t1, t2), I, inputs
    yield "{t1, t2 t3} = {t1, t2} {t1, t3}", sym(t1, t2 * t3), sym(t1, t2) @ sym(t1, t3), inputs
    yield "{t1 t2, t3} = {t1, t3} {t2, t3}", sym(t1 * t2, t3), sym(t1, t3) @ sym(t2, t3), inputs
    yield "{t1, t2} {t2, t1} = id", sym(t1, t2) @ sym(t2, t1), I, inputs
    while abs(1.0 - t1) < 0.25:
        t1 = _inv_scalar(spec, rng)
    yield "{t, 1-t} = id", sym(t1, 1.0 - t1), I, inputs
    yield "{t, -t} = id", sym(t1, -t1), I, inputs


def _symbol_circle(spec, rng, i, tol):
    j, angles, variant = _plane_draw(spec, rng, i, 3)
    ab, cd, ef = ((np.cos(t), np.sin(t)) for t in angles)
    I = identity(spec.size)
    words = _Words(spec)
    rot = lambda x: words.get(("rot", x), h_rot, spec, j, x, variant)
    rotinv = lambda x: words.get(("rotinv", x), lambda: INV(rot(x)))
    sym = lambda x, y: words.get(("sym", x, y),
                                 lambda: rot(_circle_mul(x, y)) @ rotinv(x) @ rotinv(y))
    inputs = {"j": j, "ab": ab, "cd": cd, "variant": variant}
    yield "{ab, cd} = id", sym(ab, cd), I, inputs
    yield ("{ab, cd ef} = {ab, cd} {ab, ef}", sym(ab, _circle_mul(cd, ef)),
           sym(ab, cd) @ sym(ab, ef), inputs)
    yield ("{ab cd, ef} = {ab, ef} {cd, ef}", sym(_circle_mul(ab, cd), ef),
           sym(ab, ef) @ sym(cd, ef), inputs)
    yield "{ab, cd} {cd, ab} = id", sym(ab, cd) @ sym(cd, ab), I, inputs
    yield "{cd, -cd} = id", sym(cd, (-cd[0], -cd[1])), I, inputs


def _braid(spec, rng, i, tol):
    j = int(rng.integers(1, spec.tail - 1))
    if spec.unitary:
        draws = tuple(su2_euler(_rand_su2(rng)) for _ in range(3))
        inputs = {"j": j, "dir": i % 2}
        flip = lambda e: (e[0], -e[1], e[2])
    else:
        draws = tuple(_angle(rng) for _ in range(3))
        inputs = {"j": j, "angles": list(draws), "dir": i % 2}
        flip = lambda t: t
    block = partial(plane_word, spec)
    p, q = (j, j + 1) if i % 2 == 0 else (j + 1, j)
    L = block(p, draws[0]) @ block(q, draws[1]) @ block(p, draws[2])
    lo = 2 * spec.n + j - 1
    window = L[lo:lo + 3, lo:lo + 3]
    # the staircase of a 3-window W is W = A(e1) B(e2) A(e3), A rotating its plane
    # (1, 2) and B its plane (2, 3); the signed flip P maps A(e) to B(flip(e)), so
    # the forward exchange reads the factors of B A B off the staircase of P W P
    if i % 2 == 0:
        P = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
        (f1, f2), (f3,) = staircase_rows(P @ window @ P, spec.unitary)
        f1, f2, f3 = flip(f1), flip(f2), flip(f3)
    else:
        (f1, f2), (f3,) = staircase_rows(window, spec.unitary)
    R = block(q, f1) @ block(p, f2) @ block(q, f3)
    name = "H^j H^j+1 H^j = H^j+1 H^j H^j+1" if i % 2 == 0 else "H^j+1 H^j H^j+1 = H^j H^j+1 H^j"
    yield name, L, R, inputs


def _trace_pairing(spec, rng, i, tol):
    a = _unit_vec(rng, spec.tail, cx=True)
    b = _unit_vec(rng, spec.tail, cx=True)
    lhs, rhs = trace_pairing(spec, a, b, tol)
    yield ("4|<a,b>|^2 + m-n-4 = tr tail(w_Ln(sqrt2 a) w_Ln(sqrt2 b))", lhs, rhs,
           {"a": a, "b": b})


# ---------------------------------------------------------------------------
# registry and runner


SUITES = {
    "additivity": dict(sampler=_additivity, families=("so", "su"), min_tail=0),
    "commutator": dict(sampler=_commutator, families=("so", "su"), min_tail=0),
    "h-mult-so": dict(sampler=_h_mult, families=("so",), min_tail=0),
    "h-mult-su": dict(sampler=_h_mult, families=("su",), min_tail=0),
    "center-so": dict(sampler=_center_so, families=("so",), min_tail=0, samples=1),
    "center-su": dict(sampler=_center_su, families=("su",), min_tail=0, samples=3),
    "rot-so": dict(sampler=_rot, families=("so",), min_tail=2),
    "rot-su": dict(sampler=_rot, families=("su",), min_tail=2),
    "conj-so": dict(sampler=_conj_so, families=("so",), min_tail=1),
    "conj-su": dict(sampler=_conj_su, families=("su",), min_tail=0),
    "symbol-R": dict(sampler=_symbol_scalar, families=("so",), min_tail=0),
    "symbol-C": dict(sampler=_symbol_scalar, families=("su",), min_tail=0),
    "symbol-S1": dict(sampler=_symbol_circle, families=("so", "su"), min_tail=2),
    "braid": dict(sampler=_braid, families=("so", "su"), min_tail=3),
    "trace-pairing": dict(sampler=_trace_pairing, families=("su",), min_tail=1),
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
    """Run one registry suite and report residuals.

    Sample i draws the substream rng_for(seed, suite_id, i) and every relation
    its sampler yields is checked.  A suite with a fixed sample count draws
    nothing: its sampler runs once and its k-th relation is sample k.
    """
    reason = suite_side_condition(spec, suite_id)
    if reason is not None:
        raise SideConditionViolated(reason)
    entry = SUITES[suite_id]
    sampler = entry["sampler"]
    if "samples" in entry:
        samples = entry["samples"]
        checks = enumerate(sampler(spec, None, 0, tol))
    else:
        checks = ((i, relation) for i in range(samples)
                  for relation in sampler(spec, rng_for(seed, suite_id, i), i, tol))
    rec = _Recorder(tol)
    for i, (name, lhs, rhs, inputs) in checks:
        rec.check(name, lhs, rhs, i, inputs)
    return SuiteReport(suite_id, spec, samples, seed, rec.max_residual, rec.failures)


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
