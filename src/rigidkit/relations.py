"""The relation verification engine.

Every relation family of the group presentations (additivity, commutator
tables, h multiplicativity, central elements, rotation words, conjugation
lemmas, symbol axioms, braid exchange, trace pairing) is a suite in the
SUITES registry: a sampler together with the families and the side
condition it applies to.  A sampler builds the relations of one sample as
named pairs of sides, always assembled independently as matrices.  It builds
each distinct word of the sample once and shares it between the sides: chains,
h words and their inverses through a per-sample memo, each word alone on first
use, and the symbol samplers' words, inverses and symbols as stacks.  Nothing
is kept from one sample to the next.  The one runner, run_suite, draws each
sample's seeded substream, compares the sides and produces a machine-readable
report.  Structure constants are never hard-coded but extracted numerically
and certified.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import matmul, mul

import numpy as np

from .errors import (DecompositionResidual, NotOnSphere, OppositeRoots, SideConditionViolated,
                     UnknownSuite)
from .matrixcore import DEFAULT_TOL, GroupSpec, Tolerance, _eye, identity, nilpotent_log
from .generators import (Cx, Heis, RVec, Scalar, _letter_inverse, _param, _read_letter, _x_matrix,
                         h_rot, param_add, param_to_json, w_matrix, x_elem)
from .rootsystem import RootLabel, parse_label, root_index, root_table
from .words import plane_words, staircase_rows, su2_euler

INV = np.linalg.inv
_WORD = 1 << 32   # SeedSequence's entropy word: an int below it is one uint32


# ---------------------------------------------------------------------------
# seeded sampling; sample i of a suite draws from an independent substream


def rng_for(seed: int, suite_id: str, index: int) -> np.random.Generator:
    """The generator of sample ``index`` of a suite: PCG64 seeded by
    SeedSequence((seed, crc32(suite_id), index)), as default_rng builds it.

    When seed and index lie in [0, 2^32), each of the three is one 32-bit word of
    the entropy, so it is passed as that uint32 array: SeedSequence makes the same
    words from the tuple, only slower.  Any other seed or index takes the tuple,
    so a negative one raises SeedSequence's own error."""
    seed, index = int(seed), int(index)
    tag = zlib.crc32(suite_id.encode())
    if 0 <= seed < _WORD and 0 <= index < _WORD:
        entropy = np.array([seed, tag, index], dtype=np.uint32)
    else:
        entropy = (seed, tag, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _ureal(rng):
    return float(rng.uniform(-2.0, 2.0))


def _inv_real(rng):
    # the sign by integers(0, 2): the value and generator state of choice([-1.0, 1.0])
    return float((-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(0.25, 2.0))


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
    """Collects residuals of the relation checks inside one suite run and judges
    them against ``tol``, the one tolerance that sets a relation verdict."""

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


@lru_cache(maxsize=None)
def _term_plan(index_of, family: str, m: int, n: int, rc: tuple, pc: tuple) -> tuple:
    """The terms of [x_r, x_p] as ((label, has_double), ...), ascending (i + j, i).

    Each i*r + j*p (i, j = 1..3) is formed as an integer tuple and looked up
    in ``index_of(spec)``; has_double says whether twice the term root is a
    term too.  A plan depends on nothing but its arguments, and the lookup
    is one of them, so a plan found under one root index (a test may blind
    the search by patching ``root_index``) is never served under another.
    """
    index = index_of(GroupSpec(family, m, n))
    seen = {}   # coefficient tuple of a term root -> (height i + j, i)
    for i in range(1, 4):
        for j in range(1, 4):
            c = tuple([i * x + j * y for x, y in zip(rc, pc)])
            if c in index and c not in seen:
                seen[c] = (i + j, i)
    return tuple((index[c].label, tuple([2 * v for v in c]) in seen)
                 for c in sorted(seen, key=seen.get))


def commutator_decompose(spec: GroupSpec, r: RootLabel, a, p: RootLabel, b,
                         tol: Tolerance = DEFAULT_TOL) -> CommutatorTable:
    """Decompose [x_r(a), x_p(b)] into one-root factors and certify it.

    The commutator is unipotent; its nilpotent logarithm is projected onto
    the root spaces i*r + j*p (i, j >= 1) and the product of the extracted
    one-root factors, taken in ascending height order, must reproduce the
    commutator.  Which i*r + j*p are roots depends on the pair alone, so the
    term roots come from a plan cache, ``_term_plan``, keyed by the spec's
    fields, the coefficient tuples of r and p and the ``root_index`` in
    force; it holds no matrix and no parameter.  The table is empty exactly
    when no i*r + j*p is a root.  Pairs along opposite root directions
    (r = -c*p, c > 0) are rejected: their commutator leaves the unipotent
    world.  The cache changes no bit of a table: ``to_json()`` is the same,
    byte for byte, whether a pair's plan is found afresh or read back.
    The inverses x_r(a)^-1 and x_p(b)^-1 are taken from the letters A and B
    by ``_letter_inverse``: 2I - X, with a +-L_i letter's central entry a0
    turned into 2 Re(a0) - a0.  That is exact, because X = I + N + N^2/2 and
    N^2 lives only in that entry, and it is byte for byte the letter of the
    negated parameter.
    """
    if anti_proportional(r, p):
        raise OppositeRoots(f"{r} and {p} span opposite root group directions")
    A = x_elem(spec, r, a)
    B = x_elem(spec, p, b)
    C = A @ B @ _letter_inverse(r, A) @ _letter_inverse(p, B)
    plan = _term_plan(root_index, spec.family, spec.m, spec.n, r.coeffs, p.coeffs)
    if plan:
        X = nilpotent_log(C, tol)
        raw = []
        for q, has_double in plan:
            value, t = _read_letter(spec, q, X)
            # the doubled root, when present as a term, absorbs the central part
            raw.append((q, value, 0.0 if has_double else t))
        P = reduce(matmul, [_x_matrix(spec, q, value, t) for q, value, t in raw])
        terms = tuple([(q, _param(spec, q, value, t)) for q, value, t in raw])
    else:   # with no term the product is the identity: the commutator must be trivial
        terms, P = (), _eye(spec.size)
    resid = tol.residual(P, C)
    if resid > tol.rel:
        raise DecompositionResidual(
            f"[{r}, {p}] decomposition residual {resid:.3e} exceeds tolerance", resid)
    return CommutatorTable(r, p, terms, resid)


# ---------------------------------------------------------------------------
# trace pairing


def trace_pairing(spec: GroupSpec, a, b):
    """Both sides of the trace identity for products of vector reflections.

    lhs = 4|<a,b>|^2 + (m-n) - 4, rhs = trace of the tail block of
    w(0, sqrt2 a) w(0, sqrt2 b).  Inputs are unit vectors in C^{m-n}, to
    DEFAULT_TOL.rel.
    """
    if not spec.unitary or spec.tail < 1:
        raise SideConditionViolated("trace pairing needs the unitary family with m > n")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for v in (a, b):
        # written so that a NaN fails it
        if v.shape != (spec.tail,) or not abs(np.linalg.norm(v) - 1.0) <= DEFAULT_TOL.rel:
            raise NotOnSphere("trace pairing takes unit vectors in C^(m-n)")
    w = partial(w_matrix, spec, parse_label(f"L{spec.n}", spec.n))
    tail = (w(np.sqrt(2.0) * a) @ w(np.sqrt(2.0) * b))[2 * spec.n:, 2 * spec.n:]
    lhs = 4.0 * abs(np.vdot(b, a)) ** 2 + spec.tail - 4.0
    rhs = float(np.trace(tail).real)
    return lhs, rhs


# ---------------------------------------------------------------------------
# relation samplers: sampler(spec, rng, i) yields the relations of sample
# i as (name, lhs, rhs, inputs); rhs None means lhs is a residual the sampler
# measured itself.  No sampler reads the verdict tolerance: the recorder does


def _key(root, value, t=0.0):
    """A word's key in the word table: the root's coefficients (a RootLabel hashes
    through Python code) and the raw parameter, a vector value by its bytes."""
    return root.coeffs, value.tobytes() if type(value) is np.ndarray else value, t


class _Words:
    """The words of one sample (chains w, their inverses winv, h words h and their
    inverses hinv), each built alone on first use and kept for that sample only."""

    def __init__(self, spec: GroupSpec):
        self.spec, self.built = spec, {}
        # w(root, value, t=0.0), winv(root, value, t=0.0), h(root, t) and hinv(root, t)
        self.w, self.winv, self.h, self.hinv = (partial(self.get, kind)
                                                for kind in ("w", "winv", "h", "hinv"))

    def get(self, kind, root, value, t=0.0):
        """The word of ``kind`` of root at (value, t)."""
        key = kind, _key(root, value, t)
        M = self.built.get(key)
        if M is None:
            M = self.built[key] = (
                w_matrix(self.spec, root, value, t) if kind == "w" else
                INV(self.w(root, value, t)) if kind == "winv" else
                self.w(root, value) @ self.winv(root, 1.0) if kind == "h" else
                INV(self.h(root, value)))
        return M


def _draw_root(spec, rng):
    infos = root_table(spec.family, spec.m, spec.n).infos
    return infos[int(rng.integers(len(infos)))].label


def _inv_scalar(spec, rng):
    """An invertible scalar of the family: real for SO, complex for SU."""
    return _inv_cx(rng) if spec.unitary else _inv_real(rng)


def _additivity(spec, rng, i):
    root = _draw_root(spec, rng)
    p = rand_param(spec, root, rng)
    q = rand_param(spec, root, rng)
    yield ("x(p) x(q) = x(p+q)", x_elem(spec, root, p) @ x_elem(spec, root, q),
           x_elem(spec, root, param_add(spec, root, p, q)),
           {"root": str(root), "p": param_to_json(p), "q": param_to_json(q)})


def _commutator(spec, rng, i):
    while True:
        r, p = _draw_root(spec, rng), _draw_root(spec, rng)
        if not anti_proportional(r, p):
            break
    a = rand_param(spec, r, rng)
    b = rand_param(spec, p, rng)
    try:
        residual = commutator_decompose(spec, r, a, p, b).residual
    except DecompositionResidual as exc:
        residual = exc.residual
    yield ("[x_r(a), x_p(b)] = product of its root factors", residual, None,
           {"r": str(r), "p": str(p), "a": param_to_json(a), "b": param_to_json(b)})


def _h_mult(spec, rng, i):
    root = parse_label("L1-L2", spec.n)
    t, s = _inv_scalar(spec, rng), _inv_scalar(spec, rng)
    h = partial(_Words(spec).h, root)
    yield "h(t) h(s) = h(ts)", h(t) @ h(s), h(t * s), {"t": t, "s": s}


def _center_so(spec, rng, i):
    diff, plus = parse_label("L1-L2", spec.n), parse_label("L1+L2", spec.n)
    h = _Words(spec).h
    yield ("h_{L1-L2}(-1) h_{L1+L2}(-1) = id", h(diff, -1.0) @ h(plus, -1.0),
           identity(spec.size), {})


def _center_su(spec, rng, i):
    n = spec.n
    if spec.tail > 0:
        w = w_matrix(spec, parse_label(f"L{n}", n), (0.0,) * spec.tail, -1.0)
    else:
        w = w_matrix(spec, parse_label(f"2L{n}", n), -1.0)
    h = w @ w
    expected = np.ones(spec.size, dtype=complex)
    expected[n - 1] = expected[2 * n - 1] = -1.0
    I = identity(spec.size)
    yield "h_{2Ln}(-1) closed form", h, np.diag(expected), {}
    yield "h_{2Ln}(-1)^2 = id", h @ h, I, {}
    # a central element of order two that must not be the identity
    yield "h_{2Ln}(-1) != id", 0.0 if DEFAULT_TOL.residual(h, I) > 0.5 else 1.0, None, {}


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


def _rot(spec, rng, i):
    j, (th1, th2), variant = _plane_draw(spec, rng, i, 2)
    ab, cd = (np.cos(th1), np.sin(th1)), (np.cos(th2), np.sin(th2))
    H = h_rot(spec, np.full(3, j), np.transpose([ab, cd, _circle_mul(ab, cd)]), variant)
    yield ("h(ab) h(cd) = h(ab cd)", H[0] @ H[1], H[2],
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


def _reflection_draws(spec, rng, cx):
    """sqrt2 u_i of the word w_Ln(sqrt2 u_1) ... w_Ln(sqrt2 u_c), c in 1..3 random unit
    vectors u, and one more unit vector u."""
    count = int(rng.integers(1, 4))
    us = [np.sqrt(2.0) * _unit_vec(rng, spec.tail, cx) for _ in range(count)]
    return us, _unit_vec(rng, spec.tail, cx)


def _conj_so(spec, rng, i):
    vec = _conj_labels(spec.n)[0]
    words = _Words(spec)
    w = words.w
    a = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    t = _inv_real(rng)
    inputs = {"a": a, "t": t}
    us, av = _reflection_draws(spec, rng, cx=False)
    yield from _vector_conj(spec, words, a, t, inputs)
    # reflection-group conjugation (le:14 analog at matrix level)
    W = reduce(matmul, [w(vec, u) for u in us], identity(spec.size))
    B = W[2 * spec.n:, 2 * spec.n:]
    yield ("W w_Ln(sqrt2 u) W^-1 = w_Ln(sqrt2 B u)", W @ w(vec, np.sqrt(2.0) * av) @ INV(W),
           w(vec, np.sqrt(2.0) * (B.real @ av)), inputs)


def _conj_su(spec, rng, i):
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
    us, av = _reflection_draws(spec, rng, cx=True)
    tb = _ureal(rng)
    bvec = rng.uniform(-2, 2, size=k) + 1j * rng.uniform(-2, 2, size=k)
    tgen = _inv_real(rng)
    t1 = _inv_real(rng)
    b = np.asarray(rand_param(spec, vec, rng, invertible=True).a)
    yield from _vector_conj(spec, words, a, z, inputs)
    # reflection-group conjugation of chains and unipotents
    count = len(us)
    W = reduce(matmul, [w(vec, u) for u in us], identity(spec.size))
    W_inv, B = INV(W), W[2 * n:, 2 * n:]
    sign = 1.0 if count % 2 == 0 else -1.0
    yield ("W w_Ln(sqrt2 u) W^-1 = w_Ln(+-sqrt2 conj(B) u)",
           W @ w(vec, np.sqrt(2.0) * av) @ W_inv,
           w(vec, np.sqrt(2.0) * sign * (np.conj(B) @ av)), inputs)
    Lx = W @ x_elem(spec, vec, Heis(tb, tuple(bvec))) @ W_inv
    if count % 2 == 0:
        Rx = x_elem(spec, vec, Heis(tb, tuple(np.conj(B) @ bvec)))
    else:
        # the t part is fixed by the central entry; only the vector flips
        Rx = x_elem(spec, neg, Heis(tb, tuple(-np.conj(B) @ bvec)))
    yield "W x_Ln(t, b) W^-1 = x_+-Ln(t, +-conj(B) b)", Lx, Rx, inputs
    # general-parameter chains
    a0 = complex(-0.5 * float(np.vdot(a, a).real), tgen)
    Wta, Wta_inv = w(vec, a, tgen), winv(vec, a, tgen)
    Bta = Wta[2 * n:, 2 * n:]
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


def _symbol_scalar(spec, rng, i):
    root = parse_label("L1-L2", spec.n)
    I = identity(spec.size)
    t1, t2, t3 = (_inv_scalar(spec, rng) for _ in range(3))
    inputs = {"t1": t1, "t2": t2, "t3": t3}
    u = t1
    while abs(1.0 - u) < 0.25:
        u = _inv_scalar(spec, rng)
    t12, t23 = t1 * t2, t2 * t3
    # {s, t} = h(s) h(t) h(st)^-1, the identity matrix if the symbol dies
    pairs = [(t1, t2), (t1, t23), (t1, t3), (t12, t3), (t2, t3), (t2, t1), (u, 1.0 - u), (u, -u)]
    products = list(dict.fromkeys(s * t for s, t in pairs))
    # the distinct values 1, s, t and st as one chain stack, h(x) = w(x) w(1)^-1, the
    # h(st) inverted as one stacked INV and the symbols as one stacked product
    at = {x: k for k, x in enumerate(dict.fromkeys([1.0, *sum(pairs, ()), *products]))}
    W = w_matrix(spec, root, np.array(list(at)))
    H = W @ INV(W[:1])
    hinv = dict(zip(products, INV(H[[at[st] for st in products]])))
    sym = dict(zip(pairs, H[[at[s] for s, _ in pairs]] @ H[[at[t] for _, t in pairs]]
                   @ np.array([hinv[s * t] for s, t in pairs])))
    yield "{t1, t2} = id", sym[t1, t2], I, inputs
    yield "{t1, t2 t3} = {t1, t2} {t1, t3}", sym[t1, t23], sym[t1, t2] @ sym[t1, t3], inputs
    yield "{t1 t2, t3} = {t1, t3} {t2, t3}", sym[t12, t3], sym[t1, t3] @ sym[t2, t3], inputs
    yield "{t1, t2} {t2, t1} = id", sym[t1, t2] @ sym[t2, t1], I, inputs
    yield "{t, 1-t} = id", sym[u, 1.0 - u], I, inputs
    yield "{t, -t} = id", sym[u, -u], I, inputs


def _symbol_circle(spec, rng, i):
    j, angles, variant = _plane_draw(spec, rng, i, 3)
    ab, cd, ef = ((np.cos(t), np.sin(t)) for t in angles)
    I = identity(spec.size)
    # the rotation words the symbols below use, evaluated as one stack
    mul, minus_cd = _circle_mul, (-cd[0], -cd[1])
    xs = dict.fromkeys([ab, cd, ef, mul(ab, cd), mul(cd, ab), mul(cd, ef), mul(ab, ef),
                        mul(ab, mul(cd, ef)), mul(mul(ab, cd), ef), minus_cd, mul(cd, minus_cd)])
    rot = dict(zip(xs, h_rot(spec, np.full(len(xs), j), np.transpose(list(xs)), variant)))
    # {x, y} = h(xy) h(x)^-1 h(y)^-1: the words inverted as one stacked INV, the
    # symbols as one stacked product
    pairs = [(ab, cd), (ab, mul(cd, ef)), (ab, ef), (mul(ab, cd), ef), (cd, ef), (cd, ab),
             (cd, minus_cd)]
    inverted = list(dict.fromkeys(x for xy in pairs for x in xy))
    rotinv = dict(zip(inverted, INV(np.array([rot[x] for x in inverted]))))
    sym = dict(zip(pairs, np.array([rot[mul(x, y)] for x, y in pairs])
                   @ np.array([rotinv[x] for x, _ in pairs])
                   @ np.array([rotinv[y] for _, y in pairs])))
    inputs = {"j": j, "ab": ab, "cd": cd, "variant": variant}
    yield "{ab, cd} = id", sym[ab, cd], I, inputs
    yield "{ab, cd ef} = {ab, cd} {ab, ef}", sym[ab, mul(cd, ef)], sym[ab, cd] @ sym[ab, ef], inputs
    yield "{ab cd, ef} = {ab, ef} {cd, ef}", sym[mul(ab, cd), ef], sym[ab, ef] @ sym[cd, ef], inputs
    yield "{ab, cd} {cd, ab} = id", sym[ab, cd] @ sym[cd, ab], I, inputs
    yield "{cd, -cd} = id", sym[cd, minus_cd], I, inputs


def _braid(spec, rng, i):
    j = int(rng.integers(1, spec.tail - 1))
    if spec.unitary:
        draws = tuple(su2_euler(_rand_su2(rng)) for _ in range(3))
        inputs = {"j": j, "dir": i % 2}
        flip = lambda e: (e[0], -e[1], e[2])
    else:
        draws = tuple(_angle(rng) for _ in range(3))
        inputs = {"j": j, "angles": list(draws), "dir": i % 2}
        flip = lambda t: t
    p, q = (j, j + 1) if i % 2 == 0 else (j + 1, j)
    L0, L1, L2 = plane_words(spec, (p, q, p), draws)
    L = L0 @ L1 @ L2
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
    R0, R1, R2 = plane_words(spec, (q, p, q), (f1, f2, f3))
    R = R0 @ R1 @ R2
    name = "H^j H^j+1 H^j = H^j+1 H^j H^j+1" if i % 2 == 0 else "H^j+1 H^j H^j+1 = H^j H^j+1 H^j"
    yield name, L, R, inputs


def _trace_pairing(spec, rng, i):
    a = _unit_vec(rng, spec.tail, cx=True)
    b = _unit_vec(rng, spec.tail, cx=True)
    lhs, rhs = trace_pairing(spec, a, b)
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
        checks = enumerate(sampler(spec, None, 0))
    else:
        checks = ((i, relation) for i in range(samples)
                  for relation in sampler(spec, rng_for(seed, suite_id, i), i))
    rec = _Recorder(tol)
    for i, (name, lhs, rhs, inputs) in checks:
        rec.check(name, lhs, rhs, i, inputs)
    return SuiteReport(suite_id, spec, samples, seed, rec.max_residual, rec.failures)


def verify_all(spec: GroupSpec, samples: int = 1000, seed: int = 42,
               tol: Tolerance = DEFAULT_TOL, timings: dict | None = None) -> dict:
    """Run every applicable suite; aggregate pass/fail and worst residuals.  Given a
    dict ``timings``, each suite's wall time in seconds is stored in it by suite id."""
    suites = []
    ok = True
    for suite_id in SUITES:
        reason = suite_side_condition(spec, suite_id)
        if reason is not None:
            suites.append({"suite": suite_id, "skipped": reason})
            continue
        start = time.perf_counter()
        report = run_suite(spec, suite_id, samples, seed, tol)
        if timings is not None:
            timings[suite_id] = time.perf_counter() - start
        ok = ok and report.passed
        suites.append(report.to_json())
    return {
        "spec": {"family": spec.family, "m": spec.m, "n": spec.n},
        "samples": samples,
        "seed": seed,
        "pass": ok,
        "suites": suites,
    }
