"""The three benchmark workloads and the checks that gate their outputs.

Each workload is a closed loop: one process makes the next library call only
when the previous one has returned.  Work is done in whole *rounds*, so every
run sees the same mix of calls:

- ``presentation``: one round is ``relations.verify_all`` on each of the
  seven acceptance specs with SAMPLES_PER_SUITE samples per suite (the shape
  of acceptance criterion 2, and the path a batched suite engine changes).
  An operation is one suite sample; a call is one ``verify_all``.
- ``tables``: one round is one sample of ``relations.commutator_decompose``
  on each of the 2,436 ordered root pairs of the seven specs that are neither
  opposite nor anti-proportional (the shape of criterion 4: draw (a, b) from
  the pair's ``rng_for`` substream, then decompose).  It never reaches
  ``h_rot`` or a suite runner.
- ``normalform``: one round is a fixed, seeded, shuffled list of staircase
  round-trips (``words.staircase_decompose`` then ``words.reconstruct`` on
  Haar-random SO(k)/SU(k) blocks, k = 2..4) and cycle decisions
  (``lyapunov.stable_cycle_feasible``, then ``lyapunov.splitting`` at the
  witness).  The only workload that reaches ``words``, ``lyapunov`` and
  scipy, and the one that evaluates ``h_rot`` one word at a time.

Outputs are checked after the timed phase against references that do not
come from the code under test where one exists: an independent root table,
an exact Weyl-chamber test for cycle feasibility, and the digests stored in
``reference.json``.  No residual is compared bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

# Library calls go through the module (relations.verify_all, not a name
# imported here) so that the traced run's wrappers see them.
from rigidkit import lyapunov, relations, rootsystem, words
from rigidkit.lyapunov import CycleSpec
from rigidkit.matrixcore import DEFAULT_TOL, GroupSpec, Tolerance

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SPECS = (GroupSpec("so", 3, 3), GroupSpec("so", 4, 3), GroupSpec("so", 5, 3),
         GroupSpec("so", 6, 3), GroupSpec("su", 3, 3), GroupSpec("su", 4, 3),
         GroupSpec("su", 5, 3))
SAMPLES_PER_SUITE = 2
PRESENTATION_RESIDUAL = 1e-8   # acceptance criterion 2
TABLE_TOL = Tolerance(1e-9)     # acceptance criterion 4
ROUNDTRIP_RESIDUAL = 1e-9       # acceptance criterion 6
CYCLE_POOL = (GroupSpec("so", 5, 3), GroupSpec("so", 4, 4), GroupSpec("su", 5, 4),
              GroupSpec("su", 5, 5))
BLOCKS_PER_SHAPE = 16           # Haar blocks per (family, k)
CYCLES_PER_LENGTH = 4           # random cycles per (pool spec, length 1..6)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# the benchmark's own root tables, written from the definitions, not read
# from rigidkit.rootsystem


def expected_roots(spec: GroupSpec) -> dict:
    """Coefficient vector -> multiplicity for the restricted roots of spec."""
    n, k = spec.n, spec.tail
    su = spec.family == "su"
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            c = [0] * n
            c[i], c[j] = si, sj
            out[tuple(c)] = 2 if su else 1
    for i in range(n):
        for s in (1, -1):
            if k:
                c = [0] * n
                c[i] = s
                out[tuple(c)] = 2 * k if su else k
            if su:
                c = [0] * n
                c[i] = 2 * s
                out[tuple(c)] = 1
    return out


def group_dim(spec: GroupSpec) -> int:
    size = spec.size
    return size * size - 1 if spec.family == "su" else size * (size - 1) // 2


def check_root_table(spec: GroupSpec) -> None:
    got = {info.label.coeffs: info.multiplicity for info in rootsystem.roots(spec)}
    if got != expected_roots(spec):
        raise RuntimeError(f"roots({spec}) disagrees with the benchmark's own root table")


def opposite_directions(r: tuple, p: tuple) -> bool:
    """r = -c*p for some c > 0."""
    parallel = all(r[i] * p[j] == r[j] * p[i] for i in range(len(r)) for j in range(len(r)))
    return parallel and sum(x * y for x, y in zip(r, p)) < 0


def table_is_empty(spec: GroupSpec, r: tuple, p: tuple) -> bool:
    """No i*r + j*p (1 <= i, j <= 3) is a root."""
    table = expected_roots(spec)
    return not any(tuple(i * x + j * y for x, y in zip(r, p)) in table
                   for i in range(1, 4) for j in range(1, 4))


def signed_permutations(n: int) -> np.ndarray:
    """One point inside each Weyl chamber of type BC_n: the signed
    permutations of (1, ..., n).  No root of any spec vanishes on them."""
    pts = [np.array(perm) * np.array(signs)
           for perm in itertools.permutations(range(1, n + 1))
           for signs in itertools.product((1, -1), repeat=n)]
    return np.array(pts, dtype=float)


def cycle_feasible_exact(chambers: np.ndarray, coeffs) -> bool:
    """Strict feasibility of root(t) < 0 for every cycle root.

    The feasible set is an open cone cut out by root hyperplanes, so it is
    nonempty exactly when it contains a whole Weyl chamber, hence one of
    the chamber points.  Integer arithmetic, exact in floating point.
    """
    values = chambers @ np.array(coeffs, dtype=float).T
    return bool(np.any(np.all(values < 0, axis=1)))


# ---------------------------------------------------------------------------
# workloads.  round(i) returns one entry per call: (latency_ns, ops, record);
# check(i, calls) returns (ops, failed, problems).


class Presentation:
    name = "presentation"
    trace_rounds = 60

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = None

    def warm_up(self):
        for spec in SPECS:
            relations.verify_all(spec, samples=1, seed=0)

    def prepare(self):
        ref = load_reference()["presentation"]
        if ref["samples_per_suite"] != SAMPLES_PER_SUITE:
            raise RuntimeError("reference.json was written for another samples_per_suite")
        self.reference = ref["digest"]

    def round(self, i: int) -> list:
        seed = self.seed * 1_000_003 + i
        out = []
        for spec in SPECS:
            t0 = time.perf_counter_ns()
            result = relations.verify_all(spec, samples=SAMPLES_PER_SUITE, seed=seed)
            dt = time.perf_counter_ns() - t0
            out.append((dt, sum(e.get("samples", 0) for e in result["suites"]), result))
        return out

    @staticmethod
    def round_digest(results) -> str:
        rows = []
        for result in results:
            spec = result["spec"]
            for e in result["suites"]:
                if "samples" in e:
                    rows.append([spec["family"], spec["m"], spec["n"], e["suite"], e["samples"],
                                 e["pass"], sorted({f["sample"] for f in e["failures"]})])
        return digest(rows)

    def check(self, i: int, calls) -> tuple:
        results = [rec for _, _, rec in calls]
        ops = sum(n for _, n, _ in calls)
        failed, problems = 0, []
        for result in results:
            for e in result["suites"]:
                if "samples" not in e:
                    continue
                bad = len({f["sample"] for f in e["failures"]})
                if not (e["pass"] and e["max_residual"] < PRESENTATION_RESIDUAL) and bad == 0:
                    bad = e["samples"]   # failure not attributed to samples: all of them
                if bad:
                    problems.append(f"{result['spec']} {e['suite']}: {bad} failed samples, "
                                    f"max residual {e['max_residual']}")
                failed += bad
        if self.round_digest(results) != self.reference:
            problems.append(f"round {i}: (spec, suite, samples, pass, failures) digest "
                            "differs from reference.json")
            failed = ops
        return ops, failed, problems


class Tables:
    name = "tables"
    trace_rounds = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = []      # (spec, r, p, substream tag, table expected empty)
        self.reference = None

    def warm_up(self):
        for spec in SPECS:
            labels = [info.label for info in rootsystem.roots(spec)]
            rng = relations.rng_for(0, "perfbench-warm-up", 0)
            a = relations.rand_param(spec, labels[0], rng)
            b = relations.rand_param(spec, labels[2], rng)
            relations.commutator_decompose(spec, labels[0], a, labels[2], b, TABLE_TOL)

    def build_pairs(self):
        self.pairs = []
        for spec in SPECS:
            check_root_table(spec)
            labels = [info.label for info in rootsystem.roots(spec)]
            for r, p in itertools.product(labels, labels):
                if opposite_directions(r.coeffs, p.coeffs):
                    continue
                self.pairs.append((spec, r, p, f"perfbench-tables:{spec}:{r}:{p}",
                                   table_is_empty(spec, r.coeffs, p.coeffs)))

    def prepare(self):
        ref = load_reference()["tables"]
        self.build_pairs()
        if len(self.pairs) != ref["pairs"]:
            raise RuntimeError(f"{len(self.pairs)} root pairs, reference.json has {ref['pairs']}")
        self.reference = ref["digest"]

    def round(self, i: int) -> list:
        out = []
        seed = self.seed
        for spec, r, p, tag, _ in self.pairs:
            t0 = time.perf_counter_ns()
            try:
                rng = relations.rng_for(seed, tag, i)
                a = relations.rand_param(spec, r, rng)
                b = relations.rand_param(spec, p, rng)
                table = relations.commutator_decompose(spec, r, a, p, b, TABLE_TOL)
            except Exception as exc:   # recorded as a failed operation
                out.append((time.perf_counter_ns() - t0, 1, exc))
                continue
            dt = time.perf_counter_ns() - t0
            out.append((dt, 1, ([q.coeffs for q, _ in table.terms], table.residual)))
        return out

    def round_digest(self, records) -> str:
        rows = [[str(spec), r.coeffs, p.coeffs, None if isinstance(rec, Exception) else rec[0]]
                for (spec, r, p, _, _), rec in zip(self.pairs, records)]
        return digest(rows)

    def check(self, i: int, calls) -> tuple:
        records = [rec for _, _, rec in calls]
        failed, problems = 0, []
        for (spec, r, p, _, empty), rec in zip(self.pairs, records):
            if isinstance(rec, Exception):
                why = f"raised {type(rec).__name__}: {rec}"
            elif not rec[1] <= TABLE_TOL.rel:
                why = f"residual {rec[1]}"
            elif (len(rec[0]) == 0) != empty:
                why = f"{len(rec[0])} terms, independent root check says empty={empty}"
            else:
                continue
            failed += 1
            problems.append(f"{spec} [{r}, {p}] round {i}: {why}")
        if len(records) != len(self.pairs) or self.round_digest(records) != self.reference:
            problems.append(f"round {i}: term-root digest differs from reference.json")
            failed = len(records)
        return len(records), failed, problems


class NormalForm:
    name = "normalform"
    trace_rounds = 15

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = []    # ("rt", spec, B) or ("cyc", spec, CycleSpec, expected feasible)

    def warm_up(self):
        for family, k in itertools.product(("so", "su"), (2, 3, 4)):
            spec = GroupSpec(family, 3 + k, 3)
            B = haar_block(np.random.default_rng(0), family, k)
            words.reconstruct(spec, words.staircase_decompose(spec, B))
        spec = CYCLE_POOL[0]
        labels = [info.label for info in rootsystem.roots(spec)]
        witness = lyapunov.stable_cycle_feasible(spec, CycleSpec((labels[0],)))
        lyapunov.splitting(spec, witness)

    def prepare(self):
        rng = np.random.default_rng([self.seed, 6])
        ops = []
        for family, k in itertools.product(("so", "su"), (2, 3, 4)):
            spec = GroupSpec(family, 3 + k, 3)
            ops += [("rt", spec, haar_block(rng, family, k)) for _ in range(BLOCKS_PER_SHAPE)]
        for spec in CYCLE_POOL:
            check_root_table(spec)
            chambers = signed_permutations(spec.n)
            labels = [info.label for info in rootsystem.roots(spec)]
            for length in range(1, 7):
                for _ in range(CYCLES_PER_LENGTH):
                    cyc = CycleSpec(tuple(labels[int(rng.integers(len(labels)))]
                                          for _ in range(length)))
                    expect = cycle_feasible_exact(chambers, [r.coeffs for r in cyc.roots])
                    ops.append(("cyc", spec, cyc, expect))
        self.ops = [ops[j] for j in rng.permutation(len(ops))]

    def round(self, i: int) -> list:
        out = []
        for op in self.ops:
            spec = op[1]
            t0 = time.perf_counter_ns()
            try:
                if op[0] == "rt":
                    stair = words.staircase_decompose(spec, op[2])
                    rec = ([len(row) for row in stair.rows], words.reconstruct(spec, stair))
                else:
                    witness = lyapunov.stable_cycle_feasible(spec, op[2])
                    dims = None
                    if witness is not None:
                        split = lyapunov.splitting(spec, witness)
                        dims = (split.stable_dim, split.unstable_dim, split.neutral_dim)
                    rec = (witness, dims)
            except Exception as exc:   # recorded as a failed operation
                rec = exc
            out.append((time.perf_counter_ns() - t0, 1, rec))
        return out

    def check(self, i: int, calls) -> tuple:
        failed, problems = 0, []
        for op, (_, _, rec) in zip(self.ops, calls):
            why = (f"raised {type(rec).__name__}: {rec}" if isinstance(rec, Exception)
                   else check_roundtrip(op, rec) if op[0] == "rt" else check_cycle(op, rec))
            if why:
                failed += 1
                problems.append(f"{op[1]} {op[0]} round {i}: {why}")
        return len(calls), failed, problems


def haar_block(rng, family: str, k: int) -> np.ndarray:
    """Haar-random SO(k) or SU(k) block, as in acceptance criterion 6."""
    A = rng.normal(size=(k, k))
    if family == "su":
        A = A + 1j * rng.normal(size=(k, k))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    if family == "so":
        if np.linalg.det(Q).real < 0:
            Q[:, [0, 1]] = Q[:, [1, 0]]
        return Q.astype(complex)
    return Q / np.linalg.det(Q) ** (1.0 / k)


def check_roundtrip(op, rec):
    spec, B = op[1], op[2]
    lengths, M = rec
    if lengths != list(range(spec.tail - 1, 0, -1)):
        return f"row lengths {lengths}"
    resid = DEFAULT_TOL.residual(M, B)
    if not resid <= ROUNDTRIP_RESIDUAL:
        return f"round-trip residual {resid}"
    return None


def check_cycle(op, rec):
    spec, cyc, expect = op[1], op[2], op[3]
    witness, dims = rec
    if (witness is not None) != expect:
        return f"feasible={witness is not None}, exact chamber test says {expect}"
    if witness is None:
        return None
    t = np.asarray(witness, dtype=float)
    if not all(float(np.dot(r.coeffs, t)) < -1e-9 for r in cyc.roots):
        return f"witness {t.tolist()} does not make every cycle root negative"
    wall = DEFAULT_TOL.rel * (1.0 + np.linalg.norm(t))
    stable = sum(mult for c, mult in expected_roots(spec).items() if np.dot(c, t) < -wall)
    if dims != (stable, stable, group_dim(spec) - 2 * stable):
        return f"splitting dims {dims}, expected stable = unstable = {stable}"
    return None


WORKLOADS = {w.name: w for w in (Presentation, Tables, NormalForm)}


def write_reference() -> dict:
    """Digests of one round of presentation and tables at this commit.

    Neither digest depends on the seed: a correct run passes every suite
    sample, and the term roots of a commutator table depend only on the
    root pair.  They pin which (spec, suite) pairs run with how many
    samples, and each table's ordered term roots.
    """
    pres_results = [rec for _, _, rec in Presentation(0).round(0)]
    if not all(result["pass"] for result in pres_results):
        raise RuntimeError("a presentation suite failed; no reference written")
    tables = Tables(0)
    tables.build_pairs()
    table_records = [rec for _, _, rec in tables.round(0)]
    if any(isinstance(rec, Exception) for rec in table_records):
        raise RuntimeError("a commutator decomposition failed; no reference written")
    ref = {
        "presentation": {"samples_per_suite": SAMPLES_PER_SUITE,
                         "digest": Presentation.round_digest(pres_results)},
        "tables": {"pairs": len(tables.pairs), "digest": tables.round_digest(table_records)},
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    return ref


def percentile_with_tail(values):
    """p99, lowered (to a whole percent) until at least ten values lie above
    it; the maximum when there are too few values for any.  Returns
    (percentile used, value)."""
    n = len(values)
    q = math.floor(min(99.0, 100.0 * (n - 10) / n)) if n > 10 else 100
    return q, float(np.percentile(values, q))
