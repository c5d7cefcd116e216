"""Batch command-line front end.

Subcommands: roots, chain, verify, verify-all, lyapunov, stable-cycle,
genplane, normalform, reduce, trace-pairing.  Exit codes: 0 on success or
pass, 1 on verification failure, 2 on usage or side-condition errors.
JSON output is the stable machine surface; text output is human-oriented.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import RigidkitError
from .matrixcore import DEFAULT_TOL, GroupSpec, Tolerance, load_matrix
from .rootsystem import is_generic_plane, parse_root, roots
from .generators import param_from_json, w_elem
from .relations import run_suite, suite_ids, verify_all
from .words import load_word, staircase_decompose, word_to_json, free_reduce
from .lyapunov import CycleSpec, exponent_table, splitting, stable_cycle_feasible


def _tolerance(args) -> Tolerance:
    """--tol, else the RIGIDKIT_TOL environment variable, else DEFAULT_TOL."""
    if args.tol is not None:
        return Tolerance(args.tol)
    env = os.environ.get("RIGIDKIT_TOL")
    return Tolerance(float(env)) if env else DEFAULT_TOL


def _int_at_least(low: int):
    """An argparse type: a decimal integer of at least ``low``."""
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def _add_spec_args(p):
    p.add_argument("--family", choices=("so", "su"), default="so")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)


def _add_run_args(p):
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")


def _spec_from(args) -> GroupSpec:
    return GroupSpec(args.family, args.m, args.n)


def _emit(args, obj, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rigidkit",
                                 description="Matrix constructions and relation checks "
                                             "for SO+(m,n) and SU(m,n)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the restricted roots with multiplicities")
    _add_spec_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("chain", help="chain element certificate for one root")
    _add_spec_args(p)
    p.add_argument("--root", required=True, help='root name, e.g. "L1-L2"')
    p.add_argument("--param", required=True,
                   help='parameter JSON: {"t": x} | {"z": [re,im]} | {"a": [..]} | {"t": x, "a": [[re,im],..]}')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run one relation suite")
    _add_spec_args(p)
    p.add_argument("--suite", required=True, choices=suite_ids())
    _add_run_args(p)

    p = sub.add_parser("verify-all", help="run every applicable suite")
    _add_spec_args(p)
    _add_run_args(p)

    p = sub.add_parser("lyapunov", help="exponent table and splitting at a Cartan vector")
    _add_spec_args(p)
    p.add_argument("--t", required=True, help="comma-separated Cartan vector, e.g. 3,2,1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("stable-cycle", help="strict feasibility of a stable cycle")
    _add_spec_args(p)
    p.add_argument("--roots", required=True, help='comma-separated roots, e.g. "L1-L2,L2-L3,L1"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("genplane", help="genericity of a 2-plane in the Cartan")
    _add_spec_args(p)
    p.add_argument("--v1", required=True, help="comma-separated vector")
    p.add_argument("--v2", required=True, help="comma-separated vector")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("normalform", help="staircase normal form of a tail-block matrix")
    p.add_argument("--family", choices=("so", "su"), default="so")
    p.add_argument("--k", type=int, required=True, help="tail size m-n")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="freely reduce a word")
    _add_spec_args(p)
    p.add_argument("--word", required=True, help="word JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("trace-pairing", help="trace pairing identity on random sphere pairs")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    _add_run_args(p)
    return ap


def _vector(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _cmd_roots(args) -> int:
    spec = _spec_from(args)
    table = [{"root": str(info.label), "multiplicity": info.multiplicity}
             for info in roots(spec)]
    _emit(args, table, [f"{spec}: {len(table)} roots"]
          + [f"  {row['root']:>8}  multiplicity {row['multiplicity']}" for row in table])
    return 0


def _cmd_chain(args) -> int:
    spec = _spec_from(args)
    root = parse_root(args.root, spec)
    param = param_from_json(json.loads(args.param))
    cert = w_elem(spec, root, param)
    obj = cert.to_json()
    lines = [f"chain element for {root} of {spec}",
             f"  reflection check: {'pass' if cert.reflection_checked else 'FAIL'}"]
    _emit(args, obj, lines)
    return 0 if cert.reflection_checked else 1


def _cmd_verify(args) -> int:
    spec = _spec_from(args)
    report = run_suite(spec, args.suite, args.samples, args.seed, _tolerance(args))
    obj = report.to_json()
    lines = [f"suite {args.suite} on {spec}: {'pass' if report.passed else 'FAIL'} "
             f"(max residual {report.max_residual:.3e}, {report.samples} samples)"]
    _emit(args, obj, lines)
    return 0 if report.passed else 1


def _cmd_verify_all(args) -> int:
    spec = _spec_from(args)
    report = verify_all(spec, args.samples, args.seed, _tolerance(args))
    lines = [f"verify-all on {spec} (samples={args.samples}, seed={args.seed})"]
    for entry in report["suites"]:
        if "skipped" in entry:
            lines.append(f"  {entry['suite']:>14}: skipped ({entry['skipped']})")
        else:
            status = "pass" if entry["pass"] else "FAIL"
            residual = entry["max_residual"]   # null when non-finite
            lines.append(f"  {entry['suite']:>14}: {status}  max residual "
                         + ("non-finite" if residual is None else f"{residual:.3e}"))
    lines.append(f"overall: {'pass' if report['pass'] else 'FAIL'}")
    _emit(args, report, lines)
    return 0 if report["pass"] else 1


def _cmd_lyapunov(args) -> int:
    spec = _spec_from(args)
    t = _vector(args.t)
    table = exponent_table(spec)
    rep = splitting(spec, t)
    obj = {"exponents": table.to_json(), "splitting": rep.to_json()}
    lines = [f"{spec} at t={t}",
             f"  dim G = {table.total}",
             f"  stable {rep.stable_dim}, unstable {rep.unstable_dim}, neutral {rep.neutral_dim}"]
    _emit(args, obj, lines)
    return 0


def _cmd_stable_cycle(args) -> int:
    spec = _spec_from(args)
    labels = tuple(parse_root(s, spec) for s in args.roots.split(","))
    witness = stable_cycle_feasible(spec, CycleSpec(labels))
    if witness is None:
        obj = {"feasible": False}
        lines = ["infeasible: no Cartan element contracts every cycle root"]
    else:
        obj = {"feasible": True, "witness": [float(x) for x in witness]}
        lines = [f"feasible, witness t = {[round(float(x), 6) for x in witness]}"]
    _emit(args, obj, lines)
    return 0


def _cmd_genplane(args) -> int:
    spec = _spec_from(args)
    rep = is_generic_plane(spec, _vector(args.v1), _vector(args.v2))
    obj = rep.to_json()
    if rep.generic:
        lines = ["generic"]
    else:
        lines = ["not generic; witness: " + ", ".join(str(r) for r in rep.witness)]
    _emit(args, obj, lines)
    return 0


def _cmd_normalform(args) -> int:
    spec = GroupSpec(args.family, 3 + args.k, 3)
    B = load_matrix(args.matrix)
    stair = staircase_decompose(spec, B)
    obj = stair.to_json()
    lines = [f"staircase rows (descending lengths): {[len(r) for r in stair.rows]}"]
    _emit(args, obj, lines)
    return 0


def _cmd_reduce(args) -> int:
    spec = _spec_from(args)
    word = load_word(args.word, spec)
    reduced = free_reduce(spec, word)
    obj = word_to_json(reduced)
    _emit(args, obj, [f"reduced to {len(reduced)} letters"])
    return 0


def _cmd_trace_pairing(args) -> int:
    spec = GroupSpec("su", args.m, args.n)
    report = run_suite(spec, "trace-pairing", args.samples, args.seed, _tolerance(args))
    full = report.to_json()
    obj = {key: full[key] for key in ("spec", "samples", "seed", "pass", "max_residual",
                                      "failures")}
    _emit(args, obj, [f"trace pairing on {spec}: {'pass' if report.passed else 'FAIL'} "
                      f"(max residual {report.max_residual:.3e})"])
    return 0 if report.passed else 1


_COMMANDS = {
    "roots": _cmd_roots,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "lyapunov": _cmd_lyapunov,
    "stable-cycle": _cmd_stable_cycle,
    "genplane": _cmd_genplane,
    "normalform": _cmd_normalform,
    "reduce": _cmd_reduce,
    "trace-pairing": _cmd_trace_pairing,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (RigidkitError, ValueError, OSError) as exc:   # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
