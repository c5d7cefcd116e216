"""Batch command-line front end.

Subcommands: roots, chain, verify, verify-all, lyapunov, stable-cycle,
genplane, normalform, reduce, trace-pairing.  Exit codes: 0 on success or
pass, 1 on verification failure, 2 on usage or side-condition errors.
JSON output is the stable machine surface; text output is human-oriented.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .errors import ParseError, RigidkitError
from .matrixcore import DEFAULT_TOL, MAX_SIZE, GroupSpec, Tolerance, json_loads, load_matrix
from .rootsystem import is_generic_plane, parse_root, roots
from .generators import param_from_json, w_elem
from .relations import run_suite, suite_ids, verify_all
from .words import load_word, staircase_decompose, word_to_json, free_reduce
from .lyapunov import CycleSpec, exponent_table, splitting, stable_cycle_feasible

# normalform reads its k x k block as the compact tail of SO+(3+k, 3) / SU(3+k, 3)
_NORMALFORM_N = 3


class _Parser(argparse.ArgumentParser):
    """argparse, raising a usage error as ParseError (one ``error:`` line from
    ``main``) and reading a token that begins with a single '-' and is no option
    as the value of a one-value option before it (``--root -L2``): argparse itself
    reads only a plain negative number so, and half the root alphabet begins with '-'."""

    def error(self, message):
        raise ParseError(message)

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            action = self._option_string_actions.get(joined[-1]) if joined else None
            if (action is not None and action.nargs is None and arg[:1] == "-"
                    and arg[1:2] != "-" and arg not in self._option_string_actions):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


# ASCII decimal literals, the one numeric grammar of the command line: int() and
# float() alone also read digit-group underscores ("1_0"), non-ASCII digits and
# (float) inf and nan
_LITERAL = {int: re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII),
            float: re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*",
                              re.ASCII)}


def _number(kind):
    """An argparse type, and the reader of each vector entry: ``kind`` (int or
    float) of an ASCII decimal literal, with ASCII blanks around it; ValueError
    for anything else."""
    def parse(text: str):
        if not _LITERAL[kind].fullmatch(text):
            what = "an ASCII decimal integer" if kind is int else "a finite ASCII decimal number"
            raise ValueError(f"{text!r} is not {what}")
        return kind(text)
    parse.__name__ = kind.__name__
    return parse


def _int_at_least(low: int, at_most: int | None = None):
    """An argparse type: a decimal integer of at least ``low`` and, when given,
    at most ``at_most``."""
    def parse(text: str) -> int:
        try:
            value = _number(int)(text)
        except ValueError:
            value = None
        if value is None or value < low or at_most is not None and value > at_most:
            bounds = f"at least {low}" + ("" if at_most is None else f" and at most {at_most}")
            raise argparse.ArgumentTypeError(f"must be an integer of {bounds}, got {text!r}")
        return value
    return parse


def _tolerance(text: str) -> Tolerance:
    """An argparse type: the verdict tolerance, an ASCII decimal strictly in (0, 1)."""
    try:
        return Tolerance(_number(float)(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance must be an ASCII decimal number above 0 and below 1, got {text!r}")


def _add_spec_args(p):
    p.add_argument("--family", choices=("so", "su"), default="so")
    p.add_argument("--m", type=_number(int), default=4)
    p.add_argument("--n", type=_number(int), default=3)


def _add_run_args(p):
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")


def _add_timings_arg(p):
    p.add_argument("--timings", action="store_true",
                   help="print each suite's wall time on stderr; stdout is unchanged")


def _spec_from(args) -> GroupSpec:
    return GroupSpec(args.family, args.m, args.n)


def _emit(args, obj, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rigidkit",
                 description="Matrix constructions and relation checks for SO+(m,n) and "
                             "SU(m,n); an option value may begin with '-' (--root -L2)")
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
    _add_timings_arg(p)

    p = sub.add_parser("verify-all", help="run every applicable suite")
    _add_spec_args(p)
    _add_run_args(p)
    _add_timings_arg(p)

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
    p.add_argument("--k", type=_int_at_least(2, MAX_SIZE - 2 * _NORMALFORM_N), required=True,
                   help="tail size m-n")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="freely reduce a word")
    _add_spec_args(p)
    p.add_argument("--word", required=True, help="word JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("trace-pairing", help="trace pairing identity on random sphere pairs")
    p.add_argument("--m", type=_number(int), default=4)
    p.add_argument("--n", type=_number(int), default=3)
    _add_run_args(p)
    return ap


def _vector(text: str) -> list:
    entries = text.split(",")
    if not all(x.strip() for x in entries):
        raise ParseError(f"vector {text!r} has an empty entry")
    return [_number(float)(x) for x in entries]


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
    param = param_from_json(json_loads(args.param))
    cert = w_elem(spec, root, param)
    obj = cert.to_json()
    lines = [f"chain element for {root} of {spec}",
             f"  reflection check: {'pass' if cert.reflection_checked else 'FAIL'}"]
    _emit(args, obj, lines)
    return 0 if cert.reflection_checked else 1


def _cmd_verify(args) -> int:
    spec = _spec_from(args)
    start = time.perf_counter()
    report = run_suite(spec, args.suite, args.samples, args.seed, args.tol)
    if args.timings:   # on stderr, so that stdout and --json stay as they are
        print(f"time {args.suite}: {time.perf_counter() - start:.4f} s", file=sys.stderr)
    obj = report.to_json()
    lines = [f"suite {args.suite} on {spec}: {'pass' if report.passed else 'FAIL'} "
             f"(max residual {report.max_residual:.3e}, {report.samples} samples)"]
    _emit(args, obj, lines)
    return 0 if report.passed else 1


def _cmd_verify_all(args) -> int:
    spec = _spec_from(args)
    timings = {}
    report = verify_all(spec, args.samples, args.seed, args.tol, timings)
    for suite_id, seconds in timings.items() if args.timings else ():
        print(f"time {suite_id}: {seconds:.4f} s", file=sys.stderr)
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
    spec = GroupSpec(args.family, _NORMALFORM_N + args.k, _NORMALFORM_N)
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
    report = run_suite(spec, "trace-pairing", args.samples, args.seed, args.tol)
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
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:   # --help
        return 0
    except (RigidkitError, ValueError, OSError) as exc:   # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
