"""A derandomized fuzz test of the command line.

Each example builds the argv of one command from the README's command grammar
(sizes small enough to run at once) and applies one mutation to one of its
values: an empty vector entry, a non-ASCII digit or blank, a digit-group
underscore, a word that is no decimal literal, a duplicate JSON key, a huge or
tiny exponent, or an out-of-range size.  Each mutation kind, and no mutation,
is one parametrized case with its own derandomized run, so that every kind is
drawn as often.  ``cli.main`` runs in-process.  The contract: exit 0 or 1 with output on
stdout and nothing on stderr (but the ``--timings`` lines), or exit 2 with
nothing on stdout and exactly one ``error:`` line on stderr; never an
exception out of ``main``.  Each mutation the input grammar forbids must exit
2, an unmutated command must not, and an accepted Cartan vector must be the
vector typed.
"""

import contextlib
import io
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rigidkit.cli import main
from rigidkit.matrixcore import mat_to_json
from rigidkit.relations import SUITES

OK, REFUSED, ANY = "ok", "refused", "any"
EXAMPLES = 40        # per mutation, twice that unmutated
# the digit zero of four non-ASCII digit blocks, and two non-ASCII blanks: int() and
# float() read them all
ZEROS = "\u0660\u06f0\u0966\uff10"
BLANKS = "\u00a0\u2003"


class Case:
    """One command: ``slots`` are its option values, each a (kind, value) pair that
    ``render`` turns into argv text; ``files`` are the JSON files it reads."""

    def __init__(self, command):
        self.command, self.slots, self.files, self.expect = command, {}, {}, OK
        self.mutation = None

    def render(self, directory) -> list:
        argv = [self.command]
        for option, (kind, value) in self.slots.items():
            if kind == "flag":
                argv.append(option)
                continue
            text = (",".join(value) if kind in ("vec", "list") else _json(value)
                    if kind == "json" else str(directory / value) if kind == "file" else value)
            argv += [option, text]
        return argv

    def __repr__(self):
        return f"Case({self.command!r}, {self.mutation!r}, {self.slots!r}, {self.files!r})"


def _json(value) -> str:
    """JSON text of nested ("obj", [(key, value), ...]) pairs, lists and number
    literals (str), written as given: a repeated key is written twice."""
    if isinstance(value, tuple) and value[0] == "obj":
        return "{" + ", ".join(f'"{k}": {_json(v)}' for k, v in value[1]) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    return value


@st.composite
def _decimal(draw):
    """An ASCII decimal literal of the README grammar, with ASCII blanks around it."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = draw(st.sampled_from(["", "0", "1", "3", "17", "250"]))
    frac = draw(st.sampled_from([".5", ".75", ".0625"] + (["", ".", ".25"] if whole else [])))
    exponent = draw(st.sampled_from(["", "", "e0", "E1", "e-2", "e+1"]))
    pad = draw(st.sampled_from(["", "", " ", "\t"]))
    return pad + sign + whole + frac + exponent + pad


def _integer(draw, value):
    """The integer ``value`` as an ASCII literal, maybe with a sign, zeros or blanks."""
    text = draw(st.sampled_from(["", "0", "00"])) + str(value)
    if value >= 0:
        text = draw(st.sampled_from(["", "+"])) + text
    return draw(st.sampled_from(["", " "])) + text


def _number(draw, low=0.25, high=4.0):
    """A JSON number of modulus in [low, high] with a random sign."""
    x = draw(st.floats(low, high, allow_nan=False))
    return repr(draw(st.sampled_from([1.0, -1.0])) * x)


def _param(draw, family, kind, tail):
    """A parameter object for a root of ``kind`` ("scalar", "long" or "vec")."""
    if kind == "vec" and family == "so":
        return ("obj", [("a", [_number(draw) for _ in range(tail)])])
    if kind == "vec":
        return ("obj", [("t", _number(draw)),
                        ("a", [[_number(draw), _number(draw)] for _ in range(tail)])])
    if kind == "scalar" and family == "su":
        return ("obj", [("z", [_number(draw), _number(draw)])])
    return ("obj", [("t", _number(draw))])


def _roots(family, tail):
    """(root, kind) pairs valid on every spec of the family with this tail."""
    out = [("L1-L2", "scalar"), ("-L1-L2", "scalar"), ("L2+L3", "scalar"), ("L3-L1", "scalar")]
    if family == "su":
        out += [("2L1", "long"), ("-2L3", "long")]
    if tail:
        out += [("L1", "vec"), ("-L2", "vec")]
    return out


def _spec(draw, case, m_max=6):
    family = draw(st.sampled_from(["so", "su"]))
    n = draw(st.sampled_from([3, 3, 4]))
    m = draw(st.integers(n, m_max))
    case.slots["--family"] = ("str", family)
    case.slots["--m"] = ("int", _integer(draw, m))
    case.slots["--n"] = ("int", _integer(draw, n))
    return family, m, n


def _run_options(draw, case, samples_max):
    case.slots["--samples"] = ("int", _integer(draw, draw(st.integers(1, samples_max))))
    if draw(st.booleans()):
        case.slots["--seed"] = ("int", _integer(draw, draw(st.integers(0, 10 ** 6))))
    if draw(st.booleans()):
        case.slots["--tol"] = ("tol", draw(st.sampled_from(["1e-9", "1e-6", " 2.5e-8", ".001"])))
    if draw(st.booleans()):
        case.slots["--json"] = ("flag", None)


def _block(draw, family, k):
    """A random SO(k) or SU(k) block as matrix JSON pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "so":
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        Q[:, 0] *= np.sign(np.linalg.det(Q))
    else:
        Q, R = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        Q = Q * (np.diag(R) / abs(np.diag(R)))
        Q = Q / np.linalg.det(Q) ** (1.0 / k)
    doc = mat_to_json(Q)
    return ("obj", [("size", str(doc["size"])),
                    ("entries", [[repr(float(x)) for x in e] for e in doc["entries"]])])


COMMANDS = ("roots", "chain", "verify", "verify-all", "lyapunov", "stable-cycle", "genplane",
            "normalform", "reduce", "trace-pairing")
NUMERIC = ("non-ascii-digit", "non-ascii-blank", "underscore", "word", "huge-exponent",
           "tiny-exponent")
RUNS = ("verify", "verify-all", "trace-pairing")
# each mutation and the commands that have a value it applies to; an out-of-range
# mutation names its option
MUTATIONS = {**dict.fromkeys(("none",) + NUMERIC, COMMANDS),
             "empty-entry": ("lyapunov", "genplane", "stable-cycle"),
             "duplicate-key": ("chain", "normalform", "reduce"),
             "json-exponent": ("chain", "normalform", "reduce"),
             **dict.fromkeys(("out-of-range--m", "out-of-range--n"),
                             tuple(c for c in COMMANDS if c != "normalform")),
             **dict.fromkeys(("out-of-range--samples", "out-of-range--seed"), RUNS),
             "out-of-range--k": ("normalform",)}


@st.composite
def commands(draw, names=COMMANDS):
    """An unmutated command of the README grammar, one of ``names``."""
    command = draw(st.sampled_from(names))
    case = Case(command)
    if command == "normalform":
        family, k = draw(st.sampled_from(["so", "su"])), draw(st.integers(2, 4))
        case.slots["--family"] = ("str", family)
        case.slots["--k"] = ("int", _integer(draw, k))
        case.slots["--matrix"] = ("file", "block.json")
        case.files["block.json"] = _block(draw, family, k)
    elif command == "trace-pairing":
        case.slots["--m"] = ("int", _integer(draw, draw(st.integers(4, 6))))
        case.slots["--n"] = ("int", _integer(draw, 3))
        _run_options(draw, case, 3)
    else:
        family, m, n = _spec(draw, case)
        tail = m - n
        if command == "chain":
            root, kind = draw(st.sampled_from(_roots(family, tail)))
            case.slots["--root"] = ("str", root)
            case.slots["--param"] = ("json", _param(draw, family, kind, tail))
        elif command == "verify":
            suites = [s for s, e in SUITES.items()
                      if family in e["families"] and tail >= e["min_tail"]]
            case.slots["--suite"] = ("str", draw(st.sampled_from(suites)))
            _run_options(draw, case, 3)
        elif command == "verify-all":
            _run_options(draw, case, 2)
        elif command == "lyapunov":
            case.slots["--t"] = ("vec", [draw(_decimal()) for _ in range(n)])
        elif command == "genplane":
            for option in ("--v1", "--v2"):
                case.slots[option] = ("vec", [draw(_decimal()) for _ in range(n)])
            if _dependent(case.slots["--v1"][1], case.slots["--v2"][1]):
                case.expect = REFUSED
        elif command == "stable-cycle":
            names = [r for r, _ in _roots(family, tail)]
            case.slots["--roots"] = ("list", draw(st.lists(st.sampled_from(names), min_size=1,
                                                            max_size=4)))
        elif command == "reduce":
            letters = []
            for _ in range(draw(st.integers(1, 4))):
                root, kind = draw(st.sampled_from(_roots(family, tail)))
                letters.append(("obj", [("root", f'"{root}"'),
                                        ("param", _param(draw, family, kind, tail)),
                                        ("exp", draw(st.sampled_from(["1", "-1"])))]))
            case.slots["--word"] = ("file", "word.json")
            case.files["word.json"] = letters
    if command in ("verify", "verify-all") and draw(st.booleans()):
        case.slots["--timings"] = ("flag", None)
    if command not in ("verify", "verify-all", "trace-pairing") and draw(st.booleans()):
        case.slots["--json"] = ("flag", None)
    return case


def _dependent(v1, v2) -> bool:
    """Whether the typed plane vectors, read as the floats they denote, are
    linearly dependent: every 2x2 minor zero, in exact arithmetic."""
    a, b = ([Fraction(float(x)) for x in v] for v in (v1, v2))
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i))


# out-of-range values of each integer option (with --n 3 or 4 and --m 3..6 beside them)
OUT_OF_RANGE = {"--m": ["0", "2", "-1", "62", "100", "10" * 20], "--n": ["0", "2", "7", "61"],
                "--samples": ["0", "-1", "-" + "9" * 20], "--seed": ["-1", "-42"],
                "--k": ["0", "1", "59", "60", "9" * 12]}


def _numeric_slots(case):
    """(option, entry index or None) of every value read by the numeric grammar."""
    out = []
    for option, (kind, value) in case.slots.items():
        if kind in ("int", "tol"):
            out.append((option, None))
        elif kind == "vec":
            out += [(option, i) for i in range(len(value))]
    return out


def _replace(case, option, index, text):
    kind, value = case.slots[option]
    if index is None:
        case.slots[option] = (kind, text)
    else:
        case.slots[option] = (kind, value[:index] + [text] + value[index + 1:])


def _text(case, option, index):
    value = case.slots[option][1]
    return value if index is None else value[index]


def _json_numbers(value, path=()):
    """Paths to the number literals of a JSON value."""
    if isinstance(value, tuple):
        for i, (key, v) in enumerate(value[1]):
            if not (isinstance(v, str) and v.startswith('"')):
                yield from _json_numbers(v, path + (i,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _json_numbers(v, path + (i,))
    else:
        yield path


def _set_json(value, path, text):
    if not path:
        return text
    if isinstance(value, tuple):
        pairs = list(value[1])
        key, v = pairs[path[0]]
        pairs[path[0]] = (key, _set_json(v, path[1:], text))
        return ("obj", pairs)
    return value[:path[0]] + [_set_json(value[path[0]], path[1:], text)] + value[path[0] + 1:]


def _json_sources(case):
    """(slot or file name, its JSON value) of every JSON input of the case."""
    return ([(option, value) for option, (kind, value) in case.slots.items() if kind == "json"]
            + list(case.files.items()))


def _store_json(case, where, value):
    if where in case.files:
        case.files[where] = value
    else:
        case.slots[where] = ("json", value)


@st.composite
def cases(draw, mutation):
    """A command that ``mutation`` applies to, with it applied."""
    case = draw(commands(MUTATIONS[mutation]))
    numeric, sources = _numeric_slots(case), _json_sources(case)
    if mutation == "none":
        return case
    case.expect, case.mutation = REFUSED, mutation
    if mutation in NUMERIC:
        # a size, or a vector entry or tolerance, then one of them
        values = [slot for slot in numeric if slot[1] is not None or slot[0] == "--tol"]
        pool = draw(st.sampled_from([p for p in ([s for s in numeric if s not in values], values)
                                     if p]))
        option, index = draw(st.sampled_from(pool))
        text = _text(case, option, index)
        digits = [i for i, c in enumerate(text) if c.isascii() and c.isdigit()]
        if mutation == "non-ascii-digit":
            i = draw(st.sampled_from(digits))
            text = text[:i] + chr(ord(draw(st.sampled_from(ZEROS))) + int(text[i])) + text[i + 1:]
        elif mutation == "non-ascii-blank":
            text = draw(st.sampled_from(BLANKS)) + text.strip()
        elif mutation == "underscore":
            i = draw(st.sampled_from(digits)) + 1
            text = text[:i] + "_" + (text[i:] if text[i:i + 1].isdigit() else "0" + text[i:])
        elif mutation == "word":
            text = draw(st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "0x1f", "1e",
                                         "1.2.3", "--", "3 3", "1/2"]))
        elif mutation == "huge-exponent":      # infinite, or no integer literal
            text = draw(st.sampled_from(["1e309", "-2.5E400", "1e+9999", ".1e1000000"]))
        else:
            text = draw(st.sampled_from(["1e-400", "-2.5E-9999", ".1e-1000000"]))
            if index is not None:      # zero: a tolerance or size refuses it, a vector may not
                case.expect = ANY
        _replace(case, option, index, text)
    elif mutation == "empty-entry":
        option = draw(st.sampled_from([o for o, (kind, _) in case.slots.items()
                                       if kind in ("vec", "list")]))
        kind, value = case.slots[option]
        i = draw(st.integers(0, len(value)))
        case.slots[option] = (kind, value[:i] + [""] + value[i:])
    elif mutation == "duplicate-key":
        where, value = draw(st.sampled_from(sources))
        if isinstance(value, list):          # a word: one of its letters
            i = draw(st.integers(0, len(value) - 1))
            value = value[:i] + [("obj", value[i][1] + [value[i][1][0]])] + value[i + 1:]
        else:
            pair = draw(st.sampled_from(value[1]))
            value = ("obj", value[1] + [pair])
        _store_json(case, where, value)
    elif mutation == "json-exponent":
        where, value = draw(st.sampled_from(sources))
        path = draw(st.sampled_from(list(_json_numbers(value))))
        text = draw(st.sampled_from(["1e309", "-2.5E400", "1e1000000"]))
        _store_json(case, where, _set_json(value, path, text))
    else:
        option = mutation[len("out-of-range"):]
        case.slots.setdefault(option, ("int", "0"))     # --seed is optional
        _replace(case, option, None, draw(st.sampled_from(OUT_OF_RANGE[option])))
    return case


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


TIMING = re.compile(r"time [a-zA-Z0-9-]+: [0-9]+\.[0-9]{4} s")


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_cli_holds_its_contract_on_fuzzed_argv(tmp_path, mutation):
    settings(max_examples=EXAMPLES * (2 if mutation == "none" else 1), derandomize=True, deadline=None, database=None,
             suppress_health_check=[HealthCheck.too_slow])(given(case=cases(mutation))(_check))(
        tmp_path)


def _check(tmp_path, case):
    for name, value in case.files.items():
        (tmp_path / name).write_text(_json(value))
    argv = case.render(tmp_path)
    code, out, err = _run(argv)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert case.expect != OK, (argv, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n"), (argv, err)
        return
    assert code in (0, 1) and case.expect != REFUSED, (argv, code, out, err)
    assert out, argv
    timings = "--timings" in case.slots
    assert all(timings and TIMING.fullmatch(line) for line in err.splitlines()), (argv, err)
    if case.command == "lyapunov" and "--json" not in case.slots and case.expect == OK:
        typed = [float(x) for x in case.slots["--t"][1]]
        assert out.splitlines()[0].endswith(f" at t={typed}"), (argv, out)
