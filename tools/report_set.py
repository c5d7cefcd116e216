"""Write the report set that two checkouts must agree on into OUTDIR.

Usage: python3 tools/report_set.py OUTDIR.  Each ``python -m rigidkit.cli`` run
(against the ``src`` beside this script) leaves NAME.out, NAME.err and NAME.code
in OUTDIR, so ``diff -r`` of two checkouts' directories shows every changed byte.
"""
import json, math, os, subprocess, sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
OUT = os.path.abspath(sys.argv[1])


def cli(name, *argv):
    run = subprocess.run([sys.executable, "-m", "rigidkit.cli", *argv], cwd=OUT, env=ENV,
                         capture_output=True, text=True)
    for ext, text in (("out", run.stdout), ("err", run.stderr), ("code", f"{run.returncode}\n")):
        with open(os.path.join(OUT, f"{name}.{ext}"), "w") as fh:
            fh.write(text)


def block(family, k):  # a fixed SO(k) / SU(k) block: plane rotations at set angles
    M = [[complex(r == c) for c in range(k)] for r in range(k)]
    for i in [*range(k - 1), *range(k - 2, -1, -1)]:
        t, ph = 0.3 + 0.7 * i + 0.1 * k, (0.0 if family == "so" else 0.4 + 0.5 * i)
        a, b = math.cos(t) * complex(math.cos(ph), math.sin(ph)), math.sin(t)
        M = [[*row[:i], row[i] * a + row[i + 1] * b, -row[i] * b + row[i + 1] * a.conjugate(),
              *row[i + 2:]] for row in M]
    return {"size": k, "entries": [[z.real, z.imag] for row in M for z in row]}


os.makedirs(OUT, exist_ok=True)
suites = subprocess.check_output([sys.executable, "-c", "import rigidkit.relations as r; "
                                  "print(*r.SUITES)"], env=ENV, text=True).split()
for fam, specs in (("so", range(3, 7)), ("su", range(3, 6))):  # specs: the acceptance specs
    for m, suite in ((m, suite) for m in range(3, 8) for suite in suites):
        cli(f"verify-{suite}-{fam}{m}3", "verify", "--suite", suite, "--family", fam, "--m",
            str(m), "--n", "3", "--samples", "200", "--seed", "7", "--json")
    for m in specs:
        cli(f"verify-all-{fam}{m}3", "verify-all", "--family", fam, "--m", str(m), "--n", "3",
            "--samples", "20", "--seed", "42", "--json")
    for k in (2, 3, 4):
        with open(os.path.join(OUT, f"block-{fam}{k}.json"), "w") as fh:
            json.dump(block(fam, k), fh)
        cli(f"normalform-{fam}{k}", "normalform", "--family", fam, "--k", str(k), "--matrix",
            f"block-{fam}{k}.json", "--json")
    # a cyclic permutation: the Givens steps meet exact zero pairs
    with open(os.path.join(OUT, "block-perm3.json"), "w") as fh:
        json.dump({"size": 3, "entries": [[float(c == (r + 2) % 3), 0.0] for r in range(3)
                                          for c in range(3)]}, fh)
    cli(f"normalform-{fam}-perm3", "normalform", "--family", fam, "--k", "3", "--matrix",
        "block-perm3.json", "--json")
    for m, n in ((4, 3), (5, 3), (5, 4)):
        cli(f"roots-{fam}{m}{n}", "roots", "--family", fam, "--m", str(m), "--n", str(n), "--json")
        cli(f"lyapunov-{fam}{m}{n}", "lyapunov", "--family", fam, "--m", str(m), "--n", str(n),
            "--t", ",".join(str(n - i) for i in range(n)), "--json")
    for name, v1, v2 in (("axes", "1,0,0", "0,1,0"), ("generic", "1,2,6", "3,-1,2")):
        cli(f"genplane-{fam}-{name}", "genplane", "--family", fam, "--v1", v1, "--v2", v2, "--json")
for name, fam, m, root, param in (
        ("so43-pm", "so", 4, "L1-L2", '{"t": 1.5}'), ("so53-vec", "so", 5, "-L2", '{"a": [0.6, -0.8]}'),
        ("su43-pm", "su", 4, "L2+L3", '{"z": [0.3, -1.1]}'), ("su43-long", "su", 4, "2L1", '{"t": -0.7}'),
        ("su53-heis", "su", 5, "L1", '{"t": 0.4, "a": [[0.5, 0.1], [-0.2, 0.3]]}'),
        ("su53-heis-t0", "su", 5, "-L3", '{"t": 0.0, "a": [[0.5, 0.1], [-0.2, 0.3]]}')):
    cli(f"chain-{name}", "chain", "--family", fam, "--m", str(m), "--n", "3", f"--root={root}",
        "--param", param, "--json")
for fam, letters in (
        ("so", [("L1-L2", {"t": 0.5}, 1), ("L1-L2", {"t": 0.5}, -1), ("L1-L2", {"t": 1.0}, 1),
                ("L1-L2", {"t": 0.25}, 1), ("L3", {"a": [0.0]}, 1), ("L2+L3", {"t": 2.0}, -1)]),
        ("su", [("L1-L2", {"z": [0.5, 1.0]}, 1), ("L1-L2", {"z": [-0.5, 0.5]}, 1),
                ("L2", {"t": 0.5, "a": [[1.0, 0.0]]}, 1), ("L2", {"t": 0.5, "a": [[1.0, 0.0]]}, -1),
                ("2L3", {"t": 1.0}, 1), ("2L3", {"t": -1.0}, 1), ("-2L1", {"t": 3.0}, 1)])):
    with open(os.path.join(OUT, f"word-{fam}.json"), "w") as fh:
        json.dump([{"root": r, "param": p, "exp": e} for r, p, e in letters], fh)
    cli(f"reduce-{fam}", "reduce", "--family", fam, "--m", "4", "--n", "3", "--word",
        f"word-{fam}.json", "--json")
cli("trace-pairing-su53", "trace-pairing", "--m", "5", "--n", "3", "--json")
for name, fam, m, n, roots in (("so43-readme", "so", "4", "3", "L1-L2,L2-L3,L1"),
                               ("so43-antipodal", "so", "4", "3", "L1-L2,L2-L1"),
                               ("su54-chain", "su", "5", "4", "L1-L2,L2-L3,L3-L4,-2L1")):
    cli(f"stable-cycle-{name}", "stable-cycle", "--family", fam, "--m", m, "--n", n,
        "--roots", roots, "--json")
