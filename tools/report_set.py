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
cli("trace-pairing-su53", "trace-pairing", "--m", "5", "--n", "3", "--json")
for name, fam, m, n, roots in (("so43-readme", "so", "4", "3", "L1-L2,L2-L3,L1"),
                               ("so43-antipodal", "so", "4", "3", "L1-L2,L2-L1"),
                               ("su54-chain", "su", "5", "4", "L1-L2,L2-L3,L3-L4,-2L1")):
    cli(f"stable-cycle-{name}", "stable-cycle", "--family", fam, "--m", m, "--n", n,
        "--roots", roots, "--json")
