"""Write the report set once per BLAS core and numpy SIMD level into OUTDIR.

Usage: python3 tools/kernel_matrix.py OUTDIR

The settings are OPENBLAS_CORETYPE in {SkylakeX, Haswell, Nehalem} (AVX-512,
AVX2, no AVX) crossed with NPY_DISABLE_CPU_FEATURES unset (numpy's best level on
the host) or set to "AVX512_SPR AVX512_ICL X86_V4" (X86_V3 on an AVX-512 host).  For each, the
report set of this checkout (tools/report_set.py beside this script) is
written into OUTDIR/<setting>/, and the machine facts of a child with the
same environment (tools/bench_pairs.py's probe: the OpenBLAS core and numpy's
SIMD extensions in force) into OUTDIR/<setting>.machine.json.  OpenBLAS falls
back to another core for a name it does not take (Prescott, Core2 and Penryn run
Katmai kernels), so a child that reports another core than its setting requests
stops the tool with a nonzero exit and a line naming the setting, before that
setting's report set is written.  Then the three golden tests
(``tests/test_relations.py -k golden``) run in a child with the setting's
environment, and each test's id and PASSED or FAILED, with no timings, go into
OUTDIR/<setting>.golden.txt.  A golden failure is recorded, not fatal (without
AVX-512 two goldens are known to fail); a pytest run that reports no golden
test stops the tool.  Only the children get the setting; this process's
environment is left as it is.
Two checkouts, run on one host, agree when ``diff -r`` of their OUTDIRs is
empty.
"""
import json, os, re, subprocess, sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)
from bench_pairs import MACHINE_PROBE  # noqa: E402

CORES = ("SkylakeX", "Haswell", "Nehalem")
# numpy's dispatch levels: unset, or with the AVX-512 groups disabled
SIMD = {"simd-default": None, "simd-noavx512": "AVX512_SPR AVX512_ICL X86_V4"}


def settings():
    """Every setting as (name, the environment entries it sets or removes)."""
    return [(f"{core}.{level}", {"OPENBLAS_CORETYPE": core, "NPY_DISABLE_CPU_FEATURES": off})
            for core in CORES for level, off in SIMD.items()]


def child_env(entries: dict) -> dict:
    env = dict(os.environ)
    for key, value in entries.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def core_mismatch(name: str, entries: dict, facts: dict):
    """The error line for a child whose OpenBLAS core is not the one its setting
    requests, else None."""
    want, got = entries["OPENBLAS_CORETYPE"], facts.get("openblas_core")
    if str(got).lower() != want.lower():
        return (f"kernel_matrix: setting {name} requests OPENBLAS_CORETYPE={want}, "
                f"the child runs {got}")
    return None


GOLDEN = ["-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "tests/test_relations.py",
          "-k", "golden"]
# a line of pytest's -rA short summary: the outcome, then the test id
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.M)


def golden_results(stdout: str) -> str:
    """Each test's id and outcome, one a line in id order, read off pytest's -rA
    short summary in ``stdout``."""
    summary = stdout.partition(" short test summary info ")[2]
    return "".join(sorted(f"{test} {outcome}\n" for outcome, test in _OUTCOME.findall(summary)))


def main(out):
    os.makedirs(out, exist_ok=True)
    for name, entries in settings():
        env = child_env(entries)
        facts = json.loads(subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=env,
                                          check=True, capture_output=True, text=True).stdout)
        with open(os.path.join(out, f"{name}.machine.json"), "w") as fh:
            json.dump(facts, fh, indent=1)
            fh.write("\n")
        error = core_mismatch(name, entries, facts)
        if error:
            sys.exit(error)
        subprocess.run([sys.executable, os.path.join(TOOLS, "report_set.py"),
                        os.path.join(out, name)], env=env, check=True)
        golden = subprocess.run([sys.executable, *GOLDEN], env=env, cwd=ROOT,
                                capture_output=True, text=True)
        results = golden_results(golden.stdout)
        if not results:
            sys.exit(f"kernel_matrix: setting {name} ran no golden test "
                     f"(pytest exit {golden.returncode})")
        with open(os.path.join(out, f"{name}.golden.txt"), "w") as fh:
            fh.write(results)
        print(f"kernel_matrix: {name} done", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    main(os.path.abspath(sys.argv[1]))
