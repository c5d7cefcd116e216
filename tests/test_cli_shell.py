"""The command line as a shell: the help text of every parser, and a stdout
that fails while ``main`` prints.

The options of each command are written out here, apart from ``cli.py``'s
command table, so that a parser that loses, gains or reorders an option fails.
"""

import re
import sys

import pytest

from rigidkit.cli import main

SPEC, RUN = ["--family", "--m", "--n"], ["--samples", "--seed", "--tol"]
# every command, in the order the top-level help lists them, with its options in order
OPTIONS = {
    "roots": [*SPEC, "--json"],
    "chain": [*SPEC, "--root", "--param", "--json"],
    "verify": [*SPEC, "--suite", *RUN, "--json", "--timings"],
    "verify-all": [*SPEC, *RUN, "--json", "--timings"],
    "lyapunov": [*SPEC, "--t", "--json"],
    "stable-cycle": [*SPEC, "--roots", "--json"],
    "genplane": [*SPEC, "--v1", "--v2", "--json"],
    "normalform": ["--family", "--k", "--matrix", "--json"],
    "reduce": [*SPEC, "--word", "--json"],
    "trace-pairing": ["--m", "--n", *RUN, "--json"],
}


@pytest.mark.parametrize("command", [None, *OPTIONS])
def test_help_names_each_option(capsys, command):
    assert main(["--help"] if command is None else [command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", out, re.MULTILINE)
    if command is None:
        assert listed == ["--help"]
        assert out.startswith("usage: rigidkit [-h]")
        commands = re.search(r"^  \{([a-z,-]+)\}$", out, re.MULTILINE).group(1)
        assert commands.split(",") == list(OPTIONS)
        assert all(re.search(rf"^    {name} +\S", out, re.MULTILINE) for name in OPTIONS)
    else:
        assert out.startswith(f"usage: rigidkit {command} [-h]")
        assert listed == ["--help", *OPTIONS[command]]
        assert set(re.findall(r"--[a-z0-9-]+", out)) == set(listed)


class _BrokenPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["roots"], ["roots", "--json"],
                                  ["verify-all", "--m", "3", "--samples", "2", "--json"]])
def test_stdout_write_error_exits_2_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 32] Broken pipe\n"
