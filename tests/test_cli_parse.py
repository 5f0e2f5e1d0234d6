"""The command table reads argv as argparse does, and a command loads only what it uses.

The CLI reads plain argv off its command table and hands any other argv
to argparse, built from the same table. Each argv of the corpus goes
through the CLI's parser and through the argparse front end it once had
(argparse_oracle): both must give the same run function and arguments,
or the same exit code after help or a usage error, and print the same
lines. The corpus holds every invocation the benchmark and the tests
make, the usage errors the tests pin, and the corners of argparse's
grammar; a hypothesis test draws more argv from the table's words and
argparse's own. Two tests read the README: each of its command lines
is plain argv read off the table, and each option it spells is one of
the table's. A last set of tests starts fresh interpreters without
site and reads sys.modules: the CLI module loads neither argparse nor its
translation machinery, plain argv loads no argparse, and json is loaded
only where a command reads or writes JSON.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import argparse_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves import cli

_ELLIPTIC = ("A", "M", "K", "A_RH", "A_HH", "M_H", "D_2222")
_CLASSES = ("inner", "real_boundary", "quaternion_boundary", "segmentation")
_ZOO = ("elliptic", "tubular", "domestic", "all")

# the benchmark's invocations
BENCHMARK = [
    *(["invariants" if k else "classify", "curve.json"] for k in (0, 1)),
    ["ghost", "ghost0.json"],
    *(["zoo", "--class", which, "--format", fmt] for which in _ZOO for fmt in ("table", "json")),
    *(["slopes", name] for name in _ELLIPTIC),
    *(["skew-centre", "--algebra", a, "--twist", t] for a, t in (("R", "id"), ("C", "id"), ("C", "conj"), ("H", "id"))),
    *(["local", c] for c in _CLASSES),
]

CORPUS = [
    *BENCHMARK,
    # the tests' invocations
    *(["zoo", "--class", which] for which in _ZOO),
    *(["slopes", name, "--bound", str(bound)] for name in ("A", "K", "D_2222") for bound in (30, 50, 600, 10000)),
    ["slopes", "X"],
    ["skew-centre", "--algebra", "H", "--twist", "conj"],
    ["skew-centre", "--algebra", "H", "--twist", "id", "--order", "100000"],
    ["skew-centre", "--algebra", "R", "--twist", "id", "--order", "0"],
    ["skew-centre", "--algebra", "C", "--twist", "conj", "--order", "3"],
    # the usage errors and help the tests pin
    [], ["bogus"], ["zoo", "--class", "wild"], ["slopes", "K", "--bound", "many"], ["skew-centre", "--twist", "id"],
    ["--help"], ["slopes", "--help"],
    # a value after "=", the last of a repeated option, a negative value
    ["slopes", "K", "--bound=300"], ["zoo", "--format=json"], ["slopes", "--bound=", "K"], ["zoo", "--class="],
    ["zoo", "--class=tubular", "--class", "all"], ["slopes", "K", "--bound", "60", "--bound", "70"],
    ["skew-centre", "--order", "-5", "--algebra", "H", "--twist", "id"],
    ["slopes", "K", "--bound", "-.5"], ["slopes", "K", "--bound", " 5 "], ["slopes", "K", "--bound", "1_0"],
    # options before and after the positionals, and "--"
    ["slopes", "--bound", "60", "K"], ["slopes", "K", "--bound", "60"],
    ["skew-centre", "--twist", "conj", "--order", "9", "--algebra", "C"],
    ["slopes", "--", "K"], ["slopes", "K", "--"], ["slopes", "--", "--"], ["slopes", "--", "-h"],
    ["slopes", "--bound", "60", "--", "K"], ["slopes", "K", "--bound", "60", "--"], ["invariants", "a", "--", "b"],
    ["slopes", "K", "--", "--bound", "5"], ["slopes", "--bound", "--", "5", "K"], ["--", "slopes", "K"], ["--"],
    ["zoo", "--"], ["zoo", "--class", "all", "--", "-h"], ["invariants", "--"],
    # extra values, missing option values, unknown options, "-" and other values that start with "-"
    ["slopes", "K", "L"], ["zoo", "extra"], ["slopes", "--bound", "5", "6", "K"], ["invariants"],
    ["slopes", "K", "--bound"], ["zoo", "--format", "--class"], ["slopes", "--bound", "-x", "K"],
    ["slopes", "K", "--foo"], ["slopes", "--bo", "5", "K"], ["--foo", "slopes", "K"], ["--foo"],
    ["invariants", "-"], ["ghost", "-"], ["slopes", "K", "-"], ["-", "slopes"],
    ["slopes", "-5"], ["slopes", "-1.5"], ["slopes", "-1e5"], ["slopes", "-x y"], ["slopes", ""],
    ["slopes", "K", "--bound", "-x y"], ["slopes", "K", "--bound", "-1_0"], ["-5"], ["-x y"],
    # help wherever it stands, and the errors before it
    ["-h"], ["--he"], ["--h"], ["-h", "bogus"], ["bogus", "-h"], ["--help", "--bogus"], ["-h", "-h"],
    ["-hx"], ["--help=x"], ["--he=x"], ["--foo", "slopes", "--help"],
    ["slopes", "--he"], ["slopes", "-hx"], ["slopes", "-h x"], ["slopes", "-h=3"], ["slopes", "K", "L", "-h"],
    ["local", "bogus", "-h"], ["local", "-h", "bogus"], ["local", "bogus"],
    ["zoo", "--class", "wild", "-h"], ["zoo", "-h", "--class", "wild"], ["zoo", "--foo", "-h"],
    *([command, "-h"] for command in ("invariants", "classify", "zoo", "local", "skew-centre", "ghost")),
]


def _table(argv):
    """(run, kwargs) or the exit code from the CLI's parser, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        parsed = cli._parse(argv)
    return parsed, out.getvalue(), err.getvalue()


def _same_as_argparse(argv):
    """The CLI parser's (run, kwargs) or exit code, once it has printed what
    the oracle prints, with COLUMNS set wide so that the oracle wraps no line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "10000")
        table = _table(argv)
        assert table == argparse_oracle.parse(argv)
    return table


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_the_table_reads_argv_as_argparse_does(argv):
    parsed, out, err = _same_as_argparse(argv)
    if parsed == 0:
        assert out.startswith("usage: wittcurves") and not err
    elif parsed == 2:
        usage, error = err.splitlines()
        assert usage.startswith("usage: wittcurves") and ": error: " in error and not out
    else:
        assert not out and not err


_OPTIONS = [option for _, _, options in cli._COMMANDS.values() for option in options]
_FLAGS = [flag for flag, *_ in _OPTIONS]
_VALUES = [
    *(value for _, positionals, _ in cli._COMMANDS.values() for _, choices in positionals for value in choices or ()),
    *(value for _, _, choices, *_ in _OPTIONS for value in choices or ()),
    "K", "curve.json", "60", "0", " 5 ",
]
# the table's words, argparse's own and junk
_WORD = st.one_of(
    st.sampled_from([*cli._COMMANDS, *_FLAGS, *_VALUES, "-h", "--help", "--", "-", "=", "-5", "--he", "--cl"]),
    st.builds("{}={}".format, st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
    st.text(max_size=4),
)


def _slots(name):
    """name, then a value for each of its positionals and options, the
    options in any order among them, and some missing, junk or "-5"; many of
    these argv are plain."""
    _, positionals, options = cli._COMMANDS[name]

    def value(choices):
        return st.sampled_from([*(choices or ("K", "60", "0", " 5 ")), "", "-5", "x"])

    slots = [st.tuples(value(choices)) for _, choices in positionals]
    slots += [st.tuples(st.just(flag), value(choices)) | st.just(()) for flag, _, choices, *_ in options]
    chunks = st.tuples(*slots).flatmap(lambda drawn: st.permutations(drawn))
    return chunks.map(lambda drawn: [name, *(word for chunk in drawn for word in chunk)])


_ARGV = st.sampled_from(list(cli._COMMANDS)).flatmap(_slots) | st.lists(_WORD, max_size=6)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argv=_ARGV)
def test_drawn_argv_are_read_and_printed_as_argparse_does(argv):
    _same_as_argparse(argv)


def test_the_help_is_read_off_the_table():
    _, top, _ = _table(["--help"])
    for name, (run, _, _) in cli._COMMANDS.items():
        assert f"  {name}" in top and run.__doc__ in top
    _, slopes, _ = _table(["slopes", "-h"])
    assert slopes.startswith("usage: wittcurves slopes [-h] name\n") and "--bound" not in slopes
    _, zoo, _ = _table(["zoo", "-h"])
    assert "[--class {elliptic,tubular,domestic,all}]" in zoo and "(default: table)" in zoo
    _, skew, _ = _table(["skew-centre", "-h"])
    assert "usage: wittcurves skew-centre [-h] --algebra {R,C,H} --twist {id,conj}\n" in skew and "--order" not in skew


_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_command_line_of_the_readme_is_read_off_the_table():
    argvs = []
    inside = False
    for line in _README.splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside and line.startswith("wittcurves "):
            argvs.append(line.split()[1:])
    # one line for each command, and each one plain argv that runs it
    assert sorted(argv[0] for argv in argvs) == sorted(cli._COMMANDS)
    for argv in argvs:
        parsed = cli._parse(argv)
        assert isinstance(parsed, tuple) and parsed[0] is cli._COMMANDS[argv[0]][0], argv


def test_every_option_the_readme_spells_exists():
    # --opt is the placeholder of the grammar, and --no-build-isolation pip's
    known = {*_FLAGS, "--help", "--opt", "--no-build-isolation"}
    spelt = set(re.findall(r"--[a-z][a-z-]*", _README))
    assert spelt - known == set()


_SRC = str(Path(__file__).resolve().parent.parent / "src")
_WATCHED = ("argparse", "gettext", "locale", "json")


def _loaded(code: str, *args: str) -> set[str]:
    """Which of the watched modules a fresh interpreter without site has
    loaded once it has run code with args as sys.argv[1:]."""
    report = f"; sys.stderr.write('\\nloaded: ' + ' '.join(m for m in {_WATCHED!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; " + code + report, *args],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(proc.stderr.rpartition("loaded: ")[2].split())


def test_importing_the_command_line_loads_no_argparse_gettext_locale_or_json():
    assert _loaded("import wittcurves.cli") == set()


@pytest.mark.parametrize("argv", [
    ["slopes", "K"], ["local", "inner"], ["skew-centre", "--algebra", "H", "--twist", "id"], ["zoo", "--format", "table"],
], ids=" ".join)
def test_a_command_without_json_does_not_load_it(argv):
    assert "json" not in _loaded("from wittcurves.cli import main; main(sys.argv[1:])", *argv)


def test_a_command_that_reads_json_loads_it(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"base": "D_22"}))
    assert _loaded("from wittcurves.cli import main; main(sys.argv[1:])", "invariants", str(path)) == {"json"}


def test_plain_argv_loads_no_argparse():
    assert _loaded(f"from wittcurves.cli import _parse; [_parse(argv) for argv in {BENCHMARK!r}]") == set()


@pytest.mark.parametrize("argv", [["--help"], ["zoo", "--class", "wild"]], ids=" ".join)
def test_help_and_usage_errors_load_argparse(argv):
    assert "argparse" in _loaded("from wittcurves.cli import _parse; _parse(sys.argv[1:])", *argv)
