"""Each subcommand in a new interpreter: it exits as in process, prints the
same, and loads only the modules it runs: its own handler module in
`commands`, and no other.  `python -m ringoids.cli` exits and prints as
`cli.run` does in process, with its heap frozen at exit; `cli.run` leaves
the collector as it was.

In process every module is loaded by earlier tests, so a module that a
subcommand imports on first use but fails to import would go unseen there.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from ringoids.cli import _COMMANDS, run
from test_cli import (C2_ASSEMBLY_DOC, F2_DOC, PAIR_DOC, TWO_RINGS_DOC,
                      Z4_WITH_IDEAL)

# every subcommand loads these, and its own module of `commands`
VALIDATE = {"cli", "commands", "rgd", "ringoid", "abgroup"}
# the K0 relations of these inputs all eliminate, so no K0 subcommand
# compiles the K1 line or the dense lattice code; the K0 line reads the
# Krull-Schmidt decomposition, and no matrix of the completion
K0 = VALIDATE | {"krullschmidt", "ktheory", "intlinalg"}
# k1 compiles no K0 code; the Schreier relators of GL2(F2) leave a
# residue (GL2^ab = Z/2), whose Smith normal form loads lattice
K1 = VALIDATE | {"additive", "krullschmidt", "k1", "intlinalg", "groups",
                 "lattice"}
# a groupoid or gset section loads the section parsers and groupoids,
# which tabulates only to build a group ringoid
GROUPOIDS = {"rgdsections", "groupoids", "groups"}
# moduloids solves in the relation lattice; an ideal section loads the
# section parsers and moduloids
MODULOIDS = {"moduloids", "constructions", "intlinalg", "lattice"}
IDEALS = {"rgdsections"} | MODULOIDS
# the subcommands that print a constructed ringoid as RGD
PRINTS = VALIDATE | {"constructions", "rgdprint"}

# subcommand -> (input document, extra flags, loaded ringoids.* modules)
CASES = {
    "validate": (F2_DOC, [], VALIDATE),
    "complete": (F2_DOC, [], VALIDATE | {"additive"}),
    "k0": (F2_DOC, ["--bound", "3"], K0),
    "k1": (F2_DOC, ["--gl-max", "2"], K1),
    "unitize": (F2_DOC, [], PRINTS | MODULOIDS),
    "quotient": (Z4_WITH_IDEAL, [], PRINTS | IDEALS),
    "tensor": (TWO_RINGS_DOC, [], PRINTS | MODULOIDS),
    "groupring": (C2_ASSEMBLY_DOC, [], PRINTS | GROUPOIDS),
    "transport": (C2_ASSEMBLY_DOC, [], VALIDATE | GROUPOIDS),
    "assembly": (C2_ASSEMBLY_DOC, ["--bound", "3"],
                 K0 | {"assembly", "constructions"} | GROUPOIDS),
    "nerve-check": (F2_DOC, ["--bound", "3"], K0 | {"nerve"}),
    "oracle-compare": (F2_DOC, ["--bound", "3"], K0 | {"nerve"}),
}

# Runs cli.run on argv in this interpreter and prints its exit code,
# stdout and the ringoids.* modules it loaded as one JSON line.
_SCRIPT = """\
import contextlib, io, json, sys
from ringoids import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, out.getvalue(),
                  sorted(m[len("ringoids."):] for m in sys.modules
                         if m.startswith("ringoids."))]))
"""


def _has_section_beyond_ringoids(doc):
    return any(line.split()[:1] in (["groupoid"], ["gset"], ["ideal"])
               for line in doc.splitlines())


def _handler(command):
    return "commands." + command.replace("-", "_")


def _fresh_run(argv):
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, *argv],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_every_subcommand_has_a_case():
    assert sorted(CASES) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", sorted(CASES))
def test_subcommand_in_a_new_interpreter(tmp_path, command):
    doc, flags, modules = CASES[command]
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    argv = [command, "--input", str(path), *flags]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code == 0
    fresh_code, fresh_out, loaded = _fresh_run(argv)
    assert (fresh_code, fresh_out) == (code, out.getvalue())
    # no subcommand compiles the section parsers for a ringoid-only input
    assert ("rgdsections" in loaded) == _has_section_beyond_ringoids(doc)
    assert set(loaded) == modules | {_handler(command)}


def test_validate_loads_groupoids_only_for_a_groupoid_section(tmp_path):
    path = tmp_path / "c2.rgd"
    path.write_text(C2_ASSEMBLY_DOC, encoding="utf-8")
    code, _, modules = _fresh_run(["validate", "--input", str(path)])
    assert code == 0
    assert set(modules) == VALIDATE | GROUPOIDS | {_handler("validate")}


def test_validate_loads_moduloids_only_for_an_ideal_section(tmp_path):
    path = tmp_path / "z4.rgd"
    path.write_text(Z4_WITH_IDEAL, encoding="utf-8")
    code, _, modules = _fresh_run(["validate", "--input", str(path)])
    assert code == 0
    assert set(modules) == VALIDATE | IDEALS | {_handler("validate")}


def test_k0_and_k1_subcommands_compile_only_their_own_line():
    for command in ("k0", "oracle-compare", "nerve-check", "assembly"):
        assert not {"k1", "lattice", "additive"} & CASES[command][2], command
    assert "k1" in CASES["k1"][2] and "ktheory" not in CASES["k1"][2]


def _imported_by_name(argv):
    """Run `python -X importtime -m ringoids.cli argv`; returns its exit code
    and the modules that import statements loaded, in import order."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "ringoids.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONDONTWRITEBYTECODE="1"))
    names = [line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return proc.returncode, names


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_module_is_compiled_once(tmp_path, command):
    # under -m the front runs as __main__; a handler that imported
    # ringoids.cli would compile it a second time
    doc, flags, _ = CASES[command]
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    code, names = _imported_by_name([command, "--input", str(path), *flags])
    assert code == 0
    # importlib.import_module, which loads the handler, is not timed, but
    # the front's own imports are
    assert "ringoids.rgd" in names and "ringoids.cli" not in names


@pytest.mark.parametrize("command", ["validate", "k0", "k1", "oracle-compare"])
def test_no_job_loads_argparse_gettext_or_locale(tmp_path, command):
    # the CLI reads its flags itself; argparse loaded gettext, and the
    # first message it formatted loaded locale.  No module of the package
    # takes a `from __future__` line, and only machine output loads json
    doc, flags, _ = CASES[command]
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    argv = [command, "--input", str(path), *flags]
    code, names = _imported_by_name(argv)
    assert code == 0 and "ringoids.rgd" in names
    assert not {"argparse", "gettext", "locale", "__future__", "json"} & set(names)
    code, names = _imported_by_name(argv + ["--format", "machine"])
    assert code == 0 and "json" in names and "__future__" not in names


# a parse error (the image is read before its hom line): exit 1
IMAGE_BEFORE_HOM_DOC = ("ringoid R\nobject a\nobject b\nobject c\n"
                        "hom a b cyclic 2\nhom b c cyclic 2\n"
                        "compose a b c: 0 0 ->\nhom a c cyclic 2\n")

# name -> (input document, subcommand and flags, exit code)
MAIN_CASES = {command: (doc, [command, *flags], 0)
              for command, (doc, flags, _) in CASES.items()}
MAIN_CASES["parse error"] = (IMAGE_BEFORE_HOM_DOC, ["validate"], 1)
# a zero ceiling leaves the (a) vs (b) test undecided
MAIN_CASES["undecided"] = (PAIR_DOC, ["k0", "--bound", "2", "--ceiling", "0",
                                      "--format", "machine"], 2)


@pytest.mark.parametrize("case", sorted(MAIN_CASES))
def test_main_exits_and_prints_as_run(tmp_path, case):
    # cli.main freezes the heap once run has returned; the streams are
    # still flushed and the exit code is run's
    doc, argv, expected = MAIN_CASES[case]
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    argv = [argv[0], "--input", str(path), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == expected
    proc = subprocess.run([sys.executable, "-m", "ringoids.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, out.getvalue(), err.getvalue())


# Calls cli.main or cli.run on the rest of argv; an atexit handler, which
# runs after either has returned, prints the freeze count to stderr.
_FREEZE = """\
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(
    "freeze count %d\\n" % gc.get_freeze_count()))
from ringoids import cli
entry = getattr(cli, sys.argv.pop(1))
sys.exit(entry())
"""


def test_only_main_freezes_the_heap(tmp_path):
    path = tmp_path / "f2.rgd"
    path.write_text(F2_DOC, encoding="utf-8")
    runs = {entry: subprocess.run([sys.executable, "-c", _FREEZE, entry, "k0",
                                   "--input", str(path)],
                                  capture_output=True, text=True)
            for entry in ("main", "run")}
    frozen = {}
    for entry, proc in runs.items():
        assert proc.returncode == 0 and proc.stdout.startswith("K0 = Z")
        head, _, count = proc.stderr.splitlines()[-1].rpartition(" ")
        assert head == "freeze count"
        frozen[entry] = int(count)
    assert runs["main"].stdout == runs["run"].stdout
    # a library caller of run keeps a collector that scans its objects
    assert frozen["main"] > 0 and frozen["run"] == 0


def test_help_imports_no_cli_module_by_name():
    code, names = _imported_by_name(["--help"])
    assert code == 0
    assert "ringoids" in names and "ringoids.cli" not in names


def test_validate_loads_no_quotient_code(tmp_path):
    path = tmp_path / "f2.rgd"
    path.write_text(F2_DOC, encoding="utf-8")
    script = ("import sys, types\n"
              "from ringoids import cli\n"
              "assert cli.run(sys.argv[1:]) == 0\n"
              "m = sys.modules['ringoids.abgroup']\n"
              "print(' '.join(sorted(\n"
              "    name for name, v in vars(m).items()\n"
              "    if isinstance(v, (type, types.FunctionType))\n"
              "    and v.__module__ == m.__name__)))\n")
    proc = subprocess.run([sys.executable, "-c", script, "validate", "--input",
                           str(path)], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "FinAbGroup"


# Builds an AbPresentation from the relation rows in argv (JSON) and
# prints whether lattice was loaded before and after, with the invariants.
_PRESENT = """\
import json, sys
from ringoids.intlinalg import AbPresentation
n, rows = json.loads(sys.argv[1])
before = "ringoids.lattice" in sys.modules
p = AbPresentation(n, rows)
print(json.dumps([before, "ringoids.lattice" in sys.modules,
                  bool(p.elimination.residue), p.rank, list(p.torsion)]))
"""


@pytest.mark.parametrize("n, rows, residue", [
    # x0 = -x1 is eliminated; 4 x1 = 6 x2 = 0 is left, Z/2 + Z/12
    (3, [[1, 1, 0], [0, 4, 0], [0, 0, 6]], True),
    # every relation has a unit pivot: Z
    (2, [[1, 1]], False),
])
def test_presentation_loads_lattice_only_for_a_residue(n, rows, residue):
    from ringoids.intlinalg import AbPresentation

    proc = subprocess.run([sys.executable, "-c", _PRESENT,
                           json.dumps([n, rows])],
                          capture_output=True, text=True, check=True)
    here = AbPresentation(n, rows)
    assert json.loads(proc.stdout) == [False, residue, residue, here.rank,
                                       list(here.torsion)]
