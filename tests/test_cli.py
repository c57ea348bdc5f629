import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ringoids import (FiniteRingoid, FinGroup, GSet, Ideal, cyclic_ring,
                      discrete_groupoid, document_from, forget_units,
                      group_as_groupoid, group_ringoid, matrix_ring,
                      print_rgd, transport_groupoid)
from ringoids.krullschmidt import TABLE_LETTER_LIMIT
from ringoids.cli import _COMMANDS, HELP, UsageError, parse_flags, run
from ringoids.k1 import GL_ORDER_LIMIT

from conftest import argparse_outcome, build_parser

F2_DOC = """\
ringoid F2
object a
hom a a cyclic 2
compose a a a: 0 0 -> 1
identity a: 1
scalar F2
action a a: 0 0 -> 1
"""

Z4_WITH_IDEAL = """\
ringoid Z4
object a
hom a a cyclic 4
compose a a a: 0 0 -> 1
identity a: 1
scalar Z4
action a a: 0 0 -> 1

ideal two of Z4
gen a a: 2
"""

BROKEN_DOC = """\
ringoid bad
object a
hom a a cyclic 2 2
compose a a a: 0 0 -> 0 1
compose a a a: 1 0 -> 1 0
"""

C2_ASSEMBLY_DOC = """\
ringoid F2
object a
hom a a cyclic 2
compose a a a: 0 0 -> 1
identity a: 1
scalar F2
action a a: 0 0 -> 1

groupoid C2
object p
morphism p p e
morphism p p g
compose e e -> e
compose e g -> g
compose g e -> g
compose g g -> e

gset orbit over C2
point 1
point 2
act 1 e -> 1
act 1 g -> 2
act 2 e -> 2
act 2 g -> 1
"""


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.rgd"
    path.write_text(F2_DOC, encoding="utf-8")
    return str(path)


def test_k0_output(f2_file, capsys):
    code = run(["k0", "--input", f2_file, "--bound", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "K0 = Z (stabilized at L=2)\n"


def test_oracle_compare_output(f2_file, capsys):
    code = run(["oracle-compare", "--input", f2_file, "--bound", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "MATCH: Z\n"


def test_oracle_compare_disc3_bound_5(tmp_path, capsys, f2):
    disc3 = group_ringoid(discrete_groupoid(("a", "b", "c")), f2)
    bare = FiniteRingoid(disc3.objects, disc3.homs, disc3.compose_table,
                         identities=disc3.identities, name="disc3")
    path = tmp_path / "disc3.rgd"
    path.write_text(print_rgd(document_from(ringoids=[bare])), encoding="utf-8")
    code = run(["oracle-compare", "--input", str(path), "--bound", "5"])
    assert (code, capsys.readouterr().out) == (0, "MATCH: Z^3\n")


def test_validate_broken_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.rgd"
    path.write_text(BROKEN_DOC, encoding="utf-8")
    code = run(["validate", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "associativity" in out


def test_validate_clean(f2_file, capsys):
    code = run(["validate", "--input", f2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "ringoid F2: clean" in out


def test_k1_output(f2_file, capsys):
    code = run(["k1", "--input", f2_file, "--gl-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "GL1^ab = 0" in out
    assert "GL2^ab = Z/2" in out


def test_machine_format_is_json(f2_file, capsys):
    code = run(["k0", "--input", f2_file, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["presentation"]["text"] == "Z"
    assert payload["stabilized_since"] == 2


def test_unitize_roundtrip(f2_file, capsys):
    code = run(["unitize", "--input", f2_file])
    captured = capsys.readouterr()
    assert code == 0
    assert "hom a a cyclic 2 2" in captured.out
    assert "note:" in captured.err


def test_quotient_command(tmp_path, capsys):
    path = tmp_path / "z4.rgd"
    path.write_text(Z4_WITH_IDEAL, encoding="utf-8")
    code = run(["quotient", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "hom a a cyclic 2" in out


def test_nerve_check(f2_file, capsys):
    code = run(["nerve-check", "--input", f2_file, "--bound", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all hold" in out


def test_assembly_command(tmp_path, capsys):
    path = tmp_path / "c2.rgd"
    path.write_text(C2_ASSEMBLY_DOC, encoding="utf-8")
    code = run(["assembly", "--input", str(path), "--bound", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "isomorphism: yes" in out


def test_transport_command(tmp_path, capsys):
    path = tmp_path / "c2.rgd"
    path.write_text(C2_ASSEMBLY_DOC, encoding="utf-8")
    code = run(["transport", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "vertex group of order 1" in out


def test_groupring_command(tmp_path, capsys):
    path = tmp_path / "c2.rgd"
    path.write_text(C2_ASSEMBLY_DOC, encoding="utf-8")
    code = run(["groupring", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "hom p p cyclic 2 2" in out


PAIR_DOC = """\
ringoid PAIR
object a
object b
hom a a cyclic 2
hom a b cyclic 2
hom b a cyclic 2
hom b b cyclic 2
compose a a a: 0 0 -> 1
compose a a b: 0 0 -> 1
compose a b a: 0 0 -> 1
compose a b b: 0 0 -> 1
compose b a a: 0 0 -> 1
compose b a b: 0 0 -> 1
compose b b a: 0 0 -> 1
compose b b b: 0 0 -> 1
identity a: 1
identity b: 1
"""


def test_undecided_exit_code_2(tmp_path, capsys):
    path = tmp_path / "pair.rgd"
    path.write_text(PAIR_DOC, encoding="utf-8")
    # at the default ceiling the two objects collapse and K0 = Z
    code = run(["k0", "--input", str(path), "--bound", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("K0 = Z ")
    # a zero ceiling leaves the (a) vs (b) test undecided: exit code 2
    code = run(["k0", "--input", str(path), "--bound", "2", "--ceiling", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "undecided" in out


def test_k1_truncation_exits_2(f2_file, capsys):
    code = run(["k1", "--input", f2_file, "--gl-max", "3", "--ceiling", "100"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.endswith("truncated at rank 3 (ceiling)\n")


def test_an_undecided_k0_names_the_object_over_the_ceiling(tmp_path, capsys):
    # End(*) of M5(F2) has 2^25 elements, so its 1 is left unsplit; the
    # note goes to stderr, and stdout and the exit code stay as they were
    path = tmp_path / "m5.rgd"
    ring = matrix_ring(cyclic_ring(2, scalar=False), 5)
    path.write_text(print_rgd(document_from(ringoids=[ring])), encoding="utf-8")
    assert run(["k0", "--input", str(path), "--bound", "3"]) == 2
    assert capsys.readouterr() == (
        "K0 = Z (stabilized at L=2)\n"
        "WARNING: undecided isomorphism tests at the ceiling\n",
        "note: End(*) of M5(Z/2) has 2^25 elements, over the ceiling 2^20\n")


def test_undecided_notes_name_each_object_and_the_rank(tmp_path, f2_file,
                                                       capsys):
    path = tmp_path / "pair.rgd"
    path.write_text(PAIR_DOC, encoding="utf-8")
    assert run(["oracle-compare", "--input", str(path), "--bound", "2",
                "--ceiling", "1"]) == 2
    assert capsys.readouterr().err == (
        "note: End(a) of PAIR has 2 elements, over the ceiling 1\n"
        "note: End(b) of PAIR has 2 elements, over the ceiling 1\n")
    # GL3 of F2 is closed in End(a^3) = M3(F2)
    assert run(["k1", "--input", f2_file, "--gl-max", "3",
                "--ceiling", "100"]) == 2
    assert capsys.readouterr().err == (
        "note: End(a^3) of F2 has 2^9 elements, over the ceiling 100\n")


def test_k1_of_the_zero_ring_at_rank_1000(tmp_path, capsys):
    # used to close GL_n for every n: --gl-max 300 took 26 s
    path = tmp_path / "zero.rgd"
    path.write_text("ringoid Z\nobject *\nhom * * cyclic 1\nidentity *: 0\n",
                    encoding="utf-8")
    start = time.perf_counter()
    code = run(["k1", "--input", str(path), "--gl-max", "1000"])
    assert time.perf_counter() - start < 2
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == ["GL%d^ab = 0" % n for n in range(1, 1001)] + [
        "stabilization GL%d -> GL%d: isomorphism" % (n, n + 1)
        for n in range(1, 1000)]


def test_first_ringoid_is_named_on_stderr(tmp_path, capsys):
    # the printed group ring declares its scalar ring F2 first; the file is
    # about the group ring, the one ringoid no other takes as its scalar
    path = tmp_path / "scalar_first.rgd"
    alone_path = tmp_path / "alone.rgd"
    ring = group_ringoid(discrete_groupoid(("a", "b")), cyclic_ring(2, name="F2"))
    bare = FiniteRingoid(ring.objects, ring.homs, ring.compose_table,
                         identities=ring.identities, name=ring.name)
    path.write_text(print_rgd(document_from([ring])), encoding="utf-8")
    alone_path.write_text(print_rgd(document_from([bare])), encoding="utf-8")
    assert run(["k0", "--input", str(alone_path)]) == 0
    alone = capsys.readouterr()
    assert alone.err == ""
    assert run(["k0", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == alone.out == "K0 = Z^2 (stabilized at L=2)\n"
    assert captured.err == ("note: computing ringoid F2[discrete], the first "
                            "that no other ringoid takes as its scalar; "
                            "ignoring F2\n")


def test_unitize_computes_the_ringoid_over_the_scalar(tmp_path, capsys):
    # a printed non-unital F2[C2] declares its scalar ring F2 first
    ring = group_ringoid(group_as_groupoid(FinGroup.cyclic(2), name="C2"),
                         cyclic_ring(2, name="F2"))
    path = tmp_path / "nonunital.rgd"
    path.write_text(print_rgd(document_from([forget_units(ring)])),
                    encoding="utf-8")
    assert run(["unitize", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert "ringoid F2[C2]+\n" in captured.out
    assert "unital" not in captured.err
    assert captured.err.startswith("note: computing ringoid F2[C2], ")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.rgd"
    path.write_text("hom before section\n", encoding="utf-8")
    code = run(["validate", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "parse error" in err


TWO_RINGS_DOC = """\
ringoid F2
object a
hom a a cyclic 2
compose a a a: 0 0 -> 1
identity a: 1

ringoid Z3
object b
hom b b cyclic 3
compose b b b: 0 0 -> 1
identity b: 1
"""


def test_tensor_command(tmp_path, capsys):
    path = tmp_path / "two.rgd"
    path.write_text(TWO_RINGS_DOC, encoding="utf-8")
    code = run(["tensor", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "validation: clean" in captured.err
    assert "tensoring over Z" in captured.err
    # F2 (x)_Z Z/3 collapses: no hom lines survive in the printed result
    assert "cyclic" not in captured.out


@pytest.mark.parametrize("over_f2", [False, True])
def test_tensor_output_validates(tmp_path, capsys, f2, f2xf2_moduloid, over_f2):
    # the product's name is one RGD token, F2(x)_{Z}Z3 or
    # F2(x)_{F2}F2xF2/F2, so its printed section parses again
    path = tmp_path / "two.rgd"
    text = (print_rgd(document_from(ringoids=[f2, f2xf2_moduloid])) if over_f2
            else TWO_RINGS_DOC)
    path.write_text(text, encoding="utf-8")
    assert run(["tensor", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    rgd_text = captured.out.rstrip("\n")
    assert captured.err.splitlines()[-1] == "validation: clean"
    assert ("ringoid F2(x)_{F2}F2xF2/F2" if over_f2
            else "ringoid F2(x)_{Z}Z3") in rgd_text
    assert run(["tensor", "--input", str(path), "--format", "machine"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["rgd"].rstrip("\n") == rgd_text
    printed = tmp_path / "product.rgd"
    printed.write_text(machine["rgd"], encoding="utf-8")
    assert run(["validate", "--input", str(printed)]) == 0
    assert "clean" in capsys.readouterr().out


def test_tensor_stdout_is_valid_rgd(tmp_path, capsys):
    # human-format stdout is the printed document alone, so it can be
    # passed on to another subcommand as it is
    path = tmp_path / "two.rgd"
    path.write_text(TWO_RINGS_DOC, encoding="utf-8")
    assert run(["tensor", "--input", str(path)]) == 0
    printed = tmp_path / "product.rgd"
    printed.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["validate", "--input", str(printed)]) == 0
    assert capsys.readouterr().out == "ringoid F2(x)_{Z}Z3: clean\n"


FRONTIER_K1 = {
    ("f3", 3): ("GL1^ab = Z/2\nGL2^ab = Z/2\nGL3^ab = Z/2\n"
                "stabilization GL1 -> GL2: isomorphism\n"
                "stabilization GL2 -> GL3: isomorphism\n"),
    ("z4", 3): ("GL1^ab = Z/2\nGL2^ab = Z/2 + Z/2\nGL3^ab = Z/2\n"
                "stabilization GL1 -> GL2: not an isomorphism\n"
                "stabilization GL2 -> GL3: not an isomorphism\n"),
    ("m2f2", 2): ("GL1^ab = Z/2\nGL2^ab = 0\n"
                  "stabilization GL1 -> GL2: not an isomorphism\n"),
    ("f2", 4): ("GL1^ab = 0\nGL2^ab = Z/2\nGL3^ab = 0\nGL4^ab = 0\n"
                "stabilization GL1 -> GL2: not an isomorphism\n"
                "stabilization GL2 -> GL3: not an isomorphism\n"
                "stabilization GL3 -> GL4: isomorphism\n"),
}


@pytest.mark.frontier
@pytest.mark.parametrize("ring_name,gl_max", sorted(FRONTIER_K1))
def test_k1_frontier(tmp_path, capsys, request, ring_name, gl_max):
    # GL3(F3) has 11232 elements, GL3(Z/4) 86016, GL4(F2) 20160 (as GL2
    # of M2(F2) and as GL4 of F2); each closure passes the order formula
    path = tmp_path / (ring_name + ".rgd")
    ring = request.getfixturevalue(ring_name)
    path.write_text(print_rgd(document_from(ringoids=[ring])), encoding="utf-8")
    code = run(["k1", "--input", str(path), "--gl-max", str(gl_max)])
    assert code == 0
    assert capsys.readouterr().out == FRONTIER_K1[(ring_name, gl_max)]


@pytest.mark.parametrize("n,args,want", [
    pytest.param(4, ["k0", "--bound", "2"], "K0 = Z (stabilized at L=2)\n",
                 id="k0-m4f2"),
    pytest.param(3, ["k1", "--gl-max", "1"], "GL1^ab = 0\n", id="k1-m3f2"),
    pytest.param(4, ["k1", "--gl-max", "1"], "GL1^ab = 0\n", id="k1-m4f2",
                 marks=pytest.mark.frontier),
    pytest.param(6, ["validate"], "ringoid M6(Z/2): clean\n",
                 id="validate-m6f2", marks=pytest.mark.frontier),
])
def test_matrix_ring_frontier(tmp_path, capsys, n, args, want):
    # k0 of M4(F2) compares the four primitives of 1_* (|End| = 2^16)
    # through 16 x 16 products of generators; k1 of M3(F2) and M4(F2)
    # closes GL3(F2) (168 elements) and GL4(F2) (20 160) from the few units
    # that generate them, testing by powers only units not yet reached;
    # validate of M6(F2) checks 36^3 generator triples for associativity
    path = tmp_path / "m.rgd"
    ring = matrix_ring(cyclic_ring(2, scalar=False), n)
    path.write_text(print_rgd(document_from(ringoids=[ring])), encoding="utf-8")
    assert run([args[0], "--input", str(path)] + args[1:]) == 0
    assert capsys.readouterr().out == want


def _run_subprocess(args, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run([sys.executable, "-m", "ringoids.cli"] + args,
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("command", [
    ["k0", "--bound", "3"],
    ["k0", "--bound", "3", "--format", "machine"],
    ["oracle-compare", "--bound", "3"],
    ["k1", "--gl-max", "2"],
    ["complete"],
    ["unitize"],
])
def test_byte_reproducible_across_hash_seeds(f2_file, command):
    args = command + ["--input", f2_file]
    code1, out1 = _run_subprocess(args, "0")
    code2, out2 = _run_subprocess(args, "424242")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("command", [
    ["k0", "--bound", "0"],
    ["k0", "--bound", "-1"],
    ["oracle-compare", "--bound", "0"],
    ["oracle-compare", "--bound", "-3"],
    ["assembly", "--bound", "0"],
    ["assembly", "--bound", "-1"],
    ["nerve-check", "--bound", "-2"],
    ["k1", "--gl-max", "0"],
    ["validate", "--non-utf8"],
    ["k0", "--bound", "abc"],
    ["k1", "--ceiling", "x"],
    ["k0", "--format", "xml"],
    ["oracle-compare", "--bound"],
    ["k0", "--no-input"],
    ["frobnicate"],
    [],
])
def test_bad_flag_or_input_exits_1_with_one_line(tmp_path, f2_file, capsys, command):
    if command[-1:] == ["--non-utf8"]:
        path = tmp_path / "latin1.rgd"
        path.write_bytes(b"ringoid F\xe4\nobject a\n")
        args = command[:-1] + ["--input", str(path)]
    elif command[-1:] == ["--no-input"]:
        args = command[:-1]
    else:
        args = command + ["--input", f2_file]
    code = run(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in captured.err


@pytest.mark.parametrize("command", ["k0", "k1", "assembly", "oracle-compare"])
def test_negative_ceiling_is_rejected(f2_file, capsys, command):
    # --ceiling 0 stays valid (see test_undecided_exit_code_2)
    code = run([command, "--input", f2_file, "--ceiling", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: --ceiling must be at least 0 for %s\n"
                            % command)


@pytest.mark.parametrize("command, engine", [
    ("k0", "ringoids.ktheory.k0_bounded"),
    ("oracle-compare", "ringoids.nerve.oracle_compare"),
    ("k1", "ringoids.k1.k1_bounded"),
])
def test_out_of_memory_exits_1_with_one_line(f2_file, capsys, monkeypatch,
                                             command, engine):
    # a huge --bound under a memory limit ends in MemoryError inside the
    # engine; the CLI reports it instead of printing a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(engine, exhausted)
    code = run([command, "--input", f2_file])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: out of memory in %s\n" % command


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"]
                                                  for command in _COMMANDS])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ringoids")
    usage = out.split("\n\n")[0]
    assert all(command in usage for command in _COMMANDS)


def test_help_is_the_text_argparse_printed(monkeypatch):
    # argparse wrapped its help at $COLUMNS, and at 80 columns when that
    # was unset and stdout no terminal
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser().format_help() == HELP


def _reader_outcome(argv):
    """`argparse_outcome` for `cli.parse_flags`."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            flags = parse_flags(argv)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", out.getvalue()
    except UsageError as exc:
        return "error", str(exc)
    return "accepted", vars(flags)


_PREFIXES = ["--i", "--inp", "--b", "--bou", "--g", "--gl", "--gl-",
             "--gl-ma", "--c", "--ceil", "--f", "--form", "--he"]
_INTS = ["0", "1", "3", "-1", "-7", "+2", " 4", "007", "-0"]
_NON_INTS = ["x", "", "1e3", "2.5", "-1.5", "-.5", "0x10", "\u00bd"]
_JUNK = ["-x", "--x", "---", "-1x", "-h=", "-hx", "-hh", "--help=x", "a b",
         "- 1", "=", "-=", "--=1", "--bound-x", "---input", "--inputx",
         "human", "machine", "xml", "f.rgd", "-1\n"]


def _token(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(_COMMANDS + ("k2", "K0", "oracle"))
    if kind == 1:
        return rng.choice(["--input", "--bound", "--gl-max", "--ceiling",
                           "--format"] + _PREFIXES)
    if kind == 2:
        # a glued value; `--flag=--` is refused on purpose, see
        # test_a_glued_double_dash_is_refused
        return "%s=%s" % (rng.choice(["--input", "--bound", "--format", "-h"]
                                     + _PREFIXES),
                          rng.choice(_INTS + _NON_INTS + ["human", "-h"]))
    if kind == 3:
        return rng.choice(_INTS)
    if kind == 4:
        return rng.choice(_NON_INTS)
    if kind == 5:
        return rng.choice(["-h", "--help", "--", "-"])
    return rng.choice(_JUNK)


def test_flag_reader_matches_argparse(monkeypatch):
    """On a few thousand argv drawn from subcommands, flags, prefixes,
    glued values, ints, non-ints, -h, --help, --, - and junk (half of them
    inserted into a valid command line), the reader gives what argparse
    gave: the same help text, the same error message, or the same values."""
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(34)
    seen = dict.fromkeys(("help", "error", "accepted"), 0)
    for _ in range(3000):
        argv = [_token(rng) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            line = [rng.choice(_COMMANDS), "--input", "f.rgd"]
            for token in argv:
                line.insert(rng.randint(0, len(line)), token)
            argv = line
        want = argparse_outcome(argv)
        assert _reader_outcome(argv) == want, argv
        seen[want[0]] += 1
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command, --input"),
    (["frobnicate", "--input", "f.rgd"],
     "argument command: invalid choice: 'frobnicate' (choose from %s)"
     % ", ".join(map(repr, _COMMANDS))),
    (["k0", "--input", "f.rgd", "--bound", "x"],
     "argument --bound: invalid int value: 'x'"),
    (["k0", "--input", "f.rgd", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'human', "
     "'machine')"),
    (["k0", "--input"], "argument --input: expected one argument"),
    (["k0", "--input", "f.rgd", "extra"], "unrecognized arguments: extra"),
], ids=["required", "command", "int", "format", "one-argument",
        "unrecognized"])
def test_usage_error_messages_are_argparse_s(capsys, argv, message):
    # f.rgd does not exist: each is refused before any input is read
    assert argparse_outcome(argv) == ("error", message)
    assert run(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("flag", ["--input", "--bound", "--b", "--format"])
def test_a_glued_double_dash_is_refused(f2_file, capsys, flag):
    # argparse took `--flag=--` as an empty list, on which `run` failed
    # with a TypeError (`open([])`, `[] < 1`)
    argv = ["validate", "--input", f2_file, flag + "=--"]
    assert run(argv) == 1
    name = "--bound" if flag == "--b" else flag
    assert capsys.readouterr() == (
        "", "error: argument %s: expected one argument\n" % name)


@pytest.mark.parametrize("argv, values", [
    (["--b", "4", "k0", "--in=x"], {"bound": 4, "input": "x"}),
    (["k1", "--gl", "3", "--input", "a", "--input=b"],
     {"gl_max": 3, "input": "b"}),
    (["k0", "--input", "x", "--ceiling", "-1", "--f=machine"],
     {"ceiling": -1, "format": "machine"}),
    (["--input", "x", "--", "k0"], {"input": "x"}),
])
def test_prefixes_glued_values_and_repeats(argv, values):
    flags = vars(parse_flags(argv))
    assert {key: flags[key] for key in values} == values
    assert flags["command"] in _COMMANDS


def test_flag_before_the_command_is_accepted(f2_file, capsys):
    assert run(["k0", "--input", f2_file, "--bound", "2"]) == 0
    after = capsys.readouterr()
    assert run(["--bound", "2", "k0", "--input", f2_file]) == 0
    assert capsys.readouterr() == after


@pytest.mark.parametrize("command, doc", [("k0", F2_DOC),
                                          ("oracle-compare", F2_DOC),
                                          ("assembly", C2_ASSEMBLY_DOC)])
def test_absurd_bound_is_refused_by_its_predicted_size(tmp_path, command, doc):
    # the guard decides from the prediction alone: without it the run grows
    # until memory runs out, so the timeout fails it long before that
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    bound = 99999999999999999999999
    proc = subprocess.run(
        [sys.executable, "-m", "ringoids.cli", command, "--input", str(path),
         "--bound", str(bound)],
        capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: iso-class table at bound %d " % bound)
    assert "over the limit of %d" % TABLE_LETTER_LIMIT in proc.stderr


def _bare_doc(groupoid, name):
    """The group ringoid of the groupoid over F2, printed without its
    scalar ring, so that it is the first ringoid of its RGD file."""
    ring = group_ringoid(groupoid, cyclic_ring(2, name="F2"))
    bare = FiniteRingoid(ring.objects, ring.homs, ring.compose_table,
                         identities=ring.identities, name=name)
    return print_rgd(document_from([bare]))


def _discrete_doc(objects, name):
    return _bare_doc(discrete_groupoid(objects), name)


def _disc3_doc():
    return _discrete_doc(("a", "b", "c"), "disc3")


@pytest.mark.parametrize("command, doc, bound, stage", [
    ("oracle-compare", _disc3_doc(), 10, "nerve relations"),
    ("nerve-check", F2_DOC, 99999999999999999999999, "nerve level 3"),
    ("nerve-check", _disc3_doc(), 99999999999999999999999, "nerve level 3")])
def test_nerve_side_is_refused_by_its_predicted_size(tmp_path, command, doc,
                                                     bound, stage):
    # oracle-compare at disc3 bound 10 passes the iso-class table guard, and
    # its 1.02e6 nerve rows would take about 1 GB
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ringoids.cli", command, "--input", str(path),
         "--bound", str(bound)],
        capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: %s at bound %d would hold " % (stage, bound))
    assert "over the limit of " in proc.stderr


# Spawns one CLI job, then prints its exit code and peak resident size in
# KB.  A child's ru_maxrss counts what its parent held when it was made, so
# the launcher is a python -S process and not the test process.
PEAK_LAUNCHER = """\
import os, sys
argv = [sys.executable, "-m", "ringoids.cli"] + sys.argv[1:]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.frontier
@pytest.mark.parametrize("objects, bound, peak_mb", [
    ("abc", 7, 200), ("abc", 8, 125), ("ab", 12, 140)])
def test_oracle_frontier(tmp_path, objects, bound, peak_mb):
    # the nerve side holds 27 885 sparse rows at disc3 bound 7 (1.45 GB as
    # dense rows), 93 495 at disc3 bound 8 and 106 497 at disc2 bound 12;
    # the elimination keeps one source index per pivot and residue row,
    # not a combination of rows (147 and 178 MB peaks when it did)
    path = tmp_path / "disc.rgd"
    path.write_text(_discrete_doc(tuple(objects), "disc%d" % len(objects)),
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_LAUNCHER, "oracle-compare",
         "--input", str(path), "--bound", str(bound), "--format", "machine"],
        capture_output=True, text=True, timeout=60)
    *printed, last = proc.stdout.splitlines()
    code, peak_kb = map(int, last.split())
    assert (code, proc.stderr) == (0, "")
    assert json.loads("".join(printed))["match"] is True
    assert peak_kb < peak_mb * 1024


@pytest.mark.frontier
def test_k0_frontier(tmp_path):
    # c2free at bound 200 has 20 301 multisets in 201 classes; the table
    # holds one multiset per class and the rows are read off the type
    # vectors (42 MB peak when the table kept a class per multiset)
    path = tmp_path / "c2free.rgd"
    path.write_text(_bare_doc(transport_groupoid(GSet.regular(FinGroup.cyclic(2))),
                              "c2free"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_LAUNCHER, "k0", "--input", str(path),
         "--bound", "200"],
        capture_output=True, text=True, timeout=60)
    *printed, last = proc.stdout.splitlines()
    code, peak_kb = map(int, last.split())
    assert (code, proc.stderr) == (0, "")
    assert printed == ["K0 = Z (stabilized at L=2)"]
    assert peak_kb < 30 * 1024


def test_gl_closure_is_refused_by_its_predicted_order(tmp_path):
    # with a raised ceiling, |GL4(F3)| = 24 261 120 comes from gl_order at
    # once, after GL1 to GL3 are closed; without the guard the closure of
    # GL4 grows until memory runs out
    path = tmp_path / "f3.rgd"
    path.write_text(print_rgd(document_from(ringoids=[cyclic_ring(3, name="F3")])),
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ringoids.cli", "k1", "--input", str(path),
         "--gl-max", "4", "--ceiling", str(2 ** 40)],
        capture_output=True, text=True, timeout=15)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: GL of a sum of 4 objects would hold 2.43e7 "
                           "elements, over the limit of %d\n" % GL_ORDER_LIMIT)


# ---------------------------------------------------------------------------
# Fuzzing: byte mutations of printed documents through every subcommand.
# ---------------------------------------------------------------------------

def _fuzz_sources():
    f2 = cyclic_ring(2, name="F2")
    z4 = cyclic_ring(4, name="Z4")
    c2 = FinGroup.cyclic(2)
    with_ideal = document_from(ringoids=[z4])
    with_ideal.ideals["two"] = ("Z4", Ideal(z4, {("*", "*"): ((2,),)}))
    with_ideal.order.append(("ideal", "two"))
    docs = [document_from(ringoids=[f2]),
            with_ideal,
            document_from(ringoids=[f2], groupoids=[group_as_groupoid(c2, name="C2")],
                          gsets=[GSet.regular(c2)]),
            document_from(ringoids=[cyclic_ring(2, name="A", scalar=False),
                                    cyclic_ring(3, name="B", scalar=False)])]
    return [print_rgd(doc).encode("utf-8") for doc in docs]


FUZZ_SOURCES = _fuzz_sources()

_chunks = st.one_of(st.binary(min_size=1, max_size=4),
                    st.text(alphabet="0123456789 -:>*abegp\n", min_size=1,
                            max_size=4).map(lambda t: t.encode("utf-8")))


@st.composite
def _mutated_documents(draw):
    data = bytearray(draw(st.sampled_from(FUZZ_SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("delete", "overwrite", "splice")))
        pos = draw(st.integers(0, len(data)))
        if op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "overwrite":
            chunk = draw(_chunks)
            data[pos:pos + len(chunk)] = chunk
        else:
            other = draw(st.sampled_from(FUZZ_SOURCES))
            start = draw(st.integers(0, len(other)))
            data[pos:pos] = other[start:start + draw(st.integers(1, 40))]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_fuzz_sources_parse_cleanly(fuzz_dir):
    path = str(fuzz_dir / "clean.rgd")
    for data in FUZZ_SOURCES:
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["validate", "--input", path]) == 0


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _flag(ints):
    """A flag value: an int from the given strategy, or text that int()
    rejects, which the flag reader refuses before any input is read."""
    return st.one_of(ints.map(str),
                     st.text(max_size=4).filter(_not_an_int))


@settings(max_examples=200, deadline=None)
@given(data=_mutated_documents(), command=st.sampled_from(sorted(_COMMANDS)),
       bound=_flag(st.integers(0, 2)), gl_max=_flag(st.integers(1, 2)),
       ceiling=_flag(st.sampled_from([-1, 0, 3, 64, 4096])),
       fmt=st.sampled_from(["human", "machine"]))
def test_cli_fuzz_never_escapes(fuzz_dir, data, command, bound, gl_max,
                                ceiling, fmt):
    path = str(fuzz_dir / "input.rgd")
    with open(path, "wb") as fh:
        fh.write(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--input", path, "--bound", bound,
                    "--gl-max", gl_max, "--ceiling", ceiling,
                    "--format", fmt])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() or err.getvalue()
    if any(map(_not_an_int, (bound, gl_max, ceiling))):
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


MONOID_GSET_DOC = F2_DOC + """
groupoid M
object p
morphism p p e
morphism p p t
identity p e
compose e e -> e
compose e t -> t
compose t e -> t
compose t t -> t
inverse e e
inverse t t

gset pt over M
point 1
act 1 e -> 1
act 1 t -> 1
"""


@pytest.mark.parametrize("command, doc, err", [
    ("validate", F2_DOC.replace("action a a: 0 0 -> 1", "action a a: 1 0 -> 1"),
     "parse error: line 7: scalar generator 1 out of range for the scalar ring "
     "'F2'\n"),
    ("validate", "ringoid E\n" + F2_DOC.replace("scalar F2", "scalar E"),
     "parse error: line 7: scalar ring 'E' has no objects\n"),
    ("validate", F2_DOC.replace("scalar F2\naction a a: 0 0 -> 1",
                                "action a a: 5 0 -> 1"),
     "parse error: line 6: action in ringoid 'F2', which has no scalar line\n"),
    ("transport", C2_ASSEMBLY_DOC.replace("compose g g -> e\n",
                                          "inverse e e\ninverse g g\n"),
     "parse error: line 19: gset 'orbit': groupoid 'C2' has no line "
     "'compose g g'\n"),
    ("validate", MONOID_GSET_DOC.replace("compose e e -> e", "compose e e -> t"),
     "parse error: line 21: gset 'pt': the loops of groupoid 'M': multiplication "
     "table has no identity\n"),
    ("transport", MONOID_GSET_DOC,
     "error: the group of the gset is not a group: element 't' has no inverse\n"),
    ("assembly", MONOID_GSET_DOC,
     "error: the group of the gset is not a group: element 't' has no inverse\n"),
], ids=["action-past-scalar", "scalar-without-objects", "action-without-scalar",
        "gset-missing-composite", "gset-without-identity", "transport-monoid-gset",
        "assembly-monoid-gset"])
def test_bad_scalar_or_gset_data_exits_1_with_one_line(tmp_path, capsys, command,
                                                      doc, err):
    # each of these raised a traceback (IndexError, KeyError or ValueError)
    path = tmp_path / "input.rgd"
    path.write_text(doc, encoding="utf-8")
    assert run([command, "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", ["validate", "k0"])
def test_a_duplicate_ringoid_name_exits_1_with_one_line(tmp_path, capsys,
                                                         command):
    # validate used to check the second section twice and k0 to note that
    # it ignored the second section under the name of the first
    path = tmp_path / "input.rgd"
    path.write_text("ringoid A\nobject a\nhom a a cyclic 2\n"
                    "compose a a a: 0 0 -> 1\nidentity a: 1\n\n"
                    "ringoid A\nobject b\nhom b b cyclic 3\n"
                    "compose b b b: 0 0 -> 1\nidentity b: 1\n", encoding="utf-8")
    assert run([command, "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "parse error: line 7: ringoid 'A' is already declared at line 1\n")


@pytest.mark.parametrize("command", ["validate", "assembly"])
def test_a_repeated_groupoid_object_exits_1_with_one_line(tmp_path, capsys,
                                                          command):
    # validate used to print clean and assembly Z -> Z^2 with exit 0
    path = tmp_path / "input.rgd"
    path.write_text(F2_DOC + "\ngroupoid C1\nobject p\nobject p\n"
                    "morphism p p e\ncompose e e -> e\n", encoding="utf-8")
    line = F2_DOC.count("\n") + 4
    assert run([command, "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "parse error: line %d: duplicate object 'p'\n" % line)


def test_validate_reports_a_monoid_gset_as_before(tmp_path, capsys):
    # the loops of M form a monoid: validate reports the groupoid's failed
    # inverses, while transport and assembly refuse the gset
    path = tmp_path / "input.rgd"
    path.write_text(MONOID_GSET_DOC, encoding="utf-8")
    assert run(["validate", "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "ringoid F2: clean\ngroupoid M: FAILED inverse\ngset pt: clean\n", "")


def test_groupoid_without_inverse_is_a_parse_error(tmp_path, capsys):
    # found by the fuzz test: a groupoid section with no compose lines
    # used to raise StructuralError out of the parser
    path = tmp_path / "bad_groupoid.rgd"
    path.write_text("groupoid C2\nobject p\nmorphism p p e\nmorphism p p g\n"
                    "identity p e\n", encoding="utf-8")
    code = run(["validate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("parse error: line 1: groupoid 'C2': morphism 'e' "
                            "has no inverse\n")
