import json
import os
import subprocess
import sys

import pytest

from ringoids.cli import run

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


def test_first_ringoid_is_named_on_stderr(tmp_path, f2_file, capsys):
    from ringoids import (cyclic_ring, discrete_groupoid, document_from,
                          group_ringoid, print_rgd)
    path = tmp_path / "scalar_first.rgd"
    ring = group_ringoid(discrete_groupoid(("a", "b")), cyclic_ring(2, name="F2"))
    path.write_text(print_rgd(document_from([ring])), encoding="utf-8")
    assert run(["k0", "--input", f2_file]) == 0
    alone = capsys.readouterr()
    assert alone.err == ""
    assert run(["k0", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == alone.out
    assert captured.err == ("note: computing ringoid F2, the first in the "
                            "input; ignoring F2[discrete]\n")


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
    assert "validation: clean" in captured.out
    assert "tensoring over Z" in captured.err
    # F2 (x)_Z Z/3 collapses: no hom lines survive in the printed result
    assert "cyclic" not in captured.out


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
])
def test_bad_flag_or_input_exits_1_with_one_line(tmp_path, f2_file, capsys, command):
    if command[-1] == "--non-utf8":
        path = tmp_path / "latin1.rgd"
        path.write_bytes(b"ringoid F\xe4\nobject a\n")
        args = command[:-1] + ["--input", str(path)]
    else:
        args = command + ["--input", f2_file]
    code = run(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in captured.err
