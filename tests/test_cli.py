import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ringoids import (FiniteRingoid, FinGroup, GSet, Ideal, cyclic_ring,
                      discrete_groupoid, document_from, group_as_groupoid,
                      group_ringoid, print_rgd)
from ringoids.cli import _COMMANDS, run

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


@pytest.mark.parametrize("over_f2", [False, True])
def test_tensor_output_validates(tmp_path, capsys, f2, f2xf2_moduloid, over_f2):
    # the product's name is one RGD token, F2(x)_{Z}Z3 or
    # F2(x)_{F2}F2xF2/F2, so its printed section parses again
    path = tmp_path / "two.rgd"
    text = (print_rgd(document_from(ringoids=[f2, f2xf2_moduloid])) if over_f2
            else TWO_RINGS_DOC)
    path.write_text(text, encoding="utf-8")
    assert run(["tensor", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    rgd_text, status = out.rstrip("\n").rsplit("\n", 1)
    assert status == "validation: clean"
    assert ("ringoid F2(x)_{F2}F2xF2/F2" if over_f2
            else "ringoid F2(x)_{Z}Z3") in rgd_text
    assert run(["tensor", "--input", str(path), "--format", "machine"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["rgd"].rstrip("\n") == rgd_text
    printed = tmp_path / "product.rgd"
    printed.write_text(machine["rgd"], encoding="utf-8")
    assert run(["validate", "--input", str(printed)]) == 0
    assert "clean" in capsys.readouterr().out


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


@settings(max_examples=200, deadline=None)
@given(data=_mutated_documents(), command=st.sampled_from(sorted(_COMMANDS)),
       bound=st.integers(0, 2), gl_max=st.integers(1, 2),
       ceiling=st.sampled_from([-1, 0, 3, 64, 4096]),
       fmt=st.sampled_from(["human", "machine"]))
def test_cli_fuzz_never_escapes(fuzz_dir, data, command, bound, gl_max,
                                ceiling, fmt):
    path = str(fuzz_dir / "input.rgd")
    with open(path, "wb") as fh:
        fh.write(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--input", path, "--bound", str(bound),
                    "--gl-max", str(gl_max), "--ceiling", str(ceiling),
                    "--format", fmt])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() or err.getvalue()


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
