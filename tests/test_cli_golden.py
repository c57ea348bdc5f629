"""Golden CLI outputs: exit code, stdout and stderr of every subcommand on
the benchmark corpus (bench/corpus.py), on one document with a scalar
ring, an ideal section and two ringoids, and on one with a groupoid and no
G-set, in human and machine format, with the default flags and with the
flag each subcommand reads set low (`--bound 2`, `--gl-max 1`).  The
directory of the input files reads as <dir>.  Invocations that took longer
than about a second when recorded are not part of the data, so that the
module stays quick.

Regenerate the data (only when a change of the outputs is intended) with
    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import time

import pytest

from ringoids import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "cli_golden.json")
BENCH = os.path.join(os.path.dirname(HERE), "bench")
PLACEHOLDER = "<dir>"
SLOW_S = 1.0

# Z2 takes Z4 as its scalar, so Z2 is the ringoid that unitize, k0 and k1
# compute, tensor runs over the shared scalar Z4, and quotient divides Z4
# by its ideal.
SCALAR_IDEAL_PAIR = """\
ringoid Z4
object a
hom a a cyclic 4
compose a a a: 0 0 -> 1
identity a: 1
scalar Z4
action a a: 0 0 -> 1

ringoid Z2
object b
hom b b cyclic 2
compose b b b: 0 0 -> 1
identity b: 1
scalar Z4
action b b: 0 0 -> 1

ideal two of Z4
gen a a: 2
"""

# F2 and the groupoid C2 with no G-set: `assembly` takes its groupoid
# branch (`assembly_zero`), which no corpus document reaches.
GROUPOID_NO_GSET = """\
ringoid F2
object *
hom * * cyclic 2
compose * * *: 0 0 -> 1
identity *: 1
scalar F2
action * *: 0 0 -> 1

groupoid C2
object *
morphism * * 0
morphism * * 1
identity * 0
compose 0 0 -> 0
compose 0 1 -> 1
compose 1 0 -> 1
compose 1 1 -> 0
inverse 0 0
inverse 1 1
"""

FLAG_SETS = {"k0": ((), ("--bound", "2")),
             "assembly": ((), ("--bound", "2")),
             "nerve-check": ((), ("--bound", "2")),
             "oracle-compare": ((), ("--bound", "2")),
             "k1": ((), ("--gl-max", "1"))}


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", os.path.join(BENCH, "corpus.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.build(), scalar_ideal_pair=SCALAR_IDEAL_PAIR,
                groupoid_no_gset=GROUPOID_NO_GSET)


def write_inputs(out_dir):
    for stem, text in _corpus().items():
        with open(os.path.join(out_dir, stem + ".rgd"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


def invocations():
    """Case key -> (command, input stem, flags, format), every key once."""
    out = {}
    for stem in sorted(_corpus()):
        for command in cli._COMMANDS:
            for flags in FLAG_SETS.get(command, ((),)):
                for fmt in ("human", "machine"):
                    key = " ".join((command, stem) + flags + (fmt,))
                    out[key] = (command, stem, flags, fmt)
    return out


def run_case(case, in_dir):
    command, stem, flags, fmt = case
    argv = [command, "--input", os.path.join(in_dir, stem + ".rgd"),
            *flags, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code] + [text.getvalue().replace(in_dir, PLACEHOLDER)
                     for text in (out, err)]


def _golden():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _golden() if os.path.exists(DATA) else {}
CASES = invocations()


@pytest.fixture(scope="module")
def in_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden"))
    write_inputs(out)
    return out


def test_golden_keys_are_invocations():
    assert GOLDEN and set(GOLDEN) <= set(CASES)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_matches_golden(key, in_dir):
    assert run_case(CASES[key], in_dir) == GOLDEN[key]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    data = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for key, case in CASES.items():
            start = time.perf_counter()
            result = run_case(case, tmp)
            if time.perf_counter() - start <= SLOW_S:
                data[key] = result
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join("%s: %s" % (json.dumps(k), json.dumps(v))
                            for k, v in sorted(data.items())))
        fh.write("\n}\n")
