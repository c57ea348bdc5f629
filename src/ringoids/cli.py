"""Command-line interface: the parser, the input and the exit codes.

Subcommands: validate, complete, k0, k1, unitize, quotient, tensor,
groupring, transport, assembly, nerve-check, oracle-compare.

Exit codes: 0 success, 1 axiom or verification failure (including input
and usage errors), 2 some isomorphism test was undecided at the configured
ceiling (or k1 stopped below --gl-max at the ceiling).
Results go to stdout, diagnostics to stderr.  All output is deterministic:
the same input and flags produce byte-identical output.

Each subcommand is run by its own module in `commands`, which `run`
imports when the subcommand runs, and which imports its engine; so a
process compiles only the handler and the modules of the subcommand it
runs.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .commands import EXIT_FAIL, note
from .rgd import RGDSemanticError, RGDSyntaxError, parse_rgd
from .ringoid import DEFAULT_CEILING, StructuralError


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rgd(fh.read())


# The subcommands, in the order that usage lists them.  Each is run by the
# module of `commands` named after it.
_COMMANDS = ("validate", "complete", "k0", "k1", "unitize", "quotient",
             "tensor", "groupring", "transport", "assembly", "nerve-check",
             "oracle-compare")

# Smallest accepted value of each numeric flag a subcommand reads, in the
# order they are checked.
_FLAG_MINIMUM = {
    "k0": (("bound", 1), ("ceiling", 0)),
    "oracle-compare": (("bound", 1), ("ceiling", 0)),
    "assembly": (("bound", 1), ("ceiling", 0)),
    "nerve-check": (("bound", 0),),
    "k1": (("gl_max", 1), ("ceiling", 0)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that `run` exits 1: 2 means undecided here."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    parser = _Parser(
        prog="ringoids",
        description="Finite ringoids, their additive completions, and the "
                    "decidable shadows of their K-theory.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", required=True, help="RGD input file")
    parser.add_argument("--bound", type=int, default=3,
                        help="length bound L for formal sums (default 3)")
    parser.add_argument("--gl-max", type=int, default=2, dest="gl_max",
                        help="largest GL rank for k1 (default 2)")
    parser.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                        help="candidate ceiling for searches (default 2^20)")
    parser.add_argument("--format", choices=("human", "machine"),
                        default="human")
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        note("error: %s" % exc)
        return EXIT_FAIL
    for dest, least in _FLAG_MINIMUM.get(args.command, ()):
        if getattr(args, dest) < least:
            note("error: --%s must be at least %d for %s"
                 % (dest.replace("_", "-"), least, args.command))
            return EXIT_FAIL
    try:
        doc = _load(args.input)
    except OSError as exc:
        note("input error: %s" % exc)
        return EXIT_FAIL
    except UnicodeDecodeError as exc:
        note("input error: %s is not UTF-8 text (%s)" % (args.input, exc))
        return EXIT_FAIL
    except (RGDSyntaxError, RGDSemanticError) as exc:
        note("parse error: %s" % exc)
        return EXIT_FAIL
    try:
        handler = import_module(".commands." + args.command.replace("-", "_"),
                                __package__)
        return handler.run(args, doc)
    except (StructuralError, RGDSemanticError) as exc:
        note("error: %s" % exc)
        return EXIT_FAIL
    except MemoryError as exc:
        # a search that outgrows a memory limit; with no limit the process
        # may be killed before this is raised.  An enumeration refused by a
        # size guard (krullschmidt.SizeLimitExceeded) says why.
        note("error: %s" % (str(exc) or "out of memory in %s" % args.command))
        return EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
