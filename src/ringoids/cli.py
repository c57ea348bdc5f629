"""Command-line interface: the flags, the input and the exit codes.

Subcommands: validate, complete, k0, k1, unitize, quotient, tensor,
groupring, transport, assembly, nerve-check, oracle-compare.

Exit codes: 0 success, 1 axiom or verification failure (including input
and usage errors), 2 some isomorphism test was undecided at the configured
ceiling (or k1 stopped below --gl-max at the ceiling).
Results go to stdout, diagnostics to stderr.  All output is deterministic:
the same input and flags produce byte-identical output.

The command line is read by `parse_flags`, which takes what argparse's
parser of this CLI took, with the same values and the same messages: the
subcommand and the five flags in any order, `--flag value` and
`--flag=value`, a unique prefix of a flag (`--b 3`), the last of a
repeated flag, and a negative number as a value (`--ceiling -1`); only
`--flag=--`, which argparse took as an empty list, is refused.  A usage
error is one `error: ...` line and exit 1, before any input is read; -h,
--help and their prefixes print the fixed text `HELP` and exit 0.  So no
process loads argparse, gettext or locale.

Each subcommand is run by its own module in `commands`, which `run`
imports when the subcommand runs, and which imports its engine; so a
process compiles only the handler and the modules of the subcommand it
runs.
"""

from __future__ import annotations

import re
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

_CHOICES = "{%s}" % ",".join(_COMMANDS)

HELP = """\
usage: ringoids [-h] --input INPUT [--bound BOUND] [--gl-max GL_MAX]
                [--ceiling CEILING] [--format {human,machine}]
                %s

Finite ringoids, their additive completions, and the decidable shadows of
their K-theory.

positional arguments:
  %s

options:
  -h, --help            show this help message and exit
  --input INPUT         RGD input file
  --bound BOUND         length bound L for formal sums (default 3)
  --gl-max GL_MAX       largest GL rank for k1 (default 2)
  --ceiling CEILING     candidate ceiling for searches (default 2^20)
  --format {human,machine}
""" % (_CHOICES, _CHOICES)

# The option strings, in the order an ambiguous prefix lists them.
_OPTIONS = ("-h", "--help", "--input", "--bound", "--gl-max", "--ceiling",
            "--format")

# A token that starts with '-' but is read as a value, not as a flag.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A command line that `parse_flags` refuses; the text is the message."""


class Flags:
    """The subcommand and the value of each flag, by default its default."""

    def __init__(self):
        self.command = None
        self.input = None
        self.bound = 3
        self.gl_max = 2
        self.ceiling = DEFAULT_CEILING
        self.format = "human"


def _option(token):
    """None for a token read as a value, else (option, glued): the option
    string it names (None for no flag of this CLI) and the value glued to
    it (None for none).  A long flag may be cut to a unique prefix; -h
    takes a glued tail, which only more h's may fill."""
    if not token.startswith("-") or token == "-":
        return None
    if token in _OPTIONS:
        return token, None
    head, eq, glued = token.partition("=")
    if eq and head in _OPTIONS:
        return head, glued
    if token[1] == "-":
        matches = [o for o in _OPTIONS if o.startswith(head)]
        glued = glued if eq else None
    else:
        matches = ["-h"] if token[1] == "h" else []
        glued = token[2:]
    if len(matches) > 1:
        raise UsageError("ambiguous option: %s could match %s"
                         % (token, ", ".join(matches)))
    if matches:
        return matches[0], glued
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _value(option, text):
    if option == "--input":
        return text
    if option == "--format":
        if text not in ("human", "machine"):
            raise UsageError("argument --format: invalid choice: %r (choose "
                             "from 'human', 'machine')" % (text,))
        return text
    try:
        return int(text)
    except ValueError:
        raise UsageError("argument %s: invalid int value: %r"
                         % (option, text)) from None


def parse_flags(argv):
    """The Flags of a command line.  An ambiguous prefix (`--=x`) raises
    UsageError first; then the tokens are read left to right, and a
    subcommand or flag with an invalid value raises UsageError where it
    stands, and -h or --help prints HELP and raises SystemExit(0) where
    it stands.  The tokens after the first `--` are values.  A missing
    subcommand or --input, then a token left over, raises UsageError at
    the end."""
    tokens = list(argv)
    kinds = []  # per token: None (a value), "--", or _option's pair
    for k, token in enumerate(tokens):
        if token == "--":
            kinds += ["--"] + [None] * (len(tokens) - k - 1)
            break
        kinds.append(_option(token))
    flags = Flags()
    extras = []

    def values(i, end):
        # tokens i..end-1, none a flag: the subcommand, if still missing,
        # stands at i or after a `--` at i, and the rest are left over
        first = i + (kinds[i:i + 1] == ["--"])
        if flags.command is None and first < end and kinds[first] is None:
            if tokens[first] not in _COMMANDS:
                raise UsageError(
                    "argument command: invalid choice: %r (choose from %s)"
                    % (tokens[first], ", ".join(map(repr, _COMMANDS))))
            flags.command = tokens[first]
            i = first + 1 + (kinds[first + 1:first + 2] == ["--"])
        extras.extend(tokens[i:end])

    i = 0
    for k, kind in enumerate(kinds):
        if kind is None or kind == "--":
            continue
        values(i, k)
        option, glued = kind
        i = k + 1
        if option is None:
            extras.append(tokens[k])
        elif option in ("-h", "--help"):
            if glued is not None:
                rest = glued.lstrip("h") if option == "-h" else glued
                if rest or not glued:
                    raise UsageError("argument -h/--help: ignored explicit "
                                     "argument %r" % (rest,))
            sys.stdout.write(HELP)
            raise SystemExit(0)
        else:
            if glued is None and kinds[i:i + 1] == [None]:
                glued, i = tokens[i], i + 1
            if glued is None or glued == "--":
                raise UsageError("argument %s: expected one argument" % option)
            setattr(flags, option[2:].replace("-", "_"), _value(option, glued))
    values(i, len(tokens))
    missing = [name for name, value in (("command", flags.command),
                                        ("--input", flags.input))
               if value is None]
    if missing:
        raise UsageError("the following arguments are required: %s"
                         % ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: %s" % " ".join(extras))
    return flags


def run(argv=None):
    try:
        args = parse_flags(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
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
