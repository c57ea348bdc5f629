"""The subcommands of the command-line interface, one module each, named
after its subcommand (`oracle-compare` is `oracle_compare`), and the
helpers and exit codes they share (the exit codes are described in `cli`).

`cli.run` imports the module of the subcommand it runs and calls its
`run(args, doc)` on the parsed flags and the parsed input, which prints
the result and returns the exit code.  So a process compiles its own
handler and no other, and each handler imports its engine when it runs.
No handler imports `cli`: under `python -m ringoids.cli` that module runs
as `__main__`, and importing it by name would compile it a second time.
"""

import sys

# `validate` under another name: importing the handler module `validate`
# binds that name in this package
from ..ringoid import StructuralError, validate as validate_ringoid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2


def emit(args, human_lines, machine_obj):
    if args.format == "machine":
        # only machine output compiles json
        import json
        sys.stdout.write(json.dumps(machine_obj, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def note(msg):
    sys.stderr.write(msg + "\n")


def emit_rgd(args, ring, machine_obj):
    """Validate a constructed ringoid and emit it as an RGD document, so
    that human-format stdout parses again, with its validation status on
    stderr.  The machine object gains the printed text and the status."""
    from ..rgdprint import document_from, print_rgd
    ok = validate_ringoid(ring).ok
    text = print_rgd(document_from(ringoids=[ring]))
    emit(args, [text.rstrip("\n")], dict(machine_obj, rgd=text, ok=ok))
    note("validation: %s" % ("clean" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_FAIL


def presentation_json(p):
    return {"rank": p.rank, "torsion": list(p.torsion), "text": str(p)}


def require_ringoid(doc):
    """The first ringoid that no other one in the input takes as its scalar."""
    rings = list(doc.ringoids.values())
    if not rings:
        raise StructuralError("the input declares no ringoid")
    r = next((r for r in rings
              if not any(o.scalar is r for o in rings if o is not r)), rings[0])
    if len(rings) > 1:
        note("note: computing ringoid %s, the first that no other ringoid "
             "takes as its scalar; ignoring %s"
             % (r.name, ", ".join(o.name for o in rings if o is not r)))
    rep = validate_ringoid(r)
    if not rep.ok:
        raise StructuralError("input ringoid %r fails validation: %s"
                              % (r.name, ", ".join(rep.axioms_violated())))
    return r
