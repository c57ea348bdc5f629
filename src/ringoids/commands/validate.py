"""`ringoids validate`: the axiom check of every ringoid, groupoid and
G-set of the input, in input order."""

from . import EXIT_FAIL, EXIT_OK, emit
from ..ringoid import StructuralError, validate


def run(args, doc):
    lines = []
    payload = []
    failed = False
    for kind, name in doc.order:
        if kind == "ringoid":
            try:
                rep = validate(doc.ringoids[name])
            except StructuralError as exc:
                lines.append("ringoid %s: structural error: %s" % (name, exc))
                payload.append({"kind": "ringoid", "name": name,
                                "structural_error": str(exc)})
                failed = True
                continue
            status = "clean" if rep.ok else "FAILED " + ", ".join(rep.axioms_violated())
            lines.append("ringoid %s: %s" % (name, status))
            detail = [{"axiom": f.axiom, "location": repr(f.location),
                       "witness": repr(f.witness)} for f in rep.failures]
            payload.append({"kind": "ringoid", "name": name, "ok": rep.ok,
                            "failures": detail})
            failed = failed or not rep.ok
            for f in rep.failures:
                lines.append("  %s at %r witness %r" % (f.axiom, f.location, f.witness))
        elif kind == "groupoid":
            from ..groupoids import validate_groupoid
            rep = validate_groupoid(doc.groupoids[name])
            status = "clean" if rep.ok else "FAILED " + ", ".join(rep.axioms_violated())
            lines.append("groupoid %s: %s" % (name, status))
            payload.append({"kind": "groupoid", "name": name, "ok": rep.ok})
            failed = failed or not rep.ok
        elif kind == "gset":
            rep = doc.gsets[name].validate()
            status = "clean" if rep.ok else "FAILED " + ", ".join(rep.axioms_violated())
            lines.append("gset %s: %s" % (name, status))
            payload.append({"kind": "gset", "name": name, "ok": rep.ok})
            failed = failed or not rep.ok
    emit(args, lines, {"op": "validate", "results": payload})
    return EXIT_FAIL if failed else EXIT_OK
