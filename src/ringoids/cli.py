"""Command-line interface.

Subcommands: validate, complete, k0, k1, unitize, quotient, tensor,
groupring, transport, assembly, nerve-check, oracle-compare.

Exit codes: 0 success, 1 axiom or verification failure (including input
and usage errors), 2 some isomorphism test was undecided at the configured
ceiling (or k1 stopped below --gl-max at the ceiling).
Results go to stdout, diagnostics to stderr.  All output is deterministic:
the same input and flags produce byte-identical output.

Each subcommand imports its engine when it runs, so a process compiles
only the modules of the subcommand it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .rgd import RGDSemanticError, RGDSyntaxError, parse_rgd
from .ringoid import DEFAULT_CEILING, StructuralError, validate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rgd(fh.read())


def _emit(args, human_lines, machine_obj):
    if args.format == "machine":
        sys.stdout.write(json.dumps(machine_obj, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _note(msg):
    sys.stderr.write(msg + "\n")


def _emit_rgd(args, ring, machine_obj):
    """Validate a constructed ringoid and emit it as an RGD document, so
    that human-format stdout parses again, with its validation status on
    stderr.  The machine object gains the printed text and the status."""
    from .rgdprint import document_from, print_rgd
    ok = validate(ring).ok
    text = print_rgd(document_from(ringoids=[ring]))
    _emit(args, [text.rstrip("\n")], dict(machine_obj, rgd=text, ok=ok))
    _note("validation: %s" % ("clean" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_FAIL


def _presentation_json(p):
    return {"rank": p.rank, "torsion": list(p.torsion), "text": str(p)}


def _stab_text(res):
    if res.stabilized_since is not None:
        return "stabilized at L=%d" % res.stabilized_since
    return "no stabilization observed up to L=%d" % res.bound


def cmd_validate(args, doc):
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
            from .groupoids import validate_groupoid
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
    _emit(args, lines, {"op": "validate", "results": payload})
    return EXIT_FAIL if failed else EXIT_OK


def _require_ringoid(doc):
    """The first ringoid that no other one in the input takes as its scalar."""
    rings = list(doc.ringoids.values())
    if not rings:
        raise StructuralError("the input declares no ringoid")
    r = next((r for r in rings
              if not any(o.scalar is r for o in rings if o is not r)), rings[0])
    if len(rings) > 1:
        _note("note: computing ringoid %s, the first that no other ringoid "
              "takes as its scalar; ignoring %s"
              % (r.name, ", ".join(o.name for o in rings if o is not r)))
    rep = validate(r)
    if not rep.ok:
        raise StructuralError("input ringoid %r fails validation: %s"
                              % (r.name, ", ".join(rep.axioms_violated())))
    return r


def cmd_complete(args, doc):
    from .additive import complete as complete_view, enumerate_objsums
    r = _require_ringoid(doc)
    view = complete_view(r)
    lines = ["additive completion of %s" % r.name]
    sizes = []
    for s in enumerate_objsums(r.objects, 2):
        for t in enumerate_objsums(r.objects, 2):
            sizes.append({"src": list(map(str, s)), "dst": list(map(str, t)),
                          "order": view.hom_order(s, t)})
            lines.append("|Hom(%s, %s)| = %d"
                         % ("+".join(map(str, s)) or "0",
                            "+".join(map(str, t)) or "0",
                            view.hom_order(s, t)))
    biproducts_ok = True
    if r.unital:
        for s in enumerate_objsums(r.objects, 1):
            for t in enumerate_objsums(r.objects, 1):
                i_s, i_t, p_s, p_t = view.biproduct(s, t)
                ok = (view.compose(p_s, i_s) == view.identity(s)
                      and view.compose(p_t, i_t) == view.identity(t)
                      and view.add(view.compose(i_s, p_s),
                                   view.compose(i_t, p_t)) == view.identity(s + t))
                biproducts_ok = biproducts_ok and ok
        lines.append("biproduct equations: %s" % ("ok" if biproducts_ok else "FAILED"))
    _emit(args, lines, {"op": "complete", "ringoid": r.name, "hom_orders": sizes,
                        "biproducts_ok": biproducts_ok})
    return EXIT_OK if biproducts_ok else EXIT_FAIL


def cmd_k0(args, doc):
    from .ktheory import k0_bounded
    r = _require_ringoid(doc)
    res = k0_bounded(r, args.bound, ceiling=args.ceiling)
    lines = ["K0 = %s (%s)" % (res.presentation, _stab_text(res))]
    if res.undecided:
        lines.append("WARNING: undecided isomorphism tests at the ceiling")
    _emit(args, lines, {"op": "k0", "ringoid": r.name, "bound": res.bound,
                        "presentation": _presentation_json(res.presentation),
                        "stabilized_since": res.stabilized_since,
                        "undecided": res.undecided})
    return EXIT_UNDECIDED if res.undecided else EXIT_OK


def cmd_k1(args, doc):
    from .k1 import k1_bounded
    r = _require_ringoid(doc)
    res = k1_bounded(r, args.gl_max, ceiling=args.ceiling)
    lines = []
    for n in sorted(res.ranks):
        lines.append("GL%d^ab = %s" % (n, res.ranks[n]))
    for step in res.steps:
        lines.append("stabilization GL%d -> GL%d: %s"
                     % (step.rank, step.rank + 1,
                        "isomorphism" if step.is_isomorphism else "not an isomorphism"))
    if res.truncated_at is not None:
        lines.append("truncated at rank %d (ceiling)" % res.truncated_at)
    _emit(args, lines, {
        "op": "k1", "ringoid": r.name, "gl_max": args.gl_max,
        "ranks": {str(n): _presentation_json(p) for n, p in res.ranks.items()},
        "last_step_iso": res.last_step_iso,
        "truncated_at": res.truncated_at})
    return EXIT_OK if res.truncated_at is None else EXIT_UNDECIDED


def cmd_unitize(args, doc):
    from .constructions import forget_units
    from .moduloids import unitize
    r = _require_ringoid(doc)
    if r.scalar is None:
        raise StructuralError("unitize needs a scalar ring")
    if r.unital:
        _note("note: input is unital; forgetting its identities first")
        r = forget_units(r)
    return _emit_rgd(args, unitize(r), {"op": "unitize", "ringoid": r.name})


def cmd_quotient(args, doc):
    from .moduloids import quotient
    first = doc.nth("ideal")
    if first is None:
        raise StructuralError("quotient needs an ideal section in the input")
    of_name, ideal = first
    m = doc.ringoids[of_name]
    rep = validate(m)
    if not rep.ok:
        raise StructuralError("parent ringoid fails validation")
    q, _qhom = quotient(m, ideal)
    return _emit_rgd(args, q, {"op": "quotient", "ringoid": of_name})


def cmd_tensor(args, doc):
    from .constructions import ringoid_equal_structure
    from .moduloids import tensor
    m = doc.nth("ringoid")
    n = doc.nth("ringoid", 1)
    if m is None or n is None:
        raise StructuralError("tensor needs two ringoids in the input")
    for r in (m, n):
        rep = validate(r)
        if not rep.ok:
            raise StructuralError("ringoid %r fails validation" % (r.name,))
    over = None
    if m.scalar is not None and n.scalar is not None:
        if m.scalar is n.scalar or ringoid_equal_structure(m.scalar, n.scalar):
            over = m.scalar
    if over is None:
        _note("note: tensoring over Z (no shared scalar ring)")
    tp = tensor(m, n, over=over)
    return _emit_rgd(args, tp.ringoid, {
        "op": "tensor", "left": m.name, "right": n.name,
        "over": over.name if over is not None else "Z"})


def cmd_groupring(args, doc):
    from .groupoids import group_ringoid, validate_groupoid
    g = doc.nth("groupoid")
    r = doc.nth("ringoid")
    if g is None or r is None:
        raise StructuralError("groupring needs a groupoid and a ringoid")
    grep = validate_groupoid(g)
    if not grep.ok:
        raise StructuralError("groupoid fails validation")
    rrep = validate(r)
    if not rrep.ok:
        raise StructuralError("ringoid fails validation")
    return _emit_rgd(args, group_ringoid(g, r), {
        "op": "groupring", "groupoid": g.name, "ring": r.name})


def cmd_transport(args, doc):
    from .groupoids import orbit_skeleton, transport_groupoid, validate_groupoid
    xs = doc.nth("gset")
    if xs is None:
        raise StructuralError("transport needs a gset section")
    rep = xs.validate()
    if not rep.ok:
        raise StructuralError("gset fails validation")
    bar = transport_groupoid(xs)
    grep = validate_groupoid(bar)
    comps = orbit_skeleton(bar)
    lines = ["transport groupoid: %d objects, %d morphisms, %s"
             % (len(bar.objects), len(bar.morphisms),
                "clean" if grep.ok else "FAILED")]
    payload = []
    for c in comps:
        lines.append("component %s: base %s, vertex group of order %d"
                     % ("{%s}" % ",".join(map(str, c.objects)), c.base,
                        len(c.vertex_group)))
        payload.append({"objects": list(map(str, c.objects)),
                        "base": str(c.base),
                        "vertex_order": len(c.vertex_group)})
    _emit(args, lines, {"op": "transport", "ok": grep.ok, "components": payload})
    return EXIT_OK if grep.ok else EXIT_FAIL


def cmd_assembly(args, doc):
    from .assembly import assembly_zero, equivariant_assembly_zero
    from .groupoids import validate_groupoid
    r = _require_ringoid(doc)
    xs = doc.nth("gset")
    if xs is not None:
        am = equivariant_assembly_zero(xs, r, args.bound, ceiling=args.ceiling)
        kind = "equivariant"
    else:
        g = doc.nth("groupoid")
        if g is None:
            raise StructuralError("assembly needs a gset or a groupoid")
        if not validate_groupoid(g).ok:
            raise StructuralError("groupoid fails validation")
        am = assembly_zero(g, r, args.bound, ceiling=args.ceiling)
        kind = "groupoid"
    n = am.target.presentation.generators
    matrix = [[row.get(j, 0) for j in range(n)] for row in am.matrix]
    lines = ["assembly (%s): %s -> %s" % (kind, am.source_presentation,
                                          am.target.presentation),
             "matrix: %s" % (matrix,),
             "isomorphism: %s" % ("yes" if am.iso else "no")]
    if am.undecided:
        lines.append("WARNING: undecided isomorphism tests at the ceiling")
    _emit(args, lines, {
        "op": "assembly", "kind": kind,
        "source": _presentation_json(am.source_presentation),
        "target": _presentation_json(am.target.presentation),
        "matrix": matrix, "iso": am.iso, "undecided": am.undecided})
    return EXIT_UNDECIDED if am.undecided else EXIT_OK


def cmd_nerve_check(args, doc):
    from .nerve import check_simplicial_identities
    r = _require_ringoid(doc)
    n_max = min(3, args.bound)
    rep = check_simplicial_identities(r, n_max, args.bound)
    lines = ["simplicial identities at n <= %d, L = %d: %d checked, %s"
             % (n_max, args.bound, rep.checked,
                "all hold" if rep.ok else "%d FAILED" % len(rep.failures))]
    for f in rep.failures[:10]:
        lines.append("  failure: %r" % (f,))
    _emit(args, lines, {"op": "nerve-check", "checked": rep.checked,
                        "ok": rep.ok,
                        "failures": [repr(f) for f in rep.failures]})
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_oracle_compare(args, doc):
    from .nerve import oracle_compare
    r = _require_ringoid(doc)
    rep = oracle_compare(r, args.bound, ceiling=args.ceiling)
    if rep.ok:
        lines = ["MATCH: %s" % rep.k0.presentation]
    else:
        lines = ["MISMATCH: k0=%s nerve=%s (maps ok: %s/%s)"
                 % (rep.k0.presentation, rep.nerve.abelianized,
                    rep.map_forward_ok, rep.map_backward_ok)]
    if rep.undecided:
        lines.append("WARNING: undecided isomorphism tests at the ceiling")
    _emit(args, lines, {
        "op": "oracle-compare", "match": rep.ok,
        "k0": _presentation_json(rep.k0.presentation),
        "nerve": _presentation_json(rep.nerve.abelianized),
        "undecided": rep.undecided})
    if not rep.ok:
        return EXIT_FAIL
    return EXIT_UNDECIDED if rep.undecided else EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "complete": cmd_complete,
    "k0": cmd_k0,
    "k1": cmd_k1,
    "unitize": cmd_unitize,
    "quotient": cmd_quotient,
    "tensor": cmd_tensor,
    "groupring": cmd_groupring,
    "transport": cmd_transport,
    "assembly": cmd_assembly,
    "nerve-check": cmd_nerve_check,
    "oracle-compare": cmd_oracle_compare,
}

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
    parser.add_argument("command", choices=list(_COMMANDS))
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
        _note("error: %s" % exc)
        return EXIT_FAIL
    for dest, least in _FLAG_MINIMUM.get(args.command, ()):
        if getattr(args, dest) < least:
            _note("error: --%s must be at least %d for %s"
                  % (dest.replace("_", "-"), least, args.command))
            return EXIT_FAIL
    try:
        doc = _load(args.input)
    except OSError as exc:
        _note("input error: %s" % exc)
        return EXIT_FAIL
    except UnicodeDecodeError as exc:
        _note("input error: %s is not UTF-8 text (%s)" % (args.input, exc))
        return EXIT_FAIL
    except (RGDSyntaxError, RGDSemanticError) as exc:
        _note("parse error: %s" % exc)
        return EXIT_FAIL
    try:
        return _COMMANDS[args.command](args, doc)
    except (StructuralError, RGDSemanticError) as exc:
        _note("error: %s" % exc)
        return EXIT_FAIL
    except MemoryError as exc:
        # a search that outgrows a memory limit; with no limit the process
        # may be killed before this is raised.  An enumeration refused by a
        # size guard (additive.SizeLimitExceeded) says why.
        _note("error: %s" % (str(exc) or "out of memory in %s" % args.command))
        return EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
