"""`ringoids transport`: the transport groupoid of the first G-set of the
input and its components."""

from . import EXIT_FAIL, EXIT_OK, emit
from ..ringoid import StructuralError


def run(args, doc):
    from ..groupoids import orbit_skeleton, transport_groupoid, validate_groupoid
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
    emit(args, lines, {"op": "transport", "ok": grep.ok, "components": payload})
    return EXIT_OK if grep.ok else EXIT_FAIL
