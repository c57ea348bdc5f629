"""`ringoids tensor`: the tensor product of the first two ringoids of the
input, printed as RGD."""

from . import emit_rgd, note
from ..ringoid import StructuralError, validate


def run(args, doc):
    from ..constructions import ringoid_equal_structure
    from ..moduloids import tensor
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
        note("note: tensoring over Z (no shared scalar ring)")
    tp = tensor(m, n, over=over)
    return emit_rgd(args, tp.ringoid, {
        "op": "tensor", "left": m.name, "right": n.name,
        "over": over.name if over is not None else "Z"})
