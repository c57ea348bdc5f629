"""`ringoids groupring`: the group ringoid of the first groupoid over the
first ringoid of the input, printed as RGD."""

from . import emit_rgd
from ..ringoid import StructuralError, validate


def run(args, doc):
    from ..groupoids import group_ringoid, validate_groupoid
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
    return emit_rgd(args, group_ringoid(g, r), {
        "op": "groupring", "groupoid": g.name, "ring": r.name})
