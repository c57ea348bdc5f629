"""`ringoids quotient`: the quotient by the first ideal section of the
input, printed as RGD."""

from . import emit_rgd
from ..ringoid import StructuralError, validate


def run(args, doc):
    from ..moduloids import quotient
    first = doc.nth("ideal")
    if first is None:
        raise StructuralError("quotient needs an ideal section in the input")
    of_name, ideal = first
    m = doc.ringoids[of_name]
    rep = validate(m)
    if not rep.ok:
        raise StructuralError("parent ringoid fails validation")
    q, _qhom = quotient(m, ideal)
    return emit_rgd(args, q, {"op": "quotient", "ringoid": of_name})
