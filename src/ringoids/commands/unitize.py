"""`ringoids unitize`: the unitization of the input moduloid, printed as
RGD."""

from . import emit_rgd, note, require_ringoid
from ..ringoid import StructuralError


def run(args, doc):
    from ..constructions import forget_units
    from ..moduloids import unitize
    r = require_ringoid(doc)
    if r.scalar is None:
        raise StructuralError("unitize needs a scalar ring")
    if r.unital:
        note("note: input is unital; forgetting its identities first")
        r = forget_units(r)
    return emit_rgd(args, unitize(r), {"op": "unitize", "ringoid": r.name})
