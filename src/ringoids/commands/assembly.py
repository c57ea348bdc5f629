"""`ringoids assembly`: the degree-zero assembly map of the first G-set of
the input, or else of its first groupoid."""

from . import (EXIT_OK, EXIT_UNDECIDED, emit, presentation_json,
               require_ringoid)
from ..ringoid import StructuralError


def run(args, doc):
    from ..assembly import assembly_zero, equivariant_assembly_zero
    from ..groupoids import validate_groupoid
    r = require_ringoid(doc)
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
    emit(args, lines, {
        "op": "assembly", "kind": kind,
        "source": presentation_json(am.source_presentation),
        "target": presentation_json(am.target.presentation),
        "matrix": matrix, "iso": am.iso, "undecided": am.undecided})
    return EXIT_UNDECIDED if am.undecided else EXIT_OK
