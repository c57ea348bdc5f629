"""`ringoids k1`: the GL_n abelianizations of the input ringoid up to
--gl-max, with the stabilization maps."""

from . import (EXIT_OK, EXIT_UNDECIDED, emit, note_too_large,
               presentation_json, require_ringoid)


def run(args, doc):
    from ..k1 import k1_bounded
    r = require_ringoid(doc)
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
    emit(args, lines, {
        "op": "k1", "ringoid": r.name, "gl_max": args.gl_max,
        "ranks": {str(n): presentation_json(p) for n, p in res.ranks.items()},
        "last_step_iso": res.last_step_iso,
        "truncated_at": res.truncated_at})
    n = res.truncated_at
    if n is not None:
        # GLn is closed in End(o^n), which has |End(o)|^(n^2) elements
        o = r.objects[0]
        note_too_large(o if n == 1 else "%s^%d" % (o, n), r,
                       r.hom(o, o).order() ** (n * n), args.ceiling)
    return EXIT_OK if res.truncated_at is None else EXIT_UNDECIDED
