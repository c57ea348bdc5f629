"""`ringoids k0`: bounded K0 of the input ringoid."""

from . import (EXIT_OK, EXIT_UNDECIDED, emit, note_undecided,
               presentation_json, require_ringoid)


def _stab_text(res):
    if res.stabilized_since is not None:
        return "stabilized at L=%d" % res.stabilized_since
    return "no stabilization observed up to L=%d" % res.bound


def run(args, doc):
    from ..ktheory import k0_bounded
    r = require_ringoid(doc)
    res = k0_bounded(r, args.bound, ceiling=args.ceiling)
    lines = ["K0 = %s (%s)" % (res.presentation, _stab_text(res))]
    if res.undecided:
        lines.append("WARNING: undecided isomorphism tests at the ceiling")
    emit(args, lines, {"op": "k0", "ringoid": r.name, "bound": res.bound,
                       "presentation": presentation_json(res.presentation),
                       "stabilized_since": res.stabilized_since,
                       "undecided": bool(res.undecided)})
    note_undecided(r, res.undecided)
    return EXIT_UNDECIDED if res.undecided else EXIT_OK
