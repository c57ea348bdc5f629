"""`ringoids oracle-compare`: bounded K0 against the nerve oracle."""

from . import (EXIT_FAIL, EXIT_OK, EXIT_UNDECIDED, emit, note_undecided,
               presentation_json, require_ringoid)


def run(args, doc):
    from ..nerve import oracle_compare
    r = require_ringoid(doc)
    rep = oracle_compare(r, args.bound, ceiling=args.ceiling)
    if rep.ok:
        lines = ["MATCH: %s" % rep.k0.presentation]
    else:
        lines = ["MISMATCH: k0=%s nerve=%s (maps ok: %s/%s)"
                 % (rep.k0.presentation, rep.nerve.abelianized,
                    rep.map_forward_ok, rep.map_backward_ok)]
    if rep.undecided:
        lines.append("WARNING: undecided isomorphism tests at the ceiling")
    emit(args, lines, {
        "op": "oracle-compare", "match": rep.ok,
        "k0": presentation_json(rep.k0.presentation),
        "nerve": presentation_json(rep.nerve.abelianized),
        "undecided": rep.undecided})
    if rep.undecided:
        note_undecided(r, args.ceiling)
    if not rep.ok:
        return EXIT_FAIL
    return EXIT_UNDECIDED if rep.undecided else EXIT_OK
