"""`ringoids nerve-check`: the simplicial identities of the nerve levels
up to 3."""

from . import EXIT_FAIL, EXIT_OK, emit, require_ringoid


def run(args, doc):
    from ..nerve import check_simplicial_identities
    r = require_ringoid(doc)
    n_max = min(3, args.bound)
    rep = check_simplicial_identities(r, n_max, args.bound)
    lines = ["simplicial identities at n <= %d, L = %d: %d checked, %s"
             % (n_max, args.bound, rep.checked,
                "all hold" if rep.ok else "%d FAILED" % len(rep.failures))]
    for f in rep.failures[:10]:
        lines.append("  failure: %r" % (f,))
    emit(args, lines, {"op": "nerve-check", "checked": rep.checked,
                       "ok": rep.ok,
                       "failures": [repr(f) for f in rep.failures]})
    return EXIT_OK if rep.ok else EXIT_FAIL
