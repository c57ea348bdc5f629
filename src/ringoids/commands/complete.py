"""`ringoids complete`: the hom orders of the additive completion on sums
of length at most 2, and the biproduct equations on single objects."""

from . import EXIT_FAIL, EXIT_OK, emit, require_ringoid


def run(args, doc):
    from ..additive import complete
    from ..ringoid import enumerate_objsums
    r = require_ringoid(doc)
    view = complete(r)
    lines = ["additive completion of %s" % r.name]
    sizes = []
    for s in enumerate_objsums(r.objects, 2):
        for t in enumerate_objsums(r.objects, 2):
            sizes.append({"src": list(map(str, s)), "dst": list(map(str, t)),
                          "order": view.hom_order(s, t)})
            lines.append("|Hom(%s, %s)| = %d"
                         % ("+".join(map(str, s)) or "0",
                            "+".join(map(str, t)) or "0",
                            view.hom_order(s, t)))
    biproducts_ok = True
    if r.unital:
        for s in enumerate_objsums(r.objects, 1):
            for t in enumerate_objsums(r.objects, 1):
                i_s, i_t, p_s, p_t = view.biproduct(s, t)
                ok = (view.compose(p_s, i_s) == view.identity(s)
                      and view.compose(p_t, i_t) == view.identity(t)
                      and view.add(view.compose(i_s, p_s),
                                   view.compose(i_t, p_t)) == view.identity(s + t))
                biproducts_ok = biproducts_ok and ok
        lines.append("biproduct equations: %s" % ("ok" if biproducts_ok else "FAILED"))
    emit(args, lines, {"op": "complete", "ringoid": r.name, "hom_orders": sizes,
                       "biproducts_ok": biproducts_ok})
    return EXIT_OK if biproducts_ok else EXIT_FAIL
