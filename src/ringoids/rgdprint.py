"""Printing RGD documents in normalized form.

`print_rgd` writes a document in the form `rgd.parse_rgd` reads back, and
`document_from` wraps constructed structures as a document, pulling in
their scalar rings as sections of their own.  Parsing and printing live
in separate modules so that a program that only reads RGD does not load
the printer.
"""

from .rgd import RGDDocument
from .ringoid import FiniteRingoid, structure_constants


def print_rgd(doc):
    lines = []
    for kind, name in doc.order:
        if kind == "ringoid":
            lines.extend(_print_ringoid(doc.ringoids[name], doc))
        elif kind == "groupoid":
            lines.extend(_print_groupoid(doc.groupoids[name]))
        elif kind == "gset":
            lines.extend(_print_gset(name, doc.gsets[name], doc))
        elif kind == "ideal":
            of_name, ideal = doc.ideals[name]
            lines.extend(_print_ideal(name, of_name, ideal))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _scalar_name_of(ringoid, doc):
    for name, r in doc.ringoids.items():
        if r is ringoid.scalar:
            return name
    if ringoid.scalar.name == ringoid.name:
        return ringoid.name
    for name, r in doc.ringoids.items():
        if r.name == ringoid.scalar.name:
            return name
    return None


def _object_name(a):
    """An object as one RGD token: str(a) with spaces removed, so tuple
    objects (tensor products) and int objects (G-set points) print too;
    they parse back as strings."""
    return str(a).replace(" ", "")


def _print_ringoid(r, doc):
    lines = ["ringoid %s" % r.name]
    names = {a: _object_name(a) for a in r.objects}
    for a in r.objects:
        lines.append("object %s" % names[a])
    order = {a: i for i, a in enumerate(r.objects)}
    for a in r.objects:
        for b in r.objects:
            hom = r.hom(a, b)
            if len(hom.moduli):
                lines.append("hom %s %s cyclic %s"
                             % (names[a], names[b], " ".join(str(d) for d in hom.moduli)))
    lines.extend(_constant_lines("compose", r.compose_table, names, order))
    if r.unital and r.identities:
        # a parsed section may declare identities for some objects only
        for a in r.objects:
            if a in r.identities:
                lines.append("identity %s: %s" % (
                    names[a], " ".join(str(x) for x in r.identities[a])))
    if r.scalar is not None:
        sname = _scalar_name_of(r, doc)
        if sname is not None:
            lines.append("scalar %s" % sname)
            lines.extend(_constant_lines("action", r.action, names, order))
    return lines


def _constant_lines(head, tables, names, order):
    """The compose or action lines of a dict of structure-constant tables,
    sorted by object order and then index: a compose line names the right
    factor first, an action line the left one."""
    found = []
    for key, i, j, img in structure_constants(tables):
        k, l = (j, i) if head == "compose" else (i, j)
        found.append(([order[o] for o in key] + [k, l], "%s %s: %d %d -> %s" % (
            head, " ".join(names[o] for o in key), k, l,
            " ".join(str(x) for x in img))))
    found.sort(key=lambda t: t[0])
    return [text for _, text in found]


def _print_groupoid(g):
    lines = ["groupoid %s" % g.name]
    for a in g.objects:
        lines.append("object %s" % (a,))
    for mid, (a, b) in g.morphisms.items():
        lines.append("morphism %s %s %s" % (a, b, mid))
    for a in g.objects:
        lines.append("identity %s %s" % (a, g.identities[a]))
    comp_lines = sorted("compose %s %s -> %s" % (h, gg, k)
                        for (gg, h), k in g.comp.items())
    lines.extend(comp_lines)
    inv_lines = sorted("inverse %s %s" % (mid, inv)
                       for mid, inv in g.inverses.items())
    lines.extend(inv_lines)
    return lines


def _print_gset(name, gset, doc):
    over = None
    for gname, g in doc.groupoids.items():
        if len(g.objects) == 1 and list(g.hom(g.objects[0], g.objects[0])) \
                == list(gset.group.elements):
            over = gname
            break
    lines = ["gset %s over %s" % (name, over if over else "?")]
    for p in gset.points:
        lines.append("point %s" % (p,))
    for p in gset.points:
        for gi in range(len(gset.group)):
            lines.append("act %s %s -> %s" % (p, gset.group.elements[gi],
                                              gset.apply(p, gi)))
    return lines


def _print_ideal(name, of_name, ideal):
    lines = ["ideal %s of %s" % (name, of_name)]
    for (a, b), gens in ideal.gens.items():
        for g in gens:
            lines.append("gen %s %s: %s" % (a, b, " ".join(str(x) for x in g)))
    return lines


def document_from(ringoids=(), groupoids=(), gsets=()):
    """Wrap constructed structures as a document (pulling in scalar rings as
    their own sections so the output is self-contained)."""
    doc = RGDDocument()

    def add_ringoid(r):
        if any(existing is r for existing in doc.ringoids.values()):
            return
        if (r.scalar is not None and r.scalar.name != r.name
                and not any(existing is r.scalar or existing.name == r.scalar.name
                            for existing in doc.ringoids.values())):
            add_ringoid(r.scalar)
        name = r.name or "ringoid%d" % (len(doc.ringoids) + 1)
        base = name
        k = 2
        while name in doc.ringoids:
            name = "%s_%d" % (base, k)
            k += 1
        if name != r.name:
            r = FiniteRingoid(r.objects, r.homs, r.compose_table,
                              identities=r.identities, scalar=r.scalar,
                              action=r.action, unital=r.unital, name=name)
        doc.ringoids[name] = r
        doc.order.append(("ringoid", name))

    for r in ringoids:
        add_ringoid(r)
    for g in groupoids:
        name = g.name or "groupoid%d" % (len(doc.groupoids) + 1)
        doc.groupoids[name] = g
        doc.order.append(("groupoid", name))
    for i, s in enumerate(gsets):
        name = "gset%d" % (i + 1)
        doc.gsets[name] = s
        doc.order.append(("gset", name))
    return doc
