"""The groupoid, gset and ideal sections of the RGD format.

`rgd.parse_rgd` imports this module at the first such section header, so
a process that reads ringoids alone never compiles these parsers.  The
grammar of each section is in the `rgd` docstring.
"""

from __future__ import annotations

from .rgd import (RGDSemanticError, RGDSyntaxError, _int, _split_arrow,
                  _strip_colon)
from .ringoid import StructuralError


class _GroupoidBuilder:
    def __init__(self, name, lineno):
        self.name = name
        self.lineno = lineno
        self.objects = []
        self.morphisms = {}
        self.compose = {}
        self.identities = {}
        self.inverses = {}

    def build(self):
        from .groupoids import FinGroupoid

        comp = dict(self.compose)
        identities = dict(self.identities)
        for a in self.objects:
            if a in identities:
                continue
            loops = [m for m, (s, t) in self.morphisms.items() if s == a and t == a]
            candidates = []
            for e in loops:
                good = True
                for m, (s, t) in self.morphisms.items():
                    if s == a and comp.get((m, e)) not in (None, m):
                        good = False
                    if t == a and comp.get((e, m)) not in (None, m):
                        good = False
                if good and comp.get((e, e)) == e:
                    candidates.append(e)
            if len(candidates) != 1:
                raise RGDSemanticError(self.lineno,
                                       "cannot infer the identity at object %r of "
                                       "groupoid %r; declare it" % (a, self.name))
            identities[a] = candidates[0]
        try:
            return FinGroupoid(self.objects, self.morphisms, comp, identities,
                               self.inverses or None, name=self.name)
        except StructuralError as exc:
            raise RGDSemanticError(self.lineno, "groupoid %r: %s" % (self.name, exc))


def _build_gset(section, doc):
    from .groupoids import GSet
    from .groups import FinGroup

    g = doc.groupoids.get(section["over"])
    if g is None:
        raise RGDSemanticError(section["line"], "gset %r is over undeclared groupoid %r"
                               % (section["name"], section["over"]))
    if len(g.objects) != 1:
        raise RGDSemanticError(section["line"], "gset group %r must have one object"
                               % (section["over"],))
    obj = g.objects[0]
    mids = list(g.hom(obj, obj))
    missing = [(h, k) for h in mids for k in mids if (k, h) not in g.comp]
    if missing:
        raise RGDSemanticError(section["line"], "gset %r: groupoid %r has no line "
                               "'compose %s %s'"
                               % (section["name"], section["over"], *missing[0]))
    table = [[mids.index(g.compose(mids[j], mids[i])) for j in range(len(mids))]
             for i in range(len(mids))]
    try:
        group = FinGroup(mids, table)
    except ValueError as exc:
        raise RGDSemanticError(section["line"], "gset %r: the loops of groupoid %r: %s"
                               % (section["name"], section["over"], exc)) from None
    points = section["points"]
    act = {}
    for (x, gid, y, lineno) in section["acts"]:
        if x not in points or y not in points:
            raise RGDSemanticError(lineno, "act line names an unknown point")
        if gid not in mids:
            raise RGDSemanticError(lineno, "act line names an unknown morphism %r" % (gid,))
        act[(x, group.index(gid))] = y
    for x in points:
        for gi in range(len(group)):
            act.setdefault((x, gi), None)
    for (x, gi), y in act.items():
        if y is None:
            raise RGDSemanticError(section["line"],
                                   "gset %r: action of %r on point %r undeclared"
                                   % (section["name"], mids[gi], x))
    return GSet(group, points, act)


def _build_ideal(section, doc):
    from .moduloids import Ideal

    parent = doc.ringoids.get(section["of"])
    if parent is None:
        raise RGDSemanticError(section["line"], "ideal %r is of undeclared ringoid %r"
                               % (section["name"], section["of"]))
    gens = {}
    for (a, b, coords, lineno) in section["gens"]:
        hom = parent.homs.get((a, b))
        if hom is None:
            raise RGDSemanticError(lineno, "unknown hom (%r, %r)" % (a, b))
        if len(coords) != len(hom.moduli):
            raise RGDSemanticError(lineno, "generator has %d coordinates, hom has %d"
                                   % (len(coords), len(hom.moduli)))
        gens.setdefault((a, b), []).append(hom.reduce(coords))
    return Ideal(parent, gens)


def _groupoid_line(b, head, toks, lineno, col0):
    if head == "object":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "object takes exactly one id")
        b.objects.append(toks[1][0])
        return
    if head == "morphism":
        if len(toks) != 4:
            raise RGDSyntaxError(lineno, col0, "expected: morphism A B ID")
        a, bb, mid = toks[1][0], toks[2][0], toks[3][0]
        if a not in b.objects or bb not in b.objects:
            raise RGDSemanticError(lineno, "morphism endpoints must be declared objects")
        if mid in b.morphisms:
            raise RGDSemanticError(lineno, "duplicate morphism id %r" % (mid,))
        b.morphisms[mid] = (a, bb)
        return
    if head == "identity":
        if len(toks) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: identity A ID")
        a, mid = toks[1][0], toks[2][0]
        if mid not in b.morphisms or b.morphisms[mid] != (a, a):
            raise RGDSemanticError(lineno, "identity must be a declared loop at %r" % (a,))
        b.identities[a] = mid
        return
    if head == "compose":
        left, right = _split_arrow(toks[1:], lineno, col0)
        if len(left) != 2 or len(right) != 1:
            raise RGDSyntaxError(lineno, col0, "expected: compose h g -> k")
        h, g, k = left[0][0], left[1][0], right[0][0]
        for mid in (h, g, k):
            if mid not in b.morphisms:
                raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
        b.compose[(g, h)] = k
        return
    if head == "inverse":
        if len(toks) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: inverse ID ID")
        g, h = toks[1][0], toks[2][0]
        for mid in (g, h):
            if mid not in b.morphisms:
                raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
        b.inverses[g] = h
        return
    raise RGDSyntaxError(lineno, col0, "unknown groupoid directive %r" % (head,))


def _gset_line(section, head, toks, lineno, col0):
    if head == "point":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "point takes exactly one id")
        section["points"].append(toks[1][0])
        return
    if head == "act":
        left, right = _split_arrow(toks[1:], lineno, col0)
        if len(left) != 2 or len(right) != 1:
            raise RGDSyntaxError(lineno, col0, "expected: act X g -> Y")
        section["acts"].append((left[0][0], left[1][0], right[0][0], lineno))
        return
    raise RGDSyntaxError(lineno, col0, "unknown gset directive %r" % (head,))


def _ideal_line(section, head, toks, lineno, col0):
    if head == "gen":
        heads, tail = _strip_colon(toks, lineno, col0)
        if len(heads) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: gen A B: c1 ...")
        coords = [_int(t, lineno, c) for t, c in tail]
        section["gens"].append((heads[1][0], heads[2][0], coords, lineno))
        return
    raise RGDSyntaxError(lineno, col0, "unknown ideal directive %r" % (head,))
