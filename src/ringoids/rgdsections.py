"""The groupoid, gset and ideal sections of the RGD format, one class
each with the section protocol of `rgd.parse_rgd`, found by header word
in `SECTIONS`.

`rgd.parse_rgd` imports this module at the first such section header, so
a process that reads ringoids alone never compiles these parsers.  The
grammar of each section is in the `rgd` docstring.
"""

from .rgd import (RGDSemanticError, RGDSyntaxError, _declare, _int,
                  _split_arrow, _strip_colon)
from .ringoid import StructuralError


class _GroupoidBuilder:
    kind = "groupoid"
    stage = 0

    def __init__(self, toks, lineno):
        self.name = toks[1][0]
        self.lineno = lineno
        self.objects = []
        self.morphisms = {}
        self.compose = {}
        self.identities = {}
        self.inverses = {}
        self.lines = {}   # the line of each identity, compose and inverse

    def line(self, head, toks, lineno, col0):
        if head == "object":
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "object takes exactly one id")
            if toks[1][0] in self.objects:
                raise RGDSemanticError(lineno, "duplicate object %r" % (toks[1][0],))
            self.objects.append(toks[1][0])
            return
        if head == "morphism":
            if len(toks) != 4:
                raise RGDSyntaxError(lineno, col0, "expected: morphism A B ID")
            a, b, mid = toks[1][0], toks[2][0], toks[3][0]
            if a not in self.objects or b not in self.objects:
                raise RGDSemanticError(lineno, "morphism endpoints must be declared objects")
            if mid in self.morphisms:
                raise RGDSemanticError(lineno, "duplicate morphism id %r" % (mid,))
            self.morphisms[mid] = (a, b)
            return
        if head == "identity":
            if len(toks) != 3:
                raise RGDSyntaxError(lineno, col0, "expected: identity A ID")
            a, mid = toks[1][0], toks[2][0]
            if mid not in self.morphisms or self.morphisms[mid] != (a, a):
                raise RGDSemanticError(lineno, "identity must be a declared loop at %r" % (a,))
            _declare(self.lines, ("identity", a), lineno, "identity %s" % a)
            self.identities[a] = mid
            return
        if head == "compose":
            left, right = _split_arrow(toks[1:], lineno, col0)
            if len(left) != 2 or len(right) != 1:
                raise RGDSyntaxError(lineno, col0, "expected: compose h g -> k")
            h, g, k = left[0][0], left[1][0], right[0][0]
            for mid in (h, g, k):
                if mid not in self.morphisms:
                    raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
            _declare(self.lines, ("compose", h, g), lineno, "compose %s %s" % (h, g))
            self.compose[(g, h)] = k
            return
        if head == "inverse":
            if len(toks) != 3:
                raise RGDSyntaxError(lineno, col0, "expected: inverse ID ID")
            g, h = toks[1][0], toks[2][0]
            for mid in (g, h):
                if mid not in self.morphisms:
                    raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
            _declare(self.lines, ("inverse", g), lineno, "inverse %s" % g)
            self.inverses[g] = h
            return
        raise RGDSyntaxError(lineno, col0, "unknown groupoid directive %r" % (head,))

    def build(self, doc):
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


class _GSetSection:
    kind = "gset"
    stage = 1   # once the document is read: its groupoid may come later

    def __init__(self, toks, lineno):
        self.name, self.over = toks[1][0], toks[3][0]
        self.lineno = lineno
        self.points = []
        self.acts = []   # (x, g, y, line)
        self.lines = {}  # (x, g) -> the line of its act

    def line(self, head, toks, lineno, col0):
        if head == "point":
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "point takes exactly one id")
            if toks[1][0] in self.points:
                raise RGDSemanticError(lineno, "duplicate point %r" % (toks[1][0],))
            self.points.append(toks[1][0])
            return
        if head == "act":
            left, right = _split_arrow(toks[1:], lineno, col0)
            if len(left) != 2 or len(right) != 1:
                raise RGDSyntaxError(lineno, col0, "expected: act X g -> Y")
            x, g = left[0][0], left[1][0]
            _declare(self.lines, (x, g), lineno, "act %s %s" % (x, g))
            self.acts.append((x, g, right[0][0], lineno))
            return
        raise RGDSyntaxError(lineno, col0, "unknown gset directive %r" % (head,))

    def build(self, doc):
        from .groupoids import GSet, _vertex_group

        g = doc.groupoids.get(self.over)
        if g is None:
            raise RGDSemanticError(self.lineno, "gset %r is over undeclared groupoid %r"
                                   % (self.name, self.over))
        if len(g.objects) != 1:
            raise RGDSemanticError(self.lineno, "gset group %r must have one object"
                                   % (self.over,))
        obj = g.objects[0]
        mids = list(g.hom(obj, obj))
        missing = [(h, k) for h in mids for k in mids if (k, h) not in g.comp]
        if missing:
            raise RGDSemanticError(self.lineno, "gset %r: groupoid %r has no line "
                                   "'compose %s %s'"
                                   % (self.name, self.over, *missing[0]))
        try:
            group = _vertex_group(g, obj)
        except ValueError as exc:
            raise RGDSemanticError(self.lineno, "gset %r: the loops of groupoid %r: %s"
                                   % (self.name, self.over, exc)) from None
        act = {}
        for (x, gid, y, lineno) in self.acts:
            if x not in self.points or y not in self.points:
                raise RGDSemanticError(lineno, "act line names an unknown point")
            if gid not in mids:
                raise RGDSemanticError(lineno, "act line names an unknown morphism %r" % (gid,))
            act[(x, group.index(gid))] = y
        for x in self.points:
            for gi in range(len(group)):
                if (x, gi) not in act:
                    raise RGDSemanticError(
                        self.lineno, "gset %r: action of %r on point %r undeclared"
                        % (self.name, mids[gi], x))
        return GSet(group, self.points, act)


class _IdealSection:
    kind = "ideal"
    stage = 2   # once the document is read, after every G-set

    def __init__(self, toks, lineno):
        self.name, self.of = toks[1][0], toks[3][0]
        self.lineno = lineno
        self.gens = []   # (a, b, coords, line)

    def line(self, head, toks, lineno, col0):
        if head == "gen":
            heads, tail = _strip_colon(toks, lineno, col0)
            if len(heads) != 3:
                raise RGDSyntaxError(lineno, col0, "expected: gen A B: c1 ...")
            coords = [_int(t, lineno, c) for t, c in tail]
            self.gens.append((heads[1][0], heads[2][0], coords, lineno))
            return
        raise RGDSyntaxError(lineno, col0, "unknown ideal directive %r" % (head,))

    def build(self, doc):
        from .moduloids import Ideal

        parent = doc.ringoids.get(self.of)
        if parent is None:
            raise RGDSemanticError(self.lineno, "ideal %r is of undeclared ringoid %r"
                                   % (self.name, self.of))
        gens = {}
        for (a, b, coords, lineno) in self.gens:
            hom = parent.homs.get((a, b))
            if hom is None:
                raise RGDSemanticError(lineno, "unknown hom (%r, %r)" % (a, b))
            if len(coords) != len(hom.moduli):
                raise RGDSemanticError(lineno, "generator has %d coordinates, hom has %d"
                                       % (len(coords), len(hom.moduli)))
            gens.setdefault((a, b), []).append(hom.reduce(coords))
        return self.of, Ideal(parent, gens)


SECTIONS = {"groupoid": _GroupoidBuilder, "gset": _GSetSection,
            "ideal": _IdealSection}
