"""Finite groupoids, G-sets, transport groupoids, and group ringoids.

A group ringoid is tabulated by `constructions.tabulate`, which
`group_ringoid` imports when it runs, so validating or transporting a
groupoid or a G-set compiles no construction.  The twisted group ringoid,
the map a functor induces on group ringoids and the group-ring tensor
isomorphism are in `theorems`, which no subcommand loads.
"""

from __future__ import annotations

from .abgroup import FinAbGroup
from .groups import FinGroup
from .ringoid import AxiomFailure, StructuralError, ValidationReport


class FinGroupoid:
    """Finite groupoid: morphism sets with associative composition,
    identities, and a certified two-sided inverse for every morphism.

    comp[(g, h)] = g . h for h: a -> b followed by g: b -> c.
    """

    __slots__ = ("name", "objects", "morphisms", "hom_sets", "comp",
                 "identities", "inverses")

    def __init__(self, objects, morphisms, comp, identities, inverses=None,
                 name=""):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)  # id -> (src, tgt)
        self.hom_sets = {}
        for a in self.objects:
            for b in self.objects:
                self.hom_sets[(a, b)] = tuple(
                    mid for mid, (s, t) in self.morphisms.items()
                    if s == a and t == b)
        self.comp = dict(comp)
        self.identities = dict(identities)
        if inverses is None:
            inverses = self._infer_inverses()
        self.inverses = dict(inverses)

    def hom(self, a, b):
        return self.hom_sets[(a, b)]

    def source(self, mid):
        return self.morphisms[mid][0]

    def target(self, mid):
        return self.morphisms[mid][1]

    def compose(self, g, h):
        """g . h with h applied first."""
        return self.comp[(g, h)]

    def identity(self, a):
        return self.identities[a]

    def inverse(self, mid):
        return self.inverses[mid]

    def _infer_inverses(self):
        out = {}
        for mid, (a, b) in self.morphisms.items():
            for cand in self.hom_sets[(b, a)]:
                if (self.comp.get((cand, mid)) == self.identities[a]
                        and self.comp.get((mid, cand)) == self.identities[b]):
                    out[mid] = cand
                    break
            else:
                raise StructuralError("morphism %r has no inverse" % (mid,))
        return out

    def __repr__(self):
        return "FinGroupoid(%r, %d objects, %d morphisms)" % (
            self.name, len(self.objects), len(self.morphisms))


def validate_groupoid(g):
    """Exhaustive: totality of composition on composables, associativity,
    identity laws, certified two-sided inverses."""
    failures = []
    for mid, (a, b) in g.morphisms.items():
        if a not in g.objects or b not in g.objects:
            raise StructuralError("morphism %r has unknown endpoints" % (mid,))
    for a in g.objects:
        if a not in g.identities:
            raise StructuralError("missing identity at %r" % (a,))
        e = g.identities[a]
        if g.morphisms.get(e) != (a, a):
            raise StructuralError("identity at %r has wrong endpoints" % (a,))
    for h, (a, b) in g.morphisms.items():
        for gg, (b2, c) in g.morphisms.items():
            if b2 != b:
                continue
            k = g.comp.get((gg, h))
            if k is None or g.morphisms.get(k) != (a, c):
                raise StructuralError("composition missing or ill-typed for (%r,%r)" % (gg, h))
    for h, (a, b) in g.morphisms.items():
        if g.comp.get((g.identities[b], h)) != h or g.comp.get((h, g.identities[a])) != h:
            failures.append(AxiomFailure("identity law", (a, b), h))
    for f, (a, b) in g.morphisms.items():
        for gg, (b2, c) in g.morphisms.items():
            if b2 != b:
                continue
            gf = g.comp[(gg, f)]
            for k, (c2, d) in g.morphisms.items():
                if c2 != c:
                    continue
                if g.comp[(k, gf)] != g.comp[(g.comp[(k, gg)], f)]:
                    failures.append(AxiomFailure("associativity", (a, b, c, d), (k, gg, f)))
    for mid, (a, b) in g.morphisms.items():
        inv = g.inverses.get(mid)
        if inv is None or g.morphisms.get(inv) != (b, a) \
                or g.comp.get((inv, mid)) != g.identities[a] \
                or g.comp.get((mid, inv)) != g.identities[b]:
            failures.append(AxiomFailure("inverse", (a, b), mid))
    return ValidationReport(failures)


def group_as_groupoid(group, obj="*", name=None):
    """One-object groupoid on a finite group; morphism ids are element
    indices, and composition g.h (h first) is the product h*g."""
    n = len(group)
    morphisms = {i: (obj, obj) for i in range(n)}
    comp = {(gg, h): group.table[h][gg] for gg in range(n) for h in range(n)}
    identities = {obj: group.identity}
    inverses = {i: group.inv(i) for i in range(n)}
    if name is None:
        name = "G%d" % n
    return FinGroupoid((obj,), morphisms, comp, identities, inverses, name=name)


def discrete_groupoid(objects, name="discrete"):
    morphisms = {("id", a): (a, a) for a in objects}
    comp = {((("id", a)), ("id", a)): ("id", a) for a in objects}
    identities = {a: ("id", a) for a in objects}
    return FinGroupoid(objects, morphisms, comp, identities, name=name)


class GSet:
    """Finite right G-set: points, and an action table point x g -> point."""

    __slots__ = ("group", "points", "act")

    def __init__(self, group, points, act):
        self.group = group
        self.points = tuple(points)
        self.act = dict(act)

    def apply(self, x, gidx):
        return self.act[(x, gidx)]

    def validate(self):
        failures = []
        e = self.group.identity
        for x in self.points:
            for gidx in range(len(self.group)):
                if (x, gidx) not in self.act or self.act[(x, gidx)] not in self.points:
                    raise StructuralError("action undefined or escapes at (%r, %d)" % (x, gidx))
            if self.apply(x, e) != x:
                failures.append(AxiomFailure("action identity", (x,), e))
            for g in range(len(self.group)):
                xg = self.apply(x, g)
                for h in range(len(self.group)):
                    if self.apply(xg, h) != self.apply(x, self.group.mul(g, h)):
                        failures.append(AxiomFailure("action compatibility", (x,), (g, h)))
        return ValidationReport(failures)

    @classmethod
    def regular(cls, group):
        points = tuple(range(len(group)))
        act = {(x, g): group.mul(x, g) for x in points for g in range(len(group))}
        return cls(group, points, act)

    @classmethod
    def trivial(cls, group, points=("pt",)):
        act = {(x, g): x for x in points for g in range(len(group))}
        return cls(group, points, act)


def disjoint_union_gset(xs, ys):
    """Disjoint union with tagged points."""
    if xs.group is not ys.group:
        raise StructuralError("disjoint union needs a shared group")
    points = tuple(("L", p) for p in xs.points) + tuple(("R", p) for p in ys.points)
    act = {}
    for (tag, p) in points:
        src = xs if tag == "L" else ys
        for g in range(len(xs.group)):
            act[((tag, p), g)] = (tag, src.apply(p, g))
    return GSet(xs.group, points, act)


def transport_groupoid(gset, name=None):
    """Objects are the points; Hom(x, y) = {g in G : x.g = y}.  Morphism ids
    are pairs (x, g)."""
    G = gset.group
    morphisms = {}
    for x in gset.points:
        for g in range(len(G)):
            morphisms[(x, g)] = (x, gset.apply(x, g))
    comp = {}
    for (x, g), (_, y) in morphisms.items():
        for h in range(len(G)):
            comp[((y, h), (x, g))] = (x, G.mul(g, h))
    identities = {x: (x, G.identity) for x in gset.points}
    try:
        inverses = {(x, g): (gset.apply(x, g), G.inv(g)) for (x, g) in morphisms}
    except ValueError as exc:
        raise StructuralError("the group of the gset is not a group: %s" % exc) from None
    if name is None:
        name = "transport"
    return FinGroupoid(gset.points, morphisms, comp, identities, inverses, name=name)


class OrbitComponent:
    """One connected component: its objects, the chosen base object, the
    vertex group there, and the inclusion of the vertex group into the
    groupoid (element index -> morphism id)."""

    __slots__ = ("objects", "base", "vertex_group", "morphism_of")

    def __init__(self, objects, base, vertex_group, morphism_of):
        self.objects = tuple(objects)
        self.base = base
        self.vertex_group = vertex_group
        self.morphism_of = dict(morphism_of)


def orbit_skeleton(g):
    """Deterministic skeleton data: one OrbitComponent per connected
    component, in object order, based at its least object with the vertex
    group there."""
    remaining = list(g.objects)
    components = []
    while remaining:
        base = remaining[0]
        comp_objs = [o for o in g.objects
                     if g.hom(base, o) or o == base]
        remaining = [o for o in remaining if o not in comp_objs]
        vertex = _vertex_group(g, base)
        components.append(OrbitComponent(comp_objs, base, vertex,
                                         dict(enumerate(vertex.elements))))
    return components


def _vertex_group(g, a):
    """The group of loops at a, in g.hom(a, a) order, where element i times
    element j is loop i followed by loop j (ValueError when not a group)."""
    loops = list(g.hom(a, a))
    idx = {mid: i for i, mid in enumerate(loops)}
    table = [[idx[g.compose(loops[j], loops[i])] for j in range(len(loops))]
             for i in range(len(loops))]
    return FinGroup(loops, table)


# ---------------------------------------------------------------------------
# Group ringoids.
# ---------------------------------------------------------------------------

def _terms(pi, a, b, x, rk):
    """An element of a linearized Hom(a,b), whose coordinates are one block
    of rk per morphism in pi.hom(a, b) order, as (morphism, coefficient)
    pairs with the zero coefficients left out."""
    out = []
    for pos, mid in enumerate(pi.hom(a, b)):
        coeff = x[pos * rk:(pos + 1) * rk]
        if any(coeff):
            out.append((mid, coeff))
    return out


def _linear(pi, hom, a, b, terms, rk):
    """The element of a linearized Hom(a,b) that is the sum of its
    (morphism, coefficient) terms."""
    mids = pi.hom(a, b)
    out = [0] * len(hom.moduli)
    for mid, coeff in terms:
        pos = mids.index(mid) * rk
        for t, v in enumerate(coeff):
            out[pos + t] += v
    return hom.reduce(out)


def group_ringoid(pi, scalar, name=None):
    """R pi: the free R-linearization of a groupoid, with convolution
    composition (x_i g_i)(y_j h_j) = (x_i y_j)(g_i h_j) and scalar action
    on coefficients."""
    from .constructions import tabulate
    ro = scalar.objects[0]
    rg = scalar.hom(ro, ro)
    rk = len(rg.moduli)
    objects = pi.objects
    homs = {(a, b): FinAbGroup(rg.moduli * len(pi.hom(a, b)))
            for a in objects for b in objects}

    def mul(a, b, c, y, x):
        return _linear(pi, homs[(a, c)], a, c,
                       [(pi.compose(g, h), scalar.compose(ro, ro, ro, s, t))
                        for g, s in _terms(pi, b, c, y, rk)
                        for h, t in _terms(pi, a, b, x, rk)], rk)

    def act(a, b, r, x):
        return _linear(pi, homs[(a, b)], a, b,
                       [(h, scalar.compose(ro, ro, ro, r, t))
                        for h, t in _terms(pi, a, b, x, rk)], rk)

    identities = {a: _linear(pi, homs[(a, a)], a, a,
                             [(pi.identity(a), scalar.identity(ro))], rk)
                  for a in objects}
    if name is None:
        name = "%s[%s]" % (scalar.name, pi.name)
    return tabulate(objects, homs, mul, identities=identities, scalar=scalar,
                    act=act, name=name)
