"""Finite groupoids, G-sets, transport groupoids, and group ringoids
(including the coefficient-twisted variant over a functorial family of
rings)."""

from __future__ import annotations

from math import lcm

from .abgroup import FinAbGroup
from .constructions import cyclic_ring, tabulate, tabulate_hom
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
        loops = list(g.hom(base, base))
        idx = {mid: i for i, mid in enumerate(loops)}
        table = [[idx[g.compose(loops[j], loops[i])] for j in range(len(loops))]
                 for i in range(len(loops))]
        vertex = FinGroup(loops, table)
        components.append(OrbitComponent(comp_objs, base, vertex,
                                         {i: loops[i] for i in range(len(loops))}))
    return components


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


def group_ringoid_map(source, target, pi, sigma, object_map, morphism_map,
                      name=""):
    """R(F): R pi -> R sigma for a functor F given on objects and on
    morphism ids, on group ringoids over one coefficient ring:
    sum x_g g -> sum x_g F(g)."""
    ro = source.scalar.objects[0]
    rk = len(source.scalar.hom(ro, ro).moduli)
    return tabulate_hom(
        source, target, object_map,
        lambda a, b, x: _linear(sigma, target.hom(object_map[a], object_map[b]),
                                object_map[a], object_map[b],
                                [(morphism_map(g), c)
                                 for g, c in _terms(pi, a, b, x, rk)], rk),
        name=name)


# ---------------------------------------------------------------------------
# Twisted group ringoids over a functorial family of rings.
# ---------------------------------------------------------------------------

class PiRing:
    """A functor from a groupoid to finite commutative unital rings: one ring
    per object and a ring isomorphism per morphism (stored on generators)."""

    __slots__ = ("groupoid", "rings", "maps")

    def __init__(self, groupoid, rings, maps):
        self.groupoid = groupoid
        self.rings = dict(rings)
        self.maps = {mid: tuple(tuple(img) for img in imgs)
                     for mid, imgs in maps.items()}

    def ring(self, obj):
        return self.rings[obj]

    def apply(self, mid, x):
        """Image of x in R_target under the morphism's ring map."""
        _, tgt_obj = self.groupoid.morphisms[mid]
        tgt = self.rings[tgt_obj]
        to = tgt.objects[0]
        return tgt.hom(to, to).combination(x, self.maps[mid])

    @classmethod
    def constant(cls, groupoid, ring):
        """The trivial action: every morphism acts as the identity."""
        ro = ring.objects[0]
        rg = ring.hom(ro, ro)
        imgs = tuple(rg.basis_element(j) for j in range(len(rg.moduli)))
        return cls(groupoid, {a: ring for a in groupoid.objects},
                   {mid: imgs for mid in groupoid.morphisms})


class PiRingError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def validate_pi_ring(pr):
    """Functoriality with certified ring isomorphisms; raises with witness."""
    g = pr.groupoid
    for a in g.objects:
        ring = pr.rings.get(a)
        if ring is None or len(ring.objects) != 1 or not ring.unital:
            raise PiRingError("object %r lacks a one-object unital ring" % (a,))
    for mid, (a, b) in g.morphisms.items():
        src, tgt = pr.rings[a], pr.rings[b]
        so, to = src.objects[0], tgt.objects[0]
        sg, tg = src.hom(so, so), tgt.hom(to, to)
        if len(pr.maps.get(mid, ())) != len(sg.moduli):
            raise PiRingError("map for morphism %r has wrong arity" % (mid,))
        # additive bijection
        seen = set()
        for x in sg.elements():
            y = pr.apply(mid, x)
            if y in seen:
                raise PiRingError("ring map for %r is not injective" % (mid,), witness=x)
            seen.add(y)
        if len(seen) != tg.order():
            raise PiRingError("ring map for %r is not surjective" % (mid,))
        # multiplicative with unit
        for i in range(len(sg.moduli)):
            for j in range(len(sg.moduli)):
                x, y = sg.basis_element(i), sg.basis_element(j)
                lhs = pr.apply(mid, src.compose(so, so, so, x, y))
                rhs = tgt.compose(to, to, to, pr.apply(mid, x), pr.apply(mid, y))
                if lhs != rhs:
                    raise PiRingError("ring map for %r is not multiplicative" % (mid,),
                                      witness=(x, y))
        if pr.apply(mid, src.identity(so)) != tgt.identity(to):
            raise PiRingError("ring map for %r does not preserve the unit" % (mid,))
    for a in g.objects:
        e = g.identity(a)
        ring = pr.rings[a]
        ro = ring.objects[0]
        rg = ring.hom(ro, ro)
        for j in range(len(rg.moduli)):
            x = rg.basis_element(j)
            if pr.apply(e, x) != x:
                raise PiRingError("identity morphism at %r does not act trivially" % (a,),
                                  witness=x)
    for h, (a, b) in g.morphisms.items():
        for gg, (b2, c) in g.morphisms.items():
            if b2 != b:
                continue
            gh = g.compose(gg, h)
            ring = pr.rings[a]
            ro = ring.objects[0]
            rg = ring.hom(ro, ro)
            for j in range(len(rg.moduli)):
                x = rg.basis_element(j)
                if pr.apply(gh, x) != pr.apply(gg, pr.apply(h, x)):
                    raise PiRingError("action is not functorial", witness=(gg, h, x))


def twisted_group_ringoid(pi, pi_ring, name=None):
    """R pi for a pi-ring: Hom(a,b) is the free R_b-module on Hom(a,b)_pi,
    and composition twists coefficients through the action:
    (x g)(y h) = (x . g(y)) (g h)."""
    validate_pi_ring(pi_ring)
    objects = pi.objects
    rings = {b: pi_ring.ring(b) for b in objects}
    coeffs = {b: r.hom(r.objects[0], r.objects[0]) for b, r in rings.items()}
    rk = {b: len(g.moduli) for b, g in coeffs.items()}
    homs = {(a, b): FinAbGroup(coeffs[b].moduli * len(pi.hom(a, b)))
            for a in objects for b in objects}

    def mul(a, b, c, y, x):
        rc, co = rings[c], rings[c].objects[0]
        return _linear(pi, homs[(a, c)], a, c,
                       [(pi.compose(g, h), rc.compose(co, co, co, s, pi_ring.apply(g, t)))
                        for g, s in _terms(pi, b, c, y, rk[c])
                        for h, t in _terms(pi, a, b, x, rk[b])], rk[c])

    identities = {a: _linear(pi, homs[(a, a)], a, a,
                             [(pi.identity(a), rings[a].identity(rings[a].objects[0]))],
                             rk[a])
                  for a in objects}
    if name is None:
        name = "Rtw[%s]" % pi.name
    return tabulate(objects, homs, mul, identities=identities, name=name)


# ---------------------------------------------------------------------------
# R pi  ~  Z pi (x) R, realized with finite coefficients.
# ---------------------------------------------------------------------------

class GroupRingTensorIso:
    __slots__ = ("source", "tensor_product", "theta", "exponent")

    def __init__(self, source, tensor_product, theta, exponent):
        self.source = source
        self.tensor_product = tensor_product
        self.theta = theta
        self.exponent = exponent


def group_ringoid_tensor_iso(pi, scalar):
    """theta: R pi -> (Z/N) pi (x)_Z R where N is the additive exponent of R
    (so N.R = 0 and the target agrees with Z pi (x)_Z R).  theta sends
    x_1 g_1 + ... + x_n g_n to g_1 (x) x_1 + ... + g_n (x) x_n."""
    from .moduloids import tensor

    source = group_ringoid(pi, scalar)
    ro = scalar.objects[0]
    rg = scalar.hom(ro, ro)
    rk = len(rg.moduli)
    exponent = 1
    for d in rg.moduli:
        exponent = lcm(exponent, d)
    zn_pi = group_ringoid(pi, cyclic_ring(exponent, scalar=False, name="Z/%d" % exponent))
    tp = tensor(zn_pi, scalar, name="Z%s[%s](x)%s" % (exponent, pi.name, scalar.name))
    target = tp.ringoid
    def image(a, b, x):
        # g in (Z/N) pi is the element 1 . g, and x_g g goes to (1 . g) (x) x_g
        pures = [tp.pure((a, b), (ro, ro),
                         _linear(pi, zn_pi.hom(a, b), a, b, [(g, (1,))], 1), c)
                 for g, c in _terms(pi, a, b, x, rk)]
        return target.hom((a, ro), (b, ro)).combination([1] * len(pures), pures)

    theta = tabulate_hom(source, target, {a: (a, ro) for a in pi.objects}, image,
                         name="theta")
    return GroupRingTensorIso(source, tp, theta, exponent)


def hom_is_bijective_everywhere(f):
    """Certify a RingoidHom is bijective on every hom-group (enumerative)."""
    for a in f.source.objects:
        for b in f.source.objects:
            src = f.source.hom(a, b)
            tgt = f.target.hom(f.object_map[a], f.object_map[b])
            seen = set()
            for x in src.elements():
                y = f.apply(a, b, x)
                if y in seen:
                    return False
                seen.add(y)
            if len(seen) != tgt.order():
                return False
    return True
