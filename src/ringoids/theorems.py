"""The paper's statements that the library checks but no subcommand
computes: the degree-zero exterior product of a tensor product, the
naturality of the equivariant assembly map, the twisted group ringoid over
a functorial family of rings (a pi-ring), and the isomorphism
R pi = Z pi (x) R of group ringoids.

They are kept apart from the engines they read (`ktheory`, `assembly`,
`groupoids`), so that no CLI process compiles them.
"""

from math import lcm

from .abgroup import FinAbGroup
from .assembly import equivariant_assembly_zero
from .constructions import cyclic_ring, tabulate, tabulate_hom
from .groupoids import _linear, _terms, group_ringoid, transport_groupoid
from .intlinalg import apply_rows, exponent_row
from .ktheory import k0_induced
from .moduloids import tensor
from .ringoid import DEFAULT_CEILING, StructuralError


# ---------------------------------------------------------------------------
# Exterior products.
# ---------------------------------------------------------------------------

class ExteriorProduct:
    """The degree-zero pairing K0(M) x K0(N) -> K0(M (x) N), on generators
    [a].[b] = [a (x) b]; bilinear by construction."""

    __slots__ = ("left", "right", "target", "pair_index", "well_defined",
                 "failing_side")

    def __init__(self, left, right, target, pair_index, well_defined,
                 failing_side):
        self.left = left
        self.right = right
        self.target = target
        self.pair_index = pair_index
        self.well_defined = well_defined
        self.failing_side = failing_side

    def pair(self, u, v):
        n = len(self.target.gen_labels)
        out = [0] * n
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if cj:
                    out[self.pair_index[(i, j)]] += ci * cj
        return out


def exterior_product(left_result, right_result, tensor_prod, target_result):
    """Pairing for a tensor product built by moduloids.tensor, checked for
    well-definedness against all three relation lattices."""
    m = tensor_prod.left
    n = tensor_prod.right
    t = tensor_prod.ringoid
    t_objects = list(t.objects)
    pair_index = {}
    for i, a in enumerate(m.objects):
        for j, b in enumerate(n.objects):
            pair_index[(i, j)] = t_objects.index((a, b))
    sides = []
    vecs = []
    for row in left_result.presentation.relations:
        for j in range(len(n.objects)):
            sides.append(("left", row, j))
            vecs.append({pair_index[(i, j)]: c for i, c in row.items()})
    for row in right_result.presentation.relations:
        for i in range(len(m.objects)):
            sides.append(("right", i, row))
            vecs.append({pair_index[(i, j)]: c for j, c in row.items()})
    failing = [side for side, zero
               in zip(sides, target_result.presentation.kills(vecs)) if not zero]
    return ExteriorProduct(left_result, right_result, target_result,
                           pair_index, not failing,
                           failing[-1] if failing else None)


# ---------------------------------------------------------------------------
# Naturality of the equivariant assembly map.
# ---------------------------------------------------------------------------

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


class NaturalityReport:
    __slots__ = ("assembly_source", "assembly_target", "source_map",
                 "target_map", "commutes", "undecided")

    def __init__(self, assembly_source, assembly_target, source_map,
                 target_map, commutes, undecided):
        self.assembly_source = assembly_source
        self.assembly_target = assembly_target
        self.source_map = list(source_map)
        self.target_map = target_map
        self.commutes = commutes
        self.undecided = undecided


def equivariant_map_is_valid(f, xs, ys):
    """f: X -> Y commutes with the action."""
    for x in xs.points:
        if f[x] not in ys.points:
            return False
        for g in range(len(xs.group)):
            if f[xs.apply(x, g)] != ys.apply(f[x], g):
                return False
    return True


def naturality_check(f, xs, ys, scalar, bound, ceiling=DEFAULT_CEILING):
    """Commutativity of the degree-zero naturality square for a G-map
    f: X -> Y (given as a dict on points): assembly after the induced
    source map equals the induced target map after assembly, as maps into
    the presented K0 of the target transport ringoid."""
    if xs.group is not ys.group:
        raise StructuralError("naturality needs G-sets over the same group")
    if not equivariant_map_is_valid(f, xs, ys):
        raise StructuralError("the map is not equivariant")
    ax = equivariant_assembly_zero(xs, scalar, bound, ceiling=ceiling)
    ay = equivariant_assembly_zero(ys, scalar, bound, ceiling=ceiling)
    bar_x = transport_groupoid(xs)
    bar_y = transport_groupoid(ys)
    ring_x = group_ringoid(bar_x, scalar)
    ring_y = group_ringoid(bar_y, scalar)
    # induced map on the transport ringoids: x -> f(x), (x, g) -> (f(x), g)
    rf = group_ringoid_map(ring_x, ring_y, bar_x, bar_y, f,
                           lambda mid: (f[mid[0]], mid[1]), name="R(f)")
    target_map = k0_induced(rf, ax.target, ay.target)

    # induced map on source summands: orbit of X -> orbit of its image in Y,
    # one generator to one generator (the free rank-1 class maps to the free
    # rank-1 class under the conjugated group-ring inclusion)
    comps_x = ax.components
    comps_y = ay.components
    offsets_y = []
    pos = 0
    for res in ay.source_summands:
        offsets_y.append(pos)
        pos += len(res.gen_labels)
    n_src_y = pos
    source_map = []
    for comp, res in zip(comps_x, ax.source_summands):
        image_pt = f[comp.base]
        cj = next(j for j, cy in enumerate(comps_y) if image_pt in cy.objects)
        source_map += [exponent_row(range(n_src_y), [offsets_y[cj]])
                       for _ in res.gen_labels]
    # compare the two composites modulo the target relation lattice: each
    # difference is the image via the source minus the image via the target
    diffs = [apply_rows({0: 1, 1: -1}, [apply_rows(row, ay.matrix),
                                        target_map.apply(ax_row)])
             for row, ax_row in zip(source_map, ax.matrix)]
    commutes = all(ay.target.presentation.kills(diffs))
    undecided = ax.undecided or ay.undecided
    return NaturalityReport(ax, ay, source_map, target_map, commutes, undecided)


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
