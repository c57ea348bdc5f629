"""Homomorphisms of finite ringoids and the ringoids built from others.

A homomorphism (`RingoidHom`) is an additive functor, stored as an object
map and the images of the hom-group generators.  `tabulate` and
`tabulate_hom` record a bilinear product or an additive map given on
elements on the generators (`ringoid.structure_table`); every
construction here and in `moduloids` and `groupoids` is written as its
formula on elements and recorded by them.  The builders make the standard
rings (Z/n, products, matrix rings) and moduloids (direct sums, zero
moduloids) this way.
"""

from __future__ import annotations

from .abgroup import TRIVIAL_GROUP, FinAbGroup
from .ringoid import (AxiomFailure, FiniteRingoid, StructuralError,
                      ValidationReport, _gens, structure_constants,
                      structure_table)


# ---------------------------------------------------------------------------
# Homomorphisms.
# ---------------------------------------------------------------------------

class RingoidHom:
    """Additive functor between finite ringoids, stored as an object map
    plus the image of each hom-group generator."""

    __slots__ = ("source", "target", "object_map", "gen_images", "name")

    def __init__(self, source, target, object_map, gen_images, name=""):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.gen_images = {key: tuple(tuple(img) for img in imgs)
                           for key, imgs in gen_images.items()}
        self.name = name

    def apply_object(self, a):
        return self.object_map[a]

    def apply(self, a, b, x):
        """Image of x in Hom(Fa, Fb), by additive extension."""
        tgt = self.target.hom(self.object_map[a], self.object_map[b])
        return tgt.combination(x, self.gen_images.get((a, b), ()))

    def __repr__(self):
        return "RingoidHom(%r)" % (self.name,)


def identity_hom(r):
    return tabulate_hom(r, r, {a: a for a in r.objects}, lambda a, b, x: x,
                        name="id")


def validate_hom(f):
    """Check additivity, multiplicativity on generator pairs, and unit
    preservation (when both sides are unital).  Structural problems raise."""
    src, tgt = f.source, f.target
    for a in src.objects:
        if a not in f.object_map or f.object_map[a] not in tgt.objects:
            raise StructuralError("object map does not land in the target")
    failures = []
    for a in src.objects:
        for b in src.objects:
            hom = src.hom(a, b)
            fa, fb = f.object_map[a], f.object_map[b]
            th = tgt.hom(fa, fb)
            imgs = f.gen_images.get((a, b))
            if imgs is None:
                if not hom.is_trivial():
                    raise StructuralError("missing generator images for (%r,%r)" % (a, b))
                continue
            if len(imgs) != len(hom.moduli):
                raise StructuralError("generator image arity mismatch at (%r,%r)" % (a, b))
            for j in range(len(hom.moduli)):
                img = imgs[j]
                if len(img) != len(th.moduli) or img != th.reduce(img):
                    raise StructuralError("generator image out of range at (%r,%r)" % (a, b))
                # additive well-definedness: order of the generator kills the image
                if th.smul(hom.moduli[j], img) != th.zero():
                    failures.append(AxiomFailure("additivity", (a, b), j))
    for a in src.objects:
        for b in src.objects:
            for c in src.objects:
                hbc, hab = src.hom(b, c), src.hom(a, b)
                fa, fb, fc = f.object_map[a], f.object_map[b], f.object_map[c]
                for _, y, _dy in _gens(hbc):
                    fy = f.apply(b, c, y)
                    for _, x, _dx in _gens(hab):
                        lhs = f.apply(a, c, src.compose(a, b, c, y, x))
                        rhs = tgt.compose(fa, fb, fc, fy, f.apply(a, b, x))
                        if lhs != rhs:
                            failures.append(AxiomFailure(
                                "multiplicativity", (a, b, c), (y, x)))
    if src.unital and tgt.unital:
        for a in src.objects:
            if f.apply(a, a, src.identity(a)) != tgt.identity(f.object_map[a]):
                failures.append(AxiomFailure("unit preservation", (a,), src.identity(a)))
    return ValidationReport(failures)


# ---------------------------------------------------------------------------
# Tabulation: a bilinear product given on elements, recorded on generators.
# ---------------------------------------------------------------------------

def _basis(hom):
    return [hom.basis_element(i) for i in range(len(hom.moduli))]


def tabulate(objects, homs, compose, identities=None, scalar=None, act=None,
             name=""):
    """The ringoid on the given objects and hom-groups whose composition is
    compose(a, b, c, y, x), the composite y . x for y in Hom(b,c) and x in
    Hom(a,b), and, when a scalar ring is given, whose scalar action is
    act(a, b, r, x).  Both maps are given on elements and must be bilinear;
    they are evaluated on generators (`ringoid.structure_table`)."""
    objects = tuple(objects)
    basis = {key: _basis(hom) for key, hom in homs.items()}
    table = {(a, b, c): structure_table(
        homs[(b, c)], homs[(a, b)], homs[(a, c)],
        lambda i, j: compose(a, b, c, basis[(b, c)][i], basis[(a, b)][j]))
        for a in objects for b in objects for c in objects}
    action = None
    if scalar is not None:
        ro = scalar.objects[0]
        rg = scalar.hom(ro, ro)
        scalars = _basis(rg)
        action = {(a, b): structure_table(
            rg, homs[(a, b)], homs[(a, b)],
            lambda i, j: act(a, b, scalars[i], basis[(a, b)][j]))
            for a in objects for b in objects}
    return FiniteRingoid(objects, homs, table, identities=identities,
                         scalar=scalar, action=action, name=name)


def tabulate_hom(source, target, object_map, fn, name=""):
    """The additive functor with the given object map that sends x in
    Hom(a,b) to fn(a, b, x), an additive map given on elements and recorded
    on generators."""
    gen_images = {}
    for a in source.objects:
        for b in source.objects:
            tgt = target.hom(object_map[a], object_map[b])
            gen_images[(a, b)] = tuple(tgt.reduce(fn(a, b, x))
                                       for x in _basis(source.hom(a, b)))
    return RingoidHom(source, target, object_map, gen_images, name=name)


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

def one_object_ringoid(moduli, products, identity=None, name="", obj="*"):
    """Ring presented on one object: products[i][j] is generator_i * generator_j
    (note: i is applied second, matching compose(y, x))."""
    hom = FinAbGroup(moduli)
    table = {(obj, obj, obj): structure_table(hom, hom, hom,
                                              lambda i, j: products[i][j])}
    identities = {obj: hom.reduce(identity)} if identity is not None else None
    return FiniteRingoid((obj,), {(obj, obj): hom}, table,
                         identities=identities, name=name)


def with_self_scalar(ring):
    """A one-object commutative unital ring acting on itself by multiplication."""
    if len(ring.objects) != 1:
        raise StructuralError("self-scalar needs a one-object ringoid")
    obj = ring.objects[0]
    scalar = FiniteRingoid(ring.objects, ring.homs, ring.compose_table,
                           identities=ring.identities, name=ring.name)
    return tabulate(ring.objects, ring.homs, ring.compose,
                    identities=ring.identities, scalar=scalar,
                    act=lambda a, b, r, x: ring.compose(obj, obj, obj, r, x),
                    name=ring.name)


def cyclic_ring(n, name=None, scalar=True):
    """Z/n as a one-object ringoid (n = 1 gives the zero ring)."""
    if name is None:
        name = "Z/%d" % n
    hom = FinAbGroup((n,))
    one = hom.reduce((1,))
    ring = one_object_ringoid((n,), ((one,),), identity=one, name=name)
    return with_self_scalar(ring) if scalar else ring


def zero_ring(name="0"):
    return cyclic_ring(1, name=name)


def product_ring(r1, r2, name=None, scalar=False):
    """Componentwise product of two one-object rings."""
    if len(r1.objects) != 1 or len(r2.objects) != 1:
        raise StructuralError("product_ring needs one-object ringoids")
    o1, o2 = r1.objects[0], r2.objects[0]
    h1, h2 = r1.hom(o1, o1), r2.hom(o2, o2)
    k1 = len(h1.moduli)

    def mul(a, b, c, y, x):
        return (r1.compose(o1, o1, o1, y[:k1], x[:k1])
                + r2.compose(o2, o2, o2, y[k1:], x[k1:]))

    ident = None
    if r1.unital and r2.unital:
        ident = {"*": tuple(r1.identity(o1)) + tuple(r2.identity(o2))}
    if name is None:
        name = "%sx%s" % (r1.name, r2.name)
    ring = tabulate(("*",), {("*", "*"): FinAbGroup(h1.moduli + h2.moduli)}, mul,
                    identities=ident, name=name)
    return with_self_scalar(ring) if scalar else ring


def matrix_ring(base, n, name=None):
    """n x n matrices over a one-object ring, End((o,) * n) in its completion
    (`additive.end_ring`).  The entry (p, q) of a matrix is the block of k
    coordinates starting at (p * n + q) * k, for the k generators of the base."""
    from .additive import complete, end_ring
    if len(base.objects) != 1:
        raise StructuralError("matrix_ring needs a one-object base")
    if name is None:
        name = "M%d(%s)" % (n, base.name)
    return end_ring(complete(base), base.objects * n, name)


def direct_sum(r1, r2, name=""):
    """Direct sum of two moduloids on the same object set: hom-groups are
    direct sums, composition and action are componentwise."""
    if tuple(r1.objects) != tuple(r2.objects):
        raise StructuralError("direct sum needs identical object lists")
    objects = r1.objects
    homs = {(a, b): FinAbGroup(r1.hom(a, b).moduli + r2.hom(a, b).moduli)
            for a in objects for b in objects}

    def split(a, b, x):
        k = len(r1.hom(a, b).moduli)
        return x[:k], x[k:]

    def mul(a, b, c, y, x):
        (y1, y2), (x1, x2) = split(b, c, y), split(a, b, x)
        return r1.compose(a, b, c, y1, x1) + r2.compose(a, b, c, y2, x2)

    def act(a, b, r, x):
        x1, x2 = split(a, b, x)
        return r1.act(a, b, r, x1) + r2.act(a, b, r, x2)

    identities = None
    if r1.unital and r2.unital:
        identities = {a: tuple(r1.identity(a)) + tuple(r2.identity(a))
                      for a in objects}
    scalar = r1.scalar if r2.scalar is not None else None
    return tabulate(objects, homs, mul, identities=identities, scalar=scalar,
                    act=act, name=name)


def zero_moduloid(objects, scalar, name="0-moduloid"):
    """Non-unital moduloid over the given ring with every hom-group trivial."""
    objects = tuple(objects)
    homs = {(a, b): TRIVIAL_GROUP for a in objects for b in objects}
    return FiniteRingoid(objects, homs, {}, identities=None, scalar=scalar,
                         action={}, unital=False, name=name)


def forget_units(r, name=None):
    """The same moduloid viewed non-unitally (identity table dropped)."""
    return FiniteRingoid(r.objects, r.homs, r.compose_table, identities=None,
                         scalar=r.scalar, action=r.action, unital=False,
                         name=name if name is not None else r.name)


def ringoid_equal_structure(r1, r2):
    """Literal structural equality of objects, hom moduli, composition,
    identities; ignores names and scalar data."""
    if tuple(r1.objects) != tuple(r2.objects):
        return False
    if r1.homs != r2.homs:
        return False
    if (set(structure_constants(r1.compose_table))
            != set(structure_constants(r2.compose_table))):
        return False
    if r1.unital != r2.unital:
        return False
    if r1.unital and r1.identities != r2.identities:
        return False
    return True
