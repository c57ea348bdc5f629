"""Finite ringoids and moduloids.

A finite ringoid is a category with finitely many objects whose hom-sets
are finite abelian groups and whose composition is bilinear.  Composition
is stored as structure constants on the generators of the hom-groups; by
bilinearity that determines everything, and every axiom check reduces to
an exhaustive check on generators.

A moduloid additionally carries a commutative unital scalar ring (itself
a one-object ringoid) acting on every hom-group.  "Topological" data is
always discrete here, so continuity conditions are vacuous and are not
represented.
"""

from __future__ import annotations

from .abgroup import FinAbGroup

# Full multiplication tables are cached per object triple when the pair
# space is at most this large.
_PAIR_CACHE_LIMIT = 1 << 16

# Default candidate ceiling of the searches in the additive completion
# (re-exported by `additive`); defined here so that the CLI's parser does
# not load the completion.
DEFAULT_CEILING = 1 << 20


class StructuralError(Exception):
    """Malformed structure data (bad index, wrong arity) as opposed to a
    violated ringoid axiom."""


class AxiomFailure:
    """A single violated axiom with a witnessing tuple of generators."""

    __slots__ = ("axiom", "location", "witness", "detail")

    def __init__(self, axiom, location, witness, detail=""):
        self.axiom = axiom
        self.location = location
        self.witness = witness
        self.detail = detail

    def __repr__(self):
        return "AxiomFailure(%s at %r, witness %r%s)" % (
            self.axiom, self.location, self.witness,
            ": " + self.detail if self.detail else "")


class ValidationReport:
    __slots__ = ("failures",)

    def __init__(self, failures=()):
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures

    def axioms_violated(self):
        out = []
        for f in self.failures:
            if f.axiom not in out:
                out.append(f.axiom)
        return out

    def __repr__(self):
        if self.ok:
            return "ValidationReport(clean)"
        return "ValidationReport(%d failures: %s)" % (
            len(self.failures), ", ".join(self.axioms_violated()))


class FiniteRingoid:
    """Objects, hom-groups, and bilinear composition by structure constants.

    compose_table[(a, b, c)][i][j] is the composite (gen i of Hom(b,c)) after
    (gen j of Hom(a,b)), an element of Hom(a,c).  Missing triples mean the
    zero composition.  action[(a, b)][r][x] is (scalar gen r) . (gen x).
    """

    __slots__ = ("name", "objects", "homs", "compose_table", "identities",
                 "scalar", "action", "unital", "_pair_mul", "_completion")

    def __init__(self, objects, homs, compose_table, identities=None,
                 scalar=None, action=None, unital=None, name=""):
        self.name = name
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.compose_table = {
            key: tuple(tuple(tuple(img) for img in row) for row in table)
            for key, table in compose_table.items()}
        self.identities = dict(identities) if identities else None
        self.scalar = scalar
        self.action = ({key: tuple(tuple(tuple(img) for img in row) for row in table)
                        for key, table in action.items()} if action else None)
        self.unital = (self.identities is not None) if unital is None else unital
        self._pair_mul = {}
        self._completion = None

    # -- basic access -------------------------------------------------

    def hom(self, a, b):
        try:
            return self.homs[(a, b)]
        except KeyError:
            raise StructuralError("no hom-group declared for (%r, %r)" % (a, b))

    def zero(self, a, b):
        return self.hom(a, b).zero()

    def identity(self, a):
        if not self.unital or self.identities is None:
            raise StructuralError("ringoid %r is not unital" % (self.name,))
        return self.identities[a]

    def is_zero_ringoid(self):
        return all(g.is_trivial() for g in self.homs.values())

    # -- composition and scalar action ---------------------------------

    def compose(self, a, b, c, y, x):
        """Composite y . x for y in Hom(b,c), x in Hom(a,b)."""
        mul = self._pair_mul.get((a, b, c))
        if mul is None:
            mul = self._build_pair_mul(a, b, c)
        if mul is not False:
            return mul[(y, x)]
        return self._compose_raw(a, b, c, y, x)

    def _build_pair_mul(self, a, b, c):
        hbc, hab = self.hom(b, c), self.hom(a, b)
        if hbc.order() * hab.order() > _PAIR_CACHE_LIMIT:
            self._pair_mul[(a, b, c)] = False
            return False
        table = {}
        for y in hbc.elements():
            for x in hab.elements():
                table[(y, x)] = self._compose_raw(a, b, c, y, x)
        self._pair_mul[(a, b, c)] = table
        return table

    def _compose_raw(self, a, b, c, y, x):
        return _bilinear(self.hom(a, c), self.compose_table.get((a, b, c)), y, x)

    def act(self, a, b, r, x):
        """Scalar action r . x for r in the scalar ring, x in Hom(a,b)."""
        if self.scalar is None:
            raise StructuralError("ringoid %r has no scalar ring" % (self.name,))
        table = self.action.get((a, b)) if self.action else None
        return _bilinear(self.hom(a, b), table, r, x)

    def __repr__(self):
        return "FiniteRingoid(%r, %d objects)" % (self.name, len(self.objects))


def _bilinear(hom, table, y, x):
    """The bilinear extension of structure constants: the sum over i, j of
    y_i * x_j * table[i][j] in hom (a missing table is the zero map)."""
    if table is None:
        return hom.zero()
    return hom.combination([yi * xj for yi in y for xj in x],
                           [img for row in table for img in row])


# ---------------------------------------------------------------------------
# Structural well-formedness (raises) and axiom validation (reports).
# ---------------------------------------------------------------------------

def _check_structure(r):
    for a in r.objects:
        for b in r.objects:
            if (a, b) not in r.homs:
                raise StructuralError("missing hom-group (%r, %r)" % (a, b))
    for (a, b, c), table in r.compose_table.items():
        for o in (a, b, c):
            if o not in r.objects:
                raise StructuralError("compose table names unknown object %r" % (o,))
        hbc, hab, hac = r.hom(b, c), r.hom(a, b), r.hom(a, c)
        if len(table) != len(hbc.moduli):
            raise StructuralError("compose table (%r,%r,%r) has wrong height" % (a, b, c))
        for row in table:
            if len(row) != len(hab.moduli):
                raise StructuralError("compose table (%r,%r,%r) has wrong width" % (a, b, c))
            for img in row:
                if len(img) != len(hac.moduli) or not hac.contains(hac.reduce(img)):
                    raise StructuralError(
                        "structure constant out of range in (%r,%r,%r)" % (a, b, c))
                if img != hac.reduce(img):
                    raise StructuralError(
                        "unreduced structure constant in (%r,%r,%r)" % (a, b, c))
    if r.unital:
        if r.identities is None:
            raise StructuralError("unital ringoid without identity table")
        for a in r.objects:
            if a not in r.identities:
                raise StructuralError("missing identity at %r" % (a,))
            if not r.hom(a, a).contains(r.identities[a]):
                raise StructuralError("identity at %r out of range" % (a,))
    if r.scalar is not None:
        if len(r.scalar.objects) != 1:
            raise StructuralError("scalar ring must have exactly one object")
        ro = r.scalar.objects[0]
        rg = r.scalar.hom(ro, ro)
        for a in r.objects:
            for b in r.objects:
                table = (r.action or {}).get((a, b))
                hom = r.hom(a, b)
                if table is None:
                    if not hom.is_trivial():
                        raise StructuralError("missing action table for (%r, %r)" % (a, b))
                    continue
                if len(table) != len(rg.moduli):
                    raise StructuralError("action table (%r,%r) has wrong height" % (a, b))
                for row in table:
                    if len(row) != len(hom.moduli):
                        raise StructuralError("action table (%r,%r) has wrong width" % (a, b))
                    for img in row:
                        if len(img) != len(hom.moduli) or img != hom.reduce(img):
                            raise StructuralError(
                                "action constant out of range in (%r,%r)" % (a, b))


def _gens(hom):
    return [(i, hom.basis_element(i), hom.moduli[i])
            for i in range(len(hom.moduli)) if hom.moduli[i] > 1]


def validate(r):
    """Exhaustive generator-level axiom check.

    Accepts exactly the structures whose bilinear extension satisfies every
    ringoid (and, when a scalar ring is present, moduloid) axiom.  Returns a
    report listing each violated axiom with a witness; raises StructuralError
    on malformed data.
    """
    _check_structure(r)
    failures = []

    # bilinear well-definedness: the order of each generator kills its products
    for a in r.objects:
        for b in r.objects:
            for c in r.objects:
                hbc, hab, hac = r.hom(b, c), r.hom(a, b), r.hom(a, c)
                for i, y, dy in _gens(hbc):
                    for j, x, dx in _gens(hab):
                        img = r.compose(a, b, c, y, x)
                        if hac.smul(dy, img) != hac.zero() or hac.smul(dx, img) != hac.zero():
                            failures.append(AxiomFailure(
                                "bilinearity", (a, b, c), (i, j),
                                "generator orders do not kill the product"))

    # associativity on generator triples
    for a in r.objects:
        for b in r.objects:
            for c in r.objects:
                for d in r.objects:
                    hcd, hbc, hab = r.hom(c, d), r.hom(b, c), r.hom(a, b)
                    for _, z, _dz in _gens(hcd):
                        for _, y, _dy in _gens(hbc):
                            zy = r.compose(b, c, d, z, y)
                            for _, x, _dx in _gens(hab):
                                yx = r.compose(a, b, c, y, x)
                                if r.compose(a, b, d, zy, x) != r.compose(a, c, d, z, yx):
                                    failures.append(AxiomFailure(
                                        "associativity", (a, b, c, d), (z, y, x)))

    # identity laws
    if r.unital:
        for a in r.objects:
            for b in r.objects:
                hab = r.hom(a, b)
                ea, eb = r.identities[a], r.identities[b]
                for _, x, _d in _gens(hab):
                    if r.compose(a, b, b, eb, x) != x:
                        failures.append(AxiomFailure("left identity", (a, b), x))
                    if r.compose(a, a, b, x, ea) != x:
                        failures.append(AxiomFailure("right identity", (a, b), x))

    # scalar ring and moduloid axioms
    if r.scalar is not None:
        s = r.scalar
        sub = validate(s)
        for f in sub.failures:
            failures.append(AxiomFailure("scalar ring " + f.axiom, f.location, f.witness))
        if not s.unital:
            failures.append(AxiomFailure("scalar unital", (), ()))
        ro = s.objects[0]
        rg = s.hom(ro, ro)
        for _, x, _d in _gens(rg):
            for _, y, _e in _gens(rg):
                if s.compose(ro, ro, ro, x, y) != s.compose(ro, ro, ro, y, x):
                    failures.append(AxiomFailure("scalar commutativity", (ro,), (x, y)))
        one = s.identities[ro] if s.unital else None
        for a in r.objects:
            for b in r.objects:
                hab = r.hom(a, b)
                for i, x, dx in _gens(hab):
                    for k, rr, dr in _gens(rg):
                        img = r.act(a, b, rr, x)
                        if hab.smul(dr, img) != hab.zero() or hab.smul(dx, img) != hab.zero():
                            failures.append(AxiomFailure(
                                "action bilinearity", (a, b), (k, i)))
                    if one is not None and r.act(a, b, one, x) != x:
                        failures.append(AxiomFailure("action unit", (a, b), x))
                    for _, r1, _d1 in _gens(rg):
                        for _, r2, _d2 in _gens(rg):
                            r12 = s.compose(ro, ro, ro, r1, r2)
                            if r.act(a, b, r12, x) != r.act(a, b, r1, r.act(a, b, r2, x)):
                                failures.append(AxiomFailure(
                                    "action associativity", (a, b), (r1, r2, x)))
        # r(yx) = (ry)x and r(yx) = y(rx) on generators; the second equation
        # is what makes composition balanced for tensor products.
        for a in r.objects:
            for b in r.objects:
                for c in r.objects:
                    hbc, hab = r.hom(b, c), r.hom(a, b)
                    for _, rr, _dr in _gens(rg):
                        for _, y, _dy in _gens(hbc):
                            ry = r.act(b, c, rr, y)
                            for _, x, _dx in _gens(hab):
                                yx = r.compose(a, b, c, y, x)
                                left = r.act(a, c, rr, yx)
                                if left != r.compose(a, b, c, ry, x):
                                    failures.append(AxiomFailure(
                                        "moduloid r(yx)=(ry)x", (a, b, c), (rr, y, x)))
                                if left != r.compose(a, b, c, y, r.act(a, b, rr, x)):
                                    failures.append(AxiomFailure(
                                        "moduloid r(yx)=y(rx)", (a, b, c), (rr, y, x)))
    return ValidationReport(failures)


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

    def compose_with(self, other):
        """self after other (other applies first)."""
        if other.target is not self.source:
            raise StructuralError("homomorphisms do not compose")
        object_map = {a: self.object_map[fa] for a, fa in other.object_map.items()}
        return tabulate_hom(
            other.source, self.target, object_map,
            lambda a, b, x: self.apply(other.object_map[a], other.object_map[b],
                                       other.apply(a, b, x)))

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
    they are evaluated on generators, so this is the only construction
    that knows the structure-constant layout."""
    objects = tuple(objects)
    basis = {key: _basis(hom) for key, hom in homs.items()}
    table = {}
    for a in objects:
        for b in objects:
            for c in objects:
                hac = homs[(a, c)]
                table[(a, b, c)] = tuple(
                    tuple(hac.reduce(compose(a, b, c, y, x)) for x in basis[(a, b)])
                    for y in basis[(b, c)])
    action = None
    if scalar is not None:
        ro = scalar.objects[0]
        action = {(a, b): tuple(
            tuple(homs[(a, b)].reduce(act(a, b, r, x)) for x in basis[(a, b)])
            for r in _basis(scalar.hom(ro, ro)))
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
    table = {(obj, obj, obj): tuple(tuple(hom.reduce(img) for img in row)
                                    for row in products)}
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
    """n x n matrices over a one-object ring, as a one-object ringoid.  The
    entry (p, q) of a matrix is the block of k coordinates starting at
    (p * n + q) * k, for the k generators of the base."""
    if len(base.objects) != 1:
        raise StructuralError("matrix_ring needs a one-object base")
    o = base.objects[0]
    h = base.hom(o, o)
    k = len(h.moduli)

    def entry(x, p, q):
        return x[(p * n + q) * k:(p * n + q + 1) * k]

    def mul(a, b, c, y, x):
        out = ()
        for p in range(n):
            for q in range(n):
                acc = h.zero()
                for t in range(n):
                    acc = h.add(acc, base.compose(o, o, o, entry(y, p, t), entry(x, t, q)))
                out += acc
        return out

    ident = None
    if base.unital:
        one = base.identity(o)
        ident = {"*": tuple(v for p in range(n) for q in range(n)
                            for v in (one if p == q else h.zero()))}
    if name is None:
        name = "M%d(%s)" % (n, base.name)
    return tabulate(("*",), {("*", "*"): FinAbGroup(h.moduli * (n * n))}, mul,
                    identities=ident, name=name)


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
    from .abgroup import TRIVIAL_GROUP
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
    for key in set(r1.homs) | set(r2.homs):
        if r1.homs.get(key) != r2.homs.get(key):
            return False
    keys = set(r1.compose_table) | set(r2.compose_table)
    for key in keys:
        a, b, c = key
        t1 = r1.compose_table.get(key)
        t2 = r2.compose_table.get(key)
        if t1 is None:
            t1 = _zero_key_table(r1, a, b, c)
        if t2 is None:
            t2 = _zero_key_table(r2, a, b, c)
        if t1 != t2:
            return False
    if r1.unital != r2.unital:
        return False
    if r1.unital and r1.identities != r2.identities:
        return False
    return True


def _zero_key_table(r, a, b, c):
    hbc, hab, hac = r.hom(b, c), r.hom(a, b), r.hom(a, c)
    return tuple(tuple(hac.zero() for _ in range(len(hab.moduli)))
                 for _ in range(len(hbc.moduli)))
