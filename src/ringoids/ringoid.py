"""Finite ringoids and moduloids.

A finite ringoid is a category with finitely many objects whose hom-sets
are finite abelian groups and whose composition is bilinear.  Composition
is stored as structure constants on the generators of the hom-groups; by
bilinearity that determines everything, and every axiom check reduces to
an exhaustive check on generators.

The structure-constant layout (see `FiniteRingoid`) is known to this
module alone: composition and scalar action share its writer
(`structure_table`), its reader (`structure_constants`), its shape check
and its normaliser, and other modules pass a ringoid's tables whole.

A moduloid additionally carries a commutative unital scalar ring (itself
a one-object ringoid) acting on every hom-group.  "Topological" data is
always discrete here, so continuity conditions are vacuous and are not
represented.
"""

import itertools

# Full multiplication tables are cached per object triple when the pair
# space is at most this large.
_PAIR_CACHE_LIMIT = 1 << 16

# Default candidate ceiling of the searches in the additive completion
# and of the Krull-Schmidt decomposition; defined here so that the CLI's
# parser loads neither.
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
                 "scalar", "action", "unital", "_pair_mul", "_completion",
                 "_decompositions", "_iso_tables")

    def __init__(self, objects, homs, compose_table, identities=None,
                 scalar=None, action=None, unital=None, name=""):
        self.name = name
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.compose_table = _normalised(compose_table)
        self.identities = dict(identities) if identities else None
        self.scalar = scalar
        self.action = _normalised(action) if action else None
        self.unital = (self.identities is not None) if unital is None else unital
        self._pair_mul = {}
        self._completion = None
        self._decompositions = {}
        self._iso_tables = {}

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


def _normalised(tables):
    """A dict of structure-constant tables as nested tuples."""
    return {key: tuple(tuple(tuple(img) for img in row) for row in table)
            for key, table in tables.items()}


def structure_table(rows, cols, out, image):
    """The table of a bilinear map from the groups `rows` (left factor)
    and `cols` (right factor) into `out`: entry [i][j] is image(i, j), the
    image of their generators i and j, reduced in `out`; None is zero."""
    images = ([image(i, j) for j in range(len(cols.moduli))]
              for i in range(len(rows.moduli)))
    return tuple(tuple(out.zero() if img is None else out.reduce(img)
                       for img in row) for row in images)


def structure_constants(tables):
    """The non-zero structure constants (key, i, j, image) of a dict of
    tables (None holds none), table by table and row by row."""
    for key, table in (tables or {}).items():
        for i, row in enumerate(table):
            for j, img in enumerate(row):
                if any(img):
                    yield key, i, j, img


def _bilinear(hom, table, y, x):
    """The bilinear extension of structure constants: the sum over i, j of
    y_i * x_j * table[i][j] in hom (a missing table is the zero map)."""
    if table is None:
        return hom.zero()
    return hom.combination([yi * xj for yi in y for xj in x],
                           [img for row in table for img in row])


# The formal sums of objects live here, in a module that every process
# loads, so that listing them compiles neither `krullschmidt` nor `additive`.
def enumerate_objsums(objects, bound):
    """All formal sums of length <= bound, shortest first, lexicographic
    within a length (pinning the deterministic representative choice)."""
    out = []
    for n in range(bound + 1):
        out.extend(itertools.product(objects, repeat=n))
    return out


def enumerate_multisets(objects, bound):
    """The multisets of objects of size <= bound, each as its sorted sum,
    in `enumerate_objsums` order: the sorted words of that list."""
    for n in range(bound + 1):
        yield from itertools.combinations_with_replacement(objects, n)


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
        _check_table("compose table", "structure constant", (a, b, c), table,
                     r.hom(b, c), r.hom(a, b), r.hom(a, c))
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
                _check_table("action table", "action constant", (a, b), table,
                             rg, hom, hom)


def _check_table(table_word, constant_word, key, table, rows, cols, out):
    """Raise StructuralError unless a table has the shape and the reduced
    entries that `structure_table(rows, cols, out, ...)` writes."""
    where = "(%s)" % ",".join(map(repr, key))
    if len(table) != len(rows.moduli):
        raise StructuralError("%s %s has wrong height" % (table_word, where))
    for row in table:
        if len(row) != len(cols.moduli):
            raise StructuralError("%s %s has wrong width" % (table_word, where))
        for img in row:
            if len(img) != len(out.moduli) or img != out.reduce(img):
                raise StructuralError("%s out of range in %s" % (constant_word, where))


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
