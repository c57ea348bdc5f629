"""Bounded K-theory invariants.

K0 is the Grothendieck completion of the bounded iso-class monoid of free
formal sums (sums of base objects) in the additive completion, classified
by Krull-Schmidt type vector (`additive.Decomposition`).  The reported
group carries an honest-bound contract: the K0 of free sums is a quotient
of it, since relations between sums beyond the bound are missing.  It is
not the K0 of idempotent classes: over F2 x F2 free sums give Z and
idempotent classes give Z^2.  Relative K0 for non-unital moduloids is the
kernel, in degree zero, of the split surjection induced by the unitization
projection, computed on the idempotent classes of single objects (keyed
by the type vector of the image, with relations from the type vectors)
so that the splitting is visible.  These classes are not bounded by sum
length: their only limit is the ceiling.  The fibration check maps them
to free sums by the same type vectors.  K1 is reported per rank as GL_n
abelianizations, read off the Cayley graph of GL_n on Bass's generators
(`gl`, certified by the Krull-Schmidt order formula `gl_order`;
`groups.abelianization`), with stabilization maps.
"""

from __future__ import annotations

from collections import Counter

from .additive import (DEFAULT_CEILING, MatMorphism, Undecided, complete,
                       enumerate_objsums, iso_class_table)
from .intlinalg import (AbPresentation, apply_rows, hom_is_isomorphism,
                        hom_kernel_lattice, hom_well_defined,
                        kernel_presentation, lattices_equal)
from .ringoid import StructuralError, tabulate_hom


class CeilingExceeded(Exception):
    """An enumeration was abandoned because its size exceeds the ceiling."""

    def __init__(self, message, size=None, ceiling=None):
        super().__init__(message)
        self.size = size
        self.ceiling = ceiling


# ---------------------------------------------------------------------------
# Absolute bounded K0.
# ---------------------------------------------------------------------------

class KZeroResult:
    """Bounded K0: presentation on the base objects, one relation per
    distinct non-zero difference [s] - [rep] of isomorphic multisets
    within the bound.  A word has the row of its sorted form, so the
    words add no relation."""

    __slots__ = ("bound", "presentation", "gen_labels", "stabilized",
                 "stabilized_since", "undecided", "table", "per_bound")

    def __init__(self, bound, presentation, gen_labels, stabilized,
                 stabilized_since, undecided, table, per_bound):
        self.bound = bound
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.stabilized = stabilized
        self.stabilized_since = stabilized_since
        self.undecided = undecided
        self.table = table
        self.per_bound = per_bound

    def __repr__(self):
        return "KZeroResult(%s at L=%d%s)" % (
            self.presentation, self.bound,
            ", stabilized at L=%d" % self.stabilized_since
            if self.stabilized_since else ", not stabilized")


def count_vector(objsum, objects):
    vec = [0] * len(objects)
    for a in objsum:
        vec[objects.index(a)] += 1
    return vec


def k0_bounded(r, bound, ceiling=DEFAULT_CEILING):
    """Bounded K0, read off the iso-class table of the completion of r."""
    if not r.unital:
        raise StructuralError("absolute K0 needs a unital ringoid")
    table = iso_class_table(complete(r), bound, ceiling=ceiling)
    objects = list(r.objects)
    # each distinct non-zero row once, with the shortest sum length at which
    # it occurs; first-occurrence order keeps k0_induced's failing relation
    shortest = {}
    for s, cls in table.class_of.items():
        row = tuple(x - y for x, y in zip(count_vector(s, objects),
                                          count_vector(table.reps[cls], objects)))
        if any(row):
            shortest[row] = min(shortest.get(row, len(s)), len(s))
    per_bound = {}
    for l in range(bound + 1):
        rows = [row for row, mlen in shortest.items() if mlen <= l]
        per_bound[l] = AbPresentation(len(objects), rows)
    stabilized = bound >= 1 and per_bound[bound] == per_bound[bound - 1]
    stabilized_since = None
    for l in range(2, bound + 1):
        if all(per_bound[j] == per_bound[l - 1] for j in range(l, bound + 1)):
            stabilized_since = l
            break
    return KZeroResult(bound, per_bound[bound], [str(a) for a in objects],
                       stabilized, stabilized_since, table.undecided, table,
                       per_bound)


class InducedMap:
    """Degree-zero functoriality: the matrix [a] -> [F(a)] on generators,
    checked against both relation lattices."""

    __slots__ = ("source", "target", "matrix", "well_defined", "failing_relation")

    def __init__(self, source, target, matrix, well_defined, failing_relation):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        self.well_defined = well_defined
        self.failing_relation = failing_relation

    def apply(self, vec):
        return apply_rows(vec, self.matrix, len(self.matrix[0]) if self.matrix else 0)

    def is_isomorphism(self):
        return hom_is_isomorphism(self.source.presentation,
                                  self.target.presentation, self.matrix)


def k0_induced(f, source_result, target_result):
    """Induced map on bounded K0 along a ringoid homomorphism.  A relation
    that fails to transport is reported as a bound artifact, not raised."""
    src_objects = list(f.source.objects)
    tgt_objects = list(f.target.objects)
    matrix = []
    for a in src_objects:
        row = [0] * len(tgt_objects)
        row[tgt_objects.index(f.object_map[a])] = 1
        matrix.append(row)
    ok, bad = hom_well_defined(source_result.presentation.relations,
                               target_result.presentation, matrix)
    return InducedMap(source_result, target_result, matrix, ok, bad)


# ---------------------------------------------------------------------------
# Idempotent classes (the projective shadow used by relative K0).
# ---------------------------------------------------------------------------

class IdemClasses:
    """Certified classes of idempotent endomorphisms of single objects,
    keyed by the type vector of the image, with one relation
    [c] = sum of [(t,)] over the types t in the key of each split class c
    whose key does not have length 1 (the empty key gives [0] = 0)."""

    __slots__ = ("ringoid", "reps", "class_of", "relations", "presentation",
                 "undecided_pairs")

    def __init__(self, ringoid, reps, class_of, relations, undecided_pairs):
        self.ringoid = ringoid
        self.reps = tuple(reps)
        self.class_of = dict(class_of)
        self.relations = [list(r) for r in relations]
        self.presentation = AbPresentation(len(reps), relations)
        self.undecided_pairs = tuple(undecided_pairs)

    def label(self, idx):
        a, p = self.reps[idx]
        return "[%s@%s]" % ("+".join(str(c) for c in p) or "0", a)


def idem_classes(r, ceiling=DEFAULT_CEILING):
    """Classify the idempotents of every End(a), a a single object, by the
    type vector of im(p): two idempotents are equivalent exactly when their
    images have the same indecomposable summands (Krull-Schmidt), and type
    vectors add, so the relations come from the keys.  The idempotents are
    those the decomposition lists: an End(a) over the ceiling gives none.
    An idempotent that cannot be split within the ceiling is a class of its
    own with no relation, and every Undecided record is kept."""
    dec = complete(r).decomposition(ceiling)
    reps = []
    class_of = {}
    first = {}
    undecided_pairs = list(dec.undecided)
    for a in r.objects:
        for p in dec.idempotents(a):
            summands = dec.split(a, p)
            if isinstance(summands, Undecided):
                undecided_pairs.append(summands)
                class_of[(a, p)] = len(reps)
                reps.append((a, p))
                continue
            key = dec.key(summands)
            assigned = first.get(key)
            if assigned is None:
                assigned = first[key] = len(reps)
                reps.append((a, p))
            class_of[(a, p)] = assigned
    relations = []
    for key, c in first.items():
        if len(key) != 1:
            row = [0] * len(reps)
            row[c] = 1
            for t in key:
                # each summand of a split p is a listed idempotent of End(a)
                row[first[(t,)]] -= 1
            relations.append(row)
    return IdemClasses(r, reps, class_of, relations, undecided_pairs)


class RelativeKZeroResult:
    """Degree-zero relative K-theory of a non-unital moduloid: the kernel of
    K0(M+) -> K0(R_M) on idempotent classes of single objects.  `bound` is
    recorded as given; no part of the computation reads it.  `kernel_basis`
    is one basis of the kernel lattice (rows over the classes of M+), and
    `gen_labels` names its rows."""

    __slots__ = ("bound", "presentation", "gen_labels", "kernel_basis",
                 "idem_plus", "idem_scalar", "mplus", "rm", "projection",
                 "matrix", "undecided")

    def __init__(self, bound, presentation, gen_labels, kernel_basis, idem_plus,
                 idem_scalar, mplus, rm, projection, matrix, undecided):
        self.bound = bound
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.kernel_basis = [list(r) for r in kernel_basis]
        self.idem_plus = idem_plus
        self.idem_scalar = idem_scalar
        self.mplus = mplus
        self.rm = rm
        self.projection = projection
        self.matrix = [list(r) for r in matrix]
        self.undecided = undecided

    def __repr__(self):
        return "RelativeKZeroResult(%s at L=%d)" % (self.presentation, self.bound)


def k0_relative(m, bound, ceiling=DEFAULT_CEILING):
    """Kernel of the split surjection K0(M+) -> K0(R_M) in degree zero.

    The free iso-class monoid cannot see the splitting (M+ has the same
    objects as R_M), so both sides are computed on the idempotent classes
    of single objects (`idem_classes`), which no bound limits: `bound` is
    only recorded.  For unital m this recovers the absolute K0, which is
    the degree-zero content of the unitization corollary.  An End(a) over
    the ceiling contributes no classes and sets `undecided`.
    """
    from .moduloids import scalar_ringoid, unitize, unitization_projection

    if m.unital:
        raise StructuralError("relative K0 expects a non-unital moduloid")
    if m.scalar is None:
        raise StructuralError("relative K0 needs a scalar ring")
    mplus = unitize(m)
    rm = scalar_ringoid(m.objects, m.scalar)
    projection = unitization_projection(m, mplus=mplus, rm=rm)
    icp = idem_classes(mplus, ceiling=ceiling)
    icr = idem_classes(rm, ceiling=ceiling)
    matrix = []
    for (a, p) in icp.reps:
        q = projection.apply(a, a, p)
        row = [0] * len(icr.reps)
        row[icr.class_of[(a, q)]] = 1
        matrix.append(row)
    pres, basis = kernel_presentation(icp.relations, icr.relations, matrix,
                                      len(icp.reps), len(icr.reps))
    labels = []
    for vec in basis:
        terms = []
        for i, c in enumerate(vec):
            if c:
                terms.append(("%+d" % c) + icp.label(i))
        labels.append("".join(terms) or "0")
    undecided = bool(icp.undecided_pairs or icr.undecided_pairs)
    return RelativeKZeroResult(bound, pres, labels, basis, icp, icr, mplus, rm,
                               projection, matrix, undecided)


# ---------------------------------------------------------------------------
# Cofinality (degree-zero shadow).
# ---------------------------------------------------------------------------

class CofinalityReport:
    __slots__ = ("sub_presentation", "ambient", "matrix", "is_isomorphism",
                 "cofinality_witnesses", "undecided")

    def __init__(self, sub_presentation, ambient, matrix, is_isomorphism,
                 cofinality_witnesses, undecided):
        self.sub_presentation = sub_presentation
        self.ambient = ambient
        self.matrix = matrix
        self.is_isomorphism = is_isomorphism
        self.cofinality_witnesses = cofinality_witnesses
        self.undecided = undecided


def cofinality_check(r, bound, ceiling=DEFAULT_CEILING):
    """K0 comparison for the strictly cofinal subcategory of sums of length
    at least 2, on the table's multisets of length >= 2.  Its relations come
    from the pairs (u, v) of its words, u no later than v in
    `enumerate_objsums` order, with isomorphic flattenings within the bound
    or one flattening beyond it.  Sparse rows span them, each sum read as
    the first generator of its class: [u] = [c] for u in the class c;
    [s] + [t] = [s t] within the bound; and [s] + [x t] = [s x] + [t] for an
    object x with s x t beyond the bound when |s| + 1 < |t|, or when
    |s| + 1 = |t| and s x is no later than t reversed."""
    ambient = k0_bounded(r, bound, ceiling=ceiling)
    table = ambient.table
    objects = list(r.objects)
    sub_objs = [s for s in table.class_of if len(s) >= 2]
    index = {s: i for i, s in enumerate(sub_objs)}
    first = {}
    for s in sub_objs:
        first.setdefault(table.class_of[s], s)

    def first_of(word):
        return first[table.class_of_word(word)]

    def no_later(u, v):
        return [objects.index(a) for a in u] <= [objects.index(a) for a in v]

    rows = {}

    def relate(plus, minus):
        row = Counter(index[s] for s in plus)
        row.subtract(index[s] for s in minus)
        rows.setdefault(tuple(sorted((j, c) for j, c in row.items() if c)))

    for s in sub_objs:
        relate([s], [first_of(s)])
    for i, s in enumerate(sub_objs):
        for t in sub_objs[i:]:
            if len(s) + len(t) <= bound:
                relate([s, t], [first_of(s + t)])
            if len(s) < len(t) < bound <= len(s) + len(t):
                for x in objects:
                    if len(s) + 1 < len(t) or no_later(s + (x,), t[::-1]):
                        relate([s, first_of((x,) + t)],
                               [first_of(s + (x,)), t])
    relations = []
    for key in filter(None, rows):
        relations.append([0] * len(sub_objs))
        for j, c in key:
            relations[-1][j] = c
    sub_pres = AbPresentation(len(sub_objs), relations)
    matrix = [count_vector(s, objects) for s in sub_objs]
    iso = hom_is_isomorphism(sub_pres, ambient.presentation, matrix)
    witnesses = [(s, f, s + f) for f in sub_objs[:1]
                 for s in enumerate_objsums(r.objects, 1) if len(s + f) <= bound]
    return CofinalityReport(sub_pres, ambient, matrix, iso, witnesses,
                            ambient.undecided)


# ---------------------------------------------------------------------------
# The fibration theorem's degree-zero shadow.
# ---------------------------------------------------------------------------

class FibrationReport:
    __slots__ = ("k0_ideal", "k0_total", "k0_quotient", "inclusion_rows",
                 "quotient_map", "composite_zero", "exact", "undecided",
                 "unresolved_classes")

    def __init__(self, k0_ideal, k0_total, k0_quotient, inclusion_rows,
                 quotient_map, composite_zero, exact, undecided,
                 unresolved_classes):
        self.k0_ideal = k0_ideal
        self.k0_total = k0_total
        self.k0_quotient = k0_quotient
        self.inclusion_rows = inclusion_rows
        self.quotient_map = quotient_map
        self.composite_zero = composite_zero
        self.exact = exact
        self.undecided = undecided
        self.unresolved_classes = unresolved_classes


def free_class_of_idempotent(view, a, p, bound, ceiling=DEFAULT_CEILING):
    """The free class of an idempotent p in End(a): the representative t of
    the class of the iso-class table whose type vector equals that of im(p)
    (the first such multiset within the bound, so also the first word),
    returned after its splitting v . u = 1_t, u . v = p has been built and
    verified.  None when no sum within the bound has that type vector.
    Undecided when im(p) cannot be split within the ceiling, or when no sum
    matches while the decomposition has undecided records (an unmerged
    type may hide the match)."""
    dec = view.decomposition(ceiling)
    summands = dec.split(a, p)
    if isinstance(summands, Undecided):
        return summands
    table = iso_class_table(view, bound, ceiling=ceiling)
    cls = table.class_of_type.get(dec.key(summands))
    if cls is None:
        return dec.undecided[0] if dec.undecided else None
    t = table.reps[cls]
    dec.splitting(t, a, p, summands)
    return t


def fibration_check(m, ideal, bound, ceiling=DEFAULT_CEILING):
    """Degree-zero exactness of K(J) -> K(M) -> K(M/J) for an ideal in a
    unital moduloid: composite zero and image = kernel at K0(M), exactly.
    `undecided` is set when any of the three K0s, or the free class of some
    idempotent class of J+, has an Undecided record.  `unresolved_classes`
    lists the idempotent classes of J+ with no certified free class within
    the bound: such a class lives in the K0 of the idempotent completion,
    not of free sums, so its image is not known here.  When either is
    non-empty, `composite_zero` and `exact` are None (unknown), and these
    two fields record why."""
    from .moduloids import ideal_moduloid, quotient

    if not m.unital:
        raise StructuralError("fibration check needs a unital moduloid")
    sub, incl = ideal_moduloid(ideal)
    rel = k0_relative(sub, bound, ceiling=ceiling)
    k0m = k0_bounded(m, bound, ceiling=ceiling)
    quot, qhom = quotient(m, ideal)
    k0q = k0_bounded(quot, bound, ceiling=ceiling)
    jmap = k0_induced(qhom, k0m, k0q)

    def to_m(a, b, z):
        # J+ -> M: (x + lambda) -> incl(x) + lambda . e_a  (m is unital)
        k = len(sub.hom(a, b).moduli)
        out = incl.apply(a, b, z[:k])
        if a == b:
            out = m.hom(a, a).add(out, m.act(a, a, z[k:], m.identity(a)))
        return out

    jplus_to_m = tabulate_hom(rel.mplus, m, {a: a for a in m.objects}, to_m,
                              name="J+ -> M")

    objects = list(m.objects)
    undecided = rel.undecided or k0m.undecided or k0q.undecided
    unresolved = []
    class_images = []
    for (a, p) in rel.idem_plus.reps:
        q = jplus_to_m.apply(a, a, p)
        t = free_class_of_idempotent(complete(m), a, q, bound, ceiling=ceiling)
        if t is None or isinstance(t, Undecided):
            unresolved.append((a, p))
            class_images.append(None)
            undecided = undecided or t is not None
        else:
            class_images.append(count_vector(t, objects))
    inclusion_rows = []
    for vec in rel.kernel_basis:
        resolved = all(class_images[i] is not None for i, c in enumerate(vec) if c)
        inclusion_rows.append(apply_rows(vec, class_images, len(objects))
                              if resolved else None)

    composite_zero = exact = None
    if not (undecided or unresolved):
        images = [jmap.apply(row) for row in inclusion_rows]
        composite_zero = all(k0q.presentation.kills(images))
        # exactness at K0(M): image lattice of i_* equals kernel lattice of j_*
        image_rows = inclusion_rows + [list(r) for r in k0m.presentation.relations]
        kernel_rows = hom_kernel_lattice(k0m.presentation.relations,
                                         k0q.presentation.relations,
                                         jmap.matrix, len(objects),
                                         len(quot.objects))
        exact = lattices_equal(image_rows, kernel_rows, len(objects))
    return FibrationReport(rel, k0m, k0q, inclusion_rows, jmap,
                           composite_zero, exact, undecided, unresolved)


# ---------------------------------------------------------------------------
# GL and bounded K1.
# ---------------------------------------------------------------------------

class GLGroup:
    """The subgroup of GL(s) generated by the given invertible matrices,
    closed by breadth-first search from the identity under right
    multiplication by the generators.  `elements` are in discovery order,
    `generators` holds the indices of the generators, and edges[x][k] is
    the index of elements[x] . elements[generators[k]]: the Cayley graph
    that `abelianization` walks, so it composes nothing.  Any other
    product is composed and looked up, and one outside the group raises
    StructuralError."""

    __slots__ = ("view", "elements", "generators", "edges", "identity",
                 "_index", "_slot")

    def __init__(self, view, s, generators):
        one = view.identity(tuple(s))
        elements = [one]
        index = {one: 0}
        gens = list(dict.fromkeys(generators))
        steps = [_right_multiplier(view, one, g) for g in gens]
        edges = []
        for x in elements:
            row = []
            for step in steps:
                y = step(x)
                k = index.get(y)
                if k is None:
                    k = index[y] = len(elements)
                    elements.append(y)
                row.append(k)
            edges.append(row)
        self.view = view
        self.elements = elements
        self.edges = edges
        self.identity = 0
        self._index = index
        self.generators = [index[g] for g in gens]
        self._slot = {g: k for k, g in enumerate(self.generators)}

    def __len__(self):
        return len(self.elements)

    def index(self, element):
        return self._index[element]

    def mul(self, i, j):
        k = self._slot.get(j)
        if k is not None:
            return self.edges[i][k]
        w = self.view.compose(self.elements[i], self.elements[j])
        k = self._index.get(w)
        if k is None:
            raise StructuralError("a product of invertibles is not invertible")
        return k


def _right_multiplier(view, one, g):
    """x -> x . g, computed as x + x . (g - 1) from the non-zero entries of
    g - 1: for an elementary or diagonal generator, one column of x
    changes by n base compositions instead of a full matrix product."""
    base = view.base
    s = g.src
    diff = [(k, l, base.hom(s[l], s[k]).sub(gkl, one.entries[k][l]))
            for k, row in enumerate(g.entries) for l, gkl in enumerate(row)
            if gkl != one.entries[k][l]]

    def step(x):
        entries = [list(row) for row in x.entries]
        for k, l, d in diff:
            for r, row in enumerate(entries):
                hom = base.hom(s[l], s[r])
                row[l] = hom.add(row[l], base.compose(s[l], s[k], s[r],
                                                      x.entries[r][k], d))
        return MatMorphism(s, s, entries)

    return step


def gl(view, s, ceiling=DEFAULT_CEILING):
    """GL(s), the group of invertible endomorphisms of a formal sum, as the
    closure of Bass's generators (Bass, "K-theory and stable algebra",
    1964): the elementary matrices e_ij(x) for i != j and x an additive
    generator of Hom(s_j, s_i), and diag(1, ..., u, ..., 1) for every unit
    u of End(s_i), found among the 1x1 matrices.  Every generator is
    certified by `inverse`.  They generate GL(s) over every finite base:
    modulo the radical J = J(End s) their images generate each GL_m(k)
    block, and 1 + J splits as lower unitriangular times diagonal times
    upper unitriangular.  A single object's units are all enumerated, so
    its closure is GL(s) by construction; a longer sum's closure counts as
    GL(s) only when its size equals `gl_order`, and a mismatch raises
    StructuralError.

    Raises CeilingExceeded when |End(s)| exceeds the ceiling, or when the
    Krull-Schmidt decomposition of an object of a longer sum is undecided
    there."""
    s = tuple(s)
    if not view.has_identities:
        raise StructuralError("GL needs a unital base")
    n = view.hom_order(s, s)
    if n > ceiling:
        raise CeilingExceeded("|End| = %d exceeds the ceiling %d" % (n, ceiling),
                              size=n, ceiling=ceiling)
    group = GLGroup(view, s, bass_generators(view, s))
    if len(s) > 1:
        certify_gl_order(view, s, group, ceiling)
    return group


def bass_generators(view, s):
    """The elementary matrices e_ij(x), x an additive generator of
    Hom(s_j, s_i), and the unit diagonals diag(1, ..., u, ..., 1), u != 1,
    each certified invertible by `inverse`."""
    base = view.base
    one = view.identity(s)
    units = {}
    gens = []

    def with_entry(i, j, x):
        entries = [list(row) for row in one.entries]
        entries[i][j] = x
        return MatMorphism(s, s, entries)

    for i, a in enumerate(s):
        if a not in units:
            units[a] = [u.entries[0][0] for u in view.hom_elements((a,), (a,))
                        if view.inverse(u) is not None]
        gens.extend(with_entry(i, i, u) for u in units[a]
                    if u != base.identity(a))
        for j, b in enumerate(s):
            hom = base.hom(b, a)
            if i != j:
                gens.extend(with_entry(i, j, hom.basis_element(k))
                            for k in range(len(hom.moduli)) if hom.moduli[k] > 1)
    for g in gens:
        if view.inverse(g) is None:
            raise StructuralError("the generator %r is not invertible" % (g,))
    return gens


def gl_order(view, s, ceiling=DEFAULT_CEILING):
    """|GL(s)| by the Krull-Schmidt order formula, without enumeration.

    E = End(s) has E / J(E) = prod_t M_(m_t)(k_t), where m_t is the
    multiplicity of type t in the type vector of s and k_t is the residue
    field of the local ring of type t, so |GL(s)| = |J(E)| prod_t
    |GL_(m_t)(k_t)| and |J(E)| = |E| / prod_t |k_t|^(m_t^2).  The local
    ring is read at the first summand e of type t in s: e End(s_i) e is
    isomorphic to rho End(d) rho for the type's representative (d, rho),
    and no larger than End(s).  Its non-units are its nilpotents (the
    radical), and |k_t| = |e End e| / |non-units|.

    Raises CeilingExceeded when an Undecided record of the decomposition
    touches an object of s: its types may then be unmerged."""
    s = tuple(s)
    dec = view.decomposition(ceiling)
    for rec in dec.undecided:
        # the subject is a base object or a pair ((a, p), (c, q))
        if rec.subject in view.base.objects:
            touched = (rec.subject,)
        else:
            (a, _), (c, _) = rec.subject
            touched = (a, c)
        if any(b in s for b in touched):
            raise CeilingExceeded("the decomposition of %r is undecided: %r"
                                  % (s, rec), size=rec.size, ceiling=ceiling)
    first = {}
    mult = {}
    for a in s:
        for x in dec.summands[a]:
            first.setdefault(x.type, (a, x.idem))
            mult[x.type] = mult.get(x.type, 0) + 1
    radical_quotient = 1
    count = 1
    for t, m in mult.items():
        q = _residue_field_order(view.base, *first[t])
        radical_quotient *= q ** (m * m)
        for i in range(m):
            count *= q ** m - q ** i
    radical, rem = divmod(view.hom_order(s, s), radical_quotient)
    if rem:
        raise StructuralError("|End(%r)| is not divisible by the order %d of "
                              "its semisimple quotient" % (s, radical_quotient))
    return radical * count


def _residue_field_order(base, a, e):
    """|L| / |non-units of L| for the local ring L = e End(a) e, whose
    non-units are its nilpotents: y^N = 0 for some N >= log2 |L|, since
    the radical's nilpotency index is at most the length of L."""
    zero = base.zero(a, a)
    ring = set()
    for y in base.hom(a, a).elements():
        ring.add(base.compose(a, a, a, e, base.compose(a, a, a, y, e)))
    depth = len(ring).bit_length()
    nilpotent = 0
    for y in ring:
        power, exponent = y, 1
        while exponent < depth and power != zero:
            power = base.compose(a, a, a, power, power)
            exponent *= 2
        nilpotent += power == zero
    q, rem = divmod(len(ring), nilpotent)
    if rem:
        raise StructuralError("the corner ring of %r at %r is not local" % (a, e))
    return q


def certify_gl_order(view, s, group, ceiling=DEFAULT_CEILING):
    """Raise StructuralError unless the closure has the order of GL(s),
    which for Bass's generators is impossible by theorem."""
    expected = gl_order(view, s, ceiling)
    if len(group) != expected:
        raise StructuralError("the closure of GL(%r) has %d elements, the "
                              "order formula gives %d"
                              % (s, len(group), expected))


class StabilizationStep:
    __slots__ = ("rank", "matrix", "is_isomorphism")

    def __init__(self, rank, matrix, is_isomorphism):
        self.rank = rank
        self.matrix = matrix
        self.is_isomorphism = is_isomorphism


class KOneResult:
    """Per-rank GL abelianizations with stabilization maps; a single group
    would misrepresent the limit (GL_3 over F2 already dips back to 0).
    ranks[n] presents GL_n^ab on the Bass generators of groups[n], read
    off the Cayley edges of its closure; each step's matrix maps them
    into ranks[n + 1]."""

    __slots__ = ("ranks", "groups", "steps", "last_step_iso", "truncated_at")

    def __init__(self, ranks, groups, steps, last_step_iso, truncated_at):
        self.ranks = dict(ranks)
        self.groups = dict(groups)
        self.steps = list(steps)
        self.last_step_iso = last_step_iso
        self.truncated_at = truncated_at

    def __repr__(self):
        inner = ", ".join("GL%d^ab=%s" % (n, self.ranks[n])
                          for n in sorted(self.ranks))
        return "KOneResult(%s)" % inner


def stabilization_embedding(view, s, t):
    """j: GL(s) -> GL(s + t), x -> x (+) 1_t (a block-diagonal matrix
    extending by the identity)."""
    one = view.identity(tuple(t))
    return lambda x: view.block_sum(x, one)


def k1_bounded(r, n_max, ceiling=DEFAULT_CEILING):
    """Abelianizations of GL_n for n <= n_max over a one-object unital base,
    with the induced stabilization maps: the row for generator g of GL_n
    is the coordinate vector of its block-diagonal image in GL_(n+1)."""
    from .groups import abelianization

    if len(r.objects) != 1:
        raise StructuralError("bounded K1 is implemented for one-object bases")
    obj = r.objects[0]
    view = complete(r)
    groups = {}
    ranks = {}
    coords = {}
    truncated_at = None
    for n in range(1, n_max + 1):
        s = (obj,) * n
        try:
            g = gl(view, s, ceiling=ceiling)
        except CeilingExceeded:
            truncated_at = n
            break
        groups[n] = g
        ranks[n], coords[n] = abelianization(g, g.generators)
    steps = []
    for n in sorted(groups):
        if n + 1 not in groups:
            break
        embed = stabilization_embedding(view, (obj,) * n, (obj,))
        gn, gn1 = groups[n], groups[n + 1]
        matrix = [list(coords[n + 1][gn1.index(embed(gn.elements[g]))])
                  for g in gn.generators]
        iso = hom_is_isomorphism(ranks[n], ranks[n + 1], matrix)
        steps.append(StabilizationStep(n, matrix, iso))
    last_step_iso = steps[-1].is_isomorphism if steps else None
    return KOneResult(ranks, groups, steps, last_step_iso, truncated_at)


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
    n_tgt = len(t_objects)
    sides = []
    vecs = []
    for row in left_result.presentation.relations:
        for j in range(len(n.objects)):
            vec = [0] * n_tgt
            for i, c in enumerate(row):
                if c:
                    vec[pair_index[(i, j)]] += c
            sides.append(("left", row, j))
            vecs.append(vec)
    for row in right_result.presentation.relations:
        for i in range(len(m.objects)):
            vec = [0] * n_tgt
            for j, c in enumerate(row):
                if c:
                    vec[pair_index[(i, j)]] += c
            sides.append(("right", i, row))
            vecs.append(vec)
    failing = [side for side, zero
               in zip(sides, target_result.presentation.kills(vecs)) if not zero]
    return ExteriorProduct(left_result, right_result, target_result,
                           pair_index, not failing,
                           failing[-1] if failing else None)
