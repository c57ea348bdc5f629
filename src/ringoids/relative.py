"""Relative K0, cofinality and the fibration check in degree zero.

Relative K0 for non-unital moduloids is the kernel, in degree zero, of
the split surjection induced by the unitization projection, computed on
the idempotent classes of single objects (keyed by the type vector of the
image, with relations from the type vectors) so that the splitting is
visible.  These classes are not bounded by sum length: their only limit
is the ceiling.  The fibration check maps them to free sums by the same
type vectors.  The cofinality check compares bounded K0 (`ktheory`) with
the K0 of the subcategory of sums of length at least 2.
"""

from __future__ import annotations

from .additive import (DEFAULT_CEILING, Undecided, complete,
                       enumerate_objsums, iso_class_table)
from .constructions import tabulate_hom
from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_is_isomorphism, hom_kernel_lattice,
                        kernel_presentation, lattices_equal)
from .ktheory import k0_bounded, k0_induced
from .ringoid import StructuralError


# ---------------------------------------------------------------------------
# Idempotent classes (the projective shadow used by relative K0).
# ---------------------------------------------------------------------------

class IdemClasses:
    """Certified classes of idempotent endomorphisms of single objects,
    keyed by the type vector of the image, with one relation
    [c] = sum of [(t,)] over the types t in the key of each split class c
    whose key does not have length 1 (the empty key gives [0] = 0)."""

    __slots__ = ("ringoid", "reps", "class_of", "presentation",
                 "undecided_pairs")

    def __init__(self, ringoid, reps, class_of, relations, undecided_pairs):
        self.ringoid = ringoid
        self.reps = tuple(reps)
        self.class_of = dict(class_of)
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
    # each summand of a split p is a listed idempotent of End(a)
    relations = [exponent_row(range(len(reps)), [c], [first[(t,)] for t in key])
                 for key, c in first.items() if len(key) != 1]
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
    matrix = [exponent_row(range(len(icr.reps)),
                           [icr.class_of[(a, projection.apply(a, a, p))]])
              for (a, p) in icp.reps]
    pres, basis = kernel_presentation(icp.presentation, icr.presentation, matrix)
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
    obj_index = {a: i for i, a in enumerate(r.objects)}
    sub_objs = [s for s in table.class_of if len(s) >= 2]
    index = {s: i for i, s in enumerate(sub_objs)}
    first = {}
    for s in sub_objs:
        first.setdefault(table.class_of[s], s)

    def first_of(word):
        return first[table.class_of_word(word)]

    def no_later(u, v):
        return [obj_index[a] for a in u] <= [obj_index[a] for a in v]

    rows = {}

    def relate(plus, minus):
        row = exponent_row(index, plus, minus)
        if any(row):
            rows.setdefault(tuple(row))

    for s in sub_objs:
        relate([s], [first_of(s)])
    for i, s in enumerate(sub_objs):
        for t in sub_objs[i:]:
            if len(s) + len(t) <= bound:
                relate([s, t], [first_of(s + t)])
            if len(s) < len(t) < bound <= len(s) + len(t):
                for x in r.objects:
                    if len(s) + 1 < len(t) or no_later(s + (x,), t[::-1]):
                        relate([s, first_of((x,) + t)],
                               [first_of(s + (x,)), t])
    sub_pres = AbPresentation(len(sub_objs), list(rows))
    matrix = [exponent_row(obj_index, s) for s in sub_objs]
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

    index = {a: i for i, a in enumerate(m.objects)}
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
            class_images.append(exponent_row(index, t))
    inclusion_rows = []
    for vec in rel.kernel_basis:
        resolved = all(class_images[i] is not None for i, c in enumerate(vec) if c)
        inclusion_rows.append(apply_rows(vec, class_images, len(index))
                              if resolved else None)

    composite_zero = exact = None
    if not (undecided or unresolved):
        images = [jmap.apply(row) for row in inclusion_rows]
        composite_zero = all(k0q.presentation.kills(images))
        # exactness at K0(M): image lattice of i_* equals kernel lattice of j_*
        image_rows = inclusion_rows + list(k0m.presentation.relations)
        kernel_rows = hom_kernel_lattice(k0m.presentation, k0q.presentation,
                                         jmap.matrix)
        exact = lattices_equal(image_rows, kernel_rows, len(index))
    return FibrationReport(rel, k0m, k0q, inclusion_rows, jmap,
                           composite_zero, exact, undecided, unresolved)

