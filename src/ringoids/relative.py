"""Relative K0, cofinality and the fibration check in degree zero.

Relative K0 for non-unital moduloids is the kernel, in degree zero, of
the split surjection induced by the unitization projection, computed on
the idempotent classes of single objects so that the splitting is
visible.  By Krull-Schmidt these classes are the sub-multisets of the type
vectors of the objects (`Decomposition`), each represented by a sum of
primitives, with relations from the type vectors; an idempotent's class is
looked up by the type vector of its image.  These classes are not bounded
by sum length: their only limit is the ceiling.  The fibration check maps
them to free sums by the same type vectors.  The cofinality check
compares bounded K0 (`ktheory`) with the K0 of the subcategory of sums of
length at least 2.
"""

import itertools

from .constructions import tabulate_hom
from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_is_isomorphism)
from .krullschmidt import Undecided, decomposition, iso_class_table
from .ktheory import k0_bounded, k0_induced
from .lattice import hom_kernel_lattice, kernel_presentation, lattices_equal
from .ringoid import (DEFAULT_CEILING, StructuralError, enumerate_multisets,
                      enumerate_objsums)


# ---------------------------------------------------------------------------
# Idempotent classes (the projective shadow used by relative K0).
# ---------------------------------------------------------------------------

class IdemClasses:
    """The classes of idempotent endomorphisms of single objects within the
    ceiling, keyed by the type vector of the image, with one relation
    [c] = sum of [(t,)] over the types t in the key of each class c whose
    key does not have length 1 (the empty key gives [0] = 0).  Each class
    is represented by a sum of primitives of `Decomposition.summands`.
    The objects over the ceiling give no classes but `undecided` records."""

    __slots__ = ("ringoid", "reps", "presentation", "undecided",
                 "_dec", "_index")

    def __init__(self, ringoid, dec, index, reps, relations):
        self.ringoid = ringoid
        self.reps = tuple(reps)
        self.presentation = AbPresentation(len(reps), relations)
        self.undecided = dec.undecided
        self._dec = dec
        self._index = index

    def class_of(self, a, p):
        """The index of the class of an idempotent p of End(a), looked up by
        the type vector of im(p) (`Decomposition.split`), or the Undecided
        record when End(a) is over the ceiling."""
        summands = self._dec.split(a, p)
        if isinstance(summands, Undecided):
            return summands
        return self._index[self._dec.key(summands)]

    def label(self, idx):
        a, p = self.reps[idx]
        return "[%s@%s]" % ("+".join(str(c) for c in p) or "0", a)


def idem_classes(r, ceiling=DEFAULT_CEILING):
    """Classify the idempotents of every End(a), a a single object within
    the ceiling, by the type vector of im(p): two idempotents are
    equivalent exactly when their images have the same indecomposable
    summands (Krull-Schmidt).  The image of p is a summand of a, so the
    classes are the sub-multisets of the type vectors of the objects, each
    represented by the sum of the matching primitives of the first object
    that has it; no idempotent is listed or split.  Type vectors add, so
    the relations come from the keys.  An End(a) over the ceiling gives no
    classes, and its Undecided record is kept."""
    dec = decomposition(r, ceiling)
    reps = []
    index = {}
    for a in r.objects:
        hom = r.hom(a, a)
        if hom.order() > ceiling:
            continue
        summands = dec.summands[a]
        for k in range(len(summands) + 1):
            for part in itertools.combinations(summands, k):
                key = dec.key(part)
                if key not in index:
                    index[key] = len(reps)
                    reps.append((a, hom.combination([1] * k,
                                                    [x.idem for x in part])))
    # each [(t,)] is a class: (t,) is a sub-multiset of the same type vector
    relations = [exponent_row(range(len(reps)), [c], [index[(t,)] for t in key])
                 for key, c in index.items() if len(key) != 1]
    return IdemClasses(r, dec, index, reps, relations)


class RelativeKZeroResult:
    """Degree-zero relative K-theory of a non-unital moduloid: the kernel of
    K0(M+) -> K0(R_M) on idempotent classes of single objects.
    `kernel_basis` is one basis of the kernel lattice (rows over the
    classes of M+), and `gen_labels` names its rows."""

    __slots__ = ("presentation", "gen_labels", "kernel_basis",
                 "idem_plus", "idem_scalar", "mplus", "rm", "projection",
                 "matrix", "undecided")

    def __init__(self, presentation, gen_labels, kernel_basis, idem_plus,
                 idem_scalar, mplus, rm, projection, matrix, undecided):
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.kernel_basis = [list(r) for r in kernel_basis]
        self.idem_plus = idem_plus
        self.idem_scalar = idem_scalar
        self.mplus = mplus
        self.rm = rm
        self.projection = projection
        self.matrix = list(matrix)
        self.undecided = undecided

    def __repr__(self):
        return "RelativeKZeroResult(%s)" % (self.presentation,)


def k0_relative(m, ceiling=DEFAULT_CEILING):
    """Kernel of the split surjection K0(M+) -> K0(R_M) in degree zero.

    The free iso-class monoid cannot see the splitting (M+ has the same
    objects as R_M), so both sides are computed on the idempotent classes
    of single objects (`idem_classes`), which no bound limits.  The image
    in R_M of each representative of M+ is looked up there
    (`IdemClasses.class_of`).  For unital m this recovers the absolute K0,
    which is the degree-zero content of the unitization corollary.  An
    End(a) over the ceiling contributes no classes but an `undecided` record.
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
                           [icr.class_of(a, projection.apply(a, a, p))])
              for (a, p) in icp.reps]
    pres, basis = kernel_presentation(icp.presentation, icr.presentation, matrix)
    labels = []
    for vec in basis:
        terms = []
        for i, c in enumerate(vec):
            if c:
                terms.append(("%+d" % c) + icp.label(i))
        labels.append("".join(terms) or "0")
    return RelativeKZeroResult(pres, labels, basis, icp, icr, mplus, rm,
                               projection, matrix,
                               icp.undecided + icr.undecided)


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
    at least 2, on the multisets of length >= 2 within the bound.  Its
    relations come from the pairs (u, v) of its words, u no later than v in
    `enumerate_objsums` order, with isomorphic flattenings within the bound
    or one flattening beyond it.  Sparse rows span them, each sum u read as
    the first generator c of its type vector: [u] = [c];
    [s] + [t] = [s t] within the bound; and [s] + [x t] = [s x] + [t] for an
    object x with s x t beyond the bound when |s| + 1 < |t|, or when
    |s| + 1 = |t| and s x is no later than t reversed."""
    ambient = k0_bounded(r, bound, ceiling=ceiling)
    dec = decomposition(r, ceiling)
    obj_index = {a: i for i, a in enumerate(r.objects)}
    sub_objs = [s for s in enumerate_multisets(r.objects, bound) if len(s) >= 2]
    index = {s: i for i, s in enumerate(sub_objs)}
    first = {}
    for s in sub_objs:
        first.setdefault(dec.type_vector(s), s)

    def first_of(word):
        return first[dec.type_vector(word)]

    def no_later(u, v):
        return [obj_index[a] for a in u] <= [obj_index[a] for a in v]

    rows = {}

    def relate(plus, minus):
        row = exponent_row(index, plus, minus)
        if row:
            rows.setdefault(frozenset(row.items()), row)

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
    sub_pres = AbPresentation(len(sub_objs), list(rows.values()))
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


def free_class_of_idempotent(r, a, p, bound, ceiling=DEFAULT_CEILING):
    """The free class of an idempotent p in End(a): the multiset t that the
    iso-class table holds for the type vector of im(p) (the first multiset
    of that type vector within the bound, so also the first word).
    im(p) is isomorphic to t because the split of p passed its check
    (`Decomposition`), so no splitting is built.  None when no sum within
    the bound has that type vector.  Undecided when im(p) cannot be split
    within the ceiling, or when no sum matches while the decomposition has
    undecided records (an unmerged type may hide the match)."""
    dec = decomposition(r, ceiling)
    summands = dec.split(a, p)
    if isinstance(summands, Undecided):
        return summands
    t = iso_class_table(r, bound, ceiling=ceiling).get(dec.key(summands))
    if t is None and dec.undecided:
        return dec.undecided[0]
    return t


def fibration_check(m, ideal, bound, ceiling=DEFAULT_CEILING):
    """Degree-zero exactness of K(J) -> K(M) -> K(M/J) for an ideal in a
    unital moduloid: composite zero and image = kernel at K0(M), exactly.
    `undecided` holds the records of the three K0s (a free class of J+ is
    Undecided only when K0(M) has one).  `unresolved_classes`
    lists the idempotent classes of J+ with no certified free class within
    the bound: such a class lives in the K0 of the idempotent completion,
    not of free sums, so its image is not known here.  When either is
    non-empty, `composite_zero` and `exact` are None (unknown), and these
    two fields record why."""
    from .moduloids import ideal_moduloid, quotient

    if not m.unital:
        raise StructuralError("fibration check needs a unital moduloid")
    sub, incl = ideal_moduloid(ideal)
    rel = k0_relative(sub, ceiling=ceiling)
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
    undecided = rel.undecided + k0m.undecided + k0q.undecided
    unresolved = []
    class_images = []
    for (a, p) in rel.idem_plus.reps:
        q = jplus_to_m.apply(a, a, p)
        t = free_class_of_idempotent(m, a, q, bound, ceiling=ceiling)
        if t is None or isinstance(t, Undecided):
            unresolved.append((a, p))
            class_images.append(None)
        else:
            class_images.append(exponent_row(index, t))
    inclusion_rows = []
    for vec in rel.kernel_basis:
        resolved = all(class_images[i] is not None for i, c in enumerate(vec) if c)
        inclusion_rows.append(apply_rows(vec, class_images) if resolved else None)

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

