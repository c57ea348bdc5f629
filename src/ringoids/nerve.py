"""The simplicial construction on an additive completion, and a K0 oracle.

Level n consists of n-tuples of formal sums; the chosen biproduct of any
sub-tuple is its concatenation, which makes every face and degeneracy
formula hold on the nose.  Interior faces merge adjacent entries, the two
outer faces drop the first or last entry, and degeneracies insert the zero
object (the empty sum).

The oracle computes the fundamental group of the 2-truncated realization
of the isomorphism nerve: one generator per formal sum within the bound,
a relation (s)(t) = (s + t) for each level-2 object, and (s) = (t) for
each discovered isomorphism.  These relations make the group abelian, so
it is presented directly as an abelian group, one relation row per
relator.  It must agree with the Grothendieck-completion K0 at equal
bounds; the two pipelines share only the isomorphism searcher.
"""

from __future__ import annotations

from .additive import DEFAULT_CEILING, complete, enumerate_objsums, iso_class_table
from .intlinalg import AbPresentation, exponent_row, hom_is_isomorphism
from .ktheory import k0_bounded
from .ringoid import StructuralError


class NerveLevel:
    """Level n of the nerve of the completion of r: tuples of formal sums
    with total length within the bound, in lexicographic order.  Morphisms
    are componentwise matrices; faces and degeneracies act by the
    merge/drop/insert formulas."""

    __slots__ = ("view", "n", "bound", "objects")

    def __init__(self, r, n, bound):
        self.view = complete(r)
        self.n = n
        self.bound = bound
        sums = enumerate_objsums(r.objects, bound)
        self.objects = tuple(_tuples_within(sums, n, bound))

    def hom_order(self, src, dst):
        total = 1
        for s, t in zip(src, dst):
            total *= self.view.hom_order(s, t)
        return total

    def compose(self, fs, gs):
        return tuple(self.view.compose(f, g) for f, g in zip(fs, gs))

    def face_morphism(self, i, fs):
        """Image of a componentwise morphism under the i-th face: interior
        faces take the block sum of the two merged components."""
        n = len(fs)
        if i == 0:
            return tuple(fs[1:])
        if i == n:
            return tuple(fs[:-1])
        merged = self.view.block_sum(fs[i - 1], fs[i])
        return tuple(fs[:i - 1]) + (merged,) + tuple(fs[i + 1:])


def _tuples_within(sums, n, budget):
    """The n-tuples of sums of total length at most budget, in lexicographic
    order; `sums` is sorted by length, so each loop stops at the first sum
    longer than the budget left."""
    if n == 0:
        yield ()
        return
    for s in sums:
        if len(s) > budget:
            break
        for rest in _tuples_within(sums, n - 1, budget - len(s)):
            yield (s,) + rest


def face(i, obj):
    """Face maps on tuples: drop the first entry (i = 0), drop the last
    (i = n), or merge entries i and i+1 by concatenation (0 < i < n)."""
    n = len(obj)
    if not 0 <= i <= n:
        raise StructuralError("face index out of range")
    if i == 0:
        return tuple(obj[1:])
    if i == n:
        return tuple(obj[:-1])
    return tuple(obj[:i - 1]) + (obj[i - 1] + obj[i],) + tuple(obj[i + 1:])


def degeneracy(i, obj):
    """Insert the zero object (empty sum) after position i."""
    n = len(obj)
    if not 0 <= i <= n:
        raise StructuralError("degeneracy index out of range")
    return tuple(obj[:i]) + ((),) + tuple(obj[i:])


class SimplicialReport:
    __slots__ = ("checked", "failures")

    def __init__(self, checked, failures):
        self.checked = checked
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures


def check_simplicial_identities(r, n_max, bound):
    """Exhaustively verify the simplicial identities on every enumerated
    object up to level n_max within the bound:
      face_i face_j = face_{j-1} face_i            (i < j)
      deg_i deg_j = deg_{j+1} deg_i                (i <= j)
      face_i deg_j = deg_{j-1} face_i              (i < j)
      face_j deg_j = id = face_{j+1} deg_j
      face_i deg_j = deg_j face_{i-1}              (i > j + 1)
    """
    failures = []
    checked = 0
    for n in range(n_max + 1):
        level = NerveLevel(r, n, bound)
        for obj in level.objects:
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        lhs = face(i, face(j, obj))
                        rhs = face(j - 1, face(i, obj))
                        checked += 1
                        if lhs != rhs:
                            failures.append(("ff", n, i, j, obj, lhs, rhs))
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = degeneracy(i, degeneracy(j, obj))
                    rhs = degeneracy(j + 1, degeneracy(i, obj))
                    checked += 1
                    if lhs != rhs:
                        failures.append(("dd", n, i, j, obj, lhs, rhs))
            for j in range(n + 1):
                dj = degeneracy(j, obj)
                for i in range(n + 2):
                    got = face(i, dj)
                    checked += 1
                    if i < j:
                        want = degeneracy(j - 1, face(i, obj))
                    elif i in (j, j + 1):
                        want = obj
                    else:
                        want = degeneracy(j, face(i - 1, obj))
                    if got != want:
                        failures.append(("fd", n, i, j, obj, got, want))
    return SimplicialReport(checked, failures)


# ---------------------------------------------------------------------------
# The K0 oracle through the 2-truncated nerve realization.
# ---------------------------------------------------------------------------

class NerveKZero:
    """The nerve oracle's result: the fundamental group as a presented
    abelian group (one generator per level-1 sum, one relation row per
    relator), and the level-1 sums behind the generators."""

    __slots__ = ("bound", "abelianized", "generator_sums", "undecided")

    def __init__(self, bound, abelianized, generator_sums, undecided):
        self.bound = bound
        self.abelianized = abelianized
        self.generator_sums = tuple(generator_sums)
        self.undecided = undecided

    def __repr__(self):
        return "NerveKZero(%s at L=%d)" % (self.abelianized, self.bound)


def k0_via_nerve(r, bound, ceiling=DEFAULT_CEILING):
    """Fundamental group of the 2-truncation: generators are the level-1
    objects (formal sums within the bound); each level-2 object (s, t) with
    its faces glues the relation (s)(t)(s+t)^-1; each isomorphism in the
    level-1 isomorphism category glues (s)(t)^-1; the degenerate 1-cell of
    the zero object is collapsed.  The group is abelian modulo these
    relations, so each relator is written as its exponent-sum row by
    `exponent_row`: e_() first, then e_s - e_rep for each sum s in order,
    then e_s + e_t - e_(s+t).  The isomorphism s -> rep is the permutation
    sorting s followed by the witness for the sorted form in the iso-class
    table that `k0_bounded` reads."""
    table = iso_class_table(complete(r), bound, ceiling=ceiling)
    sums = enumerate_objsums(r.objects, bound)
    index = {s: i for i, s in enumerate(sums)}
    rows = [exponent_row(index, [()])]
    for s in sums:
        rep = table.reps[table.class_of_word(s)]
        if s != rep:
            rows.append(exponent_row(index, [s], [rep]))
    for s in sums:
        for t in sums:
            if len(s) + len(t) <= bound:
                rows.append(exponent_row(index, [s, t], [s + t]))
    return NerveKZero(bound, AbPresentation(len(sums), rows), sums,
                      table.undecided)


class OracleReport:
    __slots__ = ("k0", "nerve", "match", "map_forward_ok", "map_backward_ok",
                 "undecided")

    def __init__(self, k0, nerve, match, map_forward_ok, map_backward_ok,
                 undecided):
        self.k0 = k0
        self.nerve = nerve
        self.match = match
        self.map_forward_ok = map_forward_ok
        self.map_backward_ok = map_backward_ok
        self.undecided = undecided

    @property
    def ok(self):
        return self.match and self.map_forward_ok and self.map_backward_ok


def oracle_compare(r, bound, ceiling=DEFAULT_CEILING):
    """Run the monoid-completion K0 and the nerve oracle at the same bound
    and certify they agree: equal normal forms, and the generator-wise
    comparison maps are mutually inverse isomorphisms of the presented
    groups.  The bound must be at least 1, so that the base objects are
    generators of the nerve side.  Both sides read the one iso-class table
    of the completion at this bound and ceiling."""
    if bound < 1:
        raise StructuralError("oracle comparison needs a bound of at least 1")
    k0 = k0_bounded(r, bound, ceiling=ceiling)
    nerve = k0_via_nerve(r, bound, ceiling=ceiling)
    match = k0.presentation == nerve.abelianized
    sums = nerve.generator_sums
    sum_index = {s: i for i, s in enumerate(sums)}
    obj_index = {a: i for i, a in enumerate(r.objects)}
    # k0 generator [a] -> nerve generator (a); nerve generator s -> sum of letters
    fwd = [exponent_row(sum_index, [(a,)]) for a in r.objects]
    bwd = [exponent_row(obj_index, s) for s in sums]
    fwd_ok = hom_is_isomorphism(k0.presentation, nerve.abelianized, fwd)
    bwd_ok = hom_is_isomorphism(nerve.abelianized, k0.presentation, bwd)
    return OracleReport(k0, nerve, match, fwd_ok, bwd_ok, k0.undecided)
