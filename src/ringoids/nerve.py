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

import itertools

from .additive import DEFAULT_CEILING, complete, enumerate_objsums, iso_class_table
from .intlinalg import AbPresentation, hom_is_isomorphism
from .ktheory import count_vector, k0_bounded
from .ringoid import StructuralError


class NerveLevel:
    """Level n: tuples of formal sums with total length within the bound.
    Morphisms between tuples are componentwise matrices of the completion;
    faces and degeneracies act by the merge/drop/insert formulas."""

    __slots__ = ("view", "n", "bound", "objects")

    def __init__(self, view, n, bound):
        self.view = view
        self.n = n
        self.bound = bound
        self.objects = tuple(self._enumerate())

    def _enumerate(self):
        sums = enumerate_objsums(self.view.base.objects, self.bound)
        for combo in itertools.product(sums, repeat=self.n):
            if sum(len(s) for s in combo) <= self.bound:
                yield combo

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


def nerve_level(r, n, bound, view=None):
    if view is None:
        view = complete(r)
    return NerveLevel(view, n, bound)


class SimplicialReport:
    __slots__ = ("checked", "failures")

    def __init__(self, checked, failures):
        self.checked = checked
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures


def check_simplicial_identities(r, n_max, bound, view=None):
    """Exhaustively verify the simplicial identities on every enumerated
    object up to level n_max within the bound:
      face_i face_j = face_{j-1} face_i            (i < j)
      deg_i deg_j = deg_{j+1} deg_i                (i <= j)
      face_i deg_j = deg_{j-1} face_i              (i < j)
      face_j deg_j = id = face_{j+1} deg_j
      face_i deg_j = deg_j face_{i-1}              (i > j + 1)
    """
    if view is None:
        view = complete(r)
    failures = []
    checked = 0
    for n in range(n_max + 1):
        level = NerveLevel(view, n, bound)
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


def k0_via_nerve(r, bound, ceiling=DEFAULT_CEILING, view=None, table=None):
    """Fundamental group of the 2-truncation: generators are the level-1
    objects (formal sums within the bound); each level-2 object (s, t) with
    its faces glues the relation (s)(t)(s+t)^-1; each isomorphism in the
    level-1 isomorphism category glues (s)(t)^-1; the degenerate 1-cell of
    the zero object is collapsed.  The group is abelian modulo these
    relations, so each relator is recorded as its exponent-sum row:
    e_() first, then e_s - e_rep, then e_s + e_t - e_(s+t)."""
    if view is None:
        view = complete(r)
    if table is None:
        table = iso_class_table(view, bound, ceiling=ceiling)
    sums = enumerate_objsums(r.objects, bound)
    index = {s: i for i, s in enumerate(sums)}

    def relator(plus, minus=()):
        row = [0] * len(sums)
        for s in plus:
            row[index[s]] += 1
        for s in minus:
            row[index[s]] -= 1
        return row

    rows = [relator([()])]
    for s, cls in table.class_of.items():
        rep = table.reps[cls]
        if s != rep:
            rows.append(relator([s], [rep]))
    for s in sums:
        for t in sums:
            if len(s) + len(t) <= bound:
                rows.append(relator([s, t], [s + t]))
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
    groups."""
    view = complete(r)
    table = iso_class_table(view, bound, ceiling=ceiling)
    k0 = k0_bounded(r, bound, ceiling=ceiling, view=view, table=table)
    nerve = k0_via_nerve(r, bound, ceiling=ceiling, view=view, table=table)
    match = k0.presentation == nerve.abelianized
    objects = list(r.objects)
    sums = list(nerve.generator_sums)
    # k0 generator [a] -> nerve generator (a); nerve generator s -> sum of letters
    fwd = []
    for a in objects:
        row = [0] * len(sums)
        row[sums.index((a,))] = 1
        fwd.append(row)
    bwd = [count_vector(s, objects) for s in sums]
    fwd_ok = hom_is_isomorphism(k0.presentation, nerve.abelianized, fwd)
    bwd_ok = hom_is_isomorphism(nerve.abelianized, k0.presentation, bwd)
    return OracleReport(k0, nerve, match, fwd_ok, bwd_ok, table.undecided)
