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
it is presented directly as an abelian group, one sparse relation row
per relator.  It must agree with the Grothendieck-completion K0 at equal
bounds.  Both read the one `Decomposition` and its type vectors, so this
checks the group completion, not which sums are isomorphic.

Both enumerations are refused before they start when their predicted size
is over a fixed limit: the relation rows of the oracle and the tuples of
a level (`level_size`).
"""

import math

from .intlinalg import AbPresentation, exponent_row, hom_is_isomorphism
from .krullschmidt import (SizeLimitExceeded, _three_figures, decomposition,
                           iso_class_table)
from .ktheory import k0_bounded
from .ringoid import DEFAULT_CEILING, StructuralError, enumerate_objsums

# The most relation rows the oracle may build, and the most tuples of a
# nerve level that may be enumerated.  Over the whole oracle job a row
# takes about 1 KB and 30 us (disc3 at bound 8: 93 495 rows, 105 MB,
# 2.7 s; at bound 9: 310 008 rows, 304 MB, 8.6 s), so this refuses about
# 1 GB and 30 s of work: disc3 at bound 10 (1.02e6 rows) and disc2 at
# bound 15 (1.05e6) are the first refused.  A level is checked at about
# 80 us per tuple (disc3 at bound 7: 105 796 at level 3, 8.2 s), so this
# refuses about 40 minutes of work, or about 2 GB for a level held in
# memory (70 bytes per tuple).  CPython 3.11, x86-64.
RELATION_ROW_LIMIT = 10 ** 6
LEVEL_TUPLE_LIMIT = 3 * 10 ** 7

# With two objects or more a size is at least 2^bound, so over this bound
# it is evaluated at this bound alone, as a lower bound far over the limits.
_EXACT_BOUND = 1000


def level_size(k, n, bound):
    """The number of n-tuples of words in k letters with total length at
    most bound: C(m + n - 1, n - 1) * k^m of total length m."""
    if n == 0 or k == 0:
        return 1
    if k == 1:
        return math.comb(bound + n, n)
    return sum(math.comb(m + n - 1, n - 1) * k ** m for m in range(bound + 1))


def _refuse_over(stage, unit, limit, k, bound, size_at):
    """Raise SizeLimitExceeded when size_at(bound), the predicted size of the
    stage, is over the limit."""
    exact = k < 2 or bound <= _EXACT_BOUND
    size = size_at(bound if exact else _EXACT_BOUND)
    if size > limit:
        raise SizeLimitExceeded(
            "%s at bound %d would hold %s%s %s, over the limit of %d"
            % (stage, bound, "" if exact else "more than ",
               _three_figures(size), unit, limit))


def _refuse_large_level(r, n, bound):
    k = len(r.objects)
    _refuse_over("nerve level %d" % n, "tuples", LEVEL_TUPLE_LIMIT, k, bound,
                 lambda b: level_size(k, n, b))


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
    Each tuple is made as it is checked; the top level, the largest, is sized.
    """
    _refuse_large_level(r, n_max, bound)
    sums = enumerate_objsums(r.objects, bound)
    failures = []
    checked = 0
    for n in range(n_max + 1):
        for obj in _tuples_within(sums, n, bound):
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
    relator), the level-1 sums behind the generators, and the `undecided`
    records of the decomposition that certified its isomorphisms."""

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
    where rep is the iso-class table's multiset of the type vector of s,
    then e_s + e_t - e_(s+t) for each level-2 object (s, t) in order.  The
    type vectors certify the isomorphisms s -> rep (`Decomposition`).  Each
    row is sparse, with at most three non-zero entries.  Raises
    SizeLimitExceeded, before enumerating, when there could be more than
    RELATION_ROW_LIMIT rows: at most one per sum and per pair of sums
    (levels 1 and 2), plus one."""
    k = len(r.objects)
    _refuse_over("nerve relations", "rows", RELATION_ROW_LIMIT, k, bound,
                 lambda b: 1 + level_size(k, 1, b) + level_size(k, 2, b))
    table = iso_class_table(r, bound, ceiling=ceiling)
    dec = decomposition(r, ceiling)
    sums = enumerate_objsums(r.objects, bound)
    index = {s: i for i, s in enumerate(sums)}
    rows = [exponent_row(index, [()])]
    for s in sums:
        rep = table[dec.type_vector(s)]
        if s != rep:
            rows.append(exponent_row(index, [s], [rep]))
    for s, t in _tuples_within(sums, 2, bound):
        rows.append(exponent_row(index, [s, t], [s + t]))
    return NerveKZero(bound, AbPresentation(len(sums), rows), sums,
                      dec.undecided)


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
    of r at this bound and ceiling."""
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
