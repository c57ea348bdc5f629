"""Bounded K0 invariants.

K0 is the Grothendieck completion of the bounded iso-class monoid of free
formal sums (sums of base objects) in the additive completion, classified
by Krull-Schmidt type vector (`krullschmidt.Decomposition`), which reads
the base ringoid alone: a K0 process compiles no matrix arithmetic.  The
reported group carries an honest-bound contract: the K0 of free sums is a
quotient of it, since relations between sums beyond the bound are
missing.  It is not the K0 of idempotent classes: over F2 x F2 free sums
give Z and idempotent classes give Z^2 (`relative` computes relative K0 on
idempotent classes).  The induced map on bounded K0 is `k0_induced`; the
degree-zero pairing of a tensor product is `theorems.exterior_product`.
K1 lives in `k1`, so a K0 process compiles none of it.
"""

from __future__ import annotations

from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_is_isomorphism, hom_well_defined)
from .krullschmidt import decomposition, iso_class_table
from .ringoid import DEFAULT_CEILING, StructuralError, enumerate_multisets


# ---------------------------------------------------------------------------
# Absolute bounded K0.
# ---------------------------------------------------------------------------

class KZeroResult:
    """Bounded K0: presentation on the base objects, one relation per
    distinct non-zero difference [s] - [rep] of isomorphic multisets
    within the bound.  A word has the type vector and the row of its
    sorted form, so the words add no relation.  `stabilized_since` is the
    first l >= 2 whose group at l - 1 is the one at the bound, or None."""

    __slots__ = ("bound", "presentation", "gen_labels", "stabilized_since",
                 "undecided")

    def __init__(self, bound, presentation, gen_labels, stabilized_since,
                 undecided):
        self.bound = bound
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.stabilized_since = stabilized_since
        self.undecided = undecided

    def __repr__(self):
        return "KZeroResult(%s at L=%d%s)" % (
            self.presentation, self.bound,
            ", stabilized at L=%d" % self.stabilized_since
            if self.stabilized_since else ", not stabilized")


def k0_bounded(r, bound, ceiling=DEFAULT_CEILING):
    """Bounded K0, read off the iso-class table of r.

    The group is Z^n/A_bound, A_l the lattice of the rows of the multisets
    of length <= l, and `stabilized_since` is the first l >= 2 with
    A_(l-1) = A_bound.  A row enters at its shortest length, so the
    lattices are nested, A_(l-1) <= A_(bound-1) <= A_bound; equal
    invariants make the surjection Z^n/A_(l-1) -> Z^n/A_bound an
    isomorphism, so A_(l-1) = A_bound.  Hence A_1, A_2, ... are built only
    when A_(bound-1) = A_bound, and only up to the first equal one."""
    if not r.unital:
        raise StructuralError("absolute K0 needs a unital ringoid")
    table = iso_class_table(r, bound, ceiling=ceiling)
    dec = decomposition(r, ceiling)
    objects = list(r.objects)
    index = {a: i for i, a in enumerate(objects)}
    # each distinct non-zero row once, with the length of its first multiset,
    # the shortest; first-occurrence order keeps k0_induced's failing relation
    shortest = {}
    for s in enumerate_multisets(objects, bound):
        rep = table[dec.type_vector(s)]
        if s != rep:  # two distinct multisets: the row is not zero
            row = exponent_row(index, s, rep)
            shortest.setdefault(frozenset(row.items()), len(s))

    def lattice(l):
        return AbPresentation(len(objects), [dict(key) for key, mlen
                                             in shortest.items() if mlen <= l])

    presentation = lattice(bound)
    stabilized_since = None
    if bound >= 2 and lattice(bound - 1) == presentation:
        stabilized_since = next((l for l in range(2, bound)
                                 if lattice(l - 1) == presentation), bound)
    return KZeroResult(bound, presentation, [str(a) for a in objects],
                       stabilized_since, bool(dec.undecided))


class InducedMap:
    """Degree-zero functoriality: the matrix [a] -> [F(a)] on generators,
    checked against both relation lattices."""

    __slots__ = ("source", "target", "matrix", "well_defined", "failing_relation")

    def __init__(self, source, target, matrix, well_defined, failing_relation):
        self.source = source
        self.target = target
        self.matrix = tuple(matrix)
        self.well_defined = well_defined
        self.failing_relation = failing_relation

    def apply(self, vec):
        return apply_rows(vec, self.matrix)

    def is_isomorphism(self):
        return hom_is_isomorphism(self.source.presentation,
                                  self.target.presentation, self.matrix)


def k0_induced(f, source_result, target_result):
    """Induced map on bounded K0 along a ringoid homomorphism.  A relation
    that fails to transport is reported as a bound artifact, not raised."""
    index = {b: j for j, b in enumerate(f.target.objects)}
    matrix = [exponent_row(index, [f.object_map[a]]) for a in f.source.objects]
    ok, bad = hom_well_defined(source_result.presentation,
                               target_result.presentation, matrix)
    return InducedMap(source_result, target_result, matrix, ok, bad)
