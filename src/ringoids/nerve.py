"""The simplicial construction on an additive completion, and a K0 oracle.

Level n consists of n-tuples of formal sums; the chosen biproduct of any
sub-tuple is its concatenation, which makes every face and degeneracy
formula hold on the nose.  Interior faces merge adjacent entries, the two
outer faces drop the first or last entry, and degeneracies insert the zero
object (the empty sum).

The oracle computes the fundamental group of the 2-truncated realization
of the isomorphism nerve: one generator per formal sum within the bound,
a relation (s)(t) = (s + t) for each level-2 object, and (s) = (t) for
each discovered isomorphism.  Its abelianization must agree with the
Grothendieck-completion K0 at equal bounds; the two pipelines share only
the isomorphism searcher.
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
        merged = self._block_sum(fs[i - 1], fs[i])
        return tuple(fs[:i - 1]) + (merged,) + tuple(fs[i + 1:])

    def _block_sum(self, f, g):
        view = self.view
        i_s, i_t, p_s, p_t = view.biproduct(f.src, g.src)
        j_s, j_t, q_s, q_t = view.biproduct(f.dst, g.dst)
        return view.add(view.compose(view.compose(j_s, f), p_s),
                        view.compose(view.compose(j_t, g), p_t))


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
# Group presentations with Tietze-style simplification.
# ---------------------------------------------------------------------------

class GroupPresentation:
    """Generators and relator words (tuples of nonzero ints, sign = inverse).
    Simplification uses only group-preserving moves: free and cyclic
    reduction, dropping empty relators, and eliminating a generator that
    occurs exactly once in some relator by solving for it."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        self.relators = tuple(tuple(w) for w in relators)

    def __repr__(self):
        return "GroupPresentation(<%d gens | %d relators>)" % (
            len(self.generators), len(self.relators))

    def display(self):
        def word_str(w):
            if not w:
                return "1"
            parts = []
            for x in w:
                name = self.generators[abs(x) - 1]
                parts.append(str(name) if x > 0 else "%s^-1" % name)
            return "*".join(parts)
        gens = ", ".join(str(g) for g in self.generators)
        rels = ", ".join(word_str(w) for w in self.relators)
        return "< %s | %s >" % (gens if gens else "-", rels if rels else "-")

    def abelianization(self):
        rows = []
        for w in self.relators:
            row = [0] * len(self.generators)
            for x in w:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)
        return AbPresentation(len(self.generators), rows)

    def simplify(self):
        gens = list(self.generators)
        relators = [_free_reduce(w) for w in self.relators]
        changed = True
        while changed:
            changed = False
            relators = [_cyclic_reduce(_free_reduce(w)) for w in relators]
            relators = [w for w in relators if w]
            # deduplicate, preserving order
            seen = set()
            uniq = []
            for w in relators:
                if w not in seen:
                    seen.add(w)
                    uniq.append(w)
            relators = uniq
            # eliminate a generator occurring exactly once in some relator
            for ridx, w in enumerate(relators):
                counts = {}
                for x in w:
                    counts[abs(x)] = counts.get(abs(x), 0) + 1
                candidates = [g for g, c in counts.items() if c == 1]
                if not candidates:
                    continue
                g = max(candidates)
                pos = next(k for k, x in enumerate(w) if abs(x) == g)
                # w = u g^e v  =>  g^e = u^-1 v^-1, so g = (u^-1 v^-1)^(1/e)
                u, x, v = w[:pos], w[pos], w[pos + 1:]
                rest = _free_reduce(tuple(-t for t in reversed(u))
                                    + tuple(-t for t in reversed(v)))
                if x < 0:
                    rest = tuple(-t for t in reversed(rest))
                replacement = rest
                new_relators = []
                for k, other in enumerate(relators):
                    if k == ridx:
                        continue
                    new_relators.append(_substitute(other, g, replacement))
                relators = [_free_reduce(w2) for w2 in new_relators]
                # drop generator g, renumbering those above it
                del gens[g - 1]
                relators = [tuple(x2 - (1 if x2 > g else 0) if x2 > 0
                                  else x2 + (1 if -x2 > g else 0)
                                  for x2 in w2)
                            for w2 in relators]
                changed = True
                break
        return GroupPresentation(gens, relators)


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word):
    word = list(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def _substitute(word, g, replacement):
    out = []
    for x in word:
        if x == g:
            out.extend(replacement)
        elif x == -g:
            out.extend(-t for t in reversed(replacement))
        else:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# The K0 oracle through the 2-truncated nerve realization.
# ---------------------------------------------------------------------------

class NerveKZero:
    """The nerve oracle's result: the presentation of the fundamental group,
    its abelianization (invariants from the sparse elimination of
    `intlinalg`), and the level-1 sums behind the generators.  The
    word-level Tietze pass runs only when `simplified` is read."""

    __slots__ = ("bound", "presentation", "abelianized", "generator_sums",
                 "undecided")

    def __init__(self, bound, presentation, abelianized, generator_sums,
                 undecided):
        self.bound = bound
        self.presentation = presentation
        self.abelianized = abelianized
        self.generator_sums = tuple(generator_sums)
        self.undecided = undecided

    @property
    def simplified(self):
        return self.presentation.simplify()

    def __repr__(self):
        return "NerveKZero(%s at L=%d)" % (self.abelianized, self.bound)


def k0_via_nerve(r, bound, ceiling=DEFAULT_CEILING, view=None, table=None):
    """Fundamental group of the 2-truncation: generators are the level-1
    objects (formal sums within the bound); each level-2 object (s, t) with
    its faces glues the relation (s)(t)(s+t)^-1; each isomorphism in the
    level-1 isomorphism category glues (s)(t)^-1; the degenerate 1-cell of
    the zero object is collapsed.  The group is abelian modulo these
    relations, so its abelianization is the group."""
    if view is None:
        view = complete(r)
    if table is None:
        table = iso_class_table(view, bound, ceiling=ceiling)
    sums = enumerate_objsums(r.objects, bound)
    index = {s: i + 1 for i, s in enumerate(sums)}
    relators = [(index[()],)]
    for s, cls in table.class_of.items():
        rep = table.reps[cls]
        if s != rep:
            relators.append((index[s], -index[rep]))
    for s in sums:
        for t in sums:
            if len(s) + len(t) <= bound:
                relators.append((index[s], index[t], -index[s + t]))
    pres = GroupPresentation([_sum_label(s) for s in sums], relators)
    return NerveKZero(bound, pres, pres.abelianization(), sums, table.undecided)


def _sum_label(s):
    return "+".join(str(a) for a in s) if s else "0"


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
