import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import incidence_ringoids
from ringoids import (AbPresentation, check_simplicial_identities, complete,
                      degeneracy, enumerate_objsums, face, iso_class_table,
                      k0_bounded, k0_via_nerve, oracle_compare)
from ringoids.intlinalg import hom_well_defined
from ringoids.nerve import NerveLevel
from ringoids.ringoid import StructuralError


# ---------------------------------------------------------------------------
# Reference: the fundamental group of the nerve as a word presentation,
# with word-level Tietze simplification.  The library presents the group
# directly as an abelian group; these check it against the words.
# ---------------------------------------------------------------------------

class GroupPresentation:
    """Generators and relator words (tuples of nonzero ints, sign = inverse).
    Simplification uses only group-preserving moves: free and cyclic
    reduction, dropping empty relators, and eliminating a generator that
    occurs exactly once in some relator by solving for it."""

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        self.relators = tuple(tuple(w) for w in relators)

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
            relators = list(dict.fromkeys(w for w in relators if w))
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
                relators = [_free_reduce(_substitute(other, g, rest))
                            for k, other in enumerate(relators) if k != ridx]
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


def _nerve_words(r, bound):
    """The word presentation of the nerve's fundamental group: the zero
    object's generator, (s)(rep)^-1 per isomorphism to a class
    representative, and (s)(t)(s+t)^-1 per level-2 object."""
    table = iso_class_table(complete(r), bound)
    sums = enumerate_objsums(r.objects, bound)
    index = {s: i + 1 for i, s in enumerate(sums)}
    relators = [(index[()],)]
    for s in sums:
        rep = table.reps[table.class_of_word(s)]
        if s != rep:
            relators.append((index[s], -index[rep]))
    for s in sums:
        for t in sums:
            if len(s) + len(t) <= bound:
                relators.append((index[s], index[t], -index[s + t]))
    return GroupPresentation(["+".join(map(str, s)) or "0" for s in sums],
                             relators)


def test_face_formulas():
    a, b, c = ("x",), ("y",), ("z",)
    assert face(1, (a, b)) == (a + b,)          # interior merge
    assert face(0, (a, b)) == (b,)              # drop the first entry
    assert face(2, (a, b)) == (a,)              # drop the last entry
    assert face(2, (a, b, c)) == (a, b + c)


def test_degeneracy_inserts_zero():
    assert degeneracy(0, ()) == ((),)
    a, b = ("x",), ("y",)
    assert degeneracy(0, (a, b)) == ((), a, b)
    assert degeneracy(1, (a, b)) == (a, (), b)
    assert degeneracy(2, (a, b)) == (a, b, ())


def test_nerve_level_enumeration(f2):
    lvl2 = NerveLevel(f2, 2, 3)
    assert all(sum(len(s) for s in obj) <= 3 for obj in lvl2.objects)
    assert (("*",), ("*",)) in lvl2.objects
    lvl0 = NerveLevel(f2, 0, 3)
    assert lvl0.objects == ((),)


@pytest.mark.parametrize("ring_name", ["f2xf2", "disc2"])
def test_nerve_level_matches_product_and_filter(ring_name, request):
    r = request.getfixturevalue(ring_name)
    for bound in range(5):
        sums = enumerate_objsums(r.objects, bound)
        for n in range(4):
            want = tuple(c for c in itertools.product(sums, repeat=n)
                         if sum(len(s) for s in c) <= bound)
            assert NerveLevel(r, n, bound).objects == want


def test_nerve_level_morphisms(f2):
    lvl = NerveLevel(f2, 2, 2)
    view = lvl.view
    src = (("*",), ("*",))
    assert lvl.hom_order(src, src) == 4
    fs = (view.identity(("*",)), view.identity(("*",)))
    merged = lvl.face_morphism(1, fs)
    assert merged[0] == view.identity(("*", "*"))
    assert lvl.face_morphism(0, fs) == (fs[1],)
    assert lvl.face_morphism(2, fs) == (fs[0],)


@pytest.mark.parametrize("ring_name", ["f2", "z4"])
def test_simplicial_identities_exhaustive(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rep = check_simplicial_identities(ring, 3, 3)
    assert rep.ok
    assert rep.checked > 500


def test_simplicial_identities_empty_tuple(f2):
    rep = check_simplicial_identities(f2, 0, 0)
    assert rep.ok


def test_face_degeneracy_on_specific_triple():
    a, b, c = ("x",), ("y",), ("z",)
    obj = (a, b, c)
    assert face(0, face(2, obj)) == face(1, face(0, obj))


def test_presentation_simplify_substitution():
    # < a, b, c | a a b^-1, b c > reduces to the free group on a
    p = GroupPresentation(("a", "b", "c"), [(1, 1, -2), (2, 3)])
    s = p.simplify()
    assert len(s.generators) == 1
    assert s.relators == ()
    assert p.abelianization() == AbPresentation.free(1)


def test_presentation_simplify_keeps_torsion():
    p = GroupPresentation(("a",), [(1, 1)])
    s = p.simplify()
    assert s.relators  # a^2 cannot be removed
    assert p.abelianization() == AbPresentation.cyclic(2)


def test_k0_via_nerve_f2(f2):
    res = k0_via_nerve(f2, 3)
    assert res.abelianized == AbPresentation.free(1)
    simplified = _nerve_words(f2, 3).simplify()
    assert len(simplified.generators) == 1
    assert simplified.relators == ()


def test_k0_via_nerve_zero_ring(zero):
    res = k0_via_nerve(zero, 2)
    assert res.abelianized.is_trivial()
    simplified = _nerve_words(zero, 2).simplify()
    assert len(simplified.generators) == 0


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("ring_name", ["f2", "z4", "zero", "f2c2", "disc2"])
def test_nerve_rows_are_the_abelianized_words(ring_name, bound, request):
    ring = request.getfixturevalue(ring_name)
    res = k0_via_nerve(ring, bound)
    words = _nerve_words(ring, bound)
    assert words.abelianization().relations == res.abelianized.relations
    assert len(words.generators) == res.abelianized.generators


def test_k0_via_nerve_z4_matches_k0(z4):
    res = k0_via_nerve(z4, 3)
    assert res.abelianized == k0_bounded(z4, 3).presentation


@pytest.mark.parametrize("ring_name", ["f2", "z4", "zero", "f2c2"])
def test_oracle_compare(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rep = oracle_compare(ring, 3)
    assert rep.match
    assert rep.map_forward_ok and rep.map_backward_ok
    assert rep.ok


def test_oracle_compare_needs_a_positive_bound(f2):
    # at bound 0 the base objects are not among the nerve's generators
    with pytest.raises(StructuralError, match="bound of at least 1"):
        oracle_compare(f2, 0)


def test_oracle_compare_two_object_ringoid(z4):
    from ringoids import scalar_ringoid
    diag = scalar_ringoid(("a", "b"), z4.scalar)
    rep = oracle_compare(diag, 3)
    assert rep.ok
    assert rep.k0.presentation == AbPresentation.free(2)


def test_oracle_compare_transport_ring(f2):
    from ringoids import (FinGroup, GSet, group_ringoid, k0_bounded,
                          transport_groupoid)
    c2 = FinGroup.cyclic(2)
    mixed = GSet(c2, (1, 2, 3),
                 {(1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 1,
                  (3, 0): 3, (3, 1): 3})
    ring = group_ringoid(transport_groupoid(mixed), f2)
    rep = oracle_compare(ring, 2)
    assert rep.ok
    assert rep.k0.presentation == AbPresentation.free(2)


def test_nerve_relations_monotone_in_bound(f2):
    # the bound-L relation set maps into the bound-(L+1) relation set under
    # the generator inclusion
    res3 = k0_via_nerve(f2, 3)
    res4 = k0_via_nerve(f2, 4)
    sums3 = list(res3.generator_sums)
    sums4 = list(res4.generator_sums)
    n4 = len(sums4)
    include = []
    for s in sums3:
        row = [0] * n4
        row[sums4.index(s)] = 1
        include.append(row)
    ok, _ = hom_well_defined(res3.abelianized, res4.abelianized, include)
    assert ok


@settings(max_examples=25, deadline=None)
@given(incidence_ringoids(), st.integers(1, 3))
def test_oracle_agrees_on_random_elementary_ringoids(r, bound):
    rep = oracle_compare(r, bound)
    assert rep.ok
    assert rep.k0.presentation == rep.nerve.abelianized
