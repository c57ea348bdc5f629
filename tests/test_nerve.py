import pytest
from hypothesis import given, settings, strategies as st

from conftest import elementary_ringoid
from ringoids import (AbPresentation, GroupPresentation,
                      check_simplicial_identities, complete, degeneracy, face,
                      k0_bounded, k0_via_nerve, nerve_level, oracle_compare)
from ringoids.intlinalg import hom_well_defined
from ringoids.nerve import NerveLevel


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
    lvl2 = nerve_level(f2, 2, 3)
    assert all(sum(len(s) for s in obj) <= 3 for obj in lvl2.objects)
    assert (("*",), ("*",)) in lvl2.objects
    lvl0 = nerve_level(f2, 0, 3)
    assert lvl0.objects == ((),)


def test_nerve_level_morphisms(f2):
    view = complete(f2)
    lvl = NerveLevel(view, 2, 2)
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
    assert len(res.simplified.generators) == 1
    assert res.simplified.relators == ()


def test_k0_via_nerve_zero_ring(zero):
    res = k0_via_nerve(zero, 2)
    assert res.abelianized.is_trivial()
    assert len(res.simplified.generators) == 0


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
    ok, _ = hom_well_defined(res3.abelianized.relations,
                             res4.abelianized.relations, include, n4)
    assert ok


@st.composite
def _incidence_ringoids(draw):
    """Random elementary ringoids over F2 on one or two objects of dimension
    1 or 2.  Each basis vector gets a level, and E_ij lies in Hom(a, b) when
    the level of i (in b) is at most that of j (in a); the spans are then
    closed under composition and hold the identities."""
    names = ("a", "b")[:draw(st.integers(1, 2))]
    dims = {x: draw(st.integers(1, 2)) for x in names}
    level = {x: [draw(st.integers(0, 2)) for _ in range(dims[x])] for x in names}
    positions = {(a, b): [(i, j) for i in range(dims[b]) for j in range(dims[a])
                          if level[b][i] <= level[a][j]]
                 for a in names for b in names}
    return elementary_ringoid(dims, "E", positions)


@settings(max_examples=25, deadline=None)
@given(_incidence_ringoids(), st.integers(1, 3))
def test_oracle_agrees_on_random_elementary_ringoids(r, bound):
    rep = oracle_compare(r, bound)
    assert rep.ok
    assert rep.k0.presentation == rep.nerve.abelianized
