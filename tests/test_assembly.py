import pytest

from ringoids import (AbPresentation, FinGroup, GSet, assembly_zero,
                      discrete_groupoid, disjoint_union_gset,
                      equivariant_assembly_zero, group_as_groupoid,
                      naturality_check)
from ringoids.ringoid import StructuralError

Z = AbPresentation.free(1)


@pytest.fixture(scope="module")
def c2():
    return FinGroup.cyclic(2)


def test_point_case_is_identity(f2):
    pi = group_as_groupoid(FinGroup.cyclic(1), name="1")
    am = assembly_zero(pi, f2, 3)
    assert am.source_presentation == Z
    assert am.target.presentation == Z
    assert am.matrix == [{0: 1}]
    assert am.iso


def test_c2_group_ring_case(f2, c2):
    am = assembly_zero(group_as_groupoid(c2, name="C2"), f2, 3)
    assert am.source_presentation == Z
    assert am.target.presentation == Z
    assert am.iso


def test_two_component_discrete_groupoid(f2):
    am = assembly_zero(discrete_groupoid(("a", "b")), f2, 2)
    assert am.source_presentation == AbPresentation.free(2)
    assert am.target.presentation == AbPresentation.free(2)
    assert am.iso


def test_equivariant_point_orbit(f2, c2):
    am = equivariant_assembly_zero(GSet.trivial(c2), f2, 3)
    assert am.matrix == [{0: 1}]
    assert am.iso
    assert len(am.components) == 1
    assert len(am.components[0].vertex_group) == 2


def test_equivariant_free_orbit(f2, c2):
    am = equivariant_assembly_zero(GSet.regular(c2), f2, 3)
    assert am.source_presentation == Z
    assert am.target.presentation == Z
    assert am.iso
    assert len(am.components[0].vertex_group) == 1


def test_equivariant_disjoint_union(f2, c2):
    du = disjoint_union_gset(GSet.trivial(c2), GSet.regular(c2))
    am = equivariant_assembly_zero(du, f2, 3)
    assert am.source_presentation == AbPresentation.free(2)
    assert am.target.presentation == AbPresentation.free(2)
    assert am.iso


def test_naturality_identity(f2, c2):
    xs = GSet.regular(c2)
    rep = naturality_check({x: x for x in xs.points}, xs, xs, f2, 3)
    assert rep.commutes


def test_naturality_fold(f2, c2):
    free = GSet.regular(c2)
    two = disjoint_union_gset(free, free)
    fold = {("L", p): p for p in free.points}
    fold.update({("R", p): p for p in free.points})
    rep = naturality_check(fold, two, free, f2, 3)
    assert rep.commutes


def test_naturality_projection(f2, c2):
    free = GSet.regular(c2)
    point = GSet.trivial(c2)
    proj = {x: "pt" for x in free.points}
    rep = naturality_check(proj, free, point, f2, 3)
    assert rep.commutes
    # the source map is the rank-one induction on components
    assert rep.source_map == [{0: 1}]


def test_naturality_rejects_non_equivariant(f2, c2):
    free = GSet.regular(c2)
    bad = {0: 0, 1: 0}  # constant into a free orbit cannot be equivariant
    with pytest.raises(StructuralError):
        naturality_check(bad, free, free, f2, 2)
