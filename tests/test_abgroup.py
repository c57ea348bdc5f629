import pytest
from hypothesis import given, settings, strategies as st

from ringoids.abgroup import FinAbGroup
from ringoids.moduloids import GroupQuotient, tensor_group


def test_group_arithmetic():
    g = FinAbGroup((2, 4))
    assert g.zero() == (0, 0)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.smul(3, (1, 3)) == (1, 1)
    assert g.order() == 8
    assert len(list(g.elements())) == 8
    assert g.reduce((5, -1)) == (1, 3)


def test_modulus_one_is_trivial_factor():
    g = FinAbGroup((1, 3))
    assert g.basis_element(0) == (0, 0)
    assert g.basis_element(1) == (0, 1)
    assert g.order() == 3


def test_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FinAbGroup((0,))


def test_quotient_z4_by_2():
    q = GroupQuotient(FinAbGroup((4,)), [(2,)])
    assert q.group.moduli == (2,)
    assert q.project((0,)) == q.project((2,))
    assert q.project((1,)) != q.project((0,))
    for e in q.group.elements():
        assert q.project(q.lift(e)) == e


@st.composite
def _quotients_and_points(draw):
    """Ambients of up to 9 factors, so the inverse Smith transform is
    solved on both sides of the size where the solver starts eliminating."""
    k = draw(st.integers(0, 9))
    moduli = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    vec = st.lists(st.integers(-12, 12), min_size=k, max_size=k)
    return moduli, draw(st.lists(vec, max_size=3)), draw(st.lists(vec, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_quotients_and_points())
def test_quotient_lift_is_a_section(case):
    moduli, extra, points = case
    amb = FinAbGroup(moduli)
    q = GroupQuotient(amb, extra)
    for x in points:
        image = q.project(x)
        assert q.group.contains(image)
        lifted = q.lift(image)
        assert amb.contains(lifted)
        assert q.project(lifted) == image


def test_quotient_is_homomorphism():
    amb = FinAbGroup((4, 6))
    q = GroupQuotient(amb, [(2, 3)])
    for x in amb.elements():
        for y in amb.elements():
            assert q.project(amb.add(x, y)) == q.group.add(q.project(x), q.project(y))


def test_tensor_collapse_coprime():
    quo, pure = tensor_group(FinAbGroup((2,)), FinAbGroup((3,)))
    assert quo.group.is_trivial()


def test_tensor_z2_z2():
    quo, pure = tensor_group(FinAbGroup((2,)), FinAbGroup((2,)))
    assert quo.group.moduli == (2,)
    assert pure((1,), (1,)) == (1,)
    assert pure((0,), (1,)) == (0,)


def test_tensor_bilinear():
    a = FinAbGroup((4,))
    b = FinAbGroup((6,))
    quo, pure = tensor_group(a, b)
    g = quo.group
    for x1 in a.elements():
        for x2 in a.elements():
            for y in b.elements():
                assert pure(a.add(x1, x2), y) == g.add(pure(x1, y), pure(x2, y))
