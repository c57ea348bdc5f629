import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_with, small_ringoids
from ringoids import (FinAbGroup, FiniteRingoid, FinGroup, RingoidHom,
                      StructuralError, cyclic_ring, group_as_groupoid,
                      group_ringoid, identity_hom, one_object_ringoid,
                      product_ring, ringoid_equal_structure, validate,
                      validate_hom, with_self_scalar, zero_moduloid)
from ringoids.constructions import tabulate


def test_validate_accepts_standard_rings(f2, f3, z4, m2f2, f2c2, f2xf2):
    for ring in (f2, f3, z4, m2f2, f2c2, f2xf2):
        report = validate(ring)
        assert report.ok, (ring.name, report.failures)


def test_validate_rejects_nonassociative():
    bad = one_object_ringoid((2, 2), (
        ((0, 1), (1, 0)),   # e1.e1 = e2, e1.e2 = e1
        ((0, 0), (0, 0)),
    ), name="bad-assoc")
    report = validate(bad)
    assert "associativity" in report.axioms_violated()
    witness = next(f for f in report.failures if f.axiom == "associativity")
    assert witness.witness == ((1, 0), (1, 0), (1, 0))


def test_validate_rejects_nonbilinear():
    # an order-2 generator pair whose product has order 4
    groups = {("a", "a"): FinAbGroup((4,)), ("a", "b"): FinAbGroup((2,)),
              ("b", "a"): FinAbGroup((2,)), ("b", "b"): FinAbGroup((4,))}
    bad = FiniteRingoid(("a", "b"), groups,
                        {("a", "b", "a"): (((1,),),)}, name="bad-bilinear")
    report = validate(bad)
    assert "bilinearity" in report.axioms_violated()
    witness = next(f for f in report.failures if f.axiom == "bilinearity")
    assert witness.location == ("a", "b", "a")


def test_validate_rejects_bad_identity():
    bad = one_object_ringoid((4,), (((1,),),), identity=(2,), name="bad-ident")
    violated = validate(bad).axioms_violated()
    assert "left identity" in violated and "right identity" in violated


def test_validate_moduloid_axioms_z4(z4):
    report = validate(z4)
    assert report.ok
    assert z4.scalar is not None


def test_structural_error_distinct_from_axiom_failure():
    groups = {("a", "a"): FinAbGroup((2,))}
    bad = FiniteRingoid(("a",), groups, {("a", "a", "a"): (((7,),),)})
    with pytest.raises(StructuralError):
        validate(bad)


def test_zero_moduloid(f2, z4):
    zm = zero_moduloid(("a",), f2.scalar)
    assert validate(zm).ok
    assert zm.hom("a", "a").is_trivial()
    zm2 = zero_moduloid(("a", "b"), z4.scalar)
    assert validate(zm2).ok
    assert all(zm2.hom(a, b).is_trivial() for a in "ab" for b in "ab")


def test_validate_hom_identity(f2):
    assert validate_hom(identity_hom(f2)).ok


def test_validate_hom_reduction(z4, f2):
    red = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)}, name="red")
    assert validate_hom(red).ok


def test_validate_hom_doubling_fails(z4):
    dbl = RingoidHom(z4, z4, {"*": "*"}, {("*", "*"): ((2,),)}, name="x->2x")
    report = validate_hom(dbl)
    assert "multiplicativity" in report.axioms_violated()
    witness = next(f for f in report.failures if f.axiom == "multiplicativity")
    assert witness.witness == ((1,), (1,))  # 2*(1*1) != (2*1)(2*1)


def test_hom_composition_of_clean_is_clean(z4, f2):
    red1 = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    ident = identity_hom(f2)
    comp = compose_with(ident, red1)
    assert validate_hom(comp).ok


def test_object_map_out_of_range_is_structural(f2):
    bad = RingoidHom(f2, f2, {"*": "nowhere"}, {("*", "*"): ((1,),)})
    with pytest.raises(StructuralError):
        validate_hom(bad)


def test_compose_bilinearity_generates_full_product(z4):
    # structure constants on generators determine all 16 products
    h = z4.hom("*", "*")
    for x in h.elements():
        for y in h.elements():
            assert z4.compose("*", "*", "*", x, y) == ((x[0] * y[0]) % 4,)


def _dense_bilinear(out, table, y, x):
    """The reference: the sum over every i, j of y_i * x_j * table[i][j],
    reduced in `out` (a missing table is the zero map)."""
    acc = [0] * len(out.moduli)
    for yi, row in zip(y, table or ()):
        for xj, img in zip(x, row):
            for t, v in enumerate(img):
                acc[t] += yi * xj * v
    return out.reduce(acc)


def _element(hom):
    return st.tuples(*(st.integers(0, d - 1) for d in hom.moduli))


@settings(max_examples=40, deadline=None)
@given(small_ringoids(), st.data())
def test_compose_is_the_bilinear_extension_of_the_constants(r, data):
    for a, b, c in itertools.product(r.objects, repeat=3):
        y = data.draw(_element(r.hom(b, c)))
        x = data.draw(_element(r.hom(a, b)))
        assert r.compose(a, b, c, y, x) == _dense_bilinear(
            r.hom(a, c), r.compose_table.get((a, b, c)), y, x)


# F2 x Z/4 acting on itself, then on its group ringoid over C2: a scalar
# ring of two generators acting on hom-groups of four
_MODULOID = group_ringoid(group_as_groupoid(FinGroup.cyclic(2)), with_self_scalar(
    product_ring(cyclic_ring(2, scalar=False), cyclic_ring(4, scalar=False))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_is_the_bilinear_extension_of_the_constants(data):
    r = _MODULOID
    ro = r.scalar.objects[0]
    for a, b, c in itertools.product(r.objects, repeat=3):
        s = data.draw(_element(r.scalar.hom(ro, ro)))
        y = data.draw(_element(r.hom(b, c)))
        x = data.draw(_element(r.hom(a, b)))
        assert r.act(a, b, s, x) == _dense_bilinear(
            r.hom(a, b), r.action[(a, b)], s, x)
        assert r.compose(a, b, c, y, x) == _dense_bilinear(
            r.hom(a, c), r.compose_table.get((a, b, c)), y, x)


@settings(max_examples=60, deadline=None)
@given(small_ringoids())
def test_tabulating_a_ringoid_reproduces_it(r):
    """Composition and action evaluated on elements and tabulated again give
    back the structure constants they were evaluated from."""
    t = tabulate(r.objects, r.homs, r.compose, identities=r.identities,
                 scalar=r.scalar, act=r.act, name=r.name)
    assert ringoid_equal_structure(t, r)
    assert t.action == r.action
    assert t.identities == r.identities
