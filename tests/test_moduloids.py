import pytest

from conftest import is_zero_ringoid
from ringoids import (FinAbGroup, Ideal, IdealError, RingoidHom, cyclic_ring,
                      forget_units, ideal_moduloid, improper_ideal, quotient,
                      ringoid_equal_structure, scalar_ringoid, tensor,
                      unitization_projection, unitization_splitting, unitize,
                      validate, validate_hom, validate_ideal, zero_ideal,
                      zero_moduloid)
from ringoids.moduloids import _scalar_data
from ringoids.ringoid import StructuralError


def test_unitize_zero_moduloid_is_scalar_ring(f2):
    zm = zero_moduloid(("a",), f2.scalar)
    mplus = unitize(zm)
    assert validate(mplus).ok
    assert mplus.hom("a", "a").order() == 2
    rm = scalar_ringoid(("a",), f2.scalar)
    assert ringoid_equal_structure(mplus, rm)


def test_unitize_requires_scalar(f2):
    bare = forget_units(cyclic_ring(2, scalar=False))
    with pytest.raises(StructuralError):
        unitize(bare)


def test_unitize_ideal_two_table(ideal_two_moduloid):
    mplus = unitize(ideal_two_moduloid)
    assert validate(mplus).ok
    h = mplus.hom("a", "a")
    assert h.order() == 8

    def direct(p, q):
        # (x + l)(y + u) = xy + l.y + u.x + lu with x, y in the ideal part
        # (where all products vanish) and l, u in Z/4 acting by r.2 = 2r
        xpart = (p[1] * q[0] + q[1] * p[0]) % 2
        rpart = (p[1] * q[1]) % 4
        return (xpart, rpart)

    for p in h.elements():
        for q in h.elements():
            assert mplus.compose("a", "a", "a", p, q) == direct(p, q)


def test_unitize_identity_axiom_all_elements(ideal_two_moduloid):
    mplus = unitize(ideal_two_moduloid)
    e = mplus.identity("a")
    h = mplus.hom("a", "a")
    for x in h.elements():
        assert mplus.compose("a", "a", "a", e, x) == x
        assert mplus.compose("a", "a", "a", x, e) == x


def test_scalar_ringoid(f2, z4):
    one = scalar_ringoid(("a",), f2.scalar)
    assert validate(one).ok
    assert one.hom("a", "a").order() == 2
    assert one.compose("a", "a", "a", (1,), (1,)) == (1,)
    two = scalar_ringoid(("a", "b"), z4.scalar)
    assert validate(two).ok
    assert two.hom("a", "b").is_trivial()
    assert two.hom("a", "a").order() == 4
    h = two.hom("a", "a")
    for x in h.elements():
        for y in h.elements():
            assert two.compose("a", "a", "a", x, y) == ((x[0] * y[0]) % 4,)


def test_projection(ideal_two_moduloid):
    mplus = unitize(ideal_two_moduloid)
    rm = scalar_ringoid(("a",), ideal_two_moduloid.scalar)
    pi = unitization_projection(ideal_two_moduloid, mplus=mplus, rm=rm)
    assert validate_hom(pi).ok
    assert pi.apply("a", "a", (0, 1)) == (1,)
    assert pi.apply("a", "a", (1, 0)) == (0,)
    h = mplus.hom("a", "a")
    for x in h.elements():
        for y in h.elements():
            lhs = pi.apply("a", "a", mplus.compose("a", "a", "a", x, y))
            rhs = rm.compose("a", "a", "a", pi.apply("a", "a", x),
                             pi.apply("a", "a", y))
            assert lhs == rhs


@pytest.mark.parametrize("ring_name", ["f2", "z4"])
def test_splitting_is_certified_iso(ring_name, request):
    m = request.getfixturevalue(ring_name)
    sp = unitization_splitting(m)
    assert validate(sp.msum).ok and validate(sp.mplus).ok
    assert validate_hom(sp.alpha).ok and validate_hom(sp.alpha_inv).ok
    obj = m.objects[0]
    for x in sp.msum.hom(obj, obj).elements():
        assert sp.alpha_inv.apply(obj, obj, sp.alpha.apply(obj, obj, x)) == x
    for y in sp.mplus.hom(obj, obj).elements():
        assert sp.alpha.apply(obj, obj, sp.alpha_inv.apply(obj, obj, y)) == y


def test_splitting_diagram_commutes(f2):
    sp = unitization_splitting(f2)
    for x in sp.msum.hom("*", "*").elements():
        lhs = sp.projection_plus.apply("*", "*", sp.alpha.apply("*", "*", x))
        rhs = sp.projection_sum.apply("*", "*", x)
        assert lhs == rhs


def test_splitting_formula_values(f2):
    # alpha(0, 1) = -e + 1 and back
    sp = unitization_splitting(f2)
    image = sp.alpha.apply("*", "*", (0, 1))
    assert image == (1, 1)  # -e + 1 = e + 1 in characteristic 2
    assert sp.alpha_inv.apply("*", "*", image) == (0, 1)


def test_splitting_naturality(f2xf2_moduloid):
    # the swap is a unital F2-moduloid automorphism; alpha is natural in it
    m = f2xf2_moduloid
    assert validate(m).ok
    swap = RingoidHom(m, m, {"*": "*"}, {("*", "*"): ((0, 1), (1, 0))}, name="swap")
    assert validate_hom(swap).ok
    sp = unitization_splitting(m)
    scalar, ro, rg = _scalar_data(m)
    # f (+) id on M (+) R_M, and f+ on M+ (both act as the object identity)
    k = len(m.hom("*", "*").moduli)
    rk = len(rg.moduli)
    sum_images = {("*", "*"): tuple(
        tuple(swap.apply("*", "*", m.hom("*", "*").basis_element(j))) + (0,) * rk
        for j in range(k)) + tuple(
        (0,) * k + tuple(rg.basis_element(i)) for i in range(rk))}
    f_sum = RingoidHom(sp.msum, sp.msum, {"*": "*"}, sum_images)
    plus_images = dict(sum_images)
    f_plus = RingoidHom(sp.mplus, sp.mplus, {"*": "*"}, plus_images)
    assert validate_hom(f_sum).ok and validate_hom(f_plus).ok
    for x in sp.msum.hom("*", "*").elements():
        lhs = sp.alpha.apply("*", "*", f_sum.apply("*", "*", x))
        rhs = f_plus.apply("*", "*", sp.alpha.apply("*", "*", x))
        assert lhs == rhs


def test_quotient_z4_by_two(z4):
    j = Ideal(z4, {("*", "*"): ((2,),)})
    q, qhom = quotient(z4, j)
    assert validate(q).ok
    assert q.hom("*", "*").order() == 2
    assert validate_hom(qhom).ok
    assert qhom.apply("*", "*", (2,)) == q.hom("*", "*").zero()


def test_quotient_by_zero_and_improper(z4):
    q0, _ = quotient(z4, zero_ideal(z4))
    assert validate(q0).ok
    assert q0.hom("*", "*").order() == 4
    qi, _ = quotient(z4, improper_ideal(z4))
    assert validate(qi).ok
    assert is_zero_ringoid(qi)


def test_non_absorbing_rejected(f2xf2_moduloid):
    # the first factor alone is an ideal; a subgroup generated by (1,1) is
    # not (it is the unit, so absorption fails)... the unit ideal absorbs
    # everything, so use a genuinely non-absorbing subgroup in Z/4 x Z/4:
    # the diagonal copy generated by (1,1) is not closed under (2,0).
    from ringoids import product_ring
    r = product_ring(cyclic_ring(4, scalar=False), cyclic_ring(4, scalar=False),
                     name="Z4xZ4")
    bad = Ideal(r, {("*", "*"): ((1, 2),)})
    with pytest.raises(IdealError) as exc:
        validate_ideal(bad)
    assert exc.value.witness is not None


def test_unitize_then_quotient_recovers_scalar_ringoid(ideal_two_moduloid):
    # M+ / (canonical copy of M) = R_M, at the presentation level
    m = ideal_two_moduloid
    mplus = unitize(m)
    k = len(m.hom("a", "a").moduli)
    gens = {("a", "a"): tuple(
        tuple(m.hom("a", "a").basis_element(j)) + (0,) * 1
        for j in range(k))}
    copy_of_m = Ideal(mplus, gens)
    q, _ = quotient(mplus, copy_of_m)
    rm = scalar_ringoid(("a",), m.scalar)
    assert q.hom("a", "a").moduli == rm.hom("a", "a").moduli
    h = q.hom("a", "a")
    for x in h.elements():
        for y in h.elements():
            assert q.compose("a", "a", "a", x, y) == rm.compose("a", "a", "a", x, y)


def test_ideal_moduloid_roundtrip(z4):
    j = Ideal(z4, {("*", "*"): ((2,),)})
    sub, incl = ideal_moduloid(j)
    assert validate(sub).ok
    assert sub.hom("*", "*").order() == 2
    assert incl.apply("*", "*", sub.hom("*", "*").basis_element(0)) == (2,)


def test_tensor_f2_f2():
    tp = tensor(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    r = tp.ringoid
    assert validate(r).ok
    obj = r.objects[0]
    assert r.hom(obj, obj).order() == 2
    one = tp.pure((obj[0], obj[0]), (obj[1], obj[1]), (1,), (1,))
    assert r.compose(obj, obj, obj, one, one) == one


def test_tensor_coprime_collapse():
    tp = tensor(cyclic_ring(2, scalar=False), cyclic_ring(3, scalar=False))
    assert is_zero_ringoid(tp.ringoid)


def test_tensor_unit(z4):
    rm = scalar_ringoid(("*",), z4.scalar)
    tp = tensor(z4, rm, over=z4.scalar)
    r = tp.ringoid
    assert validate(r).ok
    obj = r.objects[0]
    assert r.hom(obj, obj).moduli == (4,)
    h = r.hom(obj, obj)
    for x in h.elements():
        for y in h.elements():
            assert r.compose(obj, obj, obj, x, y) == ((x[0] * y[0]) % 4,)


def test_tensor_commutative_presentation_level(f2, z4):
    t1 = tensor(f2, z4)
    t2 = tensor(z4, f2)
    for (a, b) in t1.ringoid.objects:
        h1 = t1.ringoid.hom((a, b), (a, b))
        h2 = t2.ringoid.hom((b, a), (b, a))
        assert sorted(h1.moduli) == sorted(h2.moduli)


def test_tensor_mismatched_scalars_rejected(f2, z4):
    with pytest.raises(StructuralError):
        tensor(f2, z4, over=f2.scalar)
