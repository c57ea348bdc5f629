import pytest

from conftest import group_is_valid, hom_is_bijective_everywhere
from ringoids import (FinAbGroup, FinGroup, FiniteRingoid, GSet, PiRing,
                      PiRingError, cyclic_ring, disjoint_union_gset,
                      discrete_groupoid, group_as_groupoid, group_ringoid,
                      group_ringoid_tensor_iso, orbit_skeleton, product_ring,
                      ringoid_equal_structure, transport_groupoid,
                      twisted_group_ringoid, validate, validate_groupoid,
                      validate_hom, validate_pi_ring)


def test_group_as_groupoid_valid(c2_groupoid):
    assert validate_groupoid(c2_groupoid).ok
    assert len(c2_groupoid.morphisms) == 2


def test_group_ringoid_f2c2(f2c2):
    assert validate(f2c2).ok
    assert f2c2.hom("*", "*").order() == 4  # |R|^(|G|)
    # (1.g)(1.g) = 1.e
    g = (0, 1)
    e = (1, 0)
    assert f2c2.compose("*", "*", "*", g, g) == e


def test_group_ringoid_discrete_groupoid(z4):
    dg = discrete_groupoid(("a", "b"))
    ring = group_ringoid(dg, z4)
    assert validate(ring).ok
    assert ring.hom("a", "b").is_trivial()
    assert ring.hom("a", "a").order() == 4


@pytest.mark.parametrize("scalar_name", ["f2", "z4"])
def test_group_ringoid_matches_classical_group_ring(scalar_name, request,
                                                    c2_groupoid):
    # multiplication table comparison against the direct construction of
    # R[C2]: pairs (x0, x1) with convolution product
    scalar = request.getfixturevalue(scalar_name)
    ring = group_ringoid(c2_groupoid, scalar)
    n = scalar.hom("*", "*").moduli[0]
    h = ring.hom("*", "*")
    for x in h.elements():
        for y in h.elements():
            conv = ((x[0] * y[0] + x[1] * y[1]) % n,
                    (x[0] * y[1] + x[1] * y[0]) % n)
            assert ring.compose("*", "*", "*", x, y) == conv


@pytest.mark.parametrize("scalar_name", ["f2", "z4"])
def test_tensor_iso_certified(scalar_name, request, c2_groupoid):
    scalar = request.getfixturevalue(scalar_name)
    iso = group_ringoid_tensor_iso(c2_groupoid, scalar)
    assert validate_hom(iso.theta).ok
    assert hom_is_bijective_everywhere(iso.theta)
    src = iso.source
    t = iso.theta
    obj = "*"
    tobj = t.object_map[obj]
    for x in src.hom(obj, obj).elements():
        for y in src.hom(obj, obj).elements():
            lhs = t.apply(obj, obj, src.compose(obj, obj, obj, x, y))
            rhs = t.target.compose(tobj, tobj, tobj, t.apply(obj, obj, x),
                                   t.apply(obj, obj, y))
            assert lhs == rhs


def test_tensor_iso_unit_image(c2_groupoid, f2):
    iso = group_ringoid_tensor_iso(c2_groupoid, f2)
    one = iso.source.identity("*")
    assert iso.theta.apply("*", "*", one) == iso.tensor_product.ringoid.identity(
        iso.theta.object_map["*"])


def _swap_pi_ring(c2_groupoid):
    f2xf2 = product_ring(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False),
                         name="F2xF2")
    return PiRing(c2_groupoid, {"*": f2xf2},
                  {0: ((1, 0), (0, 1)), 1: ((0, 1), (1, 0))}), f2xf2


def test_twisted_trivial_action_agrees(c2_groupoid):
    _, f2xf2 = _swap_pi_ring(c2_groupoid)
    trivial = PiRing.constant(c2_groupoid, f2xf2)
    tw = twisted_group_ringoid(c2_groupoid, trivial)
    plain = group_ringoid(c2_groupoid, f2xf2)
    assert ringoid_equal_structure(tw, plain)


def test_twisted_swap_differs_exactly_on_swapped(c2_groupoid):
    pr, f2xf2 = _swap_pi_ring(c2_groupoid)
    validate_pi_ring(pr)
    tw = twisted_group_ringoid(c2_groupoid, pr)
    plain = group_ringoid(c2_groupoid, PiRing.constant(c2_groupoid, f2xf2).rings["*"])
    assert validate(tw).ok
    one_g = (0, 0, 1, 1)   # 1 . g (the ring unit at the g block)
    for x in f2xf2.hom("*", "*").elements():
        x_e = tuple(x) + (0, 0)
        twisted = tw.compose("*", "*", "*", one_g, x_e)
        untwisted = plain.compose("*", "*", "*", one_g, x_e)
        swapped = (x[0], x[1]) != (x[1], x[0])
        assert (twisted != untwisted) == swapped


def test_twisted_alternative_reading_fails_associativity(c2_groupoid):
    # reading the twist as the action of the *first-applied* morphism breaks
    # associativity on the swap example, so that reading is refuted by test
    pr, f2xf2 = _swap_pi_ring(c2_groupoid)
    pi = c2_groupoid
    objects = pi.objects
    ro = f2xf2.objects[0]
    rg = f2xf2.hom(ro, ro)
    homs = {("*", "*"): FinAbGroup(rg.moduli * 2)}

    def place(mid, relem):
        out = [0, 0, 0, 0]
        pos = pi.hom("*", "*").index(mid) * 2
        out[pos] = relem[0]
        out[pos + 1] = relem[1]
        return tuple(v % 2 for v in out)

    rows = []
    for gmid in pi.hom("*", "*"):
        for i in range(2):
            xi = rg.basis_element(i)
            row = []
            for hmid in pi.hom("*", "*"):
                gh = pi.compose(gmid, hmid)
                for j in range(2):
                    yj = rg.basis_element(j)
                    twisted = pr.apply(hmid, yj)  # wrong morphism acts
                    coeff = f2xf2.compose(ro, ro, ro, xi, twisted)
                    row.append(place(gh, coeff))
            rows.append(tuple(row))
    alt = FiniteRingoid(objects, homs, {("*", "*", "*"): tuple(rows)},
                        identities={"*": place(pi.identity("*"), (1, 1))},
                        name="alt-twist")
    report = validate(alt)
    assert "associativity" in report.axioms_violated()


def test_pi_ring_rejects_non_functorial(c2_groupoid):
    f2xf2 = product_ring(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    # identity morphism acting by the swap is not functorial
    bad = PiRing(c2_groupoid, {"*": f2xf2},
                 {0: ((0, 1), (1, 0)), 1: ((1, 0), (0, 1))})
    with pytest.raises(PiRingError):
        validate_pi_ring(bad)


def test_transport_regular_action():
    c2 = FinGroup.cyclic(2)
    swap = GSet(c2, (1, 2), {(1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 1})
    assert swap.validate().ok
    bar = transport_groupoid(swap)
    assert validate_groupoid(bar).ok
    assert len(bar.hom(1, 1)) == 1
    assert len(bar.hom(1, 2)) == 1
    comps = orbit_skeleton(bar)
    assert len(comps) == 1
    assert len(comps[0].vertex_group) == 1


def test_transport_trivial_action():
    c2 = FinGroup.cyclic(2)
    pt = GSet.trivial(c2)
    bar = transport_groupoid(pt)
    assert len(bar.hom("pt", "pt")) == 2
    comps = orbit_skeleton(bar)
    assert len(comps) == 1
    assert len(comps[0].vertex_group) == 2


def test_transport_mixed_orbits():
    c2 = FinGroup.cyclic(2)
    mixed = GSet(c2, (1, 2, 3),
                 {(1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 1,
                  (3, 0): 3, (3, 1): 3})
    bar = transport_groupoid(mixed)
    assert validate_groupoid(bar).ok
    comps = orbit_skeleton(bar)
    assert len(comps) == 2
    assert sorted(len(c.vertex_group) for c in comps) == [1, 2]


def test_vertex_group_is_stabilizer():
    c4 = FinGroup.cyclic(4)
    # action of C4 on Z/2 through the quotient: stabilizer of each point is {0, 2}
    xs = GSet(c4, (0, 1), {(x, g): (x + g) % 2 for x in (0, 1) for g in range(4)})
    assert xs.validate().ok
    bar = transport_groupoid(xs)
    comps = orbit_skeleton(bar)
    assert len(comps) == 1
    vg = comps[0].vertex_group
    stab = sorted(g for g in range(4) if (0 + g) % 2 == 0)
    assert sorted(mid[1] for mid in vg.elements) == stab
    assert group_is_valid(vg)


def test_transitive_action_connected():
    c2 = FinGroup.cyclic(2)
    bar = transport_groupoid(GSet.regular(c2))
    comps = orbit_skeleton(bar)
    assert len(comps) == 1
    assert set(comps[0].objects) == set(bar.objects)


def test_disjoint_union(c2_groupoid):
    c2 = FinGroup.cyclic(2)
    du = disjoint_union_gset(GSet.trivial(c2), GSet.regular(c2))
    assert du.validate().ok
    comps = orbit_skeleton(transport_groupoid(du))
    assert len(comps) == 2
