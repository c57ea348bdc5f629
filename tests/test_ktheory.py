import pytest
from hypothesis import given, settings

from conftest import determinant_of_matmorphism, incidence_ringoids, ring_units
from ringoids import (AbPresentation, CeilingExceeded, FinAbGroup, Ideal,
                      RingoidHom, cofinality_check, complete, cyclic_ring,
                      enumerate_objsums, exterior_product, fibration_check,
                      forget_units, gl, gl_order, idem_classes, improper_ideal,
                      iso_class_table, k0_bounded, k0_induced, k0_relative,
                      k1_bounded, matrix_ring, product_ring, scalar_ringoid,
                      tensor, unitize, validate, validate_hom, with_self_scalar,
                      zero_ideal, zero_moduloid)
from ringoids.constructions import tabulate
from ringoids.intlinalg import hom_well_defined, lattices_equal
from ringoids.ktheory import (GLGroup, bass_generators, certify_gl_order,
                              stabilization_embedding)
from ringoids.ringoid import StructuralError

Z = AbPresentation.free(1)


@pytest.fixture(scope="module")
def k1_f2_3(f2):
    return k1_bounded(f2, 3)


def test_k0_f2(f2):
    res = k0_bounded(f2, 3)
    assert res.presentation == Z
    assert res.stabilized
    assert res.stabilized_since == 2


def test_k0_matrix_ring(m2f2):
    res = k0_bounded(m2f2, 2)
    assert res.presentation == Z


@pytest.mark.parametrize("ring_name,bound", [("disc3", 12), ("c2free", 16)])
def test_k0_far_beyond_the_stabilization_length(request, ring_name, bound):
    # the table classifies multisets, so these bounds take seconds
    res = k0_bounded(request.getfixturevalue(ring_name), bound)
    assert res.presentation == AbPresentation.free(3 if ring_name == "disc3" else 1)
    assert res.stabilized_since == 2
    assert not res.undecided


def test_k0_zero_ring(zero):
    res = k0_bounded(zero, 2)
    assert res.presentation.is_trivial()


def test_k0_monotone_in_bound(f2, z4, zero, f2c2):
    # the bound-(L+1) group is a quotient of the bound-L group: the identity
    # map on generators transports every bound-L relation
    for ring in (f2, z4, zero, f2c2):
        res = k0_bounded(ring, 3)
        n = len(res.gen_labels)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for l in range(1, res.bound):
            ok, _ = hom_well_defined(res.per_bound[l], res.per_bound[l + 1],
                                     ident)
            assert ok


def test_k0_induced_identity(f2):
    from ringoids import identity_hom
    res = k0_bounded(f2, 2)
    ind = k0_induced(identity_hom(f2), res, res)
    assert ind.well_defined
    assert ind.matrix == ((1,),)
    assert ind.is_isomorphism()


def test_k0_induced_reduction(z4, f2):
    red = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    ind = k0_induced(red, k0_bounded(z4, 2), k0_bounded(f2, 2))
    assert ind.well_defined and ind.matrix == ((1,),)
    assert ind.is_isomorphism()


def test_k0_induced_corner_embedding(f2, m2f2):
    # non-unital corner F2 -> M2(F2), 1 -> E11; the induced degree-zero map
    # sends the rank-1 class to the rank-1 class
    corner = RingoidHom(f2, m2f2, {"*": "*"}, {("*", "*"): ((1, 0, 0, 0),)})
    report = validate_hom(corner)
    assert "unit preservation" in report.axioms_violated()
    assert "multiplicativity" not in report.axioms_violated()
    ind = k0_induced(corner, k0_bounded(f2, 2), k0_bounded(m2f2, 2))
    assert ind.well_defined and ind.matrix == ((1,),)


def test_k0_induced_respects_composition(z4, f2, zero):
    red1 = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    red2 = RingoidHom(f2, zero, {"*": "*"}, {("*", "*"): ((0,),)})
    r4, r2, r0 = k0_bounded(z4, 2), k0_bounded(f2, 2), k0_bounded(zero, 2)
    m1 = k0_induced(red1, r4, r2)
    m2 = k0_induced(red2, r2, r0)
    comp = k0_induced(red2.compose_with(red1), r4, r0)
    product = tuple(tuple(m2.apply(row)) for row in m1.matrix)
    assert product == comp.matrix


def test_k0_relative_zero_moduloid(f2):
    rel = k0_relative(zero_moduloid(("a",), f2.scalar), 2)
    assert rel.presentation.is_trivial()


def test_k0_relative_ideal_two(ideal_two_moduloid):
    rel = k0_relative(ideal_two_moduloid, 2)
    assert rel.presentation.is_trivial()


def test_k0_relative_has_no_stabilization_flags(z4):
    # k0_relative never varies the bound, so it has no stabilization to report
    rel = k0_relative(forget_units(z4), 0)
    assert not hasattr(rel, "stabilized")
    assert not hasattr(rel, "stabilized_since")


@pytest.mark.parametrize("ring_name", ["f2", "z4"])
def test_k0_relative_recovers_absolute_for_unital(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rel = k0_relative(forget_units(ring), 3)
    absolute = k0_bounded(ring, 3)
    assert rel.presentation == absolute.presentation


def test_idem_classes_of_product_ring(f2xf2_moduloid):
    ic = idem_classes(f2xf2_moduloid)
    # 0, e1, e2, 1 fall into four distinct classes with [e1] + [e2] = [1]
    assert len(ic.reps) == 4
    assert ic.presentation == AbPresentation.free(2)


def _idem_image_sizes(r, a, p):
    sizes = []
    for c in r.objects:
        hom = r.hom(c, a)
        sizes.append(len({r.compose(c, a, a, p, h) for h in hom.elements()}))
    return tuple(sizes)


def _idem_equivalent(r, a, p, b, q):
    """p in End(a) ~ q in End(b): search x in Hom(b,a), y in Hom(a,b) with
    x.y = p and y.x = q (then the images are isomorphic)."""
    for x in r.hom(b, a).elements():
        for y in r.hom(a, b).elements():
            if (r.compose(a, b, a, x, y) == p
                    and r.compose(b, a, b, y, x) == q):
                return True
    return False


def _reference_idem_classes(r):
    """Reference: each idempotent joins the first representative with the
    same image sizes that the pair search proves equivalent."""
    reps, class_of, invariants = [], {}, []
    for a in r.objects:
        for p in r.hom(a, a).elements():
            if r.compose(a, a, a, p, p) != p:
                continue
            inv = _idem_image_sizes(r, a, p)
            for idx, (b, q) in enumerate(reps):
                if invariants[idx] == inv and _idem_equivalent(r, a, p, b, q):
                    class_of[(a, p)] = idx
                    break
            else:
                class_of[(a, p)] = len(reps)
                reps.append((a, p))
                invariants.append(inv)
    return tuple(reps), class_of


@pytest.mark.parametrize("ring_name", ["f2xf2_moduloid", "z4", "m2f2", "t2f2",
                                       "morita", "f2c2", "unitized_ideal_two",
                                       "unitized_f2"])
def test_idem_classes_match_pair_search(ring_name, request):
    r = request.getfixturevalue(ring_name)
    ic = idem_classes(r)
    assert not ic.undecided_pairs
    assert (ic.reps, ic.class_of) == _reference_idem_classes(r)


@pytest.fixture(scope="module")
def unitized_ideal_two(ideal_two_moduloid):
    return unitize(ideal_two_moduloid)


@pytest.fixture(scope="module")
def unitized_f2(f2):
    return unitize(forget_units(f2))


@pytest.fixture(scope="module")
def unitized_f2xf2(f2xf2_moduloid):
    return unitize(forget_units(f2xf2_moduloid))


@pytest.fixture(scope="module")
def unitized_f2c2(f2c2):
    return unitize(forget_units(f2c2))


def orthogonal_pair_relations(r, ic):
    """Reference: the relations among the classes of `ic` found by search,
    [0] = 0 once and [p] + [q] = [p + q] for every orthogonal pair p, q of
    idempotents of one End(a)."""
    n = len(ic.reps)
    relations = []
    for a in r.objects:
        zc = ic.class_of.get((a, r.zero(a, a)))
        if zc is not None:
            row = [0] * n
            row[zc] = 1
            relations.append(row)
            break
    for a in r.objects:
        hom = r.hom(a, a)
        local = [p for (b, p) in ic.class_of if b == a]
        for i, p in enumerate(local):
            for q in local[i:]:
                if (r.compose(a, a, a, p, q) == hom.zero()
                        and r.compose(a, a, a, q, p) == hom.zero()):
                    row = [0] * n
                    row[ic.class_of[(a, p)]] += 1
                    row[ic.class_of[(a, q)]] += 1
                    row[ic.class_of[(a, hom.add(p, q))]] -= 1
                    if any(row):
                        relations.append(row)
    return relations


def _assert_type_vector_relations_match_pair_search(r):
    ic = idem_classes(r)
    assert not ic.undecided_pairs
    ref = orthogonal_pair_relations(r, ic)
    assert lattices_equal(ic.presentation.relations, ref, len(ic.reps))
    assert ic.presentation == AbPresentation(len(ic.reps), ref)


@settings(max_examples=30, deadline=None)
@given(incidence_ringoids())
def test_idem_relations_match_pair_search_on_incidence_ringoids(r):
    _assert_type_vector_relations_match_pair_search(r)


@pytest.mark.parametrize("ring_name", ["unitized_ideal_two", "unitized_f2",
                                       "unitized_f2xf2", "unitized_f2c2",
                                       "f2xf2_moduloid", "morita"])
def test_idem_relations_match_pair_search(ring_name, request):
    _assert_type_vector_relations_match_pair_search(
        request.getfixturevalue(ring_name))


def test_idem_classes_never_enumerate_an_end_over_the_ceiling(morita,
                                                              monkeypatch):
    # End(2) = M2(F2) has 16 elements, End(1) = F2 has 2
    enumerated = []
    elements = FinAbGroup.elements

    def spy(group):
        enumerated.append(group.order())
        return elements(group)

    monkeypatch.setattr(FinAbGroup, "elements", spy)
    ic = idem_classes(morita, ceiling=8)
    assert enumerated and max(enumerated) <= 8
    assert ("2", 16, 8) in [(u.subject, u.size, u.ceiling)
                            for u in ic.undecided_pairs]
    assert ic.reps == (("1", (0,)), ("1", (1,)))


def test_fibration_undecided_relative_k0_has_no_verdict(z4):
    # |End(*)| in J+ = (2)+ is 2 * 4 = 8, over the ceiling; Z/4 and Z/4/(2)
    # are decided at it
    j = Ideal(z4, {("*", "*"): ((2,),)})
    rep = fibration_check(z4, j, 2, ceiling=4)
    assert rep.k0_ideal.undecided
    assert not rep.k0_total.undecided and not rep.k0_quotient.undecided
    assert rep.undecided
    assert rep.composite_zero is None and rep.exact is None


def test_fibration_reports_undecided_not_inexact(f2xf2_moduloid):
    # (e1) in F2 x F2: the idempotent classes of J+ map to e1 and 1 - e1 ...
    j = Ideal(f2xf2_moduloid, {("*", "*"): ((1, 0),)})
    # ... which are not free: at the default ceiling that is certified
    rep = fibration_check(f2xf2_moduloid, j, 2)
    assert not rep.undecided and rep.unresolved_classes
    # their images live in the K0 of idempotents, not of free sums
    assert rep.exact is None and rep.composite_zero is None
    # |Hom(*, *)|^2 = 16 is needed to tell e1 from e2; below it the free
    # classes are unknown, and so is exactness
    rep = fibration_check(f2xf2_moduloid, j, 2, ceiling=8)
    assert rep.undecided
    assert rep.exact is None and rep.composite_zero is None


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("ring", ["F2xF2", "Z/6"])
def test_fibration_unresolved_classes_give_no_verdict(ring, bound):
    # the zero ideal: K0(J) = 0, so the composite is zero, but the classes
    # of the two primitive idempotents of J+ (both rings are products of
    # two fields) have no free class; an unresolved class gives no
    # verdict, never a false one
    if ring == "F2xF2":
        base = product_ring(cyclic_ring(2, scalar=False),
                            cyclic_ring(2, scalar=False))
    else:
        base = cyclic_ring(6, scalar=False)
    m = with_self_scalar(base)
    rep = fibration_check(m, zero_ideal(m), bound)
    assert rep.k0_ideal.presentation.is_trivial()
    assert not rep.undecided and len(rep.unresolved_classes) == 2
    assert rep.composite_zero is None and rep.exact is None


@pytest.mark.parametrize("ring_name", ["f2", "z4", "zero", "disc2", "disc3",
                                       "c2free"])
def test_cofinality(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    for bound in [4] if ring_name == "zero" else range(1, 6):
        rep = cofinality_check(ring, bound)
        assert rep.is_isomorphism is (bound >= 4), bound
        if bound >= 4:
            assert rep.sub_presentation == rep.ambient.presentation
            assert rep.cofinality_witnesses


def _word_pair_relations(r, bound):
    """Reference for the subcategory side of `cofinality_check`: each word
    of length >= 2 and each pair (s, t) of them with s no later than t,
    bucketed by the class of the word or of the flattening s + t within
    the bound and by the flattening itself beyond it, with the differences
    inside a bucket as relations.  Rows are mapped to the multisets, each
    word to its sorted form; returns the multisets and the rows."""
    table = iso_class_table(complete(r), bound)
    words = [s for s in enumerate_objsums(r.objects, bound) if len(s) >= 2]
    multisets = [s for s in table.class_of if len(s) >= 2]
    column = {s: multisets.index(tuple(sorted(s, key=r.objects.index)))
              for s in words}

    def key_of(flat):
        return (table.class_of_word(flat),) if len(flat) <= bound else flat

    buckets = {}
    for i, s in enumerate(words):
        buckets.setdefault(key_of(s), []).append((s,))
        for t in words[i:]:
            buckets.setdefault(key_of(s + t), []).append((s, t))
    rows = []
    for pivot, *rest in buckets.values():
        for terms in rest:
            row = [0] * len(multisets)
            for s in terms:
                row[column[s]] += 1
            for s in pivot:
                row[column[s]] -= 1
            rows.append(row)
    return multisets, rows


@pytest.mark.parametrize("ring_name", ["f2", "f2xf2", "disc2", "c2free",
                                       "morita13"])
def test_cofinality_relations_match_the_word_pairs(ring_name, request):
    r = request.getfixturevalue(ring_name)
    for bound in range(1, 5):
        multisets, want = _word_pair_relations(r, bound)
        rep = cofinality_check(r, bound)
        assert rep.matrix == [[s.count(a) for a in r.objects] for s in multisets]
        assert lattices_equal(want, rep.sub_presentation.relations,
                              len(multisets)), bound


def test_fibration_z4_mod_two(z4):
    j = Ideal(z4, {("*", "*"): ((2,),)})
    rep = fibration_check(z4, j, 2)
    assert rep.k0_ideal.presentation.is_trivial()
    assert rep.k0_total.presentation == Z
    assert rep.k0_quotient.presentation == Z
    assert rep.composite_zero
    assert rep.exact
    # the middle map is injective here
    assert rep.quotient_map.is_isomorphism()


def test_fibration_zero_ideal(z4):
    rep = fibration_check(z4, zero_ideal(z4), 2)
    assert rep.k0_ideal.presentation.is_trivial()
    assert rep.composite_zero and rep.exact
    assert rep.quotient_map.is_isomorphism()


def test_fibration_improper_ideal(z4):
    rep = fibration_check(z4, improper_ideal(z4), 2)
    assert rep.k0_ideal.presentation == Z
    assert rep.k0_quotient.presentation.is_trivial()
    assert rep.composite_zero and rep.exact


def test_gl_of_zero_object_is_trivial(f2):
    group = gl(complete(f2), ())
    assert len(group) == 1


def test_fibration_composite_zero_at_every_bound(z4):
    j = Ideal(z4, {("*", "*"): ((2,),)})
    for bound in (1, 2, 3):
        rep = fibration_check(z4, j, bound)
        assert rep.composite_zero


def test_gl_examples(f2, f3):
    assert len(gl(complete(f2), ("*",))) == 1
    g2 = gl(complete(f2), ("*", "*"))
    assert len(g2) == 6
    # non-abelian of order 6, so S3
    assert any(g2.mul(i, j) != g2.mul(j, i)
               for i in range(6) for j in range(6))
    assert len(gl(complete(f3), ("*",))) == 2


def test_gl_closure_is_certified_edge_by_edge(f2):
    view = complete(f2)
    s = ("*", "*")
    group = gl(view, s)
    assert not hasattr(group, "table")
    # every Cayley edge the abelianization walks is the product it names
    for x, row in enumerate(group.edges):
        for g, y in zip(group.generators, row):
            assert group.elements[y] == view.compose(group.elements[x],
                                                     group.elements[g])
            assert group.mul(x, g) == y
    # a closure built by hand from all but one generator misses
    # invertibles, and the order certificate refuses it
    gens = [group.elements[g] for g in group.generators]
    partial = GLGroup(view, s, gens[1:])
    assert 1 < len(partial) < len(group)
    with pytest.raises(StructuralError):
        certify_gl_order(view, s, partial)


def reference_gl(view, s):
    """The invertible endomorphisms of s, by one `inverse` solve for every
    element of End(s), in `hom_elements` order."""
    return [u for u in view.hom_elements(s, s) if view.inverse(u) is not None]


ORDER_RINGS = ["f2", "z4", "f3", "zero", "f2xf2", "m2f2", "disc2", "c2free",
               "f2c2"]


@pytest.mark.parametrize("name", ORDER_RINGS)
def test_gl_closure_equals_enumeration(request, name):
    """On every sum of length <= 2 (3 over F2) whose End(s) has at most
    4096 elements, the order formula equals the brute-force count and the
    closure equals the enumeration as a set.  M2(F2)^2 is over that size;
    its order is checked against |GL4(F2)| below."""
    view = complete(request.getfixturevalue(name))
    length = 3 if name == "f2" else 2
    checked = 0
    for s in enumerate_objsums(view.base.objects, length):
        if view.hom_order(s, s) > 4096:
            continue
        units = reference_gl(view, s)
        assert gl_order(view, s) == len(units), s
        assert set(gl(view, s).elements) == set(units), s
        checked += 1
    assert checked >= 2


@settings(max_examples=20, deadline=None)
@given(incidence_ringoids())
def test_gl_closure_equals_enumeration_on_incidence_ringoids(r):
    # non-equivalent primitives and maps between two objects
    view = complete(r)
    for s in enumerate_objsums(r.objects, 2):
        if view.hom_order(s, s) > 1024:
            continue
        units = reference_gl(view, s)
        assert gl_order(view, s) == len(units), s
        assert set(gl(view, s).elements) == set(units), s


def test_gl_order_formula_without_enumeration(m2f2, f3):
    # End(M2(F2)^2) has 65536 elements; |GL4(F2)| = 20160
    assert gl_order(complete(m2f2), ("*", "*")) == 20160
    # |GL3(F3)| = 26 * 24 * 18
    view = complete(f3)
    assert gl_order(view, ("*",) * 3) == 11232
    assert len(gl(view, ("*",) * 3)) == 11232


def test_gl_certificate_catches_a_short_closure(f3):
    # elementary matrices alone generate SL2(F3), 24 of the 48 invertibles
    view = complete(f3)
    s = ("*", "*")
    elementary = [g for g in bass_generators(view, s)
                  if all(g.entries[i][i] == (1,) for i in range(2))]
    short = GLGroup(view, s, elementary)
    assert len(short) == 24
    with pytest.raises(StructuralError):
        certify_gl_order(view, s, short)
    assert len(gl(view, s)) == 48


def _m2f2_beside_f2(m2f2, f2):
    """Objects a with End(a) = M2(F2) and b with End(b) = F2, and no maps
    between them."""
    objects = ("a", "b")
    homs = {(x, y): FinAbGroup(()) for x in objects for y in objects}
    homs[("a", "a")] = m2f2.hom("*", "*")
    homs[("b", "b")] = f2.hom("*", "*")
    rings = {"a": m2f2, "b": f2}

    def mul(a, b, c, y, x):
        if a == b == c:
            return rings[a].compose("*", "*", "*", y, x)
        return homs[(a, c)].zero()

    return tabulate(objects, homs, mul,
                    identities={x: rings[x].identity("*") for x in objects})


def test_gl_undecided_decomposition_exceeds_the_ceiling(m2f2, f2):
    r = _m2f2_beside_f2(m2f2, f2)
    assert validate(r).ok
    view = complete(r)
    s = ("a", "b")
    # |End(s)| = 32 fits a ceiling of 100, but telling e11 from e22 in
    # End(a) needs 256 > 100 maps: no order is reported
    assert view.hom_order(s, s) == 32
    with pytest.raises(CeilingExceeded):
        gl(view, s, ceiling=100)
    with pytest.raises(CeilingExceeded):
        gl_order(view, s, ceiling=100)
    # at a ceiling of 10, End(a) itself is not split
    with pytest.raises(CeilingExceeded):
        gl_order(view, s, ceiling=10)
    assert len(gl(view, s)) == 6


def test_gl_ceiling(f2):
    with pytest.raises(CeilingExceeded):
        gl(complete(f2), ("*", "*"), ceiling=10)


def test_stabilization_embedding_is_injective_hom(f2):
    view = complete(f2)
    embed = stabilization_embedding(view, ("*",), ("*",))
    g1 = gl(view, ("*",))
    g2 = gl(view, ("*", "*"))
    images = {}
    for i, u in enumerate(g1.elements):
        images[i] = g2.index(embed(u))
    assert len(set(images.values())) == len(g1)
    for i in range(len(g1)):
        for j in range(len(g1)):
            assert images[g1.mul(i, j)] == g2.mul(images[i], images[j])


def test_k1_f2(k1_f2_3):
    res = k1_f2_3
    assert res.ranks[1].is_trivial()
    assert res.ranks[2] == AbPresentation.cyclic(2)
    assert res.ranks[3].is_trivial()
    assert res.last_step_iso is False
    assert len(res.groups[3]) == 168


def test_k1_f3(f3):
    res = k1_bounded(f3, 2)
    assert res.ranks[1] == AbPresentation.cyclic(2)
    assert res.ranks[2] == AbPresentation.cyclic(2)
    assert res.last_step_iso is True


def test_k1_truncates_at_ceiling(f2):
    res = k1_bounded(f2, 3, ceiling=100)
    assert res.truncated_at == 3
    assert 1 in res.ranks and 2 in res.ranks and 3 not in res.ranks


def test_k1_rank_one_needs_no_decomposition(m2f2):
    # |End| = 16 fits a ceiling of 100 while splitting M2(F2) does not:
    # GL1 is its enumerated units, and only rank 2 is over the ceiling
    res = k1_bounded(m2f2, 2, ceiling=100)
    assert res.ranks == {1: AbPresentation.cyclic(2)}
    assert res.truncated_at == 2


@pytest.mark.parametrize("ring_name,n", [("f2", 2), ("f3", 2), ("z4", 2)])
def test_determinant_surjects_onto_units(ring_name, n, request):
    ring = request.getfixturevalue(ring_name)
    view = complete(ring)
    group = gl(view, ("*",) * n)
    units = {tuple(u) for u in ring_units(ring)}
    dets = {determinant_of_matmorphism(ring, u) for u in group.elements}
    assert dets == units


def test_exterior_product_f2(f2):
    tp = tensor(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    left = k0_bounded(cyclic_ring(2, scalar=False), 2)
    right = k0_bounded(cyclic_ring(2, scalar=False), 2)
    target = k0_bounded(tp.ringoid, 2)
    ext = exterior_product(left, right, tp, target)
    assert ext.well_defined
    # the pairing Z x Z -> Z is integer multiplication
    for a in range(-2, 3):
        for b in range(-2, 3):
            assert ext.pair([a], [b]) == [a * b]


def test_exterior_product_zero_ring(f2, zero):
    tp = tensor(cyclic_ring(2, scalar=False), cyclic_ring(1, scalar=False))
    left = k0_bounded(cyclic_ring(2, scalar=False), 2)
    right = k0_bounded(cyclic_ring(1, scalar=False), 2)
    target = k0_bounded(tp.ringoid, 2)
    assert target.presentation.is_trivial()
    ext = exterior_product(left, right, tp, target)
    assert ext.well_defined


def test_exterior_product_tensor_collapse():
    l_ring = cyclic_ring(2, scalar=False)
    r_ring = cyclic_ring(3, scalar=False)
    tp = tensor(l_ring, r_ring)
    left = k0_bounded(l_ring, 2)
    right = k0_bounded(r_ring, 2)
    target = k0_bounded(tp.ringoid, 2)
    assert target.presentation.is_trivial()
    ext = exterior_product(left, right, tp, target)
    assert ext.well_defined
    # the whole pairing lands in the trivial group
    image = ext.pair([1], [1])
    from ringoids.intlinalg import lattice_contains
    assert lattice_contains([list(r) for r in target.presentation.relations],
                            len(image), image)


@pytest.mark.parametrize("ring_name", ["f2", "z4", "f2c2", "disc2", "c2free"])
def test_k0_relations_are_distinct_and_nonzero(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    bound = 3
    res = k0_bounded(ring, bound)
    rows = res.presentation.relations
    assert all(any(row) for row in rows)
    assert len(set(rows)) == len(rows)
    # the same groups as one raw row per non-representative word
    objects = list(ring.objects)
    raw = []
    for s in enumerate_objsums(objects, bound):
        rep = res.table.reps[res.table.class_of_word(s)]
        if s != rep:
            raw.append((len(s), [s.count(a) - rep.count(a) for a in objects]))
    for l in range(bound + 1):
        assert res.per_bound[l] == AbPresentation(
            len(objects), [row for (n, row) in raw if n <= l])
    # first-occurrence order of the raw rows
    first = []
    for _, row in raw:
        if any(row) and tuple(row) not in first:
            first.append(tuple(row))
    assert list(rows) == first
