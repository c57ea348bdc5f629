import pytest
from hypothesis import example, given, settings

from conftest import (compose_with, determinant_of_matmorphism,
                      elementary_ringoid, hom_elements, idempotents,
                      incidence_ringoids, inverse, ring_units, small_ringoids)
from ringoids import (AbPresentation, CeilingExceeded, FinAbGroup,
                      FiniteRingoid, Ideal, RingoidHom, cofinality_check,
                      complete, cyclic_ring,
                      discrete_groupoid, enumerate_objsums, exterior_product,
                      fibration_check, forget_units, gl, gl_order,
                      group_ringoid, idem_classes, improper_ideal,
                      iso_class_table, k0_bounded, k0_induced, k0_relative,
                      k1_bounded, matrix_ring, product_ring, scalar_ringoid,
                      tensor, unitize, validate, validate_hom, with_self_scalar,
                      zero_ideal, zero_moduloid)
from ringoids import constructions, k1, krullschmidt, ktheory
from ringoids.additive import end_ring
from ringoids.krullschmidt import decomposition
from ringoids.constructions import tabulate
from ringoids.groups import abelianization
from ringoids.intlinalg import hom_well_defined
from ringoids.k1 import (GLGroup, bass_generators, certify_gl_order,
                         stabilization_embedding)
from ringoids.lattice import lattices_equal
from ringoids.ringoid import StructuralError, enumerate_multisets

Z = AbPresentation.free(1)


@pytest.fixture(scope="module")
def k1_f2_3(f2):
    return k1_bounded(f2, 3)


def test_k0_f2(f2):
    res = k0_bounded(f2, 3)
    assert res.presentation == Z
    assert res.stabilized_since == 2


def test_k0_matrix_ring(m2f2):
    res = k0_bounded(m2f2, 2)
    assert res.presentation == Z


@pytest.mark.parametrize("ring_name,bound",
                         [("disc3", 12), ("c2free", 16), ("c2free", 30)])
def test_k0_far_beyond_the_stabilization_length(request, ring_name, bound):
    # the table classifies multisets by type vector and builds no
    # isomorphism, so each bound takes well under a second
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
            ok, _ = hom_well_defined(k0_bounded(ring, l).presentation,
                                     k0_bounded(ring, l + 1).presentation,
                                     ident)
            assert ok


@pytest.mark.parametrize("ring_name,bound,built_at_most",
                         [("c2free", 8, 3), ("morita", 2, 2)])
def test_k0_builds_few_presentations(ring_name, bound, built_at_most, request,
                                     monkeypatch):
    # A_bound and A_(bound-1), then A_1, ... only when those two are equal:
    # c2free has stabilized at L=2 (A_8, A_7, A_1), Morita(1,2) has not at
    # L=2 (A_2, A_1)
    ring = request.getfixturevalue(ring_name)
    built = []

    def spy(*args):
        built.append(args)
        return AbPresentation(*args)

    monkeypatch.setattr(ktheory, "AbPresentation", spy)
    res = k0_bounded(ring, bound)
    assert res.stabilized_since == (2 if ring_name == "c2free" else None)
    assert len(built) <= built_at_most


def test_k0_at_bound_one_is_not_stabilized(morita):
    # (1) + (1) = (2) is first seen at length 2
    res = k0_bounded(morita, 1)
    assert res.stabilized_since is None
    assert repr(res) == "KZeroResult(Z^2 at L=1, not stabilized)"
    assert not hasattr(res, "stabilized")


def test_k0_induced_identity(f2):
    from ringoids import identity_hom
    res = k0_bounded(f2, 2)
    ind = k0_induced(identity_hom(f2), res, res)
    assert ind.well_defined
    assert ind.matrix == ({0: 1},)
    assert ind.is_isomorphism()


def test_k0_induced_reduction(z4, f2):
    red = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    ind = k0_induced(red, k0_bounded(z4, 2), k0_bounded(f2, 2))
    assert ind.well_defined and ind.matrix == ({0: 1},)
    assert ind.is_isomorphism()


def test_k0_induced_corner_embedding(f2, m2f2):
    # non-unital corner F2 -> M2(F2), 1 -> E11; the induced degree-zero map
    # sends the rank-1 class to the rank-1 class
    corner = RingoidHom(f2, m2f2, {"*": "*"}, {("*", "*"): ((1, 0, 0, 0),)})
    report = validate_hom(corner)
    assert "unit preservation" in report.axioms_violated()
    assert "multiplicativity" not in report.axioms_violated()
    ind = k0_induced(corner, k0_bounded(f2, 2), k0_bounded(m2f2, 2))
    assert ind.well_defined and ind.matrix == ({0: 1},)


def test_k0_induced_respects_composition(z4, f2, zero):
    red1 = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    red2 = RingoidHom(f2, zero, {"*": "*"}, {("*", "*"): ((0,),)})
    r4, r2, r0 = k0_bounded(z4, 2), k0_bounded(f2, 2), k0_bounded(zero, 2)
    m1 = k0_induced(red1, r4, r2)
    m2 = k0_induced(red2, r2, r0)
    comp = k0_induced(compose_with(red2, red1), r4, r0)
    product = tuple(m2.apply(row) for row in m1.matrix)
    assert product == comp.matrix


def test_k0_relative_zero_moduloid(f2):
    rel = k0_relative(zero_moduloid(("a",), f2.scalar))
    assert rel.presentation.is_trivial()


def test_k0_relative_ideal_two(ideal_two_moduloid):
    rel = k0_relative(ideal_two_moduloid)
    assert rel.presentation.is_trivial()


def test_k0_relative_has_no_stabilization_flags(z4):
    # k0_relative takes no bound, so it has no stabilization to report
    rel = k0_relative(forget_units(z4))
    assert not hasattr(rel, "stabilized")
    assert not hasattr(rel, "stabilized_since")


@pytest.mark.parametrize("ring_name", ["f2", "z4"])
def test_k0_relative_recovers_absolute_for_unital(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rel = k0_relative(forget_units(ring))
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
    assert [ic.class_of(a, p) for (a, p) in ic.reps] == list(range(len(ic.reps)))
    reps, class_of = _reference_idem_classes(r)
    # two idempotents share a class of the lookup exactly when they share
    # one of the reference: the pairs of indices form a bijection
    pairs = {(i, ic.class_of(a, p)) for (a, p), i in class_of.items()}
    assert len(pairs) == len(reps) == len(ic.reps)
    assert {j for _, j in pairs} == set(range(len(ic.reps)))


def test_idem_classes_split_no_idempotent(monkeypatch):
    # a ringoid of its own, so that no cached decomposition answers first
    r = elementary_ringoid({"2": 2, "1": 1}, "Morita(2,1)")
    split = krullschmidt.Decomposition.split
    calls = []

    def spy(dec, a, p):
        calls.append((a, p))
        return split(dec, a, p)

    monkeypatch.setattr(krullschmidt.Decomposition, "split", spy)
    ic = idem_classes(r)
    assert calls == []
    # End(2) = M2(F2) has the classes 0, E22 (its first primitive in
    # element order) and 1; End(1) adds none
    assert ic.reps == (("2", (0, 0, 0, 0)), ("2", (0, 0, 0, 1)),
                       ("2", (1, 0, 0, 1)))
    assert ic.presentation == Z


def test_idem_classes_of_m4f2():
    # End(*) = M4(F2) has 2^16 elements; its 1 splits into four equivalent
    # primitives, so the classes are the ranks 0..4, presenting Z
    r = matrix_ring(cyclic_ring(2, scalar=False), 4)
    ic = idem_classes(r)
    assert not ic.undecided_pairs
    assert len(ic.reps) == 5
    assert ic.presentation == Z


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
    a = r.objects[0]
    relations = [[int(i == ic.class_of(a, r.zero(a, a))) for i in range(n)]]
    for a in r.objects:
        hom = r.hom(a, a)
        local = idempotents(r, a)
        for i, p in enumerate(local):
            for q in local[i:]:
                if (r.compose(a, a, a, p, q) == hom.zero()
                        and r.compose(a, a, a, q, p) == hom.zero()):
                    row = [0] * n
                    row[ic.class_of(a, p)] += 1
                    row[ic.class_of(a, q)] += 1
                    row[ic.class_of(a, hom.add(p, q))] -= 1
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
    # |End(*)| = 4 is all that telling e1 from e2 takes: at a ceiling of 8
    # the same is certified, and below 4 the free classes are unknown, and
    # so is exactness
    rep = fibration_check(f2xf2_moduloid, j, 2, ceiling=8)
    assert not rep.undecided and rep.unresolved_classes
    assert rep.exact is None and rep.composite_zero is None
    rep = fibration_check(f2xf2_moduloid, j, 2, ceiling=3)
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
    table = iso_class_table(r, bound)
    dec = decomposition(r)
    words = [s for s in enumerate_objsums(r.objects, bound) if len(s) >= 2]
    multisets = [s for s in enumerate_multisets(r.objects, bound) if len(s) >= 2]
    column = {s: multisets.index(tuple(sorted(s, key=r.objects.index)))
              for s in words}

    def key_of(flat):
        return (table[dec.type_vector(flat)],) if len(flat) <= bound else flat

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
        assert rep.matrix == [{i: s.count(a) for i, a in enumerate(r.objects)
                               if a in s} for s in multisets]
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
    assert not hasattr(group, "table") and not hasattr(group, "edges")
    # every edge x -> x.g_k of the pass that closed the group agrees with
    # its coordinates: coords(x.g_k) - coords(x) - e_k is a relation
    pres, coords = group.presentation, group.coords
    k = pres.generators
    defects = [[b - a - int(i == pos) for i, (a, b)
                in enumerate(zip(coords[x], coords[group.mul(x, g)]))]
               for x in range(len(group))
               for pos, g in enumerate(group.generators)]
    assert k == len(group.generators) and all(pres.kills(defects))
    # a closure built by hand from all but one generator misses
    # invertibles, and the order certificate refuses it
    gens = [group.elements[g] for g in group.generators]
    partial = GLGroup(view, s, gens[1:])
    assert 1 < len(partial) < len(group)
    with pytest.raises(StructuralError):
        certify_gl_order(s, partial, gl_order(view, s))


def reference_gl(view, s):
    """The invertible endomorphisms of s, by one `inverse` solve for every
    element of End(s), in `hom_elements` order."""
    return [u for u in hom_elements(view, s, s) if inverse(view, u) is not None]


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
@given(small_ringoids())
@example(group_ringoid(discrete_groupoid(("a", "b")), cyclic_ring(3, name="F3")))
def test_gl_closure_equals_enumeration_on_incidence_ringoids(r):
    # non-equivalent primitives and maps between two objects; the group
    # ringoids over F3 put units other than 1 at repeated, non-adjacent
    # positions, as in (a, b, a), where only the first carries diagonals
    view = complete(r)
    for s in enumerate_objsums(r.objects, 3):
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
        certify_gl_order(s, short, gl_order(view, s))
    assert len(gl(view, s)) == 48


def matrix_closure(view, s, generators):
    """`abelianization` on the matrices themselves, one `view.compose(x, g)`
    per step: the closure of `GLGroup` with no entry codes."""
    steps = [lambda x, g=g: view.compose(x, g)
             for g in dict.fromkeys(generators)]
    return abelianization(view.identity(s), steps)


def assert_closure_on_codes_is_on_matrices(view, s, gens):
    group = GLGroup(view, s, gens)
    elements, index, pres, coords = matrix_closure(view, s, gens)
    assert group.elements == elements, s
    assert group.generators == [index[g] for g in dict.fromkeys(gens)], s
    assert (group.presentation.generators, group.presentation.relations) == (
        pres.generators, pres.relations), s
    assert group.coords == coords, s
    return group


def assert_gl_closures_on_codes_are_on_matrices(view, s):
    # Bass's generators, then the last element that they reach with two
    # more: its g - 1 may hold two non-zero entries in one column, whose
    # terms then update the same entry of x . g in turn
    group = assert_closure_on_codes_is_on_matrices(
        view, s, bass_generators(view, s))
    assert_closure_on_codes_is_on_matrices(
        view, s, [group.element(len(group) - 1)] + group.elements[1:3])


@settings(max_examples=20, deadline=None)
@given(small_ringoids())
@example(matrix_ring(cyclic_ring(2, scalar=False), 3))
def test_gl_closure_on_codes_is_the_closure_on_matrices(r):
    # the elements in discovery order, the presentation and the coords;
    # GL1 of M3(F2) (|End| = 512) is GL3(F2), 168 elements
    view = complete(r)
    for s in enumerate_objsums(r.objects, 2):
        if view.hom_order(s, s) <= 1024:
            assert_gl_closures_on_codes_are_on_matrices(view, s)


def test_gl_closure_lists_no_hom_group(monkeypatch, z4):
    # GL2(Z/4) has 6 * 2^4 elements and GL1 of M3(F2) is GL3(F2); the
    # generators list the units of End(a), so they are built first
    m3f2 = matrix_ring(cyclic_ring(2, scalar=False), 3)
    cases = [(complete(z4), z4.objects * 2, 96),
             (complete(m3f2), m3f2.objects, 168)]
    gens = [bass_generators(view, s) for view, s, _ in cases]

    def refuse(group):
        raise AssertionError("Hom was listed: %r" % (group,))

    monkeypatch.setattr(FinAbGroup, "elements", refuse)
    for (view, s, order), g in zip(cases, gens):
        assert len(GLGroup(view, s, g)) == order


def test_unit_diagonals_at_each_objects_first_position(m2f2):
    # over M2(F2) two of the five units other than 1 generate GL2(F2), so
    # GL2 of M2(F2) has 8 elementary generators and 2 unit diagonals, both
    # at position 0
    view = complete(m2f2)
    s = ("*", "*")
    one = view.identity(s)
    gens = bass_generators(view, s)
    diagonals = [g for g in gens
                 if all(g.entries[i][j] == one.entries[i][j]
                        for i in range(2) for j in range(2) if i != j)]
    assert (len(gens), len(diagonals)) == (10, 2)
    assert all(g.entries[1][1] == one.entries[1][1] for g in diagonals)
    # over M3(F2) at rank 1, at most log2 168 kept units close to all 168
    m3f2 = matrix_ring(cyclic_ring(2, scalar=False), 3)
    view = complete(m3f2)
    group = gl(view, ("*",))
    assert len(group.generators) <= 7  # floor(log2 168)
    assert len(group) == 168 == gl_order(view, ("*",))


def _side_by_side(ring_a, ring_b):
    """Objects a with End(a) = ring_a and b with End(b) = ring_b, two
    one-object rings on "*", and no maps between them."""
    objects = ("a", "b")
    homs = {(x, y): FinAbGroup(()) for x in objects for y in objects}
    homs[("a", "a")] = ring_a.hom("*", "*")
    homs[("b", "b")] = ring_b.hom("*", "*")
    rings = {"a": ring_a, "b": ring_b}

    def mul(a, b, c, y, x):
        if a == b == c:
            return rings[a].compose("*", "*", "*", y, x)
        return homs[(a, c)].zero()

    return tabulate(objects, homs, mul,
                    identities={x: rings[x].identity("*") for x in objects})


def test_unit_helpers_read_end_of_an_object_of_a_two_object_base(disc2, m2f2, f2):
    # over two objects the K1 helpers read End(a) in the base: the kept
    # units are those they keep in End(a) tabulated as a one-object ring,
    # and with their inverses they generate exactly the units of End(a)
    for r in (disc2, _side_by_side(m2f2, f2)):
        view = complete(r)
        for a in r.objects:
            ring = end_ring(view, (a,))
            units = ring_units(r, a)
            assert ring_units(ring) == units
            one = r.identity(a)
            kept = k1._unit_generators(r, a)
            assert kept == k1._unit_generators(ring, "*")
            assert all(r.compose(a, a, a, u, v) == one == r.compose(a, a, a, v, u)
                       for u, v in kept)
            reached, queue = {one}, [one]
            for y in queue:
                for u, _ in kept:
                    z = r.compose(a, a, a, y, u)
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
            assert reached == set(units)
    # the order formula reads the residue fields of the same rings
    view = complete(disc2)
    assert [gl_order(view, s) for s in [("a",), ("a", "b"), ("a", "a")]] == [1, 1, 6]
    view = complete(_side_by_side(m2f2, f2))
    assert [gl_order(view, s) for s in [("a",), ("b", "b"), ("a", "b"), ("a", "a")]] \
        == [6, 6, 6, 20160]


def _restarting_unit_generators(ring, o):
    """The units `_unit_generators` keeps, with the reached group closed
    again from 1 after each kept unit: the reference for the kept list."""
    one = ring.identity(o)
    kept, reached = [], {one}
    for u in ring.hom(o, o).elements():
        v = None if u in reached else krullschmidt.inverse_by_powers(
            ring, o, u, one)
        if v is not None:
            kept.append((u, v))
            queue, reached = [one], {one}
            for y in queue:
                for g, _ in kept:
                    z = ring.compose(o, o, o, y, g)
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
    return kept


class _CountingRing:
    """A ringoid that counts its compositions."""

    def __init__(self, ring):
        self.ring = ring
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def compose(self, *args):
        self.calls += 1
        return self.ring.compose(*args)


@pytest.mark.parametrize("name", ["f2", "f3", "z4", "f2xf2", "m2f2", "f2c2",
                                  "disc2", "m3f2"])
def test_unit_generators_grow_the_reached_group(request, name):
    # the kept units are those of the restarting search, at fewer
    # compositions once a second unit is kept
    ring = (matrix_ring(cyclic_ring(2, scalar=False), 3) if name == "m3f2"
            else request.getfixturevalue(name))
    for o in ring.objects:
        grown, restarted = _CountingRing(ring), _CountingRing(ring)
        kept = k1._unit_generators(grown, o)
        assert kept == _restarting_unit_generators(restarted, o)
        if len(kept) > 1:
            assert grown.calls < restarted.calls, (name, o)
        else:
            assert grown.calls <= restarted.calls, (name, o)


def test_gl_order_tabulates_no_ring(monkeypatch, f2):
    # End(a) of a two-object base is read in the base, never tabulated as
    # a one-object ring of its own
    m2z4 = matrix_ring(cyclic_ring(4, scalar=False), 2)
    view = complete(_side_by_side(m2z4, f2))

    def tabulate_refused(*args, **kwargs):
        raise AssertionError("gl_order tabulated a ring")

    monkeypatch.setattr(constructions, "tabulate", tabulate_refused)
    # |GL2(Z/4)| = |GL2(F2)| |M2(2Z/4)| = 6 * 16
    assert gl_order(view, ("a", "b")) == 96


def test_gl_undecided_decomposition_exceeds_the_ceiling(m2f2, f2):
    r = _side_by_side(m2f2, f2)
    assert validate(r).ok
    view = complete(r)
    s = ("a", "b")
    # |End(s)| = 32 fits a ceiling of 100, and so does |End(a)| = 16, all
    # that splitting End(a) and telling e11 from e22 take
    assert view.hom_order(s, s) == 32
    assert len(gl(view, s, ceiling=100)) == 6
    assert gl_order(view, s, ceiling=100) == 6
    # at a ceiling of 10, End(s) is over it and End(a) itself is not split
    with pytest.raises(CeilingExceeded):
        gl(view, s, ceiling=10)
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


def test_k1_f2(k1_f2_3, f2):
    res = k1_f2_3
    assert res.ranks[1].is_trivial()
    assert res.ranks[2] == AbPresentation.cyclic(2)
    assert res.ranks[3].is_trivial()
    assert res.last_step_iso is False
    assert not hasattr(res, "groups")
    assert len(gl(complete(f2), ("*",) * 3)) == 168


def test_k1_f3(f3):
    res = k1_bounded(f3, 2)
    assert res.ranks[1] == AbPresentation.cyclic(2)
    assert res.ranks[2] == AbPresentation.cyclic(2)
    assert res.last_step_iso is True


def test_k1_truncates_at_ceiling(f2):
    res = k1_bounded(f2, 3, ceiling=100)
    assert res.truncated_at == 3
    assert 1 in res.ranks and 2 in res.ranks and 3 not in res.ranks


def test_k1_of_a_zero_object_closes_no_group(zero, monkeypatch):
    # every GL_n over the zero ring is trivial and every step is the
    # identity of 0; closing each rank used to take seconds at rank 150
    view = complete(zero)
    want = [gl(view, ("*",) * n).presentation for n in (1, 2, 3)]
    calls = []
    monkeypatch.setattr(k1, "gl", lambda *args, **kw: calls.append(args))
    res = k1_bounded(zero, 3)
    assert calls == []
    assert [res.ranks[n] for n in (1, 2, 3)] == want
    assert [(s.rank, s.matrix, s.is_isomorphism) for s in res.steps] == \
        [(1, [], True), (2, [], True)]
    assert (res.last_step_iso, res.truncated_at) == (True, None)
    assert k1_bounded(zero, 1).last_step_iso is None


def test_k1_of_a_zero_object_still_refuses_as_gl_does(zero):
    res = k1_bounded(zero, 3, ceiling=0)
    assert (res.ranks, res.steps, res.truncated_at) == ({}, [], 1)
    bare = FiniteRingoid(zero.objects, zero.homs, zero.compose_table)
    with pytest.raises(StructuralError, match="GL needs a unital base"):
        k1_bounded(bare, 2)


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
    from ringoids.lattice import lattice_contains
    assert lattice_contains(target.presentation.relations, len(image), image)


@pytest.mark.parametrize("ring_name", ["f2", "z4", "f2c2", "disc2", "c2free"])
def test_k0_relations_are_distinct_and_nonzero(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    bound = 3
    res = k0_bounded(ring, bound)
    rows = [tuple(row.get(j, 0) for j in range(len(ring.objects)))
            for row in res.presentation.relations]
    assert all(any(row) for row in rows)
    assert len(set(rows)) == len(rows)
    # the same groups as one raw row per non-representative word
    objects = list(ring.objects)
    table = iso_class_table(ring, bound)
    dec = decomposition(ring)
    raw = []
    for s in enumerate_objsums(objects, bound):
        rep = table[dec.type_vector(s)]
        if s != rep:
            raw.append((len(s), [s.count(a) - rep.count(a) for a in objects]))
    for l in range(bound + 1):
        assert k0_bounded(ring, l).presentation == AbPresentation(
            len(objects), [row for (n, row) in raw if n <= l])
    # first-occurrence order of the raw rows
    first = []
    for _, row in raw:
        if any(row) and tuple(row) not in first:
            first.append(tuple(row))
    assert rows == first
