import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import elementary_ringoid
from ringoids import (FinAbGroup, FiniteRingoid, FinGroup, GSet, IsoWitness,
                      MatMorphism, RingoidHom, Undecided, complete, cyclic_ring,
                      discrete_groupoid, document_from, enumerate_objsums, gl,
                      group_as_groupoid, group_ringoid, iso_class_table,
                      map_completion, matrix_ring, print_rgd, product_ring,
                      transport_groupoid, validate)
from ringoids.additive import DEFAULT_CEILING
from ringoids.cli import run
from ringoids.ktheory import free_class_of_idempotent


def find_isomorphism(view, a, b, ceiling=DEFAULT_CEILING):
    """Certified isomorphism a -> b, or None after exhausting Hom(a, b)
    (with sound pruning), or Undecided when the candidate-pair space
    |Hom(a, b)| * |Hom(b, a)| exceeds the ceiling.  Deterministic: the
    returned forward matrix is the lexicographically least invertible one,
    and its inverse is unique.  A brute-force search over whole sums, kept
    here as the test oracle for `Decomposition`."""
    a, b = tuple(a), tuple(b)
    if a == b:
        if view.has_identities:
            e = view.identity(a)
            return IsoWitness(e, e)
    # prune: isomorphic objects have equal hom-set cardinalities
    for c in view.base.objects:
        if view.hom_order((c,), a) != view.hom_order((c,), b):
            return None
        if view.hom_order(a, (c,)) != view.hom_order(b, (c,)):
            return None
    size = view.hom_order(a, b) * view.hom_order(b, a)
    if size > ceiling:
        return Undecided((a, b), size, ceiling)
    for u in view.hom_elements(a, b):
        v = view.inverse(u)
        if v is not None:
            return IsoWitness(u, v)
    return None


def test_hom_orders(f2):
    view = complete(f2)
    assert view.hom_order(("*",), ("*",)) == 2
    assert view.hom_order(("*", "*"), ("*", "*")) == 16
    assert view.hom_order((), ("*",)) == 1


def test_biproduct_equations(f2):
    view = complete(f2)
    s = t = ("*",)
    i_s, i_t, p_s, p_t = view.biproduct(s, t)
    assert view.compose(p_s, i_s) == view.identity(s)
    assert view.compose(p_t, i_t) == view.identity(t)
    assert view.add(view.compose(i_s, p_s),
                    view.compose(i_t, p_t)) == view.identity(s + t)


@pytest.mark.parametrize("ring_name", ["f2", "disc2", "c2free"])
def test_block_sum_matches_biproduct_formula(ring_name, request):
    # f (+) g = j_s f p_s + j_t g p_t, on every pair of 1 x 1 and 1 x 2
    # blocks between base objects
    view = complete(request.getfixturevalue(ring_name))
    objects = view.base.objects
    shapes = [(s, t) for s in enumerate_objsums(objects, 2) if s
              for t in enumerate_objsums(objects, 1) if t]
    for (s, t), (u, w) in itertools.product(shapes[:4], repeat=2):
        _, _, p_s, p_u = view.biproduct(s, u)
        j_t, j_w, _, _ = view.biproduct(t, w)
        for f in itertools.islice(view.hom_elements(s, t), 4):
            for g in itertools.islice(view.hom_elements(u, w), 4):
                want = view.add(view.compose(view.compose(j_t, f), p_s),
                                view.compose(view.compose(j_w, g), p_u))
                assert view.block_sum(f, g) == want


def _random_matrix(view, src, dst, rng):
    entries = []
    for b in dst:
        row = []
        for a in src:
            hom = view.base.hom(a, b)
            row.append(rng.choice(list(hom.elements())))
        entries.append(row)
    return MatMorphism(src, dst, entries)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 4]))
def test_matrix_composition_associative_and_bilinear(rng, modulus):
    base = cyclic_ring(modulus)
    view = complete(base)
    shapes = [(), ("*",), ("*", "*")]
    a, b, c, d = (rng.choice(shapes) for _ in range(4))
    f = _random_matrix(view, a, b, rng)
    g = _random_matrix(view, b, c, rng)
    h = _random_matrix(view, c, d, rng)
    assert view.compose(h, view.compose(g, f)) == view.compose(view.compose(h, g), f)
    g2 = _random_matrix(view, b, c, rng)
    lhs = view.compose(view.add(g, g2), f)
    rhs = view.add(view.compose(g, f), view.compose(g2, f))
    assert lhs == rhs


def test_find_isomorphism_identity(f2):
    view = complete(f2)
    w = find_isomorphism(view, ("*",), ("*",))
    assert isinstance(w, IsoWitness)
    assert view.compose(w.forward, w.backward) == view.identity(("*",))


def test_find_isomorphism_none_across_ranks(f2):
    view = complete(f2)
    assert find_isomorphism(view, ("*",), ("*", "*")) is None


def test_find_isomorphism_permutation():
    from ringoids.abgroup import TRIVIAL_GROUP
    homs = {("a", "a"): FinAbGroup((2,)), ("b", "b"): FinAbGroup((2,)),
            ("a", "b"): TRIVIAL_GROUP, ("b", "a"): TRIVIAL_GROUP}
    table = {("a", "a", "a"): (((1,),),), ("b", "b", "b"): (((1,),),)}
    diag = FiniteRingoid(("a", "b"), homs, table,
                         identities={"a": (1,), "b": (1,)}, name="diag")
    assert validate(diag).ok
    view = complete(diag)
    w = find_isomorphism(view, ("a", "b"), ("b", "a"))
    assert isinstance(w, IsoWitness)
    assert view.compose(w.forward, w.backward) == view.identity(("b", "a"))
    assert view.compose(w.backward, w.forward) == view.identity(("a", "b"))


def test_find_isomorphism_symmetric(f2):
    view = complete(f2)
    pairs = [(("*",), ("*", "*")), (("*",), ("*",)), ((), ("*",))]
    for a, b in pairs:
        fwd = find_isomorphism(view, a, b)
        bwd = find_isomorphism(view, b, a)
        assert isinstance(fwd, IsoWitness) == isinstance(bwd, IsoWitness)


def test_undecided_at_tiny_ceiling(f2):
    view = complete(f2)
    res = find_isomorphism(view, ("*", "*"), ("*", "*"), ceiling=0)
    # equal tuples short-circuit to the identity; force a search instead
    assert isinstance(res, IsoWitness)
    diag = product_ring(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    pv = complete(diag)
    res = find_isomorphism(pv, ("*",), ("*", "*"), ceiling=0)
    assert res is None  # pruned by cardinality before the ceiling applies
    # a genuinely searched pair under a zero ceiling reports undecided
    from ringoids.abgroup import TRIVIAL_GROUP
    homs = {("a", "a"): FinAbGroup((2,)), ("b", "b"): FinAbGroup((2,)),
            ("a", "b"): FinAbGroup((2,)), ("b", "a"): FinAbGroup((2,))}
    table = {key: (((1,),),) for key in itertools.product("ab", repeat=3)}
    pair_ring = FiniteRingoid(("a", "b"), homs, table,
                              identities={"a": (1,), "b": (1,)}, name="pair")
    assert validate(pair_ring).ok
    pw = complete(pair_ring)
    res = find_isomorphism(pw, ("a",), ("b",), ceiling=0)
    assert isinstance(res, Undecided)


def test_iso_class_table_f2(f2):
    view = complete(f2)
    table = iso_class_table(view, 3)
    assert len(table.reps) == 4  # ranks 0..3, no collapse
    assert table.oplus[(1, 1)] == 2
    assert table.oplus[(1, 2)] == 3
    assert not table.undecided


def test_iso_class_table_product_ring():
    pr = product_ring(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    view = complete(pr)
    table = iso_class_table(view, 2)
    assert len(table.reps) == 3  # the single object is free of rank 1


def test_iso_class_table_zero_ring(zero):
    view = complete(zero)
    table = iso_class_table(view, 2)
    assert len(table.reps) == 1  # everything is isomorphic to 0


def test_oplus_commutative(f2, z4):
    for ring in (f2, z4):
        view = complete(ring)
        table = iso_class_table(view, 3)
        for (i, j), cls in table.oplus.items():
            assert table.oplus[(j, i)] == cls


def test_objsum_enumeration_order(f2):
    sums = enumerate_objsums(f2.objects, 2)
    assert sums == [(), ("*",), ("*", "*")]


def test_map_completion_entrywise(z4, f2):
    red = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    functor = map_completion(red)
    m = MatMorphism(("*", "*"), ("*", "*"), [[(3,), (2,)], [(1,), (0,)]])
    fm = functor.apply(m)
    assert fm.entries == (((1,), (0,)), ((1,), (0,)))


def test_map_completion_functorial(z4, f2, zero):
    red1 = RingoidHom(z4, f2, {"*": "*"}, {("*", "*"): ((1,),)})
    red2 = RingoidHom(f2, zero, {"*": "*"}, {("*", "*"): ((0,),)})
    f1 = map_completion(red1)
    f2_ = map_completion(red2)
    comp = map_completion(red2.compose_with(red1))
    import random
    rng = random.Random(7)
    view = complete(z4)
    for _ in range(10):
        m = _random_matrix(view, ("*", "*"), ("*",), rng)
        assert f2_.apply(f1.apply(m)) == comp.apply(m)


def test_nonunital_view_restricted(f2):
    from ringoids import forget_units, StructuralError
    view = complete(forget_units(f2))
    assert not view.has_identities
    with pytest.raises(StructuralError):
        view.identity(("*",))


# ---------------------------------------------------------------------------
# Differential tests: the column solver against brute-force searches.
# ---------------------------------------------------------------------------

# (fixture name, longest formal sum compared)
DIFFERENTIAL_RINGS = [("f2", 3), ("z4", 3), ("f3", 3), ("zero", 3), ("f2xf2", 3),
                      ("m2f2", 2), ("disc2", 3), ("c2free", 3), ("f2c2", 3)]


def _bijective(view, u):
    """Left composition with u is a bijection Hom((c), u.src) -> Hom((c), u.dst)
    for every base object c, which by additivity makes u invertible."""
    for c in view.base.objects:
        if view.hom_order((c,), u.src) != view.hom_order((c,), u.dst):
            return False
        images = {view.compose(u, h) for h in view.hom_elements((c,), u.src)}
        if len(images) != view.hom_order((c,), u.src):
            return False
    return True


def _pair_search(view, a, b):
    """Reference isomorphism search: the least bijective u in Hom(a, b)
    together with the v in Hom(b, a) found by trying every candidate."""
    if a == b:
        return view.identity(a), view.identity(a)
    for c in view.base.objects:
        if (view.hom_order((c,), a) != view.hom_order((c,), b)
                or view.hom_order(a, (c,)) != view.hom_order(b, (c,))):
            return None
    one_a, one_b = view.identity(a), view.identity(b)
    for u in view.hom_elements(a, b):
        if not _bijective(view, u):
            continue
        for v in view.hom_elements(b, a):
            if view.compose(u, v) == one_b and view.compose(v, u) == one_a:
                return u, v
    return None


@pytest.mark.parametrize("name,length", DIFFERENTIAL_RINGS)
def test_find_isomorphism_matches_pair_search(request, name, length):
    view = complete(request.getfixturevalue(name))
    sums = enumerate_objsums(view.base.objects, length)
    for a in sums:
        for b in sums:
            res = find_isomorphism(view, a, b, ceiling=1 << 40)
            expected = _pair_search(view, a, b)
            if expected is None:
                assert res is None, (a, b)
            else:
                assert (res.forward, res.backward) == expected, (a, b)


def test_left_divide_and_inverse(disc2):
    view = complete(disc2)
    one = view.identity(("a",))
    zero = view.zero(("a",), ("a",))
    assert view.left_divide(zero, one) is None  # zero is not a monomorphism
    assert view.left_divide(one, zero) == zero
    # the projection (a, b) -> (a) has a right inverse but is not invertible
    u = MatMorphism(("a", "b"), ("a",), [[disc2.identity("a"), disc2.zero("b", "a")]])
    v = view.left_divide(u, one)
    assert view.compose(u, v) == one
    assert view.inverse(u) is None
    assert view.inverse(one) == one


def _units_by_powers(view, s):
    """Number of u in End(s) with u^n = 1 for some n >= 1 (then u^(n-1) is a
    two-sided inverse); a repeated power without 1 rules u out."""
    one = view.identity(s)
    count = 0
    for u in view.hom_elements(s, s):
        power, seen = u, set()
        while power != one and power not in seen:
            seen.add(power)
            power = view.compose(u, power)
        count += power == one
    return count


@pytest.mark.parametrize("name,length", DIFFERENTIAL_RINGS)
def test_gl_order_matches_unit_count(request, name, length):
    view = complete(request.getfixturevalue(name))
    objects = view.base.objects
    for s in enumerate_objsums(objects, length):
        if view.hom_order(s, s) > 4096:
            continue
        units = _units_by_powers(view, s)
        solved = sum(view.inverse(u) is not None for u in view.hom_elements(s, s))
        assert solved == units, s
        # the certified closure, on every sum: multi-object ones and
        # reorderings included
        assert len(gl(view, s)) == units, s


def _splitting_search(view, a, p, bound):
    """Reference: the first sum t with u: t -> (a), v: (a) -> t, v.u = 1_t
    and u.v = p, trying every pair."""
    pmat = MatMorphism((a,), (a,), [[p]])
    for t in enumerate_objsums(view.base.objects, bound):
        one_t = view.identity(t)
        for u in view.hom_elements(t, (a,)):
            for v in view.hom_elements((a,), t):
                if view.compose(v, u) == one_t and view.compose(u, v) == pmat:
                    return t
    return None


@pytest.mark.parametrize("name", ["z4", "f2xf2", "disc2"])
def test_free_class_of_idempotent_matches_splitting_search(request, name):
    r = request.getfixturevalue(name)
    view = complete(r)
    for a in r.objects:
        for p in r.hom(a, a).elements():
            if r.compose(a, a, a, p, p) == p:
                assert (free_class_of_idempotent(view, a, p, 3)
                        == _splitting_search(view, a, p, 3)), (a, p)


def test_free_class_of_idempotent_beyond_the_pair_ceiling(morita13):
    # E11 + E22 in End(3) splits through (1) + (1).  The splitting search
    # over whole sums needs (8 * 8)^2 = 4096 candidates for that sum; the
    # decomposition needs |End(3)| = 512 and 8 * 8 per comparison.
    view = complete(morita13)
    p = (1, 0, 0, 0, 1, 0, 0, 0, 0)
    assert free_class_of_idempotent(view, "3", p, 2, ceiling=512) == ("1", "1")
    assert free_class_of_idempotent(view, "3", p, 1, ceiling=512) is None
    # below |End(3)| the answer is unknown, never "no such sum"
    res = free_class_of_idempotent(complete(morita13), "3", p, 2, ceiling=511)
    assert isinstance(res, Undecided)
    assert (res.subject, res.size, res.ceiling) == ("3", 512, 511)


def test_free_class_of_idempotent_unknown_while_types_are_unmerged(f2xf2):
    view = complete(f2xf2)
    e1 = (1, 0)
    assert free_class_of_idempotent(view, "*", e1, 3) is None  # e1 is not free
    # telling e1 from e2 takes |Hom(*, *)|^2 = 16 candidates: below that
    # they are two unmerged types, and "not free" cannot be certified
    res = free_class_of_idempotent(view, "*", e1, 3, ceiling=8)
    assert isinstance(res, Undecided) and res.size == 16


# ---------------------------------------------------------------------------
# The Krull-Schmidt classification against the pairwise search.
# ---------------------------------------------------------------------------

def _reference_table(view, bound):
    """Reference classification: each sum joins the first representative
    that find_isomorphism certifies isomorphic, or starts a new class."""
    reps, class_of = [], {}
    for s in enumerate_objsums(view.base.objects, bound):
        for idx, rep in enumerate(reps):
            res = find_isomorphism(view, s, rep, ceiling=1 << 40)
            if isinstance(res, IsoWitness):
                class_of[s] = idx
                break
        else:
            class_of[s] = len(reps)
            reps.append(s)
    return tuple(reps), class_of


def _assert_matches_reference(view, bound):
    table = iso_class_table(view, bound)
    assert not table.undecided
    assert (table.reps, table.class_of) == _reference_table(view, bound)
    for s, w in table.witnesses.items():
        rep = table.reps[table.class_of[s]]
        if w is None:
            assert s == rep
            continue
        assert (w.forward.src, w.forward.dst) == (s, rep)
        assert view.compose(w.backward, w.forward) == view.identity(s)
        assert view.compose(w.forward, w.backward) == view.identity(rep)


@pytest.mark.parametrize("name,length",
                         DIFFERENTIAL_RINGS + [("morita", 2), ("t2f2", 3)])
def test_iso_class_table_matches_reference_search(request, name, length):
    _assert_matches_reference(complete(request.getfixturevalue(name)), length)


@pytest.mark.parametrize("name", [name for name, _ in DIFFERENTIAL_RINGS]
                         + ["morita", "t2f2"])
def test_summands_are_primitive_orthogonal_idempotents(request, name):
    r = request.getfixturevalue(name)
    dec = complete(r).decomposition()
    for a in r.objects:
        hom = r.hom(a, a)
        idems = [x.idem for x in dec.summands[a]]
        assert hom.combination([1] * len(idems), idems) == r.identity(a)
        for i, e in enumerate(idems):
            for j, f in enumerate(idems):
                assert r.compose(a, a, a, e, f) == (e if i == j else hom.zero())
            assert e != hom.zero()
            # primitive: no idempotent of e End(a) e other than 0 and e
            for f in hom.elements():
                if f not in (hom.zero(), e) and r.compose(a, a, a, f, f) == f:
                    assert not (r.compose(a, a, a, e, f) == f == r.compose(a, a, a, f, e))


def test_decomposition_of_new_fixtures(morita, t2f2):
    dec = complete(morita).decomposition()
    # 1_(2) splits into two primitives, both equivalent to 1_(1)
    assert [x.type for x in dec.summands["2"]] == [0, 0]
    dec = complete(t2f2).decomposition()
    # e11 and e22 are not equivalent: two types on one object
    assert sorted(x.type for x in dec.summands["*"]) == [0, 1]
    assert not dec.undecided


def test_morita_bound_3_is_decided(morita):
    table = iso_class_table(complete(morita), 3)
    assert not table.undecided
    assert len(table.reps) == 7  # one class per total rank 0..6
    assert table.class_of[("1", "1")] == table.class_of[("2",)]


def test_undecided_records_carry_sizes(morita):
    view = complete(morita)
    table = iso_class_table(view, 2, ceiling=15)
    assert table.undecided
    # |End(2)| = 16 is over the ceiling, and so is the comparison of 1_(2)
    # with 1_(1) (|Hom(2, 1)| * |Hom(1, 2)| = 16): (2) keeps a type of its own
    one_2, one_1 = morita.identity("2"), morita.identity("1")
    assert [(u.subject, u.size, u.ceiling) for u in table.undecided_pairs] == [
        ("2", 16, 15), ((("2", one_2), ("1", one_1)), 16, 15)]
    assert table.class_of[("1", "1")] != table.class_of[("2",)]
    table = iso_class_table(view, 2, ceiling=16)
    assert not table.undecided
    assert table.class_of[("1", "1")] == table.class_of[("2",)]


def test_object_over_the_ceiling_merges_only_on_certified_equivalence():
    # (3) comes first and is over the ceiling, so it keeps 1_(3) as one
    # summand; 1_(1) is a retract of it (beta . alpha = 1_(1)) but not
    # equivalent to it (alpha . beta = E11), so (1) starts its own type
    r = elementary_ringoid({"3": 3, "1": 1}, "Morita(3,1)")
    table = iso_class_table(complete(r), 1, ceiling=100)
    assert table.undecided
    assert [u.subject for u in table.undecided_pairs] == ["3"]
    assert table.reps == ((), ("3",), ("1",))


def _small_ringoids():
    """Small unital ringoids from the library's builders."""
    c2 = FinGroup.cyclic(2)
    groupoids = [group_as_groupoid(c2), discrete_groupoid(("a", "b")),
                 transport_groupoid(GSet.regular(c2)),
                 transport_groupoid(GSet.trivial(c2, ("p", "q")))]
    bare = [cyclic_ring(n, scalar=False) for n in (1, 2, 3, 4)]
    return st.one_of(
        st.sampled_from(bare),
        st.tuples(st.sampled_from(bare[1:]), st.sampled_from(bare[1:])).map(
            lambda pair: product_ring(*pair)),
        st.sampled_from([1, 2]).map(lambda n: matrix_ring(bare[1], n)),
        st.tuples(st.sampled_from(groupoids), st.sampled_from([2, 3])).map(
            lambda gn: group_ringoid(gn[0], cyclic_ring(gn[1]))))


@settings(max_examples=30, deadline=None)
@given(_small_ringoids())
def test_classifier_agrees_with_reference_search(r):
    _assert_matches_reference(complete(r), 2)


# ---------------------------------------------------------------------------
# The decidable frontier through the CLI.
# ---------------------------------------------------------------------------

def _bare(r, name):
    """The same ringoid without its scalar ring, so that it is the first
    ringoid of its RGD file."""
    return FiniteRingoid(r.objects, r.homs, r.compose_table,
                         identities=r.identities, name=name)


def _run_machine(tmp_path, capsys, cmd, doc, bound):
    path = tmp_path / "input.rgd"
    path.write_text(print_rgd(doc), encoding="utf-8")
    code = run([cmd, "--input", str(path), "--bound", str(bound),
                "--format", "machine"])
    return code, json.loads(capsys.readouterr().out)


def test_frontier_disc2_bound_5(tmp_path, capsys, disc2):
    doc = document_from(ringoids=[_bare(disc2, "disc2")])
    code, out = _run_machine(tmp_path, capsys, "k0", doc, 5)
    assert (code, out["presentation"]["text"], out["undecided"]) == (0, "Z^2", False)


def test_frontier_c2free_bound_4(tmp_path, capsys, c2free):
    doc = document_from(ringoids=[_bare(c2free, "c2free")])
    code, out = _run_machine(tmp_path, capsys, "k0", doc, 4)
    assert (code, out["presentation"]["text"], out["undecided"]) == (0, "Z", False)


def test_frontier_assembly_bound_4(tmp_path, capsys, f2):
    c2 = FinGroup.cyclic(2)
    doc = document_from(ringoids=[f2], groupoids=[group_as_groupoid(c2, name="C2")],
                        gsets=[GSet.regular(c2)])
    code, out = _run_machine(tmp_path, capsys, "assembly", doc, 4)
    assert (code, out["iso"], out["undecided"]) == (0, True, False)
