import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (compose_with, elementary_ringoid, hom_elements,
                      idempotents, incidence_ringoids, inverse, left_divide,
                      small_ringoids)
from ringoids import (AbPresentation, FinAbGroup, FiniteRingoid, FinGroup, GSet,
                      IsoWitness, MatMorphism, RingoidHom, StructuralError,
                      Undecided, complete, cyclic_ring, discrete_groupoid,
                      document_from, enumerate_objsums, gl, group_as_groupoid,
                      group_ringoid, iso_class_table, k0_bounded,
                      map_completion, matrix_ring, print_rgd, product_ring,
                      transport_groupoid, validate)
from ringoids import additive, krullschmidt
from ringoids.additive import end_ring, isomorphism
from ringoids.krullschmidt import (SizeLimitExceeded, decomposition,
                                   table_letters)
from ringoids.ringoid import DEFAULT_CEILING, enumerate_multisets
from ringoids.cli import run
from ringoids.relative import free_class_of_idempotent


def find_isomorphism(view, a, b, ceiling=DEFAULT_CEILING):
    """Certified isomorphism a -> b, or None after exhausting Hom(a, b)
    (with sound pruning), or Undecided when the candidate-pair space
    |Hom(a, b)| * |Hom(b, a)| exceeds the ceiling.  Deterministic: the
    returned forward matrix is the lexicographically least invertible one,
    and its inverse is unique.  A brute-force search over whole sums, kept
    here as the test oracle for `Decomposition`."""
    a, b = tuple(a), tuple(b)
    if a == b:
        if view.base.unital:
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
    for u in hom_elements(view, a, b):
        v = inverse(view, u)
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
        for f in itertools.islice(hom_elements(view, s, t), 4):
            for g in itertools.islice(hom_elements(view, u, w), 4):
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
    table = iso_class_table(f2, 3)
    assert len(table) == 4  # ranks 0..3, no collapse
    assert list(table.values()) == [(), ("*",), ("*", "*"), ("*", "*", "*")]
    assert not decomposition(f2).undecided


def test_iso_class_table_product_ring():
    pr = product_ring(cyclic_ring(2, scalar=False), cyclic_ring(2, scalar=False))
    table = iso_class_table(pr, 2)
    assert len(table) == 3  # the single object is free of rank 1


def test_iso_class_table_zero_ring(zero):
    table = iso_class_table(zero, 2)
    assert table == {(): ()}  # everything is isomorphic to 0


def test_one_completion_per_ringoid(f2xf2):
    assert complete(f2xf2) is complete(f2xf2)


def test_iso_class_table_is_kept_per_bound_and_ceiling(f2xf2):
    table = iso_class_table(f2xf2, 3)
    assert iso_class_table(f2xf2, 3) is table
    assert iso_class_table(f2xf2, 3, ceiling=DEFAULT_CEILING) is table
    assert iso_class_table(f2xf2, 2) is not table
    at_8 = iso_class_table(f2xf2, 3, ceiling=8)
    assert at_8 is not table and iso_class_table(f2xf2, 3, ceiling=8) is at_8
    below = iso_class_table(f2xf2, 3, ceiling=3)
    assert below is not at_8 and iso_class_table(f2xf2, 3, ceiling=3) is below
    # the table answers for the ceiling it was asked for: |End(*)| = 4, so
    # at ceiling 3 (*) keeps one type, and within the ceiling it has two
    assert list(below) == [(), (0,), (0, 0), (0, 0, 0)]
    assert list(at_8) == list(table) == [(), (0, 1), (0, 0, 1, 1),
                                         (0, 0, 0, 1, 1, 1)]
    assert (decomposition(f2xf2, 3).undecided
            and not decomposition(f2xf2, 8).undecided
            and not decomposition(f2xf2).undecided)


def test_iso_class_table_keys_each_class_by_its_type_vector(disc2):
    table = iso_class_table(disc2, 3)
    dec = decomposition(disc2)
    first = {}
    for s in enumerate_multisets(disc2.objects, 3):
        first.setdefault(dec.type_vector(s), s)
    assert table == first
    for key, rep in table.items():
        assert dec.type_vector(rep) == key


def test_one_decomposition_per_ceiling(monkeypatch):
    from ringoids import idem_classes, k0_bounded, k0_via_nerve
    r = group_ringoid(discrete_groupoid(("a", "b")), cyclic_ring(2, name="F2"))
    built = []
    original = krullschmidt.Decomposition.__init__

    def counting(self, base, ceiling):
        built.append(ceiling)
        original(self, base, ceiling)

    monkeypatch.setattr(krullschmidt.Decomposition, "__init__", counting)
    for ceiling in (DEFAULT_CEILING, 64):
        k0_bounded(r, 3, ceiling=ceiling)
        k0_via_nerve(r, 3, ceiling=ceiling)
        idem_classes(r, ceiling=ceiling)
        for a in r.objects:
            assert free_class_of_idempotent(r, a, r.identity(a), 3,
                                            ceiling=ceiling) == (a,)
    assert built == [DEFAULT_CEILING, 64]


def test_objsum_enumeration_order(f2):
    sums = enumerate_objsums(f2.objects, 2)
    assert sums == [(), ("*",), ("*", "*")]


def test_multisets_are_the_sorted_words(disc2):
    objects = disc2.objects
    words = enumerate_objsums(objects, 3)
    # the non-decreasing words, in the same order
    ordered = [s for s in words
               if all(objects.index(x) <= objects.index(y)
                      for x, y in zip(s, s[1:]))]
    assert list(enumerate_multisets(objects, 3)) == ordered


def test_table_letters_counts_the_letters_of_the_multisets():
    for n in range(4):
        for bound in range(6):
            multisets = enumerate_multisets(range(n), bound)
            assert table_letters(n, bound) == sum(map(len, multisets))


def test_iso_class_table_over_the_letter_limit_is_refused(monkeypatch):
    # a ringoid of its own, so that no cached table answers first; F2 to
    # bound 3 holds 0 + 1 + 2 + 3 letters
    f2 = cyclic_ring(2)
    monkeypatch.setattr(krullschmidt, "TABLE_LETTER_LIMIT", 5)
    with pytest.raises(SizeLimitExceeded,
                       match="at bound 3 would hold 6.00e0 letters, over the "
                             "limit of 5"):
        iso_class_table(f2, 3)
    monkeypatch.setattr(krullschmidt, "TABLE_LETTER_LIMIT", 6)
    assert len(iso_class_table(f2, 3)) == 4


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
    comp = map_completion(compose_with(red2, red1))
    import random
    rng = random.Random(7)
    view = complete(z4)
    for _ in range(10):
        m = _random_matrix(view, ("*", "*"), ("*",), rng)
        assert f2_.apply(f1.apply(m)) == comp.apply(m)


def test_nonunital_view_restricted(f2):
    from ringoids import forget_units, StructuralError
    view = complete(forget_units(f2))
    assert not view.base.unital
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
        images = {view.compose(u, h) for h in hom_elements(view, (c,), u.src)}
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
    for u in hom_elements(view, a, b):
        if not _bijective(view, u):
            continue
        for v in hom_elements(view, b, a):
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
    assert left_divide(view, zero, one) is None  # zero is not a monomorphism
    assert left_divide(view, one, zero) == zero
    # the projection (a, b) -> (a) has a right inverse but is not invertible
    u = MatMorphism(("a", "b"), ("a",), [[disc2.identity("a"), disc2.zero("b", "a")]])
    v = left_divide(view, u, one)
    assert view.compose(u, v) == one
    assert inverse(view, u) is None
    assert inverse(view, one) == one


def _units_by_powers(view, s):
    """Number of u in End(s) with u^n = 1 for some n >= 1 (then u^(n-1) is a
    two-sided inverse); a repeated power without 1 rules u out."""
    one = view.identity(s)
    count = 0
    for u in hom_elements(view, s, s):
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
        solved = sum(inverse(view, u) is not None
                     for u in hom_elements(view, s, s))
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
        for u in hom_elements(view, t, (a,)):
            for v in hom_elements(view, (a,), t):
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
                assert (free_class_of_idempotent(r, a, p, 3)
                        == _splitting_search(view, a, p, 3)), (a, p)


def test_free_class_of_idempotent_beyond_the_pair_ceiling(morita13):
    # E11 + E22 in End(3) splits through (1) + (1).  The splitting search
    # over whole sums needs (8 * 8)^2 = 4096 candidates for that sum; the
    # decomposition needs |End(3)| = 512 and 8 * 8 per comparison.
    p = (1, 0, 0, 0, 1, 0, 0, 0, 0)
    assert free_class_of_idempotent(morita13, "3", p, 2, ceiling=512) == ("1", "1")
    assert free_class_of_idempotent(morita13, "3", p, 1, ceiling=512) is None
    # below |End(3)| the answer is unknown, never "no such sum"
    res = free_class_of_idempotent(morita13, "3", p, 2, ceiling=511)
    assert isinstance(res, Undecided)
    assert (res.subject, res.size, res.ceiling) == ("3", 512, 511)


def test_free_class_of_idempotent_unknown_while_types_are_unmerged(f2xf2):
    e1 = (1, 0)
    assert free_class_of_idempotent(f2xf2, "*", e1, 3) is None  # e1 is not free
    # telling e1 from e2 takes only |End(*)| = 4 under the ceiling ...
    assert free_class_of_idempotent(f2xf2, "*", e1, 3, ceiling=8) is None
    # ... below it 1_* is not split, and "not free" cannot be certified
    res = free_class_of_idempotent(f2xf2, "*", e1, 3, ceiling=3)
    assert isinstance(res, Undecided)
    assert (res.subject, res.size, res.ceiling) == ("*", 4, 3)


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
    table = iso_class_table(view.base, bound)
    dec = decomposition(view.base)
    assert not dec.undecided
    reps, class_of = _reference_table(view, bound)
    assert tuple(table.values()) == reps
    # every word, through its type vector, whatever its order
    assert {s: reps.index(table[dec.type_vector(s)]) for s in class_of} == class_of
    # the table holds one multiset per class; the decomposition builds the
    # isomorphism of each multiset to its representative on request
    for s in enumerate_multisets(view.base.objects, bound):
        rep = table[dec.type_vector(s)]
        if s == rep:
            continue
        w = isomorphism(dec, s, rep)
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
    dec = decomposition(r)
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


@pytest.mark.parametrize("name", ["f2xf2", "m2f2", "disc2", "morita"])
def test_a_tampered_split_fails_its_check(request, name):
    # over F2 a part added twice more leaves the sum as it is, but is not
    # orthogonal to itself; a dropped part leaves the sum short
    r = request.getfixturevalue(name)
    dec = decomposition(r)
    for a in r.objects:
        one = r.identity(a)
        parts = [x.idem for x in dec.summands[a]]
        assert dec._checked(a, one, parts) == parts
        for tampered in (parts[:-1], parts + parts[:1] * 2):
            with pytest.raises(StructuralError, match="not one into orthogonal"):
                dec._checked(a, one, tampered)


def _equivalence_by_pair_search(base, a, p, c, q):
    """Reference for `Decomposition._equivalence`: the first pair (alpha,
    beta) in q Hom(a, c) p x p Hom(c, a) q with beta . alpha = p and
    alpha . beta = q, trying every pair, or None."""
    if (a, p) == (c, q):
        return p, p
    alphas = dict.fromkeys(base.compose(a, c, c, q, base.compose(a, a, c, x, p))
                           for x in base.hom(a, c).elements())
    betas = dict.fromkeys(base.compose(c, a, a, p, base.compose(c, c, a, y, q))
                          for y in base.hom(c, a).elements())
    for alpha in alphas:
        for beta in betas:
            if (base.compose(a, c, a, beta, alpha) == p
                    and base.compose(c, a, c, alpha, beta) == q):
                return alpha, beta
    return None


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_ringoids(), incidence_ringoids()))
def test_equivalence_merges_exactly_what_the_pair_search_merges(r):
    dec = decomposition(r)
    assert not dec.undecided
    primitives = [(a, x.idem) for a in r.objects for x in dec.summands[a]]
    for a, p in primitives:
        for c, q in primitives:
            res = dec._equivalence(a, p, c, q)
            ref = _equivalence_by_pair_search(r, a, p, c, q)
            assert (res is None) == (ref is None), (a, p, c, q)
            if res is not None:
                alpha, beta = res
                assert r.compose(a, c, a, beta, alpha) == p
                assert r.compose(c, a, c, alpha, beta) == q
                assert r.compose(a, a, c, alpha, p) == alpha
                assert r.compose(c, c, a, beta, q) == beta


def test_a_unit_product_other_than_p_merges():
    # a and b are isomorphic, but over F3 the generator of Hom(b, a) is
    # scaled by 2: t_ba . t_ab = 2 . 1_a, a unit other than 1_a, whose
    # inverse (itself) rescales beta
    scale = {("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1, ("b", "a"): 2}
    homs = {key: FinAbGroup((3,)) for key in scale}
    table = {(x, y, z): (((scale[(y, z)] * scale[(x, y)] * scale[(x, z)] % 3,),),)
             for x, y, z in itertools.product("ab", repeat=3)}
    r = FiniteRingoid(("a", "b"), homs, table,
                      identities={"a": (1,), "b": (1,)}, name="F3 scaled")
    assert validate(r).ok
    dec = decomposition(r)
    x = dec.summands["b"][0]
    assert (x.type, x.alpha, x.beta) == (0, (1,), (2,))
    assert _equivalence_by_pair_search(r, "b", (1,), "a", (1,)) == ((1,), (2,))


@pytest.mark.parametrize("s,t", [(("*",), ("*", "*")), (("*", "*"), ("*",))])
def test_isomorphism_of_unequal_type_vectors_is_refused(s, t):
    dec = decomposition(cyclic_ring(2))
    with pytest.raises(StructuralError, match="unequal type vectors"):
        isomorphism(dec, s, t)


def test_each_split_is_checked_when_it_is_made(f2xf2, monkeypatch):
    dec = krullschmidt.Decomposition(f2xf2, DEFAULT_CEILING)
    split = krullschmidt.Decomposition._split
    monkeypatch.setattr(krullschmidt.Decomposition, "_split",
                        lambda self, a, e: split(self, a, e)[:-1])
    with pytest.raises(StructuralError, match="split of"):
        krullschmidt.Decomposition(f2xf2, DEFAULT_CEILING)
    # the split of an idempotent other than 1_a, made on first request
    with pytest.raises(StructuralError, match="split of"):
        dec.split("*", (1, 0))


def _count_witnesses(monkeypatch):
    """Count the transfer matrices and matrix products built from now on:
    every isomorphism and splitting the decomposition could build makes
    two of each."""
    built = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(self, *args):
            built.append(name)
            return original(self, *args)
        monkeypatch.setattr(owner, name, counting)

    count(additive, "_transfer")
    count(additive.AdditiveView, "compose")
    return built


def test_bounded_k0_builds_no_witness(monkeypatch):
    # a c2free of its own, so that no cached table answers; the table has
    # 496 multisets in 31 classes, so 465 multisets are not representatives
    r = group_ringoid(transport_groupoid(GSet.regular(FinGroup.cyclic(2))),
                      cyclic_ring(2, name="F2"))
    built = _count_witnesses(monkeypatch)
    res = k0_bounded(r, 30)
    assert res.presentation == AbPresentation.free(1)
    table = iso_class_table(r, 30)
    assert len(list(enumerate_multisets(r.objects, 30))) == 496
    assert len(table) == 31
    assert built == []
    # one witness on request: two transfers and the two products checking them
    isomorphism(decomposition(r), (0, 0), (0, 1))
    assert sorted(built) == ["_transfer"] * 2 + ["compose"] * 2


def test_free_class_of_idempotent_builds_no_splitting(monkeypatch):
    r = elementary_ringoid({"2": 2, "1": 1}, "Morita(2,1)")
    built = _count_witnesses(monkeypatch)
    classes = [free_class_of_idempotent(r, a, p, 2)
               for a in r.objects for p in idempotents(r, a)]
    # in element order, End(2) = M2(F2) lists 0, six rank-one idempotents
    # and 1 (the fifth), and End(1) = F2 lists 0 and 1
    one, two = ("1",), ("2",)
    assert classes == [(), one, one, one, one, two, one, one, (), one]
    assert built == []


def test_decomposition_of_new_fixtures(morita, t2f2):
    dec = decomposition(morita)
    # 1_(2) splits into two primitives, both equivalent to 1_(1)
    assert [x.type for x in dec.summands["2"]] == [0, 0]
    dec = decomposition(t2f2)
    # e11 and e22 are not equivalent: two types on one object
    assert sorted(x.type for x in dec.summands["*"]) == [0, 1]
    assert not dec.undecided


def test_morita_bound_3_is_decided(morita):
    table = iso_class_table(morita, 3)
    dec = decomposition(morita)
    assert not dec.undecided
    assert len(table) == 7  # one class per total rank 0..6
    assert table[dec.type_vector(("1", "1"))] == ("2",)


def test_undecided_records_carry_sizes(morita):
    table = iso_class_table(morita, 2, ceiling=15)
    dec = decomposition(morita, 15)
    # |End(2)| = 16 is over the ceiling, so (2) keeps a type of its own and
    # is not compared with (1)
    assert [(u.subject, u.size, u.ceiling) for u in dec.undecided] == [
        ("2", 16, 15)]
    assert table[dec.type_vector(("1", "1"))] == ("1", "1")
    table = iso_class_table(morita, 2, ceiling=16)
    dec = decomposition(morita, 16)
    assert not dec.undecided
    assert table[dec.type_vector(("1", "1"))] == ("2",)


def test_object_over_the_ceiling_merges_only_on_certified_equivalence(
        monkeypatch):
    # (3) comes first and is over the ceiling, so it keeps 1_(3) as one
    # summand and is never compared; 1_(1) is a retract of it
    # (beta . alpha = 1_(1)) but not equivalent to it (alpha . beta = E11),
    # so (1) starts its own type
    compared = []
    equivalence = krullschmidt.Decomposition._equivalence

    def spy(self, a, p, c, q):
        compared.append((a, c))
        return equivalence(self, a, p, c, q)

    monkeypatch.setattr(krullschmidt.Decomposition, "_equivalence", spy)
    r = elementary_ringoid({"3": 3, "1": 1}, "Morita(3,1)")
    table = iso_class_table(r, 1, ceiling=100)
    assert [u.subject for u in decomposition(r, 100).undecided] == ["3"]
    assert list(table.values()) == [(), ("3",), ("1",)]
    assert compared == []
    # within the ceiling the three primitives of 1_(3) are compared with
    # the first, and 1_(1) with it
    iso_class_table(r, 1, ceiling=512)
    assert compared == [("3", "3")] * 2 + [("1", "3")]


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


def _flat(f):
    return tuple(v for row in f.entries for entry in row for v in entry)


def _unflat(view, s, x):
    """The matrix s -> s whose blocks Hom(s_j, s_i), row by row, hold the
    coordinates x in turn."""
    entries, pos = [], 0
    for b in s:
        row = []
        for a in s:
            k = len(view.base.hom(a, b).moduli)
            row.append(x[pos:pos + k])
            pos += k
        entries.append(row)
    assert pos == len(x)
    return MatMorphism(s, s, entries)


@settings(max_examples=30, deadline=None)
@given(small_ringoids(), st.data())
def test_end_ring_is_the_matrix_ring_of_the_sum(r, data):
    # End(s) for a sum of length <= 2 is tabulated from view.compose: it
    # validates, its identity is the identity matrix, and its product of
    # two elements is the matrix product of their blocks.  Sums whose End
    # has more than 8 generators are cut short, to keep the axiom check
    # (cubic in the generators) quick.
    view = complete(r)
    s = tuple(data.draw(st.lists(st.sampled_from(r.objects), max_size=2)))
    while sum(len(view.base.hom(a, b).moduli) for a in s for b in s) > 8:
        s = s[:-1]
    ring = end_ring(view, s, name="End")
    assert (ring.objects, ring.name) == (("*",), "End")
    assert validate(ring).ok
    assert ring.identity("*") == _flat(view.identity(s))
    hom = ring.hom("*", "*")
    y, x = (hom.reduce(data.draw(st.lists(st.integers(0, 11), min_size=len(hom.moduli),
                                          max_size=len(hom.moduli))))
            for _ in range(2))
    assert _unflat(view, s, ring.compose("*", "*", "*", y, x)) == view.compose(
        _unflat(view, s, y), _unflat(view, s, x))


def test_end_ring_of_the_zero_object_is_the_zero_ring(f2):
    ring = end_ring(complete(f2), ())
    assert validate(ring).ok
    assert ring.hom("*", "*").order() == 1 and ring.identity("*") == ()


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


def test_k0_m3f2_is_decided_at_a_ceiling_of_its_end(tmp_path, capsys):
    # |End| = 512: the three primitives of 1_* are compared through the
    # 9 x 9 products of generators, not |Hom|^2 = 2^18 pairs
    path = tmp_path / "m3f2.rgd"
    ring = matrix_ring(cyclic_ring(2, scalar=False), 3)
    path.write_text(print_rgd(document_from(ringoids=[ring])), encoding="utf-8")
    code = run(["k0", "--input", str(path), "--bound", "2", "--ceiling", "512"])
    assert (code, capsys.readouterr().out) == (0, "K0 = Z (stabilized at L=2)\n")


def test_frontier_assembly_bound_4(tmp_path, capsys, f2):
    c2 = FinGroup.cyclic(2)
    doc = document_from(ringoids=[f2], groupoids=[group_as_groupoid(c2, name="C2")],
                        gsets=[GSet.regular(c2)])
    code, out = _run_machine(tmp_path, capsys, "assembly", doc, 4)
    assert (code, out["iso"], out["undecided"]) == (0, True, False)
