import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import group_is_valid, symmetric3
from ringoids import complete, cyclic_ring, gl, k1_bounded
from ringoids.groups import FinGroup, abelianization
from ringoids.intlinalg import AbPresentation, apply_rows, hom_is_isomorphism
from ringoids.k1 import stabilization_embedding
from ringoids.lattice import solve_row_combinations


# ---------------------------------------------------------------------------
# Brute-force reference: commutator closure, coset quotient, table SNF.
# ---------------------------------------------------------------------------

def reference_commutator_subgroup(group):
    """Indices of [G, G]: the closure of all commutators under products."""
    n = len(group)
    inv = [group.inv(i) for i in range(n)]
    comms = {group.mul(group.mul(i, j), group.mul(inv[i], inv[j]))
             for i in range(n) for j in range(n)}
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for c in comms:
            y = group.mul(x, c)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def reference_abelianization(group):
    """(presentation, coset map): G / [G, G] presented on its cosets, with
    one relation [a] + [b] - [ab] per pair of cosets."""
    normal = reference_commutator_subgroup(group)
    n = len(group)
    coset_of = [None] * n
    reps = []
    for x in range(n):
        if coset_of[x] is None:
            for h in normal:
                coset_of[group.mul(h, x)] = len(reps)
            reps.append(x)
    k = len(reps)
    rows = []
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            row = [0] * k
            row[i] += 1
            row[j] += 1
            row[coset_of[group.mul(a, b)]] -= 1
            rows.append(row)
    return AbPresentation(k, rows), coset_of


# ---------------------------------------------------------------------------
# Small groups.
# ---------------------------------------------------------------------------

def _perm_group(perms):
    return FinGroup.from_mult(perms, lambda p, q: tuple(p[q[i]] for i in range(len(q))))


def _even(p):
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return inversions % 2 == 0


def _quaternion_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _gl2(m):
    """GL_2(Z/m) as 2x2 matrices with unit determinant."""
    units = {u for u in range(m) if any(u * v % m == 1 for v in range(m))}
    mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(m), repeat=4)
            if (a * d - b * c) % m in units]

    def mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) % m
                           for j in range(2)) for i in range(2))

    return FinGroup.from_mult(mats, mul)


def _direct_product(g, h):
    pairs = [(i, j) for i in range(len(g)) for j in range(len(h))]
    index = {p: k for k, p in enumerate(pairs)}
    table = [[index[(g.mul(a, c), h.mul(b, d))] for (c, d) in pairs]
             for (a, b) in pairs]
    return FinGroup(pairs, table)


S4_PERMS = list(itertools.permutations(range(4)))

SMALL_GROUPS = {
    **{"C%d" % n: FinGroup.cyclic(n) for n in range(1, 7)},
    "Klein": FinGroup.from_mult(
        [(a, b) for a in range(2) for b in range(2)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)),
    "S3": symmetric3(),
    "D4": FinGroup.from_mult(
        [(r, f) for r in range(4) for f in range(2)],
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)),
    "Q8": FinGroup.from_mult(
        [tuple(s * int(i == k) for i in range(4)) for k in range(4) for s in (1, -1)],
        _quaternion_mul),
    "A4": _perm_group([p for p in S4_PERMS if _even(p)]),
    "S4": _perm_group(S4_PERMS),
    "GL2(F2)": _gl2(2),
    "GL2(F3)": _gl2(3),
    "GL2(Z/4)": _gl2(4),
}

EXPECTED = {
    "C1": "0", "C2": "Z/2", "C3": "Z/3", "C4": "Z/4", "C5": "Z/5", "C6": "Z/6",
    "Klein": "Z/2 + Z/2", "S3": "Z/2", "D4": "Z/2 + Z/2", "Q8": "Z/2 + Z/2",
    "A4": "Z/3", "S4": "Z/2", "GL2(F2)": "Z/2", "GL2(F3)": "Z/2",
    "GL2(Z/4)": "Z/2 + Z/2",
}


def table_abelianization(group, gens, identity=None):
    """abelianization(identity, steps) with table steps x -> x.g, one per
    generator g (element indices), discovering the group from its
    identity (group.identity unless given).  Returns (presentation,
    coords), coords[x] the image of element x in index order.  Generators
    that miss an element raise ValueError."""
    steps = [lambda x, g=g: group.mul(x, g) for g in gens]
    elements, index, pres, coords = abelianization(
        group.identity if identity is None else identity, steps)
    if len(elements) != len(group):
        raise ValueError("the generators reach %d of %d elements"
                         % (len(elements), len(group)))
    return pres, [coords[index[x]] for x in range(len(group))]


def index_order_generators(group):
    """Each element, in index order, that is not yet a product of the ones
    taken before it: at most log2 |G| generators, since each one at least
    doubles the subgroup reached."""
    gens = []
    reached = {group.identity}
    for x in range(len(group)):
        if x not in reached:
            gens.append(x)
            queue = [group.identity]
            reached = {group.identity}
            for y in queue:
                for g in gens:
                    z = group.mul(y, g)
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
    return gens


def assert_is_quotient_map(group):
    """The abelianization on index-order generators presents G^ab with
    coords the quotient map: generator k has coords e_k (so coords is
    onto), coords is a homomorphism, and its kernel is the reference
    [G, G].  Returns the presentation."""
    gens = index_order_generators(group)
    pres, coords = table_abelianization(group, gens)
    k = pres.generators
    assert k == len(gens) and 2 ** k <= len(group)
    for pos, g in enumerate(gens):
        assert coords[g] == tuple(int(i == pos) for i in range(k))
    n = len(group)
    defects = [[a + b - c for a, b, c in zip(coords[i], coords[j],
                                             coords[group.mul(i, j)])]
               for i in range(n) for j in range(n)]
    assert None not in solve_row_combinations(pres.relations, k, defects)
    in_kernel = solve_row_combinations(pres.relations, k, coords)
    kernel = [x for x, sol in enumerate(in_kernel) if sol is not None]
    assert kernel == reference_commutator_subgroup(group)
    assert len({frozenset(row.items()) for row in pres.relations}) == len(pres.relations)
    assert all(row and all(row.values()) for row in pres.relations)
    return pres


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------

def test_cyclic_group_valid():
    g = FinGroup.cyclic(6)
    assert group_is_valid(g)
    assert g.identity == 0
    assert g.inv(g.index(1)) == g.index(5)


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FinGroup([0, 1], [[0, 0], [0, 0]])  # no identity at all
    # identity exists but 1 has no inverse: full validity fails
    assert not group_is_valid(FinGroup([0, 1], [[0, 1], [1, 1]]))


def test_abelianization_trivial():
    pres, _ = table_abelianization(FinGroup.cyclic(1), [])
    assert pres.is_trivial()


def test_abelianization_s3():
    s3 = symmetric3()
    assert group_is_valid(s3)
    commutators = reference_commutator_subgroup(s3)
    assert len(commutators) == 3  # brute-force closure gives A3
    pres, _ = table_abelianization(s3, [1, 2])
    assert pres == AbPresentation.cyclic(2)


def test_abelianization_fixes_abelian_input():
    c4 = FinGroup.cyclic(4)
    pres, _ = table_abelianization(c4, [1])
    assert pres == AbPresentation.cyclic(4)
    klein = FinGroup.from_mult(
        [(a, b) for a in range(2) for b in range(2)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    pres, _ = table_abelianization(klein, [1, 2])
    assert pres == AbPresentation(2, [(2, 0), (0, 2)])


def test_abelianization_coords_are_homomorphic():
    s3 = symmetric3()
    pres, coords = table_abelianization(s3, range(1, len(s3)))
    # the coset map must be a homomorphism into the presented group: the
    # coordinates of a product differ from the sum of coordinates by a
    # relation of the presentation
    from ringoids.lattice import lattice_contains
    k = pres.generators
    for i in range(len(s3)):
        for j in range(len(s3)):
            prod = coords[s3.mul(i, j)]
            added = [a + b for a, b in zip(coords[i], coords[j])]
            diff = [a - b for a, b in zip(added, prod)]
            assert lattice_contains(pres.relations, k, diff)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_abelianization_matches_reference(name):
    group = SMALL_GROUPS[name]
    pres = assert_is_quotient_map(group)
    assert pres == reference_abelianization(group)[0]
    assert str(pres) == EXPECTED[name]


def test_abelianization_generators_in_index_order():
    # C6 by 1 alone; in S3 the first two non-identity elements generate
    c6, s3 = FinGroup.cyclic(6), symmetric3()
    assert index_order_generators(c6) == [1]
    assert index_order_generators(s3) == [1, 2]
    # generator k of the presentation is the k-th one given, in any order
    pres, coords = table_abelianization(c6, [1])
    assert pres == AbPresentation.cyclic(6) and coords[1] == (1,)
    pres, coords = table_abelianization(s3, [2, 1])
    assert pres.generators == 2 and coords[2] == (1, 0) and coords[1] == (0, 1)
    # generators that miss an element are refused: 2 reaches 3 of C6
    with pytest.raises(ValueError):
        table_abelianization(c6, [2])


def _order(names):
    out = 1
    for name in names:
        out *= len(SMALL_GROUPS[name])
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(sorted(SMALL_GROUPS)), min_size=2, max_size=3)
       .filter(lambda names: _order(names) <= 96))
def test_abelianization_of_direct_products(names):
    group = SMALL_GROUPS[names[0]]
    expected = reference_abelianization(group)[0]
    for name in names[1:]:
        group = _direct_product(group, SMALL_GROUPS[name])
        expected = expected.direct_sum(reference_abelianization(SMALL_GROUPS[name])[0])
    assert assert_is_quotient_map(group) == expected


# ---------------------------------------------------------------------------
# Bounded K1 against the table path.
# ---------------------------------------------------------------------------

def reference_k1(r, n_max):
    """Per-rank GL^ab and stabilization verdicts by the table path: a full
    multiplication table per GL_n, the reference abelianization on cosets,
    and one stabilization row per coset."""
    obj = r.objects[0]
    view = complete(r)
    ranks, tables, coset_maps = {}, {}, {}
    for n in range(1, n_max + 1):
        g = gl(view, (obj,) * n)
        table = FinGroup(g.elements, [[g.mul(i, j) for j in range(len(g))]
                                      for i in range(len(g))])
        ranks[n], coset_maps[n] = reference_abelianization(table)
        tables[n] = table
    verdicts = []
    for n in range(1, n_max):
        embed = stabilization_embedding(view, (obj,) * n, (obj,))
        k, k1 = ranks[n].generators, ranks[n + 1].generators
        reps = {}
        for x, c in enumerate(coset_maps[n]):
            reps.setdefault(c, x)
        matrix = []
        for c in range(k):
            image = coset_maps[n + 1][tables[n + 1].index(
                embed(tables[n].elements[reps[c]]))]
            matrix.append([int(i == image) for i in range(k1)])
        verdicts.append(hom_is_isomorphism(ranks[n], ranks[n + 1], matrix))
    return ranks, verdicts


@pytest.mark.parametrize("ring_name,n_max", [
    ("f2", 3), ("f3", 2), ("z4", 2), ("f2xf2", 2), ("f2c2", 2), ("m2f2", 1)])
def test_k1_bounded_matches_table_reference(ring_name, n_max, request):
    ring = request.getfixturevalue(ring_name)
    res = k1_bounded(ring, n_max)
    ranks, verdicts = reference_k1(ring, n_max)
    assert res.ranks == ranks
    assert [step.is_isomorphism for step in res.steps] == verdicts
    assert res.last_step_iso == (verdicts[-1] if verdicts else None)
    assert_steps_are_induced_maps(ring, res)


def test_k1_steps_from_two_generators():
    # (Z/8)* is Klein four, so GL_1(Z/8) needs two generators and each
    # stabilization row is used
    z8 = cyclic_ring(8)
    res = k1_bounded(z8, 2)
    assert res.ranks[1] == AbPresentation(2, [(2, 0), (0, 2)])
    assert len(gl(complete(z8), ("*",) * 2)) == 1536
    assert res.steps[0].is_isomorphism is False
    assert_steps_are_induced_maps(z8, res)


def assert_steps_are_induced_maps(ring, res):
    """Each step's matrix sends coords_n(x) to coords_(n+1)(diag(x, 1))
    modulo the relators of GL_(n+1), for every x in GL_n.  `gl` is
    deterministic, so closing GL_n again gives the elements and generators
    the step was read from; the coords are recomputed from composed
    products (element 0 is the identity)."""
    view = complete(ring)
    obj = ring.objects[0]
    for step in res.steps:
        n = step.rank
        g, g1 = gl(view, (obj,) * n), gl(view, (obj,) * (n + 1))
        _, coords = table_abelianization(g, g.generators, 0)
        pres1, coords1 = table_abelianization(g1, g1.generators, 0)
        embed = stabilization_embedding(view, (obj,) * n, (obj,))
        k1 = pres1.generators
        images = [apply_rows(coords[x], step.matrix) for x in range(len(g))]
        defects = [[image.get(j, 0) - b
                    for j, b in enumerate(coords1[g1.index(embed(u))])]
                   for image, u in zip(images, g.elements)]
        assert None not in solve_row_combinations(pres1.relations, k1, defects)
