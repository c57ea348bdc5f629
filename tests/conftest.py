import pytest
from hypothesis import strategies as st

from ringoids import (FinAbGroup, FiniteRingoid, FinGroup, GSet, cyclic_ring,
                      discrete_groupoid, group_as_groupoid, group_ringoid,
                      matrix_ring, product_ring, tensor, transport_groupoid,
                      with_self_scalar)


@pytest.fixture(scope="session")
def f2():
    return cyclic_ring(2, name="F2")


@pytest.fixture(scope="session")
def f3():
    return cyclic_ring(3, name="F3")


@pytest.fixture(scope="session")
def z4():
    return cyclic_ring(4, name="Z/4")


@pytest.fixture(scope="session")
def zero():
    return cyclic_ring(1, name="0")


@pytest.fixture(scope="session")
def m2f2():
    return matrix_ring(cyclic_ring(2, scalar=False), 2)


@pytest.fixture(scope="session")
def f2xf2():
    return product_ring(cyclic_ring(2, scalar=False),
                        cyclic_ring(2, scalar=False), name="F2xF2")


@pytest.fixture(scope="session")
def c2_groupoid():
    return group_as_groupoid(FinGroup.cyclic(2), name="C2")


@pytest.fixture(scope="session")
def f2c2(c2_groupoid, f2):
    return group_ringoid(c2_groupoid, f2)


@pytest.fixture(scope="session")
def disc2(f2):
    """Two discrete objects over F2."""
    return group_ringoid(discrete_groupoid(("a", "b")), f2)


@pytest.fixture(scope="session")
def c2free(f2):
    """The transport ringoid of the free C2-orbit over F2."""
    return group_ringoid(transport_groupoid(GSet.regular(FinGroup.cyclic(2))), f2)


@pytest.fixture(scope="session")
def ideal_two_moduloid(z4):
    """The ideal (2) in Z/4 as an abstract non-unital Z/4-moduloid: its
    hom-group is Z/2 generated by the class of 2, squares to zero, and the
    scalar r acts by r*2."""
    return FiniteRingoid(("a",), {("a", "a"): FinAbGroup((2,))},
                         {("a", "a", "a"): (((0,),),)},
                         scalar=z4.scalar, action={("a", "a"): (((1,),),)},
                         unital=False, name="(2)")


@pytest.fixture(scope="session")
def f2xf2_moduloid(f2):
    """F2 x F2 as a unital F2-moduloid with the diagonal scalar action."""
    ring = product_ring(cyclic_ring(2, scalar=False),
                        cyclic_ring(2, scalar=False), name="F2xF2")
    action = {("*", "*"): (((1, 0), (0, 1)),)}
    return FiniteRingoid(ring.objects, ring.homs, ring.compose_table,
                         identities=ring.identities, scalar=f2.scalar,
                         action=action, name="F2xF2/F2")


def elementary_ringoid(dims, name, positions=None):
    """A ringoid of matrices over F2: object a stands for F2^dims[a], and
    Hom(a, b) is spanned by the elementary dims[b] x dims[a] matrices E_ij
    with (i, j) in positions[(a, b)] (default: all of them).  Composition
    is the matrix product, so the spans must be closed under it and contain
    the identity matrices."""
    objects = tuple(dims)
    if positions is None:
        positions = {(a, b): [(i, j) for i in range(dims[b]) for j in range(dims[a])]
                     for a in objects for b in objects}
    homs = {key: FinAbGroup((2,) * len(pos)) for key, pos in positions.items()}
    table = {}
    for a in objects:
        for b in objects:
            for c in objects:
                target = positions[(a, c)]
                rows = []
                for (i, k) in positions[(b, c)]:
                    row = []
                    for (k2, j) in positions[(a, b)]:
                        img = [0] * len(target)
                        if k == k2:  # E_ik . E_kj = E_ij
                            img[target.index((i, j))] = 1
                        row.append(tuple(img))
                    rows.append(tuple(row))
                table[(a, b, c)] = tuple(rows)
    identities = {a: tuple(int(i == j) for (i, j) in positions[(a, a)])
                  for a in objects}
    return FiniteRingoid(objects, homs, table, identities=identities, name=name)


@st.composite
def incidence_ringoids(draw):
    """Random elementary ringoids over F2 on one or two objects of dimension
    1 or 2.  Each basis vector gets a level, and E_ij lies in Hom(a, b) when
    the level of i (in b) is at most that of j (in a); the spans are then
    closed under composition and hold the identities."""
    names = ("a", "b")[:draw(st.integers(1, 2))]
    dims = {x: draw(st.integers(1, 2)) for x in names}
    level = {x: [draw(st.integers(0, 2)) for _ in range(dims[x])] for x in names}
    positions = {(a, b): [(i, j) for i in range(dims[b]) for j in range(dims[a])
                          if level[b][i] <= level[a][j]]
                 for a in names for b in names}
    return elementary_ringoid(dims, "E", positions)


def small_groupoids():
    """Discrete groupoids, cyclic groups, and transport groupoids of C2: on
    named points and on the int points of the regular G-set."""
    c2 = FinGroup.cyclic(2)
    swap = GSet(c2, ("p", "q"), {("p", 0): "p", ("p", 1): "q",
                                 ("q", 0): "q", ("q", 1): "p"})
    fixed = GSet(c2, ("p",), {("p", 0): "p", ("p", 1): "p"})
    return st.one_of(
        st.sampled_from([("a",), ("a", "b")]).map(discrete_groupoid),
        st.integers(1, 3).map(lambda n: group_as_groupoid(
            FinGroup.cyclic(n), name="C%d" % n)),
        st.sampled_from([swap, fixed, GSet.regular(c2)]).map(transport_groupoid))


def _group_ringoids():
    return st.builds(group_ringoid, small_groupoids(),
                     st.sampled_from([2, 3]).map(lambda p: cyclic_ring(p, name="F%d" % p)))


def small_ringoids():
    """Incidence ringoids, group ringoids of small groupoids, and tensor
    products over Z of an incidence ringoid with a group ringoid (whose
    objects are pairs), under their default names."""
    return st.one_of(
        incidence_ringoids(),
        _group_ringoids(),
        st.builds(lambda m, n: tensor(m, n).ringoid, incidence_ringoids(),
                  _group_ringoids()))


@pytest.fixture(scope="session")
def morita():
    """Free F2-modules of rank 1 and 2: Morita equivalent to F2, with
    (1) + (1) isomorphic to (2)."""
    return elementary_ringoid({"1": 1, "2": 2}, "Morita(1,2)")


@pytest.fixture(scope="session")
def morita13():
    """Free F2-modules of rank 1 and 3."""
    return elementary_ringoid({"1": 1, "3": 3}, "Morita(1,3)")


@pytest.fixture(scope="session")
def t2f2():
    """Upper-triangular 2 x 2 matrices over F2: e11 and e22 are orthogonal
    primitive idempotents that are not equivalent."""
    return elementary_ringoid({"*": 2}, "T2(F2)",
                              {("*", "*"): [(0, 0), (0, 1), (1, 1)]})
