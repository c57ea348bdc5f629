import argparse
import contextlib
import io
import itertools

import pytest
from hypothesis import strategies as st

from ringoids import (FinAbGroup, FiniteRingoid, FinGroup, GSet, MatMorphism,
                      StructuralError, cyclic_ring, discrete_groupoid,
                      group_as_groupoid, group_ringoid, matrix_ring,
                      product_ring, tensor, transport_groupoid,
                      with_self_scalar)
from ringoids.cli import _COMMANDS
from ringoids.constructions import tabulate_hom
from ringoids.ringoid import DEFAULT_CEILING


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
def disc3(f2):
    """Three discrete objects over F2."""
    return group_ringoid(discrete_groupoid(("a", "b", "c")), f2)


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


def hom_elements(view, src, dst):
    """All matrices src -> dst in lexicographic entry order (row-major,
    each entry in its group's coordinate order)."""
    groups = [[view.base.hom(a, b) for a in src] for b in dst]
    pools = [g.elements() for row in groups for g in row]
    m = len(src)
    for flat in itertools.product(*pools):
        entries = [flat[i * m:(i + 1) * m] for i in range(len(dst))]
        yield MatMorphism(src, dst, entries)


def left_divide(view, u, w):
    """The h with u . h = w, or None.  Composition acts column by column,
    so column k of h is looked up in one table of u . x over
    x in Hom((c_k), u.src), built once per distinct c_k.  A repeated
    image in a table also gives None: u is then not a monomorphism,
    which every caller needs and which makes h unique."""
    if w.dst != u.dst:
        raise StructuralError("left division shape mismatch")
    tables = {}
    cols = []
    for k, c in enumerate(w.src):
        table = tables.get(c)
        if table is None:
            table = tables[c] = {}
            for x in hom_elements(view, (c,), u.src):
                img = view.compose(u, x).entries
                if img in table:
                    return None
                table[img] = x
        x = table.get(tuple((row[k],) for row in w.entries))
        if x is None:
            return None
        cols.append(x)
    return MatMorphism(w.src, u.src, [[x.entries[i][0] for x in cols]
                                      for i in range(len(u.src))])


def inverse(view, u):
    """The two-sided inverse of u, or None: the solution v of
    u . v = 1 is certified by v . u = 1."""
    v = left_divide(view, u, view.identity(u.dst))
    if v is None or view.compose(v, u) != view.identity(u.src):
        return None
    return v


def determinant_of_matmorphism(r, f):
    """Leibniz determinant of a square matrix over a one-object commutative
    base; a checkable property of the computed GL groups."""
    obj = r.objects[0]
    hom = r.hom(obj, obj)
    n = len(f.src)
    total = hom.zero()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = r.identity(obj)
        for i in range(n):
            prod = r.compose(obj, obj, obj, prod, f.entries[i][perm[i]])
        total = hom.add(total, hom.smul(sign, prod))
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def ring_units(r, obj=None):
    """Unit group elements of End(obj), by default of the one object of r,
    by exhaustive O(|R|^2) search: the reference for the units the GL
    closure finds."""
    obj = r.objects[0] if obj is None else obj
    hom = r.hom(obj, obj)
    one = r.identity(obj)
    units = []
    for u in hom.elements():
        for v in hom.elements():
            if (r.compose(obj, obj, obj, u, v) == one
                    and r.compose(obj, obj, obj, v, u) == one):
                units.append(u)
                break
    return units


def kept_units(r, a):
    """The units of End(a) (`ring_units`) that the units kept before them,
    in element order, do not generate, each generated group closed again
    from 1 under composition: the reference for the unit generators of
    the GL closure."""
    one = r.identity(a)
    kept, reached = [], {one}
    for u in ring_units(r, a):
        if u not in reached:
            kept.append(u)
            reached, queue = {one}, [one]
            for y in queue:
                for g in kept:
                    z = r.compose(a, a, a, y, g)
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
    return kept


def idempotents(r, a):
    """The idempotents of End(a) in element order, zero first, by squaring
    every element: the reference list for the idempotent classes."""
    return [p for p in r.hom(a, a).elements() if r.compose(a, a, a, p, p) == p]


def group_is_valid(g):
    """Exhaustive associativity and inverse check of a FinGroup table."""
    n = len(g)
    t = g.table
    if any(t[t[i][j]][k] != t[i][t[j][k]]
           for i in range(n) for j in range(n) for k in range(n)):
        return False
    try:
        for i in range(n):
            g.inv(i)
    except ValueError:
        return False
    return True


def symmetric3():
    """S3 on the permutations of (0, 1, 2); p . q applies q first."""
    return FinGroup.from_mult(itertools.permutations((0, 1, 2)),
                              lambda p, q: tuple(p[q[i]] for i in range(3)))


def is_zero_ringoid(r):
    return all(g.is_trivial() for g in r.homs.values())


def compose_with(f, g):
    """The homomorphism f after g (g applies first), tabulated on elements."""
    if g.target is not f.source:
        raise StructuralError("homomorphisms do not compose")
    object_map = {a: f.object_map[ga] for a, ga in g.object_map.items()}
    return tabulate_hom(
        g.source, f.target, object_map,
        lambda a, b, x: f.apply(g.object_map[a], g.object_map[b],
                                g.apply(a, b, x)))


def hom_is_bijective_everywhere(f):
    """Certify a RingoidHom is bijective on every hom-group (enumerative)."""
    for a in f.source.objects:
        for b in f.source.objects:
            src = f.source.hom(a, b)
            tgt = f.target.hom(f.object_map[a], f.object_map[b])
            seen = set()
            for x in src.elements():
                y = f.apply(a, b, x)
                if y in seen:
                    return False
                seen.add(y)
            if len(seen) != tgt.order():
                return False
    return True


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    """The argparse parser that read the CLI's command line before
    `cli.parse_flags`: the reference for what the flag reader accepts,
    with which values, and which messages it gives."""
    parser = _ReferenceParser(
        prog="ringoids",
        description="Finite ringoids, their additive completions, and the "
                    "decidable shadows of their K-theory.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", required=True, help="RGD input file")
    parser.add_argument("--bound", type=int, default=3,
                        help="length bound L for formal sums (default 3)")
    parser.add_argument("--gl-max", type=int, default=2, dest="gl_max",
                        help="largest GL rank for k1 (default 2)")
    parser.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                        help="candidate ceiling for searches (default 2^20)")
    parser.add_argument("--format", choices=("human", "machine"),
                        default="human")
    return parser


def argparse_outcome(argv):
    """("help", the text printed), ("error", the message) or ("accepted",
    the parsed values as a dict) for argv under `build_parser`."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = build_parser().parse_args(argv)
    except SystemExit:
        return "help", out.getvalue()
    except argparse.ArgumentError as exc:
        return "error", str(exc)
    return "accepted", vars(namespace)
