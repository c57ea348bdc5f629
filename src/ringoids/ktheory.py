"""Bounded K-theory invariants.

K0 is the Grothendieck completion of the bounded iso-class monoid of free
formal sums (sums of base objects) in the additive completion, classified
by Krull-Schmidt type vector (`additive.Decomposition`).  The reported
group carries an honest-bound contract: the K0 of free sums is a quotient
of it, since relations between sums beyond the bound are missing.  It is
not the K0 of idempotent classes: over F2 x F2 free sums give Z and
idempotent classes give Z^2 (`relative` computes relative K0 on
idempotent classes).  The induced map on bounded K0 is `k0_induced`.  K1
is reported per rank as GL_n abelianizations, read off the Cayley graph
of GL_n on Bass's generators (`gl`, certified by the Krull-Schmidt order
formula `gl_order`; `groups.abelianization`), with stabilization maps.
"""

from __future__ import annotations

from .additive import DEFAULT_CEILING, MatMorphism, complete, iso_class_table
from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_is_isomorphism, hom_well_defined)
from .ringoid import StructuralError


class CeilingExceeded(Exception):
    """An enumeration was abandoned because its size exceeds the ceiling."""

    def __init__(self, message, size=None, ceiling=None):
        super().__init__(message)
        self.size = size
        self.ceiling = ceiling


# ---------------------------------------------------------------------------
# Absolute bounded K0.
# ---------------------------------------------------------------------------

class KZeroResult:
    """Bounded K0: presentation on the base objects, one relation per
    distinct non-zero difference [s] - [rep] of isomorphic multisets
    within the bound.  A word has the row of its sorted form, so the
    words add no relation."""

    __slots__ = ("bound", "presentation", "gen_labels", "stabilized",
                 "stabilized_since", "undecided", "table", "per_bound")

    def __init__(self, bound, presentation, gen_labels, stabilized,
                 stabilized_since, undecided, table, per_bound):
        self.bound = bound
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.stabilized = stabilized
        self.stabilized_since = stabilized_since
        self.undecided = undecided
        self.table = table
        self.per_bound = per_bound

    def __repr__(self):
        return "KZeroResult(%s at L=%d%s)" % (
            self.presentation, self.bound,
            ", stabilized at L=%d" % self.stabilized_since
            if self.stabilized_since else ", not stabilized")


def k0_bounded(r, bound, ceiling=DEFAULT_CEILING):
    """Bounded K0, read off the iso-class table of the completion of r."""
    if not r.unital:
        raise StructuralError("absolute K0 needs a unital ringoid")
    table = iso_class_table(complete(r), bound, ceiling=ceiling)
    objects = list(r.objects)
    index = {a: i for i, a in enumerate(objects)}
    # each distinct non-zero row once, with the shortest sum length at which
    # it occurs; first-occurrence order keeps k0_induced's failing relation
    shortest = {}
    for s, cls in table.class_of.items():
        row = tuple(exponent_row(index, s, table.reps[cls]))
        if any(row):
            shortest[row] = min(shortest.get(row, len(s)), len(s))
    per_bound = {}
    for l in range(bound + 1):
        rows = [row for row, mlen in shortest.items() if mlen <= l]
        per_bound[l] = AbPresentation(len(objects), rows)
    stabilized = bound >= 1 and per_bound[bound] == per_bound[bound - 1]
    stabilized_since = None
    for l in range(2, bound + 1):
        if all(per_bound[j] == per_bound[l - 1] for j in range(l, bound + 1)):
            stabilized_since = l
            break
    return KZeroResult(bound, per_bound[bound], [str(a) for a in objects],
                       stabilized, stabilized_since, table.undecided, table,
                       per_bound)


class InducedMap:
    """Degree-zero functoriality: the matrix [a] -> [F(a)] on generators,
    checked against both relation lattices."""

    __slots__ = ("source", "target", "matrix", "well_defined", "failing_relation")

    def __init__(self, source, target, matrix, well_defined, failing_relation):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        self.well_defined = well_defined
        self.failing_relation = failing_relation

    def apply(self, vec):
        return apply_rows(vec, self.matrix, len(self.matrix[0]) if self.matrix else 0)

    def is_isomorphism(self):
        return hom_is_isomorphism(self.source.presentation,
                                  self.target.presentation, self.matrix)


def k0_induced(f, source_result, target_result):
    """Induced map on bounded K0 along a ringoid homomorphism.  A relation
    that fails to transport is reported as a bound artifact, not raised."""
    index = {b: j for j, b in enumerate(f.target.objects)}
    matrix = [exponent_row(index, [f.object_map[a]]) for a in f.source.objects]
    ok, bad = hom_well_defined(source_result.presentation,
                               target_result.presentation, matrix)
    return InducedMap(source_result, target_result, matrix, ok, bad)


# ---------------------------------------------------------------------------
# GL and bounded K1.
# ---------------------------------------------------------------------------

class GLGroup:
    """The subgroup of GL(s) generated by the given invertible matrices,
    closed by breadth-first search from the identity under right
    multiplication by the generators.  `elements` are in discovery order,
    `generators` holds the indices of the generators, and edges[x][k] is
    the index of elements[x] . elements[generators[k]]: the Cayley graph
    that `abelianization` walks, so it composes nothing.  Any other
    product is composed and looked up, and one outside the group raises
    StructuralError."""

    __slots__ = ("view", "elements", "generators", "edges", "identity",
                 "_index", "_slot")

    def __init__(self, view, s, generators):
        one = view.identity(tuple(s))
        elements = [one]
        index = {one: 0}
        gens = list(dict.fromkeys(generators))
        steps = [_right_multiplier(view, one, g) for g in gens]
        edges = []
        for x in elements:
            row = []
            for step in steps:
                y = step(x)
                k = index.get(y)
                if k is None:
                    k = index[y] = len(elements)
                    elements.append(y)
                row.append(k)
            edges.append(row)
        self.view = view
        self.elements = elements
        self.edges = edges
        self.identity = 0
        self._index = index
        self.generators = [index[g] for g in gens]
        self._slot = {g: k for k, g in enumerate(self.generators)}

    def __len__(self):
        return len(self.elements)

    def index(self, element):
        return self._index[element]

    def mul(self, i, j):
        k = self._slot.get(j)
        if k is not None:
            return self.edges[i][k]
        w = self.view.compose(self.elements[i], self.elements[j])
        k = self._index.get(w)
        if k is None:
            raise StructuralError("a product of invertibles is not invertible")
        return k


def _right_multiplier(view, one, g):
    """x -> x . g, computed as x + x . (g - 1) from the non-zero entries of
    g - 1: for an elementary or diagonal generator, one column of x
    changes by n base compositions instead of a full matrix product."""
    base = view.base
    s = g.src
    diff = [(k, l, base.hom(s[l], s[k]).sub(gkl, one.entries[k][l]))
            for k, row in enumerate(g.entries) for l, gkl in enumerate(row)
            if gkl != one.entries[k][l]]

    def step(x):
        entries = [list(row) for row in x.entries]
        for k, l, d in diff:
            for r, row in enumerate(entries):
                hom = base.hom(s[l], s[r])
                row[l] = hom.add(row[l], base.compose(s[l], s[k], s[r],
                                                      x.entries[r][k], d))
        return MatMorphism(s, s, entries)

    return step


def gl(view, s, ceiling=DEFAULT_CEILING):
    """GL(s), the group of invertible endomorphisms of a formal sum, as the
    closure of Bass's generators (Bass, "K-theory and stable algebra",
    1964): the elementary matrices e_ij(x) for i != j and x an additive
    generator of Hom(s_j, s_i), and diag(1, ..., u, ..., 1) for every unit
    u of End(s_i), found among the 1x1 matrices.  Every generator is
    certified by `inverse`.  They generate GL(s) over every finite base:
    modulo the radical J = J(End s) their images generate each GL_m(k)
    block, and 1 + J splits as lower unitriangular times diagonal times
    upper unitriangular.  A single object's units are all enumerated, so
    its closure is GL(s) by construction; a longer sum's closure counts as
    GL(s) only when its size equals `gl_order`, and a mismatch raises
    StructuralError.

    Raises CeilingExceeded when |End(s)| exceeds the ceiling, or when the
    Krull-Schmidt decomposition of an object of a longer sum is undecided
    there."""
    s = tuple(s)
    if not view.has_identities:
        raise StructuralError("GL needs a unital base")
    n = view.hom_order(s, s)
    if n > ceiling:
        raise CeilingExceeded("|End| = %d exceeds the ceiling %d" % (n, ceiling),
                              size=n, ceiling=ceiling)
    group = GLGroup(view, s, bass_generators(view, s))
    if len(s) > 1:
        certify_gl_order(view, s, group, ceiling)
    return group


def bass_generators(view, s):
    """The elementary matrices e_ij(x), x an additive generator of
    Hom(s_j, s_i), and the unit diagonals diag(1, ..., u, ..., 1), u != 1,
    each certified invertible by `inverse`."""
    base = view.base
    one = view.identity(s)
    units = {}
    gens = []

    def with_entry(i, j, x):
        entries = [list(row) for row in one.entries]
        entries[i][j] = x
        return MatMorphism(s, s, entries)

    for i, a in enumerate(s):
        if a not in units:
            units[a] = [u.entries[0][0] for u in view.hom_elements((a,), (a,))
                        if view.inverse(u) is not None]
        gens.extend(with_entry(i, i, u) for u in units[a]
                    if u != base.identity(a))
        for j, b in enumerate(s):
            hom = base.hom(b, a)
            if i != j:
                gens.extend(with_entry(i, j, hom.basis_element(k))
                            for k in range(len(hom.moduli)) if hom.moduli[k] > 1)
    for g in gens:
        if view.inverse(g) is None:
            raise StructuralError("the generator %r is not invertible" % (g,))
    return gens


def gl_order(view, s, ceiling=DEFAULT_CEILING):
    """|GL(s)| by the Krull-Schmidt order formula, without enumeration.

    E = End(s) has E / J(E) = prod_t M_(m_t)(k_t), where m_t is the
    multiplicity of type t in the type vector of s and k_t is the residue
    field of the local ring of type t, so |GL(s)| = |J(E)| prod_t
    |GL_(m_t)(k_t)| and |J(E)| = |E| / prod_t |k_t|^(m_t^2).  The local
    ring is read at the first summand e of type t in s: e End(s_i) e is
    isomorphic to rho End(d) rho for the type's representative (d, rho),
    and no larger than End(s).  Its non-units are its nilpotents (the
    radical), and |k_t| = |e End e| / |non-units|.

    Raises CeilingExceeded when an Undecided record of the decomposition
    touches an object of s: its types may then be unmerged."""
    s = tuple(s)
    dec = view.decomposition(ceiling)
    for rec in dec.undecided:
        # the subject is a base object or a pair ((a, p), (c, q))
        if rec.subject in view.base.objects:
            touched = (rec.subject,)
        else:
            (a, _), (c, _) = rec.subject
            touched = (a, c)
        if any(b in s for b in touched):
            raise CeilingExceeded("the decomposition of %r is undecided: %r"
                                  % (s, rec), size=rec.size, ceiling=ceiling)
    first = {}
    mult = {}
    for a in s:
        for x in dec.summands[a]:
            first.setdefault(x.type, (a, x.idem))
            mult[x.type] = mult.get(x.type, 0) + 1
    radical_quotient = 1
    count = 1
    for t, m in mult.items():
        q = _residue_field_order(view.base, *first[t])
        radical_quotient *= q ** (m * m)
        for i in range(m):
            count *= q ** m - q ** i
    radical, rem = divmod(view.hom_order(s, s), radical_quotient)
    if rem:
        raise StructuralError("|End(%r)| is not divisible by the order %d of "
                              "its semisimple quotient" % (s, radical_quotient))
    return radical * count


def _residue_field_order(base, a, e):
    """|L| / |non-units of L| for the local ring L = e End(a) e, whose
    non-units are its nilpotents: y^N = 0 for some N >= log2 |L|, since
    the radical's nilpotency index is at most the length of L."""
    zero = base.zero(a, a)
    ring = set()
    for y in base.hom(a, a).elements():
        ring.add(base.compose(a, a, a, e, base.compose(a, a, a, y, e)))
    depth = len(ring).bit_length()
    nilpotent = 0
    for y in ring:
        power, exponent = y, 1
        while exponent < depth and power != zero:
            power = base.compose(a, a, a, power, power)
            exponent *= 2
        nilpotent += power == zero
    q, rem = divmod(len(ring), nilpotent)
    if rem:
        raise StructuralError("the corner ring of %r at %r is not local" % (a, e))
    return q


def certify_gl_order(view, s, group, ceiling=DEFAULT_CEILING):
    """Raise StructuralError unless the closure has the order of GL(s),
    which for Bass's generators is impossible by theorem."""
    expected = gl_order(view, s, ceiling)
    if len(group) != expected:
        raise StructuralError("the closure of GL(%r) has %d elements, the "
                              "order formula gives %d"
                              % (s, len(group), expected))


class StabilizationStep:
    __slots__ = ("rank", "matrix", "is_isomorphism")

    def __init__(self, rank, matrix, is_isomorphism):
        self.rank = rank
        self.matrix = matrix
        self.is_isomorphism = is_isomorphism


class KOneResult:
    """Per-rank GL abelianizations with stabilization maps; a single group
    would misrepresent the limit (GL_3 over F2 already dips back to 0).
    ranks[n] presents GL_n^ab on the Bass generators of groups[n], read
    off the Cayley edges of its closure; each step's matrix maps them
    into ranks[n + 1]."""

    __slots__ = ("ranks", "groups", "steps", "last_step_iso", "truncated_at")

    def __init__(self, ranks, groups, steps, last_step_iso, truncated_at):
        self.ranks = dict(ranks)
        self.groups = dict(groups)
        self.steps = list(steps)
        self.last_step_iso = last_step_iso
        self.truncated_at = truncated_at

    def __repr__(self):
        inner = ", ".join("GL%d^ab=%s" % (n, self.ranks[n])
                          for n in sorted(self.ranks))
        return "KOneResult(%s)" % inner


def stabilization_embedding(view, s, t):
    """j: GL(s) -> GL(s + t), x -> x (+) 1_t (a block-diagonal matrix
    extending by the identity)."""
    one = view.identity(tuple(t))
    return lambda x: view.block_sum(x, one)


def k1_bounded(r, n_max, ceiling=DEFAULT_CEILING):
    """Abelianizations of GL_n for n <= n_max over a one-object unital base,
    with the induced stabilization maps: the row for generator g of GL_n
    is the coordinate vector of its block-diagonal image in GL_(n+1)."""
    from .groups import abelianization

    if len(r.objects) != 1:
        raise StructuralError("bounded K1 is implemented for one-object bases")
    obj = r.objects[0]
    view = complete(r)
    groups = {}
    ranks = {}
    coords = {}
    truncated_at = None
    for n in range(1, n_max + 1):
        s = (obj,) * n
        try:
            g = gl(view, s, ceiling=ceiling)
        except CeilingExceeded:
            truncated_at = n
            break
        groups[n] = g
        ranks[n], coords[n] = abelianization(g, g.generators)
    steps = []
    for n in sorted(groups):
        if n + 1 not in groups:
            break
        embed = stabilization_embedding(view, (obj,) * n, (obj,))
        gn, gn1 = groups[n], groups[n + 1]
        matrix = [list(coords[n + 1][gn1.index(embed(gn.elements[g]))])
                  for g in gn.generators]
        iso = hom_is_isomorphism(ranks[n], ranks[n + 1], matrix)
        steps.append(StabilizationStep(n, matrix, iso))
    last_step_iso = steps[-1].is_isomorphism if steps else None
    return KOneResult(ranks, groups, steps, last_step_iso, truncated_at)


# ---------------------------------------------------------------------------
# Exterior products.
# ---------------------------------------------------------------------------

class ExteriorProduct:
    """The degree-zero pairing K0(M) x K0(N) -> K0(M (x) N), on generators
    [a].[b] = [a (x) b]; bilinear by construction."""

    __slots__ = ("left", "right", "target", "pair_index", "well_defined",
                 "failing_side")

    def __init__(self, left, right, target, pair_index, well_defined,
                 failing_side):
        self.left = left
        self.right = right
        self.target = target
        self.pair_index = pair_index
        self.well_defined = well_defined
        self.failing_side = failing_side

    def pair(self, u, v):
        n = len(self.target.gen_labels)
        out = [0] * n
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if cj:
                    out[self.pair_index[(i, j)]] += ci * cj
        return out


def exterior_product(left_result, right_result, tensor_prod, target_result):
    """Pairing for a tensor product built by moduloids.tensor, checked for
    well-definedness against all three relation lattices."""
    m = tensor_prod.left
    n = tensor_prod.right
    t = tensor_prod.ringoid
    t_objects = list(t.objects)
    pair_index = {}
    for i, a in enumerate(m.objects):
        for j, b in enumerate(n.objects):
            pair_index[(i, j)] = t_objects.index((a, b))
    n_tgt = len(t_objects)
    sides = []
    vecs = []
    for row in left_result.presentation.relations:
        for j in range(len(n.objects)):
            vec = [0] * n_tgt
            for i, c in enumerate(row):
                if c:
                    vec[pair_index[(i, j)]] += c
            sides.append(("left", row, j))
            vecs.append(vec)
    for row in right_result.presentation.relations:
        for i in range(len(m.objects)):
            vec = [0] * n_tgt
            for j, c in enumerate(row):
                if c:
                    vec[pair_index[(i, j)]] += c
            sides.append(("right", i, row))
            vecs.append(vec)
    failing = [side for side, zero
               in zip(sides, target_result.presentation.kills(vecs)) if not zero]
    return ExteriorProduct(left_result, right_result, target_result,
                           pair_index, not failing,
                           failing[-1] if failing else None)
