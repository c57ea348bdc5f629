"""Bounded K-theory invariants.

K0 is the Grothendieck completion of the bounded iso-class monoid of free
formal sums (sums of base objects) in the additive completion, classified
by Krull-Schmidt type vector (`additive.Decomposition`).  The reported
group carries an honest-bound contract: the K0 of free sums is a quotient
of it, since relations between sums beyond the bound are missing.  It is
not the K0 of idempotent classes: over F2 x F2 free sums give Z and
idempotent classes give Z^2 (`relative` computes relative K0 on
idempotent classes).  The induced map on bounded K0 is `k0_induced`.  K1
is reported per rank as GL_n abelianizations, read off the one
breadth-first pass that closes Bass's generators into GL_n (`gl`,
certified by the Krull-Schmidt order formula `gl_order` and guarded by
it; `groups.abelianization`), with stabilization maps.
"""

from __future__ import annotations

from .additive import (DEFAULT_CEILING, MatMorphism, SizeLimitExceeded,
                       _three_figures, complete, enumerate_multisets,
                       inverse_by_powers, is_nilpotent, iso_class_table)
from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_is_isomorphism, hom_well_defined)
from .ringoid import StructuralError, _gens

# The largest GL(s) that `gl` closes for a sum of two objects or more, by
# `gl_order`.  A closure with its Schreier relators takes 1.3-3.8 KB and
# 110-310 us per element (GL3 of Z/4 and F2[C2], 86 016 elements each, the
# largest of the tests; CPython 3.11, x86-64), so this refuses about
# 0.7-1.9 GB and 1-2.5 minutes of work.
GL_ORDER_LIMIT = 5 * 10 ** 5


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
    within the bound.  A word has the type vector and the row of its
    sorted form, so the words add no relation.  `stabilized_since` is the
    first l >= 2 whose group at l - 1 is the one at the bound, or None."""

    __slots__ = ("bound", "presentation", "gen_labels", "stabilized_since",
                 "undecided")

    def __init__(self, bound, presentation, gen_labels, stabilized_since,
                 undecided):
        self.bound = bound
        self.presentation = presentation
        self.gen_labels = tuple(gen_labels)
        self.stabilized_since = stabilized_since
        self.undecided = undecided

    def __repr__(self):
        return "KZeroResult(%s at L=%d%s)" % (
            self.presentation, self.bound,
            ", stabilized at L=%d" % self.stabilized_since
            if self.stabilized_since else ", not stabilized")


def k0_bounded(r, bound, ceiling=DEFAULT_CEILING):
    """Bounded K0, read off the iso-class table of the completion of r.

    The group is Z^n/A_bound, A_l the lattice of the rows of the multisets
    of length <= l, and `stabilized_since` is the first l >= 2 with
    A_(l-1) = A_bound.  A row enters at its shortest length, so the
    lattices are nested, A_(l-1) <= A_(bound-1) <= A_bound; equal
    invariants make the surjection Z^n/A_(l-1) -> Z^n/A_bound an
    isomorphism, so A_(l-1) = A_bound.  Hence A_1, A_2, ... are built only
    when A_(bound-1) = A_bound, and only up to the first equal one."""
    if not r.unital:
        raise StructuralError("absolute K0 needs a unital ringoid")
    view = complete(r)
    table = iso_class_table(view, bound, ceiling=ceiling)
    dec = view.decomposition(ceiling)
    objects = list(r.objects)
    index = {a: i for i, a in enumerate(objects)}
    # each distinct non-zero row once, with the length of its first multiset,
    # the shortest; first-occurrence order keeps k0_induced's failing relation
    shortest = {}
    for s in enumerate_multisets(objects, bound):
        rep = table[dec.type_vector(s)]
        if s != rep:  # two distinct multisets: the row is not zero
            row = exponent_row(index, s, rep)
            shortest.setdefault(frozenset(row.items()), len(s))

    def lattice(l):
        return AbPresentation(len(objects), [dict(key) for key, mlen
                                             in shortest.items() if mlen <= l])

    presentation = lattice(bound)
    stabilized_since = None
    if bound >= 2 and lattice(bound - 1) == presentation:
        stabilized_since = next((l for l in range(2, bound)
                                 if lattice(l - 1) == presentation), bound)
    return KZeroResult(bound, presentation, [str(a) for a in objects],
                       stabilized_since, bool(dec.undecided))


class InducedMap:
    """Degree-zero functoriality: the matrix [a] -> [F(a)] on generators,
    checked against both relation lattices."""

    __slots__ = ("source", "target", "matrix", "well_defined", "failing_relation")

    def __init__(self, source, target, matrix, well_defined, failing_relation):
        self.source = source
        self.target = target
        self.matrix = tuple(matrix)
        self.well_defined = well_defined
        self.failing_relation = failing_relation

    def apply(self, vec):
        return apply_rows(vec, self.matrix)

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
    multiplication by the generators, and its abelianization read off the
    same pass (`groups.abelianization`).  `elements` are in discovery
    order, `generators` holds the indices of the generators, and
    `presentation` presents the abelianization on them, with coords[x] the
    image of element x.  A product is composed and looked up, and one
    outside the group raises StructuralError."""

    __slots__ = ("view", "elements", "generators", "presentation", "coords",
                 "_index")

    def __init__(self, view, s, generators):
        from .groups import abelianization
        one = view.identity(tuple(s))
        gens = list(dict.fromkeys(generators))
        steps = [_right_multiplier(view, one, g) for g in gens]
        self.elements, self._index, self.presentation, self.coords = (
            abelianization(one, steps))
        self.view = view
        self.generators = [self._index[g] for g in gens]

    def __len__(self):
        return len(self.elements)

    def index(self, element):
        return self._index[element]

    def mul(self, i, j):
        k = self._index.get(self.view.compose(self.elements[i], self.elements[j]))
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
    closure of `bass_generators`, with its abelianization (`GLGroup`).

    They generate GL(s) over every finite base.  The elementary matrices
    E and the unit diagonals at every position do: modulo the radical J
    of End(s) they generate each GL_m(k) block, and 1 + J splits as lower
    unitriangular times diagonal times upper unitriangular (over one
    object, stable rank 1: GL_n = E_n diag(A*, 1, ..., 1); Bass, "K-theory
    and stable algebra", 1964).  A unit diagonal at a later position of
    the object a is one at its first position times diag(u^-1, u), which
    is in E by Whitehead's lemma, and the kept units generate End(a)*.  A
    single object's closure is End(a)* by construction; a longer sum's
    counts as GL(s) only when its size equals `gl_order`, and a mismatch
    raises StructuralError.

    Raises CeilingExceeded when |End(s)| exceeds the ceiling.  Below it no
    End(s_i) is over it, so every object of s is split.  Raises
    SizeLimitExceeded, before the closure, when `gl_order` of a sum of two
    objects or more is over GL_ORDER_LIMIT."""
    s = tuple(s)
    if not view.has_identities:
        raise StructuralError("GL needs a unital base")
    n = view.hom_order(s, s)
    if n > ceiling:
        raise CeilingExceeded("|End| = %d exceeds the ceiling %d" % (n, ceiling),
                              size=n, ceiling=ceiling)
    order = gl_order(view, s, ceiling) if len(s) > 1 else None
    if order is not None and order > GL_ORDER_LIMIT:
        raise SizeLimitExceeded(
            "GL of a sum of %d objects would hold %s elements, over the limit "
            "of %d" % (len(s), _three_figures(order), GL_ORDER_LIMIT))
    group = GLGroup(view, s, bass_generators(view, s))
    if order is not None:
        certify_gl_order(s, group, order)
    return group


def bass_generators(view, s):
    """The elementary matrices e_ij(x), x an additive generator of
    Hom(s_j, s_i), and, at the first position i of each distinct object a
    of s, the unit diagonals diag(1, ..., u, ..., 1) for the units u of
    End(a) that `_unit_generators` keeps.  Each is built with its inverse,
    e_ij(-x) or the diagonal of u^-1, and certified by composing the two
    both ways."""
    base = view.base
    one = view.identity(s)
    pairs = []

    def with_entry(i, j, x):
        entries = [list(row) for row in one.entries]
        entries[i][j] = x
        return MatMorphism(s, s, entries)

    for i, a in enumerate(s):
        if a not in s[:i]:
            pairs.extend((with_entry(i, i, u), with_entry(i, i, v))
                         for u, v in _unit_generators(base, a))
        for j, b in enumerate(s):
            hom = base.hom(b, a)
            if i != j:
                pairs.extend((with_entry(i, j, x), with_entry(i, j, hom.neg(x)))
                             for _, x, _ in _gens(hom))
    for g, h in pairs:
        if view.compose(g, h) != one or view.compose(h, g) != one:
            raise StructuralError("the generator %r is not invertible" % (g,))
    return [g for g, _ in pairs]


def _unit_generators(base, a):
    """Units u of End(a), each with its inverse (`inverse_by_powers`), kept
    in element order when the units kept before do not generate u.  Each
    kept unit at least doubles the group they generate, so at most
    log2 |End(a)*| are kept, and they generate End(a)*."""
    one = base.identity(a)
    kept, reached = [], {one}
    for u in base.hom(a, a).elements():
        v = None if u in reached else inverse_by_powers(base, a, u, one)
        if v is not None:
            kept.append((u, v))
            queue = [one]
            reached = {one}
            for y in queue:
                for g, _ in kept:
                    z = base.compose(a, a, a, y, g)
                    if z not in reached:
                        reached.add(z)
                        queue.append(z)
    return kept


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

    Raises CeilingExceeded when an object of s is over the ceiling (an
    Undecided record of the decomposition): its 1_a is then not split."""
    s = tuple(s)
    dec = view.decomposition(ceiling)
    for rec in dec.undecided:
        if rec.subject in s:
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
    non-units are its nilpotents (`is_nilpotent`)."""
    ring = {base.compose(a, a, a, e, base.compose(a, a, a, y, e))
            for y in base.hom(a, a).elements()}
    nilpotent = sum(is_nilpotent(base, a, y) for y in ring)
    q, rem = divmod(len(ring), nilpotent)
    if rem:
        raise StructuralError("the corner ring of %r at %r is not local" % (a, e))
    return q


def certify_gl_order(s, group, order):
    """Raise StructuralError unless the closure has `order` elements, the
    order of GL(s) by `gl_order`; for Bass's generators a mismatch is
    impossible by theorem."""
    if len(group) != order:
        raise StructuralError("the closure of GL(%r) has %d elements, the "
                              "order formula gives %d" % (s, len(group), order))


class StabilizationStep:
    __slots__ = ("rank", "matrix", "is_isomorphism")

    def __init__(self, rank, matrix, is_isomorphism):
        self.rank = rank
        self.matrix = matrix
        self.is_isomorphism = is_isomorphism


class KOneResult:
    """Per-rank GL abelianizations with stabilization maps; a single group
    would misrepresent the limit (GL_3 over F2 already dips back to 0).
    ranks[n] presents GL_n^ab on the Bass generators of GL_n, read off
    the same pass that closes it; each step's matrix maps them into
    ranks[n + 1]."""

    __slots__ = ("ranks", "steps", "last_step_iso", "truncated_at")

    def __init__(self, ranks, steps, last_step_iso, truncated_at):
        self.ranks = dict(ranks)
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
    is the coordinate vector of its block-diagonal image in GL_(n+1).
    Each GL_n is dropped once that step is read."""
    if len(r.objects) != 1:
        raise StructuralError("bounded K1 is implemented for one-object bases")
    obj = r.objects[0]
    view = complete(r)
    if view.has_identities and view.hom_order((obj,), (obj,)) == 1 and ceiling >= 1:
        # a zero object: every GL_n is trivial and every step is the
        # identity of 0, so no closure is built (a base without identities,
        # or a ceiling of 0, is left to `gl` to refuse)
        steps = [StabilizationStep(n, [], True) for n in range(1, n_max)]
        return KOneResult(dict.fromkeys(range(1, n_max + 1), AbPresentation(0)),
                          steps, True if steps else None, None)
    ranks, steps = {}, []
    truncated_at = prev = None
    for n in range(1, n_max + 1):
        try:
            group = gl(view, (obj,) * n, ceiling=ceiling)
        except CeilingExceeded:
            truncated_at = n
            break
        ranks[n] = group.presentation
        if prev is not None:
            embed = stabilization_embedding(view, (obj,) * (n - 1), (obj,))
            matrix = [list(group.coords[group.index(embed(prev.elements[g]))])
                      for g in prev.generators]
            iso = hom_is_isomorphism(prev.presentation, group.presentation,
                                     matrix)
            steps.append(StabilizationStep(n - 1, matrix, iso))
        prev = group
    last_step_iso = steps[-1].is_isomorphism if steps else None
    return KOneResult(ranks, steps, last_step_iso, truncated_at)


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
    sides = []
    vecs = []
    for row in left_result.presentation.relations:
        for j in range(len(n.objects)):
            sides.append(("left", row, j))
            vecs.append({pair_index[(i, j)]: c for i, c in row.items()})
    for row in right_result.presentation.relations:
        for i in range(len(m.objects)):
            sides.append(("right", i, row))
            vecs.append({pair_index[(i, j)]: c for j, c in row.items()})
    failing = [side for side, zero
               in zip(sides, target_result.presentation.kills(vecs)) if not zero]
    return ExteriorProduct(left_result, right_result, target_result,
                           pair_index, not failing,
                           failing[-1] if failing else None)
