"""Bounded K1: GL of a formal sum in the additive completion, and its
abelianization per rank.

K1 is reported per rank as GL_n abelianizations, read off the one
breadth-first pass that closes GL_n (`gl`: from unit diagonals and
Bass's elementary matrices, each kept only when the pass has not reached
it, certified by the Krull-Schmidt order formula `gl_order` and guarded
by it; `groups.abelianization`), with stabilization maps.  K0 lives in
`ktheory`, which this module does not import, so a K0 process compiles
none of the K1 line and a K1 process none of the K0 line.
"""

from .additive import MatMorphism, complete
from .intlinalg import AbPresentation, hom_is_isomorphism
from .krullschmidt import (SizeLimitExceeded, Undecided, _three_figures,
                           decomposition, inverse_by_powers, is_nilpotent)
from .ringoid import DEFAULT_CEILING, StructuralError, _gens

# The largest GL(s) that `gl` closes for a sum of two objects or more, by
# `gl_order`.  A closure with its Schreier relators takes 0.27-0.30 KB and
# 8-11 us per element (GL3 of Z/4 and F2[C2], 86 016 elements each, the
# largest of the tests; CPython 3.11, x86-64), so this refuses about
# 0.14-0.15 GB and 4-6 s of work.
GL_ORDER_LIMIT = 5 * 10 ** 5


class GLGroup:
    """The subgroup of GL(s) generated by the given invertible matrices,
    closed by breadth-first search from the identity under right
    multiplication by the generators, and its abelianization read off the
    same pass (`groups.abelianization`).  `elements` are in discovery
    order, `generators` holds the indices of the generators, and
    `presentation` presents the abelianization on them, with coords[x] the
    image of element x.  A product is composed and looked up, and one
    outside the group raises StructuralError.

    With `units`, the pass takes its candidates (`_candidates`) one at a
    time, each once the generators before it are closed, and keeps one
    only when it has not reached it, so each kept one at least doubles
    the group and at most log2 of its order are kept.

    The pass runs on entry codes: an element is the flat tuple, row by
    row, of the codes of its entries, and the code of an entry is the
    order in which the pass first met it, so no hom-group is listed.  The
    codes are decoded only by `elements`, `element`, `index` and `mul`."""

    __slots__ = ("view", "generators", "presentation", "coords", "_s",
                 "_found", "_index", "_values", "_codes")

    def __init__(self, view, s, generators, units=False):
        from .groups import abelianization
        self.view = view
        self._s = s = tuple(s)
        self._values, self._codes = [], {}
        one = view.identity(s)
        memos, pending = {}, None
        gens = [] if units else list(dict.fromkeys(generators))

        def grow(index):
            nonlocal pending
            pending = pending or self._candidates(one, generators, index)
            g = next(pending, None)
            if g is not None:
                gens.append(g)
                return self._right_multiplier(one, g, memos)

        self._found, self._index, self.presentation, self.coords = (
            abelianization(self._encode(one),
                           [self._right_multiplier(one, g, memos) for g in gens],
                           grow if units else None))
        self.generators = [self._index[self._encode(g)] for g in gens]

    def __len__(self):
        return len(self._found)

    @property
    def elements(self):
        return [self._decode(x) for x in self._found]

    def element(self, i):
        return self._decode(self._found[i])

    def index(self, element):
        return self._index[self._encode(element)]

    def mul(self, i, j):
        product = self.view.compose(self.element(i), self.element(j))
        k = self._index.get(self._encode(product))
        if k is None:
            raise StructuralError("a product of invertibles is not invertible")
        return k

    def _intern(self, x):
        code = self._codes.get(x)
        if code is None:
            code = self._codes[x] = len(self._values)
            self._values.append(x)
        return code

    def _encode(self, f):
        return tuple(self._intern(x) for row in f.entries for x in row)

    def _decode(self, x):
        s, values, n = self._s, self._values, len(self._s)
        return MatMorphism(s, s, [[values[c] for c in x[r * n:r * n + n]]
                                  for r in range(n)])

    def _candidates(self, one, generators, index):
        """The candidates that `index` does not hold when the pass asks:
        at the first position i of each distinct object a of s, diag_i(u)
        for each unit u of End(a) in element order (`inverse_by_powers`,
        not run on the powers of a non-unit), looked up on codes and built
        only when kept; then `generators`."""
        s, codes, base = self._s, self._codes, self.view.base
        ident, n = self._encode(one), len(s)
        for i, a in enumerate(s):
            if a in s[:i]:
                continue
            p, e = i * (n + 1), one.entries[i][i]
            non_units = set()
            for u in base.hom(a, a).elements():
                if (u in non_units
                        or ident[:p] + (codes.get(u),) + ident[p + 1:] in index):
                    continue
                powers = set()
                if inverse_by_powers(base, a, u, e, powers) is None:
                    non_units |= powers
                else:
                    yield _with_entry(one, i, i, u)
        for g in generators:
            if tuple(codes.get(x) for row in g.entries for x in row) not in index:
                yield g

    def _right_multiplier(self, one, g, memos):
        """x -> x . g on codes: entry (r, l) is x[r][l] . u for the diagonal
        entry u (not 1) of g, plus x[r][k] . d for each non-zero entry
        (k, l, d) of g off it.  A term reads a memo from the codes of the
        entry and of x[r][k] to the new code, filled on a miss by one
        composition, and one addition off the diagonal; the diagonal terms
        come first, and the terms of one kind and entry share one memo."""
        base, s, n = self.view.base, self._s, len(self._s)
        values, intern = self._values, self._intern
        # at most this many codes, each of an entry in a hom-group of s, so
        # a key t * bound + y stands for the pair (t, y)
        bound = sum(base.hom(a, b).order() for a in set(s) for b in set(s))
        terms = []
        for k, row in enumerate(g.entries):
            for l, d in enumerate(row):
                if d == one.entries[k][l]:
                    continue
                for r, c in enumerate(s):
                    def miss(key, a=s[l], b=s[k], c=c, d=d,
                             add=None if k == l else base.hom(s[l], c).add):
                        t, y = divmod(key, bound)
                        product = base.compose(a, b, c, values[y], d)
                        return intern(add(values[t], product) if add else product)

                    terms.append((r * n + l, r * n + k,
                                  memos.setdefault((s[l], s[k], c, d, k == l), {}),
                                  miss))
        terms.sort(key=lambda term: term[0] != term[1])

        def step(x):
            entries = list(x)
            for target, source, memo, miss in terms:
                key = entries[target] * bound + x[source]
                try:
                    entries[target] = memo[key]
                except KeyError:
                    entries[target] = memo[key] = miss(key)
            return tuple(entries)

        return step


def _with_entry(one, i, j, x):
    """The identity `one` with x at entry (i, j)."""
    entries = [list(row) for row in one.entries]
    entries[i][j] = x
    return MatMorphism(one.src, one.dst, entries)


def gl(view, s, ceiling=DEFAULT_CEILING):
    """GL(s), the group of invertible endomorphisms of a formal sum, with
    its abelianization: `GLGroup` with `units` over `bass_generators`.

    Its candidates generate GL(s) over every finite base.  The elementary
    matrices E and the unit diagonals at every position do: modulo the
    radical J of End(s) they generate each GL_m(k) block, and 1 + J splits
    as lower unitriangular times diagonal times upper unitriangular (over
    one object, stable rank 1: GL_n = E_n diag(A*, 1, ..., 1); Bass,
    "K-theory and stable algebra", 1964).  A unit diagonal at a later
    position of the object a is one at its first position times
    diag(u^-1, u), which is in E by Whitehead's lemma.  A single object's
    closure is End(a)* by construction; a longer sum's counts as GL(s)
    only when its size equals `gl_order`, and a mismatch raises
    StructuralError.

    Raises Undecided(s, |End(s)|, ceiling) over the ceiling.  Below it no
    End(s_i) is over it, so every object of s is split.  Raises
    SizeLimitExceeded, before the closure, when `gl_order` of a sum of two
    objects or more is over GL_ORDER_LIMIT."""
    s = tuple(s)
    if not view.base.unital:
        raise StructuralError("GL needs a unital base")
    n = view.hom_order(s, s)
    if n > ceiling:
        raise Undecided(s, n, ceiling)
    order = gl_order(view, s, ceiling) if len(s) > 1 else 0
    if order > GL_ORDER_LIMIT:
        raise SizeLimitExceeded(
            "GL of a sum of %d objects would hold %s elements, over the limit "
            "of %d" % (len(s), _three_figures(order), GL_ORDER_LIMIT))
    group = GLGroup(view, s, bass_generators(view, s), units=True)
    if order:
        certify_gl_order(s, group, order)
    return group


def bass_generators(view, s):
    """The elementary matrices e_ij(x), i != j and x an additive generator
    of Hom(s_j, s_i), each built with its inverse e_ij(-x) and certified
    by composing the two both ways."""
    one, gens = view.identity(s), []
    for i, a in enumerate(s):
        for j, b in enumerate(s):
            hom = view.base.hom(b, a)
            for _, x, _ in (_gens(hom) if i != j else ()):
                g, h = _with_entry(one, i, j, x), _with_entry(one, i, j, hom.neg(x))
                if view.compose(g, h) != one or view.compose(h, g) != one:
                    raise StructuralError("the generator %r is not invertible" % (g,))
                gens.append(g)
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

    Raises a new Undecided with the decomposition's record of an object
    of s over the ceiling, whose 1_a is not split."""
    s = tuple(s)
    dec = decomposition(view.base, ceiling)
    for rec in dec.undecided:
        if rec.subject in s:
            raise Undecided(rec.subject, rec.size, rec.ceiling)
    first = {}
    for a in s:
        for x in dec.summands[a]:
            first.setdefault(x.type, (a, x.idem))
    vector = dec.type_vector(s)
    radical_quotient = 1
    count = 1
    for t, (a, e) in first.items():
        q, m = _residue_field_order(view.base, a, e), vector.count(t)
        radical_quotient *= q ** (m * m)
        for i in range(m):
            count *= q ** m - q ** i
    radical, rem = divmod(view.hom_order(s, s), radical_quotient)
    if rem:
        raise StructuralError("|End(%r)| is not divisible by the order %d of "
                              "its semisimple quotient" % (s, radical_quotient))
    return radical * count


def _residue_field_order(ring, o, e):
    """|L| / |non-units of L| for the local ring L = e End(o) e of a
    ringoid, whose non-units are its nilpotents (`is_nilpotent`)."""
    corner = {ring.compose(o, o, o, e, ring.compose(o, o, o, y, e))
              for y in ring.hom(o, o).elements()}
    nilpotent = sum(is_nilpotent(ring, o, y) for y in corner)
    q, rem = divmod(len(corner), nilpotent)
    if rem:
        raise StructuralError("the corner ring of End(%r) at %r is not local" % (o, e))
    return q


def certify_gl_order(s, group, order):
    """Raise StructuralError unless the closure has `order` elements, the
    order of GL(s) by `gl_order`; for the candidates of `gl` a mismatch is
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
    ranks[n] presents GL_n^ab on the generators that the pass closing
    GL_n keeps (`gl`), read off that pass; each step's matrix maps them
    into ranks[n + 1].  A rank n over the ceiling stops them at
    `truncated_at` = n, and `undecided` holds the record gl raised, or ()."""

    __slots__ = ("ranks", "steps", "last_step_iso", "truncated_at",
                 "undecided")

    def __init__(self, ranks, steps, last_step_iso, truncated_at, undecided):
        self.ranks = dict(ranks)
        self.steps = list(steps)
        self.last_step_iso = last_step_iso
        self.truncated_at = truncated_at
        self.undecided = undecided

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
    if r.unital and view.hom_order((obj,), (obj,)) == 1 and ceiling >= 1:
        # a zero object: every GL_n is trivial and every step is the
        # identity of 0, so no closure is built (a base without identities,
        # or a ceiling of 0, is left to `gl` to refuse)
        steps = [StabilizationStep(n, [], True) for n in range(1, n_max)]
        return KOneResult(dict.fromkeys(range(1, n_max + 1), AbPresentation(0)),
                          steps, True if steps else None, None, ())
    ranks, steps, undecided = {}, [], ()
    truncated_at = prev = None
    for n in range(1, n_max + 1):
        try:
            group = gl(view, (obj,) * n, ceiling=ceiling)
        except Undecided as exc:
            truncated_at, undecided = n, (exc.with_traceback(None),)
            break
        ranks[n] = group.presentation
        if prev is not None:
            embed = stabilization_embedding(view, (obj,) * (n - 1), (obj,))
            matrix = [list(group.coords[group.index(embed(prev.element(g)))])
                      for g in prev.generators]
            iso = hom_is_isomorphism(prev.presentation, group.presentation,
                                     matrix)
            steps.append(StabilizationStep(n - 1, matrix, iso))
        prev = group
    last_step_iso = steps[-1].is_isomorphism if steps else None
    return KOneResult(ranks, steps, last_step_iso, truncated_at, undecided)
