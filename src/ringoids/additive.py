"""The additive completion of a finite ringoid.

Objects are formal sums (tuples of base objects, the empty tuple is the
zero object), morphisms are matrices of base morphisms, and composition
is matrix multiplication over the base composition.  Matrices are never
materialized globally; hom-sets are enumerated on demand.

Hom-sets are finite, so the idempotent completion of R_+ is a
Krull-Schmidt category (Atiyah 1956; Krause, "Krull-Schmidt categories
and projective covers", Expo. Math. 2015): every object is a finite sum of
indecomposables with local endomorphism rings, uniquely up to isomorphism
and order.  `Decomposition` splits each base object once into primitive
orthogonal idempotents and classifies those up to equivalence; two formal
sums are then isomorphic exactly when their type vectors (multisets of
indecomposable types) agree, and the isomorphism is assembled from the
splittings and verified.  The bounded iso-class table, whose group
completion is the bounded K0, buckets sums by type vector.
"""

from __future__ import annotations

import itertools

from .ringoid import StructuralError

DEFAULT_CEILING = 1 << 20


class MatMorphism:
    """Matrix morphism src -> dst; entries[i][j] lies in Hom(src[j], dst[i])."""

    __slots__ = ("src", "dst", "entries")

    def __init__(self, src, dst, entries):
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.entries = tuple(tuple(tuple(e) for e in row) for row in entries)

    def __eq__(self, other):
        return (isinstance(other, MatMorphism) and self.src == other.src
                and self.dst == other.dst and self.entries == other.entries)

    def __hash__(self):
        return hash((self.src, self.dst, self.entries))

    def __repr__(self):
        return "MatMorphism(%r -> %r, %r)" % (self.src, self.dst, self.entries)


class Undecided:
    """Outcome of a search whose size exceeds the ceiling.  Distinct from
    None (= certified negative).  The subject is a base object whose End is
    too large to enumerate, or a pair ((a, p), (c, q)) of idempotents too
    costly to compare (`Decomposition`)."""

    __slots__ = ("subject", "size", "ceiling")

    def __init__(self, subject, size, ceiling):
        self.subject = subject
        self.size = size
        self.ceiling = ceiling

    def __repr__(self):
        return "Undecided(%r, size=%d > ceiling=%d)" % (self.subject, self.size,
                                                         self.ceiling)


class IsoWitness:
    """A certified isomorphism: forward and a verified two-sided inverse."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        self.forward = forward
        self.backward = backward

    def __repr__(self):
        return "IsoWitness(%r -> %r)" % (self.forward.src, self.forward.dst)


class AdditiveView:
    """The completion R_+ of a validated base ringoid."""

    def __init__(self, base):
        self.base = base
        self.has_identities = base.unital
        self._decompositions = {}

    def decomposition(self, ceiling=DEFAULT_CEILING):
        """The Krull-Schmidt decomposition of the base objects at this
        ceiling, computed once per view."""
        dec = self._decompositions.get(ceiling)
        if dec is None:
            dec = self._decompositions[ceiling] = Decomposition(self, ceiling)
        return dec

    # -- hom-sets --------------------------------------------------------

    def hom_order(self, src, dst):
        n = 1
        for b in dst:
            for a in src:
                n *= self.base.hom(a, b).order()
        return n

    def hom_elements(self, src, dst):
        """All matrices src -> dst in lexicographic entry order (row-major,
        each entry in its group's coordinate order)."""
        groups = [[self.base.hom(a, b) for a in src] for b in dst]
        pools = [g.elements() for row in groups for g in row]
        m = len(src)
        for flat in itertools.product(*pools):
            entries = [flat[i * m:(i + 1) * m] for i in range(len(dst))]
            yield MatMorphism(src, dst, entries)

    def zero(self, src, dst):
        return MatMorphism(src, dst,
                           [[self.base.zero(a, b) for a in src] for b in dst])

    def identity(self, s):
        if not self.has_identities:
            raise StructuralError("identity matrices need a unital base")
        return MatMorphism(s, s,
                           [[self.base.identity(a) if i == j else self.base.zero(b, a)
                             for j, b in enumerate(s)] for i, a in enumerate(s)])

    # -- arithmetic -------------------------------------------------------

    def add(self, f, g):
        if f.src != g.src or f.dst != g.dst:
            raise StructuralError("matrix sum shape mismatch")
        base = self.base
        return MatMorphism(f.src, f.dst, [
            [base.hom(f.src[j], f.dst[i]).add(f.entries[i][j], g.entries[i][j])
             for j in range(len(f.src))] for i in range(len(f.dst))])

    def neg(self, f):
        base = self.base
        return MatMorphism(f.src, f.dst, [
            [base.hom(f.src[j], f.dst[i]).neg(f.entries[i][j])
             for j in range(len(f.src))] for i in range(len(f.dst))])

    def compose(self, f, g):
        """f . g for g: a -> b and f: b -> c (matrix product)."""
        if g.dst != f.src:
            raise StructuralError("matrix composition shape mismatch")
        base = self.base
        mid = f.src
        out = []
        for i, c_obj in enumerate(f.dst):
            frow = f.entries[i]
            row = []
            for k, a_obj in enumerate(g.src):
                hom = base.hom(a_obj, c_obj)
                acc = hom.zero()
                for j, b_obj in enumerate(mid):
                    term = base.compose(a_obj, b_obj, c_obj, frow[j], g.entries[j][k])
                    acc = hom.add(acc, term)
                row.append(acc)
            out.append(row)
        return MatMorphism(g.src, f.dst, out)

    # -- biproduct structure ----------------------------------------------

    def biproduct(self, s, t):
        """Canonical (i_s, i_t, p_s, p_t) for the concatenation s + t."""
        st = tuple(s) + tuple(t)
        zero = self.base.zero
        i_s = MatMorphism(s, st, [[self.base.identity(a) if (i < len(s) and i == j)
                                   else zero(s[j], st[i]) for j in range(len(s))]
                                  for i, a in enumerate(st)])
        i_t = MatMorphism(t, st, [[self.base.identity(a) if (i >= len(s) and i - len(s) == j)
                                   else zero(t[j], st[i]) for j in range(len(t))]
                                  for i, a in enumerate(st)])
        p_s = MatMorphism(st, s, [[self.base.identity(a) if (j < len(s) and i == j)
                                   else zero(st[j], s[i]) for j in range(len(st))]
                                  for i, a in enumerate(s)])
        p_t = MatMorphism(st, t, [[self.base.identity(a) if (j >= len(s) and j - len(s) == i)
                                   else zero(st[j], t[i]) for j in range(len(st))]
                                  for i, a in enumerate(t)])
        return i_s, i_t, p_s, p_t

    def block_sum(self, f, g):
        """The block-diagonal matrix f (+) g: f.src + g.src -> f.dst + g.dst,
        with zero off-diagonal blocks."""
        zero = self.base.zero
        top = [list(row) + [zero(b, c) for b in g.src]
               for c, row in zip(f.dst, f.entries)]
        bottom = [[zero(b, c) for b in f.src] + list(row)
                  for c, row in zip(g.dst, g.entries)]
        return MatMorphism(f.src + g.src, f.dst + g.dst, top + bottom)

    # -- isomorphism search -------------------------------------------------

    def left_divide(self, u, w):
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
                for x in self.hom_elements((c,), u.src):
                    img = self.compose(u, x).entries
                    if img in table:
                        return None
                    table[img] = x
            x = table.get(tuple((row[k],) for row in w.entries))
            if x is None:
                return None
            cols.append(x)
        return MatMorphism(w.src, u.src, [[x.entries[i][0] for x in cols]
                                          for i in range(len(u.src))])

    def inverse(self, u):
        """The two-sided inverse of u, or None: the solution v of
        u . v = 1 is certified by v . u = 1."""
        v = self.left_divide(u, self.identity(u.dst))
        if v is None or self.compose(v, u) != self.identity(u.src):
            return None
        return v


def complete(base):
    """The additive completion view of a validated ringoid."""
    return AdditiveView(base)


class CompletionFunctor:
    """The induced additive functor between completions: entrywise images."""

    __slots__ = ("hom", "source_view", "target_view")

    def __init__(self, hom, source_view=None, target_view=None):
        self.hom = hom
        self.source_view = source_view or AdditiveView(hom.source)
        self.target_view = target_view or AdditiveView(hom.target)

    def apply_object(self, s):
        return tuple(self.hom.apply_object(a) for a in s)

    def apply(self, f):
        hom = self.hom
        entries = [[hom.apply(f.src[j], f.dst[i], f.entries[i][j])
                    for j in range(len(f.src))] for i in range(len(f.dst))]
        return MatMorphism(self.apply_object(f.src), self.apply_object(f.dst), entries)


def map_completion(hom, source_view=None, target_view=None):
    return CompletionFunctor(hom, source_view, target_view)


class Summand:
    """A primitive idempotent e of End(a), its type, and an equivalence to
    the type's representative rho in End(d): alpha in rho Hom(a, d) e and
    beta in e Hom(d, a) rho with beta . alpha = e and alpha . beta = rho."""

    __slots__ = ("idem", "type", "alpha", "beta")

    def __init__(self, idem, type_, alpha, beta):
        self.idem = idem
        self.type = type_
        self.alpha = alpha
        self.beta = beta


class Decomposition:
    """Krull-Schmidt decomposition of the base objects of a unital view.

    Each 1_a is split into primitive orthogonal idempotents: e splits into
    f and e - f for the first idempotent f of End(a), in `elements()` order,
    with f != 0, f != e and e f = f = f e.  The primitives are classified up
    to equivalence (p ~ q when beta . alpha = p and alpha . beta = q), and
    each type keeps its first primitive as representative.  A formal sum's
    type vector is the sorted tuple of its summands' types.

    The ceiling bounds |End(a)| for enumerating idempotents and
    |Hom(a, c)| * |Hom(c, a)| for testing two idempotents for equivalence.
    An object over it keeps 1_a as its one summand with a type of its own,
    and a primitive whose comparison is over it is not merged; both leave
    an `Undecided` record in `undecided`, so types merge only on certified
    equivalences."""

    def __init__(self, view, ceiling):
        if not view.has_identities:
            raise StructuralError("Krull-Schmidt decomposition needs a unital base")
        self.view = view
        self.ceiling = ceiling
        self.types = []
        self.summands = {}
        self._idempotents = {}
        self._splits = {}
        base = view.base
        undecided = []
        for a in base.objects:
            one = base.identity(a)
            order = base.hom(a, a).order()
            if order > ceiling:
                undecided.append(Undecided(a, order, ceiling))
                primitives = [one]
            else:
                primitives = self._split(a, one)
            summands = []
            for e in primitives:
                found, pending = self._classify(a, e)
                if found is None:
                    undecided.extend(pending)
                    found = Summand(e, len(self.types), e, e)
                    self.types.append((a, e))
                summands.append(found)
            self.summands[a] = self._splits[(a, one)] = tuple(summands)
            self._splits[(a, base.zero(a, a))] = ()
        self.undecided = tuple(undecided)

    # -- splitting and classification -------------------------------------

    def idempotents(self, a):
        """The idempotents of End(a) in `elements()` order, zero first, or
        [] when |End(a)| exceeds the ceiling (`undecided` then holds the
        record for a)."""
        idems = self._idempotents.get(a)
        if idems is None:
            base = self.view.base
            hom = base.hom(a, a)
            idems = []
            if hom.order() <= self.ceiling:
                idems = [f for f in hom.elements()
                         if base.compose(a, a, a, f, f) == f]
            self._idempotents[a] = idems
        return idems

    def _split(self, a, e):
        """Primitive orthogonal idempotents of End(a) summing to e."""
        base = self.view.base
        hom = base.hom(a, a)
        if e == hom.zero():
            return []
        for f in self.idempotents(a)[1:]:
            if (f != e and base.compose(a, a, a, e, f) == f
                    and base.compose(a, a, a, f, e) == f):
                return self._split(a, f) + self._split(a, hom.sub(e, f))
        return [e]

    def _equivalence(self, a, p, c, q):
        """(alpha, beta) in q Hom(a, c) p x p Hom(c, a) q with
        beta . alpha = p and alpha . beta = q, None if there is none, or
        Undecided when |Hom(a, c)| * |Hom(c, a)| exceeds the ceiling."""
        if (a, p) == (c, q):
            return p, p
        base = self.view.base
        hac, hca = base.hom(a, c), base.hom(c, a)
        size = hac.order() * hca.order()
        if size > self.ceiling:
            return Undecided(((a, p), (c, q)), size, self.ceiling)
        alphas = dict.fromkeys(base.compose(a, c, c, q, base.compose(a, a, c, x, p))
                               for x in hac.elements())
        betas = dict.fromkeys(base.compose(c, a, a, p, base.compose(c, c, a, y, q))
                              for y in hca.elements())
        for alpha in alphas:
            for beta in betas:
                if (base.compose(a, c, a, beta, alpha) == p
                        and base.compose(c, a, c, alpha, beta) == q):
                    return alpha, beta
        return None

    def _classify(self, a, e):
        """The Summand of e for the first type equivalent to it, or None,
        together with the Undecided comparisons met on the way."""
        pending = []
        for t, (d, rho) in enumerate(self.types):
            res = self._equivalence(a, e, d, rho)
            if isinstance(res, Undecided):
                pending.append(res)
            elif res is not None:
                return Summand(e, t, *res), pending
        return None, pending

    def split(self, a, p):
        """The classified summands of im(p) for an idempotent p of End(a),
        from splitting p inside p End(a) p, or Undecided."""
        key = (a, p)
        res = self._splits.get(key)
        if res is None:
            res = self._splits[key] = self._split_classified(a, p)
        return res

    def _split_classified(self, a, p):
        order = self.view.base.hom(a, a).order()
        if order > self.ceiling:
            return Undecided(a, order, self.ceiling)
        summands = []
        for e in self._split(a, p):
            found, pending = self._classify(a, e)
            if found is None:
                if pending:
                    return pending[0]
                # impossible by Krull-Schmidt: im(e) is a summand of a
                raise StructuralError("primitive idempotent %r of End(%r) has no "
                                      "indecomposable type" % (e, a))
            summands.append(found)
        return tuple(summands)

    # -- type vectors and witnesses ---------------------------------------

    @staticmethod
    def key(summands):
        """The type vector of a list of summands, as a sorted tuple."""
        return tuple(sorted(x.type for x in summands))

    def _slots(self, s):
        return [(i, x) for i, a in enumerate(s) for x in self.summands[a]]

    def type_vector(self, s):
        return self.key(x for _, x in self._slots(s))

    def _transfer(self, s, t, s_slots, t_slots):
        """The matrix s -> t carrying the k-th summand of each type in s to
        the k-th summand of that type in t through the type's
        representative: entry (j, i) sums beta_y . alpha_x over the paired
        slots (i, x) of s and (j, y) of t."""
        base = self.view.base
        entries = [[base.zero(a, b) for a in s] for b in t]
        queues = {}
        for j, y in t_slots:
            queues.setdefault(y.type, []).append((j, y))
        for i, x in s_slots:
            j, y = queues[x.type].pop(0)
            d = self.types[x.type][0]
            term = base.compose(s[i], d, t[j], y.beta, x.alpha)
            entries[j][i] = base.hom(s[i], t[j]).add(entries[j][i], term)
        return MatMorphism(s, t, entries)

    def _verified(self, s, t, s_slots, t_slots, s_idem, t_idem):
        """u: s -> t and v: t -> s from the splittings, with v . u = s_idem
        and u . v = t_idem checked by composition."""
        view = self.view
        u = self._transfer(s, t, s_slots, t_slots)
        v = self._transfer(t, s, t_slots, s_slots)
        if view.compose(v, u) != s_idem or view.compose(u, v) != t_idem:
            raise StructuralError("the witness %r -> %r built from the "
                                  "splittings fails verification" % (s, t))
        return u, v

    def isomorphism(self, s, t):
        """Verified isomorphism s -> t between sums of equal type vector."""
        view = self.view
        u, v = self._verified(s, t, self._slots(s), self._slots(t),
                              view.identity(s), view.identity(t))
        return IsoWitness(u, v)

    def splitting(self, t, a, p, summands):
        """Verified splitting of the idempotent p of End(a) through the sum
        t, given the summands of im(p) (same type vector as t): u: t -> (a)
        and v: (a) -> t with v . u = 1_t and u . v = p."""
        return self._verified(t, (a,), self._slots(t), [(0, x) for x in summands],
                              self.view.identity(t),
                              MatMorphism((a,), (a,), [[p]]))


class IsoClassTable:
    """Classification of all formal sums of length <= bound into certified
    isomorphism classes, with the partial direct-sum table on classes.
    `undecided_pairs` holds the `Undecided` records of the decomposition:
    when it is non-empty, classes may be split that are isomorphic."""

    __slots__ = ("bound", "reps", "class_of", "oplus", "witnesses", "undecided_pairs")

    def __init__(self, bound, reps, class_of, oplus, witnesses, undecided_pairs):
        self.bound = bound
        self.reps = tuple(reps)
        self.class_of = dict(class_of)
        self.oplus = dict(oplus)
        self.witnesses = dict(witnesses)
        self.undecided_pairs = tuple(undecided_pairs)

    @property
    def undecided(self):
        return bool(self.undecided_pairs)

    def __repr__(self):
        return "IsoClassTable(bound=%d, %d classes, %d sums)" % (
            self.bound, len(self.reps), len(self.class_of))


def enumerate_objsums(objects, bound):
    """All formal sums of length <= bound, shortest first, lexicographic
    within a length (pinning the deterministic representative choice)."""
    out = []
    for n in range(bound + 1):
        out.extend(itertools.product(objects, repeat=n))
    return out


def iso_class_table(view, bound, ceiling=DEFAULT_CEILING):
    """Bucket the formal sums of length <= bound by type vector.  The
    representative of a class is its first sum in `enumerate_objsums`
    order; every other member carries a verified witness to it."""
    if not view.has_identities:
        raise StructuralError("iso classes need a unital base")
    dec = view.decomposition(ceiling)
    reps = []
    class_of = {}
    witnesses = {}
    first = {}
    for s in enumerate_objsums(view.base.objects, bound):
        key = dec.type_vector(s)
        assigned = first.get(key)
        if assigned is None:
            assigned = first[key] = len(reps)
            reps.append(s)
            witnesses[s] = None
        else:
            witnesses[s] = dec.isomorphism(s, reps[assigned])
        class_of[s] = assigned
    oplus = {}
    for i, r1 in enumerate(reps):
        for j, r2 in enumerate(reps):
            if len(r1) + len(r2) <= bound:
                oplus[(i, j)] = class_of[r1 + r2]
    return IsoClassTable(bound, reps, class_of, oplus, witnesses, dec.undecided)
