"""The additive completion of a finite ringoid.

Objects are formal sums (tuples of base objects, the empty tuple is the
zero object), morphisms are matrices of base morphisms, and composition
is matrix multiplication over the base composition.  Matrices are never
materialized globally; hom-sets are enumerated on demand.

Also: certified isomorphism search and the bounded iso-class monoid whose
group completion is the bounded K0.
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
    """Search outcome for a pair whose candidate space exceeds the ceiling.
    Distinct from None (= certified non-isomorphic)."""

    __slots__ = ("pair", "size", "ceiling")

    def __init__(self, pair, size, ceiling):
        self.pair = pair
        self.size = size
        self.ceiling = ceiling

    def __repr__(self):
        return "Undecided(%r, size=%d > ceiling=%d)" % (self.pair, self.size, self.ceiling)


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

    def is_identity(self, f):
        return f.src == f.dst and f == self.identity(f.src)

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

    def find_isomorphism(self, a, b, ceiling=DEFAULT_CEILING):
        """Certified isomorphism a -> b, or None after exhausting Hom(a, b)
        (with sound pruning), or Undecided when the candidate-pair space
        |Hom(a, b)| * |Hom(b, a)| exceeds the ceiling.  Deterministic: the
        returned forward matrix is the lexicographically least invertible
        one, and its inverse is unique."""
        a, b = tuple(a), tuple(b)
        if a == b:
            if self.has_identities:
                e = self.identity(a)
                return IsoWitness(e, e)
        # prune: isomorphic objects have equal hom-set cardinalities
        for c in self.base.objects:
            if self.hom_order((c,), a) != self.hom_order((c,), b):
                return None
            if self.hom_order(a, (c,)) != self.hom_order(b, (c,)):
                return None
        size = self.hom_order(a, b) * self.hom_order(b, a)
        if size > ceiling:
            return Undecided((a, b), size, ceiling)
        for u in self.hom_elements(a, b):
            v = self.inverse(u)
            if v is not None:
                return IsoWitness(u, v)
        return None


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


class IsoClassTable:
    """Classification of all formal sums of length <= bound into certified
    isomorphism classes, with the partial direct-sum table on classes."""

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

    def members(self, cls):
        return [s for s, c in self.class_of.items() if c == cls]

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
    if not view.has_identities:
        raise StructuralError("iso classes need a unital base")
    reps = []
    class_of = {}
    witnesses = {}
    undecided_pairs = []
    for s in enumerate_objsums(view.base.objects, bound):
        assigned = None
        for idx, rep in enumerate(reps):
            res = view.find_isomorphism(s, rep, ceiling=ceiling)
            if isinstance(res, IsoWitness):
                assigned = idx
                witnesses[s] = res
                break
            if isinstance(res, Undecided):
                undecided_pairs.append((s, rep))
        if assigned is None:
            assigned = len(reps)
            reps.append(s)
            witnesses[s] = None
        class_of[s] = assigned
    oplus = {}
    for i, r1 in enumerate(reps):
        for j, r2 in enumerate(reps):
            if len(r1) + len(r2) <= bound:
                oplus[(i, j)] = class_of[r1 + r2]
    return IsoClassTable(bound, reps, class_of, oplus, witnesses, undecided_pairs)
