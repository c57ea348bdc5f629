"""The additive completion of a finite ringoid.

Objects are formal sums (tuples of base objects, the empty tuple is the
zero object), morphisms are matrices of base morphisms, and composition
is matrix multiplication over the base composition.  Matrices are never
materialized globally; hom-sets are enumerated on demand.  A formal sum is
a biproduct, so End(s) is the ring of |s| x |s| matrices over the
hom-groups (`end_ring`), and a homomorphism of ringoids induces an
additive functor of completions, entry by entry (`map_completion`).

Which sums are isomorphic is read off the Krull-Schmidt decomposition of
the base objects (`krullschmidt`), which needs no matrix.  The isomorphism
it proves between two sums of equal type vector is built here on request
(`isomorphism`), since checking it composes matrices.
"""

from __future__ import annotations

import itertools

from .abgroup import FinAbGroup
from .ringoid import StructuralError


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


class IsoWitness:
    """A certified isomorphism: forward and a verified two-sided inverse."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        self.forward = forward
        self.backward = backward

    def __repr__(self):
        return "IsoWitness(%r -> %r)" % (self.forward.src, self.forward.dst)


class AdditiveView:
    """The completion R_+ of a validated base ringoid (see `complete`)."""

    def __init__(self, base):
        self.base = base

    # -- hom-sets --------------------------------------------------------

    def hom_order(self, src, dst):
        n = 1
        for b in dst:
            for a in src:
                n *= self.base.hom(a, b).order()
        return n

    def zero(self, src, dst):
        return MatMorphism(src, dst,
                           [[self.base.zero(a, b) for a in src] for b in dst])

    def identity(self, s):
        if not self.base.unital:
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
        """Canonical (i_s, i_t, p_s, p_t) for the concatenation s + t: the
        blocks of the identity of s + t."""
        s, t = tuple(s), tuple(t)
        one_s, one_t = self.identity(s).entries, self.identity(t).entries
        s_to_t, t_to_s = self.zero(s, t).entries, self.zero(t, s).entries
        return (MatMorphism(s, s + t, one_s + s_to_t),
                MatMorphism(t, s + t, t_to_s + one_t),
                MatMorphism(s + t, s, [a + b for a, b in zip(one_s, t_to_s)]),
                MatMorphism(s + t, t, [a + b for a, b in zip(s_to_t, one_t)]))

    def block_sum(self, f, g):
        """The block-diagonal matrix f (+) g: f.src + g.src -> f.dst + g.dst,
        with zero off-diagonal blocks."""
        zero = self.base.zero
        top = [list(row) + [zero(b, c) for b in g.src]
               for c, row in zip(f.dst, f.entries)]
        bottom = [[zero(b, c) for b in f.src] + list(row)
                  for c, row in zip(g.dst, g.entries)]
        return MatMorphism(f.src + g.src, f.dst + g.dst, top + bottom)


def complete(base):
    """The additive completion of a validated ringoid, built on first use
    and kept in the ringoid: `complete(r) is complete(r)`."""
    view = base._completion
    if view is None:
        view = base._completion = AdditiveView(base)
    return view


def end_ring(view, s, name=""):
    """End(s) of a formal sum s as a one-object ringoid on the object "*":
    its hom group holds the blocks Hom(s_j, s_i) in `MatMorphism` entry
    order (row-major), its product is `view.compose`, and its identity is
    `view.identity(s)` when the base is unital."""
    from .constructions import tabulate
    blocks = [[view.base.hom(a, b) for a in s] for b in s]
    moduli = tuple(m for row in blocks for hom in row for m in hom.moduli)

    def matrix(x):
        coords = iter(x)
        return MatMorphism(s, s, [[tuple(itertools.islice(coords, len(hom.moduli)))
                                   for hom in row] for row in blocks])

    def flat(f):
        return tuple(v for row in f.entries for entry in row for v in entry)

    identities = {"*": flat(view.identity(s))} if view.base.unital else None
    return tabulate(("*",), {("*", "*"): FinAbGroup(moduli)},
                    lambda a, b, c, y, x: flat(view.compose(matrix(y), matrix(x))),
                    identities=identities, name=name)


class CompletionFunctor:
    """The induced additive functor between completions: entrywise images."""

    __slots__ = ("hom",)

    def __init__(self, hom):
        self.hom = hom

    def apply_object(self, s):
        return tuple(self.hom.apply_object(a) for a in s)

    def apply(self, f):
        hom = self.hom
        entries = [[hom.apply(f.src[j], f.dst[i], f.entries[i][j])
                    for j in range(len(f.src))] for i in range(len(f.dst))]
        return MatMorphism(self.apply_object(f.src), self.apply_object(f.dst), entries)


def map_completion(hom):
    return CompletionFunctor(hom)


def _transfer(dec, s, t):
    """The matrix s -> t carrying the k-th summand of each type in s to
    the k-th summand of that type in t through the type's representative,
    for the decomposition `dec`: entry (j, i) sums beta_y . alpha_x over
    the paired summands x of s[i] and y of t[j]."""
    base = dec.base
    entries = [[base.zero(a, b) for a in s] for b in t]
    queues = {}
    for j, b in enumerate(t):
        for y in dec.summands[b]:
            queues.setdefault(y.type, []).append((j, y))
    for i, a in enumerate(s):
        for x in dec.summands[a]:
            j, y = queues[x.type].pop(0)
            d = dec.types[x.type][0]
            term = base.compose(a, d, t[j], y.beta, x.alpha)
            entries[j][i] = base.hom(a, t[j]).add(entries[j][i], term)
    return MatMorphism(s, t, entries)


def isomorphism(dec, s, t):
    """The isomorphism s -> t between sums of equal type vector in the
    decomposition `dec` (`krullschmidt.Decomposition`): the transfer pair,
    built on request and checked by composition.  StructuralError when
    the type vectors differ."""
    if dec.type_vector(s) != dec.type_vector(t):
        raise StructuralError("%r and %r have unequal type vectors"
                              % (s, t))
    view = complete(dec.base)
    u, v = _transfer(dec, s, t), _transfer(dec, t, s)
    if (view.compose(v, u) != view.identity(s)
            or view.compose(u, v) != view.identity(t)):
        raise StructuralError("the isomorphism %r -> %r built from the "
                              "splittings fails its check" % (s, t))
    return IsoWitness(u, v)
