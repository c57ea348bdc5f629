"""The Krull-Schmidt decomposition of the base objects of a unital
ringoid, and the bounded iso-class table that bounded K0 reads.

Hom-sets are finite, so the idempotent completion of the additive
completion R_+ is a Krull-Schmidt category (Atiyah 1956; Krause,
"Krull-Schmidt categories and projective covers", Expo. Math. 2015): every
object is a finite sum of indecomposables with local endomorphism rings,
uniquely up to isomorphism and order.  `Decomposition` splits each base
object once into primitive orthogonal idempotents, checks each split and
classifies the primitives up to equivalence; two formal sums are then
isomorphic exactly when their type vectors (multisets of indecomposable
types) agree, as the checks prove without building one.  A sum's iso class
is thus its type vector, which ignores the order of the terms, so a word
(a sum in any order) is classified as it stands.  The bounded iso-class
table, whose group completion is the bounded K0, maps each type vector of
a sum within the bound to its first multiset of base objects
(`iso_class_table`).

All of it reads the base ringoid alone, never a matrix of the completion,
so this module does not import `additive`: a K0 process compiles no matrix
arithmetic.  The isomorphism that a type vector proves is built on request
by `additive.isomorphism`.  A ringoid keeps its decomposition per ceiling
and its iso-class table per bound and ceiling (`decomposition`,
`iso_class_table`), as it keeps its completion.
"""

import itertools
import math

from .ringoid import (DEFAULT_CEILING, StructuralError, _gens,
                      enumerate_multisets)

# The most letters (base objects, counted over all its multisets) an
# iso-class table may enumerate.  The table keeps a type vector and a
# multiset per class, about 17 bytes per letter when every multiset is a
# class of its own (`k0` of F2 at bound 6000: 1.8e7 letters, 310 MB peak,
# CPython 3.11, x86-64).  This refuses tables of about 1.7 GB and more.
# The largest table of the tests enumerates 4095 letters (disc3 at bound
# 12), of the benchmark 105.
TABLE_LETTER_LIMIT = 10 ** 8


class Undecided(Exception):
    """The record of an answer left open: End(subject) has `size` elements,
    over the ceiling.  Distinct from None (= certified negative).  The
    subject is a base object (`Decomposition`) or a formal sum (`k1.gl`
    raises it).  A K-theory result keeps a tuple of them, () if decided."""

    def __init__(self, subject, size, ceiling):
        self.subject = subject
        self.size = size
        self.ceiling = ceiling

    def __repr__(self):
        return "Undecided(%r, size=%d > ceiling=%d)" % (self.subject, self.size,
                                                         self.ceiling)


class SizeLimitExceeded(MemoryError):
    """A table or an enumeration refused before it is built, because its
    predicted size is over a fixed limit: building it would take gigabytes
    of memory."""


def is_nilpotent(base, a, y):
    """Whether y in End(a) is nilpotent: y^N = 0 for the first N = 2^k, a
    power reached by squaring, with N >= log2 |End(a)|.  A nilpotent's
    index is at most that: the left ideals End(a) y^k shrink strictly, each
    at least by half, until they reach 0."""
    zero = base.zero(a, a)
    depth = base.hom(a, a).order().bit_length()
    power, exponent = y, 1
    while exponent < depth and power != zero:
        power = base.compose(a, a, a, power, power)
        exponent *= 2
    return power == zero


def inverse_by_powers(base, a, u, one, seen=None):
    """The inverse of u in the ring of End(a) with unit `one` that holds
    it (a corner ring one End(a) one): u^(k-1) for the first k with
    u^k = one, or None when a power repeats first, as it does exactly
    when u is not a unit of that finite ring.  It adds the powers met to
    `seen`, a new set unless the caller passes one."""
    previous, power, seen = one, u, set() if seen is None else seen
    while power != one:
        if power in seen:
            return None
        seen.add(power)
        previous, power = power, base.compose(a, a, a, u, power)
    return previous


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
    """Krull-Schmidt decomposition of the base objects of a unital ringoid.

    Each 1_a is split into primitive orthogonal idempotents: e splits into
    f and e - f for the first idempotent f of End(a), in `elements()` order,
    with f != 0, f != e and e f = f = f e.  Each split, of 1_a here and of p
    in `split`, is checked once (`_checked`).  The primitives are classified
    up to equivalence (p ~ q when beta . alpha = p and alpha . beta = q),
    and each type keeps its first primitive as representative.  A formal
    sum's type vector is the sorted tuple of its summands' types.

    Sums s, t of equal type vector are isomorphic without a built witness:
    the transfer pair U = sum beta_y alpha_x: s -> t and
    V = sum beta_x alpha_y: t -> s over paired summands x of s, y of t
    (`additive.isomorphism` builds it) has V U = 1, and U V = 1 alike,
    because
      1. the split check gives e_z e_y = 0 (z != y in one object), sum e = 1;
      2. `_equivalence` checks beta alpha = e, alpha beta = rho, and
         alpha = alpha e, beta = beta rho by construction;
      3. so alpha_z beta_y = alpha_z e_z e_y beta_y is rho if z = y, else 0,
         and V U has blocks sum_x beta_x rho alpha_x = sum_x e_x = 1.

    The image of any idempotent of End(a) is a summand of a, so its type
    vector is a sub-multiset of that of a: the summands of 1_a realize
    every class of idempotents (`relative.idem_classes`), and only the
    splitter lists the idempotents of an End(a).

    The ceiling bounds |End(a)|, whose idempotents are enumerated.  An
    object over it keeps 1_a as its one summand with a type of its own,
    is never compared, and leaves an `Undecided` record in `undecided`, so
    types merge only on certified equivalences.  No comparison could merge
    it anyway: a primitive q ~ 1_a of an object c within the ceiling would
    have a corner ring q End(c) q isomorphic to End(a), larger than End(c)."""

    def __init__(self, base, ceiling):
        if not base.unital:
            raise StructuralError("Krull-Schmidt decomposition needs a unital base")
        self.base = base
        self.ceiling = ceiling
        self.types = []
        self.summands = {}
        self._types = {}
        self._idempotent_lists = {}
        self._splits = {}
        undecided = []
        for a in base.objects:
            one = base.identity(a)
            order = base.hom(a, a).order()
            if order > ceiling:
                undecided.append(Undecided(a, order, ceiling))
                primitives = [one]
            else:
                primitives = self._checked(a, one, self._split(a, one))
            summands = []
            for e in primitives:
                found = self._classify(a, e)
                if found is None:
                    found = Summand(e, len(self.types), e, e)
                    self.types.append((a, e))
                summands.append(found)
            self.summands[a] = self._splits[(a, one)] = tuple(summands)
            self._types[a] = self.key(summands)
            self._splits[(a, base.zero(a, a))] = ()
        self.undecided = tuple(undecided)

    # -- splitting and classification -------------------------------------

    def _idempotents(self, a):
        """The non-zero idempotents of End(a) in `elements()` order, listed
        once for an End(a) within the ceiling; only the splitter reads them."""
        idems = self._idempotent_lists.get(a)
        if idems is None:
            base = self.base
            zero = base.zero(a, a)
            idems = self._idempotent_lists[a] = [
                f for f in base.hom(a, a).elements()
                if f != zero and base.compose(a, a, a, f, f) == f]
        return idems

    def _split(self, a, e):
        """Primitive orthogonal idempotents of End(a) summing to e."""
        base = self.base
        hom = base.hom(a, a)
        if e == hom.zero():
            return []
        for f in self._idempotents(a):
            if (f != e and base.compose(a, a, a, e, f) == f
                    and base.compose(a, a, a, f, e) == f):
                return self._split(a, f) + self._split(a, hom.sub(e, f))
        return [e]

    def _checked(self, a, e, parts):
        """The parts of a split of e in End(a), once checked to be pairwise
        orthogonal idempotents that sum to e; StructuralError otherwise."""
        base = self.base
        hom = base.hom(a, a)
        if (hom.combination([1] * len(parts), parts) != e
                or any(base.compose(a, a, a, f, g) != (f if i == j else hom.zero())
                       for i, f in enumerate(parts) for j, g in enumerate(parts))):
            raise StructuralError("the split of %r in End(%r) into %r is not one "
                                  "into orthogonal idempotents" % (e, a, parts))
        return parts

    def _equivalence(self, a, p, c, q):
        """(alpha, beta) in q Hom(a, c) p x p Hom(c, a) q with
        beta . alpha = p and alpha . beta = q, or None if there is none.

        The primitives p and q have local corner rings pAp and qAq, whose
        non-units are additively closed.  Every beta . alpha is a sum of the
        products beta_i . alpha_j of alpha_j = q g_j p and beta_i = p h_i q
        over the generators g_j of Hom(a, c) and h_i of Hom(c, a), so
        beta . alpha = p needs one of them to be a unit u of pAp, that is,
        not nilpotent.  Then beta = u^-1 beta_i has beta . alpha_j = p, and
        alpha_j . beta is a non-zero idempotent of the local qAq, so it is q."""
        if (a, p) == (c, q):
            return p, p
        base = self.base
        alphas = [base.compose(a, c, c, q, base.compose(a, a, c, g, p))
                  for _, g, _ in _gens(base.hom(a, c))]
        betas = [base.compose(c, a, a, p, base.compose(c, c, a, h, q))
                 for _, h, _ in _gens(base.hom(c, a))]
        for beta_i in betas:
            for alpha in alphas:
                u = base.compose(a, c, a, beta_i, alpha)
                if is_nilpotent(base, a, u):
                    continue
                inv = inverse_by_powers(base, a, u, p)
                if inv is None:
                    raise StructuralError("the corner ring of %r at %r is not "
                                          "local" % (a, p))
                beta = base.compose(c, a, a, inv, beta_i)
                if (base.compose(a, c, a, beta, alpha) != p
                        or base.compose(c, a, c, alpha, beta) != q):
                    raise StructuralError(
                        "the equivalence of %r in End(%r) with %r in End(%r) "
                        "fails its check" % (p, a, q, c))
                return alpha, beta
        return None

    def _classify(self, a, e):
        """The Summand of e for the first type equivalent to it, or None.
        Nothing over the ceiling is compared: neither e when |End(a)| is,
        nor a type whose object is."""
        hom = self.base.hom
        if hom(a, a).order() > self.ceiling:
            return None
        for t, (d, rho) in enumerate(self.types):
            if hom(d, d).order() <= self.ceiling:
                res = self._equivalence(a, e, d, rho)
                if res is not None:
                    return Summand(e, t, *res)
        return None

    def split(self, a, p):
        """The classified summands of im(p) for an idempotent p of End(a),
        from splitting p inside p End(a) p, or Undecided."""
        key = (a, p)
        res = self._splits.get(key)
        if res is None:
            res = self._splits[key] = self._split_classified(a, p)
        return res

    def _split_classified(self, a, p):
        order = self.base.hom(a, a).order()
        if order > self.ceiling:
            return Undecided(a, order, self.ceiling)
        summands = []
        for e in self._checked(a, p, self._split(a, p)):
            found = self._classify(a, e)
            if found is None:
                # impossible by Krull-Schmidt: im(e) is a summand of a
                raise StructuralError("primitive idempotent %r of End(%r) has no "
                                      "indecomposable type" % (e, a))
            summands.append(found)
        return tuple(summands)

    # -- type vectors -----------------------------------------------------

    @staticmethod
    def key(summands):
        """The type vector of a list of summands, as a sorted tuple."""
        return tuple(sorted(x.type for x in summands))

    def type_vector(self, s):
        """The type vector of the sum s, whatever the order of its terms."""
        return tuple(sorted(itertools.chain.from_iterable(
            map(self._types.__getitem__, s))))


def decomposition(r, ceiling=DEFAULT_CEILING):
    """The Krull-Schmidt decomposition of the objects of a validated unital
    ringoid at this ceiling, built on first use and kept in the ringoid."""
    dec = r._decompositions.get(ceiling)
    if dec is None:
        dec = r._decompositions[ceiling] = Decomposition(r, ceiling)
    return dec


def table_letters(n, bound):
    """The total length of the multisets of size <= bound of n objects:
    the sum over k <= bound of k * C(n + k - 1, k), which is
    n * C(n + bound, bound - 1)."""
    return n * math.comb(n + bound, bound - 1) if bound >= 1 else 0


def _three_figures(x):
    exponent = int(math.log10(x))
    return "%.2fe%d" % (x / 10 ** exponent, exponent)


def iso_class_table(r, bound, ceiling=DEFAULT_CEILING):
    """The iso classes of the multisets of size <= bound of the objects of
    a validated ringoid, computed once per ringoid, bound and ceiling:
    {type vector: its first multiset in `enumerate_multisets` order}.  That
    multiset is also the first word of the class in `enumerate_objsums`
    order, since the sorted form of a word has its type vector and comes no
    later.  No isomorphism is built (see `Decomposition`).  Raises
    SizeLimitExceeded, before enumerating, when the multisets would hold
    more than TABLE_LETTER_LIMIT letters in all."""
    if not r.unital:
        raise StructuralError("iso classes need a unital base")
    table = r._iso_tables.get((bound, ceiling))
    if table is not None:
        return table
    letters = table_letters(len(r.objects), bound)
    if letters > TABLE_LETTER_LIMIT:
        raise SizeLimitExceeded(
            "iso-class table at bound %d would hold %s letters, over the "
            "limit of %d" % (bound, _three_figures(letters), TABLE_LETTER_LIMIT))
    dec = decomposition(r, ceiling)
    table = {}
    for s in enumerate_multisets(r.objects, bound):
        table.setdefault(dec.type_vector(s), s)
    r._iso_tables[(bound, ceiling)] = table
    return table
