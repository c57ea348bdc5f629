"""Moduloid constructions: unitization, the scalar ringoid R_M, the
splitting isomorphism for unital moduloids, ideals and quotients, tensor
products over a commutative base ring, and the quotient and tensor groups
of finite abelian groups that these build on."""

from __future__ import annotations

from math import gcd, lcm

from .abgroup import TRIVIAL_GROUP, FinAbGroup
from .constructions import (direct_sum, forget_units, ringoid_equal_structure,
                            tabulate, tabulate_hom)
from .lattice import (IntMatrix, lattice_contains, left_kernel_rows,
                      smith_normal_form, solve_row_combinations)
from .ringoid import StructuralError, _gens


def _scalar_data(r):
    if r.scalar is None:
        raise StructuralError("operation needs a moduloid with a scalar ring")
    s = r.scalar
    ro = s.objects[0]
    return s, ro, s.hom(ro, ro)


def scalar_ringoid(objects, scalar, name=None):
    """R_M: the unital moduloid with Hom(a,a) = R and Hom(a,b) = 0."""
    ro = scalar.objects[0]
    objects = tuple(objects)
    homs = {(a, b): scalar.hom(ro, ro) if a == b else TRIVIAL_GROUP
            for a in objects for b in objects}

    def mul(a, b, c, y, x):
        return scalar.compose(ro, ro, ro, y, x) if a == b == c else homs[(a, c)].zero()

    def act(a, b, r, x):
        return scalar.compose(ro, ro, ro, r, x) if a == b else ()

    if name is None:
        name = "R_M(%s)" % scalar.name
    return tabulate(objects, homs, mul,
                    identities={a: scalar.identity(ro) for a in objects},
                    scalar=scalar, act=act, name=name)


def _r_part(m):
    """(x + l) -> l on M (+) R_M and on M+, whose Hom(a,b) both hold the
    coordinates of M's Hom(a,b) followed, when a = b, by those of R."""
    return lambda a, b, z: z[len(m.hom(a, b).moduli):]


def unitize(m, name=None):
    """The unitization M+ of a non-unital moduloid: diagonal hom-groups gain
    an R summand and (x+l)(y+u) = xy + l.y + u.x + lu, which is the unique
    bilinear product making 0+1 a two-sided identity."""
    if m.unital:
        raise StructuralError("unitize expects a non-unital moduloid")
    scalar, ro, rg = _scalar_data(m)
    objects = m.objects
    homs = {(a, b): FinAbGroup(m.hom(a, b).moduli + rg.moduli) if a == b
            else m.hom(a, b) for a in objects for b in objects}
    r_part = _r_part(m)

    def m_part(a, b, z):
        return z[:len(m.hom(a, b).moduli)]

    def mul(a, b, c, y, x):
        # (y + l)(x + u) = yx + l.x + u.y + lu: l is there when b = c, so
        # l.x lies in Hom(a,b) = Hom(a,c), and u when a = b, so u.y does
        out = m.compose(a, b, c, m_part(b, c, y), m_part(a, b, x))
        if b == c:
            out = m.hom(a, c).add(out, m.act(a, b, r_part(b, c, y), m_part(a, b, x)))
        if a == b:
            out = m.hom(a, c).add(out, m.act(b, c, r_part(a, b, x), m_part(b, c, y)))
        if a == c:
            out += (scalar.compose(ro, ro, ro, r_part(b, c, y), r_part(a, b, x))
                    if a == b else rg.zero())
        return out

    def act(a, b, r, x):
        out = m.act(a, b, r, m_part(a, b, x))
        if a == b:
            out += scalar.compose(ro, ro, ro, r, r_part(a, b, x))
        return out

    if name is None:
        name = "%s+" % m.name
    return tabulate(objects, homs, mul,
                    identities={a: m.hom(a, a).zero() + scalar.identity(ro)
                                for a in objects},
                    scalar=scalar, act=act, name=name)


def unitization_projection(m, mplus=None, rm=None):
    """pi: M+ -> R_M, identity on objects, (x + l) -> l."""
    scalar, _, _ = _scalar_data(m)
    if mplus is None:
        mplus = unitize(m)
    if rm is None:
        rm = scalar_ringoid(m.objects, scalar)
    return tabulate_hom(mplus, rm, {a: a for a in m.objects}, _r_part(m), name="pi")


class UnitizationSplitting:
    """alpha: M (+) R_M -> M+ with a certified inverse, for unital M.

    alpha(x, l) = x - l.e_a + l,  alpha^{-1}(y + u) = (y + u.e_a, u).
    """

    __slots__ = ("msum", "mplus", "rm", "alpha", "alpha_inv", "projection_sum",
                 "projection_plus")

    def __init__(self, msum, mplus, rm, alpha, alpha_inv, projection_sum,
                 projection_plus):
        self.msum = msum
        self.mplus = mplus
        self.rm = rm
        self.alpha = alpha
        self.alpha_inv = alpha_inv
        self.projection_sum = projection_sum
        self.projection_plus = projection_plus


def unitization_splitting(m):
    if not m.unital:
        raise StructuralError("the splitting isomorphism needs a unital moduloid")
    scalar, _, _ = _scalar_data(m)
    rm = scalar_ringoid(m.objects, scalar)
    msum = direct_sum(m, rm, name="%s(+)R_M" % m.name)
    nonunital = forget_units(m)
    mplus = unitize(nonunital)
    r_part = _r_part(m)

    def shift(sign):
        """(x, l) -> (x + sign . l.e_a, l): alpha for sign -1, its inverse
        for sign +1 (both sides share one coordinate layout)."""
        def fn(a, b, z):
            x = z[:len(m.hom(a, b).moduli)]
            if a != b:
                return x
            hom, l = m.hom(a, a), r_part(a, b, z)
            return hom.add(x, hom.smul(sign, m.act(a, a, l, m.identity(a)))) + l
        return fn

    ident = {a: a for a in m.objects}
    alpha = tabulate_hom(msum, mplus, ident, shift(-1), name="alpha")
    alpha_inv = tabulate_hom(mplus, msum, ident, shift(1), name="alpha^-1")
    # the obvious quotient M (+) R_M -> R_M
    projection_sum = tabulate_hom(msum, rm, ident, r_part, name="pi'")
    projection_plus = unitization_projection(nonunital, mplus=mplus, rm=rm)
    return UnitizationSplitting(msum, mplus, rm, alpha, alpha_inv,
                                projection_sum, projection_plus)


# ---------------------------------------------------------------------------
# Quotient and tensor groups, with coordinate maps from a Smith normal form.
# ---------------------------------------------------------------------------

class GroupQuotient:
    """Quotient of a FinAbGroup by the subgroup generated by extra relation
    rows, with exact coordinate maps in both directions.

    The quotient group drops all invariant factors equal to 1, so its
    coordinates are in Smith normal form.
    """

    __slots__ = ("ambient", "group", "_v", "_vinv", "_kept", "_diag")

    def __init__(self, ambient, extra_rows=()):
        self.ambient = ambient
        k = len(ambient.moduli)
        rows = ambient.relation_rows() + [list(r) for r in extra_rows]
        if k == 0:
            self.group = TRIVIAL_GROUP
            self._v = self._vinv = None
            self._kept = ()
            self._diag = ()
            return
        mat = IntMatrix.from_rows(rows)
        _, D, V = smith_normal_form(mat)
        diag = D.diagonal()
        if len(diag) < k or any(d == 0 for d in diag[:k]):
            raise ArithmeticError("quotient of a finite group must be finite")
        self._v = V
        # row i of V^-1 solves c.V = e_i; V is unimodular, so c is unique
        vinv = solve_row_combinations([list(row) for row in V.data], k,
                                      [[int(i == j) for j in range(k)]
                                       for i in range(k)])
        if None in vinv:
            raise ArithmeticError("Smith transform is not unimodular")
        self._vinv = IntMatrix.from_rows(vinv)
        self._kept = tuple(j for j in range(k) if diag[j] != 1)
        self._diag = tuple(diag[j] for j in self._kept)
        self.group = FinAbGroup(self._diag)

    def project(self, vec):
        """Image of an ambient element (or any integer vector) in the quotient."""
        if not self._kept:
            return ()
        v = self._v.data
        k = len(self.ambient.moduli)
        return tuple(
            sum(vec[i] * v[i][j] for i in range(k)) % d
            for j, d in zip(self._kept, self._diag))

    def lift(self, qvec):
        """A set-theoretic section: project(lift(q)) == q."""
        k = len(self.ambient.moduli)
        if k == 0:
            return ()
        w = [0] * k
        for j, x in zip(self._kept, qvec):
            w[j] = x
        vinv = self._vinv.data
        lifted = [sum(w[j] * vinv[j][i] for j in range(k)) for i in range(k)]
        return self.ambient.reduce(lifted)


def tensor_group(a, b, balancing_rows=()):
    """The abelian group (a tensor_Z b) / <balancing rows>, together with
    the bilinear map on elements.

    Coordinates of the ambient tensor group are pairs (i, j) in row-major
    order; the balancing rows are integer vectors over those coordinates.
    Returns (quotient, pure) where pure(x, y) is the class of x tensor y.
    """
    ka, kb = len(a.moduli), len(b.moduli)
    ambient = FinAbGroup([gcd(da, db) if gcd(da, db) else 0
                          for da in a.moduli for db in b.moduli])
    # gcd(d, e) with d, e >= 1 is always >= 1, so the ambient is finite.
    quo = GroupQuotient(ambient, balancing_rows)

    def pure(x, y):
        vec = [x[i] * y[j] for i in range(ka) for j in range(kb)]
        return quo.project(ambient.reduce(vec))

    return quo, pure


# ---------------------------------------------------------------------------
# Ideals and quotients.
# ---------------------------------------------------------------------------

class IdealError(Exception):
    """Ideal axiom violated; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Ideal:
    """A sub-moduloid given by subgroup generators per hom-group, sharing the
    parent's objects."""

    __slots__ = ("parent", "gens")

    def __init__(self, parent, gens):
        self.parent = parent
        self.gens = {key: tuple(tuple(g) for g in gl) for key, gl in gens.items()}
        for (a, b), gl in self.gens.items():
            hom = parent.hom(a, b)
            for g in gl:
                if not hom.contains(g):
                    raise StructuralError("ideal generator out of range at (%r,%r)" % (a, b))

    def generators(self, a, b):
        return self.gens.get((a, b), ())

    def contains(self, a, b, elem):
        hom = self.parent.hom(a, b)
        return lattice_contains(hom.relation_rows()
                                + [list(g) for g in self.generators(a, b)],
                                len(hom.moduli), list(elem))


def improper_ideal(m):
    gens = {}
    for a in m.objects:
        for b in m.objects:
            hom = m.hom(a, b)
            gens[(a, b)] = tuple(hom.basis_element(i) for i in range(len(hom.moduli)))
    return Ideal(m, gens)


def zero_ideal(m):
    return Ideal(m, {})


def validate_ideal(ideal):
    """Raise IdealError (with witness) unless the generators are absorbing
    and closed under the scalar action."""
    m = ideal.parent
    for a in m.objects:
        for b in m.objects:
            for g in ideal.generators(a, b):
                for c in m.objects:
                    for _, x, _ in _gens(m.hom(b, c)):
                        if not ideal.contains(a, c, m.compose(a, b, c, x, g)):
                            raise IdealError("ideal not absorbing on the left",
                                             witness=(a, b, c, x, g))
                    for _, x, _ in _gens(m.hom(c, a)):
                        if not ideal.contains(c, b, m.compose(c, a, b, g, x)):
                            raise IdealError("ideal not absorbing on the right",
                                             witness=(c, a, b, g, x))
                if m.scalar is not None:
                    _, ro, rg = _scalar_data(m)
                    for _, r, _ in _gens(rg):
                        if not ideal.contains(a, b, m.act(a, b, r, g)):
                            raise IdealError("ideal not closed under the scalar action",
                                             witness=(a, b, r, g))


def quotient(m, ideal, name=None):
    """(M/J, canonical quotient homomorphism).  Hom-groups are quotients by
    the generated subgroups, normalized by Smith normal form; composition
    and action are those of M on lifts, projected back."""
    if ideal.parent is not m:
        raise StructuralError("ideal does not belong to this moduloid")
    validate_ideal(ideal)
    quos = {(a, b): GroupQuotient(m.hom(a, b), [list(g) for g in ideal.generators(a, b)])
            for a in m.objects for b in m.objects}

    def mul(a, b, c, y, x):
        return quos[(a, c)].project(
            m.compose(a, b, c, quos[(b, c)].lift(y), quos[(a, b)].lift(x)))

    def act(a, b, r, x):
        return quos[(a, b)].project(m.act(a, b, r, quos[(a, b)].lift(x)))

    identities = None
    if m.unital:
        identities = {a: quos[(a, a)].project(m.identity(a)) for a in m.objects}
    if name is None:
        name = "%s/J" % m.name
    result = tabulate(m.objects, {key: q.group for key, q in quos.items()}, mul,
                      identities=identities, scalar=m.scalar, act=act, name=name)
    qhom = tabulate_hom(m, result, {a: a for a in m.objects},
                        lambda a, b, x: quos[(a, b)].project(x), name="quot")
    return result, qhom


def ideal_moduloid(ideal, name=None):
    """The ideal as an abstract non-unital moduloid (hom-groups are the
    generated subgroups in Smith normal form), plus the inclusion into the
    parent as a RingoidHom.  Composition and action are those of M on
    embedded elements, represented back in the ideal's coordinates."""
    m = ideal.parent
    validate_ideal(ideal)
    data = {}
    homs = {}
    for a in m.objects:
        for b in m.objects:
            hom = m.hom(a, b)
            gens = [list(g) for g in ideal.generators(a, b)]
            if not gens:
                homs[(a, b)] = TRIVIAL_GROUP
                data[(a, b)] = (gens, None)
                continue
            # relation lattice: integer combinations of the generators that
            # vanish in the ambient group
            rel = [row[:len(gens)] for row in
                   left_kernel_rows(gens + hom.relation_rows(), len(hom.moduli))]
            # quotient of Z^p by the relation lattice, via the finite-group
            # machinery over an ambient with per-generator orders
            orders = [lcm(*(d // gcd(d, v) for d, v in zip(hom.moduli, g)))
                      for g in gens]
            quo = GroupQuotient(FinAbGroup(orders), [r for r in rel if any(r)])
            homs[(a, b)] = quo.group
            data[(a, b)] = (gens, quo)

    def embed(a, b, abstract):
        hom = m.hom(a, b)
        gens, quo = data[(a, b)]
        if quo is None:
            return hom.zero()
        return hom.combination(quo.lift(abstract), gens)

    def represent(a, b, elem):
        hom = m.hom(a, b)
        gens, quo = data[(a, b)]
        if quo is None:
            if tuple(elem) != hom.zero():
                raise ArithmeticError("element is not in the ideal")
            return ()
        [sol] = solve_row_combinations(gens + hom.relation_rows(), len(hom.moduli),
                                       [elem])
        if sol is None:
            raise ArithmeticError("element is not in the ideal")
        return quo.project(sol[:len(gens)])

    def mul(a, b, c, y, x):
        return represent(a, c, m.compose(a, b, c, embed(b, c, y), embed(a, b, x)))

    def act(a, b, r, x):
        return represent(a, b, m.act(a, b, r, embed(a, b, x)))

    if name is None:
        name = "J(%s)" % m.name
    sub = tabulate(m.objects, homs, mul, scalar=m.scalar, act=act, name=name)
    inclusion = tabulate_hom(sub, m, {a: a for a in m.objects}, embed, name="incl")
    return sub, inclusion


# ---------------------------------------------------------------------------
# Tensor products.
# ---------------------------------------------------------------------------

class TensorProduct:
    """Tensor product of two moduloids, with the bilinear coordinate maps
    pure(a_pair, b_pair)(x, y) used downstream."""

    __slots__ = ("ringoid", "left", "right", "over", "_pures")

    def __init__(self, ringoid, left, right, over, pures):
        self.ringoid = ringoid
        self.left = left
        self.right = right
        self.over = over
        self._pures = pures

    def pure(self, a_pair, b_pair, x, y):
        """Class of x tensor y in Hom((a,b), (a',b')) for a_pair = (a, a'),
        b_pair = (b, b')."""
        return self._pures[(a_pair, b_pair)][1](x, y)


def tensor(m, n, over=None, name=None):
    """M tensor_R N.  With over=None the tensor is taken over Z (no
    balancing relations); otherwise both factors must carry the same scalar
    ring and hom-groups are (A tensor_Z B) / <(r.x) (x) y - x (x) (r.y)>."""
    if over is not None:
        for part in (m, n):
            if part.scalar is None:
                raise StructuralError("tensor over a ring needs scalar actions on both factors")
        if not (m.scalar is n.scalar or ringoid_equal_structure(m.scalar, n.scalar)):
            raise StructuralError("mismatched scalar rings")
        ro = over.objects[0]
        rg = over.hom(ro, ro)
        if not (over is m.scalar or ringoid_equal_structure(over, m.scalar)):
            raise StructuralError("mismatched scalar rings")
    objects = tuple((a, b) for a in m.objects for b in n.objects)
    pures = {}
    homs = {}
    for (a, b) in objects:
        for (a2, b2) in objects:
            A = m.hom(a, a2)
            B = n.hom(b, b2)
            ka, kb = len(A.moduli), len(B.moduli)
            rows = []
            if over is not None:
                for t in range(len(rg.moduli)):
                    if rg.moduli[t] == 1:
                        continue
                    r = rg.basis_element(t)
                    for i in range(ka):
                        rx = m.act(a, a2, r, A.basis_element(i))
                        for j in range(kb):
                            ry = n.act(b, b2, r, B.basis_element(j))
                            row = [0] * (ka * kb)
                            for k in range(ka):
                                row[k * kb + j] += rx[k]
                            for l in range(kb):
                                row[i * kb + l] -= ry[l]
                            if any(row):
                                rows.append(row)
            quo, pure = tensor_group(A, B, rows)
            pures[((a, a2), (b, b2))] = (quo, pure)
            homs[((a, b), (a2, b2))] = quo.group

    def lift_terms(a_pair, b_pair, elem):
        """Decompose a tensor hom element into integer multiples of pure
        tensors of basis elements."""
        quo, _ = pures[(a_pair, b_pair)]
        B = n.hom(*b_pair)
        kb = len(B.moduli)
        coords = quo.lift(elem)
        out = []
        for pos, cval in enumerate(coords):
            if cval:
                out.append((pos // kb, pos % kb, cval))
        return out

    def mul(p, q, t, y, x):
        (a, b), (a2, b2), (a3, b3) = p, q, t
        A1, B1 = m.hom(a, a2), n.hom(b, b2)
        A2, B2 = m.hom(a2, a3), n.hom(b2, b3)
        pure = pures[((a, a3), (b, b3))][1]
        coeffs, images = [], []
        for (i2, j2, c2) in lift_terms((a2, a3), (b2, b3), y):
            for (i1, j1, c1) in lift_terms((a, a2), (b, b2), x):
                coeffs.append(c1 * c2)
                images.append(pure(
                    m.compose(a, a2, a3, A2.basis_element(i2), A1.basis_element(i1)),
                    n.compose(b, b2, b3, B2.basis_element(j2), B1.basis_element(j1))))
        return homs[(p, t)].combination(coeffs, images)

    def act(p, q, r, x):
        (a, b), (a2, b2) = p, q
        A, B = m.hom(a, a2), n.hom(b, b2)
        pure = pures[((a, a2), (b, b2))][1]
        terms = lift_terms((a, a2), (b, b2), x)
        return homs[(p, q)].combination(
            [c for (_, _, c) in terms],
            [pure(m.act(a, a2, r, A.basis_element(i)), B.basis_element(j))
             for (i, j, _) in terms])

    identities = None
    if m.unital and n.unital:
        identities = {(a, b): pures[((a, a), (b, b))][1](m.identity(a), n.identity(b))
                      for (a, b) in objects}
    if name is None:
        tag = over.name if over is not None else "Z"
        name = "%s(x)_{%s}%s" % (m.name, tag, n.name)
    ring = tabulate(objects, homs, mul, identities=identities, scalar=over,
                    act=act, name=name)
    return TensorProduct(ring, m, n, over, pures)
