"""Moduloid constructions: unitization, the scalar ringoid R_M, the
splitting isomorphism for unital moduloids, ideals and quotients, and
tensor products over a commutative base ring."""

from __future__ import annotations

from .abgroup import FinAbGroup, GroupQuotient, tensor_group
from .intlinalg import left_kernel_rows, solve_row_combinations, lattice_contains
from .ringoid import (FiniteRingoid, RingoidHom, StructuralError, direct_sum,
                      ringoid_equal_structure)


def _scalar_data(r):
    if r.scalar is None:
        raise StructuralError("operation needs a moduloid with a scalar ring")
    s = r.scalar
    ro = s.objects[0]
    return s, ro, s.hom(ro, ro)


def scalar_ringoid(objects, scalar, name=None):
    """R_M: the unital moduloid with Hom(a,a) = R and Hom(a,b) = 0."""
    ro = scalar.objects[0]
    rg = scalar.hom(ro, ro)
    objects = tuple(objects)
    trivial = FinAbGroup(())
    homs = {}
    table = {}
    action = {}
    for a in objects:
        for b in objects:
            homs[(a, b)] = rg if a == b else trivial
            if a == b:
                action[(a, b)] = scalar.compose_table[(ro, ro, ro)]
    for a in objects:
        table[(a, a, a)] = scalar.compose_table[(ro, ro, ro)]
    identities = {a: scalar.identity(ro) for a in objects}
    if name is None:
        name = "R_M(%s)" % scalar.name
    return FiniteRingoid(objects, homs, table, identities=identities,
                         scalar=scalar, action=action, name=name)


def unitize(m, name=None):
    """The unitization M+ of a non-unital moduloid: diagonal hom-groups gain
    an R summand and (x+l)(y+u) = xy + l.y + u.x + lu, which is the unique
    bilinear product making 0+1 a two-sided identity."""
    if m.unital:
        raise StructuralError("unitize expects a non-unital moduloid")
    scalar, ro, rg = _scalar_data(m)
    rk = len(rg.moduli)
    objects = m.objects
    homs = {}
    for a in objects:
        for b in objects:
            base = m.hom(a, b)
            homs[(a, b)] = FinAbGroup(base.moduli + rg.moduli) if a == b else base

    def pad(a, b, melem=None, relem=None):
        base = m.hom(a, b)
        out = tuple(melem) if melem is not None else base.zero()
        if a == b:
            out = out + (tuple(relem) if relem is not None else rg.zero())
        return out

    table = {}
    for a in objects:
        for b in objects:
            for c in objects:
                hbc, hab = m.hom(b, c), m.hom(a, b)
                kbc, kab = len(hbc.moduli), len(hab.moduli)
                n_f = kbc + (rk if b == c else 0)
                n_g = kab + (rk if a == b else 0)
                rows = []
                for i in range(n_f):
                    row = []
                    for j in range(n_g):
                        if i < kbc and j < kab:
                            img = m.compose(a, b, c, hbc.basis_element(i),
                                            hab.basis_element(j))
                            row.append(pad(a, c, melem=img))
                        elif i >= kbc and j < kab:
                            # lambda . y lands in Hom(a,b) = Hom(a,c) since b = c
                            img = m.act(a, b, rg.basis_element(i - kbc),
                                        hab.basis_element(j))
                            row.append(pad(a, c, melem=img))
                        elif i < kbc and j >= kab:
                            # u . x lands in Hom(b,c) = Hom(a,c) since a = b
                            img = m.act(b, c, rg.basis_element(j - kab),
                                        hbc.basis_element(i))
                            row.append(pad(a, c, melem=img))
                        else:
                            rr = scalar.compose(ro, ro, ro, rg.basis_element(i - kbc),
                                                rg.basis_element(j - kab))
                            row.append(pad(a, c, relem=rr))
                    rows.append(tuple(row))
                table[(a, b, c)] = tuple(rows)
    identities = {a: pad(a, a, relem=scalar.identity(ro)) for a in objects}
    action = {}
    for a in objects:
        for b in objects:
            hab = m.hom(a, b)
            rows = []
            for i in range(rk):
                rgen = rg.basis_element(i)
                row = [pad(a, b, melem=m.act(a, b, rgen, hab.basis_element(j)))
                       for j in range(len(hab.moduli))]
                if a == b:
                    row += [pad(a, b, relem=scalar.compose(ro, ro, ro, rgen,
                                                           rg.basis_element(j)))
                            for j in range(rk)]
                rows.append(tuple(row))
            action[(a, b)] = tuple(rows)
    if name is None:
        name = "%s+" % m.name
    return FiniteRingoid(objects, homs, table, identities=identities,
                         scalar=scalar, action=action, name=name)


def unitization_projection(m, mplus=None, rm=None):
    """pi: M+ -> R_M, identity on objects, (x + l) -> l."""
    scalar, ro, rg = _scalar_data(m)
    if mplus is None:
        mplus = unitize(m)
    if rm is None:
        rm = scalar_ringoid(m.objects, scalar)
    rk = len(rg.moduli)
    gen_images = {}
    for a in m.objects:
        for b in m.objects:
            hab = m.hom(a, b)
            kab = len(hab.moduli)
            imgs = [rg.zero() if a == b else () for _ in range(kab)]
            if a == b:
                imgs += [rg.basis_element(i) for i in range(rk)]
            gen_images[(a, b)] = tuple(imgs)
    return RingoidHom(mplus, rm, {a: a for a in m.objects}, gen_images, name="pi")


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
    scalar, ro, rg = _scalar_data(m)
    rk = len(rg.moduli)
    rm = scalar_ringoid(m.objects, scalar)
    msum = direct_sum(m, rm, name="%s(+)R_M" % m.name)
    nonunital = FiniteRingoid(m.objects, m.homs, m.compose_table, identities=None,
                              scalar=m.scalar, action=m.action, unital=False,
                              name=m.name)
    mplus = unitize(nonunital)

    def plus_elem(a, b, melem, relem):
        out = tuple(melem)
        if a == b:
            out = out + tuple(relem)
        return out

    alpha_images = {}
    inv_images = {}
    for a in m.objects:
        for b in m.objects:
            hab = m.hom(a, b)
            kab = len(hab.moduli)
            ea = m.identity(a) if a == b else None
            imgs = []
            for j in range(kab):
                imgs.append(plus_elem(a, b, hab.basis_element(j), rg.zero()))
            if a == b:
                for i in range(rk):
                    rgen = rg.basis_element(i)
                    corr = hab.neg(m.act(a, a, rgen, ea))
                    imgs.append(plus_elem(a, a, corr, rgen))
            alpha_images[(a, b)] = tuple(imgs)
            inv = []
            for j in range(kab):
                vec = tuple(hab.basis_element(j))
                inv.append(vec + ((0,) * rk if a == b else ()))
            if a == b:
                for i in range(rk):
                    rgen = rg.basis_element(i)
                    vec = tuple(m.act(a, a, rgen, ea))
                    inv.append(vec + tuple(rgen))
            inv_images[(a, b)] = tuple(inv)
    ident = {a: a for a in m.objects}
    alpha = RingoidHom(msum, mplus, ident, alpha_images, name="alpha")
    alpha_inv = RingoidHom(mplus, msum, ident, inv_images, name="alpha^-1")
    # the obvious quotient M (+) R_M -> R_M
    proj_sum_images = {}
    for a in m.objects:
        for b in m.objects:
            kab = len(m.hom(a, b).moduli)
            imgs = [rg.zero() if a == b else () for _ in range(kab)]
            if a == b:
                imgs += [rg.basis_element(i) for i in range(rk)]
            proj_sum_images[(a, b)] = tuple(imgs)
    projection_sum = RingoidHom(msum, rm, ident, proj_sum_images, name="pi'")
    projection_plus = unitization_projection(nonunital, mplus=mplus, rm=rm)
    return UnitizationSplitting(msum, mplus, rm, alpha, alpha_inv,
                                projection_sum, projection_plus)


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

    def subgroup_rows(self, a, b):
        hom = self.parent.hom(a, b)
        k = len(hom.moduli)
        rows = [[hom.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
        rows += [list(g) for g in self.generators(a, b)]
        return rows

    def contains(self, a, b, elem):
        hom = self.parent.hom(a, b)
        return lattice_contains(self.subgroup_rows(a, b), len(hom.moduli), list(elem))


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
                    hbc = m.hom(b, c)
                    for i in range(len(hbc.moduli)):
                        if hbc.moduli[i] == 1:
                            continue
                        x = hbc.basis_element(i)
                        if not ideal.contains(a, c, m.compose(a, b, c, x, g)):
                            raise IdealError("ideal not absorbing on the left",
                                             witness=(a, b, c, x, g))
                    hca = m.hom(c, a)
                    for i in range(len(hca.moduli)):
                        if hca.moduli[i] == 1:
                            continue
                        x = hca.basis_element(i)
                        if not ideal.contains(c, b, m.compose(c, a, b, g, x)):
                            raise IdealError("ideal not absorbing on the right",
                                             witness=(c, a, b, g, x))
                if m.scalar is not None:
                    _, ro, rg = _scalar_data(m)
                    for i in range(len(rg.moduli)):
                        if rg.moduli[i] == 1:
                            continue
                        r = rg.basis_element(i)
                        if not ideal.contains(a, b, m.act(a, b, r, g)):
                            raise IdealError("ideal not closed under the scalar action",
                                             witness=(a, b, r, g))


def quotient(m, ideal, name=None):
    """(M/J, canonical quotient homomorphism).  Hom-groups are quotients by
    the generated subgroups, normalized by Smith normal form."""
    if ideal.parent is not m:
        raise StructuralError("ideal does not belong to this moduloid")
    validate_ideal(ideal)
    quos = {}
    homs = {}
    for a in m.objects:
        for b in m.objects:
            hom = m.hom(a, b)
            q = GroupQuotient(hom, [list(g) for g in ideal.generators(a, b)])
            quos[(a, b)] = q
            homs[(a, b)] = q.group
    table = {}
    for a in m.objects:
        for b in m.objects:
            for c in m.objects:
                qbc, qab, qac = quos[(b, c)], quos[(a, b)], quos[(a, c)]
                rows = []
                for i in range(len(qbc.group.moduli)):
                    y = qbc.lift(qbc.group.basis_element(i))
                    row = []
                    for j in range(len(qab.group.moduli)):
                        x = qab.lift(qab.group.basis_element(j))
                        row.append(qac.project(m.compose(a, b, c, y, x)))
                    rows.append(tuple(row))
                table[(a, b, c)] = tuple(rows)
    identities = None
    if m.unital:
        identities = {a: quos[(a, a)].project(m.identity(a)) for a in m.objects}
    scalar = m.scalar
    action = None
    if scalar is not None:
        _, ro, rg = _scalar_data(m)
        action = {}
        for a in m.objects:
            for b in m.objects:
                q = quos[(a, b)]
                rows = []
                for i in range(len(rg.moduli)):
                    rgen = rg.basis_element(i)
                    row = [q.project(m.act(a, b, rgen,
                                           q.lift(q.group.basis_element(j))))
                           for j in range(len(q.group.moduli))]
                    rows.append(tuple(row))
                action[(a, b)] = tuple(rows)
    if name is None:
        name = "%s/J" % m.name
    result = FiniteRingoid(m.objects, homs, table, identities=identities,
                           scalar=scalar, action=action, name=name)
    gen_images = {}
    for a in m.objects:
        for b in m.objects:
            hom = m.hom(a, b)
            q = quos[(a, b)]
            gen_images[(a, b)] = tuple(q.project(hom.basis_element(j))
                                       for j in range(len(hom.moduli)))
    qhom = RingoidHom(m, result, {a: a for a in m.objects}, gen_images, name="quot")
    return result, qhom


def ideal_moduloid(ideal, name=None):
    """The ideal as an abstract non-unital moduloid (hom-groups are the
    generated subgroups in Smith normal form), plus the inclusion into the
    parent as a RingoidHom."""
    m = ideal.parent
    validate_ideal(ideal)
    data = {}
    homs = {}
    for a in m.objects:
        for b in m.objects:
            hom = m.hom(a, b)
            k = len(hom.moduli)
            gens = [list(g) for g in ideal.generators(a, b)]
            p = len(gens)
            if p == 0:
                homs[(a, b)] = FinAbGroup(())
                data[(a, b)] = (gens, None)
                continue
            # relation lattice: integer combinations of the generators that
            # vanish in the ambient group
            stacked = gens + [[hom.moduli[i] if j == i else 0 for j in range(k)]
                              for i in range(k)]
            rel = [row[:p] for row in left_kernel_rows(stacked, k)]
            # quotient of Z^p by the relation lattice, via the finite-group
            # machinery over an ambient with per-generator orders
            orders = []
            for g in gens:
                n = 1
                acc = hom.reduce(g)
                while acc != hom.zero():
                    acc = hom.add(acc, hom.reduce(g))
                    n += 1
                orders.append(n)
            ambient = FinAbGroup(orders)
            extra = [r for r in rel if any(r)]
            quo = GroupQuotient(ambient, extra)
            homs[(a, b)] = quo.group
            data[(a, b)] = (gens, quo)

    def embed(a, b, abstract):
        hom = m.hom(a, b)
        gens, quo = data[(a, b)]
        if quo is None:
            return hom.zero()
        return hom.combination(quo.lift(abstract), gens)

    def represent(a, b, elems):
        hom = m.hom(a, b)
        gens, quo = data[(a, b)]
        if quo is None:
            if any(tuple(elem) != hom.zero() for elem in elems):
                raise ArithmeticError("element is not in the ideal")
            return [()] * len(elems)
        k = len(hom.moduli)
        stacked = [list(g) for g in gens] + \
            [[hom.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
        sols = solve_row_combinations(stacked, k, elems)
        if None in sols:
            raise ArithmeticError("element is not in the ideal")
        return [quo.project(sol[:len(gens)]) for sol in sols]

    table = {}
    for a in m.objects:
        for b in m.objects:
            for c in m.objects:
                hbc, hab = homs[(b, c)], homs[(a, b)]
                rows = []
                for i in range(len(hbc.moduli)):
                    y = embed(b, c, hbc.basis_element(i))
                    row = represent(a, c, [
                        m.compose(a, b, c, y, embed(a, b, hab.basis_element(j)))
                        for j in range(len(hab.moduli))])
                    rows.append(tuple(row))
                table[(a, b, c)] = tuple(rows)
    action = None
    scalar = m.scalar
    if scalar is not None:
        _, ro, rg = _scalar_data(m)
        action = {}
        for a in m.objects:
            for b in m.objects:
                hab = homs[(a, b)]
                rows = []
                for i in range(len(rg.moduli)):
                    rgen = rg.basis_element(i)
                    row = represent(a, b, [
                        m.act(a, b, rgen, embed(a, b, hab.basis_element(j)))
                        for j in range(len(hab.moduli))])
                    rows.append(tuple(row))
                action[(a, b)] = tuple(rows)
    if name is None:
        name = "J(%s)" % m.name
    sub = FiniteRingoid(m.objects, homs, table, identities=None, scalar=scalar,
                        action=action, unital=False, name=name)
    gen_images = {}
    for a in m.objects:
        for b in m.objects:
            hab = homs[(a, b)]
            gen_images[(a, b)] = tuple(embed(a, b, hab.basis_element(j))
                                       for j in range(len(hab.moduli)))
    inclusion = RingoidHom(sub, m, {a: a for a in m.objects}, gen_images, name="incl")
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

    table = {}
    for (a, b) in objects:
        for (a2, b2) in objects:
            for (a3, b3) in objects:
                src_key = ((a, b), (a2, b2))
                snd_key = ((a2, b2), (a3, b3))
                tgt_pair = ((a, a3), (b, b3))
                quo_tgt, pure_tgt = pures[tgt_pair]
                h_snd = homs[((a2, b2), (a3, b3))]
                h_fst = homs[((a, b), (a2, b2))]
                A1, B1 = m.hom(a, a2), n.hom(b, b2)
                A2, B2 = m.hom(a2, a3), n.hom(b2, b3)
                tgt_group = quo_tgt.group
                rows = []
                for i in range(len(h_snd.moduli)):
                    terms2 = lift_terms((a2, a3), (b2, b3), h_snd.basis_element(i))
                    row = []
                    for j in range(len(h_fst.moduli)):
                        terms1 = lift_terms((a, a2), (b, b2), h_fst.basis_element(j))
                        coeffs, images = [], []
                        for (i2, j2, c2) in terms2:
                            x2 = A2.basis_element(i2)
                            y2 = B2.basis_element(j2)
                            for (i1, j1, c1) in terms1:
                                xx = m.compose(a, a2, a3, x2, A1.basis_element(i1))
                                yy = n.compose(b, b2, b3, y2, B1.basis_element(j1))
                                coeffs.append(c1 * c2)
                                images.append(pure_tgt(xx, yy))
                        row.append(tgt_group.combination(coeffs, images))
                    rows.append(tuple(row))
                table[((a, b), (a2, b2), (a3, b3))] = tuple(rows)
    identities = None
    if m.unital and n.unital:
        identities = {}
        for (a, b) in objects:
            _, pure = pures[((a, a), (b, b))]
            identities[(a, b)] = pure(m.identity(a), n.identity(b))
    scalar = over
    action = None
    if over is not None:
        action = {}
        for (a, b) in objects:
            for (a2, b2) in objects:
                hom = homs[((a, b), (a2, b2))]
                _, pure = pures[((a, a2), (b, b2))]
                A, B = m.hom(a, a2), n.hom(b, b2)
                rows = []
                for t in range(len(rg.moduli)):
                    r = rg.basis_element(t)
                    row = []
                    for j in range(len(hom.moduli)):
                        terms = lift_terms((a, a2), (b, b2), hom.basis_element(j))
                        row.append(hom.combination(
                            [c1 for (_, _, c1) in terms],
                            [pure(m.act(a, a2, r, A.basis_element(i1)),
                                  B.basis_element(j1)) for (i1, j1, _) in terms]))
                    rows.append(tuple(row))
                action[((a, b), (a2, b2))] = tuple(rows)
    if name is None:
        tag = over.name if over is not None else "Z"
        name = "%s(x)_%s %s" % (m.name, tag, n.name)
    ring = FiniteRingoid(objects, homs, table, identities=identities,
                         scalar=scalar, action=action, name=name)
    return TensorProduct(ring, m, n, over, pures)
