"""Finite abelian groups as products of cyclic groups.

Elements are tuples of reduced residues.  A modulus of 1 contributes a
trivial factor (its coordinate is always 0).  Also provides exact
quotient and tensor constructions with coordinate maps, backed by Smith
normal form.
"""

from __future__ import annotations

import itertools
from math import gcd


class FinAbGroup:
    """Product of cyclic groups Z/d1 x ... x Z/dk, every d_i >= 1."""

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        moduli = tuple(int(d) for d in moduli)
        if any(d < 1 for d in moduli):
            raise ValueError("every modulus must be >= 1")
        self.moduli = moduli

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return "FinAbGroup(%r)" % (list(self.moduli),)

    def __len__(self):
        return len(self.moduli)

    def order(self):
        out = 1
        for d in self.moduli:
            out *= d
        return out

    def is_trivial(self):
        return all(d == 1 for d in self.moduli)

    def zero(self):
        return (0,) * len(self.moduli)

    def reduce(self, vec):
        return tuple(int(x) % d for x, d in zip(vec, self.moduli))

    def contains(self, vec):
        return (len(vec) == len(self.moduli)
                and all(0 <= x < d for x, d in zip(vec, self.moduli)))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    def sub(self, x, y):
        return tuple((a - b) % d for a, b, d in zip(x, y, self.moduli))

    def smul(self, n, x):
        return tuple((n * a) % d for a, d in zip(x, self.moduli))

    def combination(self, coeffs, elems):
        """The reduced sum of c * e over paired integer coefficients and
        integer vectors."""
        acc = [0] * len(self.moduli)
        for c, e in zip(coeffs, elems):
            if c:
                for t, v in enumerate(e):
                    acc[t] += c * v
        return tuple(v % d for v, d in zip(acc, self.moduli))

    def basis_element(self, i):
        return tuple(1 if j == i and self.moduli[i] > 1 else 0
                     for j in range(len(self.moduli)))

    def relation_rows(self):
        """The rows d_i e_i, which generate the kernel of Z^k -> self."""
        k = len(self.moduli)
        return [[d if j == i else 0 for j in range(k)]
                for i, d in enumerate(self.moduli)]

    def elements(self):
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(d) for d in self.moduli))


TRIVIAL_GROUP = FinAbGroup(())


class GroupQuotient:
    """Quotient of a FinAbGroup by the subgroup generated by extra relation
    rows, with exact coordinate maps in both directions.

    The quotient group drops all invariant factors equal to 1, so its
    coordinates are in Smith normal form.
    """

    __slots__ = ("ambient", "group", "_v", "_vinv", "_kept", "_diag")

    def __init__(self, ambient, extra_rows=()):
        from .intlinalg import IntMatrix, smith_normal_form, solve_row_combinations
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
