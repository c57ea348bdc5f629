"""Finite abelian groups as products of cyclic groups.

Elements are tuples of reduced residues.  A modulus of 1 contributes a
trivial factor (its coordinate is always 0).  The quotient and tensor
constructions on these groups live in `moduloids`, their one user, so
that a process that only reads and validates ringoids compiles none of
them.
"""

import itertools


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
