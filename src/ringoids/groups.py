"""Finite groups by multiplication table, and the abelianization of any
finite group read off its Cayley graph as a presented abelian group."""

from __future__ import annotations

import itertools

from .intlinalg import AbPresentation


class FinGroup:
    """Finite group: element list plus full multiplication table on indices.

    table[i][j] is the index of elements[i] * elements[j].
    """

    __slots__ = ("elements", "table", "identity", "_index")

    def __init__(self, elements, table):
        self.elements = list(elements)
        self.table = [list(row) for row in table]
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate group elements")
        ident = None
        n = len(self.elements)
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("multiplication table has no identity")
        self.identity = ident

    def __len__(self):
        return len(self.elements)

    def index(self, element):
        return self._index[element]

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        row = self.table[i]
        for j in range(len(self.elements)):
            if row[j] == self.identity and self.table[j][i] == self.identity:
                return j
        raise ValueError("element %r has no inverse" % (self.elements[i],))

    def is_valid(self):
        """Exhaustive associativity and inverse check."""
        n = len(self.elements)
        t = self.table
        for i in range(n):
            for j in range(n):
                tij = t[i][j]
                for k in range(n):
                    if t[tij][k] != t[i][t[j][k]]:
                        return False
        try:
            for i in range(n):
                self.inv(i)
        except ValueError:
            return False
        return True

    @classmethod
    def from_mult(cls, elements, op):
        elements = list(elements)
        idx = {e: i for i, e in enumerate(elements)}
        table = [[idx[op(a, b)] for b in elements] for a in elements]
        return cls(elements, table)

    @classmethod
    def cyclic(cls, n):
        return cls(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric3(cls):
        perms = list(itertools.permutations((0, 1, 2)))
        compose = lambda p, q: tuple(p[q[i]] for i in range(3))
        return cls.from_mult(perms, compose)


def abelianization(group, gens):
    """G / [G, G] from one pass over the Cayley graph of G with respect to
    the given generators (element indices).

    Uses only len(group), group.identity and group.mul(x, g) for g in gens,
    so a group that keeps its Cayley edges (`ktheory.GLGroup`) answers
    every product from them.  The BFS from the identity gives every
    element x a tree-path vector coords(x) in Z^gens, and every non-tree
    edge x -g-> xg the abelianized Schreier relator coords(x) + e_g -
    coords(xg); by Schreier's lemma Z^gens modulo these relators is G^ab
    exactly.  Raises ValueError when the generators do not reach every
    element.

    Returns (presentation, coords): coords[x] is the image of element x in
    the presentation (a homomorphism), and generator k has coords e_k.
    """
    gens = list(gens)
    k = len(gens)
    coords = [None] * len(group)
    coords[group.identity] = (0,) * k
    queue = [group.identity]
    relators = {}
    for x in queue:
        cx = coords[x]
        for j, g in enumerate(gens):
            y = group.mul(x, g)
            step = cx[:j] + (cx[j] + 1,) + cx[j + 1:]
            cy = coords[y]
            if cy is None:
                coords[y] = step
                queue.append(y)
            elif step != cy:
                relators.setdefault(tuple(a - b for a, b in zip(step, cy)))
    if len(queue) != len(group):
        raise ValueError("the generators reach %d of %d elements"
                         % (len(queue), len(group)))
    return AbPresentation(k, list(relators)), coords
