"""Finite groups by multiplication table, and the abelianization of a
finite group read off the same breadth-first pass that discovers it from
its identity, as a presented abelian group."""

from __future__ import annotations


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

    @classmethod
    def from_mult(cls, elements, op):
        elements = list(elements)
        idx = {e: i for i, e in enumerate(elements)}
        table = [[idx[op(a, b)] for b in elements] for a in elements]
        return cls(elements, table)

    @classmethod
    def cyclic(cls, n):
        return cls(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])


def abelianization(identity, steps):
    """Discover a finite group and read off its abelianization, in one
    breadth-first pass.

    The group is what the right-multiplication steps (functions x -> x.g,
    one per generator g, on hashable elements) reach from the identity;
    elements are numbered in discovery order.  The pass gives every
    element x a tree-path vector coords(x) in Z^steps, and every non-tree
    edge x -g-> xg the abelianized Schreier relator coords(x) + e_g -
    coords(xg); by Schreier's lemma Z^steps modulo these relators is G^ab
    exactly (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005).

    Returns (elements, index, presentation, coords): index maps an element
    to its number, and coords[x] is the image of element number x in the
    presentation (a homomorphism).  A generator that is neither the
    identity nor an earlier generator has coords e_k."""
    from .intlinalg import AbPresentation
    k = len(steps)
    elements = [identity]
    index = {identity: 0}
    coords = [(0,) * k]
    relators = {}
    for x, element in enumerate(elements):
        cx = coords[x]
        for j, step in enumerate(steps):
            y = step(element)
            cy = cx[:j] + (cx[j] + 1,) + cx[j + 1:]
            known = index.get(y)
            if known is None:
                index[y] = len(elements)
                elements.append(y)
                coords.append(cy)
            elif cy != coords[known]:
                relators.setdefault(tuple(a - b for a, b
                                          in zip(cy, coords[known])))
    rows = [{i: x for i, x in enumerate(r) if x} for r in relators]
    return elements, index, AbPresentation(k, rows), coords
