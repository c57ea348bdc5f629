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

    def __init__(self, elements, table, name=None):
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
    def from_mult(cls, elements, op, name=None):
        elements = list(elements)
        idx = {e: i for i, e in enumerate(elements)}
        table = [[idx[op(a, b)] for b in elements] for a in elements]
        return cls(elements, table, name=name)

    @classmethod
    def cyclic(cls, n):
        return cls(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric3(cls):
        perms = list(itertools.permutations((0, 1, 2)))
        compose = lambda p, q: tuple(p[q[i]] for i in range(3))
        return cls.from_mult(perms, compose)


def abelianization(group):
    """G / [G, G] from one pass over the Cayley graph of G.

    Uses only len(group), group.identity and group.mul(i, j).  Generators
    are taken in index order: each element outside the subgroup generated
    so far becomes the next one, and that subgroup is recomputed by BFS
    from the identity.  Each addition at least doubles the subgroup, so
    there are at most log2 |G| generators and fewer than 2 |G| |S|
    products.  The last BFS gives every element x a tree-path vector
    coords(x) in Z^S, and every non-tree edge x -s-> xs the abelianized
    Schreier relator coords(x) + e_s - coords(xs); by Schreier's lemma
    Z^S modulo these relators is G^ab exactly.

    Returns (presentation, coords, generators): coords[i] is the image of
    element i in the presentation (a homomorphism), and generator k has
    coords e_k.
    """
    gens = []
    coords, relators = _cayley_bfs(group, gens)
    for x in range(len(group)):
        if coords[x] is None:
            gens.append(x)
            coords, relators = _cayley_bfs(group, gens)
    return AbPresentation(len(gens), relators), coords, gens


def _cayley_bfs(group, gens):
    """Tree-path coordinates of the subgroup generated by gens (None
    outside it) and its distinct non-zero Schreier relators, in order."""
    k = len(gens)
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    coords = [None] * len(group)
    coords[group.identity] = (0,) * k
    queue = [group.identity]
    relators = {}
    for x in queue:
        cx = coords[x]
        for j, g in enumerate(gens):
            y = group.mul(x, g)
            step = tuple(a + b for a, b in zip(cx, unit[j]))
            if coords[y] is None:
                coords[y] = step
                queue.append(y)
            elif step != coords[y]:
                relators.setdefault(tuple(a - b for a, b in zip(step, coords[y])))
    return coords, list(relators)
