"""Finite groups by multiplication table, and the abelianization of a
finite group read off the same breadth-first pass that discovers it from
its identity, as a presented abelian group."""


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


# The bits of one generator's field in a packed coordinate vector.
COORD_BITS = 32


class Coords:
    """Tree-path coordinates, one integer per element with its j-th
    coordinate in bits [j * bits, (j + 1) * bits); coords[x] decodes one."""

    __slots__ = ("packed", "generators", "bits")

    def __init__(self, packed, generators, bits):
        self.packed, self.generators, self.bits = packed, generators, bits

    def __len__(self):
        return len(self.packed)

    def __getitem__(self, x):
        c, bits, mask = self.packed[x], self.bits, (1 << self.bits) - 1
        return tuple(c >> bits * j & mask for j in range(self.generators))

    def __eq__(self, other):
        return list(self) == list(other)


def abelianization(identity, steps, grow=None):
    """Discover a finite group and read off its abelianization, in one
    breadth-first pass.

    The group is what the right-multiplication steps (functions x -> x.g,
    one per generator g, on hashable elements) reach from the identity;
    elements are numbered in discovery order.  The pass gives every
    element x a tree-path vector coords(x) in Z^steps, and every non-tree
    edge x -g-> xg the abelianized Schreier relator coords(x) + e_g -
    coords(xg); by Schreier's lemma Z^steps modulo these relators is G^ab
    exactly (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005).  A vector is one packed integer (`Coords`), and only
    the distinct relators are decoded, in the order first met.

    Each time the generators so far are closed, `grow(index)`, if given,
    returns the step of one more generator, or None to stop.  The elements
    found so far then take its edge, with a new coordinate of 0, and later
    ones every generator's, so each edge is still taken once.

    Returns (elements, index, presentation, coords): index maps an element
    to its number, and coords[x] is the image of element number x in the
    presentation (a homomorphism).  A generator that is neither the
    identity nor an earlier generator has coords e_k.  A coordinate counts
    the edges of a tree path, so it is below the group's order, and the
    pass raises ArithmeticError at 2^(COORD_BITS - 1) elements."""
    from .intlinalg import AbPresentation
    steps, bits = list(steps), COORD_BITS
    elements, index, coords, relators = [identity], {identity: 0}, [0], {}

    def visit(x, js):
        element, cx = elements[x], coords[x]
        for j in js:
            y = steps[j](element)
            cy = cx + (1 << bits * j)
            known = index.get(y)
            if known is None:
                if len(elements) >> bits - 1:
                    raise ArithmeticError("a coordinate may overflow %d bits" % bits)
                index[y] = len(elements)
                elements.append(y)
                coords.append(cy)
            else:
                relators[cy - coords[known]] = None

    x = 0
    while True:
        while x < len(elements):
            visit(x, range(len(steps)))
            x += 1
        step = grow(index) if grow else None
        if step is None:
            break
        steps.append(step)
        for y in range(x):
            visit(y, (len(steps) - 1,))
    # a relator's fields lie in (-2^(bits-1), 2^(bits-1)]: shifted by low,
    # each is a digit of one packed integer
    k, low = len(steps), (1 << bits - 1) - 1
    shift = sum(low << bits * j for j in range(k))
    rows = Coords([d + shift for d in relators if d], k, bits)
    return (elements, index,
            AbPresentation(k, [{j: f - low for j, f in enumerate(r) if f != low}
                               for r in rows]),
            Coords(coords, k, bits))
