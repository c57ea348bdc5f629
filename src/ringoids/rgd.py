"""The RGD file format: a line-oriented, UTF-8 description of ringoids,
groupoids, G-sets, and ideals by structure constants.

Grammar ('#' starts a comment, blank lines ignored):

  ringoid NAME
    object ID
    hom A B cyclic d1 d2 ...          # moduli, each >= 1
    compose A B C: gj gi -> c1 ...    # gj in Hom(A,B) (applied first),
                                      # gi in Hom(B,C); image in Hom(A,C);
                                      # omitted pairs are zero
    identity A: c1 ...
    scalar NAME                       # a previously declared ringoid
    action A B: r g -> c1 ...         # scalar generator r on generator g
                                      # of Hom(A,B); 'action A:' means A A;
                                      # needs a scalar line in the section
  ideal NAME of RINGOID
    gen A B: c1 ...
  groupoid NAME
    object ID
    morphism A B ID
    identity A ID                     # optional, inferred if omitted
    compose h g -> k                  # h applied first: k = g . h
    inverse ID ID                     # optional, verified
  gset NAME over GROUPOID             # a one-object groupoid
    point ID
    act X g -> Y

Indices are 0-based.  `parse_rgd` reads this format, with the groupoid,
gset and ideal sections parsed by `rgdsections`, and `rgdprint.print_rgd`
writes its normalized form; parse -> print -> parse is the identity on
that form.
"""

from __future__ import annotations

import re

from .abgroup import FinAbGroup
from .ringoid import FiniteRingoid


class RGDSyntaxError(Exception):
    def __init__(self, line, col, message):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class RGDSemanticError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class RGDDocument:
    """Parsed structures in declaration order."""

    __slots__ = ("ringoids", "groupoids", "gsets", "ideals", "order")

    def __init__(self):
        self.ringoids = {}
        self.groupoids = {}
        self.gsets = {}
        self.ideals = {}   # name -> (ringoid_name, Ideal)
        self.order = []    # (kind, name) in declaration order

    def nth(self, kind, n=0):
        """The n-th section of `kind` ("ringoid", "groupoid", "gset" or
        "ideal") in declaration order, or None when there are fewer."""
        names = [name for k, name in self.order if k == kind]
        return getattr(self, kind + "s")[names[n]] if n < len(names) else None


_TOKEN = re.compile(r"\S+")


def _tokenize(line):
    body = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]


def _int(tok, lineno, col, minimum=None, what="integer"):
    try:
        val = int(tok)
    except ValueError:
        raise RGDSyntaxError(lineno, col, "expected an %s, got %r" % (what, tok))
    if minimum is not None and val < minimum:
        raise RGDSemanticError(lineno, "%s must be >= %d (got %d)" % (what, minimum, val))
    return val


class _RingoidBuilder:
    def __init__(self, name, lineno):
        self.name = name
        self.lineno = lineno
        self.objects = []
        self.homs = {}
        self.compose = {}   # (a,b,c) -> {(i,j): coords}
        self.identities = {}
        self.scalar_name = None
        self.scalar_line = None
        self.action = {}    # (a,b) -> {(r,g): (coords, line)}
        self.action_line = None

    def require_object(self, obj, lineno):
        if obj not in self.objects:
            raise RGDSemanticError(lineno, "unknown object %r in ringoid %r"
                                   % (obj, self.name))

    def hom_group(self, a, b):
        return self.homs.get((a, b), FinAbGroup(()))

    def build(self, documents):
        homs = {}
        for a in self.objects:
            for b in self.objects:
                homs[(a, b)] = self.hom_group(a, b)
        table = {}
        for (a, b, c), entries in self.compose.items():
            hbc, hab, hac = homs[(b, c)], homs[(a, b)], homs[(a, c)]
            rows = [[hac.zero() for _ in range(len(hab.moduli))]
                    for _ in range(len(hbc.moduli))]
            for (i, j), coords in entries.items():
                rows[i][j] = hac.reduce(coords)
            table[(a, b, c)] = tuple(tuple(row) for row in rows)
        identities = dict(self.identities) if self.identities else None
        scalar = None
        action = None
        if self.scalar_name is None and self.action_line is not None:
            raise RGDSemanticError(self.action_line, "action in ringoid %r, which "
                                   "has no scalar line" % (self.name,))
        if self.scalar_name is not None:
            if self.scalar_name == self.name:
                # a commutative ring acting on itself: the scalar is a plain
                # copy of this section without its own scalar structure
                if len(self.objects) != 1:
                    raise RGDSemanticError(self.lineno,
                                           "self-scalar needs a one-object ringoid")
                scalar = FiniteRingoid(self.objects, homs, table,
                                       identities=identities, name=self.name)
            else:
                scalar = documents.ringoids.get(self.scalar_name)
            if scalar is None:
                raise RGDSemanticError(self.lineno, "scalar ring %r is not declared"
                                       % (self.scalar_name,))
            if not scalar.objects:
                raise RGDSemanticError(self.scalar_line, "scalar ring %r has no objects"
                                       % (self.scalar_name,))
            ro = scalar.objects[0]
            rg = scalar.hom(ro, ro)
            action = {}
            for a in self.objects:
                for b in self.objects:
                    hom = homs[(a, b)]
                    rows = [[hom.zero() for _ in range(len(hom.moduli))]
                            for _ in range(len(rg.moduli))]
                    for (r, g), (coords, lineno) in self.action.get((a, b), {}).items():
                        if r >= len(rg.moduli):
                            raise RGDSemanticError(
                                lineno, "scalar generator %d out of range for the "
                                "scalar ring %r" % (r, self.scalar_name))
                        rows[r][g] = hom.reduce(coords)
                    action[(a, b)] = tuple(tuple(row) for row in rows)
        return FiniteRingoid(self.objects, homs, table, identities=identities,
                             scalar=scalar, action=action, name=self.name)


def parse_rgd(text):
    doc = RGDDocument()
    current = None   # ("ringoid", builder) | ("groupoid", builder) | ...
    pending_groupoids = []
    pending_gsets = []
    pending_ideals = []

    def close_section():
        nonlocal current
        if current is None:
            return
        kind, builder = current
        if kind == "ringoid":
            doc.ringoids[builder.name] = builder.build(doc)
            doc.order.append(("ringoid", builder.name))
        elif kind == "groupoid":
            doc.groupoids[builder.name] = builder.build()
            doc.order.append(("groupoid", builder.name))
        elif kind == "gset":
            pending_gsets.append(builder)
            doc.order.append(("gset", builder["name"]))
        elif kind == "ideal":
            pending_ideals.append(builder)
            doc.order.append(("ideal", builder["name"]))
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head, col0 = toks[0]
        if head == "ringoid":
            close_section()
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "ringoid takes exactly one name")
            current = ("ringoid", _RingoidBuilder(toks[1][0], lineno))
            continue
        if head == "groupoid":
            close_section()
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "groupoid takes exactly one name")
            # the groupoid, gset and ideal parsers compile at the first such
            # header, so a ringoid-only document never loads them
            from . import rgdsections
            current = ("groupoid", rgdsections._GroupoidBuilder(toks[1][0], lineno))
            continue
        if head == "gset":
            close_section()
            if len(toks) != 4 or toks[2][0] != "over":
                raise RGDSyntaxError(lineno, col0, "expected: gset NAME over GROUPOID")
            from . import rgdsections
            current = ("gset", {"name": toks[1][0], "over": toks[3][0],
                                "points": [], "acts": [], "line": lineno})
            continue
        if head == "ideal":
            close_section()
            if len(toks) != 4 or toks[2][0] != "of":
                raise RGDSyntaxError(lineno, col0, "expected: ideal NAME of RINGOID")
            from . import rgdsections
            current = ("ideal", {"name": toks[1][0], "of": toks[3][0],
                                 "gens": [], "line": lineno})
            continue
        if current is None:
            raise RGDSyntaxError(lineno, col0, "directive %r outside any section" % head)
        kind, builder = current
        if kind == "ringoid":
            _ringoid_line(builder, head, toks, lineno, col0)
        elif kind == "groupoid":
            rgdsections._groupoid_line(builder, head, toks, lineno, col0)
        elif kind == "gset":
            rgdsections._gset_line(builder, head, toks, lineno, col0)
        elif kind == "ideal":
            rgdsections._ideal_line(builder, head, toks, lineno, col0)
    close_section()

    for section in pending_gsets:
        doc.gsets[section["name"]] = rgdsections._build_gset(section, doc)
    for section in pending_ideals:
        doc.ideals[section["name"]] = (section["of"],
                                       rgdsections._build_ideal(section, doc))
    return doc


def _split_arrow(toks, lineno, col0):
    for k, (tok, _c) in enumerate(toks):
        if tok == "->":
            return toks[:k], toks[k + 1:]
    raise RGDSyntaxError(lineno, col0, "expected '->'")


def _strip_colon(toks, lineno, col0):
    """Split 'head a b ... : tail' allowing the colon to be glued."""
    out = []
    tail_start = None
    for k, (tok, col) in enumerate(toks):
        if tok == ":":
            tail_start = k + 1
            break
        if tok.endswith(":"):
            out.append((tok[:-1], col))
            tail_start = k + 1
            break
        out.append((tok, col))
    if tail_start is None:
        raise RGDSyntaxError(lineno, col0, "expected ':'")
    return out, toks[tail_start:]


def _ringoid_line(b, head, toks, lineno, col0):
    if head == "object":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "object takes exactly one id")
        if toks[1][0] in b.objects:
            raise RGDSemanticError(lineno, "duplicate object %r" % (toks[1][0],))
        b.objects.append(toks[1][0])
        return
    if head == "hom":
        if len(toks) < 4 or toks[3][0] != "cyclic":
            raise RGDSyntaxError(lineno, col0, "expected: hom A B cyclic d1 ...")
        a, bb = toks[1][0], toks[2][0]
        b.require_object(a, lineno)
        b.require_object(bb, lineno)
        moduli = [_int(t, lineno, c, minimum=1, what="modulus") for t, c in toks[4:]]
        b.homs[(a, bb)] = FinAbGroup(moduli)
        return
    if head == "compose":
        heads, tail = _strip_colon(toks, lineno, col0)
        if len(heads) != 4:
            raise RGDSyntaxError(lineno, col0, "expected: compose A B C: gj gi -> ...")
        a, bb, c = heads[1][0], heads[2][0], heads[3][0]
        for o in (a, bb, c):
            b.require_object(o, lineno)
        left, right = _split_arrow(tail, lineno, col0)
        if len(left) != 2:
            raise RGDSyntaxError(lineno, col0, "compose needs two generator indices")
        gj = _int(left[0][0], lineno, left[0][1], minimum=0, what="generator index")
        gi = _int(left[1][0], lineno, left[1][1], minimum=0, what="generator index")
        hab, hbc, hac = b.hom_group(a, bb), b.hom_group(bb, c), b.hom_group(a, c)
        if gj >= len(hab.moduli):
            raise RGDSemanticError(lineno, "generator %d out of range for Hom(%s,%s)"
                                   % (gj, a, bb))
        if gi >= len(hbc.moduli):
            raise RGDSemanticError(lineno, "generator %d out of range for Hom(%s,%s)"
                                   % (gi, bb, c))
        coords = [_int(t, lineno, cc) for t, cc in right]
        if len(coords) != len(hac.moduli):
            raise RGDSemanticError(lineno, "image has %d coordinates, Hom(%s,%s) has %d"
                                   % (len(coords), a, c, len(hac.moduli)))
        b.compose.setdefault((a, bb, c), {})[(gi, gj)] = tuple(coords)
        return
    if head == "identity":
        heads, tail = _strip_colon(toks, lineno, col0)
        if len(heads) != 2:
            raise RGDSyntaxError(lineno, col0, "expected: identity A: c1 ...")
        a = heads[1][0]
        b.require_object(a, lineno)
        hom = b.hom_group(a, a)
        coords = [_int(t, lineno, c) for t, c in tail]
        if len(coords) != len(hom.moduli):
            raise RGDSemanticError(lineno, "identity has %d coordinates, Hom(%s,%s) has %d"
                                   % (len(coords), a, a, len(hom.moduli)))
        b.identities[a] = hom.reduce(coords)
        return
    if head == "scalar":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "scalar takes exactly one name")
        b.scalar_name = toks[1][0]
        b.scalar_line = lineno
        return
    if head == "action":
        heads, tail = _strip_colon(toks, lineno, col0)
        if len(heads) == 2:
            a, bb = heads[1][0], heads[1][0]
        elif len(heads) == 3:
            a, bb = heads[1][0], heads[2][0]
        else:
            raise RGDSyntaxError(lineno, col0, "expected: action A B: r g -> ...")
        b.require_object(a, lineno)
        b.require_object(bb, lineno)
        left, right = _split_arrow(tail, lineno, col0)
        if len(left) != 2:
            raise RGDSyntaxError(lineno, col0, "action needs two indices")
        r = _int(left[0][0], lineno, left[0][1], minimum=0, what="scalar generator index")
        g = _int(left[1][0], lineno, left[1][1], minimum=0, what="generator index")
        hom = b.hom_group(a, bb)
        if g >= len(hom.moduli):
            raise RGDSemanticError(lineno, "generator %d out of range for Hom(%s,%s)"
                                   % (g, a, bb))
        coords = [_int(t, lineno, c) for t, c in right]
        if len(coords) != len(hom.moduli):
            raise RGDSemanticError(lineno, "image has %d coordinates, Hom(%s,%s) has %d"
                                   % (len(coords), a, bb, len(hom.moduli)))
        b.action.setdefault((a, bb), {})[(r, g)] = (tuple(coords), lineno)
        if b.action_line is None:
            b.action_line = lineno
        return
    raise RGDSyntaxError(lineno, col0, "unknown ringoid directive %r" % (head,))
