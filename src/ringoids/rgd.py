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
                                      # of Hom(A,B); 'action A:' means A A
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

Indices are 0-based.  parse -> print -> parse is the identity on the
normalized form.
"""

from __future__ import annotations

import re

from .abgroup import FinAbGroup
from .groupoids import FinGroupoid, GSet
from .groups import FinGroup
from .moduloids import Ideal
from .ringoid import FiniteRingoid, StructuralError


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

    def first_ringoid(self):
        for kind, name in self.order:
            if kind == "ringoid":
                return self.ringoids[name]
        return None

    def nth_ringoid(self, n):
        seen = 0
        for kind, name in self.order:
            if kind == "ringoid":
                if seen == n:
                    return self.ringoids[name]
                seen += 1
        return None

    def first_groupoid(self):
        for kind, name in self.order:
            if kind == "groupoid":
                return self.groupoids[name]
        return None

    def first_gset(self):
        for kind, name in self.order:
            if kind == "gset":
                return self.gsets[name]
        return None

    def first_ideal(self):
        for kind, name in self.order:
            if kind == "ideal":
                return self.ideals[name]
        return None


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
        self.action = {}    # (a,b) -> {(r,g): coords}

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
            ro = scalar.objects[0]
            rg = scalar.hom(ro, ro)
            action = {}
            for a in self.objects:
                for b in self.objects:
                    hom = homs[(a, b)]
                    rows = [[hom.zero() for _ in range(len(hom.moduli))]
                            for _ in range(len(rg.moduli))]
                    for (r, g), coords in self.action.get((a, b), {}).items():
                        rows[r][g] = hom.reduce(coords)
                    action[(a, b)] = tuple(tuple(row) for row in rows)
        return FiniteRingoid(self.objects, homs, table, identities=identities,
                             scalar=scalar, action=action, name=self.name)


class _GroupoidBuilder:
    def __init__(self, name, lineno):
        self.name = name
        self.lineno = lineno
        self.objects = []
        self.morphisms = {}
        self.compose = {}
        self.identities = {}
        self.inverses = {}

    def build(self):
        comp = dict(self.compose)
        identities = dict(self.identities)
        for a in self.objects:
            if a in identities:
                continue
            loops = [m for m, (s, t) in self.morphisms.items() if s == a and t == a]
            candidates = []
            for e in loops:
                good = True
                for m, (s, t) in self.morphisms.items():
                    if s == a and comp.get((m, e)) not in (None, m):
                        good = False
                    if t == a and comp.get((e, m)) not in (None, m):
                        good = False
                if good and comp.get((e, e)) == e:
                    candidates.append(e)
            if len(candidates) != 1:
                raise RGDSemanticError(self.lineno,
                                       "cannot infer the identity at object %r of "
                                       "groupoid %r; declare it" % (a, self.name))
            identities[a] = candidates[0]
        try:
            return FinGroupoid(self.objects, self.morphisms, comp, identities,
                               self.inverses or None, name=self.name)
        except StructuralError as exc:
            raise RGDSemanticError(self.lineno, "groupoid %r: %s" % (self.name, exc))


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
            current = ("groupoid", _GroupoidBuilder(toks[1][0], lineno))
            continue
        if head == "gset":
            close_section()
            if len(toks) != 4 or toks[2][0] != "over":
                raise RGDSyntaxError(lineno, col0, "expected: gset NAME over GROUPOID")
            current = ("gset", {"name": toks[1][0], "over": toks[3][0],
                                "points": [], "acts": [], "line": lineno})
            continue
        if head == "ideal":
            close_section()
            if len(toks) != 4 or toks[2][0] != "of":
                raise RGDSyntaxError(lineno, col0, "expected: ideal NAME of RINGOID")
            current = ("ideal", {"name": toks[1][0], "of": toks[3][0],
                                 "gens": [], "line": lineno})
            continue
        if current is None:
            raise RGDSyntaxError(lineno, col0, "directive %r outside any section" % head)
        kind, builder = current
        if kind == "ringoid":
            _ringoid_line(builder, head, toks, lineno, col0)
        elif kind == "groupoid":
            _groupoid_line(builder, head, toks, lineno, col0)
        elif kind == "gset":
            _gset_line(builder, head, toks, lineno, col0)
        elif kind == "ideal":
            _ideal_line(builder, head, toks, lineno, col0)
    close_section()

    for section in pending_gsets:
        g = doc.groupoids.get(section["over"])
        if g is None:
            raise RGDSemanticError(section["line"], "gset %r is over undeclared groupoid %r"
                                   % (section["name"], section["over"]))
        if len(g.objects) != 1:
            raise RGDSemanticError(section["line"], "gset group %r must have one object"
                                   % (section["over"],))
        obj = g.objects[0]
        mids = list(g.hom(obj, obj))
        table = [[mids.index(g.compose(mids[j], mids[i])) for j in range(len(mids))]
                 for i in range(len(mids))]
        group = FinGroup(mids, table)
        points = section["points"]
        act = {}
        for (x, gid, y, lineno) in section["acts"]:
            if x not in points or y not in points:
                raise RGDSemanticError(lineno, "act line names an unknown point")
            if gid not in mids:
                raise RGDSemanticError(lineno, "act line names an unknown morphism %r" % (gid,))
            act[(x, group.index(gid))] = y
        for x in points:
            for gi in range(len(group)):
                act.setdefault((x, gi), None)
        for (x, gi), y in act.items():
            if y is None:
                raise RGDSemanticError(section["line"],
                                       "gset %r: action of %r on point %r undeclared"
                                       % (section["name"], mids[gi], x))
        doc.gsets[section["name"]] = GSet(group, points, act)
    for section in pending_ideals:
        parent = doc.ringoids.get(section["of"])
        if parent is None:
            raise RGDSemanticError(section["line"], "ideal %r is of undeclared ringoid %r"
                                   % (section["name"], section["of"]))
        gens = {}
        for (a, b, coords, lineno) in section["gens"]:
            hom = parent.homs.get((a, b))
            if hom is None:
                raise RGDSemanticError(lineno, "unknown hom (%r, %r)" % (a, b))
            if len(coords) != len(hom.moduli):
                raise RGDSemanticError(lineno, "generator has %d coordinates, hom has %d"
                                       % (len(coords), len(hom.moduli)))
            gens.setdefault((a, b), []).append(hom.reduce(coords))
        doc.ideals[section["name"]] = (section["of"], Ideal(parent, gens))
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
        b.action.setdefault((a, bb), {})[(r, g)] = tuple(coords)
        return
    raise RGDSyntaxError(lineno, col0, "unknown ringoid directive %r" % (head,))


def _groupoid_line(b, head, toks, lineno, col0):
    if head == "object":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "object takes exactly one id")
        b.objects.append(toks[1][0])
        return
    if head == "morphism":
        if len(toks) != 4:
            raise RGDSyntaxError(lineno, col0, "expected: morphism A B ID")
        a, bb, mid = toks[1][0], toks[2][0], toks[3][0]
        if a not in b.objects or bb not in b.objects:
            raise RGDSemanticError(lineno, "morphism endpoints must be declared objects")
        if mid in b.morphisms:
            raise RGDSemanticError(lineno, "duplicate morphism id %r" % (mid,))
        b.morphisms[mid] = (a, bb)
        return
    if head == "identity":
        if len(toks) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: identity A ID")
        a, mid = toks[1][0], toks[2][0]
        if mid not in b.morphisms or b.morphisms[mid] != (a, a):
            raise RGDSemanticError(lineno, "identity must be a declared loop at %r" % (a,))
        b.identities[a] = mid
        return
    if head == "compose":
        left, right = _split_arrow(toks[1:], lineno, col0)
        if len(left) != 2 or len(right) != 1:
            raise RGDSyntaxError(lineno, col0, "expected: compose h g -> k")
        h, g, k = left[0][0], left[1][0], right[0][0]
        for mid in (h, g, k):
            if mid not in b.morphisms:
                raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
        b.compose[(g, h)] = k
        return
    if head == "inverse":
        if len(toks) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: inverse ID ID")
        g, h = toks[1][0], toks[2][0]
        for mid in (g, h):
            if mid not in b.morphisms:
                raise RGDSemanticError(lineno, "unknown morphism %r" % (mid,))
        b.inverses[g] = h
        return
    raise RGDSyntaxError(lineno, col0, "unknown groupoid directive %r" % (head,))


def _gset_line(section, head, toks, lineno, col0):
    if head == "point":
        if len(toks) != 2:
            raise RGDSyntaxError(lineno, col0, "point takes exactly one id")
        section["points"].append(toks[1][0])
        return
    if head == "act":
        left, right = _split_arrow(toks[1:], lineno, col0)
        if len(left) != 2 or len(right) != 1:
            raise RGDSyntaxError(lineno, col0, "expected: act X g -> Y")
        section["acts"].append((left[0][0], left[1][0], right[0][0], lineno))
        return
    raise RGDSyntaxError(lineno, col0, "unknown gset directive %r" % (head,))


def _ideal_line(section, head, toks, lineno, col0):
    if head == "gen":
        heads, tail = _strip_colon(toks, lineno, col0)
        if len(heads) != 3:
            raise RGDSyntaxError(lineno, col0, "expected: gen A B: c1 ...")
        coords = [_int(t, lineno, c) for t, c in tail]
        section["gens"].append((heads[1][0], heads[2][0], coords, lineno))
        return
    raise RGDSyntaxError(lineno, col0, "unknown ideal directive %r" % (head,))


# ---------------------------------------------------------------------------
# Printing (normalized form).
# ---------------------------------------------------------------------------

def print_rgd(doc):
    lines = []
    for kind, name in doc.order:
        if kind == "ringoid":
            lines.extend(_print_ringoid(doc.ringoids[name], doc))
        elif kind == "groupoid":
            lines.extend(_print_groupoid(doc.groupoids[name]))
        elif kind == "gset":
            lines.extend(_print_gset(name, doc.gsets[name], doc))
        elif kind == "ideal":
            of_name, ideal = doc.ideals[name]
            lines.extend(_print_ideal(name, of_name, ideal))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _scalar_name_of(ringoid, doc):
    for name, r in doc.ringoids.items():
        if r is ringoid.scalar:
            return name
    if ringoid.scalar.name == ringoid.name:
        return ringoid.name
    for name, r in doc.ringoids.items():
        if r.name == ringoid.scalar.name:
            return name
    return None


def _object_name(a):
    """An object as one RGD token: str(a) with spaces removed, so tuple
    objects (tensor products) and int objects (G-set points) print too;
    they parse back as strings."""
    return str(a).replace(" ", "")


def _print_ringoid(r, doc):
    lines = ["ringoid %s" % r.name]
    names = {a: _object_name(a) for a in r.objects}
    for a in r.objects:
        lines.append("object %s" % names[a])
    order = {a: i for i, a in enumerate(r.objects)}
    for a in r.objects:
        for b in r.objects:
            hom = r.hom(a, b)
            if len(hom.moduli):
                lines.append("hom %s %s cyclic %s"
                             % (names[a], names[b], " ".join(str(d) for d in hom.moduli)))
    compose_lines = []
    for (a, b, c), table in r.compose_table.items():
        for i, row in enumerate(table):
            for j, img in enumerate(row):
                if any(img):
                    compose_lines.append(((order[a], order[b], order[c], j, i),
                                          "compose %s %s %s: %d %d -> %s"
                                          % (names[a], names[b], names[c], j, i,
                                             " ".join(str(x) for x in img))))
    compose_lines.sort(key=lambda t: t[0])
    lines.extend(text for _, text in compose_lines)
    if r.unital and r.identities:
        for a in r.objects:
            lines.append("identity %s: %s"
                         % (names[a], " ".join(str(x) for x in r.identities[a])))
    if r.scalar is not None:
        sname = _scalar_name_of(r, doc)
        if sname is not None:
            lines.append("scalar %s" % sname)
            action_lines = []
            for (a, b), table in (r.action or {}).items():
                for i, row in enumerate(table):
                    for j, img in enumerate(row):
                        if any(img):
                            action_lines.append(((order[a], order[b], i, j),
                                                 "action %s %s: %d %d -> %s"
                                                 % (names[a], names[b], i, j,
                                                    " ".join(str(x) for x in img))))
            action_lines.sort(key=lambda t: t[0])
            lines.extend(text for _, text in action_lines)
    return lines


def _print_groupoid(g):
    lines = ["groupoid %s" % g.name]
    for a in g.objects:
        lines.append("object %s" % (a,))
    for mid, (a, b) in g.morphisms.items():
        lines.append("morphism %s %s %s" % (a, b, mid))
    for a in g.objects:
        lines.append("identity %s %s" % (a, g.identities[a]))
    comp_lines = sorted("compose %s %s -> %s" % (h, gg, k)
                        for (gg, h), k in g.comp.items())
    lines.extend(comp_lines)
    inv_lines = sorted("inverse %s %s" % (mid, inv)
                       for mid, inv in g.inverses.items())
    lines.extend(inv_lines)
    return lines


def _print_gset(name, gset, doc):
    over = None
    for gname, g in doc.groupoids.items():
        if len(g.objects) == 1 and list(g.hom(g.objects[0], g.objects[0])) \
                == list(gset.group.elements):
            over = gname
            break
    lines = ["gset %s over %s" % (name, over if over else "?")]
    for p in gset.points:
        lines.append("point %s" % (p,))
    for p in gset.points:
        for gi in range(len(gset.group)):
            lines.append("act %s %s -> %s" % (p, gset.group.elements[gi],
                                              gset.apply(p, gi)))
    return lines


def _print_ideal(name, of_name, ideal):
    lines = ["ideal %s of %s" % (name, of_name)]
    for (a, b), gens in ideal.gens.items():
        for g in gens:
            lines.append("gen %s %s: %s" % (a, b, " ".join(str(x) for x in g)))
    return lines


def document_from(ringoids=(), groupoids=(), gsets=()):
    """Wrap constructed structures as a document (pulling in scalar rings as
    their own sections so the output is self-contained)."""
    doc = RGDDocument()

    def add_ringoid(r):
        if any(existing is r for existing in doc.ringoids.values()):
            return
        if (r.scalar is not None and r.scalar.name != r.name
                and not any(existing is r.scalar or existing.name == r.scalar.name
                            for existing in doc.ringoids.values())):
            add_ringoid(r.scalar)
        name = r.name or "ringoid%d" % (len(doc.ringoids) + 1)
        base = name
        k = 2
        while name in doc.ringoids:
            name = "%s_%d" % (base, k)
            k += 1
        if name != r.name:
            r = FiniteRingoid(r.objects, r.homs, r.compose_table,
                              identities=r.identities, scalar=r.scalar,
                              action=r.action, unital=r.unital, name=name)
        doc.ringoids[name] = r
        doc.order.append(("ringoid", name))

    for r in ringoids:
        add_ringoid(r)
    for g in groupoids:
        name = g.name or "groupoid%d" % (len(doc.groupoids) + 1)
        doc.groupoids[name] = g
        doc.order.append(("groupoid", name))
    for i, s in enumerate(gsets):
        name = "gset%d" % (i + 1)
        doc.gsets[name] = s
        doc.order.append(("gset", name))
    return doc
