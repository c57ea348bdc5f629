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

Indices are 0-based.  `parse_rgd` reads this format: it checks every
section header against one table and hands each other line to the open
section, one class per kind (`_RingoidBuilder` here, the groupoid, gset
and ideal sections in `rgdsections`).  `rgdprint.print_rgd` writes the
normalized form; parse -> print -> parse is the identity on that form.
"""

import re

from .abgroup import FinAbGroup
from .ringoid import FiniteRingoid, structure_table


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


class _RingoidBuilder:
    kind = "ringoid"
    stage = 0

    def __init__(self, toks, lineno):
        self.name = toks[1][0]
        self.lineno = lineno
        self.objects = []
        self.homs = {}
        self.hom_lines = {}
        # directive -> key -> {(i, j): (coords, line)}: entry [i][j] of the
        # structure-constant table of compose (a, b, c) or action (a, b)
        self.constants = {"compose": {}, "action": {}}
        self.identities = {}
        # (line, (a, b), n, what): the line's generator index n of Hom(a,b)
        # (what None) or its `what` with n coordinates in Hom(a,b), checked
        # on the section's hom-groups when it is built
        self.checks = []
        self.scalar_name = None
        self.scalar_line = None
        self.action_line = None

    def require_object(self, obj, lineno):
        if obj not in self.objects:
            raise RGDSemanticError(lineno, "unknown object %r in ringoid %r"
                                   % (obj, self.name))

    def line(self, head, toks, lineno, col0):
        if head == "object":
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "object takes exactly one id")
            if toks[1][0] in self.objects:
                raise RGDSemanticError(lineno, "duplicate object %r" % (toks[1][0],))
            self.objects.append(toks[1][0])
            return
        if head == "hom":
            if len(toks) < 4 or toks[3][0] != "cyclic":
                raise RGDSyntaxError(lineno, col0, "expected: hom A B cyclic d1 ...")
            a, b = toks[1][0], toks[2][0]
            self.require_object(a, lineno)
            self.require_object(b, lineno)
            if (a, b) in self.hom_lines:
                raise RGDSemanticError(lineno, "Hom(%s,%s) is already declared "
                                       "at line %d" % (a, b, self.hom_lines[(a, b)]))
            moduli = [_int(t, lineno, c, minimum=1, what="modulus") for t, c in toks[4:]]
            self.homs[(a, b)] = FinAbGroup(moduli)
            self.hom_lines[(a, b)] = lineno
            return
        if head in self.constants:
            self.constant_line(head, toks, lineno, col0)
            return
        if head == "identity":
            heads, tail = _strip_colon(toks, lineno, col0)
            if len(heads) != 2:
                raise RGDSyntaxError(lineno, col0, "expected: identity A: c1 ...")
            a = heads[1][0]
            self.require_object(a, lineno)
            coords = [_int(t, lineno, c) for t, c in tail]
            self.checks.append((lineno, (a, a), len(coords), "identity"))
            self.identities[a] = coords
            return
        if head == "scalar":
            if len(toks) != 2:
                raise RGDSyntaxError(lineno, col0, "scalar takes exactly one name")
            self.scalar_name = toks[1][0]
            self.scalar_line = lineno
            return
        raise RGDSyntaxError(lineno, col0, "unknown ringoid directive %r" % (head,))

    def constant_line(self, head, toks, lineno, col0):
        """Read 'compose A B C: k l -> c1 ...' or 'action A B: k l -> c1 ...'
        ('action A:' means A A) into `constants`.  l indexes the hom of the
        last two objects, k the first two's or the scalar ring's."""
        usage, arity, first = _CONSTANT_LINES[head]
        heads, tail = _strip_colon(toks, lineno, col0)
        key = tuple(tok for tok, _ in heads[1:])
        if head == "action" and len(key) == 1:
            key *= 2
        if len(key) != (3 if head == "compose" else 2):
            raise RGDSyntaxError(lineno, col0, usage)
        for o in key:
            self.require_object(o, lineno)
        left, right = _split_arrow(tail, lineno, col0)
        if len(left) != 2:
            raise RGDSyntaxError(lineno, col0, arity)
        k = _int(left[0][0], lineno, left[0][1], minimum=0, what=first)
        l = _int(left[1][0], lineno, left[1][1], minimum=0, what="generator index")
        coords = [_int(t, lineno, cc) for t, cc in right]
        if head == "compose":
            self.checks.append((lineno, key[:2], k, None))
        self.checks += [(lineno, key[-2:], l, None),
                       (lineno, (key[0], key[-1]), len(coords), "image")]
        # a compose line names the right factor first, an action line the left
        ij = (l, k) if head == "compose" else (k, l)
        self.constants[head].setdefault(key, {})[ij] = (tuple(coords), lineno)
        if head == "action" and self.action_line is None:
            self.action_line = lineno

    def build(self, doc):
        trivial = FinAbGroup(())
        homs = {(a, b): self.homs.get((a, b), trivial)
                for a in self.objects for b in self.objects}
        for lineno, (a, b), n, what in self.checks:
            size = len(homs[(a, b)].moduli)
            if what is None and n >= size:
                raise RGDSemanticError(lineno, "generator %d out of range for "
                                       "Hom(%s,%s)" % (n, a, b))
            if what is not None and n != size:
                raise RGDSemanticError(lineno, "%s has %d coordinates, Hom(%s,%s) "
                                       "has %d" % (what, n, a, b, size))
        table = {(a, b, c): _table(entries, homs[(b, c)], homs[(a, b)], homs[(a, c)])
                 for (a, b, c), entries in self.constants["compose"].items()}
        identities = {a: homs[(a, a)].reduce(coords)
                      for a, coords in self.identities.items()} or None
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
                scalar = doc.ringoids.get(self.scalar_name)
            if scalar is None:
                raise RGDSemanticError(self.lineno, "scalar ring %r is not declared"
                                       % (self.scalar_name,))
            if not scalar.objects:
                raise RGDSemanticError(self.scalar_line, "scalar ring %r has no objects"
                                       % (self.scalar_name,))
            ro = scalar.objects[0]
            rg = scalar.hom(ro, ro)
            past_scalar = ("scalar generator %%d out of range for the scalar ring %r"
                           % (self.scalar_name,))
            action = {(a, b): _table(self.constants["action"].get((a, b), {}), rg,
                                     homs[(a, b)], homs[(a, b)], past_scalar)
                      for a in self.objects for b in self.objects}
        return FiniteRingoid(self.objects, homs, table, identities=identities,
                             scalar=scalar, action=action, name=self.name)


# structure-constant directive -> (usage message, message for a wrong
# number of indices, what its first index is)
_CONSTANT_LINES = {
    "compose": ("expected: compose A B C: gj gi -> ...",
                "compose needs two generator indices", "generator index"),
    "action": ("expected: action A B: r g -> ...", "action needs two indices",
               "scalar generator index"),
}


def _table(entries, rows, cols, out, past_rows=None):
    """The structure-constant table of the lines read for one key, on the
    hom-groups of the section.  `build` has checked each line's indices
    and image length on these hom-groups, wherever in the section their
    hom lines stand; only the rows of a scalar ring, which the section
    names, are checked here: past_rows % i is the message for a row index
    i past its generators."""
    if past_rows is not None:
        for (i, _), (_, lineno) in entries.items():
            if i >= len(rows.moduli):
                raise RGDSemanticError(lineno, past_rows % i)

    def image(i, j):
        entry = entries.get((i, j))
        return None if entry is None else entry[0]

    return structure_table(rows, cols, out, image)


# header word -> (number of tokens, the keyword that must be the third
# token or None, usage message)
_HEADERS = {
    "ringoid": (2, None, "ringoid takes exactly one name"),
    "groupoid": (2, None, "groupoid takes exactly one name"),
    "gset": (4, "over", "expected: gset NAME over GROUPOID"),
    "ideal": (4, "of", "expected: ideal NAME of RINGOID"),
}


def parse_rgd(text):
    """Read an RGD document.  Each section has a `kind`, a `name`, a `line`
    method for its directives and a `build` method, called at stage 0 when
    the section closes, otherwise once the whole document is read, in stage
    order."""
    doc = RGDDocument()
    sections = {}   # (kind, name) -> section, in document order
    section = None  # the open section

    def build(section):
        getattr(doc, section.kind + "s")[section.name] = section.build(doc)

    def close():
        if section is not None and not section.stage:
            build(section)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head, col0 = toks[0]
        if head not in _HEADERS:
            if section is None:
                raise RGDSyntaxError(lineno, col0, "directive %r outside any section" % head)
            section.line(head, toks, lineno, col0)
            continue
        close()
        ntoks, keyword, usage = _HEADERS[head]
        if len(toks) != ntoks or (keyword and toks[2][0] != keyword):
            raise RGDSyntaxError(lineno, col0, usage)
        if head == "ringoid":
            section = _RingoidBuilder(toks, lineno)
        else:
            # the groupoid, gset and ideal sections compile at the first such
            # header, so a ringoid-only document never loads them
            from . import rgdsections
            section = rgdsections.SECTIONS[head](toks, lineno)
        earlier = sections.setdefault((section.kind, section.name), section)
        if earlier is not section:
            raise RGDSemanticError(lineno, "%s %r is already declared at line %d"
                                   % (section.kind, section.name, earlier.lineno))
    close()
    for section in sorted(sections.values(), key=lambda section: section.stage):
        if section.stage:
            build(section)
    doc.order.extend(sections)
    return doc
