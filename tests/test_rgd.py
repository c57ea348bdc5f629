import pytest
from hypothesis import given, settings

from conftest import small_ringoids
from ringoids import (FiniteRingoid, RGDSemanticError, RGDSyntaxError,
                      document_from, parse_rgd, print_rgd,
                      ringoid_equal_structure, validate, validate_groupoid)
from ringoids.moduloids import quotient, unitize
from ringoids.constructions import forget_units

F2_DOC = """\
# the field with two elements
ringoid F2
object a
hom a a cyclic 2
compose a a a: 0 0 -> 1
identity a: 1
scalar F2
action a a: 0 0 -> 1
"""

Z4_WITH_IDEAL = """\
ringoid Z4
object a
hom a a cyclic 4
compose a a a: 0 0 -> 1
identity a: 1
scalar Z4
action a a: 0 0 -> 1

ideal two of Z4
gen a a: 2
"""

C2_DOC = """\
groupoid C2
object p
morphism p p e
morphism p p g
identity p e
compose e e -> e
compose e g -> g
compose g e -> g
compose g g -> e
inverse e e
inverse g g

gset swap over C2
point 1
point 2
act 1 e -> 1
act 1 g -> 2
act 2 e -> 2
act 2 g -> 1
"""


def test_parse_f2_document():
    doc = parse_rgd(F2_DOC)
    ring = doc.nth("ringoid")
    assert ring.name == "F2"
    assert validate(ring).ok
    assert ring.scalar is not None
    assert ring.unital


def test_nth_section_in_declaration_order():
    doc = parse_rgd(C2_DOC + F2_DOC)
    assert doc.nth("groupoid") is doc.groupoids["C2"]
    assert doc.nth("ringoid").name == "F2"
    assert doc.nth("ringoid", 1) is None
    assert doc.nth("ideal") is None


def test_modulus_zero_rejected():
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd("ringoid X\nobject a\nhom a a cyclic 0\n")
    assert "must be >= 1" in str(exc.value)
    assert exc.value.line == 3


def test_syntax_and_semantic_errors_distinct():
    with pytest.raises(RGDSyntaxError):
        parse_rgd("ringoid X\nobject a\ncompose a a a 0 0 -> 1\n")
    with pytest.raises(RGDSemanticError):
        parse_rgd("ringoid X\nobject a\nhom a b cyclic 2\n")
    with pytest.raises(RGDSyntaxError):
        parse_rgd("object floating\n")


def test_coordinate_out_of_range_is_semantic():
    with pytest.raises(RGDSemanticError):
        parse_rgd("ringoid X\nobject a\nhom a a cyclic 2\n"
                  "compose a a a: 0 3 -> 1\n")


def test_scalar_data_out_of_range_names_its_line():
    # both used to raise IndexError out of the ringoid builder
    past = F2_DOC.replace("action a a: 0 0 -> 1", "action a a: 1 0 -> 1")
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(past)
    assert exc.value.line == 8
    assert "scalar generator 1 out of range" in str(exc.value)
    empty = "ringoid E\n" + F2_DOC.replace("scalar F2", "scalar E")
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(empty)
    assert exc.value.line == 8
    assert "scalar ring 'E' has no objects" in str(exc.value)


def test_a_later_hom_line_that_takes_a_generator_away_names_the_line():
    # both used to raise IndexError out of the ringoid builder; a repeated
    # hom line is refused where it stands, and names the first
    for text in ("hom a a cyclic 2 2\ncompose a a a: 1 0 -> 1 0\n",
                 "scalar F2\nhom a a cyclic 2 2\naction a: 0 1 -> 1 0\n"):
        with pytest.raises(RGDSemanticError) as exc:
            parse_rgd(F2_DOC + "ringoid X\nobject a\n" + text
                      + "hom a a cyclic 2\n")
        start = F2_DOC.count("\n") + 2
        assert exc.value.line == start + text.count("\n") + 1
        first = start + 1 + text.split("\n").index("hom a a cyclic 2 2")
        assert str(exc.value) == ("line %d: Hom(a,a) is already declared at "
                                  "line %d" % (exc.value.line, first))


def test_a_repeated_hom_line_is_refused():
    # it used to replace the first, and validate then read the compose
    # line on the new group: exit 0, clean, one coordinate dropped
    text = ("ringoid R\nobject a\nhom a a cyclic 2 2\n"
            "compose a a a: 0 0 -> 1 1\nhom a a cyclic 2\n")
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(text)
    assert str(exc.value) == "line 5: Hom(a,a) is already declared at line 3"
    # the same line twice, and a hom line of the other direction
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd("ringoid R\nobject a\nobject b\nhom a b cyclic 2\n"
                  "hom b a cyclic 2\nhom a b cyclic 2\n")
    assert str(exc.value) == "line 6: Hom(a,b) is already declared at line 4"


def test_an_image_read_before_its_hom_line_names_the_line():
    # the image was checked against the trivial group, and validate then
    # failed on a structure constant out of range, naming no line
    text = ("ringoid R\nobject a\nobject b\nobject c\nhom a b cyclic 2\n"
            "hom b c cyclic 2\ncompose a b c: 0 0 ->\nhom a c cyclic 2\n")
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(text)
    assert str(exc.value) == "line 7: image has 0 coordinates, Hom(a,c) has 1"


def test_an_identity_read_before_its_hom_line_names_the_line():
    # validate used to fail with "identity at 'a' out of range"
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd("ringoid R\nobject a\nidentity a:\nhom a a cyclic 2\n")
    assert str(exc.value) == "line 3: identity has 0 coordinates, Hom(a,a) has 1"


def test_hom_lines_may_follow_the_lines_that_use_them():
    # the hom-groups are checked when the section is built, so the order
    # of the lines does not matter as long as their lengths agree
    lines = F2_DOC.splitlines()
    hom = lines.index("hom a a cyclic 2")
    moved = "\n".join(lines[:hom] + lines[hom + 1:] + [lines[hom]]) + "\n"
    assert moved != F2_DOC
    here, there = parse_rgd(F2_DOC).ringoids["F2"], parse_rgd(moved).ringoids["F2"]
    assert (there.compose_table, there.identities, there.action) == \
        (here.compose_table, here.identities, here.action)
    # a generator index past a hom-group declared later is still refused
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd("ringoid R\nobject a\ncompose a a a: 0 1 -> 1\n"
                  "hom a a cyclic 2\n")
    assert str(exc.value) == "line 3: generator 1 out of range for Hom(a,a)"


def test_action_without_a_scalar_line_names_its_first_line():
    # used to be dropped without a diagnostic, whatever its indices
    for action in ("action a a: 0 0 -> 1", "action a a: 5 0 -> 1"):
        text = F2_DOC.replace("scalar F2\naction a a: 0 0 -> 1",
                              action + "\naction a: 0 0 -> 0")
        with pytest.raises(RGDSemanticError) as exc:
            parse_rgd(text)
        assert exc.value.line == 7
        assert "action in ringoid 'F2', which has no scalar line" in str(exc.value)
    # an action line before its scalar line is kept, as is the self-scalar
    before = F2_DOC.replace("scalar F2\naction a a: 0 0 -> 1",
                            "action a a: 0 0 -> 1\nscalar F2")
    assert parse_rgd(before).ringoids["F2"].action == \
        parse_rgd(F2_DOC).ringoids["F2"].action


# the group C1 as a groupoid, and a gset over it with one point
C1_DOC = ("groupoid C1\nobject p\nmorphism p p e\ncompose e e -> e\n\n"
          "gset pt over C1\npoint 1\nact 1 e -> 1\n")


@pytest.mark.parametrize("text, line, message", [
    # used to parse as a groupoid on the objects p, p; validate printed
    # clean and assembly an assembly map Z -> Z^2
    (C1_DOC.replace("object p\n", "object p\nobject p\n"), 3,
     "duplicate object 'p'"),
    # used to parse as a gset on the points 1, 1; transport printed two
    # objects
    (C1_DOC.replace("point 1\n", "point 1\npoint 1\n"), 8,
     "duplicate point '1'"),
], ids=["groupoid object", "gset point"])
def test_a_repeated_object_or_point_is_semantic(text, line, message):
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(text)
    assert exc.value.line == line
    assert str(exc.value) == "line %d: %s" % (line, message)


def test_gset_over_a_groupoid_missing_a_composite_is_semantic():
    # used to raise KeyError while tabulating the loops
    text = C2_DOC.replace("compose g g -> e\n", "")
    with pytest.raises(RGDSemanticError) as exc:
        parse_rgd(text)
    assert exc.value.line == text.splitlines().index("gset swap over C2") + 1
    assert "'compose g g'" in str(exc.value)


def _error(text):
    with pytest.raises((RGDSyntaxError, RGDSemanticError)) as exc:
        parse_rgd(text)
    return str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("ringoid\n", "line 1, col 1: ringoid takes exactly one name"),
    ("ringoid A B\n", "line 1, col 1: ringoid takes exactly one name"),
    ("  groupoid\n", "line 1, col 3: groupoid takes exactly one name"),
    ("groupoid C2 C3\n", "line 1, col 1: groupoid takes exactly one name"),
    ("gset swap of C2\n", "line 1, col 1: expected: gset NAME over GROUPOID"),
    ("gset swap over\n", "line 1, col 1: expected: gset NAME over GROUPOID"),
    (" ideal two over Z4\n", "line 1, col 2: expected: ideal NAME of RINGOID"),
    ("ideal two of Z4 Z2\n", "line 1, col 1: expected: ideal NAME of RINGOID"),
])
def test_malformed_section_header_names_its_line_and_column(text, message):
    assert _error(text) == message
    # after a section that builds cleanly, on line 9
    assert _error(F2_DOC + text) == message.replace("line 1,", "line 9,")


@pytest.mark.parametrize("text, message", [
    ("\n# a comment\n  x 1\n", "line 3, col 3: directive 'x' outside any section"),
    ("ringoid A\nx\n", "line 2, col 1: unknown ringoid directive 'x'"),
    ("groupoid C1\nobject p\n x\n", "line 3, col 2: unknown groupoid directive 'x'"),
    ("gset s over C1\nx\n", "line 2, col 1: unknown gset directive 'x'"),
    ("ideal i of A\n  point 1\n", "line 2, col 3: unknown ideal directive 'point'"),
])
def test_stray_directive_names_its_line_and_column(text, message):
    assert _error(text) == message


def test_gset_errors_win_over_ideal_errors():
    # G-sets are built after the whole document is read, before any ideal
    text = """\
ringoid Z4
object a
hom a a cyclic 4
compose a a a: 0 0 -> 1
identity a: 1
ideal two of Z5
gen a a: 2
groupoid C1
object p
morphism p p e
compose e e -> e
gset swap over C2
point 1
"""
    assert _error(text) == "line 12: gset 'swap' is over undeclared groupoid 'C2'"
    without_gset = "\n".join(text.splitlines()[:11]) + "\n"
    assert _error(without_gset) == "line 6: ideal 'two' is of undeclared ringoid 'Z5'"


def test_open_section_build_error_wins_over_the_next_header():
    # a ringoid or groupoid section is built when it closes, before the
    # header that closes it is read
    ringoid = "ringoid A\nobject x\nhom x x cyclic 2\naction x: 0 0 -> 1\nringoid\n"
    assert _error(ringoid) == \
        "line 4: action in ringoid 'A', which has no scalar line"
    groupoid = "groupoid G\nobject p\nmorphism p p e\ngset swap C2\n"
    assert _error(groupoid) == \
        "line 1: cannot infer the identity at object 'p' of groupoid 'G'; declare it"


_GROUPOID = "".join(C2_DOC.splitlines(keepends=True)[:11])
_GSET = "".join(C2_DOC.splitlines(keepends=True)[12:])


@pytest.mark.parametrize("text, message", [
    (F2_DOC + F2_DOC, "line 10: ringoid 'F2' is already declared at line 2"),
    (_GROUPOID + _GROUPOID,
     "line 12: groupoid 'C2' is already declared at line 1"),
    (C2_DOC + _GSET, "line 20: gset 'swap' is already declared at line 13"),
    (Z4_WITH_IDEAL + "ideal two of Z4\ngen a a: 2\n",
     "line 11: ideal 'two' is already declared at line 9"),
], ids=["ringoid", "groupoid", "gset", "ideal"])
def test_a_second_section_of_a_kind_and_name_names_the_first(text, message):
    # a later section of the same name used to replace the earlier one
    # silently, while both stayed in the declaration order
    assert _error(text) == message


def test_sections_of_different_kinds_may_share_a_name():
    doc = parse_rgd(_GROUPOID + F2_DOC.replace("F2", "C2"))
    assert doc.order == [("groupoid", "C2"), ("ringoid", "C2")]


def test_groupoid_document():
    doc = parse_rgd(C2_DOC)
    g = doc.nth("groupoid")
    assert validate_groupoid(g).ok
    assert len(g.morphisms) == 2
    xs = doc.nth("gset")
    assert xs.validate().ok
    assert xs.points == ("1", "2")


def test_groupoid_identity_inference():
    doc = parse_rgd("\n".join(line for line in C2_DOC.splitlines()
                              if not line.startswith(("identity", "inverse",
                                                      "gset", "point", "act"))))
    g = doc.nth("groupoid")
    assert g.identities == {"p": "e"}
    assert validate_groupoid(g).ok


def test_round_trip_normalized():
    for text in (F2_DOC, Z4_WITH_IDEAL, C2_DOC):
        doc = parse_rgd(text)
        printed = print_rgd(doc)
        assert print_rgd(parse_rgd(printed)) == printed


def test_round_trip_with_identities_at_some_objects_only():
    # the parser accepts identities at some objects only; validation, not
    # the printer, rejects such a ringoid
    text = ("ringoid R\nobject a\nobject b\nhom a a cyclic 2\n"
            "hom b b cyclic 2\ncompose a a a: 0 0 -> 1\n"
            "compose b b b: 0 0 -> 1\nidentity a: 1\n")
    doc = parse_rgd(text)
    printed = print_rgd(doc)
    assert printed == text
    again = parse_rgd(printed)
    assert again.ringoids["R"].identities == doc.ringoids["R"].identities == {"a": (1,)}
    assert print_rgd(again) == printed


def test_ideal_section(z4):
    doc = parse_rgd(Z4_WITH_IDEAL)
    of_name, ideal = doc.nth("ideal")
    assert of_name == "Z4"
    assert ideal.gens == {("a", "a"): ((2,),)}
    q, _ = quotient(doc.ringoids["Z4"], ideal)
    assert q.hom("a", "a").order() == 2


def test_document_from_constructed_ringoid():
    doc = parse_rgd(F2_DOC)
    f2 = doc.nth("ringoid")
    mplus = unitize(forget_units(f2))
    out = document_from(ringoids=[mplus])
    text = print_rgd(out)
    doc2 = parse_rgd(text)
    ring = doc2.ringoids["F2+"]
    assert validate(ring).ok
    assert ring.hom("a", "a").order() == 4
    assert ring.scalar is not None


def _rgd_named(r):
    """r with every object renamed to the token it prints as: str(a) with
    spaces removed (int G-set points and tuple tensor objects parse back as
    these strings)."""
    names = {a: str(a).replace(" ", "") for a in r.objects}
    return FiniteRingoid(
        [names[a] for a in r.objects],
        {(names[a], names[b]): g for (a, b), g in r.homs.items()},
        {(names[a], names[b], names[c]): t for (a, b, c), t in r.compose_table.items()},
        identities=({names[a]: e for a, e in r.identities.items()}
                    if r.identities else None),
        unital=r.unital, name=r.name)


@settings(max_examples=60, deadline=None)
@given(small_ringoids())
def test_print_parse_round_trip(ring):
    doc = document_from(ringoids=[ring])
    text = print_rgd(doc)
    parsed = parse_rgd(text)
    assert list(parsed.ringoids) == list(doc.ringoids)
    for name, r in doc.ringoids.items():
        assert ringoid_equal_structure(parsed.ringoids[name], _rgd_named(r))
    assert print_rgd(parsed) == text
