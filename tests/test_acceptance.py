"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (integer arithmetic, no tolerances).  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import (determinant_of_matmorphism, hom_is_bijective_everywhere,
                      ring_units)
from ringoids import (AbPresentation, FinAbGroup, FinGroup, FiniteRingoid,
                      GSet, Ideal, assembly_zero, check_simplicial_identities,
                      cofinality_check, complete, cyclic_ring,
                      disjoint_union_gset, enumerate_objsums,
                      equivariant_assembly_zero, fibration_check, forget_units,
                      gl, group_as_groupoid, group_ringoid_tensor_iso,
                      improper_ideal, k0_bounded, k0_relative, k1_bounded,
                      naturality_check, one_object_ringoid, oracle_compare,
                      unitization_splitting, validate, validate_hom,
                      zero_ideal)

Z = AbPresentation.free(1)


def report(number, text):
    print("ACCEPTANCE %02d: PASS - %s" % (number, text))


def test_criterion_01_axiom_suite(f2, f3, z4, m2f2, f2c2, f2xf2):
    for ring in (f2, f3, z4, m2f2, f2c2, f2xf2):
        assert validate(ring).ok, ring.name

    non_assoc = one_object_ringoid((2, 2), (((0, 1), (1, 0)),
                                            ((0, 0), (0, 0))), name="bad")
    rep = validate(non_assoc)
    assert "associativity" in rep.axioms_violated()
    wit = next(f for f in rep.failures if f.axiom == "associativity")
    assert wit.witness == ((1, 0), (1, 0), (1, 0))

    groups = {("a", "a"): FinAbGroup((4,)), ("a", "b"): FinAbGroup((2,)),
              ("b", "a"): FinAbGroup((2,)), ("b", "b"): FinAbGroup((4,))}
    non_bilinear = FiniteRingoid(("a", "b"), groups,
                                 {("a", "b", "a"): (((1,),),)})
    rep = validate(non_bilinear)
    assert "bilinearity" in rep.axioms_violated()
    wit = next(f for f in rep.failures if f.axiom == "bilinearity")
    assert wit.location == ("a", "b", "a") and wit.witness == (0, 0)

    bad_identity = one_object_ringoid((4,), (((1,),),), identity=(2,))
    rep = validate(bad_identity)
    assert "left identity" in rep.axioms_violated()
    wit = next(f for f in rep.failures if f.axiom == "left identity")
    assert wit.witness == (1,)
    report(1, "axiom suite accepts 6 rings, rejects 3 violations with witnesses")


def test_criterion_02_biproduct_equations(f2, z4):
    for ring in (f2, z4):
        view = complete(ring)
        for s in enumerate_objsums(ring.objects, 3):
            for t in enumerate_objsums(ring.objects, 3):
                i_s, i_t, p_s, p_t = view.biproduct(s, t)
                assert view.compose(p_s, i_s) == view.identity(s)
                assert view.compose(p_t, i_t) == view.identity(t)
                assert view.add(view.compose(i_s, p_s),
                                view.compose(i_t, p_t)) == view.identity(s + t)
    report(2, "biproduct equations bit-exact up to length 3 over F2 and Z/4")


def test_criterion_03_simplicial_identities(f2, z4):
    total = 0
    for ring in (f2, z4):
        rep = check_simplicial_identities(ring, 3, 3)
        assert rep.ok
        total += rep.checked
    report(3, "all simplicial identities hold (n <= 3, L <= 3; %d checked)" % total)


def test_criterion_04_cofinality(f2, z4, zero):
    for ring in (f2, z4, zero):
        rep = cofinality_check(ring, 4)
        assert rep.is_isomorphism, ring.name
        assert rep.sub_presentation == rep.ambient.presentation
    report(4, "cofinal subcategory K0 isomorphism at L = 4 for F2, Z/4, 0")


def test_criterion_05_unitization_corollary(f2, z4):
    for ring in (f2, z4):
        sp = unitization_splitting(ring)
        assert validate_hom(sp.alpha).ok and validate_hom(sp.alpha_inv).ok
        obj = ring.objects[0]
        seen = set()
        for x in sp.msum.hom(obj, obj).elements():
            y = sp.alpha.apply(obj, obj, x)
            assert y not in seen
            seen.add(y)
            assert sp.alpha_inv.apply(obj, obj, y) == x
            assert (sp.projection_plus.apply(obj, obj, y)
                    == sp.projection_sum.apply(obj, obj, x))
        assert len(seen) == sp.mplus.hom(obj, obj).order()
        rel = k0_relative(forget_units(ring))
        assert rel.presentation == k0_bounded(ring, 3).presentation
    report(5, "alpha certified iso, diagram commutes, relative K0 = absolute K0")


def test_criterion_06_fibration(z4):
    cases = [
        ("(2)", Ideal(z4, {("*", "*"): ((2,),)})),
        ("zero", zero_ideal(z4)),
        ("improper", improper_ideal(z4)),
    ]
    for name, ideal in cases:
        rep = fibration_check(z4, ideal, 2)
        assert rep.composite_zero, name
        assert rep.exact, name
    report(6, "fibration shadow exact at K0(M) for (Z/4,(2)), zero, improper")


def test_criterion_07_group_ring_tensor_iso(c2_groupoid, f2, z4):
    for scalar in (f2, z4):
        iso = group_ringoid_tensor_iso(c2_groupoid, scalar)
        assert validate_hom(iso.theta).ok
        assert hom_is_bijective_everywhere(iso.theta)
        src = iso.source
        t = iso.theta
        tobj = t.object_map["*"]
        for x in src.hom("*", "*").elements():
            for y in src.hom("*", "*").elements():
                lhs = t.apply("*", "*", src.compose("*", "*", "*", x, y))
                rhs = t.target.compose(tobj, tobj, tobj, t.apply("*", "*", x),
                                       t.apply("*", "*", y))
                assert lhs == rhs
    report(7, "theta bijective and multiplicative on all pairs for (C2,F2), (C2,Z/4)")


def test_criterion_08_group_completion_oracle(f2, z4, zero, f2c2):
    values = []
    for ring in (f2, z4, zero, f2c2):
        rep = oracle_compare(ring, 3)
        assert rep.match, ring.name
        assert rep.map_forward_ok and rep.map_backward_ok, ring.name
        values.append(str(rep.k0.presentation))
    report(8, "monoid-completion and nerve K0 agree at L = 3: %s" % ", ".join(values))


def test_criterion_09_k1_shadow(f2, f3):
    res = k1_bounded(f2, 3)
    assert res.ranks[1].is_trivial()
    assert res.ranks[2] == AbPresentation.cyclic(2)
    assert res.ranks[3].is_trivial()
    assert len(gl(complete(f2), ("*",) * 3)) == 168
    assert res.steps[0].is_isomorphism is False  # 0 -> Z/2
    assert res.steps[1].is_isomorphism is False  # Z/2 -> 0
    res3 = k1_bounded(f3, 2)
    assert res3.ranks[1] == AbPresentation.cyclic(2)
    assert res3.ranks[2] == AbPresentation.cyclic(2)
    assert res3.last_step_iso is True
    units = {tuple(u) for u in ring_units(f3)}
    dets = {determinant_of_matmorphism(f3, u)
            for u in gl(complete(f3), ("*",) * 2).elements}
    assert dets == units
    report(9, "K1 shadow: F2 gives (0, Z/2, 0); F3 abelianizations match units")


def test_criterion_10_assembly_point_case(f2):
    pi = group_as_groupoid(FinGroup.cyclic(1), name="1")
    am = assembly_zero(pi, f2, 3)
    assert am.source_presentation == Z
    assert am.target.presentation == Z
    assert am.matrix == [{0: 1}]
    assert am.iso
    report(10, "assembly point case is the identity Z -> Z")


def test_criterion_11_equivariant_orbit_cases(f2):
    c2 = FinGroup.cyclic(2)
    point = GSet.trivial(c2)
    free = GSet.regular(c2)
    union = disjoint_union_gset(point, free)
    for name, xs in (("G/G", point), ("G/e", free), ("G/G + G/e", union)):
        am = equivariant_assembly_zero(xs, f2, 3)
        assert am.iso, name
    two_free = disjoint_union_gset(free, free)
    fold = {("L", p): p for p in free.points}
    fold.update({("R", p): p for p in free.points})
    assert naturality_check(fold, two_free, free, f2, 3).commutes
    proj = {x: "pt" for x in free.points}
    assert naturality_check(proj, free, point, f2, 3).commutes
    report(11, "equivariant assembly iso on G/G, G/e, union; naturality commutes")


F2_DOC = """\
ringoid F2
object a
hom a a cyclic 2
compose a a a: 0 0 -> 1
identity a: 1
scalar F2
action a a: 0 0 -> 1
"""


def test_criterion_12_cli_determinism(tmp_path):
    path = tmp_path / "f2.rgd"
    path.write_text(F2_DOC, encoding="utf-8")
    invocations = [
        ["validate", "--input", str(path)],
        ["k0", "--input", str(path), "--bound", "3"],
        ["k0", "--input", str(path), "--bound", "3", "--format", "machine"],
        ["oracle-compare", "--input", str(path), "--bound", "3"],
        ["k1", "--input", str(path), "--gl-max", "2"],
        ["nerve-check", "--input", str(path), "--bound", "3"],
        ["complete", "--input", str(path)],
        ["unitize", "--input", str(path)],
    ]
    for args in invocations:
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run([sys.executable, "-m", "ringoids.cli"] + args,
                                  capture_output=True, env=env)
            assert proc.returncode == 0, (args, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args
    report(12, "CLI byte-reproducible across runs and hash seeds")
