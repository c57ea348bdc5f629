"""Golden tables of every ringoid construction and homomorphism.

For fixed inputs, the full structure constants (composition, scalar action,
identities) of each construction and the generator images of each
homomorphism are compared with tests/data/constructions.json, as is the
printed text of the benchmark corpus.  The inputs include non-commutative
rings (M2(F2), T2(F2), F2[S3]): a transposed table is the opposite ring,
which still validates clean, so only a literal comparison catches it.

A missing compose or action entry means the zero map, so tables are
compared with missing entries filled in as zeros.

Regenerate the data (only when a change of the tables is intended) with
    PYTHONPATH=src:tests python tests/test_constructions.py
"""

import functools
import importlib.util
import json
import os

import pytest

from conftest import compose_with, elementary_ringoid, symmetric3
from ringoids import (FiniteRingoid, FinGroup, GSet, Ideal, PiRing,
                      cyclic_ring, direct_sum, discrete_groupoid,
                      disjoint_union_gset, fibration_check, forget_units,
                      group_as_groupoid, group_ringoid, group_ringoid_tensor_iso,
                      ideal_moduloid, identity_hom, improper_ideal, matrix_ring,
                      naturality_check, product_ring, quotient, scalar_ringoid,
                      tensor, transport_groupoid, twisted_group_ringoid,
                      unitization_projection, unitization_splitting, unitize,
                      zero_ideal, zero_moduloid)
from ringoids.constructions import RingoidHom

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "constructions.json")


def _zero_table(hac, height, width):
    return tuple(tuple(hac.zero() for _ in range(width)) for _ in range(height))


def ringoid_tables(r):
    """The structure of r with every missing entry filled in as zero."""
    objs = r.objects
    compose = {}
    for a in objs:
        for b in objs:
            for c in objs:
                t = r.compose_table.get((a, b, c))
                if t is None:
                    t = _zero_table(r.hom(a, c), len(r.hom(b, c).moduli),
                                    len(r.hom(a, b).moduli))
                compose[repr((a, b, c))] = t
    action = None
    if r.scalar is not None:
        ro = r.scalar.objects[0]
        rk = len(r.scalar.hom(ro, ro).moduli)
        action = {}
        for a in objs:
            for b in objs:
                t = (r.action or {}).get((a, b))
                if t is None:
                    t = _zero_table(r.hom(a, b), rk, len(r.hom(a, b).moduli))
                action[repr((a, b))] = t
    return {
        "objects": [repr(a) for a in objs],
        "homs": {repr((a, b)): r.hom(a, b).moduli for a in objs for b in objs},
        "compose": compose,
        "action": action,
        "unital": r.unital,
        "identities": ({repr(a): r.identities[a] for a in objs}
                       if r.unital else None),
    }


def hom_images(f):
    """The object map and generator images of f (missing images are zero)."""
    images = {}
    for a in f.source.objects:
        for b in f.source.objects:
            imgs = f.gen_images.get((a, b))
            if imgs is None:
                tgt = f.target.hom(f.object_map[a], f.object_map[b])
                imgs = (tgt.zero(),) * len(f.source.hom(a, b).moduli)
            images[repr((a, b))] = imgs
    return {"object_map": {repr(a): repr(f.object_map[a]) for a in f.source.objects},
            "images": images}


def _over_f2(r, f2):
    """An F2-algebra as an F2-moduloid: the generator of F2 acts as 1."""
    action = {}
    for a in r.objects:
        for b in r.objects:
            hom = r.hom(a, b)
            action[(a, b)] = (tuple(hom.basis_element(j)
                                    for j in range(len(hom.moduli))),)
    return FiniteRingoid(r.objects, r.homs, r.compose_table,
                         identities=r.identities, scalar=f2, action=action,
                         name=r.name)


def _load_bench(name):
    path = os.path.join(os.path.dirname(HERE), "bench", name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _homs_named(run, names):
    """Run a computation and keep the homomorphisms it builds with the
    given names (for maps that are built and used inside one function)."""
    built = []
    original = RingoidHom.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    RingoidHom.__init__ = recording
    try:
        run()
    finally:
        RingoidHom.__init__ = original
    return [f for f in built if f.name in names]


def _cases():
    """Map of case name -> ringoid or homomorphism."""
    f2 = cyclic_ring(2, name="F2")
    f3 = cyclic_ring(3, name="F3")
    z4 = cyclic_ring(4, name="Z/4")
    bare_f2 = cyclic_ring(2, scalar=False)
    f2xf2 = product_ring(bare_f2, bare_f2, name="F2xF2")
    m2f2 = matrix_ring(bare_f2, 2)
    t2f2 = elementary_ringoid({"*": 2}, "T2(F2)",
                              {("*", "*"): [(0, 0), (0, 1), (1, 1)]})
    c2 = FinGroup.cyclic(2)
    c2g = group_as_groupoid(c2, name="C2")
    s3g = group_as_groupoid(symmetric3(), name="S3")
    free = GSet.regular(c2)
    point = GSet.trivial(c2)
    f2c2 = group_ringoid(c2g, f2)
    f2s3 = group_ringoid(s3g, f2)
    disc2 = group_ringoid(discrete_groupoid(("a", "b")), f2)
    m2f2_f2 = _over_f2(m2f2, f2)
    t2f2_f2 = _over_f2(t2f2, f2)
    z4f2 = product_ring(z4, f2, scalar=True, name="Z4xF2")
    ideal_two = FiniteRingoid(("a",), {("a", "a"): z4.hom("*", "*")},
                              {("a", "a", "a"): (((0,),),)}, scalar=z4.scalar,
                              action={("a", "a"): (((1,),),)}, unital=False,
                              name="(2)")
    ideals = {
        "Z/4 (2)": Ideal(z4, {("*", "*"): ((2,),)}),
        "Z/4 zero": zero_ideal(z4),
        "Z/4 improper": improper_ideal(z4),
        "Z4xF2 (2,1),(0,1),0": Ideal(z4f2, {("*", "*"): ((2, 1), (0, 1), (0, 0))}),
        "T2(F2) E01": Ideal(t2f2, {("*", "*"): ((0, 1, 0),)}),
        "T2(F2)/F2 E01": Ideal(t2f2_f2, {("*", "*"): ((0, 1, 0),)}),
        "F2[S3] norm": Ideal(f2s3, {("*", "*"): ((1,) * 6,)}),
        "disc2 at a": Ideal(disc2, {("a", "a"): ((1,),)}),
    }
    out = {
        "product_ring F2xF2": f2xf2,
        "product_ring Z/4xF3 scalar": product_ring(z4, f3, scalar=True),
        "product_ring M2(F2)xF2": product_ring(m2f2, bare_f2),
        "matrix_ring M2(F2)": m2f2,
        "matrix_ring M2(Z/4)": matrix_ring(z4, 2),
        "matrix_ring M2(F2xF2)": matrix_ring(f2xf2, 2),
        "direct_sum F2+F2": direct_sum(f2, f2),
        "direct_sum T2(F2)+M2(F2)": direct_sum(t2f2, m2f2),
        "direct_sum F2[S3]+F2[S3]": direct_sum(f2s3, f2s3),
        "direct_sum disc2+disc2": direct_sum(disc2, disc2),
        "scalar_ringoid Z/4 on a,b": scalar_ringoid(("a", "b"), z4),
        "unitize F2": unitize(forget_units(f2)),
        "unitize (2)": unitize(ideal_two),
        "unitize F2[S3]": unitize(forget_units(f2s3)),
        "unitize T2(F2)/F2": unitize(forget_units(t2f2_f2)),
        "unitize disc2": unitize(forget_units(disc2)),
        "unitize zero moduloid": unitize(zero_moduloid(("a", "b"), f2)),
        "pi (2)": unitization_projection(ideal_two),
        "pi disc2": unitization_projection(forget_units(disc2)),
        "tensor Z/4 (x)_Z F2": tensor(z4, f2).ringoid,
        "tensor Z/4 (x)_Z/4 Z/4": tensor(z4, z4, over=z4.scalar).ringoid,
        "tensor T2(F2) (x)_F2 F2C2": tensor(t2f2_f2, f2c2, over=f2).ringoid,
        "tensor F2C2 (x)_F2 disc2": tensor(f2c2, disc2, over=f2).ringoid,
        "tensor M2(F2) (x)_Z T2(F2)": tensor(m2f2, t2f2).ringoid,
        "group_ringoid F2[C2]": f2c2,
        "group_ringoid F2[disc3]": group_ringoid(discrete_groupoid(("a", "b", "c")), f2),
        "group_ringoid F2[free C2-orbit]": group_ringoid(transport_groupoid(free), f2),
        "group_ringoid F2[S3]": f2s3,
        "group_ringoid Z/4[C2]": group_ringoid(c2g, z4),
        "group_ringoid M2(F2)[C2]": group_ringoid(c2g, m2f2),
        "identity_hom F2[S3]": identity_hom(f2s3),
        "identity_hom disc2": identity_hom(disc2),
    }
    swap = PiRing(c2g, {"*": f2xf2}, {0: ((1, 0), (0, 1)), 1: ((0, 1), (1, 0))})
    out["twisted_group_ringoid C2 swap F2xF2"] = twisted_group_ringoid(c2g, swap)
    out["twisted_group_ringoid C2 constant F2xF2"] = twisted_group_ringoid(
        c2g, PiRing.constant(c2g, f2xf2))
    out["twisted_group_ringoid free C2-orbit constant M2(F2)"] = twisted_group_ringoid(
        transport_groupoid(free), PiRing.constant(transport_groupoid(free), m2f2))
    for name, ideal in ideals.items():
        q, qhom = quotient(ideal.parent, ideal)
        sub, incl = ideal_moduloid(ideal)
        out["quotient " + name] = q
        out["quot " + name] = qhom
        out["ideal_moduloid " + name] = sub
        out["incl " + name] = incl
        out["compose_with quot.incl " + name] = compose_with(qhom, incl)
    for name, m in (("Z/4", z4), ("M2(F2)/F2", m2f2_f2), ("F2[S3]", f2s3),
                    ("disc2", disc2)):
        sp = unitization_splitting(m)
        out["splitting msum " + name] = sp.msum
        out["splitting mplus " + name] = sp.mplus
        out["splitting rm " + name] = sp.rm
        out["alpha " + name] = sp.alpha
        out["alpha^-1 " + name] = sp.alpha_inv
        out["pi' " + name] = sp.projection_sum
        out["pi+ " + name] = sp.projection_plus
        out["compose_with alpha^-1.alpha " + name] = compose_with(sp.alpha_inv, sp.alpha)
    for name, pi, scalar in (("C2 F2", c2g, f2), ("C2 Z/4", c2g, z4),
                             ("S3 F2", s3g, f2),
                             ("free C2-orbit F2", transport_groupoid(free), f2)):
        iso = group_ringoid_tensor_iso(pi, scalar)
        out["theta target " + name] = iso.tensor_product.ringoid
        out["theta " + name] = iso.theta
    for name, ideal in (("Z/4 (2)", ideals["Z/4 (2)"]),
                        ("Z/4 improper", ideals["Z/4 improper"]),
                        ("T2(F2)/F2 E01", ideals["T2(F2)/F2 E01"])):
        [jplus] = _homs_named(lambda: fibration_check(ideal.parent, ideal, 2),
                              {"J+ -> M"})
        out["J+ -> M " + name] = jplus
    two_free = disjoint_union_gset(free, free)
    fold = {("L", p): p for p in free.points}
    fold.update({("R", p): p for p in free.points})
    for name, f, xs, ys in (("fold", fold, two_free, free),
                            ("projection", {x: "pt" for x in free.points}, free, point),
                            ("identity", {x: x for x in free.points}, free, free)):
        [rf] = _homs_named(lambda: naturality_check(f, xs, ys, f2, 2), {"R(f)"})
        out["R(f) " + name] = rf
    return out


def snapshot():
    tables = {}
    for name, value in _cases().items():
        tables[name] = (hom_images(value) if isinstance(value, RingoidHom)
                        else ringoid_tables(value))
    return json.loads(json.dumps({"tables": tables,
                                  "corpus": _load_bench("corpus").build()}))


def _golden():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _golden() if os.path.exists(DATA) else {"tables": {}, "corpus": {}}


@functools.lru_cache(maxsize=None)
def _current():
    return snapshot()


def test_same_cases():
    assert sorted(_current()["tables"]) == sorted(GOLDEN["tables"])


@pytest.mark.parametrize("name", sorted(GOLDEN["tables"]))
def test_construction_tables(name):
    assert _current()["tables"].get(name) == GOLDEN["tables"][name]


def test_corpus_text():
    assert _current()["corpus"] == GOLDEN["corpus"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    data = snapshot()
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for section in ("tables", "corpus"):
            fh.write('"%s": {\n' % section)
            items = sorted(data[section].items())
            fh.write(",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, separators=(",", ":")))
                                for k, v in items))
            fh.write("\n}%s\n" % ("," if section == "tables" else ""))
        fh.write("}\n")
