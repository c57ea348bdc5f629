"""Write the benchmark corpus of .rgd files, built with the library's own
builders and printed with ``print_rgd``.

Usage: python bench/corpus.py OUT_DIR   (with the library's src/ on sys.path)

K0 and K1 inputs are written without their scalar ring.  A group ringoid
carries its coefficient ring as scalar, so ``document_from`` would print
that ring as the first section, and the CLI reads the first ringoid of a
file: ``k0`` on the discrete groupoid over F2 would silently compute K0(F2).
"""

from __future__ import annotations

import os
import sys

from ringoids import (FiniteRingoid, FinGroup, GSet, cyclic_ring,
                      discrete_groupoid, document_from, group_as_groupoid,
                      group_ringoid, matrix_ring, print_rgd, product_ring,
                      transport_groupoid)


def _scalar_free(r, name):
    """The same ringoid under ``name``, with no scalar ring or action."""
    return FiniteRingoid(r.objects, r.homs, r.compose_table,
                         identities=r.identities, unital=r.unital, name=name)


def build():
    """Map of file stem -> RGD text."""
    f2 = cyclic_ring(2, name="F2")
    c2 = FinGroup.cyclic(2)
    c2_groupoid = group_as_groupoid(c2, name="C2")
    bare_f2 = cyclic_ring(2, scalar=False)
    rings = {
        "f2": f2,
        "f3": cyclic_ring(3, name="F3"),
        "z4": cyclic_ring(4, name="Z4"),
        "f2xf2": _scalar_free(product_ring(bare_f2, bare_f2), "F2xF2"),
        "m2f2": _scalar_free(matrix_ring(bare_f2, 2), "M2F2"),
        "f2c2": _scalar_free(group_ringoid(c2_groupoid, f2), "F2C2"),
        "disc2": _scalar_free(
            group_ringoid(discrete_groupoid(("a", "b")), f2), "disc2"),
        "disc3": _scalar_free(
            group_ringoid(discrete_groupoid(("a", "b", "c")), f2), "disc3"),
        "c2free": _scalar_free(
            group_ringoid(transport_groupoid(GSet.regular(c2)), f2), "c2free"),
    }
    out = {stem: print_rgd(document_from(ringoids=[r]))
           for stem, r in rings.items()}
    out["assembly"] = print_rgd(document_from(
        ringoids=[f2], groupoids=[c2_groupoid], gsets=[GSet.regular(c2)]))
    return out


def write(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for stem, text in build().items():
        with open(os.path.join(out_dir, stem + ".rgd"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: corpus.py OUT_DIR")
    write(sys.argv[1])
