"""Degree-zero assembly maps.

The degree-zero content of the assembly map is component bookkeeping: the
source is one copy of K0(R) per connected component of the groupoid (one
copy of K0(R[H]) per orbit in the equivariant case), and the map sends the
canonical generator of each summand to the class of the chosen object in
the group ringoid of the whole groupoid.  Isomorphy is decided exactly on
the presented groups.  The naturality square of the equivariant map is
checked by `theorems.naturality_check`.
"""

from __future__ import annotations

from .groupoids import (group_as_groupoid, group_ringoid, orbit_skeleton,
                        transport_groupoid)
from .intlinalg import AbPresentation, exponent_row, hom_well_defined
from .ktheory import k0_bounded
from .ringoid import DEFAULT_CEILING, StructuralError


class AssemblyZeroMap:
    """Matrix of the degree-zero assembly map, with its source decomposition
    and an exact isomorphy verdict."""

    __slots__ = ("components", "source_summands", "source_presentation",
                 "target", "matrix", "well_defined", "iso", "undecided")

    def __init__(self, components, source_summands, source_presentation,
                 target, matrix, well_defined, iso, undecided):
        self.components = components
        self.source_summands = list(source_summands)
        self.source_presentation = source_presentation
        self.target = target
        self.matrix = list(matrix)
        self.well_defined = well_defined
        self.iso = iso
        self.undecided = undecided

    def __repr__(self):
        return "AssemblyZeroMap(%s -> %s, iso=%r)" % (
            self.source_presentation, self.target.presentation, self.iso)


def _assemble(components, summand_results, target_ringoid, target_result):
    """The map sending every generator of the summand of a component to the
    class of the component's chosen object."""
    source_pres = AbPresentation.zero()
    for res in summand_results:
        source_pres = source_pres.direct_sum(res.presentation)
    index = {a: j for j, a in enumerate(target_ringoid.objects)}
    matrix = [exponent_row(index, [comp.base])
              for comp, res in zip(components, summand_results)
              for _ in res.gen_labels]
    target = target_result.presentation
    ok = hom_well_defined(source_pres, target, matrix)[0]
    # hom_is_isomorphism, with well-definedness computed once
    iso = ok and source_pres == target and target.generated_by(matrix)
    undecided = target_result.undecided or any(r.undecided for r in summand_results)
    return AssemblyZeroMap(components, summand_results, source_pres,
                           target_result, matrix, ok, iso, undecided)


def assembly_zero(pi, scalar, bound, ceiling=DEFAULT_CEILING):
    """Degree-zero assembly for a groupoid pi and ring R: a copy of K0(R)
    per connected component, sent to the class of the chosen object."""
    ringoid = group_ringoid(pi, scalar)
    ringoid_result = k0_bounded(ringoid, bound, ceiling=ceiling)
    components = orbit_skeleton(pi)
    k0r = k0_bounded(scalar, bound, ceiling=ceiling)
    return _assemble(components, [k0r] * len(components), ringoid,
                     ringoid_result)


def equivariant_assembly_zero(gset, scalar, bound, ceiling=DEFAULT_CEILING):
    """Degree-zero Davis-Lueck style assembly for a finite G-set: the source
    is one copy of K0(R[H_orbit]) per orbit (H the vertex group at the chosen
    point), mapped through the full-subgroupoid inclusion."""
    rep = gset.validate()
    if not rep.ok:
        raise StructuralError("invalid G-set: %r" % (rep,))
    bar = transport_groupoid(gset)
    ringoid = group_ringoid(bar, scalar)
    target = k0_bounded(ringoid, bound, ceiling=ceiling)
    components = orbit_skeleton(bar)
    summand_results = []
    for comp in components:
        vertex_groupoid = group_as_groupoid(comp.vertex_group,
                                            name="H@%s" % (comp.base,))
        vring = group_ringoid(vertex_groupoid, scalar)
        summand_results.append(k0_bounded(vring, bound, ceiling=ceiling))
    return _assemble(components, summand_results, ringoid, target)
