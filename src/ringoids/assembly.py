"""Degree-zero assembly maps.

The degree-zero content of the assembly map is component bookkeeping: the
source is one copy of K0(R) per connected component of the groupoid (one
copy of K0(R[H]) per orbit in the equivariant case), and the map sends the
canonical generator of each summand to the class of the chosen object in
the group ringoid of the whole groupoid.  Isomorphy is decided exactly on
the presented groups.
"""

from __future__ import annotations

from .additive import DEFAULT_CEILING
from .groupoids import (group_as_groupoid, group_ringoid, group_ringoid_map,
                        orbit_skeleton, transport_groupoid)
from .intlinalg import (AbPresentation, apply_rows, exponent_row,
                        hom_well_defined)
from .ktheory import k0_bounded, k0_induced
from .ringoid import StructuralError


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
        self.matrix = [list(r) for r in matrix]
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


class NaturalityReport:
    __slots__ = ("assembly_source", "assembly_target", "source_map",
                 "target_map", "commutes", "undecided")

    def __init__(self, assembly_source, assembly_target, source_map,
                 target_map, commutes, undecided):
        self.assembly_source = assembly_source
        self.assembly_target = assembly_target
        self.source_map = [list(r) for r in source_map]
        self.target_map = target_map
        self.commutes = commutes
        self.undecided = undecided


def equivariant_map_is_valid(f, xs, ys):
    """f: X -> Y commutes with the action."""
    for x in xs.points:
        if f[x] not in ys.points:
            return False
        for g in range(len(xs.group)):
            if f[xs.apply(x, g)] != ys.apply(f[x], g):
                return False
    return True


def naturality_check(f, xs, ys, scalar, bound, ceiling=DEFAULT_CEILING):
    """Commutativity of the degree-zero naturality square for a G-map
    f: X -> Y (given as a dict on points): assembly after the induced
    source map equals the induced target map after assembly, as maps into
    the presented K0 of the target transport ringoid."""
    if xs.group is not ys.group:
        raise StructuralError("naturality needs G-sets over the same group")
    if not equivariant_map_is_valid(f, xs, ys):
        raise StructuralError("the map is not equivariant")
    ax = equivariant_assembly_zero(xs, scalar, bound, ceiling=ceiling)
    ay = equivariant_assembly_zero(ys, scalar, bound, ceiling=ceiling)
    bar_x = transport_groupoid(xs)
    bar_y = transport_groupoid(ys)
    ring_x = group_ringoid(bar_x, scalar)
    ring_y = group_ringoid(bar_y, scalar)
    # induced map on the transport ringoids: x -> f(x), (x, g) -> (f(x), g)
    rf = group_ringoid_map(ring_x, ring_y, bar_x, bar_y, f,
                           lambda mid: (f[mid[0]], mid[1]), name="R(f)")
    target_map = k0_induced(rf, ax.target, ay.target)

    # induced map on source summands: orbit of X -> orbit of its image in Y,
    # one generator to one generator (the free rank-1 class maps to the free
    # rank-1 class under the conjugated group-ring inclusion)
    comps_x = ax.components
    comps_y = ay.components
    offsets_y = []
    pos = 0
    for res in ay.source_summands:
        offsets_y.append(pos)
        pos += len(res.gen_labels)
    n_src_y = pos
    source_map = []
    for comp, res in zip(comps_x, ax.source_summands):
        image_pt = f[comp.base]
        cj = next(j for j, cy in enumerate(comps_y) if image_pt in cy.objects)
        source_map += [exponent_row(range(n_src_y), [offsets_y[cj]])
                       for _ in res.gen_labels]
    # compare the two composites modulo the target relation lattice
    n_tgt = len(ay.target.gen_labels)
    diffs = []
    for i in range(len(source_map)):
        via_source = apply_rows(source_map[i], ay.matrix, n_tgt)
        via_target = target_map.apply(ax.matrix[i])
        diff = [p - q for p, q in zip(via_source, via_target)]
        if any(diff):
            diffs.append(diff)
    commutes = all(ay.target.presentation.kills(diffs))
    undecided = ax.undecided or ay.undecided
    return NaturalityReport(ax, ay, source_map, target_map, commutes, undecided)
