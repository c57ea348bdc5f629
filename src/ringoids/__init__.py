"""Finite ringoids and moduloids, their additive completions, and the
decidable shadows of their K-theory: bounded K0 by Grothendieck completion,
bounded K1 by GL abelianization, a nerve-based fundamental-group oracle,
and degree-zero assembly maps.  Exact integer arithmetic throughout.

Every operation is pure and every value is immutable after construction,
apart from caches filled once and idempotently (a ringoid's composition
tables, its completion, its Krull-Schmidt decompositions and its iso-class
tables), so everything here is thread-safe.

The names below resolve on first use (PEP 562): `ringoids.k0_bounded`
imports `ringoids.ktheory` and caches the name in this module, so a
program compiles only the modules it uses.  That cache is filled once and
idempotently like the others, and the imports hold the import lock, so
thread-safety is unchanged.  Submodules (`ringoids.ktheory`, ...) resolve
as attributes the same way.
"""

import importlib

# Each submodule and the names this package exports from it.
_EXPORTS = {
    "intlinalg": ("AbPresentation",),
    "lattice": ("IntMatrix", "smith_normal_form"),
    "abgroup": ("FinAbGroup",),
    "groups": ("FinGroup", "abelianization"),
    "ringoid": ("AxiomFailure", "FiniteRingoid", "StructuralError",
                "ValidationReport", "enumerate_objsums", "validate"),
    "constructions": ("RingoidHom", "cyclic_ring", "direct_sum",
                      "forget_units", "identity_hom", "matrix_ring",
                      "one_object_ringoid", "product_ring",
                      "ringoid_equal_structure", "validate_hom",
                      "with_self_scalar", "zero_moduloid", "zero_ring"),
    "krullschmidt": ("Undecided", "iso_class_table"),
    "additive": ("AdditiveView", "IsoWitness", "MatMorphism", "complete",
                 "map_completion"),
    "moduloids": ("GroupQuotient", "Ideal", "IdealError", "TensorProduct",
                  "ideal_moduloid", "improper_ideal", "quotient",
                  "scalar_ringoid", "tensor", "tensor_group",
                  "unitization_projection", "unitization_splitting",
                  "unitize", "validate_ideal", "zero_ideal"),
    "groupoids": ("FinGroupoid", "GSet", "disjoint_union_gset",
                  "discrete_groupoid", "group_as_groupoid", "group_ringoid",
                  "orbit_skeleton", "transport_groupoid", "validate_groupoid"),
    "ktheory": ("KZeroResult", "k0_bounded", "k0_induced"),
    "k1": ("KOneResult", "gl", "gl_order", "k1_bounded"),
    "relative": ("RelativeKZeroResult", "cofinality_check",
                 "fibration_check", "idem_classes", "k0_relative"),
    "nerve": ("check_simplicial_identities", "degeneracy", "face",
              "k0_via_nerve", "oracle_compare"),
    "assembly": ("AssemblyZeroMap", "assembly_zero",
                 "equivariant_assembly_zero"),
    "theorems": ("PiRing", "PiRingError", "exterior_product",
                 "group_ringoid_tensor_iso", "naturality_check",
                 "twisted_group_ringoid", "validate_pi_ring"),
    "rgd": ("RGDDocument", "RGDSemanticError", "RGDSyntaxError",
            "parse_rgd"),
    "rgdsections": (),
    "rgdprint": ("document_from", "print_rgd"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
