"""Finite ringoids and moduloids, their additive completions, and the
decidable shadows of their K-theory: bounded K0 by Grothendieck completion,
bounded K1 by GL abelianization, a nerve-based fundamental-group oracle,
and degree-zero assembly maps.  Exact integer arithmetic throughout.

Every operation is pure and every value is immutable after construction,
apart from caches filled once and idempotently (a ringoid's composition
tables and its completion), so everything here is thread-safe.
"""

from .intlinalg import (AbPresentation, IntMatrix, cokernel, determinant,
                        smith_normal_form)
from .abgroup import FinAbGroup, GroupQuotient, tensor_group
from .groups import FinGroup, abelianization
from .ringoid import (AxiomFailure, FiniteRingoid, RingoidHom, StructuralError,
                      ValidationReport, cyclic_ring, direct_sum, forget_units,
                      identity_hom, matrix_ring, one_object_ringoid,
                      product_ring, ringoid_equal_structure, validate,
                      validate_hom, with_self_scalar, zero_moduloid, zero_ring)
from .additive import (AdditiveView, IsoClassTable, IsoWitness, MatMorphism,
                       Undecided, complete, enumerate_objsums,
                       iso_class_table, map_completion)
from .moduloids import (Ideal, IdealError, TensorProduct, ideal_moduloid,
                        improper_ideal, quotient, scalar_ringoid, tensor,
                        unitization_projection, unitization_splitting, unitize,
                        validate_ideal, zero_ideal)
from .groupoids import (FinGroupoid, GSet, PiRing, PiRingError,
                        disjoint_union_gset, discrete_groupoid,
                        group_as_groupoid, group_ringoid,
                        group_ringoid_tensor_iso, hom_is_bijective_everywhere,
                        orbit_skeleton, transport_groupoid,
                        twisted_group_ringoid, validate_groupoid,
                        validate_pi_ring)
from .ktheory import (CeilingExceeded, KOneResult, KZeroResult,
                      RelativeKZeroResult, cofinality_check, exterior_product,
                      fibration_check, gl, gl_order, idem_classes,
                      k0_bounded, k0_induced, k0_relative, k1_bounded)
from .nerve import (NerveLevel, check_simplicial_identities, degeneracy, face,
                    k0_via_nerve, oracle_compare)
from .assembly import (AssemblyZeroMap, assembly_zero,
                       equivariant_assembly_zero, naturality_check)
from .rgd import (RGDDocument, RGDSemanticError, RGDSyntaxError, document_from,
                  parse_rgd, print_rgd)

__version__ = "0.1.0"
