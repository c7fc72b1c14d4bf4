"""Exact computational algebra for commutative regular rings built from
finite fields and finite Boolean rings: step-function rings, their canonical
product decomposition, contractive and polynomial self-maps, and the
landmark constructions separating the finiteness conditions on residue
fields."""

from .boolean import BooleanRing, BoolElem, PrimeIdeal, is_partition_of_unity
from .errors import CapExceeded, ParseError, VerificationError
from .fields import (GF, FieldElem, FiniteField, FieldEmbedding, embed,
                     field_embedding, finite_field, lagrange_interpolate)
from .gallery import (FieldAssignment, KernelReport, SequenceReport, TowerReport,
                      TowerRing, VraciuReport, gf4_kernel_check, gf4_sequence_demo,
                      tower_build, tower_verify, vraciu_build)
from .polymaps import (BoundReport, IterationCertificate, MapTable, PolyMap,
                       commutes_with_conv, contractive_maps, contractive_to_polynomial,
                       is_contractive, is_polynomial, iteration_orbit,
                       polynomial_witness_bruteforce, quotient_order_bound,
                       random_polymap, support_exponent)
from .products import (CharBlock, FieldClass, ProductElem, ProductRing, RingSignature,
                       StructureWitness, SubringPresentation, char_decompose,
                       decompose_finite_reduced, full_presentation, generated_subring,
                       iso_test, residue_field_signature, ring_char,
                       ring_from_signature, structure_decompose)
from .stepfun import ConvexCombination, CoverReport, StepElem, StepRing
from .products import check_residue_cover, extract_combination
from .textio import Workspace

__version__ = "0.1.0"
