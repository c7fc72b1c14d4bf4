"""Exact computational algebra for commutative regular rings built from
finite fields and finite Boolean rings: step-function rings, their canonical
product decomposition, contractive and polynomial self-maps, and the
landmark constructions separating the finiteness conditions on residue
fields.

Importing the package loads none of its modules: each exported name, and
each library submodule, is imported on first access.
"""

from importlib import import_module

# exported name -> the module it comes from, in `__all__` order
_EXPORTS = {name: module for module, names in (
    ("boolean", "BooleanRing BoolElem PrimeIdeal is_partition_of_unity"),
    ("errors", "CapExceeded ParseError VerificationError"),
    ("fields", "GF FieldElem FiniteField FieldEmbedding embed field_embedding finite_field "
               "lagrange_interpolate"),
    ("gallery", "FieldAssignment KernelReport SequenceReport TowerReport TowerRing "
                "VraciuReport gf4_kernel_check gf4_sequence_demo tower_build tower_verify "
                "vraciu_build"),
    ("polymaps", "BoundReport IterationCertificate MapTable PolyMap commutes_with_conv "
                 "contractive_maps contractive_to_polynomial is_contractive is_polynomial "
                 "iteration_orbit polynomial_witness_bruteforce quotient_order_bound "
                 "random_polymap support_exponent"),
    ("products", "CharBlock FieldClass ProductElem ProductRing RingSignature StructureWitness "
                 "SubringPresentation char_decompose decompose_finite_reduced "
                 "full_presentation generated_subring iso_test residue_field_signature "
                 "ring_char ring_from_signature structure_decompose"),
    ("stepfun", "ConvexCombination CoverReport StepElem StepRing check_residue_cover"),
    ("products", "extract_combination"),
    ("textio", "Workspace"),
) for name in names.split()}
_SUBMODULES = frozenset({"boolean", "errors", "fields", "gallery", "polymaps", "products",
                         "stepfun", "textio", "zmodpoly"})

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
