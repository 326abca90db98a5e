"""Exact chain-level calculator for the surjection operad and spineless cacti.

Everything is computed with exact integer coefficients: operadic
composition with Koszul signs, the differential, the cactus filtration
and lobe trees, and the homotopy-associative structure on the
symmetrized product, together with verifiers for each identity the
structure rests on.
"""

from .ainfty import (
    a_infinity_boundary_image,
    a_infinity_image,
    a_infinity_sign,
    all_words,
    black_op,
    check_insertion_composition,
    check_top_insertion_identities,
    check_word_boundary_compat,
    splice,
    splice_decompositions,
    white_op,
    word_boundary_image,
    word_image,
)
from .cacti import (
    LobeTree,
    avoids_prime_patterns,
    cactus_violation,
    enumerate_basis,
    filtration_level,
    flatten_lobe_tree,
    is_cactus,
    length_cap,
    lobe_tree,
    max_pair_alternation,
    prime_cacti,
    prime_cacti_count,
    prime_cacti_filtered,
)
from .elements import Element, as_element
from .errors import (
    CactusOpsError,
    DegenerateError,
    LobeOutOfRangeError,
    MaxValueNotUniqueError,
    NonPositiveError,
    NotACactusError,
    NotHomogeneousError,
    NotSurjectiveError,
    OutOfRangeError,
    ParseError,
    ResourceBoundError,
    WordError,
)
from .formats import (
    RenderSpec,
    element_from_json,
    element_to_json,
    parse_element,
    parse_surjection,
    render_lobe_tree,
    serialize_element,
)
from .operad import (
    UNIT,
    boundary,
    boundary_basis,
    check_derivation,
    check_operad_axioms,
    compose,
    compose_basis,
    composition_splits,
    koszul_sign,
)
from .reports import VerificationReport
from .surjections import (
    Surjection,
    insert_top_lobe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Surjection",
    "insert_top_lobe",
    "Element",
    "as_element",
    "VerificationReport",
    "UNIT",
    "composition_splits",
    "koszul_sign",
    "compose_basis",
    "compose",
    "boundary_basis",
    "boundary",
    "check_operad_axioms",
    "check_derivation",
    "LobeTree",
    "lobe_tree",
    "flatten_lobe_tree",
    "is_cactus",
    "cactus_violation",
    "filtration_level",
    "max_pair_alternation",
    "enumerate_basis",
    "prime_cacti",
    "prime_cacti_filtered",
    "prime_cacti_count",
    "avoids_prime_patterns",
    "length_cap",
    "all_words",
    "white_op",
    "black_op",
    "word_image",
    "a_infinity_image",
    "a_infinity_sign",
    "splice",
    "splice_decompositions",
    "word_boundary_image",
    "a_infinity_boundary_image",
    "check_top_insertion_identities",
    "check_insertion_composition",
    "check_word_boundary_compat",
    "parse_surjection",
    "parse_element",
    "serialize_element",
    "element_to_json",
    "element_from_json",
    "RenderSpec",
    "render_lobe_tree",
    "CactusOpsError",
    "NonPositiveError",
    "DegenerateError",
    "NotSurjectiveError",
    "OutOfRangeError",
    "LobeOutOfRangeError",
    "NotHomogeneousError",
    "MaxValueNotUniqueError",
    "NotACactusError",
    "ResourceBoundError",
    "ParseError",
    "WordError",
]
