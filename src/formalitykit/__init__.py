"""Exact computational homological algebra for graded algebras:
Hochschild cohomology, Tor terms from a Gröbner basis and its Anick
chains, and replayable intrinsic formality certificates."""

__version__ = "0.1.0"

from .errors import (
    InputValidationError,
    NonExactResolutionError,
    ResourceCapError,
    TruncationError,
    ZeroGradedObjectError,
)
from .fields import FieldSpec, PrimeField, Rationals, RATIONALS, RATIONALS_SPEC
from .configurations import (
    ConfigGraph,
    EdgeData,
    PoincarePolynomial,
    graded_power,
    kunneth_hom,
    normalize_shifts,
    normalized_edge_degrees,
    sign_assignment,
)
from .graded import (
    GradedAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    block_structure,
    build_configuration_algebra,
    detect_idempotents,
    maxdeg,
    mindeg,
    truncated_poly,
    validate,
)
from .hochschild import (
    DEFAULT_MAX_WORDS,
    HHResult,
    PeriodicResolutionSpec,
    bar_chain_slice,
    cochain_dim,
    hh_bar,
    hh_resolution,
    kadeishvili_scan,
    nonempty_internal_degrees,
    periodic_spec_truncated_poly,
    validate_periodic_spec,
)
from .presentations import (
    Generator,
    TensorPresentation,
    configuration_presentation,
    mindeg_bound,
    presentation_from_json_dict,
    presentation_to_json_dict,
    single_generator_presentation,
    tor_term,
)
from .formality import (
    FormalityCertificate,
    RecheckReport,
    certify_config_pn,
    certify_config_spherical,
    certify_single,
    cy_normalize,
    verify_certificate,
)
