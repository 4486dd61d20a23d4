"""Exact computational homological algebra for graded algebras:
Hochschild cohomology, Tor terms from a Gröbner basis and its Anick
chains, and replayable intrinsic formality certificates.

Every command runs in a fresh interpreter, so importing the package
executes only this file and `errors`. Each computational submodule is
registered in `sys.modules` and on the package as a lazy module
(`importlib.util.LazyLoader`) and executes on its first attribute
access; `formalitykit.cli` thus executes only the modules a command
calls. The public names below resolve from their home modules on first
use. Before Python 3.13 a lazy module takes no lock while it executes:
a program that shares the package across threads should import the
submodules it uses before it starts them.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

_LAZY = ("record", "fields", "linalg", "configurations", "graded", "hochschild", "groebner",
         "presentations", "formality")

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("DEFAULT_MAX_WORDS", "InputValidationError", "NonExactResolutionError",
                    "ResourceCapError", "TruncationError")),
        ("fields", ("FieldSpec", "PrimeField", "Rationals", "RATIONALS", "RATIONALS_SPEC")),
        ("configurations", ("ConfigGraph", "EdgeData", "PoincarePolynomial", "graded_power",
                            "kunneth_hom", "normalize_shifts", "normalized_edge_degrees",
                            "sign_assignment")),
        ("graded", ("GradedAlgebra", "algebra_from_json_dict", "algebra_to_json_dict",
                    "block_structure", "build_configuration_algebra", "detect_idempotents",
                    "truncated_poly", "validate")),
        ("hochschild", ("HHResult", "PeriodicResolutionSpec", "bar_chain_slice", "hh_bar",
                        "hh_resolution", "kadeishvili_scan", "nonempty_internal_degrees",
                        "periodic_spec_truncated_poly", "validate_periodic_spec")),
        ("presentations", ("Generator", "TensorPresentation", "configuration_presentation",
                           "presentation_from_json_dict", "presentation_to_json_dict",
                           "single_generator_presentation", "tor_term")),
        ("formality", ("FormalityCertificate", "RecheckReport", "certify_config_pn",
                       "certify_config_spherical", "certify_single", "cy_normalize",
                       "verify_certificate")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
