"""The package root: its public names, and the cold path of a command.

Every command runs in a fresh interpreter, so the root registers the
computational submodules lazily. A registered module that has not
executed is still a LazyLoader module; attribute access, `vars()`
included, executes it and turns it into a plain module. These tests
read which modules executed off `type(module) is types.ModuleType` in a
fresh interpreter, without touching the others."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import formalitykit
from formalitykit.configurations import ConfigGraph
from formalitykit.formality import certify_single
from formalitykit.graded import algebra_to_json_dict, build_configuration_algebra
from formalitykit.presentations import presentation_to_json_dict, single_generator_presentation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public names of the package root, by home module
EXPORTS = {
    "errors": ("DEFAULT_MAX_WORDS", "InputValidationError", "NonExactResolutionError",
               "ResourceCapError", "TruncationError"),
    "fields": ("FieldSpec", "PrimeField", "Rationals", "RATIONALS", "RATIONALS_SPEC"),
    "configurations": ("ConfigGraph", "EdgeData", "PoincarePolynomial", "graded_power",
                       "kunneth_hom", "normalize_shifts", "normalized_edge_degrees",
                       "sign_assignment"),
    "graded": ("GradedAlgebra", "algebra_from_json_dict", "algebra_to_json_dict",
               "block_structure", "build_configuration_algebra", "detect_idempotents",
               "truncated_poly", "validate"),
    "hochschild": ("HHResult", "PeriodicResolutionSpec", "bar_chain_slice", "hh_bar",
                   "hh_resolution", "kadeishvili_scan", "nonempty_internal_degrees",
                   "periodic_spec_truncated_poly", "validate_periodic_spec"),
    "presentations": ("Generator", "TensorPresentation", "configuration_presentation",
                      "presentation_from_json_dict", "presentation_to_json_dict",
                      "single_generator_presentation", "tor_term"),
    "formality": ("FormalityCertificate", "RecheckReport", "certify_config_pn",
                  "certify_config_spherical", "certify_single", "cy_normalize",
                  "verify_certificate"),
}
PUBLIC = [(home, name) for home, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("home,name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_public_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"formalitykit.{home}")
    assert getattr(formalitykit, name) is getattr(module, name)


def test_all_lists_exactly_the_public_names():
    assert sorted(formalitykit.__all__) == sorted(name for _, name in PUBLIC)
    assert len(formalitykit.__all__) == len(set(formalitykit.__all__)) == 49


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from formalitykit import *", namespace)
    for home, name in PUBLIC:
        assert namespace[name] is getattr(importlib.import_module(f"formalitykit.{home}"), name)


def test_dir_shows_every_public_name_and_submodule():
    listed = set(dir(formalitykit))
    assert {name for _, name in PUBLIC} <= listed
    assert set(EXPORTS) | {"record", "linalg", "groebner", "__version__"} <= listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        formalitykit.no_such_name
    with pytest.raises(ImportError):
        exec("from formalitykit import no_such_name", {})


def test_default_word_cap_lives_beside_the_resource_cap_error():
    from formalitykit import errors, hochschild

    assert formalitykit.DEFAULT_MAX_WORDS == 2_000_000
    assert hochschild.DEFAULT_MAX_WORDS is errors.DEFAULT_MAX_WORDS


def test_submodules_are_registered_once():
    for name in ("record", "fields", "linalg", "configurations", "graded", "hochschild",
                 "groebner", "presentations", "formality", "errors"):
        assert getattr(formalitykit, name) is sys.modules[f"formalitykit.{name}"]


# -- the cold path -------------------------------------------------------------

ALWAYS = ("formalitykit", "formalitykit.cli", "formalitykit.errors")
HH = ("record", "fields", "configurations", "graded", "hochschild", "linalg")
TOR = ("record", "fields", "configurations", "presentations", "groebner", "linalg")
CERTIFY = ("record", "formality")
GRAPH = ("record", "fields", "configurations")
BUILD = ("record", "fields", "configurations", "graded")

# (id, argv with {file} placeholders, exit code, modules executed besides ALWAYS)
COMMANDS = [
    ("hh", ["hh", "--algebra", "{algebra}", "--p", "2", "--q", "0"], 0, HH),
    ("scan", ["scan", "--algebra", "{algebra}", "--qmax", "3"], 0, HH),
    ("tor", ["tor", "--pres", "{pres}", "--q", "2"], 0, TOR),
    ("certify", ["certify", "single", "--n", "2", "--k", "2"], 0, CERTIFY),
    ("recheck", ["recheck", "--cert", "{cert}"], 0, CERTIFY),
    ("sweep", ["sweep", "pn", "--n", "1..3", "--k", "2"], 0, CERTIFY),
    ("normalize", ["normalize", "--graph", "{graph}", "--nk", "4"], 0, GRAPH),
    ("signs", ["signs", "--graph", "{graph}"], 0, GRAPH),
    ("kunneth", ["kunneth", "--poincare", "{poincare}", "--n", "2", "--same"], 0, GRAPH),
    ("build-config", ["build-config", "--graph", "{graph}", "--n", "2", "--k", "2", "--h", "2"],
     0, BUILD),
    ("usage-error", ["hh", "--p", "x"], 2, ()),
]

EXECUTED = """
import io, json, sys, types
sys.path.insert(0, {src!r})
import formalitykit.cli
argv = {argv!r}
code = formalitykit.cli.dispatch(argv, stdout=io.StringIO()) if argv is not None else None
print(json.dumps([code, sorted(name for name, module in sys.modules.items()
                               if name.partition(".")[0] == "formalitykit"
                               and type(module) is types.ModuleType)]))
"""


def executed(argv=None):
    """(exit code, modules that executed) of a fresh interpreter that
    imports formalitykit.cli and, given argv, dispatches it once."""
    out = subprocess.run([sys.executable, "-S", "-c", EXECUTED.format(src=SRC, argv=argv)],
                         capture_output=True, text=True, check=True, timeout=120)
    code, names = json.loads(out.stdout)
    return code, set(names)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cold")
    graph = {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a_uv": 2, "a_vu": 2, "d": 2}]}
    data = {
        "graph": graph,
        "algebra": algebra_to_json_dict(build_configuration_algebra(
            ConfigGraph.from_json_dict(graph), 2, 2, 2)),
        "pres": presentation_to_json_dict(single_generator_presentation(2, 2, 12)),
        "cert": certify_single(2, 2).to_json_dict(),
        "poincare": {"components": [{"degree": 0, "dim": 1}, {"degree": 2, "dim": 2}]},
    }
    paths = {}
    for name, value in data.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(value))
        paths[name] = str(path)
    return paths


def test_importing_the_cli_executes_no_computational_module():
    assert executed() == (None, set(ALWAYS))


@pytest.mark.parametrize("argv,code,modules", [c[1:] for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_a_command_executes_only_the_modules_it_calls(inputs, argv, code, modules):
    argv = [arg.format(**inputs) for arg in argv]
    assert executed(argv) == (code, set(ALWAYS) | {f"formalitykit.{m}" for m in modules})
