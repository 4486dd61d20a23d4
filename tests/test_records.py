"""The package's value classes: immutable, compared by value or by
identity as documented, and defined without generated code, so that a
fresh interpreter imports the CLI without `dataclasses` or `inspect`."""

import os
import re
import subprocess
import sys

import pytest

from formalitykit.configurations import (
    ConfigGraph,
    EdgeData,
    PoincarePolynomial,
    ShiftNormalization,
    normalize_shifts,
    sign_assignment,
)
from formalitykit.fields import FieldSpec
from formalitykit.formality import certify_single, verify_certificate
from formalitykit.graded import truncated_poly, validate
from formalitykit.hochschild import (
    HHResult,
    _tables,
    hh_bar,
    periodic_spec_truncated_poly,
    validate_periodic_spec,
)
from formalitykit.presentations import (
    Generator,
    _context,
    ideal_from_relations,
    single_generator_presentation,
)
from formalitykit.record import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["formalitykit", "formalitykit.cli"])
def test_fresh_import_loads_neither_dataclasses_nor_inspect(module):
    # -S: no site hook of the host may load either module first
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _graph():
    return ConfigGraph.make([1, 2], [{"u": 1, "v": 2, "a_uv": 1, "a_vu": 1, "d": 1}])


def _presentation():
    return single_generator_presentation(2, 1, 6)


def _instances():
    """One instance of each of the package's value classes."""
    A = truncated_poly(2, 1)
    cert = certify_single(1, 2)
    return {
        "EdgeData": EdgeData(1, 2, 1, 1, 1),
        "ConfigGraph": _graph(),
        "PoincarePolynomial": PoincarePolynomial.line(2),
        "ShiftNormalization": normalize_shifts(_graph(), 2),
        "SignAssignment": sign_assignment(_graph()),
        "FieldSpec": FieldSpec("fp", 7),
        "FormalityCertificate": cert,
        "RecheckReport": verify_certificate(cert),
        "ValidationReport": validate(A),
        "GradedAlgebra": A,
        "_Tables": _tables(A, "absolute"),
        "HHResult": hh_bar(A, 1, -1),
        "PeriodicResolutionSpec": periodic_spec_truncated_poly(2, 1, 4),
        "Generator": Generator("x", 1, 1, 1),
        "TensorPresentation": _presentation(),
        "HomogeneousIdeal": ideal_from_relations(_presentation()),
    }


def test_every_value_class_refuses_assignment_and_deletion():
    instances = _instances()
    assert sorted(type(x).__name__ for x in instances.values()) == sorted(instances)
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(instances)
    for name, x in instances.items():
        field = next(iter(vars(x)))
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            x.unknown = None
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(x, field)
        assert field in vars(x), name


CHECKING = ["ConfigGraph", "FieldSpec", "GradedAlgebra", "PeriodicResolutionSpec",
            "TensorPresentation"]


def test_only_the_classes_that_check_their_arguments_write_a_constructor():
    own = sorted(cls.__name__ for cls in Record.__subclasses__() if "__init__" in vars(cls))
    assert own == CHECKING


def test_the_constructor_binds_positional_and_keyword_arguments_in_field_order():
    x = Generator("x", 1, 2, 3)
    for y in (Generator("x", 1, tgt=2, deg=3), Generator(deg=3, tgt=2, src=1, label="x")):
        assert y == x and hash(y) == hash(x)
        assert list(vars(y)) == ["label", "src", "tgt", "deg"]
    assert vars(EdgeData(1, 2, d=5)) == {"u": 1, "v": 2, "a_uv": None, "a_vu": None, "d": 5}


def test_class_level_values_are_the_defaults():
    assert EdgeData(1, 2) == EdgeData(1, 2, None, None, None)
    assert list(vars(EdgeData(1, 2))) == list(EdgeData._fields)
    assert ShiftNormalization(True, 2) == ShiftNormalization(True, 2, None, None, False)
    res = HHResult(1, -1, 0, "absolute", (0, 0, 0))
    assert res.cocycles is None and "cocycles" in vars(res)
    assert EdgeData._defaults == {"a_uv": None, "a_vu": None, "d": None}
    assert Generator._defaults == {}


@pytest.mark.parametrize("call, message", [
    (lambda: Generator("x", 1, 2), "Generator() missing argument 'deg'"),
    (lambda: EdgeData(v=2), "EdgeData() missing argument 'u'"),
    (lambda: Generator("x", 1, 2, 3, weight=0), "Generator() got an unexpected argument 'weight'"),
    (lambda: EdgeData(1, 2, e=1), "EdgeData() got an unexpected argument 'e'"),
    (lambda: Generator("x", 1, 2, 3, label="y"),
     "Generator() got multiple values for argument 'label'"),
    (lambda: EdgeData(1, 2, 3, a_uv=3), "EdgeData() got multiple values for argument 'a_uv'"),
    (lambda: Generator("x", 1, 2, 3, 4), "Generator() takes 4 arguments but 5 were given"),
    (lambda: HHResult(1, -1, 0, "absolute", (0, 0, 0), None, None),
     "HHResult() takes 6 arguments but 7 were given"),
], ids=["missing", "missing-keyword", "unknown", "unknown-after-defaults", "duplicated",
        "duplicated-default", "surplus", "surplus-past-defaults"])
def test_a_bad_call_raises_type_error_naming_the_class(call, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        call()


def test_every_value_class_compares_hashes_and_prints_by_its_fields():
    for name, x in _instances().items():
        values = tuple(vars(x)[field] for field in x._fields)
        again, by_name = type(x)(*values), type(x)(**dict(zip(x._fields, values)))
        inner = ", ".join(f"{field}={value!r}" for field, value in zip(x._fields, values))
        assert repr(x) == repr(again) == f"{name}({inner})"
        assert x == x and not x != x
        if name in ("_Tables", "PeriodicResolutionSpec"):  # eq=False: by identity
            assert x != again and hash(x) == object.__hash__(x)
            continue
        assert again == by_name == x, name
        try:
            want = hash(values)
        except TypeError:  # a dict among the fields
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(again) == hash(by_name) == hash(x) == want, name


@pytest.mark.parametrize("make", [
    lambda: FieldSpec("fp", 32003),
    lambda: Generator("x", 1, 2, 3),
    lambda: EdgeData(1, 2, a_uv=3, a_vu=1),
    _graph,
    _presentation,
], ids=["FieldSpec", "Generator", "EdgeData", "ConfigGraph", "TensorPresentation"])
def test_equal_constructions_are_equal_and_hash_as_their_field_tuple(make):
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    values = tuple(vars(x).values())
    assert hash(x) == hash(y) == hash(values)
    assert x != values and x != object()


def test_repr_lists_the_fields_in_order():
    assert repr(FieldSpec("fp", 7)) == "FieldSpec(kind='fp', p=7)"
    assert repr(Generator("x", 1, 2, 3)) == "Generator(label='x', src=1, tgt=2, deg=3)"
    assert "_memo" not in repr(truncated_poly(1, 2))


def test_an_equal_presentation_hits_the_word_context_cache():
    _context.cache_clear()
    first = _context(_presentation())
    assert _context(_presentation()) is first
    info = _context.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_periodic_specs_and_tables_compare_by_identity():
    # validate_periodic_spec keys its memo by the spec; see
    # test_resolution_slices_check_their_spec_once
    A = truncated_poly(2, 1)
    spec, twin = periodic_spec_truncated_poly(2, 1, 4), periodic_spec_truncated_poly(2, 1, 4)
    assert spec == spec and spec != twin and hash(spec) != hash(twin)
    checked = validate_periodic_spec(A, spec)
    assert validate_periodic_spec(A, spec) is checked
    assert validate_periodic_spec(A, twin) is not checked
    tb = _tables(A, "absolute")
    assert tb == tb and tb != _tables(truncated_poly(2, 1), "absolute")


def test_algebra_equality_ignores_the_memo():
    A, B = truncated_poly(2, 1), truncated_poly(2, 1)
    validate(A)
    _tables(A, "absolute")
    assert A._memo and not B._memo
    assert A == B
    assert A != truncated_poly(2, 1, FieldSpec("fp", 7))
    with pytest.raises(TypeError):
        hash(A)  # its tables are dicts
