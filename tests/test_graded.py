import io
import json
from fractions import Fraction

import pytest

from formalitykit.cli import dispatch
from formalitykit.configurations import ConfigGraph
from formalitykit.errors import InputValidationError
from formalitykit.fields import FieldSpec
from formalitykit import graded, hochschild
from formalitykit.graded import (
    GradedAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    block_structure,
    build_configuration_algebra,
    detect_idempotents,
    truncated_poly,
    validate,
)
from combos import combo_add, combo_eq, combo_mul, product_labels

QQ = FieldSpec()
ONE = Fraction(1)


def a2_graph():
    return ConfigGraph.make(["1", "2"], [("1", "2")])


def test_truncated_poly_small_grid_validates():
    for n in range(1, 9):
        for k in range(1, 9):
            assert validate(truncated_poly(n, k)).ok


def test_truncated_poly_degrees():
    A = truncated_poly(2, 2)
    assert A.poincare() == {0: 1, 2: 1, 4: 1}
    A = truncated_poly(1, 2)
    assert sorted(d for _, d in A.basis) == [0, 2]


def test_truncated_poly_defining_relation():
    A = truncated_poly(3, 1)
    assert product_labels(A, "t^2", "t") == {"t^3": ONE}
    assert product_labels(A, "t^3", "t") == {}
    assert product_labels(A, "t^2", "t^2") == {}


def test_validate_reports_grading_violation():
    # t * t lands in a degree 3 element although deg t = 1
    basis = (("1", 0), ("t", 1), ("s", 3))
    mult = {
        ("1", "1"): {"1": ONE},
        ("1", "t"): {"t": ONE},
        ("t", "1"): {"t": ONE},
        ("1", "s"): {"s": ONE},
        ("s", "1"): {"s": ONE},
        ("t", "t"): {"s": ONE},
    }
    A = GradedAlgebra(QQ, basis, mult, {"1": ONE}, ("1",))
    report = validate(A)
    assert not report.ok
    assert any("grading" in v for v in report.violations)


def test_validate_reports_associativity_violation():
    basis = (("1", 0), ("x", 1), ("y", 2), ("z", 3))
    mult = {
        ("1", "1"): {"1": ONE},
        ("1", "x"): {"x": ONE},
        ("x", "1"): {"x": ONE},
        ("1", "y"): {"y": ONE},
        ("y", "1"): {"y": ONE},
        ("1", "z"): {"z": ONE},
        ("z", "1"): {"z": ONE},
        ("x", "x"): {"y": ONE},
        # (x x) x = y x = 0 but x (x x) = x y = z: not associative
        ("x", "y"): {"z": ONE},
    }
    A = GradedAlgebra(QQ, basis, mult, {"1": ONE}, ("1",))
    report = validate(A)
    assert not report.ok
    assert any("associativity" in v for v in report.violations)


def test_zigzag_preset_passes_and_matches_hand_check():
    A = build_configuration_algebra(a2_graph(), 1, 2, 1, "zigzag")
    assert validate(A).ok
    assert product_labels(A, "a21", "a12") == {"t1": ONE}
    assert product_labels(A, "a12", "a21") == {"t2": ONE}
    # both associations of (a12, a21, a12) collapse to zero with the
    # arrow times loop convention
    left = combo_mul(A, product_labels(A, "a12", "a21"), {"a12": ONE})
    right = combo_mul(A, {"a12": ONE}, product_labels(A, "a21", "a12"))
    assert left == {} and right == {}


def test_zigzag_infeasible_parameters_rejected():
    with pytest.raises(InputValidationError):
        build_configuration_algebra(a2_graph(), 1, 2, 3, "zigzag")  # 2h/k = 3 > n


def test_orthogonal_a2_dimension_count():
    A = build_configuration_algebra(a2_graph(), 2, 2, 2, "orthogonal")
    assert A.dim() == 8  # 2 idempotents + 4 loop powers + 2 arrows
    assert product_labels(A, "a12", "a21") == {}
    assert product_labels(A, "a21", "a12") == {}


@pytest.mark.parametrize(
    "vertices,edges,n",
    [
        (["1"], [], 1),
        (["1", "2"], [("1", "2")], 3),
        (["1", "2", "3"], [("1", "2"), ("2", "3")], 2),
        (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")], 1),
    ],
)
def test_configuration_dimension_formula(vertices, edges, n):
    g = ConfigGraph.make(vertices, edges)
    A = build_configuration_algebra(g, n, 2, 2, "orthogonal")
    m = len(vertices)
    assert A.dim() == m + m * n + 2 * len(edges)


def test_detected_idempotents_are_the_vertex_units():
    g = ConfigGraph.make(["1", "2", "3"], [("1", "2"), ("2", "3")])
    A = build_configuration_algebra(g, 2, 2, 2, "orthogonal")
    assert detect_idempotents(A) == ("e1", "e2", "e3")
    blocks = block_structure(A)
    assert blocks["a12"] == (0, 1)  # arrow from the first vertex into the second
    assert blocks["t2"] == (1, 1)


def test_single_vertex_configuration_is_truncated_poly():
    g = ConfigGraph.make(["v"], [])
    A = build_configuration_algebra(g, 3, 2, 5, "orthogonal")
    B = truncated_poly(3, 2)
    relabel = {"e1": "1", "t1": "t", "t1^2": "t^2", "t1^3": "t^3"}
    assert {relabel[l]: d for l, d in A.basis} == dict(B.basis)
    for (x, y), combo in A.mult.items():
        want = product_labels(B, relabel[x], relabel[y])
        assert {relabel[l]: c for l, c in combo.items()} == want


def test_explicit_table_preset_validated():
    bad = {("a12", "a21"): {"t2": ONE}}  # wrong degree: h + h = 4 vs deg t2 = 2
    with pytest.raises(InputValidationError):
        build_configuration_algebra(a2_graph(), 2, 2, 2, bad)


def test_explicit_table_preset_accepted_with_fractions():
    table = {("a12", "a21"): {"t2^2": Fraction(1, 2)}, ("a21", "a12"): {"t1^2": Fraction(1, 2)}}
    A = build_configuration_algebra(a2_graph(), 2, 2, 2, table)
    assert validate(A).ok
    assert product_labels(A, "a12", "a21") == {"t2^2": Fraction(1, 2)}


@pytest.mark.parametrize("preset", ["zigzg", 5, ["zigzag"]])
def test_unknown_preset_is_refused_before_any_label_is_built(monkeypatch, preset):
    """The refusal comes right after the parameter checks: no loop or
    arrow label, and so no basis or product, is built for it."""
    def built(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(graded, "_loop_label", built)
    monkeypatch.setattr(graded, "_arrow_label", built)
    with pytest.raises(InputValidationError) as err:
        build_configuration_algebra(a2_graph(), 400, 2, 2, preset)
    assert str(err.value) == f"unknown preset {preset!r}"
    with pytest.raises(InputValidationError, match="needs n, k, h >= 1"):
        build_configuration_algebra(a2_graph(), 0, 2, 2, preset)


def test_json_round_trip():
    A = build_configuration_algebra(a2_graph(), 2, 2, 2, "orthogonal")
    data = algebra_to_json_dict(A)
    B = algebra_from_json_dict(data)
    assert B.basis == A.basis
    assert B.idempotents == A.idempotents
    assert {k: v for k, v in B.mult.items() if v} == {k: v for k, v in A.mult.items() if v}


def test_json_round_trip_with_fraction_coefficients():
    table = {("a12", "a21"): {"t2^2": Fraction(-1, 3)}, ("a21", "a12"): {"t1^2": Fraction(-1, 3)}}
    A = build_configuration_algebra(a2_graph(), 2, 2, 2, table)
    data = algebra_to_json_dict(A)
    entry = [m for m in data["mult"] if m["left"] == "a12" and m["right"] == "a21"]
    assert entry[0]["result"] == [{"label": "t2^2", "coeff": "-1/3"}]
    B = algebra_from_json_dict(data)
    assert product_labels(B, "a12", "a21") == {"t2^2": Fraction(-1, 3)}


def test_json_rejects_missing_mult():
    with pytest.raises(InputValidationError):
        algebra_from_json_dict({"field": "rationals", "basis": []})


def test_prime_field_algebra_validates():
    A = truncated_poly(2, 2, FieldSpec(kind="fp", p=7))
    assert validate(A).ok


# -- validate tries only the triples that can fail ------------------------------


def brute_force_associativity(A):
    """Every (x, y, z) basis triple, in label order, as validate once did."""
    one = A.field_spec.field().one
    out = []
    for x in A.labels():
        for y in A.labels():
            for z in A.labels():
                xy_z = combo_mul(A, combo_mul(A, {x: one}, {y: one}), {z: one})
                x_yz = combo_mul(A, {x: one}, combo_mul(A, {y: one}, {z: one}))
                if not combo_eq(A, xy_z, x_yz):
                    out.append(f"associativity fails on ({x},{y},{z})")
    return out


def associativity_violations(A):
    return [v for v in validate(A).violations if v.startswith("associativity")]


# the A2 (n, k, h) = (2, 2, 1) zigzag products a_ji a_ij = t_i^(2h/k) = t_i, as
# an explicit table: the zigzag preset refuses 2h/k != n before it tabulates
A2_ZIGZAG_221_PRODUCTS = {("a21", "a12"): {"t1": ONE}, ("a12", "a21"): {"t2": ONE}}


def a2_zigzag_221(monkeypatch):
    """The A2 (n, k, h) = (2, 2, 1) zigzag table, not associative since
    (a21 a12) t1 = t1^2 while a21 (a12 t1) = 0;
    build_configuration_algebra refuses it, so it is caught on its way to
    validate."""
    seen = []
    real = graded.validate
    monkeypatch.setattr(graded, "validate", lambda A: seen.append(A) or real(A))
    with pytest.raises(InputValidationError, match="associativity"):
        build_configuration_algebra(a2_graph(), 2, 2, 1, A2_ZIGZAG_221_PRODUCTS)
    return seen[0]


@pytest.mark.parametrize("name", ["truncated_poly", "a2_zigzag_121", "triangle_orthogonal_fp",
                                  "cycle4_zigzag_121"])
def test_validate_associativity_matches_brute_force_on_valid_algebras(name):
    fp = FieldSpec(kind="fp", p=32003)
    tri = ConfigGraph.make(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")])
    cyc = ConfigGraph.make(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])
    A = {
        "truncated_poly": lambda: truncated_poly(3, 2),
        "a2_zigzag_121": lambda: build_configuration_algebra(a2_graph(), 1, 2, 1, "zigzag"),
        "triangle_orthogonal_fp": lambda: build_configuration_algebra(tri, 2, 2, 1, "orthogonal", fp),
        "cycle4_zigzag_121": lambda: build_configuration_algebra(cyc, 1, 2, 1, "zigzag"),
    }[name]()
    assert validate(A).ok
    assert associativity_violations(A) == brute_force_associativity(A) == []


def test_validate_associativity_matches_brute_force_on_a2_zigzag_221(monkeypatch):
    A = a2_zigzag_221(monkeypatch)
    want = brute_force_associativity(A)
    assert want and associativity_violations(A) == want


def test_validate_associativity_matches_brute_force_on_broken_tables():
    basis = (("1", 0), ("x", 1), ("y", 1), ("u", 2), ("z", 3))
    unit_rows = {("1", lab): {lab: ONE} for lab, _ in basis}
    unit_rows.update({(lab, "1"): {lab: ONE} for lab, _ in basis})
    for products in (
        # (xx)x = ux = 0 but x(xx) = xu = z
        {("x", "x"): {"u": ONE}, ("x", "u"): {"z": ONE}},
        # a unit that doubles x: (11)x = 2x but 1(1x) = 4x
        {("1", "x"): {"x": 2 * ONE}},
        # xy is not in the table, yet x(yx) = xu = z: only (y, x) is a key
        {("y", "x"): {"u": ONE}, ("x", "u"): {"z": ONE}},
    ):
        A = GradedAlgebra(QQ, basis, {**unit_rows, **products}, {"1": ONE}, ("1",))
        want = brute_force_associativity(A)
        assert want and associativity_violations(A) == want


FP_BASIS = (("1", 0), ("x", 1), ("u", 2), ("z", 3))


def fp_table(p, products):
    """GradedAlgebra over F_p on FP_BASIS: unit rows plus products, whose
    coefficients are parsed as the JSON reader parses them."""
    f = FieldSpec(kind="fp", p=p).field()
    mult = {("1", lab): {lab: f.one} for lab, _ in FP_BASIS}
    mult.update({(lab, "1"): {lab: f.one} for lab, _ in FP_BASIS})
    for key, combo in products.items():
        mult[key] = {lab: f.parse(c) for lab, c in combo.items()}
    return GradedAlgebra(FieldSpec(kind="fp", p=p), FP_BASIS, mult, {"1": f.one}, ("1",))


@pytest.mark.parametrize("products, fails", [
    # x u = 0 z, so x(xx) = 0 = (xx)x
    ({("x", "x"): {"u": "1"}, ("x", "u"): {"z": "0"}}, False),
    # (xx)x = ux = z but x(xx) = xu = 0 z
    ({("x", "x"): {"u": "1"}, ("x", "u"): {"z": "0"}, ("u", "x"): {"z": "1"}}, True),
])
def test_validate_associativity_matches_brute_force_with_explicit_zero_over_f32003(
        products, fails):
    A = fp_table(32003, products)
    want = brute_force_associativity(A)
    assert bool(want) == fails
    assert associativity_violations(A) == want


@pytest.mark.parametrize("products, fails", [
    # (xx)x = 3 ux = 15 z = z but x(xx) = 3 xu = 3 z
    ({("x", "x"): {"u": "3"}, ("x", "u"): {"z": "1"}, ("u", "x"): {"z": "5"}}, True),
    # xu = 8 z = z = ux once reduced mod 7
    ({("x", "x"): {"u": "3"}, ("x", "u"): {"z": "8"}, ("u", "x"): {"z": "1"}}, False),
])
def test_validate_associativity_matches_brute_force_over_f7(products, fails):
    A = fp_table(7, products)
    want = brute_force_associativity(A)
    assert bool(want) == fails
    assert associativity_violations(A) == want


# -- the table-reading checks against the combo-based reference ----------------


def reference_idempotent_violations(A, idempotents):
    """The idempotent checks through combo_mul and combo_eq, label by label."""
    violations = []
    one = A.field_spec.field().one
    degs = A.degree_map()
    for e in idempotents:
        if e not in degs:
            violations.append(f"idempotent {e} is not a basis label")
            continue
        if degs[e] != 0:
            violations.append(f"idempotent {e} has degree {degs[e]}")
    known = [e for e in idempotents if e in degs]
    for e in known:
        ce = {e: one}
        if not combo_eq(A, combo_mul(A, ce, ce), ce):
            violations.append(f"{e} is not idempotent")
    for e1 in known:
        for e2 in known:
            if e1 != e2 and combo_mul(A, {e1: one}, {e2: one}):
                violations.append(f"idempotents {e1},{e2} not orthogonal")
    total = {}
    for e in known:
        total = combo_add(A, total, {e: one})
    if not combo_eq(A, total, A.unit):
        violations.append("idempotents do not sum to the unit")
    if set(known) != {lab for lab, d in A.basis if d == 0}:
        violations.append("idempotents do not span degree zero")
    return violations


def reference_violations(A):
    """validate's violations from the dense triple loop and combo-based
    unit and idempotent checks, in validate's order."""
    f = A.field_spec.field()
    labels = A.labels()
    if len(set(labels)) != len(labels):
        return ("duplicate basis labels",)
    degs = A.degree_map()
    out = []
    for (x, y), combo in A.mult.items():
        if x not in degs or y not in degs:
            out.append(f"mult table uses unknown labels ({x},{y})")
            continue
        for lab, coeff in combo.items():
            if lab not in degs:
                out.append(f"mult({x},{y}) hits unknown label {lab}")
            elif degs[lab] != degs[x] + degs[y] and not f.is_zero(coeff):
                out.append(f"grading: mult({x},{y}) has degree {degs[lab]} term {lab}, "
                           f"expected {degs[x] + degs[y]}")
    for lab in A.unit:
        if lab not in degs:
            out.append(f"unit uses unknown label {lab}")
        elif degs[lab] != 0:
            out.append(f"unit has a degree {degs[lab]} term {lab}")
    for b in labels:
        e = {b: f.one}
        if not combo_eq(A, combo_mul(A, A.unit, e), e):
            out.append(f"unit law fails on the left of {b}")
        if not combo_eq(A, combo_mul(A, e, A.unit), e):
            out.append(f"unit law fails on the right of {b}")
    out += brute_force_associativity(A)
    if A.idempotents is not None:
        out += reference_idempotent_violations(A, A.idempotents)
    return tuple(out)


def reference_block_structure(A):
    """block_structure through combo_mul and combo_eq, label by idempotent."""
    if A.idempotents is None:
        raise InputValidationError("algebra has no idempotent decomposition")
    one = A.field_spec.field().one
    out = {}
    for lab, _ in A.basis:
        cb = {lab: one}
        tgt = src = None
        for i, e in enumerate(A.idempotents):
            if combo_eq(A, combo_mul(A, {e: one}, cb), cb):
                if tgt is not None:
                    raise InputValidationError(f"label {lab} has two targets")
                tgt = i
            if combo_eq(A, combo_mul(A, cb, {e: one}), cb):
                if src is not None:
                    raise InputValidationError(f"label {lab} has two sources")
                src = i
        if src is None or tgt is None:
            raise InputValidationError(f"label {lab} is not block pure")
        out[lab] = (src, tgt)
    return out


def outcome(fn, *args):
    """fn's return value, or the text of the input error it raised."""
    try:
        return fn(*args)
    except InputValidationError as exc:
        return str(exc)


FAULTS = ("product", "unknown", "zero", "unit", "idempotents", "block")


def inject(rng, f, A, fault, mult, unit, idempotents):
    """Spoil the copied table of A (mult, unit, idempotents) by one fault."""
    labels = A.labels()
    degs = A.degree_map()
    es = [lab for lab in labels if degs[lab] == 0]
    pos = [lab for lab in labels if degs[lab] > 0]

    def scalar():
        return rng.choice([2, -1, 3, Fraction(1, 2) if f.characteristic == 0 else 5])

    if fault == "product":
        x, y = rng.choice(labels), rng.choice(labels)
        same = [z for z in labels if degs[z] == degs[x] + degs[y]]
        key = rng.choice(list(mult))
        rng.choice([
            lambda: mult.__setitem__((x, y), {rng.choice(same or labels): scalar()}),
            lambda: mult.__setitem__(key, {lab: scalar() * c for lab, c in mult[key].items()}),
            lambda: mult.pop(key),
        ])()
    elif fault == "unknown":
        x = rng.choice(labels)
        key = rng.choice(list(mult))
        rng.choice([
            lambda: mult.__setitem__((x, "zz"), {x: 1}),
            lambda: mult.__setitem__(("zz", x), {}),
            lambda: mult[key].__setitem__("zz", 1),
            lambda: unit.__setitem__("zz", 1),
            lambda: idempotents.append("zz"),
        ])()
    elif fault == "zero":
        key = rng.choice(list(mult))
        lab = rng.choice(labels)
        zero = rng.choice([0, f.characteristic])
        rng.choice([
            lambda: mult[key].__setitem__(lab, zero),
            lambda: mult.__setitem__(key, {z: zero for z in mult[key]}),
            lambda: mult.__setitem__((rng.choice(labels), rng.choice(labels)), {lab: zero}),
            lambda: unit.__setitem__(lab, zero),
        ])()
    elif fault == "unit":
        e = rng.choice(es)
        rng.choice([
            lambda: unit.__setitem__(e, scalar()),
            lambda: unit.pop(e),
            lambda: unit.__setitem__(rng.choice(pos), 1),
        ])()
    elif fault == "idempotents":
        e1, e2 = rng.choice(es), rng.choice(es)
        rng.choice([
            lambda: mult.__setitem__((e1, e2), {rng.choice([e1, e2]): rng.choice([1, scalar()])}),
            lambda: idempotents.remove(e1) if e1 in idempotents else None,
            lambda: idempotents.append(rng.choice(pos)),
        ])()
    elif fault == "block":
        a = rng.choice(pos)
        e = rng.choice(es)
        rng.choice([
            lambda: mult.__setitem__((e, a), {a: 1}),
            lambda: mult.__setitem__((a, e), {a: 1}),
            lambda: [mult.pop((x, a), None) for x in es],
            lambda: [mult.pop((a, x), None) for x in es],
            lambda: mult.__setitem__((e, a), {a: 1, rng.choice(pos): scalar()}),
        ])()


def random_faulty_algebra(rng, field_spec):
    f = field_spec.field()
    tri = ConfigGraph.make(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")])
    A = rng.choice([
        lambda: truncated_poly(2, 1, field_spec),
        lambda: build_configuration_algebra(a2_graph(), 1, 2, 1, "zigzag", field_spec),
        lambda: build_configuration_algebra(a2_graph(), 2, 1, 1, "orthogonal", field_spec),
        lambda: build_configuration_algebra(tri, 1, 2, 1, "zigzag", field_spec),
    ])()
    mult = {key: dict(c) for key, c in A.mult.items()}
    unit = dict(A.unit)
    idempotents = list(A.idempotents)
    for fault in rng.sample(FAULTS, rng.randint(1, 3)):
        inject(rng, f, A, fault, mult, unit, idempotents)
    return GradedAlgebra(field_spec, A.basis, mult, unit, tuple(idempotents))


@pytest.mark.parametrize("field_spec", [QQ, FieldSpec(kind="fp", p=7)], ids=["Q", "F7"])
def test_validation_and_blocks_match_the_combo_reference_on_faulty_tables(rng, field_spec):
    met = []
    for _ in range(150):
        A = random_faulty_algebra(rng, field_spec)
        want = reference_violations(A)
        blocks = outcome(reference_block_structure, A)
        assert validate(A).violations == want
        assert outcome(block_structure, A) == blocks
        assert (graded._idempotent_violations(A, A.idempotents)
                == reference_idempotent_violations(A, A.idempotents))
        met += [*want, "blocks" if isinstance(blocks, dict) else blocks]
    for kind in ("mult table uses unknown labels", "hits unknown label", "grading:",
                 "unit uses unknown label", "unit has a degree", "unit law fails on the left",
                 "unit law fails on the right", "associativity fails", "is not a basis label",
                 "has degree", "is not idempotent", "not orthogonal", "do not sum to the unit",
                 "do not span degree zero", "has two targets", "has two sources",
                 "is not block pure", "blocks"):
        assert any(kind in m for m in met), kind


def test_a2_zigzag_221_refusal_text():
    # 2h/k = 1 < n = 2: the preset is refused by its rule, and the same
    # products as a table fail associativity, since
    # t1 (a21 a12) = t1 t1 = t1^2 but (t1 a21) a12 = 0
    with pytest.raises(InputValidationError) as err:
        build_configuration_algebra(a2_graph(), 2, 2, 1, "zigzag")
    assert str(err.value) == "zigzag preset needs k | 2h and 2h/k = n (n=2, k=2, h=1)"
    with pytest.raises(InputValidationError) as err:
        build_configuration_algebra(a2_graph(), 2, 2, 1, A2_ZIGZAG_221_PRODUCTS)
    assert str(err.value) == (
        "configuration algebra failed validation: associativity fails on (t1,a21,a12); "
        "associativity fails on (t2,a12,a21); associativity fails on (a12,a21,t2); "
        "associativity fails on (a21,a12,t1)"
    )


# -- validation once per algebra -----------------------------------------------


def count_validation_runs(monkeypatch):
    runs = []
    real = graded._validation_report
    monkeypatch.setattr(graded, "_validation_report", lambda A: runs.append(A) or real(A))
    return runs


def test_scan_dispatch_runs_the_validation_body_once(tmp_path, monkeypatch):
    A = build_configuration_algebra(a2_graph(), 1, 2, 1, "orthogonal", FieldSpec(kind="fp", p=32003))
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(algebra_to_json_dict(A)))
    runs = count_validation_runs(monkeypatch)
    out = io.StringIO()
    assert dispatch(["scan", "--algebra", str(path), "--qmax", "6"], stdout=out) == 0
    assert len(json.loads(out.getvalue())["result"]["table"]) == 4
    assert len(runs) == 1


def test_json_algebra_without_idempotents_validates_once_through_hh_bar(monkeypatch):
    data = algebra_to_json_dict(build_configuration_algebra(a2_graph(), 2, 2, 2, "zigzag"))
    del data["idempotents"]
    runs = count_validation_runs(monkeypatch)
    A = algebra_from_json_dict(data)
    assert A.idempotents is None
    assert hochschild.hh_bar(A, 3, -1).dim == hochschild.hh_bar(A, 3, -1, mode="absolute").dim
    assert len(runs) == 1


@pytest.mark.parametrize("mult, idempotents", [
    ({("e", "e"): {"e": 1}, ("e", "f"): {"f": 1}, ("f", "e"): {"f": 1},
      ("f", "f"): {"f": 1}}, None),  # f is an idempotent but not orthogonal to e
    ({("e", "e"): {"e": 1}, ("e", "f"): {"f": 1}, ("f", "e"): {"f": 1}}, None),  # f f = 0
    ({("e", "e"): {"e": 1}, ("f", "f"): {"f": 1}}, ("e", "f")),
])
def test_detect_idempotents_of_degree_zero_tables(mult, idempotents):
    unit = {"e": 1} if idempotents is None else {"e": 1, "f": 1}
    A = GradedAlgebra(QQ, (("e", 0), ("f", 0)), mult, unit)
    assert detect_idempotents(A) == idempotents


@pytest.mark.parametrize("degree", [2.5, True, "2", None])
def test_basis_degree_that_is_not_an_int_is_refused(degree):
    mult = {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1}}
    with pytest.raises(InputValidationError):
        GradedAlgebra(QQ, (("1", 0), ("t", degree)), mult, {"1": 1}, ("1",))


def test_caller_dicts_do_not_reach_a_built_algebra():
    basis = (("1", 0), ("t", 2), ("t^2", 4))
    mult = {("1", "1"): {"1": ONE}, ("1", "t"): {"t": ONE}, ("t", "1"): {"t": ONE},
            ("1", "t^2"): {"t^2": ONE}, ("t^2", "1"): {"t^2": ONE}, ("t", "t"): {"t^2": ONE}}
    unit = {"1": ONE}
    A = GradedAlgebra(QQ, basis, mult, unit, ("1",))
    before = {key: dict(c) for key, c in A.mult.items()}
    report = validate(A)
    assert report.ok
    mult[("t", "t^2")] = {"t": ONE}  # a product added, of the wrong degree
    del mult[("t", "t")]  # a product removed
    mult[("1", "t")]["t"] = 2 * ONE  # a combo changed in place
    unit["1"] = 3 * ONE
    assert A.mult == before and A.unit == {"1": ONE}
    assert validate(A) is report and validate(A).ok
    assert not validate(GradedAlgebra(QQ, basis, mult, unit, ("1",))).ok


@pytest.mark.parametrize("key, value", [("mult", False), ("idempotents", 5), ("basis", "b"),
                                        ("unit", {"1": "1"}), ("field", 7)])
def test_algebra_json_with_a_non_list_part_is_an_input_error(key, value):
    data = algebra_to_json_dict(truncated_poly(2, 1))
    data[key] = value
    with pytest.raises(InputValidationError):
        algebra_from_json_dict(data)


@pytest.mark.parametrize("coeff", [Fraction(1, 7), 0.5])
def test_coefficient_without_a_value_in_f7_is_refused(coeff):
    mult = {("1", "1"): {"1": 1}, ("1", "t"): {"t": coeff}, ("t", "1"): {"t": 1}}
    with pytest.raises(InputValidationError):
        GradedAlgebra(FieldSpec(kind="fp", p=7), (("1", 0), ("t", 2)), mult, {"1": 1}, ("1",))
