"""Finite dimensional graded algebras given by labeled structure constants.

An algebra is a labeled homogeneous basis together with an exact
multiplication table, a unit, and (optionally) a list of orthogonal
idempotent basis labels spanning the degree zero part. All operations
are pure. An algebra is immutable after construction: as a
`record.Record` it refuses attribute assignment, and it holds copies of
the tables it was given, which no operation changes. Derived data lives
in a private memo that equality, hashing and repr ignore.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .configurations import ConfigGraph, _arrow_label, _check_configuration, _loop_label
from .errors import InputValidationError, ResourceCapError
from .fields import FieldSpec, RATIONALS_SPEC
from .record import Record

Combo = Dict[str, object]  # label -> scalar, absent means zero


class ValidationReport(Record):
    ok: bool
    violations: Tuple[str, ...]

    def __init__(self, ok, violations):
        vars(self).update(ok=ok, violations=violations)

    def __bool__(self):
        return self.ok

    def raise_if_invalid(self, what: str = "algebra") -> None:
        """The one refusal of an algebra that failed validation, at every
        boundary that takes one: it names the first eight violations."""
        if not self.ok:
            raise InputValidationError(
                f"{what} failed validation: " + "; ".join(self.violations[:8])
            )


class GradedAlgebra(Record):
    """Graded algebra by structure constants over an exact field.

    mult maps (left label, right label) to a combo dict; missing pairs
    multiply to zero. idempotents, when present, must be mutually
    orthogonal basis labels that sum to the unit and span degree zero.

    mult (each combo too) and unit are copied on construction, so later
    changes to the caller's dicts do not reach the algebra; that makes it
    safe to keep derived data (the validation report, prepared HH tables)
    in the private per-instance memo. Every label (of the basis, mult, unit
    and idempotents) must be a str and every basis degree an int,
    and every coefficient is mapped into the field on the way in (see the
    fields' scalar): over Q an integral Fraction becomes an int, over F_p a
    Fraction a/b becomes a * b^-1 mod p, and a value that is not an int or
    a Fraction is refused.
    """

    field_spec: FieldSpec
    basis: Tuple[Tuple[str, int], ...]
    mult: Mapping[Tuple[str, str], Combo]
    unit: Combo
    idempotents: Optional[Tuple[str, ...]]

    def __init__(self, field_spec, basis, mult, unit, idempotents=None):
        labels = [lab for lab, _ in basis] + [lab for key in mult for lab in key]
        labels += [lab for c in mult.values() for lab in c]
        for lab in labels + [*unit, *(idempotents or ())]:
            if type(lab) is not str:
                raise InputValidationError(f"labels must be strings, got {lab!r}")
        for lab, d in basis:
            if type(d) is not int:
                raise InputValidationError(f"basis entry {lab!r} needs an integer degree, got {d!r}")
        scalar = field_spec.field().scalar
        mult = {key: {lab: scalar(v) for lab, v in c.items()} for key, c in mult.items()}
        unit = {lab: scalar(v) for lab, v in unit.items()}
        # _memo is no field: equality, hashing and repr ignore it
        vars(self).update(field_spec=field_spec, basis=basis, mult=mult, unit=unit,
                          idempotents=idempotents, _memo={})

    # -- basic accessors ------------------------------------------------

    def labels(self) -> List[str]:
        return [lab for lab, _ in self.basis]

    def degree_map(self) -> Dict[str, int]:
        return {lab: d for lab, d in self.basis}

    def dim(self) -> int:
        return len(self.basis)

    def poincare(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for _, d in self.basis:
            out[d] = out.get(d, 0) + 1
        return out

    def is_nonneg_graded(self) -> bool:
        return all(d >= 0 for _, d in self.basis)


def validate(A: GradedAlgebra) -> ValidationReport:
    """Check grading, associativity, unit laws and idempotent structure.

    Failures are collected into the report rather than raised, one entry
    per violated pair or triple; only a table with more candidate
    associativity triples than the cap raises ResourceCapError, before any
    triple is built. The report is computed once per algebra
    and kept in its memo; the algebra cannot change after construction.

    Every check reads table entries in plain arithmetic and tests the
    result for zero in the field. Grading costs one step per table term;
    the unit laws one lookup per basis label and unit term; the idempotent
    checks one lookup per pair of idempotents; associativity one step per
    term product of the triples it tries, which are only those where (xy)z
    or x(yz) can be non-zero (see _associativity_violations). No check
    costs the cube of the basis.
    """
    report = A._memo.get("validation")
    if report is None:
        report = _validation_report(A)
        A._memo["validation"] = report
    return report


def _differs(f, combo: Combo, want: Combo) -> bool:
    """Whether two label -> scalar dicts differ in the field f."""
    return any(not f.is_zero(combo.get(lab, 0) - want.get(lab, 0)) for lab in {*combo, *want})


def _is_basis_vector(f, combo: Optional[Combo], lab: str) -> bool:
    """Whether combo (a table entry, None when absent) is 1 lab in f."""
    return bool(combo) and not _differs(f, combo, {lab: f.one})


def _validation_report(A: GradedAlgebra) -> ValidationReport:
    violations: List[str] = []
    labels = A.labels()
    if len(set(labels)) != len(labels):
        violations.append("duplicate basis labels")
        return ValidationReport(False, tuple(violations))
    degs = A.degree_map()
    f = A.field_spec.field()

    for (x, y), combo in A.mult.items():
        if x not in degs or y not in degs:
            violations.append(f"mult table uses unknown labels ({x},{y})")
            continue
        want = degs[x] + degs[y]
        for lab, coeff in combo.items():
            if lab not in degs:
                violations.append(f"mult({x},{y}) hits unknown label {lab}")
            elif degs[lab] != want and not f.is_zero(coeff):
                violations.append(
                    f"grading: mult({x},{y}) has degree {degs[lab]} term {lab}, expected {want}"
                )

    for lab in A.unit:
        if lab not in degs:
            violations.append(f"unit uses unknown label {lab}")
        elif degs[lab] != 0:
            violations.append(f"unit has a degree {degs[lab]} term {lab}")

    for b in labels:
        # 1 b and b 1, summed over the unit's terms
        left: Combo = {}
        right: Combo = {}
        for u, c in A.unit.items():
            for lab, v in A.mult.get((u, b), {}).items():
                left[lab] = left.get(lab, 0) + c * v
            for lab, v in A.mult.get((b, u), {}).items():
                right[lab] = right.get(lab, 0) + c * v
        if _differs(f, left, {b: f.one}):
            violations.append(f"unit law fails on the left of {b}")
        if _differs(f, right, {b: f.one}):
            violations.append(f"unit law fails on the right of {b}")

    violations.extend(_associativity_violations(A, labels))

    if A.idempotents is not None:
        violations.extend(_idempotent_violations(A, A.idempotents))

    return ValidationReport(not violations, tuple(violations))


# candidate triples, counted with repeats, that the associativity check
# tries at most: each costs about 3 us and 60 bytes of the set it builds
# (x86-64, Python 3.11), so the cap holds it near 6 s and 150 MB
_MAX_TRIPLES = 2_000_000


def _associativity_violations(A: GradedAlgebra, labels: List[str]) -> List[str]:
    """One violation per basis triple (x, y, z), in label order, with
    (xy)z != x(yz), both sides read term by term off the table in plain
    arithmetic and their difference tested for zero in the field.

    (xy)z can be non-zero only when (x,y) is a key of A.mult and (w,z) is
    a key for a term w of xy; x(yz) only when (y,z) is a key and (x,w) is
    a key for a term w of yz. Only those triples are tried, so the cost
    follows the table's non-zero products, not the cube of the basis. They
    are counted, with repeats, before any is built, and more than
    _MAX_TRIPLES of them are refused with ResourceCapError."""
    f = A.field_spec.field()
    mult = A.mult
    pos = {lab: i for i, lab in enumerate(labels)}
    keyed = [(pos[x], pos[y], xy) for (x, y), xy in mult.items() if x in pos and y in pos]
    # per label w, the positions z with (w,z) a key and x with (x,w) a key
    right_of: Dict[str, List[int]] = {}
    left_of: Dict[str, List[int]] = {}
    for ix, iy, _ in keyed:
        right_of.setdefault(labels[ix], []).append(iy)
        left_of.setdefault(labels[iy], []).append(ix)
    count = sum(len(right_of.get(w, ())) + len(left_of.get(w, ())) for *_, xy in keyed for w in xy)
    if count > _MAX_TRIPLES:
        raise ResourceCapError(
            f"validation: the associativity check would try {count} triples (counted with "
            f"repeats), over the cap of {_MAX_TRIPLES}"
        )
    tries = set()
    for ix, iy, xy in keyed:
        for w in xy:
            # w is a term of xy: (x,y,z) for (w,z) a key, (v,x,y) for (v,w) a key
            tries.update((ix, iy, iz) for iz in right_of.get(w, ()))
            tries.update((iv, ix, iy) for iv in left_of.get(w, ()))
    out: List[str] = []
    for ix, iy, iz in sorted(tries):
        x, y, z = labels[ix], labels[iy], labels[iz]
        # (xy)z - x(yz), label by label
        diff: Combo = {}
        for w, c in mult.get((x, y), {}).items():
            for lab, v in mult.get((w, z), {}).items():
                diff[lab] = diff.get(lab, 0) + c * v
        for w, c in mult.get((y, z), {}).items():
            for lab, v in mult.get((x, w), {}).items():
                diff[lab] = diff.get(lab, 0) - c * v
        if not all(f.is_zero(v) for v in diff.values()):
            out.append(f"associativity fails on ({x},{y},{z})")
    return out


def _idempotent_violations(A: GradedAlgebra, idempotents: Sequence[str]) -> List[str]:
    """Why the given labels are not mutually orthogonal idempotents of
    degree zero that sum to the unit and span degree zero; empty if they are."""
    violations: List[str] = []
    f = A.field_spec.field()
    degs = A.degree_map()
    for e in idempotents:
        if e not in degs:
            violations.append(f"idempotent {e} is not a basis label")
            continue
        if degs[e] != 0:
            violations.append(f"idempotent {e} has degree {degs[e]}")
    known = [e for e in idempotents if e in degs]
    for e in known:
        if not _is_basis_vector(f, A.mult.get((e, e)), e):
            violations.append(f"{e} is not idempotent")
    for e1 in known:
        for e2 in known:
            if e1 != e2 and any(not f.is_zero(v) for v in A.mult.get((e1, e2), {}).values()):
                violations.append(f"idempotents {e1},{e2} not orthogonal")
    total: Combo = {}
    for e in known:
        total[e] = total.get(e, 0) + f.one
    if _differs(f, total, A.unit):
        violations.append("idempotents do not sum to the unit")
    deg0 = {lab for lab, d in A.basis if d == 0}
    if set(known) != deg0:
        violations.append("idempotents do not span degree zero")
    return violations


def detect_idempotents(A: GradedAlgebra) -> Optional[Tuple[str, ...]]:
    """Return the degree zero labels if they form an orthogonal idempotent
    decomposition of the unit, else None."""
    candidate = tuple(lab for lab, d in A.basis if d == 0)
    if not candidate or _idempotent_violations(A, candidate):
        return None
    return candidate


def block_structure(A: GradedAlgebra) -> Dict[str, Tuple[int, int]]:
    """Map each basis label to its (source, target) idempotent indices.

    Label b is in block (i, j) when e_j * b = b and b * e_i = b, read off
    the table entries (e_j, b) and (b, e_i): two lookups per label and
    idempotent. Requires idempotents; raises when the basis is not block
    pure.
    """
    if A.idempotents is None:
        raise InputValidationError("algebra has no idempotent decomposition")
    f = A.field_spec.field()
    mult = A.mult
    out: Dict[str, Tuple[int, int]] = {}
    for lab, _ in A.basis:
        tgt = None
        src = None
        for i, e in enumerate(A.idempotents):
            if _is_basis_vector(f, mult.get((e, lab)), lab):
                if tgt is not None:
                    raise InputValidationError(f"label {lab} has two targets")
                tgt = i
            if _is_basis_vector(f, mult.get((lab, e)), lab):
                if src is not None:
                    raise InputValidationError(f"label {lab} has two sources")
                src = i
        if src is None or tgt is None:
            raise InputValidationError(f"label {lab} is not block pure")
        out[lab] = (src, tgt)
    return out


def _power_label(j: int) -> str:
    """The label of t^j in k[t]/t^(n+1): 1, t, t^2, ..."""
    return "1" if j == 0 else ("t" if j == 1 else f"t^{j}")


def truncated_poly(n: int, k: int, field_spec: FieldSpec = RATIONALS_SPEC) -> GradedAlgebra:
    """k[t]/t^(n+1) with deg(t) = k: basis 1, t, ..., t^n, maxdeg n*k."""
    if n < 1 or k < 1:
        raise InputValidationError("truncated_poly needs n >= 1 and k >= 1")
    f = field_spec.field()
    lab = _power_label
    basis = tuple((lab(j), j * k) for j in range(n + 1))
    mult: Dict[Tuple[str, str], Combo] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                mult[(lab(i), lab(j))] = {lab(i + j): f.one}
    return GradedAlgebra(field_spec, basis, mult, {lab(0): f.one}, (lab(0),))


def build_configuration_algebra(
    graph: ConfigGraph,
    n: int,
    k: int,
    h: int,
    preset="orthogonal",
    field_spec: FieldSpec = RATIONALS_SPEC,
) -> GradedAlgebra:
    """Endomorphism style algebra of a graph configuration.

    Basis: idempotents e_i, loop generators t_i, ..., t_i^n of degree k
    per power, and arrows a_ij of degree h for both directions of every
    edge, labeled and ordered as configurations._check_configuration and
    its label functions give them. Arrow times loop products vanish in
    both presets. The preset fixes arrow compositions; 'orthogonal' kills
    them all, 'zigzag' sets a_ji a_ij = t_i^(2h/k) and kills paths through
    distinct vertices, and needs 2h/k = n. An explicit mapping
    {(x_label, y_label): combo} may be given instead.
    The result is machine validated before it is returned.
    """
    m, arrows = _check_configuration(graph, n, k, h, preset)
    if preset not in ("orthogonal", "zigzag") and not isinstance(preset, Mapping):
        raise InputValidationError(f"unknown preset {preset!r}")
    vertices = range(1, m + 1)
    t = _loop_label
    one = field_spec.field().one

    def e(i):
        return f"e{i}"

    def a(i, j):
        return _arrow_label(m, i, j)

    basis: List[Tuple[str, int]] = [(e(i), 0) for i in vertices]
    basis += [(t(i, l), l * k) for i in vertices for l in range(1, n + 1)]
    basis += [(a(i, j), h) for i, j in arrows]

    mult: Dict[Tuple[str, str], Combo] = {}

    def put(x, y, combo):
        if combo:
            mult[(x, y)] = combo

    for i in vertices:
        put(e(i), e(i), {e(i): one})
        for l in range(1, n + 1):
            put(e(i), t(i, l), {t(i, l): one})
            put(t(i, l), e(i), {t(i, l): one})
        for l1 in range(1, n + 1):
            for l2 in range(1, n + 1):
                if l1 + l2 <= n:
                    put(t(i, l1), t(i, l2), {t(i, l1 + l2): one})
    for (i, j) in arrows:
        # a_ij acts P_i -> P_j, so e_j a_ij = a_ij = a_ij e_i
        put(e(j), a(i, j), {a(i, j): one})
        put(a(i, j), e(i), {a(i, j): one})
        # loop compositions with arrows vanish in both presets

    if preset == "zigzag":
        for (i, j) in arrows:
            # a_ji a_ij : P_i -> P_j -> P_i closes the zigzag on vertex i, t_i^(2h/k) = t_i^n
            put(a(j, i), a(i, j), {t(i, n): one})
    elif isinstance(preset, Mapping):
        degmap = {lab: d for lab, d in basis}
        for (x, y), combo in preset.items():
            if x not in degmap or y not in degmap:
                raise InputValidationError(f"explicit table uses unknown labels ({x},{y})")
            put(x, y, dict(combo))

    unit = {e(i): one for i in vertices}
    A = GradedAlgebra(field_spec, tuple(basis), mult, unit, tuple(e(i) for i in vertices))
    validate(A).raise_if_invalid("configuration algebra")
    return A


# -- JSON ----------------------------------------------------------------


def algebra_to_json_dict(A: GradedAlgebra) -> dict:
    f = A.field_spec.field()
    mult_entries = []
    for (x, y) in sorted(A.mult):
        combo = A.mult[(x, y)]
        if not combo:
            continue
        mult_entries.append(
            {
                "left": x,
                "right": y,
                "result": [{"label": lab, "coeff": f.to_str(combo[lab])} for lab in sorted(combo)],
            }
        )
    out = {
        "field": A.field_spec.tag(),
        "basis": [{"label": lab, "degree": d} for lab, d in A.basis],
        "mult": mult_entries,
        "unit": [{"label": lab, "coeff": f.to_str(A.unit[lab])} for lab in sorted(A.unit)],
    }
    if A.idempotents is not None:
        out["idempotents"] = list(A.idempotents)
    return out


def algebra_from_json_dict(data: dict) -> GradedAlgebra:
    if not isinstance(data, dict):
        raise InputValidationError("algebra JSON must be an object")
    for key in ("field", "basis", "mult"):
        if key not in data:
            raise InputValidationError(f"algebra JSON missing key {key!r}")
    for key in ("basis", "mult", "unit", "idempotents"):
        if key in data and not isinstance(data[key], list):
            raise InputValidationError(f"algebra JSON {key!r} must be a list")
    field_spec = FieldSpec.parse(data["field"])
    f = field_spec.field()
    try:
        basis = tuple((b["label"], b["degree"]) for b in data["basis"])
    except (KeyError, TypeError) as exc:
        raise InputValidationError(f"bad basis entry: {exc}") from None
    # labels are checked by the constructor and unknown labels by validate;
    # a label that cannot key a dict is refused here, as a TypeError
    mult: Dict[Tuple[str, str], Combo] = {}
    for entry in data["mult"]:
        try:
            combo = {tm["label"]: f.parse(str(tm["coeff"])) for tm in entry["result"]}
            mult[(entry["left"], entry["right"])] = combo
        except (KeyError, TypeError) as exc:
            raise InputValidationError(f"bad mult entry: {exc}") from None
    try:
        if "unit" in data:
            unit = {tm["label"]: f.parse(str(tm["coeff"])) for tm in data["unit"]}
        elif data.get("idempotents"):
            unit = {lab: f.one for lab in data["idempotents"]}
        else:
            raise InputValidationError("algebra JSON needs a unit or idempotents")
    except (KeyError, TypeError) as exc:
        raise InputValidationError(f"bad unit entry: {exc}") from None
    idempotents = tuple(data["idempotents"]) if "idempotents" in data else None
    A = GradedAlgebra(field_spec, basis, mult, unit, idempotents)
    validate(A).raise_if_invalid()
    return A
