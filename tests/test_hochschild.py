import ast
import itertools
import os
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from formalitykit import hochschild, linalg
from formalitykit.configurations import ConfigGraph
from formalitykit.errors import (
    InputValidationError,
    NonExactResolutionError,
    ResourceCapError,
)
from formalitykit.fields import FieldSpec, RATIONALS, RATIONALS_SPEC
from formalitykit.graded import (
    GradedAlgebra,
    block_structure,
    build_configuration_algebra,
    truncated_poly,
    validate,
)
from formalitykit.hochschild import (
    HHResult,
    PeriodicResolutionSpec,
    _cochain_basis,
    _cochain_count,
    _delta_rows,
    _enumerate_words,
    _tables,
    _word_degree_states,
    bar_chain_slice,
    hh_bar,
    hh_resolution,
    hh_truncated_poly,
    kadeishvili_scan,
    nonempty_internal_degrees,
    periodic_spec_truncated_poly,
    validate_periodic_spec,
)
from formalitykit.linalg import kernel_rows, mul_rows, rank_rows, rref_extend, rref_rows
from combos import product_labels
from test_linalg import sparse

ONE = Fraction(1)


def a2_algebra(n=2, k=2, h=2, preset="orthogonal", field_spec=RATIONALS_SPEC):
    g = ConfigGraph.make([1, 2], [(1, 2)])
    return build_configuration_algebra(g, n, k, h, preset, field_spec)


def fixtures(field_spec=RATIONALS_SPEC):
    return [
        truncated_poly(1, 2, field_spec),
        truncated_poly(2, 2, field_spec),
        truncated_poly(1, 3, field_spec),
        truncated_poly(3, 1, field_spec),
        a2_algebra(field_spec=field_spec),
        a2_algebra(1, 2, 1, "zigzag", field_spec),
    ]


FIXTURES = fixtures()


# -- basic examples -----------------------------------------------------------


def test_hh00_of_spherelike_is_one():
    assert hh_bar(truncated_poly(1, 2), 0, 0).dim == 1


def test_hh10_euler_derivation():
    res = hh_bar(truncated_poly(1, 2), 1, 0, want_cocycles=True)
    assert res.dim == 1
    # the representative is the degree zero derivation t -> t (up to scale)
    assert len(res.cocycles) == 1
    terms = res.cocycles[0]
    assert terms == ((("t",), "t", "1"),) or terms == ((("t",), "t", "-1"),)


def test_hh_3_minus1_vanishes_for_even_degrees():
    assert hh_bar(truncated_poly(2, 2), 3, -1).dim == 0


# -- derivation oracle for HH^1 ----------------------------------------------


def _derivations_minus_inner(A: GradedAlgebra, q: int) -> int:
    """Graded derivations of internal degree q modulo inner ones, by a
    direct linear computation (independent of the bar machinery)."""
    labels = A.labels()
    degs = A.degree_map()
    by_deg = {}
    for lab in labels:
        by_deg.setdefault(degs[lab], []).append(lab)
    # unknowns: images D(b) in degree deg(b) + q
    slots = []
    for lab in labels:
        for target in by_deg.get(degs[lab] + q, []):
            slots.append((lab, target))
    sidx = {s: i for i, s in enumerate(slots)}
    rows = []
    f = A.field_spec.field()
    for x in labels:
        for y in labels:
            prod = product_labels(A, x, y)
            # Leibniz: D(xy) = D(x) y + x D(y), one scalar equation per
            # basis component of degree deg(x) + deg(y) + q
            for out in by_deg.get(degs[x] + degs[y] + q, []):
                row = [f.zero] * len(slots)
                for z, c in prod.items():
                    if (z, out) in sidx:
                        row[sidx[(z, out)]] = f.scalar(row[sidx[(z, out)]] + c)
                for tx in by_deg.get(degs[x] + q, []):
                    c = product_labels(A, tx, y).get(out)
                    if c is not None and (x, tx) in sidx:
                        row[sidx[(x, tx)]] = f.scalar(row[sidx[(x, tx)]] - c)
                for ty in by_deg.get(degs[y] + q, []):
                    c = product_labels(A, x, ty).get(out)
                    if c is not None and (y, ty) in sidx:
                        row[sidx[(y, ty)]] = f.scalar(row[sidx[(y, ty)]] - c)
                if any(not f.is_zero(v) for v in row):
                    rows.append(row)
    n_der = len(slots) - rank_rows(sparse(rows), f)
    # inner derivations [a, -] for a of degree q
    inner_rows = []
    for a in by_deg.get(q, []):
        row = [f.zero] * len(slots)
        for x in labels:
            ax = product_labels(A, a, x)
            xa = product_labels(A, x, a)
            for tgt in by_deg.get(degs[x] + q, []):
                c = f.scalar(ax.get(tgt, f.zero) - xa.get(tgt, f.zero))
                if not f.is_zero(c) and (x, tgt) in sidx:
                    row[sidx[(x, tgt)]] = c
        inner_rows.append(row)
    n_inner = rank_rows(sparse(inner_rows), f)
    return n_der - n_inner


@pytest.mark.parametrize("nk", [(1, 2), (2, 2), (1, 3), (3, 1)])
def test_hh1_matches_derivation_oracle(nk):
    n, k = nk
    A = truncated_poly(n, k)
    for q in range(-n * k, n * k + 1):
        assert hh_bar(A, 1, q).dim == _derivations_minus_inner(A, q), (n, k, q)


# -- center oracle for HH^0 ---------------------------------------------------


def _center_dim(A: GradedAlgebra, q: int) -> int:
    f = A.field_spec.field()
    labels = [lab for lab, d in A.basis if d == q]
    rows = []
    all_labels = A.labels()
    slots = {lab: i for i, lab in enumerate(labels)}
    for x in all_labels:
        targets = sorted({z for lab in labels for z in product_labels(A, lab, x)}
                         | {z for lab in labels for z in product_labels(A, x, lab)})
        for out in targets:
            row = [f.zero] * len(labels)
            for lab in labels:
                c = f.scalar(product_labels(A, lab, x).get(out, f.zero)
                             - product_labels(A, x, lab).get(out, f.zero))
                row[slots[lab]] = c
            if any(not f.is_zero(v) for v in row):
                rows.append(row)
    return len(labels) - rank_rows(sparse(rows), f)


@pytest.mark.parametrize("A", FIXTURES)
def test_hh0_is_graded_center(A):
    degrees = sorted({d for _, d in A.basis})
    for q in degrees:
        assert hh_bar(A, 0, q).dim == _center_dim(A, q)


# -- structural properties -----------------------------------------------------


@pytest.mark.parametrize("A", FIXTURES)
def test_chain_slices_compose_to_zero_and_count_words(A):
    degrees = sorted({d for _, d in A.basis if d > 0})
    for p in (2, 3, 4, 5):
        for q in range(1, 5 * max(degrees) + 1):
            words_p, words_pm1, d_p = bar_chain_slice(A, p, q)
            assert len(words_p) == _dp_word_count(A, p, q)
            if p >= 3 and words_pm1:
                _, _, d_pm1 = bar_chain_slice(A, p - 1, q)
                assert not any(mul_rows(d_pm1, d_p, RATIONALS))


def _dp_word_count(A: GradedAlgebra, p: int, q: int) -> int:
    """Independent count of composable words: dynamic programming over
    (remaining length, last source vertex, accumulated degree)."""
    from formalitykit.graded import block_structure

    blocks = block_structure(A)
    letters = [(lab, d, blocks[lab]) for lab, d in A.basis if d > 0]
    # state: (source vertex of the word so far, total degree) -> count
    state = {}
    for lab, d, (src, tgt) in letters:
        state[(src, d, tgt)] = state.get((src, d, tgt), 0) + 1
    for _ in range(p - 1):
        nxt = {}
        for (src, d, tgt), cnt in state.items():
            for lab2, d2, (src2, tgt2) in letters:
                if src != tgt2:
                    continue
                key = (src2, d + d2, tgt)
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    return sum(cnt for (src, d, tgt), cnt in state.items() if d == q)


# -- mode agreement -------------------------------------------------------------


@pytest.mark.parametrize(
    "A", [truncated_poly(1, 2), truncated_poly(1, 3), truncated_poly(2, 2), truncated_poly(3, 1)]
)
def test_relative_and_absolute_bar_agree(A):
    for p in range(0, 4):
        qs = set(nonempty_internal_degrees(A, p, mode="relative_normalized"))
        qs |= set(nonempty_internal_degrees(A, p, mode="absolute"))
        for q in sorted(qs):
            rel = hh_bar(A, p, q, mode="relative_normalized").dim
            ab = hh_bar(A, p, q, mode="absolute").dim
            assert rel == ab, (p, q, rel, ab)


# -- resolution engine -----------------------------------------------------------


def test_resolution_agreement_small():
    for (n, k) in [(1, 2), (2, 3)]:
        A = truncated_poly(n, k)
        spec = periodic_spec_truncated_poly(n, k, 6)
        validate_periodic_spec(A, spec)
        for p in range(0, 5):
            for q in set(nonempty_internal_degrees(A, p)) | set(
                range(-(p + 1) * (n + 1) * k, 1)
            ):
                assert hh_bar(A, p, q).dim == hh_resolution(A, spec, p, q), (n, k, p, q)


def test_resolution_hom_target_degrees():
    # for k[t]/t^2 with k = 2 the even term in homological degree 2 sits in
    # shift -4, so a degree 0 hom into A(0) is a component of A in degree 4
    A = truncated_poly(1, 2)
    spec = periodic_spec_truncated_poly(1, 2, 5)
    assert spec.shifts[2] == -4
    assert hh_resolution(A, spec, 2, 0) == 0


def test_resolution_too_short_errors():
    A = truncated_poly(1, 2)
    spec = periodic_spec_truncated_poly(1, 2, 3)
    with pytest.raises(InputValidationError):
        hh_resolution(A, spec, 3, 0)


def test_resolution_nonzero_composite_rejected():
    A = truncated_poly(1, 2)
    u = (("t", "1", ONE), ("1", "t", -ONE))
    bad = PeriodicResolutionSpec((0, -2, -4), (u, u))
    with pytest.raises(InputValidationError):
        validate_periodic_spec(A, bad)


def test_resolution_inhomogeneous_multiplier_rejected():
    A = truncated_poly(1, 2)
    mixed = (("t", "1", ONE), ("1", "1", ONE))
    with pytest.raises(InputValidationError):
        validate_periodic_spec(A, PeriodicResolutionSpec((0, -2), (mixed,)))


def test_resolution_non_exact_detected_with_degree():
    # starting with the wrong multiplier leaves a kernel element of the
    # augmentation uncovered in internal degree 2
    A = truncated_poly(1, 2)
    v = (("t", "1", ONE), ("1", "t", ONE))
    bad = PeriodicResolutionSpec((0, -2), (v,))
    with pytest.raises(NonExactResolutionError) as exc:
        validate_periodic_spec(A, bad)
    assert exc.value.degree == 2
    assert exc.value.position == 0


def test_resolution_non_exact_detected_past_the_augmentation():
    # the composite (t x t)(t x 1 - 1 x t) vanishes, but t x t misses the
    # kernel of d_1 in internal degree 4
    A = truncated_poly(1, 2)
    u = (("t", "1", ONE), ("1", "t", -ONE))
    bad = PeriodicResolutionSpec((0, -2, -6), (u, (("t", "t", ONE),)))
    with pytest.raises(NonExactResolutionError) as exc:
        validate_periodic_spec(A, bad)
    assert (exc.value.degree, exc.value.position) == (4, 1)
    assert str(exc.value) == "resolution not exact at position 1 in internal degree 4"


@pytest.mark.parametrize("A", FIXTURES + fixtures(FieldSpec.parse("fp:7")))
def test_env_mul_is_associative(A):
    # the resolution check takes d_j d_(j+1) = 0 from the composite of the
    # multipliers, which needs the product of A (x) A^op to associate
    f = A.field_spec.field()
    labels = A.labels()
    rng = random.Random(20011)

    def combo():
        return tuple((rng.choice(labels), rng.choice(labels), rng.randint(-3, 3))
                     for _ in range(rng.randint(1, 4)))

    def triples(product):
        return tuple((x, y, c) for (x, y), c in product.items())

    def normal(product):
        return {key: f.scalar(c) for key, c in product.items()}

    for _ in range(40):
        m1, m2, m3 = combo(), combo(), combo()
        left = hochschild._env_mul(A, triples(hochschild._env_mul(A, m1, m2)), m3)
        right = hochschild._env_mul(A, m1, triples(hochschild._env_mul(A, m2, m3)))
        assert normal(left) == normal(right), (m1, m2, m3)


def count_spec_checks(monkeypatch):
    runs = []
    real = hochschild._check_periodic_spec
    monkeypatch.setattr(hochschild, "_check_periodic_spec",
                        lambda A, spec: runs.append(spec) or real(A, spec))
    return runs


def test_resolution_slices_check_their_spec_once(monkeypatch):
    A = truncated_poly(2, 1)
    spec = periodic_spec_truncated_poly(2, 1, 6)
    runs = count_spec_checks(monkeypatch)
    slices = [(p, q) for p in range(0, 5) for q in range(-12, 0)]
    assert len(slices) >= 50
    dims = [hh_resolution(A, spec, p, q) for p, q in slices]
    assert runs == [spec]
    assert dims == [hh_bar(A, p, q).dim for p, q in slices]
    # the memo is per algebra: an equal algebra checks the spec again
    hh_resolution(truncated_poly(2, 1), spec, 1, 0)
    assert runs == [spec, spec]
    # and per spec object, since specs compare by identity: so does an equal spec
    twin = periodic_spec_truncated_poly(2, 1, 6)
    assert twin != spec
    hh_resolution(A, twin, 1, 0)
    hh_resolution(A, twin, 2, 0)
    assert runs == [spec, spec, twin] and runs[2] is twin


def test_non_exact_spec_is_refused_on_every_call(monkeypatch):
    # the spec of test_resolution_non_exact_detected_with_degree
    A = truncated_poly(1, 2)
    v = (("t", "1", ONE), ("1", "t", ONE))
    bad = PeriodicResolutionSpec((0, -2), (v,))
    runs = count_spec_checks(monkeypatch)
    for _ in range(3):
        with pytest.raises(NonExactResolutionError):
            hh_resolution(A, bad, 0, 0)
        with pytest.raises(NonExactResolutionError):
            validate_periodic_spec(A, bad)
    assert len(runs) == 6


@pytest.mark.parametrize("call", [
    lambda A, spec: hh_resolution(A, spec, 1, 0, **{"check": False}),
    lambda A, spec: hh_resolution(A, spec, 1, 0, **{"degree_bound": 4}),
    lambda A, spec: validate_periodic_spec(A, spec, 4),
    lambda A, spec: bar_chain_slice(A, 2, 4, 10),
], ids=["hh_resolution-check", "hh_resolution-degree_bound", "validate-degree_bound",
        "bar_chain_slice-max_words"])
def test_deleted_parameters_are_type_errors(call):
    A = truncated_poly(1, 2)
    with pytest.raises(TypeError):
        call(A, periodic_spec_truncated_poly(1, 2, 4))


def test_standard_periodic_specs_validate():
    for (n, k) in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        validate_periodic_spec(truncated_poly(n, k), periodic_spec_truncated_poly(n, k, 6))


def test_truncated_poly_6_1_slice_over_q():
    """The (4, -4) slice of k[t]/t^7, deg t = 1: d_4 is 252 x 206 at 2.9 %
    non-zero, the matrix on which dense Fraction elimination took seconds."""
    A = truncated_poly(6, 1)
    res = hh_bar(A, 4, -4)
    assert (res.dim, res.slice_dims) == (0, (107, 206, 252))
    assert hh_resolution(A, periodic_spec_truncated_poly(6, 1, 6), 4, -4) == 0


@pytest.mark.parametrize("q, dim", [(-9, 1), (-8, 0)])
def test_truncated_poly_6_1_slices_over_f32003_match_resolution(q, dim):
    # the resolution is validated over F_32003 too
    A = truncated_poly(6, 1, FieldSpec(kind="fp", p=32003))
    assert hh_bar(A, 4, q).dim == dim
    assert hh_resolution(A, periodic_spec_truncated_poly(6, 1, 6), 4, q) == dim


def test_resolution_over_f7_assembles_int_matrices(monkeypatch):
    # validate_periodic_spec maps the spec's coefficients into F_7 once and
    # hh_resolution builds on the spec it returns, so every matrix holds ints
    A = truncated_poly(2, 1, FieldSpec(kind="fp", p=7))
    spec = periodic_spec_truncated_poly(2, 1, 6)
    slices = [(2, -3), (3, -4), (1, 0)]
    assembled = []
    real_rank_rows = hochschild.rank_rows

    def recording_rank_rows(rows, field):
        assembled.append(rows)
        return real_rank_rows(rows, field)

    monkeypatch.setattr(hochschild, "rank_rows", recording_rank_rows)
    dims = [hh_resolution(A, spec, p, q) for p, q in slices]
    monkeypatch.undo()
    assert assembled
    assert all(type(x) is int for rows in assembled for row in rows for x in row.values())
    assert dims == [hh_bar(A, p, q).dim for p, q in slices] == [1, 0, 1]


def test_spec_check_skips_a_zero_table_term_of_another_degree():
    """Over F_7, t t = 7 1 is a table term of degree 0 in a product of
    degree 4 with coefficient 0: the algebra is k[t]/t^2 with |t| = 2, and
    the grading check skips the term. The spec check skips it too, and the
    resolution agrees with the bar complex."""
    F7 = FieldSpec(kind="fp", p=7)
    mult = {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
            ("t", "t"): {"1": 7}}
    A = GradedAlgebra(F7, (("1", 0), ("t", 2)), mult, {"1": 1})
    assert hh_bar(A, 1, 0).dim == 1
    spec = validate_periodic_spec(A, periodic_spec_truncated_poly(1, 2, 4))
    for p in range(4):
        for q in range(-2 * (p + 1) * 2, 1):
            assert hh_resolution(A, spec, p, q) == hh_bar(A, p, q).dim, (p, q)


# -- scans ------------------------------------------------------------------------


def test_scan_truncated_poly_all_zero():
    assert kadeishvili_scan(truncated_poly(2, 2), 5) == {3: 0, 4: 0, 5: 0}


@pytest.mark.parametrize("q_max", [2, 0, -1])
def test_scan_refuses_a_range_with_no_obstruction_degree(q_max):
    # an empty table would read as vanishing over nothing
    with pytest.raises(InputValidationError, match="q_max must be >= 3"):
        kadeishvili_scan(truncated_poly(2, 2), q_max)


def test_scan_via_resolution_oracle():
    A = truncated_poly(1, 4)
    spec = periodic_spec_truncated_poly(1, 4, 6)
    scan = kadeishvili_scan(A, 4)
    for q in (3, 4):
        assert scan[q] == hh_resolution(A, spec, q, 2 - q) == 0


def test_scan_square_zero_toy_table():
    # the degree 1 square zero toy: observed table frozen from both engines
    A = truncated_poly(1, 1)
    table = kadeishvili_scan(A, 5)
    assert table == {3: 0, 4: 0, 5: 0}
    for q in (3, 4, 5):
        assert hh_bar(A, q, 2 - q, mode="absolute").dim == table[q]


FP32003 = FieldSpec(kind="fp", p=32003)


# -- slices that need sparse assembly ----------------------------------------------
# On a 2-core x86-64 host (Python 3.11.7), dense assembly took 7 s and 940 MiB
# for the slice and 20 s and 2.2 GiB for the absolute scan; assembled as dict
# rows each takes about a second and under 70 MiB.


def test_large_slice_over_fp_agrees_with_the_resolution():
    # d_5 is 26873 x 4211 with about 0.08 % of its entries non-zero
    A = truncated_poly(6, 1, FP32003)
    res = hh_bar(A, 5, -17)
    assert (res.slice_dims, res.dim) == ((309, 4211, 26873), 0)
    spec = periodic_spec_truncated_poly(6, 1, 6)
    assert hh_resolution(A, spec, 5, -17) == 0


def test_absolute_engine_cross_checks_the_a2_orthogonal_scan():
    A = build_configuration_algebra(
        ConfigGraph.make([1, 2], [(1, 2)]), 1, 2, 1, "orthogonal", FP32003
    )
    assert kadeishvili_scan(A, 5) == {3: 0, 4: 2, 5: 0}
    assert kadeishvili_scan(A, 5, mode="absolute") == {3: 0, 4: 2, 5: 0}


SIGNS_AGREE = ((1, 1), (1, 1), (1, 1))
SIGNS_DIFFER_ON_ONE_EDGE = ((1, 1), (1, 1), (1, -1))


def serre_dual_triangle(signs, field_spec=RATIONALS_SPEC):
    """Triangle configuration of 5-spherical objects with Serre-dual arrows.

    Vertices 1, 2, 3 carry loops t_i of degree k = 5 with t_i^2 = 0. For
    each edge (i, j) of the cycle 1 -> 2 -> 3 -> 1 there is an arrow a_ij of
    degree 2 and an arrow a_ji of degree 3 back, so the two arrow degrees
    on an edge add up to k, as Serre duality demands. signs[edge] =
    (s_i, s_j) sets a_ji a_ij = s_i t_i and a_ij a_ji = s_j t_j; every
    composition through distinct vertices and every arrow-loop product is
    zero. build_configuration_algebra gives all arrows one degree, so the
    table is written out here.

    Which signs are Serre-dual: a Serre functor gives a trace on the
    degree k part with tr(xy) = (-1)^{|x||y|} tr(yx) and a non-degenerate
    pairing. For x = a_ij, y = a_ji, |x||y| = 6 is even, so
    tr(a_ji a_ij) = tr(a_ij a_ji), i.e. s_i tr(t_i) = s_j tr(t_j).
    Normalising tr(t_i) = 1 forces s_i = s_j on every edge. Rescaling
    arrows and loops multiplies the ratios s_j / s_i by factors whose
    product around the cycle is 1, so that product is an invariant: with
    one edge's signs differing it is -1, no trace exists, and the algebra
    is a different (non Serre-dual) one.
    """
    f = field_spec.field()
    one = f.one
    cycle = ((0, 1), (1, 2), (2, 0))

    def e(i):
        return f"e{i + 1}"

    def t(i):
        return f"t{i + 1}"

    def a(i, j):
        return f"a{i + 1}{j + 1}"

    basis = [(e(i), 0) for i in range(3)] + [(t(i), 5) for i in range(3)]
    mult = {}
    for i in range(3):
        mult[(e(i), e(i))] = {e(i): one}
        mult[(e(i), t(i))] = {t(i): one}
        mult[(t(i), e(i))] = {t(i): one}
    for (i, j), (s_i, s_j) in zip(cycle, signs):
        basis += [(a(i, j), 2), (a(j, i), 3)]
        for x, y in ((i, j), (j, i)):
            # a_xy acts P_x -> P_y, so e_y a_xy = a_xy = a_xy e_x
            mult[(e(y), a(x, y))] = {a(x, y): one}
            mult[(a(x, y), e(x))] = {a(x, y): one}
        mult[(a(j, i), a(i, j))] = {t(i): f.scalar(s_i)}
        mult[(a(i, j), a(j, i))] = {t(j): f.scalar(s_j)}
    unit = {e(i): one for i in range(3)}
    return GradedAlgebra(field_spec, tuple(basis), mult, unit, tuple(e(i) for i in range(3)))


@pytest.mark.parametrize("field_spec", [RATIONALS_SPEC, FP32003], ids=["Q", "F32003"])
def test_serre_dual_triangle_k5_witness(field_spec):
    """The Serre-dual triangle with degree 2 and 3 arrows and loop degree 5
    has a one dimensional obstruction group HH^{3,-1}; flipping one edge's
    sign (no longer Serre-dual) kills it. Flipping two edges leaves the
    invariant product of sign ratios at +1 and the class survives."""
    A = serre_dual_triangle(SIGNS_AGREE, field_spec)
    assert validate(A).ok
    assert kadeishvili_scan(A, 4) == {3: 1, 4: 0}
    B = serre_dual_triangle(SIGNS_DIFFER_ON_ONE_EDGE, field_spec)
    assert validate(B).ok
    assert kadeishvili_scan(B, 4) == {3: 0, 4: 0}
    C = serre_dual_triangle(((1, -1), (1, -1), (1, 1)), field_spec)
    assert hh_bar(C, 3, -1).dim == 1


def test_serre_dual_triangle_k5_witness_absolute_engine():
    # the absolute bar complex over Q gives the same value but is about ten
    # times slower, so the second engine is checked over F_32003 only
    A = serre_dual_triangle(SIGNS_AGREE, FP32003)
    B = serre_dual_triangle(SIGNS_DIFFER_ON_ONE_EDGE, FP32003)
    assert hh_bar(A, 3, -1, mode="absolute").dim == 1
    assert hh_bar(B, 3, -1, mode="absolute").dim == 0


def test_scan_triangle_spherelike_boundary_case():
    """A triangle of degree 2 arrows between loop degree 5 vertices has a
    six dimensional obstruction group in the Kadeishvili slot q = 3: the
    six closed 3-walks each map onto a loop generator. This algebra is not
    Serre-dual: the arrow degrees on an edge add up to 4, not k = 5, and
    the pairings a_ji a_ij vanish. The Serre-dual witness of the k = 5
    boundary is test_serre_dual_triangle_k5_witness."""
    tri = ConfigGraph.make([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    A = build_configuration_algebra(tri, 1, 5, 2, "orthogonal")
    assert kadeishvili_scan(A, 4) == {3: 6, 4: 0}
    # the same degree data on a tree is unobstructed (trees are bipartite)
    path = ConfigGraph.make([1, 2, 3], [(1, 2), (2, 3)])
    B = build_configuration_algebra(path, 1, 5, 2, "orthogonal")
    assert kadeishvili_scan(B, 4) == {3: 0, 4: 0}


# -- fields, caps, inputs ----------------------------------------------------------


def test_field_independence_over_clean_primes():
    for p in (5, 7):
        fp = FieldSpec(kind="fp", p=p)
        A_q = truncated_poly(2, 2)
        A_p = truncated_poly(2, 2, fp)
        for pp in range(0, 4):
            for q in nonempty_internal_degrees(A_q, pp):
                assert hh_bar(A_q, pp, q).dim == hh_bar(A_p, pp, q).dim


def test_word_cap_raises_cleanly():
    A = a2_algebra()
    with pytest.raises(ResourceCapError):
        hh_bar(A, 3, -2, max_words=1)


def test_invalid_algebra_rejected():
    basis = (("1", 0), ("t", 1))
    mult = {("1", "1"): {"1": ONE}, ("t", "t"): {"1": ONE}}  # grading violation
    A = GradedAlgebra(FieldSpec(), basis, mult, {"1": ONE}, ("1",))
    for _ in range(2):  # nothing is stored for an algebra that fails
        with pytest.raises(InputValidationError):
            hh_bar(A, 0, 0)


def test_old_positional_bimodule_call_shape_is_a_type_error():
    A = truncated_poly(1, 2)
    spec = periodic_spec_truncated_poly(1, 2, 4)
    for stale in (
        lambda: hh_bar(A, None, 0, 0),
        lambda: hh_resolution(A, spec, None, 0, 0),
        lambda: nonempty_internal_degrees(A, None, 0),
        lambda: kadeishvili_scan(A, 3, "absolute"),
    ):
        with pytest.raises(TypeError):
            stale()


def test_fraction_coefficients_over_fp_match_their_integer_twin():
    # k[t]/t^2 over F_7 with deg t = 2, once with 1 t = 9/2 t (9/2 = 1 in F_7)
    F7 = FieldSpec(kind="fp", p=7)
    basis = (("1", 0), ("t", 2))
    half = {("1", "1"): {"1": 1}, ("1", "t"): {"t": Fraction(9, 2)}, ("t", "1"): {"t": 1}}
    A = GradedAlgebra(F7, basis, half, {"1": 1}, ("1",))
    twin = truncated_poly(1, 2, F7)
    assert validate(A).ok and A.mult[("1", "t")] == {"t": 1}
    for p in range(4):
        for q in range(-2 * p - 2, 3):
            for mode in hochschild.MODES:
                assert (hh_bar(A, p, q, mode=mode).dim
                        == hh_bar(twin, p, q, mode=mode).dim), (p, q, mode)


@pytest.mark.parametrize("field_spec", [RATIONALS_SPEC, FieldSpec(kind="fp", p=7)],
                         ids=["Q", "F7"])
def test_half_table_matches_the_zigzag_algebra_in_every_slice(field_spec):
    # a12 a21 = t2^2 / 2 and a21 a12 = t1^2 / 2 is the A2 zigzag algebra
    # (2, 2, 2) after a12 -> 2 a12, so both give the same slices; over Q its
    # tables hold Fractions, so the differentials are assembled from them
    graph = ConfigGraph.make([1, 2], [(1, 2)])
    half = Fraction(1, 2)
    table = {("a12", "a21"): {"t2^2": half}, ("a21", "a12"): {"t1^2": half}}
    A = build_configuration_algebra(graph, 2, 2, 2, table, field_spec)
    zigzag = build_configuration_algebra(graph, 2, 2, 2, "zigzag", field_spec)
    for mode in hochschild.MODES:
        held = {v for combo in _tables(A, mode).mult.values() for v in combo.values()}
        assert (half in held) == (field_spec is RATIONALS_SPEC)
        for p in range(5):
            for q in range(-4, 5):
                got, want = hh_bar(A, p, q, mode=mode), hh_bar(zigzag, p, q, mode=mode)
                assert (got.dim, got.slice_dims) == (want.dim, want.slice_dims), (mode, p, q)


def test_nonempty_internal_degrees_refuses_negative_p():
    # a negative length has no words, so unchecked, p = -1 would list no
    # degree rather than refuse the input
    with pytest.raises(InputValidationError):
        nonempty_internal_degrees(truncated_poly(2, 2), -1)


def test_bar_chain_slice_refuses_p_below_one():
    # unchecked, p = 0 lists the empty word, which has degree 0, in degree 4
    with pytest.raises(InputValidationError):
        bar_chain_slice(truncated_poly(2, 2), 0, 4)


def test_scan_builds_tables_once_and_calls_hh_bar_per_q(monkeypatch):
    A = build_configuration_algebra(
        ConfigGraph.make([1, 2], [(1, 2)]), 1, 2, 1, "orthogonal", FieldSpec(kind="fp", p=32003)
    )
    builds, slices = [], []
    real_build, real_hh_bar = hochschild._build_tables, hochschild.hh_bar
    monkeypatch.setattr(
        hochschild, "_build_tables", lambda *a, **kw: builds.append(a) or real_build(*a, **kw)
    )
    monkeypatch.setattr(
        hochschild, "hh_bar", lambda *a, **kw: slices.append(a) or real_hh_bar(*a, **kw)
    )
    assert kadeishvili_scan(A, 6) == {3: 0, 4: 2, 5: 0, 6: 2}
    assert (len(builds), len(slices)) == (1, 4)
    # a second scan reuses the tables kept in the algebra's memo
    assert kadeishvili_scan(A, 6) == {3: 0, 4: 2, 5: 0, 6: 2}
    assert (len(builds), len(slices)) == (1, 8)


def workload_literal(name):
    """The literal assigned to name in perfbench/workloads.py."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/workloads.py defines no {name}")


def benchmark_cocycle_slices():
    """The (n, p, q) slices of truncated_poly(n, 1) that the hh-slices-q
    benchmark workload runs with --cocycles."""
    return sorted(workload_literal("HH_COCYCLES"))


F7 = FieldSpec(kind="fp", p=7)
COCYCLE_CASES = [pytest.param(truncated_poly(n, 1), p, q, id=f"tp{n}-p{p}-q{q}")
                 for n, p, q in benchmark_cocycle_slices()]
# slices of dimension 4, 12 and 14, so that the bound counts merges too, and
# one where C^(p+1) = 0
COCYCLE_CASES += [
    pytest.param(a2_algebra(), 3, -6, id="a2-222-p3-q-6"),
    pytest.param(a2_algebra(), 4, -6, id="a2-222-p4-q-6"),
    pytest.param(build_configuration_algebra(ConfigGraph.make([1, 2], [(1, 2)]), 1, 2, 1,
                                             "orthogonal", F7), 4, -4, id="a2-121-F7-p4-q-4"),
    pytest.param(truncated_poly(1, 1), 3, -2, id="tp1-p3-q-2"),
]


@pytest.mark.parametrize("A, p, q", COCYCLE_CASES)
def test_cocycles_eliminate_each_differential_once(monkeypatch, A, p, q):
    """Both paths assemble d_(p-1) and d_p as the coboundaries of their
    domains, one row per cochain of C^(p-1) and of C^p, never one per
    cochain of C^(p+1), and give no matrix with more than n_p rows to
    `linalg`. The dimension path eliminates the image of d_(p-1) once and,
    where C^(p+1) is not 0, the coboundaries of the cochains outside the
    image's pivot columns once; where it is 0 it assembles no d_p. The
    cocycle path eliminates the image twice, once in each column order, and
    the kept coboundaries once, then merges the kernel on the kept cochains
    into the image in one more elimination when there is a class. It never
    asks for a rank, and finds as many representatives as the rank path's
    dim."""
    deltas, calls = {}, []
    real_delta, real = hochschild._delta_rows, linalg._eliminate

    def delta(tb, p_, *args):
        deltas[p_] = real_delta(tb, p_, *args)
        return deltas[p_]

    def record(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(hochschild, "_delta_rows", delta)
    monkeypatch.setattr(linalg, "_eliminate", record)
    res = hh_bar(A, p, q)
    dim, (n_prev, n_here, n_next) = res.dim, res.slice_dims
    dim_shapes, dim_calls = {k: len(v) for k, v in deltas.items()}, calls[:]
    deltas.clear()
    calls.clear()

    def refuse(*args):
        raise AssertionError("the cocycle path asked for a rank")

    monkeypatch.setattr(hochschild, "rank_rows", refuse)
    res = hh_bar(A, p, q, want_cocycles=True)
    monkeypatch.setattr(linalg, "_eliminate", real)
    assert res.dim == len(res.cocycles) == dim
    image = {p - 1: n_prev} if n_prev else {}
    assert {k: len(v) for k, v in deltas.items()} == {**image, p: n_here}
    assert dim_shapes == ({**image, p: n_here} if n_next else image)
    cut = rank_rows(deltas.get(p - 1, []), A.field_spec.field())
    assert dim_calls == ([n_prev, n_here - cut] if n_next else [n_prev])
    assert sorted(calls[:3]) == sorted([n_prev, n_prev, n_here - cut])
    assert calls[3:] == ([dim] if dim else [])
    assert max(dim_calls + calls) <= n_here


# -- the rank and cocycle paths against the two-rank and greedy references ------


def reference_slice(A, p, q, mode):
    """(slice dims, dim, representatives) of HH^{p,q} by the former route:
    dim = n_p - rank d_p - rank d_(p-1) from two rank-mode eliminations, and
    the kernel basis of d_p merged one vector at a time into the image of
    d_(p-1) by rref_extend, each vector kept when the span grows. The
    representatives are formatted as hh_bar formats its cocycles."""
    tb = _tables(A, mode)
    f = tb.field
    g0, n0 = _cochain_basis(tb, p - 1, q, 10**6) if p else ({}, 0)
    g1, n1 = _cochain_basis(tb, p, q, 10**6)
    g2, n2 = _cochain_basis(tb, p + 1, q, 10**6)
    if n1 == 0:
        return (n0, n1, n2), 0, ()
    # d_p as a matrix, one row per cochain of C^(p+1)
    d_here = [{} for _ in range(n2)]
    for c, col in enumerate(_delta_rows(tb, p, g1, g2, n1)):
        for r, x in col.items():
            d_here[r][c] = x
    image = _delta_rows(tb, p - 1, g0, g1, n0) if p and n0 else []
    dim = n1 - rank_rows(d_here, f) - rank_rows(image, f)
    span = rref_rows(image, f)[1]
    reps = []
    for v in kernel_rows(d_here, f, n1):
        grown = rref_extend(span, [v], f)
        if len(grown) > len(span):
            reps.append(v)
            span = grown
    where = {c: (w, m) for w, pairs in g1.items() for c, m in pairs}
    cocycles = tuple(
        tuple((tuple(tb.labels[i] for i in where[c][0]) if p else (),
               tb.labels[where[c][1]], f.to_str(v[c])) for c in sorted(v))
        for v in reps
    )
    return (n0, n1, n2), dim, cocycles


def reference_grid(field_spec):
    """The algebras of the reference grid: truncated_poly(n, k) for n <= 6
    and k <= 2, and the A2 and triangle (1, 2, 1) configuration algebras,
    orthogonal and zigzag."""
    out = [truncated_poly(n, k, field_spec) for n in range(1, 7) for k in (1, 2)]
    for vertices, edges in (([1, 2], [(1, 2)]), ([1, 2, 3], [(1, 2), (2, 3), (3, 1)])):
        for preset in ("orthogonal", "zigzag"):
            out.append(build_configuration_algebra(
                ConfigGraph.make(vertices, edges), 1, 2, 1, preset, field_spec))
    return out


# slices with more cochains than this in C^p and C^(p+1) together are left
# out, which keeps 758 of the grid's 1066 slices and the three fields to a
# few seconds; the absolute triangle slices reach 600,000 cochains
REFERENCE_COLUMNS = 200


@pytest.mark.parametrize("field_spec", [RATIONALS_SPEC, F7, FP32003],
                         ids=["Q", "F7", "F32003"])
def test_hh_bar_matches_the_two_rank_and_greedy_references(field_spec):
    met = with_cocycles = 0
    for A in reference_grid(field_spec):
        for mode in hochschild.MODES:
            tb = _tables(A, mode)
            states = [None] + [_word_degree_states(tb, length) for length in range(1, 6)]
            for p in range(5):
                for q in nonempty_internal_degrees(A, p, mode=mode):
                    # the cochains on length p and p + 1 words, counted
                    # without listing the words
                    size = sum(cnt * len(tb.slots.get((d + q, s, t), ()))
                               for st in states[max(p, 1):p + 2]
                               for (d, s, t), cnt in st.items())
                    if not -12 <= q <= 3 or size > REFERENCE_COLUMNS:
                        continue
                    dims, dim, cocycles = reference_slice(A, p, q, mode)
                    got = hh_bar(A, p, q, mode=mode)
                    reps = hh_bar(A, p, q, mode=mode, want_cocycles=True)
                    assert (got.slice_dims, got.dim) == (dims, dim), (mode, p, q)
                    assert (reps.dim, reps.cocycles) == (dim, cocycles), (mode, p, q)
                    met += 1
                    with_cocycles += bool(cocycles)
    # 758 slices per field, 295 of them (303 over F_7) with cocycles
    assert met >= 750 and with_cocycles >= 290


# -- the word walk against brute force ------------------------------------------


SCAN_QMAX = 6  # the --qmax of every scan-config-fp command


def pool_algebras():
    """(id, algebra, HH^{p,q} slices) for every algebra of the scan-config-fp
    and hh-slices-q benchmark pools, with the slices its commands ask for."""
    graphs = workload_literal("GRAPHS")
    fp = FieldSpec(kind="fp", p=32003)
    out = []
    for graph, n, k, h, preset in workload_literal("SCAN_CONFIGS"):
        vertices, edges = graphs[graph]
        A = build_configuration_algebra(ConfigGraph.make(vertices, edges), n, k, h, preset, fp)
        out.append((f"{graph}-{n}{k}{h}-{preset}", A,
                    [(q, 2 - q) for q in range(3, SCAN_QMAX + 1)]))
    slices = {}
    for n, p, q in workload_literal("HH_SLICES"):
        slices.setdefault(n, []).append((p, q))
    out += [(f"tp{n}", truncated_poly(n, 1), pqs) for n, pqs in sorted(slices.items())]
    return out


POOL_ALGEBRAS = pool_algebras()
POOL = [pytest.param(A, pqs, id=name) for name, A, pqs in POOL_ALGEBRAS]
# absolute mode lists every word of every label; past this many letter
# tuples (the scan algebras from length 4 or 5 on) the oracle is skipped
ABSOLUTE_TUPLES = 50_000


def brute_force_words(A, mode, length, degrees):
    """(word, degree) for every composable tuple of length letters with
    total degree in degrees, in lexicographic order of the letter indices.

    The letters, their blocks and their degrees are read off the basis and
    block_structure, not off the prepared tables. Words grow by
    itertools.product of the words one letter shorter with the letters,
    kept where the new letter composes after the last one, which is the
    product of length copies of the letters filtered for composability.
    The empty word is the one word of length 0; a negative length has none."""
    degs = [d for _, d in A.basis]
    if mode == "absolute":
        letters = range(len(degs))
        src = tgt = [0] * len(degs)
    else:
        blocks = block_structure(A)
        letters = [i for i, d in enumerate(degs) if d > 0]
        src = [blocks[lab][0] for lab in A.labels()]
        tgt = [blocks[lab][1] for lab in A.labels()]
    words = [()] if length >= 0 else []
    for _ in range(length):
        words = [w + (j,) for w, j in itertools.product(words, letters)
                 if not w or src[w[-1]] == tgt[j]]
    totals = [sum(degs[i] for i in w) for w in words]
    return [(w, d) for w, d in zip(words, totals) if d in degrees]


@pytest.mark.parametrize("A, slices", POOL)
def test_word_walk_matches_brute_force_on_the_pool_algebras(A, slices):
    checked = 0
    for mode in hochschild.MODES:
        tb = _tables(A, mode)
        for p, q in slices:
            # the targets of a cochain slice, as _cochain_basis asks for them
            targets = {d - q for d in set(tb.degs)}
            for length in sorted({-1, 0, p - 1, p, p + 1}):
                if mode == "absolute" and len(tb.letters) ** length > ABSOLUTE_TUPLES:
                    continue
                want = brute_force_words(A, mode, length, targets)
                assert _enumerate_words(tb, length, targets, 10**7, "") == want, (mode, length)
                checked += 1
                if mode == "absolute" or length < 1:  # bar_chain_slice refuses p < 1
                    continue
                for t in sorted(targets):
                    words = [tuple(tb.labels[i] for i in w) for w, d in want if d == t]
                    assert bar_chain_slice(A, length, t)[0] == words, (length, t)
    assert checked > 3 * len(slices)  # every relative slice and some absolute ones


def reference_word_degree_states(tb, p):
    """Length p word counts per (degree, src, tgt), from the empty word at
    each block b, state (0, b, b), each step trying every letter after the
    source block of the word so far."""
    states = {(0, b, b): 1 for b in set(tb.src)}
    for _ in range(p):
        nxt = {}
        for (d, src_last, tgt_first), cnt in states.items():
            for i in tb.letters:
                if src_last == tb.tgt[i]:
                    key = (d + tb.degs[i], tb.src[i], tgt_first)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return states


@pytest.mark.parametrize("A", FIXTURES + [A for _, A, _ in POOL_ALGEBRAS])
def test_word_degree_states_follow_the_successor_lists_unchanged(A):
    for mode in hochschild.MODES:
        tb = _tables(A, mode)
        for p in range(0, 8):
            assert _word_degree_states(tb, p) == reference_word_degree_states(tb, p), (mode, p)


@pytest.mark.parametrize("A", FIXTURES)
def test_a_negative_length_has_no_words(A):
    for mode in hochschild.MODES:
        tb = _tables(A, mode)
        assert _word_degree_states(tb, -1) == {}, mode
        for q in range(-6, 7):
            targets = {d - q for d in set(tb.degs)}
            assert _enumerate_words(tb, -1, targets, 10**7, "") == [], (mode, q)
            assert _word_degree_states(tb, -1, targets, 10**7) == {}, (mode, q)
            assert _cochain_basis(tb, -1, q, 10**7) == ({}, 0), (mode, q)
            assert _cochain_count(tb, -1, q, 10**7) == 0, (mode, q)


# -- d compose d vanishes ---------------------------------------------------------

# d_(p+1) d_p for p <= p_max: FIXTURES over Q, F_7 and F_32003 for -5 <= q <= 2,
# in relative mode up to p = 4 and in absolute mode (far larger slices) up to
# p = 2; each scan-config-fp algebra in relative mode, the mode its scans run
# in, up to d_6 d_5 (its scan's deepest slice is p = 6) in every degree q where
# C^(p+1) is non-empty
QS = range(-5, 3)
DELTA_CASES = [pytest.param(A, mode, p_max, QS, id=f"A{i}{field}{tag}")
               for mode, p_max, tag in (("relative_normalized", 4, ""), ("absolute", 2, "-absolute"))
               for field, spec in (("", RATIONALS_SPEC), ("-F7", F7), ("-F32003", FP32003))
               for i, A in enumerate(fixtures(spec))]
DELTA_CASES += [pytest.param(A, "relative_normalized", SCAN_QMAX - 1, None, id=name)
                for name, A, _ in POOL_ALGEBRAS if A.field_spec.kind == "fp"]


@pytest.mark.parametrize("A, mode, p_max, qs", DELTA_CASES)
def test_cochain_delta_squares_to_zero(A, mode, p_max, qs):
    tb = _tables(A, mode)
    for p in range(0, p_max + 1):
        for q in qs or nonempty_internal_degrees(A, p + 1, mode=mode):
            g0, n0 = _cochain_basis(tb, p, q, 10**6)
            g1, n1 = _cochain_basis(tb, p + 1, q, 10**6)
            g2, n2 = _cochain_basis(tb, p + 2, q, 10**6)
            if n0 == 0 or n2 == 0:
                continue
            d0 = _delta_rows(tb, p, g0, g1, n0)
            d1 = _delta_rows(tb, p + 1, g1, g2, n1)
            # row c is d_(p+1) applied to the coboundary d(e_c)
            assert not any(mul_rows(d0, d1, tb.field)), (p, q)


# -- the word cap admits exactly max_words words --------------------------------


def test_word_cap_admits_exactly_max_words_on_small_slices():
    # the largest of the three word lists of a slice is what the cap meets;
    # a cap of one word less once passed where only the last list was full,
    # as in HH^{2,-9}(k[t]/t^5), whose C^2 is empty and C^3 has 20 words
    met = 0
    for n in range(1, 5):
        A = truncated_poly(n, 1)
        tb = _tables(A, "relative_normalized")
        for p in range(0, 5):
            qs = {q for pp in (p - 1, p, p + 1) if pp >= 0
                  for q in nonempty_internal_degrees(A, pp)}
            for q in sorted(qs):
                targets = {d - q for d in set(tb.degs)}
                count = max(len(brute_force_words(A, "relative_normalized", length, targets))
                            for length in (p - 1, p, p + 1) if length >= 1)
                if count == 0:
                    continue
                want = hh_bar(A, p, q).slice_dims
                assert hh_bar(A, p, q, max_words=count).slice_dims == want
                with pytest.raises(ResourceCapError, match=f"^word cap {count - 1} exceeded"):
                    hh_bar(A, p, q, max_words=count - 1)
                met += 1
    assert met > 38


# -- the truncated polynomial route ------------------------------------------------
# hh_truncated_poly counts the bar slice's words and reads the dimension off the
# 2-periodic resolution. The full agreement grid (Q, F_3, F_7, F_32003; n <= 6,
# k <= 3; relative p <= 6, absolute p <= 3; every q with a slice) takes minutes;
# this slice of it runs in seconds and keeps F_3 with n = 2, 5 and F_7 with
# n = 6, where the characteristic divides n + 1.

ROUTE_FIELDS = {"Q": RATIONALS_SPEC, "F3": FieldSpec(kind="fp", p=3),
                "F7": FieldSpec(kind="fp", p=7), "F32003": FP32003}
ROUTE_GRID = [(n, k) for n in range(1, 7) for k in range(1, 4)]


def slice_qs(A, p, mode):
    """Every q where one of C^(p-1), C^p, C^(p+1) is non-empty."""
    return sorted({q for pp in (p - 1, p, p + 1) if pp >= 0
                   for q in nonempty_internal_degrees(A, pp, mode=mode)})


@pytest.mark.parametrize("field", sorted(ROUTE_FIELDS))
def test_truncated_poly_route_equals_hh_bar(field):
    checked = 0
    for n, k in ROUTE_GRID:
        A = truncated_poly(n, k, ROUTE_FIELDS[field])
        for mode, p_max in (("relative_normalized", 4 if n * k <= 6 else 3),
                            ("absolute", 2 if n * k <= 6 else 1)):
            for p in range(p_max + 1):
                for q in slice_qs(A, p, mode):
                    got = hh_truncated_poly(A, p, q, mode=mode)
                    assert got == hh_bar(A, p, q, mode=mode), (n, k, mode, p, q)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("field", sorted(ROUTE_FIELDS))
def test_every_spec_the_route_builds_validates(field):
    # a spec of length L checks every position and degree a shorter prefix of
    # it checks, so the longest the agreement grid uses covers the others
    for n, k in ROUTE_GRID:
        A = truncated_poly(n, k, ROUTE_FIELDS[field])
        validate_periodic_spec(A, periodic_spec_truncated_poly(n, k, 7))


@pytest.mark.parametrize("field", ["Q", "F7"])
def test_route_reads_deep_slices_as_the_long_spec_does(field):
    # the route builds a spec of length at most 3 and lowers it by whole
    # periods; the spec of length 41 reads every p <= 40 directly
    met = 0
    for n, k in [(n, k) for n in range(1, 5) for k in (1, 2)]:
        A = truncated_poly(n, k, ROUTE_FIELDS[field])
        spec = periodic_spec_truncated_poly(n, k, 41)
        for p in range(41):
            # outside these q the resolution's C^p is 0, and so is the dim
            for q in range(spec.shifts[p], spec.shifts[p] + n * k + 1, k):
                got = hh_truncated_poly(A, p, q, max_words=10 ** 30)
                dim = hh_resolution(A, spec, p, q) if got.slice_dims[1] else 0
                assert got == HHResult(p, q, dim, "relative_normalized", got.slice_dims)
                met += dim > 0
    assert met > 300


def test_route_memory_does_not_grow_with_p():
    A = truncated_poly(1, 1)
    tracemalloc.start()
    try:
        got = hh_truncated_poly(A, 10 ** 5, -10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.dim, got.slice_dims) == (1, (0, 1, 1))
    assert peak < 2 * 2 ** 20


def test_route_answers_a_deep_empty_slice_at_once():
    # every word of length p has degree at least p, so the degree prune
    # leaves no state after one letter and the count stops there
    A = truncated_poly(3, 1)
    start = time.perf_counter()
    got = hh_truncated_poly(A, 10 ** 7, 0)
    assert time.perf_counter() - start < 0.1
    assert got == hh_bar(A, 10 ** 7, 0) == HHResult(10 ** 7, 0, 0, "relative_normalized",
                                                     (0, 0, 0))


def relabelled(A):
    rename = {"t": "s"}
    basis = tuple((rename.get(lab, lab), d) for lab, d in A.basis)
    mult = {(rename.get(x, x), rename.get(y, y)): {rename.get(z, z): c for z, c in combo.items()}
            for (x, y), combo in A.mult.items()}
    return GradedAlgebra(A.field_spec, basis, mult, A.unit, A.idempotents)


def t_scaled_by_2(A):
    """The same algebra with t standing for 2t: a product gains 2 for each
    factor written t and loses 2 where it is written t."""
    mult = {(x, y): {z: c * 2 ** ((x == "t") + (y == "t") - (z == "t"))
                     for z, c in combo.items()}
            for (x, y), combo in A.mult.items()}
    return GradedAlgebra(A.field_spec, A.basis, mult, A.unit, A.idempotents)


def look_alikes():
    A = truncated_poly(3, 1)
    F7 = FieldSpec(kind="fp", p=7)
    # k[t]/t^2 over F_7 with |t| = 2 and t t = 7 1, a zero term the table keeps
    f7 = GradedAlgebra(F7, (("1", 0), ("t", 2)), {
        ("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
        ("t", "t"): {"1": 7}}, {"1": 1})
    return [
        pytest.param(relabelled(A), 2, -3, id="relabelled-generator"),
        pytest.param(GradedAlgebra(A.field_spec, A.basis, A.mult, A.unit), 2, -3,
                     id="no-idempotents"),
        pytest.param(t_scaled_by_2(A), 2, -3, id="t-scaled-by-2"),
        pytest.param(f7, 1, 0, id="F7-zero-term"),
    ]


@pytest.mark.parametrize("A, p, q", look_alikes())
def test_look_alikes_of_truncated_poly_take_the_bar_route(A, p, q):
    assert A != truncated_poly(len(A.basis) - 1, A.basis[1][1], A.field_spec)
    assert hh_truncated_poly(A, p, q) is None
    assert hh_bar(A, p, q).dim == hh_bar(truncated_poly(
        len(A.basis) - 1, A.basis[1][1], A.field_spec), p, q).dim


def test_route_declines_other_algebras_and_negative_p():
    assert hh_truncated_poly(a2_algebra(), 2, -2) is None
    assert hh_truncated_poly(truncated_poly(2, 2), -1, 0) is None


def test_route_declines_exactly_past_the_word_cap():
    # the route answers with max_words the largest of the three word lists
    # and declines with one word less, where hh_bar refuses
    met = 0
    for n in range(1, 5):
        A = truncated_poly(n, 1)
        for mode in hochschild.MODES:
            tb = _tables(A, mode)
            for p in range(0, 4):
                for q in slice_qs(A, p, mode):
                    targets = {d - q for d in set(tb.degs)}
                    count = max(len(_enumerate_words(tb, length, targets, 10**7, ""))
                                for length in (p - 1, p, p + 1) if length >= 1)
                    if count == 0:
                        continue
                    want = hh_bar(A, p, q, mode=mode, max_words=count)
                    assert hh_truncated_poly(A, p, q, mode=mode, max_words=count) == want
                    assert hh_truncated_poly(A, p, q, mode=mode, max_words=count - 1) is None
                    met += 1
    assert met > 80


@pytest.mark.parametrize("A, slices", POOL)
def test_cochain_count_is_the_size_of_the_cochain_basis(A, slices):
    for mode in hochschild.MODES:
        tb = _tables(A, mode)
        for p, q in slices:
            for length in sorted({-1, 0, p - 1, p, p + 1}):
                if mode == "absolute" and len(tb.letters) ** length > ABSOLUTE_TUPLES:
                    continue
                want = _cochain_basis(tb, length, q, 10**7)[1]
                assert _cochain_count(tb, length, q, 10**7) == want, (mode, length, q)
