from fractions import Fraction

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from formalitykit.errors import InputValidationError
from formalitykit.fields import PrimeField, RATIONALS
from formalitykit.linalg import (
    kernel_rows,
    matvec,
    quotient_dim,
    rank_rows,
    row_space_basis,
    rref_rows,
    subspace_meet,
)


def M(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_identity():
    assert rank_rows(M([[1, 0], [0, 1]]), RATIONALS) == 2


def test_rank_zero_matrix():
    assert rank_rows(M([[0, 0, 0, 0]] * 3), RATIONALS) == 0


def test_rank_dependent_rows():
    # second row is twice the first
    assert rank_rows(M([[1, 2], [2, 4]]), RATIONALS) == 1


def test_kernel_identity_empty():
    assert kernel_rows(M([[1, 0], [0, 1]]), RATIONALS, 2) == []


def test_kernel_zero_matrix():
    basis = kernel_rows(M([[0, 0], [0, 0]]), RATIONALS, 2)
    assert len(basis) == 2


def test_kernel_single_equation():
    # x + y = 0
    basis = kernel_rows(M([[1, 1]]), RATIONALS, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def e(i, n=3):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def test_meet_idempotent():
    out = subspace_meet([e(0)], [e(0)], RATIONALS)
    assert len(out) == 1 and out[0][0] != 0


def test_meet_transverse_lines():
    assert subspace_meet([e(0, 2)], [e(1, 2)], RATIONALS) == []


def test_meet_planes_in_three_space():
    # dims 2 + 2 - 3 = 1, spanned by the shared axis
    out = subspace_meet([e(0), e(1)], [e(1), e(2)], RATIONALS)
    assert len(out) == 1
    assert out[0][0] == 0 and out[0][2] == 0 and out[0][1] != 0


def test_meet_ambient_mismatch():
    with pytest.raises(InputValidationError):
        subspace_meet([[1, 0]], [[1, 0, 0]], RATIONALS)


def test_quotient_dim_equal_spaces():
    assert quotient_dim([e(0), e(1)], [e(1), e(0)], RATIONALS) == 0


def test_quotient_dim_full_by_zero():
    assert quotient_dim([e(0), e(1), e(2)], [], RATIONALS) == 3


def test_quotient_dim_plane_by_line():
    diag = [Fraction(1), Fraction(1), Fraction(0)]
    assert quotient_dim([e(0), e(1)], [diag], RATIONALS) == 1


def test_quotient_dim_rejects_non_subspace():
    with pytest.raises(InputValidationError):
        quotient_dim([e(0)], [e(1)], RATIONALS)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def int_matrix(draw, max_dim=5):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return [
        [Fraction(draw(small_entries)) for _ in range(ncols)] for _ in range(nrows)
    ]


@given(int_matrix())
def test_rank_nullity(rows):
    ncols = len(rows[0])
    rk = rank_rows(rows, RATIONALS)
    ker = kernel_rows(rows, RATIONALS, ncols)
    assert rk + len(ker) == ncols
    for v in ker:
        assert all(x == 0 for x in matvec(rows, v, RATIONALS))


@st.composite
def two_subspaces(draw):
    n = draw(st.integers(1, 5))
    nu = draw(st.integers(0, 3))
    nw = draw(st.integers(0, 3))
    mk = lambda rows: [[Fraction(draw(small_entries)) for _ in range(n)] for _ in range(rows)]
    return mk(nu), mk(nw), n


@given(two_subspaces())
def test_modular_dimension_law(data):
    U, W, n = data
    dim_u = len(row_space_basis(U, RATIONALS))
    dim_w = len(row_space_basis(W, RATIONALS))
    dim_sum = len(row_space_basis(U + W, RATIONALS))
    meet = subspace_meet(U, W, RATIONALS) if U and W else []
    assert dim_u + dim_w == dim_sum + len(meet)
    # every meet vector lies in both spans
    for v in meet:
        assert len(row_space_basis(U + [v], RATIONALS)) == dim_u
        assert len(row_space_basis(W + [v], RATIONALS)) == dim_w


@given(int_matrix(max_dim=4), st.sampled_from([5, 7]))
def test_prime_field_rank_agrees_on_clean_pivots(rows, p):
    """Rationals and F_p agree whenever no pivot that elimination divides
    by carries a factor of p."""
    log = []
    pivots, _ = rref_rows(rows, RATIONALS, pivot_log=log)
    for pv in log:
        assume(pv.numerator % p != 0 and pv.denominator % p != 0)
    fp = PrimeField(p)
    rows_p = [[fp.from_int(x.numerator) for x in row] for row in rows]
    assume(all(x.denominator == 1 for row in rows for x in row))
    assert rank_rows(rows_p, fp) == len(pivots)


def test_prime_field_rank_can_drop():
    fp = PrimeField(5)
    rows = [[fp.from_int(5)]]
    assert rank_rows(rows, fp) == 0
    assert rank_rows([[Fraction(5)]], RATIONALS) == 1


# -- the sparse kernel against a dense reference -------------------------------


def dense_rref(rows, field):
    """Column-by-column dense Gauss-Jordan: the canonical RREF the sparse
    kernel must reproduce entry for entry."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                fac = m[i][c]
                m[i] = [field.sub(x, field.mul(fac, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


FIELDS = {"Q": RATIONALS, "F5": PrimeField(5), "F7": PrimeField(7)}


@st.composite
def kernel_case(draw):
    """A field and a matrix over it with 0-6 rows and 0-6 columns, salted
    with zero rows and duplicate rows, in a shuffled order."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(0, 6))
    if field is RATIONALS:
        entry = st.builds(Fraction, small_entries, st.sampled_from([1, 1, 1, 2, 3]))
    else:
        entry = small_entries.map(field.from_int)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    rows += [[field.zero] * ncols] * draw(st.integers(0, 2))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return field, draw(st.permutations(rows)) if rows else rows


@given(kernel_case())
def test_rref_rows_equals_dense_reference(case):
    field, rows = case
    pivots, red = rref_rows(rows, field)
    assert (pivots, red) == dense_rref(rows, field)
    scalar = Fraction if field is RATIONALS else int
    assert all(type(x) is scalar for row in red for x in row)


@given(kernel_case())
def test_rank_rows_counts_rref_pivots(case):
    field, rows = case
    assert rank_rows(rows, field) == len(rref_rows(rows, field)[0])


@given(kernel_case())
def test_kernel_rows_reads_off_the_reference_rref(case):
    field, rows = case
    ncols = len(rows[0]) if rows else 3
    pivots, red = dense_rref(rows, field)
    want = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        want.append(v)
    assert kernel_rows(rows, field, ncols) == want


def test_prime_field_kernel_maps_fraction_entries_into_the_field():
    fp = PrimeField(7)
    # 1/2 is 4 in F_7, so the first row is 4 times the second
    rows = [[Fraction(1, 2), Fraction(1)], [fp.from_int(1), fp.from_int(2)]]
    assert rank_rows(rows, fp) == 1
    assert rref_rows(rows, fp) == ([0], [[1, 2]])
