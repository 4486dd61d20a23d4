from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from formalitykit.errors import InputValidationError
from formalitykit.fields import PrimeField, RATIONALS
from formalitykit.linalg import (
    in_span,
    kernel_rows,
    mul_rows,
    quotient_dim,
    rank_rows,
    row_space_basis,
    rref_extend,
    rref_rows,
    subspace_meet,
)

# linalg takes and returns dict rows (column -> non-zero scalar); the tests
# state their matrices densely and convert at the boundary


def sparse(rows):
    """Dense matrix -> dict rows."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense(row, ncols, field=RATIONALS):
    """Dict row -> dense list of ncols scalars."""
    return [row.get(c, field.zero) for c in range(ncols)]


def M(rows):
    return sparse([[Fraction(x) for x in row] for row in rows])


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
    v = dense(basis[0], 2)
    assert v[0] + v[1] == 0 and v != [0, 0]


def e(i):
    return {i: Fraction(1)}


def test_meet_idempotent():
    out = subspace_meet([e(0)], [e(0)], RATIONALS)
    assert len(out) == 1 and dense(out[0], 3)[0] != 0


def test_meet_transverse_lines():
    assert subspace_meet([e(0)], [e(1)], RATIONALS) == []


def test_meet_planes_in_three_space():
    # dims 2 + 2 - 3 = 1, spanned by the shared axis
    out = subspace_meet([e(0), e(1)], [e(1), e(2)], RATIONALS)
    assert len(out) == 1
    v = dense(out[0], 3)
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_quotient_dim_equal_spaces():
    assert quotient_dim([e(0), e(1)], [e(1), e(0)], RATIONALS) == 0


def test_quotient_dim_full_by_zero():
    assert quotient_dim([e(0), e(1), e(2)], [], RATIONALS) == 3


def test_quotient_dim_plane_by_line():
    diag = {0: Fraction(1), 1: Fraction(1)}
    assert quotient_dim([e(0), e(1)], [diag], RATIONALS) == 1


def test_quotient_dim_rejects_non_subspace():
    with pytest.raises(InputValidationError):
        quotient_dim([e(0)], [e(1)], RATIONALS)


@pytest.mark.parametrize("op", [subspace_meet, quotient_dim])
def test_meet_and_quotient_need_a_field(op):
    # F_p rows must not be eliminated over Q by default
    with pytest.raises(TypeError):
        op([e(0)], [e(0)])


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
    rk = rank_rows(sparse(rows), RATIONALS)
    ker = kernel_rows(sparse(rows), RATIONALS, ncols)
    assert rk + len(ker) == ncols
    for v in ker:
        v = dense(v, ncols)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)


@st.composite
def two_subspaces(draw):
    n = draw(st.integers(1, 5))
    nu = draw(st.integers(0, 3))
    nw = draw(st.integers(0, 3))
    mk = lambda rows: sparse(
        [[Fraction(draw(small_entries)) for _ in range(n)] for _ in range(rows)]
    )
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


def dense_det(m):
    """Determinant of a square Fraction matrix by dense elimination."""
    m = [list(r) for r in m]
    det = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            fac = m[i][c] / m[c][c]
            m[i] = [x - fac * y for x, y in zip(m[i], m[c])]
    return det


def minors(rows, k):
    """Every k x k minor of a dense matrix; the one 0 x 0 minor is 1."""
    return [dense_det([[rows[i][j] for j in cs] for i in rs])
            for rs in combinations(range(len(rows)), k)
            for cs in combinations(range(len(rows[0])), k)]


@example([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]], 5)
@example([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]], 7)
@given(int_matrix(max_dim=4), st.sampled_from([5, 7]))
def test_prime_field_rank_drops_exactly_when_p_divides_the_minors_gcd(rows, p):
    """For an integer matrix of rank r over Q, the rank over F_p is r
    exactly when p does not divide d_r, the gcd of the r x r minors; the
    rank over Q is the largest k with a non-zero k x k minor."""
    r = max(k for k in range(min(len(rows), len(rows[0])) + 1) if any(minors(rows, k)))
    assert rank_rows(sparse(rows), RATIONALS) == r
    d_r = gcd(*(int(x) for x in minors(rows, r)))
    fp = PrimeField(p)
    rank_p = rank_rows(sparse([[fp.from_int(int(x)) for x in row] for row in rows]), fp)
    assert rank_p <= r
    assert (rank_p == r) == (d_r % p != 0)


def test_prime_field_rank_can_drop():
    fp = PrimeField(5)
    # 5 is an explicit zero of F_5, which the kernel drops
    rows = [{0: fp.from_int(5)}]
    assert rank_rows(rows, fp) == 0
    assert rank_rows([{0: Fraction(5)}], RATIONALS) == 1


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
    ncols = len(rows[0]) if rows else 0
    pivots, red = rref_rows(sparse(rows), field)
    assert (pivots, [dense(r, ncols, field) for r in red]) == dense_rref(rows, field)
    # the rows hold non-zero kernel scalars only: ints or Fractions over Q,
    # ints in [1, p) over F_p
    scalars = (int, Fraction) if field is RATIONALS else (int,)
    for x in (x for row in red for x in row.values()):
        assert type(x) in scalars and x != 0
        assert field is RATIONALS or 0 < x < field.p


@given(kernel_case())
def test_rank_rows_counts_rref_pivots(case):
    field, rows = case
    assert rank_rows(sparse(rows), field) == len(rref_rows(sparse(rows), field)[0])


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
    ker = kernel_rows(sparse(rows), field, ncols)
    assert [dense(v, ncols, field) for v in ker] == want
    # each row's largest column is its free column
    assert [max(v) for v in ker] == [c for c in range(ncols) if c not in pivots]


def test_prime_field_kernel_maps_fraction_entries_into_the_field():
    fp = PrimeField(7)
    # 1/2 is 4 in F_7, so the first row is 4 times the second
    rows = [{0: Fraction(1, 2), 1: Fraction(1)}, {0: fp.from_int(1), 1: fp.from_int(2)}]
    assert rank_rows(rows, fp) == 1
    assert rref_rows(rows, fp) == ([0], [{0: 1, 1: 2}])


@st.composite
def extend_case(draw):
    """A field, a matrix over it (the basis rows) and new rows: random
    rows, unit rows, zero rows, duplicates of new rows, and rows already in
    the basis's span (multiples of basis rows and sums of two)."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(0, 6))
    if field is RATIONALS:
        entry = st.builds(Fraction, small_entries, st.sampled_from([1, 1, 1, 2, 3]))
    else:
        entry = small_entries.map(field.from_int)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    basis = draw(st.lists(row, max_size=4))
    rows = draw(st.lists(row, max_size=4))
    rows += [[field.one if c == u else field.zero for c in range(ncols)]
             for u in draw(st.lists(st.integers(0, ncols - 1), max_size=2))] if ncols else []
    rows += [[field.zero] * ncols] * draw(st.integers(0, 2))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    for _ in range(draw(st.integers(0, 3)) if basis else 0):
        i, j = (draw(st.integers(0, len(basis) - 1)) for _ in range(2))
        x, y = draw(entry), draw(st.sampled_from([field.zero, field.one]))
        rows.append([field.add(field.mul(x, a), field.mul(y, b))
                     for a, b in zip(basis[i], basis[j])])
    return field, basis, draw(st.permutations(rows)) if rows else rows, ncols


@given(extend_case())
def test_rref_extend_equals_dense_reference(case):
    field, basis_rows, rows, ncols = case
    basis = row_space_basis(sparse(basis_rows), field)
    kept = [dict(r) for r in basis]
    out = rref_extend(basis, sparse(rows), field)
    want = dense_rref(basis_rows + rows, field)
    assert ([min(r) for r in out], [dense(r, ncols, field) for r in out]) == want
    assert basis == kept  # the basis rows are not mutated
    scalars = (int, Fraction) if field is RATIONALS else (int,)
    assert all(type(x) in scalars and x != 0 for row in out for x in row.values())


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5), PrimeField(7)])
def test_rref_extend_edge_cases(field):
    one = field.one
    basis = row_space_basis([{0: one, 2: one}, {1: one}], field)
    assert rref_extend([], [], field) == []
    assert rref_extend(basis, [], field) == basis
    assert rref_extend([], [{3: field.add(one, one)}, {}], field) == [{3: 1}]
    # rows in the span, the unit row of a unit pivot row among them, change nothing
    assert rref_extend(basis, [{1: field.add(one, one)}, {0: one, 1: one, 2: one}], field) == basis
    # a new pivot that is cleared from a basis row, and one left of every basis pivot
    assert rref_extend(basis, [{2: one}], field) == [{0: 1}, {1: 1}, {2: 1}]
    assert rref_extend([{1: 1}], [{0: one, 1: one}], field) == [{0: 1}, {1: 1}]


# -- the fraction-free rational kernel against dense Fraction Gauss-Jordan -----


def dense_kernel(rows, ncols):
    """Basis of {v : M v = 0} read off the dense reference RREF: one vector
    per free column, 1 there and minus the RREF's entries at the pivots."""
    pivots, red = dense_rref(rows, RATIONALS)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return out


def dense_meet(U, W, ncols):
    """RREF of span(U) ∩ span(W) from the left kernel of U stacked over -W:
    a kernel vector (a, b) gives a U = b W, a vector of the meet."""
    stacked = U + [[-x for x in w] for w in W]
    if not stacked or not ncols:
        return []
    transpose = [[row[c] for row in stacked] for c in range(ncols)]
    vecs = [[sum(a * u[c] for a, u in zip(coeffs, U)) for c in range(ncols)]
            for coeffs in dense_kernel(transpose, len(stacked))]
    return dense_rref(vecs, RATIONALS)[1] if vecs else []


def assert_kernel_scalars(rows):
    """Every entry is a non-zero int where it is integral, else a Fraction."""
    for x in (x for row in rows for x in row.values()):
        assert x != 0
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), x


@st.composite
def rational_case(draw):
    """Two dense matrices over Q on the same 0-6 columns, U with 0-5 rows
    and W with 0-4: integer entries in -7..14, about half zeros, and some
    rows divided by a denominator 2..6, so that pivots other than +-1, rows
    with a content and non-integral results all turn up."""
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-7, 14))

    def matrix(max_rows):
        out = []
        for _ in range(draw(st.integers(0, max_rows))):
            den = draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6]))
            out.append([Fraction(draw(entry), den) for _ in range(ncols)])
        return out

    return matrix(5), matrix(4), ncols


@example(([[Fraction(2), Fraction(3)], [Fraction(3), Fraction(5)]], [], 2))
@example(([[Fraction(4, 3), Fraction(2), Fraction(0)]], [[Fraction(6), Fraction(9), Fraction(1)]], 3))
@example(([[Fraction(x) for x in (1, 0, 0, 2, 0)]], [[Fraction(x) for x in (1, 0, 0, 0, 1)]], 5))
@given(rational_case())
def test_fraction_free_kernel_equals_dense_fraction_gauss_jordan(case):
    U, W, ncols = case
    rows = U + W
    pivots, red = dense_rref(rows, RATIONALS)
    got_pivots, got = rref_rows(sparse(rows), RATIONALS)
    assert (got_pivots, [dense(r, ncols) for r in got]) == (pivots, red)
    assert rank_rows(sparse(rows), RATIONALS) == len(pivots)
    ker = kernel_rows(sparse(rows), RATIONALS, ncols)
    assert [dense(v, ncols) for v in ker] == dense_kernel(rows, ncols)
    basis = row_space_basis(sparse(U), RATIONALS)
    grown = rref_extend(basis, sparse(W), RATIONALS)
    assert ([min(r) for r in grown], [dense(r, ncols) for r in grown]) == (pivots, red)
    meet = subspace_meet(sparse(U), sparse(W), RATIONALS)
    assert [dense(r, ncols) for r in meet] == dense_meet(U, W, ncols)
    dim_u = len(basis)
    for w in W:
        assert in_span(sparse([w])[0], sparse(U), RATIONALS) == (
            len(dense_rref(U + [w], RATIONALS)[0]) == dim_u)
    for out in (got, ker, basis, grown, meet):
        assert_kernel_scalars(out)


# -- the sparse product against a dense reference ------------------------------


def dense_mul(a, b, ncols, field):
    """Triple-loop product of dense matrices a (m x k) and b (k x ncols)."""
    out = []
    for row in a:
        new = []
        for c in range(ncols):
            acc = field.zero
            for k, x in enumerate(row):
                acc = field.add(acc, field.mul(x, b[k][c]))
            new.append(acc)
        out.append(new)
    return out


@st.composite
def product_case(draw):
    """A field and dense m x k and k x n matrices over it, 0-5 each way,
    mostly zeros, so that empty rows, zero columns and cancelling sums
    all turn up."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    if field is RATIONALS:
        nonzero = st.builds(Fraction, small_entries, st.sampled_from([1, 1, 2, 3]))
    else:
        nonzero = small_entries.map(field.from_int)
    entry = st.one_of(st.just(field.zero), st.just(field.zero), nonzero)

    def mat(nrows, ncols):
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    return field, mat(m, k), mat(k, n), n


@given(product_case())
def test_mul_rows_equals_dense_triple_loop(case):
    field, a, b, n = case
    out = mul_rows(sparse(a), sparse(b), field)
    assert [dense(r, n, field) for r in out] == dense_mul(a, b, n, field)
    assert all(not field.is_zero(x) for row in out for x in row.values())


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5), PrimeField(7)])
def test_mul_rows_drops_products_that_cancel(field):
    one = field.one
    a = [{0: one, 1: one}, {}]
    b = [{0: one, 2: one}, {0: field.neg(one), 1: one}]
    assert mul_rows(a, b, field) == [{1: 1, 2: 1}, {}]
    assert mul_rows(a, [{0: one}, {0: field.neg(one)}], field) == [{}, {}]
