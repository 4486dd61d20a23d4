"""Exact sparse linear algebra over the rationals and prime fields.

Every rank, echelon form, kernel, span test, meet and quotient here comes
from one sparse Gauss-Jordan kernel, `_eliminate`, with exact scalars.
Inside the kernel a row is a dict from column to a non-zero scalar, and a
column -> rows index says which rows hold each column. Across the public
interface a vector is a dense list of field scalars or a sparse dict row,
and a subspace is a list of spanning vectors. Over the rationals, integral
entries are carried as Python ints inside the kernel (most matrices here
have entries 0, +-1 and +-2); dense output hands them back as Fractions,
while `row_space_basis` and `subspace_meet` return dict rows, holding the
kernel's own scalars, when they are given dict rows. Over F_p scalars are
ints in [0, p).

The kernel has two pivoting modes:

- rank mode (`rank_rows`): the pivot row is the lightest remaining row;
  in it the pivot is a unit entry (+-1) if there is one, then the column
  held by the fewest remaining rows. The pivot column is cleared from the
  unprocessed rows only, and nothing is back-substituted. This keeps
  fill-in low and only the count of pivots is used.
- reduced mode (everything else): the pivot row is again the lightest
  remaining row, but the pivot is its *leading* (smallest) column, the row
  is scaled so that the pivot is 1, and the column is cleared from every
  other row, processed or not.

Why reduced mode returns the canonical RREF. Let row r with leading column
c be the current pivot. (1) A processed row s has its own pivot c_s as its
leading entry; s holds c, so c_s < c, and r has no entry left of c, so
subtracting a multiple of r from s leaves s's leading entry at c_s. (2) r
is zero in every earlier pivot column, since those were cleared from all
rows, so the earlier pivots stay 1 and their columns stay cleared. (3) A
pivot column is zero in every other row, so the leading column of a
remaining row is never an earlier pivot column. Hence at the end each
non-zero row has leading entry 1 at its pivot and every pivot column is
zero elsewhere; sorted by pivot column, the rows are in reduced row echelon
form. The RREF of a row space is unique, so the result equals the RREF of
dense column-by-column Gauss-Jordan entry for entry, whatever order the
rows were pivoted in. Ideal blocks, kernel bases and cocycle output
therefore do not depend on the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Dict, Optional

from .errors import InputValidationError
from .fields import RATIONALS

SparseRow = Dict[int, object]


# -- the kernel ----------------------------------------------------------------


def _sparse(v, field) -> SparseRow:
    """Dense vector or dict row -> a fresh sparse row of kernel scalars. In
    a dense vector, entries that are the field's own zero object (the fill
    of freshly built dense matrices) are skipped by an identity test, which
    over Q is much cheaper than testing a Fraction. Over Q an integral entry
    becomes an int; over F_p a Fraction entry (the periodic resolution specs
    carry Fraction coefficients whatever the field) is mapped to
    num * den^-1 mod p."""
    p = field.characteristic
    if isinstance(v, dict):
        if p:
            return {c: y for c, x in v.items() if (y := _mod(x, p))}
        return {c: (x.numerator if x.denominator == 1 else x) for c, x in v.items() if x}
    cols = compress(range(len(v)), map(is_not, v, repeat(field.zero)))
    if p:
        return {c: y for c in cols if (y := _mod(v[c], p))}
    return {c: (x.numerator if x.denominator == 1 else x) for c in cols if (x := v[c])}


def _mod(x, p: int) -> int:
    if type(x) is int:
        return x % p
    return x.numerator * pow(x.denominator, -1, p) % p


def _dense(row: SparseRow, ncols: int, field) -> list:
    """Sparse row -> dense list of field scalars."""
    out = [field.zero] * ncols
    if field.characteristic:
        for c, x in row.items():
            out[c] = x
    else:
        for c, x in row.items():
            out[c] = Fraction(x)
    return out


def _inverse(x, p: int):
    if p:
        return pow(x, -1, p)
    if x == 1 or x == -1:
        return x
    return 1 / Fraction(x)


def _axpy(row: SparseRow, fac, prow: SparseRow, p: int, index=None, j: int = -1) -> None:
    """row -= fac * prow in place, dropping zeros; when index is given, row
    j's entries in the column -> rows index follow the change."""
    get = row.get
    for c, y in prow.items():
        x = get(c)
        if x is None:
            row[c] = (-fac * y) % p if p else -fac * y
            if index is not None:
                index[c].add(j)
            continue
        x = (x - fac * y) % p if p else x - fac * y
        if x:
            row[c] = x
        else:
            del row[c]
            if index is not None:
                index[c].discard(j)


def _eliminate(vectors, field, reduced: bool, pivot_log: Optional[list] = None):
    """Sparse Gauss-Jordan elimination of dense or dict rows over field. Returns
    [(pivot column, sparse row)] in pivot order; the number of pairs is the
    rank. In reduced mode the rows, sorted by pivot column, are the RREF
    (see the module docstring); in rank mode they are only echelon in pivot
    order. pivot_log, when given, collects every pivot value before the row
    is scaled."""
    p = field.characteristic
    rows = [_sparse(r, field) for r in vectors]
    index: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            held = index.get(c)
            if held is None:
                index[c] = {i}
            else:
                held.add(i)
    pending = {i for i, row in enumerate(rows) if row}
    # lightest pending row first: a heap of (weight, row), where an entry
    # whose weight is out of date or whose row is done is skipped
    heap = [(len(rows[i]), i) for i in pending]
    heapify(heap)
    unit = p - 1 if p else -1
    out = []
    while heap:
        weight, i = heappop(heap)
        if i not in pending or len(rows[i]) != weight:
            continue
        pending.discard(i)
        prow = rows[i]
        if reduced:
            c = min(prow)
        else:
            c = min(prow, key=lambda k: (prow[k] != 1 and prow[k] != unit, len(index[k]), k))
            for k in prow:
                index[k].discard(i)
        pv = prow[c]
        if pivot_log is not None:
            pivot_log.append(pv)
        inv = _inverse(pv, p)
        if reduced and pv != 1:
            for k, x in prow.items():
                prow[k] = x * inv % p if p else x * inv
            inv = 1
        for j in [k for k in index[c] if k != i]:
            row = rows[j]
            fac = row[c] * inv % p if p else row[c] * inv
            _axpy(row, fac, prow, p, index, j)
            if not row:
                pending.discard(j)
            elif j in pending:
                heappush(heap, (len(row), j))
        out.append((c, prow))
    return out


def _reduce(v, basis, field) -> SparseRow:
    """Sparse remainder of the vector v against the reduced-mode
    output of `_eliminate`."""
    p = field.characteristic
    row = _sparse(v, field)
    for c, prow in basis:
        x = row.get(c)
        if x:
            _axpy(row, x, prow, p)
    return row


# -- entry points --------------------------------------------------------------


def rref_rows(rows, field, pivot_log: Optional[list] = None):
    """Reduced row echelon form. Returns (pivot_columns, nonzero_rows).

    pivot_log, when given, collects every pivot value before its row is
    scaled to 1; this supports the F_p versus rationals consistency check.
    """
    ncols = len(rows[0]) if rows else 0
    basis = sorted(_eliminate(rows, field, True, pivot_log), key=itemgetter(0))
    return [c for c, _ in basis], [_dense(r, ncols, field) for _, r in basis]


def rank_rows(rows, field) -> int:
    """Rank over field, by the kernel's rank mode."""
    return len(_eliminate(rows, field, False))


def kernel_rows(rows, field, ncols: int):
    """Basis of the right kernel {v : M v = 0} as a list of vectors: one per
    free column fc, with 1 at fc, minus the RREF's fc entries at the pivot
    columns, and zero elsewhere."""
    p = field.characteristic
    basis = _eliminate(rows, field, True)
    pivots = {c for c, _ in basis}
    free = [c for c in range(ncols) if c not in pivots]
    out = {fc: {fc: 1} for fc in free}
    for c, row in basis:
        for fc, x in row.items():
            if fc != c:
                out[fc][c] = (-x) % p if p else -x
    return [_dense(out[fc], ncols, field) for fc in free]


def matvec(rows, v, field):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, v):
            if not field.is_zero(a) and not field.is_zero(b):
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def matmul(a_rows, b_rows, field):
    if not a_rows:
        return []
    ncols = len(b_rows[0]) if b_rows else 0
    bt = list(zip(*b_rows)) if b_rows else []
    out = []
    for row in a_rows:
        new = []
        for c in range(ncols):
            acc = field.zero
            col = bt[c]
            for x, y in zip(row, col):
                if not field.is_zero(x) and not field.is_zero(y):
                    acc = field.add(acc, field.mul(x, y))
            new.append(acc)
        out.append(new)
    return out


def is_zero_rows(rows, field) -> bool:
    return all(field.is_zero(x) for row in rows for x in row)


def _is_sparse(vectors) -> bool:
    return bool(vectors) and isinstance(vectors[0], dict)


def row_space_basis(vectors, field):
    """Canonical (RREF) basis of the span of the given vectors, as dict rows
    sorted by pivot column when the vectors are dict rows."""
    if not vectors:
        return []
    if _is_sparse(vectors):
        return [r for _, r in sorted(_eliminate(vectors, field, True), key=itemgetter(0))]
    return rref_rows(vectors, field)[1]


def in_span(v, vectors, field) -> bool:
    return not _reduce(v, _eliminate(vectors, field, True), field)


def _check_ambient(U, W) -> int:
    dims = {len(v) for v in list(U) + list(W)}
    if len(dims) > 1:
        raise InputValidationError(f"ambient dimension mismatch: {sorted(dims)}")
    return dims.pop() if dims else 0


def subspace_meet(U, W, field=RATIONALS):
    """Basis of span(U) ∩ span(W) via the Zassenhaus block trick.

    U and W are spanning sets of vectors of equal ambient dimension n. The
    reduced form of the rows (u | u) and (w | 0) has the meet as the right
    halves of its rows whose left half is zero, that is, of the rows with a
    pivot in the right copy; those right halves are already the meet's
    RREF. The right copy starts at 1 + the largest column present: any
    offset past every column of U and W works, so dict rows need no
    ambient dimension. Dict rows give dict rows.
    """
    n = None if _is_sparse(U) or _is_sparse(W) else _check_ambient(U, W)
    if not U or not W:
        return []
    if n is not None:
        U, W = [_sparse(u, field) for u in U], [_sparse(w, field) for w in W]
    off = 1 + max((c for v in (*U, *W) for c in v), default=-1)
    block = [{**u, **{c + off: x for c, x in u.items()}} for u in U] + list(W)
    basis = sorted(_eliminate(block, field, True), key=itemgetter(0))
    meet = [{c - off: x for c, x in row.items()} for c, row in basis if c >= off]
    return meet if n is None else [_dense(r, n, field) for r in meet]


def quotient_dim(U, W, field=RATIONALS) -> int:
    """dim(span(U)/span(W)); requires span(W) ⊆ span(U)."""
    _check_ambient(U, W)
    basis = _eliminate(U, field, True)
    if any(_reduce(w, basis, field) for w in W):
        raise InputValidationError("W is not contained in U")
    return len(basis) - len(_eliminate(W, field, False))
