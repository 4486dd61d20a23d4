"""Exact sparse linear algebra over the rationals and prime fields.

Every rank, echelon form, kernel, span test, meet, quotient and product
here comes from one sparse Gauss-Jordan kernel, `_eliminate`, with exact
scalars, or from the sparse product `mul_rows`. There is one matrix format,
in and out: a row is a dict from column to a non-zero scalar, a matrix is a
list of such rows, and a subspace is a list of spanning rows. A dict row
has no ambient dimension; where one is needed (the kernel of a matrix) it
is passed in. Rows on input may hold Fractions or ints, over F_p too (a
Fraction a/b becomes a * b^-1 mod p), and explicit zeros, which are
dropped. Rows on output hold the kernel's own scalars: over the rationals
ints and Fractions (an integral input entry is carried as an int, and most
matrices here have entries 0, +-1 and +-2); over F_p ints in [1, p).

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
from operator import itemgetter
from typing import Dict, Optional

from .errors import InputValidationError

SparseRow = Dict[int, object]


# -- the kernel ----------------------------------------------------------------


def _sparse(row: SparseRow, field) -> SparseRow:
    """A fresh copy of a dict row in kernel scalars, zeros dropped. Over Q
    an integral entry becomes an int; over F_p an int is reduced mod p and
    a Fraction entry of a caller's row is mapped to num * den^-1 mod p.
    The matrices of this package already hold field scalars: algebras,
    presentations and resolution specs map their coefficients into the
    field when they are built or checked."""
    p = field.characteristic
    if p:
        return {c: y for c, x in row.items() if (y := _mod(x, p))}
    return {c: (x.numerator if x.denominator == 1 else x) for c, x in row.items() if x}


def _mod(x, p: int) -> int:
    if type(x) is int:
        return x % p
    return x.numerator * pow(x.denominator, -1, p) % p


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


def _eliminate(rows, field, reduced: bool, pivot_log: Optional[list] = None):
    """Sparse Gauss-Jordan elimination of dict rows over field. Returns
    [(pivot column, row)] in pivot order; the number of pairs is the rank.
    In reduced mode the rows, sorted by pivot column, are the RREF (see
    the module docstring); in rank mode they are only echelon in pivot
    order. pivot_log, when given, collects every pivot value before the row
    is scaled."""
    p = field.characteristic
    rows = [_sparse(r, field) for r in rows]
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


def _reduce(v: SparseRow, pivots: Dict[int, SparseRow], field) -> SparseRow:
    """Remainder of the row v against reduced rows given by their pivot map
    (pivot column -> row), such as the reduced-mode output of `_eliminate`:
    each row is 1 at its pivot and 0 at every other pivot, so subtracting
    one leaves v's other pivot entries as they are, and one subtraction per
    pivot column of v suffices. A one-entry row at a pivot column whose row
    is the unit vector there reduces to zero at once: ideal blocks are
    mostly monomial, so most rows merged into them are such rows."""
    if len(v) == 1:
        prow = pivots.get(next(iter(v)))
        if prow is not None and len(prow) == 1:
            return {}
    p = field.characteristic
    row = _sparse(v, field)
    for c in [c for c in row if c in pivots]:
        _axpy(row, row[c], pivots[c], p)
    return row


# -- entry points --------------------------------------------------------------


def rref_rows(rows, field, pivot_log: Optional[list] = None):
    """Reduced row echelon form. Returns (pivot_columns, nonzero_rows).

    pivot_log, when given, collects every pivot value before its row is
    scaled to 1; this supports the F_p versus rationals consistency check.
    """
    basis = sorted(_eliminate(rows, field, True, pivot_log), key=itemgetter(0))
    return [c for c, _ in basis], [r for _, r in basis]


def rank_rows(rows, field) -> int:
    """Rank over field, by the kernel's rank mode."""
    return len(_eliminate(rows, field, False))


def kernel_rows(rows, field, ncols: int):
    """Basis of the right kernel {v : M v = 0} of a matrix with ncols
    columns: one row per free column fc, with 1 at fc and minus the RREF's
    fc entries at the pivot columns."""
    p = field.characteristic
    basis = _eliminate(rows, field, True)
    pivots = {c for c, _ in basis}
    free = [c for c in range(ncols) if c not in pivots]
    out = {fc: {fc: 1} for fc in free}
    for c, row in basis:
        for fc, x in row.items():
            if fc != c:
                out[fc][c] = (-x) % p if p else -x
    return [out[fc] for fc in free]


def mul_rows(a, b, field):
    """The product a b of two matrices: row i is the sum over k of
    a[i][k] * b[k]. a's columns index b's rows."""
    out = []
    for row in a:
        acc: SparseRow = {}
        for k, x in row.items():
            for c, y in b[k].items():
                acc[c] = acc.get(c, 0) + x * y
        out.append(_sparse(acc, field))
    return out


def row_space_basis(rows, field):
    """Canonical (RREF) basis of the span of the rows, sorted by pivot
    column."""
    return rref_rows(rows, field)[1]


def rref_extend(basis, rows, field):
    """The canonical RREF of span(basis + rows), sorted by pivot column,
    where basis is already a canonical RREF in this module's scalars (the
    output of `row_space_basis` or of this function). Only the new rows are
    eliminated:

    1. each row is reduced against basis (`_reduce`); the remainders vanish
       at every basis pivot;
    2. the remainders are eliminated among themselves in reduced mode, so
       their pivots are new columns and each is 0 at the others' pivots and,
       being combinations of remainders, at every basis pivot;
    3. each new pivot column k is cleared from the basis rows. A basis row
       holding k has its pivot left of k, and the new row has nothing left
       of k, so the basis row keeps its pivot, and clearing k changes no
       other pivot column.

    Then every row is 1 at its pivot and 0 at all other pivots, which is the
    canonical RREF once sorted. Basis rows are never mutated; a basis row
    that step 3 does not touch is returned as it is."""
    if not rows:
        return list(basis)
    pivots = {min(row): row for row in basis}
    rest = [r for r in (_reduce(v, pivots, field) for v in rows) if r]
    if not rest:
        return list(basis)
    p = field.characteristic
    new = dict(_eliminate(rest, field, True))
    merged = list(new.items())
    for c, row in pivots.items():
        hits = [k for k in row if k in new]
        if hits:
            row = dict(row)
            for k in hits:
                _axpy(row, row[k], new[k], p)
        merged.append((c, row))
    return [row for _, row in sorted(merged, key=itemgetter(0))]


def in_span(v, rows, field) -> bool:
    return not _reduce(v, dict(_eliminate(rows, field, True)), field)


def subspace_meet(U, W, field):
    """Basis of span(U) ∩ span(W) via the Zassenhaus block trick.

    The reduced form of the rows (u | u) and (w | 0) has the meet as the
    right halves of its rows whose left half is zero, that is, of the rows
    with a pivot in the right copy; those right halves are already the
    meet's RREF. The right copy starts at 1 + the largest column present:
    any offset past every column of U and W works.
    """
    if not U or not W:
        return []
    off = 1 + max((c for v in (*U, *W) for c in v), default=-1)
    block = [{**u, **{c + off: x for c, x in u.items()}} for u in U] + list(W)
    basis = sorted(_eliminate(block, field, True), key=itemgetter(0))
    return [{c - off: x for c, x in row.items()} for c, row in basis if c >= off]


def quotient_dim(U, W, field) -> int:
    """dim(span(U)/span(W)); requires span(W) ⊆ span(U)."""
    basis = dict(_eliminate(U, field, True))
    if any(_reduce(w, basis, field) for w in W):
        raise InputValidationError("W is not contained in U")
    return len(basis) - len(_eliminate(W, field, False))
