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
an int wherever an entry is integral and a Fraction elsewhere (most
matrices here have entries 0, +-1 and +-2); over F_p ints in [1, p).

Over Q the kernel is fraction-free (Bareiss, Math. Comp. 22 (1968)): each
input row is taken to its primitive integer multiple (times the lcm of its
denominators, divided by the gcd of its entries), and rows stay integer
rows throughout. A pivot row is never scaled. Clearing column c of a row
holding a there by a pivot row with pivot pv subtracts a pv times the pivot
row when pv is +-1; otherwise the row becomes (pv/g) row - (a/g) pivot row,
with g = gcd(pv, a), divided by its content. In reduced mode each output
row is divided by its pivot once, at the very end. Over F_p the pivot row
is scaled to pivot 1 as in textbook Gauss-Jordan.

The kernel has two pivoting modes:

- rank mode (`rank_rows`): the pivot row is the lightest remaining row;
  in it the pivot is a unit entry (+-1) if there is one, then the column
  held by the fewest remaining rows. The pivot column is cleared from the
  unprocessed rows only, and nothing is back-substituted. This keeps
  fill-in low and only the count of pivots is used.
- reduced mode (everything else): the pivot row is again the lightest
  remaining row, but the pivot is its *leading* (smallest) column, and the
  column is cleared from every other row, processed or not.

Why reduced mode returns the canonical RREF. Compare each row with its
counterpart in a Gauss-Jordan run that pivots in the same order but scales
every pivot row to pivot 1 at once. Over Q each row differs from its
counterpart only by a non-zero scalar factor: a row is changed only by a
non-zero scalar and by adding a multiple of the pivot row, which is itself
a multiple of its counterpart. So the zero pattern of every row, and with
it reduced mode's choice of pivots, is the same in both runs, and it
suffices to argue for the scaled run. Let row r
with leading column c be the current pivot. (1) A processed row s has its
own pivot c_s as its leading entry; s holds c, so c_s < c, and r has no
entry left of c, so subtracting a multiple of r from s leaves s's leading
entry at c_s. (2) r is zero in every earlier pivot column, since those were
cleared from all rows, so the earlier pivots stay 1 and their columns stay
cleared. (3) A pivot column is zero in every other row, so the leading
column of a remaining row is never an earlier pivot column. Hence at the
end each non-zero row has leading entry 1 at its pivot and every pivot
column is zero elsewhere; sorted by pivot column, the rows are in reduced
row echelon form, and over Q the final division by each pivot turns every
row into its counterpart. The RREF of a row space is unique, so the result
equals the RREF of dense column-by-column Gauss-Jordan entry for entry,
whatever order the rows were pivoted in. Ideal blocks, kernel bases and
cocycle output therefore do not depend on the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter
from typing import Dict

from .errors import InputValidationError

SparseRow = Dict[int, object]


# -- the kernel ----------------------------------------------------------------


def _sparse(row: SparseRow, field) -> SparseRow:
    """A fresh copy of a dict row in kernel scalars, zeros dropped. Over Q
    an integral entry becomes an int; over F_p an int is reduced mod p and
    a Fraction entry of a caller's row is mapped to num * den^-1 mod p.
    The matrices of this package are assembled from field scalars with
    plain + and *, so this (with _primitive over Q) is the one place where
    their zeros are dropped and, over F_p, their entries reduced."""
    p = field.characteristic
    if p:
        return {c: y for c, x in row.items() if (y := _mod(x, p))}
    return {c: (x.numerator if x.denominator == 1 else x) for c, x in row.items() if x}


def _mod(x, p: int) -> int:
    if type(x) is int:
        return x % p
    return x.numerator * pow(x.denominator, -1, p) % p


def _primitive(row: SparseRow) -> SparseRow:
    """A fresh primitive integer multiple of a rational dict row, zeros
    dropped: the row times the lcm of its denominators, divided by the gcd
    of the result. A row of ints costs one C-level gcd beyond the copy, and
    nothing more when that gcd is 1; a one-entry row, as a monomial
    relation gives in a Groebner interreduction, becomes the unit row there
    at once."""
    if len(row) == 1:
        [(c, x)] = row.items()
        return {c: 1} if x else {}
    row = {c: (x.numerator if x.denominator == 1 else x) for c, x in row.items() if x}
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        g = gcd(*row.values())
    if g > 1:
        row = {c: x // g for c, x in row.items()}
    return row


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


def _cross_clear(row: SparseRow, a: int, pv: int, prow: SparseRow, index, j: int) -> None:
    """Clear the entry a of the integer row j by the integer pivot row prow
    whose pivot is pv, not +-1, in place and fraction-free: row becomes
    (pv/g) row - (a/g) prow with g = gcd(pv, a), divided by its content.
    The row changes by a non-zero scalar factor and a multiple of prow, as
    in Gauss-Jordan."""
    g = gcd(pv, a)
    s = pv // g
    for k, x in row.items():
        row[k] = x * s
    _axpy(row, a // g, prow, 0, index, j)
    g = gcd(*row.values())
    if g > 1:
        for k, x in row.items():
            row[k] = x // g


def _over_pivot(row: SparseRow, pv: int) -> SparseRow:
    """The integer row divided by its pivot value pv: an int where the
    quotient is integral, a Fraction elsewhere."""
    if pv == 1:
        return row
    return {k: (x // pv if x % pv == 0 else Fraction(x, pv)) for k, x in row.items()}


def _eliminate(rows, field, reduced: bool):
    """Sparse Gauss-Jordan elimination of dict rows over field. Returns
    [(pivot column, row)] in pivot order; the number of pairs is the rank.
    In reduced mode the rows, sorted by pivot column, are the RREF (see
    the module docstring); in rank mode they are only echelon in pivot
    order, and over Q they are integer rows with their pivots unscaled."""
    p = field.characteristic
    rows = [_sparse(r, field) for r in rows] if p else [_primitive(r) for r in rows]
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
        if p:
            inv = pow(pv, -1, p)
            if reduced and pv != 1:
                for k, x in prow.items():
                    prow[k] = x * inv % p
                inv = 1
        for j in [k for k in index[c] if k != i]:
            row = rows[j]
            if p:
                _axpy(row, row[c] * inv % p, prow, p, index, j)
            elif pv == 1 or pv == -1:
                _axpy(row, row[c] * pv, prow, 0, index, j)
            else:
                _cross_clear(row, row[c], pv, prow, index, j)
            if not row:
                pending.discard(j)
            elif j in pending:
                heappush(heap, (len(row), j))
        out.append((c, prow))
    if reduced and not p:
        # a row's pivot value changes as later pivots scale it; divide once
        return [(c, _over_pivot(row, row[c])) for c, row in out]
    return out


def _reduce(v: SparseRow, pivots: Dict[int, SparseRow], field) -> SparseRow:
    """A non-zero multiple of the remainder of the row v against reduced
    rows given by their pivot map (pivot column -> row), such as the
    reduced-mode output of `_eliminate`: each row is 1 at its pivot and 0
    at every other pivot, so subtracting one leaves v's other pivot entries
    as they are, and one subtraction per pivot column of v suffices. Over Q
    the reduction starts from v's primitive integer multiple, so against
    integral rows it does no Fraction arithmetic; callers only test the
    remainder for zero or eliminate it further."""
    p = field.characteristic
    row = _sparse(v, field) if p else _primitive(v)
    for c in [c for c in row if c in pivots]:
        _axpy(row, row[c], pivots[c], p)
    return row


# -- entry points --------------------------------------------------------------


def rref_rows(rows, field):
    """Reduced row echelon form. Returns (pivot_columns, nonzero_rows)."""
    basis = sorted(_eliminate(rows, field, True), key=itemgetter(0))
    return [c for c, _ in basis], [r for _, r in basis]


def rank_rows(rows, field) -> int:
    """Rank over field, by the kernel's rank mode."""
    return len(_eliminate(rows, field, False))


def kernel_rows(rows, field, ncols: int):
    """Basis of the right kernel {v : M v = 0} of a matrix with ncols
    columns: one row per free column fc, in increasing fc, with 1 at fc and
    minus the RREF's fc entries at the pivot columns. fc is each row's
    largest column: a pivot column c holds an entry of the row of fc only
    where the RREF row of c does at fc, and that row is 0 left of c.
    No module of the package calls it (the cocycle search reads the same
    basis off the kept coboundaries of C^p, see `hochschild`); it stays
    because `perfbench/spans.py` binds it by name and raises RuntimeError
    when it is missing."""
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
    column. Only `presentations.ideal_product`, which no command calls,
    and the tests call it; it stays because `perfbench/spans.py` binds it
    by name and raises RuntimeError when it is missing."""
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
            if not p:  # a Fraction sum that came out integral becomes an int
                row = _sparse(row, field)
        merged.append((c, row))
    return [row for _, row in sorted(merged, key=itemgetter(0))]


def in_span(v, rows, field) -> bool:
    """Whether v lies in the span of rows. No module of the package calls
    it (the cocycle search merges the new classes into one RREF of the
    image with `rref_extend`, see `hochschild.hh_bar`); it stays because
    `perfbench/spans.py` wraps it by name and raises RuntimeError when it
    is missing."""
    return not _reduce(v, dict(_eliminate(rows, field, True)), field)


def subspace_meet(U, W, field):
    """Basis of span(U) ∩ span(W) via the Zassenhaus block trick.

    The reduced form of the rows (u | u) and (w | 0) has the meet as the
    right halves of its rows whose left half is zero, that is, of the rows
    with a pivot in the right copy; those right halves are already the
    meet's RREF. The right copy starts at 1 + the largest column present:
    any offset past every column of U and W works.

    Only `presentations.ideal_meet`, which no command calls, and the tests
    call it; it stays because `perfbench/spans.py` binds it by name and
    raises RuntimeError when it is missing.
    """
    if not U or not W:
        return []
    off = 1 + max((c for v in (*U, *W) for c in v), default=-1)
    block = [{**u, **{c + off: x for c, x in u.items()}} for u in U] + list(W)
    basis = sorted(_eliminate(block, field, True), key=itemgetter(0))
    return [{c - off: x for c, x in row.items()} for c, row in basis if c >= off]


def quotient_dim(U, W, field) -> int:
    """dim(span(U)/span(W)); requires span(W) ⊆ span(U). No module of the
    package calls it; it stays because `perfbench/spans.py` binds it by
    name and raises RuntimeError when it is missing."""
    basis = dict(_eliminate(U, field, True))
    if any(_reduce(w, basis, field) for w in W):
        raise InputValidationError("W is not contained in U")
    return len(basis) - len(_eliminate(W, field, False))
