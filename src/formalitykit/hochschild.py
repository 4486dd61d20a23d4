"""Bigraded Hochschild cohomology of graded algebras.

Two independent engines are provided. The default computes HH^{p,q}(A,A)
from the base-relative normalized bar complex: cochains are block pure
maps on tensor words in the positive part of A, and only words whose
internal degree can hit a nonzero component of A are ever materialized.
The absolute bar complex over the ground field is retained as a slow
reference engine, and explicitly supplied periodic resolutions give a
third route for cross validation.

The two bar engines share one code path; the mode lives in the prepared
table. A relative table takes the blocks of A from its idempotents and
uses the positive basis labels as letters. An absolute table puts every
label in the one block (0, 0) and uses every label as a letter, so every
composability and block test passes trivially.

Every differential is assembled straight into sparse dict rows (column to
non-zero scalar), the one matrix format of `linalg`, so memory follows the
number of non-zero entries and not rows times columns: the large
differentials are far below 1 % non-zero (d_5 of HH^{5,-17}(k[t]/t^7)
holds 0.08 % of its 113 M slots). d_p: C^p -> C^(p+1) is assembled as its
coboundaries d(e_c), one row per basis cochain e_c of C^p, keyed by the
basis of C^(p+1): the form in which every elimination below takes it. So a
slice builds no dict per cochain of C^(p+1), the largest of its three
spaces.

A slice HH^{p,q} = ker d_p / im d_(p-1) is read off with d_p d_(p-1) = 0,
which holds under any sign convention that makes C a complex. The
coboundaries of C^(p-1) span the image I of d_(p-1) in C^p; let S be the
pivot columns of their RREF. The RREF rows are 1 at their own pivot and 0
at the others, so I and the unit vectors e_c, c not in S, together span C^p
and meet only in 0: C^p = I + span{e_c : c not in S}, a direct sum. d_p is
0 on I, so rank d_p is the rank of the kept coboundaries d(e_c), c not in
S, and

    dim HH^{p,q} = n_p - |S| - rank{d(e_c) : c not in S}.

The coboundaries of the cochains in S never enter an elimination, and the
n_p - |S| kept ones are on the deep slices far fewer than the n_(p+1)
rows of the matrix of d_p. Where C^(p+1) = 0 every coboundary is 0 and
only |S| = rank d_(p-1) counts, so the image is ranked in the cheaper rank
mode instead of being brought to RREF.

Representatives of the classes are the kernel basis of d_p that reduced
elimination gives, one vector v_fc per free column fc of the RREF of the
matrix of d_p: v_fc is 1 at fc, 0 at the other free columns F, and
determined by its entries at F, so restricting to F maps ker d_p
isomorphically onto k^F and takes v_fc to e_fc. The image lies in the
kernel. Taking the v_fc in increasing fc and keeping each one outside the
span of the image and of the earlier ones keeps v_fc exactly when e_fc is
not in I_F + span{e_g : g < fc}, with I_F the image restricted to F, that
is, when no vector of I_F has its last non-zero entry at fc. The last
non-zero entry of a kernel vector lies in F: the vector is the combination
of the v_g given by its entries at F, and v_g is 0 right of g, since an
RREF row of d_p holds g only right of its pivot. So the columns not kept
form the trailing profile T of I, the last non-zero columns of its
vectors, which are the pivot columns of its RREF with the column order
reversed.

The v_fc are found without eliminating d_p. Each v_fc is 1 at its last
non-zero column fc and 0 at the other columns F, so the v_fc are the RREF
of ker d_p in reversed column order, which is unique. By the direct sum
above, and since d_p is 0 on I,

    ker d_p = I + K',  K' = ker d_p ∩ span{e_c : c not in S},

again a direct sum. K' is read off the same kept coboundaries as the rank:
d(e_c) is tagged by 1 at its own tag column c past the columns of
C^(p+1), and the rows of the RREF that lead with a tag are 0 on C^(p+1),
so on the tags they lie in K'. The tags make all n_p - |S| rows
independent, so there are n_p - |S| - rank{d(e_c) : c not in S} = dim K'
of them: a basis of K'. Let B be the RREF of I in reversed column order;
its pivots are T. Merging K' into B (`linalg.rref_extend`) gives the RREF
of ker d_p in reversed column order, the v_fc, with B's pivots among them;
its rows that lead outside T are the representatives, the same vectors
that merging the v_fc into the image one by one keeps, and listed in
increasing fc once the column order is restored. So d_p enters an
elimination only as its n_p - |S| kept coboundaries.

Sign convention: the ungraded alternating sum, (-1)^i on the i-th
multiplication and (-1)^(p+1) on the outer right action; d compose d is
asserted to vanish on every assembled slice in the test suite. Both bar
engines use this sum, with no Koszul sign on the left action, until that
sign lands, so where A has an element of odd degree the dimensions at odd
q can differ from graded HH: HH^{0,1} of k[t]/t^3 with |t| = 1 comes out
1, but the graded center is 0 in degree 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import (
    DEFAULT_MAX_WORDS,
    InputValidationError,
    NonExactResolutionError,
    ResourceCapError,
)
from .graded import (
    GradedAlgebra,
    block_structure,
    detect_idempotents,
    validate,
)
from .linalg import (
    mul_rows,
    rank_rows,
    rref_extend,
    rref_rows,
)
from .record import Record

MODES = ("relative_normalized", "absolute")


class _Tables(Record, eq=False):
    """Integer indexed view of an algebra in one bar complex mode.

    Basis label i lies in block (src[i], tgt[i]); letters are the labels
    tensor words are made of. A coefficient index is a basis index, and
    both actions on the coefficients are mult: mult[(i, j)] maps k to the
    structure constant of e_k in e_i e_j, the algebra's own scalar (see
    `fields`: an int wherever it is integral). Differentials are assembled
    from these constants with plain + and * and the signs +-1, so their rows
    follow `linalg`'s input contract: they may hold explicit zeros and, over
    F_p, unreduced ints, which `linalg` drops and reduces.

    Two views are built once with the table, so that the word walk of a
    slice costs in proportion to the composable prefixes it visits, not to
    those prefixes times all letters: succ[i] lists, in letter order, the
    letters j composable after label i (tgt[j] == src[i]), and slots maps
    each (degree, src, tgt) to its coefficient indices in basis order."""

    field: object
    n: int
    degs: Tuple[int, ...]
    src: Tuple[int, ...]
    tgt: Tuple[int, ...]
    mult: Dict[Tuple[int, int], Dict[int, object]]
    labels: Tuple[str, ...]
    letters: Tuple[int, ...]
    succ: Tuple[Tuple[int, ...], ...]
    slots: Dict[Tuple[int, int, int], Tuple[int, ...]]

    def __init__(self, field, n, degs, src, tgt, mult, labels, letters, succ, slots):
        vars(self).update(field=field, n=n, degs=degs, src=src, tgt=tgt, mult=mult,
                          labels=labels, letters=letters, succ=succ, slots=slots)


def _prepare(A: GradedAlgebra, mode: str) -> GradedAlgebra:
    """A validated; in relative mode with its idempotents detected when
    none were given, and checked to be non-negatively graded."""
    if mode not in MODES:
        raise InputValidationError(f"unknown mode {mode!r}")
    validate(A).raise_if_invalid()
    if mode == "relative_normalized":
        if A.idempotents is None:
            detected = detect_idempotents(A)
            if detected is None:
                raise InputValidationError(
                    "relative mode needs an idempotent decomposition of degree zero"
                )
            A = GradedAlgebra(A.field_spec, A.basis, A.mult, A.unit, detected)
        if not A.is_nonneg_graded():
            raise InputValidationError("relative mode needs a non-negatively graded algebra")
    return A


def _build_tables(A: GradedAlgebra, mode: str) -> _Tables:
    A = _prepare(A, mode)
    labels = tuple(A.labels())
    idx = {lab: i for i, lab in enumerate(labels)}
    degs = tuple(d for _, d in A.basis)
    if mode == "relative_normalized":
        blocks = block_structure(A)
        src = tuple(blocks[lab][0] for lab in labels)
        tgt = tuple(blocks[lab][1] for lab in labels)
        letters = tuple(i for i, d in enumerate(degs) if d > 0)
    else:
        src = tgt = (0,) * len(labels)
        letters = tuple(range(len(labels)))
    mult = {
        (idx[x], idx[y]): {idx[lab]: v for lab, v in combo.items()}
        for (x, y), combo in A.mult.items()
    }
    # the letters after i depend only on src[i]: one shared tuple per block
    after = {b: tuple(j for j in letters if tgt[j] == b) for b in set(src)}
    slots: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
    for i, key in enumerate(zip(degs, src, tgt)):
        slots[key] = slots.get(key, ()) + (i,)
    return _Tables(
        A.field_spec.field(), len(labels), degs, src, tgt, mult, labels, letters,
        tuple(after[b] for b in src), slots,
    )


def _enumerate_words(tb: _Tables, p: int, targets, max_words: int, stage: str):
    """(word, degree) pairs: the composable letter tuples of length p with
    total degree in targets, each with that degree.

    Depth first and deterministic along the successor lists, so the words
    come in lexicographic order of their letter indices; a partial word is
    dropped as soon as no target degree stays reachable, and the last two
    letters are tried in place. The walk keeps its own stack, one iterator
    of untried letters per position with the degree before it, and one
    prefix list that grows and shrinks in place, so the word length is not
    bounded by the interpreter's recursion limit; a word's tuple is built
    only at its last letters. Raises once more than max_words words are
    found, naming the stage (which slice of which complex, in which mode)
    and the cap."""
    if p == 0:
        return [((), 0)]
    letters = tb.letters
    if not letters or not targets:
        return []
    degs, succ = tb.degs, tb.succ
    min_d = min(degs[i] for i in letters)
    max_d = max(degs[i] for i in letters)
    tmin, tmax = min(targets), max(targets)
    out: List[Tuple[Tuple[int, ...], int]] = []
    prefix: List[int] = []
    # stack[i]: the untried letters at position i and the degree of the
    # letters before them; len(stack) == len(prefix) + 1
    stack = [(iter(letters), 0)]
    while stack:
        depth = len(stack)
        rem = p - depth  # the letters after position depth - 1
        if rem > 1:
            nexts, total = stack[-1]
            low, high = tmin - rem * max_d, tmax - rem * min_d
            for j in nexts:
                t = total + degs[j]
                if low <= t <= high:
                    prefix.append(j)
                    stack.append((iter(succ[j]), t))
                    break
            else:
                stack.pop()
                if prefix:
                    prefix.pop()
            continue
        nexts, total = stack.pop()
        word = tuple(prefix)
        if rem == 0:  # p == 1
            for j in nexts:
                d = total + degs[j]
                if d in targets:
                    out.append((word + (j,), d))
        else:
            low, high = tmin - max_d, tmax - min_d
            for j in nexts:
                t = total + degs[j]
                if low <= t <= high:
                    head = word + (j,)
                    for k in succ[j]:
                        d = t + degs[k]
                        if d in targets:
                            out.append((head + (k,), d))
        if len(out) > max_words:
            raise ResourceCapError(
                f"word cap {max_words} exceeded by the length p = {p} words of {stage}; "
                "raise max_words"
            )
        if prefix:
            prefix.pop()
    return out


def _word_degree_states(tb: _Tables, p: int) -> Dict[Tuple[int, int, int], int]:
    """Count length p words per (degree, src of word, tgt of word) by
    transfer-style dynamic programming along the successor lists; used
    only to locate feasible internal degrees cheaply."""
    # words counted per (degree, last letter, tgt of the first letter)
    states: Dict[Tuple[int, int, int], int] = {}
    for i in tb.letters:
        key = (tb.degs[i], i, tb.tgt[i])
        states[key] = states.get(key, 0) + 1
    for _ in range(p - 1):
        nxt: Dict[Tuple[int, int, int], int] = {}
        for (d, last, tgt_first), cnt in states.items():
            for j in tb.succ[last]:
                key = (d + tb.degs[j], j, tgt_first)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    out: Dict[Tuple[int, int, int], int] = {}
    for (d, last, tgt_first), cnt in states.items():
        key = (d, tb.src[last], tgt_first)
        out[key] = out.get(key, 0) + cnt
    return out


def _cochain_basis(tb: _Tables, p: int, q: int, mode: str, max_words: int):
    """Basis of degree q cochains on length p words, grouped by word key.

    Word keys are letter tuples; for p = 0 the keys are the diagonal
    vertex markers ('v', i). Returns (groups, total size) with groups
    values [(column, coefficient idx)]. mode only names the stage of a
    word-cap refusal; the table carries the mode.
    """
    groups: Dict[object, List[Tuple[int, int]]] = {}
    col = 0
    if p == 0:
        for i in range(tb.n):
            if tb.degs[i] == q and tb.src[i] == tb.tgt[i]:
                groups.setdefault(("v", tb.src[i]), []).append((col, i))
                col += 1
        return groups, col
    slots, src, tgt = tb.slots, tb.src, tb.tgt
    targets = {d - q for d in set(tb.degs)}
    words = _enumerate_words(
        tb, p, targets, max_words, f"the internal degree q = {q} cochains ({mode} mode)"
    )
    for w, total in words:
        ms = slots.get((total + q, src[w[-1]], tgt[w[0]]))
        if ms:
            groups[w] = [(col + k, m) for k, m in enumerate(ms)]
            col += len(ms)
    return groups, col


def _contractions(tb: _Tables, w):
    """The interior contraction terms of the word w, (-1)^i times w with
    its letters i and i+1 multiplied, for 1 <= i < len(w): one (word,
    coefficient) pair per term of each product."""
    for i in range(1, len(w)):
        prod = tb.mult.get((w[i - 1], w[i]))
        if prod:
            head, tail = w[: i - 1], w[i + 1 :]
            for z, cz in prod.items():
                yield head + (z,) + tail, (cz if i % 2 == 0 else -cz)


def _delta_rows(tb: _Tables, p: int, groups_p, groups_p1, n_p: int):
    """The coboundaries d(e_c) of the n_p basis cochains of C^p, as dict
    rows: one per column of groups_p in column order, keyed by the columns
    of groups_p1, in `linalg`'s input contract (see _Tables): row c is
    column c of the matrix of d_p: C^p -> C^(p+1)."""
    cols: List[Dict[int, object]] = [{} for _ in range(n_p)]
    row_of = {(w, m): r for w, pairs in groups_p1.items() for r, m in pairs}
    sign_last = 1 if (p + 1) % 2 == 0 else -1
    for w1 in groups_p1:
        first = w1[0]
        last = w1[-1]
        # left action term: a_1 . f(a_2 ... a_(p+1))
        tail = w1[1:] if p >= 1 else ("v", tb.src[first])
        for c0, m0 in groups_p.get(tail, ()):
            col = cols[c0]
            for m1, v in tb.mult.get((first, m0), {}).items():
                r = row_of.get((w1, m1))
                if r is not None:
                    col[r] = col.get(r, 0) + v
        # contraction terms: (-1)^i f(... a_i a_(i+1) ...)
        for contracted, coeff in _contractions(tb, w1):
            for c0, m0 in groups_p.get(contracted, ()):
                r = row_of.get((w1, m0))
                if r is not None:
                    col = cols[c0]
                    col[r] = col.get(r, 0) + coeff
        # right action term: (-1)^(p+1) f(a_1 ... a_p) . a_(p+1)
        head = w1[:-1] if p >= 1 else ("v", tb.tgt[last])
        for c0, m0 in groups_p.get(head, ()):
            col = cols[c0]
            for m1, v in tb.mult.get((m0, last), {}).items():
                r = row_of.get((w1, m1))
                if r is not None:
                    col[r] = col.get(r, 0) + sign_last * v
    return cols


def _cut_kernel(cobounds, cut, off: int, field):
    """A basis of K', the kernel of d_p on the cochains outside cut, from
    one RREF of their coboundaries: the coboundary of kept cochain c, keyed
    by the off columns of C^(p+1), is tagged in place by 1 at off + c. The
    RREF rows that lead with a tag are 0 on C^(p+1), so read on the tags
    they lie in K', and there are as many as the kept cochains minus the
    rank of their coboundaries."""
    kept = []
    for c, col in enumerate(cobounds):
        if c not in cut:
            col[off + c] = 1
            kept.append(col)
    pivots, rows = rref_rows(kept, field)
    return [{t - off: x for t, x in row.items()} for lead, row in zip(pivots, rows) if lead >= off]


class HHResult(Record):
    p: int
    q: int
    dim: int
    mode: str
    slice_dims: Tuple[int, int, int]  # dims of C^(p-1), C^p, C^(p+1)
    cocycles: Optional[tuple]

    def __init__(self, p, q, dim, mode, slice_dims, cocycles=None):
        vars(self).update(p=p, q=q, dim=dim, mode=mode, slice_dims=slice_dims, cocycles=cocycles)


def _tables(A: GradedAlgebra, mode: str) -> _Tables:
    """Prepared integer tables of A in the given mode, built once per
    algebra and mode and kept in the algebra's memo; the algebra cannot
    change after construction. Nothing is stored when preparation raises,
    so an invalid algebra is rejected on every call."""
    key = ("hh_tables", mode)
    tb = A._memo.get(key)
    if tb is None:
        tb = A._memo[key] = _build_tables(A, mode)
    return tb


def hh_bar(
    A: GradedAlgebra,
    p: int,
    q: int,
    *,
    mode: str = "relative_normalized",
    want_cocycles: bool = False,
    max_words: int = DEFAULT_MAX_WORDS,
) -> HHResult:
    """dim HH^{p,q}(A, A) from the bar complex, with representatives on
    request. The two modes agree; the relative one is the fast default.

    Both read the slice off the coboundaries of C^(p-1) and C^p, as the
    module docstring derives: the dimension is n_p - |S| - the rank of the
    coboundaries of the cochains outside S, S the pivot columns of the
    image's RREF, or n_p - rank d_(p-1) where C^(p+1) = 0. The dimension
    path eliminates twice; the cocycle path eliminates three times, and
    merges once more when there is a class."""
    if p < 0:
        raise InputValidationError("p must be >= 0")
    tb = _tables(A, mode)
    g_prev, n_prev = (_cochain_basis(tb, p - 1, q, mode, max_words) if p >= 1 else ({}, 0))
    g_here, n_here = _cochain_basis(tb, p, q, mode, max_words)
    g_next, n_next = _cochain_basis(tb, p + 1, q, mode, max_words)

    if n_here == 0:
        return HHResult(p, q, 0, mode, (n_prev, 0, n_next))

    f = tb.field
    # the coboundaries of C^(p-1) span the image, on which d_p vanishes
    image = _delta_rows(tb, p - 1, g_prev, g_here, n_prev) if n_prev else []
    if not want_cocycles and not n_next:
        dim = n_here - rank_rows(image, f)
        return HHResult(p, q, dim, mode, (n_prev, n_here, n_next))

    cut = set(rref_rows(image, f)[0])  # S: the pivot columns of the image's RREF
    d_here = _delta_rows(tb, p, g_here, g_next, n_here)
    if not want_cocycles:
        kept = [col for c, col in enumerate(d_here) if c not in cut]
        dim = n_here - len(cut) - rank_rows(kept, f)
        return HHResult(p, q, dim, mode, (n_prev, n_here, n_next))

    # the RREF of ker d_p = image + K' in reversed column order; its rows
    # that lead where no image row does are the representatives
    flip = n_here - 1
    k_cut = [{flip - c: x for c, x in v.items()} for v in _cut_kernel(d_here, cut, n_next, f)]
    trailing, basis = rref_rows([{flip - c: x for c, x in row.items()} for row in image], f)
    trailing = set(trailing)
    reps = [{flip - k: x for k, x in row.items()}
            for row in reversed(rref_extend(basis, k_cut, f)) if min(row) not in trailing]
    where = {c0: (w, m) for w, pairs in g_here.items() for c0, m in pairs}
    out = []
    for rep in reps:
        terms = []
        for c0 in sorted(rep):
            w, m = where[c0]
            word_labels = tuple(tb.labels[i] for i in w) if p else ()
            terms.append((word_labels, tb.labels[m], f.to_str(rep[c0])))
        out.append(tuple(terms))
    return HHResult(p, q, len(reps), mode, (n_prev, n_here, n_next), tuple(out))


def cochain_dim(
    A: GradedAlgebra,
    p: int,
    q: int,
    *,
    mode: str = "relative_normalized",
    max_words: int = DEFAULT_MAX_WORDS,
) -> int:
    """dim C^{p,q}: the number of degree q cochains on length p words."""
    if p < 0:
        raise InputValidationError("p must be >= 0")
    _, n = _cochain_basis(_tables(A, mode), p, q, mode, max_words)
    return n


def nonempty_internal_degrees(
    A: GradedAlgebra, p: int, *, mode: str = "relative_normalized"
) -> List[int]:
    """Internal degrees q with a nonzero (p, q) cochain slice."""
    if p < 0:
        raise InputValidationError("p must be >= 0")
    tb = _tables(A, mode)
    slots = tb.slots
    if p == 0:
        return sorted({d for (d, s, t) in slots if s == t})
    out = set()
    for (wd, src, tgt) in _word_degree_states(tb, p):
        for (md, ms, mt) in slots:
            if (ms, mt) == (src, tgt):
                out.add(md - wd)
    return sorted(out)


def kadeishvili_scan(
    A: GradedAlgebra,
    q_max: int,
    *,
    mode: str = "relative_normalized",
    max_words: int = DEFAULT_MAX_WORDS,
) -> Dict[int, int]:
    """Table q -> dim HH^{q, 2-q}(A, A) for 3 <= q <= q_max.

    An all zero table is the finite slice of the vanishing asked for by
    the Kadeishvili criterion; all-q statements come from certificates.
    A q_max below 3 is refused: its table would be empty, and an empty
    table would claim vanishing over nothing.
    """
    if q_max < 3:
        raise InputValidationError(f"q_max must be >= 3, got {q_max}")
    out: Dict[int, int] = {}
    for q in range(3, q_max + 1):
        out[q] = hh_bar(A, q, 2 - q, mode=mode, max_words=max_words).dim
    return out


# -- reduced bar chain slices (the Tor side of the same words) ---------------


def bar_chain_slice(A: GradedAlgebra, p: int, q: int):
    """Degree q slice of the reduced chain complex of tensor words.

    Returns (words_p, words_(p-1), matrix): the alternating sum of the
    interior contractions maps length p words of internal degree q to
    length p-1 words of the same degree, as one dict row per word of
    length p-1, indexed by the words of length p. The rows follow
    `linalg`'s input contract: they may hold explicit zeros and, over F_p,
    unreduced ints. The words listed for length p (p >= 1) are exactly a
    basis of the degree q part of the p-fold tensor power of the positive
    part over the base.
    """
    if p < 1:
        raise InputValidationError("p must be >= 1")
    tb = _tables(A, "relative_normalized")
    stage = f"the internal degree q = {q} chains (relative_normalized mode)"
    words_p = [w for w, _ in _enumerate_words(tb, p, {q}, DEFAULT_MAX_WORDS, stage)]
    # the degree q > 0 part of the base (p - 1 = 0) is zero
    words_prev = (
        [w for w, _ in _enumerate_words(tb, p - 1, {q}, DEFAULT_MAX_WORDS, stage)]
        if p >= 2 else []
    )
    idx_prev = {w: i for i, w in enumerate(words_prev)}
    rows: List[Dict[int, object]] = [{} for _ in words_prev]
    for c, w in enumerate(words_p):
        for contracted, coeff in _contractions(tb, w):
            r = idx_prev.get(contracted)
            if r is not None:
                rows[r][c] = rows[r].get(c, 0) + coeff
    labels_p = [tuple(tb.labels[i] for i in w) for w in words_p]
    labels_prev = [tuple(tb.labels[i] for i in w) for w in words_prev]
    return labels_p, labels_prev, rows


# -- periodic resolutions -----------------------------------------------------


class PeriodicResolutionSpec(Record, eq=False):
    """Free resolution data: term shifts s_0..s_L and multipliers mu_1..mu_L.

    Term j is the free rank one module over the enveloping algebra shifted
    by s_j; the differential into term j-1 is right multiplication by
    mu_j, a combination of (left label, right label, coeff) pairs.
    """

    shifts: Tuple[int, ...]
    multipliers: Tuple[Tuple[Tuple[str, str, object], ...], ...]

    def __init__(self, shifts, multipliers):
        if len(multipliers) != len(shifts) - 1:
            raise InputValidationError("need one multiplier per consecutive shift pair")
        vars(self).update(shifts=shifts, multipliers=multipliers)

    def length(self) -> int:
        return len(self.multipliers)


def periodic_spec_truncated_poly(n: int, k: int, length: int) -> PeriodicResolutionSpec:
    """The 2-periodic resolution of k[t]/t^(n+1) with deg t = k: shifts
    -i(n+1)k and -(i(n+1)+1)k, multipliers t x 1 - 1 x t and
    sum_j t^(n-j) x t^j, alternating."""

    def lab(j):
        return "1" if j == 0 else ("t" if j == 1 else f"t^{j}")

    shifts = []
    for qq in range(length + 1):
        i = qq // 2
        shifts.append(-(i * (n + 1)) * k if qq % 2 == 0 else -(i * (n + 1) + 1) * k)
    u = (("t", "1", 1), ("1", "t", -1))
    v = tuple((lab(n - j), lab(j), 1) for j in range(n + 1))
    multipliers = tuple(u if step % 2 == 1 else v for step in range(1, length + 1))
    return PeriodicResolutionSpec(tuple(shifts), multipliers)


def _env_mul(A: GradedAlgebra, m1, m2):
    """Product in the enveloping algebra: (x, y)(x', y') = (x x', y' y), as
    a dict from label pairs to their non-zero coefficients."""
    f = A.field_spec.field()
    out: Dict[Tuple[str, str], object] = {}
    for (x, y, c1) in m1:
        for (x2, y2, c2) in m2:
            for lx, cx in A.mult.get((x, x2), {}).items():
                for ly, cy in A.mult.get((y2, y), {}).items():
                    out[(lx, ly)] = out.get((lx, ly), 0) + c1 * c2 * cx * cy
    return {key: c for key, c in out.items() if not f.is_zero(c)}


def _multiplier_degree(A: GradedAlgebra, mu) -> int:
    f = A.field_spec.field()
    degs = A.degree_map()
    found = {degs[x] + degs[y] for (x, y, c) in mu if not f.is_zero(c)}
    if len(found) != 1:
        raise InputValidationError("multiplier is not homogeneous")
    return found.pop()


def validate_periodic_spec(A: GradedAlgebra, spec: PeriodicResolutionSpec) -> PeriodicResolutionSpec:
    """Check homogeneity, zero composites, and degreewise exactness, and
    return spec with every multiplier coefficient a scalar of A's field.

    Exactness is verified at the augmentation, at term 0, and at every
    interior term (the last supplied term has no successor to check
    against), for each internal degree d from 0 to 2 maxdeg(A) + max(-s_j).
    Failures raise NonExactResolutionError naming the degree and position.

    The check runs once per algebra and spec: the field-mapped spec is kept
    in the algebra's memo, keyed by the spec object (specs compare by
    identity; neither the algebra nor the spec can change). Nothing is
    stored when a check raises, so an invalid spec is refused on every
    call. The returned coefficients follow the `fields` convention: over Q
    an int wherever integral, over F_p an int mod p (a/b becomes
    a * b^-1 mod p).
    """
    key = ("periodic_spec", spec)
    checked = A._memo.get(key)
    if checked is None:
        checked = A._memo[key] = _check_periodic_spec(A, spec)
    return checked


def _check_periodic_spec(A: GradedAlgebra, spec: PeriodicResolutionSpec) -> PeriodicResolutionSpec:
    validate(A).raise_if_invalid()
    f = A.field_spec.field()
    spec = PeriodicResolutionSpec(
        spec.shifts,
        tuple(tuple((x, y, f.scalar(c)) for x, y, c in mu) for mu in spec.multipliers),
    )
    degs = A.degree_map()
    for j, mu in enumerate(spec.multipliers, start=1):
        want = spec.shifts[j - 1] - spec.shifts[j]
        if want < 0:
            raise InputValidationError("shifts must be weakly decreasing")
        got = _multiplier_degree(A, mu)
        if got != want:
            raise InputValidationError(f"multiplier {j} has degree {got}, shifts demand {want}")
    for j in range(1, spec.length()):
        if _env_mul(A, spec.multipliers[j], spec.multipliers[j - 1]):
            raise InputValidationError(f"composite of multipliers {j + 1} and {j} is nonzero")

    labels = A.labels()
    degree_bound = 2 * max(d for _, d in A.basis) + max(-s for s in spec.shifts)
    pairs = [(x, y) for x in labels for y in labels]
    pair_deg = {(x, y): degs[x] + degs[y] for (x, y) in pairs}

    def env_basis(d):
        return [pr for pr in pairs if pair_deg[pr] == d]

    for d in range(0, degree_bound + 1):
        dims = [len(env_basis(d + s)) for s in spec.shifts]
        # augmentation piece in internal degree d
        dom0 = env_basis(d + spec.shifts[0])
        a_labs = sorted(lab for lab in labels if degs[lab] == d)
        aidx = {lab: i for i, lab in enumerate(a_labs)}
        aug_rows: List[Dict[int, object]] = [{} for _ in a_labs]
        for c, (x, y) in enumerate(dom0):
            for lab, v in A.mult.get((x, y), {}).items():
                # a table term of another degree has coefficient 0 (the
                # grading check skips zero terms), and is skipped here too
                if lab in aidx:
                    row = aug_rows[aidx[lab]]
                    row[c] = row.get(c, 0) + v
        rank_aug = rank_rows(aug_rows, f)
        if rank_aug != len(a_labs):
            raise NonExactResolutionError(
                f"augmentation not surjective in internal degree {d}", degree=d, position=0
            )

        matrices = [aug_rows]
        ranks = [rank_aug]
        for j in range(1, spec.length() + 1):
            dom = env_basis(d + spec.shifts[j])
            cod = env_basis(d + spec.shifts[j - 1])
            cidx = {pr: i for i, pr in enumerate(cod)}
            rows: List[Dict[int, object]] = [{} for _ in cod]
            for c, (a, b) in enumerate(dom):
                # (a, b)(x, y) = (a x, y b) in the enveloping algebra
                for x, y, coeff in spec.multipliers[j - 1]:
                    for lx, cx in A.mult.get((a, x), {}).items():
                        for ly, cy in A.mult.get((y, b), {}).items():
                            rr = cidx.get((lx, ly))
                            if rr is not None:
                                rows[rr][c] = rows[rr].get(c, 0) + coeff * cx * cy
            matrices.append(rows)
            ranks.append(rank_rows(rows, f))

        # exactness at term j needs im(d_(j+1)) inside ker(d_j) with equal
        # dimensions; d_0 is the augmentation
        for j in range(0, spec.length()):
            if any(mul_rows(matrices[j], matrices[j + 1], f)):
                raise NonExactResolutionError(
                    f"resolution not exact at position {j} in internal degree {d}",
                    degree=d,
                    position=j,
                )
            ker_j = dims[j] - ranks[j]
            if ker_j != ranks[j + 1]:
                raise NonExactResolutionError(
                    f"resolution not exact at position {j} in internal degree {d}",
                    degree=d,
                    position=j,
                )
    return spec


def hh_resolution(A: GradedAlgebra, spec: PeriodicResolutionSpec, p: int, q: int) -> int:
    """dim HH^{p,q}(A, A) from a supplied free resolution.

    Degree zero homs out of the shifted free term j form the degree
    q - s_j part of A, and the induced differential is the multiplier
    action a -> sum x a y. Needs p + 1 <= resolution length. The spec is
    validated once per algebra (see validate_periodic_spec).
    """
    if p < 0:
        raise InputValidationError("p must be >= 0")
    if p + 1 > spec.length():
        raise InputValidationError(
            f"resolution of length {spec.length()} is too short for p = {p}"
        )
    spec = validate_periodic_spec(A, spec)
    f = A.field_spec.field()

    def cochain_labels(j):
        want = q - spec.shifts[j]
        return [lab for lab, d in A.basis if d == want]

    def delta(j):
        dom = cochain_labels(j)
        cod = cochain_labels(j + 1)
        cidx = {lab: i for i, lab in enumerate(cod)}
        mu = spec.multipliers[j]
        rows: List[Dict[int, object]] = [{} for _ in cod]
        for c, a in enumerate(dom):
            for (x, y, coeff) in mu:
                for xa, c1 in A.mult.get((x, a), {}).items():
                    for lab, c2 in A.mult.get((xa, y), {}).items():
                        rr = cidx.get(lab)
                        if rr is not None:
                            rows[rr][c] = rows[rr].get(c, 0) + coeff * c1 * c2
        return rows, len(dom)

    d_here, n_here = delta(p)
    if n_here == 0:
        return 0
    ker = n_here - rank_rows(d_here, f)
    if p == 0:
        return ker
    d_prev, _ = delta(p - 1)
    return ker - rank_rows(d_prev, f)
