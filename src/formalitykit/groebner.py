"""Noncommutative Groebner bases of presentations, and Tor from them.

The reduced Groebner basis of the ideal I of a presentation's relations
is built one degree at a time (`_GroebnerBasis`); the words that contain
no tip, counted by degree (`_NormalWords`), give dim T(V)/I and the zero
window that certifies maxdeg(A); and Tor_q is the homology of the Anick
chains on the tips under the Morse differential (`_morse_tor`). On a
monomial presentation the basis is the relations' minimal words, with no
tails: no S-polynomial is formed, the differential is 0, and Tor_q is a
chain count. `presentations.tor_term` is the entry point.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple)

from .configurations import PoincarePolynomial
from .errors import TruncationError
from .linalg import rank_rows, rref_rows

if TYPE_CHECKING:
    from .presentations import Generator, TensorPresentation

Word = Tuple[str, ...]


# -- the zero window and the top degree of Tor -----------------------------------


def _window_maxdeg(pres: TensorPresentation, dim: Callable[[int], int]) -> int:
    """Exact maxdeg of T(V)/I from dim(d), its dimension in degree d,
    certified by a zero window of width equal to the maximal generator
    degree (after such a window the quotient stays zero, since every longer
    word has a prefix inside the window). dim is asked for no degree past
    the end of the first zero window."""
    # with no generators every positive degree is zero; any width certifies
    width = max((g.deg for g in pres.generators), default=1)
    for start in range(1, pres.truncation - width + 2):
        if all(dim(start + j) == 0 for j in range(width)):
            return max(d for d in range(start) if dim(d) > 0)
    raise TruncationError(
        "cannot certify finite dimensionality within the truncation; "
        "increase truncation (no nilpotence window found)"
    )


def _tor_degree_cap(pres: TensorPresentation, q: int, maxdeg: Callable[[], int]) -> int:
    """The top degree of Tor_q (q >= 1): the largest generator degree for
    q = 1, and q maxdeg(A) for q >= 2, with maxdeg() asked only then.
    Refused past the truncation."""
    if q > 1:
        d_need = q * maxdeg()
    else:
        d_need = max((g.deg for g in pres.generators), default=0)
    if d_need > pres.truncation:
        raise TruncationError(
            f"Tor_{q} may receive contributions up to degree {d_need}; "
            f"increase truncation (currently {pres.truncation})"
        )
    return d_need


# -- Groebner bases, normal words and Anick chains -----------------------------


class _NormalWords:
    """The composable words that contain no tip, counted by degree: they are
    a basis of T(V)/I when the tips are those of a Groebner basis of I,
    which `_GroebnerBasis` adds one degree at a time. A word is normal iff
    the word after its first letter is and no tip is a prefix of it.
    Whether a tip is a prefix of g w depends on g and the first (longest
    tip - 1) letters of w only, so degree d is built from lower degrees, on
    demand and once, as counts per such prefix: the work is bounded by the
    prefixes, not by the words, even where T(V)/I is infinite dimensional.
    A one-letter tip removes its generator."""

    def __init__(self, pres: TensorPresentation):
        self.pres = pres
        self.gen = {g.label: g for g in pres.generators}
        self.tips = set()
        self.lengths: List[int] = []
        self.keep = 1
        self.by_degree: Dict[int, Dict[Word, int]] = {}

    def add(self, tips) -> None:
        """Take in more tips, each of a degree above every degree counted so
        far, so the counts stay valid; they are dropped only when a tip is
        longer than the kept prefixes can test."""
        self.tips.update(tips)
        self.lengths = sorted({len(tip) for tip in self.tips})
        keep = max([1] + [n - 1 for n in self.lengths])
        if keep > self.keep:
            self.keep = keep
            self.by_degree.clear()

    def prefixes(self, d: int) -> Dict[Word, int]:
        """The normal words of degree d, counted by their first keep letters."""
        if d not in self.by_degree:
            out: Dict[Word, int] = {}
            for g in self.pres.generators:
                if g.deg == d:
                    if (g.label,) not in self.tips:
                        out[(g.label,)] = 1
                elif g.deg < d:
                    for prefix, count in self.prefixes(d - g.deg).items():
                        word = (g.label,) + prefix
                        if self.gen[prefix[0]].tgt == g.src and not any(
                                word[:n] in self.tips for n in self.lengths):
                            key = word[:self.keep]
                            out[key] = out.get(key, 0) + count
            self.by_degree[d] = out
        return self.by_degree[d]

    def dim(self, d: int) -> int:
        return self.pres.num_vertices if d == 0 else sum(self.prefixes(d).values())


class _GroebnerBasis:
    """The reduced Groebner basis of the ideal I of the relations, built one
    degree at a time and only as far as a caller reads, and normal forms
    modulo it (Buchberger's algorithm for homogeneous relations in a path
    algebra: Mora, LNCS 307 (1986); Green, Progr. Math. 173 (1999)).

    The term order compares internal degree first; within a degree a
    shorter word is larger, and words of one length compare
    lexicographically, a generator listed earlier in pres.generators being
    larger. It is admissible: u < v implies a u b < a v b. A shorter word
    being larger makes t_i the tip of a_ji a_ij - t_i, so a generator that
    the relations express by others becomes a one-letter tip, and no
    normal word contains it.

    Degree d takes the relations of degree d and the S-polynomials of the
    overlaps of two tips (a suffix of one is a proper prefix of the other)
    whose overlap word has degree d, reduces them modulo the basis, which
    holds tips of lower degree only, and interreduces them in one
    `rref_rows` call per (source, target) block, with the block's words as
    columns in descending term order. Every pivot is then the largest word
    of its row, a new tip, and the rows are the new basis elements, each
    tip minus its normal form. A tip of degree d contains no tip of lower
    degree, and no normal form contains a tip of higher degree, so the
    basis stays reduced; every overlap of two elements of degree below d
    has degree at least d, and those of degree d are all reduced here, so
    the basis up to degree d is that of I (Bergman's diamond lemma).

    Once the normal words vanish in a window of degrees as wide as the
    largest generator degree, every word past the window has a proper
    prefix inside it, which contains a tip; so no tip lies past the
    window's end, and the basis read as far as the window (as `dim` reads
    it) is complete. `nf` is asked only for degrees the basis is complete
    for. Over F_p scalars are reduced mod p as words are rewritten; over Q
    they are ints and Fractions in plain arithmetic."""

    def __init__(self, pres: TensorPresentation):
        self.pres = pres
        self.field = pres.field_spec.field()
        self.p = self.field.characteristic
        self.gen = {g.label: g for g in pres.generators}
        self.position = {g.label: i for i, g in enumerate(pres.generators)}
        self.tails: Dict[Word, Dict[Word, object]] = {}  # tip -> its normal form
        self.lengths: List[int] = []
        self.pending: Dict[int, List[Dict[Word, object]]] = {}  # degree -> to reduce
        for rel in pres.relations:
            poly: Dict[Word, object] = {}
            for word, c in rel:
                poly[word] = poly.get(word, 0) + c
            self.pending.setdefault(self.deg(rel[0][0]), []).append(poly)
        self.normal = _NormalWords(pres)
        self.reached = 0
        self._nf: Dict[Word, Dict[Word, object]] = {}

    def deg(self, word: Word) -> int:
        return sum(self.gen[lab].deg for lab in word)

    def _key(self, word: Word):
        """Sorts a degree's words in descending term order."""
        return len(word), [self.position[lab] for lab in word]

    def upto(self, cap: int) -> None:
        for d in range(self.reached + 1, cap + 1):
            blocks: Dict[Tuple[int, int], List[Dict[Word, object]]] = {}
            for poly in self.pending.pop(d, ()):
                reduced = self._reduce(poly)
                if reduced:
                    word = next(iter(reduced))
                    key = (self.gen[word[-1]].src, self.gen[word[0]].tgt)
                    blocks.setdefault(key, []).append(reduced)
            new = []
            for key in sorted(blocks):
                polys = blocks[key]
                words = sorted({w for poly in polys for w in poly}, key=self._key)
                col = {w: i for i, w in enumerate(words)}
                pivots, rows = rref_rows([{col[w]: c for w, c in poly.items()} for poly in polys],
                                         self.field)
                for c, row in zip(pivots, rows):
                    tail = {words[j]: (-x % self.p if self.p else -x)
                            for j, x in row.items() if j != c}
                    self._add(words[c], tail)
                    new.append(words[c])
            self.normal.add(new)
            self.reached = d

    def _add(self, tip: Word, tail: Dict[Word, object]) -> None:
        """Record a basis element, and queue the S-polynomial of each overlap
        of its tip with a tip recorded so far (itself included) up to the
        truncation. Two words (tips with no tail) have only zero
        S-polynomials, so their pair is skipped; on monomial input nothing
        is queued."""
        self.tails[tip] = tail
        if len(tip) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(tip)])
        for other, other_tail in self.tails.items():
            if not tail and not other_tail:
                continue
            for a, b in ((tip, other), (other, tip)) if other != tip else ((tip, tip),):
                last = a[-1]
                for k in range(1, min(len(a), len(b))):
                    if b[k - 1] != last or a[-k:] != b[:k]:
                        continue
                    d = self.deg(a) + self.deg(b[k:])
                    if d <= self.pres.truncation:
                        self.pending.setdefault(d, []).append(self._s_polynomial(a, b, k))

    def _s_polynomial(self, a: Word, b: Word, k: int) -> Dict[Word, object]:
        """(a - nf(a)) b[k:] - a[:-k] (b - nf(b)) for tips a, b that overlap
        in k letters: the overlap word cancels."""
        poly: Dict[Word, object] = {}
        head, rest = a[:len(a) - k], b[k:]
        for s, c in self.tails[a].items():
            poly[s + rest] = poly.get(s + rest, 0) - c
        for s, c in self.tails[b].items():
            poly[head + s] = poly.get(head + s, 0) + c
        return poly

    def _rewrite(self, word: Word) -> Optional[Dict[Word, object]]:
        """u nf(T) v for the leftmost, then shortest, tip occurrence u T v in
        word, or None when word is normal."""
        for i in range(len(word)):
            for n in self.lengths:
                tip = word[i:i + n]
                if len(tip) == n and tip in self.tails:
                    head, rest = word[:i], word[i + n:]
                    return {head + s + rest: c for s, c in self.tails[tip].items()}
        return None

    def _reduce(self, poly: Dict[Word, object]) -> Dict[Word, object]:
        """The normal form of a homogeneous polynomial modulo the tips
        recorded so far. The largest word left is rewritten first; a rewrite
        only brings in smaller words, so each word is rewritten at most
        once."""
        p = self.p
        acc = dict(poly)
        heap = [(self._key(w), w) for w in acc]
        heapify(heap)
        out: Dict[Word, object] = {}
        while heap:
            _, w = heappop(heap)
            c = acc.pop(w)
            if p:
                c %= p
            if not c:
                continue
            terms = self._rewrite(w)
            if terms is None:
                out[w] = c
                continue
            for u, x in terms.items():
                if u in acc:
                    acc[u] += c * x
                else:
                    acc[u] = c * x
                    heappush(heap, (self._key(u), u))
        return out

    def nf(self, word: Word) -> Dict[Word, object]:
        """The normal form of a word, kept for the next call."""
        out = self._nf.get(word)
        if out is None:
            out = self._nf[word] = self._reduce({word: 1})
        return out

    def dim(self, d: int) -> int:
        """dim of T(V)/I in degree d, from the normal words."""
        if d:
            self.upto(d)
        return self.normal.dim(d)


def _chain_extensions(tips: FrozenSet[Word], tail: Word,
                      deg: Mapping[str, int]) -> List[Tuple[Word, int]]:
    """(t, degree of t) for each non-empty path t that extends a chain with
    this tail: tail t contains exactly one tip, which starts inside the tail
    and ends at the end of t. So t is what a tip has left after a prefix
    that is a suffix of the tail.

    No tip contains another, and a tail (a generator, or a t) contains no
    tip, nor does t, a proper part of a tip. So the only other tips tail t
    could contain cross into t and end before its end; those are looked
    for."""
    out = []
    lengths = {len(tip) for tip in tips}
    for tip in tips:
        for k in range(1, min(len(tail), len(tip) - 1) + 1):
            if tail[-k:] != tip[:k]:
                continue
            word = tail + tip[k:]
            if not any(word[end - n:end] in tips for end in range(len(tail) + 1, len(word))
                       for n in lengths if n <= end):
                out.append((tip[k:], sum(deg[lab] for lab in tip[k:])))
    return out


def _chain_counts(generators: Sequence[Generator], tips: FrozenSet[Word],
                  q: int) -> Dict[int, int]:
    """The number of Anick (q-1)-chains by degree on these generators and
    tips (of length >= 2). Whether a chain extends, and by which t (see
    _chain_extensions), depends only on its tail, so chains are counted per
    (tail, degree), never listed."""
    deg = {g.label: g.deg for g in generators}
    chains: Dict[Tuple[Word, int], int] = {((g.label,), g.deg): 1 for g in generators}
    extensions: Dict[Word, List[Tuple[Word, int]]] = {}
    for _ in range(q - 1):
        longer: Dict[Tuple[Word, int], int] = {}
        for (tail, d), count in chains.items():
            if tail not in extensions:
                extensions[tail] = _chain_extensions(tips, tail, deg)
            for t, dt in extensions[tail]:
                longer[(t, d + dt)] = longer.get((t, d + dt), 0) + count
        chains = longer
    dims: Dict[int, int] = {}
    for (_, d), count in chains.items():
        dims[d] = dims.get(d, 0) + count
    return dims


Cell = Tuple[Word, ...]


class _MorseComplex:
    """The normalized bar complex of A = T(V)/I, tensored with the base on
    both sides, reduced by algebraic discrete Morse theory to the Anick
    chains (Skoeldberg, Trans. AMS 358 (2006); Joellenbeck-Welker, Mem. AMS
    197 (2009), ch. 5).

    A cell [w_1|...|w_n] is a composable tuple of non-empty normal words,
    in homological degree n, and d[w_1|...|w_n] is the sum over i of
    (-1)^i [w_1|...|nf(w_i w_(i+1))|...|w_n]. The matching pairs each cell
    that is not a chain with a neighbour, found at the first place where
    the cell stops being one:
    - if w_1 has two letters or more, [w_1|...] is matched with the cell
      above it that splits off the first letter, [x|w_1'|...];
    - else at the least j with w_(j-1) w_j containing no tip, the cell is
      matched with the cell below it that merges w_(j-1) w_j, a normal
      word;
    - else at the least j where the least prefix v of w_j with w_(j-1) v
      containing a tip is proper, w_j = v v', with the cell above it that
      splits w_j into v|v'.
    A cell that is none of these is critical: w_1 is a letter, and each
    w_(j-1) w_j contains exactly one tip, which ends at its end, so the
    cell is an Anick (n-1)-chain. A matched pair's incidence is +-1: the
    merged word is normal, and merging at any other place changes the
    degree of an earlier piece. So the flow F of a cell is itself when it
    is critical, 0 when it is matched below, and -e^-1 F(d u - e b) when it
    is b matched with u above it, e = [d u : b]; the Morse differential is
    F(d c) on a chain c. The matching is acyclic, so the recursion ends; it
    is followed with an explicit stack and its results are kept."""

    def __init__(self, basis: _GroebnerBasis, tips: FrozenSet[Word]):
        self.basis = basis
        self.tips = tips
        self.lengths = sorted({len(tip) for tip in tips})
        p = basis.p
        self.norm = (lambda x: x % p) if p else (lambda x: x)
        self.flows: Dict[Cell, Dict[Cell, object]] = {}

    def _first_tip_end(self, prev: Word, cur: Word) -> Optional[int]:
        """The least i with a tip inside prev cur[:i], or None; the tip starts
        inside prev, as prev and cur are normal."""
        word = prev + cur
        for i in range(1, len(cur) + 1):
            end = len(prev) + i
            for n in self.lengths:
                if 0 <= end - n < len(prev) and word[end - n:end] in self.tips:
                    return i
        return None

    def _partner(self, cell: Cell):
        """None for a chain, () for a cell matched with one below it, and
        the cell above it for a cell matched with that."""
        if len(cell[0]) > 1:
            return (cell[0][:1], cell[0][1:]) + cell[1:]
        for j in range(1, len(cell)):
            i = self._first_tip_end(cell[j - 1], cell[j])
            if i is None:
                return ()
            if i < len(cell[j]):
                return cell[:j] + (cell[j][:i], cell[j][i:]) + cell[j + 1:]
        return None

    def boundary(self, cell: Cell) -> Dict[Cell, object]:
        out: Dict[Cell, object] = {}
        for i in range(len(cell) - 1):
            head, rest = cell[:i], cell[i + 2:]
            for w, c in self.basis.nf(cell[i] + cell[i + 1]).items():
                key = head + (w,) + rest
                out[key] = out.get(key, 0) + (c if i % 2 else -c)
        return out

    def flow(self, cell: Cell) -> Dict[Cell, object]:
        flows = self.flows
        stack: List[Tuple[Cell, Optional[tuple]]] = [(cell, None)]
        while stack:
            b, work = stack[-1]
            if b in flows:
                stack.pop()
                continue
            if work is None:
                partner = self._partner(b)
                if partner is None:
                    flows[b] = {b: 1}
                elif partner == ():
                    flows[b] = {}
                else:
                    terms = self.boundary(partner)
                    e = terms.pop(b)  # +-1, so -e^-1 = -e
                    stack[-1] = (b, (terms, -e))
                    stack.extend((b2, None) for b2 in terms if b2 not in flows)
                continue
            terms, factor = work
            acc: Dict[Cell, object] = {}
            for b2, c2 in terms.items():
                for chain, x in flows[b2].items():
                    acc[chain] = acc.get(chain, 0) + factor * c2 * x
            flows[b] = {chain: y for chain, x in acc.items() if (y := self.norm(x))}
            stack.pop()
        return flows[cell]

    def differential(self, chain: Cell) -> Dict[Cell, object]:
        """The Morse differential of a chain, by chains one degree lower."""
        acc: Dict[Cell, object] = {}
        for b, c in self.boundary(chain).items():
            for target, x in self.flow(b).items():
                acc[target] = acc.get(target, 0) + c * x
        return acc

    def rank(self, chains: Sequence[Cell]) -> int:
        """The rank of the Morse differential on these chains."""
        columns: Dict[Cell, int] = {}
        rows = [{columns.setdefault(target, len(columns)): x for target, x in
                 self.differential(chain).items()} for chain in chains]
        return rank_rows(rows, self.basis.field) if columns else 0


def _chain_cells(generators: Sequence[Generator], tips: FrozenSet[Word], n: int,
                 cap: int) -> Dict[int, List[Cell]]:
    """The Anick (n-1)-chains of degree <= cap by degree, each as the cell
    of its pieces (see _chain_extensions)."""
    deg = {g.label: g.deg for g in generators}
    cells = [(((g.label,),), g.deg) for g in generators if g.deg <= cap]
    extensions: Dict[Word, List[Tuple[Word, int]]] = {}
    for _ in range(n - 1):
        longer = []
        for cell, d in cells:
            tail = cell[-1]
            if tail not in extensions:
                extensions[tail] = _chain_extensions(tips, tail, deg)
            longer.extend((cell + (t,), d + dt) for t, dt in extensions[tail] if d + dt <= cap)
        cells = longer
    out: Dict[int, List[Cell]] = {}
    for cell, d in cells:
        out.setdefault(d, []).append(cell)
    return out


def _morse_tor(pres: TensorPresentation, q: int) -> PoincarePolynomial:
    """Tor_q for q >= 1 from the Groebner basis of I (see _GroebnerBasis):
    with C_n(d) the Anick (n-1)-chains of degree d on the generators that
    are not tips and the tips of length >= 2, and the Morse differential
    (see _MorseComplex),
        Tor_q(d) = |C_q(d)| - rank d_q(d) - rank d_(q+1)(d),
    where d_1 = 0. A basis of words only, as on monomial input, has every
    normal form of a product inside a chain 0, so then the differential
    vanishes and Tor_q is the chain count, with no elimination past the
    interreduction of the relation words (Anick, Trans. AMS 296 (1986);
    Green-Happel-Zacharia, Illinois J. Math. 29 (1985)).

    maxdeg(A) is certified by the zero window of the normal words (which
    completes the basis); Tor_1 needs the basis up to the generator degrees
    only, to tell which generators are tips."""
    basis = _GroebnerBasis(pres)
    d_need = _tor_degree_cap(pres, q, lambda: _window_maxdeg(pres, basis.dim))
    if q == 1:
        basis.upto(d_need)
    tips = frozenset(tip for tip in basis.tails if len(tip) > 1)
    gens = [g for g in pres.generators if (g.label,) not in basis.tails]
    if not any(basis.tails.values()):
        return PoincarePolynomial.make(_chain_counts(gens, tips, q))
    morse = _MorseComplex(basis, tips)
    here = _chain_cells(gens, tips, q, d_need)
    above = _chain_cells(gens, tips, q + 1, d_need)
    dims: Dict[int, int] = {}
    for d, chains in here.items():
        dims[d] = (len(chains) - (morse.rank(chains) if q > 1 else 0)
                   - morse.rank(above.get(d, ())))
    return PoincarePolynomial.make({d: n for d, n in dims.items() if n})
