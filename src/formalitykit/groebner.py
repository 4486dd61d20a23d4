"""Noncommutative Groebner bases of presentations, and Tor from them.

The reduced Groebner basis of the ideal I of a presentation's relations
is built one degree at a time (`_GroebnerBasis`); the words that contain
no tip, counted by degree, give dim T(V)/I and the zero window that
certifies maxdeg(A); and Tor_q is the homology of the Anick chains on the
tips under the Morse differential (`_morse_tor`). One index of the tips
(`_TipIndex`) owns all that the tips decide: it keeps each tip with its
tail, answers every search for a tip in a word (rewriting, counting
normal words, matching cells, extending chains), and keeps the
normal-word counts and the edges of the graph of chain tails until a new
tip arrives. On a monomial presentation the basis is the relations'
minimal words, with no tails: no S-polynomial is formed, the
differential is 0, and Tor_q is a chain count. `presentations.tor_term`
is the entry point.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

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


class _TipIndex:
    """All that the tips of a reduced Groebner basis decide, in one owner,
    which `_GroebnerBasis` fills one degree at a time: the tips with their
    tails; a trie of their reversed letters, with an int (the tip length)
    at each leaf, and the set of their proper prefixes, the empty word
    included, which every search for a tip in a word asks; the automaton
    moves on those prefixes; the normal words counted by state; and the
    chain extensions of each tail. No tip contains another, so no tip is a
    suffix of another: at most one tip ends at any place of a word, the
    walk back through the trie from that place reaches at most one leaf,
    and the leftmost tip of a word is the one that ends first. A new tip
    changes the moves, the states and the extensions, so `add` drops them,
    and each is found again when next asked."""

    def __init__(self, generators: Sequence[Generator]):
        self.generators = generators
        self.gen = {g.label: g for g in generators}
        self.tails: Dict[Word, Dict[Word, object]] = {}  # tip -> its normal form
        self.trie: Dict[str, object] = {}
        self.prefixes = {()}
        self.steps: Dict[Tuple[Word, str], Optional[Word]] = {}
        self.counts: Dict[int, Dict[Tuple[str, Word], int]] = {}  # degree -> states
        self.chains: Dict[Word, List[Tuple[Word, int]]] = {}  # tail -> its extensions

    def add(self, tip: Word, tail: Dict[Word, object]) -> None:
        node = self.trie
        for lab in reversed(tip[1:]):
            node = node.setdefault(lab, {})
        node[tip[0]] = len(tip)
        self.prefixes.update(tip[:i] for i in range(len(tip)))
        self.tails[tip] = tail
        for cache in (self.steps, self.counts, self.chains):
            cache.clear()

    def deg(self, word: Word) -> int:
        return sum(self.gen[lab].deg for lab in word)

    def first(self, word: Word, after: int = 0) -> Optional[Tuple[int, int]]:
        """(start, end) of the first tip of word that ends past word[:after],
        or None: the walk back from each end in turn."""
        for end in range(after + 1, len(word) + 1):
            start = end - 1
            node = self.trie.get(word[start])
            while node.__class__ is dict and start:
                start -= 1
                node = node.get(word[start])
            if node.__class__ is int:
                return start, end
        return None

    def step(self, state: Word, lab: str) -> Optional[Word]:
        """For state the longest suffix of a normal word w that is a proper
        tip prefix, that of w lab, or None when a tip ends there: an
        automaton on the tips (Aho-Corasick, CACM 18 (1975))."""
        if (state, lab) not in self.steps:
            word = state + (lab,)
            self.steps[state, lab] = None if self.first(word, len(word) - 1) else next(
                word[i:] for i in range(len(word) + 1) if word[i:] in self.prefixes)
        return self.steps[state, lab]

    def states(self, d: int) -> Dict[Tuple[str, Word], int]:
        """The composable words of degree d that contain no tip, counted by
        state: a basis of T(V)/I in degree d once the tips are those of a
        Groebner basis of I. A word grows one letter at a time on the
        right, and whether w g is normal, for w normal, depends on the
        state of w only: its last letter, with which g must compose, and
        its longest suffix that is a proper tip prefix (see step). So
        degree d is counted from lower degrees, once, per state: at most
        (proper tip prefixes) x (generators) of them, however many words
        there are, even where T(V)/I is infinite dimensional (Ufnarovskij,
        Encycl. Math. Sci. 57 (1995)). A one-letter tip removes its
        generator."""
        for e in range(len(self.counts) + 1, d + 1):
            out: Dict[Tuple[str, Word], int] = {}
            for g in self.generators:
                # g alone follows the empty word, with no last letter to compose on
                words = {(None, ()): 1} if g.deg == e else self.counts.get(e - g.deg, {})
                for (last, state), count in words.items():
                    if last is None or self.gen[last].src == g.tgt:
                        after = self.step(state, g.label)
                        if after is not None:
                            out[g.label, after] = out.get((g.label, after), 0) + count
            self.counts[e] = out
        return self.counts[d]

    def extensions(self, tail: Word) -> List[Tuple[Word, int]]:
        """(t, degree of t) for each non-empty path t that extends a chain
        with this tail: tail t contains exactly one tip, which starts inside
        the tail and ends at the end of t. So t is what a tip has left after
        a prefix that is a suffix of the tail, and the tails with these
        edges form the graph the Anick chains walk.

        No tip contains another, and a tail (a generator, or a t) contains
        no tip, nor does t, a proper part of a tip. So the only other tips
        tail t could contain cross into t and end before its end, and tail
        t qualifies iff the first tip that ends past the tail ends at its
        end."""
        if tail not in self.chains:
            self.chains[tail] = [
                (tip[k:], self.deg(tip[k:])) for tip in self.tails
                for k in range(1, min(len(tail), len(tip) - 1) + 1)
                if tail[-k:] == tip[:k]
                and self.first(word := tail + tip[k:], len(tail))[1] == len(word)]
        return self.chains[tail]


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
    Each element goes into the tip index, which keeps the tips with their
    tails and finds the leftmost tip of a word for rewriting.

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
        self.position = {g.label: i for i, g in enumerate(pres.generators)}
        self.index = _TipIndex(pres.generators)
        self.deg, self.tails = self.index.deg, self.index.tails  # the index owns both
        self.pending: Dict[int, List[Dict[Word, object]]] = {}  # degree -> to reduce
        for rel in pres.relations:
            poly: Dict[Word, object] = {}
            for word, c in rel:
                poly[word] = poly.get(word, 0) + c
            self.pending.setdefault(self.deg(rel[0][0]), []).append(poly)
        self.reached = 0
        self._nf: Dict[Word, Dict[Word, object]] = {}

    def _key(self, word: Word):
        """Sorts a degree's words in descending term order."""
        return len(word), [self.position[lab] for lab in word]

    def upto(self, cap: int) -> None:
        gen = self.index.gen
        for d in range(self.reached + 1, cap + 1):
            blocks: Dict[Tuple[int, int], List[Dict[Word, object]]] = {}
            for poly in self.pending.pop(d, ()):
                reduced = self._reduce(poly)
                if reduced:
                    word = next(iter(reduced))
                    key = (gen[word[-1]].src, gen[word[0]].tgt)
                    blocks.setdefault(key, []).append(reduced)
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
            self.reached = d

    def _add(self, tip: Word, tail: Dict[Word, object]) -> None:
        """Record a basis element, and queue the S-polynomial of each overlap
        of its tip with a tip recorded so far (itself included) up to the
        truncation. Two words (tips with no tail) have only zero
        S-polynomials, so their pair is skipped; on monomial input nothing
        is queued."""
        self.index.add(tip, tail)
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
        """u nf(T) v for the leftmost tip occurrence u T v in word, the one
        that ends first, or None when word is normal."""
        found = self.index.first(word)
        if found is None:
            return None
        start, end = found
        return {word[:start] + s + word[end:]: c for s, c in self.tails[word[start:end]].items()}

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
        self.upto(d)
        return self.pres.num_vertices if d == 0 else sum(self.index.states(d).values())


def _chain_counts(generators: Sequence[Generator], index: _TipIndex, q: int) -> Dict[int, int]:
    """The number of Anick (q-1)-chains by degree on these generators and
    the tips in the index (a one-letter tip extends no chain, so only
    those of length >= 2 count). Whether a chain extends, and by which t (see
    _TipIndex.extensions), depends only on its tail, so chains are counted
    per (tail, degree), never listed."""
    chains: Dict[Tuple[Word, int], int] = {((g.label,), g.deg): 1 for g in generators}
    for _ in range(q - 1):
        longer: Dict[Tuple[Word, int], int] = {}
        for (tail, d), count in chains.items():
            for t, dt in index.extensions(tail):
                longer[t, d + dt] = longer.get((t, d + dt), 0) + count
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

    def __init__(self, basis: _GroebnerBasis):
        self.basis = basis
        p = basis.p
        self.norm = (lambda x: x % p) if p else (lambda x: x)
        self.flows: Dict[Cell, Dict[Cell, object]] = {}

    def _partner(self, cell: Cell):
        """None for a chain, () for a cell matched with one below it, and
        the cell above it for a cell matched with that."""
        if len(cell[0]) > 1:
            return (cell[0][:1], cell[0][1:]) + cell[1:]
        for j in range(1, len(cell)):
            # the first tip of w_(j-1) w_j, if any, ends i letters into w_j;
            # it starts inside w_(j-1), since both are normal
            found = self.basis.index.first(cell[j - 1] + cell[j], len(cell[j - 1]))
            if found is None:
                return ()
            i = found[1] - len(cell[j - 1])
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


def _chain_cells(index: _TipIndex, cells: List[Tuple[Cell, int]],
                 cap: int) -> List[Tuple[Cell, int]]:
    """The Anick chains one piece longer than these, each (cell of its
    pieces, degree), of degree <= cap: each cell extended by each extension
    of its tail (see _TipIndex.extensions), in order."""
    return [(cell + (t,), d + dt) for cell, d in cells
            for t, dt in index.extensions(cell[-1]) if d + dt <= cap]


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
    gens = [g for g in pres.generators if (g.label,) not in basis.tails]
    if not any(basis.tails.values()):
        return PoincarePolynomial.make(_chain_counts(gens, basis.index, q))
    morse = _MorseComplex(basis)
    cells = [(((g.label,),), g.deg) for g in gens if g.deg <= d_need]
    for _ in range(q - 1):
        cells = _chain_cells(basis.index, cells, d_need)
    here: Dict[int, List[Cell]] = {}
    above: Dict[int, List[Cell]] = {}
    # the (q+1)-chains are the q-chains extended by one edge
    for by_degree, level in ((here, cells), (above, _chain_cells(basis.index, cells, d_need))):
        for cell, d in level:
            by_degree.setdefault(d, []).append(cell)
    dims: Dict[int, int] = {}
    for d, chains in here.items():
        dims[d] = (len(chains) - (morse.rank(chains) if q > 1 else 0)
                   - morse.rank(above.get(d, ())))
    return PoincarePolynomial.make({d: n for d, n in dims.items() if n})
