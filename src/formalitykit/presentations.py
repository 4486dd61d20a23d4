"""Truncated tensor algebras over a split separable base, and Tor over
them from a Groebner basis.

A presentation is a quiver-like datum: m base idempotents, degree
labeled generators with source and target, homogeneous relations, and a
truncation bound D. All arithmetic is exact and degreewise, and the tool
refuses (rather than silently truncates) whenever an answer could
receive contributions above D. D is only that bound: Tor reads T(V)/I
one degree at a time, no further than the zero window that certifies
maxdeg(A) and the top degree of Tor_q, so a larger D gives the same
answer for the same work.

tor_term has one route, which the groebner module implements. A
degree-by-degree Buchberger step computes the reduced Groebner basis of
the ideal I of the relations, in a term order where a shorter word of a
degree is larger, so that a generator the relations express by others
(t_i in a_ji a_ij = t_i) is a one-letter tip and drops out. The words
that contain no tip, counted by degree, give dim T(V)/I for the zero
window without materializing T(V). Algebraic
discrete Morse theory reduces the normalized bar complex to the Anick
chains on the tips (Anick, Trans. AMS 296 (1986); Skoeldberg, Trans. AMS
358 (2006); Joellenbeck-Welker, Mem. AMS 197 (2009)): the 0-chains are
the generators, and an n-chain is an (n-1)-chain with tail s followed by
a path t such that s t contains exactly one tip, which starts inside s
and ends at the end of t. Tor_q is the homology of the chains under the
Morse differential, whose scalars come from normal forms. A monomial
presentation (every relation, after summing equal words, one word of
length >= 2) has its minimal words as its Groebner basis, with no
tails, so no S-polynomial is formed and the differential is 0: there
Tor_q is the chain count (Green-Happel-Zacharia, Illinois J. Math. 29
(1985)).

The ideal engine below (HomogeneousIdeal, the closure of the relations,
ideal_from_relations, ideal_product and ideal_meet) is not on tor_term's
route. It stays because the benchmark's tracer (perfbench/spans.py) binds
those three functions by name and refuses to run when one is missing,
and the tests build their Butler-King reference for Tor (Butler-King, J.
Algebra 212 (1999); tests/butler_king.py) on it.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .configurations import (ConfigGraph, PoincarePolynomial, _arrow_label, _check_configuration,
                             _loop_label)
from .errors import InputValidationError
from .fields import FieldSpec, RATIONALS_SPEC
from .groebner import Word, _morse_tor
from .linalg import SparseRow, row_space_basis, rref_extend, subspace_meet
from .record import Record
BlockKey = Tuple[int, int, int]  # (degree, src, tgt)
Blocks = Dict[BlockKey, List[SparseRow]]


class Generator(Record):
    label: str
    src: int  # 1 based vertex index
    tgt: int
    deg: int


class TensorPresentation(Record):
    """T(V)/I data: generators on a quiver, relations, truncation bound.

    Words are tuples of generator labels in composition order: (x, y)
    stands for x after y, so src(x) must equal tgt(y). Relations are
    linear combinations of composable words, homogeneous in degree and
    block pure, with degree at least twice the minimal generator degree.
    Vertex indices, degrees and the truncation must be ints, generator
    labels strings and relation words lists or tuples of labels (stored as
    tuples), and every relation coefficient is mapped into the field on the
    way in (see the fields' scalar), as GradedAlgebra does.
    """

    num_vertices: int
    generators: Tuple[Generator, ...]
    relations: Tuple[Tuple[Tuple[Word, object], ...], ...]
    truncation: int
    field_spec: FieldSpec

    def __init__(self, num_vertices, generators, relations, truncation, field_spec=RATIONALS_SPEC):
        ints = [("vertices", num_vertices), ("truncation", truncation)]
        for g in generators:
            if type(g.label) is not str:
                raise InputValidationError(f"generator label must be a string, got {g.label!r}")
            ints += [(f"generator {g.label} {key}", getattr(g, key)) for key in ("src", "tgt", "deg")]
        for name, value in ints:
            if type(value) is not int:
                raise InputValidationError(f"{name} must be an integer, got {value!r}")
        scalar = field_spec.field().scalar
        relations = tuple(tuple((_label_word(word), scalar(c)) for word, c in rel)
                          for rel in relations)
        vars(self).update(num_vertices=num_vertices, generators=generators, relations=relations,
                          truncation=truncation, field_spec=field_spec)
        if self.num_vertices < 1:
            raise InputValidationError("need at least one vertex")
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise InputValidationError("duplicate generator labels")
        for g in self.generators:
            if g.deg < 1:
                raise InputValidationError(f"generator {g.label} must have positive degree")
            if not (1 <= g.src <= self.num_vertices and 1 <= g.tgt <= self.num_vertices):
                raise InputValidationError(f"generator {g.label} has out of range vertices")
        if self.truncation < 0:
            raise InputValidationError("truncation must be >= 0")
        gen = {g.label: g for g in self.generators}
        min_deg = min((g.deg for g in self.generators), default=1)
        for rel in self.relations:
            if not rel:
                raise InputValidationError("empty relation")
            sigs = set()
            for word, _ in rel:
                if not word:
                    raise InputValidationError("relations may not contain the empty word")
                for lab in word:
                    if lab not in gen:
                        raise InputValidationError(f"relation uses unknown generator {lab}")
                for a, b in zip(word, word[1:]):
                    if gen[a].src != gen[b].tgt:
                        raise InputValidationError(f"relation word {word} is not composable")
                deg = sum(gen[lab].deg for lab in word)
                sigs.add((deg, gen[word[-1]].src, gen[word[0]].tgt))
            if len(sigs) != 1:
                raise InputValidationError(
                    "relation terms must share degree and (source, target) block"
                )
            deg = next(iter(sigs))[0]
            if deg < 2 * min_deg:
                raise InputValidationError(
                    f"relation of degree {deg} below twice the minimal generator degree"
                )
            if deg > self.truncation:
                raise InputValidationError(
                    f"relation of degree {deg} exceeds the truncation {self.truncation}"
                )


def _label_word(word) -> Word:
    """A relation word as a tuple of labels; a string is refused rather
    than read as its letters."""
    if not isinstance(word, (list, tuple)) or any(type(lab) is not str for lab in word):
        raise InputValidationError(f"a relation word must be a list of labels, got {word!r}")
    return tuple(word)


class _WordContext:
    """Cached composable word bases per degree and block, and the word
    index maps of multiplication by a generator.

    words(d) lists the words of degree d lexicographically, letters compared
    by their position in pres.generators: the first letter runs over the
    generators in order, and the rest over words(d - |first|), which are
    listed the same way."""

    def __init__(self, pres: TensorPresentation):
        self.pres = pres
        self.gen = {g.label: g for g in pres.generators}
        self._by_degree: Dict[int, List[Word]] = {}
        self._block_words: Dict[Tuple[int, int, int], List[Word]] = {}
        self._block_index: Dict[Tuple[int, int, int], Dict[Word, int]] = {}
        self._shifts: Dict[Tuple[BlockKey, str, bool], Optional[Tuple[BlockKey, List[int]]]] = {}

    def words(self, d: int) -> List[Word]:
        if d < 0:
            raise InputValidationError("negative degree")
        if d == 0:
            return []
        if d not in self._by_degree:
            out: List[Word] = []
            for g in self.pres.generators:
                if g.deg == d:
                    out.append((g.label,))
                elif g.deg < d:
                    for w in self.words(d - g.deg):
                        if self.gen[w[0]].tgt == g.src:
                            out.append((g.label,) + w)
            self._by_degree[d] = out
        return self._by_degree[d]

    def block(self, d: int, src: int, tgt: int) -> List[Word]:
        key = (d, src, tgt)
        if key not in self._block_words:
            sel = [
                w
                for w in self.words(d)
                if self.gen[w[-1]].src == src and self.gen[w[0]].tgt == tgt
            ]
            self._block_words[key] = sel
            self._block_index[key] = {w: i for i, w in enumerate(sel)}
        return self._block_words[key]

    def block_index(self, d: int, src: int, tgt: int) -> Dict[Word, int]:
        self.block(d, src, tgt)
        return self._block_index[(d, src, tgt)]

    def shift_map(self, key: BlockKey, g: Generator, left: bool):
        """(target key, the target index of each word of block key) for w
        -> g w (left) or w g (right), or None when g does not compose."""
        memo = (key, g.label, left)
        if memo not in self._shifts:
            d, src, tgt = key
            if (g.src != tgt) if left else (g.tgt != src):
                self._shifts[memo] = None
            else:
                new = (d + g.deg, src, g.tgt) if left else (d + g.deg, g.src, tgt)
                idx = self.block_index(*new)
                lab = (g.label,)
                words = self.block(d, src, tgt)
                pos = [idx[lab + w] for w in words] if left else [idx[w + lab] for w in words]
                self._shifts[memo] = (new, pos)
        return self._shifts[memo]


@functools.lru_cache(maxsize=64)
def _context(pres: TensorPresentation) -> _WordContext:
    return _WordContext(pres)


class HomogeneousIdeal(Record):
    """Degreewise, blockwise exact subspaces of the truncated word spaces.

    Each block holds its subspace as sparse rows over the block's word
    basis, dicts from word index to non-zero scalar, in canonical reduced
    row echelon form sorted by pivot column; blocks are sorted by key.
    Instances are immutable: no operation mutates a row, and all return
    new ideals.
    """

    pres: TensorPresentation
    blocks: Tuple[Tuple[BlockKey, Tuple[SparseRow, ...]], ...]

    @classmethod
    def from_block_dict(cls, pres, block_dict: Mapping[BlockKey, Sequence[SparseRow]]):
        """The blockwise span of the given dict rows."""
        f = pres.field_spec.field()
        return _ideal(pres, {key: row_space_basis(list(rows), f) for key, rows in block_dict.items()})

    def block_dict(self) -> Dict[BlockKey, Tuple[SparseRow, ...]]:
        return dict(self.blocks)


def _ideal(pres: TensorPresentation, reduced: Mapping[BlockKey, Sequence[SparseRow]]):
    """Ideal from blocks already in canonical RREF; empty blocks are dropped."""
    return HomogeneousIdeal(
        pres, tuple((key, tuple(rows)) for key, rows in sorted(reduced.items()) if rows)
    )


def _shift(ctx: _WordContext, key: BlockKey, rows, g: Generator, left: bool):
    """The rows of block key times the generator g, as g w (left) or w g
    (right): (target key, rows), or None when g does not compose. Word
    index maps to word index, so the scalars stay as they are.

    Shifts keep canonical RREF. Let the rows be a canonical RREF block.
    (1) The words of a block share one degree, and generators have positive
    degree, so no word of the block is a proper prefix of another. Two
    words u < v therefore first differ at a position inside both, and g u,
    g v first differ one position later, u g, v g at the same position,
    with the same letters: w -> g w and w -> w g are order preserving
    injections of the block's word indices (words are listed in
    lexicographic order, see _WordContext). (2) So each shifted row keeps
    its scalars, its leading entry 1 moves to the image of its pivot, and
    it is 0 at the images of the other pivots: the shifted rows, in their
    order, are a canonical RREF. (3) Shifts by distinct generators g, g' on
    one side land on disjoint columns of the target block, words with
    first (left) or last (right) letter g versus g', and on one side g
    fixes the source block of a target block. So the union of one side's
    shifts into a target block, sorted by pivot, is a canonical RREF: each
    row is 1 at its pivot and 0 at every other pivot, its own generator's
    by (2) and the others' by disjointness. Its span is the sum of the
    shifted spans, and no elimination is needed."""
    shift = ctx.shift_map(key, g, left)
    if shift is None:
        return None
    new, pos = shift
    return new, [{pos[c]: x for c, x in row.items()} for row in rows]


def _by_pivot(rows) -> List[SparseRow]:
    """Rows with distinct pivots (least columns), sorted by pivot."""
    return sorted(rows, key=min)


class _Closure:
    """The span of seed rows closed under multiplication by generators on
    the given sides (True for left), as reduced blocks, built one degree at
    a time and only as far as a caller reads: upto(cap) gives the blocks up
    to degree cap.

    Degree d is block_d = seeds_d + sum_g shifts of the blocks of degree
    d - |g|: a word u s w peels one generator at a time. The shifts on the
    first side are a canonical RREF once sorted by pivot (see _shift); only
    the seeds and the other side's shifts are merged into it by
    elimination."""

    def __init__(self, pres: TensorPresentation, seeds: Blocks, sides):
        self.pres = pres
        self.seeds = seeds
        self.sides = sides
        self.blocks: Blocks = {}
        self.by_degree: Dict[int, List[BlockKey]] = {}
        self.reached = 0

    def upto(self, cap: int) -> Blocks:
        ctx = _context(self.pres)
        f = self.pres.field_spec.field()
        for d in range(self.reached + 1, cap + 1):
            ready: Blocks = {}
            fresh = {key: list(rows) for key, rows in self.seeds.items() if key[0] == d}
            for g in self.pres.generators:
                for key in self.by_degree.get(d - g.deg, ()):
                    for left in self.sides:
                        shifted = _shift(ctx, key, self.blocks[key], g, left)
                        if shifted:
                            dest = ready if left == self.sides[0] else fresh
                            dest.setdefault(shifted[0], []).extend(shifted[1])
            for key in ready.keys() | fresh.keys():
                basis = rref_extend(_by_pivot(ready.get(key, ())), fresh.get(key, ()), f)
                if basis:
                    self.blocks[key] = basis
                    self.by_degree.setdefault(d, []).append(key)
            self.reached = d
        return {key: rows for key, rows in self.blocks.items() if key[0] <= cap}


def _products(pres: TensorPresentation, blocks_a, blocks_b, cap: int) -> Blocks:
    """Pairwise products x y of the rows of two sequences of (key, rows),
    by target block, up to degree cap. A word splits at a given degree in
    one way only (generators have positive degree), so each pair of words
    gives its own word and no two terms of one product share a column. The
    scalars are plain products, unreduced over F_p, for `linalg` to
    normalize."""
    ctx = _context(pres)
    out: Blocks = {}
    for (da, sa, ta), rows_a in blocks_a:
        for (db, sb, tb), rows_b in blocks_b:
            # x in block (sa -> ta), y in block (sb -> tb); x y needs sa == tb
            if da + db > cap or sa != tb:
                continue
            key = (da + db, sb, ta)
            words_a = ctx.block(da, sa, ta)
            words_b = ctx.block(db, sb, tb)
            idx = ctx.block_index(*key)
            dest = out.setdefault(key, [])
            for ra in rows_a:
                terms = [(words_a[i], x) for i, x in ra.items()]
                for rb in rows_b:
                    dest.append({idx[wa + words_b[j]]: x * y
                                 for wa, x in terms for j, y in rb.items()})
    return out


def _relation_vectors(pres: TensorPresentation, ctx: _WordContext) -> Blocks:
    """Each relation as a row over its block's word basis, equal words
    summed with plain +: a row may hold explicit zeros and, over F_p,
    unreduced ints, which `linalg` drops and reduces."""
    gen = ctx.gen
    out: Blocks = {}
    for rel in pres.relations:
        word0 = rel[0][0]
        key = (sum(gen[lab].deg for lab in word0), gen[word0[-1]].src, gen[word0[0]].tgt)
        idx = ctx.block_index(*key)
        row: SparseRow = {}
        for word, coeff in rel:
            row[idx[word]] = row.get(idx[word], 0) + coeff
        out.setdefault(key, []).append(row)
    return out


def _relation_closure(pres: TensorPresentation) -> _Closure:
    """The two sided ideal I generated by the relations, as a _Closure:
    I_d = rel_d + sum_g (g I_(d-|g|) + I_(d-|g|) g), which peels one
    generator at a time off any word u r w."""
    return _Closure(pres, _relation_vectors(pres, _context(pres)), (True, False))


def ideal_from_relations(pres: TensorPresentation) -> HomogeneousIdeal:
    """Two sided ideal generated by the relations, closed degree by degree
    up to the truncation (see _relation_closure). No command calls it: it
    stays for the benchmark's tracer, which binds it by name, and for the
    tests' Butler-King reference."""
    return _ideal(pres, _relation_closure(pres).upto(pres.truncation))


def _check_same_pres(I1: HomogeneousIdeal, I2: HomogeneousIdeal) -> None:
    if I1.pres is not I2.pres and I1.pres != I2.pres:
        raise InputValidationError("ideal operands come from different presentations")


def ideal_meet(I1: HomogeneousIdeal, I2: HomogeneousIdeal) -> HomogeneousIdeal:
    """Blockwise intersection. No command calls it: it stays for the
    benchmark's tracer, which binds it by name, and for the tests'
    Butler-King reference."""
    _check_same_pres(I1, I2)
    f = I1.pres.field_spec.field()
    d1 = I1.block_dict()
    d2 = I2.block_dict()
    return _ideal(I1.pres, {key: subspace_meet(d1[key], d2[key], f) for key in set(d1) & set(d2)})


def ideal_product(
    I1: HomogeneousIdeal, I2: HomogeneousIdeal, up_to: Optional[int] = None
) -> HomogeneousIdeal:
    """Degreewise span of pairwise products, truncated at up_to. No command
    calls it: it stays for the benchmark's tracer, which binds it by name,
    and for the tests' Butler-King reference."""
    _check_same_pres(I1, I2)
    pres = I1.pres
    cap = pres.truncation if up_to is None else min(up_to, pres.truncation)
    return HomogeneousIdeal.from_block_dict(pres, _products(pres, I1.blocks, I2.blocks, cap))


# -- Tor terms -------------------------------------------------------------


def tor_term(pres: TensorPresentation, q: int) -> PoincarePolynomial:
    """Graded dimensions of Tor_q over the presented algebra, with the
    internal grading induced by the tensor algebra.

    q = 0 gives the base. For q >= 1, Tor_q is the homology in degree q of
    the Anick chains on the tips of the reduced Groebner basis of I under
    the Morse differential (see groebner._morse_tor): Tor_q(d) = |C_q(d)|
    - rank d_q(d) - rank d_(q+1)(d), C_q(d) the (q-1)-chains of degree d. On a
    monomial presentation (every relation, after summing equal words, has
    exactly one non-zero term, a word of length >= 2) the relations'
    minimal words are the basis, with no tails, so no S-polynomial is
    formed, the differential is 0 and Tor_q is the chain count.

    Tor_1 lives in generator degrees; Tor_q for q >= 2 lives in degrees up
    to q maxdeg(A), which is certified by a zero window of the normal
    words. Tor_q is refused when that degree exceeds the truncation, and
    when no window is found within it.
    """
    if q < 0:
        raise InputValidationError("q must be >= 0")
    if q == 0:
        return PoincarePolynomial.make({0: pres.num_vertices})
    return _morse_tor(pres, q)


# -- convenience constructors ----------------------------------------------


def single_generator_presentation(
    n: int, k: int, truncation: int, field_spec: FieldSpec = RATIONALS_SPEC
) -> TensorPresentation:
    """k<t>/(t^(n+1)) with deg t = k, truncated."""
    rel = (((("t",) * (n + 1)), 1),)
    return TensorPresentation(
        1, (Generator("t", 1, 1, k),), (rel,), truncation, field_spec
    )


def configuration_presentation(
    graph: ConfigGraph,
    n: int,
    k: int,
    h: int,
    preset: str,
    truncation: int,
    field_spec: FieldSpec = RATIONALS_SPEC,
) -> TensorPresentation:
    """Tensor presentation of the algebra build_configuration_algebra
    tabulates: loop generators t_i of degree k, arrows a_ij of degree h,
    relations t_i^(n+1), arrow times loop words, and the arrow compositions
    of the preset, "orthogonal" or "zigzag".

    It reads the quiver and labels the table builder reads, and refuses
    the parameters it refuses (see configurations._check_configuration)."""
    if preset not in ("orthogonal", "zigzag"):
        raise InputValidationError(f"unknown preset {preset!r}")
    m, arrows = _check_configuration(graph, n, k, h, preset)
    t = _loop_label

    def a(i, j):
        return _arrow_label(m, i, j)

    gens = [Generator(t(i), i, i, k) for i in range(1, m + 1)]
    gens += [Generator(a(i, j), i, j, h) for i, j in arrows]

    rels: List[Tuple[Tuple[Word, object], ...]] = []
    for i in range(1, m + 1):
        rels.append((((t(i),) * (n + 1), 1),))
    for (i, j) in arrows:
        # a_ij t_i and t_j a_ij vanish (arrow times loop convention)
        rels.append((((a(i, j), t(i)), 1),))
        rels.append((((t(j), a(i, j)), 1),))
    for (i, j) in arrows:
        for (j2, l) in arrows:
            if j2 != j:
                continue
            word = (a(j, l), a(i, j))  # composite P_i -> P_j -> P_l
            if preset == "zigzag" and l == i:
                rels.append(((word, 1), ((t(i),) * n, -1)))
            else:
                rels.append(((word, 1),))
    return TensorPresentation(m, tuple(gens), tuple(rels), truncation, field_spec)


# -- JSON -------------------------------------------------------------------


def presentation_to_json_dict(pres: TensorPresentation) -> dict:
    f = pres.field_spec.field()
    return {
        "field": pres.field_spec.tag(),
        "vertices": pres.num_vertices,
        "generators": [
            {"label": g.label, "src": g.src, "tgt": g.tgt, "deg": g.deg}
            for g in pres.generators
        ],
        "relations": [
            [{"word": list(word), "coeff": f.to_str(c)} for word, c in rel]
            for rel in pres.relations
        ],
        "truncation": pres.truncation,
    }


def presentation_from_json_dict(data: dict) -> TensorPresentation:
    if not isinstance(data, dict):
        raise InputValidationError("presentation JSON must be an object")
    for key in ("vertices", "generators", "relations", "truncation"):
        if key not in data:
            raise InputValidationError(f"presentation JSON missing key {key!r}")
    field_spec = FieldSpec.parse(data.get("field", "rationals"))
    f = field_spec.field()
    try:
        gens = tuple(
            Generator(g["label"], g["src"], g["tgt"], g["deg"]) for g in data["generators"]
        )
        rels = tuple(
            tuple((term["word"], f.parse(str(term["coeff"]))) for term in rel)
            for rel in data["relations"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputValidationError(f"bad presentation JSON: {exc}") from None
    return TensorPresentation(data["vertices"], gens, rels, data["truncation"], field_spec)
