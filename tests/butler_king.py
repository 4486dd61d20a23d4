"""The Butler-King description of Tor by ideal arithmetic (Butler-King,
J. Algebra 212 (1999)), the tests' reference for `presentations.tor_term`:

    Tor_(2p)   = (I^p meet J I^(p-1) J) / (J I^p + I^p J)
    Tor_(2p+1) = (J I^p meet I^p J) / (I^(p+1) + J I^p J),

with I the ideal of the relations and J = T(V)+. It is built on the ideal
engine of `presentations` (the closure of the relations, products and
meets of HomogeneousIdeal blocks) and reads that module's names through
the module, so that a test which replaces one of them there reaches this
route too. tor_term reaches none of it.
"""

from typing import Dict, Optional

from formalitykit import presentations as P
from formalitykit.configurations import PoincarePolynomial
from formalitykit.errors import InputValidationError, TruncationError
from formalitykit.groebner import _tor_degree_cap, _window_maxdeg
from formalitykit.linalg import rref_extend
from formalitykit.presentations import HomogeneousIdeal, TensorPresentation


def word_basis(pres: TensorPresentation, d: int):
    """Composable generator words of total degree d; degree 0 gives the
    base idempotent labels."""
    if d < 0:
        raise InputValidationError("degree must be >= 0")
    if d > pres.truncation:
        raise TruncationError(f"degree {d} exceeds the truncation {pres.truncation}")
    if d == 0:
        return [f"e{i}" for i in range(1, pres.num_vertices + 1)]
    return list(P._context(pres).words(d))


def dims_by_degree(I: HomogeneousIdeal) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for (d, _, _), vecs in I.blocks:
        out[d] = out.get(d, 0) + len(vecs)
    return out


def is_zero(I: HomogeneousIdeal) -> bool:
    return not I.blocks


def closure_dim(closure, d: int) -> int:
    """The dimension of T(V) modulo a presentations._Closure in degree d,
    which for the relations' two sided closure is that of T(V)/I."""
    if d == 0:
        return closure.pres.num_vertices
    closure.upto(d)
    closed = sum(len(closure.blocks[key]) for key in closure.by_degree.get(d, ()))
    return len(P._context(closure.pres).words(d)) - closed


def contains(basis, rows, f) -> bool:
    """Whether the span of a canonical RREF block contains the rows: it
    does iff extending the block by them adds no row."""
    return len(rref_extend(basis, rows, f)) == len(basis)


def augmentation_ideal(pres: TensorPresentation, up_to: Optional[int] = None) -> HomogeneousIdeal:
    """J = T(V)+: the full word space in every positive degree."""
    ctx = P._context(pres)
    cap = pres.truncation if up_to is None else min(up_to, pres.truncation)
    blocks = {}
    vertices = range(1, pres.num_vertices + 1)
    for d in range(1, cap + 1):
        for src in vertices:
            for tgt in vertices:
                blocks[(d, src, tgt)] = [{i: 1} for i in range(len(ctx.block(d, src, tgt)))]
    return P._ideal(pres, blocks)


def ideal_sum(I1: HomogeneousIdeal, I2: HomogeneousIdeal) -> HomogeneousIdeal:
    """Blockwise sum; I2's rows are merged into I1's canonical blocks."""
    P._check_same_pres(I1, I2)
    f = I1.pres.field_spec.field()
    merged = I1.block_dict()
    for key, rows in I2.blocks:
        merged[key] = rref_extend(merged[key], rows, f) if key in merged else rows
    return P._ideal(I1.pres, merged)


def is_closed_under_generators(pres: TensorPresentation, I: HomogeneousIdeal) -> bool:
    """Two sided closure check within the truncation."""
    ctx = P._context(pres)
    f = pres.field_spec.field()
    blocks = I.block_dict()
    for key, rows in I.blocks:
        for g in pres.generators:
            if key[0] + g.deg > pres.truncation:
                continue
            for left in (True, False):
                shifted = P._shift(ctx, key, rows, g, left)
                if shifted is None:
                    continue
                if not contains(blocks.get(shifted[0], ()), shifted[1], f):
                    return False
    return True


def quotient_dims(pres, num: HomogeneousIdeal, den: HomogeneousIdeal, d_cap: int) -> Dict[int, int]:
    """dim(num/den) by degree up to d_cap. Both sides are in RREF: each
    denominator block is checked to lie inside the numerator's block, and
    then a block's quotient has dimension len(num) - len(den)."""
    f = pres.field_spec.field()
    nblocks = num.block_dict()
    dblocks = den.block_dict()
    for key, vecs in den.blocks:
        if key[0] <= d_cap and not contains(nblocks.get(key, ()), vecs, f):
            raise InputValidationError("denominator is not inside the numerator")
    out: Dict[int, int] = {}
    for key, vecs in num.blocks:
        diff = len(vecs) - len(dblocks.get(key, ()))
        if key[0] <= d_cap and diff:
            out[key[0]] = out.get(key[0], 0) + diff
    return out


def times_generators(X: HomogeneousIdeal, cap: int, left: bool) -> HomogeneousIdeal:
    """V X (left) or X V (right), truncated at cap.

    For a left ideal X, J X = V X: a word of positive length is g w with w
    a word or an idempotent, so (g w) x = g (w x) with w x in X. Mirrored,
    X J = X V for a right ideal X. The shifts of X's blocks are already
    canonical once sorted by pivot (see presentations._shift), so nothing
    is eliminated."""
    ctx = P._context(X.pres)
    out = {}
    for key, rows in X.blocks:
        for g in X.pres.generators:
            if key[0] + g.deg <= cap:
                shifted = P._shift(ctx, key, rows, g, left)
                if shifted:
                    out.setdefault(shifted[0], []).extend(shifted[1])
    return P._ideal(X.pres, {key: P._by_pivot(rows) for key, rows in out.items()})


def next_power(power: HomogeneousIdeal, relations, cap: int) -> HomogeneousIdeal:
    """I^(p+1) = X I from the power X = I^p, truncated at cap, as the
    closure of X R (R the relation vectors) under right multiplication by
    generators.

    I = T R T, and X T = X because X is a right ideal, so X I = X R T."""
    pres = power.pres
    seeds = P._products(pres, power.blocks, relations.items(), cap)
    return P._ideal(pres, P._Closure(pres, seeds, (False,)).upto(cap))


def butler_king_tor(pres: TensorPresentation, q: int) -> PoincarePolynomial:
    """Tor_q for q >= 1 from the Butler-King quotients above, with
    I^0 J = J I^0 = J, so that Tor_1 = J / (I + J J). For p >= 1 every
    product with J is a product with the generator span V: I^p and
    J I^(p-1) are two sided ideals, so J I^p = V I^p, I^p J = I^p V and
    J I^(p-1) J = (J I^(p-1)) V (see times_generators).

    I is read one degree at a time (see presentations._Closure), as far as
    the zero window that certifies maxdeg(A) and up to d_need, where every
    product is cut; an input with no zero window is read up to the
    truncation and refused, with the refusals of tor_term."""
    closure = P._relation_closure(pres)

    def maxdeg():
        return _window_maxdeg(pres, lambda d: closure_dim(closure, d))

    d_need = _tor_degree_cap(pres, q, maxdeg)

    p = q // 2
    powers = {1: P._ideal(pres, closure.upto(d_need))}
    for j in range(2, p + q % 2 + 1):
        powers[j] = next_power(powers[j - 1], closure.seeds, d_need)

    def times_j(e, left):
        """J I^e (left) or I^e J, truncated at d_need."""
        if e == 0:
            return augmentation_ideal(pres, up_to=d_need)
        return times_generators(powers[e], d_need, left)

    if q % 2 == 0:
        mid = times_generators(times_j(p - 1, True), d_need, left=False)
        num = P.ideal_meet(powers[p], mid)
        den = ideal_sum(times_j(p, True), times_j(p, False))
    else:
        ji = times_j(p, True)
        num = P.ideal_meet(ji, times_j(p, False))
        den = ideal_sum(powers[p + 1], times_generators(ji, d_need, left=False))
    return PoincarePolynomial.make(quotient_dims(pres, num, den, d_need))
