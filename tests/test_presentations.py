import itertools
import json
from fractions import Fraction

import pytest

from formalitykit.cli import dispatch
from formalitykit.configurations import ConfigGraph
from formalitykit.errors import InputValidationError, TruncationError
from formalitykit.fields import RATIONALS, FieldSpec
from formalitykit.graded import mindeg
from formalitykit.hochschild import bar_chain_slice
from formalitykit.graded import build_configuration_algebra, truncated_poly
from formalitykit import linalg, presentations
from formalitykit.linalg import rank_rows, row_space_basis
from formalitykit.presentations import (
    _closure,
    _context,
    _next_power,
    _products,
    _quotient_dims,
    _relation_vectors,
    _times_generators,
    Generator,
    HomogeneousIdeal,
    TensorPresentation,
    algebra_dims,
    augmentation_ideal,
    certified_maxdeg,
    configuration_presentation,
    ideal_from_relations,
    ideal_meet,
    ideal_product,
    ideal_sum,
    is_closed_under_generators,
    mindeg_bound,
    presentation_from_json_dict,
    presentation_to_json_dict,
    single_generator_presentation,
    tor_term,
    word_basis,
)

ONE = Fraction(1)


def a2_pres(n=2, k=2, h=2, preset="orthogonal", truncation=12):
    g = ConfigGraph.make([1, 2], [(1, 2)])
    return configuration_presentation(g, n, k, h, preset, truncation)


# -- word bases ---------------------------------------------------------------


def test_word_basis_single_generator():
    pres = single_generator_presentation(2, 3, truncation=18)
    assert word_basis(pres, 9) == [("t", "t", "t")]
    assert word_basis(pres, 3) == [("t",)]
    assert word_basis(pres, 4) == []


def test_word_basis_degree_zero_is_base():
    pres = a2_pres()
    assert word_basis(pres, 0) == ["e1", "e2"]


def test_word_basis_a2_degree_four():
    # four degree 2 generators; exactly the 8 head-to-tail pairs compose
    pres = a2_pres()
    words = word_basis(pres, 4)
    assert len(words) == 8
    assert ("t1", "t1") in words and ("a12", "a21") in words and ("t2", "a12") in words
    assert ("t1", "t2") not in words


def test_word_basis_beyond_truncation_errors():
    pres = single_generator_presentation(1, 2, truncation=6)
    with pytest.raises(TruncationError):
        word_basis(pres, 8)


def test_relation_validation():
    with pytest.raises(InputValidationError):
        # non composable relation word: a12 after a12
        TensorPresentation(
            2,
            (Generator("a12", 1, 2, 2),),
            (((("a12", "a12"), ONE),),),
            8,
        )
    with pytest.raises(InputValidationError):
        # relation degree below twice the minimal generator degree
        TensorPresentation(
            1,
            (Generator("t", 1, 1, 2),),
            (((("t",), ONE),),),
            10,
        )


@pytest.mark.parametrize("make", [
    lambda: TensorPresentation(1, (Generator("t", 1, 1, 2.5),), (), 8),
    lambda: TensorPresentation(1, (Generator("t", "1", 1, 2),), (), 8),
    lambda: TensorPresentation(1, (Generator("t", 1, True, 2),), (), 8),
    lambda: TensorPresentation(1.0, (Generator("t", 1, 1, 2),), (), 8),
    lambda: TensorPresentation(1, (Generator("t", 1, 1, 2),), (), "8"),
], ids=["deg", "src", "tgt", "vertices", "truncation"])
def test_presentation_with_a_non_integer_is_refused(make):
    with pytest.raises(InputValidationError):
        make()


F7 = FieldSpec(kind="fp", p=7)


@pytest.mark.parametrize("coeff, field_spec", [
    (0.5, FieldSpec()), ("1", FieldSpec()), (True, FieldSpec()), (Fraction(1, 7), F7),
])
def test_relation_coefficient_without_a_field_value_is_refused(coeff, field_spec):
    rel = ((("t", "t", "t"), coeff),)
    with pytest.raises(InputValidationError):
        TensorPresentation(1, (Generator("t", 1, 1, 2),), (rel,), 12, field_spec)


def test_fraction_relation_coefficient_over_f7_matches_its_integer_twin():
    def pres(coeff):
        rel = ((("t", "t", "t"), coeff),)
        return TensorPresentation(1, (Generator("t", 1, 1, 2),), (rel,), 30, F7)

    half = pres(Fraction(9, 2))  # 9/2 = 9 * 4 = 1 in F_7
    assert half.relations == pres(1).relations
    for q in range(0, 5):
        assert tor_term(half, q).dims() == tor_term(pres(1), q).dims()


# -- ideal arithmetic ---------------------------------------------------------


def test_ideal_from_relations_closes_up_to_the_truncation():
    pres = single_generator_presentation(1, 2, truncation=8)
    assert ideal_from_relations(pres).dims_by_degree() == {4: 1, 6: 1, 8: 1}
    with pytest.raises(TypeError):
        ideal_from_relations(pres, 6)  # the degree cap is the truncation


def test_augmentation_square_single_generator():
    pres = single_generator_presentation(3, 2, truncation=10)
    J = augmentation_ideal(pres)
    JJ = ideal_product(J, J)
    assert JJ.dims_by_degree() == {4: 1, 6: 1, 8: 1, 10: 1}
    assert mindeg(JJ.dims_by_degree()) == 4


def test_monomial_ideal_square():
    n, k = 2, 1
    pres = single_generator_presentation(n, k, truncation=10)
    I = ideal_from_relations(pres)
    II = ideal_product(I, I)
    assert min(II.dims_by_degree()) == 2 * (n + 1)


def test_monomial_meet():
    # inside k<t> with deg t = 1: (t^3) meet (t^2) = (t^3)
    pres3 = TensorPresentation(1, (Generator("t", 1, 1, 1),), (((("t",) * 3, ONE),),), 8)
    pres2 = TensorPresentation(1, (Generator("t", 1, 1, 1),), (((("t",) * 2, ONE),),), 8)
    I3 = ideal_from_relations(pres3)
    I2 = ideal_from_relations(pres2)
    # rebase onto a shared presentation; word spaces depend only on the
    # generators and the truncation
    I2 = type(I2).from_block_dict(pres3, I2.block_dict())
    met = ideal_meet(I3, I2)
    assert met.dims_by_degree() == I3.dims_by_degree()


def test_ideal_is_two_sided_closed():
    pres = a2_pres()
    I = ideal_from_relations(pres)
    assert is_closed_under_generators(pres, I)
    J = augmentation_ideal(pres)
    assert is_closed_under_generators(pres, J)
    assert is_closed_under_generators(pres, ideal_meet(I, ideal_product(J, J)))


def test_bare_relation_span_is_not_closed_under_generators():
    pres = a2_pres()
    span = HomogeneousIdeal.from_block_dict(pres, _relation_vectors(pres, _context(pres)))
    assert not is_closed_under_generators(pres, span)


def test_quotient_dims_refuses_a_denominator_outside_the_numerator():
    pres = a2_pres()
    I, J = ideal_from_relations(pres), augmentation_ideal(pres)
    assert _quotient_dims(pres, J, I, 6) == {2: 4, 4: 2}  # the positive part of A
    with pytest.raises(InputValidationError):
        _quotient_dims(pres, I, J, 6)


def _random_monomial_presentation(rng):
    m = rng.choice([1, 2])
    if m == 1:
        gens = [Generator("x", 1, 1, 1), Generator("y", 1, 1, 2)]
    else:
        gens = [
            Generator("x", 1, 1, 1),
            Generator("a", 1, 2, 1),
            Generator("b", 2, 1, 1),
        ]
    D = 7
    pres0 = TensorPresentation(m, tuple(gens), ((((gens[0].label,) * 2, ONE),),), D)
    words = []
    for d in range(2, 5):
        words.extend(word_basis(pres0, d))
    rng.shuffle(words)
    chosen = tuple(words[: rng.randint(1, 3)])
    rels = tuple(((w, ONE),) for w in chosen)
    return TensorPresentation(m, tuple(gens), rels, D), chosen


def _brute_force_monomial_ideal(pres, generators_words):
    """Degreewise monomial membership: a word is in the ideal iff it has
    one of the generating words as a contiguous subword."""
    dims = {}
    for d in range(1, pres.truncation + 1):
        count = 0
        for w in word_basis(pres, d):
            hit = False
            for g in generators_words:
                for i in range(len(w) - len(g) + 1):
                    if w[i : i + len(g)] == g:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                count += 1
        if count:
            dims[d] = count
    return dims


def test_monomial_ideals_against_brute_force(rng):
    for _ in range(12):
        pres, words = _random_monomial_presentation(rng)
        I = ideal_from_relations(pres)
        assert I.dims_by_degree() == _brute_force_monomial_ideal(pres, words)


def test_mindeg_calculus_on_random_monomial_ideals(rng):
    for _ in range(10):
        pres, words1 = _random_monomial_presentation(rng)
        # second ideal over the same presentation data
        all_words = []
        for d in range(2, 5):
            all_words.extend(word_basis(pres, d))
        rng.shuffle(all_words)
        words2 = tuple(all_words[: rng.randint(1, 3)])
        I1 = ideal_from_relations(pres)
        rels2 = tuple(((w, ONE),) for w in words2)
        pres2 = TensorPresentation(
            pres.num_vertices, pres.generators, rels2, pres.truncation
        )
        I2 = ideal_from_relations(pres2)
        I2 = type(I1).from_block_dict(pres, I2.block_dict())
        if I1.is_zero() or I2.is_zero():
            continue
        m1, m2 = mindeg(I1.dims_by_degree()), mindeg(I2.dims_by_degree())
        s = ideal_sum(I1, I2)
        assert mindeg(s.dims_by_degree()) == min(m1, m2)
        prod = ideal_product(I1, I2)
        if not prod.is_zero():
            assert mindeg(prod.dims_by_degree()) >= m1 + m2
        met = ideal_meet(I1, I2)
        if not met.is_zero():
            assert mindeg(met.dims_by_degree()) >= max(m1, m2)


def _product_identity_cases(rng, spec):
    """Random monomial presentations (coefficients 1) and configuration
    presentations, over the field spec."""
    one = spec.field().one
    for _ in range(6):
        pres, _ = _random_monomial_presentation(rng)
        rels = tuple(tuple((w, one) for w, _ in rel) for rel in pres.relations)
        yield TensorPresentation(pres.num_vertices, pres.generators, rels, pres.truncation, spec)
    a2 = ConfigGraph.make([1, 2], [(1, 2)])
    triangle = ConfigGraph.make([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    yield configuration_presentation(a2, 2, 2, 2, "orthogonal", 10, spec)
    yield configuration_presentation(a2, 2, 2, 2, "zigzag", 10, spec)
    yield configuration_presentation(triangle, 1, 2, 1, "orthogonal", 6, spec)
    yield configuration_presentation(triangle, 1, 2, 1, "zigzag", 6, spec)


@pytest.mark.parametrize("field", ["rationals", "fp:7"])
def test_generator_products_equal_the_pairwise_products(rng, field):
    """V X = J X and X V = X J for the two sided ideals X = I, I^2, and the
    right closure of I^p R is I^p I, block for block."""
    spec = FieldSpec.parse(field)
    nontrivial = 0
    for pres in _product_identity_cases(rng, spec):
        cap = pres.truncation
        J = augmentation_ideal(pres)
        I = ideal_from_relations(pres)
        R = _relation_vectors(pres, _context(pres))
        power = I
        for p in (1, 2):
            ji = ideal_product(J, power)
            assert _times_generators(power, cap, left=True).blocks == ji.blocks
            assert _times_generators(power, cap, left=False).blocks == ideal_product(power, J).blocks
            following = ideal_product(power, I)
            assert _next_power(power, R, cap).blocks == following.blocks
            nontrivial += not ji.is_zero() and not following.is_zero()
            power = following
    assert nontrivial >= 8


# -- the shift lemma: ideal blocks that need no elimination --------------------
#
# The routes below are the eliminating ones the shift lemma replaces (see
# presentations._shift): word index maps rebuilt from the words, and every
# block re-eliminated with row_space_basis. The lemma says both give the
# same canonical blocks, entry for entry.


def _eliminating_shift(pres, key, rows, g, left):
    ctx = _context(pres)
    d, src, tgt = key
    if (g.src != tgt) if left else (g.tgt != src):
        return None
    new = (d + g.deg, src, g.tgt) if left else (d + g.deg, g.src, tgt)
    idx = ctx.block_index(*new)
    words = ctx.block(*key)
    pos = [idx[(g.label,) + w] if left else idx[w + (g.label,)] for w in words]
    return new, [{pos[c]: x for c, x in row.items()} for row in rows]


def _eliminating_closure(pres, seeds, cap, sides):
    f = pres.field_spec.field()
    blocks, by_degree = {}, {}
    for d in range(1, cap + 1):
        fresh = {key: list(rows) for key, rows in seeds.items() if key[0] == d}
        for g in pres.generators:
            for key in by_degree.get(d - g.deg, ()):
                for left in sides:
                    shifted = _eliminating_shift(pres, key, blocks[key], g, left)
                    if shifted:
                        fresh.setdefault(shifted[0], []).extend(shifted[1])
        for key, rows in fresh.items():
            basis = row_space_basis(rows, f)
            if basis:
                blocks[key] = basis
                by_degree.setdefault(d, []).append(key)
    return blocks


def _eliminating_times_generators(X, cap, left):
    out = {}
    for key, rows in X.blocks:
        for g in X.pres.generators:
            shifted = key[0] + g.deg <= cap and _eliminating_shift(X.pres, key, rows, g, left)
            if shifted:
                out.setdefault(shifted[0], []).extend(shifted[1])
    return HomogeneousIdeal.from_block_dict(X.pres, out)


def _eliminating_sum(I1, I2):
    merged = {}
    for key, rows in I1.blocks + I2.blocks:
        merged.setdefault(key, []).extend(rows)
    return HomogeneousIdeal.from_block_dict(I1.pres, merged)


def _generators_reversed(pres):
    """The same presentation with its generators listed in reverse, so that
    words are ordered differently and generators are out of label order."""
    return TensorPresentation(pres.num_vertices, pres.generators[::-1], pres.relations,
                              pres.truncation, pres.field_spec)


A2 = ConfigGraph.make([1, 2], [(1, 2)])
TRIANGLE = ConfigGraph.make([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
CYCLE4 = ConfigGraph.make([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])


def _lemma_cases(field):
    spec = FieldSpec.parse(field)
    for graph, nkh in ((A2, (2, 2, 2)), (TRIANGLE, (1, 2, 1))):
        for preset in ("orthogonal", "zigzag"):
            pres = configuration_presentation(graph, *nkh, preset, 6, spec)
            yield pres
            yield _generators_reversed(pres)


@pytest.mark.parametrize("field", ["rationals", "fp:32003"])
def test_shifted_blocks_equal_their_re_elimination(field):
    nontrivial = 0
    for pres in _lemma_cases(field):
        cap = pres.truncation
        R = _relation_vectors(pres, _context(pres))
        both = (True, False)
        assert _closure(pres, R, cap, both) == _eliminating_closure(pres, R, cap, both)
        I = ideal_from_relations(pres)
        seeds = _products(pres, I.blocks, R.items(), cap)
        for sides in ((False,), (True,)):
            want = _eliminating_closure(pres, seeds, cap, sides)
            assert _closure(pres, seeds, cap, sides) == want
        I2 = _next_power(I, R, cap)
        for X in (I, I2, augmentation_ideal(pres)):
            vx, xv = (_times_generators(X, cap, left) for left in (True, False))
            assert vx.blocks == _eliminating_times_generators(X, cap, True).blocks
            assert xv.blocks == _eliminating_times_generators(X, cap, False).blocks
            assert ideal_sum(vx, xv).blocks == _eliminating_sum(vx, xv).blocks
            assert ideal_sum(I, vx).blocks == _eliminating_sum(I, vx).blocks
            nontrivial += not vx.is_zero() and not xv.is_zero()
    assert nontrivial >= 16


def test_times_generators_eliminates_nothing(monkeypatch):
    pres = a2_pres(truncation=10)
    I = ideal_from_relations(pres)

    def refuse(*args, **kwargs):
        raise AssertionError("_times_generators eliminated")

    for name in ("row_space_basis", "rref_extend", "subspace_meet"):
        monkeypatch.setattr(presentations, name, refuse)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for X in (I, augmentation_ideal(pres)):
        assert not _times_generators(X, 10, left=True).is_zero()
        assert not _times_generators(X, 10, left=False).is_zero()


# (graph, n, k, h, preset, q): the tor-config-q benchmark pool, and the
# truncation it uses, which covers q * maxdeg and a nilpotence window
TOR_POOL = (
    ("A2", 1, 2, 1, "orthogonal", 2), ("A2", 1, 2, 1, "orthogonal", 3),
    ("A2", 1, 2, 1, "zigzag", 2), ("A2", 1, 2, 1, "zigzag", 3),
    ("A2", 2, 2, 2, "orthogonal", 2), ("A2", 2, 2, 2, "orthogonal", 3),
    ("A2", 2, 2, 2, "zigzag", 2), ("A2", 1, 2, 2, "orthogonal", 2),
    ("A2", 1, 2, 2, "orthogonal", 3), ("A2", 2, 1, 1, "orthogonal", 2),
    ("A2", 2, 1, 1, "zigzag", 2), ("A2", 1, 1, 1, "orthogonal", 2),
    ("A2", 1, 1, 1, "orthogonal", 3),
    ("triangle", 1, 2, 1, "orthogonal", 2), ("triangle", 1, 2, 1, "zigzag", 2),
)


def _pool_presentation(graph, n, k, h, preset, q, spec=FieldSpec()):
    top = max(n * k, 2 * h if preset == "zigzag" else h)
    graph = {"A2": A2, "triangle": TRIANGLE}[graph]
    return configuration_presentation(graph, n, k, h, preset, q * top + max(k, h), spec)


def _tor_cases():
    """(id, presentation, q): the pool, over F_32003 with generators in both
    orders, and presentations the Tor tests above use."""
    for term in TOR_POOL:
        yield "-".join(map(str, term)), _pool_presentation(*term), term[-1]
    spec = FieldSpec.parse("fp:32003")
    for term in (("A2", 2, 2, 2, "zigzag", 3), ("triangle", 1, 2, 1, "zigzag", 2)):
        pres = _pool_presentation(*term, spec)
        yield "-".join(map(str, term)) + "-fp", pres, term[-1]
        yield "-".join(map(str, term)) + "-fp-reversed", _generators_reversed(pres), term[-1]
    yield "a2_pres-3", a2_pres(truncation=12), 3
    yield "single-2-2-4", single_generator_presentation(2, 2, truncation=26), 4


TOR_CASES = list(_tor_cases())


@pytest.mark.parametrize("pres,q", [case[1:] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
def test_every_ideal_tor_term_builds_equals_the_eliminating_route(monkeypatch, pres, q):
    """Each closure, product with generators and sum inside the Butler-King
    route returns the blocks the eliminating route returns on the same
    input. The route is called directly, since tor_term sends monomial
    presentations to the Anick route, which builds no ideal."""
    routes = {"_closure": _eliminating_closure,
              "_times_generators": _eliminating_times_generators,
              "ideal_sum": _eliminating_sum}
    calls = []
    for name in routes:
        def record(*args, real=getattr(presentations, name), name=name, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, args, kwargs, out))
            return out
        monkeypatch.setattr(presentations, name, record)
    presentations._butler_king_tor(pres, q)
    assert {call[0] for call in calls} == set(routes)
    for name, args, kwargs, out in calls:
        assert out == routes[name](*args, **kwargs), name


# -- Tor terms ----------------------------------------------------------------


def _anick_route(pres, q):
    tips = presentations._monomial_tips(pres)
    assert tips is not None, "not a monomial presentation"
    return presentations._anick_tor(pres, tips, q)


# the two routes of tor_term for q >= 1, called directly
TOR_ROUTES = {"anick": _anick_route, "butler-king": presentations._butler_king_tor}


@pytest.fixture(params=sorted(TOR_ROUTES))
def tor_route(request):
    return TOR_ROUTES[request.param]


def test_tor_zero_is_base():
    pres = a2_pres()
    assert tor_term(pres, 0).dims() == {0: 2}


def test_tor_one_is_generator_space():
    pres = a2_pres()
    assert tor_term(pres, 1).dims() == {2: 4}


@pytest.mark.parametrize("config", sorted({term[:-1] for term in TOR_POOL}),
                         ids=lambda config: "-".join(map(str, config)))
def test_tor_one_matches_chain_homology_on_the_pool(config):
    """Tor_1 = J / (I + J J), the indecomposables, even where a relation
    has a one-letter word: in the (1, 2, 1) zigzag presets a_ji a_ij = t_i
    makes the loops decomposable."""
    graph, n, k, h, preset = config
    g = {"A2": A2, "triangle": TRIANGLE}[graph]
    A = build_configuration_algebra(g, n, k, h, preset)
    dims = tor_term(_pool_presentation(*config, 1), 1).dims()
    assert dims == {d: dim for d in range(1, max(n * k, 2 * h) + 1)
                    if (dim := chain_h(A, 1, d))}
    if (n, k, h, preset) == (1, 2, 1, "zigzag"):
        assert dims == {1: len(g.edges) * 2}


def test_tor_one_refuses_a_generator_above_the_truncation():
    # Tor_1 lives in generator degrees; s has degree 3 > 2
    pres = TensorPresentation(1, (Generator("t", 1, 1, 1), Generator("s", 1, 1, 3)),
                              (((("t", "t"), ONE),),), 2)
    with pytest.raises(TruncationError):
        tor_term(pres, 1)


def test_tor_single_generator_gradings(tor_route):
    for n in (1, 2):
        for k in (1, 2):
            pres = single_generator_presentation(n, k, truncation=6 * n * k + k)
            for q in range(0, 7):
                dims = (tor_route if q else tor_term)(pres, q).dims()
                p = q // 2
                if q == 0:
                    assert dims == {0: 1}
                elif q % 2 == 0:
                    assert dims == {p * (n + 1) * k: 1}
                else:
                    assert dims == {(p * (n + 1) + 1) * k: 1}


def test_tor_orthogonal_a2_mindeg_bound():
    pres = a2_pres(n=2, k=2, h=2, truncation=10)
    t2 = tor_term(pres, 2)
    assert mindeg(t2) >= mindeg_bound(2 + 2, 2, 2)
    assert mindeg(t2) == 4


def chain_h(A, p, q):
    """Homology of the reduced tensor word complex at (p, q)."""
    words_p, _, d_p = bar_chain_slice(A, p, q)
    _, _, d_p1 = bar_chain_slice(A, p + 1, q)
    rank_dp = rank_rows(d_p, RATIONALS) if d_p else 0
    rank_dp1 = rank_rows(d_p1, RATIONALS) if d_p1 else 0
    return (len(words_p) - rank_dp) - rank_dp1


def test_tor_agrees_with_reduced_chain_homology(tor_route):
    """Independent route: homology of the reduced tensor word complex."""
    A = truncated_poly(2, 2)
    pres = single_generator_presentation(2, 2, truncation=26)
    for q in (2, 3, 4):
        dims = tor_route(pres, q).dims()
        for d in range(1, 17):
            assert chain_h(A, q, d) == dims.get(d, 0)

    g = ConfigGraph.make([1, 2], [(1, 2)])
    A = build_configuration_algebra(g, 2, 2, 2, "orthogonal")
    pres = a2_pres(truncation=12)
    for q in (2, 3):
        dims = tor_route(pres, q).dims()
        for d in range(1, 13):
            assert chain_h(A, q, d) == dims.get(d, 0)


def test_tor_zigzag_a2_matches_chain_homology():
    g = ConfigGraph.make([1, 2], [(1, 2)])
    A = build_configuration_algebra(g, 2, 2, 2, "zigzag")
    pres = a2_pres(preset="zigzag", truncation=12)
    for q in (2, 3):
        dims = tor_term(pres, q).dims()
        for d in range(1, 13):
            assert chain_h(A, q, d) == dims.get(d, 0)


@pytest.mark.parametrize("graph,nkh,q,expected", [
    ("A2", (2, 2, 2), 4, {8: 16, 10: 14, 12: 2}),
    ("A2", (2, 2, 2), 5, {10: 26, 12: 30, 14: 8}),
    ("A2", (2, 2, 2), 6, {12: 42, 14: 60, 16: 24, 18: 2}),
    ("triangle", (1, 2, 1), 3, {3: 24, 4: 36, 5: 18, 6: 3}),
    ("triangle", (1, 2, 1), 4, {4: 48, 5: 96, 6: 72, 7: 24, 8: 3}),
])
def test_higher_tor_of_orthogonal_configurations_matches_chain_homology(tor_route, graph, nkh, q,
                                                                       expected):
    vertices, edges = {"A2": ([1, 2], [(1, 2)]),
                       "triangle": ([1, 2, 3], [(1, 2), (2, 3), (3, 1)])}[graph]
    g = ConfigGraph.make(vertices, edges)
    n, k, h = nkh
    A = build_configuration_algebra(g, n, k, h, "orthogonal")
    top = max(n * k, h)  # the algebra's maxdeg
    pres = configuration_presentation(g, n, k, h, "orthogonal", q * top + max(k, h))
    dims = tor_route(pres, q).dims()
    assert dims == expected
    for d in range(1, q * top + 1):
        assert chain_h(A, q, d) == dims.get(d, 0)


def test_tor_truncation_independence(tor_route):
    base = 2 * 3 * 2 + 2  # enough for q = 2 with n = 2, k = 2
    for extra in (0, 2):
        pres = a2_pres(truncation=12 + extra)
        assert tor_route(pres, 2).dims() == {4: 6, 6: 2}
    p1 = single_generator_presentation(2, 2, truncation=24)
    p2 = single_generator_presentation(2, 2, truncation=26)
    assert tor_route(p1, 4).dims() == tor_route(p2, 4).dims()


def test_tor_refuses_insufficient_truncation():
    pres = single_generator_presentation(2, 2, truncation=10)
    with pytest.raises(TruncationError):
        tor_term(pres, 4)  # needs degrees up to 4 * maxdeg = 16


def test_certified_maxdeg():
    pres = single_generator_presentation(2, 3, truncation=24)
    assert certified_maxdeg(pres, ideal_from_relations(pres)) == 6
    with pytest.raises(TypeError):
        certified_maxdeg(pres)  # the ideal is passed, never recomputed
    # k<x, y>/(x^2) is infinite dimensional: no zero window can ever appear
    free_ish = TensorPresentation(
        1,
        (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
        (((("x", "x"), ONE),),),
        8,
    )
    with pytest.raises(TruncationError):
        certified_maxdeg(free_ish, ideal_from_relations(free_ish))
    with pytest.raises(TruncationError):
        tor_term(free_ish, 2)


def test_algebra_dims_match_quotient():
    pres = a2_pres(n=2, k=2, h=2, truncation=10)
    dims = algebra_dims(pres, ideal_from_relations(pres))
    A = build_configuration_algebra(ConfigGraph.make([1, 2], [(1, 2)]), 2, 2, 2, "orthogonal")
    assert {d: n for d, n in dims.items() if n} == A.poincare()


# -- the Anick route against the Butler-King route -----------------------------


def _outcome(route, pres, q):
    """A route's Tor_q dims, or the text of its TruncationError."""
    try:
        return route(pres, q).dims()
    except TruncationError as exc:
        return f"refused: {exc}"


def _with_spec(pres, spec):
    rels = tuple(tuple((w, spec.field().scalar(int(c))) for w, c in rel) for rel in pres.relations)
    return TensorPresentation(pres.num_vertices, pres.generators, rels, pres.truncation, spec)


MONOMIAL_TOR_CASES = [case for case in TOR_CASES
                      if presentations._monomial_tips(case[1]) is not None]


def test_tor_cases_split_between_the_routes():
    # the orthogonal pool entries and the two extra cases are monomial; every
    # zigzag preset relates a_ji a_ij to a power of t_i
    assert len(MONOMIAL_TOR_CASES) == 12
    assert all("zigzag" not in case[0] for case in MONOMIAL_TOR_CASES)


@pytest.mark.parametrize("pres,q", [case[1:] for case in MONOMIAL_TOR_CASES],
                         ids=[case[0] for case in MONOMIAL_TOR_CASES])
@pytest.mark.parametrize("field", ["rationals", "fp:32003"])
@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
def test_anick_route_equals_butler_king_on_the_tor_cases(pres, q, field, reverse):
    pres = _with_spec(pres, FieldSpec.parse(field))
    if reverse:
        pres = _generators_reversed(pres)
    for j in range(1, q + 1):
        assert _anick_route(pres, j).dims() == presentations._butler_king_tor(pres, j).dims()


def test_anick_route_equals_butler_king_on_random_monomial_presentations(rng):
    """12 draws that take the Anick route; a draw with a one-letter word
    (y of degree 2) takes the Butler-King route and is skipped. The draws
    are infinite dimensional, so past Tor_1 they are refused, by the same
    text on both routes. Each draw is also capped, with every word of
    degree 4 or 5 as a further relation (many contain a drawn tip). Every
    longer word has a prefix of degree 4 or 5 (generators have degree <= 2),
    so maxdeg <= 3 and Tor_q fits in truncation 12 for q <= 4."""
    compared = 0
    while compared < 12:
        pres, _ = _random_monomial_presentation(rng)
        if presentations._monomial_tips(pres) is None:
            continue
        compared += 1
        cap = tuple(((w, ONE),) for w in word_basis(pres, 4) + word_basis(pres, 5))
        capped = TensorPresentation(pres.num_vertices, pres.generators, pres.relations + cap, 12)
        for q in range(1, 5):
            assert _outcome(_anick_route, pres, q) == _outcome(presentations._butler_king_tor,
                                                               pres, q)
            assert _anick_route(capped, q).dims() == presentations._butler_king_tor(capped, q).dims()


@pytest.mark.parametrize("graph,nkh,q,truncation,expected", [
    (A2, (2, 2, 2), 8, 34, {16: 110, 18: 218, 20: 146, 22: 36, 24: 2}),
    (TRIANGLE, (1, 2, 1), 6, 14, {6: 192, 7: 576, 8: 720, 9: 480, 10: 180, 11: 36, 12: 3}),
], ids=["A2-2-2-2-q8", "triangle-1-2-1-q6"])
def test_anick_route_reaches_the_baseline_tor_terms(monkeypatch, graph, nkh, q, truncation,
                                                    expected):
    """The Baseline values, out of reach of the ideal engine in a test (17.9
    and 15.5 s on a 2-core x86-64 host). The cost is counted: each tail's extensions are found once,
    and a chain extends per (tail, degree) state, never one by one."""
    pres = configuration_presentation(graph, *nkh, "orthogonal", truncation)
    tails = []
    real = presentations._chain_extensions

    def record(tips, tail, deg):
        tails.append(tail)
        return real(tips, tail, deg)

    monkeypatch.setattr(presentations, "_chain_extensions", record)
    assert tor_term(pres, q).dims() == expected
    # the tails are the generators and the proper suffixes of the tips
    tips = presentations._monomial_tips(pres)
    assert len(tails) == len(set(tails)) <= len(pres.generators) + sum(len(w) - 1 for w in tips)


def test_anick_route_builds_no_ideal_and_calls_no_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Anick route reached the ideal engine")

    for name in ("ideal_from_relations", "ideal_meet", "ideal_product", "ideal_sum",
                 "row_space_basis", "rref_extend", "subspace_meet", "_butler_king_tor"):
        monkeypatch.setattr(presentations, name, refuse)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    assert tor_term(a2_pres(truncation=12), 3).dims() == {6: 10, 8: 6}


@pytest.mark.parametrize("graph,nkh", [(A2, (2, 2, 2)), (A2, (1, 2, 1)),
                                       (TRIANGLE, (1, 2, 1)), (CYCLE4, (1, 2, 1))],
                         ids=["A2-2-2-2", "A2-1-2-1", "triangle-1-2-1", "cycle4-1-2-1"])
def test_mindeg_bound_respected_up_to_tor_eight(graph, nkh):
    n, k, h = nkh
    pres = configuration_presentation(graph, n, k, h, "orthogonal", 8 * max(n * k, h) + max(k, h))
    gen = {g.label: g.deg for g in pres.generators}
    mu = min(sum(gen[lab] for lab in rel[0][0]) for rel in pres.relations)
    nu = min(gen.values())
    for q in range(1, 9):
        assert mindeg(tor_term(pres, q)) >= mindeg_bound(mu, nu, q)


def _one_generator(relations, truncation=12, deg=1):
    rels = tuple(tuple((("t",) * power, c) for power, c in rel) for rel in relations)
    return TensorPresentation(1, (Generator("t", 1, 1, deg),), rels, truncation)


# (id, presentation, its minimal tips or None for the Butler-King route,
# the tor command's exit codes for q = 1..4)
PARITY_CASES = [
    ("2w-w", _one_generator([((3, 2), (3, -1))]), {("t",) * 3}, [0, 0, 0, 0]),
    ("w-w", _one_generator([((3, 1), (3, -1))]), None, [0, 2, 2, 2]),  # k[t]: no window
    ("duplicated-tip", _one_generator([((3, 1),), ((3, 1),)]), {("t",) * 3}, [0, 0, 0, 0]),
    ("tip-inside-a-tip", _one_generator([((4, 1),), ((3, 1),)]), {("t",) * 3}, [0, 0, 0, 0]),
    ("no-relations", _one_generator([]), set(), [0, 2, 2, 2]),
    ("truncation-60", _one_generator([((3, 1),)], truncation=60), {("t",) * 3}, [0, 0, 0, 0]),
    ("one-letter-relation",
     TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 2)),
                        (((("y",), ONE),), ((("x", "x", "x"), ONE),)), 12), None, [0, 0, 0, 0]),
    ("past-the-truncation", single_generator_presentation(2, 2, truncation=10), {("t",) * 3},
     [0, 0, 2, 2]),  # Tor_3 needs degree 3 * 4 = 12
    ("generator-above-the-truncation",
     TensorPresentation(1, (Generator("t", 1, 1, 1), Generator("s", 1, 1, 3)),
                        (((("t", "t"), ONE),),), 2), {("t", "t")}, [2, 2, 2, 2]),
]


@pytest.mark.parametrize("pres,tips", [case[1:3] for case in PARITY_CASES],
                         ids=[case[0] for case in PARITY_CASES])
def test_routes_select_and_refuse_alike(pres, tips):
    """Each case picks its route, and the Anick route gives the Butler-King
    result or refusal on the tips of its ideal. Where a relation cancels to
    zero the ideal is 0, with no tips; a one-letter relation kills a
    generator, which no chain count sees, so there only the selection is
    checked."""
    assert presentations._monomial_tips(pres) == (None if tips is None else frozenset(tips))
    zero_ideal = tips is None and ideal_from_relations(pres).is_zero()
    for q in range(1, 5):
        want = _outcome(presentations._butler_king_tor, pres, q)
        assert _outcome(tor_term, pres, q) == want
        if tips is not None or zero_ideal:
            def anick(p, j):
                return presentations._anick_tor(p, frozenset(tips or ()), j)
            assert _outcome(anick, pres, q) == want


@pytest.mark.parametrize("pres,codes", [case[1::2] for case in PARITY_CASES],
                         ids=[case[0] for case in PARITY_CASES])
def test_tor_command_is_the_same_on_either_route(monkeypatch, tmp_path, capsys, pres, codes):
    """The tor command's exit code, stdout and stderr, with a presentation
    on its own route and forced onto the Butler-King route."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(presentation_to_json_dict(pres)))

    def run():
        runs = []
        for q in range(1, 5):
            code = dispatch(["tor", "--pres", str(path), "--q", str(q)])
            runs.append((code, *capsys.readouterr()))
        return runs

    own = run()
    monkeypatch.setattr(presentations, "_monomial_tips", lambda pres: None)
    assert run() == own
    assert [code for code, _, _ in own] == codes


def _minimal_truncation(make, q):
    """The least truncation at which tor_term(make(truncation), q) runs:
    below it the relations or Tor_q do not fit."""
    for truncation in itertools.count():
        try:
            tor_term(make(truncation), q)
            return truncation
        except InputValidationError:
            pass


def _recorded_normal_words(monkeypatch):
    """The _NormalWords the Anick route builds, from now on."""
    built = []

    class Recorded(presentations._NormalWords):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(presentations, "_NormalWords", Recorded)
    return built


def _prefixes_built(built):
    return sum(len(prefixes) for nw in built for prefixes in nw.by_degree.values())


@pytest.mark.parametrize("make,q", [
    (lambda t: configuration_presentation(A2, 2, 2, 2, "orthogonal", t), 3),
    (lambda t: configuration_presentation(TRIANGLE, 1, 2, 1, "orthogonal", t), 2),
    (lambda t: single_generator_presentation(2, 2, t), 4),
], ids=["A2-2-2-2-q3", "triangle-1-2-1-q2", "single-2-2-q4"])
def test_anick_route_materializes_as_many_words_at_any_truncation(monkeypatch, make, q):
    """The Anick route reads T(V)/I no further than the zero window that
    certifies maxdeg, so a larger truncation adds no word (it builds the
    normal words' prefixes, see _NormalWords)."""
    minimal = _minimal_truncation(make, q)
    built = _recorded_normal_words(monkeypatch)
    counts, dims = [], []
    for truncation in (minimal, minimal + 8):
        built.clear()
        dims.append(tor_term(make(truncation), q).dims())
        counts.append(_prefixes_built(built))
    assert dims[0] == dims[1] and counts[0] == counts[1] > 0


def test_anick_route_refuses_an_infinite_algebra_by_prefixes_not_words(monkeypatch):
    """k<x, y>/(x x) has a Fibonacci number of normal words in each degree,
    about 10^106 in degree 512, the tor command's default truncation cap.
    Counted by their first letter, the refusal builds two prefixes per
    degree."""
    pres = TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
                              (((("x", "x"), ONE),),), 512)
    built = _recorded_normal_words(monkeypatch)
    with pytest.raises(TruncationError, match="no nilpotence window"):
        tor_term(pres, 2)
    assert _prefixes_built(built) == 2 * 512


# -- symbolic mindeg bounds ---------------------------------------------------


def test_mindeg_bound_values():
    # even bound p * mu, with mu = h + k
    h, k = 2, 2
    assert mindeg_bound(h + k, k, 4) == 2 * (h + k)
    # spherelike shape mu = 2h, nu = h
    assert mindeg_bound(4, 2, 4) == 8
    assert mindeg_bound(2, 1, 3) == 3


def test_mindeg_affine_branches():
    # the dropped even branch 2 nu + (p-1) mu never exceeds the bound
    for nu in range(1, 6):
        for mu in range(2 * nu, 13):
            for p in range(11):
                assert 2 * nu + (p - 1) * mu <= mindeg_bound(mu, nu, 2 * p)


def test_mindeg_bound_precondition():
    with pytest.raises(InputValidationError):
        mindeg_bound(3, 2, 4)  # mu < 2 nu


def test_mindeg_bound_respected_by_concrete_tor():
    pres = a2_pres(n=2, k=2, h=2, truncation=12)
    I = ideal_from_relations(pres)
    J = augmentation_ideal(pres)
    mu = mindeg(I.dims_by_degree())
    nu = mindeg(J.dims_by_degree())
    for q in (2, 3):
        space = tor_term(pres, q)
        if not space.is_zero():
            assert mindeg(space) >= mindeg_bound(mu, nu, q)


# -- JSON ---------------------------------------------------------------------


def test_presentation_json_round_trip():
    pres = a2_pres(preset="zigzag")
    data = presentation_to_json_dict(pres)
    back = presentation_from_json_dict(data)
    assert back == pres


def test_presentation_json_missing_key():
    with pytest.raises(InputValidationError):
        presentation_from_json_dict({"vertices": 1})


@pytest.mark.parametrize("bad", [{"vertices": "x"}, {"truncation": [8]},
                                 {"generators": [{"label": "t", "src": 1, "tgt": "1/0",
                                                  "deg": 2}]}])
def test_presentation_json_bad_integer(bad):
    data = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    data.update(bad)
    with pytest.raises(InputValidationError):
        presentation_from_json_dict(data)


def test_presentation_without_generators_is_the_base():
    pres = TensorPresentation(2, (), (), 8)
    assert certified_maxdeg(pres, ideal_from_relations(pres)) == 0
    assert tor_term(pres, 0).dims() == {0: 2}
    assert [tor_term(pres, q).is_zero() for q in (1, 2, 3)] == [True, True, True]
