import itertools
import json
from fractions import Fraction

import pytest

from formalitykit.cli import dispatch
from formalitykit.configurations import ConfigGraph
from formalitykit.errors import InputValidationError, TruncationError
from formalitykit.fields import RATIONALS, FieldSpec
from formalitykit.hochschild import bar_chain_slice
from formalitykit.graded import block_structure, build_configuration_algebra, truncated_poly
from formalitykit import groebner, linalg, presentations
from formalitykit.formality import (
    _affine_at,
    _tor_mindeg_bound,
    certify_config_pn,
    certify_config_spherical,
)
from formalitykit.groebner import _window_maxdeg
from formalitykit.linalg import rank_rows, row_space_basis
from formalitykit.presentations import (
    _Closure,
    _context,
    _products,
    _relation_closure,
    _relation_vectors,
    Generator,
    HomogeneousIdeal,
    TensorPresentation,
    configuration_presentation,
    ideal_from_relations,
    ideal_meet,
    ideal_product,
    presentation_from_json_dict,
    presentation_to_json_dict,
    single_generator_presentation,
    tor_term,
)
import butler_king
from butler_king import (
    augmentation_ideal,
    butler_king_tor,
    closure_dim,
    dims_by_degree,
    ideal_sum,
    is_closed_under_generators,
    is_zero,
    next_power,
    quotient_dims,
    times_generators,
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
    assert dims_by_degree(ideal_from_relations(pres)) == {4: 1, 6: 1, 8: 1}
    with pytest.raises(TypeError):
        ideal_from_relations(pres, 6)  # the degree cap is the truncation


def test_augmentation_square_single_generator():
    pres = single_generator_presentation(3, 2, truncation=10)
    J = augmentation_ideal(pres)
    JJ = ideal_product(J, J)
    assert dims_by_degree(JJ) == {4: 1, 6: 1, 8: 1, 10: 1}
    assert min(dims_by_degree(JJ)) == 4


def test_monomial_ideal_square():
    n, k = 2, 1
    pres = single_generator_presentation(n, k, truncation=10)
    I = ideal_from_relations(pres)
    II = ideal_product(I, I)
    assert min(dims_by_degree(II)) == 2 * (n + 1)


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
    assert dims_by_degree(met) == dims_by_degree(I3)


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
    assert quotient_dims(pres, J, I, 6) == {2: 4, 4: 2}  # the positive part of A
    with pytest.raises(InputValidationError):
        quotient_dims(pres, I, J, 6)


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
        assert dims_by_degree(I) == _brute_force_monomial_ideal(pres, words)


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
        if is_zero(I1) or is_zero(I2):
            continue
        m1, m2 = min(dims_by_degree(I1)), min(dims_by_degree(I2))
        s = ideal_sum(I1, I2)
        assert min(dims_by_degree(s)) == min(m1, m2)
        prod = ideal_product(I1, I2)
        if not is_zero(prod):
            assert min(dims_by_degree(prod)) >= m1 + m2
        met = ideal_meet(I1, I2)
        if not is_zero(met):
            assert min(dims_by_degree(met)) >= max(m1, m2)


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
            assert times_generators(power, cap, left=True).blocks == ji.blocks
            assert times_generators(power, cap, left=False).blocks == ideal_product(power, J).blocks
            following = ideal_product(power, I)
            assert next_power(power, R, cap).blocks == following.blocks
            nontrivial += not is_zero(ji) and not is_zero(following)
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
        assert _Closure(pres, R, both).upto(cap) == _eliminating_closure(pres, R, cap, both)
        I = ideal_from_relations(pres)
        seeds = _products(pres, I.blocks, R.items(), cap)
        for sides in ((False,), (True,)):
            want = _eliminating_closure(pres, seeds, cap, sides)
            assert _Closure(pres, seeds, sides).upto(cap) == want
        I2 = next_power(I, R, cap)
        for X in (I, I2, augmentation_ideal(pres)):
            vx, xv = (times_generators(X, cap, left) for left in (True, False))
            assert vx.blocks == _eliminating_times_generators(X, cap, True).blocks
            assert xv.blocks == _eliminating_times_generators(X, cap, False).blocks
            assert ideal_sum(vx, xv).blocks == _eliminating_sum(vx, xv).blocks
            assert ideal_sum(I, vx).blocks == _eliminating_sum(I, vx).blocks
            nontrivial += not is_zero(vx) and not is_zero(xv)
    assert nontrivial >= 16


def test_times_generators_eliminates_nothing(monkeypatch):
    pres = a2_pres(truncation=10)
    I = ideal_from_relations(pres)

    def refuse(*args, **kwargs):
        raise AssertionError("times_generators eliminated")

    for name in ("row_space_basis", "rref_extend", "subspace_meet"):
        monkeypatch.setattr(presentations, name, refuse)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for X in (I, augmentation_ideal(pres)):
        assert not is_zero(times_generators(X, 10, left=True))
        assert not is_zero(times_generators(X, 10, left=False))


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
    input: the two sided closure of I and the one sided closure of each
    power I^j, j >= 2, at the degree each was read to. The route is called
    directly, since tor_term builds no ideal."""
    routes = {"times_generators": _eliminating_times_generators,
              "ideal_sum": _eliminating_sum}
    calls = []
    for name in routes:
        def record(*args, real=getattr(butler_king, name), name=name, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, args, kwargs, out))
            return out
        monkeypatch.setattr(butler_king, name, record)
    closures = _recorded_instances(monkeypatch, presentations, "_Closure")
    butler_king_tor(pres, q)
    assert {call[0] for call in calls} == set(routes)
    for name, args, kwargs, out in calls:
        assert out == routes[name](*args, **kwargs), name
    assert [c.sides for c in closures] == [(True, False)] + [(False,)] * (q // 2 + q % 2 - 1)
    for c in closures:
        assert c.reached > 0
        assert c.blocks == _eliminating_closure(c.pres, c.seeds, c.reached, c.sides)


# -- Tor terms ----------------------------------------------------------------


# tor_term's route for q >= 1 called directly (morse), and the ideal engine
# the tests keep as the reference (butler-king)
TOR_ROUTES = {"butler-king": butler_king_tor, "morse": groebner._morse_tor}


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


def tor_bound(mu, nu, q):
    """The certificates' lower bound on mindeg Tor_q (formality's
    _tor_mindeg_bound) at q, from mindeg(I) >= mu and mindeg(J) >= nu."""
    return _affine_at(_tor_mindeg_bound("odd" if q % 2 else "even", mu, nu), q // 2)


def test_tor_orthogonal_a2_mindeg_bound():
    pres = a2_pres(n=2, k=2, h=2, truncation=10)
    t2 = tor_term(pres, 2)
    assert min(t2.degrees()) >= tor_bound(2 + 2, 2, 2)
    assert min(t2.degrees()) == 4


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


def test_window_certifies_maxdeg_on_the_relation_closure():
    pres = single_generator_presentation(2, 3, truncation=24)
    reader = _relation_closure(pres)
    assert _window_maxdeg(pres, lambda d: closure_dim(reader, d)) == 6
    assert reader.reached == 9  # the zero window of width |t| = 3 after degree 6
    # k<x, y>/(x^2) is infinite dimensional: no zero window can ever appear
    free_ish = TensorPresentation(
        1,
        (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
        (((("x", "x"), ONE),),),
        8,
    )
    with pytest.raises(TruncationError):
        _window_maxdeg(free_ish, lambda d: closure_dim(_relation_closure(free_ish), d))
    with pytest.raises(TruncationError):
        tor_term(free_ish, 2)


def test_relation_closure_dims_match_the_algebra():
    pres = a2_pres(n=2, k=2, h=2, truncation=10)
    reader = _relation_closure(pres)
    dims = {d: closure_dim(reader, d) for d in range(pres.truncation + 1)}
    A = build_configuration_algebra(ConfigGraph.make([1, 2], [(1, 2)]), 2, 2, 2, "orthogonal")
    assert {d: n for d, n in dims.items() if n} == A.poincare()


# -- the Groebner route against the Butler-King route --------------------------


def _outcome(route, pres, q):
    """A route's Tor_q dims, or the text of its TruncationError."""
    try:
        return route(pres, q).dims()
    except TruncationError as exc:
        return f"refused: {exc}"


def _with_spec(pres, spec):
    rels = tuple(tuple((w, spec.field().scalar(int(c))) for w, c in rel) for rel in pres.relations)
    return TensorPresentation(pres.num_vertices, pres.generators, rels, pres.truncation, spec)


def _groebner_basis(pres, cap):
    basis = groebner._GroebnerBasis(pres)
    basis.upto(cap)
    return basis.tails


# the cases whose reduced Groebner basis has no tail: the monomial ones
MONOMIAL_TOR_CASES = [case for case in TOR_CASES
                      if not any(_groebner_basis(case[1], case[1].truncation).values())]


def _minimal_words(words):
    """The words that contain no other of these words."""
    def inside(u, w):
        return any(w[i:i + len(u)] == u for i in range(len(w) - len(u) + 1))
    return {w for w in words if not any(u != w and inside(u, w) for u in words)}


@pytest.mark.parametrize("name,pres", [case[:2] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
def test_tor_cases_split_by_their_groebner_basis(name, pres):
    """The orthogonal pool entries and the two extra cases are monomial:
    their Groebner basis is the minimal relation words, with no tail. Every
    zigzag preset relates a_ji a_ij to a power of t_i, so its basis has a
    tail; for the (1, 2, 1) zigzag on A2 only the one-letter tips t_i =
    a_ji a_ij have one, and what is left is monomial over the arrows."""
    basis = _groebner_basis(pres, pres.truncation)
    assert any(basis.values()) == ("zigzag" in name)
    if "zigzag" not in name:
        assert basis == {tip: {} for tip in _minimal_words({rel[0][0] for rel in pres.relations})}
    elif name.startswith("A2-1-2-1-zigzag"):
        assert {tip for tip in basis if len(tip) == 1} == {("t1",), ("t2",)}
        assert not any(basis[tip] for tip in basis if len(tip) > 1)


@pytest.mark.parametrize("pres", [case[1] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
def test_groebner_basis_is_reduced_and_closes_every_overlap(pres):
    """The basis _add builds while it skips pairs of word tips is the
    reduced Groebner basis of I up to the truncation: every relation and
    the S-polynomial of every overlap of two tips (the skipped pairs and
    the pairs of a tip with itself included) reduce to 0 modulo it, no tip
    contains another, and every tail is normal."""
    basis = groebner._GroebnerBasis(pres)
    basis.upto(pres.truncation)
    tips = basis.tails
    for rel in pres.relations:
        if basis.deg(rel[0][0]) <= pres.truncation:
            poly = {}
            for word, c in rel:
                poly[word] = poly.get(word, 0) + c
            assert basis._reduce(poly) == {}
    overlaps = 0
    for a, b in itertools.product(tips, repeat=2):
        for k in range(1, min(len(a), len(b))):
            if a[-k:] == b[:k] and basis.deg(a) + basis.deg(b[k:]) <= pres.truncation:
                overlaps += 1
                assert basis._reduce(basis._s_polynomial(a, b, k)) == {}
    assert overlaps
    assert _minimal_words(set(tips)) == set(tips)
    assert all(basis._rewrite(word) is None for tail in tips.values() for word in tail)


def _tip_index(pres, field):
    """The tip index of pres over field, built to the truncation, and the
    generators that are not tips."""
    basis = groebner._GroebnerBasis(_with_spec(pres, FieldSpec.parse(field)))
    basis.upto(pres.truncation)
    index = basis.index
    return index, [g for g in pres.generators if (g.label,) not in index.tails]


@pytest.mark.parametrize("pres", [case[1] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
@pytest.mark.parametrize("field", ["rationals", "fp:7"])
def test_tail_graph_edges_are_the_anick_extensions_by_definition(pres, field):
    """For every tail reachable from a generator, the index's extensions
    are, each once, the composable tip-free paths t no longer than the
    longest tip such that s t contains exactly one tip, which starts inside
    s and ends at the end, listed and searched one by one."""
    index, gens = _tip_index(pres, field)
    tips = set(index.tails)
    gen = {g.label: g for g in pres.generators}
    # every composable tip-free path up to the longest tip, grown on the right
    longest = max(map(len, tips))
    paths, level = [], [(g.label,) for g in pres.generators if (g.label,) not in tips]
    while level:
        paths += level
        level = [w + (g.label,) for w in level if len(w) < longest
                 for g in pres.generators if gen[w[-1]].src == g.tgt
                 and not any((w + (g.label,))[i:] in tips for i in range(len(w) + 1))]

    def tips_in(word):
        return [(i, j) for i in range(len(word)) for j in range(i + 1, len(word) + 1)
                if word[i:j] in tips]

    seen, todo = set(), [(g.label,) for g in gens]
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        found = index.extensions(s)
        want = {(t, index.deg(t)) for t in paths if gen[s[-1]].src == gen[t[0]].tgt
                and [(i < len(s), j) for i, j in tips_in(s + t)] == [(True, len(s + t))]}
        assert len(found) == len(set(found)) and set(found) == want, s
        todo += [t for t, _ in found]
    assert seen


@pytest.mark.parametrize("pres", [case[1] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
@pytest.mark.parametrize("field", ["rationals", "fp:7"])
def test_chain_counts_are_the_lengths_of_the_listed_chains(pres, field):
    """_chain_counts, which counts chains per (tail, degree), equals the
    number of chains _chain_cells lists in each degree, for q <= 5."""
    index, gens = _tip_index(pres, field)
    cells = [(((g.label,),), g.deg) for g in gens]
    for q in range(1, 6):
        if q > 1:
            cells = groebner._chain_cells(index, cells, 10 ** 9)
        lengths = {}
        for _, d in cells:
            lengths[d] = lengths.get(d, 0) + 1
        assert groebner._chain_counts(gens, index, q) == lengths, q


def test_tor_cases_count():
    assert (len(TOR_CASES), len(MONOMIAL_TOR_CASES)) == (21, 12)


@pytest.mark.parametrize("pres,q", [case[1:] for case in MONOMIAL_TOR_CASES],
                         ids=[case[0] for case in MONOMIAL_TOR_CASES])
@pytest.mark.parametrize("field", ["rationals", "fp:32003"])
@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
def test_monomial_input_forms_no_s_polynomial_and_no_morse_complex(monkeypatch, pres, q, field,
                                                                   reverse):
    """On monomial input the Groebner basis is the minimal relation words,
    with no tails: every pair of its tips is skipped before its overlaps
    are listed, so no S-polynomial is formed, and the Morse differential is
    0, so no Morse complex is built. _morse_tor and tor_term count chains,
    and reach no ideal engine, yet equal the Butler-King route."""
    pres = _with_spec(pres, FieldSpec.parse(field))
    if reverse:
        pres = _generators_reversed(pres)
    want = [butler_king_tor(pres, j).dims() for j in range(1, q + 1)]

    def refuse(*args, **kwargs):
        raise AssertionError("monomial input formed an S-polynomial or an elimination")

    for name in ("ideal_from_relations", "ideal_meet", "ideal_product", "_Closure",
                 "row_space_basis", "rref_extend", "subspace_meet"):
        monkeypatch.setattr(presentations, name, refuse)
    for name in ("ideal_sum", "butler_king_tor"):
        monkeypatch.setattr(butler_king, name, refuse)
    for name in ("_MorseComplex", "rank_rows"):
        monkeypatch.setattr(groebner, name, refuse)
    monkeypatch.setattr(groebner._GroebnerBasis, "_s_polynomial", refuse)
    for route in (groebner._morse_tor, tor_term):
        assert [route(pres, j).dims() for j in range(1, q + 1)] == want


def test_anick_route_equals_butler_king_on_random_monomial_presentations(rng):
    """tor_term on 12 monomial draws, some with a one-letter word (y of
    degree 2). The draws are infinite dimensional, so past Tor_1 they are
    refused, by the same text on both routes. Each draw is also capped,
    with every word of degree 4 or 5 as a further relation (many contain a
    drawn tip). Every longer word has a prefix of degree 4 or 5 (generators
    have degree <= 2), so maxdeg <= 3 and Tor_q fits in truncation 12 for
    q <= 4."""
    for _ in range(12):
        pres, _ = _random_monomial_presentation(rng)
        cap = tuple(((w, ONE),) for w in word_basis(pres, 4) + word_basis(pres, 5))
        capped = TensorPresentation(pres.num_vertices, pres.generators, pres.relations + cap, 12)
        for q in range(1, 5):
            assert _outcome(tor_term, pres, q) == _outcome(butler_king_tor, pres, q)
            assert tor_term(capped, q).dims() == butler_king_tor(capped, q).dims()


@pytest.mark.parametrize("pres,q", [case[1:] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
@pytest.mark.parametrize("field", ["rationals", "fp:32003"])
@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
def test_morse_route_equals_butler_king_on_the_tor_cases(pres, q, field, reverse):
    pres = _with_spec(pres, FieldSpec.parse(field))
    if reverse:
        pres = _generators_reversed(pres)
    for j in range(1, q + 1):
        assert groebner._morse_tor(pres, j).dims() == \
            butler_king_tor(pres, j).dims()


def _random_binomial_presentation(rng, spec):
    """A draw like _random_monomial_presentation, where each relation is a
    word minus a multiple of another word of its degree and block, when
    there is one: y of degree 2 against x x makes one-letter tips."""
    field = spec.field()
    pres0, chosen = _random_monomial_presentation(rng)
    gen = {g.label: g for g in pres0.generators}

    def block(word):
        return gen[word[-1]].src, gen[word[0]].tgt, sum(gen[lab].deg for lab in word)

    rels = []
    for word in chosen:
        deg = block(word)[2]
        others = [w for w in word_basis(pres0, deg) if w != word and block(w) == block(word)]
        coeff = field.scalar(rng.choice([1, -1, 2, Fraction(1, 2)]))
        rels.append(((word, field.one),) + (((rng.choice(others), coeff),) if others else ()))
    return TensorPresentation(pres0.num_vertices, pres0.generators, tuple(rels),
                              pres0.truncation, spec)


@pytest.mark.parametrize("field", ["rationals", "fp:32003"])
def test_morse_route_equals_butler_king_on_random_binomial_presentations(rng, field):
    """12 draws whose Groebner basis has a tail, each also capped as in
    test_anick_route_equals_butler_king_on_random_monomial_presentations,
    with generators given and reversed: the dims, or the same refusal."""
    spec = FieldSpec.parse(field)
    compared = 0
    while compared < 12:
        pres = _random_binomial_presentation(rng, spec)
        if not any(_groebner_basis(pres, pres.truncation).values()):
            continue
        compared += 1
        one = spec.field().one
        cap = tuple(((w, one),) for w in word_basis(pres, 4) + word_basis(pres, 5))
        capped = TensorPresentation(pres.num_vertices, pres.generators, pres.relations + cap, 12,
                                    spec)
        for case in (pres, capped, _generators_reversed(capped)):
            for q in range(1, 5):
                assert _outcome(groebner._morse_tor, case, q) == \
                    _outcome(butler_king_tor, case, q)


@pytest.mark.parametrize("graph,nkh,q,expected", [
    (TRIANGLE, (1, 2, 1), 6, {6: 21}),
    (A2, (2, 2, 2), 7, {14: 16}),
    (CYCLE4, (1, 2, 1), 5, {5: 24}),
], ids=["triangle-1-2-1-q6", "A2-2-2-2-q7", "cycle4-1-2-1-q5"])
def test_morse_route_reaches_the_baseline_zigzag_tor_terms(graph, nkh, q, expected):
    """The Baseline zigzag values, which the ideal engine computes in 8.5,
    3.7 and 2.0 s on a 2-core x86-64 host, at the minimal truncation
    q maxdeg(A)."""
    top = max(build_configuration_algebra(graph, *nkh, "zigzag").poincare())
    pres = configuration_presentation(graph, *nkh, "zigzag", q * top)
    assert tor_term(pres, q).dims() == expected


def _matrix_hilbert_series(A, m, cap):
    """H_A(t) up to degree cap, as {d: m x m integer matrix}, the (i, j)
    entry counting the basis elements x of degree d with e_i x e_j = x."""
    es = A.idempotents
    series = {d: [[0] * m for _ in range(m)] for d in range(cap + 1)}
    for label, d in A.basis:
        if d <= cap:
            i = next(i for i, e in enumerate(es) if A.mult.get((e, label)) == {label: 1})
            j = next(j for j, e in enumerate(es) if A.mult.get((label, e)) == {label: 1})
            series[d][i][j] += 1
    return series


def _inverse_series_sums(series, m, cap):
    """The entry sum of each coefficient of H(t)^-1 up to degree cap, for
    H_0 the identity: G_0 = 1 and G_d = -sum_(e >= 1) H_e G_(d-e)."""
    inverse = {0: [[int(i == j) for j in range(m)] for i in range(m)]}
    for d in range(1, cap + 1):
        inverse[d] = [[-sum(series[e][i][k] * inverse[d - e][k][j]
                            for e in range(1, d + 1) for k in range(m))
                       for j in range(m)] for i in range(m)]
    return {d: sum(map(sum, g)) for d, g in inverse.items()}


EULER_CONFIGS = sorted({term[:-1] for term in TOR_POOL}) + [("cycle4", 1, 2, 1, "orthogonal"),
                                                            ("cycle4", 1, 2, 1, "zigzag")]


@pytest.mark.parametrize("config", EULER_CONFIGS, ids=lambda config: "-".join(map(str, config)))
def test_tor_euler_characteristic_is_the_inverse_hilbert_series(config):
    """sum_q (-1)^q dim Tor_q(d) is the entry sum of the degree d
    coefficient of H_A(t)^-1, the Euler characteristic of the minimal
    resolutions of the vertex modules, for q <= 8. Tor_q lives in degrees
    >= q g, g the least generator degree, so the sum is complete for
    d <= 8 g. H_A is read from the table, not from the presentation."""
    graph, n, k, h, preset = config
    graph = {"A2": A2, "triangle": TRIANGLE, "cycle4": CYCLE4}[graph]
    A = build_configuration_algebra(graph, n, k, h, preset)
    m = len(graph.vertices)
    top = max(A.poincare())
    pres = configuration_presentation(graph, n, k, h, preset, 8 * top + max(k, h))
    cap = 8 * min(g.deg for g in pres.generators)
    euler = {}
    for q in range(9):
        for d, dim in tor_term(pres, q).dims().items():
            euler[d] = euler.get(d, 0) + (-1) ** q * dim
    want = _inverse_series_sums(_matrix_hilbert_series(A, m, cap), m, cap)
    assert {d: euler.get(d, 0) for d in range(cap + 1)} == want


@pytest.mark.parametrize("pres,q", [case[1:] for case in TOR_CASES],
                         ids=[case[0] for case in TOR_CASES])
def test_normal_words_count_the_relation_closure(pres, q):
    """dim T(V)/I from the Groebner basis's normal words, counted by state,
    equals in every degree up to the truncation the dimension of the ideal
    engine's quotient, and the number of composable words that contain no
    tip of the basis, each word listed and searched."""
    basis = groebner._GroebnerBasis(pres)
    closure = _relation_closure(pres)
    dims = [basis.dim(d) for d in range(pres.truncation + 1)]
    assert dims == [closure_dim(closure, d) for d in range(pres.truncation + 1)]
    tips = set(basis.tails)

    def normal(word):
        return not any(word[i:j] in tips for i in range(len(word))
                       for j in range(i + 1, len(word) + 1))

    assert dims[1:] == [sum(map(normal, word_basis(pres, d)))
                        for d in range(1, pres.truncation + 1)]


def _braid_presentation(truncation):
    """k<x, y>/(x y x - y x y): its Groebner basis is infinite, the tips
    x y x and x y^n x y for n >= 2, so T(V)/I is infinite dimensional."""
    return TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
                              (((("x", "y", "x"), ONE), (("y", "x", "y"), -ONE)),), truncation)


@pytest.mark.parametrize("truncation", [16, 24, 64])
def test_braid_refusal_keeps_its_text_and_at_most_one_state_per_tip_prefix(
        monkeypatch, tmp_path, capsys, truncation):
    """The tips grow with the degree, so the normal words' first letters
    would have to be whole words; counted by state, no degree keeps more
    than (proper tip prefixes + 1) x (generators) counts."""
    pres = _braid_presentation(truncation)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(presentation_to_json_dict(pres)))
    built = _recorded_instances(monkeypatch, groebner, "_TipIndex")
    assert dispatch(["tor", "--pres", str(path), "--q", "2"]) == 2
    assert capsys.readouterr() == ("", "input error: cannot certify finite dimensionality "
                                   "within the truncation; increase truncation (no nilpotence "
                                   "window found)\n")
    (index,) = built
    tips = list(index.tails)
    assert sorted(tips, key=len) == [("x", "y", "x")] + [
        ("x",) + ("y",) * n + ("x", "y") for n in range(2, truncation - 2)]
    prefixes = {tip[:i] for tip in tips for i in range(1, len(tip))}
    assert sorted(index.counts) == list(range(1, truncation + 1))
    assert max(map(len, index.counts.values())) <= (len(prefixes) + 1) * 2


@pytest.mark.parametrize("graph,nkh,q,truncation,expected", [
    (A2, (2, 2, 2), 8, 34, {16: 110, 18: 218, 20: 146, 22: 36, 24: 2}),
    (TRIANGLE, (1, 2, 1), 6, 14, {6: 192, 7: 576, 8: 720, 9: 480, 10: 180, 11: 36, 12: 3}),
    (CYCLE4, (1, 2, 1), 8, 18,
     {8: 1024, 9: 4096, 10: 7168, 11: 7168, 12: 4480, 13: 1792, 14: 448, 15: 64, 16: 4}),
], ids=["A2-2-2-2-q8", "triangle-1-2-1-q6", "cycle4-1-2-1-q8"])
def test_anick_route_reaches_the_baseline_tor_terms(monkeypatch, graph, nkh, q, truncation,
                                                    expected):
    """The Baseline values of the orthogonal presets: the first two are out
    of reach of the ideal engine in a test (17.9 and 15.5 s on a 2-core
    x86-64 host), the third is the README's 26244 chains (the sum of its
    dims). The cost is counted: each tail's extensions are found once, and
    a chain extends per (tail, degree) state, never one by one."""
    pres = configuration_presentation(graph, *nkh, "orthogonal", truncation)
    tails = []
    real = groebner._TipIndex.extensions

    def record(index, tail):
        if tail not in index.chains:  # found here, not read from the index's memo
            tails.append(tail)
        return real(index, tail)

    monkeypatch.setattr(groebner._TipIndex, "extensions", record)
    assert tor_term(pres, q).dims() == expected
    # the tails are the generators and the proper suffixes of the tips
    tips = _groebner_basis(pres, truncation)
    assert len(tails) == len(set(tails)) <= len(pres.generators) + sum(len(w) - 1 for w in tips)


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
        assert min(tor_term(pres, q).degrees()) >= tor_bound(mu, nu, q)


def _one_generator(relations, truncation=12, deg=1):
    rels = tuple(tuple((("t",) * power, c) for power, c in rel) for rel in relations)
    return TensorPresentation(1, (Generator("t", 1, 1, deg),), rels, truncation)


# (id, presentation, the tips of its Groebner basis, all with an empty tail,
# the tor command's exit codes for q = 1..4)
PARITY_CASES = [
    ("2w-w", _one_generator([((3, 2), (3, -1))]), {("t",) * 3}, [0, 0, 0, 0]),
    ("w-w", _one_generator([((3, 1), (3, -1))]), set(), [0, 2, 2, 2]),  # k[t]: no window
    ("duplicated-tip", _one_generator([((3, 1),), ((3, 1),)]), {("t",) * 3}, [0, 0, 0, 0]),
    ("tip-inside-a-tip", _one_generator([((4, 1),), ((3, 1),)]), {("t",) * 3}, [0, 0, 0, 0]),
    ("no-relations", _one_generator([]), set(), [0, 2, 2, 2]),
    ("truncation-60", _one_generator([((3, 1),)], truncation=60), {("t",) * 3}, [0, 0, 0, 0]),
    ("one-letter-relation",
     TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 2)),
                        (((("y",), ONE),), ((("x", "x", "x"), ONE),)), 12),
     {("y",), ("x", "x", "x")}, [0, 0, 0, 0]),
    ("past-the-truncation", single_generator_presentation(2, 2, truncation=10), {("t",) * 3},
     [0, 0, 2, 2]),  # Tor_3 needs degree 3 * 4 = 12
    ("generator-above-the-truncation",
     TensorPresentation(1, (Generator("t", 1, 1, 1), Generator("s", 1, 1, 3)),
                        (((("t", "t"), ONE),),), 2), {("t", "t")}, [2, 2, 2, 2]),
]


@pytest.mark.parametrize("pres,tips", [case[1:3] for case in PARITY_CASES],
                         ids=[case[0] for case in PARITY_CASES])
def test_parity_cases_have_word_bases_and_refuse_alike(pres, tips):
    """Each case's Groebner basis is a set of words: equal words are summed
    (2w - w is w, w - w is 0), a duplicated tip is one tip, a word that
    contains a tip reduces to 0, and a one-letter relation is a one-letter
    tip that removes its generator. tor_term gives the Butler-King result
    or refusal."""
    assert _groebner_basis(pres, pres.truncation) == {tip: {} for tip in tips}
    for q in range(1, 5):
        assert _outcome(tor_term, pres, q) == _outcome(butler_king_tor, pres, q)


@pytest.mark.parametrize("pres,codes", [case[1::2] for case in PARITY_CASES],
                         ids=[case[0] for case in PARITY_CASES])
def test_tor_command_pins_exit_codes_and_output(tmp_path, capsys, pres, codes):
    """The tor command's exit code for q = 1..4, and its output: on exit 0
    the Butler-King dims on stdout and nothing on stderr, on exit 2 nothing
    on stdout and the Butler-King refusal on stderr."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(presentation_to_json_dict(pres)))
    for q, code in enumerate(codes, 1):
        assert dispatch(["tor", "--pres", str(path), "--q", str(q)]) == code
        out, err = capsys.readouterr()
        want = _outcome(butler_king_tor, pres, q)
        if code == 0:
            assert err == "" and json.loads(out)["result"]["dims"] == [
                {"degree": d, "dim": n} for d, n in sorted(want.items())]
        else:
            assert out == "" and err == f"input error: {want[len('refused: '):]}\n"


def _minimal_truncation(make, q):
    """The least truncation at which tor_term(make(truncation), q) runs:
    below it the relations or Tor_q do not fit."""
    for truncation in itertools.count():
        try:
            tor_term(make(truncation), q)
            return truncation
        except InputValidationError:
            pass


def _recorded_instances(monkeypatch, module, name):
    """The instances of the class module.<name> built from now on."""
    built = []

    class Recorded(getattr(module, name)):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(module, name, Recorded)
    return built


def _states_built(built):
    return sum(len(states) for index in built for states in index.counts.values())


@pytest.mark.parametrize("make,q", [
    (lambda t: configuration_presentation(A2, 2, 2, 2, "orthogonal", t), 3),
    (lambda t: configuration_presentation(TRIANGLE, 1, 2, 1, "orthogonal", t), 2),
    (lambda t: single_generator_presentation(2, 2, t), 4),
], ids=["A2-2-2-2-q3", "triangle-1-2-1-q2", "single-2-2-q4"])
def test_anick_route_materializes_as_many_words_at_any_truncation(monkeypatch, make, q):
    """The Anick route reads T(V)/I no further than the zero window that
    certifies maxdeg, so a larger truncation adds no word (it counts the
    normal words by state, see _TipIndex.states)."""
    minimal = _minimal_truncation(make, q)
    built = _recorded_instances(monkeypatch, groebner, "_TipIndex")
    counts, dims = [], []
    for truncation in (minimal, minimal + 8):
        built.clear()
        dims.append(tor_term(make(truncation), q).dims())
        counts.append(_states_built(built))
    assert dims[0] == dims[1] and counts[0] == counts[1] > 0


def _words_materialized(pres):
    return sum(len(words) for words in _context(pres)._by_degree.values())


# the zigzag presentations of the tor-config-q pool, and the Baseline rows of
# the (1, 2, 1) zigzag Tor_3 at truncation 14, the minimal truncation 6 + 8
ZIGZAG_CASES = [(graph, (n, k, h), q, None)
                for graph, n, k, h, preset, q in TOR_POOL if preset == "zigzag"]
ZIGZAG_CASES += [("triangle", (1, 2, 1), 3, {3: 12}), ("cycle4", (1, 2, 1), 3, {3: 16})]


@pytest.mark.parametrize("graph,nkh,q,expected", ZIGZAG_CASES,
                         ids=["-".join(map(str, (g, *nkh, q))) for g, nkh, q, _ in ZIGZAG_CASES])
def test_butler_king_route_materializes_as_many_words_at_any_truncation(monkeypatch, graph, nkh,
                                                                        q, expected):
    """The Butler-King route, the tests' reference, reads T(V)/I no further
    than the zero window that certifies maxdeg and d_need = q maxdeg, so a
    larger truncation changes neither Tor_q, nor the blocks of I up to
    d_need, nor the number of words materialized (each run starts from a
    cold word cache)."""
    graph = {"A2": A2, "triangle": TRIANGLE, "cycle4": CYCLE4}[graph]
    d_need = q * max(build_configuration_algebra(graph, *nkh, "zigzag").poincare())
    minimal = _minimal_truncation(
        lambda t: configuration_presentation(graph, *nkh, "zigzag", t), q)
    closures = _recorded_instances(monkeypatch, presentations, "_Closure")
    runs = []
    for truncation in (minimal, minimal + 8):
        _context.cache_clear()
        closures.clear()
        pres = configuration_presentation(graph, *nkh, "zigzag", truncation)
        dims = butler_king_tor(pres, q).dims()
        ideal = closures[0]
        assert ideal.sides == (True, False) and ideal.reached >= d_need
        blocks = {key: rows for key, rows in ideal.blocks.items() if key[0] <= d_need}
        runs.append((dims, blocks, _words_materialized(pres)))
    assert runs[0] == runs[1] and runs[0][1] and runs[0][2] > 0
    if expected is not None:
        assert (minimal + 8, runs[0][0]) == (14, expected)


def test_anick_route_refuses_an_infinite_algebra_by_prefixes_not_words(monkeypatch):
    """k<x, y>/(x x) has a Fibonacci number of normal words in each degree,
    about 10^106 in degree 512, the tor command's default truncation cap.
    Counted by state, (last letter, longest suffix that is a proper prefix
    of the tip x x), the refusal keeps two per degree: (x, (x,)) and
    (y, ())."""
    pres = TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
                              (((("x", "x"), ONE),),), 512)
    built = _recorded_instances(monkeypatch, groebner, "_TipIndex")
    with pytest.raises(TruncationError, match="no nilpotence window"):
        tor_term(pres, 2)
    assert _states_built(built) == 2 * 512
    assert set(built[-1].counts[512]) == {("x", ("x",)), ("y", ())}


def test_tor_command_refuses_a_non_monomial_input_without_a_window_from_normal_words(
        monkeypatch, tmp_path, capsys):
    """k<x, y>/(x x - y y) is infinite dimensional. Its Groebner basis is
    {x x, x y y}, so it has about two normal words per degree, and the
    refusal at truncation 40 counts them without materializing T(V)_d,
    which has 2^d words."""
    pres = TensorPresentation(1, (Generator("x", 1, 1, 1), Generator("y", 1, 1, 1)),
                              (((("x", "x"), ONE), (("y", "y"), -ONE)),), 40)
    assert _groebner_basis(pres, 40) == {("x", "x"): {("y", "y"): 1},
                                         ("x", "y", "y"): {("y", "y", "x"): 1}}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(presentation_to_json_dict(pres)))

    def refuse(*args, **kwargs):
        raise AssertionError("a word space was materialized")

    monkeypatch.setattr(presentations, "_WordContext", refuse)
    code = dispatch(["tor", "--pres", str(path), "--q", "2"])
    assert code == 2
    assert "no nilpotence window" in capsys.readouterr().err


@pytest.mark.parametrize("nkh", [(2, 2, 1), (3, 2, 2)], ids=["2-2-1", "3-2-2"])
def test_zigzag_needs_two_h_over_k_equal_to_n_on_both_builders(nkh):
    """With 2h/k < n, (a_ji a_ij) t_i = t_i^(2h/k + 1) would not be 0 in the
    table but a_ji (a_ij t_i) = 0: the table would not be associative, and
    the relations would present a smaller algebra. Both builders refuse by
    the same rule, with the same text."""
    with pytest.raises(InputValidationError) as table:
        build_configuration_algebra(A2, *nkh, "zigzag")
    with pytest.raises(InputValidationError) as relations:
        configuration_presentation(A2, *nkh, "zigzag", 12)
    assert "2h/k = n" in str(table.value) and str(table.value) == str(relations.value)


# -- the certificates' bound on mindeg Tor ------------------------------------


def test_mindeg_bound_values():
    # even bound p * mu, with mu = h + k
    h, k = 2, 2
    assert tor_bound(h + k, k, 4) == 2 * (h + k)
    # spherelike shape mu = 2h, nu = h
    assert tor_bound(4, 2, 4) == 8
    assert tor_bound(2, 1, 3) == 3
    assert _tor_mindeg_bound("even", 4, 2) == {"slope": 4, "intercept": 0}
    assert _tor_mindeg_bound("odd", 4, 2) == {"slope": 4, "intercept": 2}


def test_mindeg_affine_branches():
    # the dropped even branch 2 nu + (p-1) mu never exceeds the bound
    for nu in range(1, 6):
        for mu in range(2 * nu, 13):
            for p in range(11):
                assert 2 * nu + (p - 1) * mu <= tor_bound(mu, nu, 2 * p)


def test_mindeg_bound_respected_by_concrete_tor():
    pres = a2_pres(n=2, k=2, h=2, truncation=12)
    I = ideal_from_relations(pres)
    J = augmentation_ideal(pres)
    mu = min(dims_by_degree(I))
    nu = min(dims_by_degree(J))
    for q in (2, 3):
        space = tor_term(pres, q)
        if not space.is_zero():
            assert min(space.degrees()) >= tor_bound(mu, nu, q)


# (family, graph, (n, k, h), preset, the certificate): instances that satisfy
# the certificate's hypotheses; a spherical instance has n = 1 and an arrow
# degree h in [h_min, h_max]
CERTIFIED_INSTANCES = [
    ("pn", A2, (2, 2, 2), "orthogonal", certify_config_pn(2, 2, 2)),
    ("pn", A2, (2, 2, 2), "zigzag", certify_config_pn(2, 2, 2)),
    ("pn", A2, (2, 2, 4), "orthogonal", certify_config_pn(2, 2, 4)),
    ("pn", TRIANGLE, (2, 2, 2), "orthogonal", certify_config_pn(2, 2, 2)),
    ("spherical", A2, (1, 4, 2), "orthogonal", certify_config_spherical(4, 2, 4)),
    ("spherical", A2, (1, 4, 3), "orthogonal", certify_config_spherical(4, 2, 4)),
    ("spherical", A2, (1, 4, 2), "zigzag", certify_config_spherical(4, 2, 2)),
    ("spherical", TRIANGLE, (1, 4, 4), "orthogonal", certify_config_spherical(4, 4, 4)),
]


@pytest.mark.parametrize("graph,nkh,preset,cert", [case[1:] for case in CERTIFIED_INSTANCES],
                         ids=["-".join(map(str, (c[0], len(c[1].vertices), *c[2], c[3])))
                              for c in CERTIFIED_INSTANCES])
def test_certificate_degree_bounds_are_below_computed_tor(graph, nkh, preset, cert):
    """The rhs of every DegreeBound item a certificate emits, at each
    q <= 8 of its parity, is at most the least degree of the computed
    Tor_q, and it is the bound formality's helper gives for the subject's
    mindeg data."""
    assert cert.verdict == "CertifiedFormal" and not cert.failed_hypotheses()
    subject = cert.subject
    mu = subject["mindeg_I_bound"]
    nu = subject.get("mindeg_J", subject.get("mindeg_J_bound"))
    n, k, h = nkh
    pres = configuration_presentation(graph, n, k, h, preset, 8 * max(n * k, h) + max(k, h))
    items = [item for item in cert.evidence if item["method"] == "DegreeBound"]
    assert {item["covers"]["parity"] for item in items} == {"even", "odd"}
    checked = 0
    for q in range(1, 9):
        space = tor_term(pres, q)
        for item in items:
            parity = item["covers"]["parity"]
            if parity != ("odd" if q % 2 else "even"):
                continue
            assert item["rhs"] == _tor_mindeg_bound(parity, mu, nu)
            assert _affine_at(item["rhs"], q // 2) <= min(space.degrees())
            checked += 1
    assert checked >= 8


def test_configuration_presentation_refuses_an_unknown_preset():
    with pytest.raises(InputValidationError, match="unknown preset"):
        build_configuration_algebra(TRIANGLE, 1, 2, 1, "zigzg")
    with pytest.raises(InputValidationError, match="unknown preset 'zigzg'"):
        configuration_presentation(TRIANGLE, 1, 2, 1, "zigzg", 6)


@pytest.mark.parametrize("preset", ["orthogonal", "zigzag"])
@pytest.mark.parametrize("nkh", [(0, 2, 1), (2, 0, 1), (2, 2, 0), (-1, 2, 1), (1, -2, -1)])
@pytest.mark.parametrize("builder", ["table", "presentation"])
def test_configuration_builders_need_positive_n_k_h(builder, nkh, preset):
    # (2, 0, 1) zigzag divided by k = 0, and (0, 2, 1) orthogonal presented
    # the relations t_i^1 before the presentation builder checked them
    with pytest.raises(InputValidationError) as err:
        if builder == "table":
            build_configuration_algebra(A2, *nkh, preset)
        else:
            configuration_presentation(A2, *nkh, preset, 6)
    assert str(err.value) == "configuration algebra needs n, k, h >= 1"


def test_configuration_presentation_needs_a_preset_and_a_truncation():
    # every configuration has relations of positive degree, so no default
    # truncation could work
    with pytest.raises(TypeError):
        configuration_presentation(A2, 2, 2, 2)
    with pytest.raises(TypeError):
        configuration_presentation(A2, 2, 2, 2, "orthogonal")
    assert configuration_presentation(A2, 2, 2, 2, "orthogonal", 6).truncation == 6


# a 10-cycle, listed out of order: its arrow labels need the a{i}_{j} form
CYCLE10 = ConfigGraph.make([3, 1, 2, 4, 5, 6, 7, 8, 9, 10],
                           [(i, i % 10 + 1) for i in range(1, 11)])


@pytest.mark.parametrize("preset", ["orthogonal", "zigzag"])
def test_table_and_presentation_read_one_quiver_on_ten_vertices(preset):
    """The table's loops t_i and arrows, in basis order and with their
    blocks, are the presentation's generators, in order."""
    A = build_configuration_algebra(CYCLE10, 1, 2, 1, preset)
    pres = configuration_presentation(CYCLE10, 1, 2, 1, preset, 6)
    blocks = block_structure(A)
    table = [(lab, src + 1, tgt + 1, d) for lab, d in A.basis if d > 0
             for src, tgt in [blocks[lab]]]
    assert table == [(g.label, g.src, g.tgt, g.deg) for g in pres.generators]
    arrows = [g.label for g in pres.generators if g.src != g.tgt]
    # indices follow the listing: vertex 3 is index 1 and vertex 1 index 2
    assert len(arrows) == 20 and arrows[:3] == ["a1_3", "a1_4", "a2_3"]
    assert "a2_10" in arrows and "a1_2" not in arrows


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
    assert _window_maxdeg(pres, lambda d: closure_dim(_relation_closure(pres), d)) == 0
    assert tor_term(pres, 0).dims() == {0: 2}
    assert [tor_term(pres, q).is_zero() for q in (1, 2, 3)] == [True, True, True]
