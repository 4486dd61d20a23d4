import itertools
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from formalitykit.configurations import (
    MAX_POWER,
    ConfigGraph,
    PoincarePolynomial,
    graded_power,
    kunneth_hom,
    normalize_shifts,
    normalized_edge_degrees,
    sign_assignment,
)
from formalitykit.errors import InputValidationError, ResourceCapError
from formalitykit.fields import FieldSpec, RATIONALS
from formalitykit.linalg import rank_rows
from test_linalg import sparse


# -- brute force oracle for graded powers -----------------------------------


def _perm_matrix(degrees, sigma):
    """Koszul signed action of sigma on the tensor power basis, built from
    adjacent transpositions (bubble decomposition)."""
    n = len(sigma)
    basis = list(itertools.product(range(len(degrees)), repeat=n))
    index = {t: i for i, t in enumerate(basis)}
    mat = {i: {i: Fraction(1)} for i in range(len(basis))}

    # bubble sort sigma into the identity, recording adjacent swaps
    swaps = []
    s = list(sigma)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if s[i] > s[i + 1]:
                s[i], s[i + 1] = s[i + 1], s[i]
                swaps.append(i)
                changed = True
    # applying the recorded swaps in reverse order realizes sigma
    out = {}
    for col, t in enumerate(basis):
        vec = {t: Fraction(1)}
        for i in reversed(swaps):
            new = {}
            for tt, c in vec.items():
                sign = Fraction(-1) ** (degrees[tt[i]] * degrees[tt[i + 1]])
                swapped = tt[: i] + (tt[i + 1], tt[i]) + tt[i + 2 :]
                new[swapped] = new.get(swapped, Fraction(0)) + c * sign
            vec = new
        out[col] = {index[tt]: c for tt, c in vec.items()}
    return basis, out


def _parity(sigma):
    n = len(sigma)
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


def brute_force_power(degrees, n, kind):
    """Dimensions of the (anti)symmetrizer image on the signed tensor power."""
    if n == 0:
        return {0: 1}
    basis = list(itertools.product(range(len(degrees)), repeat=n))
    size = len(basis)
    acc = [[Fraction(0)] * size for _ in range(size)]
    count = 0
    for sigma in itertools.permutations(range(n)):
        count += 1
        _, cols = _perm_matrix(degrees, sigma)
        coeff = Fraction(1) if kind == "symmetric" else Fraction(_parity(sigma))
        for col, vec in cols.items():
            for row, c in vec.items():
                acc[row][col] += coeff * c
    scale = Fraction(1, count)
    proj = [[x * scale for x in row] for row in acc]
    # restrict to each total degree block and take ranks
    dims = {}
    degree_of = {i: sum(degrees[j] for j in t) for i, t in enumerate(basis)}
    for d in sorted(set(degree_of.values())):
        cols = [i for i in range(size) if degree_of[i] == d]
        block = [[proj[r][c] for c in cols] for r in range(size)]
        rk = rank_rows(sparse(block), RATIONALS)
        if rk:
            dims[d] = rk
    return dims


@pytest.mark.parametrize("kind", ["symmetric", "exterior"])
@pytest.mark.parametrize(
    "degrees",
    [(1,), (2,), (0, 1), (1, 2), (2, 3), (1, 1), (0, 1, 2), (1, 2, 3)],
)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_graded_power_matches_brute_force(kind, degrees, n):
    poly = PoincarePolynomial.make(
        {d: sum(1 for x in degrees if x == d) for d in set(degrees)}
    )
    fast = graded_power(poly, n, kind).dims()
    slow = brute_force_power(list(degrees), n, kind)
    assert fast == slow


def test_symmetric_power_of_odd_line_vanishes():
    for m in (1, 3, 5):
        for n in (2, 3, 4):
            assert graded_power(PoincarePolynomial.line(m), n, "symmetric").is_zero()


def test_symmetric_power_of_spherelike_is_truncated_poly_poincare():
    for k in (2, 4):
        for n in (2, 3, 4):
            P = PoincarePolynomial.make({0: 1, k: 1})
            out = graded_power(P, n, "symmetric").dims()
            assert out == {j * k: 1 for j in range(n + 1)}


def test_exterior_square_keeps_odd_square():
    out = graded_power(PoincarePolynomial.make({1: 1, 2: 1}), 2, "exterior").dims()
    assert out == {2: 1, 3: 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kunneth_hom_line_table(m, n):
    line = PoincarePolynomial.line(m)
    same = kunneth_hom(line, n, True)
    diff = kunneth_hom(line, n, False)
    if m % 2 == 0:
        assert same.dims() == {n * m: 1}
        assert diff.is_zero()
    else:
        assert same.is_zero()
        assert diff.dims() == {n * m: 1}


def test_kunneth_first_power_is_identity():
    P = PoincarePolynomial.make({0: 1, 3: 2})
    assert kunneth_hom(P, 1, True).dims() == P.dims()
    assert kunneth_hom(P, 1, False).dims() == P.dims()


@pytest.mark.parametrize("dims", [{2: 2.5}, {2.5: 1}, {2: True}, {True: 1}, {"2": 1}, {2: -1}])
def test_poincare_table_needs_integer_degrees_and_dimensions(dims):
    with pytest.raises(InputValidationError):
        PoincarePolynomial.make(dims)


def _power_per_unit(P, n, kind):
    """The z^n coefficient of the product of one series per unit of
    multiplicity: 1/(1 - z t^m) for a free generator of degree m, 1 + z t^m
    for one that squares to zero."""
    acc = [{0: 1}] + [{} for _ in range(n)]
    for m, mult in P.dims().items():
        free = (m % 2 == 0) == (kind == "symmetric")
        for _ in range(mult):
            out = [{} for _ in range(n + 1)]
            for i, ca in enumerate(acc):
                for j in range(n - i + 1 if free else min(1, n - i) + 1):
                    for d, v in ca.items():
                        out[i + j][d + m * j] = out[i + j].get(d + m * j, 0) + v
            acc = out
    return {d: v for d, v in acc[n].items() if v}


def test_graded_power_matches_one_series_per_unit_of_multiplicity(rng):
    for _ in range(200):
        P = PoincarePolynomial.make({rng.randint(-3, 6): rng.randint(1, 5)
                                     for _ in range(rng.randint(0, 4))})
        n, kind = rng.randint(0, 6), rng.choice(["symmetric", "exterior"])
        assert graded_power(P, n, kind).dims() == _power_per_unit(P, n, kind)


def test_graded_power_of_a_huge_multiplicity_is_a_binomial():
    # 10^12 generators: the cost follows the degrees of P, not the multiplicity
    r = 10 ** 12
    assert graded_power(PoincarePolynomial.make({2: r}), 3, "symmetric").dims() == \
        {6: (r + 2) * (r + 1) * r // 6}
    assert graded_power(PoincarePolynomial.make({1: r}), 3, "symmetric").dims() == \
        {3: r * (r - 1) * (r - 2) // 6}
    assert graded_power(PoincarePolynomial.make({1: 2}), 3, "symmetric").is_zero()


def test_graded_power_refuses_an_index_above_the_cap():
    assert graded_power(PoincarePolynomial.line(2), MAX_POWER).dims() == {2 * MAX_POWER: 1}
    for n in (MAX_POWER + 1, 10 ** 9, 10 ** 18):
        with pytest.raises(ResourceCapError) as err:
            graded_power(PoincarePolynomial.line(2), n)
        assert str(err.value) == f"power index n = {n} exceeds the cap of {MAX_POWER}"


def test_characteristic_guard():
    P = PoincarePolynomial.line(2)
    with pytest.raises(InputValidationError):
        graded_power(P, 3, "symmetric", FieldSpec(kind="fp", p=3))
    assert graded_power(P, 3, "symmetric", FieldSpec(kind="fp", p=5)).dims() == {6: 1}


# -- shift normalization ------------------------------------------------------


def test_normalize_two_vertex_tree():
    g = ConfigGraph.make(["1", "2"], [{"u": "1", "v": "2", "a_uv": 3, "a_vu": 1}])
    res = normalize_shifts(g, 4)
    assert res.feasible
    assert res.shifts == {"1": 0, "2": 1}
    assert set(normalized_edge_degrees(g, res.shifts).values()) == {2}


def test_normalize_single_vertex():
    g = ConfigGraph.make(["v"], [])
    res = normalize_shifts(g, 6)
    assert res.feasible and res.shifts == {"v": 0}


def test_normalize_rejects_duality_violation():
    g = ConfigGraph.make(["1", "2"], [{"u": "1", "v": "2", "a_uv": 3, "a_vu": 2}])
    with pytest.raises(InputValidationError):
        normalize_shifts(g, 4)


def test_normalize_rejects_odd_total_degree():
    g = ConfigGraph.make(["1"], [])
    with pytest.raises(InputValidationError):
        normalize_shifts(g, 5)


def test_normalize_cycle_with_holonomy_witness():
    # directed degrees sum to 3h + 1 around the triangle
    g = ConfigGraph.make(
        [1, 2, 3],
        [
            {"u": 1, "v": 2, "a_uv": 3, "a_vu": 1},
            {"u": 2, "v": 3, "a_uv": 3, "a_vu": 1},
            {"u": 3, "v": 1, "a_uv": 1, "a_vu": 3},
        ],
    )
    res = normalize_shifts(g, 4)
    assert not res.feasible
    cyc = res.witness_cycle
    assert cyc[0] == cyc[-1] and set(cyc) == {1, 2, 3}


def test_normalize_consistent_cycle_succeeds():
    g = ConfigGraph.make(
        [1, 2, 3],
        [
            {"u": 1, "v": 2, "a_uv": 3, "a_vu": 1},
            {"u": 2, "v": 3, "a_uv": 3, "a_vu": 1},
            {"u": 3, "v": 1, "a_uv": 0, "a_vu": 4},
        ],
    )
    res = normalize_shifts(g, 4)
    assert res.feasible and res.uses_cycle_extension
    assert set(normalized_edge_degrees(g, res.shifts).values()) == {2}


def _random_tree(rng, size, nk):
    vertices = list(range(size))
    edges = []
    for v in range(1, size):
        u = rng.randrange(v)
        a_uv = rng.randint(-2, nk + 2)
        edges.append({"u": u, "v": v, "a_uv": a_uv, "a_vu": nk - a_uv})
    return ConfigGraph.make(vertices, edges)


def test_normalize_random_trees(rng):
    for _ in range(20):
        size = rng.randint(2, 10)
        nk = rng.choice([4, 6, 8])
        g = _random_tree(rng, size, nk)
        res = normalize_shifts(g, nk)
        assert res.feasible
        degrees = normalized_edge_degrees(g, res.shifts)
        assert set(degrees.values()) == {nk // 2} or not g.edges


# -- sign assignment ----------------------------------------------------------


def test_sign_chain_all_odd():
    g = ConfigGraph.make([1, 2, 3], [{"u": 1, "v": 2, "d": 1}, {"u": 2, "v": 3, "d": 1}])
    res = sign_assignment(g)
    assert res.feasible
    assert [res.signs[v] for v in (1, 2, 3)] == [1, -1, 1]


def test_sign_even_cycle_feasible():
    g = ConfigGraph.make(
        [1, 2, 3, 4],
        [
            {"u": 1, "v": 2, "d": 1},
            {"u": 2, "v": 3, "d": 1},
            {"u": 3, "v": 4, "d": 1},
            {"u": 4, "v": 1, "d": 1},
        ],
    )
    res = sign_assignment(g)
    assert res.feasible
    assert [res.signs[v] for v in (1, 2, 3, 4)] == [1, -1, 1, -1]


def test_sign_odd_cycle_witness():
    g = ConfigGraph.make(
        [1, 2, 3],
        [{"u": 1, "v": 2, "d": 1}, {"u": 2, "v": 3, "d": 1}, {"u": 3, "v": 1, "d": 1}],
    )
    res = sign_assignment(g)
    assert not res.feasible
    assert res.witness_cycle[0] == res.witness_cycle[-1]
    assert set(res.witness_cycle) == {1, 2, 3}


def _all_cycles_even(graph):
    """Independent predicate: every simple cycle has even total degree."""
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.u, []).append((e.v, e.d))
        adj.setdefault(e.v, []).append((e.u, e.d))
    verts = list(graph.vertices)

    def dfs(start, node, visited, parity):
        for nxt, d in adj.get(node, []):
            if nxt == start and len(visited) >= 3:
                if (parity + d) % 2 == 1:
                    return False
            elif nxt not in visited and verts.index(nxt) > verts.index(start):
                if not dfs(start, nxt, visited | {nxt}, parity + d):
                    return False
        return True

    return all(dfs(v, v, {v}, 0) for v in verts)


@st.composite
def small_labeled_graph(draw):
    size = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(size), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    edges = [
        {"u": u, "v": v, "d": draw(st.integers(0, 3))} for (u, v) in chosen
    ]
    return ConfigGraph.make(list(range(size)), edges)


@given(small_labeled_graph())
def test_sign_feasibility_matches_cycle_parity_predicate(graph):
    res = sign_assignment(graph)
    assert res.feasible == _all_cycles_even(graph)
    if res.feasible:
        for e in graph.edges:
            assert res.signs[e.u] * res.signs[e.v] == (-1) ** (e.d % 2)


def test_signs_then_kunneth_rebuilds_one_dimensional_tree_homs():
    edges = [
        {"u": 1, "v": 2, "d": 1},
        {"u": 2, "v": 3, "d": 2},
        {"u": 2, "v": 4, "d": 3},
    ]
    g = ConfigGraph.make([1, 2, 3, 4], edges)
    res = sign_assignment(g)
    assert res.feasible
    n = 3
    for e in g.edges:
        same = res.signs[e.u] == res.signs[e.v]
        out = kunneth_hom(PoincarePolynomial.line(e.d), n, same)
        assert out.dims() == {n * e.d: 1}


def test_graph_validation():
    with pytest.raises(InputValidationError):
        ConfigGraph.make([1], [(1, 1)])
    with pytest.raises(InputValidationError):
        ConfigGraph.make([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(InputValidationError):
        ConfigGraph.make([1, 1], [])


@pytest.mark.parametrize("vertices", [[1, "1"], ["x", 2, "2"], [True, "True"], [None, "None"],
                                      [1.5, "1.5"]])
def test_vertices_that_print_alike_are_refused(vertices):
    """Reports key vertices by their text, so two vertices that print alike
    would share one entry."""
    with pytest.raises(InputValidationError, match="print alike"):
        ConfigGraph.make(vertices, [])


@pytest.mark.parametrize("edge", [{"u": [1], "v": 2}, {"u": 1, "v": 2, "d": "x"},
                                  {"u": 1, "v": 2, "a_uv": 1.5, "a_vu": 2}])
def test_graph_edge_needs_scalar_ends_and_integer_degrees(edge):
    with pytest.raises(InputValidationError):
        ConfigGraph.from_json_dict({"vertices": [1, 2], "edges": [edge]})
