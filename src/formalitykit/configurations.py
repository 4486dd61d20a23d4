"""Graph level combinatorics of object configurations.

Covers shift normalization along edges (Serre duality style degree
balancing), parity sign assignments for symmetric power lifts, and
Koszul signed symmetric and exterior powers of Poincare polynomials
realizing the equivariant Kunneth formula.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputValidationError, ResourceCapError
from .fields import FieldSpec
from .record import Record


class EdgeData(Record):
    u: object
    v: object
    a_uv: Optional[int]  # hom degree read u -> v
    a_vu: Optional[int]  # hom degree read v -> u
    d: Optional[int]  # plain hom degree label for sign lifting

    def __init__(self, u, v, a_uv=None, a_vu=None, d=None):
        vars(self).update(u=u, v=v, a_uv=a_uv, a_vu=a_vu, d=d)


class ConfigGraph(Record):
    """Simple graph: at most one edge per vertex pair, no self loops."""

    vertices: Tuple[object, ...]
    edges: Tuple[EdgeData, ...]

    def __init__(self, vertices, edges):
        try:
            seen = set(vertices)
        except TypeError:
            raise InputValidationError("vertices must be scalars") from None
        if len(seen) != len(vertices):
            raise InputValidationError("duplicate vertices")
        # reports key vertices by their text, so two that print alike
        # would share one entry
        printed = {}
        for v in vertices:
            twin = printed.setdefault(str(v), v)
            if twin is not v:
                raise InputValidationError(f"vertices {twin!r} and {v!r} print alike")
        pairs = set()
        for e in edges:
            try:
                known = e.u in seen and e.v in seen
            except TypeError:
                raise InputValidationError(f"edge ({e.u},{e.v}) has a non-scalar end") from None
            if not known:
                raise InputValidationError(f"edge ({e.u},{e.v}) uses unknown vertex")
            if any(x is not None and type(x) is not int for x in (e.a_uv, e.a_vu, e.d)):
                raise InputValidationError(f"edge ({e.u},{e.v}) degrees must be integers")
            if e.u == e.v:
                raise InputValidationError(f"self loop at {e.u}")
            key = frozenset((e.u, e.v))
            if key in pairs:
                raise InputValidationError(f"duplicate edge ({e.u},{e.v})")
            pairs.add(key)
        vars(self).update(vertices=vertices, edges=edges)

    @classmethod
    def make(cls, vertices: Sequence, edges: Sequence) -> "ConfigGraph":
        out_edges = []
        for e in edges:
            if isinstance(e, EdgeData):
                out_edges.append(e)
            elif isinstance(e, Mapping):
                if "u" not in e or "v" not in e:
                    raise InputValidationError(f"edge {e!r} needs 'u' and 'v'")
                out_edges.append(
                    EdgeData(
                        e["u"],
                        e["v"],
                        e.get("a_uv"),
                        e.get("a_vu"),
                        e.get("d"),
                    )
                )
            else:
                try:
                    u, v = e
                except (TypeError, ValueError):
                    raise InputValidationError(
                        f"edge {e!r} is neither a (u, v) pair nor an object with 'u' and 'v'"
                    ) from None
                out_edges.append(EdgeData(u, v))
        return cls(tuple(vertices), tuple(out_edges))

    def adjacency(self) -> Dict[object, List[Tuple[object, EdgeData]]]:
        adj: Dict[object, List[Tuple[object, EdgeData]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append((e.v, e))
            adj[e.v].append((e.u, e))
        return adj

    def has_cycles(self) -> bool:
        comps = 0
        seen = set()
        adj = self.adjacency()
        for root in self.vertices:
            if root in seen:
                continue
            comps += 1
            stack = [root]
            seen.add(root)
            while stack:
                x = stack.pop()
                for y, _ in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return len(self.edges) > len(self.vertices) - comps

    def to_json_dict(self) -> dict:
        edges = []
        for e in self.edges:
            entry = {"u": e.u, "v": e.v}
            if e.a_uv is not None:
                entry["a_uv"] = e.a_uv
            if e.a_vu is not None:
                entry["a_vu"] = e.a_vu
            if e.d is not None:
                entry["d"] = e.d
            edges.append(entry)
        return {"vertices": list(self.vertices), "edges": edges}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConfigGraph":
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise InputValidationError("graph JSON needs 'vertices' and 'edges'")
        if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
            raise InputValidationError("graph JSON 'vertices' and 'edges' must be lists")
        return cls.make(data["vertices"], data["edges"])


def _check_configuration(n: int, k: int, h: int, preset) -> None:
    """The parameters both configuration builders refuse: n, k, h >= 1,
    and for the zigzag preset k | 2h and 2h/k = n. Its relations give
    t_i^(2h/k + 1) = (a_ji a_ij) t_i = a_ji (a_ij t_i) = 0. With 2h/k < n
    they would present a smaller algebra than the table, which keeps
    t_i^(2h/k + 1) non-zero and so is not associative; with 2h/k > n the
    table has no t_i^(2h/k)."""
    if n < 1 or k < 1 or h < 1:
        raise InputValidationError("configuration algebra needs n, k, h >= 1")
    if preset == "zigzag" and ((2 * h) % k != 0 or (2 * h) // k != n):
        raise InputValidationError(
            f"zigzag preset needs k | 2h and 2h/k = n (n={n}, k={k}, h={h})"
        )


class PoincarePolynomial(Record):
    """Finite support degree -> dimension table."""

    coeffs: Tuple[Tuple[int, int], ...]

    def __init__(self, coeffs):
        vars(self).update(coeffs=coeffs)

    @classmethod
    def make(cls, dims: Mapping[int, int]) -> "PoincarePolynomial":
        """The table of dims, zero dimensions dropped; every degree and
        dimension must be an int, and no dimension negative."""
        for d, n in dims.items():
            if type(d) is not int or type(n) is not int:
                raise InputValidationError(f"degree {d!r} and dimension {n!r} must be integers")
            if n < 0:
                raise InputValidationError("negative dimension")
        return cls(tuple((d, dims[d]) for d in sorted(dims) if dims[d]))

    @classmethod
    def line(cls, m: int) -> "PoincarePolynomial":
        """The Poincare polynomial of k[-m]: one dimension in degree m."""
        return cls.make({m: 1})

    def dims(self) -> Dict[int, int]:
        return dict(self.coeffs)

    def dim(self, d: int) -> int:
        return dict(self.coeffs).get(d, 0)

    def degrees(self) -> List[int]:
        return [d for d, _ in self.coeffs]

    def total_dim(self) -> int:
        return sum(n for _, n in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_json_dict(self) -> dict:
        return {"components": [{"degree": d, "dim": n} for d, n in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PoincarePolynomial":
        if not isinstance(data, dict) or not isinstance(data.get("components"), list):
            raise InputValidationError("poincare JSON needs a 'components' list")
        dims: Dict[int, int] = {}
        for c in data["components"]:
            if not isinstance(c, Mapping) or "degree" not in c or "dim" not in c:
                raise InputValidationError(f"poincare component {c!r} needs 'degree' and 'dim'")
            d, n = c["degree"], c["dim"]
            if type(d) is not int or type(n) is not int:
                raise InputValidationError(f"poincare component {c!r} must hold integers")
            dims[d] = dims.get(d, 0) + n
        return cls.make(dims)


# -- shift normalization --------------------------------------------------


class ShiftNormalization(Record):
    feasible: bool
    h: int
    shifts: Optional[Dict[object, int]]
    witness_cycle: Optional[List[object]]
    uses_cycle_extension: bool

    def __init__(self, feasible, h, shifts=None, witness_cycle=None, uses_cycle_extension=False):
        vars(self).update(feasible=feasible, h=h, shifts=shifts, witness_cycle=witness_cycle,
                          uses_cycle_extension=uses_cycle_extension)


def _tree_path(parents: Dict[object, Tuple[object, EdgeData]], x, y) -> List[object]:
    """Path x .. root .. y inside the BFS forest, trimmed at the meeting point."""

    def chain(z):
        out = [z]
        while z in parents:
            z = parents[z][0]
            out.append(z)
        return out

    cx, cy = chain(x), chain(y)
    set_cx = {v: i for i, v in enumerate(cx)}
    meet = next(v for v in cy if v in set_cx)
    up = cx[: set_cx[meet] + 1]
    down = cy[: cy.index(meet)]
    return up + list(reversed(down))


def _propagate(graph: ConfigGraph, root_value, step):
    """Spread one value per vertex over a BFS spanning forest, rooting each
    component at its first vertex in graph order with root_value.

    step(x, e, value at x) is the value edge e forces on x's neighbour.
    Returns (values, None) when every edge agrees, else (None, cycle):
    the first disagreeing edge closes a cycle through the forest, listed
    with its first vertex repeated at the end."""
    adj = graph.adjacency()
    values: Dict[object, object] = {}
    parents: Dict[object, Tuple[object, EdgeData]] = {}
    for root in graph.vertices:
        if root in values:
            continue
        values[root] = root_value
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y, e in adj[x]:
                want = step(x, e, values[x])
                if y not in values:
                    values[y] = want
                    parents[y] = (x, e)
                    queue.append(y)
                elif values[y] != want:
                    cycle = _tree_path(parents, y, x)
                    return None, cycle + [cycle[0]]
    return values, None


def normalize_shifts(graph: ConfigGraph, nk: int) -> ShiftNormalization:
    """Choose per vertex shifts making every edge degree equal to nk/2.

    Every edge must carry both directed degrees with a_uv + a_vu = nk
    (violations are errors, not witnesses). On trees this always succeeds
    with root shift 0; with cycles it succeeds exactly when the signed sum
    of (a_uv - h) around every cycle vanishes, and otherwise the violating
    cycle is returned.
    """
    if nk % 2 != 0:
        raise InputValidationError(f"total degree nk = {nk} must be even")
    h = nk // 2
    for e in graph.edges:
        if e.a_uv is None or e.a_vu is None:
            raise InputValidationError(f"edge ({e.u},{e.v}) is missing a directed degree")
        if e.a_uv + e.a_vu != nk:
            raise InputValidationError(
                f"edge ({e.u},{e.v}) violates duality: {e.a_uv} + {e.a_vu} != {nk}"
            )

    shifts, cycle = _propagate(
        graph, 0, lambda x, e, s: s + (e.a_uv if e.u == x else e.a_vu) - h
    )
    if cycle is not None:
        return ShiftNormalization(False, h, witness_cycle=cycle, uses_cycle_extension=True)
    return ShiftNormalization(True, h, shifts=shifts, uses_cycle_extension=graph.has_cycles())


def normalized_edge_degrees(graph: ConfigGraph, shifts: Mapping[object, int]) -> Dict[Tuple[object, object], int]:
    out = {}
    for e in graph.edges:
        out[(e.u, e.v)] = e.a_uv + shifts[e.u] - shifts[e.v]
        out[(e.v, e.u)] = e.a_vu + shifts[e.v] - shifts[e.u]
    return out


# -- sign assignment -------------------------------------------------------


class SignAssignment(Record):
    feasible: bool
    signs: Optional[Dict[object, int]]
    witness_cycle: Optional[List[object]]
    uses_cycle_extension: bool

    def __init__(self, feasible, signs=None, witness_cycle=None, uses_cycle_extension=False):
        vars(self).update(feasible=feasible, signs=signs, witness_cycle=witness_cycle,
                          uses_cycle_extension=uses_cycle_extension)


def sign_assignment(graph: ConfigGraph) -> SignAssignment:
    """Assign eps in {+1, -1} per vertex with eps_i eps_j = (-1)^(d_ij).

    Exists exactly when every cycle has even total degree parity. Trees
    always succeed; an infeasible instance returns the witness cycle.
    """
    for e in graph.edges:
        if e.d is None:
            raise InputValidationError(f"edge ({e.u},{e.v}) is missing the degree label d")
    signs, cycle = _propagate(graph, 1, lambda x, e, s: s * (-1) ** (e.d % 2))
    if cycle is not None:
        return SignAssignment(False, witness_cycle=cycle, uses_cycle_extension=True)
    return SignAssignment(True, signs=signs, uses_cycle_extension=graph.has_cycles())


# -- Koszul signed powers ---------------------------------------------------


# the largest power index graded_power computes; its z-series has n + 1 terms
MAX_POWER = 1000


def _zpoly_mul(a: List[Dict[int, int]], b: List[Dict[int, int]], n: int) -> List[Dict[int, int]]:
    """Multiply polynomials in z (listed by z degree, truncated at n) whose
    coefficients are degree -> dimension tables."""
    out: List[Dict[int, int]] = [dict() for _ in range(n + 1)]
    for i, ca in enumerate(a):
        if i > n or not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > n or not cb:
                continue
            target = out[i + j]
            for da, va in ca.items():
                for db, vb in cb.items():
                    target[da + db] = target.get(da + db, 0) + va * vb
    return out


def graded_power(
    P: PoincarePolynomial,
    n: int,
    kind: str = "symmetric",
    field_spec: Optional[FieldSpec] = None,
) -> PoincarePolynomial:
    """Koszul rule graded power S^n or Lambda^n of a Poincare polynomial.

    Under the symmetric power, even degree generators multiply freely and
    odd degree generators square to zero; the exterior power swaps the two
    behaviours. The power is the z^n coefficient of the product of one
    series per degree m of P, in closed form for its multiplicity r: the
    free generators give sum_j C(r + j - 1, j) z^j t^(mj), the square-zero
    ones sum_j C(r, j) z^j t^(mj), the product of r copies of 1/(1 - z t^m)
    or of 1 + z t^m. So the cost follows the number of degrees of P, not
    the multiplicities. S^0 and Lambda^0 are one dimension in degree zero.
    An index above MAX_POWER is refused before anything is allocated.
    """
    if n < 0:
        raise InputValidationError("power index must be >= 0")
    if kind not in ("symmetric", "exterior"):
        raise InputValidationError(f"unknown power kind {kind!r}")
    if field_spec is not None and field_spec.kind == "fp" and field_spec.p <= n:
        raise InputValidationError(
            f"graded powers need characteristic 0 or p > n (got p = {field_spec.p}, n = {n})"
        )
    if n > MAX_POWER:
        raise ResourceCapError(f"power index n = {n} exceeds the cap of {MAX_POWER}")
    acc: List[Dict[int, int]] = [dict() for _ in range(n + 1)]
    acc[0] = {0: 1}
    for m, mult in P.dims().items():
        free = (m % 2 == 0) if kind == "symmetric" else (m % 2 == 1)
        top = n if free else min(n, mult)
        series = [{m * j: comb(mult + j - 1, j) if free else comb(mult, j)}
                  for j in range(top + 1)]
        acc = _zpoly_mul(acc, series, n)
    return PoincarePolynomial.make(acc[n])


def kunneth_hom(
    P: PoincarePolynomial,
    n: int,
    same_linearization: bool,
    field_spec: Optional[FieldSpec] = None,
) -> PoincarePolynomial:
    """Graded hom table of n-fold lifted objects: S^n(P) when the two
    linearizations agree and Lambda^n(P) when they differ."""
    kind = "symmetric" if same_linearization else "exterior"
    return graded_power(P, n, kind, field_spec)
