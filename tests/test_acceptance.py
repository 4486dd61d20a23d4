"""End to end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s or read captured
output) and enforces its runtime budget. Everything is exact integer
arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from formalitykit.configurations import (
    ConfigGraph,
    PoincarePolynomial,
    kunneth_hom,
    normalize_shifts,
    normalized_edge_degrees,
    sign_assignment,
)
from formalitykit.fields import RATIONALS
from formalitykit.formality import (
    CERTIFIED,
    INAPPLICABLE,
    INCONCLUSIVE,
    certify_config_pn,
    certify_config_spherical,
    certify_single,
    verify_certificate,
)
from formalitykit.graded import build_configuration_algebra, truncated_poly
from formalitykit.hochschild import (
    _cochain_basis,
    _delta_rows,
    _tables,
    hh_bar,
    hh_resolution,
    kadeishvili_scan,
    nonempty_internal_degrees,
    periodic_spec_truncated_poly,
)
from formalitykit.linalg import (
    kernel_rows,
    mul_rows,
    rank_rows,
    row_space_basis,
    subspace_meet,
)
from formalitykit.presentations import single_generator_presentation, tor_term
from test_hochschild import SIGNS_AGREE, serre_dual_triangle
from test_linalg import sparse

SEED = 20260811


def _report(num, name, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status} ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
    assert not failures, f"criterion {num} ({name}) failed: " + "; ".join(failures)


def test_criterion_1_single_object_certificates():
    start = time.perf_counter()
    failures = []
    for n in range(1, 7):
        for k in range(1, 7):
            cert = certify_single(n, k)
            if cert.verdict != CERTIFIED:
                failures.append(f"({n},{k}) verdict {cert.verdict}")
            if not verify_certificate(cert).ok:
                failures.append(f"({n},{k}) recheck failed")
    _report(1, "single object certificates over the 6 x 6 grid", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_2_hh_engine_agreement():
    start = time.perf_counter()
    failures = []
    for (n, k) in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        A = truncated_poly(n, k)
        spec = periodic_spec_truncated_poly(n, k, 7)
        for p in range(0, 5):
            qs = set(nonempty_internal_degrees(A, p))
            qs |= {q for q in range(-7 * (n + 1) * k, n * k + 1)
                   if 0 <= q - spec.shifts[p] <= n * k}
            for q in sorted(qs):
                bar = hh_bar(A, p, q).dim
                res = hh_resolution(A, spec, p, q)
                if bar != res:
                    failures.append(f"({n},{k}) p={p} q={q}: bar {bar} vs resolution {res}")
    _report(2, "bar complex and periodic resolution engines agree", failures,
            time.perf_counter() - start, 120.0)


def test_criterion_3_kadeishvili_vanishing_at_desk_scale():
    start = time.perf_counter()
    failures = []
    for (n, k) in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)]:
        table = kadeishvili_scan(truncated_poly(n, k), 5)
        if set(table) != {3, 4, 5} or any(v != 0 for v in table.values()):
            failures.append(f"({n},{k}) scan {table}")
    _report(3, "obstruction scan vanishes for truncated algebras", failures,
            time.perf_counter() - start, 300.0)


def test_criterion_4_tor_gradings_match_periodic_shifts():
    start = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            pres = single_generator_presentation(n, k, truncation=6 * n * k + k)
            for q in range(0, 7):
                dims = tor_term(pres, q).dims()
                p = q // 2
                if q == 0:
                    want = {0: 1}
                elif q % 2 == 0:
                    want = {p * (n + 1) * k: 1}
                else:
                    want = {(p * (n + 1) + 1) * k: 1}
                if dims != want:
                    failures.append(f"({n},{k}) q={q}: {dims} != {want}")
    _report(4, "Butler-King terms reproduce the periodic grading", failures,
            time.perf_counter() - start, 120.0)


def test_criterion_5_configuration_certificates():
    start = time.perf_counter()
    failures = []

    cert = certify_config_pn(2, 2, 2)
    if cert.verdict != CERTIFIED:
        failures.append(f"pn(2,2,2) verdict {cert.verdict}")
    else:
        for item in cert.evidence:
            if not item["holds"]:
                failures.append(f"pn(2,2,2) evidence fails: {item}")
        for parity, want in (("odd", (7, 10)), ("even", (6, 8))):
            e = next(e for e in cert.evidence if e.get("covers", {}).get("parity") == parity)
            if (e["lhs_at_base"], e["rhs_at_base"]) != want:
                failures.append(f"pn(2,2,2) {parity} item {e['lhs_at_base']} < {e['rhs_at_base']}")
        if not verify_certificate(cert).ok:
            failures.append("pn(2,2,2) recheck failed")

    for k, h_min in ((4, 2), (6, 3), (5, 3)):
        cert = certify_config_spherical(k, h_min, k)
        if cert.verdict != CERTIFIED:
            failures.append(f"spherical({k},{h_min},{k}): expected CertifiedFormal, got {cert.verdict}")
            continue
        for item in cert.evidence:
            if item["method"] == "DegreeBound" and not item["lhs_at_base"] < item["rhs_at_base"]:
                failures.append(f"spherical({k},{h_min},{k}) comparison not strict: {item}")
        if not verify_certificate(cert).ok:
            failures.append(f"spherical({k},{h_min},{k}) recheck failed")

    # k = 5 with h_min = 2 cannot certify: the Serre-dual triangle with
    # degree 2 and 3 arrows meets the family's degree data and has a
    # nonzero q = 3 obstruction group, so the gate requires Inconclusive.
    witness = hh_bar(serre_dual_triangle(SIGNS_AGREE), 3, -1).dim
    if witness != 1:
        failures.append(f"Serre-dual k=5 triangle: HH^(3,-1) = {witness}, expected 1")
    cert = certify_config_spherical(5, 2, 5)
    if cert.verdict != INCONCLUSIVE:
        failures.append(f"spherical k=5: expected Inconclusive, got {cert.verdict}")
    failing = [(e["covers"], e["lhs_at_base"], e["rhs_at_base"])
               for e in cert.evidence if not e["holds"]]
    if failing != [({"parity": "odd", "p_min": 1}, 6, 6)]:
        failures.append(f"spherical k=5 failing items {failing}")
    tails = [e for e in cert.evidence
             if e["covers"] == {"parity": "odd", "p_min": 2}
             and e["holds"] and e["lhs_at_base"] < e["rhs_at_base"]]
    if len(tails) != 1:
        failures.append("spherical k=5 odd tail from p = 2 missing or not strict")
    if not verify_certificate(cert).ok:
        failures.append("spherical k=5 recheck failed")

    cert = certify_config_pn(3, 2, 3)
    if cert.verdict != INAPPLICABLE or cert.failed_hypotheses() != ["gcd(k, h) > 1"]:
        failures.append(f"pn(3,2,3): {cert.verdict} failing {cert.failed_hypotheses()}")

    _report(5, "configuration certificates with instantiated comparisons", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_6_direct_cross_validation_of_a2_configuration():
    start = time.perf_counter()
    failures = []
    g = ConfigGraph.make([1, 2], [(1, 2)])
    A = build_configuration_algebra(g, 2, 2, 2, "orthogonal")
    table = kadeishvili_scan(A, 4)
    if set(table) != {3, 4} or any(v != 0 for v in table.values()):
        failures.append(f"scan {table}")
    _report(6, "direct scan of the certified two vertex configuration", failures,
            time.perf_counter() - start, 600.0)


def test_criterion_7_kunneth_table():
    start = time.perf_counter()
    failures = []
    for m in range(1, 5):
        line = PoincarePolynomial.line(m)
        for n in range(1, 5):
            same = kunneth_hom(line, n, True).dims()
            diff = kunneth_hom(line, n, False).dims()
            if n == 1:
                want_same, want_diff = {m: 1}, {m: 1}
            elif m % 2 == 0:
                want_same, want_diff = {n * m: 1}, {}
            else:
                want_same, want_diff = {}, {n * m: 1}
            if same != want_same or diff != want_diff:
                failures.append(f"m={m} n={n}: {same}/{diff}")
    _report(7, "graded hom table of lifted line objects", failures,
            time.perf_counter() - start, 10.0)


def test_criterion_8_sign_and_shift_combinatorics():
    start = time.perf_counter()
    failures = []

    even_cycle = ConfigGraph.make(
        [1, 2, 3, 4],
        [{"u": 1, "v": 2, "d": 1}, {"u": 2, "v": 3, "d": 1},
         {"u": 3, "v": 4, "d": 1}, {"u": 4, "v": 1, "d": 1}],
    )
    if not sign_assignment(even_cycle).feasible:
        failures.append("even 4-cycle infeasible")

    odd_cycle = ConfigGraph.make(
        [1, 2, 3],
        [{"u": 1, "v": 2, "d": 1}, {"u": 2, "v": 3, "d": 1}, {"u": 3, "v": 1, "d": 1}],
    )
    res = sign_assignment(odd_cycle)
    if res.feasible or set(res.witness_cycle) != {1, 2, 3}:
        failures.append("odd 3-cycle not witnessed")

    rng = random.Random(SEED)
    for trial in range(20):
        size = rng.randint(2, 10)
        nk = rng.choice([4, 6, 8])
        vertices = list(range(size))
        edges = []
        for v in range(1, size):
            u = rng.randrange(v)
            a_uv = rng.randint(-2, nk + 2)
            edges.append({"u": u, "v": v, "a_uv": a_uv, "a_vu": nk - a_uv,
                          "d": rng.randint(0, 3)})
        g = ConfigGraph.make(vertices, edges)
        if not sign_assignment(g).feasible:
            failures.append(f"tree trial {trial}: sign assignment failed")
        shifts = normalize_shifts(g, nk)
        if not shifts.feasible:
            failures.append(f"tree trial {trial}: shifts infeasible")
            continue
        degs = set(normalized_edge_degrees(g, shifts.shifts).values())
        if degs and degs != {nk // 2}:
            failures.append(f"tree trial {trial}: normalized degrees {degs}")

    _report(8, "sign and shift combinatorics (seeded trees and cycles)", failures,
            time.perf_counter() - start, 30.0)


def test_criterion_9_structural_property_suites():
    start = time.perf_counter()
    failures = []

    # d compose d vanishes on every assembled slice of the fixtures
    fixtures = [
        truncated_poly(1, 2),
        truncated_poly(2, 2),
        build_configuration_algebra(ConfigGraph.make([1, 2], [(1, 2)]), 1, 2, 1, "zigzag"),
    ]
    for A in fixtures:
        tb = _tables(A, "relative_normalized")
        for q in range(-4, 2):
            for p in range(0, 5):
                g0, n0 = _cochain_basis(tb, p, q, 10**6)
                g1, n1 = _cochain_basis(tb, p + 1, q, 10**6)
                g2, n2 = _cochain_basis(tb, p + 2, q, 10**6)
                if n0 and n2:
                    d0 = _delta_rows(tb, p, g0, g1, n0)
                    d1 = _delta_rows(tb, p + 1, g1, g2, n1)
                    if any(mul_rows(d0, d1, RATIONALS)):
                        failures.append(f"d^2 != 0 at p={p} q={q}")

    # exact linear algebra invariants on seeded instances
    rng = random.Random(SEED)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse([[Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)])
        rk = rank_rows(rows, RATIONALS)
        ker = kernel_rows(rows, RATIONALS, ncols)
        if rk + len(ker) != ncols:
            failures.append("rank-nullity violated")
        if any(sum(x * v.get(c, 0) for c, x in row.items()) for row in rows for v in ker):
            failures.append("kernel vector not annihilated")
        n = rng.randint(1, 4)
        U = sparse([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))])
        W = sparse([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))])
        du = len(row_space_basis(U, RATIONALS))
        dw = len(row_space_basis(W, RATIONALS))
        ds = len(row_space_basis(U + W, RATIONALS))
        dm = len(subspace_meet(U, W, RATIONALS)) if U and W else 0
        if du + dw != ds + dm:
            failures.append("modular dimension law violated")

    # truncation independence of Tor
    p24 = single_generator_presentation(2, 2, truncation=24)
    p26 = single_generator_presentation(2, 2, truncation=26)
    if tor_term(p24, 4).dims() != tor_term(p26, 4).dims():
        failures.append("tor truncation dependence")

    # relative and absolute bar agree on small fixtures
    for A in (truncated_poly(1, 2), truncated_poly(1, 3), truncated_poly(3, 1)):
        for p in range(0, 4):
            qs = set(nonempty_internal_degrees(A, p, mode="relative_normalized"))
            qs |= set(nonempty_internal_degrees(A, p, mode="absolute"))
            for q in qs:
                if hh_bar(A, p, q).dim != hh_bar(A, p, q, mode="absolute").dim:
                    failures.append(f"mode disagreement at p={p} q={q}")

    _report(9, "structural property suites", failures,
            time.perf_counter() - start, 300.0)
