import json

import pytest

from formalitykit.configurations import ConfigGraph
from formalitykit.errors import InputValidationError
from formalitykit.formality import (
    CERTIFIED,
    INAPPLICABLE,
    INCONCLUSIVE,
    FormalityCertificate,
    certify_config_pn,
    certify_config_spherical,
    certify_single,
    cy_normalize,
    verify_certificate,
)
from formalitykit.graded import build_configuration_algebra, truncated_poly
from formalitykit.hochschild import kadeishvili_scan


# -- single object family -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_single_always_certifies(n, k):
    cert = certify_single(n, k)
    assert cert.verdict == CERTIFIED
    assert verify_certificate(cert).ok


def test_single_instantiated_values():
    cert = certify_single(2, 2)
    even = next(e for e in cert.evidence if e["covers"]["parity"] == "even")
    # hom target degree 2 - q + i(n+1)k at q = 4 (i = 2) evaluates to 10 > 4
    assert even["value_at_base"] == 10
    assert even["band_max"] == 4
    odd = next(e for e in cert.evidence if e["covers"]["parity"] == "odd")
    assert odd["covers"]["i_min"] == 1
    assert odd["value_at_base"] == 2 * 2 + 2 * 2 - 1  # nk + 2k - 1


def test_single_rejects_bad_input():
    with pytest.raises(InputValidationError):
        certify_single(0, 2)


def test_single_certificate_matches_direct_scan():
    for (n, k) in [(1, 2), (2, 2), (1, 4)]:
        assert certify_single(n, k).verdict == CERTIFIED
        assert all(v == 0 for v in kadeishvili_scan(truncated_poly(n, k), 5).values())


# -- pn configuration family ------------------------------------------------------


def test_pn_222_certifies_with_chain_values():
    cert = certify_config_pn(2, 2, 2)
    assert cert.verdict == CERTIFIED
    even = next(
        e for e in cert.evidence if e["method"] == "DegreeBound" and e["covers"]["parity"] == "even"
    )
    odd = next(
        e for e in cert.evidence if e["method"] == "DegreeBound" and e["covers"]["parity"] == "odd"
    )
    assert even["chain"]["values"] == [6, 6, 8, 8]
    assert odd["chain"]["values"] == [7, 7, 8, 10]
    assert even["lhs_at_base"] < even["rhs_at_base"]
    assert odd["lhs_at_base"] < odd["rhs_at_base"]
    gcd_item = next(e for e in cert.evidence if e["method"] == "GcdDivisibility")
    assert gcd_item["gcd"] == 2 and gcd_item["holds"]
    assert verify_certificate(cert).ok


def test_pn_gcd_hypothesis_failure():
    cert = certify_config_pn(3, 2, 3)
    assert cert.verdict == INAPPLICABLE
    assert cert.failed_hypotheses() == ["gcd(k, h) > 1"]
    assert verify_certificate(cert).ok


def test_pn_window_hypothesis_failure():
    cert = certify_config_pn(2, 2, 5)  # h > nk
    assert cert.verdict == INAPPLICABLE
    assert "h <= nk" in cert.failed_hypotheses()


def test_pn_certificate_implies_scan_vanishes():
    # soundness spot check against the direct computation, both presets
    g = ConfigGraph.make([1, 2], [(1, 2)])
    assert certify_config_pn(2, 2, 2).verdict == CERTIFIED
    for preset in ("orthogonal", "zigzag"):
        A = build_configuration_algebra(g, 2, 2, 2, preset)
        assert all(v == 0 for v in kadeishvili_scan(A, 5).values()), preset


def test_certificates_sound_on_larger_graphs():
    # certified families scan to zero on a path and on an even cycle
    path3 = ConfigGraph.make([1, 2, 3], [(1, 2), (2, 3)])
    cycle4 = ConfigGraph.make([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert certify_config_pn(2, 2, 2).verdict == CERTIFIED
    for g in (path3, cycle4):
        A = build_configuration_algebra(g, 2, 2, 2, "orthogonal")
        assert all(v == 0 for v in kadeishvili_scan(A, 5).values())
    assert certify_config_spherical(4, 2, 4).verdict == CERTIFIED
    B = build_configuration_algebra(path3, 1, 4, 2, "orthogonal")
    assert all(v == 0 for v in kadeishvili_scan(B, 5).values())


def test_pn_single_vertex_consistency():
    # whenever the configuration family certifies, the single object
    # certificate must certify the same (n, k)
    for n in range(2, 5):
        for k in range(2, 5):
            for h in range(1, 2 * n * k):
                cert = certify_config_pn(n, k, h)
                if cert.verdict == CERTIFIED:
                    assert certify_single(n, k).verdict == CERTIFIED


# -- spherelike configuration family ------------------------------------------------


@pytest.mark.parametrize("k", [4, 6, 7, 8, 9])
def test_spherical_certifies_from_four_up_except_boundary(k):
    cert = certify_config_spherical(k, k // 2, k)
    assert cert.verdict == CERTIFIED
    assert verify_certificate(cert).ok


def test_spherical_small_k_inapplicable_with_remark():
    cert = certify_config_spherical(3, 1, 3)
    assert cert.verdict == INAPPLICABLE
    assert cert.failed_hypotheses() == ["k >= 4"]
    assert any("k in {2, 3}" in note for note in cert.notes)
    assert verify_certificate(cert).ok


def test_spherical_k5_boundary_is_inconclusive_with_recorded_failure():
    """k = 5 with h_min = 2: the q = 3 comparison evaluates 6 < 6 and the
    obstruction is real (see test_serre_dual_triangle_k5_witness in the
    Hochschild tests), so the honest verdict is Inconclusive, never
    CertifiedFormal."""
    cert = certify_config_spherical(5, 2, 5)
    assert cert.verdict == INCONCLUSIVE
    failing = [e for e in cert.evidence if not e["holds"]]
    assert len(failing) == 1
    assert failing[0]["covers"] == {"parity": "odd", "p_min": 1}
    assert failing[0]["lhs_at_base"] == 6 and failing[0]["rhs_at_base"] == 6
    # the tail beyond q = 3 is still certified
    tails = [e for e in cert.evidence if e["holds"] and e["covers"].get("parity") == "odd"]
    assert tails and tails[0]["covers"]["p_min"] == 2
    assert verify_certificate(cert).ok
    # the note names the Serre-dual witness and its degree data
    note = cert.notes[-1]
    assert "Serre-dual triangle" in note
    assert "degree 5 loops" in note
    assert "degree 2 arrows one way" in note and "degree 3 arrows back" in note
    assert "HH^{3,-1} = 1" in note


def test_spherical_k5_with_larger_arrows_certifies():
    cert = certify_config_spherical(5, 3, 5)
    assert cert.verdict == CERTIFIED
    assert verify_certificate(cert).ok


def test_spherical_instantiation_k6():
    cert = certify_config_spherical(6, 3, 6)
    odd = next(e for e in cert.evidence if e["covers"].get("parity") == "odd")
    # q = 3 at p = 1 with h = 3: maxdeg(A)+1 = 7 <= 2h+2 = 8 < 2h+h = 9
    assert odd["chain"]["values"] == [7, 8, 9]
    assert odd["lhs_at_base"] == 7 and odd["rhs_at_base"] == 9


def test_spherical_verdict_monotone_under_window_enlargement():
    # growing [h_min, h_max] inside the allowed window never flips a
    # certified verdict to inapplicable
    for k in (4, 5, 6, 7):
        floor_half = k // 2
        verdicts = {}
        for h_min in range(floor_half, k + 1):
            for h_max in range(h_min, k + 1):
                verdicts[(h_min, h_max)] = certify_config_spherical(k, h_min, h_max).verdict
        for (a, b), v in verdicts.items():
            for (a2, b2), v2 in verdicts.items():
                if a2 <= a and b <= b2 and v == CERTIFIED:
                    assert v2 != INAPPLICABLE


# -- normalization helper --------------------------------------------------------


def test_cy_normalize_values():
    assert cy_normalize(2, 2) == {"h": 2, "gcd_ok": True}
    assert cy_normalize(3, 4) == {"h": 6, "gcd_ok": True}
    assert cy_normalize(3, 2) == {"h": 3, "gcd_ok": False}


def test_cy_normalize_sufficiency_pattern():
    # "n even or k divisible by 4" forces the flag for k >= 2
    for n in range(1, 7):
        for k in range(2, 9):
            if (n * k) % 2 != 0:
                continue
            out = cy_normalize(n, k)
            if n % 2 == 0 or k % 4 == 0:
                assert out["gcd_ok"], (n, k)


def test_cy_normalize_odd_total_degree_errors():
    with pytest.raises(InputValidationError):
        cy_normalize(3, 3)


# -- re-checker hardening ----------------------------------------------------------


def test_recheck_detects_tampered_value():
    cert = certify_config_pn(2, 2, 2).to_json_dict()
    cert["evidence"][0]["rhs_at_base"] += 1
    assert not verify_certificate(FormalityCertificate.from_json_dict(cert)).ok


def test_recheck_detects_tampered_verdict():
    cert = certify_config_spherical(5, 2, 5).to_json_dict()
    cert["verdict"] = CERTIFIED
    assert not verify_certificate(FormalityCertificate.from_json_dict(cert)).ok


def test_recheck_detects_tampered_hypothesis():
    cert = certify_config_pn(3, 2, 3).to_json_dict()
    cert["hypotheses"][-1]["ok"] = True
    report = verify_certificate(FormalityCertificate.from_json_dict(cert))
    assert not report.ok


def test_recheck_detects_dropped_coverage():
    cert = certify_config_pn(2, 2, 2).to_json_dict()
    cert["evidence"] = [e for e in cert["evidence"] if e["method"] != "GcdDivisibility"]
    assert not verify_certificate(FormalityCertificate.from_json_dict(cert)).ok


CERTS = {
    "single": lambda: certify_single(2, 2),  # PeriodicResolution, even item first
    "pn": lambda: certify_config_pn(2, 2, 2),  # DegreeBound even, odd; GcdDivisibility q = 3
    "spherical": lambda: certify_config_spherical(4, 2, 4),  # DegreeBound even, odd
}
STALE_VERDICT = f"verdict {CERTIFIED!r} inconsistent; expected {INCONCLUSIVE!r}"
# (family, {path into the certificate: tampered value}, index of the failing
# item or None, the item's message or the report's messages)
TAMPERED = [
    ("single", {("evidence", 0, "target_degree", "slope"): 5}, 0, "target degree affine mismatch"),
    ("single", {("evidence", 0, "band_max"): 5}, 0, "band mismatch"),
    ("single", {("evidence", 0, "covers", "i_min"): 3}, 0, "base index mismatch"),
    ("single", {("evidence", 0, "value_at_base"): 11}, 0, "base value does not replay"),
    ("single", {("evidence", 0, "holds"): False}, 0, "holds flag wrong"),
    ("pn", {("evidence", 2, "gcd_of"): [2, 4]}, 2, "gcd arguments mismatch"),
    ("pn", {("evidence", 2, "gcd"): 4}, 2, "gcd does not replay: 4 vs 2"),
    ("pn", {("evidence", 2, "holds"): False}, 2, "holds flag wrong"),
    # the even tail starts at q = 6, and nothing covers q = 4
    ("pn", {("evidence", 0, "covers", "p_min"): 3, ("evidence", 0, "lhs_at_base"): 8,
            ("evidence", 0, "rhs_at_base"): 12}, None, (STALE_VERDICT,)),
    # the odd tail starts at q = 5, and nothing covers q = 3
    ("pn", {("evidence", 2, "covers", "q"): 5}, None, (STALE_VERDICT,)),
] + [
    (family, {("evidence", 0, *path): value}, 0, message)
    for family in ("pn", "spherical")
    for path, value, message in [
        (("covers", "parity"), "both", "malformed coverage"),
        (("lhs", "intercept"), 3, "lhs affine mismatch: {'slope': 2, 'intercept': 3} vs (2, 2)"),
        (("rhs", "slope"), 5, "rhs affine mismatch: {'slope': 5, 'intercept': 0} vs (4, 0)"),
        (("lhs_at_base",), 7, "base point values do not replay"),
        (("slope_gap",), 3, "slope gap does not replay"),
        (("holds",), False, "holds flag wrong: recomputed True"),
    ]
] + [
    (family, change, where, message)
    for family, first in [("single", "n >= 1"), ("pn", "n >= 2"), ("spherical", "k >= 4")]
    for change, where, message in [
        ({("evidence", 1, "method"): "Guess"}, 1, "unknown evidence method 'Guess'"),
        # the verdict stays the one the subject's own hypotheses give
        ({("hypotheses", 0, "name"): "k >= 0"}, None,
         ("unknown hypothesis 'k >= 0'", f"hypothesis {first!r} missing")),
    ]
] + [
    # a derived subject field that its parameters do not give; the evidence
    # replays from the parameters, so every item still passes
    (family, {("subject", key): value}, None,
     (f"subject {key!r} does not follow from its parameters: {value!r} vs {want}",))
    for family, key, value, want in [
        ("single", "maxdeg", 5, 4),
        ("pn", "maxdeg", 5, 4),
        ("pn", "mindeg_I_bound", 3, 4),
        ("pn", "mindeg_J", True, 2),
        ("spherical", "worst_case_h", 3, 2),
        ("spherical", "maxdeg", "4", 4),
        ("spherical", "mindeg_I_bound", 5, 4),
        ("spherical", "mindeg_J_bound", None, 2),
    ]
]


@pytest.mark.parametrize("family,change,where,message", TAMPERED,
                         ids=[f"{c[0]}-{'.'.join(map(str, next(iter(c[1]))))}" for c in TAMPERED])
def test_recheck_refuses_each_tampered_field(family, change, where, message):
    """One field per failure return of the re-checker: the report fails,
    and names the item and why, or why the certificate as a whole fails.
    The other items still replay."""
    cert = CERTS[family]().to_json_dict()
    for (*path, key), value in change.items():
        node = cert
        for step in path:
            node = node[step]
        node[key] = value
    report = verify_certificate(FormalityCertificate.from_json_dict(cert))
    assert not report.ok
    if where is None:
        assert report.messages == message
    else:
        assert report.item_results[where] == (where, False, message)
    assert all(ok for i, ok, _ in report.item_results if i != where)


@pytest.mark.parametrize("edit,messages", [
    (lambda hyps: hyps[:-1], ("hypothesis 'h_max <= k' missing",)),
    (lambda hyps: hyps + hyps[1:2], ("hypothesis 'floor(k/2) <= h_min' listed twice",)),
    (lambda hyps: hyps[::-1], ()),
], ids=["missing", "listed-twice", "reordered"])
def test_recheck_requires_each_family_hypothesis_once(edit, messages):
    """The hypothesis list holds each of the family's hypotheses exactly
    once, in any order."""
    cert = certify_config_spherical(4, 2, 4).to_json_dict()
    cert["hypotheses"] = edit(cert["hypotheses"])
    report = verify_certificate(FormalityCertificate.from_json_dict(cert))
    assert report.ok == (not messages) and report.messages == messages
    assert all(ok for _, ok, _ in report.item_results)


def test_recheck_refuses_the_two_forged_spherical_certificates():
    """Evidence that holds for other parameters, passed off under a
    subject whose derived field or hypothesis list was edited to match."""
    # h_min = 2 at k = 5 is the Serre-dual boundary (HH^{3,-1} = 1), not h_min = 3
    forged = certify_config_spherical(5, 2, 5).to_json_dict()
    honest = certify_config_spherical(5, 3, 5).to_json_dict()
    forged["subject"]["worst_case_h"] = 3
    forged.update({key: honest[key] for key in ("evidence", "verdict", "notes")})
    report = verify_certificate(FormalityCertificate.from_json_dict(forged))
    assert not report.ok
    assert report.messages == (
        "subject 'worst_case_h' does not follow from its parameters: 3 vs 2",
    )
    assert [msg for _, ok, msg in report.item_results if not ok] == [
        "rhs affine mismatch: {'slope': 6, 'intercept': 0} vs (4, 0)",
        "rhs affine mismatch: {'slope': 6, 'intercept': 3} vs (4, 2)",
    ]
    # degree 9 arrows make maxdeg(A) = 9, not the k = 4 the evidence uses
    forged = certify_config_spherical(4, 2, 9).to_json_dict()
    honest = certify_config_spherical(4, 2, 4).to_json_dict()
    forged["hypotheses"] = [h for h in forged["hypotheses"] if h["name"] != "h_max <= k"]
    forged.update({key: honest[key] for key in ("evidence", "verdict")})
    report = verify_certificate(FormalityCertificate.from_json_dict(forged))
    assert not report.ok
    assert report.messages == (
        "hypothesis 'h_max <= k' missing",
        f"verdict {CERTIFIED!r} inconsistent; expected {INAPPLICABLE!r}",
    )


def test_certificate_json_round_trip():
    cert = certify_config_spherical(6, 3, 6)
    data = json.loads(json.dumps(cert.to_json_dict()))
    back = FormalityCertificate.from_json_dict(data)
    assert back.verdict == cert.verdict
    assert verify_certificate(back).ok


@pytest.mark.parametrize("change", [
    {"subject": None}, {"verdict": 3}, {"hypotheses": 1}, {"hypotheses": [{"ok": True}]},
    {"hypotheses": ["x"]}, {"evidence": [5]}, {"evidence": [{"covers": []}]}, {"notes": True},
])
def test_certificate_loader_rejects_a_malformed_shape(change):
    data = certify_single(2, 2).to_json_dict()
    data.update(change)
    with pytest.raises(InputValidationError):
        FormalityCertificate.from_json_dict(data)


def test_recheck_reports_malformed_content_without_raising():
    cert = certify_config_spherical(5, 2, 5).to_json_dict()
    cert["subject"]["h_min"] = "2"
    report = verify_certificate(FormalityCertificate.from_json_dict(cert))
    assert not report.ok and report.messages == ("malformed certificate document",)
    cert = certify_config_pn(2, 2, 2).to_json_dict()
    cert["evidence"][0]["covers"]["p_min"] = "x"
    report = verify_certificate(FormalityCertificate.from_json_dict(cert))
    assert not report.ok and not report.item_results[0][1]


def test_recheck_of_a_plain_dict_names_a_malformed_entry_instead_of_raising():
    """verify_certificate is public and takes a plain dict as well: an entry
    without the shape the checks read gives a failing report that names
    it, as the loader would refuse it."""
    cert = certify_config_pn(2, 2, 2).to_json_dict()
    cert["hypotheses"][1] = 5
    report = verify_certificate(cert)
    assert not report.ok and report.messages == (
        "malformed hypothesis 1: not an object with a string name and an ok",)
    cert = certify_config_pn(2, 2, 2).to_json_dict()
    cert["evidence"][0]["covers"] = [0]
    report = verify_certificate(cert)
    assert not report.ok and report.messages == (
        "malformed evidence item 0: not an object whose covers is an object",)


def _json_paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(
        obj, list) else ()
    for key, value in children:
        yield from _json_paths(value, path + (key,))


@pytest.mark.parametrize("junk", [5, "x", None, [], {}, [1], True, 2.5],
                         ids=lambda junk: repr(junk))
def test_recheck_of_a_plain_dict_never_raises(junk):
    """Each entry of a plain certificate dict, at any depth, replaced by a
    value of another shape: verify_certificate returns a report."""
    base = certify_config_pn(2, 2, 2).to_json_dict()
    for path in list(_json_paths(base))[1:]:
        cert = json.loads(json.dumps(base))
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = junk
        assert isinstance(verify_certificate(cert).ok, bool), path
