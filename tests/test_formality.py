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


def test_pn_222_certifies_with_base_values():
    cert = certify_config_pn(2, 2, 2)
    assert cert.verdict == CERTIFIED
    even = next(
        e for e in cert.evidence if e["method"] == "DegreeBound" and e["covers"]["parity"] == "even"
    )
    odd = next(
        e for e in cert.evidence if e["method"] == "DegreeBound" and e["covers"]["parity"] == "odd"
    )
    # maxdeg(A)+q-2 against p(h+k) at q = 4, and against p(h+k)+k at q = 5
    assert (even["lhs_at_base"], even["rhs_at_base"]) == (6, 8)
    assert (odd["lhs_at_base"], odd["rhs_at_base"]) == (7, 10)
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


def test_spherical_small_k_inapplicable():
    cert = certify_config_spherical(3, 1, 3)
    assert cert.verdict == INAPPLICABLE
    assert cert.failed_hypotheses() == ["k >= 4"]
    assert cert.evidence == ()
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


def test_spherical_k5_with_larger_arrows_certifies():
    cert = certify_config_spherical(5, 3, 5)
    assert cert.verdict == CERTIFIED
    assert verify_certificate(cert).ok


def test_spherical_instantiation_k6():
    cert = certify_config_spherical(6, 3, 6)
    odd = next(e for e in cert.evidence if e["covers"].get("parity") == "odd")
    # q = 3 at p = 1 with h = 3: maxdeg(A)+1 = 7 < 2h+h = 9
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
# the odd item's chain at k = 4, h = 2 in the older format, which also
# gave each item a display and the certificate notes
ODD_CHAIN = {"exprs": ["maxdeg(A)+q-2", "2h+2p", "2ph+h"], "values": [5, 6, 6],
             "relations": ["<=", "<="]}
# (family, {path into the certificate: tampered value}, index of the failing
# item or None, the item's message or the report's messages)
TAMPERED = [
    ("single", {("evidence", 0, "target_degree", "slope"): 5}, 0,
     "'target_degree' does not replay: {'slope': 5, 'intercept': 2} vs {'slope': 4, 'intercept': 2}"),
    ("single", {("evidence", 0, "band_max"): 5}, 0, "'band_max' does not replay: 5 vs 4"),
    ("single", {("evidence", 0, "covers", "i_min"): 3}, 0,
     "'covers' does not replay: {'parity': 'even', 'i_min': 3} vs {'parity': 'even', 'i_min': 2}"),
    ("single", {("evidence", 0, "value_at_base"): 11}, 0, "'value_at_base' does not replay: 11 vs 10"),
    ("single", {("evidence", 0, "holds"): False}, 0, "'holds' does not replay: False vs True"),
    ("pn", {("evidence", 2, "gcd_of"): [2, 4]}, 2, "'gcd_of' does not replay: [2, 4] vs [2, 2]"),
    ("pn", {("evidence", 2, "gcd"): 4}, 2, "'gcd' does not replay: 4 vs 2"),
    ("pn", {("evidence", 2, "holds"): False}, 2, "'holds' does not replay: False vs True"),
    # the even tail, restated at p = 3, starts at q = 6, and nothing covers
    # q = 4
    ("pn", {("evidence", 0, "covers", "p_min"): 3, ("evidence", 0, "base_p"): 3,
            ("evidence", 0, "lhs_at_base"): 8, ("evidence", 0, "rhs_at_base"): 12}, None,
     (STALE_VERDICT,)),
    # the gcd argument covers q = 3 only
    ("pn", {("evidence", 2, "covers", "q"): 5}, 2, "'covers' does not replay: {'q': 5} vs {'q': 3}"),
    ("pn", {("evidence", 0, "base_p"): 7}, 0, "'base_p' does not replay: 7 vs 2"),
    ("pn", {("evidence", 2, "internal_shift"): 0}, 2, "'internal_shift' does not replay: 0 vs -1"),
    ("pn", {("evidence", 2, "extra"): 1}, 2, "'extra' does not replay: 1 vs None"),
    ("pn", {("evidence", 1, "lhs_at_base"): 7.0}, 1, "'lhs_at_base' does not replay: 7.0 vs 7"),
    ("pn", {("hypotheses", 4, "actual"): 1}, None,
     ("hypothesis 'gcd(k, h) > 1': 'actual' does not replay: 1 vs 2",)),
    ("pn", {("hypotheses", 0, "ok"): 1}, None,
     ("hypothesis 'n >= 2': 'ok' does not replay: 1 vs True",)),
    ("single", {("subject", "extra"): 1}, None,
     ("subject 'extra' does not follow from its parameters: 1 vs None",)),
    # the older format's chain is a key that does not replay
    ("spherical", {("evidence", 1, "chain"): ODD_CHAIN}, 1,
     f"'chain' does not replay: {ODD_CHAIN!r} vs None"),
    ("single", {("format",): "formalitykit-certificate/0"}, None,
     ("malformed certificate document",)),
] + [
    (family, {("evidence", 0, *path): value}, 0, message)
    for family in ("pn", "spherical")
    for path, value, message in [
        (("covers", "parity"), "both", "malformed evidence item"),
        (("lhs", "intercept"), 3,
         "'lhs' does not replay: {'slope': 2, 'intercept': 3} vs {'slope': 2, 'intercept': 2}"),
        (("rhs", "slope"), 5,
         "'rhs' does not replay: {'slope': 5, 'intercept': 0} vs {'slope': 4, 'intercept': 0}"),
        (("lhs_at_base",), 7, "'lhs_at_base' does not replay: 7 vs 6"),
        (("slope_gap",), 3, "'slope_gap' does not replay: 3 vs 2"),
        (("holds",), False, "'holds' does not replay: False vs True"),
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
    """One replayed field at a time: the report fails, and names the item
    and its first key that does not replay, with both values, or why the
    certificate as a whole fails. The other items still replay."""
    cert = CERTS[family]().to_json_dict()
    for (*path, key), value in change.items():
        node = cert
        for step in path:
            node = node[step]
        node[key] = value
    report = verify_certificate(cert)
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
    forged.update({key: honest[key] for key in ("evidence", "verdict")})
    report = verify_certificate(FormalityCertificate.from_json_dict(forged))
    assert not report.ok
    assert report.messages == (
        "subject 'worst_case_h' does not follow from its parameters: 3 vs 2",
    )
    assert [msg for _, ok, msg in report.item_results if not ok] == [
        "'rhs' does not replay: {'slope': 6, 'intercept': 0} vs {'slope': 4, 'intercept': 0}",
        "'rhs' does not replay: {'slope': 6, 'intercept': 3} vs {'slope': 4, 'intercept': 2}",
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
    {"hypotheses": ["x"]}, {"evidence": [5]}, {"evidence": [{"covers": []}]},
    {"format": "formalitykit-certificate/0"},
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


LEAF_CERTS = {
    "single-2-2": lambda: certify_single(2, 2),
    "pn-2-2-2": lambda: certify_config_pn(2, 2, 2),
    "pn-3-2-3": lambda: certify_config_pn(3, 2, 3),
    "spherical-4-2-4": lambda: certify_config_spherical(4, 2, 4),
    "spherical-5-2-5": lambda: certify_config_spherical(5, 2, 5),
    "spherical-6-3-6": lambda: certify_config_spherical(6, 3, 6),
}


def _leaf_edits(value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [value + " ", "x"]


def _recheck(doc):
    """Recheck a document as the CLI does: the loader's shape check, then
    the loaded dict, whose extra keys fail. Returns whether it passes and
    every failing message."""
    try:
        FormalityCertificate.from_json_dict(doc)
    except InputValidationError:
        return False, ("not a certificate document",)
    report = verify_certificate(doc)
    return report.ok, report.messages + tuple(msg for _, ok, msg in report.item_results
                                              if not ok)


@pytest.mark.parametrize("name", LEAF_CERTS)
def test_recheck_refuses_every_leaf_edit(name):
    """Every leaf of the certificate, edited (a bool flipped, an int moved
    by 1, a string extended by a space or replaced by "x"): recheck fails.
    A certificate holds no prose, so no byte of it goes unreplayed."""
    base = LEAF_CERTS[name]().to_json_dict()
    edits = 0
    for path in _json_paths(base):
        doc = json.loads(json.dumps(base))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if not path or isinstance(node[path[-1]], (dict, list)):
            continue
        for edit in _leaf_edits(node[path[-1]]):
            node[path[-1]] = edit
            assert not _recheck(doc)[0], (path, edit)
            edits += 1
    assert edits >= 40


@pytest.mark.parametrize("name", LEAF_CERTS)
def test_recheck_refuses_and_names_every_added_key(name):
    """One extra key at each object of the certificate, the top level
    included: recheck fails, and a failing message names the key."""
    base = LEAF_CERTS[name]().to_json_dict()
    objects = 0
    for path in _json_paths(base):
        doc = json.loads(json.dumps(base))
        node = doc
        for key in path:
            node = node[key]
        if not isinstance(node, dict):
            continue
        node["junk"] = {}
        ok, messages = _recheck(doc)
        assert not ok and any("'junk'" in msg for msg in messages), (path, messages)
        objects += 1
    assert objects >= 6


@pytest.mark.parametrize("name", LEAF_CERTS)
def test_recheck_of_a_plain_dict_with_an_int_too_long_for_repr_never_raises(name):
    """An int of 5001 digits, past what repr writes, as a subject field, a
    hypothesis's actual value or a covers entry: the report fails and
    nothing raises. A message that shows the int gives its bit length."""
    huge = 10 ** 5000
    base = LEAF_CERTS[name]().to_json_dict()
    sites = ([("subject", key) for key in base["subject"]]
             + [("hypotheses", i, "actual") for i in range(len(base["hypotheses"]))]
             + [("evidence", i, "covers", key)
                for i, item in enumerate(base["evidence"]) for key in item["covers"]])
    shown = 0
    for *path, key in sites:
        cert = json.loads(json.dumps(base))
        node = cert
        for step in path:
            node = node[step]
        node[key] = huge
        report = verify_certificate(cert)
        assert not report.ok, (path, key)
        messages = report.messages + tuple(msg for _, _, msg in report.item_results)
        shown += any(f"<int of {huge.bit_length()} bits>" in msg for msg in messages)
    assert shown


def test_every_degree_bound_item_is_its_affines_at_the_base():
    """Every DegreeBound item the builders emit states lhs and rhs at its
    base point, their slope gap, and holds exactly when both comparisons
    are strict; at k = 4, h = 2 the odd item compares 5 < 6 at q = 3."""
    certs = [certify_config_pn(n, k, h) for n in range(2, 5) for k in range(2, 5)
             for h in range(1, 2 * n * k)]
    certs += [certify_config_spherical(k, a, b) for k in range(4, 10)
              for a in range(k // 2, k + 1) for b in range(a, k + 1)]
    items = [e for c in certs for e in c.evidence if e["method"] == "DegreeBound"]
    assert items
    for e in items:
        p = e["covers"]["p_min"]
        assert e["base_p"] == p
        assert e["lhs_at_base"] == e["lhs"]["slope"] * p + e["lhs"]["intercept"]
        assert e["rhs_at_base"] == e["rhs"]["slope"] * p + e["rhs"]["intercept"]
        assert e["slope_gap"] == e["rhs"]["slope"] - e["lhs"]["slope"]
        assert e["holds"] == (e["slope_gap"] > 0 and e["lhs_at_base"] < e["rhs_at_base"])
    odd = certify_config_spherical(4, 2, 4).evidence[1]
    assert (odd["covers"], odd["lhs_at_base"], odd["rhs_at_base"], odd["holds"]) == (
        {"parity": "odd", "p_min": 1}, 5, 6, True)


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
