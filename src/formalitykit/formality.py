"""Intrinsic formality certificates and their independent re-checker.

A certificate records, per range of cohomological degree q > 2, exact
integer evidence that the Kadeishvili obstruction group HH^{q,2-q}(A,A)
vanishes: either a degree comparison (maxdeg(A) + q - 2 strictly below
the mindeg lower bound for Tor_q), a divisibility argument, or the
vanishing of hom spaces out of a periodic resolution. Affine tails are
certified by one base point plus a slope comparison, both as integers.

Three verdicts are possible. CertifiedFormal means the evidence covers
every q > 2. CriterionInapplicable means a hypothesis of the method
fails; this never claims non-formality. Inconclusive means the
hypotheses hold but some piece of evidence is not strict, again with no
negative claim.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .errors import InputValidationError
from .record import Record

CERT_FORMAT = "formalitykit-certificate/1"

CERTIFIED = "CertifiedFormal"
INAPPLICABLE = "CriterionInapplicable"
INCONCLUSIVE = "Inconclusive"


class FormalityCertificate(Record):
    subject: dict
    verdict: str
    hypotheses: Tuple[dict, ...]
    evidence: Tuple[dict, ...]
    notes: Tuple[str, ...]

    def __init__(self, subject, verdict, hypotheses, evidence, notes=()):
        vars(self).update(subject=subject, verdict=verdict, hypotheses=hypotheses,
                          evidence=evidence, notes=notes)

    def failed_hypotheses(self) -> List[str]:
        return [h["name"] for h in self.hypotheses if not h["ok"]]

    def to_json_dict(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "subject": self.subject,
            "verdict": self.verdict,
            "hypotheses": list(self.hypotheses),
            "evidence": list(self.evidence),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FormalityCertificate":
        """Load a certificate document, checking its shape only: whether
        its content replays is for verify_certificate to say."""
        if not isinstance(data, dict) or data.get("format") != CERT_FORMAT:
            raise InputValidationError("not a certificate document")
        subject, verdict = data.get("subject"), data.get("verdict")
        hypotheses, evidence = data.get("hypotheses"), data.get("evidence")
        notes = data.get("notes", [])
        if not (
            isinstance(subject, dict)
            and isinstance(verdict, str)
            and isinstance(hypotheses, list)
            and all(isinstance(h, dict) and isinstance(h.get("name"), str) and "ok" in h
                    for h in hypotheses)
            and isinstance(evidence, list)
            and all(isinstance(e, dict) and isinstance(e.get("covers", {}), dict)
                    for e in evidence)
            and isinstance(notes, list)
        ):
            raise InputValidationError(
                "a certificate needs a subject object, a verdict string, a list of "
                "hypotheses with a name and ok, a list of evidence objects whose "
                "covers are objects, and a list of notes"
            )
        return cls(subject, verdict, tuple(hypotheses), tuple(evidence), tuple(notes))


def _affine(slope: int, intercept: int) -> dict:
    return {"slope": int(slope), "intercept": int(intercept)}


def _affine_at(a: dict, p: int) -> int:
    return a["slope"] * p + a["intercept"]


def _tor_mindeg_bound(parity: str, mu: int, nu: int) -> dict:
    """The rhs of a DegreeBound item: a lower bound on mindeg Tor_q(R,R),
    affine in p, from mindeg(I) >= mu and mindeg(J) >= nu, where I is the
    ideal of the relations and J = T(V)+. It is p mu for q = 2p ("even")
    and p mu + nu for q = 2p + 1 ("odd"), and it needs mu >= 2 nu >= 2.

    By Butler-King (J. Algebra 212 (1999)), Tor_(2p) is a subquotient of
    I^p meet J I^(p-1) J and Tor_(2p+1) one of J I^p meet I^p J. So
    mindeg Tor_(2p+1) >= p mu + nu, and mindeg Tor_(2p) >= max(p mu,
    2 nu + (p-1) mu), where mu >= 2 nu gives 2 nu + (p-1) mu <= mu +
    (p-1) mu = p mu: the even bound is p mu. Both certificate families
    check the precondition among their hypotheses before they call this.
    verify_certificate keeps its own copy of the two affines."""
    return _affine(mu, nu if parity == "odd" else 0)


def _degree_bound_item(parity, p_min, lhs, rhs, chain_exprs, chain_values, relations):
    lhs_at = _affine_at(lhs, p_min)
    rhs_at = _affine_at(rhs, p_min)
    gap = rhs["slope"] - lhs["slope"]
    holds = gap > 0 and lhs_at < rhs_at
    q_at_base = 2 * p_min + (0 if parity == "even" else 1)
    display = (
        f"q = {'2p' if parity == 'even' else '2p+1'}, p >= {p_min}: "
        f"maxdeg(A)+q-2 < mindeg Tor_q(R,R); at p={p_min} (q={q_at_base}): "
        + " ".join(
            f"{v} {r}" for v, r in zip(chain_values, relations + [""])
        ).strip()
        + f"; slopes {lhs['slope']} vs {rhs['slope']}"
    )
    return {
        "method": "DegreeBound",
        "covers": {"parity": parity, "p_min": int(p_min)},
        "lhs": lhs,
        "rhs": rhs,
        "base_p": int(p_min),
        "lhs_at_base": int(lhs_at),
        "rhs_at_base": int(rhs_at),
        "slope_gap": int(gap),
        "chain": {"exprs": chain_exprs, "values": chain_values, "relations": relations},
        "holds": bool(holds),
        "display": display,
    }


def _gcd_item(k: int, h: int) -> dict:
    g = math.gcd(k, h)
    holds = g > 1
    return {
        "method": "GcdDivisibility",
        "covers": {"q": 3},
        "gcd_of": [int(k), int(h)],
        "gcd": int(g),
        "internal_shift": -1,
        "holds": bool(holds),
        "display": (
            f"q = 3: every degree of A is divisible by gcd(k, h) = {g} > 1, "
            "so no nonzero degree 0 map can land in A shifted by -1"
        ),
    }


def _coverage_complete(evidence) -> bool:
    """Do the holding items cover every q > 2?

    Tail items cover an arithmetic progression upwards; singleton items
    cover one q. Both parities need a holding tail, and any gap below a
    tail's start must be closed by singletons.
    """
    even_starts = []
    odd_starts = []
    singles = set()
    for item in evidence:
        if not item.get("holds"):
            continue
        cov = item.get("covers", {})
        if "q" in cov:
            singles.add(int(cov["q"]))
        elif cov.get("parity") == "even":
            base = int(cov.get("p_min", cov.get("i_min")))
            even_starts.append(2 * base)
        elif cov.get("parity") == "odd":
            base = int(cov.get("p_min", cov.get("i_min")))
            odd_starts.append(2 * base + 1)
    if not even_starts or not odd_starts:
        return False
    even_from = min(even_starts)
    odd_from = min(odd_starts)
    for q in range(4, even_from, 2):
        if q not in singles:
            return False
    for q in range(3, odd_from, 2):
        if q not in singles:
            return False
    return True


# -- single object -----------------------------------------------------------


def certify_single(n: int, k: int) -> FormalityCertificate:
    """Certificate for the one generator truncated algebra with deg t = k
    and t^(n+1) = 0, via its 2-periodic free resolution.

    The degree q term of the resolution is free of rank one with shift
    -i(n+1)k (q = 2i) or -(i(n+1)+1)k (q = 2i+1), so the degree 2-q hom
    space is the single component of A in the recorded target degree;
    the evidence shows that target degree exceeds maxdeg(A) = nk for all
    q > 2.
    """
    if n < 1 or k < 1:
        raise InputValidationError("need n >= 1 and k >= 1")
    band = n * k
    slope = n * k + k - 2

    def item(parity, i_min, intercept):
        val = intercept + slope * i_min
        holds = slope >= 0 and val > band
        return {
            "method": "PeriodicResolution",
            "covers": {"parity": parity, "i_min": int(i_min)},
            "target_degree": _affine(slope, intercept),
            "band_max": int(band),
            "value_at_base": int(val),
            "holds": bool(holds),
            "display": (
                f"q = {'2i' if parity == 'even' else '2i+1'}, i >= {i_min}: "
                f"hom target degree {intercept} + {slope} i = {val} at i={i_min}, "
                f"> maxdeg(A) = {band}, and the slope {slope} is >= 0"
            ),
        }

    evidence = (item("even", 2, 2), item("odd", 1, 1 + k))
    all_hold = all(e["holds"] for e in evidence) and _coverage_complete(evidence)
    verdict = CERTIFIED if all_hold else INCONCLUSIVE
    return FormalityCertificate(
        {"family": "single", "n": int(n), "k": int(k), "maxdeg": int(band)},
        verdict,
        (
            {"name": "n >= 1", "ok": n >= 1, "actual": int(n)},
            {"name": "k >= 1", "ok": k >= 1, "actual": int(k)},
        ),
        evidence,
    )


# -- configurations of projective-space type objects -------------------------


_PRESET_NOTE = (
    "configuration presets set arrow times loop products to zero; the degree "
    "evidence quantifies over every algebra with the stated degree data and "
    "does not depend on that choice"
)


def certify_config_pn(n: int, k: int, h: int) -> FormalityCertificate:
    """Certificate for graph configurations of truncated one generator
    objects: loops of degree k with n+1 vanishing power, arrows of degree
    h, under n, k >= 2, nk/2 <= h <= nk, gcd(k, h) > 1.

    Evidence: affine degree comparisons with mindeg(I) >= h + k and
    mindeg(J) = k for q >= 4 (base point p = 2 for both parities), and a
    divisibility argument at q = 3.
    """
    hyps = (
        {"name": "n >= 2", "ok": n >= 2, "actual": int(n)},
        {"name": "k >= 2", "ok": k >= 2, "actual": int(k)},
        {"name": "nk/2 <= h", "ok": 2 * h >= n * k, "actual": int(h)},
        {"name": "h <= nk", "ok": h <= n * k, "actual": int(h)},
        {"name": "gcd(k, h) > 1", "ok": math.gcd(k, h) > 1, "actual": int(math.gcd(k, h))},
    )
    subject = {
        "family": "pn_config",
        "n": int(n),
        "k": int(k),
        "h": int(h),
        "maxdeg": int(n * k),
        "mindeg_I_bound": int(h + k),
        "mindeg_J": int(k),
    }
    if not all(x["ok"] for x in hyps):
        return FormalityCertificate(subject, INAPPLICABLE, hyps, (), (_PRESET_NOTE,))

    band = n * k
    p = 2
    even = _degree_bound_item(
        "even",
        2,
        _affine(2, band - 2),
        _tor_mindeg_bound("even", h + k, k),
        ["maxdeg(A)+q-2", "2h+2p-2", "ph+2p", "p(h+k)"],
        [band + 2 * p - 2, 2 * h + 2 * p - 2, p * h + 2 * p, p * (h + k)],
        ["<=", "<", "<="],
    )
    odd = _degree_bound_item(
        "odd",
        2,
        _affine(2, band - 1),
        _tor_mindeg_bound("odd", h + k, k),
        ["maxdeg(A)+q-2", "2h+2p-1", "ph+2p", "p(h+k)+k"],
        [band + 2 * p - 1, 2 * h + 2 * p - 1, p * h + 2 * p, p * (h + k) + k],
        ["<=", "<", "<"],
    )
    gcd_item = _gcd_item(k, h)
    evidence = (even, odd, gcd_item)
    ok = all(e["holds"] for e in evidence) and _coverage_complete(evidence)
    return FormalityCertificate(
        subject, CERTIFIED if ok else INCONCLUSIVE, hyps, evidence, (_PRESET_NOTE,)
    )


def certify_config_spherical(k: int, h_min: int, h_max: int) -> FormalityCertificate:
    """Certificate for graph configurations of two dimensional objects
    (loop degree k, squares vanish) with arrow degrees in [h_min, h_max],
    under k >= 4 and floor(k/2) <= h_min <= h_max <= k.

    Evidence: affine degree comparisons with the worst case h = h_min,
    mindeg(I) >= 2h and mindeg(J) >= h, maxdeg(A) = k. The odd family is
    anchored at p = 1 so that q = 3 is covered; when the q = 3 comparison
    is not strict (this happens exactly at k = 5 with h_min = 2), the
    failing instantiation is recorded, the odd tail is re-anchored at
    p = 2, and the verdict degrades to Inconclusive. No certificate can do
    better there: the Serre-dual triangle with degree h arrows one way round
    the cycle, degree k - h arrows back and a_ji a_ij = t_i has the degree
    data of the family and HH^{3,-1} = 1.
    """
    floor_half = k // 2
    hyps = (
        {"name": "k >= 4", "ok": k >= 4, "actual": int(k)},
        {"name": "floor(k/2) <= h_min", "ok": floor_half <= h_min, "actual": int(h_min)},
        {"name": "h_min <= h_max", "ok": h_min <= h_max, "actual": int(h_max)},
        {"name": "h_max <= k", "ok": h_max <= k, "actual": int(h_max)},
    )
    h = h_min
    subject = {
        "family": "spherical_config",
        "k": int(k),
        "h_min": int(h_min),
        "h_max": int(h_max),
        "worst_case_h": int(h),
        "maxdeg": int(k),
        "mindeg_I_bound": int(2 * h),
        "mindeg_J_bound": int(h),
    }
    notes = [_PRESET_NOTE]
    if k in (2, 3):
        notes.append(
            "k in {2, 3} lies outside this certificate method; "
            "no claim of non-formality is made"
        )
    if not all(x["ok"] for x in hyps):
        return FormalityCertificate(subject, INAPPLICABLE, hyps, (), tuple(notes))

    p = 2
    even = _degree_bound_item(
        "even",
        2,
        _affine(2, k - 2),
        _tor_mindeg_bound("even", 2 * h, h),
        ["maxdeg(A)+q-2", "2h+2p-1", "2h+2p", "2ph"],
        [k + 2 * p - 2, 2 * h + 2 * p - 1, 2 * h + 2 * p, 2 * p * h],
        ["<=", "<", "<="],
    )
    p = 1
    odd = _degree_bound_item(
        "odd",
        1,
        _affine(2, k - 1),
        _tor_mindeg_bound("odd", 2 * h, h),
        ["maxdeg(A)+q-2", "2h+2p", "2ph+h"],
        [k + 2 * p - 1, 2 * h + 2 * p, 2 * p * h + h],
        ["<=", "<"],
    )
    evidence: List[dict] = [even, odd]
    if not odd["holds"]:
        p = 2
        odd_tail = _degree_bound_item(
            "odd",
            2,
            _affine(2, k - 1),
            _tor_mindeg_bound("odd", 2 * h, h),
            ["maxdeg(A)+q-2", "2h+2p", "2ph+h"],
            [k + 2 * p - 1, 2 * h + 2 * p, 2 * p * h + h],
            ["<=", "<"],
        )
        evidence.append(odd_tail)
        notes.append(
            f"the q = 3 degree comparison {odd['lhs_at_base']} < {odd['rhs_at_base']} "
            "is not strict for these parameters; the q = 3 obstruction group is "
            "nonzero for some graphs with this degree data (the Serre-dual triangle "
            f"with degree {k} loops, degree {h} arrows one way round the cycle, "
            f"degree {k - h} arrows back and a_ji a_ij = t_i has HH^{{3,-1}} = 1), "
            "so no vanishing certificate can exist at this boundary"
        )
    ok = all(e["holds"] for e in evidence) and _coverage_complete(evidence)
    return FormalityCertificate(
        subject, CERTIFIED if ok else INCONCLUSIVE, hyps, tuple(evidence), tuple(notes)
    )


def cy_normalize(n: int, k: int) -> Dict[str, object]:
    """Arrow degree forced by the Calabi-Yau normalization: h = nk/2,
    with the divisibility flag gcd(k, h) > 1. Needs nk even."""
    if (n * k) % 2 != 0:
        raise InputValidationError(f"nk = {n * k} is odd; no symmetric arrow degree exists")
    h = (n * k) // 2
    return {"h": h, "gcd_ok": math.gcd(k, h) > 1}


# -- independent re-checker ---------------------------------------------------


class RecheckReport(Record):
    ok: bool
    item_results: Tuple[Tuple[int, bool, str], ...]
    messages: Tuple[str, ...]

    def __init__(self, ok, item_results, messages):
        vars(self).update(ok=ok, item_results=item_results, messages=messages)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "items": [
                {"index": i, "ok": ok, "message": msg} for i, ok, msg in self.item_results
            ],
            "messages": list(self.messages),
        }


_SUBJECT_PARAMS = {
    "single": ("n", "k"),
    "pn_config": ("n", "k", "h"),
    "spherical_config": ("k", "h_min", "h_max", "worst_case_h"),
}


def _expected_affines(subject: dict):
    """Recompute the certified affine data from the subject parameters."""
    family = subject["family"]
    if any(type(subject.get(key)) is not int for key in _SUBJECT_PARAMS.get(family, ())):
        raise InputValidationError(f"{family} subject needs integer {_SUBJECT_PARAMS[family]}")
    if family == "single":
        n, k = subject["n"], subject["k"]
        slope = n * k + k - 2
        return {
            "band": n * k,
            ("even",): (slope, 2, 2),
            ("odd",): (slope, 1 + k, 1),
        }
    if family == "pn_config":
        n, k, h = subject["n"], subject["k"], subject["h"]
        return {
            "maxdeg": n * k,
            "mu": h + k,
            "nu": k,
            "gcd_of": (k, h),
        }
    if family == "spherical_config":
        k, h = subject["k"], subject["worst_case_h"]
        return {"maxdeg": k, "mu": 2 * h, "nu": h}
    raise InputValidationError(f"unknown certificate family {family!r}")


def _recheck_degree_bound(item: dict, maxdeg: int, mu: int, nu: int) -> Tuple[bool, str]:
    cov = item.get("covers", {})
    parity = cov.get("parity")
    p_min = cov.get("p_min")
    if parity not in ("even", "odd") or p_min is None:
        return False, "malformed coverage"
    lhs = item["lhs"]
    rhs = item["rhs"]
    want_lhs = (2, maxdeg - 2) if parity == "even" else (2, maxdeg - 1)
    want_rhs = (mu, 0) if parity == "even" else (mu, nu)
    if (lhs["slope"], lhs["intercept"]) != want_lhs:
        return False, f"lhs affine mismatch: {lhs} vs {want_lhs}"
    if (rhs["slope"], rhs["intercept"]) != want_rhs:
        return False, f"rhs affine mismatch: {rhs} vs {want_rhs}"
    la = _affine_at(lhs, p_min)
    ra = _affine_at(rhs, p_min)
    if item["lhs_at_base"] != la or item["rhs_at_base"] != ra:
        return False, "base point values do not replay"
    gap = rhs["slope"] - lhs["slope"]
    if item["slope_gap"] != gap:
        return False, "slope gap does not replay"
    holds = gap > 0 and la < ra
    if bool(item["holds"]) != holds:
        return False, f"holds flag wrong: recomputed {holds}"
    if holds:
        return True, f"replayed: {la} < {ra} and slope gap {gap} > 0"
    return True, f"replayed failing comparison {la} < {ra}"


def _recheck_gcd(item: dict, k: int, h: int) -> Tuple[bool, str]:
    g = math.gcd(k, h)
    if list(item.get("gcd_of", [])) != [k, h]:
        return False, "gcd arguments mismatch"
    if item.get("gcd") != g:
        return False, f"gcd does not replay: {item.get('gcd')} vs {g}"
    holds = g > 1 and (-1) % g != 0
    if bool(item["holds"]) != holds:
        return False, "holds flag wrong"
    return True, f"replayed gcd = {g}"


def _recheck_periodic(item: dict, band: int, slope: int, intercept: int, i_min: int):
    td = item["target_degree"]
    if (td["slope"], td["intercept"]) != (slope, intercept):
        return False, "target degree affine mismatch"
    if item.get("band_max") != band:
        return False, "band mismatch"
    cov = item.get("covers", {})
    if cov.get("i_min") != i_min:
        return False, "base index mismatch"
    val = intercept + slope * i_min
    if item.get("value_at_base") != val:
        return False, "base value does not replay"
    holds = slope >= 0 and val > band
    if bool(item["holds"]) != holds:
        return False, "holds flag wrong"
    return True, f"replayed: {val} > {band} with slope {slope} >= 0"


def verify_certificate(cert) -> RecheckReport:
    """Replay every piece of evidence from the subject parameters alone.

    This function is deliberately independent of the construction code:
    it recomputes the affine data, base values, gcds and coverage from
    scratch and compares them with what the certificate claims, then
    checks that the verdict is consistent with the surviving evidence.
    """
    if isinstance(cert, FormalityCertificate):
        cert = cert.to_json_dict()
    messages: List[str] = []
    results: List[Tuple[int, bool, str]] = []
    try:
        subject = cert["subject"]
        family = subject["family"]
        verdict = cert["verdict"]
        evidence = cert["evidence"]
        hypotheses = cert["hypotheses"]
        params = _expected_affines(subject)
    except (KeyError, TypeError, InputValidationError):
        return RecheckReport(False, (), ("malformed certificate document",))

    for hyp in hypotheses:
        name, claimed = hyp["name"], bool(hyp["ok"])
        actual = _evaluate_hypothesis(family, subject, name)
        if actual is None:
            messages.append(f"unknown hypothesis {name!r}")
        elif actual != claimed:
            messages.append(f"hypothesis {name!r} does not replay")
    hyp_all = all(
        _evaluate_hypothesis(family, subject, h["name"]) is True for h in hypotheses
    )

    for idx, item in enumerate(evidence):
        method = item.get("method")
        try:
            if method == "DegreeBound":
                ok, msg = _recheck_degree_bound(
                    item, params["maxdeg"], params["mu"], params["nu"]
                )
            elif method == "GcdDivisibility":
                k, h = params["gcd_of"]
                ok, msg = _recheck_gcd(item, k, h)
            elif method == "PeriodicResolution":
                parity = item.get("covers", {}).get("parity")
                slope, intercept, i_min = params[(parity,)]
                ok, msg = _recheck_periodic(item, params["band"], slope, intercept, i_min)
            else:
                ok, msg = False, f"unknown evidence method {method!r}"
        except (KeyError, TypeError):
            ok, msg = False, "malformed evidence item"
        results.append((idx, bool(ok), msg))

    items_ok = all(ok for _, ok, _ in results)
    try:
        coverage = _coverage_complete(evidence)
    except (TypeError, ValueError):
        coverage = False  # a covers entry that is not an integer; its item fails above
    expected_verdict = (
        INAPPLICABLE
        if not hyp_all
        else (CERTIFIED if coverage and all(e.get("holds") for e in evidence) else INCONCLUSIVE)
    )
    verdict_ok = verdict == expected_verdict
    if not verdict_ok:
        messages.append(f"verdict {verdict!r} inconsistent; expected {expected_verdict!r}")
    ok = items_ok and verdict_ok and not any(
        m.startswith("hypothesis") or m.startswith("unknown hypothesis") for m in messages
    )
    return RecheckReport(ok, tuple(results), tuple(messages))


def _evaluate_hypothesis(family: str, subject: dict, name: str) -> Optional[bool]:
    n = subject.get("n")
    k = subject.get("k")
    h = subject.get("h")
    h_min = subject.get("h_min")
    h_max = subject.get("h_max")
    table = {
        ("single", "n >= 1"): lambda: n >= 1,
        ("single", "k >= 1"): lambda: k >= 1,
        ("pn_config", "n >= 2"): lambda: n >= 2,
        ("pn_config", "k >= 2"): lambda: k >= 2,
        ("pn_config", "nk/2 <= h"): lambda: 2 * h >= n * k,
        ("pn_config", "h <= nk"): lambda: h <= n * k,
        ("pn_config", "gcd(k, h) > 1"): lambda: math.gcd(k, h) > 1,
        ("spherical_config", "k >= 4"): lambda: k >= 4,
        ("spherical_config", "floor(k/2) <= h_min"): lambda: k // 2 <= h_min,
        ("spherical_config", "h_min <= h_max"): lambda: h_min <= h_max,
        ("spherical_config", "h_max <= k"): lambda: h_max <= k,
    }
    fn = table.get((family, name))
    return None if fn is None else bool(fn())
