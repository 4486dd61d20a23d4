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
negative claim. Every builder returns through one verdict rule,
_certificate, and builds each degree comparison from its degree data
with _degree_bound_item.

verify_certificate shares no code with the builders. From the subject's
integer parameters and a table of its own, _FAMILIES, it recomputes the
whole subject, each hypothesis with its actual value, and each evidence
item from its method and covers, through one replay function per method
(_REPLAYS). A stated entry passes only if it equals the recomputed one
key for key, with the same types, but for the prose keys in _PROSE. A
DegreeBound chain is checked, not recomputed: it must run from the
item's lhs to its rhs at the base point by steps < or <= that hold.
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
            and _malformed_entry(hypotheses, evidence) is None
            and isinstance(notes, list)
        ):
            raise InputValidationError(
                "a certificate needs a subject object, a verdict string, a list of "
                "hypotheses with a name and ok, a list of evidence objects whose "
                "covers are objects, and a list of notes"
            )
        return cls(subject, verdict, tuple(hypotheses), tuple(evidence), tuple(notes))


def _malformed_entry(hypotheses, evidence) -> Optional[str]:
    """The first hypothesis or evidence entry without the shape the checks
    read, named, or None: both are lists, each hypothesis an object with a
    string name and an ok, and each evidence item an object whose covers,
    if given, is an object."""
    if not (isinstance(hypotheses, (list, tuple)) and isinstance(evidence, (list, tuple))):
        return "malformed certificate document: hypotheses and evidence must be lists"
    for i, h in enumerate(hypotheses):
        if not (isinstance(h, dict) and isinstance(h.get("name"), str) and "ok" in h):
            return f"malformed hypothesis {i}: not an object with a string name and an ok"
    for i, e in enumerate(evidence):
        if not (isinstance(e, dict) and isinstance(e.get("covers", {}), dict)):
            return f"malformed evidence item {i}: not an object whose covers is an object"
    return None


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


def _degree_bound_item(parity, p_min, maxdeg, mu, nu, chain) -> dict:
    """The DegreeBound item for q = 2p ("even") or q = 2p + 1 ("odd"),
    p >= p_min: the lhs maxdeg(A) + q - 2, which is 2p + maxdeg - 2 or
    2p + maxdeg - 1, against the rhs _tor_mindeg_bound(parity, mu, nu).
    chain(parity, p) gives the exprs, values and relations that the
    display chains after maxdeg(A)+q-2 at the base point p = p_min."""
    odd = parity == "odd"
    lhs = _affine(2, maxdeg - 2 + odd)
    rhs = _tor_mindeg_bound(parity, mu, nu)
    lhs_at, rhs_at = _affine_at(lhs, p_min), _affine_at(rhs, p_min)
    gap = rhs["slope"] - lhs["slope"]
    holds = gap > 0 and lhs_at < rhs_at
    exprs, values, relations = chain(parity, p_min)
    exprs, values = ["maxdeg(A)+q-2"] + exprs, [lhs_at] + values
    display = (
        f"q = {'2p+1' if odd else '2p'}, p >= {p_min}: "
        f"maxdeg(A)+q-2 < mindeg Tor_q(R,R); at p={p_min} (q={2 * p_min + odd}): "
        + " ".join(f"{v} {r}" for v, r in zip(values, relations + [""])).strip()
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
        "chain": {"exprs": exprs, "values": values, "relations": relations},
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


def _certificate(subject, hyps, notes, evidence) -> FormalityCertificate:
    """The one verdict rule. CriterionInapplicable, with no evidence
    built, when a hypothesis fails; otherwise CertifiedFormal when every
    item of evidence() holds and together they cover every q > 2, and
    Inconclusive when not. evidence() may append to the list notes, which
    is read after it."""
    if not all(x["ok"] for x in hyps):
        return FormalityCertificate(subject, INAPPLICABLE, hyps, (), tuple(notes))
    items = tuple(evidence())
    ok = all(e["holds"] for e in items) and _coverage_complete(items)
    return FormalityCertificate(
        subject, CERTIFIED if ok else INCONCLUSIVE, hyps, items, tuple(notes)
    )


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

    return _certificate(
        {"family": "single", "n": int(n), "k": int(k), "maxdeg": int(band)},
        (
            {"name": "n >= 1", "ok": n >= 1, "actual": int(n)},
            {"name": "k >= 1", "ok": k >= 1, "actual": int(k)},
        ),
        (),
        lambda: (item("even", 2, 2), item("odd", 1, 1 + k)),
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

    Evidence: degree comparisons from maxdeg(A) = nk, mindeg(I) >= h + k
    and mindeg(J) = k for q >= 4 (base point p = 2 for both parities),
    and a divisibility argument at q = 3.
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

    def chain(parity, p):
        odd = parity == "odd"
        return (
            ["2h+2p-1" if odd else "2h+2p-2", "ph+2p", "p(h+k)+k" if odd else "p(h+k)"],
            [2 * h + 2 * p - 2 + odd, p * h + 2 * p, p * (h + k) + k * odd],
            ["<=", "<", "<" if odd else "<="],
        )

    def evidence():
        even, odd = (_degree_bound_item(parity, 2, n * k, h + k, k, chain)
                     for parity in ("even", "odd"))
        return even, odd, _gcd_item(k, h)

    return _certificate(subject, hyps, (_PRESET_NOTE,), evidence)


def certify_config_spherical(k: int, h_min: int, h_max: int) -> FormalityCertificate:
    """Certificate for graph configurations of two dimensional objects
    (loop degree k, squares vanish) with arrow degrees in [h_min, h_max],
    under k >= 4 and floor(k/2) <= h_min <= h_max <= k.

    Evidence: degree comparisons from the worst case h = h_min,
    mindeg(I) >= 2h and mindeg(J) >= h, maxdeg(A) = k. The odd family is
    anchored at p = 1 so that q = 3 is covered; when the q = 3 comparison
    is not strict (this happens exactly at k = 5 with h_min = 2), the
    failing instantiation is recorded, the odd tail is re-anchored at
    p = 2, and the verdict degrades to Inconclusive. No certificate can do
    better there: the Serre-dual triangle with degree h arrows one way round
    the cycle, degree k - h arrows back and a_ji a_ij = t_i has the degree
    data of the family and HH^{3,-1} = 1.
    """
    hyps = (
        {"name": "k >= 4", "ok": k >= 4, "actual": int(k)},
        {"name": "floor(k/2) <= h_min", "ok": k // 2 <= h_min, "actual": int(h_min)},
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

    def chain(parity, p):
        if parity == "even":
            return (["2h+2p-1", "2h+2p", "2ph"], [2 * h + 2 * p - 1, 2 * h + 2 * p, 2 * p * h],
                    ["<=", "<", "<="])
        return ["2h+2p", "2ph+h"], [2 * h + 2 * p, 2 * p * h + h], ["<=", "<="]

    def evidence():
        even, odd, odd_tail = (_degree_bound_item(parity, p_min, k, 2 * h, h, chain)
                               for parity, p_min in (("even", 2), ("odd", 1), ("odd", 2)))
        if odd["holds"]:
            return even, odd
        notes.append(
            f"the q = 3 degree comparison {odd['lhs_at_base']} < {odd['rhs_at_base']} "
            "is not strict for these parameters; the q = 3 obstruction group is "
            "nonzero for some graphs with this degree data (the Serre-dual triangle "
            f"with degree {k} loops, degree {h} arrows one way round the cycle, "
            f"degree {k - h} arrows back and a_ji a_ij = t_i has HH^{{3,-1}} = 1), "
            "so no vanishing certificate can exist at this boundary"
        )
        return even, odd, odd_tail

    return _certificate(subject, hyps, notes, evidence)


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


# Each family: its integer parameters, and from them its hypotheses by
# name with their ok and actual values, the subject's derived fields and,
# per evidence method, the data that method's replay reads. The spherical
# family's worst case arrow degree is h_min.
_FAMILIES = {
    "single": (("n", "k"), lambda n, k: (
        {"n >= 1": (n >= 1, n), "k >= 1": (k >= 1, k)},
        {"maxdeg": n * k},
        {"PeriodicResolution": (n * k, n * k + k - 2, {"even": (2, 2), "odd": (1 + k, 1)})},
    )),
    "pn_config": (("n", "k", "h"), lambda n, k, h: (
        {"n >= 2": (n >= 2, n), "k >= 2": (k >= 2, k), "nk/2 <= h": (2 * h >= n * k, h),
         "h <= nk": (h <= n * k, h), "gcd(k, h) > 1": (math.gcd(k, h) > 1, math.gcd(k, h))},
        {"maxdeg": n * k, "mindeg_I_bound": h + k, "mindeg_J": k},
        {"DegreeBound": (n * k, h + k, k), "GcdDivisibility": (k, h)},
    )),
    "spherical_config": (("k", "h_min", "h_max"), lambda k, h_min, h_max: (
        {"k >= 4": (k >= 4, k), "floor(k/2) <= h_min": (k // 2 <= h_min, h_min),
         "h_min <= h_max": (h_min <= h_max, h_max), "h_max <= k": (h_max <= k, h_max)},
        {"worst_case_h": h_min, "maxdeg": k, "mindeg_I_bound": 2 * h_min, "mindeg_J_bound": h_min},
        {"DegreeBound": (k, 2 * h_min, h_min)},
    )),
}

# The keys whose values are prose, which recheck does not replay: an item's
# display, a DegreeBound chain's exprs, and the certificate's notes.
_PROSE = ("display", "exprs", "notes")


def _difference(stated: dict, want: dict) -> Optional[Tuple[object, object, object]]:
    """The first key whose stated value is not the replayed one, with both
    values (None for a missing key), or None. The keys of want come first,
    in order, then any other key of stated that is not prose. Values are
    equal only with equal types at every depth: True is not 1, and 6.0 is
    not 6."""
    for key, wanted in want.items():
        got = stated.get(key)
        if got is not wanted and not _same(got, wanted):
            return key, got, wanted
    if len(stated) > len(want):
        for key in stated:
            if key not in want and key not in _PROSE:
                return key, stated[key], None
    return None


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(b) is dict:
        return _difference(a, b) is None
    if type(b) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _chain_holds(chain: dict, first: int, last: int) -> bool:
    """Does a DegreeBound chain, with one expr per value, run from first to
    last by steps < or <= that hold between integers? Its exprs and
    interior values are the builder's to choose."""
    values, relations = chain["values"], chain["relations"]
    return (len(chain["exprs"]) == len(values) == len(relations) + 1
            and all(type(v) is int for v in values) and values[0] == first and values[-1] == last
            and all(a < b if r == "<" else r == "<=" and a <= b
                    for a, r, b in zip(values, relations, values[1:])))


# One replay per evidence method: from the item's covers and the family's
# replay data, the whole item but its method and prose, with the message
# of a replay that passes. A DegreeBound chain replays as itself if it
# holds, since only its ends follow from the covers.


def _replay_degree_bound(item: dict, maxdeg: int, mu: int, nu: int):
    parity, p = item["covers"]["parity"], item["covers"]["p_min"]
    odd = {"even": 0, "odd": 1}[parity]
    if type(p) is not int:
        raise TypeError("p_min must be an integer")
    lhs_at, rhs_at, chain = 2 * p + maxdeg - 2 + odd, mu * p + nu * odd, item["chain"]
    holds = mu > 2 and lhs_at < rhs_at
    return {
        "covers": {"parity": parity, "p_min": p},
        "lhs": {"slope": 2, "intercept": maxdeg - 2 + odd},
        "rhs": {"slope": mu, "intercept": nu * odd},
        "base_p": p, "lhs_at_base": lhs_at, "rhs_at_base": rhs_at, "slope_gap": mu - 2,
        "chain": {"values": chain["values"], "relations": chain["relations"]}
        if _chain_holds(chain, lhs_at, rhs_at) else f"a chain of < and <= from {lhs_at} to {rhs_at}",
        "holds": holds,
    }, (f"replayed: {lhs_at} < {rhs_at} and slope gap {mu - 2} > 0" if holds
        else f"replayed failing comparison {lhs_at} < {rhs_at}")


def _replay_gcd(item: dict, k: int, h: int):
    g = math.gcd(k, h)
    return {"covers": {"q": 3}, "gcd_of": [k, h], "gcd": g, "internal_shift": -1,
            "holds": g > 1}, f"replayed gcd = {g}"


def _replay_periodic(item: dict, band: int, slope: int, bases: dict):
    """bases maps a parity to the intercept and base index of its tail."""
    parity = item["covers"]["parity"]
    intercept, i_min = bases[parity]
    value = intercept + slope * i_min
    return {"covers": {"parity": parity, "i_min": i_min},
            "target_degree": {"slope": slope, "intercept": intercept}, "band_max": band,
            "value_at_base": value, "holds": slope >= 0 and value > band,
            }, f"replayed: {value} > {band} with slope {slope} >= 0"


_REPLAYS = {"DegreeBound": _replay_degree_bound, "GcdDivisibility": _replay_gcd,
            "PeriodicResolution": _replay_periodic}
_DOES_NOT_REPLAY = "{!r} does not replay: {!r} vs {!r}"


def verify_certificate(cert) -> RecheckReport:
    """Replay a certificate's subject, hypotheses and evidence from the
    subject's integer parameters alone.

    This function is deliberately independent of the construction code.
    From the parameters, through _FAMILIES, it recomputes the whole
    subject, each of the family's hypotheses with its ok and actual
    values, and, through its method's replay in _REPLAYS, each evidence
    item from its covers. A stated entry passes only if it equals the
    recomputed one key for key, with the same types, but for the prose
    keys in _PROSE; a DegreeBound chain passes if it holds (_chain_holds).
    The hypothesis list must hold each of the family's hypotheses exactly
    once, in any order, and the verdict must be the one that the
    recomputed hypotheses and the claimed evidence give. A plain dict is
    read as the loader reads it: a hypothesis or evidence entry of the
    wrong shape gives a failing report that names it, and nothing raises.
    """
    if isinstance(cert, FormalityCertificate):
        cert = cert.to_json_dict()
    try:
        subject = cert["subject"]
        verdict, evidence, hypotheses = cert["verdict"], cert["evidence"], cert["hypotheses"]
        family = subject["family"]
        params, facts = _FAMILIES[family]
        values = [subject.get(key) for key in params]
        if any(type(v) is not int for v in values):
            raise TypeError("subject parameters must be integers")
        hyps, derived, replay = facts(*values)
    except (KeyError, TypeError):
        return RecheckReport(False, (), ("malformed certificate document",))
    malformed = _malformed_entry(hypotheses, evidence)
    if malformed:
        return RecheckReport(False, (), (malformed,))

    messages: List[str] = []
    difference = _difference(subject, {"family": family, **dict(zip(params, values)), **derived})
    if difference:
        messages.append("subject {!r} does not follow from its parameters: {!r} vs {!r}"
                        .format(*difference))
    listed = set()
    for hyp in hypotheses:
        name = hyp["name"]
        if name not in hyps:
            messages.append(f"unknown hypothesis {name!r}")
        elif name in listed:
            messages.append(f"hypothesis {name!r} listed twice")
        else:
            ok, actual = hyps[name]
            difference = _difference(hyp, {"name": name, "ok": ok, "actual": actual})
            if difference:
                messages.append(f"hypothesis {name!r}: " + _DOES_NOT_REPLAY.format(*difference))
        listed.add(name)
    messages += [f"hypothesis {name!r} missing" for name in hyps if name not in listed]

    results: List[Tuple[int, bool, str]] = []
    for idx, item in enumerate(evidence):
        method = item.get("method")
        try:
            if method not in _REPLAYS:
                ok, msg = False, f"unknown evidence method {method!r}"
            else:
                want, msg = _REPLAYS[method](item, *replay[method])
                difference = _difference(item, {"method": method, **want})
                ok, msg = not difference, _DOES_NOT_REPLAY.format(*difference) if difference else msg
        except (KeyError, TypeError):
            ok, msg = False, "malformed evidence item"
        results.append((idx, ok, msg))

    try:
        coverage = _coverage_complete(evidence)
    except (TypeError, ValueError, OverflowError):
        coverage = False  # a covers entry that is not an integer; its item fails above
    expected_verdict = (
        INAPPLICABLE
        if not all(ok for ok, _ in hyps.values())
        else (CERTIFIED if coverage and all(e.get("holds") for e in evidence) else INCONCLUSIVE)
    )
    if verdict != expected_verdict:
        messages.append(f"verdict {verdict!r} inconsistent; expected {expected_verdict!r}")
    return RecheckReport(all(ok for _, ok, _ in results) and not messages, tuple(results),
                         tuple(messages))
