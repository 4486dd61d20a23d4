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
key for key, with the same types, and a document with a top-level key
other than the five it reads fails on that key. A certificate holds no
prose: every byte of it is replayed.
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

    def failed_hypotheses(self) -> List[str]:
        return [h["name"] for h in self.hypotheses if not h["ok"]]

    def to_json_dict(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "subject": self.subject,
            "verdict": self.verdict,
            "hypotheses": list(self.hypotheses),
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FormalityCertificate":
        """Load a certificate document, checking its shape only: whether
        its content replays, and whether it has other keys, is for
        verify_certificate to say."""
        if not isinstance(data, dict) or data.get("format") != CERT_FORMAT:
            raise InputValidationError("not a certificate document")
        subject, verdict = data.get("subject"), data.get("verdict")
        hypotheses, evidence = data.get("hypotheses"), data.get("evidence")
        if not (
            isinstance(subject, dict)
            and isinstance(verdict, str)
            and _malformed_entry(hypotheses, evidence) is None
        ):
            raise InputValidationError(
                "a certificate needs a subject object, a verdict string, a list of "
                "hypotheses with a name and ok, and a list of evidence objects whose "
                "covers are objects"
            )
        return cls(subject, verdict, tuple(hypotheses), tuple(evidence))


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


def _degree_bound_item(parity, p_min, maxdeg, mu, nu) -> dict:
    """The DegreeBound item for q = 2p ("even") or q = 2p + 1 ("odd"),
    p >= p_min: the lhs maxdeg(A) + q - 2, which is 2p + maxdeg - 2 or
    2p + maxdeg - 1, against the rhs _tor_mindeg_bound(parity, mu, nu),
    both affine in p, compared at the base point p = p_min and by slope."""
    lhs = _affine(2, maxdeg - 2 + (parity == "odd"))
    rhs = _tor_mindeg_bound(parity, mu, nu)
    lhs_at, rhs_at = _affine_at(lhs, p_min), _affine_at(rhs, p_min)
    gap = rhs["slope"] - lhs["slope"]
    holds = gap > 0 and lhs_at < rhs_at
    return {
        "method": "DegreeBound",
        "covers": {"parity": parity, "p_min": int(p_min)},
        "lhs": lhs,
        "rhs": rhs,
        "base_p": int(p_min),
        "lhs_at_base": int(lhs_at),
        "rhs_at_base": int(rhs_at),
        "slope_gap": int(gap),
        "holds": bool(holds),
    }


def _gcd_item(k: int, h: int) -> dict:
    """The q = 3 item: every degree of A is divisible by g = gcd(k, h), so
    for g > 1 no nonzero degree 0 map lands in A shifted by -1."""
    g = math.gcd(k, h)
    return {
        "method": "GcdDivisibility",
        "covers": {"q": 3},
        "gcd_of": [int(k), int(h)],
        "gcd": int(g),
        "internal_shift": -1,
        "holds": bool(g > 1),
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


def _certificate(subject, hyps, evidence) -> FormalityCertificate:
    """The one verdict rule. CriterionInapplicable, with no evidence
    built, when a hypothesis fails; otherwise CertifiedFormal when every
    item of evidence() holds and together they cover every q > 2, and
    Inconclusive when not."""
    if not all(x["ok"] for x in hyps):
        return FormalityCertificate(subject, INAPPLICABLE, hyps, ())
    items = tuple(evidence())
    ok = all(e["holds"] for e in items) and _coverage_complete(items)
    return FormalityCertificate(subject, CERTIFIED if ok else INCONCLUSIVE, hyps, items)


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
        }

    return _certificate(
        {"family": "single", "n": int(n), "k": int(k), "maxdeg": int(band)},
        (
            {"name": "n >= 1", "ok": n >= 1, "actual": int(n)},
            {"name": "k >= 1", "ok": k >= 1, "actual": int(k)},
        ),
        lambda: (item("even", 2, 2), item("odd", 1, 1 + k)),
    )


# -- configurations of projective-space type objects -------------------------


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

    def evidence():
        even, odd = (_degree_bound_item(parity, 2, n * k, h + k, k)
                     for parity in ("even", "odd"))
        return even, odd, _gcd_item(k, h)

    return _certificate(subject, hyps, evidence)


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

    def evidence():
        even, odd, odd_tail = (_degree_bound_item(parity, p_min, k, 2 * h, h)
                               for parity, p_min in (("even", 2), ("odd", 1), ("odd", 2)))
        return (even, odd) if odd["holds"] else (even, odd, odd_tail)

    return _certificate(subject, hyps, evidence)


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

# The top-level keys of a certificate document, each of which recheck reads.
_KEYS = ("format", "subject", "verdict", "hypotheses", "evidence")


def _difference(stated: dict, want: dict) -> Optional[Tuple[object, object, object]]:
    """The first key whose stated value is not the replayed one, with both
    values (None for a missing key), or None. The keys of want come first,
    in order, then any other key of stated. Values are equal only with
    equal types at every depth: True is not 1, and 6.0 is not 6."""
    for key, wanted in want.items():
        got = stated.get(key)
        if got is not wanted and not _same(got, wanted):
            return key, got, wanted
    if len(stated) > len(want):
        for key in stated:
            if key not in want:
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


def _shown(value) -> str:
    """repr(value), but an int too long for repr, at any depth of a dict or
    a list, is shown by its bit length, so that no message raises."""
    try:
        return repr(value)
    except ValueError:
        if type(value) is dict:
            return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
        if type(value) is list:
            return "[" + ", ".join(map(_shown, value)) + "]"
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__}>"


def _does_not_replay(key, got, wanted) -> str:
    return f"{_shown(key)} does not replay: {_shown(got)} vs {_shown(wanted)}"


# One replay per evidence method: from the item's covers and the family's
# replay data, the whole item but its method, with the message of a
# replay that passes.


def _replay_degree_bound(item: dict, maxdeg: int, mu: int, nu: int):
    parity, p = item["covers"]["parity"], item["covers"]["p_min"]
    odd = {"even": 0, "odd": 1}[parity]
    if type(p) is not int:
        raise TypeError("p_min must be an integer")
    lhs_at, rhs_at = 2 * p + maxdeg - 2 + odd, mu * p + nu * odd
    holds = mu > 2 and lhs_at < rhs_at
    return {
        "covers": {"parity": parity, "p_min": p},
        "lhs": {"slope": 2, "intercept": maxdeg - 2 + odd},
        "rhs": {"slope": mu, "intercept": nu * odd},
        "base_p": p, "lhs_at_base": lhs_at, "rhs_at_base": rhs_at, "slope_gap": mu - 2,
        "holds": holds,
    }, (f"replayed: {_shown(lhs_at)} < {_shown(rhs_at)} and slope gap {_shown(mu - 2)} > 0"
        if holds else f"replayed failing comparison {_shown(lhs_at)} < {_shown(rhs_at)}")


def _replay_gcd(item: dict, k: int, h: int):
    g = math.gcd(k, h)
    return {"covers": {"q": 3}, "gcd_of": [k, h], "gcd": g, "internal_shift": -1,
            "holds": g > 1}, f"replayed gcd = {_shown(g)}"


def _replay_periodic(item: dict, band: int, slope: int, bases: dict):
    """bases maps a parity to the intercept and base index of its tail."""
    parity = item["covers"]["parity"]
    intercept, i_min = bases[parity]
    value = intercept + slope * i_min
    return {"covers": {"parity": parity, "i_min": i_min},
            "target_degree": {"slope": slope, "intercept": intercept}, "band_max": band,
            "value_at_base": value, "holds": slope >= 0 and value > band,
            }, f"replayed: {_shown(value)} > {_shown(band)} with slope {_shown(slope)} >= 0"


_REPLAYS = {"DegreeBound": _replay_degree_bound, "GcdDivisibility": _replay_gcd,
            "PeriodicResolution": _replay_periodic}


def verify_certificate(cert) -> RecheckReport:
    """Replay a certificate's subject, hypotheses and evidence from the
    subject's integer parameters alone.

    This function is deliberately independent of the construction code.
    From the parameters, through _FAMILIES, it recomputes the whole
    subject, each of the family's hypotheses with its ok and actual
    values, and, through its method's replay in _REPLAYS, each evidence
    item from its covers. A stated entry passes only if it equals the
    recomputed one key for key, with the same types. The document's
    top-level keys must be among the five in _KEYS, and the first other
    one is named. The hypothesis list must hold each of the family's
    hypotheses exactly once, in any order, and the verdict must be the one
    that the recomputed hypotheses and the claimed evidence give. A plain
    dict is read as the loader reads it: a hypothesis or evidence entry of
    the wrong shape gives a failing report that names it, and nothing
    raises, since every value a message shows goes through _shown.
    """
    if isinstance(cert, FormalityCertificate):
        cert = cert.to_json_dict()
    try:
        if cert["format"] != CERT_FORMAT:
            raise TypeError("not a certificate document")
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

    extra = [key for key in cert if key not in _KEYS]
    messages = [f"unknown certificate key {_shown(extra[0])}"] if extra else []
    difference = _difference(subject, {"family": family, **dict(zip(params, values)), **derived})
    if difference:
        key, got, wanted = map(_shown, difference)
        messages.append(f"subject {key} does not follow from its parameters: {got} vs {wanted}")
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
                messages.append(f"hypothesis {name!r}: " + _does_not_replay(*difference))
        listed.add(name)
    messages += [f"hypothesis {name!r} missing" for name in hyps if name not in listed]

    results: List[Tuple[int, bool, str]] = []
    for idx, item in enumerate(evidence):
        method = item.get("method")
        try:
            if method not in _REPLAYS:
                ok, msg = False, f"unknown evidence method {_shown(method)}"
            else:
                want, msg = _REPLAYS[method](item, *replay[method])
                difference = _difference(item, {"method": method, **want})
                ok, msg = not difference, _does_not_replay(*difference) if difference else msg
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
        messages.append(f"verdict {_shown(verdict)} inconsistent; expected {expected_verdict!r}")
    return RecheckReport(all(ok for _, ok, _ in results) and not messages, tuple(results),
                         tuple(messages))
