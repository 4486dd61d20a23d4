"""Command line front end: JSON in, deterministic JSON/CSV/human out.

Exit codes: 0 for any computed verdict (including inapplicable criteria
and infeasible instances with witnesses), 2 for input validation
problems, 3 for resource cap refusals. Reports echo the tool version and
the full input for reproducibility; identical inputs produce byte
identical output (keys sorted, canonical rational strings, no
timestamps).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import List

from . import __version__
from .configurations import (
    ConfigGraph,
    PoincarePolynomial,
    kunneth_hom,
    normalize_shifts,
    sign_assignment,
)
from .errors import InputValidationError, ResourceCapError
from .fields import FieldSpec
from .formality import (
    FormalityCertificate,
    certify_config_pn,
    certify_config_spherical,
    certify_single,
    cy_normalize,
    verify_certificate,
)
from .graded import algebra_from_json_dict, algebra_to_json_dict, build_configuration_algebra
from .hochschild import DEFAULT_MAX_WORDS, hh_bar, kadeishvili_scan
from .presentations import presentation_from_json_dict, tor_term

MODE_NAMES = {"relative": "relative_normalized", "absolute": "absolute"}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputValidationError(f"{path}: no such file")
    except OSError as exc:  # a directory, a file without read permission
        raise InputValidationError(f"{path}: cannot read: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        # besides syntax errors: an integer literal past Python's digit
        # limit, and nesting past the recursion limit
        raise InputValidationError(f"{path}: malformed JSON: {exc}")


# integers one sweep option may list, and points one sweep grid may hold
MAX_SWEEP_POINTS = 10_000


def _int(text: str) -> int:
    """The type of every integer option: refuses |x| >= 2^63 (exit 2, with
    argparse naming the option). JSON inputs stay unbounded."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) >= 2 ** 63:
        raise argparse.ArgumentTypeError("out of range: |value| must be below 2^63")
    return value


def _parse_int_list(text: str, option: str) -> List[int]:
    """Integers of a list like 1..4,7, each read by _int; refuses (exit 3)
    more than MAX_SWEEP_POINTS of them before building any range."""
    text = text.strip()
    if not text:
        return []
    out: List[int] = []
    total = 0
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ".." in chunk:
                lo, hi = (_int(x) for x in chunk.split("..", 1))
            else:
                lo = hi = _int(chunk)
        except argparse.ArgumentTypeError as exc:
            raise InputValidationError(
                f"argument {option}: bad integer list ({exc}; use 1..4 or 2,3)"
            ) from None
        total += max(0, hi - lo + 1)
        if total > MAX_SWEEP_POINTS:
            raise ResourceCapError(
                f"{option} lists {total} integers, over the cap of {MAX_SWEEP_POINTS}"
            )
        out.extend(range(lo, hi + 1))
    return out


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"resource caps must be positive, got {value}")
    return value


def _report(command: str, echo: dict, result: dict) -> dict:
    return {
        "tool": {"name": "formalitykit", "version": __version__},
        "command": command,
        "input": echo,
        "result": result,
    }


def _emit(report: dict, output_format: str) -> str:
    if output_format == "csv":
        rows = report["result"]["rows"]
        buf = io.StringIO()
        if rows:
            header = list(rows[0].keys())
            buf.write(",".join(header) + "\n")
            for row in rows:
                buf.write(",".join(_csv_cell(row.get(h)) for h in header) + "\n")
        return buf.getvalue()
    if output_format == "human":
        return _human(report)
    return _json_text(report) + "\n"


def _json_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, with
    the same errors: an indent makes json use its pure-Python encoder, and
    this one pass is two to three times faster on the reports here."""
    out: List[str] = []
    _write_json(value, "\n", out.append)
    return "".join(out)


def _write_json(x, pad: str, put) -> None:
    """Put the JSON text of x, whose lines start with pad, piece by piece.
    It takes one frame per level of nesting, fewer than json.load needs to
    read that nesting, and it is a module function, not a closure that
    refers to itself: such a cycle would keep every piece alive until the
    garbage collector ran."""
    if isinstance(x, str):
        put(_quote(x))
    elif x is None or isinstance(x, (int, float)):
        put(_scalar_text(x))
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = sep = pad + "  "
        put("{")
        for key, item in sorted(x.items()):
            put(sep + _quote(_key_text(key)) + ": ")
            _write_json(item, inner, put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = sep = pad + "  "
        put("[")
        for item in x:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(pad + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_quote = json.encoder.encode_basestring_ascii


def _scalar_text(x) -> str:
    """None, a bool, an int or a float as json writes it, as a value or a
    key: floats by repr, with json's NaN and Infinity spellings."""
    if x is None or x is True or x is False:
        return {None: "null", True: "true", False: "false"}[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _human(report: dict) -> str:
    result = report["result"]
    lines = [f"formalitykit {__version__} :: {report['command']}"]
    if "verdict" in result:
        lines.append(f"verdict: {result['verdict']}")
        for hyp in result.get("hypotheses", []):
            mark = "ok" if hyp["ok"] else "FAILED"
            lines.append(f"  hypothesis {hyp['name']}: {mark} (actual {hyp.get('actual')})")
        for item in result.get("evidence", []):
            lines.append(f"  [{item['method']}] {item.get('display', '')}")
        for note in result.get("notes", []):
            lines.append(f"  note: {note}")
    else:
        for key in sorted(result):
            lines.append(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formalitykit",
        description="exact computations with graded algebras: Hochschild "
        "cohomology, Tor terms, and formality certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(group, name, formats=("json", "human"), **kw):
        """A leaf command; it takes --format and only the options it reads."""
        leaf = group.add_parser(name, **kw)
        leaf.add_argument("--format", default="json", choices=formats)
        return leaf

    p = add_parser(sub, "hh", help="one Hochschild cohomology dimension")
    p.add_argument("--algebra", required=True)
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--mode", default="relative", choices=tuple(MODE_NAMES))
    p.add_argument("--cocycles", action="store_true")
    p.add_argument("--max-words", type=_positive_int, default=DEFAULT_MAX_WORDS,
                   help="cochain slice cap")

    p = add_parser(sub, "scan", help="Kadeishvili diagonal scan up to qmax")
    p.add_argument("--algebra", required=True)
    p.add_argument("--qmax", type=_int, required=True)
    p.add_argument("--mode", default="relative", choices=tuple(MODE_NAMES))
    p.add_argument("--max-words", type=_positive_int, default=DEFAULT_MAX_WORDS,
                   help="cochain slice cap")

    p = add_parser(sub, "tor", help="graded dimensions of one Tor term")
    p.add_argument("--pres", required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--max-truncation", type=_positive_int, default=512)

    p = sub.add_parser("certify", help="emit a formality certificate")
    csub = p.add_subparsers(dest="family", required=True)
    c = add_parser(csub, "single")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("--k", type=_int, required=True)
    c = add_parser(csub, "pn-config")
    c.add_argument("--n", type=_int, required=True)
    c.add_argument("--k", type=_int, required=True)
    c.add_argument("--h", type=_int, required=True)
    c = add_parser(csub, "spherical")
    c.add_argument("--k", type=_int, required=True)
    c.add_argument("--hmin", type=_int, required=True)
    c.add_argument("--hmax", type=_int, required=True)

    p = add_parser(sub, "recheck", help="replay a certificate's evidence")
    p.add_argument("--cert", required=True)

    p = add_parser(sub, "normalize", help="shift normalization of a configuration graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--nk", type=_int, required=True)

    p = add_parser(sub, "signs", help="parity sign assignment on a graph")
    p.add_argument("--graph", required=True)

    p = add_parser(sub, "kunneth", help="graded symmetric/exterior power of hom data")
    p.add_argument("--poincare", required=True)
    p.add_argument("--n", type=_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--same", action="store_true")
    group.add_argument("--different", action="store_true")
    p.add_argument("--field", default="rationals", help="rationals or fp:P")

    p = add_parser(sub, "build-config", help="build a configuration algebra as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--h", type=_int, required=True)
    p.add_argument("--preset", default="orthogonal", choices=("orthogonal", "zigzag"))
    p.add_argument("--field", default="rationals", help="rationals or fp:P")

    p = sub.add_parser("sweep", help="batch certificates over a parameter grid")
    ssub = p.add_subparsers(dest="grid", required=True)
    table = ("json", "csv", "human")
    s = add_parser(ssub, "pn", table)
    s.add_argument("--n", required=True, help="list like 1..4 or 2,3")
    s.add_argument("--k", required=True)
    s.add_argument("--h", type=_int, default=None, help="fixed arrow degree; default nk/2")
    s = add_parser(ssub, "spherical", table)
    s.add_argument("--k", required=True)

    return parser


def _cmd_hh(args):
    data = _load_json(args.algebra)
    A = algebra_from_json_dict(data)
    mode = MODE_NAMES[args.mode]
    res = hh_bar(
        A, args.p, args.q, mode=mode, want_cocycles=args.cocycles,
        max_words=args.max_words,
    )
    result = {
        "p": res.p,
        "q": res.q,
        "dim": res.dim,
        "mode": res.mode,
        "slice_dims": list(res.slice_dims),
    }
    if args.cocycles:
        result["cocycles"] = [
            [{"word": list(w), "value": m, "coeff": c} for (w, m, c) in rep]
            for rep in (res.cocycles or ())
        ]
    echo = {"algebra": data, "p": args.p, "q": args.q, "mode": args.mode,
            "field": A.field_spec.tag()}
    return _report("hh", echo, result)


def _cmd_scan(args):
    data = _load_json(args.algebra)
    A = algebra_from_json_dict(data)
    table = kadeishvili_scan(A, args.qmax, mode=MODE_NAMES[args.mode], max_words=args.max_words)
    result = {
        "qmax": args.qmax,
        "table": [{"q": q, "dim": table[q]} for q in sorted(table)],
        "all_zero": all(v == 0 for v in table.values()),
    }
    echo = {"algebra": data, "qmax": args.qmax, "mode": args.mode,
            "field": A.field_spec.tag()}
    return _report("scan", echo, result)


def _cmd_tor(args):
    data = _load_json(args.pres)
    pres = presentation_from_json_dict(data)
    if pres.truncation > args.max_truncation:
        raise ResourceCapError(
            f"presentation truncation {pres.truncation} exceeds the cap {args.max_truncation}"
        )
    space = tor_term(pres, args.q)
    result = {
        "q": args.q,
        "dims": [{"degree": d, "dim": n} for d, n in sorted(space.dims().items())],
        "total_dim": space.total_dim(),
    }
    echo = {"pres": data, "q": args.q, "field": pres.field_spec.tag()}
    return _report("tor", echo, result)


def _cmd_certify(args):
    if args.family == "single":
        cert = certify_single(args.n, args.k)
        echo = {"family": "single", "n": args.n, "k": args.k}
    elif args.family == "pn-config":
        cert = certify_config_pn(args.n, args.k, args.h)
        echo = {"family": "pn-config", "n": args.n, "k": args.k, "h": args.h}
    else:
        cert = certify_config_spherical(args.k, args.hmin, args.hmax)
        echo = {"family": "spherical", "k": args.k, "hmin": args.hmin, "hmax": args.hmax}
    return _report("certify", echo, cert.to_json_dict())


def _cmd_recheck(args):
    data = _load_json(args.cert)
    if isinstance(data, dict) and "result" in data and "format" not in data:
        data = data["result"]  # accept a whole certify report
    cert = FormalityCertificate.from_json_dict(data)
    report = verify_certificate(cert)
    return _report("recheck", {"cert": data}, report.to_json_dict())


def _cmd_normalize(args):
    gdata = _load_json(args.graph)
    graph = ConfigGraph.from_json_dict(gdata)
    res = normalize_shifts(graph, args.nk)
    result = {"feasible": res.feasible, "h": res.h}
    if res.feasible:
        result["shifts"] = {str(v): s for v, s in sorted(res.shifts.items(), key=lambda kv: str(kv[0]))}
    else:
        result["witness_cycle"] = [str(v) for v in res.witness_cycle]
    if res.uses_cycle_extension:
        result["extension"] = "cycle holonomy conditions extend the tree case"
    return _report("normalize", {"graph": gdata, "nk": args.nk}, result)


def _cmd_signs(args):
    gdata = _load_json(args.graph)
    graph = ConfigGraph.from_json_dict(gdata)
    res = sign_assignment(graph)
    result = {"feasible": res.feasible}
    if res.feasible:
        result["signs"] = {str(v): s for v, s in sorted(res.signs.items(), key=lambda kv: str(kv[0]))}
    else:
        result["witness_cycle"] = [str(v) for v in res.witness_cycle]
    if res.uses_cycle_extension:
        result["extension"] = "cycle parity conditions extend the tree case"
    return _report("signs", {"graph": gdata}, result)


def _cmd_kunneth(args):
    field_spec = FieldSpec.parse(args.field)
    pdata = _load_json(args.poincare)
    poly = PoincarePolynomial.from_json_dict(pdata)
    out = kunneth_hom(poly, args.n, same_linearization=args.same, field_spec=field_spec)
    result = {
        "n": args.n,
        "same_linearization": bool(args.same),
        "power": out.to_json_dict(),
    }
    echo = {"poincare": pdata, "n": args.n, "same": bool(args.same),
            "field": field_spec.tag()}
    return _report("kunneth", echo, result)


def _cmd_build_config(args):
    field_spec = FieldSpec.parse(args.field)
    gdata = _load_json(args.graph)
    graph = ConfigGraph.from_json_dict(gdata)
    A = build_configuration_algebra(graph, args.n, args.k, args.h, args.preset, field_spec)
    echo = {"graph": gdata, "n": args.n, "k": args.k, "h": args.h, "preset": args.preset,
            "field": field_spec.tag()}
    return _report("build-config", echo, {"algebra": algebra_to_json_dict(A)})


def _cmd_sweep(args):
    rows = []
    if args.grid == "pn":
        ns, ks = sorted(_parse_int_list(args.n, "--n")), sorted(_parse_int_list(args.k, "--k"))
        if len(ns) * len(ks) > MAX_SWEEP_POINTS:
            raise ResourceCapError(
                f"--n x --k is a grid of {len(ns) * len(ks)} points, "
                f"over the cap of {MAX_SWEEP_POINTS}"
            )
        for n in ns:
            for k in ks:
                row = {"n": n, "k": k}
                if args.h is not None:
                    h = args.h
                    row["h"] = h
                    row["gcd_ok"] = None
                elif (n * k) % 2 == 0:
                    norm = cy_normalize(n, k)
                    h = norm["h"]
                    row["h"] = h
                    row["gcd_ok"] = norm["gcd_ok"]
                else:
                    row.update(
                        {"h": None, "gcd_ok": None, "verdict": "CriterionInapplicable",
                         "failed_hypotheses": ["nk even"]}
                    )
                    rows.append(row)
                    continue
                cert = certify_config_pn(n, k, h)
                row["verdict"] = cert.verdict
                row["failed_hypotheses"] = cert.failed_hypotheses()
                rows.append(row)
        echo = {"grid": "pn", "n": args.n, "k": args.k, "h": args.h}
    else:
        for k in sorted(_parse_int_list(args.k, "--k")):
            cert = certify_config_spherical(k, k // 2, k)
            rows.append(
                {
                    "k": k,
                    "h_min": k // 2,
                    "h_max": k,
                    "verdict": cert.verdict,
                    "failed_hypotheses": cert.failed_hypotheses(),
                }
            )
        echo = {"grid": "spherical", "k": args.k}
    return _report("sweep", echo, {"rows": rows})


_HANDLERS = {
    "hh": _cmd_hh,
    "scan": _cmd_scan,
    "tor": _cmd_tor,
    "certify": _cmd_certify,
    "recheck": _cmd_recheck,
    "normalize": _cmd_normalize,
    "signs": _cmd_signs,
    "kunneth": _cmd_kunneth,
    "build-config": _cmd_build_config,
    "sweep": _cmd_sweep,
}


def dispatch(argv: List[str], stdout=None) -> int:
    """Parse argv, run the command, print the report; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = _HANDLERS[args.command](args)
        stdout.write(_emit(report, args.format))
        return 0
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except InputValidationError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
