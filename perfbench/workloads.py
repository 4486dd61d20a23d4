"""The four benchmark workloads: fixed command pools and the files they read.

A workload is a pool of `dispatch` argument vectors. A run is made of whole
passes over the pool; the seed only permutes the order within each pass, so
every run of a workload does the same mix of work. Pools have an odd number
of commands, so the median latency falls inside one command's repeats
rather than between two commands of different cost. Argument vectors name
input files by a `@name` token that `materialize` replaces with a path.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

FP = "fp:32003"

GRAPHS = {
    "A2": ([1, 2], [(1, 2)]),
    "path": ([1, 2, 3], [(1, 2), (2, 3)]),
    "triangle": ([1, 2, 3], [(1, 2), (2, 3), (3, 1)]),
    "star": ([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)]),
    "cycle4": ([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]),
}

PRESET_TAG = {"orthogonal": "o", "zigzag": "z"}


@dataclass(frozen=True)
class Op:
    """One pool entry: a stable id (the key of its pinned expectation) and
    the dispatch argv, with `@name` standing for the input file `name`."""

    id: str
    argv: Tuple[str, ...]
    smoke: bool = False  # part of the small subset the guard tests replay


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Tuple[Op, ...]
    inputs: Callable[[], Dict[str, object]]  # file name -> JSON document
    busy: Tuple[str, ...]  # layers a traced run must see called


# -- hh-slices-q ---------------------------------------------------------------

# (n, p, q) slices of HH^{p,q}(truncated_poly(n, 1)) over Q; 10 ms to 0.5 s each
HH_SLICES = (
    (3, 3, -6), (3, 3, -5), (3, 3, -4), (3, 4, -9), (3, 4, -8), (3, 4, -5),
    (3, 4, -4), (3, 5, -13), (4, 3, -5), (4, 3, -3), (4, 3, -2), (4, 4, -4),
    (4, 4, -3), (4, 5, -4), (4, 5, -3), (5, 3, -3), (5, 3, -2),
    (5, 3, -1), (5, 4, -3), (5, 4, -2), (5, 4, -1), (5, 5, -3), (5, 5, -2),
)
# slices that also ask for cocycle representatives (the kernel-basis path)
HH_COCYCLES = {(3, 3, -4), (3, 4, -8), (4, 3, -5), (4, 3, -3), (5, 3, -3), (5, 3, -2)}
HH_SMOKE = {(3, 3, -4), (3, 3, -5)}


def _hh_inputs():
    from formalitykit.graded import algebra_to_json_dict, truncated_poly

    return {f"tp{n}": algebra_to_json_dict(truncated_poly(n, 1)) for n in (3, 4, 5)}


def _hh_ops():
    ops = []
    for n, p, q in HH_SLICES:
        argv = ["hh", "--algebra", f"@tp{n}", "--p", str(p), "--q", str(q)]
        if (n, p, q) in HH_COCYCLES:
            argv.append("--cocycles")
        ops.append(Op(f"tp{n}_p{p}_q{q}", tuple(argv), (n, p, q) in HH_SMOKE))
    return tuple(ops)


# -- scan-config-fp ------------------------------------------------------------

# (graph, n, k, h, preset) configuration algebras over F_32003, scanned to qmax 6.
# Five cheap A2 scans, five A2 scans of nearly equal cost (within 15 %) and
# five larger graphs. With 15 commands the median falls in the middle of the
# equal-cost five and the nearest-rank p90 in the middle of the star scan's
# repeats, so neither percentile jumps between commands of different cost.
SCAN_CONFIGS = (
    ("A2", 1, 2, 1, "orthogonal"), ("A2", 1, 2, 1, "zigzag"), ("A2", 1, 2, 2, "orthogonal"),
    ("A2", 1, 1, 1, "orthogonal"), ("A2", 1, 1, 2, "orthogonal"),
    ("A2", 2, 2, 1, "orthogonal"), ("A2", 2, 2, 2, "orthogonal"), ("A2", 2, 2, 2, "zigzag"),
    ("A2", 2, 1, 1, "orthogonal"), ("A2", 2, 1, 1, "zigzag"),
    ("path", 1, 2, 1, "orthogonal"), ("triangle", 1, 2, 1, "orthogonal"),
    ("triangle", 1, 2, 1, "zigzag"), ("star", 1, 2, 1, "orthogonal"),
    ("cycle4", 1, 2, 1, "orthogonal"),
)
SCAN_SMOKE = {("A2", 1, 2, 1, "orthogonal")}


def config_tag(graph, n, k, h, preset) -> str:
    return f"{graph}_{n}{k}{h}{PRESET_TAG[preset]}"


def config_graph(name):
    from formalitykit.configurations import ConfigGraph

    vertices, edges = GRAPHS[name]
    return ConfigGraph.make(vertices, edges)


def _scan_inputs():
    from formalitykit.fields import FieldSpec
    from formalitykit.graded import algebra_to_json_dict, build_configuration_algebra

    spec = FieldSpec.parse(FP)
    out = {}
    for cfg in SCAN_CONFIGS:
        graph, n, k, h, preset = cfg
        A = build_configuration_algebra(config_graph(graph), n, k, h, preset, spec)
        out[f"alg_{config_tag(*cfg)}"] = algebra_to_json_dict(A)
    return out


def _scan_ops():
    return tuple(
        Op(
            f"scan_{config_tag(*cfg)}",
            ("scan", "--algebra", f"@alg_{config_tag(*cfg)}", "--qmax", "6"),
            cfg in SCAN_SMOKE,
        )
        for cfg in SCAN_CONFIGS
    )


# -- tor-config-q --------------------------------------------------------------

# (graph, n, k, h, preset, q) Tor terms over Q; ~10 ms to 1.6 s each
TOR_TERMS = (
    ("A2", 1, 2, 1, "orthogonal", 2), ("A2", 1, 2, 1, "orthogonal", 3),
    ("A2", 1, 2, 1, "zigzag", 2), ("A2", 1, 2, 1, "zigzag", 3),
    ("A2", 2, 2, 2, "orthogonal", 2), ("A2", 2, 2, 2, "orthogonal", 3),
    ("A2", 2, 2, 2, "zigzag", 2), ("A2", 1, 2, 2, "orthogonal", 2),
    ("A2", 1, 2, 2, "orthogonal", 3), ("A2", 2, 1, 1, "orthogonal", 2),
    ("A2", 2, 1, 1, "zigzag", 2), ("A2", 1, 1, 1, "orthogonal", 2),
    ("A2", 1, 1, 1, "orthogonal", 3),
    ("triangle", 1, 2, 1, "orthogonal", 2), ("triangle", 1, 2, 1, "zigzag", 2),
)
TOR_SMOKE = {("A2", 1, 2, 1, "orthogonal", 2), ("A2", 1, 2, 1, "zigzag", 3)}


def tor_truncation(n, k, h, preset, q) -> int:
    """Truncation that covers degree q * maxdeg plus a nilpotence window."""
    top = max(n * k, 2 * h if preset == "zigzag" else h)
    return q * top + max(k, h)


def _tor_inputs():
    from formalitykit.presentations import configuration_presentation, presentation_to_json_dict

    out = {}
    for graph, n, k, h, preset, q in TOR_TERMS:
        pres = configuration_presentation(
            config_graph(graph), n, k, h, preset, tor_truncation(n, k, h, preset, q)
        )
        out[f"pres_{config_tag(graph, n, k, h, preset)}_t{pres.truncation}"] = (
            presentation_to_json_dict(pres)
        )
    return out


def _tor_ops():
    ops = []
    for term in TOR_TERMS:
        graph, n, k, h, preset, q = term
        name = f"pres_{config_tag(graph, n, k, h, preset)}_t{tor_truncation(n, k, h, preset, q)}"
        ops.append(
            Op(
                f"tor_{config_tag(graph, n, k, h, preset)}_q{q}",
                ("tor", "--pres", f"@{name}", "--q", str(q)),
                term in TOR_SMOKE,
            )
        )
    return tuple(ops)


# -- certify-replay ------------------------------------------------------------

CERTIFY = (
    ("single", {"n": 2, "k": 2}), ("single", {"n": 3, "k": 1}), ("single", {"n": 1, "k": 4}),
    ("pn-config", {"n": 2, "k": 2, "h": 2}), ("pn-config", {"n": 3, "k": 2, "h": 3}),
    ("pn-config", {"n": 1, "k": 2, "h": 1}),
    ("spherical", {"k": 4, "hmin": 2, "hmax": 4}), ("spherical", {"k": 5, "hmin": 2, "hmax": 5}),
    ("spherical", {"k": 6, "hmin": 3, "hmax": 6}), ("spherical", {"k": 3, "hmin": 1, "hmax": 3}),
)
RECHECK = (CERTIFY[0], CERTIFY[3], CERTIFY[7], CERTIFY[9])


def _flags(params) -> List[str]:
    out = []
    for key, value in params.items():
        out += [f"--{key}", str(value)]
    return out


def _cert_tag(family, params) -> str:
    return family.replace("-", "") + "_" + "_".join(f"{k}{v}" for k, v in params.items())


def _replay_inputs():
    from formalitykit.configurations import PoincarePolynomial
    from formalitykit.formality import certify_config_pn, certify_config_spherical, certify_single
    from formalitykit.graded import algebra_to_json_dict, truncated_poly

    makers = {"single": certify_single, "pn-config": certify_config_pn,
              "spherical": certify_config_spherical}
    out = {}
    for family, params in RECHECK:
        cert = makers[family](*params.values())
        out[f"cert_{_cert_tag(family, params)}"] = cert.to_json_dict()
    for name in ("A2", "triangle", "star"):
        out[f"graph_{name}"] = config_graph(name).to_json_dict()
    out["graph_tree"] = {
        "vertices": [1, 2, 3, 4, 5],
        "edges": [
            {"u": 1, "v": 2, "a_uv": 1, "a_vu": 3, "d": 1},
            {"u": 1, "v": 3, "a_uv": 0, "a_vu": 4, "d": 2},
            {"u": 3, "v": 4, "a_uv": 5, "a_vu": -1, "d": 0},
            {"u": 3, "v": 5, "a_uv": 2, "a_vu": 2, "d": 3},
        ],
    }
    out["graph_odd_cycle"] = {
        "vertices": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "a_uv": 1, "a_vu": 3, "d": 1},
                  {"u": 2, "v": 3, "a_uv": 1, "a_vu": 3, "d": 1},
                  {"u": 3, "v": 1, "a_uv": 1, "a_vu": 3, "d": 1}],
    }
    out["graph_even_cycle"] = {
        "vertices": [1, 2, 3, 4],
        "edges": [{"u": i, "v": i % 4 + 1, "d": 1} for i in range(1, 5)],
    }
    out["poincare_line2"] = PoincarePolynomial.line(2).to_json_dict()
    out["poincare_mixed"] = PoincarePolynomial.make({0: 1, 1: 2, 3: 1}).to_json_dict()
    out["tp3"] = algebra_to_json_dict(truncated_poly(3, 1))
    return out


def _replay_ops():
    ops = []
    for family, params in CERTIFY:
        ops.append(Op(f"certify_{_cert_tag(family, params)}",
                      ("certify", family, *_flags(params)), family == "single"))
    for family, params in RECHECK:
        tag = _cert_tag(family, params)
        ops.append(Op(f"recheck_{tag}", ("recheck", "--cert", f"@cert_{tag}"),
                      family == "spherical"))
    ops += [
        Op("sweep_pn", ("sweep", "pn", "--n", "1..4", "--k", "2,4")),
        Op("sweep_spherical", ("sweep", "spherical", "--k", "2..8")),
        Op("normalize_tree", ("normalize", "--graph", "@graph_tree", "--nk", "4"), True),
        Op("normalize_odd_cycle", ("normalize", "--graph", "@graph_odd_cycle", "--nk", "4")),
        Op("signs_even_cycle", ("signs", "--graph", "@graph_even_cycle")),
        Op("signs_odd_cycle", ("signs", "--graph", "@graph_odd_cycle")),
        Op("kunneth_line2_same", ("kunneth", "--poincare", "@poincare_line2", "--n", "3", "--same")),
        Op("kunneth_mixed_different",
           ("kunneth", "--poincare", "@poincare_mixed", "--n", "2", "--different")),
        Op("build_A2_222o", ("build-config", "--graph", "@graph_A2", "--n", "2", "--k", "2",
                             "--h", "2", "--preset", "orthogonal"), True),
        Op("build_triangle_121z", ("build-config", "--graph", "@graph_triangle", "--n", "1",
                                   "--k", "2", "--h", "1", "--preset", "zigzag")),
        Op("build_star_111o_fp", ("build-config", "--graph", "@graph_star", "--n", "1", "--k",
                                  "1", "--h", "1", "--field", FP)),
        # expected refusals: exit 2 (zigzag table fails associativity), exit 3 (word cap)
        Op("refuse_build_A2_221z", ("build-config", "--graph", "@graph_A2", "--n", "2", "--k",
                                    "2", "--h", "1", "--preset", "zigzag")),
        Op("refuse_hh_max_words", ("hh", "--algebra", "@tp3", "--p", "3", "--q", "-4",
                                   "--max-words", "3"), True),
    ]
    return tuple(ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hh-slices-q",
            "HH slices of truncated polynomials over Q: dense Fraction elimination dominates",
            _hh_ops(), _hh_inputs, ("cli", "graded", "fields", "hochschild", "linalg"),
        ),
        Workload(
            "scan-config-fp",
            "Kadeishvili scans of configuration algebras over F_32003: repeated validation dominates",
            _scan_ops(), _scan_inputs, ("cli", "graded", "fields", "hochschild", "linalg"),
        ),
        Workload(
            "tor-config-q",
            "Butler-King Tor terms of configuration presentations: many small ideal eliminations",
            _tor_ops(), _tor_inputs, ("cli", "fields", "presentations", "linalg"),
        ),
        Workload(
            "certify-replay",
            "cheap certify/recheck/sweep/graph commands and refusals: per-call CLI overhead",
            _replay_ops(), _replay_inputs,
            ("cli", "graded", "fields", "formality", "configurations", "hochschild"),
        ),
    )
}


def materialize(workload: Workload, directory: str) -> Dict[str, Tuple[str, ...]]:
    """Write the workload's input files into directory; return op id -> argv."""
    paths = {}
    for name, doc in workload.inputs().items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        paths[name] = path
    return {
        op.id: tuple(paths[a[1:]] if a.startswith("@") else a for a in op.argv)
        for op in workload.ops
    }


def pass_order(ops: Sequence[Op], seed: int, pass_no: int) -> List[Op]:
    """The seed's permutation of the pool for one pass."""
    order = list(ops)
    random.Random(seed * 1_000_003 + pass_no).shuffle(order)
    return order


def summarize(report: Optional[dict]) -> Optional[object]:
    """The part of a report the oracle pins: dimensions, verdicts, tables."""
    if report is None:
        return None
    command, result = report["command"], report["result"]
    if command == "hh":
        out = {"dim": result["dim"], "slice_dims": result["slice_dims"]}
        if "cocycles" in result:
            out["cocycles"] = len(result["cocycles"])
        return out
    if command == "scan":
        return {"table": result["table"]}
    if command == "tor":
        return {"dims": result["dims"], "total_dim": result["total_dim"]}
    if command == "certify":
        return {"verdict": result["verdict"],
                "failed": sorted(h["name"] for h in result["hypotheses"] if not h["ok"])}
    if command == "recheck":
        return {"ok": result["ok"], "items": len(result["items"])}
    if command == "sweep":
        return {"rows": [[r.get("n"), r["k"], r["verdict"]] for r in result["rows"]]}
    if command in ("normalize", "signs"):
        return {key: result[key] for key in sorted(result) if key != "extension"}
    if command == "kunneth":
        return {"power": result["power"]}
    if command == "build-config":
        alg = result["algebra"]
        return {"field": alg["field"], "basis": len(alg["basis"]), "mult": len(alg["mult"])}
    raise ValueError(f"no summary rule for command {command!r}")
