#!/usr/bin/env python3
"""Regenerate expected.json: the pinned result of every pool command.

    python3 perfbench/pin.py

Each command runs once through `dispatch`; its exit code and the summary
that `workloads.summarize` extracts are pinned. Before a pin is written it
is cross-checked against a second route:

- hh slices of truncated polynomials: the periodic resolution (hh_resolution);
- configuration scans over F_32003: the same scan over Q. The absolute bar
  complex is out of reach here: for A2 with n=1, k=2, h=1 its q=4 slice is
  already a 5760 x 1440 matrix;
- Tor terms: homology of the reduced bar chain complex (bar_chain_slice);
- certificates, recheck and sweep rows: the independent re-checker;
- build-config: the emitted algebra validates when read back.

A disagreement stops the script, so a wrong pin is never written. Run it
only when the pool changes; the pins record what the program computed at
the commit named in the file.
"""

import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

DISPATCH = run.import_program()  # puts this checkout's src/ on sys.path

from formalitykit.fields import RATIONALS  # noqa: E402
from formalitykit.formality import (  # noqa: E402
    FormalityCertificate,
    certify_config_pn,
    certify_config_spherical,
    verify_certificate,
)
from formalitykit.graded import (  # noqa: E402
    algebra_from_json_dict,
    build_configuration_algebra,
    truncated_poly,
)
from formalitykit.hochschild import (  # noqa: E402
    bar_chain_slice,
    hh_resolution,
    kadeishvili_scan,
    periodic_spec_truncated_poly,
)
from formalitykit.linalg import rank_rows  # noqa: E402

import workloads  # noqa: E402
from workloads import HH_SLICES, SCAN_CONFIGS, TOR_TERMS, WORKLOADS  # noqa: E402


class PinMismatch(AssertionError):
    pass


def agree(what, got, want):
    if got != want:
        raise PinMismatch(f"{what}: dispatch gave {got!r}, the second route {want!r}")


def check_hh():
    for n, p, q in HH_SLICES:

        def check(s, n=n, p=p, q=q):
            spec = periodic_spec_truncated_poly(n, 1, p + 2)
            agree(f"HH^{p},{q}(tp{n})", s["dim"], hh_resolution(truncated_poly(n, 1), spec, None, p, q))
            agree(f"cocycles of HH^{p},{q}(tp{n})", s.get("cocycles", s["dim"]), s["dim"])

        yield f"tp{n}_p{p}_q{q}", check


def check_scan():
    for cfg in SCAN_CONFIGS:
        graph, n, k, h, preset = cfg
        tag = workloads.config_tag(*cfg)

        def check(s, graph=graph, n=n, k=k, h=h, preset=preset, tag=tag):
            A = build_configuration_algebra(workloads.config_graph(graph), n, k, h, preset)
            table = kadeishvili_scan(A, 6)
            agree(f"scan {tag} over Q", s["table"],
                  [{"dim": table[q], "q": q} for q in sorted(table)])

        yield f"scan_{tag}", check


def chain_homology(A, p, d):
    words, _, d_p = bar_chain_slice(A, p, d)
    _, _, d_next = bar_chain_slice(A, p + 1, d)
    rank_p = rank_rows(d_p, RATIONALS) if d_p else 0
    rank_next = rank_rows(d_next, RATIONALS) if d_next else 0
    return len(words) - rank_p - rank_next


def check_tor():
    for graph, n, k, h, preset, q in TOR_TERMS:
        tag = workloads.config_tag(graph, n, k, h, preset)

        def check(s, graph=graph, n=n, k=k, h=h, preset=preset, q=q, tag=tag):
            A = build_configuration_algebra(workloads.config_graph(graph), n, k, h, preset)
            top = workloads.tor_truncation(n, k, h, preset, q)
            dims = {d: chain_homology(A, q, d) for d in range(1, top + 1)}
            agree(f"Tor_{q} {tag}", s["dims"],
                  [{"degree": d, "dim": v} for d, v in sorted(dims.items()) if v])

        yield f"tor_{tag}_q{q}", check


def check_certificate_report(report):
    cert = FormalityCertificate.from_json_dict(report["result"])
    agree("recheck of the emitted certificate", verify_certificate(cert).ok, True)


def check_sweep_rows(report):
    for row in report["result"]["rows"]:
        if "n" in row:
            if row["h"] is None:
                continue
            cert = certify_config_pn(row["n"], row["k"], row["h"])
        else:
            cert = certify_config_spherical(row["k"], row["h_min"], row["h_max"])
        agree(f"sweep row {row}", (row["verdict"], verify_certificate(cert).ok),
              (cert.verdict, True))


def check_build(report):
    algebra_from_json_dict(report["result"]["algebra"])  # raises if it fails validation


def pin_workload(workload):
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as directory:
        argvs = workloads.materialize(workload, directory)
        checks = dict(check_hh())
        checks.update(check_scan())
        checks.update(check_tor())
        pins = {}
        for op in workload.ops:
            out = io.StringIO()
            code = DISPATCH(list(argvs[op.id]), stdout=out)
            text = out.getvalue()
            report = json.loads(text) if code == 0 else None
            summary = workloads.summarize(report) if report else (text or None)
            agree(f"{op.id} exit code", code != 0, op.id.startswith("refuse_"))
            if op.id in checks:
                checks[op.id](summary)
            elif report and report["command"] in ("certify", "recheck"):
                if report["command"] == "certify":
                    check_certificate_report(report)
                else:
                    agree(f"{op.id} ok", summary["ok"], True)
            elif report and report["command"] == "sweep":
                check_sweep_rows(report)
            elif report and report["command"] == "build-config":
                check_build(report)
            pins[op.id] = {"exit": code, "summary": summary}
            print(f"pinned {workload.name}/{op.id}: exit {code}", flush=True)
        return pins


def main():
    env = run.environment(list(WORKLOADS))
    pins = {name: pin_workload(w) for name, w in WORKLOADS.items()}
    doc = {"generated_at": {"commit": env["commit"], "python": env["python"],
                            "source_sha256": env["source_sha256"]},
           "workloads": pins}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.EXPECTED}")


if __name__ == "__main__":
    main()
