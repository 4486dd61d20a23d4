#!/usr/bin/env python3
"""Re-time the rows of the ROADMAP Baseline table once each.

    python3 perfbench/baseline.py [--cap 180]

Each row runs in its own interpreter, killed at --cap seconds; a killed row
is reported as over the cap rather than timed (tor_term q=5 on the A2
configuration ran past 180 s). This is a single timing per row, not a gated
benchmark: use run.py for anything that claims a change in speed. The last
stdout line is every row and the environment as one JSON object.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

ROWS = (
    "hh_q", "hh_fp", "rank_dense", "rank_sparse", "rank_sparse_next", "scan_cycle4_q",
    "scan_cycle4_fp", "tor_q3", "tor_q4", "tor_q5",
)


def sparse_rank(rows, field):
    """Rank by elimination on dict-of-rows, pivoting on the lightest row:
    the sparse prototype the Baseline table compares dense rank_rows with."""
    pending = [{c: x for c, x in enumerate(r) if not field.is_zero(x)} for r in rows]
    pending = [r for r in pending if r]
    rank = 0
    while pending:
        pivot_row = min(pending, key=len)
        pending.remove(pivot_row)
        col, val = next(iter(pivot_row.items()))
        inv = field.inv(val)
        out = []
        for r in pending:
            if col in r:
                fac = field.mul(r[col], inv)
                for c, x in pivot_row.items():
                    y = field.sub(r.get(c, field.zero), field.mul(fac, x))
                    if field.is_zero(y):
                        r.pop(c, None)
                    else:
                        r[c] = y
            if r:
                out.append(r)
        pending = out
        rank += 1
    return rank


def delta(A, p, q):
    """The differential C^p -> C^(p+1) of HH^{p,q} as a list of rows."""
    from formalitykit.hochschild import _build_tables, _cochain_basis, _delta_matrix, _prepare

    mode = "relative_normalized"
    A, M = _prepare(A, None, mode)
    tb = _build_tables(A, M, need_blocks=True)
    g_here, n_here = _cochain_basis(tb, p, q, mode, 10**7)
    g_next, _ = _cochain_basis(tb, p + 1, q, mode, 10**7)
    rows, _, _ = _delta_matrix(tb, p, g_here, n_here, g_next, mode)
    return tb.field, rows


def run_row(name):
    """Compute one row in this process; returns (result, seconds)."""
    import run

    run.import_program()
    from formalitykit.configurations import ConfigGraph
    from formalitykit.fields import FieldSpec
    from formalitykit.graded import build_configuration_algebra, truncated_poly
    from formalitykit.hochschild import hh_bar, kadeishvili_scan
    from formalitykit.linalg import rank_rows
    from formalitykit.presentations import configuration_presentation, tor_term

    a2 = ConfigGraph.make([1, 2], [(1, 2)])
    if name in ("hh_q", "hh_fp"):
        spec = FieldSpec.parse("fp:32003" if name == "hh_fp" else "rationals")
        A = truncated_poly(6, 1, spec)
        t0 = time.perf_counter()
        res = hh_bar(A, None, 4, -4)
        return {"dim": res.dim, "slice_dims": list(res.slice_dims)}, time.perf_counter() - t0
    if name.startswith("rank_"):
        # d_4 of the (4, -4) slice; the next slice is (5, -5), a 462 x 457 matrix
        p, q = (5, -5) if name == "rank_sparse_next" else (4, -4)
        field, rows = delta(truncated_poly(6, 1), p, q)
        nonzero = sum(1 for r in rows for x in r if x)
        shape = [len(rows), len(rows[0])]
        t0 = time.perf_counter()
        rank = rank_rows(rows, field) if name == "rank_dense" else sparse_rank(rows, field)
        elapsed = time.perf_counter() - t0
        return {"shape": shape, "nonzero_share": nonzero / (shape[0] * shape[1]),
                "rank": rank}, elapsed
    if name.startswith("scan_cycle4"):
        g = ConfigGraph.make([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        spec = FieldSpec.parse("fp:32003" if name.endswith("fp") else "rationals")
        A = build_configuration_algebra(g, 2, 2, 2, "orthogonal", spec)
        t0 = time.perf_counter()
        table = kadeishvili_scan(A, 4)
        return {str(q): d for q, d in sorted(table.items())}, time.perf_counter() - t0
    q = int(name[-1])
    pres = configuration_presentation(a2, 2, 2, 2, "orthogonal", truncation=4 * q + 2)
    t0 = time.perf_counter()
    dims = tor_term(pres, q).dims()
    return {str(d): n for d, n in sorted(dims.items())}, time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=180.0, help="seconds per row")
    parser.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        result, seconds = run_row(args.row)
        print(json.dumps({"result": result, "seconds": seconds}))
        return 0

    import run

    rows = {}
    for name in ROWS:
        cmd = [sys.executable, os.path.abspath(__file__), "--row", name]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.cap)
        except subprocess.TimeoutExpired:
            rows[name] = {"over_cap_s": args.cap}
            print(f"{name:<18} over the {args.cap:g} s cap", flush=True)
            continue
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            rows[name] = {"error": proc.returncode}
            print(f"{name:<18} failed with exit {proc.returncode}", flush=True)
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<18} {rows[name]['seconds']:9.3f} s  {json.dumps(rows[name]['result'])}",
              flush=True)
    doc = {"env": run.environment([]), "cap_s": args.cap, "rows": rows}
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
