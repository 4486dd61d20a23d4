#!/usr/bin/env python3
"""Cohomology census for one truncated algebra, with cross validation.

Tabulates dim HH^{p,q}(A, A) over a (p, q) window twice, once from the
relative bar complex and once from the 2-periodic resolution, and
reports any disagreement (there should never be one). Also prints the
Kadeishvili diagonal up to a chosen bound. Exits 1 when the engines
disagree anywhere in the window, 0 otherwise.
"""

import argparse
import sys

from formalitykit.graded import truncated_poly
from formalitykit.hochschild import (
    hh_bar,
    hh_resolution,
    kadeishvili_scan,
    nonempty_internal_degrees,
    periodic_spec_truncated_poly,
    validate_periodic_spec,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--pmax", type=int, default=4)
    parser.add_argument("--qmax", type=int, default=5)
    args = parser.parse_args()

    A = truncated_poly(args.n, args.k)
    spec = periodic_spec_truncated_poly(args.n, args.k, args.pmax + 2)
    validate_periodic_spec(A, spec)  # fills the memo every hh_resolution below reads
    print(f"algebra: one generator of degree {args.k}, power {args.n + 1} vanishing")
    print("p q dim(bar) dim(resolution)")
    disagreements = 0
    for p in range(0, args.pmax + 1):
        qs = set(nonempty_internal_degrees(A, p))
        qs |= {q for q in range(spec.shifts[p], spec.shifts[p] + args.n * args.k + 1)}
        for q in sorted(qs):
            bar = hh_bar(A, p, q).dim
            res = hh_resolution(A, spec, p, q)
            if bar or res:
                marker = "" if bar == res else "  <- DISAGREE"
                disagreements += bar != res
                print(f"{p} {q} {bar} {res}{marker}")
    print()
    table = kadeishvili_scan(A, args.qmax)
    print(f"obstruction diagonal dim HH^(q, 2-q) for 3 <= q <= {args.qmax}:")
    for q in sorted(table):
        print(f"  q={q}: {table[q]}")
    print(f"engine disagreements: {disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
