#!/usr/bin/env python3
"""Reproduce the certificate tables at desk scale.

Prints three deterministic tables: the single object grid, the
CY-normalized configuration grid, and the spherelike range, each with
the verdict and the replay status of the emitted certificate (replayed by
verify_certificate; "-" where no certificate is emitted). Exits 1 when any
replay fails, 0 otherwise.
"""

import argparse
import sys

from formalitykit.formality import (
    certify_config_pn,
    certify_config_spherical,
    certify_single,
    cy_normalize,
    verify_certificate,
)


def single_table(n_max, k_max):
    """Print the single object table; return the number of failed replays."""
    print(f"single objects, 1 <= n <= {n_max}, 1 <= k <= {k_max}")
    print("n k verdict recheck")
    failed = 0
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            cert = certify_single(n, k)
            ok = verify_certificate(cert).ok
            failed += not ok
            print(f"{n} {k} {cert.verdict} {ok}")
    print()
    return failed


def pn_table(n_max, k_max):
    """Print the configuration table; return the number of failed replays."""
    print(f"configurations with symmetric arrow degree h = nk/2, n <= {n_max}, k <= {k_max}")
    print("n k h gcd_ok verdict failed recheck")
    failed = 0
    for n in range(1, n_max + 1):
        for k in range(2, k_max + 1):
            if (n * k) % 2 != 0:
                print(f"{n} {k} - - CriterionInapplicable nk-odd -")
                continue
            norm = cy_normalize(n, k)
            cert = certify_config_pn(n, k, norm["h"])
            ok = verify_certificate(cert).ok
            failed += not ok
            hyps = ",".join(cert.failed_hypotheses()) or "-"
            print(f"{n} {k} {norm['h']} {norm['gcd_ok']} {cert.verdict} {hyps} {ok}")
    print()
    return failed


def spherical_table(k_max):
    """Print the spherelike table; return the number of failed replays."""
    print(f"spherelike configurations with floor(k/2) <= h <= k, k <= {k_max}")
    print("k h_min h_max verdict failed recheck")
    failed = 0
    for k in range(2, k_max + 1):
        cert = certify_config_spherical(k, k // 2, k)
        ok = verify_certificate(cert).ok
        failed += not ok
        hyps = ",".join(cert.failed_hypotheses()) or "-"
        print(f"{k} {k // 2} {k} {cert.verdict} {hyps} {ok}")
    print()
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--kmax", type=int, default=8)
    args = parser.parse_args()
    failed = single_table(args.nmax, min(args.kmax, 6))
    failed += pn_table(args.nmax, args.kmax)
    failed += spherical_table(args.kmax)
    print(f"failed replays: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
