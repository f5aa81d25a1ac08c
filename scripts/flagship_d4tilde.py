#!/usr/bin/env python3
"""Flagship demo: the rank-2 tube of the D4-tilde star quiver.

Builds the two regular simple modules supported on complementary arm
pairs, prints their characters, and verifies both multiplication
identities: the refined one-directional form and the unified two-sided
form.
"""

from cclab.character import cc
from cclab.config import default_primes
from cclab.corpus import d4tilde_tube_simples
from cclab.multiplication import verify_unified, verify_xx1
from cclab.reps import ext1_dim, hom_dim


def main():
    primes = default_primes()
    e1, e2 = d4tilde_tube_simples()
    print(f"sample primes: {', '.join(map(str, primes))}")
    print(f"E1: dim {e1.dim}")
    print(f"E2: dim {e2.dim}")
    print(f"dim Hom(E1,E2) = {hom_dim(e1, e2)}, "
          f"dim Hom(E2,E1) = {hom_dim(e2, e1)}")
    print(f"dim Ext^1(E1,E2) = {ext1_dim(e1, e2)}, "
          f"dim Ext^1(E2,E1) = {ext1_dim(e2, e1)}")
    print()
    print(f"X_E1 = {cc(e1, primes).value}")
    print(f"X_E2 = {cc(e2, primes).value}")
    print()

    report = verify_xx1(e2, e1, primes)
    print("refined identity  dim Ext^1(E1,E2) * X_E2 X_E1:")
    print(f"  lhs = {report.lhs}")
    for s in report.strata:
        print(f"  stratum {s.describe()}")
    print(f"  rhs = {report.rhs}")
    print(f"  verdict: {report.verdict}")
    print()

    report = verify_unified(e1, e2, primes)
    print("unified identity  2 * X_E1 X_E2:")
    print(f"  lhs = {report.lhs}")
    for s in report.strata:
        print(f"  stratum {s.describe()}")
    print(f"  rhs = {report.rhs}")
    print(f"  verdict: {report.verdict}")


if __name__ == "__main__":
    main()
