#!/usr/bin/env python3
"""Kronecker quiver: the one-parameter family of middle terms.

The projectivized extension space P Ext^1(S1, S2) is a projective line
whose points yield pairwise non-isomorphic dimension-(1,1) regular
modules R(1, t), one per point.  Their characters coincide, so the Ext
side needs no isomorphism class: it is one stratum of chi = 2, whose
value sum_e chi(Z_e) x^exp(e) counts the pairs (point, subrepresentation
of dimension e) through pairs of subrepresentations of S2 and S1, and
equals 2 X_R.
"""

from cclab.character import cc
from cclab.config import default_primes
from cclab.corpus import kronecker_regular
from cclab.multiplication import verify_xx1
from cclab.quiver import kronecker_quiver
from cclab.reps import ext1_dim, is_isomorphic, simple_rep


def main():
    primes = default_primes()
    q = kronecker_quiver()
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    print(f"dim Ext^1(S1, S2) = {ext1_dim(s1, s2)}")

    r_a, r_b = kronecker_regular(1, 1), kronecker_regular(1, 2)
    print(f"R(1,1) iso R(1,2)? {is_isomorphic(r_a, r_b)}")
    print(f"X_R = {cc(r_a, primes).value}  (same for every regular parameter)")
    print()

    report = verify_xx1(s2, s1, primes)
    print("refined identity  2 * X_S1 X_S2:")
    print(f"  lhs = {report.lhs}")
    for s in report.strata:
        print(f"  stratum {s.describe()}")
    print(f"  rhs = {report.rhs}")
    print(f"  verdict: {report.verdict}")


if __name__ == "__main__":
    main()
