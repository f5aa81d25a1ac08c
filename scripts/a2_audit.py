#!/usr/bin/env python3
"""Complete audit of the A2 quiver: all five cluster objects, the
mutation oracle, and every verifiable multiplication identity."""

from cclab.character import cc, describe
from cclab.config import default_primes
from cclab.multiplication import verify_xx1, verify_xx2
from cclab.mutation import enumerate_cluster_variables
from cclab.quiver import a2_quiver
from cclab.reps import (ClusterObject, cluster_object, projective_rep,
                        simple_rep, zero_rep)


def main():
    primes = default_primes()
    q = a2_quiver()
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    p1, p2 = projective_rep(q, 1), projective_rep(q, 2)
    objects = [cluster_object(s1), cluster_object(s2), cluster_object(p1),
               ClusterObject(zero_rep(q), (1, 0)),
               ClusterObject(zero_rep(q), (0, 1))]

    print("characters of the five indecomposable cluster objects:")
    images = set()
    for o in objects:
        value = cc(o, primes).value
        images.add(str(value))
        print(f"  X[{describe(o.module.dim, o.shifted)}] = {value}")

    oracle = {str(v) for v in enumerate_cluster_variables(q, 5)}
    print(f"\nmutation oracle found {len(oracle)} variables; "
          f"sets {'match' if oracle == images else 'DIFFER'}")

    print("\nrefined identity on (S2, S1):")
    r = verify_xx1(s2, s1, primes)
    print(f"  {r.lhs} = {r.rhs}  -> {r.verdict}")

    for P, name in ((p2, "P2"), (p1, "P1")):
        r = verify_xx2(P, p1, primes)
        print(f"shifted identity on ({name}, P1):")
        print(f"  {r.lhs} = {r.rhs}  -> {r.verdict}")


if __name__ == "__main__":
    main()
