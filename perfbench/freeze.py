"""Write expected.json, the answers every benchmark job is scored against.

Run once, from the repository root, on stock (untransformed) inputs:

    PYTHONPATH=src python3 perfbench/freeze.py

The benchmark only reads the committed file; it never runs this script.
Each frozen value is cross-checked here by an independent route:

- a character of a direct sum is frozen as the product X_A X_B of its
  factors' characters (multiplicativity), and every A2/A3 factor value must
  be a cluster variable of the Fomin-Zelevinsky mutation oracle;
- the A5 closure must equal, as a set, the character images of the 15
  interval modules and the 5 shifted projectives.
"""

from __future__ import annotations

import json

from cclab.character import cc, cc_palu_form
from cclab.config import default_primes
from cclab.corpus import all_interval_modules
from cclab.mutation import enumerate_cluster_variables
from cclab.quiver import a2_quiver, a3_quiver, kronecker_quiver
from cclab.reps import ClusterObject, zero_rep

from workloads import (EXPECTED_PATH, a5_quiver, character_pairs,
                       closure_digest, stock_factors)


def shifted_projectives(q):
    return [ClusterObject(zero_rep(q), tuple(int(j == i) for j in range(q.n)))
            for i in range(q.n)]


def main():
    primes = default_primes()
    factors = stock_factors()
    values = {}
    for group, mods in factors.items():
        for label, m in mods.items():
            x = cc(m, primes).value
            if cc_palu_form(m, primes).value != x:
                raise SystemExit(f"{group}:{label}: the two forms disagree")
            values[group, label] = x
    for group, q, depth in (("a2", a2_quiver(), 5), ("a3", a3_quiver(), 6)):
        oracle = {str(v) for v in enumerate_cluster_variables(q, depth)}
        for label in factors[group]:
            if str(values[group, label]) not in oracle:
                raise SystemExit(f"{group}:{label} is not a cluster variable")
    characters = {f"{g}:{a}+{b}": str(values[g, a] * values[g, b])
                  for g, a, b in character_pairs(factors)}

    oracle = {}
    a5 = a5_quiver()
    variables, stable = enumerate_cluster_variables(a5, 12, report_stable=True)
    images = {str(cc(m, primes).value) for m in all_interval_modules(a5)}
    images |= {str(cc(o, primes).value) for o in shifted_projectives(a5)}
    names = sorted(str(v) for v in variables)
    if not stable or len(names) != 20 or set(names) != images:
        raise SystemExit("A5 closure disagrees with the character images")
    oracle["a5"] = closure_digest(names, stable)
    variables, stable = enumerate_cluster_variables(
        kronecker_quiver(), 24, report_stable=True)
    if len(variables) != 50:
        raise SystemExit(f"Kronecker closure has {len(variables)} variables")
    oracle["kronecker"] = closure_digest(sorted(str(v) for v in variables),
                                         stable)

    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"characters": characters, "oracle": oracle}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
