"""Workload inputs, job lists and the checks that score each job.

Every input is a stock module (or a stock quiver) transformed by a seeded
change of basis, so the same seed always gives the same inputs and every
input is isomorphic to its stock original.  Each job is scored against an
answer fixed in advance (``expected.json``), never against another result
of the program in the same run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from cclab import character, multiplication, mutation
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.laurent import LaurentPolynomial
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver, validate_quiver)
from cclab.reps import (direct_sum, injective_rep, make_rep, projective_rep,
                        simple_rep)

WORKLOADS = ("characters", "identities", "oracle")

# Largest absolute matrix entry a base change may produce.  The default
# primes start at 23, so inputs with entries <= 20 keep the prime list of
# their stock originals.
ENTRY_BOUND = 20

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

# Identity jobs the program got wrong when this benchmark was written, each
# with the way it failed.  They stay in the job list and are counted in
# `failed`; a failure of another kind is not known.  NOTES.md gives the cause.
KNOWN_DEFECTS = {
    # verdict False: the fingerprint buckets R_l+R_m with R_l[2], whose
    # characters differ
    "kronecker.xx1(P1,S1)": "wrong answer",
    # no integer point lifts to a stable stratum representative
    "d4t.xx1(P1,I5)": "PrimeInstabilityError",
}


def known_defect(name: str, error: str | None) -> bool:
    """Whether a job failed exactly as its known defect does."""
    return error is not None and \
        error.split(":")[0] == KNOWN_DEFECTS.get(name)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def a5_quiver():
    return validate_quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


def stock_factors():
    """The character corpus, grouped by quiver: {group: {label: module}}."""
    q2, qk = a2_quiver(), kronecker_quiver()
    e1, e2 = d4tilde_tube_simples()
    a3 = {}
    for m in all_interval_modules(a3_quiver()):
        support = [v + 1 for v, d in enumerate(m.dim) if d]
        a3[f"I{support[0]}{support[-1]}"] = m
    return {
        "a2": {"S1": simple_rep(q2, 1), "S2": simple_rep(q2, 2),
               "P1": projective_rep(q2, 1)},
        "a3": a3,
        "kronecker": {"S1": simple_rep(qk, 1), "S2": simple_rep(qk, 2),
                      "R11": kronecker_regular(1, 1)},
        "d4t": {"E1": e1, "E2": e2},
    }


def character_pairs(factors):
    """Unordered pairs (with repeats) of one quiver's factors, as labels.

    E2+E2 is left out: the D4-tilde arm swap (1 3)(2 4) carries E1 to E2,
    so it repeats the cost and layers of E1+E1 and would add ~16 s a round.
    """
    out = []
    for group, mods in factors.items():
        labels = list(mods)
        for i, a in enumerate(labels):
            for b in labels[i:]:
                if (group, a, b) != ("d4t", "E2", "E2"):
                    out.append((group, a, b))
    return out


# -- seeded base changes ----------------------------------------------------

def _unimodular(rng: random.Random, d: int):
    """A random integer matrix of determinant +-1 and its inverse.

    One-dimensional spaces keep the identity: a sign flip there moves the
    D4-tilde (P1,I5) lift failure in and out of the job list by seed.
    """
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    if d < 2:
        return g, [row[:] for row in g]
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    g = [[signs[i] * int(perm[i] == j) for j in range(d)] for i in range(d)]
    gi = [[signs[j] * int(perm[j] == i) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in gi:
            row[j] -= c * row[i]
    return g, gi


def _matmul(a, b, rows, cols):
    inner = len(b)
    return [[sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)]
            for r in range(rows)]


def conjugate(rng: random.Random, M):
    """M with each vertex space re-based by a seeded unimodular matrix."""
    q = M.quiver
    while True:
        gs = [_unimodular(rng, d) for d in M.dim]
        mats = []
        for a, (s, t) in enumerate(q.arrows):
            rows, cols = M.dim[t - 1], M.dim[s - 1]
            A = [[int(x) for x in row] for row in M.matrices[a].data]
            if rows and cols:
                A = _matmul(_matmul(gs[t - 1][0], A, rows, cols),
                            gs[s - 1][1], rows, cols)
            mats.append(A)
        if all(abs(x) <= ENTRY_BOUND for m in mats for row in m for x in row):
            return make_rep(q, M.dim, mats)


def _relabel(q, perm):
    """q with vertex v renamed perm[v - 1]."""
    return validate_quiver(q.n, [(perm[s - 1], perm[t - 1])
                                 for s, t in q.arrows])


def _unrelabel(x: LaurentPolynomial, perm) -> str:
    """Canonical string of x after renaming variable perm[i - 1] back to i."""
    terms = {tuple(e[p - 1] for p in perm): c for e, c in x.terms.items()}
    return str(LaurentPolynomial(x.nvars, terms))


def closure_digest(names, stable) -> dict:
    """Frozen form of a mutation closure: its size and a hash of its
    sorted canonical strings."""
    blob = "\n".join(names).encode()
    return {"count": len(names), "sha256": hashlib.sha256(blob).hexdigest(),
            "stable": stable}


# -- the three workloads ----------------------------------------------------

def _characters(rng, primes, expected):
    factors = {g: {label: conjugate(rng, m) for label, m in mods.items()}
               for g, mods in stock_factors().items()}
    jobs = []
    for group, a, b in character_pairs(factors):
        A, B = factors[group][a], factors[group][b]
        S = conjugate(rng, direct_sum(A, B))
        want = expected["characters"][f"{group}:{a}+{b}"]

        def run(A=A, B=B, S=S):
            cc = character.cc
            return (cc(S, primes).value,
                    character.cc_palu_form(S, primes).value,
                    cc(A, primes).value * cc(B, primes).value)

        jobs.append(Job(f"{group}:{a}+{b}", run,
                        lambda out, want=want: all(str(x) == want
                                                   for x in out)))
    return jobs


def _identity_check(d):
    """The theorem: verdict True, and the strata of each side sum to d."""
    def check(report):
        sides = {}
        for s in report.strata:
            sides[s.side] = sides.get(s.side, 0) + s.chi
        return (report.verdict is True and len(sides) == 2
                and all(v == d for v in sides.values()))
    return check


def _identities(rng, primes, expected):
    q2, qk, qd = a2_quiver(), kronecker_quiver(), d4tilde_quiver()
    e1, e2 = d4tilde_tube_simples()
    # (name, operation, first, second, dim Ext^1 summed over the identity)
    table = [
        ("a2.xx1(S2,S1)", "verify_xx1", simple_rep(q2, 2),
         simple_rep(q2, 1), 1),
        ("a2.xx2(P2,P1)", "verify_xx2", projective_rep(q2, 2),
         projective_rep(q2, 1), 1),
        ("d4t.xx1(E2,E1)", "verify_xx1", e2, e1, 1),
        ("d4t.unified(E1,E2)", "verify_unified", e1, e2, 2),
        ("kronecker.xx1(S2,S1)", "verify_xx1", simple_rep(qk, 2),
         simple_rep(qk, 1), 2),
        ("kronecker.xx1(P2,I1)", "verify_xx1", projective_rep(qk, 2),
         injective_rep(qk, 1), 2),
        ("kronecker.xx1(P1,S1)", "verify_xx1", projective_rep(qk, 1),
         simple_rep(qk, 1), 3),
        ("d4t.xx1(P1,I5)", "verify_xx1", projective_rep(qd, 1),
         injective_rep(qd, 5), 2),
    ]
    jobs = []
    for name, op, first, second, d in table:
        first, second = conjugate(rng, first), conjugate(rng, second)
        jobs.append(Job(name, lambda op=op, a=first, b=second:
                        getattr(multiplication, op)(a, b, primes),
                        _identity_check(d)))
    return jobs


def _oracle(rng, primes, expected):
    jobs = []
    for name, q, depth, want in (
            ("a5.closure(12)", a5_quiver(), 12, expected["oracle"]["a5"]),
            ("kronecker.closure(24)", kronecker_quiver(), 24,
             expected["oracle"]["kronecker"])):
        perm = list(range(1, q.n + 1))
        rng.shuffle(perm)
        qr = _relabel(q, perm)

        def run(qr=qr, depth=depth):
            return mutation.enumerate_cluster_variables(qr, depth,
                                                        report_stable=True)

        def check(out, perm=perm, want=want):
            variables, stable = out
            names = sorted(_unrelabel(x, perm) for x in variables)
            return closure_digest(names, stable) == want

        jobs.append(Job(name, run, check))
    return jobs


_BUILDERS = {"characters": _characters, "identities": _identities,
             "oracle": _oracle}


def build(workload: str, seed: int, primes) -> list[Job]:
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, primes, expected)
