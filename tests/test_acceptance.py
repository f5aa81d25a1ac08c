"""Acceptance gate: the five top-level criteria, one pass/fail line each.

Every equality below is exact symbolic equality of Laurent polynomials;
there is no tolerance anywhere.
"""

import sys
import time
from contextlib import contextmanager

from cclab.artranslate import has_projective_summand, ar_translate
from cclab.character import cc, cc_palu_form
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.laurent import divide_exact, parse
from cclab.multiplication import verify_unified, verify_xx1, verify_xx2
from cclab.mutation import enumerate_cluster_variables, initial_seed, mutate
from cclab.quiver import a2_quiver, a3_quiver, euler_form, kronecker_quiver
from cclab.reps import (ClusterObject, cluster_object, ext1_basis, ext1_dim,
                        hom_dim, middle_term, projective_rep, simple_rep,
                        stable_ext1_dim, stable_hom_dim, sum_cluster_objects,
                        zero_rep)


def _announce(line: str):
    # plain print; pytest is configured with -rP so these per-criterion
    # lines surface in the run summary even when capture is on
    print(line)
    sys.stdout.flush()


@contextmanager
def criterion(number: int, name: str, limit_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s"
    _announce(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


def shifted_objects(q):
    return [ClusterObject(zero_rep(q),
                          tuple(1 if j == i else 0 for j in range(q.n)))
            for i in range(q.n)]


def test_criterion_1_d4tilde_flagship(primes):
    with criterion(1, "D4-tilde flagship", limit_s=60):
        e1, e2 = d4tilde_tube_simples()
        assert ext1_dim(e1, e2) == 1
        assert ext1_dim(e2, e1) == 1
        # Ext^1 in the 2-Calabi-Yau cluster category is the two-way sum
        assert ext1_dim(e1, e2) + ext1_dim(e2, e1) == 2

        x1 = cc(e1, primes).value
        x2 = cc(e2, primes).value
        r1 = verify_xx1(e2, e1, primes)
        assert r1.verdict
        # the single ext stratum is the tube extension of both simples
        ext = [s for s in r1.strata if s.side == "ext"]
        hom = [s for s in r1.strata if s.side == "hom"]
        assert len(ext) == 1 and ext[0].chi == 1
        assert (ext[0].dim, ext[0].shifted) == ((1, 1, 1, 1, 2), (0,) * 5)
        assert len(hom) == 1 and hom[0].chi == 1
        assert (hom[0].dim, hom[0].shifted) == ((0,) * 5, (0,) * 5)
        x_mid = ext[0].value
        (eta,) = ext1_basis(e1, e2)
        assert x_mid == cc(middle_term(eta), primes).value
        one = parse("1", 5)
        assert hom[0].value == one
        assert x1 * x2 == x_mid + one

        ru = verify_unified(e1, e2, primes)
        assert ru.verdict
        assert ru.lhs == (x1 * x2).scale(2)
        assert ru.rhs == x_mid.scale(2) + one.scale(2)


def test_criterion_2_a2_complete_audit(primes):
    with criterion(2, "A2 complete audit", limit_s=10):
        q = a2_quiver()
        s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
        p1, p2 = projective_rep(q, 1), projective_rep(q, 2)
        objects = [cluster_object(m) for m in (s1, s2, p1)] + shifted_objects(q)
        assert len(objects) == 5
        images = {str(cc(o, primes).value) for o in objects}
        oracle = {str(v) for v in enumerate_cluster_variables(q, 5)}
        assert images == oracle and len(oracle) == 5

        r1 = verify_xx1(s2, s1, primes)
        assert r1.verdict
        assert r1.lhs == cc(s2, primes).value * cc(s1, primes).value
        assert r1.rhs == cc(p1, primes).value + parse("1", 2)

        r2 = verify_xx2(p2, p1, primes)
        assert r2.verdict
        assert r2.lhs == cc(p1, primes).value * parse("x2", 2)
        assert r2.rhs == cc(s1, primes).value + parse("1", 2)


def test_criterion_3_a3_oracle_equivalence(primes):
    with criterion(3, "A3 oracle equivalence", limit_s=60):
        q = a3_quiver()
        variables, stable = enumerate_cluster_variables(q, 6,
                                                        report_stable=True)
        assert stable and len(variables) == 9
        rigid = [cluster_object(m) for m in all_interval_modules(q)]
        assert len(rigid) == 6
        objects = rigid + shifted_objects(q)
        images = {str(cc(o, primes).value) for o in objects}
        assert images == {str(v) for v in variables}


def test_criterion_4_kronecker(primes):
    with criterion(4, "Kronecker", None):
        qk = kronecker_quiver()
        s1, s2 = simple_rep(qk, 1), simple_rep(qk, 2)
        report = verify_xx1(s2, s1, primes)
        assert report.verdict
        assert report.lhs == (cc(s2, primes).value
                              * cc(s1, primes).value).scale(2)

        # chi-strata of P Ext^1(S1, S2) sum to dim Ext^1 = 2
        ext = [s for s in report.strata if s.side == "ext"]
        assert sum(s.chi for s in ext) == 2

        # cc of every dim-(1,1) regular equals the independent oracle value:
        # one mutation step gives (1 + x2^2)/x1, and the exchange relation
        # x1' * R-value = ... is packaged as X_R = X_{S1} X_{S2} - x1 x2.
        mu1 = mutate(initial_seed(qk), 1).cluster[0]
        assert mu1 == divide_exact(parse("1 + x2^2", 2), parse("x1", 2))
        assert mu1 == cc(s1, primes).value
        expected_r = cc(s1, primes).value * cc(s2, primes).value \
            - parse("x1*x2", 2)
        for ab in [(1, 1), (1, 2), (2, 1), (1, 0), (0, 1), (3, 5)]:
            assert cc(kronecker_regular(*ab), primes).value == expected_r
        assert expected_r == divide_exact(parse("x1^2 + 1 + x2^2", 2),
                                          parse("x1*x2", 2))


def test_criterion_5_property_suites(primes):
    with criterion(5, "property suites", None):
        assert len(primes) >= 4

        q2, q3, qk = a2_quiver(), a3_quiver(), kronecker_quiver()
        e1, e2 = d4tilde_tube_simples()
        mods = {
            q2: [simple_rep(q2, 1), simple_rep(q2, 2), projective_rep(q2, 1)],
            q3: all_interval_modules(q3),
            qk: [simple_rep(qk, 1), simple_rep(qk, 2), kronecker_regular(1, 1)],
            e1.quiver: [e1, e2],
        }
        pairs = [(m, n) for group in mods.values() for m in group
                 for n in group]

        # AR-formula dimension identity on >= 20 pairs
        ar_checked = 0
        for L, M in pairs:
            if has_projective_summand(M):
                continue
            assert ext1_dim(M, L) == hom_dim(L, ar_translate(M))
            ar_checked += 1
        assert ar_checked >= 20

        # Euler identity hom - ext = <-,-> on all corpus pairs
        for M, N in pairs:
            assert hom_dim(M, N) - ext1_dim(M, N) == \
                euler_form(M.quiver, M.dim, N.dim)

        # prime stability of all Hom/Ext dimensions across >= 4 primes
        for M, N in pairs:
            assert stable_hom_dim(M, N, primes[:4]) == hom_dim(M, N)
            assert stable_ext1_dim(M, N, primes[:4]) == ext1_dim(M, N)

        # the two character forms agree on all corpus objects
        objects = [cluster_object(m) for group in mods.values()
                   for m in group]
        objects += shifted_objects(q2) + shifted_objects(q3)
        for o in objects:
            assert cc_palu_form(o, primes).value == cc(o, primes).value

        # multiplicativity on >= 10 pairs (including a shifted summand)
        mult_pairs = [(a, b) for group in (mods[q2], mods[q3], mods[qk])
                      for a in group for b in group
                      if a.total_dim + b.total_dim <= 4]
        checked = 0
        for a, b in mult_pairs:
            s = sum_cluster_objects(cluster_object(a), cluster_object(b))
            assert cc(s, primes).value == \
                cc(a, primes).value * cc(b, primes).value
            checked += 1
        shifted = ClusterObject(zero_rep(q2), (1, 0))
        s = sum_cluster_objects(cluster_object(simple_rep(q2, 1)), shifted)
        assert cc(s, primes).value == \
            cc(simple_rep(q2, 1), primes).value * cc(shifted, primes).value
        checked += 1
        assert checked >= 10

        # stratum chi-sums equal the projectivized space dimensions in
        # every verification run (also enforced inside the machinery)
        runs = [
            verify_xx1(simple_rep(q2, 2), simple_rep(q2, 1), primes),
            verify_xx1(simple_rep(qk, 2), simple_rep(qk, 1), primes),
            verify_unified(e1, e2, primes),
        ]
        dims = [
            ext1_dim(simple_rep(q2, 1), simple_rep(q2, 2)),
            ext1_dim(simple_rep(qk, 1), simple_rep(qk, 2)),
            ext1_dim(e1, e2),
        ]
        for run, d in zip(runs, dims):
            assert run.verdict
            ext_chi = sum(s.chi for s in run.strata if s.side == "ext")
            assert ext_chi in (d, 2 * d)  # unified sums both directions
