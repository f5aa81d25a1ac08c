"""Stratified verification of the multiplication identities."""

import pytest

from cclab import artranslate, multiplication
from cclab.character import cc
from cclab.corpus import d4tilde_tube_simples, kronecker_regular
from cclab.errors import PreconditionError, PrimeInstabilityError
from cclab.laurent import parse
from cclab.linalg import QQ
from cclab.multiplication import (_content, stratify_ext_side,
                                  stratify_hom_side, verify_unified,
                                  verify_xx1, verify_xx2)
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver)
from cclab.reps import (ClusterObject, cluster_object, injective_rep,
                        is_isomorphic, projective_rep, simple_rep,
                        stable_ext1_dim, zero_rep)


def test_xx1_a2_exchange(primes):
    q = a2_quiver()
    report = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), primes)
    assert report.verdict
    assert report.rhs == cc(projective_rep(q, 1), primes).value + parse("1", 2)
    sides = sorted(s.side for s in report.strata)
    assert sides == ["ext", "hom"]
    assert all(s.chi == 1 for s in report.strata)


def test_xx1_ext_stratum_middle_is_p1(primes):
    q = a2_quiver()
    (stratum,) = stratify_ext_side(simple_rep(q, 1), simple_rep(q, 2), primes)
    assert is_isomorphic(stratum.middle_term.module, projective_rep(q, 1))


def test_xx1_rejects_projective_m(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        verify_xx1(simple_rep(q, 1), simple_rep(q, 2), primes)  # S2 = P2


def test_xx1_rejects_vanishing_ext(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        verify_xx1(simple_rep(q, 2), simple_rep(q, 2), primes)


def test_xx1_chi_sums_match_space_dims(primes):
    """Per-side chi totals equal the Ext^1 dimension in every run."""
    qk = kronecker_quiver()
    s1, s2 = simple_rep(qk, 1), simple_rep(qk, 2)
    d = stable_ext1_dim(s1, s2, primes)
    report = verify_xx1(s2, s1, primes)
    assert report.verdict
    for side in ("ext", "hom"):
        assert sum(s.chi for s in report.strata if s.side == side) == d


def test_xx1_kronecker_strata(primes):
    qk = kronecker_quiver()
    report = verify_xx1(simple_rep(qk, 2), simple_rep(qk, 1), primes)
    assert report.verdict
    ext = [s for s in report.strata if s.side == "ext"]
    assert len(ext) == 1 and ext[0].chi == 2
    assert ext[0].middle_term.module.dim == (1, 1)
    hom = [s for s in report.strata if s.side == "hom"]
    assert len(hom) == 1 and hom[0].chi == 2
    assert hom[0].middle_term.module.is_zero()
    assert hom[0].middle_term.shifted == (1, 1)


def test_xx1_unliftable_stratum_fails_loudly(primes):
    """D4-tilde xx1(P1, I5): one stratum has no sample point whose rational
    middle term reduces into it at every default prime.  The verifier
    refuses with an error instead of reporting a verdict."""
    q = d4tilde_quiver()
    with pytest.raises(PrimeInstabilityError,
                       match="no projective-space point lifts"):
        verify_xx1(projective_rep(q, 1), injective_rep(q, 5), primes)


def test_xx2_a2_p2_p1(primes):
    q = a2_quiver()
    report = verify_xx2(projective_rep(q, 2), projective_rep(q, 1), primes)
    assert report.verdict
    assert report.lhs == cc(projective_rep(q, 1), primes).value * parse("x2", 2)
    assert report.rhs == cc(simple_rep(q, 1), primes).value + parse("1", 2)


def test_xx2_a2_p1_p1(primes):
    q = a2_quiver()
    report = verify_xx2(projective_rep(q, 1), projective_rep(q, 1), primes)
    assert report.verdict
    assert report.rhs == cc(simple_rep(q, 2), primes).value + parse("1", 2)


def test_xx2_rejects_non_projective(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        verify_xx2(simple_rep(q, 1), projective_rep(q, 1), primes)


def test_xx2_rejects_vanishing_hom(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        verify_xx2(projective_rep(q, 2), simple_rep(q, 1), primes)


def test_xx2_a3(primes):
    q = a3_quiver()
    report = verify_xx2(projective_rep(q, 3), projective_rep(q, 1), primes)
    assert report.verdict


def test_unified_modules_both_directions(primes):
    e1, e2 = d4tilde_tube_simples()
    report = verify_unified(e1, e2, primes)
    assert report.verdict
    # each direction contributes one ext and one hom stratum, chi = 1 each
    assert [s.chi for s in report.strata] == [1, 1, 1, 1]
    assert [s.side for s in report.strata] == ["ext", "hom", "ext", "hom"]
    x1 = cc(e1, primes).value
    x2 = cc(e2, primes).value
    assert report.lhs == (x1 * x2).scale(2)


def test_unified_one_sided_matches_xx1(primes):
    """With Ext vanishing one way, unified reduces to the refined identity."""
    q = a2_quiver()
    report = verify_unified(simple_rep(q, 1), simple_rep(q, 2), primes)
    ref = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), primes)
    assert report.verdict and report.rhs == ref.rhs


def test_unified_shifted_operand(primes):
    q = a2_quiver()
    shifted = ClusterObject(zero_rep(q), (0, 1))
    report = verify_unified(cluster_object(projective_rep(q, 1)), shifted,
                            primes)
    assert report.verdict
    ref = verify_xx2(projective_rep(q, 2), projective_rep(q, 1), primes)
    assert report.rhs == ref.rhs


def test_unified_rejects_rigid_pair(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        verify_unified(simple_rep(q, 1), simple_rep(q, 1), primes)


def test_unified_rejects_mixed_operand(primes):
    q = a2_quiver()
    mixed = ClusterObject(simple_rep(q, 1), (0, 1))
    with pytest.raises(PreconditionError):
        verify_unified(mixed, cluster_object(simple_rep(q, 2)), primes)


def test_kronecker_regular_from_exchange(primes):
    """cc(R) for the (1,1) regulars via the simples' exchange relation."""
    qk = kronecker_quiver()
    x1 = cc(simple_rep(qk, 1), primes).value
    x2 = cc(simple_rep(qk, 2), primes).value
    # lhs d * X_{S1} X_{S2} = X_R^ext-strata + hom-strata, with chi 2 each
    report = verify_xx1(simple_rep(qk, 2), simple_rep(qk, 1), primes)
    r_value = cc(kronecker_regular(1, 1), primes).value
    assert (x1 * x2).scale(2) == r_value.scale(2) + parse("x1*x2", 2).scale(2)
    assert report.lhs == (x1 * x2).scale(2)


def test_hom_side_builds_each_middle_term_once(monkeypatch, few_primes):
    """Kronecker xx1(P1, S1): P Hom(P1, tau S1) has dimension 3, but its
    points share few (Ker g, Coker g) pairs, so tau^{-1} runs once per
    distinct pair at each prime, not once per point."""
    q = kronecker_quiver()
    seen, inverses = [], []
    rule, inverse = multiplication.hom_side_middle_term, artranslate.ar_inverse

    def recording_rule(K, C):
        seen.append((K.field, _content(K), _content(C)))
        return rule(K, C)

    def counting_inverse(C):
        inverses.append(C.field)
        return inverse(C)

    monkeypatch.setattr(multiplication, "hom_side_middle_term",
                        recording_rule)
    monkeypatch.setattr(artranslate, "ar_inverse", counting_inverse)
    strata = stratify_hom_side(projective_rep(q, 1), simple_rep(q, 1),
                               few_primes)
    assert sum(s.chi for s in strata) == 3
    per_prime = [x for x in seen if x[0] != QQ]
    assert len(per_prime) == len(set(per_prime))
    points = sum(p * p + p + 1 for p in few_primes)
    assert 0 < len(per_prime) * 10 < points
    assert len(inverses) == len(seen)


def test_repeated_verify_gives_equal_reports(few_primes):
    """The per-prime memo leaves nothing behind between calls."""
    q = kronecker_quiver()
    first = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), few_primes)
    second = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), few_primes)
    assert first == second
    assert first.verdict
