"""Cluster character: frozen values, cross-form coherence, multiplicativity."""

import pytest

from cclab.character import CharacterValue, cc, cc_palu_form, coindex
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.laurent import parse
from cclab.quiver import a2_quiver, a3_quiver, kronecker_quiver
from cclab.reps import (ClusterObject, cluster_object, direct_sum, ext1_dim,
                        hom_dim, injective_rep, projective_rep, simple_rep,
                        sum_cluster_objects, zero_rep)


def corpus_objects():
    """Cluster objects across the stock quivers, shifted summands included."""
    objs = []
    q2 = a2_quiver()
    objs += [cluster_object(m) for m in
             (simple_rep(q2, 1), simple_rep(q2, 2), projective_rep(q2, 1))]
    objs += [ClusterObject(zero_rep(q2), (1, 0)),
             ClusterObject(simple_rep(q2, 1), (0, 1))]
    q3 = a3_quiver()
    objs += [cluster_object(m) for m in all_interval_modules(q3)]
    qk = kronecker_quiver()
    objs += [cluster_object(m) for m in
             (simple_rep(qk, 1), simple_rep(qk, 2), kronecker_regular(1, 1))]
    e1, e2 = d4tilde_tube_simples()
    objs += [cluster_object(e1), cluster_object(e2)]
    return objs


# -- frozen values ---------------------------------------------------------

def test_cc_a2_values(primes):
    q = a2_quiver()
    assert str(cc(simple_rep(q, 1), primes).value) == "x1^-1 + x1^-1*x2"
    assert str(cc(simple_rep(q, 2), primes).value) == "x2^-1 + x1*x2^-1"
    assert str(cc(projective_rep(q, 1), primes).value) == \
        "x1^-1*x2^-1 + x1^-1 + x2^-1"


def test_character_value_compares_and_prints_as_its_polynomial(primes):
    """A CharacterValue equals another of the same polynomial, and the
    polynomial itself, and prints as it."""
    x = parse("x1^-1 + x1^-1*x2", 2)
    value = cc(simple_rep(a2_quiver(), 1), primes)
    assert value == CharacterValue(x) and value == x
    assert value != CharacterValue(parse("x1", 2)) and value != parse("x1", 2)
    assert str(value) == "x1^-1 + x1^-1*x2"


def test_cc_shifted_projective(primes):
    q = a2_quiver()
    assert str(cc(ClusterObject(zero_rep(q), (1, 0)), primes).value) == "x1"
    assert str(cc(cluster_object(zero_rep(q)), primes).value) == "1"


def test_cc_kronecker_values(primes):
    qk = kronecker_quiver()
    assert str(cc(simple_rep(qk, 1), primes).value) == "x1^-1 + x1^-1*x2^2"
    got = cc(kronecker_regular(1, 1), primes).value
    assert got == parse("x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1", 2)


def test_cc_regulars_share_value(primes):
    for ab in [(1, 1), (1, 2), (2, 1), (1, 0), (0, 1)]:
        assert cc(kronecker_regular(*ab), primes).value == \
            cc(kronecker_regular(1, 1), primes).value


def test_exchange_relation_a2(primes):
    q = a2_quiver()
    lhs = cc(simple_rep(q, 2), primes).value * cc(simple_rep(q, 1), primes).value
    rhs = cc(projective_rep(q, 1), primes).value + parse("1", 2)
    assert lhs == rhs


# -- coindex ---------------------------------------------------------------

def test_coindex_examples():
    q = a2_quiver()
    assert coindex(simple_rep(q, 1)) == (1, 0)       # S1 = I1 on A2
    assert coindex(projective_rep(q, 1)) == (0, 1)   # P1 = I2 on A2
    assert coindex(simple_rep(q, 2)) == (-1, 1)      # 0 -> S2 -> I2 -> I1
    assert coindex(cluster_object(zero_rep(q))) == (0, 0)
    assert coindex(ClusterObject(zero_rep(q), (1, 0))) == (-1, 0)


def test_coindex_is_euler_pairing_on_corpus():
    """coindex, the Euler pairings (<e_i, dim M>)_i less the shift, equals
    hom(S_i, M) - ext^1(S_i, M) less the shift, the multiplicities of I_i
    in I0 and I1, on the corpus and on its pairwise sums over one
    quiver."""
    objs = corpus_objects()
    objs += [sum_cluster_objects(a, b) for a in objs for b in objs
             if a.module.quiver == b.module.quiver]
    for obj in objs:
        M = obj.module
        for i in range(M.quiver.n):
            S = simple_rep(M.quiver, i + 1)
            assert coindex(obj)[i] == (hom_dim(S, M) - ext1_dim(S, M)
                                       - obj.shifted[i])


# -- cross-form coherence --------------------------------------------------

def test_palu_form_matches_classical_on_corpus(primes):
    for obj in corpus_objects():
        assert cc_palu_form(obj, primes).value == cc(obj, primes).value


# -- structural invariants -------------------------------------------------

def test_multiplicativity(primes):
    objs = corpus_objects()
    by_quiver = {}
    for o in objs:
        by_quiver.setdefault(o.module.quiver, []).append(o)
    checked = 0
    for group in by_quiver.values():
        for a in group:
            for b in group:
                s = sum_cluster_objects(a, b)
                assert cc(s, primes).value == \
                    cc(a, primes).value * cc(b, primes).value
                checked += 1
    assert checked >= 10


def large_sum_factors():
    """Factor pairs whose sums are too large to count with a subspace at
    every vertex."""
    qk = kronecker_quiver()
    p1, i2 = projective_rep(qk, 1), injective_rep(qk, 2)
    e2 = d4tilde_tube_simples()[1]
    return [(p1, p1), (i2, i2), (p1, i2), (e2, e2)]


@pytest.mark.parametrize("a, b", large_sum_factors(), ids=[
    "kronecker-P1+P1", "kronecker-I2+I2", "kronecker-P1+I2", "d4tilde-E2+E2"])
def test_multiplicativity_large_sums(primes, a, b):
    s = cluster_object(direct_sum(a, b))
    assert cc(s, primes).value == cc(a, primes).value * cc(b, primes).value
    assert cc_palu_form(s, primes).value == cc(s, primes).value


def test_positive_coefficients_on_corpus(primes):
    for obj in corpus_objects():
        value = cc(obj, primes).value
        assert all(c > 0 for c in value.terms.values())
