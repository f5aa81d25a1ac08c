"""Representation lab: standard modules, Hom/Ext, extensions, AR translate."""

import time

import pytest

from cclab.artranslate import (ar_inverse, ar_translate, has_projective_summand,
                               split_summands, top_multiplicities)
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.errors import PreconditionError
from cclab.linalg import Mat
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver, euler_form,
                          kronecker_quiver)
from cclab.reps import (_has_invertible_combination, cluster_object,
                        direct_sum, direct_sum_many, ext1_basis, ext1_dim,
                        fingerprint, hom_basis, hom_dim, injective_rep,
                        is_isomorphic, make_rep, middle_term, projective_rep,
                        reduce_rep, simple_rep, stable_ext1_dim,
                        stable_hom_dim, standard_module, zero_rep)


def a2_corpus():
    q = a2_quiver()
    return [simple_rep(q, 1), simple_rep(q, 2), projective_rep(q, 1)]


def corpus_pairs():
    """Module pairs across the stock quivers; used by the property suites."""
    pairs = []
    mods_a2 = a2_corpus()
    pairs += [(m, n) for m in mods_a2 for n in mods_a2]
    q3 = a3_quiver()
    mods_a3 = all_interval_modules(q3)
    pairs += [(m, n) for m in mods_a3 for n in mods_a3]
    qk = kronecker_quiver()
    mods_k = [simple_rep(qk, 1), simple_rep(qk, 2), kronecker_regular(1, 1)]
    pairs += [(m, n) for m in mods_k for n in mods_k]
    e1, e2 = d4tilde_tube_simples()
    pairs += [(e1, e2), (e2, e1), (e1, e1)]
    return pairs


# -- standard modules ------------------------------------------------------

def test_projective_dims_a2():
    q = a2_quiver()
    assert projective_rep(q, 1).dim == (1, 1)
    assert projective_rep(q, 2).dim == (0, 1)


def test_injective_dims_a2():
    q = a2_quiver()
    assert injective_rep(q, 1).dim == (1, 0)
    assert injective_rep(q, 2).dim == (1, 1)


def test_d4tilde_standard_dims():
    q = d4tilde_quiver()
    assert projective_rep(q, 5).dim == (0, 0, 0, 0, 1)  # center is a sink
    assert injective_rep(q, 5).dim == (1, 1, 1, 1, 1)
    assert injective_rep(q, 1).dim == simple_rep(q, 1).dim


def test_standard_module_dispatch():
    q = a2_quiver()
    assert standard_module(q, "simple", 1).dim == (1, 0)
    assert standard_module(q, "projective", 1).dim == (1, 1)
    assert standard_module(q, "injective", 1).dim == (1, 0)


# -- Hom and Ext -----------------------------------------------------------

def test_hom_dims_a2():
    q = a2_quiver()
    s1, s2, p1 = simple_rep(q, 1), simple_rep(q, 2), projective_rep(q, 1)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, p1) == 1
    assert hom_dim(p1, s1) == 1


def test_ext_dims_a2():
    q = a2_quiver()
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s2, s1) == 0
    assert ext1_dim(projective_rep(q, 1), s1) == 0


def test_ext_dims_kronecker():
    qk = kronecker_quiver()
    assert ext1_dim(simple_rep(qk, 1), simple_rep(qk, 2)) == 2


def test_middle_term_recovers_p1():
    q = a2_quiver()
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    (phi,) = ext1_basis(s1, s2)
    Y = middle_term(phi)
    assert is_isomorphic(Y, projective_rep(q, 1))


def test_euler_identity_on_corpus():
    for M, N in corpus_pairs():
        got = hom_dim(M, N) - ext1_dim(M, N)
        assert got == euler_form(M.quiver, M.dim, N.dim)


def test_prime_stability_guards(primes):
    assert len(primes) >= 4
    for M, N in corpus_pairs():
        assert stable_hom_dim(M, N, primes) == hom_dim(M, N)
        assert stable_ext1_dim(M, N, primes) == ext1_dim(M, N)


# -- isomorphism testing ---------------------------------------------------

def test_iso_detects_base_change():
    q = a2_quiver()
    M = make_rep(q, (2, 2), [[[1, 2], [0, 1]]])
    N = make_rep(q, (2, 2), [[[1, 0], [0, 1]]])
    assert is_isomorphic(M, N)


def test_iso_rejects_different_regulars():
    qk = kronecker_quiver()
    assert not is_isomorphic(kronecker_regular(1, 1), kronecker_regular(1, 2))
    assert not is_isomorphic(kronecker_regular(1, 0),
                             direct_sum(simple_rep(qk, 1), simple_rep(qk, 2)))


def kronecker_band():
    """R(1,1)[2]: the length-2 module in the tube of R(1,1)."""
    return make_rep(kronecker_quiver(), (2, 2),
                    [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])


def test_iso_separates_fingerprint_collision():
    # the bucket behind the Kronecker xx1(P1, S1) defect mixes these two
    split = direct_sum(kronecker_regular(1, 1), kronecker_regular(1, 2))
    band = kronecker_band()
    assert fingerprint(split) == fingerprint(band)
    assert not is_isomorphic(split, band)
    assert not is_isomorphic(band, split)


def test_iso_rejects_on_hom_dimension_before_grid():
    # k = dim Hom(M, N) = 9: a grid search alone takes 10^9 rank tests
    r = kronecker_regular(1, 1)
    M = direct_sum_many(r.quiver, [r, r, r, kronecker_regular(1, 2)])
    N = direct_sum_many(r.quiver, [r, r, kronecker_band()])
    assert fingerprint(M) == fingerprint(N)
    assert (len(hom_basis(M, N)), hom_dim(M, M)) == (9, 10)
    start = time.perf_counter()
    assert not is_isomorphic(M, N)
    assert time.perf_counter() - start < 1.0


def test_invertible_combination_grid():
    split = direct_sum(kronecker_regular(1, 1), kronecker_regular(1, 2))
    band = kronecker_band()
    basis = hom_basis(split, band)
    assert len(basis) == 1
    assert not _has_invertible_combination(basis, split.dim)
    assert _has_invertible_combination(hom_basis(band, band), band.dim)


def test_iso_accepts_base_changed_band():
    band = kronecker_band()
    g1 = Mat(band.field, 2, 2, [[1, 1], [0, 1]])
    g1_inv = Mat(band.field, 2, 2, [[1, -1], [0, 1]])
    g2 = Mat(band.field, 2, 2, [[2, 1], [1, 1]])
    moved = make_rep(band.quiver, band.dim,
                     [g2.mul(m).mul(g1_inv) for m in band.matrices])
    assert moved.matrices != band.matrices
    assert is_isomorphic(band, moved)


def test_iso_needs_prime_above_dimension():
    split = direct_sum(kronecker_regular(1, 1), kronecker_regular(1, 2))
    with pytest.raises(PreconditionError, match="GF\\(3\\).*dim M = 4"):
        is_isomorphic(reduce_rep(split, 3), reduce_rep(kronecker_band(), 3))


# -- summand splitting -----------------------------------------------------

def _a2_split_case(kind):
    q = a2_quiver()
    if kind == "projective":
        return direct_sum(projective_rep(q, 1), simple_rep(q, 1))
    return direct_sum(injective_rep(q, 2), simple_rep(q, 2))


def _kronecker_split_case(kind):
    qk = kronecker_quiver()
    S = standard_module(qk, kind, 1 if kind == "projective" else 2)
    return direct_sum_many(qk, [S, S, kronecker_regular(1, 1)])


@pytest.mark.parametrize("kind, build, mults, rest", [
    ("projective", _a2_split_case, (1, 0), simple_rep(a2_quiver(), 1)),
    ("injective", _a2_split_case, (0, 1), simple_rep(a2_quiver(), 2)),
    ("projective", _kronecker_split_case, (2, 0), kronecker_regular(1, 1)),
    ("injective", _kronecker_split_case, (0, 2), kronecker_regular(1, 1)),
], ids=["projective-a2", "injective-a2", "projective-kronecker-x2",
        "injective-kronecker-x2"])
def test_split_summands(kind, build, mults, rest):
    got_mults, got_rest = split_summands(build(kind), kind)
    assert got_mults == mults
    assert got_rest.dim == rest.dim
    assert is_isomorphic(got_rest, rest)


def test_has_projective_summand():
    q = a2_quiver()
    assert has_projective_summand(direct_sum(projective_rep(q, 1),
                                             simple_rep(q, 1)))
    assert not has_projective_summand(simple_rep(q, 1))


def test_top_multiplicities():
    q = a2_quiver()
    assert top_multiplicities(projective_rep(q, 1)) == (1, 0)
    assert top_multiplicities(direct_sum(projective_rep(q, 1),
                                         projective_rep(q, 2))) == (1, 1)


# -- AR translate ----------------------------------------------------------

def test_tau_s1_is_s2_on_a2():
    q = a2_quiver()
    assert is_isomorphic(ar_translate(simple_rep(q, 1)), simple_rep(q, 2))


def test_tau_rejects_projectives():
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        ar_translate(projective_rep(q, 1))


def test_tau_inverse_inverts_tau():
    q = a2_quiver()
    s1 = simple_rep(q, 1)
    back = ar_inverse(ar_translate(s1))
    assert not any(back.shifted)
    assert is_isomorphic(back.module, s1)


def test_tau_inverse_of_injective_is_shifted():
    q = a2_quiver()
    obj = ar_inverse(injective_rep(q, 1))  # I1 = tau P1 on A2
    assert obj.module.is_zero()
    assert obj.shifted == (1, 0)


def test_tau_kronecker_simple():
    qk = kronecker_quiver()
    tau = ar_translate(simple_rep(qk, 1))
    assert tau.dim == (3, 2)


def test_tau_swaps_tube_simples_d4tilde():
    e1, e2 = d4tilde_tube_simples()
    assert is_isomorphic(ar_translate(e1), e2)
    assert is_isomorphic(ar_translate(e2), e1)


def test_ar_formula_on_corpus(primes):
    """dim Ext^1(M, L) = dim Hom(L, tau M) for projective-free M."""
    checked = 0
    for L, M in corpus_pairs():
        if has_projective_summand(M):
            continue
        assert ext1_dim(M, L) == hom_dim(L, ar_translate(M))
        checked += 1
    assert checked >= 20


def test_zero_module_edge_cases():
    q = a2_quiver()
    z = zero_rep(q)
    assert hom_dim(z, simple_rep(q, 1)) == 0
    assert ext1_dim(simple_rep(q, 1), z) == 0
    assert ar_translate(z).is_zero()
    assert cluster_object(z).is_zero()
