"""The Hom(P, M) side of xx2 as one closed-form stratum, against a
brute-force walk of P Hom(P, M)."""

import random
from itertools import product

import pytest
from strategies import base_changed

from cclab.character import exponent_form
from cclab.config import default_primes
from cclab.grassmannian import (count_subreps, fit_and_verify,
                                grassmannian_degree_bound, subspaces)
from cclab.laurent import LaurentPolynomial
from cclab.multiplication import verify_xx2
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver)
from cclab.reps import (cokernel_rep, combine, hom_basis, hom_dim,
                        injective_rep, kernel_rep, projective_rep,
                        reduce_rep, simple_rep, standard_sum)

PRIMES = default_primes()


def oracle_bound(M, d: int) -> int:
    """The degree bound of the point count of {(f, U <= Coker f)} at each
    exponent: a point of P^{d-1} times a point of Gr_e(Coker f), and
    Coker f is no larger than M."""
    return (d - 1) + max(grassmannian_degree_bound(M.dim, e)
                         for e in product(*[range(n + 1) for n in M.dim]))


def tops(M) -> tuple:
    """dim Hom(M, S_i) at every vertex i: the top of M."""
    return tuple(hom_dim(M, simple_rep(M.quiver, i, M.field))
                 for i in range(1, M.quiver.n + 1))


def walked_side(P, M, primes) -> LaurentPolynomial:
    """sum X of Coker f (+) (Ker f)[1] over [f] in P Hom(P, M): per
    exponent of X, the number of pairs (f, U <= Coker f) giving it over
    each prime, summed from count_subreps over every point of
    P Hom(P, M)(F_p), fitted within oracle_bound."""
    q, d = M.quiver, hom_dim(P, M)
    counts = {}
    for p in primes:
        Pp, Mp = reduce_rep(P, p), reduce_rep(M, p)
        basis = hom_basis(Pp, Mp)
        assert len(basis) == d
        for (c,) in subspaces(p, d, 1):
            f = combine(basis, c)
            K, C = kernel_rep(f, Pp, Mp), cokernel_rep(f, Pp, Mp)
            mults = tops(K)
            # the kernel of a map out of a projective is projective
            assert standard_sum(q, "projective", mults, K.field).dim == K.dim
            for e in product(*[range(n + 1) for n in C.dim]):
                (exp,) = exponent_form(q, C.dim, mults, {e: 1}).terms
                by_prime = counts.setdefault(exp, dict.fromkeys(primes, 0))
                by_prime[p] += count_subreps(C, e, p)
    bound = oracle_bound(M, d)
    return LaurentPolynomial(q.n, {
        exp: fit_and_verify(by_prime, bound)(1)
        for exp, by_prime in counts.items()})


def closed_form_side(P, M, primes):
    """The proj-shift-hom stratum of verify_xx2(P, M), checked to hold."""
    report = verify_xx2(P, M, primes)
    assert report.verdict
    (stratum,) = [s for s in report.strata if s.side == "proj-shift-hom"]
    assert report.strata[-1] is stratum
    assert (stratum.dim, stratum.shifted, stratum.chi) == (
        M.dim, tops(P), hom_dim(P, M))
    return stratum


PAIRS = {
    "a2(P2,P1)": (projective_rep(a2_quiver(), 2),
                  projective_rep(a2_quiver(), 1)),
    "a3(P3,P1)": (projective_rep(a3_quiver(), 3),
                  projective_rep(a3_quiver(), 1)),
    "kronecker(P1,I2)": (projective_rep(kronecker_quiver(), 1),
                         injective_rep(kronecker_quiver(), 2)),
    "kronecker(P2,P1)": (projective_rep(kronecker_quiver(), 2),
                         projective_rep(kronecker_quiver(), 1)),
    "d4t(P1,I5)": (projective_rep(d4tilde_quiver(), 1),
                   injective_rep(d4tilde_quiver(), 5)),
}


@pytest.mark.parametrize("P, M", PAIRS.values(), ids=PAIRS)
def test_closed_form_matches_walk(P, M):
    assert oracle_bound(M, hom_dim(P, M)) + 2 <= len(PRIMES)
    assert closed_form_side(P, M, PRIMES).value == walked_side(P, M, PRIMES)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("P, M", PAIRS.values(), ids=PAIRS)
def test_closed_form_matches_walk_after_base_change(P, M, seed):
    """The same on both operands moved by seeded unimodular base changes,
    whose matrices are no longer the stock 0/1 ones."""
    rng = random.Random(seed)
    P, M = base_changed(P, rng), base_changed(M, rng)
    assert closed_form_side(P, M, PRIMES).value == walked_side(P, M, PRIMES)
