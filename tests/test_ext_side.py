"""The Ext side of xx1 as one integral over P Ext^1(M, L), against a
brute-force walk of the projective space."""

from itertools import combinations, product
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import box_bounds, rep_pairs

from cclab import multiplication
from cclab.config import default_primes
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.grassmannian import (count_subreps, fit_and_verify,
                                gaussian_binomial, subreps, subspaces,
                                tangent_bounds)
from cclab.linalg import _nullspace_of_rref, _rank_mod
from cclab.multiplication import (_ext1, _quotient, _sub,
                                  stratify_ext_side, verify_xx1)
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver, validate_quiver)
from cclab.reps import (ExtCocycle, _system_rows, combine, ext1_dim,
                        ext1_setup, make_rep, middle_term, reduce_rep,
                        standard_module, unit_cocycles)

PRIMES = default_primes()


def oracle_bound(M, L, d: int) -> int:
    """The degree bound of the point count of Z_e for every e: a point of
    P^{d-1} times a point of Gr_e(Y), Y of dimension dim L + dim M."""
    dim = [a + b for a, b in zip(L.dim, M.dim)]
    return (d - 1) + max(box_bounds(dim).values())


def walked_profile(M, L, primes) -> dict:
    """chi(Z_e) for every e, Z_e = {([eta], U <= Y_eta) : dim U = e}, from
    the number of its points over each prime: a sum of count_subreps over
    the middle terms of every point of P Ext^1(M, L)(F_p), fitted within
    oracle_bound."""
    indices = ext1_setup(M, L)[0]
    d = len(indices)
    dim = [a + b for a, b in zip(L.dim, M.dim)]
    es = list(product(*[range(n + 1) for n in dim]))
    counts = {e: {} for e in es}
    for p in primes:
        Mp, Lp = reduce_rep(M, p), reduce_rep(L, p)
        basis = [eta.components for eta in unit_cocycles(Mp, Lp, indices)]
        for e in es:
            counts[e][p] = 0
        for (c,) in subspaces(p, d, 1):
            Y = middle_term(ExtCocycle(Mp, Lp, combine(basis, c)))
            for e in es:
                counts[e][p] += count_subreps(Y, e, p)
    bound = oracle_bound(M, L, d)
    profile = {e: fit_and_verify(by_prime, bound)(1)
               for e, by_prime in counts.items()}
    return {e: chi for e, chi in profile.items() if chi}


def integral_profile(M, L, primes) -> dict:
    """The profile {e: chi(Z_e)} of stratify_ext_side's one stratum, read
    where it is handed to exponent_form."""
    seen = []
    form = multiplication.exponent_form
    with mock.patch.object(multiplication, "exponent_form",
                           lambda *args: seen.append(args[3]) or form(*args)):
        (stratum,) = stratify_ext_side(M, L, primes)
    d = ext1_dim(M, L)
    assert (stratum.chi, stratum.side, stratum.shifted) == (
        d, "ext", (0,) * M.quiver.n)
    assert stratum.dim == tuple(a + b for a, b in zip(L.dim, M.dim))
    ((profile,),) = [seen]
    assert stratum.value == form(M.quiver, stratum.dim, stratum.shifted,
                                 profile)
    return {e: chi for e, chi in profile.items() if chi}


def stock_xx1_pairs():
    """(label, L, M) over the stock modules of A2, A3, Kronecker and
    D4-tilde, each isomorphism class once, with 1 <= dim Ext^1(M, L) <= 2
    and a walk that fits the default primes."""
    a3 = a3_quiver()
    quivers = {"a2": (a2_quiver(), {}),
               "a3": (a3, {"I" + "".join(map(str, m.dim)): m
                           for m in all_interval_modules(a3)}),
               "kronecker": (kronecker_quiver(),
                             {"R11": kronecker_regular(1, 1)}),
               "d4t": (d4tilde_quiver(),
                       dict(zip(("E1", "E2"), d4tilde_tube_simples())))}
    out = []
    for name, (q, extra) in quivers.items():
        mods, seen = {}, set()
        for label, m in [(f"{kind[0].upper()}{i}",
                          standard_module(q, kind, i))
                         for kind in ("simple", "projective", "injective")
                         for i in range(1, q.n + 1)] + list(extra.items()):
            key = (m.dim, tuple(tuple(map(tuple, a.data))
                                for a in m.matrices))
            if key not in seen:
                seen.add(key)
                mods[label] = m
        for (a, L), (b, M) in product(mods.items(), repeat=2):
            d = ext1_dim(M, L)
            if 1 <= d <= 2 and oracle_bound(M, L, d) + 2 <= len(PRIMES):
                out.append((f"{name}({a},{b})", L, M))
    return out


STOCK_PAIRS = stock_xx1_pairs()


@pytest.mark.parametrize("label, L, M", STOCK_PAIRS,
                         ids=[label for label, *_ in STOCK_PAIRS])
def test_integral_matches_walk_on_stock_pairs(label, L, M):
    assert integral_profile(M, L, PRIMES) == walked_profile(M, L, PRIMES)


@st.composite
def small_pairs(draw):
    """(M, L): two modules of a random acyclic quiver on 2 or 3 vertices
    with 1 to 3 arrows, over QQ, each of total dimension at most 3 with
    integer entries in [-2, 2], M nonzero at the source of an arrow and L
    at its target, where a cocycle lives."""
    n = draw(st.integers(2, 3))
    label = draw(st.permutations(range(1, n + 1)))
    q = validate_quiver(n, [(label[s - 1], label[t - 1]) for s, t in draw(
        st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))),
                 min_size=1, max_size=3))])
    s, t = draw(st.sampled_from(q.arrows))

    def module(v):
        dim = [int(u == v) for u in range(1, n + 1)]
        for u in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            dim[u] += 1
        return make_rep(q, dim, [
            [[draw(st.integers(-2, 2)) for _ in range(dim[a - 1])]
             for _ in range(dim[b - 1])] for a, b in q.arrows])
    return module(s), module(t)


@given(small_pairs())
@settings(deadline=None, max_examples=50)
def test_integral_matches_walk_on_random_pairs(case):
    M, L = case
    d = ext1_dim(M, L)
    assume(1 <= d <= 2 and oracle_bound(M, L, d) + 2 <= len(PRIMES))
    assert integral_profile(M, L, PRIMES) == walked_profile(M, L, PRIMES)


@pytest.mark.parametrize("L, M", [
    (standard_module(kronecker_quiver(), "projective", 1),
     standard_module(kronecker_quiver(), "simple", 1)),
    (standard_module(kronecker_quiver(), "simple", 2),
     standard_module(kronecker_quiver(), "injective", 2)),
    (standard_module(kronecker_quiver(), "projective", 1),
     standard_module(kronecker_quiver(), "injective", 2)),
], ids=["P1,S1", "S2,I2", "P1,I2"])
def test_kronecker_xx1_holds(L, M):
    """Three Kronecker inputs whose Ext side buckets keyed by Hom
    dimensions got wrong: R_l + R_m and R_l[2] share a hom_battery, not a
    character."""
    assert verify_xx1(L, M, PRIMES).verdict


def test_empty_subrepresentation_classes_are_not_listed(monkeypatch):
    """Kronecker P1 and S1 are rigid, and the tangent bounds prove P1's
    e_L = (1, 0) and (1, 1) empty: P1 = (1, 2) has 0, the lines at vertex
    2, (0, 2) and P1.  At every prime only P1's other four e and S1's two
    are listed."""
    q = kronecker_quiver()
    L, M = (standard_module(q, "projective", 1),
            standard_module(q, "simple", 1))
    listed = []
    monkeypatch.setattr(multiplication, "subreps", lambda R, e, *tables:
                        listed.append((R.dim, e)) or subreps(R, e, *tables))
    primes = PRIMES[:4]
    assert stratify_ext_side(M, L, primes)[0].chi == 3
    assert {e for dim, e in listed if dim == L.dim} == set(
        tangent_bounds(q, L.dim, 0)) == {(0, 0), (0, 1), (0, 2), (1, 2)}
    assert len(listed) == len(primes) * (4 + 2)
    assert not any(count_subreps(L, e, p) for e in [(1, 0), (1, 1)]
                   for p in primes)


def cocycle_kept_dim(arrows, U_M, tup, Q, ann, phis, p) -> int:
    """dim ker(Ext^1(M, L) -> Ext^1(U_M, L/U_L)) over GF(p) from cocycle
    images, for U_M held by tup and Q = L/U_L, both as (dim, arrow
    matrices as int rows), and ann = ann U_L per vertex, on the unit
    cocycles phi of Ext^1(M, L): d + rank C - rank [C | images], with C
    the intertwiner rows of Hom(U_M, Q), which span the coboundaries, and
    the images ann(U_L,t) phi_a U_M,s in their order."""
    C = _system_rows(arrows, U_M, Q, 0, lambda x: -x % p)
    cols = sum(map(mul, Q[0], U_M[0]))
    images = [[sum(x * sum(map(mul, row, u)) for x, row in zip(f, phi[a])) % p
               for a, (s, t) in enumerate(arrows)
               for f in ann[t - 1] for u in tup[s - 1][0]] for phi in phis]
    rows = [row + [image[i] for image in images]
            for i, row in enumerate(C)]
    return (len(phis) + _rank_mod(C, cols, p)
            - _rank_mod(rows, cols + len(phis), p))


def _all_subreps(R) -> list:
    """Every subrepresentation of R over its GF(p), as subreps entries."""
    return [tup for e in product(*[range(n + 1) for n in R.dim])
            for tup in subreps(R, e)]


def _tuples(R) -> int:
    """The subspace tuples that _all_subreps(R) walks."""
    out = 1
    for d in R.dim:
        out *= sum(gaussian_binomial(d, k, R.field.p) for k in range(d + 1))
    return out


@given(rep_pairs(max_dim=2))
@settings(deadline=None, max_examples=200)
def test_fibre_is_a_dimension_count(case):
    """Ext^2 = 0 makes Ext^1(M, L) -> Ext^1(U_M, L/U_L) onto, so for every
    U_L <= L and U_M <= M its kernel, ranked from the images of the unit
    cocycles, has dimension d - dim Ext^1(U_M, L/U_L), read on the int
    rows of _sub and _quotient: the fibre that stratify_ext_side counts
    over the pair."""
    M, L, _ = case
    assume(_tuples(M) * _tuples(L) <= 5000)  # bounds the pairs ranked
    p, d = M.field.p, ext1_dim(M, L)
    phis = [[m.data for m in eta.components]
            for eta in unit_cocycles(M, L, ext1_setup(M, L)[0])]
    assert len(phis) == d
    quotients = [(_quotient(L, tup), [
        _nullspace_of_rref(U, [u.index(1) for u in U], n, p)[1]
        for (U, _), n in zip(tup, L.dim)]) for tup in _all_subreps(L)]
    arrows = M.quiver.arrows
    for tup in _all_subreps(M):
        U_M = _sub(M, tup)
        for Q, ann in quotients:
            assert (cocycle_kept_dim(arrows, U_M, tup, Q, ann, phis, p)
                    == d - _ext1(arrows, U_M, Q, p))
