"""Stratified verification of the multiplication identities."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from strategies import hom_battery, rep_pairs, tau_inverse_maps

from cclab import artranslate, multiplication
from cclab.artranslate import ar_inverse, summand_multiplicities
from cclab.character import cc
from cclab.corpus import d4tilde_tube_simples, kronecker_regular
from cclab.errors import (ConfigurationError, PreconditionError,
                          PrimeInstabilityError)
from cclab.laurent import parse
from cclab.grassmannian import subspaces
from cclab.linalg import QQ, Mat
from cclab.multiplication import (_hom_side_middle, _hom_walk,
                                  stratify_ext_side, stratify_hom_side,
                                  verify_unified, verify_xx1, verify_xx2)
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver)
from cclab.reps import (ClusterObject, _kernel_key, _rep_of_key,
                        cluster_object, combine, cokernel_rep, direct_sum,
                        dual, hom_basis, injective_rep,
                        kernel_rep, make_rep, projective_rep, reduce_rep,
                        simple_rep, stable_ext1_dim, stable_hom_dim, zero_rep)


def hom_side_middle_term(K, C):
    """Reference: Ker g (+) tau^{-1}(Coker g) from K and C, via ar_inverse."""
    rest = ar_inverse(C)
    return ClusterObject(direct_sum(K, rest.module), rest.shifted)


def bucket_key(Y):
    """The (shifted, hom_battery) key, an isomorphism invariant, by which
    these tests group middle terms."""
    return Y.shifted, hom_battery(Y.module)


def test_xx1_a2_exchange(primes):
    q = a2_quiver()
    report = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), primes)
    assert report.verdict
    assert report.rhs == cc(projective_rep(q, 1), primes).value + parse("1", 2)
    sides = sorted(s.side for s in report.strata)
    assert sides == ["ext", "hom"]
    assert all(s.chi == 1 for s in report.strata)


def test_xx1_ext_stratum_middle_is_p1(primes):
    """The one extension of S1 by S2 on A2 has middle term P1, so the Ext
    side is the class of P1 with chi 1, and its value is cc(P1)."""
    q = a2_quiver()
    (stratum,) = stratify_ext_side(simple_rep(q, 1), simple_rep(q, 2), primes)
    assert (stratum.dim, stratum.shifted, stratum.chi) == ((1, 1), (0, 0), 1)
    assert stratum.value == cc(projective_rep(q, 1), primes).value


def test_xx1_rejects_projective_m(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError, match="no projective direct"):
        verify_xx1(simple_rep(q, 1), simple_rep(q, 2), primes)  # S2 = P2


def test_xx1_rejects_vanishing_ext(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError, match="the identity is vacuous"):
        verify_xx1(simple_rep(q, 1), simple_rep(q, 1), primes)


def test_ext_side_of_a_vanishing_ext_is_empty(primes):
    """Ext^1(S2, S1) = 0 on A2 over QQ and at every prime: no stratum."""
    q = a2_quiver()
    assert stratify_ext_side(simple_rep(q, 2), simple_rep(q, 1), primes) == []


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
    assert (ext[0].dim, ext[0].shifted) == ((1, 1), (0, 0))
    # every middle term is a regular R(1, t), whose characters agree
    assert ext[0].value == cc(kronecker_regular(1, 1), primes).value.scale(2)
    hom = [s for s in report.strata if s.side == "hom"]
    assert len(hom) == 1 and hom[0].chi == 2
    assert (hom[0].dim, hom[0].shifted) == ((0, 0), (1, 1))
    assert hom[0].value == parse("x1*x2", 2).scale(2)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_xx1_d4tilde_projective_by_i5_holds(primes, i):
    """D4-tilde xx1(P_i, I5) holds on the default primes.  Its Hom side has
    strata of one point at each prime, such as (1, -1) of
    P Hom(P1, tau I5)(F_23), whose characters are fitted from their GF(p)
    middle terms."""
    q = d4tilde_quiver()
    report = verify_xx1(projective_rep(q, i), injective_rep(q, 5), primes)
    assert report.verdict
    assert {s.side for s in report.strata} == {"ext", "hom"}


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


def test_unified_rejects_two_shifted_operands(primes):
    q = a2_quiver()
    with pytest.raises(PreconditionError, match="both operands shifted"):
        verify_unified(ClusterObject(zero_rep(q), (1, 0)),
                       ClusterObject(zero_rep(q), (0, 1)), primes)


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
    points share few memo keys, so a middle term is built once per
    distinct key at each prime, not once per point.  Kernel keys are read
    only at the few points where a vertex kernel of g or Dh leaves its
    pencil's common kernel, and at one point for all the others, which
    share its key.  tau^{-1} on maps runs as ar_translate_maps on the
    transposed basis maps once per prime, and never over QQ."""
    q = kronecker_quiver()
    keys, misses, translations = [], [], []
    key_of = multiplication._key_of_kernels
    middle = multiplication._hom_side_middle
    translate = multiplication.ar_translate_maps

    def recording_key(kernels, L):
        key = key_of(kernels, L)
        keys.append((L.field, key))
        return key

    def counting_middle(K, R, dim_c):
        misses.append(K.field)
        return middle(K, R, dim_c)

    def counting_translate(M, N, maps):
        translations.append(M.field)
        return translate(M, N, maps)

    monkeypatch.setattr(multiplication, "_key_of_kernels", recording_key)
    monkeypatch.setattr(multiplication, "_hom_side_middle", counting_middle)
    monkeypatch.setattr(multiplication, "ar_translate_maps",
                        counting_translate)
    strata = stratify_hom_side(projective_rep(q, 1), simple_rep(q, 1),
                               few_primes)
    assert sum(s.chi for s in strata) == 3
    # a keyed point reads the key of g, then that of the transpose of h
    distinct = set(zip(keys[::2], keys[1::2]))
    assert QQ not in misses
    assert len(misses) == len(distinct)
    points = sum(p * p + p + 1 for p in few_primes)
    assert 0 < len(keys) * 10 < 2 * points
    assert 0 < len(distinct) * 10 < points
    assert QQ not in translations
    assert sorted(f.p for f in translations) == sorted(few_primes)


def _walk(L, M, p):
    """(basis, walk) of _hom_walk on P Hom(L, tau M) at p, on the Hom
    basis over GF(p)."""
    T = artranslate.ar_translate(M)
    Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
    basis = hom_basis(Lp, Tp)
    return basis, _hom_walk(Lp, Tp, basis)


@pytest.mark.parametrize("L, M, per_prime", [
    (simple_rep(kronecker_quiver(), 2), simple_rep(kronecker_quiver(), 1), 1),
    (projective_rep(d4tilde_quiver(), 1), injective_rep(d4tilde_quiver(), 5),
     4),
], ids=["kronecker-hom(S2,S1)", "d4tilde-hom(P1,I5)"])
def test_hom_side_misses_per_prime(monkeypatch, few_primes, L, M,
                                   per_prime):
    """Points whose cokernels differ but whose tau^{-1} Coker g agree share
    one memo key: on Kronecker hom(S2, S1) all p + 1 points of each prime
    build at most one middle term, on D4-tilde hom(P1, I5) at most four.
    The walk of each prime counts every point of its projective space."""
    built = []
    monkeypatch.setattr(multiplication, "_hom_side_middle",
                        lambda *args: built.append(args)
                        or _hom_side_middle(*args))
    for p in few_primes:
        built.clear()
        basis, walk = _walk(L, M, p)
        assert 0 < len(built) <= per_prime
        assert sum(n for n, _ in walk.values()) == sum(
            1 for _ in subspaces(p, len(basis), 1))


@pytest.mark.parametrize("run", [
    lambda primes: verify_xx1(simple_rep(kronecker_quiver(), 2),
                              simple_rep(kronecker_quiver(), 1), primes),
    lambda primes: verify_xx2(projective_rep(kronecker_quiver(), 1),
                              injective_rep(kronecker_quiver(), 2), primes),
    lambda primes: stratify_hom_side(projective_rep(kronecker_quiver(), 1),
                                     simple_rep(kronecker_quiver(), 1),
                                     primes),
    lambda primes: verify_xx1(*reversed(d4tilde_tube_simples()), primes),
    lambda primes: verify_unified(*d4tilde_tube_simples(), primes),
], ids=["kronecker-xx1(S2,S1)", "kronecker-xx2(P1,I2)",
        "kronecker-hom(P1,S1)", "d4tilde-xx1(E2,E1)",
        "d4tilde-unified(E1,E2)"])
def test_hom_memo_does_not_merge_strata(monkeypatch, few_primes, run):
    """With the memo switched off, every point that reads kernel keys
    builds its own middle term, and the strata are the same.  The memo is
    switched off by kernel keys that never compare equal but still decode
    to K and R; the points where every vertex kernel is its pencil's
    common kernel still share the key of the one point keyed for them."""
    memoised = run(few_primes)
    key_of = multiplication._key_of_kernels

    class Unshared(tuple):
        __hash__ = object.__hash__

        def __eq__(self, other):
            return self is other

    monkeypatch.setattr(multiplication, "_key_of_kernels",
                        lambda kernels, L: Unshared(key_of(kernels, L)))
    assert run(few_primes) == memoised


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lines_cover_projective_space_once(d, p):
    """The lines of F_p^d, subspaces(p, d, 1), hold every point of
    P^{d-1}(F_p) exactly once, with first nonzero coordinate 1, and come
    in the order (position of that 1, coordinates), the order in which
    _hom_walk visits the points it keys."""
    points = [c for (c,) in subspaces(p, d, 1)]
    assert points == sorted(points, key=lambda c: (c.index(1), c))
    assert sorted(points) == sorted(
        c for c in product(range(p), repeat=d)
        if any(c) and next(x for x in c if x) == 1)


def _hom_buckets_and_pointwise(L, M, p):
    """The points of _hom_walk on P Hom(L, tau M) at p summed per bucket
    key of the middle terms of its memo keys, beside a Counter of the
    bucket keys of the middle terms of g = combine(basis, c) built point
    by point with kernel_rep, cokernel_rep and ar_inverse."""
    Lp, Tp = reduce_rep(L, p), reduce_rep(artranslate.ar_translate(M), p)
    basis, walk = _walk(L, M, p)
    buckets = Counter()
    for n, Y in walk.values():
        buckets[bucket_key(Y)] += n
    pointwise = Counter()
    for (c,) in subspaces(p, len(basis), 1):
        g = combine(basis, c)
        pointwise[bucket_key(hom_side_middle_term(
            kernel_rep(g, Lp, Tp), cokernel_rep(g, Lp, Tp)))] += 1
    return buckets, pointwise


@pytest.mark.parametrize("L, M", [
    (projective_rep(kronecker_quiver(), 1), simple_rep(kronecker_quiver(), 1)),
    (simple_rep(kronecker_quiver(), 2), simple_rep(kronecker_quiver(), 1)),
    (projective_rep(d4tilde_quiver(), 1), injective_rep(d4tilde_quiver(), 5)),
], ids=["kronecker-hom(P1,S1)", "kronecker-hom(S2,S1)", "d4tilde-(P1,I5)"])
def test_hom_line_keys_match_pointwise_maps(L, M):
    """At p = 5 the bucket sizes of the Hom-side walk of P Hom(L, tau M),
    which keys only the points where a vertex kernel leaves its pencil's
    common kernel and one point for the rest, are
    the counts of the bucket keys of the middle terms of
    g = combine(basis, c) built point by point with kernel_rep and
    cokernel_rep."""
    buckets, pointwise = _hom_buckets_and_pointwise(L, M, 5)
    assert buckets == pointwise


def test_hom_line_keys_match_pointwise_maps_at_23(monkeypatch):
    """At p = 23 on Kronecker hom(P1, tau S1), only the 24 points where a
    vertex kernel leaves its pencil's common kernel and one point for the
    others, which share its key, read kernel keys, and every bucket has its
    pointwise size."""
    q = kronecker_quiver()
    keyed = []
    key_of = multiplication._key_of_kernels
    monkeypatch.setattr(multiplication, "_key_of_kernels",
                        lambda kernels, L: keyed.append(L)
                        or key_of(kernels, L))
    buckets, pointwise = _hom_buckets_and_pointwise(
        projective_rep(q, 1), simple_rep(q, 1), 23)
    assert buckets == pointwise
    points = 23 * 23 + 23 + 1
    assert sum(pointwise.values()) == points
    # a keyed point reads the key of g and that of Dh
    assert len(keyed) == 2 * 25
    assert len(pointwise) > 1


@given(rep_pairs(max_arrows=3))
@settings(deadline=None)
def test_hom_memo_key_fixes_kernel_and_cokernel(case):
    """The K that a memo miss reads from its key is kernel_rep's K; its R,
    read from the key of the transposed tau^{-1} g, has the dimension,
    Hom battery and shifted part of ar_inverse(Coker g), so both give the
    same middle term class.  At most three arrows: on five parallel arrows
    tau^{-1} of a (3, 3) cokernel has dimension (12, 57), and its Hom
    battery alone takes seconds."""
    L, T, rng = case
    F = L.field
    zero = [Mat(F, t, l) for t, l in zip(T.dim, L.dim)]
    basis = hom_basis(L, T)
    g = combine([zero] + basis, [0] + [rng.randrange(F.p) for _ in basis])
    key = _kernel_key([m.data for m in g], L)
    K = _rep_of_key(key, L)
    _, Th, (h,) = tau_inverse_maps(L, T, [g])
    DTh = dual(Th)
    R = dual(_rep_of_key(_kernel_key([m.transpose().data for m in h], DTh),
                         DTh))
    K_ref, C = kernel_rep(g, L, T), cokernel_rep(g, L, T)
    inv = ar_inverse(C)
    dim_c = tuple(t - r for t, r in zip(T.dim, key[0]))
    assert K == K_ref
    assert dim_c == C.dim
    assert hom_battery(R) == hom_battery(inv.module)
    assert summand_multiplicities(L.quiver, R.dim, dim_c) == inv.shifted
    assert (bucket_key(_hom_side_middle(K, R, dim_c))
            == bucket_key(hom_side_middle_term(K_ref, C)))


def _denominator_23():
    """A Kronecker module of dimension (1, 1) that does not reduce mod 23."""
    return make_rep(kronecker_quiver(), (1, 1), [[[Fraction(1, 23)]], [[1]]])


def _hom_basis_denominator_37():
    """A base-changed Kronecker P1 and a (2, 2) module with integer entries
    whose rational Hom basis has the denominator 1221 = 3 * 11 * 37."""
    q = kronecker_quiver()
    return (make_rep(q, (1, 2), [[[-10], [-16]], [[-12], [19]]]),
            make_rep(q, (2, 2), [[[19, 8], [-12, -12]],
                                 [[-20, -20], [-7, -7]]]))


@pytest.mark.parametrize("run, p", [
    pytest.param(lambda M, S2, primes: verify_xx1(S2, M, primes), 23,
                 id="verify_xx1"),
    pytest.param(lambda M, S2, primes: stable_hom_dim(S2, M, primes), 23,
                 id="stable_hom_dim"),
    pytest.param(lambda M, S2, primes: stable_ext1_dim(M, S2, primes), 23,
                 id="stable_ext1_dim"),
    pytest.param(lambda M, S2, primes: stratify_ext_side(M, S2, primes), 23,
                 id="stratify_ext_side"),
])
def test_denominator_collision_is_a_configuration_error(primes, run, p):
    """Every reduction mod p goes through one guard: a prime that divides
    a denominator of an input matrix is refused with ConfigurationError,
    not a bare ZeroDivisionError."""
    assert p in primes
    with pytest.raises(ConfigurationError,
                       match=f"prime {p} collides with matrix denominators"):
        run(_denominator_23(), simple_rep(kronecker_quiver(), 2), primes)


def test_hom_basis_denominator_verifies(primes):
    """Each prime takes its own Hom basis, so a denominator of the rational
    Hom basis, here 1221 = 3 * 11 * 37, refuses no prime: xx2 holds on
    the defaults, 37 among them."""
    assert 37 in primes
    assert verify_xx2(*_hom_basis_denominator_37(), primes).verdict


@pytest.mark.parametrize("d", [0, 1])
def test_ext_side_refuses_a_prime_where_ext_jumps(primes, d):
    """R(1, 23) is R(1, 0) mod 23, so dim Ext^1(R(1, 0), L) is d over QQ
    and d + 1 mod 23; the one rank per prime refuses 23 before any point,
    with d = 0 too."""
    L = kronecker_regular(1, 23)
    if d:
        L = direct_sum(kronecker_regular(1, 0), L)
    others = [p for p in primes if p != 23]
    assert 23 in primes and len(others) == len(primes) - 1
    assert stable_ext1_dim(kronecker_regular(1, 0), L, others) == d
    with pytest.raises(PrimeInstabilityError, match="degenerate mod 23"):
        stratify_ext_side(kronecker_regular(1, 0), L, primes)


@pytest.mark.parametrize("d", [0, 1])
def test_hom_side_refuses_a_prime_where_hom_jumps(primes, d):
    """R(1, 23) is R(1, 0) mod 23, so dim Hom(L, tau M) is d over QQ and
    d + 1 mod 23; the Hom side refuses 23 before any point, with d = 0
    too."""
    L, M = kronecker_regular(1, 0), kronecker_regular(1, 23)
    if d:
        L = direct_sum(L, kronecker_regular(1, 1))
        M = direct_sum(M, kronecker_regular(1, 1))
    tau = artranslate.ar_translate(M)
    others = [p for p in primes if p != 23]
    assert 23 in primes and len(others) == len(primes) - 1
    assert len(hom_basis(L, tau)) == stable_hom_dim(L, tau, others) == d
    assert stable_hom_dim(L, tau, [23]) == d + 1
    with pytest.raises(PrimeInstabilityError):
        stratify_hom_side(L, M, primes)


@pytest.mark.parametrize("run, need", [
    (lambda P1, I2, primes: verify_xx1(P1, I2, primes), 5),
    (lambda P1, I2, primes: stratify_ext_side(I2, P1, primes), 4),
    (lambda P1, I2, primes: stratify_hom_side(P1, I2, primes), 5),
], ids=["verify_xx1", "stratify_ext_side", "stratify_hom_side"])
def test_strata_refuse_too_few_primes_before_any_point(monkeypatch, run,
                                                       need):
    """Kronecker (P1, I2) has d = 4.  A Hom-side stratum's fit has degree
    bound 3 and needs 5 primes.  P1 and I2 are rigid, so on the Ext side
    the tangent bound of e <= dim R is <e, dim R - e>; it drops
    e_M = (1, 0) of I2, whose socle is S2, and the largest pair bound is
    <(0, 1), (1, 1)> + <(1, 1), (1, 0)> = 1 + 1 = 2, so it needs 4.
    verify_xx1 runs the Hom side first.  3 primes are refused before a
    point of the Hom side is keyed and before a subrepresentation is
    listed."""
    keyed, listed = [], []
    walk, subreps = multiplication._hom_walk, multiplication.subreps
    monkeypatch.setattr(multiplication, "_hom_walk",
                        lambda *args: keyed.append(args) or walk(*args))
    monkeypatch.setattr(multiplication, "subreps",
                        lambda M, e, *tables: listed.append(e)
                        or subreps(M, e, *tables))
    q = kronecker_quiver()
    with pytest.raises(ConfigurationError,
                       match=f"need at least {need} primes, have 3"):
        run(projective_rep(q, 1), injective_rep(q, 2), (101, 103, 107))
    assert keyed == [] and listed == []


@pytest.mark.parametrize("M", [
    projective_rep(kronecker_quiver(), 1),
    direct_sum(projective_rep(kronecker_quiver(), 1),
               simple_rep(kronecker_quiver(), 1)),
], ids=["P1", "P1+S1"])
def test_xx1_names_a_projective_summand_of_m(monkeypatch, primes, M):
    """A projective M, or one with a projective summand beside others, is
    refused with one message before any Ext^1 dimension is computed."""
    monkeypatch.setattr(multiplication, "stable_ext1_dim", None)
    with pytest.raises(PreconditionError, match="second argument must have "
                       "no projective direct summands"):
        verify_xx1(simple_rep(kronecker_quiver(), 2), M, primes)


def test_repeated_verify_gives_equal_reports(few_primes):
    """The per-prime memo leaves nothing behind between calls."""
    q = kronecker_quiver()
    first = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), few_primes)
    second = verify_xx1(simple_rep(q, 2), simple_rep(q, 1), few_primes)
    assert first == second
    assert first.verdict
