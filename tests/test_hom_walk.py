"""The Hom-side walk, which keys only the points where some vertex kernel
leaves the common kernel of its pencil and one point for the rest, against
a walk that keys P Hom point by point."""

import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from strategies import base_changed, hom_battery, tau_inverse_maps

from cclab import multiplication
from cclab.artranslate import ar_translate, has_projective_summand
from cclab.character import cc
from cclab.config import default_primes
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.errors import ConfigurationError
from cclab.grassmannian import subspaces
from cclab.linalg import GF, _nullspace, _rank_mod
from cclab.multiplication import (_hom_side_middle, _hom_walk, _kernel_jumps,
                                  stratify_hom_side, verify_xx1)
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver)
from cclab.reps import (ClusterObject, _kernel_key, _rep_of_key, combine,
                        direct_sum, dual, hom_basis, hom_dim,
                        injective_rep, make_rep, projective_rep, reduce_rep,
                        simple_rep, standard_module)


def pointwise_walk(Lp, Tp, basis) -> dict:
    """_hom_walk's {memo key: [points, middle term]} from every point of
    P Hom(Lp, Tp)(F_p) in the order of subspaces(p, d, 1): where each
    vertex map of g and of Dh has full column rank the point takes the key
    of K = R = 0, elsewhere it reads the _kernel_key of g and of Dh; a key
    seen first builds the middle term."""
    p = Lp.field.p
    _, Th, images = tau_inverse_maps(Lp, Tp, basis)
    DTh = dual(Th)
    arrows = ((),) * len(Lp.quiver.arrows)
    injective_key = ((tuple(Lp.dim), arrows), (tuple(DTh.dim), arrows))
    walk = {}
    for (c,) in subspaces(p, len(basis), 1):
        g = [m.data for m in combine(basis, c)]
        Dh = [m.transpose().data for m in combine(images, c)]
        if all(_rank_mod(A, cols, p) == cols
               for A, cols in zip(g + Dh, Lp.dim + DTh.dim)):
            mk = injective_key
        else:
            mk = (_kernel_key(g, Lp), _kernel_key(Dh, DTh))
        if mk not in walk:
            dim_c = tuple(a - r for a, r in zip(Tp.dim, mk[0][0]))
            walk[mk] = [0, _hom_side_middle(
                _rep_of_key(mk[0], Lp), dual(_rep_of_key(mk[1], DTh)),
                dim_c)]
        walk[mk][0] += 1
    return walk


def stock_hom_sides():
    """(label, L, T) for the walked Hom sides on stock modules of A2, A3,
    Kronecker and D4-tilde, each isomorphism class once, of the pairs of
    total dimension at most 6 and with Hom(L, T) nonzero: P Hom(L, tau M)
    of xx1(L, M), M without a projective summand, and P Hom(M, I_i) of
    xx2(P_i, M)."""
    a3, qd = a3_quiver(), d4tilde_quiver()
    quivers = {"a2": (a2_quiver(), {}),
               "a3": (a3, {"I" + "".join(map(str, m.dim)): m
                           for m in all_interval_modules(a3)}),
               "kronecker": (kronecker_quiver(),
                             {"R11": kronecker_regular(1, 1)}),
               "d4t": (qd, dict(zip(("E1", "E2"), d4tilde_tube_simples())))}
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
            if (sum(L.dim) + sum(M.dim) <= 6
                    and not has_projective_summand(M)):
                out.append((f"{name}.xx1({a},{b})", L, ar_translate(M)))
        for i, (b, M) in product(range(q.n), mods.items()):
            P = standard_module(q, "projective", i + 1)
            if sum(P.dim) + sum(M.dim) <= 6:
                out.append((f"{name}.xx2(P{i + 1},{b})", M,
                            standard_module(q, "injective", i + 1)))
    return [side for side in out if hom_dim(*side[1:])]


STOCK = stock_hom_sides()
# D4-tilde P Hom(P_i, tau I5), i = 1..4, of pairs of total dimension 7
D4T_SIDES = [(f"d4t.xx1(P{i},I5)", projective_rep(d4tilde_quiver(), i),
              ar_translate(injective_rep(d4tilde_quiver(), 5)))
             for i in range(1, 5)]
WALKED = STOCK + D4T_SIDES


def _both_walks(L, T, p):
    Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
    basis = hom_basis(Lp, Tp)
    return _hom_walk(Lp, Tp, basis), pointwise_walk(Lp, Tp, basis)


@pytest.mark.parametrize("label, L, T", WALKED,
                         ids=[label for label, *_ in WALKED])
def test_walk_matches_pointwise_on_stock_sides(label, L, T):
    """At p = 2, 3 and 5, every memo key has the count and the middle term
    of the point-by-point walk, whose keys come in the same order."""
    for p in (2, 3, 5):
        walk, pointwise = _both_walks(L, T, p)
        assert list(walk.items()) == list(pointwise.items())


@pytest.mark.parametrize("label, L, T", WALKED,
                         ids=[label for label, *_ in WALKED])
def test_walk_matches_pointwise_after_base_change(label, L, T):
    """The same at p = 3 on both modules moved by unimodular base changes
    of seeds 1 and 2, whose matrices are no longer the stock 0/1 ones."""
    for seed in (1, 2):
        rng = random.Random(seed)
        walk, pointwise = _both_walks(base_changed(L, rng),
                                      base_changed(T, rng), 3)
        assert list(walk.items()) == list(pointwise.items())


@st.composite
def small_hom_sides(draw):
    """(Lp, Tp, basis): two random representations of A2, A3 or Kronecker
    over GF(p), p in {2, 3, 5}, dimension vectors <= 2, and the basis of
    Hom(Lp, Tp) over GF(p), which is nonzero and spans at most 200 points
    of P Hom."""
    q = draw(st.sampled_from([a2_quiver(), a3_quiver(), kronecker_quiver()]))
    F = GF(draw(st.sampled_from([2, 3, 5])))
    entry = st.integers(0, F.p - 1)

    def rep():
        dim = draw(st.tuples(*[st.integers(0, 2)] * q.n))
        return make_rep(q, dim, [[[draw(entry) for _ in range(dim[s - 1])]
                                  for _ in range(dim[t - 1])]
                                 for s, t in q.arrows], F)
    Lp, Tp = rep(), rep()
    basis = hom_basis(Lp, Tp)
    assume(basis and (F.p ** len(basis) - 1) // (F.p - 1) <= 200)
    return Lp, Tp, basis


def _side_mod(p, L, T):
    """(Lp, Tp, basis) of Hom(L, T) reduced mod p."""
    Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
    return Lp, Tp, hom_basis(Lp, Tp)


def _simples(q):
    """S1 + ... + Sn of q, with zero arrow maps."""
    return direct_sum(*[simple_rep(q, i) for i in range(1, q.n + 1)])


# sides that reach each branch of the walk (test_fuzz_examples_reach): d = 1,
# where no jump set is read; End(S1 + S2) of Kronecker at p = 2, whose two
# pencils of g jump at 2 of the 3 points, so that those of Dh are not read;
# End(S1 + S2) of A2 at p = 3, where pencils of g and of Dh jump together
FUZZ_EXAMPLES = {
    "d=1": _side_mod(3, simple_rep(a2_quiver(), 1),
                     simple_rep(a2_quiver(), 1)),
    "early stop": _side_mod(2, _simples(kronecker_quiver()),
                            _simples(kronecker_quiver())),
    "g and Dh jump": _side_mod(3, _simples(a2_quiver()),
                               _simples(a2_quiver())),
}


@given(small_hom_sides())
@example(FUZZ_EXAMPLES["d=1"])
@example(FUZZ_EXAMPLES["early stop"])
@example(FUZZ_EXAMPLES["g and Dh jump"])
@settings(deadline=None, max_examples=200)
def test_walk_matches_pointwise_on_random_sides(side):
    """On random small Hom sides the walk has the items of the
    point-by-point walk, in its order: each memo key with its count and
    its middle term."""
    walk, pointwise = _hom_walk(*side), pointwise_walk(*side)
    assert list(walk.items()) == list(pointwise.items())


def test_fuzz_examples_reach(monkeypatch):
    """The explicit examples of the random-side test each reach their
    branch: no jump set read when d = 1; with d = 2, fewer jump sets than
    pencils; a point in a jump set of g and in one of Dh."""
    reads = []
    kernel_jumps = multiplication._kernel_jumps
    monkeypatch.setattr(multiplication, "_kernel_jumps",
                        lambda *args: reads.append(kernel_jumps(*args))
                        or reads[-1])

    def jump_sets(side):
        reads.clear()
        _hom_walk(*side)
        return [jumps for jumps, _ in reads]
    assert jump_sets(FUZZ_EXAMPLES["d=1"]) == []
    Lp, _, basis = FUZZ_EXAMPLES["early stop"]
    assert len(basis) == 2
    assert 0 < len(jump_sets(FUZZ_EXAMPLES["early stop"])) < 2 * Lp.quiver.n
    Lp, _, _ = FUZZ_EXAMPLES["g and Dh jump"]
    n, sets = Lp.quiver.n, jump_sets(FUZZ_EXAMPLES["g and Dh jump"])
    assert len(sets) == 2 * n
    assert set().union(*sets[:n]) & set().union(*sets[n:])


# (label, L, T, points keyed a prime p) of Hom sides with few keyed points
KEYED = [(f"kronecker.xx1(P1,{name})", projective_rep(kronecker_quiver(), 1),
          ar_translate(M), lambda p: p + 2)
         for name, M in (("S1", simple_rep(kronecker_quiver(), 1)),
                         ("I2", injective_rep(kronecker_quiver(), 2)))] + [
    (label, L, T, lambda p: 4) for label, L, T in D4T_SIDES]


@pytest.mark.parametrize("label, L, T, points", KEYED,
                         ids=[label for label, *_ in KEYED])
def test_walk_keys_few_points(monkeypatch, label, L, T, points):
    """The walk reads kernel keys at exactly points(p) points of each
    default prime, two keys a point: g and Dh, and counts every point.
    Kronecker P Hom(P1, tau S1) and P Hom(P1, tau I2), of dimension 3 and
    4, key p + 2: p + 1 points move a vertex kernel off its pencil's
    common kernel, and one more stands for the others.  D4-tilde
    P Hom(P_i, tau I5), of dimension 2, keys 4: one vertex pencil of Dh
    has no rows, so each point has a kernel there, yet only 3 points of
    each P^1(F_p) move a vertex kernel."""
    keyed = []
    key_of = multiplication._key_of_kernels
    monkeypatch.setattr(multiplication, "_key_of_kernels",
                        lambda kernels, R: keyed.append(R)
                        or key_of(kernels, R))
    for p in default_primes():
        keyed.clear()
        Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
        basis = hom_basis(Lp, Tp)
        walk = _hom_walk(Lp, Tp, basis)
        assert len(keyed) == 2 * points(p)
        assert sum(n for n, _ in walk.values()) == (
            p ** len(basis) - 1) // (p - 1)


def _point_kernels(monkeypatch, side) -> list:
    """The number of vertex kernels _hom_walk takes at each point it keys:
    the _nullspace calls made outside _kernel_jumps between the key reads
    of one point (g, then Dh) and those of the point before."""
    counts, inside = [0], []
    nullspace = multiplication._nullspace
    kernel_jumps = multiplication._kernel_jumps
    key_of = multiplication._key_of_kernels

    def counting_nullspace(*args):
        counts[-1] += not inside
        return nullspace(*args)

    def jumps(*args):
        inside.append(1)
        try:
            return kernel_jumps(*args)
        finally:
            inside.pop()

    def reading_key(kernels, R):
        counts.append(0)
        return key_of(kernels, R)
    monkeypatch.setattr(multiplication, "_nullspace", counting_nullspace)
    monkeypatch.setattr(multiplication, "_kernel_jumps", jumps)
    monkeypatch.setattr(multiplication, "_key_of_kernels", reading_key)
    _hom_walk(*side)
    # counts[2k] precedes the key of g at point k, counts[2k + 1] that of Dh
    return [a + b for a, b in zip(counts[0:-1:2], counts[1:-1:2])]


def test_walk_takes_kernels_only_where_a_pencil_jumps(monkeypatch):
    """At each point it keys, the walk takes a vertex kernel only for a
    pencil whose jump set holds the point or was not read.  Kronecker
    P Hom(P1, tau S1) takes one at each of the p + 1 points of N, where
    the vertex-2 pencil of g jumps, and none at the point that stands for
    the rest; a side with d = 1 reads no jump set and takes all 2n."""
    q = kronecker_quiver()
    L, T = projective_rep(q, 1), ar_translate(simple_rep(q, 1))
    for p in (2, 3, 5, 23):
        Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
        taken = _point_kernels(monkeypatch, (Lp, Tp, hom_basis(Lp, Tp)))
        assert sorted(taken) == [0] + [1] * (p + 1)
    Lp, Tp, basis = FUZZ_EXAMPLES["d=1"]
    assert len(basis) == 1
    assert _point_kernels(monkeypatch, FUZZ_EXAMPLES["d=1"]) == [
        2 * Lp.quiver.n]


def test_pointwise_pencils_at_default_primes(monkeypatch):
    """Kronecker xx1(P1, R(1, 0) (+) R(1, 1)) holds on the default primes,
    and its Hom side has vertex pencils with cols >= d >= 2 and full
    stacked rank, which _kernel_jumps ranks point by point."""
    q = kronecker_quiver()
    ranked = []
    kernel_jumps = multiplication._kernel_jumps

    def spy(parts, cols, p):
        if cols >= len(parts) >= 2 and len(parts[0]) >= cols and _rank_mod(
                [row for A in parts for row in A], cols, p) == cols:
            ranked.append(p)
        return kernel_jumps(parts, cols, p)
    monkeypatch.setattr(multiplication, "_kernel_jumps", spy)
    M = direct_sum(kronecker_regular(1, 0), kronecker_regular(1, 1))
    assert verify_xx1(projective_rep(q, 1), M, default_primes()).verdict
    assert ranked


def _split_and_band():
    """A = R(1, 0) (+) R(1, 1) and B = R_0[2] on Kronecker, arrows
    (I, [[0, 0], [1, 0]]): one Hom battery, but Gr_(1,1) holds the two
    eigenlines of A and the one of B."""
    q = kronecker_quiver()
    return (direct_sum(kronecker_regular(1, 0), kronecker_regular(1, 1)),
            make_rep(q, (2, 2), [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]))


def _walk_of_split_and_band(Lp, Tp, basis):
    """A _hom_walk stand-in for P^1(F_p): p points of A and one of B, as
    two memo keys of the class (shifted 0, dim (2, 2))."""
    p = Lp.field.p
    A, B = _split_and_band()
    return {"A": [p, ClusterObject(reduce_rep(A, p), (0, 0))],
            "B": [1, ClusterObject(reduce_rep(B, p), (0, 0))]}


def test_class_sums_members_that_share_a_fingerprint(monkeypatch):
    """On P Hom(S2, tau S1) of Kronecker, of dimension 2, a class whose
    members A and B share a Hom battery but not a character is one
    stratum of chi 2 and value X_A + X_B: each member's points weight its
    own Grassmannian counts.  One member standing for a Hom battery class
    would give 2 X_A."""
    q, primes = kronecker_quiver(), default_primes()
    A, B = _split_and_band()
    assert hom_battery(A) == hom_battery(B)
    assert cc(A, primes).value != cc(B, primes).value
    monkeypatch.setattr(multiplication, "_hom_walk", _walk_of_split_and_band)
    (stratum,) = stratify_hom_side(simple_rep(q, 2), simple_rep(q, 1),
                                   primes)
    assert (stratum.dim, stratum.shifted, stratum.chi) == ((2, 2), (0, 0), 2)
    assert stratum.value == cc(A, primes).value + cc(B, primes).value


def test_class_bound_refuses_too_few_primes_before_any_count(monkeypatch):
    """With d = 2 the points fit within 1 and need 3 primes, but the class
    of dim (2, 2) counts Gr_(1,1) within 1 + 2 and needs 5: 4 primes are
    refused before any Grassmannian count."""
    q, counted = kronecker_quiver(), []
    count = multiplication._count_subreps
    monkeypatch.setattr(multiplication, "_hom_walk", _walk_of_split_and_band)
    monkeypatch.setattr(multiplication, "_count_subreps",
                        lambda *args: counted.append(args) or count(*args))
    with pytest.raises(ConfigurationError,
                       match="need at least 5 primes, have 4"):
        stratify_hom_side(simple_rep(q, 2), simple_rep(q, 1),
                          default_primes()[:4])
    assert counted == []


@st.composite
def pencils(draw):
    """(parts, cols, p): d <= 4 int-row matrices A_k over GF(p), p in
    {2, 3, 5, 7}, of one shape rows x cols, rows and cols <= 3 and either
    may be 0.  In some, every A_k has its last column the same combination
    of its others, so that the A_k share a kernel vector."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d, rows, cols = (draw(st.integers(1, 4)), draw(st.integers(0, 3)),
                     draw(st.integers(0, 3)))
    entry = st.integers(0, p - 1)
    parts = [[[draw(entry) for _ in range(cols)] for _ in range(rows)]
             for _ in range(d)]
    if cols and draw(st.booleans()):
        lam = [draw(entry) for _ in range(cols - 1)]
        for row in (row for A in parts for row in A):
            row[-1] = sum(x * y for x, y in zip(lam, row)) % p
    return parts, cols, p


@given(pencils())
@settings(deadline=None, max_examples=300)
def test_kernel_jumps_match_rank_at_every_point(case):
    """_kernel_jumps holds the points c of P^{d-1}(F_p) where
    sum_k c_k A_k has rank below the rank of the stacked A_k, ranked one
    point at a time: there its kernel is larger than their common one.
    Its common kernel is the _nullspace of the stacked A_k, and of
    sum_k c_k A_k at every other point."""
    parts, cols, p = case
    rows = len(parts[0])
    stacked = [row for A in parts for row in A]
    rank = _rank_mod(stacked, cols, p)
    at = {c: [[sum(x * A[r][j] for x, A in zip(c, parts)) % p
               for j in range(cols)] for r in range(rows)]
          for (c,) in subspaces(p, len(parts), 1)}
    jumps, common = _kernel_jumps(parts, cols, p)
    assert jumps == {c for c, A in at.items() if _rank_mod(A, cols, p) < rank}
    assert common == _nullspace(stacked, cols, p)
    assert all(_nullspace(A, cols, p) == common
               for c, A in at.items() if c not in jumps)
