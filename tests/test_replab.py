"""Representation lab: standard modules, Hom/Ext, extensions, AR translate."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (acyclic_quivers, hom_battery, rep_pairs,
                        tau_inverse_maps)

from cclab.artranslate import (ar_inverse, ar_translate,
                               ar_translate_unchecked, has_projective_summand,
                               summand_multiplicities)
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          interval_module, kronecker_regular)
from cclab.errors import InputError, PreconditionError, PrimeInstabilityError
from cclab.linalg import GF, Mat, QQ
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver, euler_form,
                          kronecker_quiver, validate_quiver)
from cclab.reps import (ExtCocycle, Representation,
                        _has_invertible_combination,
                        _standard_battery, all_paths, cluster_object, cokernel_rep, combine, direct_sum,
                        direct_sum_many,
                        ext1_basis, ext1_dim, hom_basis, hom_dim,
                        injective_rep, is_isomorphic, kernel_rep, make_rep,
                        middle_term,
                        projective_rep, reduce_rep, simple_rep,
                        stable_ext1_dim, stable_hom_dim, standard_module,
                        standard_sum, zero_rep)


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


def _chopped_injective(q, i):
    """Reference I_i with path basis, (I_i)_j = span of paths j -> i, on
    which an arrow acts by chopping itself off the front of a path."""
    paths = all_paths(q)
    dim = tuple(len(paths[(j, i)]) for j in range(1, q.n + 1))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        m = Mat(QQ, dim[t - 1], dim[s - 1])
        for col, p in enumerate(paths[(s, i)]):
            if p and p[0] == a:
                m.data[paths[(t, i)].index(p[1:])][col] = QQ.one
        mats.append(m)
    return Representation(q, QQ, dim, mats)


@pytest.mark.parametrize("q", [
    a2_quiver(), a3_quiver(), kronecker_quiver(), d4tilde_quiver(),
    validate_quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
], ids=["a2", "a3", "kronecker", "d4tilde", "a5"])
def test_injective_is_chopped_paths_on_stock_quivers(q):
    """I_i = D P_i of the opposite quiver has the matrices of the
    path-chopping construction on the stock quivers."""
    for i in range(1, q.n + 1):
        assert injective_rep(q, i) == _chopped_injective(q, i)


@given(acyclic_quivers())
@settings(deadline=None)
def test_injective_is_chopped_paths_up_to_isomorphism(q):
    """With several paths between two vertices the dual basis may come in
    another order, but the module is the same up to isomorphism."""
    for i in range(1, q.n + 1):
        new, ref = injective_rep(q, i), _chopped_injective(q, i)
        assert new.dim == ref.dim and is_isomorphic(new, ref)


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


def test_middle_term_refuses_a_misshapen_component():
    """The component at 1 -> 2 of a cocycle of (S1, S2) is 1 x 1."""
    q = a2_quiver()
    cocycle = ExtCocycle(simple_rep(q, 1), simple_rep(q, 2), [Mat(QQ, 2, 1)])
    with pytest.raises(InputError, match="cocycle component shape mismatch"):
        middle_term(cocycle)


def test_make_rep_refuses_a_mat_of_the_wrong_shape():
    with pytest.raises(InputError, match="matrix shape mismatch at arrow 0"):
        make_rep(a2_quiver(), (1, 1), [Mat(QQ, 1, 2)])


@pytest.mark.parametrize("kind, i, message", [
    ("simple", 0, "vertex 0 out of range"),
    ("regular", 1, "unknown standard module kind: regular")],
    ids=["vertex 0", "unknown kind"])
def test_standard_module_refuses_bad_arguments(kind, i, message):
    with pytest.raises(InputError, match=message):
        standard_module(a2_quiver(), kind, i)


def test_direct_sum_refuses_two_quivers():
    with pytest.raises(InputError, match="incompatible representations"):
        direct_sum(simple_rep(a2_quiver(), 1),
                   simple_rep(kronecker_quiver(), 1))


@pytest.mark.parametrize("build, args, message", [
    (interval_module, (kronecker_quiver(), 1, 2), "linearly oriented A_n"),
    (interval_module, (a3_quiver(), 2, 1), "bad interval"),
    (interval_module, (a3_quiver(), 0, 1), "bad interval"),
    (kronecker_regular, (0, 0), "cannot both vanish")],
    ids=["non-linear quiver", "reversed interval", "vertex 0", "zero scalars"])
def test_corpus_refuses_bad_parameters(build, args, message):
    with pytest.raises(InputError, match=message):
        build(*args)


def test_euler_identity_on_corpus():
    for M, N in corpus_pairs():
        got = hom_dim(M, N) - ext1_dim(M, N)
        assert got == euler_form(M.quiver, M.dim, N.dim)


def test_prime_stability_guards(primes):
    assert len(primes) >= 4
    for M, N in corpus_pairs():
        assert stable_hom_dim(M, N, primes) == hom_dim(M, N)
        assert stable_ext1_dim(M, N, primes) == ext1_dim(M, N)


# -- kernels and cokernels -------------------------------------------------

def check_kernel_cokernel(f, M, N):
    """The defining properties of K = kernel_rep and C = cokernel_rep at
    f: M -> N, with i_v the nullspace basis of f_v and pi_v the transpose
    of that of f_v^T: i and pi intertwine, f i = 0 and pi f = 0, each i_v
    is injective with dim K_v the nullity of f_v, and each pi_v is
    surjective with dim C_v = dim N_v - rank f_v."""
    K, C = kernel_rep(f, M, N), cokernel_rep(f, M, N)
    inc = [fv.nullspace() for fv in f]
    proj = [fv.transpose().nullspace().transpose() for fv in f]
    assert K.quiver == C.quiver == M.quiver
    for a, (s, t) in enumerate(M.quiver.arrows):
        assert M.matrices[a].mul(inc[s - 1]) == inc[t - 1].mul(K.matrices[a])
        assert proj[t - 1].mul(N.matrices[a]) == C.matrices[a].mul(
            proj[s - 1])
    for v, fv in enumerate(f):
        rank = fv.rank()
        assert (inc[v].rows, inc[v].cols) == (M.dim[v], K.dim[v])
        assert (proj[v].rows, proj[v].cols) == (C.dim[v], N.dim[v])
        assert fv.mul(inc[v]).is_zero() and proj[v].mul(fv).is_zero()
        assert inc[v].rank() == K.dim[v] == M.dim[v] - rank
        assert proj[v].rank() == C.dim[v] == N.dim[v] - rank


@given(rep_pairs(), st.booleans())
@settings(deadline=None)
def test_kernel_and_cokernel_properties(case, rational):
    """On a random f in Hom(L, T), zero included, over GF(p) or over QQ
    with the same integer entries."""
    L, T, rng = case
    p = L.field.p
    if rational:
        L, T = (make_rep(M.quiver, M.dim, [m.data for m in M.matrices])
                for M in (L, T))
    zero = [Mat(L.field, t, l) for t, l in zip(T.dim, L.dim)]
    basis = hom_basis(L, T)
    check_kernel_cokernel(combine([zero] + basis, [0] + [
        rng.randrange(p) for _ in basis]), L, T)


@pytest.mark.parametrize("M, N, coeffs", [
    (projective_rep(kronecker_quiver(), 2), projective_rep(
        kronecker_quiver(), 1), (1, 2)),
    (projective_rep(kronecker_quiver(), 1), ar_translate(
        simple_rep(kronecker_quiver(), 1)), (1, -1, Fraction(1, 2))),
    (projective_rep(a3_quiver(), 2), injective_rep(a3_quiver(), 2), (3,)),
    (projective_rep(d4tilde_quiver(), 1), injective_rep(d4tilde_quiver(), 5),
     (2,)),
    (direct_sum(kronecker_regular(1, 1), kronecker_regular(1, 1)),
     direct_sum(kronecker_regular(1, 1), kronecker_regular(1, 2)), (1, -1)),
    (kronecker_regular(1, 1), kronecker_regular(1, 1), (0,)),
], ids=["kronecker-P2-P1", "kronecker-P1-tauS1", "a3-P2-I2",
        "d4tilde-P1-I5", "kronecker-R11^2-R11+R12", "kronecker-zero"])
def test_kernel_and_cokernel_rational(M, N, coeffs):
    check_kernel_cokernel(combine(hom_basis(M, N), coeffs), M, N)


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
    assert hom_battery(split) == hom_battery(band)
    assert not is_isomorphic(split, band)
    assert not is_isomorphic(band, split)


def test_iso_finds_isomorphism_with_small_coefficients():
    """X = tau^{-1}(S1 + S1) on four parallel arrows 2 -> 1 has dimension
    (30, 8) and End X = M_2(k): no basis map of End X is invertible, and
    the first invertible grid point, (0, 1, 1, 0), has max coordinate 1.
    Walked lexicographically from 0 it is point 1,561 of the grid."""
    q = validate_quiver(2, [(2, 1)] * 4)
    S1 = simple_rep(q, 1)
    X = reduce_rep(ar_inverse(direct_sum(S1, S1)).module, 41)
    assert X.dim == (30, 8)
    start = time.process_time()
    assert is_isomorphic(X, X)
    assert time.process_time() - start < 1.0


def test_battery_cache_is_bounded_and_transparent():
    q = kronecker_quiver()

    def sums(field=QQ):
        return [standard_sum(q, kind, (1, 2), field)
                for kind in ("projective", "injective")]
    cold = sums()
    assert sums() == cold
    _standard_battery.cache_clear()
    assert sums() == cold
    bound = _standard_battery.cache_info().maxsize
    primes = [p for p in range(2, 1000)
              if all(p % k for k in range(2, p))][:bound + 5]
    for p in primes:
        assert sums(GF(p)) == [reduce_rep(M, p) for M in cold]
        assert _standard_battery.cache_info().currsize <= bound
    assert _standard_battery.cache_info().currsize == bound
    assert sums() == cold


def test_stable_hom_dim_refuses_a_jump():
    """M = (k --2--> k) on A2 is P1 over QQ and S1 + S2 mod 2, so End M
    has dimension 1 at 3 and 5 and 2 at 2."""
    M = make_rep(a2_quiver(), (1, 1), [[[2]]])
    assert stable_hom_dim(M, M, [3, 5]) == 1
    with pytest.raises(PrimeInstabilityError,
                       match="Hom dimension varies with prime"):
        stable_hom_dim(M, M, [2, 3])


def test_iso_rejects_on_hom_dimension_before_grid():
    # k = dim Hom(M, N) = 9: a grid search alone takes 10^9 rank tests
    r = kronecker_regular(1, 1)
    M = direct_sum_many(r.quiver, [r, r, r, kronecker_regular(1, 2)])
    N = direct_sum_many(r.quiver, [r, r, kronecker_band()])
    assert hom_battery(M) == hom_battery(N)
    assert (len(hom_basis(M, N)), hom_dim(M, M)) == (9, 10)
    start = time.perf_counter()
    assert not is_isomorphic(M, N)
    assert time.perf_counter() - start < 1.0


def _iso_grid_escapes():
    """Non-isomorphic pairs whose grid {0..6}^k would take millions of
    rank tests: P1^3 and (S1 + S2)^3 on A2, where dim Hom(M, N) =
    dim End M = 9 but dim End N = 18; and ([1,2] + [3])^2 and
    ([1] + [2,3])^2 on A3, where all three are 8 and only the tops and
    socles differ."""
    q2, q3 = a2_quiver(), a3_quiver()
    iv = {m.dim: m for m in all_interval_modules(q3)}
    return [
        (direct_sum_many(q2, [projective_rep(q2, 1)] * 3),
         direct_sum_many(q2, [simple_rep(q2, 1), simple_rep(q2, 2)] * 3),
         (9, 9, 18)),
        (direct_sum_many(q3, [iv[(1, 1, 0)], iv[(0, 0, 1)]] * 2),
         direct_sum_many(q3, [iv[(1, 0, 0)], iv[(0, 1, 1)]] * 2),
         (8, 8, 8))]


@pytest.mark.parametrize("M,N,homs", _iso_grid_escapes())
def test_iso_rejects_before_grid_in_both_orders(M, N, homs):
    assert M.dim == N.dim
    assert (len(hom_basis(M, N)), hom_dim(M, M), hom_dim(N, N)) == homs
    start = time.perf_counter()
    assert not is_isomorphic(M, N)
    assert not is_isomorphic(N, M)
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


# -- summand multiplicities ------------------------------------------------

def _a2_split_case(kind):
    q = a2_quiver()
    if kind == "projective":
        return direct_sum(projective_rep(q, 1), simple_rep(q, 1))
    return direct_sum(injective_rep(q, 2), simple_rep(q, 2))


def _kronecker_split_case(kind):
    qk = kronecker_quiver()
    S = standard_module(qk, kind, 1 if kind == "projective" else 2)
    return direct_sum_many(qk, [S, S, kronecker_regular(1, 1)])


# On A2, P1 = I2, S1 = I1 and S2 = P2, so the A2 cases have summands of
# both kinds.
@pytest.mark.parametrize("kind, build, proj, inj, rest", [
    ("projective", _a2_split_case, (1, 0), (1, 1),
     simple_rep(a2_quiver(), 1)),
    ("injective", _a2_split_case, (1, 1), (0, 1),
     simple_rep(a2_quiver(), 2)),
    ("projective", _kronecker_split_case, (2, 0), (0, 0),
     kronecker_regular(1, 1)),
    ("injective", _kronecker_split_case, (0, 0), (0, 2),
     kronecker_regular(1, 1)),
], ids=["projective-a2", "injective-a2", "projective-kronecker-x2",
        "injective-kronecker-x2"])
def test_summand_multiplicities(kind, build, proj, inj, rest):
    """Both Euler-form readings: <dim M, e_i> + <e_i, dim tau M> counts the
    P_i in M and <dim tau^{-1} M, e_i> + <e_i, dim M> the I_i.  tau and
    tau^{-1} kill those summands, so M and the rest have the same image."""
    M = build(kind)
    q = M.quiver
    tau, inv = ar_translate_unchecked(M), ar_inverse(M)
    assert summand_multiplicities(q, M.dim, tau.dim) == proj
    assert summand_multiplicities(q, inv.module.dim, M.dim) == inj
    assert inv.shifted == inj
    if kind == "projective":
        assert is_isomorphic(tau, ar_translate_unchecked(rest))
    else:
        assert is_isomorphic(inv.module, ar_inverse(rest).module)


@given(acyclic_quivers(), st.data())
def test_summand_multiplicities_are_euler_sums(q, data):
    """The one pass over the arrows is <x, e_i> + <e_i, y> by euler_form."""
    dims = st.tuples(*[st.integers(0, 5)] * q.n)
    x, y = data.draw(dims), data.draw(dims)
    units = [tuple(int(j == i) for j in range(q.n)) for i in range(q.n)]
    assert summand_multiplicities(q, x, y) == tuple(
        euler_form(q, x, u) + euler_form(q, u, y) for u in units)


def test_has_projective_summand():
    q = a2_quiver()
    assert has_projective_summand(direct_sum(projective_rep(q, 1),
                                             simple_rep(q, 1)))
    assert not has_projective_summand(simple_rep(q, 1))


@given(rep_pairs(max_dim=2))
@settings(deadline=None)
def test_projective_summand_read_from_ext_ranks(case):
    """has_projective_summand reads dim (tau M)_u = dim Ext^1(M, P_u) from
    ranks, and agrees with the multiplicities of the tau M that
    ar_translate_unchecked builds."""
    for M in case[:2]:
        assert has_projective_summand(M) == any(summand_multiplicities(
            M.quiver, M.dim, ar_translate_unchecked(M).dim))


# -- AR translate ----------------------------------------------------------

def test_tau_s1_is_s2_on_a2():
    q = a2_quiver()
    assert is_isomorphic(ar_translate(simple_rep(q, 1)), simple_rep(q, 2))


def test_tau_rejects_projectives():
    q = a2_quiver()
    with pytest.raises(PreconditionError):
        ar_translate(projective_rep(q, 1))


def stock_indecomposables():
    """(id, module) for the stock indecomposables of A2, A3, Kronecker and
    D4-tilde: simples, projectives, injectives and the corpus regulars,
    one copy of each isomorphism class."""
    out = [("a2-S1", simple_rep(a2_quiver(), 1)),
           ("a2-S2", simple_rep(a2_quiver(), 2)),
           ("a2-P1", projective_rep(a2_quiver(), 1))]
    q3 = a3_quiver()
    out += [(f"a3-[{lo},{hi}]", M) for (lo, hi), M in zip(
        [(lo, hi) for lo in range(1, 4) for hi in range(lo, 4)],
        all_interval_modules(q3))]
    qk = kronecker_quiver()
    out += [("kronecker-S1", simple_rep(qk, 1)),
            ("kronecker-S2", simple_rep(qk, 2)),
            ("kronecker-P1", projective_rep(qk, 1)),
            ("kronecker-I2", injective_rep(qk, 2))]
    out += [(f"kronecker-R({a},{b})", kronecker_regular(a, b))
            for a, b in [(1, 1), (1, 0), (0, 1)]]
    qd = d4tilde_quiver()
    out += [(f"d4tilde-S{i}", simple_rep(qd, i)) for i in range(1, 6)]
    out += [(f"d4tilde-P{i}", projective_rep(qd, i)) for i in range(1, 5)]
    e1, e2 = d4tilde_tube_simples()
    out += [("d4tilde-I5", injective_rep(qd, 5)), ("d4tilde-E1", e1),
            ("d4tilde-E2", e2)]
    return out


STOCK = stock_indecomposables()


def _injective_mults(M):
    q = M.quiver
    return tuple(int(is_isomorphic(M, injective_rep(q, i)))
                 for i in range(1, q.n + 1))


def _projective_mults(M):
    q = M.quiver
    return tuple(int(is_isomorphic(M, projective_rep(q, i)))
                 for i in range(1, q.n + 1))


@pytest.mark.parametrize("M", [M for _, M in STOCK],
                         ids=[name for name, _ in STOCK])
def test_tau_inverse_inverts_tau(M):
    """tau^{-1} tau M = M for projective-free M, and tau tau^{-1} N = N for
    injective-free N (tau^{-1} is D tau D over the opposite quiver)."""
    if not has_projective_summand(M):
        back = ar_inverse(ar_translate(M))
        assert not any(back.shifted)
        assert is_isomorphic(back.module, M)
    if not any(_injective_mults(M)):
        inv = ar_inverse(M)
        assert not any(inv.shifted)
        assert is_isomorphic(ar_translate(inv.module), M)


@pytest.mark.parametrize("N", [M for _, M in STOCK],
                         ids=[name for name, _ in STOCK])
def test_tau_inverse_is_inverse_coxeter(N):
    """On N and on each N (+) I_v, tau^{-1} turns every injective summand
    into a P_i[1] and sends the rest (the core) along the inverse Coxeter
    matrix: Phi dim tau^{-1}(core) = dim core, with Phi = -E^{-1} E^T for
    the Euler matrix E.  That is <x, e_i> + <e_i, y> = 0 at every vertex
    i, for x = dim tau^{-1}(core) and y = dim core."""
    q = N.quiver
    units = [tuple(int(j == i) for j in range(q.n)) for i in range(q.n)]
    for v in range(q.n + 1):
        extra = injective_rep(q, v) if v else zero_rep(q)
        mults = [m + (i == v)
                 for i, m in enumerate(_injective_mults(N), start=1)]
        obj = ar_inverse(direct_sum(N, extra))
        assert obj.shifted == tuple(mults)
        core = [a + b - sum(m * injective_rep(q, i).dim[j]
                            for i, m in enumerate(mults, start=1))
                for j, (a, b) in enumerate(zip(N.dim, extra.dim))]
        for u in units:
            assert (euler_form(q, obj.module.dim, u)
                    + euler_form(q, u, core)) == 0


@pytest.mark.parametrize("N", [M for _, M in STOCK],
                         ids=[name for name, _ in STOCK])
def test_projective_multiplicities_count_summands(N):
    """On N and on each N (+) P_v, <dim M, e_i> + <e_i, dim tau M> is the
    number of summands isomorphic to P_i, and ar_translate refuses exactly
    when one is nonzero."""
    q = N.quiver
    for v in range(q.n + 1):
        M = direct_sum(N, projective_rep(q, v) if v else zero_rep(q))
        mults = tuple(m + (i == v)
                      for i, m in enumerate(_projective_mults(N), start=1))
        got = summand_multiplicities(q, M.dim, ar_translate_unchecked(M).dim)
        assert got == mults
        assert has_projective_summand(M) == any(mults)
        if any(mults):
            with pytest.raises(PreconditionError, match="projective"):
                ar_translate(M)
        else:
            ar_translate(M)


@given(rep_pairs(max_dim=2))
@settings(deadline=None)
def test_ar_duality_on_random_modules(case):
    """Ext^1(M, X) = D Hom(X, tau M) and Ext^1(X, M) = D Hom(tau^{-1} M, X)
    for a random X and for every S_i, P_i and I_i.  Projective summands of
    M have no Ext^1 and no tau, injective ones turn into P_i[1], so both
    hold for any M."""
    M, L, _ = case
    q, F = M.quiver, M.field
    tau, inv = ar_translate_unchecked(M), ar_inverse(M).module
    for X in [L] + [standard_module(q, kind, i, F)
                    for kind in ("simple", "projective", "injective")
                    for i in range(1, q.n + 1)]:
        assert ext1_dim(M, X) == hom_dim(X, tau)
        assert ext1_dim(X, M) == hom_dim(inv, X)


@given(rep_pairs(max_arrows=3))
@settings(deadline=None)
def test_tau_inverse_on_maps(case):
    """tau^{-1} g for a random g: L -> T intertwines the arrows of
    tau^{-1} L and tau^{-1} T, tau^{-1} is a functor, and by right
    exactness Coker tau^{-1} g is ar_inverse(Coker g).  At most three
    arrows, as in the other tau^{-1} properties."""
    L, T, rng = case
    q, F = L.quiver, L.field

    def draw(M, N):
        zero = [Mat(F, n, m) for n, m in zip(N.dim, M.dim)]
        basis = hom_basis(M, N)
        return combine([zero] + basis,
                       [0] + [rng.randrange(F.p) for _ in basis])

    g, e = draw(L, T), draw(T, T)
    inv_l, inv_t, (h, eg) = tau_inverse_maps(
        L, T, [g, [x.mul(y) for x, y in zip(e, g)]])
    assert inv_l == ar_inverse(L).module and inv_t == ar_inverse(T).module
    for a, (s, t) in enumerate(q.arrows):
        assert inv_t.matrices[a].mul(h[s - 1]) == h[t - 1].mul(
            inv_l.matrices[a])
    _, _, (ie, ident) = tau_inverse_maps(
        T, T, [e, [Mat.identity(F, n) for n in T.dim]])
    assert ident == [Mat.identity(F, n) for n in inv_t.dim]
    assert eg == [x.mul(y) for x, y in zip(ie, h)]
    C = cokernel_rep(g, L, T)
    R, inv = cokernel_rep(h, inv_l, inv_t), ar_inverse(C)
    assert R.dim == inv.module.dim
    assert hom_battery(R) == hom_battery(inv.module)
    assert summand_multiplicities(q, R.dim, C.dim) == inv.shifted
    if F.p > R.total_dim:
        assert is_isomorphic(R, inv.module)


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


@pytest.mark.parametrize("fn", [hom_dim, ext1_dim, hom_basis, ext1_basis],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("M, N", [
    (simple_rep(a2_quiver(), 1), simple_rep(kronecker_quiver(), 2)),
    (simple_rep(a3_quiver(), 1), simple_rep(a2_quiver(), 1)),
    (simple_rep(a2_quiver(), 2), simple_rep(a2_quiver(), 1, GF(2))),
], ids=["a2-kronecker", "a3-a2", "qq-gf2"])
def test_hom_and_ext_refuse_incompatible_operands(fn, M, N):
    """Hom and Ext^1 of representations of different quivers, or over
    different fields, are refused by the one system they read, in both
    orders."""
    for X, Y in ((M, N), (N, M)):
        with pytest.raises(InputError, match="one quiver and one field"):
            fn(X, Y)


def test_empty_arrow_matrix_forms():
    """A matrix with no rows or no columns is [], None or one empty row a
    row ([[]] also where there are no rows); other row counts are
    refused."""
    q = a2_quiver()
    for dim, data in [((1, 0), []), ((1, 0), None), ((1, 0), [[]]),
                      ((0, 1), []), ((0, 1), [[]]), ((0, 3), [[]] * 3),
                      ((0, 0), [])]:
        assert make_rep(q, dim, [data]).matrices[0].rows == dim[1]
    for dim, data in [((1, 0), [[], []]), ((0, 1), [[]] * 3),
                      ((0, 3), [[]]), ((2, 0), [[1, 2]])]:
        with pytest.raises(InputError, match="should be empty"):
            make_rep(q, dim, [data])
