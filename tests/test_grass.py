from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from strategies import acyclic_quivers, box_bounds, gf_modules, hstack

from cclab import grassmannian
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.errors import (ConfigurationError, InputError,
                          NotPolynomialCountError)
from cclab.grassmannian import (CountingPolynomial, count_subreps,
                                euler_char_grassmannian, fit_and_verify,
                                free_vertices, gaussian_binomial,
                                grassmannian_profile, interpolate_counts,
                                subreps, subspaces, tangent_bounds)
from cclab.linalg import GF, Mat
from cclab.quiver import (a2_quiver, a3_quiver, kronecker_quiver,
                          validate_quiver)
from cclab.reps import (direct_sum, direct_sum_many, ext1_dim, injective_rep,
                        make_rep, projective_rep, reduce_rep, simple_rep,
                        zero_rep)


def subspace_bases(field, d, k):
    """All k-dim subspaces of F_p^d as reduced column-echelon `Mat` bases.

    Pivot rows are chosen among the d coordinates; free entries range over
    F_p.  Each subspace appears exactly once.  The oracle's own route,
    independent of the int-row `subspaces` of the package.
    """
    if k == 0:
        yield Mat(field, d, 0)
        return
    p = field.p
    for pivots in combinations(range(d), k):
        free_pos = []
        for j, pr in enumerate(pivots):
            for r in range(pr + 1, d):
                if r not in pivots:
                    free_pos.append((r, j))
        for vals in product(range(p), repeat=len(free_pos)):
            m = Mat(field, d, k)
            for j, pr in enumerate(pivots):
                m.data[pr][j] = field.one
            for (r, j), v in zip(free_pos, vals):
                m.data[r][j] = v
            yield m


def _contained_in(field, big, small) -> bool:
    """Whether the column span of `small` lies inside that of `big`."""
    if small.cols == 0:
        return True
    if big.cols == 0:
        return small.is_zero()
    return hstack(field, [big, small]).rank() == big.rank()


def brute_force_count(M, e, p):
    """Reference: a subspace at every vertex, every arrow checked."""
    q = M.quiver
    Mp = reduce_rep(M, p)
    F = Mp.field
    choices = [list(subspace_bases(F, Mp.dim[i], e[i])) for i in range(q.n)]
    count = 0
    for tup in product(*choices):
        if all(_contained_in(F, tup[t - 1], Mp.matrices[a].mul(tup[s - 1]))
               for a, (s, t) in enumerate(q.arrows)):
            count += 1
    return count


def test_subspace_bases_counts_gaussian():
    F = GF(3)
    # number of k-subspaces of F_3^3: 1, 13, 13, 1
    assert sum(1 for _ in subspace_bases(F, 3, 0)) == 1
    assert sum(1 for _ in subspace_bases(F, 3, 1)) == 13
    assert sum(1 for _ in subspace_bases(F, 3, 2)) == 13
    assert sum(1 for _ in subspace_bases(F, 3, 3)) == 1
    assert [gaussian_binomial(3, k, 3) for k in range(-1, 5)] == \
        [0, 1, 13, 13, 1, 0]
    assert gaussian_binomial(4, 2, 2) == \
        sum(1 for _ in subspace_bases(GF(2), 4, 2)) == 35


def test_gaussian_binomial_memo_is_bounded_and_transparent():
    """The memo is bounded, and cold or warm it gives the values that the
    function computes without it, out-of-range k included."""
    maxsize = gaussian_binomial.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    args = [(n, k, p) for n in range(-1, 6) for k in range(-1, 7)
            for p in (2, 3, 53)]
    direct = [gaussian_binomial.__wrapped__(*a) for a in args]
    gaussian_binomial.cache_clear()
    assert [gaussian_binomial(*a) for a in args] == direct
    assert [gaussian_binomial(*a) for a in args] == direct
    assert gaussian_binomial.cache_info().hits == len(args)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_subspaces_match_mat_bases(p):
    """The package's int-row enumerator lists the oracle's subspaces, in
    the same order, as basis vectors (the columns of each Mat basis)."""
    for d in range(5):
        for k in range(d + 1):
            ints = list(subspaces(p, d, k))
            assert ints == [tuple(tuple(b.column(j)) for j in range(k))
                            for b in subspace_bases(GF(p), d, k)]
            assert len(ints) == gaussian_binomial(d, k, p)


def test_count_zero_subrep():
    q = a2_quiver()
    assert count_subreps(projective_rep(q, 1), (0, 0), 5) == 1


def test_count_unique_submodule_of_p1():
    q = a2_quiver()
    for p in (3, 5, 7):
        assert count_subreps(projective_rep(q, 1), (0, 1), p) == 1


def test_count_lines_at_sink():
    q = a2_quiver()
    s2 = simple_rep(q, 2)
    M = direct_sum(s2, s2)
    for p in (3, 5, 7):
        assert count_subreps(M, (0, 1), p) == p + 1


@pytest.mark.parametrize("modulus", [4, 1, 0])
def test_count_refuses_a_modulus_that_is_not_prime(modulus):
    """A modulus that is not prime is refused when its field is made, not
    read as a count: over Z/4, Kronecker P1 gave 5 subrepresentations of
    dimension (0, 1) and P1 + I2 a raw ValueError at (1, 1); 1 was taken
    for a denominator and 0 raised a raw ZeroDivisionError."""
    qk = kronecker_quiver()
    p1 = projective_rep(qk, 1)
    for M, e in [(p1, (0, 1)), (direct_sum(p1, injective_rep(qk, 2)),
                                (1, 1))]:
        with pytest.raises(ConfigurationError,
                           match=f"^{modulus} is not prime$"):
            count_subreps(M, e, modulus)
    with pytest.raises(ConfigurationError):
        GF(modulus)


def test_oversized_sweep_is_refused_before_its_tables(monkeypatch):
    """A sweep over more than MAX_COVER_TUPLES cover tuples is refused
    with its estimate before a table is built: on the semisimple
    Kronecker module S1^4 + S2^5, vertex 1 is the cover at e = (2, 2), and
    at p = 23 it has [4 choose 2]_23 = 293,090 planes."""
    qk = kronecker_quiver()
    M = direct_sum_many(qk, [simple_rep(qk, 1)] * 4 + [simple_rep(qk, 2)] * 5)
    assert gaussian_binomial(4, 2, 23) == 293090
    assert grassmannian.MAX_COVER_TUPLES == 250000

    def no_table(*args):
        raise AssertionError("table built")
    with monkeypatch.context() as patch:
        patch.setattr(grassmannian, "_vertex_table", no_table)
        patch.setattr(grassmannian, "_subspace_table", no_table)
        with pytest.raises(ConfigurationError, match=(
                r"dimension \(4, 5\) over F_23 would walk 293090 cover "
                r"tuples, more than 250000")):
            count_subreps(M, (2, 2), 23)
    # every pair of subspaces is a subrepresentation
    assert count_subreps(M, (2, 2), 5) == (gaussian_binomial(4, 2, 5)
                                           * gaussian_binomial(5, 2, 5))


def test_count_rejects_oversized_vector(primes):
    q = a2_quiver()
    with pytest.raises(InputError):
        count_subreps(simple_rep(q, 1), (2, 0), 5)
    # e of the wrong length is refused before the counting is set up
    for e in [(1,), (1, 0, 0)]:
        with pytest.raises(InputError,
                           match="dimension vector length mismatch"):
            count_subreps(simple_rep(q, 1), e, 5)
        with pytest.raises(InputError,
                           match="dimension vector length mismatch"):
            euler_char_grassmannian(simple_rep(q, 1), e, primes)


def test_euler_char_examples(primes):
    q = a2_quiver()
    p1 = projective_rep(q, 1)
    assert euler_char_grassmannian(p1, (0, 1), primes) == 1
    assert euler_char_grassmannian(p1, (1, 0), primes) == 0
    s2 = simple_rep(q, 2)
    assert euler_char_grassmannian(direct_sum(s2, s2), (0, 1), primes) == 2


def test_profile_examples(primes):
    q = a2_quiver()
    assert grassmannian_profile(simple_rep(q, 1), primes) == {
        (0, 0): 1, (1, 0): 1}
    assert grassmannian_profile(projective_rep(q, 1), primes) == {
        (0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert grassmannian_profile(zero_rep(q), primes) == {(0, 0): 1}


def test_profile_cache_is_bounded_and_transparent(monkeypatch, primes):
    bound = grassmannian._profile.cache_info().maxsize
    assert isinstance(bound, int) and bound > 0
    # the same function behind a small bound: filling and clearing the real
    # cache would only make later tests recount the profiles it holds
    small = lru_cache(maxsize=8)(grassmannian._profile.__wrapped__)
    monkeypatch.setattr(grassmannian, "_profile", small)
    q = kronecker_quiver()
    M = direct_sum(projective_rep(q, 1), simple_rep(q, 1))
    cold = grassmannian_profile(M, primes)
    profile = dict(cold)
    cold[(0, 0)] = 0  # each caller gets its own copy
    assert grassmannian_profile(M, primes) == profile
    assert grassmannian_profile(M, list(reversed(primes))) == profile
    assert small.cache_info().hits == 2
    small.cache_clear()
    assert grassmannian_profile(M, primes) == profile
    # distinct prime pairs make distinct entries; S1 needs only two primes
    pairs = combinations([2, 3, 5, 7, 11, 13, 17], 2)
    s1 = simple_rep(a2_quiver(), 1)
    for pair in pairs:
        assert grassmannian_profile(s1, pair) == {(0, 0): 1, (1, 0): 1}
        assert small.cache_info().currsize <= 8
    assert small.cache_info().currsize == 8
    assert grassmannian_profile(M, primes) == profile


def test_profile_total_count_consistency(primes):
    """The per-e counts at one prime sum to the total submodule count."""
    q = a2_quiver()
    M = projective_rep(q, 1)
    p = primes[0]
    total = sum(count_subreps(M, e, p)
                for e in [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert total == 3  # 0, S2, P1 itself


def test_counting_polynomial_evaluation():
    poly = CountingPolynomial((1, 1))  # 1 + q
    assert poly(5) == 6 and poly(1) == 2 and poly.degree() == 1


def test_interpolation_integer_fit():
    poly = interpolate_counts([(2, 1), (3, 2)], 1)  # q - 1
    assert poly.coefficients == (-1, 1)


def test_interpolation_rejects_non_integer():
    with pytest.raises(NotPolynomialCountError):
        interpolate_counts([(2, 0), (4, 1)], 1)  # slope 1/2


def lagrange_reference(points, degree_bound):
    """Lagrange interpolation, each node's basis polynomial expanded
    coefficient-wise: the reference for interpolate_counts."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = [Fraction(0)] + num[:]
            for k in range(len(num) - 1):
                num[k] -= xs[j] * num[k + 1]
            den *= xs[i] - xs[j]
        for k in range(len(num)):
            coeffs[k] += Fraction(ys[i]) * num[k] / den
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise NotPolynomialCountError("interpolant has non-integer coefficients")
    if len(coeffs) - 1 > degree_bound:
        raise NotPolynomialCountError("interpolant exceeds its degree bound")
    return CountingPolynomial(tuple(int(c) for c in coeffs))


@st.composite
def count_fits(draw):
    """(points, degree bound): counts at distinct primes, read off an
    integer polynomial of degree <= 8 or drawn at random."""
    primes = draw(st.lists(st.sampled_from(
        (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)),
        unique=True, max_size=10))
    if draw(st.booleans()):
        poly = CountingPolynomial(tuple(draw(st.lists(st.integers(-50, 50),
                                                      max_size=9))))
        counts = [poly(p) for p in primes]
    else:
        counts = draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                               min_size=len(primes), max_size=len(primes)))
    return list(zip(primes, counts)), draw(st.integers(0, 8))


@given(count_fits())
@settings(deadline=None, max_examples=300)
def test_interpolation_matches_lagrange(case):
    """The Newton fit gives the reference's polynomial, or its error."""
    points, bound = case

    def fit(interpolate):
        try:
            return interpolate(points, bound)
        except NotPolynomialCountError as err:
            return str(err)
    assert fit(interpolate_counts) == fit(lagrange_reference)


def test_fit_and_verify_flags_mismatch():
    counts = {23: 24, 29: 30, 31: 33}  # last count breaks q+1
    with pytest.raises(NotPolynomialCountError):
        fit_and_verify(counts, 1)


def test_fit_and_verify_needs_enough_primes():
    with pytest.raises(ConfigurationError):
        fit_and_verify({23: 1, 29: 1}, 1)


def test_euler_char_checks_e_before_the_primes():
    """A dimension vector of the wrong length is an input error, even with
    too few primes for the degree bound it would give."""
    qk = kronecker_quiver()
    p1 = projective_rep(qk, 1)
    with pytest.raises(InputError, match="dimension vector length mismatch"):
        euler_char_grassmannian(direct_sum(p1, p1), (1, 2, 9), (23, 29, 31))


def test_euler_char_refuses_before_counting(primes, monkeypatch):
    """A non-rigid input whose tangent bound still exceeds 6 is refused on
    the 8 default primes with no count made: Kronecker P1 + I2 + S1 + S2
    has dim Ext^1(M, M) = 12, so at e = (2, 2) the bound is
    min(8, <e, d - e> + 12) = 8, and it needs 10 primes."""
    qk = kronecker_quiver()
    M = direct_sum_many(qk, [projective_rep(qk, 1), injective_rep(qk, 2),
                             simple_rep(qk, 1), simple_rep(qk, 2)])

    def no_count(*args):
        raise AssertionError("_sweep called")
    monkeypatch.setattr(grassmannian, "_sweep", no_count)
    assert len(primes) == 8
    with pytest.raises(ConfigurationError,
                       match="need at least 10 primes, have 8"):
        euler_char_grassmannian(M, (2, 2), primes)


def test_rigid_count_fits_the_tangent_bound(primes):
    """Kronecker P1^3 is rigid, so at e = (1, 3) its bound is
    <e, d - e> = 5, not sum e(d - e) = 11, and the 8 default primes count
    it: U_1 is a line and U_2 a 3-space over its 2-dim image, so
    |Gr_e| = [3 choose 1]_q [4 choose 1]_q and chi = 3 * 4."""
    qk = kronecker_quiver()
    p1 = projective_rep(qk, 1)
    M = direct_sum_many(qk, [p1, p1, p1])
    assert euler_char_grassmannian(M, (1, 3), primes) == 12


def test_rigid_count_must_be_palindromic(primes, monkeypatch):
    """Negative control: a count of a rigid module that is a polynomial
    within its bound but not palindromic is refused.  Kronecker P1 at
    e = (0, 1) counts the lines of its vertex 2, q + 1; q + 2 fits the
    bound 1 at every prime."""
    p1 = projective_rep(kronecker_quiver(), 1)
    assert euler_char_grassmannian(p1, (0, 1), primes) == 2
    monkeypatch.setattr(grassmannian, "_sweep", lambda M, plan, p, rows: {
        e: p + 2 for es in plan[3].values() for e in es})
    with pytest.raises(NotPolynomialCountError, match="palindromic"):
        euler_char_grassmannian(p1, (0, 1), primes)


def test_profile_refuses_before_counting(primes, monkeypatch):
    """The largest degree bound is checked before the first count:
    Kronecker P1 + I2 + S1 + S2 has bound 8 at e = (2, 2), fitted on 9
    primes and verified on a 10th, so 8 and 9 primes are each refused
    with that need and no count made, not with the need 9 of the first e
    in order whose bound, 7 at e = (1, 2), is too large for 8."""
    qk = kronecker_quiver()
    M = direct_sum_many(qk, [projective_rep(qk, 1), injective_rep(qk, 2),
                             simple_rep(qk, 1), simple_rep(qk, 2)])
    assert M.dim == (4, 4)

    def no_count(*args):
        raise AssertionError("_sweep called")
    monkeypatch.setattr(grassmannian, "_sweep", no_count)
    assert len(primes) == 8
    for n in (8, 9):
        with pytest.raises(ConfigurationError,
                           match=f"need at least 10 primes, have {n}"):
            grassmannian_profile(M, primes + (59,) * (n - 8))


# -- elimination counting against the brute-force oracle -------------------

def _independent(q, vertices):
    """The vertices (0-indexed) kept in order while no arrow joins two."""
    kept = set()
    for v in vertices:
        if all({s - 1, t - 1} != {v, u} for s, t in q.arrows for u in kept):
            kept.add(v)
    return kept


def _quiver(draw):
    """A random acyclic quiver on 1 to 4 vertices with up to 4 arrows."""
    n = draw(st.integers(1, 4))
    pairs = list(combinations(range(1, n + 1), 2))
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=4) if pairs
                  else st.just([]))
    label = draw(st.permutations(range(1, n + 1)))
    return validate_quiver(n, [(label[s - 1], label[t - 1])
                               for s, t in arrows])


def _module(draw, q, dim):
    """A module of dimension vector dim on q with entries in [-2, 2]."""
    entries = st.integers(-2, 2)
    mats = [draw(st.lists(st.lists(entries, min_size=dim[s - 1],
                                   max_size=dim[s - 1]),
                          min_size=dim[t - 1], max_size=dim[t - 1]))
            for s, t in q.arrows]
    return make_rep(q, dim, mats)


def _free_set(draw, q):
    """Any independent set of q's vertices (0-indexed)."""
    free = _independent(q, draw(st.permutations(range(q.n))))
    return free - draw(st.sets(st.integers(0, q.n - 1)))


@st.composite
def small_counts(draw):
    """(M, e, p, I) on a random acyclic quiver, with I any independent set."""
    q = _quiver(draw)
    dim = draw(st.tuples(*[st.integers(0, 3)] * q.n))
    e = tuple(draw(st.integers(0, d)) for d in dim)
    p = draw(st.sampled_from((2, 3, 5)))
    tuples = 1
    for d, k in zip(dim, e):
        tuples *= gaussian_binomial(d, k, p)
    assume(tuples <= 2000)  # keeps the oracle fast
    return _module(draw, q, dim), e, p, _free_set(draw, q)


@st.composite
def small_modules(draw):
    """(M, p, es, I): a module as in small_counts, every e <= dim M in a
    drawn order, and any independent set I."""
    q = _quiver(draw)
    dim = draw(st.tuples(*[st.integers(0, 3)] * q.n))
    p = draw(st.sampled_from((2, 3, 5)))
    tuples = 1  # the oracle's tuples, summed over every e
    for d in dim:
        tuples *= sum(gaussian_binomial(d, k, p) for k in range(d + 1))
    assume(tuples <= 600)
    M = _module(draw, q, dim)
    es = draw(st.permutations(list(product(*[range(d + 1) for d in dim]))))
    return M, p, es, _free_set(draw, q)


@given(small_counts())
@settings(deadline=None)
def test_count_matches_brute_force(case):
    M, e, p, free = case
    expected = brute_force_count(M, e, p)
    assert count_subreps(M, e, p) == expected
    # the lister gives each of them once, by its subspaces
    listed = [tuple(U for U, _ in tup) for tup in subreps(reduce_rep(M, p), e)]
    assert len(set(listed)) == len(listed) == expected
    # the count is exact for any independent free set, not only the greedy one
    with mock.patch.object(grassmannian, "free_vertices",
                           lambda q, dim, e: free):
        assert count_subreps(M, e, p) == expected


@given(small_modules())
@settings(deadline=None, max_examples=60)
def test_shared_tables_count_every_e(case):
    """One sweep counts every e of a module, drawn in any order, as in
    _profile, and each count equals the oracle's, also under another free
    set and e by e through count_subreps."""
    M, p, es, free = case
    expected = {e: brute_force_count(M, e, p) for e in es}
    rows = grassmannian._by_prime(M, [p])[p]

    def sweep():
        return grassmannian._sweep(
            M, grassmannian._plan(M.quiver, M.dim, es), p, rows)
    assert sweep() == expected
    with mock.patch.object(grassmannian, "free_vertices",
                           lambda q, dim, e: free):
        assert sweep() == expected
    for e in es:
        assert count_subreps(M, e, p) == expected[e]


@given(small_modules())
@settings(deadline=None, max_examples=60)
def test_memo_leaves_every_count_unchanged(case):
    """The memo of (dim A_v, dim B_v) on the entries at v's neighbours
    gives the tally and the counts of keying it on the whole cover tuple,
    which no other tuple shares, under the greedy free set and any
    other."""
    M, p, es, free = case
    rows = grassmannian._by_prime(M, [p])[p]
    ends = [(s - 1, t - 1) for s, t in M.quiver.arrows]
    for cover_of in (grassmannian.free_vertices, lambda q, dim, e: free):
        with mock.patch.object(grassmannian, "free_vertices", cover_of):
            plan = grassmannian._plan(M.quiver, M.dim, es)
        cover, inner, sides, groups = plan
        whole = [(v, d, range(len(cover)), ins, outs)
                 for v, d, _, ins, outs in sides]
        assert grassmannian._sweep(M, plan, p, rows) == grassmannian._sweep(
            M, (cover, inner, whole, groups), p, rows)
        for ks, group in groups.items():
            tables = [grassmannian._vertex_table(rows, ends, d, v, k, p)
                      for (v, d), k in zip(cover, ks)]
            assert grassmannian._tally(tables, inner, sides, group, p) == (
                grassmannian._tally(tables, inner, whole, group, p))


def test_profile_sweeps_once_per_prime(primes, monkeypatch):
    """_profile counts every kept e of a module in one sweep a prime:
    D4-tilde E1 + E1 is rigid and keeps 14 of its 27 e, all in each of
    the 8 sweeps."""
    e1, _ = d4tilde_tube_simples()
    M = direct_sum(e1, e1)
    sweeps, sweep = [], grassmannian._sweep

    def recording(M, plan, p, rows):
        counts = sweep(M, plan, p, rows)
        sweeps.append((p, sorted(counts)))
        return counts
    monkeypatch.setattr(grassmannian, "_sweep", recording)
    grassmannian._profile.cache_clear()
    profile = grassmannian_profile(M, primes)
    kept = sorted(tangent_bounds(M.quiver, M.dim, 0))
    assert len(kept) == 14
    assert sweeps == [(p, kept) for p in primes]
    assert set(profile) <= set(kept)


# -- the tangent bound against brute force ---------------------------------

SAMPLE_PRIMES = (7, 11, 13, 17, 19, 23)  # above every entry of bounded_modules


def reference_profile(M, primes):
    """(profile, counts): grassmannian_profile as counted with no tangent
    bound, every e <= dim M at every prime fitted within sum e(d - e), and
    the counts of each e by prime."""
    bounds = box_bounds(M.dim)
    counts = {e: {p: count_subreps(M, e, p) for p in primes} for e in bounds}
    chis = {e: fit_and_verify(by_prime, bounds[e])(1)
            for e, by_prime in counts.items()}
    return {e: chi for e, chi in chis.items() if chi}, counts


@st.composite
def bounded_modules(draw):
    """A module of strategies.gf_modules over GF(2), GF(3) or GF(5) with dims
    <= 2, so that sum e(d - e) <= 4 fits SAMPLE_PRIMES, and few enough
    subspace tuples at 23 to count every e there."""
    q = draw(acyclic_quivers())
    F = GF(draw(st.sampled_from([2, 3, 5])))
    M = draw(gf_modules(q, F, max_dim=2))
    tuples = 1
    for d in M.dim:
        tuples *= sum(gaussian_binomial(d, k, 23) for k in range(d + 1))
    assume(tuples <= 3000)
    return M


@given(bounded_modules())
@settings(deadline=None, max_examples=60)
def test_tangent_bound_drops_only_empty_grassmannians(M):
    """Every e whose tangent bound is negative has no subrepresentation:
    none listed by brute force over M's own GF(p), with x = dim Ext^1(M, M)
    there, and none counted at any sample prime of M lifted to QQ, with x
    the largest dim Ext^1 over them.  The lift's profile equals the
    reference that counts every e within sum e(d - e)."""
    x = ext1_dim(M, M)
    kept = tangent_bounds(M.quiver, M.dim, x)
    for e in product(*[range(d + 1) for d in M.dim]):
        if e not in kept:
            assert subreps(M, e) == []
    lift = make_rep(M.quiver, M.dim, [m.data for m in M.matrices])
    try:
        expected, counts = reference_profile(lift, SAMPLE_PRIMES)
    except NotPolynomialCountError:
        reject()  # counts that no polynomial fits, as over QQ(i)
    x = max(ext1_dim(reduce_rep(lift, p), reduce_rep(lift, p))
            for p in SAMPLE_PRIMES)
    kept = tangent_bounds(M.quiver, M.dim, x)
    assert all(not any(by_prime.values()) for e, by_prime in counts.items()
               if e not in kept)
    assert grassmannian_profile(lift, SAMPLE_PRIMES) == expected


def test_tables_keyed_on_quiver_and_field():
    """Equal matrices on another quiver or over another field are another
    module, with tables of its own."""
    forward, backward = a2_quiver(), validate_quiver(2, [(2, 1)])
    line = make_rep(forward, (1, 1), [[[1]]])
    # 1 -> 2 has no subrepresentation (1, 0); 2 -> 1 has one, the sink's
    assert count_subreps(line, (1, 0), 5) == 0
    assert count_subreps(make_rep(backward, (1, 1), [[[1]]]), (1, 0), 5) == 1
    assert count_subreps(line, (1, 0), 5) == 0
    # over GF(5) the same entries are a module that has no reduction mod 7
    over_f5 = make_rep(forward, (1, 1), [[[1]]], GF(5))
    assert count_subreps(over_f5, (0, 1), 5) == 1
    assert count_subreps(line, (0, 1), 7) == 1
    with pytest.raises(InputError):
        count_subreps(over_f5, (0, 1), 7)


def test_subspace_tables_are_bounded_and_transparent(monkeypatch):
    """The (U, ann U) tables are keyed on (p, d, k) alone, so another
    module of the same dimensions reads them warm; they are bounded, and
    counts read from them cold, warm, after an eviction or cleared are the
    same and agree with the oracle."""
    bound = grassmannian._subspace_table.cache_info().maxsize
    assert isinstance(bound, int) and bound > 0
    # a private cache, so the counts below start cold and the shared one
    # is left as it was
    subspace_table = lru_cache(maxsize=6)(
        grassmannian._subspace_table.__wrapped__)
    monkeypatch.setattr(grassmannian, "_subspace_table", subspace_table)
    qk = kronecker_quiver()
    M = direct_sum(projective_rep(qk, 1), injective_rep(qk, 2))
    N = direct_sum_many(qk, [kronecker_regular(1, 0), kronecker_regular(1, 1),
                             simple_rep(qk, 1), simple_rep(qk, 2)])
    assert M.dim == N.dim == (3, 3)
    # vertex 2 is the cover at each e, so the keys are (p, 3, e_2)
    es, primes = [(1, 1), (2, 1), (1, 2), (3, 3)], (2, 3)
    cold = {(e, p): count_subreps(M, e, p) for e in es for p in primes}
    # hits, misses: each count builds its own vertex tables, and
    # e = (1, 1) and (2, 1) read the same key at each prime
    assert subspace_table.cache_info()[:2] == (2, 6)
    warm = {(e, p): count_subreps(N, e, p) for e in es for p in primes}
    assert subspace_table.cache_info()[:2] == (10, 6)
    for e, p in cold:
        assert cold[e, p] == brute_force_count(M, e, p)
        assert warm[e, p] == brute_force_count(N, e, p)
    for e in es:  # three more keys evict three
        count_subreps(M, e, 5)
    assert subspace_table.cache_info()[1:] == (9, 6, 6)
    assert {(e, p): count_subreps(M, e, p) for e, p in cold} == cold
    subspace_table.cache_clear()
    assert {(e, p): count_subreps(M, e, p) for e, p in cold} == cold
    assert subspace_table.cache_info().currsize == 6


# -- counting-free check on tree modules -------------------------------------

def coefficient_forest(M):
    """Successor lists of M's coefficient quiver, asserted to be a forest.

    Nodes are (vertex, basis index); a nonzero entry (j, i) of the matrix of
    an arrow s -> t is an edge (s, i) -> (t, j).
    """
    succ = {(v, i): [] for v in range(M.quiver.n) for i in range(M.dim[v])}
    root = {node: node for node in succ}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x
    for a, (s, t) in enumerate(M.quiver.arrows):
        for j, row in enumerate(M.matrices[a].data):
            for i, x in enumerate(row):
                if x:
                    assert x == 1, "stock bases have 0/1 entries"
                    u, w = (s - 1, i), (t - 1, j)
                    assert find(u) != find(w), "coefficient quiver has a cycle"
                    root[find(u)] = find(w)
                    succ[u].append(w)
    return succ


def successor_closed_counts(M):
    """Number of successor-closed node subsets of the coefficient forest,
    by dimension vector: chi(Gr_e M) for a tree module (Cerulli Irelli 2011,
    Haupt 2012), with no point counting."""
    succ = coefficient_forest(M)
    nodes = list(succ)
    counts = {}
    for bits in product((False, True), repeat=len(nodes)):
        chosen = {x for x, b in zip(nodes, bits) if b}
        if all(y in chosen for x in chosen for y in succ[x]):
            e = tuple(sum(1 for v, _ in chosen if v == w)
                      for w in range(M.quiver.n))
            counts[e] = counts.get(e, 0) + 1
    return counts


def tree_module_groups():
    """Tree modules in their stock bases, grouped by quiver.  The Kronecker
    regular R(1,1) is left out: its coefficient quiver has a double edge."""
    q2, q3, qk = a2_quiver(), a3_quiver(), kronecker_quiver()
    return [
        [simple_rep(q2, 1), simple_rep(q2, 2), projective_rep(q2, 1)],
        all_interval_modules(q3),
        [simple_rep(qk, 1), simple_rep(qk, 2), projective_rep(qk, 1),
         injective_rep(qk, 2)],
        list(d4tilde_tube_simples()),
    ]


def tree_modules_and_sums():
    for group in tree_module_groups():
        yield from group
        for a, b in combinations_with_replacement(group, 2):
            yield direct_sum(a, b)


def test_profile_matches_successor_closed_subsets(primes):
    checked = 0
    for M in tree_modules_and_sums():
        assert grassmannian_profile(M, primes) == successor_closed_counts(M)
        checked += 1
    assert checked == 55  # 15 modules and their 40 same-quiver sums


def test_free_vertices_reach_maximum_weight():
    """The greedy free set is as heavy as the best independent set."""
    for M in tree_modules_and_sums():
        q = M.quiver
        for e in product(*[range(d + 1) for d in M.dim]):
            weight = [k * (d - k) for d, k in zip(M.dim, e)]
            greedy = free_vertices(q, M.dim, e)
            assert _independent(q, sorted(greedy)) == greedy
            best = max(sum(weight[v] for v in subset)
                       for r in range(q.n + 1)
                       for subset in combinations(range(q.n), r)
                       if _independent(q, subset) == set(subset))
            assert sum(weight[v] for v in greedy) == best
