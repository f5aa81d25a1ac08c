from itertools import combinations, combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cclab import grassmannian
from cclab.corpus import all_interval_modules, d4tilde_tube_simples
from cclab.errors import (ConfigurationError, InputError,
                          NotPolynomialCountError)
from cclab.grassmannian import (CountingPolynomial, _contained_in,
                                count_subreps, euler_char_grassmannian,
                                fit_and_verify, free_vertices,
                                gaussian_binomial, grassmannian_profile,
                                interpolate_counts, subspace_bases)
from cclab.linalg import GF
from cclab.quiver import (a2_quiver, a3_quiver, kronecker_quiver,
                          validate_quiver)
from cclab.reps import (direct_sum, direct_sum_many, injective_rep, make_rep,
                        projective_rep, reduce_rep, simple_rep, zero_rep)


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


def test_count_rejects_oversized_vector():
    q = a2_quiver()
    with pytest.raises(InputError):
        count_subreps(simple_rep(q, 1), (2, 0), 5)


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


def test_fit_and_verify_flags_mismatch():
    counts = {23: 24, 29: 30, 31: 33}  # last count breaks q+1
    with pytest.raises(NotPolynomialCountError):
        fit_and_verify(counts, 1)


def test_fit_and_verify_needs_enough_primes():
    with pytest.raises(ConfigurationError):
        fit_and_verify({23: 1, 29: 1}, 1)


def test_euler_char_refuses_before_counting(primes, monkeypatch):
    qk = kronecker_quiver()
    p1 = projective_rep(qk, 1)
    M = direct_sum_many(qk, [p1, p1, p1])

    def no_count(*args):
        raise AssertionError("count_subreps called")
    monkeypatch.setattr(grassmannian, "count_subreps", no_count)
    assert len(primes) == 8
    with pytest.raises(ConfigurationError,
                       match="need at least 13 primes, have 8"):
        euler_char_grassmannian(M, (1, 3), primes)


# -- elimination counting against the brute-force oracle -------------------

def _independent(q, vertices):
    """The vertices (0-indexed) kept in order while no arrow joins two."""
    kept = set()
    for v in vertices:
        if all({s - 1, t - 1} != {v, u} for s, t in q.arrows for u in kept):
            kept.add(v)
    return kept


@st.composite
def small_counts(draw):
    """(M, e, p, I) on a random acyclic quiver, with I any independent set."""
    n = draw(st.integers(1, 4))
    pairs = list(combinations(range(1, n + 1), 2))
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=4) if pairs
                  else st.just([]))
    label = draw(st.permutations(range(1, n + 1)))
    q = validate_quiver(n, [(label[s - 1], label[t - 1]) for s, t in arrows])
    dim = draw(st.tuples(*[st.integers(0, 3)] * n))
    e = tuple(draw(st.integers(0, d)) for d in dim)
    p = draw(st.sampled_from((2, 3, 5)))
    tuples = 1
    for d, k in zip(dim, e):
        tuples *= gaussian_binomial(d, k, p)
    assume(tuples <= 2000)  # keeps the oracle fast
    entries = st.integers(-2, 2)
    mats = [draw(st.lists(st.lists(entries, min_size=dim[s - 1],
                                   max_size=dim[s - 1]),
                          min_size=dim[t - 1], max_size=dim[t - 1]))
            for s, t in q.arrows]
    free = _independent(q, draw(st.permutations(range(n))))
    free -= draw(st.sets(st.integers(0, n - 1)))
    return make_rep(q, dim, mats), e, p, free


@given(small_counts())
@settings(deadline=None)
def test_count_matches_brute_force(case):
    M, e, p, free = case
    expected = brute_force_count(M, e, p)
    assert count_subreps(M, e, p) == expected
    # the count is exact for any independent free set, not only the greedy one
    with mock.patch.object(grassmannian, "free_vertices",
                           lambda q, dim, e: free):
        assert count_subreps(M, e, p) == expected


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
