from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import mutation
from cclab.corpus import all_interval_modules
from cclab.character import cc
from cclab.errors import InputError
from cclab.laurent import LaurentPolynomial
from cclab.mutation import (apply_mutations, enumerate_cluster_variables,
                            exchange_matrix, initial_seed, mutate)
from cclab.quiver import (a2_quiver, a3_quiver, kronecker_quiver,
                          validate_quiver)
from cclab.reps import ClusterObject, cluster_object, zero_rep


def test_exchange_matrix_signs():
    assert exchange_matrix(a2_quiver()) == ((0, 1), (-1, 0))
    assert exchange_matrix(kronecker_quiver()) == ((0, 2), (-2, 0))


def test_mutation_is_involutive():
    for q in (a2_quiver(), a3_quiver(), kronecker_quiver()):
        s = initial_seed(q)
        s = apply_mutations(s, [1, 2, 1])  # move off the initial seed first
        for k in range(1, q.n + 1):
            assert mutate(mutate(s, k), k) == s


def test_a2_first_step():
    s = mutate(initial_seed(a2_quiver()), 1)
    assert str(s.cluster[0]) == "x1^-1 + x1^-1*x2"


def test_kronecker_first_step():
    s = mutate(initial_seed(kronecker_quiver()), 1)
    assert str(s.cluster[0]) == "x1^-1 + x1^-1*x2^2"


def test_invalid_direction():
    with pytest.raises(InputError):
        mutate(initial_seed(a2_quiver()), 3)


def test_a2_pentagon_closure():
    variables, stable = enumerate_cluster_variables(a2_quiver(), 5,
                                                    report_stable=True)
    assert stable
    got = {str(v) for v in variables}
    assert got == {
        "x1", "x2", "x1^-1 + x1^-1*x2", "x2^-1 + x1*x2^-1",
        "x1^-1*x2^-1 + x1^-1 + x2^-1",
    }


def test_negative_depth_is_refused():
    with pytest.raises(InputError, match="depth must be non-negative"):
        enumerate_cluster_variables(a2_quiver(), -1)


def test_depth_zero():
    variables = enumerate_cluster_variables(a3_quiver(), 0)
    assert {str(v) for v in variables} == {"x1", "x2", "x3"}


def test_a3_nine_variables():
    variables, stable = enumerate_cluster_variables(a3_quiver(), 6,
                                                    report_stable=True)
    assert stable and len(variables) == 9


def test_kronecker_does_not_stabilize():
    _, stable = enumerate_cluster_variables(kronecker_quiver(), 4,
                                            report_stable=True)
    assert not stable


def test_variables_laurent_positive():
    for v in enumerate_cluster_variables(a3_quiver(), 6):
        assert all(c > 0 for c in v.terms.values())


def test_oracle_matches_characters_a2_a3(primes):
    for q, depth in ((a2_quiver(), 5), (a3_quiver(), 6)):
        oracle = {str(v) for v in enumerate_cluster_variables(q, depth)}
        objs = [cluster_object(m) for m in all_interval_modules(q)]
        objs += [ClusterObject(zero_rep(q),
                               tuple(1 if j == i else 0 for j in range(q.n)))
                 for i in range(q.n)]
        images = {str(cc(o, primes).value) for o in objs}
        assert oracle == images


def test_monomial_starts_from_its_first_factor():
    """_monomial is the product of its factors, and one when empty."""
    for q in (a3_quiver(), kronecker_quiver()):
        x = apply_mutations(initial_seed(q), [1, 2, 1]).cluster
        assert mutation._monomial(x, (), q.n) == LaurentPolynomial.one(q.n)
        for i, j in ((0, 1), (1, 0), (0, 0)):
            assert (mutation._monomial(x, ((i, 1), (j, 2)), q.n).terms
                    == (x[i] * x[j] * x[j]).terms)


# -- reference: breadth-first search over labelled seeds ---------------------

def _seed_key(seed):
    return (seed.bmatrix, tuple(sorted(str(x) for x in seed.cluster)))


def labelled_closure(q, depth):
    """(sorted variable strings, stabilized) by mutating every labelled
    seed in every direction and dividing at every step."""
    start = initial_seed(q)
    variables = {str(x) for x in start.cluster}
    seen = {_seed_key(start)}
    layer = [start]
    stabilized = depth > 0  # depth 0 explores nothing
    for step in range(depth):
        next_layer = []
        grew = False
        for seed in layer:
            for k in range(1, q.n + 1):
                new = mutate(seed, k)
                key = _seed_key(new)
                if key in seen:
                    continue
                seen.add(key)
                next_layer.append(new)
                for x in new.cluster:
                    if str(x) not in variables:
                        variables.add(str(x))
                        grew = True
        if step == depth - 1 and grew:
            stabilized = False
        layer = next_layer
        if not layer:
            break
    return sorted(variables), stabilized


@st.composite
def quivers_and_depths(draw):
    """A random acyclic quiver on at most 5 vertices with a random
    labelling; double arrows only on 2 vertices, where the search stays
    small.  The depth shrinks as the branching grows."""
    n = draw(st.integers(1, 5))
    pairs = list(combinations(range(1, n + 1), 2))
    if n <= 2:
        arrows = draw(st.lists(st.sampled_from(pairs), max_size=2)
                      if pairs else st.just([]))
    else:
        arrows = sorted(draw(st.sets(st.sampled_from(pairs), max_size=5)))
    label = draw(st.permutations(range(1, n + 1)))
    q = validate_quiver(n, [(label[s - 1], label[t - 1]) for s, t in arrows])
    depth = draw(st.integers(0, {1: 3, 2: 6}.get(n, 4)))
    return q, depth


@given(quivers_and_depths())
@settings(deadline=None, max_examples=60)
def test_closure_matches_labelled_search(case):
    q, depth = case
    variables, stable = enumerate_cluster_variables(q, depth,
                                                    report_stable=True)
    assert ([str(x) for x in variables], stable) == labelled_closure(q, depth)


@st.composite
def exchange_matrices(draw):
    """A skew-symmetric n x n matrix, n <= 6, with entries in [-3, 3], and
    a direction."""
    n = draw(st.integers(1, 6))
    b = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        b[i][j] = draw(st.integers(-3, 3))
        b[j][i] = -b[i][j]
    return tuple(map(tuple, b)), draw(st.integers(0, n - 1))


@given(exchange_matrices())
def test_exchange_matches_matrix_mutation(case):
    """_exchange's B' is Fomin-Zelevinsky matrix mutation entry by entry,
    and each row i != k with b_ik = 0 comes back as the same tuple."""
    b, kk = case
    n = len(b)
    nb, plus, minus = mutation._exchange(b, kk)
    assert nb == tuple(tuple(
        -b[i][j] if kk in (i, j) else
        b[i][j] + (abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
        for j in range(n)) for i in range(n))
    assert all(nb[i] is b[i] for i in range(n) if i != kk and not b[i][kk])
    assert plus == tuple((i, b[i][kk]) for i in range(n) if b[i][kk] > 0)
    assert minus == tuple((i, -b[i][kk]) for i in range(n) if b[i][kk] < 0)


def _a5():
    return validate_quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


@pytest.mark.parametrize("q, depth, seeds, max_divisions", [
    (a3_quiver(), 6, 14, 15),
    (_a5(), 12, 132, 70),
    (kronecker_quiver(), 24, None, 48),
], ids=["a3", "a5", "kronecker"])
def test_closure_divides_once_per_exchange(monkeypatch, q, depth, seeds,
                                           max_divisions):
    """The search visits each unlabelled seed once (A3 and A5 have 14 and
    132 clusters; both graphs are exhausted before the depth cutoff, so
    every seed is expanded in all n directions), and divides once per
    exchange pair: a crossing pair of diagonals of the hexagon (15) or
    octagon (70), or one step along the Kronecker chain (2 * 24)."""
    calls = {"exchange": 0, "divide": 0}
    exchange, divide = mutation._exchange, mutation.divide_exact

    def counting_exchange(b, kk):
        calls["exchange"] += 1
        return exchange(b, kk)

    def counting_divide(a, b):
        calls["divide"] += 1
        return divide(a, b)

    monkeypatch.setattr(mutation, "_exchange", counting_exchange)
    monkeypatch.setattr(mutation, "divide_exact", counting_divide)
    enumerate_cluster_variables(q, depth)
    if seeds is not None:
        assert calls["exchange"] == q.n * seeds
    assert 0 < calls["divide"] <= max_divisions
