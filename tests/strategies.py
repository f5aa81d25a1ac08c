"""Hypothesis strategies shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from cclab.linalg import GF
from cclab.quiver import validate_quiver
from cclab.reps import make_rep


@st.composite
def acyclic_quivers(draw, max_arrows=5):
    """A random acyclic quiver with n <= 4 vertices and parallel arrows,
    its vertices relabelled so that arrows need not run upwards."""
    n = draw(st.integers(1, 4))
    pairs = list(combinations(range(1, n + 1), 2))
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=max_arrows)
                  if pairs else st.just([]))
    label = draw(st.permutations(range(1, n + 1)))
    return validate_quiver(n, [(label[s - 1], label[t - 1])
                               for s, t in arrows])


@st.composite
def rep_pairs(draw, max_arrows=5, max_dim=3):
    """Two representations of one random acyclic quiver, n <= 4 vertices
    with parallel arrows and dims <= max_dim, over GF(p), p in
    {2, 3, 5, 23}, and a seeded Random."""
    q = draw(acyclic_quivers(max_arrows))
    F = GF(draw(st.sampled_from([2, 3, 5, 23])))

    def rep():
        dim = draw(st.tuples(*[st.integers(0, max_dim)] * q.n))
        return make_rep(q, dim, [
            draw(st.lists(st.lists(st.integers(0, F.p - 1),
                                   min_size=dim[s - 1], max_size=dim[s - 1]),
                          min_size=dim[t - 1], max_size=dim[t - 1]))
            for s, t in q.arrows], F)
    return rep(), rep(), draw(st.randoms(use_true_random=False))
