"""Hypothesis strategies shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from cclab.quiver import validate_quiver


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
