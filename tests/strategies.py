"""Hypothesis strategies, seeded base changes and matrix helpers shared by
the test modules."""

from itertools import combinations, product

from hypothesis import strategies as st

from cclab.artranslate import ar_translate_maps
from cclab.linalg import GF, QQ, Mat
from cclab.quiver import validate_quiver
from cclab.reps import (dual, hom_dim, injective_rep, make_rep,
                        projective_rep, simple_rep)


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
def gf_modules(draw, q, F, max_dim=3):
    """A representation of q over GF(p), F = GF(p), with dims <= max_dim
    and entries in [0, p)."""
    dim = draw(st.tuples(*[st.integers(0, max_dim)] * q.n))
    return make_rep(q, dim, [
        draw(st.lists(st.lists(st.integers(0, F.p - 1),
                               min_size=dim[s - 1], max_size=dim[s - 1]),
                      min_size=dim[t - 1], max_size=dim[t - 1]))
        for s, t in q.arrows], F)


@st.composite
def rep_pairs(draw, max_arrows=5, max_dim=3):
    """Two representations of one random acyclic quiver, n <= 4 vertices
    with parallel arrows and dims <= max_dim, over GF(p), p in
    {2, 3, 5, 23}, and a seeded Random."""
    q = draw(acyclic_quivers(max_arrows))
    F = GF(draw(st.sampled_from([2, 3, 5, 23])))
    module = gf_modules(q, F, max_dim)
    return draw(module), draw(module), draw(st.randoms(use_true_random=False))


def hstack(field, mats):
    """The matrices side by side, one row count for all."""
    rows = mats[0].rows
    return Mat(field, rows, sum(m.cols for m in mats),
               [[x for m in mats for x in m.data[i]] for i in range(rows)])


def box_bounds(dim) -> dict:
    """{e: sum e_v (d_v - e_v)} for every e <= dim: the dimension of the
    product of Grassmannians that holds Gr_e of any module of dimension
    dim, the quiver-blind reference for tangent_bounds."""
    return {e: sum(k * (n - k) for n, k in zip(dim, e))
            for e in product(*[range(n + 1) for n in dim])}


def hom_battery(M):
    """An isomorphism invariant of M: its dims, dim Hom in both directions
    against each S_i, P_i and I_i, and dim End M, all 6n + 1 solved as
    intertwiner systems.  Not complete: R_l (+) R_m and R_l[2] on
    Kronecker share it but not a character."""
    q, F = M.quiver, M.field
    dims = []
    for i in range(1, q.n + 1):
        for B in (simple_rep(q, i, F), projective_rep(q, i, F),
                  injective_rep(q, i, F)):
            dims += [hom_dim(M, B), hom_dim(B, M)]
    return (M.dim, tuple(dims), hom_dim(M, M))


def unimodular(rng, n: int):
    """A seeded n x n integer matrix of determinant +-1 and its inverse:
    a product of shears and one sign."""
    g, inv = Mat.identity(QQ, n), Mat.identity(QQ, n)
    for _ in range(2 * n if n > 1 else 0):
        (i, j), c = rng.sample(range(n), 2), rng.choice((-2, -1, 1, 2))
        shear, back = Mat.identity(QQ, n), Mat.identity(QQ, n)
        shear.data[i][j], back.data[i][j] = QQ.of(c), QQ.of(-c)
        g, inv = shear.mul(g), inv.mul(back)
    if n and rng.random() < 0.5:
        sign = Mat.identity(QQ, n)
        sign.data[0][0] = QQ.of(-1)
        g, inv = sign.mul(g), inv.mul(sign)
    return g, inv


def base_changed(R, rng):
    """R with the seeded basis change g_v of unimodular at each vertex:
    g_t R_a g_s^{-1} at each arrow a: s -> t."""
    gs = [unimodular(rng, n) for n in R.dim]
    return make_rep(R.quiver, R.dim, [
        gs[t - 1][0].mul(m).mul(gs[s - 1][1]).data
        for m, (s, t) in zip(R.matrices, R.quiver.arrows)])


def tau_inverse_maps(L, T, maps):
    """tau^{-1} L, tau^{-1} T and tau^{-1} f = D tau D f for each f: L -> T
    in maps: the duals and transposes of ar_translate_maps on DT, DL and
    the transposed maps."""
    tau_t, tau_l, images = ar_translate_maps(dual(T), dual(L), [
        [m.transpose() for m in f] for f in maps])
    return dual(tau_l), dual(tau_t), [[m.transpose() for m in f]
                                      for f in images]
