"""Auslander-Reiten translate and inverse via the Nakayama functor.

tau M is the kernel of nu(P1) -> nu(P0) for a minimal projective
presentation P1 -> P0 -> M -> 0.  tau^{-1} = D tau D, where D is the
duality to the opposite quiver; injective summands of the input turn
into shifted projectives P_i[1].  Summand multiplicities are read from
the Euler form, since tau kills projectives and tau^{-1} injectives.

Maps between sums of projectives are expanded in the path basis
Hom(P_u, P_v) = span{paths v -> u}, on which the Nakayama functor acts
path-by-path.
"""

from __future__ import annotations

from .errors import PreconditionError
from .linalg import Mat, column_basis, column_complement, hstack
from .quiver import euler_form
from .reps import (ClusterObject, Representation, _standard_battery,
                   all_paths, apply_path, cluster_object, direct_sum,
                   direct_sum_many, dual, kernel_rep)


# -- tops and radicals -----------------------------------------------------

def radical_bases(M: Representation) -> list:
    """Per-vertex column bases of rad M = sum of images of incoming arrows."""
    q, F = M.quiver, M.field
    out = []
    for j in range(1, q.n + 1):
        imgs = [M.matrices[a] for a in q.arrows_into(j)]
        out.append(column_basis(hstack(F, imgs, rows=M.dim[j - 1])))
    return out


# -- sums of standard modules with block bookkeeping -----------------------

def _standard_sum(q, field, kind, gens):
    """Direct sum of the standard modules of `kind` at the vertices in
    gens, plus per-block basis offsets."""
    col = ("projective", "injective").index(kind)
    summands = [_standard_battery(q, field)[u - 1][col] for u in gens]
    offsets = []
    pos = [0] * q.n
    for S in summands:
        offsets.append(tuple(pos))
        pos = [a + b for a, b in zip(pos, S.dim)]
    return direct_sum_many(q, summands, field), offsets


# -- projective covers -----------------------------------------------------

def projective_cover(M: Representation):
    """Minimal cover: (generator vertices, P0, block offsets, surjection pi)."""
    q, F = M.quiver, M.field
    paths = all_paths(q)
    rads = radical_bases(M)
    gens = []      # vertex of each generator
    gen_vecs = []  # chosen top-lifting vector in M at that vertex
    for i in range(1, q.n + 1):
        comp = column_complement(F, rads[i - 1])
        for c in range(comp.cols):
            gens.append(i)
            gen_vecs.append(Mat(F, M.dim[i - 1], 1,
                                [[comp.data[r][c]] for r in range(M.dim[i - 1])]))
    P0, offsets = _standard_sum(q, F, "projective", gens)
    pi = [Mat(F, M.dim[j], P0.dim[j]) for j in range(q.n)]
    for g, (u, v) in enumerate(zip(gens, gen_vecs)):
        for j in range(1, q.n + 1):
            for k, path in enumerate(paths[(u, j)]):
                img = apply_path(M, path, u).mul(v)
                col = offsets[g][j - 1] + k
                for r in range(M.dim[j - 1]):
                    pi[j - 1].data[r][col] = img.data[r][0]
    return gens, P0, offsets, pi


# -- Nakayama functor on maps between standard sums ------------------------

def _nu_of_proj_map(q, field, f, gens1, offs1, gens0, offs0):
    """Apply nu to f: (+)P_{gens1} -> (+)P_{gens0}, giving (+)I -> (+)I.

    Block Hom(P_u, P_v) is spanned by paths v -> u; the coefficient of a
    path p is read off at vertex u against the trivial-path generator.
    On injectives the path p acts by chopping itself off the tail.
    """
    paths = all_paths(q)
    I1, ioffs1 = _standard_sum(q, field, "injective", gens1)
    I0, ioffs0 = _standard_sum(q, field, "injective", gens0)
    nf = [Mat(field, I0.dim[j], I1.dim[j]) for j in range(q.n)]
    for g1, u in enumerate(gens1):
        col_u = offs1[g1][u - 1] + paths[(u, u)].index(())
        for g0, v in enumerate(gens0):
            for p in paths[(v, u)]:
                row_p = offs0[g0][u - 1] + paths[(v, u)].index(p)
                c = f[u - 1].data[row_p][col_u]
                if field.is_zero(c):
                    continue
                lp = len(p)
                for j in range(1, q.n + 1):
                    for k, r in enumerate(paths[(j, u)]):
                        if lp and (lp > len(r) or r[len(r) - lp:] != p):
                            continue
                        rr = r[:len(r) - lp]
                        row = ioffs0[g0][j - 1] + paths[(j, v)].index(rr)
                        col = ioffs1[g1][j - 1] + k
                        nf[j - 1].data[row][col] = field.add(
                            nf[j - 1].data[row][col], c)
    return I1, I0, nf


# -- the translate and its inverse ----------------------------------------

def minimal_presentation(M: Representation):
    """Minimal P1 -> P0 -> M -> 0, as (gens1, offs1, gens0, offs0, f):
    the generator vertices and block offsets of P1 and P0, and f."""
    q, F = M.quiver, M.field
    gens0, P0, offs0, pi = projective_cover(M)
    K, incl = kernel_rep(pi, P0, M)
    gens1, P1, offs1, rho = projective_cover(K)
    f = [incl[j].mul(rho[j]) for j in range(q.n)]
    return gens1, offs1, gens0, offs0, f


def summand_multiplicities(q, x, y) -> tuple:
    """<x, e_i> + <e_i, y> at every vertex i.

    For x = dim M and y = dim tau M this is the multiplicity of P_i as a
    direct summand of M; for x = dim tau^{-1} M and y = dim M, that of I_i.
    tau kills P_j, tau^{-1} kills I_j, <dim P_j, e_i> = <e_i, dim I_j> =
    delta_ij, and on the rest N the Coxeter transform gives
    <dim N, e_i> + <e_i, dim tau N> = 0.
    """
    units = [tuple(int(j == i) for j in range(q.n)) for i in range(q.n)]
    return tuple(euler_form(q, x, u) + euler_form(q, u, y) for u in units)


def has_projective_summand(M: Representation) -> bool:
    return any(summand_multiplicities(M.quiver, M.dim,
                                      ar_translate_unchecked(M).dim))


def ar_translate(M: Representation) -> Representation:
    """tau M = Ker(nu P1 -> nu P0); M must have no projective summands."""
    tau = ar_translate_unchecked(M)
    if any(summand_multiplicities(M.quiver, M.dim, tau.dim)):
        raise PreconditionError("module has a projective direct summand")
    return tau


def ar_translate_unchecked(M: Representation) -> Representation:
    """tau M for any M; its projective summands contribute nothing."""
    if M.is_zero():
        return M
    q, F = M.quiver, M.field
    gens1, offs1, gens0, offs0, f = minimal_presentation(M)
    I1, I0, nf = _nu_of_proj_map(q, F, f, gens1, offs1, gens0, offs0)
    tau, _ = kernel_rep(nf, I1, I0)
    return tau


def ar_inverse(M: Representation) -> ClusterObject:
    """tau^{-1} as a cluster object: injective summands become P_i[1].

    D turns M into a module over the opposite quiver and its injective
    summands into projective ones, which tau kills, so D tau D M is
    tau^{-1} of the injective-free rest.
    """
    inv = dual(ar_translate_unchecked(dual(M)))
    return cluster_object(inv, summand_multiplicities(M.quiver, inv.dim,
                                                      M.dim))


def hom_side_middle_term(K: Representation,
                         C: Representation) -> ClusterObject:
    """Middle term for g in Hom(L, tau M): Ker g (+) tau^{-1}(Coker g),
    from K = Ker g and C = Coker g.

    Injective summands of the cokernel contribute shifted projectives;
    this is the hereditary mapping-cone splitting.
    """
    rest = ar_inverse(C)
    return ClusterObject(direct_sum(K, rest.module), rest.shifted)
