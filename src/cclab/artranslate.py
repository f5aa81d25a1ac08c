"""Auslander-Reiten translate and inverse through Ext^1.

For a hereditary algebra A, tau M = D Ext^1(M, A) (Assem-Simson-
Skowronski, Elements, vol. 1, ch. IV): (tau M)_i = D Ext^1(M, P_i), and
an arrow a: i -> j, which gives P_j -> P_i by p |-> (a,) + p on paths,
acts by the transpose of the induced Ext^1(M, P_j) -> Ext^1(M, P_i).
Ext^1 is the cokernel of the intertwiner system that Hom reads, so tau
needs no presentation.  On f: M -> N, (tau f)_u is the transpose of
Ext^1(f, P_u), read on the same bases (ar_translate_maps).  tau^{-1} =
D tau D, where D is the duality to the opposite quiver; it is right
exact, and injective summands of the input turn into shifted
projectives P_i[1].  Summand multiplicities are read from the Euler
form, since tau kills projectives and tau^{-1} injectives; a projective
summand shows in dim (tau M)_u = dim Ext^1(M, P_u) alone.  The Hom-side
middle term Ker g (+) tau^{-1} Coker g is assembled in multiplication,
which reads tau^{-1} g = D tau(Dg) through ar_translate_maps.
"""

from __future__ import annotations

from operator import add

from .errors import PreconditionError
from .linalg import Mat
from .reps import (ClusterObject, Representation, _standard_battery,
                   all_paths, cluster_object, dual, ext1_dim, ext1_setup)


def summand_multiplicities(q, x, y) -> tuple:
    """<x, e_i> + <e_i, y> at every vertex i, in one pass over the arrows:
    x_i less x_s over the arrows s -> i, plus y_i less y_t over the
    arrows i -> t.  x and y are not checked.

    For x = dim M and y = dim tau M this is the multiplicity of P_i as a
    direct summand of M; for x = dim tau^{-1} M and y = dim M, that of I_i.
    tau kills P_j, tau^{-1} kills I_j, <dim P_j, e_i> = <e_i, dim I_j> =
    delta_ij, and on the rest N the Coxeter transform gives
    <dim N, e_i> + <e_i, dim tau N> = 0.
    """
    out = list(map(add, x, y))
    for s, t in q.arrows:
        out[t - 1] -= x[s - 1]
        out[s - 1] -= y[t - 1]
    return tuple(out)


def _tau_dims(M: Representation) -> list:
    """dim (tau M)_u = dim Ext^1(M, P_u) at every vertex u, without tau M."""
    return [ext1_dim(M, P) for P, _ in _standard_battery(M.quiver, M.field)]


def has_projective_summand(M: Representation) -> bool:
    """Whether M has a P_i summand, read from _tau_dims."""
    return any(summand_multiplicities(M.quiver, M.dim, _tau_dims(M)))


def ar_translate(M: Representation) -> Representation:
    """tau M; M must have no projective summands."""
    tau = ar_translate_unchecked(M)
    if any(summand_multiplicities(M.quiver, M.dim, tau.dim)):
        raise PreconditionError("module has a projective direct summand")
    return tau


def _tau(M: Representation):
    """(tau M, ext): ext holds, per vertex u, the cocycle coordinates of
    (M, P_u), the row of each and ext1_setup(M, P_u), which tau on maps
    out of or into M reads too.

    A cocycle of (M, P_u) has one coordinate per (arrow b: s -> t, path
    u -> t, basis vector of M_s), in the row order of _hom_system.  The
    map P_j -> P_i of an arrow a: i -> j sends the unit cocycle at
    (b, p, c) to the one at (b, (a,) + p, c), whose class is a column of
    the quotient map of Ext^1(M, P_i).
    """
    q, F = M.quiver, M.field
    paths, ext = all_paths(q), []
    for u, (P, _) in enumerate(_standard_battery(q, F), start=1):
        coords = [(b, p, c) for b, (s, t) in enumerate(q.arrows)
                  for p in paths[(u, t)] for c in range(M.dim[s - 1])]
        ext.append((coords, {x: r for r, x in enumerate(coords)},
                    *ext1_setup(M, P)))
    dim = tuple(len(indices) for _, _, indices, _ in ext)
    mats = []
    for a, (i, j) in enumerate(q.arrows):
        (coords, _, indices, _), (_, rows, _, Q) = ext[j - 1], ext[i - 1]
        images = [rows[(b, (a,) + p, c)]
                  for b, p, c in (coords[k] for k in indices)]
        mats.append(Mat._wrap(F, dim[j - 1], dim[i - 1],
                              [[row[r] for row in Q.data] for r in images]))
    return Representation(q, F, dim, mats), ext


def ar_translate_unchecked(M: Representation) -> Representation:
    """tau M = D Ext^1(M, A) for any M; its projective summands
    contribute nothing."""
    return _tau(M)[0]


def ar_translate_maps(M: Representation, N: Representation, maps):
    """tau M, tau N and tau f for each f: M -> N in maps, on the bases of
    _tau: at u the transpose of Ext^1(f, P_u).  The unit cocycle of N at
    (b, p, c), b: s -> t, pulls back to row c of f_s at the coordinates
    (b, p, -), and M's quotient map reads its class."""
    (tau_m, ext_m), (tau_n, ext_n) = _tau(M), _tau(N)
    out = []
    for f in maps:
        out.append([])
        for (_, rows, _, Q), (coords, _, indices, _) in zip(ext_m, ext_n):
            pulled = Mat(M.field, Q.cols, len(indices))
            for k, (b, p, c) in enumerate(coords[i] for i in indices):
                s = M.quiver.arrows[b][0]
                for x, v in enumerate(f[s - 1].data[c]):
                    pulled.data[rows[(b, p, x)]][k] = v
            out[-1].append(Q.mul(pulled).transpose())
    return tau_m, tau_n, out


def ar_inverse(M: Representation) -> ClusterObject:
    """tau^{-1} as a cluster object: injective summands become P_i[1].

    D turns M into a module over the opposite quiver and its injective
    summands into projective ones, which tau kills, so D tau D M is
    tau^{-1} of the injective-free rest.
    """
    inv = dual(ar_translate_unchecked(dual(M)))
    return cluster_object(inv, summand_multiplicities(M.quiver, inv.dim,
                                                      M.dim))
