"""Quiver representations with the homological toolkit.

Representations carry exact matrices (rationals by default, prime-field
entries for per-prime work).  Morphisms are vertex-indexed tuples of
matrices.  Hom and Ext^1 share one matrix: the intertwiner system, whose
kernel is Hom and whose negative is the arrow-wise coboundary of the
hereditary path algebra, with Ext^1 as its cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InputError, PreconditionError, PrimeInstabilityError
from .linalg import (GF, Mat, QQ, column_basis, column_complement,
                     complement_indices, hstack)
from .quiver import Quiver, check_dimvec


@dataclass
class Representation:
    quiver: Quiver
    field: object
    dim: tuple[int, ...]
    matrices: list  # one Mat per arrow, shape dim[t-1] x dim[s-1]

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def is_zero(self) -> bool:
        return self.total_dim == 0


@dataclass
class ClusterObject:
    """A module together with shifted-projective multiplicities P_i[1]."""

    module: Representation
    shifted: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.module.is_zero() and not any(self.shifted)


@dataclass
class ExtCocycle:
    """Arrow-indexed cocycle for an extension of M by L (0 -> L -> Y -> M -> 0)."""

    M: Representation
    L: Representation
    components: list  # per arrow a:i->j, a Mat of shape L_j x M_i


def make_rep(q: Quiver, dim, matrices, field=QQ) -> Representation:
    dim = check_dimvec(q, dim)
    if len(matrices) != len(q.arrows):
        raise InputError(
            f"expected {len(q.arrows)} matrices, got {len(matrices)}")
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rows, cols = dim[t - 1], dim[s - 1]
        data = matrices[a]
        if isinstance(data, Mat):
            if (data.rows, data.cols) != (rows, cols):
                raise InputError(f"matrix shape mismatch at arrow {a}")
            mats.append(data if data.field == field else
                        Mat(field, rows, cols, data.data))
            continue
        if rows == 0 or cols == 0:
            if data not in ([], None) and any(len(r) for r in data):
                raise InputError(f"matrix at arrow {a} should be empty")
            mats.append(Mat(field, rows, cols))
        else:
            mats.append(Mat(field, rows, cols, data))
    return Representation(q, field, dim, mats)


def zero_rep(q: Quiver, field=QQ) -> Representation:
    return Representation(q, field, (0,) * q.n, [
        Mat(field, 0, 0) for _ in q.arrows])


def cluster_object(module: Representation, shifted=None) -> ClusterObject:
    shifted = tuple(shifted) if shifted is not None else (0,) * module.quiver.n
    if len(shifted) != module.quiver.n or any(x < 0 for x in shifted):
        raise InputError("bad shifted multiplicity vector")
    return ClusterObject(module, shifted)


def max_entry_height(M: Representation) -> int:
    """Largest numerator/denominator magnitude across all matrix entries."""
    h = 0
    for m in M.matrices:
        for row in m.data:
            for x in row:
                f = Fraction(x)
                h = max(h, abs(f.numerator), f.denominator)
    return h


def reduce_rep(M: Representation, p: int) -> Representation:
    """Reduce a rational representation modulo p."""
    if isinstance(M.field, GF):
        if M.field.p != p:
            raise InputError("representation already carries a different prime")
        return M
    F = GF(p)
    return Representation(M.quiver, F, M.dim, [
        Mat(F, m.rows, m.cols, m.data) for m in M.matrices])


# -- paths and standard modules -------------------------------------------

_PATH_CACHE: dict[Quiver, dict] = {}


def all_paths(q: Quiver) -> dict:
    """Ordered lists of directed paths, keyed by (source, target).

    A path is a tuple of arrow indices in traversal order; the empty tuple
    is the trivial path at each vertex.  Finite because q is acyclic.
    """
    if q in _PATH_CACHE:
        return _PATH_CACHE[q]
    paths = {(i, j): [] for i in range(1, q.n + 1) for j in range(1, q.n + 1)}
    for i in range(1, q.n + 1):
        frontier = [((), i)]
        while frontier:
            new = []
            for path, end in frontier:
                paths[(i, end)].append(path)
                for a, (s, t) in enumerate(q.arrows):
                    if s == end:
                        new.append((path + (a,), t))
            frontier = new
    _PATH_CACHE[q] = paths
    return paths


def apply_path(M: Representation, path, vertex: int) -> Mat:
    """Composite matrix of M along a path starting at `vertex`."""
    cur = Mat.identity(M.field, M.dim[vertex - 1])
    for a in path:
        cur = M.matrices[a].mul(cur)
    return cur


def projective_rep(q: Quiver, i: int, field=QQ) -> Representation:
    """P_i with path basis: (P_i)_j = span of paths i -> j."""
    paths = all_paths(q)
    dim = tuple(len(paths[(i, j)]) for j in range(1, q.n + 1))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        m = Mat(field, dim[t - 1], dim[s - 1])
        for col, p in enumerate(paths[(i, s)]):
            row = paths[(i, t)].index(p + (a,))
            m.data[row][col] = field.one
        mats.append(m)
    return Representation(q, field, dim, mats)


def injective_rep(q: Quiver, i: int, field=QQ) -> Representation:
    """I_i with path basis: (I_i)_j = span of paths j -> i."""
    paths = all_paths(q)
    dim = tuple(len(paths[(j, i)]) for j in range(1, q.n + 1))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        # an arrow acts by chopping itself off the front of a path into i
        m = Mat(field, dim[t - 1], dim[s - 1])
        for col, p in enumerate(paths[(s, i)]):
            if p and p[0] == a:
                row = paths[(t, i)].index(p[1:])
                m.data[row][col] = field.one
        mats.append(m)
    return Representation(q, field, dim, mats)


def simple_rep(q: Quiver, i: int, field=QQ) -> Representation:
    dim = tuple(1 if j == i else 0 for j in range(1, q.n + 1))
    return make_rep(q, dim, [[] for _ in q.arrows], field)


def standard_module(q: Quiver, kind: str, i: int, field=QQ) -> Representation:
    if not 1 <= i <= q.n:
        raise InputError(f"vertex {i} out of range")
    if kind == "simple":
        return simple_rep(q, i, field)
    if kind == "projective":
        return projective_rep(q, i, field)
    if kind == "injective":
        return injective_rep(q, i, field)
    raise InputError(f"unknown standard module kind: {kind}")


# -- direct sums -----------------------------------------------------------

def direct_sum(M: Representation, N: Representation) -> Representation:
    if M.quiver != N.quiver or M.field != N.field:
        raise InputError("direct sum of incompatible representations")
    dim = tuple(a + b for a, b in zip(M.dim, N.dim))
    mats = []
    for a, (s, t) in enumerate(M.quiver.arrows):
        m = Mat(M.field, dim[t - 1], dim[s - 1])
        A, B = M.matrices[a], N.matrices[a]
        for i in range(A.rows):
            m.data[i][:A.cols] = A.data[i][:]
        for i in range(B.rows):
            m.data[A.rows + i][A.cols:] = B.data[i][:]
        mats.append(m)
    return Representation(M.quiver, M.field, dim, mats)


def direct_sum_many(q: Quiver, reps, field=QQ) -> Representation:
    out = zero_rep(q, field)
    for r in reps:
        out = direct_sum(out, r)
    return out


def sum_cluster_objects(A: ClusterObject, B: ClusterObject) -> ClusterObject:
    return ClusterObject(direct_sum(A.module, B.module),
                         tuple(a + b for a, b in zip(A.shifted, B.shifted)))


# -- Hom -------------------------------------------------------------------

def _hom_system(M: Representation, N: Representation) -> Mat:
    """Matrix of the intertwiner system over the vectorized f_i blocks."""
    q = M.quiver
    F = M.field
    offs = []
    total = 0
    for i in range(q.n):
        offs.append(total)
        total += N.dim[i] * M.dim[i]
    rows = sum(N.dim[t - 1] * M.dim[s - 1] for s, t in q.arrows)
    sys = Mat(F, rows, total)
    r0 = 0
    for a, (s, t) in enumerate(q.arrows):
        Ma, Na = M.matrices[a], N.matrices[a]
        ns, nt = N.dim[s - 1], N.dim[t - 1]
        ms, mt = M.dim[s - 1], M.dim[t - 1]
        # equation f_t @ Ma - Na @ f_s = 0, entry (r, c) of the result
        for r in range(nt):
            for c in range(ms):
                row = sys.data[r0 + r * ms + c]
                for k in range(mt):
                    # f_t[r][k] * Ma[k][c]
                    row[offs[t - 1] + r * mt + k] = F.add(
                        row[offs[t - 1] + r * mt + k], Ma.data[k][c])
                for k in range(ns):
                    row[offs[s - 1] + k * ms + c] = F.sub(
                        row[offs[s - 1] + k * ms + c], Na.data[r][k])
        r0 += nt * ms
    return sys


def _blocks(F, vec, shapes) -> list:
    """Cut a flat vector into row-major matrices of the given shapes."""
    out = []
    pos = 0
    for r, c in shapes:
        m = Mat(F, r, c)
        m.data = [vec[pos + i * c: pos + (i + 1) * c] for i in range(r)]
        pos += r * c
        out.append(m)
    return out


def combine(basis, coeffs) -> list:
    """The combination sum_k coeffs[k] * basis[k] of matrix tuples."""
    out = [m.scale(coeffs[0]) for m in basis[0]]
    for b, c in zip(basis[1:], coeffs[1:]):
        out = [x.add(y.scale(c)) for x, y in zip(out, b)]
    return out


def hom_basis(M: Representation, N: Representation) -> list:
    """Basis of Hom(M, N) as vertex-indexed matrix tuples."""
    if M.quiver != N.quiver or M.field != N.field:
        raise InputError("Hom of incompatible representations")
    ker = _hom_system(M, N).nullspace()
    shapes = list(zip(N.dim, M.dim))
    return [tuple(_blocks(M.field, ker.column(j), shapes))
            for j in range(ker.cols)]


def hom_dim(M: Representation, N: Representation) -> int:
    total = sum(n * m for n, m in zip(N.dim, M.dim))
    return total - _hom_system(M, N).rank()


def stable_hom_dim(M: Representation, N: Representation, primes) -> int:
    """hom_dim computed per prime; raises if the answer varies with p."""
    dims = {p: hom_dim(reduce_rep(M, p), reduce_rep(N, p)) for p in primes}
    if len(set(dims.values())) != 1:
        raise PrimeInstabilityError(f"Hom dimension varies with prime: {dims}")
    return next(iter(dims.values()))


# -- Ext^1 -----------------------------------------------------------------

def ext1_setup(M: Representation, L: Representation):
    """Coboundary matrix and standard-vector coset representatives.

    The coboundary d(f)_a = L_a f_s - f_t M_a of the complex whose cokernel
    is Ext^1(M, L) is the negative of the intertwiner system of Hom(M, L),
    so both are read off one matrix.  Returns (matrix, indices): the matrix
    spans im(d) with its columns, and the unit cocycles at the indices span
    a complement (a basis of Ext^1 representatives).
    """
    system = _hom_system(M, L)
    return system, complement_indices(M.field, system)


def unit_cocycles(M: Representation, L: Representation,
                  indices) -> list[ExtCocycle]:
    """The cocycles equal to the unit vector at each given coordinate."""
    F = M.field
    shapes = [(L.dim[t - 1], M.dim[s - 1]) for s, t in M.quiver.arrows]
    rows = sum(r * c for r, c in shapes)
    out = []
    for i in indices:
        vec = [F.zero] * rows
        vec[i] = F.one
        out.append(ExtCocycle(M, L, _blocks(F, vec, shapes)))
    return out


def ext1_basis(M: Representation, L: Representation) -> list[ExtCocycle]:
    if M.quiver != L.quiver or M.field != L.field:
        raise InputError("Ext of incompatible representations")
    return unit_cocycles(M, L, ext1_setup(M, L)[1])


def ext1_dim(M: Representation, L: Representation) -> int:
    system = _hom_system(M, L)
    return system.rows - system.rank()


def stable_ext1_dim(M: Representation, L: Representation, primes) -> int:
    dims = {p: ext1_dim(reduce_rep(M, p), reduce_rep(L, p)) for p in primes}
    if len(set(dims.values())) != 1:
        raise PrimeInstabilityError(f"Ext^1 dimension varies with prime: {dims}")
    return next(iter(dims.values()))


def middle_term(cocycle: ExtCocycle) -> Representation:
    """Middle term Y of the extension 0 -> L -> Y -> M -> 0 defined by phi."""
    M, L = cocycle.M, cocycle.L
    F = M.field
    dim = tuple(a + b for a, b in zip(L.dim, M.dim))
    mats = []
    for a, (s, t) in enumerate(M.quiver.arrows):
        La, Ma, Pa = L.matrices[a], M.matrices[a], cocycle.components[a]
        if (Pa.rows, Pa.cols) != (L.dim[t - 1], M.dim[s - 1]):
            raise InputError("cocycle component shape mismatch")
        m = Mat(F, dim[t - 1], dim[s - 1])
        for i in range(La.rows):
            m.data[i][:La.cols] = La.data[i][:]
            m.data[i][La.cols:] = Pa.data[i][:]
        for i in range(Ma.rows):
            m.data[La.rows + i][La.cols:] = Ma.data[i][:]
        mats.append(m)
    return Representation(M.quiver, F, dim, mats)


# -- subobjects and quotients ---------------------------------------------

def sub_rep(M: Representation, bases: list) -> tuple[Representation, list]:
    """Subrepresentation spanned by per-vertex column bases.

    Returns (S, inclusion); raises if the given subspaces are not
    arrow-stable.
    """
    F = M.field
    mats = []
    for a, (s, t) in enumerate(M.quiver.arrows):
        img = M.matrices[a].mul(bases[s - 1])
        try:
            mats.append(bases[t - 1].solve(img))
        except ValueError as exc:
            raise InputError("subspaces are not arrow-stable") from exc
    dim = tuple(b.cols for b in bases)
    return Representation(M.quiver, F, dim, mats), list(bases)


def kernel_rep(f: list, M: Representation, N: Representation):
    """Kernel of a morphism f: M -> N, as (K, inclusion into M)."""
    bases = []
    for i in range(M.quiver.n):
        bases.append(f[i].nullspace())
    return sub_rep(M, bases)


def quotient_rep(M: Representation, sub_bases: list):
    """Quotient of M by an arrow-stable subrepresentation.

    Returns (Q, projection maps M_i -> Q_i).
    """
    F = M.field
    comps = [column_complement(F, b) for b in sub_bases]
    full = [hstack(F, [b, c], rows=M.dim[i])
            for i, (b, c) in enumerate(zip(sub_bases, comps))]
    inv = [m.inverse() if m.rows else m for m in full]
    projs = []
    for i in range(M.quiver.n):
        k = sub_bases[i].cols
        pr = Mat(F, M.dim[i] - k, M.dim[i])
        pr.data = [row[:] for row in inv[i].data[k:]]
        projs.append(pr)
    mats = []
    dim = tuple(M.dim[i] - sub_bases[i].cols for i in range(M.quiver.n))
    for a, (s, t) in enumerate(M.quiver.arrows):
        sect = Mat(F, M.dim[s - 1], dim[s - 1])
        k = sub_bases[s - 1].cols
        for r in range(M.dim[s - 1]):
            sect.data[r] = full[s - 1].data[r][k:]
        mats.append(projs[t - 1].mul(M.matrices[a]).mul(sect))
    return Representation(M.quiver, F, dim, mats), projs


def cokernel_rep(f: list, M: Representation, N: Representation):
    """Cokernel of f: M -> N, as (C, projection maps)."""
    return quotient_rep(N, [column_basis(f[i]) for i in range(N.quiver.n)])


# -- isomorphism testing ---------------------------------------------------

def _battery(q: Quiver, field) -> list[Representation]:
    out = []
    for i in range(1, q.n + 1):
        out.append(simple_rep(q, i, field))
        out.append(projective_rep(q, i, field))
        out.append(injective_rep(q, i, field))
    return out


def fingerprint(M: Representation) -> tuple:
    """Cheap isomorphism invariant: dims + Hom battery + dim End."""
    battery = _battery(M.quiver, M.field)
    dims = []
    for B in battery:
        dims.append(hom_dim(M, B))
        dims.append(hom_dim(B, M))
    return (M.dim, tuple(dims), hom_dim(M, M))


def _has_invertible_combination(basis, dim) -> bool:
    """Whether some sum_k t_k f_k over a Hom basis f has full rank dim[i]
    at every vertex i, searched on the grid {0..sum(dim)}^k."""
    for t in product(range(sum(dim) + 1), repeat=len(basis)):
        g = combine(basis, t)
        if all(g[i].rank() == dim[i] for i in range(len(dim))):
            return True
    return False


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Exact isomorphism test: fingerprint, then an invertible intertwiner.

    An isomorphism M -> N forces dim Hom(M, N) = dim End(M), which rejects
    most non-isomorphic pairs before any search.  The product of vertex
    determinants of sum_k t_k f_k over a basis f of Hom(M, N) has degree
    at most dim M in each t_k.  By the combinatorial Nullstellensatz it is
    a nonzero polynomial iff it is nonzero somewhere on the grid
    {0..dim M}^k, so the grid is searched for a point where every vertex
    map has full rank.  Over F_p the grid needs p > dim M.
    """
    if M.quiver != N.quiver or M.field != N.field:
        return False
    if M.dim != N.dim:
        return False
    if M.total_dim == 0:
        return True
    if isinstance(M.field, GF) and M.field.p <= M.total_dim:
        raise PreconditionError(
            f"isomorphism test over GF({M.field.p}) needs a prime above "
            f"dim M = {M.total_dim}")
    if fingerprint(M) != fingerprint(N):
        return False
    basis = hom_basis(M, N)
    if len(basis) != hom_dim(M, M):
        return False
    return _has_invertible_combination(basis, M.dim)
