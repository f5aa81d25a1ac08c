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
from functools import lru_cache
from itertools import accumulate, product
from operator import mul, neg

from .errors import (ConfigurationError, InputError, PreconditionError,
                     PrimeInstabilityError)
from .linalg import GF, Mat, QQ, _nullspace, _rank_mod, quotient_map
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
        if data is not None and not (isinstance(data, (list, tuple)) and all(
                isinstance(r, (list, tuple)) for r in data)):
            raise InputError(f"matrix at arrow {a} is not a list of rows")
        if rows == 0 or cols == 0:
            # [] or null, else one empty row a row, or [[]] for no rows
            if data and (any(data) or len(data) != max(rows, 1)):
                raise InputError(f"matrix at arrow {a} should be empty")
            mats.append(Mat(field, rows, cols))
        elif len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"matrix shape mismatch at arrow {a}")
        else:
            mats.append(Mat(field, rows, cols, data))
    return Representation(q, field, dim, mats)


def zero_rep(q: Quiver, field=QQ) -> Representation:
    return Representation(q, field, (0,) * q.n, [
        Mat(field, 0, 0) for _ in q.arrows])


def cluster_object(module: Representation, shifted=None) -> ClusterObject:
    shifted = tuple(shifted) if shifted is not None else (0,) * module.quiver.n
    if len(shifted) != module.quiver.n or any(x < 0 for x in shifted):
        raise InputError(
            f"shifted vector needs {module.quiver.n} non-negative entries")
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
    """Reduce a rational representation modulo p; ConfigurationError when
    p divides a denominator."""
    if isinstance(M.field, GF):
        if M.field.p != p:
            raise InputError("representation already carries a different prime")
        return M
    return Representation(M.quiver, GF(p), M.dim, reduce_mats(M.matrices, p))


def reduce_mats(mats, p: int) -> list:
    """Reduce rational matrices modulo p; ConfigurationError when p
    divides a denominator."""
    F = GF(p)
    try:
        return [Mat(F, m.rows, m.cols, m.data) for m in mats]
    except ZeroDivisionError as exc:
        raise ConfigurationError(
            f"prime {p} collides with matrix denominators") from exc


# -- paths and standard modules -------------------------------------------

@lru_cache(maxsize=64)
def all_paths(q: Quiver) -> dict:
    """Ordered lists of directed paths, keyed by (source, target).

    A path is a tuple of arrow indices in traversal order; the empty tuple
    is the trivial path at each vertex.  Finite because q is acyclic.  The
    result is shared between callers and must not be modified.
    """
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
    return paths


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
    """I_i = D P_i of the opposite quiver: (I_i)_j is dual to the span of
    paths j -> i."""
    return dual(projective_rep(_opposite(q), i, field))


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


def dual(M: Representation) -> Representation:
    """D M = Hom_k(M, k): a representation of the opposite quiver, each
    arrow reversed and its matrix transposed.  D swaps P_i and I_i, and
    dual(dual(M)) == M."""
    return Representation(_opposite(M.quiver), M.field, M.dim,
                          [m.transpose() for m in M.matrices])


def _opposite(q: Quiver) -> Quiver:
    return Quiver(q.n, tuple((t, s) for s, t in q.arrows))


# -- Hom -------------------------------------------------------------------

def _hom_system(M: Representation, N: Representation) -> Mat:
    """Matrix of the intertwiner system over the vectorized f_i blocks;
    InputError unless M and N share their quiver and field."""
    if M.quiver != N.quiver or M.field != N.field:
        raise InputError("Hom and Ext^1 need one quiver and one field")
    F = M.field
    rows = _system_rows(M.quiver.arrows,
                        (M.dim, [m.data for m in M.matrices]),
                        (N.dim, [m.data for m in N.matrices]),
                        F.zero, lambda x: F.of(-x))
    return Mat._wrap(F, len(rows), sum(map(mul, N.dim, M.dim)), rows)


def _system_rows(arrows, M, N, zero, neg) -> list:
    """The rows of the intertwiner system of Hom(M, N), for M and N given
    as (dim, arrow matrices as rows): per arrow a: s -> t the equation
    f_t M_a - N_a f_s = 0, whose entry (r, c) has the coefficient
    M_a[k][c] on f_t[r][k] and neg(N_a[r][k]) on f_s[k][c].

    Every entry is written once: the rows of a are its own, and s != t on
    an acyclic quiver, so its f_t and f_s columns are apart.
    """
    (m_dim, m_mats), (n_dim, n_mats) = M, N
    offs = [0, *accumulate(map(mul, n_dim, m_dim))]
    width = offs[-1]
    rows = []
    for (s, t), Ma, Na in zip(arrows, m_mats, n_mats):
        ms, mt = m_dim[s - 1], m_dim[t - 1]
        off_s, end_s = offs[s - 1], offs[s - 1] + n_dim[s - 1] * ms
        ma_cols = list(zip(*Ma)) if Ma else [()] * ms
        for r, na in enumerate(Na):
            neg_na = list(map(neg, na))
            lo = offs[t - 1] + r * mt
            for c, col in enumerate(ma_cols):
                row = [zero] * width
                row[lo: lo + mt] = col
                row[off_s + c: end_s: ms] = neg_na
                rows.append(row)
    return rows


def _blocks(F, vec, shapes) -> list:
    """Cut a flat vector into row-major matrices of the given shapes."""
    out = []
    pos = 0
    for r, c in shapes:
        out.append(Mat._wrap(F, r, c, [vec[pos + i * c: pos + (i + 1) * c]
                                       for i in range(r)]))
        pos += r * c
    return out


def combine(basis, coeffs) -> list:
    """The combination sum_k coeffs[k] * basis[k] of matrix tuples."""
    out = [m.scale(coeffs[0]) for m in basis[0]]
    for b, c in zip(basis[1:], coeffs[1:]):
        out = [x.add(y.scale(c)) for x, y in zip(out, b)]
    return out


def hom_basis(M: Representation, N: Representation) -> list:
    """Basis of Hom(M, N) as vertex-indexed matrix tuples."""
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
    """Standard-vector coset representatives of Ext^1(M, L) and the
    quotient map onto them.

    The coboundary d(f)_a = L_a f_s - f_t M_a of the complex whose cokernel
    is Ext^1(M, L) is the negative of the intertwiner system of Hom(M, L),
    so both are read off one matrix.  Returns (indices, Q): the unit
    cocycles at the indices span a complement of im(d) (a basis of Ext^1
    representatives), and Q sends a cocycle to its class on that basis.
    """
    return quotient_map(M.field, _hom_system(M, L))


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
    return unit_cocycles(M, L, ext1_setup(M, L)[0])


def ext1_dim(M: Representation, L: Representation) -> int:
    system = _hom_system(M, L)
    return system.rows - system.rank()


def _ext1(arrows, U, Q, p: int) -> int:
    """dim Ext^1(U, Q) over GF(p) for U and Q as (dim, arrow matrices as
    int rows): the rows of the intertwiner system of Hom(U, Q) less its
    rank, which is 0 with no rows or no columns."""
    rows = _system_rows(arrows, U, Q, 0, neg)
    if not rows or not rows[0]:
        return len(rows)
    return len(rows) - _rank_mod(rows, len(rows[0]), p)


def stable_ext1_dim(M: Representation, L: Representation, primes) -> int:
    dims = {p: ext1_dim(reduce_rep(M, p), reduce_rep(L, p)) for p in primes}
    if len(set(dims.values())) != 1:
        raise PrimeInstabilityError(f"Ext^1 dimension varies with prime: {dims}")
    return next(iter(dims.values()))


def middle_term(cocycle: ExtCocycle) -> Representation:
    """Middle term Y of the extension 0 -> L -> Y -> M -> 0 defined by phi:
    the split extension L (+) M with phi_a in the top-right block."""
    M, L = cocycle.M, cocycle.L
    Y = direct_sum(L, M)
    for (s, t), m, Pa in zip(M.quiver.arrows, Y.matrices, cocycle.components):
        if (Pa.rows, Pa.cols) != (L.dim[t - 1], M.dim[s - 1]):
            raise InputError("cocycle component shape mismatch")
        for row, phi in zip(m.data, Pa.data):
            row[L.dim[s - 1]:] = phi
    return Y


# -- kernels and cokernels -------------------------------------------------

def _kernel_key(g, L: Representation) -> tuple:
    """(ranks of the g_i, Ker g as arrow matrices) for g: L -> T, g_i as
    rows of field elements: the _key_of_kernels of their nullspaces."""
    p = L.field.p
    return _key_of_kernels([_nullspace(gi, l, p)
                            for gi, l in zip(g, L.dim)], L)


def _key_of_kernels(kernels: list, L: Representation) -> tuple:
    """_kernel_key from the (free, basis) of each vertex kernel K_i <= L_i,
    as _nullspace gives them: K_i has the canonical basis B_i, the
    identity at the free columns, which the subspace K_i alone fixes.  So
    K_a, with L_a B_s = B_t K_a, is L_a B_s read at the free coordinates
    of t."""
    p = L.field.p
    return (tuple(l - len(free) for l, (free, _) in zip(L.dim, kernels)),
            tuple(tuple(tuple(sum(map(mul, La.data[f], v)) % p if p
                              else sum(map(mul, La.data[f], v))
                              for v in kernels[s - 1][1])
                        for f in kernels[t - 1][0])
                  for (s, t), La in zip(L.quiver.arrows, L.matrices)))


def _rep_of_key(key: tuple, L: Representation) -> Representation:
    """The kernel that a _kernel_key of a map out of L holds."""
    ranks, mats = key
    F = L.field
    dim = tuple(a - r for a, r in zip(L.dim, ranks))
    return Representation(L.quiver, F, dim, [
        Mat._wrap(F, dim[t - 1], dim[s - 1], [list(row) for row in m])
        for (s, t), m in zip(L.quiver.arrows, mats)])


def kernel_rep(f: list, M: Representation, N: Representation):
    """Ker f for f: M -> N, on the bases of _kernel_key."""
    return _rep_of_key(_kernel_key([m.data for m in f], M), M)


def cokernel_rep(f: list, M: Representation, N: Representation):
    """Coker f for f: M -> N, as D Ker(Df) for the transposes Df: DN -> DM."""
    return dual(kernel_rep([m.transpose() for m in f], dual(N), dual(M)))


# -- standard sums and isomorphism testing ---------------------------------

@lru_cache(maxsize=64)
def _standard_battery(q: Quiver, field) -> tuple:
    """(P_i, I_i) for every vertex i, shared between callers."""
    return tuple((projective_rep(q, i, field), injective_rep(q, i, field))
                 for i in range(1, q.n + 1))


def standard_sum(q: Quiver, kind: str, mults, field=QQ) -> Representation:
    """The sum of mults[i - 1] copies of P_i or I_i over the vertices i."""
    j = ("projective", "injective").index(kind)
    return direct_sum_many(q, [pair[j] for pair, m in zip(
        _standard_battery(q, field), mults) for _ in range(m)], field)


def _has_invertible_combination(basis, dim) -> bool:
    """Whether some sum_k t_k f_k over a Hom basis f has full rank dim[i]
    at every vertex i, searched on {0..sum(dim)}^k by increasing max m."""
    for m in range(sum(dim) + 1):
        for t in product(range(m + 1), repeat=len(basis)):
            if m in t and all(g.rank() == n for g, n
                              in zip(combine(basis, t), dim)):
                return True
    return False


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Exact isomorphism test: Hom dimensions, then an invertible map.

    An isomorphism forces equal tops and socles (Hom to and from each S_i)
    and dim Hom(M, N) = dim End M = dim End N.  Past these, the product of
    vertex determinants of sum_k t_k f_k over a basis f of Hom(M, N) has
    degree at most dim M in each t_k; by the combinatorial Nullstellensatz
    it is nonzero iff it is nonzero somewhere on the grid {0..dim M}^k,
    so the grid is searched for a point where every vertex map has full
    rank.  Over F_p the grid needs p > dim M.
    """
    if (M.quiver, M.field, M.dim) != (N.quiver, N.field, N.dim):
        return False
    if M.total_dim == 0:
        return True
    if isinstance(M.field, GF) and M.field.p <= M.total_dim:
        raise PreconditionError(
            f"isomorphism test over GF({M.field.p}) needs a prime above "
            f"dim M = {M.total_dim}")
    for i in range(1, M.quiver.n + 1):
        S = simple_rep(M.quiver, i, M.field)
        if (hom_dim(M, S), hom_dim(S, M)) != (hom_dim(N, S), hom_dim(S, N)):
            return False
    basis = hom_basis(M, N)
    return (len(basis) == hom_dim(M, M) == hom_dim(N, N)
            and _has_invertible_combination(basis, M.dim))
