"""Quiver-Grassmannian point counting and Euler characteristics.

Points are counted over several prime fields, a counting polynomial in q
is interpolated through the counts, verified at held-out primes, and the
Euler characteristic is read off as P(1).  The degree is bounded by the
tangent space, and an e whose bound is negative is empty and not counted.
Non-polynomial behavior is an explicit error, never a silent value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from operator import mul

from .errors import ConfigurationError, InputError, NotPolynomialCountError
from .linalg import _nullspace_of_rref, _rank_mod
from .reps import Representation, _ext1, make_rep, reduce_rep


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q, coefficients in ascending degree."""

    coefficients: tuple[int, ...]

    def __call__(self, q: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * q + c
        return total

    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1


def subspaces(p: int, d: int, k: int):
    """All k-dim subspaces of F_p^d, each once, as k int basis vectors in
    reduced echelon form: vector j is 1 at its pivot, 0 at the other pivots
    and before its pivot, and free in F_p at the other coordinates."""
    for pivots in combinations(range(d), k):
        free_pos = [(j, r) for j, pr in enumerate(pivots)
                    for r in range(pr + 1, d) if r not in pivots]
        for vals in product(range(p), repeat=len(free_pos)):
            basis = [[int(r == pr) for r in range(d)] for pr in pivots]
            for (j, r), v in zip(free_pos, vals):
                basis[j][r] = v
            yield tuple(map(tuple, basis))


@lru_cache(maxsize=1024)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n; 0 when k is out of range."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def free_vertices(q, dim, e) -> set:
    """Greedy independent set of 0-indexed vertices, heaviest first.

    The weight e_v (d_v - e_v) is the exponent of p in the number of
    e_v-subspaces of F_p^{d_v}, so the free set decides how much of the
    enumeration is replaced by closed forms; ties go to the lower index.
    """
    weight = [k * (d - k) for d, k in zip(dim, e)]
    neighbours = [set() for _ in range(q.n)]
    for s, t in q.arrows:
        neighbours[s - 1].add(t - 1)
        neighbours[t - 1].add(s - 1)
    free = set()
    for v in sorted(range(q.n), key=lambda v: (-weight[v], v)):
        if not neighbours[v] & free:
            free.add(v)
    return free


@lru_cache(maxsize=128)
def _subspace_table(p: int, d: int, k: int) -> tuple:
    """(U, ann U) for each k-subspace U of F_p^d, in the order of
    subspaces(p, d, k), shared by every module: the k basis vectors of U,
    then the d - k rows of ann U, which span the linear forms vanishing on
    U and are read off the pivots of U's reduced echelon basis.  The table
    outlives every module, so it holds these d vectors of each U end to
    end in one flat tuple of ints."""
    flat = []
    for U in subspaces(p, d, k):
        ann = _nullspace_of_rref(U, [u.index(1) for u in U], d, p)[1]
        for row in U + tuple(ann):
            flat.extend(row)
    return tuple(flat)


def _vertex_table(rows, ends, d: int, v: int, k: int, p: int) -> list:
    """(U, reads) per k-subspace U of F_p^d at vertex v.  reads[a] is, for
    an arrow a out of v, the vectors M_a u for the basis u of U; for an
    arrow a into v, the rows of ann(U) M_a; None for an arrow not at v.
    Only the reads depend on the module; U and ann U come from
    _subspace_table."""
    def apply(R, X):  # the vectors R x for x in X, mod p
        return tuple(tuple(sum(map(mul, r, x)) % p for r in R) for x in X)
    cols = [list(zip(*m)) for m in rows]
    vectors = zip(*[iter(_subspace_table(p, d, k))] * d)
    table = []
    for _ in range(gaussian_binomial(d, k, p)):
        U, ann = tuple(islice(vectors, k)), list(islice(vectors, d - k))
        table.append((U, tuple(apply(m, U) if s == v else
                               apply(mc, ann) if t == v else None
                               for m, mc, (s, t) in zip(rows, cols, ends))))
    return table


def _content(M: Representation) -> tuple:
    """M's matrices as nested tuples, part of its _profile key."""
    return tuple(tuple(map(tuple, m.data)) for m in M.matrices)


def _plan(q, dim, e) -> tuple:
    """What counting Gr_e M needs of (quiver q, dim M, e) alone, built once
    for every prime, after e is checked against dim: the cover C left by
    `free_vertices` as (v, d_v, e_v); the arrows inside C as (a, slot of s,
    slot of t), a slot being a place in C; and per free vertex (d_v, e_v,
    its in-arrows as (a, slot of s), its out-arrows as (a, slot of t))."""
    if len(e) != q.n:
        raise InputError("dimension vector length mismatch")
    if any(ei > di or ei < 0 for ei, di in zip(e, dim)):
        raise InputError("target dimension vector exceeds the module")
    ends = [(s - 1, t - 1) for s, t in q.arrows]
    free = free_vertices(q, dim, e)
    cover = [v for v in range(q.n) if v not in free]
    slot = {v: i for i, v in enumerate(cover)}
    return ([(v, dim[v], e[v]) for v in cover],
            [(a, slot[s], slot[t]) for a, (s, t) in enumerate(ends)
             if s in slot and t in slot],
            [(dim[v], e[v],
              [(a, slot[s]) for a, (s, t) in enumerate(ends) if t == v],
              [(a, slot[t]) for a, (s, t) in enumerate(ends) if s == v])
             for v in sorted(free)])


def count_subreps(M: Representation, e, p: int) -> int:
    """Number of subrepresentations of dimension vector e over F_p."""
    return _count_subreps(M, _plan(M.quiver, M.dim, e), p, {})


def _count_subreps(M: Representation, plan: tuple, p: int,
                   by_prime: dict) -> int:
    """count_subreps by plan, M's _plan for one e, on by_prime, which holds
    per prime p M's matrices mod p as int rows and (v, k) -> _vertex_table,
    so that a caller counting many e at many primes sets them up once.

    Subspaces U_v are enumerated only on the vertex cover C of the plan,
    from the tables in by_prime; an arrow a: s -> t in C holds when
    ann(U_t) M_a U_s = 0.  Every arrow at a free vertex v has its other end
    in C, so U_v may be any e_v-subspace between A_v, the sum of the images
    M_a(U_s) of its in-arrows, and B_v, the intersection of the preimages
    M_a^{-1}(U_t) of its out-arrows: [dim B_v - dim A_v, e_v - dim A_v]_p
    choices when A_v lies in B_v, none otherwise.
    """
    if p not in by_prime:
        by_prime.update(_by_prime(M, [p]))
    rows, tables = by_prime[p]
    cover, inner, sides = plan
    for v, d, k in cover:
        if (v, k) not in tables:
            ends = [(s - 1, t - 1) for s, t in M.quiver.arrows]
            tables[v, k] = _vertex_table(rows, ends, d, v, k, p)
    count = 0
    for tup in product(*[tables[v, k] for v, _, k in cover]):
        if not _arrows_hold(tup, inner, p):
            continue
        term = 1
        for d, k, ins, outs in sides:
            images = [w for a, s in ins for w in tup[s][1][a]]
            forms = [f for a, t in outs for f in tup[t][1][a]]
            if images and any(sum(map(mul, f, w)) % p
                              for f in forms for w in images):
                term = 0
                break
            dim_a = _rank_mod(images, d, p) if images else 0
            dim_b = d - (_rank_mod(forms, d, p) if forms else 0)
            term *= gaussian_binomial(dim_b - dim_a, k - dim_a, p)
            if not term:
                break
        count += term
    return count


def _by_prime(M: Representation, primes) -> dict:
    """by_prime of _count_subreps at the primes, with no table yet."""
    return {p: ([m.data for m in reduce_rep(M, p).matrices], {})
            for p in primes}


def _arrows_hold(tup, arrows, p: int) -> bool:
    """Whether ann(U_t) M_a U_s = 0 for the arrows (a, s, t) of tup."""
    return not any(sum(map(mul, f, u)) % p for a, s, t in arrows
                   for f in tup[t][1][a] for u in tup[s][0])


def subreps(M: Representation, e, tables=None) -> list:
    """The subrepresentations of dimension vector e of M over its field
    GF(p), each as one _vertex_table entry (U, reads) per vertex: every
    tuple of e_v-subspaces, by brute force, whose arrows hold.  tables,
    when given, holds M's (v, e_v) -> _vertex_table and is filled as
    needed, so that listing many e builds each table once."""
    p, tables = M.field.p, {} if tables is None else tables
    rows = [m.data for m in M.matrices]
    ends = [(s - 1, t - 1) for s, t in M.quiver.arrows]
    arrows = [(a, s, t) for a, (s, t) in enumerate(ends)]
    for v, (d, k) in enumerate(zip(M.dim, e)):
        if (v, k) not in tables:
            tables[v, k] = _vertex_table(rows, ends, d, v, k, p)
    return [tup for tup in product(*[tables[v, k] for v, k in enumerate(e)])
            if _arrows_hold(tup, arrows, p)]


def interpolate_counts(points, degree_bound: int) -> CountingPolynomial:
    """Newton interpolation through (prime, count) pairs, expanded into
    coefficients; must be integral."""
    xs = [x for x, _ in points]
    diffs = [Fraction(y) for _, y in points]
    for j in range(1, len(xs)):  # divided differences, in place
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for c, x in zip(reversed(diffs), reversed(xs)):
        # Horner: coeffs <- c + (q - x) * coeffs
        coeffs = [a - x * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise NotPolynomialCountError("interpolant has non-integer coefficients")
    if len(coeffs) - 1 > degree_bound:
        raise NotPolynomialCountError("interpolant exceeds its degree bound")
    return CountingPolynomial(tuple(int(c) for c in coeffs))


def _check_prime_count(n_primes: int, degree_bound: int) -> None:
    """A fit of degree <= degree_bound needs one more prime to verify it."""
    if n_primes < degree_bound + 2:
        raise ConfigurationError(
            f"need at least {degree_bound + 2} primes, have {n_primes}")


def fit_and_verify(counts_by_prime: dict, degree_bound: int) -> CountingPolynomial:
    """Fit a polynomial on the first degree_bound+1 primes, verify on the rest."""
    primes = sorted(counts_by_prime)
    _check_prime_count(len(primes), degree_bound)
    fit = [(p, counts_by_prime[p]) for p in primes[:degree_bound + 1]]
    poly = interpolate_counts(fit, degree_bound)
    for p in primes[degree_bound + 1:]:
        if poly(p) != counts_by_prime[p]:
            raise NotPolynomialCountError(
                f"count at verification prime {p} is {counts_by_prime[p]}, "
                f"polynomial predicts {poly(p)}")
    return poly


def grassmannian_degree_bound(dim, e) -> int:
    return sum(ei * (di - ei) for di, ei in zip(dim, e))


def tangent_degree_bound(q, dim, e, ext1: int) -> int:
    """min(sum e_v (d_v - e_v), <e, d - e> + ext1), d = dim, a bound on
    the dimension of Gr_e M, so on the degree of its count, for any M of
    dimension d with dim Ext^1(M, M) <= ext1; Gr_e M is empty when it is
    negative.  The tangent space of Gr_e M at U is Hom(U, M/U), of
    dimension <e, d - e> + dim Ext^1(U, M/U), and Ext^2 = 0 makes
    Ext^1(M, M) -> Ext^1(U, M/U) onto."""
    top = grassmannian_degree_bound(dim, e)
    return min(top, top + ext1 - sum(e[s - 1] * (dim[t - 1] - e[t - 1])
                                     for s, t in q.arrows))


def tangent_bounds(q, dim, ext1: int) -> dict:
    """{e: tangent_degree_bound} over the e <= dim whose bound is not
    negative; Gr_e is empty at every other e."""
    bounds = {e: tangent_degree_bound(q, dim, e, ext1)
              for e in product(*[range(d + 1) for d in dim])}
    return {e: b for e, b in bounds.items() if b >= 0}


def _self_ext1(arrows, dim, rows_by_prime) -> int:
    """The largest dim Ext^1(M_p, M_p) over (p, M's arrow matrices mod p
    as int rows) in rows_by_prime, 0 with none."""
    return max((_ext1(arrows, (dim, rows), (dim, rows), p)
                for p, rows in rows_by_prime), default=0)


def euler_char_grassmannian(M: Representation, e, primes) -> int:
    """chi(Gr_e M) as P(1) of the verified counting polynomial."""
    primes = sorted(set(primes))
    by_prime = _by_prime(M, primes)
    ext1 = _self_ext1(M.quiver.arrows, M.dim,
                      ((p, rows) for p, (rows, _) in by_prime.items()))
    return _euler_char(M, e, primes, by_prime, ext1)


def _euler_char(M: Representation, e, primes, by_prime: dict,
                ext1: int) -> int:
    """chi(Gr_e M) from its counts at the sorted distinct primes, which
    share by_prime (see _count_subreps), fitted within the
    tangent_degree_bound for ext1, the _self_ext1 of M at the primes: 0,
    with no count, when that bound is negative.  For rigid M (ext1 = 0)
    Gr_e M is smooth of dimension <e, d - e>, so a nonzero count must have
    that degree, be palindromic and have no negative coefficient.  e is
    checked before the primes are."""
    plan = _plan(M.quiver, M.dim, e)
    bound = tangent_degree_bound(M.quiver, M.dim, e, ext1)
    if bound < 0:
        return 0
    _check_prime_count(len(primes), bound)
    poly = fit_and_verify({p: _count_subreps(M, plan, p, by_prime)
                           for p in primes}, bound)
    c = poly.coefficients
    if not ext1 and c and (len(c) - 1 != bound or c != c[::-1]
                           or min(c) < 0):
        raise NotPolynomialCountError(
            f"count {c} of a rigid module at e = {tuple(e)} is not "
            f"palindromic of degree {bound} with coefficients >= 0")
    return poly(1)


def grassmannian_profile(M: Representation, primes) -> dict:
    """chi(Gr_e M) for every e <= dim M, zero entries omitted."""
    return dict(_profile(M.quiver, M.field, M.dim, _content(M),
                         tuple(sorted(set(primes)))))


@lru_cache(maxsize=256)
def _profile(q, field, dim, matrices, primes) -> dict:
    """grassmannian_profile, cached on the module's exact content and its
    sorted distinct primes; {dim M: 1} for the zero module.  Only the e
    kept by tangent_bounds, for the _self_ext1 of M at the primes, are
    counted; too few primes for any of them are refused before the first
    count."""
    M = make_rep(q, dim, [list(map(list, m)) for m in matrices], field)
    by_prime = _by_prime(M, primes)
    ext1 = _self_ext1(q.arrows, dim,
                      ((p, rows) for p, (rows, _) in by_prime.items()))
    bounds = tangent_bounds(q, dim, ext1)
    for bound in bounds.values():
        _check_prime_count(len(primes), bound)
    chis = {e: _euler_char(M, e, primes, by_prime, ext1) for e in bounds}
    return {e: chi for e, chi in chis.items() if chi}
