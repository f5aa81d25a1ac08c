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
from math import prod
from operator import mul

from .errors import ConfigurationError, InputError, NotPolynomialCountError
from .linalg import _nullspace_of_rref, _rank_mod
from .reps import Representation, _ext1, make_rep, reduce_rep

# A _sweep over more cover tuples would take seconds to minutes and its
# tables up to gigabytes; E6's highest root walks 166,487 at p = 53.
MAX_COVER_TUPLES = 250_000


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
    A sweep fixes one free set for all its es, from the e_v of largest
    weight at each vertex (_plan): any independent set counts exactly.
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


def _plan(q, dim, es) -> tuple:
    """What a _sweep of the es needs of (quiver q, dim M) alone, built once
    for every prime after each e is checked against dim: the cover C left
    by `free_vertices` for the heaviest e_v of es at each vertex v, as
    (v, d_v); the arrows inside C as (a, slot of s, slot of t), a slot
    being a place in C; per free vertex (v, d_v, the slots of its
    neighbours, its in-arrows as (a, slot of s), its out-arrows as
    (a, slot of t)); and the es grouped by their e_v on C."""
    es = [tuple(e) for e in es]
    for e in es:
        if len(e) != q.n:
            raise InputError("dimension vector length mismatch")
        if any(ei > di or ei < 0 for ei, di in zip(e, dim)):
            raise InputError("target dimension vector exceeds the module")
    ends = [(s - 1, t - 1) for s, t in q.arrows]
    free = free_vertices(q, dim, [max((e[v] for e in es), default=0,
                                      key=lambda k, d=d: k * (d - k))
                                  for v, d in enumerate(dim)])
    cover = [v for v in range(q.n) if v not in free]
    slot, groups, sides = {v: i for i, v in enumerate(cover)}, {}, []
    for e in es:
        groups.setdefault(tuple(e[v] for v in cover), []).append(e)
    for v in sorted(free):
        ins = [(a, slot[s]) for a, (s, t) in enumerate(ends) if t == v]
        outs = [(a, slot[t]) for a, (s, t) in enumerate(ends) if s == v]
        sides.append((v, dim[v], sorted({s for _, s in ins + outs}), ins,
                      outs))
    return ([(v, dim[v]) for v in cover],
            [(a, slot[s], slot[t]) for a, (s, t) in enumerate(ends)
             if s in slot and t in slot], sides, groups)


def count_subreps(M: Representation, e, p: int) -> int:
    """Number of subrepresentations of dimension vector e over F_p, read
    off a _sweep of e alone; a p that is not prime is refused by GF."""
    plan = _plan(M.quiver, M.dim, [e])
    return _sweep(M, plan, p, _by_prime(M, [p])[p])[tuple(e)]


def _sweep(M: Representation, plan: tuple, p: int, rows) -> dict:
    """{e: number of subrepresentations of dimension vector e over F_p}
    for the es of plan, M's _plan, from rows, M's matrices mod p as int
    rows.  Subspaces U_v are enumerated only on the cover C of the plan;
    an arrow a: s -> t in C holds when ann(U_t) M_a U_s = 0.  Every arrow
    at a free vertex v has its other end in C, so U_v may be any
    e_v-subspace between A_v, the sum of the images M_a(U_s) of its
    in-arrows, and B_v, the intersection of the preimages M_a^{-1}(U_t) of
    its out-arrows: [dim B_v - dim A_v, e_v - dim A_v]_p choices when A_v
    lies in B_v, none otherwise.  That depends on the tuple on C through
    (dim A_v, dim B_v) alone, so the es of each group walk its cover
    tuples once (_tally), and each e is read off the tally.  A sweep over
    MAX_COVER_TUPLES cover tuples is refused before its first table."""
    cover, inner, sides, groups = plan
    tuples = sum(prod(gaussian_binomial(d, k, p) for (_, d), k in
                      zip(cover, ks)) for ks in groups)
    if tuples > MAX_COVER_TUPLES:
        raise ConfigurationError(
            f"counting the subrepresentations of dimension {M.dim} over "
            f"F_{p} would walk {tuples} cover tuples, more than "
            f"{MAX_COVER_TUPLES}")
    ends = [(s - 1, t - 1) for s, t in M.quiver.arrows]
    tables, counts, free = {}, {}, [side[0] for side in sides]
    for ks, es in groups.items():
        for (v, d), k in zip(cover, ks):
            if (v, k) not in tables:
                tables[v, k] = _vertex_table(rows, ends, d, v, k, p)
        tally = _tally([tables[v, k] for (v, _), k in zip(cover, ks)],
                       inner, sides, es, p)
        for e in es:
            counts[e] = sum(n * prod(gaussian_binomial(b - a, e[v] - a, p)
                                     for (a, b), v in zip(sig, free))
                            for sig, n in tally.items())
    return counts


def _tally(tables, inner, sides, es, p: int) -> dict:
    """{signature: number of cover tuples} over the tuples of tables, one
    _vertex_table per slot of the cover, whose inner arrows hold and whose
    A_v lies in B_v at each free vertex of sides (see _sweep), with
    dim A_v <= e_v <= dim B_v for some e of es; a tuple's signature is its
    (dim A_v, dim B_v) per free vertex.  These read only the entries at
    v's neighbours, so they are memoized on those entries, by identity, as
    the tables hold them; () stands for a tuple that no e of es counts."""
    memos, tally = [{} for _ in sides], {}
    wants = [{e[side[0]] for e in es} for side in sides]
    for tup in product(*tables):
        if inner and not _arrows_hold(tup, inner, p):
            continue
        sig = []
        for memo, want, (_, d, near, ins, outs) in zip(memos, wants, sides):
            key = tuple([id(tup[s]) for s in near])
            dims = memo.get(key)
            if dims is None:
                images = [w for a, s in ins for w in tup[s][1][a]]
                forms = [f for a, t in outs for f in tup[t][1][a]]
                dims = ()
                if not (images and any(sum(map(mul, f, w)) % p
                                       for f in forms for w in images)):
                    lo = _rank_mod(images, d, p) if images else 0
                    hi = d - (_rank_mod(forms, d, p) if forms else 0)
                    if any(lo <= k <= hi for k in want):
                        dims = lo, hi
                memo[key] = dims
            if not dims:
                break
            sig.append(dims)
        else:
            sig = tuple(sig)
            tally[sig] = tally.get(sig, 0) + 1
    return tally


def _by_prime(M: Representation, primes) -> dict:
    """{p: M's matrices mod p as int rows} at the primes, the rows of
    _sweep."""
    return {p: [m.data for m in reduce_rep(M, p).matrices] for p in primes}


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


def tangent_degree_bound(q, dim, e, ext1: int) -> int:
    """min(sum e_v (d_v - e_v), <e, d - e> + ext1), d = dim, a bound on
    the dimension of Gr_e M, so on the degree of its count, for any M of
    dimension d with dim Ext^1(M, M) <= ext1; Gr_e M is empty when it is
    negative.  The tangent space of Gr_e M at U is Hom(U, M/U), of
    dimension <e, d - e> + dim Ext^1(U, M/U), and Ext^2 = 0 makes
    Ext^1(M, M) -> Ext^1(U, M/U) onto."""
    top = sum(k * (n - k) for n, k in zip(dim, e))
    return min(top, top + ext1 - sum(e[s - 1] * (dim[t - 1] - e[t - 1])
                                     for s, t in q.arrows))


def tangent_bounds(q, dim, ext1: int) -> dict:
    """{e: tangent_degree_bound} over the e <= dim whose bound is not
    negative; Gr_e is empty at every other e."""
    bounds = {e: tangent_degree_bound(q, dim, e, ext1)
              for e in product(*[range(d + 1) for d in dim])}
    return {e: b for e, b in bounds.items() if b >= 0}


def _self_ext1(M: Representation, by_prime: dict) -> int:
    """The largest dim Ext^1(M_p, M_p) over the primes of by_prime (see
    _by_prime), ranked on its int rows; 0 with no prime."""
    arrows, dim = M.quiver.arrows, M.dim
    return max((_ext1(arrows, (dim, rows), (dim, rows), p)
                for p, rows in by_prime.items()), default=0)


def euler_char_grassmannian(M: Representation, e, primes) -> int:
    """chi(Gr_e M) as P(1) of the verified counting polynomial: 0, with no
    count, when its tangent_degree_bound is negative.  e is checked before
    the primes are."""
    e, by_prime = tuple(e), _by_prime(M, sorted(set(primes)))
    _plan(M.quiver, M.dim, [e])  # refuses a bad e
    ext1 = _self_ext1(M, by_prime)
    bound = tangent_degree_bound(M.quiver, M.dim, e, ext1)
    return _euler_chars(M, {e: bound}, by_prime, ext1)[e] if bound >= 0 else 0


def _euler_chars(M: Representation, bounds: dict, by_prime: dict,
                 ext1: int) -> dict:
    """{e: chi(Gr_e M)} for the e of bounds, {e: its tangent_degree_bound
    >= 0 for ext1, the _self_ext1 of M at the primes of by_prime}, each
    count fitted within its bound; every e is counted in one _sweep a
    prime, and the largest bound is checked against the primes before the
    first.  For rigid M (ext1 = 0) Gr_e M is smooth of dimension
    <e, d - e>, the bound, so a nonzero count must have that degree, be
    palindromic and have no negative coefficient."""
    _check_prime_count(len(by_prime), max(bounds.values()))
    plan = _plan(M.quiver, M.dim, bounds)
    sweeps = {p: _sweep(M, plan, p, rows) for p, rows in by_prime.items()}
    chis = {}
    for e, bound in bounds.items():
        poly = fit_and_verify({p: n[e] for p, n in sweeps.items()}, bound)
        c = poly.coefficients
        if not ext1 and c and (len(c) - 1 != bound or c != c[::-1]
                               or min(c) < 0):
            raise NotPolynomialCountError(
                f"count {c} of a rigid module at e = {e} is not "
                f"palindromic of degree {bound} with coefficients >= 0")
        chis[e] = poly(1)
    return chis


def grassmannian_profile(M: Representation, primes) -> dict:
    """chi(Gr_e M) for every e <= dim M, zero entries omitted."""
    return dict(_profile(M.quiver, M.field, M.dim, _content(M),
                         tuple(sorted(set(primes)))))


@lru_cache(maxsize=256)
def _profile(q, field, dim, matrices, primes) -> dict:
    """grassmannian_profile, cached on the module's exact content and its
    sorted distinct primes; {dim M: 1} for the zero module.  Only the e
    kept by tangent_bounds, for the _self_ext1 of M at the primes, are
    counted (_euler_chars)."""
    M = make_rep(q, dim, [list(map(list, m)) for m in matrices], field)
    by_prime = _by_prime(M, primes)
    ext1 = _self_ext1(M, by_prime)
    chis = _euler_chars(M, tangent_bounds(q, dim, ext1), by_prime, ext1)
    return {e: chi for e, chi in chis.items() if chi}
