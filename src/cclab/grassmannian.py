"""Quiver-Grassmannian point counting and Euler characteristics.

Points are counted over several prime fields, a counting polynomial in q
is interpolated through the counts, verified at held-out primes, and the
Euler characteristic is read off as P(1).  Non-polynomial behavior is an
explicit error, never a silent value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import ConfigurationError, InputError, NotPolynomialCountError
from .linalg import GF, Mat, hstack, vstack
from .reps import Representation, make_rep, reduce_rep


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


def subspace_bases(field: GF, d: int, k: int):
    """All k-dim subspaces of F_p^d as reduced column-echelon bases.

    Pivot rows are chosen among the d coordinates; free entries range over
    F_p.  Each subspace appears exactly once.
    """
    if k == 0:
        yield Mat(field, d, 0)
        return
    p = field.p
    for pivots in combinations(range(d), k):
        free_pos = []
        for j, pr in enumerate(pivots):
            for r in range(pr + 1, d):
                if r not in pivots:
                    free_pos.append((r, j))
        for vals in product(range(p), repeat=len(free_pos)):
            m = Mat(field, d, k)
            for j, pr in enumerate(pivots):
                m.data[pr][j] = field.one
            for (r, j), v in zip(free_pos, vals):
                m.data[r][j] = v
            yield m


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n; 0 when k is out of range."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def _contained_in(field, big: Mat, small: Mat) -> bool:
    """Whether the column span of `small` lies inside that of `big`."""
    if small.cols == 0:
        return True
    if big.cols == 0:
        return small.is_zero()
    return hstack(field, [big, small], rows=big.rows).rank() == big.rank()


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


def count_subreps(M: Representation, e, p: int) -> int:
    """Number of subrepresentations of dimension vector e over F_p.

    Subspaces U_v are enumerated only on the vertex cover C left by
    `free_vertices`.  Every arrow at a free vertex v has its other end in
    C, so U_v may be any e_v-subspace between A_v, the sum of the images
    M_a(U_s) of its in-arrows, and B_v, the intersection of the preimages
    M_a^{-1}(U_t) of its out-arrows: [dim B_v - dim A_v, e_v - dim A_v]_p
    choices when A_v lies in B_v, none otherwise.
    """
    q = M.quiver
    if len(e) != q.n:
        raise InputError("dimension vector length mismatch")
    if any(ei > di or ei < 0 for ei, di in zip(e, M.dim)):
        raise InputError("target dimension vector exceeds the module")
    Mp = reduce_rep(M, p)
    F = Mp.field
    ends = [(s - 1, t - 1) for s, t in q.arrows]
    free = free_vertices(q, Mp.dim, e)
    cover = [v for v in range(q.n) if v not in free]
    slot = {v: i for i, v in enumerate(cover)}
    # Per subspace U at a cover vertex, what each arrow joining it to a free
    # vertex reads from U: M_a U for an arrow out of the cover, ann(U) M_a
    # for an arrow into it, where the rows of ann(U) span the linear forms
    # vanishing on U.
    choices = []
    for v in cover:
        outs = [a for a, (s, t) in enumerate(ends) if s == v and t in free]
        ins = [a for a, (s, t) in enumerate(ends) if t == v and s in free]
        options = []
        for U in subspace_bases(F, Mp.dim[v], e[v]):
            reads = {a: Mp.matrices[a].mul(U) for a in outs}
            if ins:
                ann = U.transpose().nullspace().transpose()
                reads.update((a, ann.mul(Mp.matrices[a])) for a in ins)
            options.append((U, reads))
        choices.append(options)
    inner = [(a, slot[s], slot[t]) for a, (s, t) in enumerate(ends)
             if s in slot and t in slot]
    sides = [(v, [(a, slot[s]) for a, (s, t) in enumerate(ends) if t == v],
              [(a, slot[t]) for a, (s, t) in enumerate(ends) if s == v])
             for v in sorted(free)]
    count = 0
    for tup in product(*choices):
        if not all(_contained_in(F, tup[t][0], Mp.matrices[a].mul(tup[s][0]))
                   for a, s, t in inner):
            continue
        term = 1
        for v, ins, outs in sides:
            d = Mp.dim[v]
            images = hstack(F, [tup[s][1][a] for a, s in ins], rows=d)
            forms = vstack(F, [tup[t][1][a] for a, t in outs], cols=d)
            if not forms.mul(images).is_zero():
                term = 0
                break
            dim_a = images.rank()
            dim_b = d - forms.rank()
            term *= gaussian_binomial(dim_b - dim_a, e[v] - dim_a, p)
            if not term:
                break
        count += term
    return count


def interpolate_counts(points, degree_bound: int) -> CountingPolynomial:
    """Lagrange interpolation through (prime, count) pairs; must be integral."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # basis polynomial for node i, expanded coefficient-wise
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = [Fraction(0)] + num[:]
            for k in range(len(num) - 1):
                num[k] -= xs[j] * num[k + 1]
            den *= xs[i] - xs[j]
        for k in range(len(num)):
            coeffs[k] += Fraction(ys[i]) * num[k] / den
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


def euler_char_grassmannian(M: Representation, e, primes) -> int:
    """chi(Gr_e M) as P(1) of the verified counting polynomial."""
    bound = grassmannian_degree_bound(M.dim, e)
    _check_prime_count(len(set(primes)), bound)
    counts = {p: count_subreps(M, e, p) for p in sorted(primes)}
    poly = fit_and_verify(counts, bound)
    return poly(1)


def grassmannian_profile(M: Representation, primes) -> dict:
    """chi(Gr_e M) for every e <= dim M, zero entries omitted."""
    matrices = tuple(tuple(map(tuple, m.data)) for m in M.matrices)
    return dict(_profile(M.quiver, M.field, M.dim, matrices,
                         tuple(sorted(primes))))


@lru_cache(maxsize=256)
def _profile(q, field, dim, matrices, primes) -> dict:
    """grassmannian_profile, cached on the module's exact content."""
    M = make_rep(q, dim, [list(map(list, m)) for m in matrices], field)
    out = {}
    for e in product(*[range(d + 1) for d in dim]):
        chi = euler_char_grassmannian(M, e, primes)
        if chi:
            out[e] = chi
    return out
