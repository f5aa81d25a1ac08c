"""Exact verification of the cluster multiplication formulas.

Each identity is d * X_X X_Y = the sum of two sides, each a list of
strata that carry their whole contribution.  A stratum's value is
sum_e chi(Z_e) x^exp(e), Z_e the pairs of a point and a subrepresentation
U of dimension e of its middle term, as X_Y depends on (dim Y, e) alone.
The Ext side of xx1 (stratify_ext_side) and the Hom(P, M) side of xx2
(verify_xx2) are integrals over subrepresentations of the operands; no
point of them is visited, and the Ext side ranks int rows.  The other
Hom sides are walked over each sample prime (_hom_walk): only the points
where a vertex kernel of g or of D tau^{-1} g = tau Dg leaves the
common kernel of its pencil are visited (_kernel_jumps), and one more
for the others, which share its middle term and are counted.  Each
class (shifted, dim Y) is one stratum:
its points and its incidence counts sum_k points_k |Gr_e(Y_k)(F_p)| over
the memo keys k of the class are interpolated into counting polynomials
(_hom_strata).  _report forms the left-hand side and checks that the
sides agree, as exact Laurent polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, mul

from .artranslate import (_tau_dims, ar_translate, ar_translate_maps,
                          has_projective_summand, summand_multiplicities)
from .character import cc, describe, exponent_form
from .errors import CCLabError, PreconditionError, PrimeInstabilityError
from .grassmannian import (_check_prime_count, _count_subreps, _plan,
                           _self_ext1, fit_and_verify,
                           grassmannian_degree_bound, grassmannian_profile,
                           subreps, subspaces, tangent_bounds)
from .laurent import LaurentPolynomial
from .linalg import (_combination, _nullspace, _nullspace_of_rref,
                     _rank_mod, _rref)
from .reps import (ClusterObject, Representation, _ext1, _key_of_kernels,
                   _rep_of_key, cluster_object, direct_sum,
                   dual, ext1_dim, hom_basis, hom_dim, reduce_rep,
                   stable_ext1_dim, standard_sum, zero_rep)


@dataclass
class StratumReport:
    """A stratum: its class (dim, shifted), chi and whole contribution."""

    dim: tuple
    shifted: tuple
    chi: int
    side: str  # ext | hom | proj-shift-hom | proj-shift-inj
    value: LaurentPolynomial

    def describe(self) -> str:
        return (f"{describe(self.dim, self.shifted)}: chi={self.chi} "
                f"({self.side})")


@dataclass
class VerificationReport:
    lhs: LaurentPolynomial
    rhs: LaurentPolynomial
    strata: list
    verdict: bool
    label: str = ""


# -- the ext-side integral -------------------------------------------------

def _sub(R: Representation, tup) -> tuple:
    """(dim, arrow matrices as int rows) of the subrepresentation U of R
    over GF(p) held by the subreps entry tup, on U's reduced echelon
    basis: R_a u is read at the pivots of U_t."""
    pivots = [[u.index(1) for u in U] for U, _ in tup]
    return tuple(map(len, pivots)), [
        [[w[c] for w in tup[s - 1][1][a]] for c in pivots[t - 1]]
        for a, (s, t) in enumerate(R.quiver.arrows)]


def _quotient(R: Representation, tup) -> tuple:
    """(dim, arrow matrices as int rows) of R/U for U held by tup, on the
    unit vectors at the coordinates off the pivots of U, which ann U_v
    maps to unit vectors: ann(U_t) R_a is read at those of U_s."""
    pivots = [[u.index(1) for u in U] for U, _ in tup]
    free = [[c for c in range(n) if c not in pv]
            for n, pv in zip(R.dim, pivots)]
    return tuple(map(len, free)), [
        [[f[c] for c in free[s - 1]] for f in tup[t - 1][1][a]]
        for a, (s, t) in enumerate(R.quiver.arrows)]


def stratify_ext_side(M: Representation, L: Representation, primes):
    """sum X_Y over P Ext^1(M, L), Y the middle term of [eta], as one
    stratum of chi = d = dim Ext^1 over QQ.  This is sum_e chi(Z_e)
    x^exp(e), Z_e = {([eta], U <= Y) : dim U = e}.  U meets L in U_L and
    maps onto U_M <= M; such U exist iff eta maps to 0 in
    Ext^1(U_M, L/U_L), and form a Hom(U_M, L/U_L)-torsor.  Ext^2 = 0, so
    Ext^1(M, L) -> Ext^1(U_M, L) -> Ext^1(U_M, L/U_L) are onto, and the
    fibre over (U_L, U_M), an affine bundle over the projectivized kernel,
    has chi d - dim Ext^1(U_M, L/U_L), which _ext1 ranks on the int rows
    of _sub and _quotient.  chi(Z_e) sums it over the pairs with
    e_L + e_M = e, counted at each prime and fitted within the largest
    sum of their tangent_bounds, read with the _self_ext1 of L and of M
    at the primes; an e_L or e_M that these bounds prove empty is never
    listed.  Every prime must keep dim Ext^1 = d, also for d = 0."""
    d = ext1_dim(M, L)
    reduced = {}
    for p in primes:
        Lp, Mp = reduce_rep(L, p), reduce_rep(M, p)
        if ext1_dim(Mp, Lp) != d:
            raise PrimeInstabilityError(f"Ext^1 space degenerate mod {p}")
        reduced[p] = Lp, Mp
    if not d:
        return []
    q = M.quiver
    kept = [tangent_bounds(q, R.dim, _self_ext1(q.arrows, R.dim, (
        (p, [m.data for m in pair[k].matrices])
        for p, pair in reduced.items()))) for k, R in enumerate((L, M))]
    bounds = {}
    for (e_l, b_l), (e_m, b_m) in product(*[b.items() for b in kept]):
        e = tuple(map(add, e_l, e_m))
        bounds[e] = max(bounds.get(e, 0), b_l + b_m)
    _check_prime_count(len(reduced), max(bounds.values()))
    counts = {e: dict.fromkeys(reduced, 0) for e in bounds}
    for p, (Lp, Mp) in reduced.items():
        tables = {}, {}
        subs_l = {e: [_quotient(Lp, tup) for tup in subreps(Lp, e, tables[0])]
                  for e in kept[0]}
        subs_m = {e: [_sub(Mp, tup) for tup in subreps(Mp, e, tables[1])]
                  for e in kept[1]}
        for e_l, e_m in product(*kept):
            counts[tuple(map(add, e_l, e_m))][p] += sum(
                d - _ext1(q.arrows, U_M, Q, p)
                for Q in subs_l[e_l] for U_M in subs_m[e_m])
    dim, shifted = tuple(map(add, L.dim, M.dim)), (0,) * q.n
    return [StratumReport(dim, shifted, d, "ext", exponent_form(
        q, dim, shifted, {e: fit_and_verify(by_prime, bounds[e])(1)
                          for e, by_prime in counts.items()}))]


# -- the hom-side stratifications -----------------------------------------

def _hom_strata(L: Representation, T: Representation, primes, side: str):
    """Strata of P Hom(L, T), d = dim Hom(L, T) over QQ, one per class
    (shifted, dim Y) of the middle terms.  Before any point, each prime
    must keep dim Hom = d, also for d = 0.  _hom_walk counts the points of
    each memo key k at each prime.  A class's chi is the sum of its points,
    fitted within d - 1; chi(Z_e) is the count of its incidence variety
    {(g, U <= Y_g) : dim U = e}, sum_k points_k |Gr_e(Y_k)(F_p)|, fitted
    within (d - 1) + the Grassmannian degree bound of (dim Y, e), which
    every class checks against the primes before the first count."""
    d = hom_dim(L, T)
    reduced = {}
    for p in primes:
        Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
        basis = hom_basis(Lp, Tp)
        if len(basis) != d:
            raise PrimeInstabilityError(f"Hom space degenerates mod {p}")
        reduced[p] = Lp, Tp, basis
    if not d:
        return []
    _check_prime_count(len(reduced), d - 1)
    classes = {}  # (shifted, dim Y) -> {p: [(points, Y, by_prime)]}
    for p, args in reduced.items():
        for points, Y in _hom_walk(*args).values():
            classes.setdefault((Y.shifted, Y.module.dim), {}).setdefault(
                p, []).append((points, Y.module, {}))
    for _, dim in classes:  # e_v(d_v - e_v) is largest at e_v = d_v // 2
        _check_prime_count(len(reduced), d - 1 + grassmannian_degree_bound(
            dim, [n // 2 for n in dim]))
    reports = []
    for shifted, dim in sorted(classes):
        members = classes[shifted, dim]
        chi = fit_and_verify({p: sum(n for n, *_ in members.get(p, ()))
                              for p in reduced}, d - 1)(1)
        profile = {}
        for e in product(*[range(n + 1) for n in dim]):
            plan = _plan(L.quiver, dim, e)
            profile[e] = fit_and_verify({p: sum(
                n * _count_subreps(Y, plan, p, by_prime)
                for n, Y, by_prime in members.get(p, ())) for p in reduced},
                d - 1 + grassmannian_degree_bound(dim, e))(1)
        reports.append(StratumReport(dim, shifted, chi, side, exponent_form(
            L.quiver, dim, shifted, profile)))
    total = sum(s.chi for s in reports)
    if total != d:
        raise CCLabError(
            f"stratum Euler characteristics sum to {total}, expected {d}")
    return reports


def _hom_walk(Lp: Representation, Tp: Representation, basis) -> dict:
    """{memo key: [points, middle term]} over P Hom(Lp, Tp)(F_p) on the
    basis maps, in the order the keys are first met.  The middle term of g
    is _hom_side_middle(Ker g, R, dim Coker g), R = tau^{-1} Coker g =
    Coker h for h = tau^{-1} g, as tau^{-1} is right exact.

    h = D tau D g, so Dh = tau(Dg) on tau(DTp), which ar_translate_maps,
    linear, forms from the transposed basis maps.  As Coker h =
    D Ker(Dh), a point's memo key is the _kernel_key of g and of Dh.
    Equal keys give equal K, R and dim Coker g, so the middle term is
    built once a key, from the key alone.

    A _kernel_key depends on the vertex kernels alone, and outside the
    union N of the _kernel_jumps sets of the vertex pencils each is the
    common kernel of its pencil, so all such points share a key.  Only N
    and the first point outside it are keyed, in the order of
    subspaces(p, d, 1), and that point weighs for the rest, so the keys
    come in the order a point-by-point walk would meet them.  At a keyed
    point a pencil whose jump set was read and leaves the point out takes
    its common kernel, whose canonical (free, basis) is the one _nullspace
    gives its value there, as both depend on the kernel alone; only the
    other pencils are evaluated and their kernels taken.  The pencils stop
    being read once at most one point is left unkeyed, d = 1 reading none.
    """
    p, n, d = Lp.field.p, Lp.quiver.n, len(basis)
    DTh, _, images = ar_translate_maps(dual(Tp), dual(Lp), [
        [m.transpose() for m in f] for f in basis])
    # the maps A_k of the pencil sum_k c_k A_k, per vertex of g, then of Dh
    pencils = [[f[i].data for f in maps]
               for maps in (basis, images) for i in range(n)]
    cols = Lp.dim + DTh.dim
    total = (p ** d - 1) // (p - 1)
    keyed, read = set(), []  # per pencil (jump set, common kernel) or None
    for parts, m in zip(pencils, cols):
        if len(keyed) < total - 1:  # one point left is keyed anyway
            read.append(_kernel_jumps(parts, m, p))
            keyed |= read[-1][0]
        else:
            read.append(None)
    first = next((c for (c,) in subspaces(p, d, 1) if c not in keyed),
                 None)
    maps_at = [_combination(parts) for parts in pencils]
    walk = {}
    for c in sorted(keyed | ({first} if first else set()),
                    key=lambda c: (c.index(1), c)):
        kernels = [known[1] if known and c not in known[0] else _nullspace(
            [[x % p for x in row] for row in A(c)], m, p)
            for A, m, known in zip(maps_at, cols, read)]
        mk = (_key_of_kernels(kernels[:n], Lp),
              _key_of_kernels(kernels[n:], DTh))
        if mk not in walk:
            dim_c = tuple(a - r for a, r in zip(Tp.dim, mk[0][0]))
            walk[mk] = [0, _hom_side_middle(
                _rep_of_key(mk[0], Lp), dual(_rep_of_key(mk[1], DTh)),
                dim_c)]
        walk[mk][0] += total - len(keyed) if c == first else 1
    return walk


def _kernel_jumps(parts, cols: int, p: int) -> tuple:
    """(jumps, K0) for the pencil A(c) = sum_k c_k parts[k] of d =
    len(parts) int-row matrices over GF(p) with cols columns: K0, their
    common kernel, as the (free, basis) of _nullspace, and the points [c]
    of P^{d-1}(F_p), first nonzero coordinate 1, where Ker A(c) exceeds K0.

    The r pivot columns of the stacked parts span a complement of K0, so
    the pencil restricted to them decides: with fewer rows than r, every
    point; else the image of the incidence variety
    {([c], [v]) : A(c) v = 0}, read off its smaller side.  With r < d,
    A(c) v = W_v c for W_v = [A_1 v | ... | A_d v], and each [v] of
    P^{r-1} gives the points of P(Ker W_v).  Otherwise A(c) is ranked at
    each point of subspaces(p, d, 1).
    """
    d = len(parts)
    red = [row[:] for A in parts for row in A]
    pivots = _rref(red, cols, p)
    common = _nullspace_of_rref(red, pivots, cols, p)
    if not pivots:
        return set(), common
    parts, cols = [[[row[j] for j in pivots] for row in A]
                   for A in parts], len(pivots)
    points = (c for (c,) in subspaces(p, d, 1))
    if len(parts[0]) < cols:
        return set(points), common
    if cols >= d:
        A = _combination(parts)
        return {c for c in points if _rank_mod(A(c), cols, p) < cols}, common
    out = set()
    for (v,) in subspaces(p, cols, 1):
        W = [[sum(map(mul, row, v)) % p for row in rows]
             for rows in zip(*parts)]
        kernel = _nullspace(W, d, p)[1]
        for (a,) in subspaces(p, len(kernel), 1):
            c = [sum(map(mul, a, xs)) % p for xs in zip(*kernel)]
            inv = pow(next(filter(None, c)), -1, p)
            out.add(tuple(x * inv % p for x in c))
    return out, common


def _hom_side_middle(K: Representation, R: Representation,
                     dim_c) -> ClusterObject:
    """Middle term Ker g (+) tau^{-1} C of g: L -> tau M, C = Coker g, from
    K, R = tau^{-1} C and dim C, with a P_i[1] per injective summand I_i."""
    return ClusterObject(direct_sum(K, R),
                         summand_multiplicities(K.quiver, R.dim, dim_c))


def stratify_hom_side(L: Representation, M: Representation, primes):
    """Strata of P Hom(L, tau M); middle term Ker g (+) tau^{-1}(Coker g).

    ar_translate refuses an M with a projective direct summand.
    """
    return _hom_strata(L, ar_translate(M), primes, "hom")


# -- the verification operations ------------------------------------------

def _xx1_strata(L: Representation, M: Representation, primes) -> list:
    """Strata of P Ext^1(M, L) then of P Hom(L, tau M); [] when
    Ext^1(M, L) = 0.

    The Hom side runs first, so ar_translate refuses a projective summand
    of M before any point is enumerated.
    """
    if stable_ext1_dim(M, L, primes) == 0:
        return []
    hom = stratify_hom_side(L, M, primes)
    return stratify_ext_side(M, L, primes) + hom


def _report(X, Y, strata, primes, label: str) -> VerificationReport:
    """Compare d * X_X X_Y with the sum of the strata's values.

    Each identity has two sides, and the chi values of each sum to the
    dimension of its own space (_hom_strata checks a Hom side).  The two
    sides must agree, so d is half the chi total.  d fills the {} field of
    label.
    """
    d = sum(s.chi for s in strata) // 2
    totals = {side: sum(s.chi for s in strata if s.side == side)
              for side in dict.fromkeys(s.side for s in strata)}
    if list(totals.values()) != [d, d]:
        raise CCLabError(f"the chi totals of the two sides differ: {totals}")
    lhs = (cc(X, primes).value * cc(Y, primes).value).scale(d)
    rhs = sum((s.value for s in strata), LaurentPolynomial.zero(lhs.nvars))
    return VerificationReport(lhs, rhs, strata, lhs == rhs,
                              label=label.format(d))


def verify_xx1(L: Representation, M: Representation, primes) -> VerificationReport:
    """dim Ext^1(M,L) * X_L X_M = sum over strata of both sides."""
    if has_projective_summand(M):
        raise PreconditionError(
            "second argument must have no projective direct summands")
    strata = _xx1_strata(L, M, primes)
    if not strata:
        raise PreconditionError("Ext^1(M, L) = 0: the identity is vacuous")
    return _report(L, M, strata, primes, "xx1: {} * X_L X_M")


def verify_xx2(P: Representation, M: Representation, primes) -> VerificationReport:
    """dim Hom(P,M) * X_M X_{P[1]} = Hom(M,I)-strata + Hom(P,M)-stratum.

    xx1 for (M, P[1]): tau P[1] = I, Ext^1(P[1], M) = Hom(P, M).  Ker f is
    projective, so X of Coker f (+) (Ker f)[1] at U <= Coker f has the
    exponent of (dim M, mults) at U's preimage U' >= Im f, and f ranges
    over P Hom(P, U'), of chi <mults, dim U'>: one stratum, read off M."""
    q = P.quiver
    tau = _tau_dims(P)
    if P.is_zero() or any(tau):  # tau P = 0 iff P is projective
        raise PreconditionError("first argument must be a nonzero projective")
    mults = summand_multiplicities(q, P.dim, tau)  # the top of P
    I = standard_sum(q, "injective", mults, P.field)
    strata = _hom_strata(M, I, primes, "proj-shift-inj")
    chi = sum(map(mul, mults, M.dim))
    if not chi:
        raise PreconditionError("Hom(P, M) = 0: the identity is vacuous")
    profile = {e: sum(map(mul, mults, e)) * n
               for e, n in grassmannian_profile(M, primes).items()}
    strata.append(StratumReport(M.dim, mults, chi, "proj-shift-hom",
                                exponent_form(q, M.dim, mults, profile)))
    return _report(M, ClusterObject(zero_rep(q, P.field), mults), strata,
                   primes, "xx2: {} * X_M X_P[1]")


def verify_unified(M, N, primes) -> VerificationReport:
    """Both direction-wise stratifications against (d1+d2) * X_M X_N."""
    M = M if isinstance(M, ClusterObject) else cluster_object(M)
    N = N if isinstance(N, ClusterObject) else cluster_object(N)
    m_shift, n_shift = any(M.shifted), any(N.shifted)
    if m_shift and not M.module.is_zero() or n_shift and not N.module.is_zero():
        raise PreconditionError(
            "mixed module/shifted operands are not supported")
    if m_shift or n_shift:
        if m_shift and n_shift:
            raise PreconditionError(
                "both operands shifted: extension space vanishes")
        shifted = M if m_shift else N
        module = N.module if m_shift else M.module
        P = standard_sum(module.quiver, "projective", shifted.shifted,
                         module.field)
        rep = verify_xx2(P, module, primes)
        rep.label = "unified (via shifted reduction): " + rep.label
        return rep
    A, B = M.module, N.module
    strata = _xx1_strata(B, A, primes) + _xx1_strata(A, B, primes)
    if not strata:
        raise PreconditionError("Ext^1 in the cluster category vanishes")
    return _report(A, B, strata, primes, "unified: {} * X_M X_N")
