"""Stratified verification of the cluster multiplication formulas.

Projectivized morphism spaces are enumerated pointwise over each sample
prime, middle terms are bucketed by a homological fingerprint of their
isomorphism class, bucket sizes are interpolated into counting
polynomials, and each stratum contributes chi = P(1) times the character
of a rational-form representative.  All final identities are exact
Laurent-polynomial equalities.

The xx1 and unified identities are assembled from the two public
stratifications, stratify_ext_side and stratify_hom_side; xx2 uses the
Hom-space strata that stratify_hom_side is built on; each Hom side forms
its middle terms with one function over GF(p) and QQ alike.  _report
forms every identity's left-hand side and checks that its sides agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .artranslate import (ar_inverse_maps, ar_translate,
                          has_projective_summand, summand_multiplicities)
from .character import cc, describe
from .errors import (CCLabError, ConfigurationError, PreconditionError,
                     PrimeInstabilityError)
from .grassmannian import _check_prime_count, fit_and_verify
from .laurent import LaurentPolynomial
from .linalg import GF, Mat, _combination, hstack, line_ranks, pencil_rank
from .reps import (ClusterObject, ExtCocycle, Representation,
                   _fingerprint_matrices, _fingerprint_of, _hom_system,
                   _kernel_key, _rep_of_key, cluster_object, cokernel_rep,
                   combine, direct_sum, dual, ext1_setup, fingerprint,
                   hom_basis, hom_dim, kernel_rep, middle_term, reduce_mats,
                   reduce_rep, stable_ext1_dim, standard_sum,
                   top_multiplicities, unit_cocycles, zero_rep)


@dataclass
class StratumReport:
    middle_term: ClusterObject
    chi: int
    side: str  # ext | hom | proj-shift-hom | proj-shift-inj

    def describe(self) -> str:
        return f"{describe(self.middle_term)}: chi={self.chi} ({self.side})"


@dataclass
class VerificationReport:
    lhs: LaurentPolynomial
    rhs: LaurentPolynomial
    strata: list
    verdict: bool
    label: str = ""


def _bucket_key(Y: ClusterObject):
    return (Y.shifted, fingerprint(Y.module))


def _lines(p: int, d: int):
    """P^{d-1}(F_p), first nonzero coordinate 1, as lines (head, ts) of the
    points head + (t,): ts = range(p) for each point head of P^{d-2}(F_p),
    then ts = (1,) for the zero head.  The points come in the order of
    grassmannian.subspaces(p, d, 1)."""
    for k in range(d - 1):
        for rest in product(range(p), repeat=d - 2 - k):
            yield (0,) * k + (1,) + rest, range(p)
    yield (0,) * (d - 1), (1,)


def _run_strata(key_at_prime, middle_at_qq, d: int, primes, side: str):
    """Shared enumerate/bucket/interpolate loop for one projectivized space.

    P^{d-1}(F_p) is walked line by line (_lines).  key_at_prime(p) returns
    a callable that maps a line (head, ts) to the bucket keys of the middle
    terms at its points, one per t; middle_at_qq builds the middle term over
    the rationals from lifted integer coefficients.
    """
    if d == 0:
        return []
    _check_prime_count(len(set(primes)), max(d - 1, 0))
    counts: dict = {}
    witnesses: dict = {}
    for p in primes:
        keys_on = key_at_prime(p)
        here: dict = {}
        for head, ts in _lines(p, d):
            for t, key in zip(ts, keys_on(head, ts)):
                here[key] = here.get(key, 0) + 1
                witness = witnesses.get(key)
                if witness is None:
                    witness = witnesses[key] = (p, [])
                if witness[0] == p:
                    witness[1].append(head + (t,))
        for key, n in here.items():
            counts.setdefault(key, {})[p] = n
    reports = []
    total = 0
    for key in sorted(counts):
        by_prime = {p: counts[key].get(p, 0) for p in primes}
        poly = fit_and_verify(by_prime, max(d - 1, 0))
        chi = poly(1)
        rep = _find_representative(witnesses[key][1], middle_at_qq, key, primes)
        reports.append(StratumReport(rep, chi, side))
        total += chi
    if total != d:
        raise CCLabError(
            f"stratum Euler characteristics sum to {total}, expected {d}")
    return reports


def _find_representative(points, middle_at_qq, key, primes) -> ClusterObject:
    """Rational-form middle term whose reduction matches the bucket at
    every sample prime."""
    for c in sorted(points, key=lambda t: (max(t), t)):
        Y = middle_at_qq(tuple(int(x) for x in c))
        if Y.shifted != key[0]:
            continue
        try:
            ok = all(fingerprint(reduce_rep(Y.module, p)) == key[1]
                     for p in primes)
        except ConfigurationError:
            ok = False
        if ok:
            return Y
    raise PrimeInstabilityError(
        "no projective-space point lifts to a stable representative")


# -- the ext-side stratification ------------------------------------------

def _ext_key(M: Representation, L: Representation, indices):
    """Bucket keys of the middle terms Y_c of sum_k c_k eta_k over GF(p),
    for the unit cocycles eta_k at the given indices, as a function of a
    line (head, ts) that returns the key at c = head + (t,) for each t.

    The arrow matrices of Y_c are affine in c, and each matrix that
    fingerprint ranks is linear in them.  So every such matrix is the
    pencil A_0 + sum_k c_k (A_k - A_0), read from the split extension
    (c = 0) and the d unit middle terms, and pencil_rank ranks it line by
    line.
    """
    split = direct_sum(L, M)
    base = _fingerprint_matrices(split)
    units = [_fingerprint_matrices(middle_term(eta))
             for eta in unit_cocycles(M, L, indices)]
    ranks = [pencil_rank(A, [U.add(A.scale(-1)) for U in Us])
             for A, *Us in zip(base, *units)]
    shifted = (0,) * M.quiver.n
    memo = {}

    def keys_on(head, ts):
        keys = []
        for n in zip(*[[A.cols - r for r in rank(head, ts)]
                       for A, rank in zip(base, ranks)]):
            key = memo.get(n)
            if key is None:
                key = memo[n] = (shifted, _fingerprint_of(split.dim, n))
            keys.append(key)
        return keys
    return keys_on


def stratify_ext_side(M: Representation, L: Representation, primes):
    """Strata of P Ext^1(M, L) by middle-term class, with chi per class.

    d = dim Ext^1 over QQ.  Reduction mod p can only lower the rank of the
    coboundary, so [coboundary | representatives] of full row rank mod p
    makes dim Ext^1 = d mod p, with the same basis."""
    rep_indices, _ = ext1_setup(M, L)
    d = len(rep_indices)
    reduced = {}
    for p in primes:
        Mp, Lp = reduce_rep(M, p), reduce_rep(L, p)
        image = _hom_system(Mp, Lp)
        probe = Mat(GF(p), image.rows, d)
        for j, i in enumerate(rep_indices):
            probe.data[i][j] = 1
        if hstack(GF(p), [image, probe], rows=image.rows).rank() != image.rows:
            raise PrimeInstabilityError(
                f"Ext^1 representatives degenerate mod {p}")
        reduced[p] = Mp, Lp

    basis = [c.components for c in unit_cocycles(M, L, rep_indices)]

    def middle_at_qq(coeffs):
        return cluster_object(middle_term(
            ExtCocycle(M, L, combine(basis, coeffs))))

    return _run_strata(lambda p: _ext_key(*reduced[p], rep_indices),
                       middle_at_qq, d, primes, "ext")


# -- the hom-side stratifications -----------------------------------------

def _hom_strata(L: Representation, T: Representation, primes, side: str,
                family, middle):
    """Strata of P Hom(L, T), d = dim Hom(L, T) over QQ.  The middle term
    of g is middle(Ker g, R, dim Coker g) over GF(p) and QQ alike, where
    R = Coker h for the image h of g under the linear, right exact
    family(L, T, maps) -> (L', T', maps'): over QQ, R is the family's
    image of Coker g.  Before any point, each prime must keep dim Hom = d
    and the reduced basis of rank d, also for d = 0.

    family runs on the basis maps once per prime.  As Coker h = D Ker(Dh),
    with Dh: DT' -> DL' the transposes, a point's memo key is the
    _kernel_key of g and of Dh.  Equal keys give equal K, R and dim Coker g,
    so a miss builds the middle term from the key alone.

    A line is formed once as the pencils G + t F of g and of Dh at each
    vertex, and line_ranks ranks them at every t.  Where each is injective
    the key is the one of K = R = 0, with dim Coker g = dim T - dim L, and
    no kernel is computed; only at the other t are g and Dh built and
    keyed.
    """
    basis_qq = hom_basis(L, T)
    d = len(basis_qq)
    reduced = {}
    for p in primes:
        Lp, Tp = reduce_rep(L, p), reduce_rep(T, p)
        basis = [reduce_mats(f, p) for f in basis_qq]
        flat = [[x for m in f for row in m.data for x in row] for f in basis]
        if hom_dim(Lp, Tp) != d or d and Mat(
                GF(p), d, len(flat[0]), flat).rank() != d:
            raise PrimeInstabilityError(f"Hom space degenerates mod {p}")
        reduced[p] = Lp, Tp, basis

    def key_at_prime(p):
        Lp, Tp, basis = reduced[p]
        Lh, Th, images = family(Lp, Tp, basis)
        DTh = dual(Th)
        # per vertex of g, then of Dh: (the map at c = head + (0,) as a
        # function of c, the last basis map), so the line is G + t F
        n = L.quiver.n
        pencils = [(_combination([f[i].data for f in maps]), maps[-1][i].data)
                   for maps in (basis, [[m.transpose() for m in f]
                                        for f in images])
                   for i in range(n)]
        arrows = ((),) * len(L.quiver.arrows)
        injective_key = ((tuple(Lp.dim), arrows), (tuple(DTh.dim), arrows))
        memo = {}

        def keys_on(head, ts):
            line = [(G(head + (0,)), F) for G, F in pencils]
            full = [all(ranks) for ranks in zip(*(
                [r == cols for r in line_ranks(G, F, cols, p, ts)]
                for (G, F), cols in zip(line, Lp.dim + DTh.dim)))]
            keys = []
            for t, injective in zip(ts, full):
                if injective:
                    mk = injective_key
                else:
                    at_t = [[[(x + t * y) % p for x, y in zip(r, s)]
                             for r, s in zip(G, F)] for G, F in line]
                    mk = (_kernel_key(at_t[:n], Lp),
                          _kernel_key(at_t[n:], DTh))
                key = memo.get(mk)
                if key is None:
                    dim_c = tuple(t - r for t, r in zip(T.dim, mk[0][0]))
                    key = memo[mk] = _bucket_key(middle(
                        _rep_of_key(mk[0], Lp), dual(_rep_of_key(mk[1], DTh)),
                        dim_c))
                keys.append(key)
            return keys
        return keys_on

    def middle_at_qq(coeffs):
        g = combine(basis_qq, coeffs)
        C = cokernel_rep(g, L, T)
        return middle(kernel_rep(g, L, T),
                      family(C, zero_rep(L.quiver, L.field), [])[0], C.dim)

    return _run_strata(key_at_prime, middle_at_qq, d, primes, side)


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
    return _hom_strata(L, ar_translate(M), primes, "hom", ar_inverse_maps,
                       _hom_side_middle)


def _proj_shift_middle(K: Representation, C: Representation, dim_c):
    """Middle term Coker f (+) (Ker f)[1] for f: P -> M with P projective,
    from K = Ker f and C = Coker f, which carries its dimension dim_c."""
    mults = top_multiplicities(K)
    if standard_sum(K.quiver, "projective", mults, K.field).dim != K.dim:
        raise CCLabError("kernel of a map out of a projective is not projective")
    return ClusterObject(C, mults)


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
    """Compare d * X_X X_Y with the sum of chi * X over the strata.

    Each identity has two sides, and _run_strata checks that the chi
    values of each side sum to the dimension of its own space.  The two
    sides must agree, so d is half the chi total.  d fills the {} field of
    label.
    """
    d = sum(s.chi for s in strata) // 2
    totals = {side: sum(s.chi for s in strata if s.side == side)
              for side in dict.fromkeys(s.side for s in strata)}
    if list(totals.values()) != [d, d]:
        raise CCLabError(f"the chi totals of the two sides differ: {totals}")
    lhs = (cc(X, primes).value * cc(Y, primes).value).scale(d)
    rhs = LaurentPolynomial.zero(lhs.nvars)
    for s in strata:
        rhs = rhs + cc(s.middle_term, primes).value.scale(s.chi)
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
    """dim Hom(P,M) * X_M X_{P[1]} = Hom(M,I)-strata + Hom(P,M)-strata."""
    q = P.quiver
    mults = top_multiplicities(P)  # P is projective iff its cover is P
    cover = standard_sum(q, "projective", mults, P.field)
    if P.is_zero() or cover.dim != P.dim:
        raise PreconditionError("first argument must be a nonzero projective")
    I = standard_sum(q, "injective", mults, P.field)
    strata = _hom_strata(M, I, primes, "proj-shift-inj", ar_inverse_maps,
                         _hom_side_middle)
    strata += _hom_strata(P, M, primes, "proj-shift-hom",
                          lambda L, T, maps: (L, T, maps), _proj_shift_middle)
    if not strata:
        raise PreconditionError("Hom(P, M) = 0: the identity is vacuous")
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
