"""Time the mutation oracle, the Laurent kernels, three stratifications, the
AR translate and Grassmannian profiles, and count the package's lines;
write BENCH_36.json.

Run from the repository root:

    PYTHONPATH=src python scripts/bench.py [--repeats N] [--out PATH]

Stdlib only.  Ten parts:

- closures: the A5 closure to depth 12 (many seeds, small polynomials),
  the Kronecker closure to depth 24 (few seeds, growing polynomials) and
  the E6 closure to depth 12 (all 833 seeds and 42 variables, the oracle
  of a census of E6 characters).  Each is timed, and one extra run counts
  the unlabelled seeds visited, the exchanges looked up and the exact
  divisions made, by wrapping the module's helpers, and how each dense
  quotient was answered (see accepted).
- kernels: on the Kronecker cluster variables x_t (mutating 1, 2, 1, ...)
  it times x_t * x_t and the exchange division (x_t^2 + 1) / x_(t-1), each
  through the public operation and through the dense and the sparse
  kernel on their own (the sparse division is the heap division; the
  dense one runs with its cost test off), and records which kernel the
  public operation selects, the slot width, in bytes, at which the
  dense kernel accepts the quotient, and how the public division's dense
  quotient was answered.
- declined: two dense divisions whose first slot width cannot hold the
  quotient, 3^50 (1 + x)^40 / (1 - x)^40 (certified at the full width)
  and prod_{k<=20} (1 - x^k) / (1 - x)^20 = [20]_x! (no width holds it,
  so the heap division answers), timed as the kernel divisions, with the
  slot widths the public division decodes at and how it was answered.
- stratify: both sides of Kronecker xx1(P1, S1) on the default primes,
  P Ext^1(S1, P1) and P Hom(P1, tau S1), each of dimension 3.  One run
  counts the work of each side, and each side is timed.  On the Ext side,
  an integral over pairs of subrepresentations of the operands, that is
  the subrepresentations listed of L = P1 and of M = S1 over all primes
  and the pairs whose Ext^1 dimension is taken, the product of the two
  listings at each prime; the time per pair follows.  On the Hom side,
  the points walked; the kernels Ker W_v taken on the kernel side of the
  vertex pencils and the incidence |I| they give, the points of
  P(Ker W_v) summed over them; the points keyed, those of N, where some
  vertex kernel leaves its pencil's common kernel, and one point for the
  others; the vertex kernels taken at keyed points, one for each pencil
  that jumps there or whose jumps were not read; and the memo misses.
  The time per point follows.
- d4: the same for Kronecker xx1(P1, I2), P Ext^1(I2, P1) and
  P Hom(P1, tau I2), each of dimension 4.
- d4tilde: the same for D4-tilde xx1(P1, I5), P Ext^1(I5, P1) and
  P Hom(P1, tau I5), each of dimension 2.
- misses: the Hom side of Kronecker xx1(S2, S1) on the default primes,
  P Hom(S2, tau S1) of dimension 2, whose points give cokernels C with
  different canonical matrices but one canonical cokernel of tau^{-1} g.
  It is timed, and one extra run counts the points, the kernels, the
  incidence, the points keyed, the point kernels and the memo misses as
  in stratify; the
  time per point follows.
- tau: ar_translate, ar_inverse and has_projective_summand over QQ on
  fixed stock modules of the Kronecker and D4-tilde quivers, in
  microseconds a call (the min over the batches).
- grass: grassmannian_profile on the default primes of D4-tilde E1+E1,
  A3 I13+I13 and Kronecker P1+I2, each with its caches cleared first:
  the profile, the (U, ann U) tables keyed on (p, d, k) and the Gaussian
  binomials; the module's own tables live for one profile.  Each row has
  the module's ext1, the largest dim Ext^1(M, M) over the primes, and
  skipped_e, the e <= dim M whose tangent bound for it is negative, which
  are never counted.  The timed runs also count the
  counts of subrepresentations, one per kept (e, p), and the cover tuples
  they walk, prod [d_v choose e_v]_p over the cover of each count's
  plan, beside the brute-force tuples over all vertices; and the
  per-vertex tables built, one per (cover vertex, e_v, p) of the
  module, against the (p, d, k) subspace tables computed for them.
- src_lines: the lines of src/cclab/*.py, the size of the package.

Every time is in seconds of the process's CPU time (time.process_time);
wall-clock time moved by up to 30% between runs of the same tree on a
shared machine.  A run of a closure, a side, a profile or the misses part
is timed once a repeat, as the median of the repeats with the minimum
beside it.  Most kernel, declined and tau calls take 0.05-1 ms, below
the noise of one timing, so each of these rows is timed in batches of
repeated calls, doubled until a batch takes BATCH_S, one batch a repeat:
its median_s and min_s are per call, calls_per_batch is kept, and min_s
is the row's time.  Single calls timed as the median of five moved by
15-50% between back-to-back runs.  Batches do not remove the drift of a
shared host's speed between runs, so compare two trees by runs that
alternate between them, not against an earlier BENCH file.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import statistics
import sys
import time

from cclab import grassmannian, laurent, multiplication, mutation
from cclab.artranslate import (ar_inverse, ar_translate,
                               has_projective_summand)
from cclab.config import default_primes
from cclab.corpus import (d4tilde_tube_simples, interval_module,
                          kronecker_regular)
from cclab.laurent import LaurentPolynomial, divide_exact, parse
from cclab.mutation import (apply_mutations, enumerate_cluster_variables,
                            initial_seed)
from cclab.quiver import (a3_quiver, d4tilde_quiver, kronecker_quiver,
                          validate_quiver)
from cclab.reps import (direct_sum, ext1_dim, injective_rep, projective_rep,
                        reduce_rep, simple_rep)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLOSURES = (
    ("a5.closure(12)",
     lambda: validate_quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 12),
    ("kronecker.closure(24)", kronecker_quiver, 24),
    ("e6.closure(12)",
     lambda: validate_quiver(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
     12),
)
KERNEL_STEPS = (4, 8, 12, 16, 20, 24, 32, 40)
# how a dense quotient is answered: accepted at the first width it divides
# at by the norm test or by the packed product at -X, accepted at a later
# width, or declined, so that the heap division answers
ACCEPTANCE = ("norm", "minus_x", "next_width", "heap")
BATCH_S = 0.01  # the least CPU time of a batch of batched calls


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def batched(fn, repeats):
    """timed per call of fn, over batches of n calls, n doubled from 1
    until one batch takes BATCH_S; n is kept as calls_per_batch."""
    n = 1
    while timed(lambda: [fn() for _ in range(n)], 1)["min_s"] < BATCH_S:
        n *= 2
    t = timed(lambda: [fn() for _ in range(n)], repeats)
    return {"median_s": t["median_s"] / n, "min_s": t["min_s"] / n,
            "calls_per_batch": n}


def src_lines():
    """Lines in src/cclab/*.py, as wc -l counts them."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "cclab", "*.py")):
        with open(path) as fh:
            total += fh.read().count("\n")
    return total


def accepted(run):
    """run() and the count of its dense quotients by how each was answered
    (ACCEPTANCE), by wrapping the dense kernel, its decoder and its packer:
    a quotient is accepted by the packed product at -X when the kernel
    packs the q it decoded last."""
    counts = dict.fromkeys(ACCEPTANCE, 0)
    real = laurent._dense_quotient, laurent._unpack_dense, laurent._pack_dense
    quotient, unpack, pack = real
    decoded, checked = [], []

    def decoding(*args):
        decoded.append(unpack(*args))
        return decoded[-1]

    def packing(terms, *args):
        if decoded and terms is decoded[-1]:
            checked.append(len(decoded))
        return pack(terms, *args)

    def counting(*args):
        decoded.clear()
        checked.clear()
        q = quotient(*args)
        counts["heap" if q is None else "next_width" if len(decoded) > 1
               else "minus_x" if checked else "norm"] += 1
        return q

    laurent._dense_quotient, laurent._unpack_dense, laurent._pack_dense = (
        counting, decoding, packing)
    try:
        return run(), counts
    finally:
        (laurent._dense_quotient, laurent._unpack_dense,
         laurent._pack_dense) = real


def closure_counts(q, depth):
    """Seeds, exchanges and divisions of one closure, by wrapping the
    exchange helper, the seed canonicaliser and the division, and how its
    dense quotients were answered."""
    seeds, counts = set(), {"exchanges": 0, "divisions": 0}
    exchange = mutation._exchange
    canonical = mutation._canonical
    divide = mutation.divide_exact

    def counting_exchange(b, kk):
        counts["exchanges"] += 1
        return exchange(b, kk)

    def recording_canonical(b, ids):
        seed = canonical(b, ids)
        seeds.add(seed)
        return seed

    def counting_divide(a, b):
        counts["divisions"] += 1
        return divide(a, b)

    mutation._exchange = counting_exchange
    mutation._canonical = recording_canonical
    mutation.divide_exact = counting_divide
    try:
        (variables, stable), answered = accepted(
            lambda: enumerate_cluster_variables(q, depth, report_stable=True))
    finally:
        mutation._exchange = exchange
        mutation._canonical = canonical
        mutation.divide_exact = divide
    return {"variables": len(variables), "stabilized": stable,
            "seeds": len(seeds), **counts, "dense_quotients": answered}


@contextlib.contextmanager
def counting(L, M):
    """While active, count on the Ext side of (L, M) the subrepresentations
    listed of L and of M and the pairs, the product of the two listings at
    each prime, and on the Hom side the points walked, the kernels taken
    on the kernel side of the vertex pencils, the incidence they give (the
    points of P(Ker W_v) summed over the kernels), the points keyed, the
    vertex kernels taken at them and the memo misses, by wrapping the
    lister, the per-prime walk, the jump sets (a nullspace taken inside
    one is a kernel-side one, any other a point kernel), the nullspace,
    the kernel key (two a keyed point: g and Dh) and the Hom-side middle
    term, which only a memo miss builds; yields the counts, the pairs
    filled in on exit.  A listing is told apart by
    its module's dimension vector, so L and M must differ in it."""
    counts = {"ext": {"subreps_L": 0, "subreps_M": 0, "pairs": 0},
              "hom": {"points": 0, "kernels": 0, "incidence": 0,
                      "keyed": 0, "point_kernels": 0, "memo_misses": 0}}
    ext, hom = counts["ext"], counts["hom"]
    walk = multiplication._hom_walk
    kernel_jumps = multiplication._kernel_jumps
    nullspace = multiplication._nullspace
    key_of_kernels = multiplication._key_of_kernels
    subreps = multiplication.subreps
    hom_middle = multiplication._hom_side_middle
    key_reads, listed = [], {}  # listed: p -> {side: subreps listed}
    in_jumps = []

    def counting_walk(*args):
        key_reads.clear()
        out = walk(*args)
        hom["points"] += sum(n for n, _ in out.values())
        hom["keyed"] += len(key_reads) // 2
        return out

    def marking_jumps(*args):
        in_jumps.append(True)
        try:
            return kernel_jumps(*args)
        finally:
            in_jumps.pop()

    def counting_nullspace(rows, ncols, p):
        free, vecs = nullspace(rows, ncols, p)
        if in_jumps:
            hom["kernels"] += 1
            hom["incidence"] += (p ** len(vecs) - 1) // (p - 1)
        else:
            hom["point_kernels"] += 1
        return free, vecs

    def counting_key(kernels, R):
        key_reads.append(R)
        return key_of_kernels(kernels, R)

    def counting_subreps(R, e, *tables):
        out = subreps(R, e, *tables)
        side = "subreps_L" if R.dim == L.dim else "subreps_M"
        ext[side] += len(out)
        at_p = listed.setdefault(R.field.p, {"subreps_L": 0, "subreps_M": 0})
        at_p[side] += len(out)
        return out

    def counting_hom_middle(K, R, dim_c):
        hom["memo_misses"] += 1
        return hom_middle(K, R, dim_c)

    multiplication._hom_walk = counting_walk
    multiplication._kernel_jumps = marking_jumps
    multiplication._nullspace = counting_nullspace
    multiplication._key_of_kernels = counting_key
    multiplication.subreps = counting_subreps
    multiplication._hom_side_middle = counting_hom_middle
    try:
        yield counts
    finally:
        multiplication._hom_walk = walk
        multiplication._kernel_jumps = kernel_jumps
        multiplication._nullspace = nullspace
        multiplication._key_of_kernels = key_of_kernels
        multiplication.subreps = subreps
        multiplication._hom_side_middle = hom_middle
    ext["pairs"] = sum(n["subreps_L"] * n["subreps_M"]
                       for n in listed.values())


def both_sides(name, L, M, primes, repeats):
    """Both sides of xx1(L, M), P Ext^1(M, L) and P Hom(L, tau M): one run
    counts their work (counting), then each is timed, and the time per
    pair of the Ext side and per point of the Hom side follows."""
    runs = (("ext", lambda: multiplication.stratify_ext_side(M, L, primes)),
            ("hom", lambda: multiplication.stratify_hom_side(L, M, primes)))
    with counting(L, M) as sides:
        for _, run in runs:
            run()
    for side, run in runs:
        sides[side].update(timed(run, repeats))
    sides["ext"]["us_per_pair"] = (sides["ext"]["median_s"]
                                   / sides["ext"]["pairs"] * 1e6)
    sides["hom"]["us_per_point"] = (sides["hom"]["median_s"]
                                    / sides["hom"]["points"] * 1e6)
    return {"name": name, "primes": list(primes), **sides}


def kronecker_variables(last):
    """x_0, x_1, ..., x_last along the Kronecker chain, x_0 = x1 and
    x_1 = x2; each mutation replaces the older of the two."""
    seed = initial_seed(kronecker_quiver())
    chain = [seed.cluster[0], seed.cluster[1]]
    for t in range(2, last + 1):
        seed = apply_mutations(seed, [1 if t % 2 == 0 else 2])
        chain.append(seed.cluster[(t - 2) % 2])
    return chain


def selected(run, sparse):
    """The kernel run() takes: "sparse" if it calls laurent.<sparse>,
    else "dense"."""
    real, calls = getattr(laurent, sparse), []

    def counting(*args):
        calls.append(sparse)
        return real(*args)

    setattr(laurent, sparse, counting)
    try:
        run()
    finally:
        setattr(laurent, sparse, real)
    return "sparse" if calls else "dense"


def forced_dense_quotient(p, b, box):
    """laurent._dense_quotient with its cost test off, so that the dense
    kernel runs also where the public division selects the heap."""
    saved, laurent._HEAP_STEP_BYTES = laurent._HEAP_STEP_BYTES, float("inf")
    try:
        return laurent._dense_quotient(p, b, box)
    finally:
        laurent._HEAP_STEP_BYTES = saved


def term_box(a, b):
    """laurent._box of the term dicts a and b, with no density test."""
    return laurent._box(*[list(map(set, zip(*terms))) for terms in (a, b)])


def slot_widths(run):
    """run() and the slot width, in bytes, of each laurent._unpack_dense
    it makes: the widths a dense quotient is decoded at, in order."""
    real, widths = laurent._unpack_dense, []

    def recording(*args):
        widths.append(args[-1])
        return real(*args)

    laurent._unpack_dense = recording
    try:
        return run(), widths
    finally:
        laurent._unpack_dense = real


def declined_pairs():
    """Dense divisions whose first slot width cannot hold the quotient, as
    (name, a, b): 3^50 (1 + x)^40 over (1 - x)^40, which the full width
    then certifies, and prod_{k<=20} (1 - x^k) over (1 - x)^20, whose
    quotient [20]_x! outgrows every width, so the heap division answers."""
    x, one = parse("x1", 1), LaurentPolynomial.one(1)
    q, b = (one + x) ** 40 * 3 ** 50, (one - x) ** 40
    a = one
    for k in range(1, 21):
        a = a * (one - x ** k)
    return [("3^50 (1+x)^40 / (1-x)^40", q * b, b),
            ("[20]_x! = prod (1-x^k) / (1-x)^20", a, (one - x) ** 20)]


def declined_row(name, a, b, repeats):
    """The widths the public division a / b decodes at and the kernel that
    answers, with its time beside the dense kernel's (cost test off) and
    the heap division's."""
    p, d, box = a.terms, b.terms, term_box(a.terms, b.terms)
    _, widths = slot_widths(lambda: divide_exact(a, b))
    return {"name": name, "dividend_terms": len(p), "divisor_terms": len(d),
            "slot_bytes": widths,
            "selected": selected(lambda: divide_exact(a, b),
                                 "_heap_quotient"),
            "accepted": accepted(lambda: divide_exact(a, b))[1],
            **batched(lambda: divide_exact(a, b), repeats),
            "dense": batched(lambda: forced_dense_quotient(p, d, box),
                             repeats),
            "sparse": batched(lambda: laurent._heap_quotient(p, d, 1),
                              repeats)}


def kernel_row(chain, t, repeats):
    """The square of x_t and the exchange division (x_t^2 + 1) / x_(t-1)
    along the Kronecker chain: the public operations, which kernel each
    selects, and both kernels on their own."""
    x, prev = chain[t], chain[t - 1]
    square = x * x
    binomial = square + 1
    if divide_exact(binomial, prev) != chain[t + 1]:
        raise SystemExit(f"exchange relation fails at x_{t}")
    a, b, p = x.terms, prev.terms, binomial.terms
    box, dbox = term_box(a, a), term_box(p, b)
    quotient, widths = slot_widths(
        lambda: forced_dense_quotient(p, b, dbox))
    if quotient != chain[t + 1].terms:
        raise SystemExit(f"dense quotient fails at x_{t}")
    return {
        "step": t, "terms": len(a),
        "mul": {"operand_terms": len(a), "result_terms": len(square.terms),
                "selected": selected(lambda: x * x, "_sparse_product"),
                **batched(lambda: x * x, repeats),
                "dense": batched(lambda: laurent._dense_product(a, a, box),
                                 repeats),
                "sparse": batched(lambda: laurent._sparse_product(a, a, 2),
                                  repeats)},
        "divide_exact": {
            "dividend_terms": len(p), "divisor_terms": len(b),
            "selected": selected(lambda: divide_exact(binomial, prev),
                                 "_heap_quotient"),
            "accepted": accepted(lambda: divide_exact(binomial, prev))[1],
            "slot_bytes": widths[-1],
            **batched(lambda: divide_exact(binomial, prev), repeats),
            "dense": batched(lambda: forced_dense_quotient(p, b, dbox),
                             repeats),
            "sparse": batched(lambda: laurent._heap_quotient(p, b, 2),
                              repeats)},
    }


def tau_modules():
    """Stock modules with no projective summand, as (name, module)."""
    qk, qd = kronecker_quiver(), d4tilde_quiver()
    e1, _ = d4tilde_tube_simples()
    return [("kronecker.S1", simple_rep(qk, 1)),
            ("kronecker.I2", injective_rep(qk, 2)),
            ("kronecker.R(1,1)", kronecker_regular(1, 1)),
            ("d4t.E1", e1), ("d4t.I5", injective_rep(qd, 5))]


def grass_modules():
    """The profiled modules, as (name, module)."""
    e1, _ = d4tilde_tube_simples()
    i13 = interval_module(a3_quiver(), 1, 3)
    qk = kronecker_quiver()
    return [("d4t.E1+E1", direct_sum(e1, e1)),
            ("a3.I13+I13", direct_sum(i13, i13)),
            ("kronecker.P1+I2",
             direct_sum(projective_rep(qk, 1), injective_rep(qk, 2)))]


@contextlib.contextmanager
def counting_subreps():
    """While active, count the counts of subrepresentations, the cover and
    brute-force tuples of each and the per-vertex tables built, by
    wrapping the counter that count_subreps and euler_char_grassmannian
    share and the table builder; yields the counts.  The tuples are sized
    with the unmemoized Gaussian binomial, so the memo stays cold."""
    counts = {"count_subreps_calls": 0, "cover_tuples": 0,
              "brute_force_tuples": 0, "vertex_table_builds": 0}
    count = grassmannian._count_subreps
    vertex_table = grassmannian._vertex_table
    binomial = grassmannian.gaussian_binomial.__wrapped__

    def counting_count(M, plan, p, by_prime):
        cover, _, sides = plan
        counts["count_subreps_calls"] += 1
        tuples = 1
        for _, d, k in cover:
            tuples *= binomial(d, k, p)
        counts["cover_tuples"] += tuples
        for d, k, *_ in sides:
            tuples *= binomial(d, k, p)
        counts["brute_force_tuples"] += tuples
        return count(M, plan, p, by_prime)

    def counting_vertex_table(*args):
        counts["vertex_table_builds"] += 1
        return vertex_table(*args)

    grassmannian._count_subreps = counting_count
    grassmannian._vertex_table = counting_vertex_table
    try:
        yield counts
    finally:
        grassmannian._count_subreps = count
        grassmannian._vertex_table = vertex_table


def cold_profile(M, primes):
    """grassmannian_profile with its profile, subspace-table and
    Gaussian-binomial caches cleared."""
    for cache in (grassmannian._profile, grassmannian._subspace_table,
                  grassmannian.gaussian_binomial):
        cache.cache_clear()
    return grassmannian.grassmannian_profile(M, primes)


def answers(counts):
    """The nonzero counts of an ACCEPTANCE dict, as text."""
    return ", ".join(f"{n} {kind}" for kind, n in counts.items()
                     if n) or "none"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_36.json"))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    closures = []
    for name, make, depth in CLOSURES:
        q = make()
        row = {"name": name, **closure_counts(q, depth)}
        row.update(timed(lambda: enumerate_cluster_variables(q, depth),
                         args.repeats))
        closures.append(row)

    chain = kronecker_variables(max(KERNEL_STEPS) + 1)
    kernels = [kernel_row(chain, t, args.repeats) for t in KERNEL_STEPS]
    declined = [declined_row(*pair, args.repeats)
                for pair in declined_pairs()]

    q, primes = kronecker_quiver(), default_primes()
    P1, S1, S2 = projective_rep(q, 1), simple_rep(q, 1), simple_rep(q, 2)
    stratify = both_sides("kronecker.xx1(P1,S1)", P1, S1, primes,
                          args.repeats)
    d4 = both_sides("kronecker.xx1(P1,I2)", P1, injective_rep(q, 2), primes,
                    args.repeats)
    qd = d4tilde_quiver()
    d4tilde = both_sides("d4t.xx1(P1,I5)", projective_rep(qd, 1),
                         injective_rep(qd, 5), primes, args.repeats)

    with counting(S2, S1) as counts:
        multiplication.stratify_hom_side(S2, S1, primes)
    row = counts["hom"]
    row.update(timed(lambda: multiplication.stratify_hom_side(S2, S1, primes),
                     args.repeats))
    row["us_per_point"] = row["median_s"] / row["points"] * 1e6
    misses = {"name": "kronecker.hom(S2,S1)", "primes": list(primes), **row}

    tau = []
    for name, M in tau_modules():
        row = {"name": name, "dim": M.dim, "tau_dim": ar_translate(M).dim,
               "inverse_dim": ar_inverse(M).module.dim}
        for fn in (ar_translate, ar_inverse, has_projective_summand):
            t = batched(lambda: fn(M), args.repeats)
            row[f"us_per_{fn.__name__}"] = t["min_s"] * 1e6
        tau.append(row)

    grass = []
    for name, M in grass_modules():
        ext1 = max(ext1_dim(reduce_rep(M, p), reduce_rep(M, p))
                   for p in primes)
        n_e = 1
        for d in M.dim:
            n_e *= d + 1
        skipped = n_e - len(grassmannian.tangent_bounds(M.quiver, M.dim,
                                                        ext1))
        with counting_subreps() as counts:
            row = timed(lambda: cold_profile(M, primes), args.repeats)
        # each run starts cold, so the last run's misses are every run's
        built = grassmannian._subspace_table.cache_info().misses
        row = {"name": name, "dim": M.dim, "primes": list(primes),
               "ext1": ext1, "skipped_e": skipped,
               **{k: n // args.repeats for k, n in counts.items()},
               "subspace_table_misses": built, **row}
        grass.append(row)

    doc = {
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "repeats": args.repeats,
        "timer": "time.process_time, CPU time of the process",
        "closures": closures,
        "kernels": kernels,
        "declined": declined,
        "stratify": stratify,
        "d4": d4,
        "d4tilde": d4tilde,
        "misses": misses,
        "tau": tau,
        "grass": grass,
        "src_lines": src_lines(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for row in closures:
        print(f"{row['name']}: {row['median_s']:.3f} s, {row['seeds']} seeds, "
              f"{row['exchanges']} exchanges, {row['divisions']} divisions, "
              "dense quotients " + answers(row["dense_quotients"]))
    for row in kernels:
        print(f"kronecker x_{row['step']} ({row['terms']} terms):", ", ".join(
            f"{op} {k['min_s'] * 1e3:.3f} ms ({k['selected']}; dense "
            f"{k['dense']['min_s'] * 1e3:.3f}, sparse "
            f"{k['sparse']['min_s'] * 1e3:.3f})"
            for op, k in (("mul", row["mul"]),
                          ("divide_exact", row["divide_exact"]))),
            f"dense quotient at {row['divide_exact']['slot_bytes']}-byte "
            "slots, " + answers(row["divide_exact"]["accepted"]))
    for row in declined:
        print(f"{row['name']}: {row['min_s'] * 1e3:.3f} ms "
              f"({row['selected']}; dense {row['dense']['min_s'] * 1e3:.3f}"
              f", sparse {row['sparse']['min_s'] * 1e3:.3f}), decoded at "
              f"{row['slot_bytes']} bytes, " + answers(row["accepted"]))
    for part in (stratify, d4, d4tilde):
        row = part["ext"]
        print(f"{part['name']} ext side: {row['median_s']:.3f} s, "
              f"{row['subreps_L']} + {row['subreps_M']} subrepresentations "
              f"listed, {row['pairs']} pairs, "
              f"{row['us_per_pair']:.0f} us a pair")
        row = part["hom"]
        print(f"{part['name']} hom side: {row['median_s']:.3f} s, "
              f"{row['points']} points, {row['keyed']} keyed, "
              f"{row['kernels']} kernels of incidence {row['incidence']}, "
              f"{row['point_kernels']} point kernels, "
              f"{row['memo_misses']} misses, "
              f"{row['us_per_point']:.0f} us a point")
    print(f"{misses['name']}: {misses['median_s']:.3f} s, "
          f"{misses['points']} points, {misses['keyed']} keyed, "
          f"{misses['point_kernels']} point kernels, "
          f"{misses['memo_misses']} misses, "
          f"{misses['us_per_point']:.0f} us a point")
    for row in tau:
        print(f"{row['name']}: ar_translate {row['us_per_ar_translate']:.0f} "
              f"us, ar_inverse {row['us_per_ar_inverse']:.0f} us, "
              "has_projective_summand "
              f"{row['us_per_has_projective_summand']:.0f} us")
    for row in grass:
        print(f"{row['name']} profile: {row['median_s']:.3f} s, ext1 "
              f"{row['ext1']}, {row['skipped_e']} e skipped, "
              f"{row['count_subreps_calls']} counts, {row['cover_tuples']} "
              f"cover tuples ({row['brute_force_tuples']} brute force), "
              f"{row['vertex_table_builds']} vertex tables from "
              f"{row['subspace_table_misses']} subspace tables")
    print(f"src/cclab: {doc['src_lines']} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
