"""Independent seed-mutation engine, used as ground truth for cluster
variables of small quivers.

Cluster variables are carried as exact Laurent polynomials in the
initial variables; every new variable comes from an explicit exact
division, so any arithmetic slip surfaces as a hard error instead of a
wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import InputError
from .laurent import LaurentPolynomial, divide_exact
from .quiver import Quiver


@dataclass(frozen=True)
class Seed:
    bmatrix: tuple[tuple[int, ...], ...]  # skew-symmetric exchange matrix
    cluster: tuple[LaurentPolynomial, ...]

    @property
    def n(self) -> int:
        return len(self.cluster)


def exchange_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """b_ij = #(arrows i->j) - #(arrows j->i)."""
    n = q.n
    b = [[0] * n for _ in range(n)]
    for s, t in q.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    return tuple(tuple(row) for row in b)


def initial_seed(q: Quiver) -> Seed:
    n = q.n
    cluster = tuple(LaurentPolynomial.variable(n, i) for i in range(1, n + 1))
    return Seed(exchange_matrix(q), cluster)


def _exchange(b, kk: int):
    """Mutation of B in direction kk (0-indexed) and the two monomials of
    the exchange binomial, as (position, exponent) pairs in position order:
    x_kk * x_kk' = prod_{b_ik > 0} x_i^b_ik + prod_{b_ik < 0} x_i^-b_ik.
    A row i != kk with b_ik = 0 does not change, so its tuple is reused."""
    top = b[kk]
    nb = []
    for i, row in enumerate(b):
        c = row[kk]
        if i == kk:
            row = tuple(-x for x in row)
        elif c:
            row = tuple(-x if j == kk else x + (abs(c) * y + c * abs(y)) // 2
                        for j, (x, y) in enumerate(zip(row, top)))
        nb.append(row)
    plus = tuple((i, row[kk]) for i, row in enumerate(b) if row[kk] > 0)
    minus = tuple((i, -row[kk]) for i, row in enumerate(b) if row[kk] < 0)
    return tuple(nb), plus, minus


def _monomial(variables, powers, nvars: int) -> LaurentPolynomial:
    """prod variables[i] ** e over the (i, e) in powers; one when empty."""
    factors = [variables[i] ** e for i, e in powers]
    return reduce(mul, factors) if factors else LaurentPolynomial.one(nvars)


def mutate(seed: Seed, k: int) -> Seed:
    """Fomin-Zelevinsky mutation in direction k (1-indexed)."""
    n = seed.n
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range")
    kk = k - 1
    nb, plus, minus = _exchange(seed.bmatrix, kk)
    binomial = (_monomial(seed.cluster, plus, n)
                + _monomial(seed.cluster, minus, n))
    new_var = divide_exact(binomial, seed.cluster[kk])
    cluster = tuple(new_var if i == kk else seed.cluster[i] for i in range(n))
    return Seed(nb, cluster)


def apply_mutations(seed: Seed, directions) -> Seed:
    for k in directions:
        seed = mutate(seed, k)
    return seed


class _Exchanges:
    """Cluster variables interned by canonical string, and the exchange
    relations found so far between their ids."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.variables = []  # id -> LaurentPolynomial
        self.ids = {}        # canonical string -> id
        self.memo = {}       # (id of x, binomial) -> id of P / x

    def intern(self, x: LaurentPolynomial) -> int:
        name = str(x)
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.variables)
            self.variables.append(x)
        return i

    def exchange(self, old: int, binomial) -> int:
        """Id of x' = P / x for x = variables[old], with P the sum of the
        two monomials in binomial, each a tuple of (id, exponent) pairs."""
        key = (old, binomial)
        new = self.memo.get(key)
        if new is None:
            first, second = binomial
            p = (_monomial(self.variables, first, self.nvars)
                 + _monomial(self.variables, second, self.nvars))
            new = self.intern(divide_exact(p, self.variables[old]))
            self.memo[key] = new
            # P = x * x' exactly, so the same binomial sends x' back to x
            self.memo[(new, binomial)] = old
        return new


def _canonical(b, ids):
    """The seed (b, ids) with positions sorted by id and b permuted to match:
    one key per unlabelled seed."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return (tuple(tuple(b[i][j] for j in order) for i in order),
            tuple(ids[i] for i in order))


def enumerate_cluster_variables(q: Quiver, depth: int,
                                report_stable: bool = False):
    """Breadth-first mutation closure up to the given depth.

    Variables are deduplicated by canonical form.  With report_stable the
    return value is (variables, stabilized): stabilized is False when the
    final layer still produced new variables, i.e. the variable set was
    plausibly truncated by the depth cutoff, and at depth 0, which explores
    nothing.

    The search runs over unlabelled seeds (a seed up to renumbering its
    positions), which reach the same clusters at the same depths as
    labelled ones.  Each exchange relation is divided out once.
    """
    if depth < 0:
        raise InputError("depth must be non-negative")
    n = q.n
    ex = _Exchanges(n)
    start = _canonical(exchange_matrix(q), tuple(
        ex.intern(LaurentPolynomial.variable(n, i)) for i in range(1, n + 1)))
    seen = {start}
    layer = [start]
    stabilized = depth > 0
    for step in range(depth):
        next_layer = []
        known = len(ex.variables)
        for b, ids in layer:
            for kk in range(n):
                nb, plus, minus = _exchange(b, kk)
                # ids ascend with position in a canonical seed, so each
                # monomial lists its (id, exponent) pairs sorted by id
                binomial = tuple(sorted((
                    tuple((ids[i], e) for i, e in plus),
                    tuple((ids[i], e) for i, e in minus))))
                new = ex.exchange(ids[kk], binomial)
                seed = _canonical(nb, ids[:kk] + (new,) + ids[kk + 1:])
                if seed not in seen:
                    seen.add(seed)
                    next_layer.append(seed)
        if step == depth - 1 and len(ex.variables) > known:
            stabilized = False
        layer = next_layer
        if not layer:
            break
    vars_out = [ex.variables[ex.ids[s]] for s in sorted(ex.ids)]
    if report_stable:
        return vars_out, stabilized
    return vars_out
