"""The cluster character of an acyclic quiver's cluster category.

Two independent evaluations are provided: the classical exponent form
(reference implementation) and the coindex/antisymmetrized-form
evaluation (cross-check).  Their agreement on the corpus is the central
coherence invariant of the workbench.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .grassmannian import grassmannian_profile
from .laurent import LaurentPolynomial
from .quiver import antisym_form, euler_form
from .reps import ClusterObject, Representation, cluster_object


@dataclass
class CharacterValue:
    value: LaurentPolynomial

    def __eq__(self, other):
        if isinstance(other, CharacterValue):
            return self.value == other.value
        return self.value == other

    def __str__(self):
        return str(self.value)


def _as_cluster_object(obj) -> ClusterObject:
    if isinstance(obj, Representation):
        return cluster_object(obj)
    return obj


def describe(dim, shifted) -> str:
    """The class of an object of module dimension dim and shifted part."""
    parts = []
    if any(dim):
        parts.append(f"module dim {tuple(dim)}")
    for i, p in enumerate(shifted):
        if p:
            parts.append(f"P{i + 1}[1]" + (f"^{p}" if p > 1 else ""))
    return " + ".join(parts) if parts else "0"


def coindex(obj) -> tuple:
    """Class [I0] - [I1] of the minimal injective copresentation
    0 -> M -> I0 -> I1 of the module part, minus the shifted part.

    The algebra is hereditary, so I_i occurs hom(S_i, M) times in I0 and
    ext^1(S_i, M) times in I1.  Both are read off one intertwiner system,
    whose columns less rows is the Euler pairing <e_i, dim M>, whatever
    its rank.  The class [P0] - [P1] of M's own projective presentation
    is NOT equivalent: it agrees on the A2 simples but diverges on P1, and
    the corpus-wide coherence check (cc_palu_form == cc) pins the
    copresentation reading.
    """
    obj = _as_cluster_object(obj)
    q = obj.module.quiver
    return tuple(euler_form(q, [int(j == i) for j in range(q.n)],
                            obj.module.dim) - s
                 for i, s in enumerate(obj.shifted))


def cc(obj, primes) -> CharacterValue:
    """Cluster character, classical exponent form.

    X_M = prod_i x_i^{-m_i} sum_e chi(Gr_e M)
          prod_i x_i^{sum_{a:j->i} e_j + sum_{a:i->j} (m_j - e_j)},
    extended by X_{M (+) P[1]} = X_M * prod x_i^{p_i}.
    """
    obj = _as_cluster_object(obj)
    M = obj.module
    return CharacterValue(exponent_form(M.quiver, M.dim, obj.shifted,
                                        grassmannian_profile(M, primes)))


def exponent_form(q, m, shifted, profile) -> LaurentPolynomial:
    """sum_e chi_e x^exp(e) of cc for the profile {e: chi_e} of a module of
    dimension m with the given shifted part: exp depends on these alone."""
    terms: dict = {}
    for e, chi in profile.items():
        exp = [-m[i] + shifted[i] for i in range(q.n)]
        for s, t in q.arrows:
            exp[t - 1] += e[s - 1]
            exp[s - 1] += m[t - 1] - e[t - 1]
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + chi
    return LaurentPolynomial(q.n, terms)


def cc_palu_form(obj, primes) -> CharacterValue:
    """Cluster character via coindex and the antisymmetrized Euler form.

    X_M = x^{-coind M} sum_e chi(Gr_e M) prod_i x_i^{<s_i, e>_a}.
    Must agree exactly with cc().
    """
    obj = _as_cluster_object(obj)
    M = obj.module
    q = M.quiver
    n = q.n
    coind = coindex(obj)
    terms: dict = {}
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # <s_i, e>_a is bilinear: row i of the form on unit vectors, dotted with e
    form = [[antisym_form(q, si, sj) for sj in units] for si in units]
    for e, chi in grassmannian_profile(M, primes).items():
        exp = tuple(-c + sum(map(mul, row, e)) for c, row in zip(coind, form))
        terms[exp] = terms.get(exp, 0) + chi
    return CharacterValue(LaurentPolynomial(n, terms))

