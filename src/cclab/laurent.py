"""Integer-coefficient Laurent polynomials in n variables, canonical form.

Terms live in a dict mapping exponent tuples (entries may be negative) to
nonzero integer coefficients, so equal values always have identical
representations.  The printed form sorts terms by (total degree, exponent
tuple) and is bit-exact across runs:  ``x1^-1 + x1^-1*x2``.

Multiplication and exact division pack each exponent tuple into one int:
a total-degree field on top, then one field per variable, each field wide
enough for every value the operation can produce.  Adding packed keys adds
exponents, and comparing them compares (total degree, exponent tuple), so
the kernels never build a tuple per term pair.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InexactDivisionError, InputError


class LaurentPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise InputError("exponent length mismatch")
                if c != 0:
                    self.terms[tuple(exp)] = self.terms.get(tuple(exp), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "LaurentPolynomial":
        """x_i^power for 1-indexed i."""
        exp = [0] * nvars
        exp[i - 1] = power
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "LaurentPolynomial":
        return cls(len(exps), {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise InputError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            elif e in terms:
                del terms[e]
        out = LaurentPolynomial(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPolynomial(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out = LaurentPolynomial(self.nvars)
        if not self.terms or not other.terms:
            return out
        # every product exponent and degree is below 2^(width - 1) in size,
        # so each field of k1 + k2 is that value plus bias, in [0, 2^width)
        width = (_size(self.terms) + _size(other.terms)).bit_length() + 1
        bias = 1 << (width - 1)
        left = [(_pack(e, width, bias), c) for e, c in self.terms.items()]
        right = [(_pack(e, width), c) for e, c in other.terms.items()]
        acc = {}
        get = acc.get
        if other is self:
            # a square takes each unordered pair {i, j} of terms once and
            # counts it twice when i != j
            for i, (k1, c1) in enumerate(left):
                k = k1 + right[i][0]
                acc[k] = get(k, 0) + c1 * c1
                c1 *= 2
                for k2, c2 in right[i + 1:]:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        else:
            for k1, c1 in left:
                for k2, c2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        out.terms = {_unpack(k, self.nvars, width, bias): c
                     for k, c in acc.items() if c}
        return out

    __rmul__ = __mul__

    def scale(self, k: int):
        out = LaurentPolynomial(self.nvars)
        if k:
            out.terms = {e: c * k for e, c in self.terms.items()}
        return out

    def __pow__(self, k: int):
        if k < 0:
            if len(self.terms) != 1:
                raise InexactDivisionError("negative power of a non-monomial")
            (e, c), = self.terms.items()
            if abs(c) != 1:
                raise InexactDivisionError("non-unit monomial coefficient")
            return LaurentPolynomial(
                self.nvars, {tuple(k * x for x in e): c ** (k % 2 or 2) if c < 0 else 1})
        if k < 2:
            return self if k else LaurentPolynomial.one(self.nvars)
        half = self ** (k >> 1)
        square = half * half
        return square * self if k & 1 else square

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.nvars, other)
        return (isinstance(other, LaurentPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        c = self.terms.get((0,) * self.nvars, 0)
        if len(self.terms) == (c != 0):
            return hash(c)
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, values):
        """Exact value at nonzero rational/integer arguments, as a Fraction."""
        values = [Fraction(x) for x in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for x, k in zip(values, e):
                v *= x ** k
            total += v
        return total

    # -- canonical form ----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                factors.append(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __repr__ = __str__


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?((?:x\d+(?:\^-?\d+)?(?:\*x\d+(?:\^-?\d+)?)*))?$")


def parse(s: str, nvars: int) -> LaurentPolynomial:
    """Parse the canonical string format back into a polynomial."""
    s = s.strip()
    if s == "0":
        return LaurentPolynomial.zero(nvars)
    # terms are separated by spaced +/-; a leading sign may hug its term
    lead = "+"
    if s and s[0] in "+-":
        lead = s[0]
        s = s[1:].lstrip()
    chunks = [lead] + [c.strip() for c in re.split(r"\s([+-])\s", s)]
    if len(chunks) % 2:
        raise InputError(f"cannot parse polynomial: {s!r}")
    out = LaurentPolynomial.zero(nvars)
    for sign, body in zip(chunks[::2], chunks[1::2]):
        m = _TERM_RE.match(body.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise InputError(f"cannot parse term: {body!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if sign == "-":
            coeff = -coeff
        exp = [0] * nvars
        if m.group(2):
            for factor in m.group(2).split("*"):
                if "^" in factor:
                    var, _, pw = factor.partition("^")
                    power = int(pw)
                else:
                    var, power = factor, 1
                idx = int(var[1:])
                if not 1 <= idx <= nvars:
                    raise InputError(f"variable index out of range: {factor}")
                exp[idx - 1] += power
        out = out + LaurentPolynomial.monomial(exp, coeff)
    return out


def _pack(exp, width: int, bias: int = 0) -> int:
    """Exponent tuple as one int: total degree on top, then x1, ..., xn,
    each field holding value + bias.  Negative values are allowed; the sum
    is exact, and decodes uniquely once every field lies in [0, 2^width)."""
    k = sum(exp) + bias
    for x in exp:
        k = (k << width) + x + bias
    return k


def _unpack(k: int, nvars: int, width: int, bias: int = 0) -> tuple:
    mask = (1 << width) - 1
    exp = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        exp[i] = (k & mask) - bias
        k >>= width
    return tuple(exp)


def _size(terms) -> int:
    """A bound on |total degree| and on |exponent| over the terms."""
    return max(sum(map(abs, e)) for e in terms)


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Exact quotient a / b; raises InexactDivisionError if b does not divide a.

    Both operands are shifted to honest polynomials first; for an exact
    Laurent division the shifted quotient is again a polynomial, so plain
    leading-term division (graded-lex order) terminates and certifies
    exactness along the way.  Leading terms come off a max-heap of packed
    exponents, which holds each key of the remainder once; a term that
    cancelled stays at 0 until its key is popped, and is skipped then.
    """
    # heapq loads a C extension; importing it here keeps that off the
    # start-up of programs that never divide
    from heapq import heapify, heappop, heappush

    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPolynomial.zero(a.nvars)
    a._check(b)
    n = a.nvars
    mins_a = [min(e[i] for e in a.terms) for i in range(n)]
    mins_b = [min(e[i] for e in b.terms) for i in range(n)]
    # Shifted exponents and every remainder term's degree stay within the
    # larger shifted degree, so fields of this width keep a zero top bit.
    top = max(max(map(sum, a.terms)) - sum(mins_a),
              max(map(sum, b.terms)) - sum(mins_b))
    width = top.bit_length() + 1
    guard = _pack((0,) * n, width, 1 << (width - 1))
    off_a, off_b = _pack(mins_a, width), _pack(mins_b, width)
    rem = {_pack(e, width) - off_a: c for e, c in a.terms.items()}
    divisor = [(_pack(e, width) - off_b, c) for e, c in b.terms.items()]
    lead_b, cb = max(divisor)
    # the leading term cancels each popped lead exactly; the rest update
    rest = [(e, bc) for e, bc in divisor if e != lead_b]
    heap = [-k for k in rem]
    heapify(heap)
    quo = {}
    while heap:
        lead = -heappop(heap)
        c = rem.pop(lead)
        if not c:
            continue
        # a field of lead + guard - lead_b keeps its top bit exactly when
        # that exponent of lead is at least lead_b's
        qk = lead + guard - lead_b
        if qk & guard != guard or c % cb != 0:
            raise InexactDivisionError("polynomial division left a remainder")
        qk -= guard
        qc = c // cb
        quo[qk] = qc
        for e, bc in rest:
            t = qk + e
            v = rem.get(t)
            if v is None:
                rem[t] = -qc * bc
                heappush(heap, -t)
            else:
                rem[t] = v - qc * bc
    shift = [x - y for x, y in zip(mins_a, mins_b)]
    out = LaurentPolynomial(n)
    out.terms = {tuple(x + y for x, y in zip(_unpack(k, n, width), shift)): c
                 for k, c in quo.items()}
    return out
