"""Integer-coefficient Laurent polynomials in n variables, canonical form.

Terms live in a dict mapping exponent tuples (entries may be negative) to
nonzero integer coefficients, so equal values always have identical
representations.  The printed form sorts terms by (total degree, exponent
tuple) and is bit-exact across runs:  ``x1^-1 + x1^-1*x2``.

Multiplication and exact division each have two kernels.

- Sparse, for small or scattered operands.  Both operands are shifted to
  honest polynomials, and each exponent tuple packs into one int: a
  total-degree field on top, then one field per variable, each wide
  enough for every value the operation can produce.  Adding packed keys
  adds exponents, and comparing them compares (total degree, exponent
  tuple), so the kernels never build a tuple per term pair.  Division
  takes its leading terms off a heap and certifies exactness as it goes.
- Dense (Kronecker substitution), when the operands make at least
  _DENSE_PAIRS pairs of terms and each has at most _DENSE_FILL points of
  its exponent box per term.  The box spans each variable from the lowest
  to the highest exponent, in steps of the gcd of the offsets.  Each
  operand packs into one int, one slot of 1, 2, 4, 8 or 4k bytes per box
  point, by an exact pairwise sum.  Packing is a ring map, so a product
  is one bigint product, and a quotient a divmod in slots sized first for
  it, then for the dividend, where long division should beat the heap.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add, sub

from .errors import InexactDivisionError, InputError


class LaurentPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if type(nvars) is not int or nvars < 0:
            raise InputError(f"variable count {nvars!r} is not an int >= 0")
        if terms is not None and not isinstance(terms, dict):
            raise InputError(f"terms {terms!r} are not a dict")
        self.nvars, self.terms = nvars, {}
        if terms:
            for exp, c in terms.items():
                if type(exp) is not tuple:
                    raise InputError(f"exponent {exp!r} is not a tuple")
                if len(exp) != nvars:
                    raise InputError("exponent length mismatch")
                if any(type(x) is not int for x in (c, *exp)):
                    raise InputError(f"non-integer term {c!r} at {exp!r}")
                self.terms[exp] = self.terms.get(exp, 0) + c
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

    def _operand(self, other):
        if type(other) is int:
            return LaurentPolynomial.constant(self.nvars, other)
        if isinstance(other, LaurentPolynomial):
            if self.nvars != other.nvars:
                raise InputError("variable count mismatch")
            return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
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
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is int:
            return self.scale(other)
        if self._operand(other) is None:
            return NotImplemented
        out = LaurentPolynomial(self.nvars)
        a, b = self.terms, other.terms
        if a and b:
            box = _dense_box(a, b)
            out.terms = (_dense_product(a, b, box) if box
                         else _sparse_product(a, b, self.nvars))
        return out

    __rmul__ = __mul__

    def scale(self, k: int):
        if type(k) is not int:
            raise InputError(f"non-integer scale {k!r}")
        out = LaurentPolynomial(self.nvars)
        if k:
            out.terms = {e: c * k for e, c in self.terms.items()}
        return out

    def __pow__(self, k: int):
        if type(k) is not int:
            return NotImplemented
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
        if type(other) is int:
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

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(),
                           key=lambda t: (sum(t[0]), t[0])):
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


_TERM_RE = re.compile(r"^(?:(\d+)(?:\*(?=x)|$))?((?:x\d+(?:\^-?\d+)?(?:\*x\d+(?:\^-?\d+)?)*))?$")


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
    # re.split keeps each sign, so chunks alternate sign and term
    chunks = [lead] + [c.strip() for c in re.split(r"\s([+-])\s", s)]
    out = LaurentPolynomial.zero(nvars)
    for sign, body in zip(chunks[::2], chunks[1::2]):
        m = _TERM_RE.match(body.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise InputError(f"cannot parse term: {body!r}")
        coeff = int(m.group(1) or 1) * (-1 if sign == "-" else 1)
        exp = [0] * nvars
        if m.group(2):
            for factor in m.group(2).split("*"):
                var, _, power = factor.partition("^")
                idx = int(var[1:])
                if not 1 <= idx <= nvars:
                    raise InputError(f"variable index out of range: {factor}")
                exp[idx - 1] += int(power or 1)
        out = out + LaurentPolynomial.monomial(exp, coeff)
    return out


def _pack(exp, width: int) -> int:
    """Exponent tuple as one int: total degree on top, then x1, ..., xn,
    one field of this width each.  Packing is linear, so sums and
    differences of keys are those of the exponents; a key decodes uniquely
    once every field lies in [0, 2^width)."""
    k = sum(exp)
    for x in exp:
        k = (k << width) + x
    return k


def _unpack(k: int, nvars: int, width: int, shift) -> tuple:
    """The exponents packed in k, each plus its entry of shift."""
    mask = (1 << width) - 1
    exp = list(shift)
    for i in range(nvars - 1, -1, -1):
        exp[i] += k & mask
        k >>= width
    return tuple(exp)


def _shifted(terms):
    """(low, top): each variable's lowest exponent over the terms, and the
    largest total degree once the terms are shifted by -low to an honest
    polynomial."""
    low = list(map(min, zip(*terms)))
    return low, max(map(sum, terms)) - sum(low)


def _packed(terms, low, width: int) -> list:
    """(key, coefficient) of each term shifted by -low."""
    off = _pack(low, width)
    return [(_pack(e, width) - off, c) for e, c in terms.items()]


def _sparse_product(a, b, nvars: int) -> dict:
    """The terms of a * b, for term dicts a and b, by one packed-key sum per
    pair of terms.  Both are shifted to honest polynomials first, as in
    _heap_quotient, so every field of k1 + k2 lies in [0, 2^width)."""
    (low_a, top_a), (low_b, top_b) = _shifted(a), _shifted(b)
    width = (top_a + top_b).bit_length() or 1
    right = _packed(b, low_b, width)
    acc = {}
    get = acc.get
    for k1, c1 in _packed(a, low_a, width):
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    shift = list(map(add, low_a, low_b))
    return {_unpack(k, nvars, width, shift): c for k, c in acc.items() if c}


# -- the dense kernels: one bigint product or divmod -----------------------

_DENSE_PAIRS = 32   # fewest pairs of terms, len(a) * len(b), to go dense
_DENSE_FILL = 4     # most box points per term of either dense operand
# long-division byte products as slow as one heap step (CPython 3.11, x86-64)
_HEAP_STEP_BYTES = 1300
_SIGNED = {struct.calcsize(c): c for c in "bhilq"}  # typecode by itemsize


def _box(cols_a, cols_b):
    """The boxes (low_a, low_b, steps, spans_a, spans_b) of two operands
    from the sets of their exponents of each variable: each lowest one, the
    gcd of the offsets from those (1 if none moves), each box's span."""
    rows = []
    for col_a, col_b in zip(cols_a, cols_b):
        la, lb = min(col_a), min(col_b)
        g = gcd(*[x - la for x in col_a], *[x - lb for x in col_b]) or 1
        rows.append((la, lb, g, (max(col_a) - la) // g + 1,
                     (max(col_b) - lb) // g + 1))
    return [list(col) for col in zip(*rows)]


def _dense_box(a, b):
    """_box of the term dicts a and b if they make _DENSE_PAIRS pairs of
    terms and each box has at most _DENSE_FILL points per term, checked
    first on the distinct exponents, which are points of it; else None."""
    if len(a) * len(b) < _DENSE_PAIRS:
        return None
    cols = [list(map(set, zip(*a)))]
    cols.append(cols[0] if b is a else list(map(set, zip(*b))))
    fill = [_DENSE_FILL * len(a), _DENSE_FILL * len(b)]
    if any(prod(map(len, c)) > f for c, f in zip(cols, fill)):
        return None
    box = _box(*cols)
    return None if prod(box[3]) > fill[0] or prod(box[4]) > fill[1] else box


def _slot_bytes(bound: int) -> int:
    """Bytes of a slot holding every |c| <= bound: 1, 2, 4, 8 or 4k."""
    size = (bound.bit_length() + 8) // 8
    return 1 << (size - 1).bit_length() if size <= 8 else -(-size // 4) * 4


def _slots(terms, low, steps, spans) -> list:
    """The slot of each exponent of the terms: the index of its point in
    the box with corner low, steps and spans, the last variable fastest."""
    pos = [0] * len(terms)
    for col, lo, g, s in zip(zip(*terms), low, steps, spans):
        pos = [p * s + (x - lo) // g for p, x in zip(pos, col)]
    return pos


def _pack_dense(terms, pos, size: int, pair=False):
    """sum c X^p over coefficients c at slots p, X = 2^(8 size), pairwise:
    x + (y << bits), bits doubling, exact for any c.  With pair also sum
    c (-X)^p = E - O X, with E and O the even and odd slots summed at X^2."""
    slots = [0] * (max(pos) + 2 & -2)  # even, so E and O are alike
    for p, c in zip(pos, terms.values()):
        slots[p] = c
    parts, values = (2, slots[::2] + slots[1::2]) if pair else (1, slots)
    bits = 8 * size * parts
    while len(values) > parts:
        n = len(values) // parts
        if n & 1:  # a zero tops each part, so no pair straddles two
            for i in range(parts, 0, -1):
                values.insert(i * n, 0)
        values = [x + (y << bits) for x, y in zip(values[::2], values[1::2])]
        bits *= 2
    if not pair:
        return values[0]
    even, odd = values[0], values[1] << 8 * size
    return even + odd, even - odd


def _unpack_dense(value: int, low, steps, spans, size: int) -> dict:
    """The terms of value's balanced digits in base X = 2^(8 size), slot k
    at the k-th point of the box with corner low and these steps and
    spans; {} when value has no such digits."""
    from array import array
    word, count = min(size & -size, 8), prod(spans)
    per, mask = size // word, (1 << 8 * word) - 1
    flip = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    # the XOR turns each slot's digit plus half into its two's complement
    value += flip
    if value < 0 or value >> 8 * size * count:
        return {}
    words = array(_SIGNED[word],
                  (value ^ flip).to_bytes(size * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    digits = words[per - 1::per]
    for r in range(per - 2, -1, -1):
        digits = [(d << 8 * word) | (x & mask)
                  for d, x in zip(digits, words[r::per])]
    points = product(*[range(lo, lo + g * s, g)
                       for lo, g, s in zip(low, steps, spans)])
    return {e: d for e, d in zip(points, digits) if d}


def _norms(terms):
    """|c|_1 and |c|_oo over the coefficients of a term dict."""
    return sum(map(abs, terms.values())), max(map(abs, terms.values()))


def _dense_product(a, b, box) -> dict:
    """The terms of a * b by one bigint product: each operand packed on
    the product's box, in slots that hold every coefficient of a * b."""
    low_a, low_b, steps, spans_a, spans_b = box
    spans = [x + y - 1 for x, y in zip(spans_a, spans_b)]
    norms = _norms(a)
    (norm_a, top_a), (norm_b, top_b) = norms, norms if b is a else _norms(b)
    size = _slot_bytes(min(norm_a * top_b, top_a * norm_b))
    packed = _pack_dense(a, _slots(a, low_a, steps, spans), size)
    packed *= packed if b is a else _pack_dense(
        b, _slots(b, low_b, steps, spans), size)
    low = [x + y for x, y in zip(low_a, low_b)]
    return _unpack_dense(packed, low, steps, spans, size)


def _dense_quotient(a, b, box):
    """The terms of a / b by a divmod of packed ints, or None when long
    division should not beat the heap or its quotient is not certified;
    raises InexactDivisionError when b does not divide a.

    Both pack on a's box: first in the narrowest slots of at least half
    the full width that can hold b and q, as |a|_oo <= |q|_oo |b|_1, then
    in full ones, which hold a, b and q * b if |q|_1 <= |a|_1 / |b|_1 (so
    if no coefficient is negative); an exchange's q is near sqrt(a).
    Widths are tried while their long divisions, count_q * count_b pairs
    of slots of size^2 byte products each, together should beat one heap
    step per pair of terms of q and b (q filling its box as a fills a's).

    Packing is a ring map, so a nonzero remainder proves a / b inexact.
    Else Q = A / B, whose digits q must lie in q's box: then d = q b - a
    lies in a's box and d(X) = 0.  d = 0 if |a|_oo and |q|_1 |b|_oo are
    below half a slot; or if d(-X) = 0 and |a|_oo + min(|q|_1 |b|_oo,
    |q|_oo |b|_1) < X^2 bounds |d|_oo, since x^2 - X^2 | d forces d = 0."""
    low_a, low_b, steps, spans_a, spans_b = box
    spans_q = [x - y + 1 for x, y in zip(spans_a, spans_b)]
    if min(spans_q) < 1:
        # a = q * b spans the box of q plus that of b in every variable
        raise InexactDivisionError("polynomial division left a remainder")
    (norm_a, top_a), (norm_b, top_b) = _norms(a), _norms(b)
    full = _slot_bytes(max(top_a, top_b, norm_a * top_b // norm_b))
    first = _slot_bytes(max(top_b, top_a // norm_b, 1 << 4 * full - 2))
    # the slots from a's first to the last of q's or b's box
    count_q, count_b = (_slots([s], [1] * len(s), [1] * len(s), spans_a)[0]
                        + 1 for s in (spans_q, spans_b))
    heap = _HEAP_STEP_BYTES * len(a) * len(b) * prod(spans_q)
    sizes = [s for s in sorted({first, full}) if count_q * count_b
             * prod(spans_a) * (s * s + (s > first) * first * first) <= heap]
    low = [x - y for x, y in zip(low_a, low_b)]
    tops = [lo + g * (s - 1) for lo, g, s in zip(low, steps, spans_q)]
    pos_a = _slots(a, low_a, steps, spans_a)
    pos_b = _slots(b, low_b, steps, spans_a)
    for size in sizes:
        (at_a, neg_a), (at_b, neg_b) = (_pack_dense(a, pos_a, size, True),
                                        _pack_dense(b, pos_b, size, True))
        quo, rem = divmod(at_a, at_b)
        if rem:
            raise InexactDivisionError("polynomial division left a remainder")
        q = _unpack_dense(quo, low, steps, spans_q[:1] + spans_a[1:], size)
        if not q or any(max(col) > top for col, top in zip(zip(*q), tops)):
            continue
        norm_q, top_q = _norms(q)
        if max(top_a, norm_q * top_b) < 1 << (8 * size - 1):
            return q
        pos_q = _slots(q, low, steps, spans_a)
        if (top_a + min(norm_q * top_b, top_q * norm_b) < 1 << 16 * size
                and _pack_dense(q, pos_q, size, True)[1] * neg_b == neg_a):
            return q
    return None


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Exact quotient a / b; raises InexactDivisionError if b does not divide a.
    Either operand may be an int, and InputError refuses anything else.

    Dense operands take one divmod of packed ints (_dense_quotient); the
    rest, and a dense quotient that is declined, the heap division."""
    if type(a) is int and isinstance(b, LaurentPolynomial):
        a = LaurentPolynomial.constant(b.nvars, a)
    if not isinstance(a, LaurentPolynomial) or (c := a._operand(b)) is None:
        raise InputError(f"cannot divide {a!r} by {b!r}")
    b = c
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    out = LaurentPolynomial(a.nvars)
    if a.terms:
        box = _dense_box(a.terms, b.terms)
        q = _dense_quotient(a.terms, b.terms, box) if box else None
        out.terms = (_heap_quotient(a.terms, b.terms, a.nvars) if q is None
                     else q)
    return out


def _heap_quotient(a, b, n: int) -> dict:
    """The terms of a / b, for term dicts a and b in n variables; raises
    InexactDivisionError if b does not divide a.

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

    (low_a, top_a), (low_b, top_b) = _shifted(a), _shifted(b)
    # Shifted exponents and every remainder term's degree stay within the
    # larger shifted degree, so fields of this width keep a zero top bit.
    width = max(top_a, top_b).bit_length() + 1
    guard = sum(1 << width * i + width - 1 for i in range(n + 1))
    rem = dict(_packed(a, low_a, width))
    divisor = _packed(b, low_b, width)
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
    shift = list(map(sub, low_a, low_b))
    return {_unpack(k, n, width, shift): c for k, c in quo.items()}
