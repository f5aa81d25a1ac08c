"""Exact linear algebra over the rationals and prime fields.

Matrices store field elements in row-major nested lists and compute with
Python's own operators; the field's `of` puts each result in the field, mod
p over GF(p) and a Fraction over QQ.  Each field carries its characteristic
p, 0 for QQ, and one elimination and one nullspace serve both: int rows
reduced mod p when p > 0, Fraction rows when p = 0.  Only rank has a
GF(p)-only kernel.  Dimensions are tiny (desk scale), so plain Gaussian
elimination is used throughout.
Zero-row and zero-column matrices are legal and behave as expected.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class GF:
    """Prime field F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, a):
        """a mod p, for an int or a Fraction with denominator prime to p."""
        if type(a) is int:
            return a % self.p
        if a.denominator % self.p == 0:
            raise ZeroDivisionError(
                f"denominator {a.denominator} not invertible mod {self.p}")
        return a.numerator * pow(a.denominator, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals, with Fraction elements."""

    p = 0  # the characteristic

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, a):
        return a if type(a) is Fraction else Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Mat:
    """A rows x cols matrix over a field.

    The entries are ints in [0, p) over GF(p) and Fractions over QQ: each
    operation applies Python's operators to them and `field.of` to each
    result.  rref and nullspace run one elimination for both fields, read
    at field.p; rank over GF(p) runs _rank_mod.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[field.zero] * cols for _ in range(rows)]
            return
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data shape mismatch, want {rows}x{cols}")
        of = field.of
        self.data = [[of(x) for x in row] for row in data]

    @classmethod
    def _wrap(cls, field, rows: int, cols: int, data) -> "Mat":
        """A matrix owning `data`, whose entries are already field elements."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.data = field, rows, cols, data
        return m

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.data})"

    def is_zero(self):
        return not any(map(any, self.data))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        of, zero = self.field.of, self.field.zero
        cols = list(zip(*other.data)) if other.rows else [()] * other.cols
        data = [[of(sum(map(operator.mul, r, c), zero)) for c in cols]
                for r in self.data]
        return Mat._wrap(self.field, self.rows, other.cols, data)

    def add(self, other: "Mat") -> "Mat":
        of = self.field.of
        data = [[of(a + b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)]
        return Mat._wrap(self.field, self.rows, self.cols, data)

    def scale(self, c) -> "Mat":
        of = self.field.of
        c = of(c)
        data = [[of(c * a) for a in r] for r in self.data]
        return Mat._wrap(self.field, self.rows, self.cols, data)

    def transpose(self) -> "Mat":
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return Mat._wrap(self.field, self.cols, self.rows, data)

    def rref(self):
        """Row-reduce; returns (reduced copy, pivot column list)."""
        data = [row[:] for row in self.data]
        pivots = _rref(data, self.cols, self.field.p)
        return Mat._wrap(self.field, self.rows, self.cols, data), pivots

    def rank(self) -> int:
        if self.field.p:
            return _rank_mod(self.data, self.cols, self.field.p)
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as a cols x k matrix."""
        vecs = _nullspace(self.data, self.cols, self.field.p)[1]
        return Mat._wrap(self.field, len(vecs), self.cols, vecs).transpose()

    def column(self, j) -> list:
        return [self.data[i][j] for i in range(self.rows)]


def _rref(m: list, ncols: int, p: int) -> list:
    """Reduce rows to reduced row echelon form in place; returns the pivot
    columns.  The rows are ints in [0, p) over GF(p) and Fractions over QQ,
    p = 0."""
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        row = m[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p) if p else 1 / row[c]
            row = m[r] = ([inv * x % p for x in row] if p
                          else [inv * x for x in row])
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = ([(x - f * y) % p for x, y in zip(m[i], row)] if p
                        else [x - f * y for x, y in zip(m[i], row)])
        pivots.append(c)
        r += 1
    return pivots


def _rank_mod(rows: list, ncols: int, p: int) -> int:
    """Rank over GF(p) of int rows, whose entries are read mod p, by forward
    elimination alone: the pivot row is not scaled and nothing above a
    pivot is cleared.  The rows are not modified."""
    m = list(rows)
    rank = 0
    for c in range(ncols):
        for i, row in enumerate(m):
            if row[c] % p:
                break
        else:
            continue
        pivot = m.pop(i)
        inv = pow(pivot[c], -1, p)
        for i, row in enumerate(m):
            f = row[c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(row, pivot)]
        rank += 1
        if not m:
            break
    return rank


def _nullspace(rows: list, ncols: int, p: int):
    """The free columns of rref(rows) and the canonical nullspace basis:
    per free column, its unit vector corrected on the pivot columns.  Over
    GF(p) the rows are ints in [0, p), over QQ (p = 0) Fractions."""
    red = [row[:] for row in rows]
    return _nullspace_of_rref(red, _rref(red, ncols, p), ncols, p)


def _nullspace_of_rref(red: list, pivots: list, ncols: int, p: int):
    """_nullspace read off rows already in reduced row echelon form, with
    the given pivot columns."""
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] % p if p else -red[r][fc]
        vecs.append(v)
    return free, vecs


def _combination(parts: list):
    """c -> sum_k c_k parts[k], for parts of one shape given as int rows,
    one coefficient per part; entries are not reduced mod p."""
    stacked = [list(zip(*rows)) for rows in zip(*parts)]  # per entry
    return lambda c: [[sum(map(operator.mul, c, xs)) for xs in row]
                      for row in stacked]


def quotient_map(field, basis: Mat):
    """(indices, Q) for the column span U of `basis`: the unit vectors e_i
    at the indices complete U to the full space, and Q sends a vector to
    its class modulo U, read on those e_i.

    The rows of Q are the reduced echelon basis of the left kernel of
    `basis`, and the indices its pivots: e_i is chosen exactly when it is
    not in the span of U and the e_j with j < i.  That basis is the
    canonical _nullspace basis of basis^T with the coordinates reversed,
    whose free columns then fall at the leading positions.
    """
    d = basis.rows
    free, vecs = _nullspace(list(zip(*reversed(basis.data))), d, field.p)
    return ([d - 1 - c for c in reversed(free)],
            Mat._wrap(field, len(vecs), d, [v[::-1] for v in reversed(vecs)]))
