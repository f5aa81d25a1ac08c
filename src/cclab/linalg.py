"""Exact linear algebra over the rationals and prime fields.

Everything here is field-generic: a field object supplies the element
arithmetic and matrices store field elements in row-major nested lists.
Dimensions are tiny (desk scale), so plain Gaussian elimination is used
throughout.  Zero-row and zero-column matrices are legal and behave as
expected.
"""

from __future__ import annotations

from fractions import Fraction


class GF:
    """Prime field F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, a):
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {a.denominator} not invertible mod {self.p}")
            return a.numerator * pow(a.denominator, -1, self.p) % self.p
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals, with Fraction elements."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Mat:
    """A rows x cols matrix over a field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[field.zero] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError(f"data shape mismatch, want {rows}x{cols}")
            self.data = [[field.of(x) for x in row] for row in data]

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def copy(self):
        m = Mat(self.field, self.rows, self.cols)
        m.data = [row[:] for row in self.data]
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.data})"

    def is_zero(self):
        F = self.field
        return all(F.is_zero(x) for row in self.data for x in row)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        F = self.field
        out = Mat(F, self.rows, other.cols)
        for i in range(self.rows):
            ri = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ri[k]
                if F.is_zero(a):
                    continue
                rk = other.data[k]
                for j in range(other.cols):
                    oi[j] = F.add(oi[j], F.mul(a, rk[j]))
        return out

    def add(self, other: "Mat") -> "Mat":
        F = self.field
        out = Mat(F, self.rows, self.cols)
        out.data = [[F.add(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        return out

    def sub(self, other: "Mat") -> "Mat":
        F = self.field
        out = Mat(F, self.rows, self.cols)
        out.data = [[F.sub(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        return out

    def neg(self) -> "Mat":
        F = self.field
        out = Mat(F, self.rows, self.cols)
        out.data = [[F.neg(a) for a in r] for r in self.data]
        return out

    def scale(self, c) -> "Mat":
        F = self.field
        c = F.of(c)
        out = Mat(F, self.rows, self.cols)
        out.data = [[F.mul(c, a) for a in r] for r in self.data]
        return out

    def transpose(self) -> "Mat":
        out = Mat(self.field, self.cols, self.rows)
        out.data = [[self.data[i][j] for i in range(self.rows)]
                    for j in range(self.cols)]
        return out

    def rref(self):
        """Row-reduce; returns (reduced copy, pivot column list)."""
        F = self.field
        m = self.copy()
        pivots = []
        r = 0
        for c in range(m.cols):
            if r >= m.rows:
                break
            pr = None
            for i in range(r, m.rows):
                if not F.is_zero(m.data[i][c]):
                    pr = i
                    break
            if pr is None:
                continue
            m.data[r], m.data[pr] = m.data[pr], m.data[r]
            inv = F.inv(m.data[r][c])
            m.data[r] = [F.mul(inv, x) for x in m.data[r]]
            for i in range(m.rows):
                if i != r and not F.is_zero(m.data[i][c]):
                    f = m.data[i][c]
                    m.data[i] = [F.sub(x, F.mul(f, y))
                                 for x, y in zip(m.data[i], m.data[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as a cols x k matrix."""
        F = self.field
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        out = Mat(F, self.cols, len(free))
        for j, fc in enumerate(free):
            out.data[fc][j] = F.one
            for r, pc in enumerate(pivots):
                out.data[pc][j] = F.neg(red.data[r][fc])
        return out

    def solve(self, B: "Mat") -> "Mat":
        """One solution X of self @ X = B (free variables set to zero).

        Raises ValueError when the system is inconsistent.
        """
        if B.rows != self.rows:
            raise ValueError("shape mismatch in solve")
        F = self.field
        aug = Mat(F, self.rows, self.cols + B.cols)
        for i in range(self.rows):
            aug.data[i] = self.data[i] + B.data[i]
        red, pivots = aug.rref()
        for c in pivots:
            if c >= self.cols:
                raise ValueError("inconsistent linear system")
        X = Mat(F, self.cols, B.cols)
        for r, pc in enumerate(pivots):
            X.data[pc] = red.data[r][self.cols:]
        return X

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        X = self.solve(Mat.identity(self.field, self.rows))
        if not self.mul(X).__eq__(Mat.identity(self.field, self.rows)):
            raise ValueError("matrix not invertible")
        return X

    def column(self, j) -> list:
        return [self.data[i][j] for i in range(self.rows)]


def hstack(field, mats, rows=None):
    mats = list(mats)
    if not mats:
        return Mat(field, rows if rows is not None else 0, 0)
    r = mats[0].rows
    out = Mat(field, r, sum(m.cols for m in mats))
    for i in range(r):
        out.data[i] = [x for m in mats for x in m.data[i]]
    return out


def vstack(field, mats, cols=None):
    mats = list(mats)
    if not mats:
        return Mat(field, 0, cols if cols is not None else 0)
    c = mats[0].cols
    out = Mat(field, sum(m.rows for m in mats), c)
    out.data = [row[:] for m in mats for row in m.data]
    return out


def complement_indices(field, basis: Mat) -> list[int]:
    """Coordinates i whose unit vectors e_i complete the column span of
    `basis` to the full space.

    One elimination of [basis | I]: e_i is a pivot, and so chosen, exactly
    when it is not in the span of the basis and the e_j with j < i.
    """
    d = basis.rows
    _, pivots = hstack(field, [basis, Mat.identity(field, d)], rows=d).rref()
    return [c - basis.cols for c in pivots if c >= basis.cols]


def column_complement(field, basis: Mat) -> Mat:
    """Standard basis vectors completing the column span to the full space."""
    chosen = complement_indices(field, basis)
    out = Mat(field, basis.rows, len(chosen))
    for j, i in enumerate(chosen):
        out.data[i][j] = field.one
    return out


def column_basis(m: Mat) -> Mat:
    """Basis of the column span of m: the nonzero rows of rref(m^T)."""
    red, pivots = m.transpose().rref()
    red.data = red.data[:len(pivots)]
    red.rows = len(pivots)
    return red.transpose()
