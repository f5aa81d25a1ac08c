from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import hstack

from cclab.linalg import GF, Mat, QQ, _rank_mod, quotient_map

F7 = GF(7)


def rand_mat(field, rows, cols, entries):
    return Mat(field, rows, cols, [entries[i * cols:(i + 1) * cols]
                                   for i in range(rows)])


@st.composite
def small_mats(draw):
    """A matrix of shape up to 4x4 over QQ, GF(2), GF(3) or GF(7)."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), F7]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                            max_size=rows * cols))
    return rand_mat(field, rows, cols, entries)


mats33 = st.lists(st.integers(-9, 9), min_size=9, max_size=9).map(
    lambda e: rand_mat(QQ, 3, 3, [Fraction(x) for x in e]))


@given(mats33)
def test_rank_bounded(m):
    assert 0 <= m.rank() <= 3


@given(mats33)
def test_nullspace_in_kernel(m):
    ns = m.nullspace()
    assert m.mul(ns).is_zero()
    assert m.rank() + ns.cols == 3


def test_gf_fraction_lift():
    assert F7.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_mat_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="data shape mismatch, want 2x1"):
        Mat(QQ, 2, 1, [[1, 2]])
    with pytest.raises(ValueError, match="shape mismatch in mul"):
        Mat(QQ, 2, 1).mul(Mat(QQ, 2, 1))


def test_zero_dimensional_matrices():
    a = Mat(QQ, 0, 3)
    b = Mat(QQ, 3, 0)
    assert a.mul(b).rows == 0
    assert b.mul(a).rank() == 0
    assert a.rank() == 0
    assert b.nullspace().cols == 0


def greedy_complement(field, basis):
    """Reference: keep e_i whenever it raises the rank of the span so far."""
    d = basis.rows
    chosen, cur = [], basis
    for i in range(d):
        e = Mat(field, d, 1)
        e.data[i][0] = field.one
        test = hstack(field, [cur, e])
        if test.rank() > cur.rank():
            chosen.append(i)
            cur = test
    return chosen


@given(small_mats())
def test_complement_indices_match_greedy(m):
    assert quotient_map(m.field, m)[0] == greedy_complement(m.field, m)


def identity_block_quotient(field, basis):
    """Reference: one elimination of [basis | I].  e_i is a pivot exactly
    when it is not in the span of the basis and the e_j with j < i, and
    the reduced rows with those pivots vanish on the basis block, so their
    identity block is Q, the identity at the chosen columns."""
    d = basis.rows
    red, pivots = hstack(field, [basis, Mat.identity(field, d)]).rref()
    rank = sum(c < basis.cols for c in pivots)
    return ([c - basis.cols for c in pivots[rank:]],
            Mat(field, d - rank, d,
                [row[basis.cols:] for row in red.data[rank:]]))


@st.composite
def quotient_bases(draw):
    """A matrix of shape up to 6x6 over QQ, with fractional entries, or
    over GF(2), GF(3), GF(5) or GF(23), with raw entries in [-30, 30]."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(23)]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = (st.fractions(-4, 4, max_denominator=3) if field == QQ
             else st.integers(-30, 30))
    return Mat(field, rows, cols, [[draw(entry) for _ in range(cols)]
                                   for _ in range(rows)])


@given(st.one_of(small_mats(), quotient_bases()))
def test_quotient_map_matches_identity_block_elimination(m):
    """quotient_map reads the left kernel of the basis off one nullspace,
    and returns exactly the (indices, Q) of the [basis | I] elimination:
    Q kills the basis and is the identity at the indices."""
    indices, Q = quotient_map(m.field, m)
    assert (indices, Q) == identity_block_quotient(m.field, m)
    assert Q.mul(m).is_zero()
    assert [[row[i] for i in indices] for row in Q.data] == \
        Mat.identity(m.field, len(indices)).data


# -- elimination against a reference with its own arithmetic ---------------

def reference_field(p):
    """(reduce, inverse) of the reference arithmetic: mod p for a prime p,
    Fractions for p None."""
    if p is None:
        return Fraction, lambda a: 1 / a
    return (lambda a: a % p), (lambda a: pow(a, -1, p))


def reference_rref(p, rows, ncols):
    """Reference: Gauss-Jordan, reducing after every operation."""
    red, inverse = reference_field(p)
    m = [[red(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = inverse(m[r][c])
        m[r] = [red(inv * x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [red(x - red(f * y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_nullspace(p, rows, ncols):
    red, _ = reference_field(p)
    rr, pivots = reference_rref(p, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    out = [[red(0)] * len(free) for _ in range(ncols)]
    for j, fc in enumerate(free):
        out[fc][j] = red(1)
        for r, pc in enumerate(pivots):
            out[pc][j] = red(-rr[r][fc])
    return out


def reference_mul(p, a_rows, b_rows, bcols):
    red, _ = reference_field(p)
    out = []
    for row in a_rows:
        acc = [red(0)] * bcols
        for a, b_row in zip(row, b_rows):
            acc = [red(x + red(a * y)) for x, y in zip(acc, b_row)]
        out.append(acc)
    return out


@st.composite
def prime_systems(draw):
    """(F, A, X) over GF(p), p in {2, 3, 5, 53}, A up to 5x5 (0 rows or
    0 columns included) with raw int entries and X random."""
    F = GF(draw(st.sampled_from([2, 3, 5, 53])))
    rows, cols, k = (draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                     draw(st.integers(0, 3)))

    def raw(r, c):
        return [draw(st.lists(st.integers(-60, 60), min_size=c, max_size=c))
                for _ in range(r)]
    A, X = Mat(F, rows, cols, raw(rows, cols)), Mat(F, cols, k, raw(cols, k))
    return F, A, X


@given(prime_systems())
def test_int_kernel_matches_reference(case):
    F, A, X = case
    assert all(0 <= x < F.p for row in A.data for x in row)
    red, pivots = A.rref()
    assert (red.data, pivots) == reference_rref(F.p, A.data, A.cols)
    assert A.rank() == len(pivots)
    assert A.nullspace().data == reference_nullspace(F.p, A.data, A.cols)
    assert A.mul(X).data == reference_mul(F.p, A.data, X.data, X.cols)
    assert A.scale(-7).add(A).data == [[(-7 * x + x) % F.p for x in row]
                                       for row in A.data]


@st.composite
def rational_systems(draw):
    """(A, B, X, c) over QQ: A and B of one shape up to 4x4 (0 rows or 0
    columns included), X with as many rows as A has columns, and a scalar
    c; entries and c are small ints or Fractions."""
    entries = st.one_of(st.integers(-9, 9), st.fractions(
        min_value=-9, max_value=9, max_denominator=6))
    rows, cols, k = (draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                     draw(st.integers(0, 3)))

    def mat(r, c):
        return Mat(QQ, r, c, [draw(st.lists(entries, min_size=c, max_size=c))
                              for _ in range(r)])
    return mat(rows, cols), mat(rows, cols), mat(cols, k), draw(entries)


@given(rational_systems())
def test_rational_kernel_matches_reference(case):
    """Over QQ every operation agrees with the reference in Fraction
    arithmetic and leaves only Fractions: on ints, x / pivot is a float."""
    A, B, X, c = case
    red, pivots = A.rref()
    ns, prod, total, scaled = A.nullspace(), A.mul(X), A.add(B), A.scale(c)
    assert (red.data, pivots) == reference_rref(None, A.data, A.cols)
    assert A.rank() == len(pivots)
    assert ns.data == reference_nullspace(None, A.data, A.cols)
    assert prod.data == reference_mul(None, A.data, X.data, X.cols)
    assert total.data == [[x + y for x, y in zip(r, s)]
                          for r, s in zip(A.data, B.data)]
    assert scaled.data == [[c * x for x in r] for r in A.data]
    assert all(type(x) is Fraction for m in (A, red, ns, prod, total, scaled)
               for r in m.data for x in r)


@st.composite
def raw_int_rows(draw):
    """(F, rows, ncols): up to 5x5 (0 rows or 0 columns included) raw int
    entries in [-60, 60], not reduced mod p, p in {2, 3, 5, 53}."""
    F = GF(draw(st.sampled_from([2, 3, 5, 53])))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(st.integers(-60, 60), min_size=ncols,
                          max_size=ncols)) for _ in range(nrows)]
    return F, rows, ncols


@given(raw_int_rows())
def test_rank_kernel_matches_reference(case):
    """_rank_mod reads raw entries mod p, leaves the rows as they are and
    counts the pivots of the reference elimination."""
    F, rows, ncols = case
    before = [row[:] for row in rows]
    assert (_rank_mod(rows, ncols, F.p)
            == len(reference_rref(F.p, rows, ncols)[1]))
    assert rows == before
