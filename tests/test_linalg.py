from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cclab.linalg import (GF, Mat, QQ, column_basis, column_complement,
                          complement_indices, hstack)

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


@given(mats33)
def test_solve_consistent(m):
    b = m.mul(Mat(QQ, 3, 1, [[1], [2], [3]]))
    x = m.solve(b)
    assert m.mul(x) == b


def test_inverse():
    m = Mat(F7, 2, 2, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m.mul(inv) == Mat.identity(F7, 2)


def test_inverse_singular_raises():
    m = Mat(QQ, 2, 2, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()


def test_gf_fraction_lift():
    assert F7.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_zero_dimensional_matrices():
    a = Mat(QQ, 0, 3)
    b = Mat(QQ, 3, 0)
    assert a.mul(b).rows == 0
    assert b.mul(a).rank() == 0
    assert a.rank() == 0
    assert b.nullspace().cols == 0


def test_column_complement():
    basis = Mat(QQ, 3, 1, [[1], [1], [0]])
    comp = column_complement(QQ, basis)
    assert comp.cols == 2
    assert hstack(QQ, [basis, comp], rows=3).rank() == 3


def greedy_complement(field, basis):
    """Reference: keep e_i whenever it raises the rank of the span so far."""
    d = basis.rows
    chosen, cur = [], basis
    for i in range(d):
        e = Mat(field, d, 1)
        e.data[i][0] = field.one
        test = hstack(field, [cur, e], rows=d)
        if test.rank() > cur.rank():
            chosen.append(i)
            cur = test
    return chosen


@given(small_mats())
def test_complement_indices_match_greedy(m):
    assert complement_indices(m.field, m) == greedy_complement(m.field, m)


@given(small_mats())
def test_column_basis_spans_columns(m):
    basis = column_basis(m)
    assert basis.rows == m.rows
    assert basis.cols == basis.rank() == m.rank()
    assert hstack(m.field, [m, basis], rows=m.rows).rank() == m.rank()


def test_solve_inconsistent_raises():
    m = Mat(QQ, 2, 1, [[1], [1]])
    b = Mat(QQ, 2, 1, [[1], [2]])
    with pytest.raises(ValueError):
        m.solve(b)
