import pytest

from cclab.errors import InputError
from cclab.quiver import (a2_quiver, a3_quiver, antisym_form, euler_form,
                          kronecker_quiver, validate_quiver)


def test_a2_valid():
    q = validate_quiver(2, [(1, 2)])
    assert q.n == 2 and q.arrows == ((1, 2),)


def test_d4tilde_valid():
    q = validate_quiver(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
    assert q.n == 5 and q.arrows == ((1, 5), (2, 5), (3, 5), (4, 5))


def test_parallel_arrows_kept():
    q = kronecker_quiver()
    assert len(q.arrows) == 2


def test_loop_rejected():
    with pytest.raises(InputError):
        validate_quiver(2, [(1, 1)])


def test_cycle_rejected():
    with pytest.raises(InputError):
        validate_quiver(2, [(1, 2), (2, 1)])


def test_out_of_range_rejected():
    with pytest.raises(InputError):
        validate_quiver(2, [(1, 3)])


def test_euler_form_a2():
    q = a2_quiver()
    # <d,e> = d1 e1 + d2 e2 - d1 e2
    assert euler_form(q, (1, 0), (0, 1)) == -1
    assert euler_form(q, (0, 1), (1, 0)) == 0
    assert euler_form(q, (1, 1), (1, 1)) == 1


def test_euler_form_counts_parallel_arrows():
    q = kronecker_quiver()
    assert euler_form(q, (1, 0), (0, 1)) == -2


def test_antisym_form_antisymmetric():
    q = a3_quiver()
    d, e = (1, 2, 0), (0, 1, 3)
    assert antisym_form(q, d, e) == -antisym_form(q, e, d)
    assert antisym_form(q, d, d) == 0


def test_dimvec_validation():
    q = a2_quiver()
    with pytest.raises(InputError):
        euler_form(q, (1,), (0, 1))
    with pytest.raises(InputError):
        euler_form(q, (1, -1), (0, 1))
