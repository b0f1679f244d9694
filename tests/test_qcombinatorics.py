"""Gaussian binomials at roots of unity: the vanishing that drives everything."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.qcombinatorics import QBinomTable, q_binom, q_factorial, q_int


def test_q_one_recovers_ordinary_binomials():
    q = CycNum.one(4)
    for n in range(8):
        for k in range(n + 1):
            assert q_binom(n, k, q).as_rational() == math.comb(n, k)


def test_q_int_at_root_of_unity():
    # [j] at zeta_m is nonzero for 0 < j < m and zero exactly at j = m
    for m in range(2, 7):
        z = zeta_power(m, 1)
        for j in range(1, m):
            assert not q_int(j, z).is_zero(), (m, j)
        assert q_int(m, z).is_zero(), m


def test_vanishing_column():
    # binom(m, j) at zeta^{-1} = 0 for all 0 < j < m
    for m in range(2, 7):
        zinv = zeta_power(m, m - 1)
        for j in range(1, m):
            assert q_binom(m, j, zinv).is_zero(), (m, j)
        assert q_binom(m, 0, zinv) == CycNum.one(m)
        assert q_binom(m, m, zinv) == CycNum.one(m)


def test_q_pascal_identity_grid():
    # binom(n, k) = binom(n-1, k-1) + q^k binom(n-1, k) up to n = 2m
    for m in range(2, 7):
        z = zeta_power(m, 1)
        for n in range(1, 2 * m + 1):
            for k in range(n + 1):
                lhs = q_binom(n, k, z)
                rhs = q_binom(n - 1, k - 1, z) if k >= 1 else CycNum.zero(m)
                if k <= n - 1:
                    rhs = rhs + z ** k * q_binom(n - 1, k, z)
                assert lhs == rhs, (m, n, k)


@settings(max_examples=40)
@given(st.integers(2, 8), st.integers(0, 10), st.data())
def test_symmetry(m, n, data):
    # binom(n, k) = binom(n, n - k) holds as a polynomial identity in q,
    # hence at every root of unity
    k = data.draw(st.integers(0, n))
    z = zeta_power(m, 1)
    assert q_binom(n, k, z) == q_binom(n, n - k, z)


def test_out_of_range_rejected():
    import pytest
    from taftlab.errors import InputError
    z = zeta_power(3, 1)
    with pytest.raises(InputError):
        q_binom(2, 3, z)
    with pytest.raises(InputError):
        q_binom(-1, 0, z)


def test_factorial_product_formula_below_order():
    # for n < m no q-integer vanishes, so the factorial quotient is valid
    for m in range(3, 7):
        z = zeta_power(m, 1)
        for n in range(m):
            for k in range(n + 1):
                expected = q_factorial(n, z) * (
                    q_factorial(k, z) * q_factorial(n - k, z)).inverse()
                assert q_binom(n, k, z) == expected


def test_table_matches_scalar_function():
    for m in (2, 3, 5):
        for e in range(m):
            q = zeta_power(m, e)
            table = QBinomTable.build(q, bound=2 * m + 1)
            for n in range(2 * m + 1):
                for k in range(n + 1):
                    assert table.value(n, k) == q_binom(n, k, q)


def test_long_rows_do_not_recurse():
    # binom(n, 1)_q = binom(n, n - 1)_q = [n]_q, far past the recursion limit
    n = 5000
    for m, e in ((2, 1), (3, 1), (5, 2), (6, 5)):
        q = zeta_power(m, e)
        want = q_int(n, q)
        assert q_binom(n, 1, q) == want, (m, e)
        assert q_binom(n, n - 1, q) == want, (m, e)
