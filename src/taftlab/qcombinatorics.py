"""Quantum integers, factorials, and binomials at an arbitrary field element.

The binomial is computed by the q-Pascal recursion

    binom(n, k)_q = binom(n-1, k-1)_q + q**k * binom(n-1, k)_q,

never by the factorial quotient: at a root of unity the quotient degenerates
to 0/0 while the recursion evaluates the integer-coefficient Gaussian
polynomial at q, which is total and agrees with the quotient wherever the
quotient is defined.  At q = 1 everything collapses to ordinary binomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .errors import InputError


def q_int(n: int, q: CycNum) -> CycNum:
    """1 + q + ... + q**(n-1); zero for n = 0."""
    if n < 0:
        raise InputError("q_int needs n >= 0, got %d" % n)
    acc = CycNum.zero(q.m)
    power = CycNum.one(q.m)
    for _ in range(n):
        acc = acc + power
        power = power * q
    return acc


def q_factorial(n: int, q: CycNum) -> CycNum:
    """Product of q_int(j) for j = 1..n; equals 1 for n = 0."""
    if n < 0:
        raise InputError("q_factorial needs n >= 0, got %d" % n)
    acc = CycNum.one(q.m)
    for j in range(1, n + 1):
        acc = acc * q_int(j, q)
    return acc


def _qbinom_rows(n: int, width: int, q: CycNum) -> list:
    """Rows 0..n of the q-Pascal triangle, each cut to its first `width`
    entries; entry k of a row needs only entries k-1 and k of the row above."""
    zero = CycNum.zero(q.m)
    qpow = [q ** k for k in range(width)]
    row = (CycNum.one(q.m),)
    rows = [row]
    for r in range(1, n + 1):
        row = tuple((row[k - 1] if k else zero)
                    + (qpow[k] * row[k] if k < r else zero)
                    for k in range(min(r + 1, width)))
        rows.append(row)
    return rows


def q_binom(n: int, k: int, q: CycNum) -> CycNum:
    """Gaussian binomial coefficient binom(n, k)_q via q-Pascal."""
    if n < 0:
        raise InputError("q_binom needs n >= 0, got %d" % n)
    if k < 0 or k > n:
        raise InputError("q_binom needs 0 <= k <= n, got k=%d, n=%d" % (k, n))
    # binom(n, k)_q = binom(n, n - k)_q, so min(k, n - k) + 1 columns suffice
    k = min(k, n - k)
    return _qbinom_rows(n, k + 1, q)[n][k]


@dataclass(frozen=True)
class QBinomTable:
    """Memoized triangle of binom(n, k)_q for n <= bound."""

    m: int
    q: CycNum
    bound: int
    rows: tuple

    @staticmethod
    def build(q: CycNum, bound: int | None = None) -> "QBinomTable":
        if bound is None:
            bound = 2 * q.m
        if bound < 0:
            raise InputError("QBinomTable bound must be >= 0")
        rows = tuple(_qbinom_rows(bound, bound + 1, q))
        return QBinomTable(m=q.m, q=q, bound=bound, rows=rows)

    def value(self, n: int, k: int) -> CycNum:
        if not (0 <= n <= self.bound):
            raise InputError("n=%d outside table bound %d" % (n, self.bound))
        if not (0 <= k <= n):
            raise InputError("q_binom needs 0 <= k <= n, got k=%d, n=%d" % (k, n))
        return self.rows[n][k]
