"""Field arithmetic in Q(zeta_m): canonical residues, exact inverses.

CycNum stores integer numerators over one denominator.  RefCyc below is the
earlier representation -- one Fraction per coefficient -- kept here
as the oracle the integer form is cross-checked against.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.cyclotomic import CycNum, cyclotomic_polynomial, zeta_power
from taftlab.errors import InputError
from taftlab.linalg import ModReductionError, cyc_to_modp
from taftlab.serialize import json_to_cyc

MS = [2, 3, 4, 5, 6, 8, 12]

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

# ---------------------------------------------------------------- the oracle

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Long division in Q[x]: (quotient, remainder), both trimmed."""
    num = list(num)
    q = [_ZERO] * max(1, len(num) - len(den) + 1)
    inv_lead = Fraction(1) / Fraction(den[-1])
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        coef = num[-1] * inv_lead
        q[shift] = coef
        for i, di in enumerate(den):
            num[shift + i] -= coef * di
        _poly_trim(num)
    return _poly_trim(q), num


def ref_cyclotomic_polynomial(m):
    """Phi_m as Fractions: x^m - 1 divided by Phi_d for each d | m, d < m."""
    f = [Fraction(-1)] + [_ZERO] * (m - 1) + [_ONE]
    for d in range(1, m):
        if m % d == 0:
            f, r = _poly_divmod(f, ref_cyclotomic_polynomial(d))
            assert not r
    return f


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _ref_field(m):
    """(degree, Phi_m, Fraction table of x^j mod Phi_m for j < 2*degree - 1)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    xdeg = tuple(Fraction(-phi[i]) for i in range(deg))
    table = [tuple(_ONE if i == j else _ZERO for i in range(deg))
             for j in range(deg)]
    for j in range(deg, max(deg, 2 * deg - 1)):
        prev = table[j - 1]
        top = prev[deg - 1]
        shifted = [_ZERO] + list(prev[:-1])
        if top:
            shifted = [shifted[i] + top * xdeg[i] for i in range(deg)]
        table.append(tuple(shifted))
    return deg, phi, tuple(table)


def _ref_power_row(m, e):
    deg, _, table = _ref_field(m)
    e = e % m
    if e < len(table):
        return table[e]
    row = table[len(table) - 1]
    for _ in range(len(table) - 1, e):
        top = row[deg - 1]
        shifted = [_ZERO] + list(row[:-1])
        if top:
            if deg < len(table):
                xdeg = table[deg]
            else:  # deg == 1, x^1 reduces directly
                xdeg = (Fraction(-cyclotomic_polynomial(m)[0]),)
            shifted = [shifted[i] + top * xdeg[i] for i in range(deg)]
        row = tuple(shifted)
    return row


def _ref_reduce(m, coeffs):
    deg, _, table = _ref_field(m)
    acc = [_ZERO] * deg
    work = list(coeffs)
    if len(work) > len(table):
        folded = [_ZERO] * m
        for e, c in enumerate(work):
            folded[e % m] += Fraction(c)
        work = folded
    for e, c in enumerate(work):
        if not c:
            continue
        c = Fraction(c)
        if e < deg:
            acc[e] += c
        else:
            row = table[e] if e < len(table) else _ref_power_row(m, e)
            for i in range(deg):
                if row[i]:
                    acc[i] += c * row[i]
    return tuple(acc)


class RefCyc:
    """Q(zeta_m) as a canonical tuple of phi(m) Fractions."""

    def __init__(self, m, coeffs):
        self.m, self.coeffs = m, coeffs

    @staticmethod
    def make(m, coeffs):
        return RefCyc(m, _ref_reduce(m, coeffs))

    def __add__(self, o):
        return RefCyc(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, o):
        return RefCyc(self.m, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, o):
        deg, _, table = _ref_field(self.m)
        conv = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                conv[i + j] += a * b
        acc = list(conv[:deg])
        for e in range(deg, 2 * deg - 1):
            for i in range(deg):
                acc[i] += conv[e] * table[e][i]
        return RefCyc(self.m, tuple(acc))

    def inverse(self):
        if not any(self.coeffs):
            raise ZeroDivisionError
        r0 = _poly_trim(list(self.coeffs))
        r1 = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        s0, s1 = [_ONE], []
        while _poly_trim(list(r1)):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1) if s1 else []
            ns = [_ZERO] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                ns[i] += c
            for i, c in enumerate(qs):
                ns[i] -= c
            s0, s1 = s1, _poly_trim(ns)
        return RefCyc(self.m, _ref_reduce(self.m, [c / r0[0] for c in s0]))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = RefCyc.make(self.m, [1])
        for _ in range(e):
            result = result * self
        return result

    def to_json(self):
        return {"m": self.m, "coeffs": [str(c) for c in self.coeffs]}


def ref_cyc_to_modp(x, p, zeta_mod):
    """The reduction mod p coefficient by coefficient, one inverse each."""
    acc = 0
    zpow = 1
    for c in x.coeffs:
        if c:
            den = c.denominator % p
            if den == 0:
                raise ModReductionError("denominator divisible by %d" % p)
            acc = (acc + (c.numerator % p) * pow(den, p - 2, p) % p * zpow) % p
        zpow = (zpow * zeta_mod) % p
    return acc


# raw coefficient lists of any length, with small and with large denominators
wide_rationals = st.one_of(
    rationals,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
    st.integers(-50, 50))


def raw_coeffs(m):
    return st.lists(wide_rationals, min_size=0, max_size=2 * m + 2)


def pair(m, raw):
    return CycNum.make(m, raw), RefCyc.make(m, raw)


def assert_canonical(x):
    deg = len(cyclotomic_polynomial(x.m)) - 1
    assert len(x.num) == deg
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def assert_same(x, ref):
    assert_canonical(x)
    assert x.m == ref.m
    assert x.coeffs == ref.coeffs
    assert x.to_json() == ref.to_json()


def cyc_elements(m):
    deg = len(CycNum.zero(m).coeffs)
    return st.lists(rationals, min_size=deg, max_size=deg).map(
        lambda cs: CycNum.make(m, cs))


def test_zeta_has_exact_order_m():
    for m in MS:
        z = zeta_power(m, 1)
        powers = [z ** e for e in range(1, m + 1)]
        assert powers[-1] == CycNum.one(m)
        for e, p in enumerate(powers[:-1], start=1):
            assert p != CycNum.one(m), (m, e)


def test_all_roots_sum_to_zero():
    for m in MS:
        total = CycNum.zero(m)
        for e in range(m):
            total = total + zeta_power(m, e)
        assert total.is_zero()


def test_known_minimal_relations():
    # Phi_4 = x^2 + 1, Phi_3 = x^2 + x + 1, Phi_6 = x^2 - x + 1
    z4 = zeta_power(4, 1)
    assert z4 * z4 == CycNum.rational(4, -1)
    z3 = zeta_power(3, 1)
    assert z3 * z3 + z3 + CycNum.one(3) == CycNum.zero(3)
    z6 = zeta_power(6, 1)
    assert z6 * z6 - z6 + CycNum.one(6) == CycNum.zero(6)


def test_cyclotomic_polynomial_degrees():
    # degree = Euler phi; a few classical values
    assert len(cyclotomic_polynomial(2)) - 1 == 1
    assert len(cyclotomic_polynomial(3)) - 1 == 2
    assert len(cyclotomic_polynomial(8)) - 1 == 4
    assert len(cyclotomic_polynomial(12)) - 1 == 4


def test_cyclotomic_polynomial_matches_fraction_division():
    for m in range(1, 121):
        phi = cyclotomic_polynomial(m)
        assert all(type(c) is int for c in phi)
        assert [Fraction(c) for c in phi] == ref_cyclotomic_polynomial(m), m
        assert len(phi) - 1 == euler_phi(m), m
        assert phi[-1] == 1


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in range(1, 121):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1], m


def test_phi_105_has_a_coefficient_minus_2():
    # the least m whose Phi_m has a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)
    assert all(abs(c) <= 1 for m in range(1, 105)
               for c in cyclotomic_polynomial(m))


@settings(max_examples=60)
@given(st.sampled_from(MS), st.data())
def test_field_laws(m, data):
    x = data.draw(cyc_elements(m))
    y = data.draw(cyc_elements(m))
    z = data.draw(cyc_elements(m))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60)
@given(st.sampled_from(MS), st.data())
def test_inverse_roundtrip(m, data):
    x = data.draw(cyc_elements(m))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == CycNum.one(m)


@settings(max_examples=60)
@given(st.sampled_from(MS), st.data())
def test_json_roundtrip(m, data):
    x = data.draw(cyc_elements(m))
    assert json_to_cyc(x.to_json()) == x


def test_rational_embedding():
    x = CycNum.rational(6, Fraction(-7, 3))
    assert x.as_rational() == Fraction(-7, 3)
    assert zeta_power(6, 1).as_rational() is None


def test_inverse_of_a_negative_keeps_the_denominator_positive():
    # for m = 2 the norm N(x) is x itself, so it is negative here
    for m in (2, 3, 4):
        x = CycNum.rational(m, Fraction(-3, 5))
        assert_same(x.inverse(), RefCyc.make(m, [Fraction(-5, 3)]))


def test_conductor_mismatch_rejected():
    with pytest.raises(InputError):
        zeta_power(3, 1) + zeta_power(4, 1)


# ------------------------------------------------- cross-checks against RefCyc


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MS), st.data())
def test_arithmetic_matches_fraction_oracle(m, data):
    x, rx = pair(m, data.draw(raw_coeffs(m)))
    y, ry = pair(m, data.draw(raw_coeffs(m)))
    assert_same(x, rx)
    assert_same(y, ry)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(-x, RefCyc.make(m, []) - rx)
    assert_same(x * y, rx * ry)
    assert_same(x * x, rx * rx)
    r = data.draw(wide_rationals)
    rr = RefCyc.make(m, [r])
    assert_same(x + r, rx + rr)
    assert_same(r - x, rr - rx)
    assert_same(x * r, rx * rr)
    if rx.coeffs[1:] == (0,) * (len(rx.coeffs) - 1):
        assert x.as_rational() == rx.coeffs[0]
    else:
        assert x.as_rational() is None


# the norm inverse runs one product per Galois conjugate: every m up to 16
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(range(2, 17)) + [20, 24, 30]), st.data())
def test_inverse_and_powers_match_fraction_oracle(m, data):
    x, rx = pair(m, data.draw(raw_coeffs(m)))
    e = data.draw(st.integers(-3, 5))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        if e >= 0:
            assert_same(x ** e, rx ** e)
        return
    assert_same(x.inverse(), rx.inverse())
    assert x * x.inverse() == CycNum.one(m)
    assert_same(x ** e, rx ** e)
    y, ry = pair(m, data.draw(raw_coeffs(m)))
    assert_same(y / x, ry * rx.inverse())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MS), st.data())
def test_equality_and_hash_match_fraction_oracle(m, data):
    x, rx = pair(m, data.draw(raw_coeffs(m)))
    y, ry = pair(m, data.draw(raw_coeffs(m)))
    assert (x == y) == (rx.coeffs == ry.coeffs)
    # the same value reached by another route is the same key
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    assert len({x, y, z}) == len({rx.coeffs, ry.coeffs})
    assert str(x) == str(CycNum.make(m, rx.coeffs))


def test_zero_and_one_are_shared_and_canonical():
    for m in MS:
        assert CycNum.zero(m) is CycNum.zero(m)
        assert CycNum.one(m) is CycNum.one(m)
        assert_canonical(CycNum.zero(m))
        assert CycNum.zero(m).den == 1 and not any(CycNum.zero(m).num)
        x = CycNum.make(m, [Fraction(1, 3), Fraction(2, 7)])
        assert_canonical(x - x)
        assert x - x == CycNum.zero(m)


# p = 1 (mod m), small enough that random denominators hit multiples of p
SMALL_P = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7, 8: 17, 12: 13}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MS), st.data())
def test_cyc_to_modp_matches_per_coefficient_formula(m, data):
    p = SMALL_P[m]
    raw = data.draw(st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=3 * p),
        min_size=0, max_size=m + 1))
    x, rx = pair(m, raw)
    zeta_mod = data.draw(st.integers(0, p - 1))
    try:
        want = ref_cyc_to_modp(rx, p, zeta_mod)
    except ModReductionError:
        with pytest.raises(ModReductionError):
            cyc_to_modp(x, p, zeta_mod)
    else:
        assert cyc_to_modp(x, p, zeta_mod) == want


def test_cyc_to_modp_rejects_denominator_divisible_by_p():
    x = CycNum.make(3, [1, Fraction(1, 7)])
    with pytest.raises(ModReductionError):
        cyc_to_modp(x, 7, 2)
    with pytest.raises(ModReductionError):
        ref_cyc_to_modp(RefCyc.make(3, [1, Fraction(1, 7)]), 7, 2)
    assert cyc_to_modp(x, 13, 3) == ref_cyc_to_modp(
        RefCyc.make(3, [1, Fraction(1, 7)]), 13, 3)
