"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A CycNum is the reduced residue of a rational polynomial in zeta_m modulo
the m-th cyclotomic polynomial Phi_m, stored as phi(m) = deg Phi_m integer
numerators over one positive denominator:

    (num[0] + num[1]*zeta + ... + num[phi(m)-1]*zeta^(phi(m)-1)) / den.

The representation is canonical -- gcd(den, *num) = 1, and zero is
(0, ..., 0)/1 -- so two values are equal iff their (num, den) pairs are
equal; CycNum therefore works as a dict key and keeps every assertion in the
test suite exact.  No floating point anywhere.  Phi_m is monic with integer
coefficients, so a product is an integer convolution folded through an
integral table of x^j mod Phi_m, and every result is normalised by a single
gcd pass.  The per-coefficient Fraction view is available as ``coeffs``.
Exact identity checks over many products skip that pass: ``add_products``
sums raw, unfolded convolutions of numerators over a shared denominator,
and ``vanishes`` folds such a sum mod Phi_m before testing it for zero.

Arithmetic is ordinary field arithmetic through operators (+, -, *, /, **
with negative exponents allowed).  ints and Fractions are promoted to
constants of the same conductor; mixing two different conductors raises
InputError rather than silently embedding one field in the other.
Division inverts through the norm: for x = a/den with a integral,
N(a) = a * prod sigma_k(a) over the automorphisms sigma_k(zeta) = zeta^k,
k in (Z/m)^x, k != 1, is a nonzero integer (Phi_m is irreducible over Q),
so x^-1 = den * prod sigma_k(a) / N(a) needs integer arithmetic only.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InputError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, ascending, as ints.  Phi_1 = x - 1."""
    if m < 1:
        raise InputError("cyclotomic polynomial needs m >= 1, got %r" % (m,))
    f = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            # long division by the monic Phi_d stays in Z[x]
            g = cyclotomic_polynomial(d)
            k = len(g) - 1
            q = [0] * (len(f) - k)
            for s in range(len(f) - 1, k - 1, -1):
                c = f[s]
                if c:
                    q[s - k] = c
                    for i, gi in enumerate(g):
                        f[s - k + i] -= c * gi
            if any(f[:k]):
                raise RuntimeError("cyclotomic division left a remainder")
            f = q
    return tuple(f)


@lru_cache(maxsize=None)
def _field(m: int):
    """(degree, table, fold) for Q(zeta_m).

    table[j] is x^j mod Phi_m as an int tuple for j < max(m, 2*degree - 1),
    which covers every residue of an exponent mod m and every exponent of a
    product of two residues; fold lists the nonzero (i, c) of table[j] for
    degree <= j < 2*degree - 1, the rows a product reduces through.
    """
    if m < 2:
        raise InputError("cyclotomic field needs m >= 2, got %r" % (m,))
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    xdeg = tuple(-c for c in phi[:deg])  # x^deg reduced, Phi monic
    table = [tuple(1 if i == j else 0 for i in range(deg)) for j in range(deg)]
    for _ in range(deg, max(m, 2 * deg - 1)):
        prev = table[-1]
        top = prev[-1]
        shifted = (0,) + prev[:-1]
        if top:
            shifted = tuple(s + top * x for s, x in zip(shifted, xdeg))
        table.append(shifted)
    fold = tuple(tuple((i, c) for i, c in enumerate(table[j]) if c)
                 for j in range(deg, 2 * deg - 1))
    return deg, tuple(table), fold


def raw_sums(m: int) -> defaultdict:
    """An empty map from keys to raw product sums for ``add_products``."""
    width = 2 * _field(m)[0] - 1
    return defaultdict(lambda: [0] * width)


def add_products(acc: defaultdict, x, terms, base: int = 0) -> None:
    """acc[base + key] += x * y, unfolded, for each (key, y) in terms.

    x and every y are the nonzero (slot, numerator) pairs of an element's
    integer numerators.  acc comes from ``raw_sums``: each value is the raw
    convolution sum, 2*phi(m) - 1 ints not yet reduced mod Phi_m, so adding
    a product costs no gcd pass and no fold until ``fold`` is called.
    """
    for key, y in terms:
        raw = acc[base + key]
        for s, u in x:
            for t, w in y:
                raw[s + t] += u * w


def fold(m: int, raw) -> list:
    """The phi(m) numerators of a raw product sum (2*phi(m) - 1 slots)
    reduced mod Phi_m."""
    deg, _, rows = _field(m)
    out = list(raw[:deg])
    for e, row in enumerate(rows, deg):
        c = raw[e]
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def vanishes(m: int, raw) -> bool:
    """Whether a raw product sum is 0 in Q(zeta_m).  The sum is folded mod
    Phi_m before the test: 1 + zeta + zeta^2 is the nonzero raw sum [1, 1, 1]
    and is 0 for m = 3."""
    return not any(raw) or not any(fold(m, raw))


def _reduce_poly(m, coeffs) -> list:
    """Reduce an integer coefficient list of any length mod Phi_m."""
    deg, table, _ = _field(m)
    if len(coeffs) > len(table):
        # x^m = 1 in the quotient, since Phi_m divides x^m - 1
        folded = [0] * m
        for e, c in enumerate(coeffs):
            folded[e % m] += c
        coeffs = folded
    acc = list(coeffs[:deg]) + [0] * (deg - len(coeffs))
    for e in range(deg, len(coeffs)):
        c = coeffs[e]
        if c:
            for i, r in enumerate(table[e]):
                if r:
                    acc[i] += c * r
    return acc


def _canon(m: int, num, den: int) -> "CycNum":
    """The CycNum num/den (den > 0), divided through by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _cyc(m, tuple(c // g for c in num), den // g)
    return _cyc(m, tuple(num), den)


def _from_fractions(m: int, coeffs) -> "CycNum":
    """The CycNum sum(coeffs[j] * zeta^j) for int/Fraction coeffs of any length."""
    den = lcm(*(c.denominator for c in coeffs))
    num = [c.numerator * (den // c.denominator) for c in coeffs]
    return _canon(m, _reduce_poly(m, num), den)


@lru_cache(maxsize=None)
def _constants(m: int) -> tuple:
    """The shared (zero, one) of Q(zeta_m)."""
    if m < 2:
        raise InputError("conductor must be >= 2, got %r" % (m,))
    pad = (0,) * (_field(m)[0] - 1)
    return _cyc(m, (0,) + pad, 1), _cyc(m, (1,) + pad, 1)


class CycNum:
    """An element of Q(zeta_m), canonical residue mod Phi_m."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: tuple, den: int):
        # trusted constructor: (num, den) must already be canonical
        _set_m(self, m)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients of 1, zeta, ..., zeta^(phi(m)-1) as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(m: int, coeffs) -> "CycNum":
        """Value sum(coeffs[j] * zeta^j); coeffs of any length, ints/Fractions."""
        if m < 2:
            raise InputError("conductor must be >= 2, got %r" % (m,))
        return _from_fractions(
            m, [c if type(c) is int else Fraction(c) for c in coeffs])

    @staticmethod
    def rational(m: int, value) -> "CycNum":
        if m < 2:
            raise InputError("conductor must be >= 2, got %r" % (m,))
        pad = (0,) * (_field(m)[0] - 1)
        if type(value) is int:
            return _cyc(m, (value,) + pad, 1)
        v = Fraction(value)
        return _cyc(m, (v.numerator,) + pad, v.denominator)

    @staticmethod
    def zero(m: int) -> "CycNum":
        return _constants(m)[0]

    @staticmethod
    def one(m: int) -> "CycNum":
        return _constants(m)[1]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.m != self.m:
                raise InputError(
                    "conductor mismatch: %d vs %d" % (self.m, other.m))
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.m, other)
        return None

    def __add__(self, other):
        o = other if other.__class__ is CycNum and other.m == self.m \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canon(self.m, [a + b for a, b in zip(self.num, o.num)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _canon(self.m, [a * fa + b * fb for a, b in zip(self.num, o.num)],
                      da * fa)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is CycNum and other.m == self.m \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canon(self.m, [a - b for a, b in zip(self.num, o.num)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _canon(self.m, [a * fa - b * fb for a, b in zip(self.num, o.num)],
                      da * fa)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _cyc(self.m, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = other if other.__class__ is CycNum and other.m == self.m \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        m, a, b = self.m, self.num, o.num
        den = self.den * o.den
        if len(a) == 1:
            # phi(m) = 1 (m = 2): the field is Q
            n = a[0] * b[0]
            if den != 1:
                g = gcd(n, den)
                if g != 1:
                    return _cyc(m, (n // g,), den // g)
            return _cyc(m, (n,), den)
        deg, _, fold = _field(m)
        nzb = [(j, y) for j, y in enumerate(b) if y]
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nzb:
                    conv[i + j] += x * y
        for e, row in enumerate(fold, deg):
            c = conv[e]
            if c:
                for i, r in row:
                    conv[i] += c * r
        del conv[deg:]
        return _canon(m, conv, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        m, num = self.m, self.num
        if not any(num):
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % m)
        # self = a/den with a integral, and a * prod_{k != 1} sigma_k(a) is
        # the norm N(a), a nonzero integer; sigma_k(zeta) = zeta^k moves the
        # numerator at slot j to slot j*k mod m
        rest = CycNum.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * m
                for j, c in enumerate(num):
                    conj[j * k % m] += c
                rest = rest * _cyc(m, tuple(_reduce_poly(m, conj)), 1)
        norm = (_cyc(m, num, 1) * rest).num[0]
        scale = self.den if norm > 0 else -self.den  # m = 2: N(a) = a
        return _canon(m, [c * scale for c in rest.num], abs(norm))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = CycNum.one(self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- equality / hashing / display ---------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if isinstance(other, (CycNum, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # note: hashes only collide with other CycNum keys, not with ints
        return hash((self.m, self.den, self.num))

    def __bool__(self):
        return any(self.num)

    def _pretty(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mon = "z" if j == 1 else "z^%d" % j
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append("-" + mon)
                else:
                    parts.append("%s*%s" % (c, mon))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "CycNum(%d, %s)" % (self.m, self._pretty())

    def __str__(self):
        return self._pretty()

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = self.num if self.den == 1 else self.coeffs
        return {"m": self.m, "coeffs": [str(c) for c in coeffs]}


_new = object.__new__
_set_m = CycNum.m.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__


def _cyc(m: int, num: tuple, den: int) -> CycNum:
    """Trusted constructor without the __init__ call: (num, den) canonical."""
    x = _new(CycNum)
    _set_m(x, m)
    _set_num(x, num)
    _set_den(x, den)
    return x


def zeta(m: int) -> CycNum:
    """The canonical primitive m-th root of unity."""
    return CycNum.make(m, [0, 1])


def zeta_power(m: int, e: int) -> CycNum:
    """zeta_m ** e for any integer e (negative exponents fold mod m)."""
    if m < 2:
        raise InputError("conductor must be >= 2, got %r" % (m,))
    return _cyc(m, _field(m)[1][e % m], 1)
