"""linalg.certified_rank against the exact echelon rank it certifies.

A modular rank is a lower bound; certified_rank turns it into the exact
rank when the reduced echelon form reconstructed from modular images passes
an exact integer check.  The oracle is EchelonBasis over Q(zeta_m), the
elimination that codim and the operator span fall back to.  The rows reach
certified_rank the way codimension hands them over (identities._span_rank:
int64 coefficient planes over one common denominator).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taftlab import linalg
from taftlab.constructions import build_semisimple
from taftlab.cyclotomic import CycNum
from taftlab.fixtures import ss_specs
from taftlab.identities import _span_rank, codimension
from taftlab.linalg import (CERTIFY_PRIMES, Matrix, _crt, _exact_in_int64,
                            _lift, _rational_reconstruction, _right_product,
                            certified_rank, echelon, echelon_mod_p,
                            modular_prime, planes_mod_p, reduction_primes,
                            root_of_unity_mod, zmatmul)

CONDUCTORS = (2, 3, 4, 5, 8, 12)


def _degree(m):
    return len(CycNum.zero(m).num)


def integer_planes(m, value_lists):
    """[(D, planes)] for each list of values: D the lcm of that list's
    denominators, and planes[i] the coefficients of D * values[i] as int64,
    all lists cut to their constant plane when no other coefficient of any
    of them is nonzero.  None when a coefficient reaches 2^62.  The
    conversion linalg had before Matrix kept its entries: the oracle of
    linalg.entry_planes."""
    deg = _degree(m)
    dens, out = [], []
    for values in value_lists:
        den = math.lcm(1, *(x.den for x in values))
        rows = [[u * (den // x.den) for u in x.num] for x in values]
        if any(abs(u) >= 1 << 62 for row in rows for u in row):
            return None
        dens.append(den)
        out.append(np.array(rows, dtype=np.int64).reshape(len(rows), deg))
    if not any(x[..., 1:].any() for x in out):
        out = [x[..., :1] for x in out]
    return list(zip(dens, out))


def _common_planes(m, rows):
    """(d, planes): the rows over their common denominator d."""
    (d, ints), = integer_planes(m, [[x for row in rows for x in row]])
    return d, ints.reshape(len(rows), len(rows[0]), -1)


def _oracle(m, rows):
    return echelon(m, len(rows[0]), rows).dim


def cycnum_rows(m, d, planes):
    """The rows planes / d, int64 coefficient planes over the common
    denominator d, as tuples of CycNum."""
    pad = (0,) * (_degree(m) - planes.shape[-1])
    scale = CycNum.rational(m, Fraction(1, d))
    return tuple(tuple(CycNum(m, tuple(x) + pad, 1) * scale for x in row)
                 for row in planes.tolist())


def _certify(m, rows):
    """(rank, method) of rows as codimension's final rank words them, the
    rank pinned at their shape or certified by _span_rank, or None."""
    d, planes = _common_planes(m, rows)
    got = _span_rank(planes, d, m, min(planes.shape[:2]))
    if got is None:
        return None
    value, primes, basis = got
    return value, "modp-%s(p=%s)" % ("pinned" if basis is None
                                     else "certified",
                                     ",".join(map(str, primes)))


def _arguments(m, rows):
    """certified_rank's images and generators for rows, as _span_rank
    builds them."""
    d, planes = _common_planes(m, rows)

    def images(q, z):
        return echelon_mod_p(planes_mod_p(planes, d, q, z), q)

    return images, lambda: (planes, ())


def _after_the_first(images, change):
    """images with change(pivots, E) applied to every image but the
    first one asked for, which gives the lower bound."""
    calls = []

    def changed(p, w):
        got = images(p, w)
        calls.append(p)
        return got if len(calls) == 1 else change(*got)

    return changed


def _primes(method):
    return method[method.index("(p=") + 3:-1].split(",")


# -- random row spaces over Q(zeta_m) -----------------------------------------


@st.composite
def _row_spaces(draw, numerators, denominators=st.integers(1, 3)):
    """(m, rows, E): rows spanning the row space of a planted reduced echelon
    form E, whose free entries draw their coefficients from numerators /
    denominators.  The rows are the rows of E scaled by nonzero small
    elements, then small combinations of them and zero rows, shuffled."""
    m = draw(st.sampled_from(CONDUCTORS))
    deg = _degree(m)
    rational = draw(st.booleans())
    r = draw(st.integers(0, 4))
    ncols = draw(st.integers(r + 1, r + 4))
    pivots = sorted(draw(st.permutations(range(ncols)))[:r])

    def entry(nums, dens):
        slots = 1 if rational else deg
        return CycNum.make(m, [Fraction(draw(nums), draw(dens))
                               for _ in range(slots)])

    def small():
        return entry(st.integers(-2, 2), st.just(1))

    one, zero = CycNum.one(m), CycNum.zero(m)
    basis = []
    for i, piv in enumerate(pivots):
        row = [zero] * ncols
        row[piv] = one
        for j in range(piv + 1, ncols):
            if j not in pivots:
                row[j] = entry(numerators, denominators)
        basis.append(row)
    rows = []
    for row in basis:
        scale = small()
        scale = scale if not scale.is_zero() else one
        rows.append([scale * x for x in row])
    for _ in range(draw(st.integers(1, 3))):
        acc = [zero] * ncols
        for row in basis:
            c = small()
            acc = [a + c * x for a, x in zip(acc, row)]
        rows.append(acc)
    order = draw(st.permutations(range(len(rows))))
    return m, [tuple(rows[i]) for i in order], basis


@given(_row_spaces(st.integers(-9, 9)))
@settings(max_examples=120, deadline=None)
def test_planted_dependencies_are_certified_at_the_first_prime(drawn):
    m, rows, basis = drawn
    got = _certify(m, rows)
    assert got is not None
    assert got[0] == _oracle(m, rows) == len(basis)
    assert got[1].startswith("modp-certified(p=")
    assert _primes(got[1]) == [str(next(reduction_primes(m))[0])]


@given(_row_spaces(st.integers(1000, 3000)))
@settings(max_examples=60, deadline=None)
def test_tall_entries_take_two_or_more_primes(drawn):
    # sqrt(p / 2) < 725 for the first prime alone, so a coefficient of E
    # above it needs the CRT of two primes or more
    m, rows, basis = drawn
    got = _certify(m, rows)
    assert got is not None and got[0] == _oracle(m, rows) == len(basis)
    if any(any(abs(u) > 724 for u in x.num) for row in basis for x in row):
        assert len(_primes(got[1])) >= 2


@given(_row_spaces(st.integers(2 ** 45, 2 ** 46),
                   denominators=st.integers(1, 1)))
@settings(max_examples=30, deadline=None)
def test_heights_past_the_prime_budget_reach_the_fallback(drawn):
    # CERTIFY_PRIMES primes near 2^20 reconstruct heights up to about 2^29
    m, rows, basis = drawn
    got = _certify(m, rows)
    units = (CycNum.zero(m), CycNum.one(m))
    if any(x not in units for row in basis for x in row):
        assert got is None
    else:
        assert got[0] == len(basis)
    assert _oracle(m, rows) == len(basis)


@st.composite
def _random_matrices(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    deg = _degree(m)
    vals = st.integers(-3, 3)
    rows = [tuple(CycNum.make(m, [draw(vals) for _ in range(deg)])
                  if draw(st.integers(0, 2)) else CycNum.zero(m)
                  for _ in range(ncols)) for _ in range(nrows)]
    return m, rows


def _within_the_prime_budget(m, rows):
    """Whether every coefficient of the exact reduced echelon form has its
    numerator and denominator within isqrt((M - 1) / 2), for M the product
    of the CERTIFY_PRIMES primes: the heights rational reconstruction
    recovers (see test_heights_past_the_prime_budget_reach_the_fallback)."""
    modulus = math.prod(p for p, _ in reduction_primes(m, CERTIFY_PRIMES))
    bound = math.isqrt((modulus - 1) // 2)
    basis = echelon(m, len(rows[0]), rows).rows()
    coeffs = (Fraction(u, x.den) for row in basis for x in row for u in x.num)
    return all(abs(f.numerator) <= bound and f.denominator <= bound
               for f in coeffs)


def _past_the_budget():
    """Rank 4 over Q(zeta_5), whose reduced echelon form has the denominator
    781983091, above isqrt((M - 1) / 2) = 759327964."""
    m = 5
    zero = (0, 0, 0, 0)
    rows = [[zero] * 6,
            [zero, zero, zero, (2, 3, -3, 0), (0, 0, -2, -1), zero],
            [zero] * 6,
            [zero, zero, (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, -3, 0), zero],
            [zero, zero, (0, 0, 1, -2), zero, zero, (0, 0, 0, 1)],
            [zero, (-2, 0, 0, 3), zero, zero, (0, 0, 0, 1), zero]]
    return m, [tuple(CycNum.make(m, list(x)) for x in row) for row in rows]


@example(_past_the_budget())
@given(_random_matrices())
@settings(max_examples=150, deadline=None)
def test_random_matrices_pin_or_certify_the_exact_rank(drawn):
    # sound on every draw; short of a pin, which needs no echelon form, a
    # certificate exactly when the echelon form is within what the primes
    # reconstruct, so the example past it gets None
    m, rows = drawn
    got = _certify(m, rows)
    assert got is None or got[0] == _oracle(m, rows)
    if got is None or not got[1].startswith("modp-pinned"):
        assert (got is not None) == _within_the_prime_budget(m, rows)


@example(_past_the_budget())
@given(_random_matrices())
@settings(max_examples=150, deadline=None)
def test_the_certified_echelon_form_is_the_exact_one(drawn):
    # RREF is unique, so a certified (d, d E) is the exact canonical basis
    m, rows = drawn
    got = certified_rank(m, *_arguments(m, rows))
    if got is not None:
        rank, _, (d, de) = got
        assert de.shape[:2] == (rank, len(rows[0]))
        assert cycnum_rows(m, d, de) == echelon(m, len(rows[0]), rows).rows()


# -- refusals -------------------------------------------------------------------


def _gamma3():
    return build_semisimple(ss_specs()["sweedler_p_gamma3"])


def test_a_corrupted_entry_is_rejected_and_codim_falls_back(monkeypatch):
    mod = _gamma3()
    assert codimension(mod, 2).method == "modp-certified(p=%d)" \
        % modular_prime(2)
    cleared = linalg._cleared

    def corrupt(x, modulus):
        got = cleared(x, modulus)
        if got is None:
            return None
        d, de = got
        de = de.copy()
        nz = np.flatnonzero(de)
        de.flat[nz[0] if nz.size else 0] += 1
        return d, de

    monkeypatch.setattr(linalg, "_cleared", corrupt)
    res = codimension(mod, 2)
    assert (res.value, res.method) == (22, "exact-echelon")
    assert codimension(mod, 2, backend="exact").value == 22


def _two_prime_rows():
    """Rank 2 of 3 over Q with an entry of E above sqrt(p / 2)."""
    m = 2
    x = CycNum.rational(m, Fraction(2001, 7))
    one, zero = CycNum.one(m), CycNum.zero(m)
    e0, e1 = (one, zero, x), (zero, one, one)
    return m, [e0, e1, tuple(a + b for a, b in zip(e0, e1))]


def test_pivots_that_differ_across_roots_give_no_certificate():
    m = 3
    z = CycNum.make(m, [0, 1])
    one, zero = CycNum.one(m), CycNum.zero(m)
    rows = [(one, z, zero), (z, z * z, zero)]
    images, generators = _arguments(m, rows)
    assert generators()[0].shape[-1] == _degree(m)
    assert certified_rank(m, images, generators)[:2] == (
        1, (modular_prime(m),))
    shifted = _after_the_first(images, lambda piv, e: (
        [c + 1 for c in piv], e))
    assert certified_rank(m, shifted, generators) is None


def test_pivots_that_differ_across_primes_give_no_certificate():
    m, rows = _two_prime_rows()
    images, generators = _arguments(m, rows)
    assert generators()[0].shape[-1] == 1
    got = certified_rank(m, images, generators)
    assert got is not None and got[0] == 2 and len(got[1]) == 2
    # one root per prime: every image after the first is at a later prime
    second_differs = _after_the_first(images, lambda piv, e: (
        piv[::-1], e))
    assert certified_rank(m, second_differs, generators) is None


def test_a_rank_below_the_first_primes_gives_no_certificate():
    # a row that is zero mod the first prime: its rank there is 1 of 2
    m = 2
    p = modular_prime(m)
    one, zero = CycNum.one(m), CycNum.zero(m)
    rows = [(one, zero, zero), (zero, CycNum.rational(m, p), zero)]
    images, generators = _arguments(m, rows)
    assert len(images(p, root_of_unity_mod(m, p))[0]) == 1
    assert certified_rank(m, images, generators) is None
    assert _oracle(m, rows) == 2


# -- the prime search and the pin -----------------------------------------------


def _over(m, den, rows):
    """rows of small integers, each entry divided by den."""
    return [tuple(CycNum.rational(m, Fraction(x, den)) for x in row)
            for row in rows]


def test_a_prime_dividing_the_denominator_is_skipped_for_the_pin():
    m = 2
    p1 = modular_prime(m)
    rows = _over(m, p1, [(1, 0, 2), (0, 3, 1), (1, 1, 1)])
    assert _oracle(m, rows) == 3
    assert _certify(m, rows) == (3, "modp-pinned(p=%d)" % modular_prime(m, 1))


def test_a_prime_dividing_the_denominator_is_skipped_for_the_certificate():
    m = 2
    p1 = modular_prime(m)
    rows = _over(m, p1, [(1, 0, 2), (0, 3, 1), (1, 3, 3)])
    got = _certify(m, rows)
    assert got is not None and got[0] == _oracle(m, rows) == 2
    assert got[1].startswith("modp-certified(p=")
    assert _primes(got[1])[0] == str(modular_prime(m, 1))
    assert str(p1) not in _primes(got[1])


def test_every_prime_dividing_the_denominator_gives_no_rank():
    m = 2
    den = math.prod(modular_prime(m, k) for k in range(CERTIFY_PRIMES))
    rows = _over(m, den, [(1, 0), (0, 1)])
    images, generators = _arguments(m, rows)
    assert certified_rank(m, images, generators, full=2) is None
    assert _certify(m, rows) is None
    assert _oracle(m, rows) == 2


def test_a_pin_never_asks_for_the_generators():
    m = 3
    z = CycNum.make(m, [0, 1])
    one, zero = CycNum.one(m), CycNum.zero(m)
    rows = [(one, z, zero), (zero, one, z)]
    images, _ = _arguments(m, rows)

    def generators():
        pytest.fail("a pinned rank built its generating rows")

    assert certified_rank(m, images, generators, full=2) == (
        2, (modular_prime(m),), None)


# -- overflow guards ------------------------------------------------------------


def test_int64_guard_at_2_to_the_63():
    assert _exact_in_int64(1, 2 ** 31, 2 ** 32 - 1)
    assert not _exact_in_int64(1, 2 ** 31, 2 ** 32)
    assert _exact_in_int64(3, 1, (2 ** 63 - 1) // 3)
    assert not _exact_in_int64(3, 1, (2 ** 63 + 2) // 3)
    assert not _exact_in_int64(1, 2 ** 40, 2 ** 40)


@pytest.mark.parametrize("a,b", [
    (2 ** 25, 2 ** 27 - 1), (2 ** 25, 2 ** 27), (2 ** 26, 2 ** 26 + 1),
    (2 ** 26 - 1, 2 ** 26), (2 ** 30, 2 ** 32 - 1), (2 ** 31 - 1, 2 ** 31),
    (2 ** 31, 2 ** 31), (2 ** 31, 2 ** 32)])
def test_exact_product_never_rounds_or_wraps(a, b):
    # width 2: every partial sum is at most 2 a b; past 2^53 a single
    # term of a b no longer fits float64's mantissa
    left = np.array([[a, -a]], dtype=np.int64)
    right = np.array([[b, 1], [0, b]], dtype=np.int64)
    got = _right_product(right)(left)
    if 2 * a * b >= 1 << 63:
        assert got is None
    else:
        assert got.tolist() == [[a * b, a - a * b]]


@pytest.mark.parametrize("width", [3, 64, 1000])
def test_wide_products_sum_their_chunks_exactly(width):
    # a term reaches 2^52, so each chunk holds one, and the sums pass 2^53,
    # where float64 would round them
    rng = np.random.default_rng(width)
    left = rng.integers(-(2 ** 26), 2 ** 26, (3, width), dtype=np.int64)
    right = rng.integers(-(2 ** 26), 2 ** 26, (width, 2), dtype=np.int64)
    left[:, 0], right[0] = 2 ** 26, 2 ** 26
    got = _right_product(right)(left)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col))
             for col in right.T.tolist()] for row in left.tolist()]
    assert got.dtype == np.int64 and got.tolist() == want


def _rank_two(a, x):
    """Rows (1, 0, x), (0, 1, x) and (a, -a, 0) over Q: rank 2, and the
    check multiplies the pivot entries (a, -a) of the third row by the
    reconstructed column (x, x), whose partial sums reach 2 a x although
    the product is 0."""
    m = 2
    one, zero = CycNum.one(m), CycNum.zero(m)
    rat = lambda v: CycNum.rational(m, v)  # noqa: E731
    return m, [(one, zero, rat(x)), (zero, one, rat(x)),
               (rat(a), rat(-a), zero)]


@pytest.mark.parametrize("a,certified", [(2 ** 53 - 1, True),
                                         (2 ** 53, False)])
def test_the_check_refuses_at_2_to_the_63(monkeypatch, a, certified):
    # the guard bounds the width 2 times a times x = 512
    seen = []
    guard = linalg._exact_in_int64

    def recording(*args):
        seen.append(guard(*args))
        return seen[-1]

    monkeypatch.setattr(linalg, "_exact_in_int64", recording)
    m, rows = _rank_two(a, 512)
    got = _certify(m, rows)
    assert _oracle(m, rows) == 2
    if certified:
        assert got is not None and got[0] == 2 and all(seen)
    else:
        # every prime refuses, so no certificate: codim would fall back
        assert got is None and seen and not any(seen)


def _python_crt(residues, moduli):
    x, big = 0, 1
    for r, p in zip(residues, moduli):
        t = (r - x) * pow(big, -1, p) % p
        x, big = x + big * t, big * p
    return x


@pytest.mark.parametrize("m", CONDUCTORS)
def test_the_prime_budget_keeps_crt_below_2_to_the_62(m):
    primes = [p for p, _ in reduction_primes(m, CERTIFY_PRIMES)]
    assert math.prod(primes) < 1 << 62
    rng = np.random.default_rng(m)
    residues = [rng.integers(0, p, 50) for p in primes]
    x, modulus = residues[0], primes[0]
    for k in range(1, len(primes)):
        x = _crt(x, modulus, residues[k], primes[k])
        modulus *= primes[k]
        assert x.dtype == np.int64
        assert [int(v) for v in x] == [
            _python_crt([int(r[i]) for r in residues[:k + 1]],
                        primes[:k + 1]) for i in range(50)]


def _trial_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _restarting_primes(m, count=3):
    """The search reduction_primes replaced: each prime found by a fresh
    scan up from 2^20, primality by trial division."""
    def nth(skip):
        p, found = (1 << 20) // m * m + 1, 0
        while True:
            p += m
            if _trial_prime(p):
                if found == skip:
                    return p
                found += 1

    return [(p, root_of_unity_mod(m, p)) for p in map(nth, range(count))]


@pytest.mark.parametrize("m", range(2, 31))
def test_reduction_primes_match_the_restarting_search(m):
    want = _restarting_primes(m)
    assert list(reduction_primes(m)) == want
    assert [modular_prime(m, k) for k in range(3)] == [p for p, _ in want]


# every n above 2^20 up to the first eight reduction primes of each
# conductor m <= 12, and up to 2^12 below
_PRIME_WINDOW = range(1 << 20, (1 << 20) + (1 << 12))


def test_prime_test_matches_trial_division():
    assert all(p in _PRIME_WINDOW for m in range(2, 13)
               for p, _ in reduction_primes(m, 8))
    for n in itertools.chain(range(1 << 12), _PRIME_WINDOW):
        assert linalg._is_prime(n) == _trial_prime(n), n


@given(st.integers(0, linalg._PRIME_TEST_LIMIT - 1))
@example(3215031749)
@settings(max_examples=100, deadline=None)
def test_prime_test_matches_trial_division_below_its_limit(n):
    assert linalg._is_prime(n) == _trial_prime(n)


def test_prime_test_refuses_past_its_limit():
    # the least strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    for n in (2047, 1373653, 25326001):
        assert not linalg._is_prime(n)
    with pytest.raises(OverflowError):
        linalg._is_prime(linalg._PRIME_TEST_LIMIT)


def _modulus_near(limit, p):
    modulus = limit // p
    while math.gcd(modulus, p) != 1:
        modulus -= 1
    return modulus


def test_crt_just_below_2_to_the_62_stays_exact():
    p = modular_prime(2)
    modulus = _modulus_near((1 << 62) - 1, p)
    x = np.array([modulus - 1, 0, 12345], dtype=np.int64)
    y = np.array([p - 1, 1, 7], dtype=np.int64)
    got = _crt(x, modulus, y, p)
    assert got.dtype == np.int64
    for xi, yi, gi in zip(x.tolist(), y.tolist(), got.tolist()):
        assert gi == _python_crt([xi, yi], [modulus, p])
        assert 0 <= gi < modulus * p < 1 << 62


def test_crt_past_2_to_the_62_refuses_instead_of_wrapping():
    p = modular_prime(2)
    modulus = _modulus_near(1 << 62, p) + p
    while math.gcd(modulus, p) != 1:
        modulus += 1
    assert modulus * p >= 1 << 62
    x = np.array([modulus - 1], dtype=np.int64)
    assert _crt(x, modulus, np.array([p - 1], dtype=np.int64), p) is None


@pytest.mark.parametrize("modulus", [
    modular_prime(2),
    math.prod(modular_prime(2, k) for k in range(CERTIFY_PRIMES))])
def test_rational_reconstruction(modulus):
    fracs = [Fraction(0), Fraction(1), Fraction(-5, 7), Fraction(300, 301),
             Fraction(-700, 3)]
    u = np.array([f.numerator * pow(f.denominator, -1, modulus) % modulus
                  for f in fracs], dtype=np.int64)
    num, den = _rational_reconstruction(u, modulus)
    assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == fracs
    # the integer just past the bound: the first remainder is within it,
    # and the cofactor about twice the bound
    far = np.array([math.isqrt((modulus - 1) // 2) + 1], dtype=np.int64)
    assert _rational_reconstruction(far, modulus) is None


# -- products over Z[zeta_m] ----------------------------------------------------


@st.composite
def _integer_matrices(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    p, q, s = (draw(st.integers(1, 4)) for _ in range(3))
    deg = _degree(m)
    vals = st.integers(-50, 50)

    def mat(rows, cols):
        return Matrix(m, tuple(tuple(CycNum.make(m, [draw(vals)
                                                     for _ in range(deg)])
                                     for _ in range(cols))
                               for _ in range(rows)))

    return m, mat(p, q), mat(q, s)


def _planes(a):
    return np.array([[x.num for x in row] for row in a.rows], dtype=np.int64)


@given(_integer_matrices())
@settings(max_examples=100, deadline=None)
def test_zmatmul_matches_the_cyclotomic_product(drawn):
    m, a, b = drawn
    assert np.array_equal(zmatmul(_planes(a), _planes(b), m), _planes(a @ b))


def _wide(m, a, b):
    """The width, a's largest coefficient and that of b's lifted matrix:
    what zmatmul's product guard sees."""
    deg = _degree(m)
    return (len(b.rows) * deg, int(np.abs(_planes(a)).max()),
            int(np.abs(_lift(_planes(b), m)).max()))


@st.composite
def _large_integer_matrices(draw):
    # coefficients up to 2^k for 24 <= k <= 31: wide products' partial
    # sums pass 2^53, single terms do from k = 27 on, and the widest
    # products' sums pass 2^63 from k = 30 on
    m = draw(st.sampled_from(CONDUCTORS))
    p, q, s = (draw(st.integers(1, 4)) for _ in range(3))
    deg = _degree(m)
    top = 2 ** draw(st.integers(24, 31))
    vals = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))

    def mat(rows, cols):
        return Matrix(m, tuple(tuple(CycNum.make(m, [draw(vals)
                                                     for _ in range(deg)])
                                     for _ in range(cols))
                               for _ in range(rows)))

    return m, mat(p, q), mat(q, s)


@example((2, Matrix.from_rows(2, [[2 ** 31]]),
          Matrix.from_rows(2, [[2 ** 32 - 1]])))
@example((2, Matrix.from_rows(2, [[2 ** 31]]), Matrix.from_rows(2, [[2 ** 32]])))
@given(_large_integer_matrices())
@settings(max_examples=100, deadline=None)
def test_zmatmul_is_exact_up_to_2_to_the_63(drawn):
    # between 2^53 and 2^63 the product is the cyclotomic one, and from
    # 2^63 on it is refused
    m, a, b = drawn
    got = zmatmul(_planes(a), _planes(b), m)
    width, amax, bmax = _wide(m, a, b)
    if width * amax * bmax >= 1 << 63:
        assert got is None
    else:
        assert np.array_equal(got, _planes(a @ b))


def test_codim_certifies_the_slow_degree():
    # the degree that used to run the exact echelon over Q(zeta_m)
    mod = _gamma3()
    res = codimension(mod, 3)
    assert res.value == 105
    assert not res.method.startswith("modp-pinned")
    assert res.method != "exact-echelon"


# -- the integer form: one scatter into planes, one reduction mod p -----------


@st.composite
def _exact_matrices(draw):
    """(m, [matrices]): one to three matrices of one shape over Q(zeta_m),
    rational-only or cyclotomic, with zero entries, small fractions, some
    of denominator 7, and coefficients at or just below 2^62 in size."""
    m = draw(st.sampled_from(CONDUCTORS))
    deg = _degree(m)
    slots = 1 if draw(st.booleans()) else deg
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-5, 5),
                      st.sampled_from([1, 2, 3, 7]))
    huge = st.sampled_from([2 ** 62 - 1, 2 ** 62, -(2 ** 62), -(2 ** 62) + 1])
    nonzero = st.lists(st.one_of(coeff, coeff, coeff, huge), min_size=slots,
                       max_size=slots).map(lambda c: CycNum.make(m, c))
    entry = st.one_of(st.just(CycNum.zero(m)), nonzero)
    return m, [Matrix(m, tuple(tuple(draw(entry) for _ in range(cols))
                               for _ in range(rows)))
               for _ in range(draw(st.integers(1, 3)))]


@example((4, [Matrix.from_rows(4, [[2 ** 62, 1]]),
              Matrix.from_rows(4, [[1, 0]])]))
@given(_exact_matrices())
@settings(max_examples=200, deadline=None)
def test_the_entry_scatter_gives_the_integer_planes(drawn):
    # each matrix alone and all of them at one degree, as structure_planes
    # and the law engine's map planes take them
    m, mats = drawn
    flat = [[x for row in a.rows for x in row] for a in mats]
    for values, a in zip(flat, mats):
        want = integer_planes(m, [values])
        got = linalg.entry_planes(a._entries(), (a.nrows, a.ncols),
                                  a._entries()[2].shape[1])
        assert (got is None) == (want is None)
        if want is not None:
            (den, planes), = want
            assert a._entries()[0] == den
            assert got.dtype == np.int64
            assert np.array_equal(got, planes.reshape(got.shape))
    want = integer_planes(m, flat)
    ents = [a._entries() for a in mats]
    deg = max(x.shape[1] for _, _, x in ents)
    got = [linalg.entry_planes(e, (a.nrows * a.ncols,), deg)
           for e, a in zip(ents, mats)]
    assert (None in [g if g is None else 0 for g in got]) == (want is None)
    if want is not None:
        for (den, planes), g, e in zip(want, got, ents):
            assert e[0] == den and np.array_equal(g, planes)
    # stacked over one denominator: _numerators on every value at once
    size = mats[0].nrows * mats[0].ncols
    stacked = linalg.stacked_entries(ents, size)
    direct = linalg._numerators(m, [(k * size + i, x)
                                    for k, values in enumerate(flat)
                                    for i, x in enumerate(values) if x])
    assert stacked[0] == direct[0]
    assert np.array_equal(stacked[1], direct[1])
    assert stacked[2].dtype == direct[2].dtype
    assert stacked[2].shape == direct[2].shape
    assert stacked[2].tolist() == direct[2].tolist()


@example((2, [Matrix.from_rows(2, [[0, Fraction(1, 7)]])]), 1)
@given(_exact_matrices(), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_matrix_to_modp_reduces_each_entry_as_cyc_to_modp(drawn, which):
    # at a reduction prime, and, over Q(zeta_2) and Q(zeta_3), at 7, which
    # divides some denominators
    m, mats = drawn
    p, w = (next(reduction_primes(m)) if which == 0 else
            (7, linalg.root_of_unity_mod(m, 7)) if 6 % m == 0 else
            next(reduction_primes(m)))
    for a in mats:
        try:
            want = [[linalg.cyc_to_modp(x, p, w) for x in row]
                    for row in a.rows]
        except linalg.ModReductionError:
            with pytest.raises(linalg.ModReductionError):
                linalg.matrix_to_modp(a, p, w)
            continue
        got = linalg.matrix_to_modp(a, p, w)
        assert got.dtype == np.int64 and got.tolist() == want
