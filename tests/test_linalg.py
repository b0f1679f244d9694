"""Exact echelon bases: row supports and adopting a canonical basis;
matrix-vector and matrix-matrix products over the supports; inverse,
invertibility and solve on the echelon basis against the dense
Gauss-Jordan loops they replaced."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab import constructions
from taftlab.constructions import _invertible_in_span
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import ss_specs
from taftlab.linalg import (EchelonBasis, Matrix, Subspace, combination,
                            echelon, intertwiner_space, rank,
                            small_coefficients, solve)

M = 3
WIDTH = 6

# mostly zeros, so that supports are proper subsets of the columns
entries = st.one_of(
    st.just((0, 0)), st.just((0, 0)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
).map(lambda pair: CycNum.make(M, pair))
vectors = st.lists(entries, min_size=WIDTH, max_size=WIDTH).map(tuple)


def _dense_echelon(vectors):
    """Gauss-Jordan over every column, the loop EchelonBasis had before it
    kept row supports: (rows, pivots) in pivot order."""
    rows, pivots = [], []
    for vec in vectors:
        v = list(vec)
        for p, row in zip(pivots, rows):
            c = v[p]
            if not c.is_zero():
                v = [a - c * b for a, b in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if not x.is_zero()), None)
        if piv is None:
            continue
        inv = v[piv].inverse()
        new = tuple(inv * x for x in v)
        rows = [tuple(a - r[piv] * b for a, b in zip(r, new)) for r in rows]
        pos = sum(1 for p in pivots if p < piv)
        rows.insert(pos, new)
        pivots.insert(pos, piv)
    return tuple(rows), tuple(pivots)


@given(st.lists(vectors, max_size=8))
@settings(max_examples=60, deadline=None)
def test_echelon_with_supports_matches_dense_elimination(vecs):
    eb = echelon(M, WIDTH, vecs)
    assert (eb.rows(), eb.pivots()) == _dense_echelon(vecs)
    for row, supp in zip(eb.rows(), eb._supports):
        assert supp == [j for j, x in enumerate(row) if not x.is_zero()]


@given(st.lists(vectors, max_size=6), st.lists(vectors, min_size=1,
                                                max_size=6))
@settings(max_examples=60, deadline=None)
def test_subspace_adopts_its_canonical_basis(spanning, probes):
    s = Subspace.from_vectors(M, WIDTH, spanning)
    adopted = s._eb()
    rebuilt = echelon(M, WIDTH, s.basis)
    assert adopted.rows() == s.basis
    assert adopted.pivots() == rebuilt.pivots()
    # members of the span, and arbitrary vectors that mostly are not
    members = [tuple(a + b for a, b in zip(x, y))
               for x, y in zip(s.basis, s.basis[1:] + s.basis[:1])]
    for vec in probes + members:
        assert s.contains(vec) == rebuilt.contains(vec)
        assert s.coords(vec) == rebuilt.coords(vec)


def test_from_reduced_keeps_inserting():
    one, zero = CycNum.one(M), CycNum.zero(M)
    s = Subspace.from_vectors(M, 3, [(one, one, zero)])
    eb = EchelonBasis.from_reduced(M, 3, s.basis)
    assert eb.insert((zero, one, one))
    assert eb.rows() == echelon(M, 3, [(one, one, zero),
                                       (zero, one, one)]).rows()


# about half zeros, so that supports of every size occur
half_zero = st.lists(
    st.one_of(st.just((0, 0)), st.tuples(st.integers(-3, 3), st.integers(1, 3)))
    .map(lambda pair: CycNum.make(M, pair)),
    min_size=WIDTH, max_size=WIDTH).map(tuple)


@given(st.lists(half_zero, min_size=1, max_size=5), half_zero)
@settings(max_examples=60, deadline=None)
def test_apply_over_the_support_matches_the_full_sum(rows, vec):
    mat = Matrix(M, tuple(rows))
    zero = CycNum.zero(M)
    expect = []
    for r in rows:
        acc = zero
        for c, x in zip(r, vec):
            acc = acc + c * x
        expect.append(acc)
    assert mat.apply(vec) == tuple(expect)


@given(st.lists(half_zero, min_size=1, max_size=4),
       st.lists(half_zero, min_size=WIDTH, max_size=WIDTH))
@settings(max_examples=60, deadline=None)
def test_matmul_over_the_supports_matches_the_triple_sum(left, right):
    a, b = Matrix(M, tuple(left)), Matrix(M, tuple(right))
    zero = CycNum.zero(M)
    expect = []
    for r in left:
        row = []
        for j in range(WIDTH):
            acc = zero
            for k in range(WIDTH):
                acc = acc + r[k] * right[k][j]
            row.append(acc)
        expect.append(tuple(row))
    assert (a @ b).rows == tuple(expect)


# -- the dense Gauss-Jordan loops Matrix.inverse and Matrix.det ran --------------


def gauss_jordan_inverse(a):
    """The inverse by Gauss-Jordan elimination on [A | I], as Matrix.inverse
    computed it before it read the echelon basis."""
    if a.nrows != a.ncols:
        raise InputError("inverse needs a square matrix")
    n = a.nrows
    aug = [list(a.rows[i]) + list(Matrix.identity(a.m, n).rows[i])
           for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise InputError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * x for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return Matrix(a.m, tuple(tuple(r[n:]) for r in aug))


def gauss_det(a):
    """The determinant by forward elimination, the removed Matrix.det."""
    n = a.nrows
    rows = [list(r) for r in a.rows]
    det = CycNum.one(a.m)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return CycNum.zero(a.m)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _entries(m):
    small = st.integers(-3, 3)
    return st.tuples(small, small, st.sampled_from([1, 1, 2, 3])).map(
        lambda t: CycNum.make(m, (Fraction(t[0], t[2]), Fraction(t[1], t[2]))))


@st.composite
def square_matrices(draw):
    """Dense, block-sparse (two diagonal blocks under a row and a column
    permutation) or singular (one row a combination of two others, or zero)
    n x n matrices over Q(zeta_m), n <= 8."""
    m = draw(st.sampled_from([2, 3, 4, 6]))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "block", "singular"]))
    entry, zero = _entries(m), CycNum.zero(m)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "block":
        cut = draw(st.integers(1, n))
        rows = [[x if (i < cut) == (j < cut) else zero
                 for j, x in enumerate(r)] for i, r in enumerate(rows)]
        rperm = draw(st.permutations(range(n)))
        cperm = draw(st.permutations(range(n)))
        rows = [[rows[i][j] for j in cperm] for i in rperm]
    elif kind == "singular":
        k = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != k]
        a = draw(st.sampled_from(others)) if others else None
        b = draw(st.sampled_from(others)) if others else None
        ca, cb = draw(entry), draw(entry)
        rows[k] = ([ca * x + cb * y for x, y in zip(rows[a], rows[b])]
                   if others else [zero] * n)
    return Matrix(m, tuple(map(tuple, rows)))


def _outcome(fn, a):
    try:
        return fn(a)
    except InputError as exc:
        return str(exc)


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_inverse_on_the_echelon_basis_matches_gauss_jordan(a):
    got = _outcome(Matrix.inverse, a)
    assert got == _outcome(gauss_jordan_inverse, a)
    if isinstance(got, Matrix):
        assert got @ a == a @ got == Matrix.identity(a.m, a.nrows)
    else:
        assert got == "matrix is singular"


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_full_rank_is_nonzero_determinant(a):
    assert (rank(a) == a.nrows) == (not gauss_det(a).is_zero())


def test_inverse_keeps_its_messages():
    m = 3
    with pytest.raises(InputError, match="^inverse needs a square matrix$"):
        Matrix.zeros(m, 2, 3).inverse()
    with pytest.raises(InputError, match="^matrix is singular$"):
        Matrix.from_rows(m, [[1, 2], [2, 4]]).inverse()
    assert Matrix(m, ()).inverse() == Matrix(m, ())


def _det_invertible_in_span(basis, k, m, monkeypatch):
    """_invertible_in_span with its rank test read as det != 0, the test it
    ran before."""
    with monkeypatch.context() as mp:
        mp.setattr(constructions, "rank",
                   lambda t: k if not gauss_det(t).is_zero() else -1)
        return _invertible_in_span(basis, k, m)


# the iso-ss pairs of acceptance criterion 07
ISO_SS_PAIRS = [("pair_alpha_1", "pair_alpha_neg1"),
                ("pair2_diag_1", "pair2_diag_neg1"),
                ("pair_alpha_1", "pair_alpha_2"),
                ("pair_alpha_0", "pair_alpha_1"),
                ("pair2_diag_1", "pair2_diag_2"),
                ("pair2_diag_1", "pair2_nilblock"),
                ("pair2_diag_neg1", "pair2_nilblock")]


def test_invertible_in_span_picks_the_det_candidate(monkeypatch):
    specs = ss_specs()
    found = 0
    for a, b in ISO_SS_PAIRS:
        s1, s2 = specs[a], specs[b]
        m, k, t = s1.m, s1.k, s1.t
        # the (r, beta) systems iso_semisimple solves
        for r in range(t):
            for j in range(m // t):
                beta = zeta_power(m, t * j)
                space = intertwiner_space(m, k, k, [
                    (s1.P, s2.P, zeta_power(m, -r)),
                    (s1.Q, s2.Q, beta.inverse()),
                ])
                got = _invertible_in_span(space, k, m)
                assert got == _det_invertible_in_span(space, k, m,
                                                      monkeypatch)
                found += got is not None
    assert found >= 2


@given(st.integers(0, 4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
@settings(max_examples=80, deadline=None)
def test_small_coefficients_cheap_vectors_then_the_grid(s, values):
    got = list(small_coefficients(s, values))
    assert len(set(got)) == len(got)
    assert all(len(c) == s and any(c) for c in got)
    # the unit vectors, then the prefix sums of two or more ones
    for i in range(s):
        assert got[i] == tuple(int(j == i) for j in range(s))
    for i in range(1, s):
        assert got[s + i - 1] == tuple(int(j <= i) for j in range(s))
    cheap = got[:max(2 * s - 1, 0)]
    # then every other nonzero grid point, in itertools.product order
    grid = list(itertools.product(values, repeat=s))
    rest = got[len(cheap):]
    assert rest == [c for c in grid if any(c) and c not in cheap]


@given(st.lists(square_matrices(), min_size=1, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_combination_sums_the_scaled_basis(basis, data):
    m, n = basis[0].m, basis[0].nrows
    basis = [b for b in basis if (b.m, b.nrows) == (m, n)]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                max_size=len(basis)))
    got = combination(coeffs, basis)
    if not any(coeffs):
        assert got is None
        return
    want = Matrix.zeros(m, n, n)
    for cf, b in zip(coeffs, basis):
        want = want + b * cf
    assert got == want


def back_substitution_solve(matrix, rhs):
    """solve with the second substitution pass it ran before."""
    n = matrix.ncols
    aug = [tuple(matrix.rows[i]) + (rhs[i],) for i in range(matrix.nrows)]
    eb = echelon(matrix.m, n + 1, aug)
    x = [CycNum.zero(matrix.m)] * n
    for piv, row in zip(eb.pivots(), eb.rows()):
        if piv == n:
            return None
        x[piv] = row[n]
    for piv, row in zip(eb.pivots(), eb.rows()):
        acc = row[n]
        for j in range(n):
            if j != piv and not row[j].is_zero():
                acc = acc - row[j] * x[j]
        x[piv] = acc
    if tuple(matrix.apply(tuple(x))) != tuple(rhs):
        return None
    return tuple(x)


@given(square_matrices(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_back_substitution(a, consistent, data):
    entry = _entries(a.m)
    y = tuple(data.draw(entry) for _ in range(a.ncols))
    rhs = a.apply(y) if consistent else y
    got = solve(a, rhs)
    assert got == back_substitution_solve(a, rhs)
    if consistent:
        assert got is not None and a.apply(got) == rhs
