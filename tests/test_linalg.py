"""Exact echelon bases: row supports and adopting a canonical basis;
matrix-vector and matrix-matrix products over the supports."""

from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.cyclotomic import CycNum
from taftlab.linalg import EchelonBasis, Matrix, Subspace, echelon

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
