"""Structure theory on explicit multiplication tables: radicals, quotients,
gradings, invariant closures."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.algebra_core import (
    FinDimAlgebra,
    direct_sum,
    field_algebra,
    grading_from_c,
    ideal_generated_by,
    jacobson_radical,
    matrix_algebra,
    nilpotency_index,
    quotient_algebra,
    subalgebra_on,
    subspace_product,
    trivial_grading,
    unital_hull,
)
from taftlab.cli import main
from taftlab.constructions import build_nilpotent_extension, build_semisimple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (nilext_specs, ss_specs, sweedler_two_dim,
                              trivial_action)
from taftlab.linalg import Matrix, Subspace, kernel
from taftlab.serialize import (algebra_to_json, dumps_canonical, hma_to_json,
                               json_to_algebra)
from test_law_checks import DENSE_COPIES, SEED_COPIES, _dense_copy
from test_law_checks import _entries as _cyclotomic_entries


def jet_algebra(m, d):
    """F[t]/(t^{d+1}) on basis 1, t, ..., t^d."""
    zero = CycNum.zero(m)
    one = CycNum.one(m)
    table = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            vec = [zero] * (d + 1)
            if i + j <= d:
                vec[i + j] = one
            row.append(tuple(vec))
        table.append(tuple(row))
    return FinDimAlgebra(m, tuple(table))


def strictly_upper_21(m):
    """The 1-dim algebra F*w with w^2 = 0 (no unit)."""
    zero = CycNum.zero(m)
    return FinDimAlgebra(m, (((zero,),),))


def test_matrix_algebra_units_and_products():
    for m, k in [(2, 2), (3, 2), (2, 3)]:
        a = matrix_algebra(m, k)
        assert a.dim == k * k
        assert a.unit is not None
        # E_ij E_kl = delta_jk E_il on flat index i*k + j
        for i in range(k):
            for j in range(k):
                for p in range(k):
                    for q in range(k):
                        prod = a.multiply(a.basis_vector(i * k + j),
                                          a.basis_vector(p * k + q))
                        expect = [CycNum.zero(m)] * (k * k)
                        if j == p:
                            expect[i * k + q] = CycNum.one(m)
                        assert prod == tuple(expect), (i, j, p, q)


def test_radical_of_semisimple_is_zero():
    for a in (field_algebra(3), matrix_algebra(2, 2),
              direct_sum(matrix_algebra(2, 2), matrix_algebra(2, 2))):
        assert jacobson_radical(a).dim == 0


def test_radical_of_jet_algebra():
    for d in (1, 2, 3):
        a = jet_algebra(2, d)
        rad = jacobson_radical(a)
        assert rad.dim == d
        # the radical is exactly (t): no component on the unit coordinate
        for v in rad.basis:
            assert v[0].is_zero()
        assert nilpotency_index(a, rad) == d + 1


def test_radical_of_nonunital_nilpotent():
    a = strictly_upper_21(2)
    rad = jacobson_radical(a)
    assert rad.dim == 1
    assert nilpotency_index(a, rad) == 2


def test_nilpotency_index_of_nonnilpotent_is_none():
    a = matrix_algebra(2, 2)
    full = Subspace.from_vectors(2, 4, [a.basis_vector(i) for i in range(4)])
    assert nilpotency_index(a, full) is None


def test_subspace_product_in_jets():
    a = jet_algebra(2, 3)
    rad = jacobson_radical(a)
    sq = subspace_product(a, rad, rad)
    assert sq.dim == 2
    for v in sq.basis:
        assert v[0].is_zero() and v[1].is_zero()


def test_quotient_by_radical_is_semisimple():
    a = jet_algebra(3, 2)
    rad = jacobson_radical(a)
    q, project = quotient_algebra(a, rad)
    assert q.dim == 1
    assert q.unit is not None
    assert jacobson_radical(q).dim == 0
    # the projection is an algebra map
    for i in range(a.dim):
        for j in range(a.dim):
            x, y = a.basis_vector(i), a.basis_vector(j)
            assert project(a.multiply(x, y)) == q.multiply(project(x), project(y))


def test_direct_sum_structure():
    a = direct_sum(field_algebra(2), matrix_algebra(2, 2))
    assert a.dim == 5
    assert a.unit is not None
    # cross terms vanish
    assert a.multiply(a.basis_vector(0), a.basis_vector(3)) == \
        tuple(CycNum.zero(2) for _ in range(5))
    assert jacobson_radical(a).dim == 0


def test_unital_hull_adjoins_unit():
    a = strictly_upper_21(2)
    h = unital_hull(a)
    assert h.dim == 2
    assert h.unit == (CycNum.one(2), CycNum.zero(2))
    w = h.basis_vector(1)
    assert h.multiply(w, w) == (CycNum.zero(2), CycNum.zero(2))
    assert h.multiply(h.unit, w) == w


def test_subalgebra_on_closed_subspace():
    a = matrix_algebra(2, 2)
    # upper-triangular matrices: E11, E12, E22 at flat indices 0, 1, 3
    s = Subspace.from_vectors(2, 4, [a.basis_vector(i) for i in (0, 1, 3)])
    b = subalgebra_on(a, s)
    assert b.dim == 3
    assert b.unit is not None
    assert jacobson_radical(b).dim == 1


def test_subalgebra_on_unclosed_subspace_rejected():
    a = matrix_algebra(2, 2)
    # E12 and E21 alone: their product E11 escapes
    s = Subspace.from_vectors(2, 4, [a.basis_vector(1), a.basis_vector(2)])
    with pytest.raises(InputError):
        subalgebra_on(a, s)


def elementary_grading_c(m, k, weights):
    """diag automorphism a |-> Q a Q^{-1} with Q = diag(zeta^{w_i})."""
    n = k * k
    zero = CycNum.zero(m)
    rows = [[zero] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            rows[i * k + j][i * k + j] = zeta_power(m, (weights[i] - weights[j]) % m)
    return Matrix(m, tuple(tuple(r) for r in rows))


def test_grading_from_c_elementary():
    for m in (2, 3, 4):
        c = elementary_grading_c(m, 2, (0, 1))
        a = matrix_algebra(m, 2)
        g = grading_from_c(a, c)
        assert sum(g.dims) == 4
        # deg(E_ij) = w_i - w_j: two diagonal cells in degree 0, E12 and E21
        # in degrees -1 and 1
        assert g.dims[0] == 2
        assert g.verify_multiplication(a) is None
        degs = g.degree_of_basis()
        assert len(degs) == 4
        projs = g.projectors()
        total = projs[0]
        for p in projs[1:]:
            total = total + p
        assert total == Matrix.identity(m, 4)


def test_grading_rejects_non_root_of_unity_operator():
    a = matrix_algebra(2, 2)
    two = CycNum.one(2) + CycNum.one(2)
    c = Matrix.identity(2, 4) * two
    with pytest.raises(InputError, match="c\\^m = id"):
        grading_from_c(a, c)


def test_grading_rejects_incompatible_multiplication():
    # order-2 diagonal operator on the jet algebra putting t in degree 1 but
    # t^2 also in degree 1: eigenspaces fill the space, products do not comply
    a = jet_algebra(2, 2)
    one, zero = CycNum.one(2), CycNum.zero(2)
    neg = zero - one
    c = Matrix(2, ((one, zero, zero),
                   (zero, neg, zero),
                   (zero, zero, neg)))
    with pytest.raises(InputError, match="incompatible with multiplication"):
        grading_from_c(a, c)


def test_trivial_grading_shape():
    a = matrix_algebra(2, 2)
    g = trivial_grading(a, 3)
    assert g.dims == (4, 0, 0)
    assert g.verify_multiplication(a) is None


def test_ideal_generated_by_in_simple_algebra_is_everything():
    a = matrix_algebra(2, 2)
    ideal = ideal_generated_by(a, [a.basis_vector(1)])
    assert ideal.dim == 4


def test_ideal_generated_by_in_jets():
    a = jet_algebra(2, 2)
    ideal = ideal_generated_by(a, [a.basis_vector(2)])
    assert ideal.dim == 1  # (t^2) = F t^2
    ideal_t = ideal_generated_by(a, [a.basis_vector(1)])
    assert ideal_t.dim == 2  # (t) = F t + F t^2


def test_ideal_closure_under_extra_operators():
    # v-style shift on jets sends t^j to t^{j-1}; closing (t^2) under it
    # drags in everything below
    a = jet_algebra(2, 2)
    zero, one = CycNum.zero(2), CycNum.one(2)
    shift = Matrix(2, ((zero, one, zero),
                       (zero, zero, one),
                       (zero, zero, zero)))
    ideal = ideal_generated_by(a, [a.basis_vector(2)], extra_ops=(shift,))
    assert ideal.dim == 3


def test_associativity_validation_rejects_garbage():
    one, zero = CycNum.one(2), CycNum.zero(2)
    # x*x = y, x*y = x, y*x = y, y*y = y: (xx)x = y but x(xx) = x
    mult = (((zero, one), (one, zero)),
            ((zero, one), (zero, one)))
    with pytest.raises(InputError, match="associative"):
        FinDimAlgebra(2, mult)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_jet_products_commute(i, j):
    a = jet_algebra(2, 3)
    x, y = a.basis_vector(i), a.basis_vector(j)
    assert a.multiply(x, y) == a.multiply(y, x)


# -- exhaustive associativity against the old triple loop ---------------------


def _old_multiply(alg, x, y):
    """FinDimAlgebra.multiply before it kept the nonzero entries of cells."""
    acc = [CycNum.zero(alg.m)] * alg.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            cell = alg.mult[i][j]
            for a in range(alg.dim):
                if not cell[a].is_zero():
                    acc[a] = acc[a] + xi * yj * cell[a]
    return tuple(acc)


def _old_first_failure(alg):
    """The triple loop the old check ran up to dim 12: the first (i, j, k)
    with (e_i e_j) e_k != e_i (e_j e_k), or None."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                ei, ej, ek = (alg.basis_vector(i), alg.basis_vector(j),
                              alg.basis_vector(k))
                if _old_multiply(alg, _old_multiply(alg, ei, ej), ek) != \
                   _old_multiply(alg, ei, _old_multiply(alg, ej, ek)):
                    return (i, j, k)
    return None


def _check_against_old_loop(m, table):
    loose = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    expect = _old_first_failure(loose)
    if expect is None:
        FinDimAlgebra(m, table, autodetect_unit=False)
    else:
        with pytest.raises(InputError) as err:
            FinDimAlgebra(m, table, autodetect_unit=False)
        assert str(err.value) == ("structure constants are not associative "
                                  "at basis triple (%d, %d, %d)" % expect)
    return loose, expect


@st.composite
def _random_tables(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    dim = draw(st.integers(1, 5))
    # mostly zeros, so that some tables are associative
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1]).map(
        lambda v: CycNum.rational(m, v))
    cell = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    row = st.lists(cell, min_size=dim, max_size=dim).map(tuple)
    return m, draw(st.lists(row, min_size=dim, max_size=dim).map(tuple))


@given(_random_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_associativity_check_matches_old_triple_loop(drawn, data):
    m, table = drawn
    loose, _ = _check_against_old_loop(m, table)
    # multiply over the nonzero entries agrees with the old loop too
    vec = st.lists(st.integers(-2, 2).map(lambda v: CycNum.rational(m, v)),
                   min_size=loose.dim, max_size=loose.dim).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    assert loose.multiply(x, y) == _old_multiply(loose, x, y)


def _corpus_algebras():
    specs = ss_specs()
    out = [sweedler_two_dim().algebra, jet_algebra(3, 3), matrix_algebra(3, 2)]
    out += [build_semisimple(specs[name]).algebra
            for name in ("pair_alpha_1", "sweedler_p_gamma3", "grid_m3_k1_t3",
                         "grid_m4_k1_t4", "pair2_diag_1")]
    out += [build_nilpotent_extension(spec).module.algebra
            for spec in nilext_specs().values()]
    return out


CORPUS_ALGEBRAS = _corpus_algebras()


@given(st.sampled_from(range(len(CORPUS_ALGEBRAS))), st.data())
@settings(max_examples=40, deadline=None)
def test_associativity_check_matches_old_loop_on_perturbed_corpus(index, data):
    alg = CORPUS_ALGEBRAS[index]
    m, dim = alg.m, alg.dim
    table = [list(map(list, row)) for row in alg.mult]
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, a = (data.draw(st.integers(0, dim - 1)) for _ in range(3))
        delta = data.draw(st.sampled_from([1, -1, 2])) * \
            zeta_power(m, data.draw(st.integers(0, m - 1)))
        table[i][j][a] = table[i][j][a] + delta
    _check_against_old_loop(m, tuple(tuple(map(tuple, row)) for row in table))


def _diagonal_with_one_left_unit(m, dim, left, right):
    """e_i e_i = e_i for every i, plus e_left e_right = e_right."""
    zero, one = CycNum.zero(m), CycNum.one(m)

    def e(a):
        return tuple(one if b == a else zero for b in range(dim))
    table = [[e(i) if i == j else (zero,) * dim for j in range(dim)]
             for i in range(dim)]
    table[left][right] = e(right)
    return tuple(tuple(row) for row in table)


def test_sampling_hole_is_closed(capsys, tmp_path):
    # (e12 e11) e12 = 0 but e12 (e11 e12) = e12: 1 failing triple in 2197,
    # which the old 200-sample check above dim 12 missed
    table = _diagonal_with_one_left_unit(2, 13, 10, 11)
    message = "not associative at basis triple (11, 10, 11)"
    with pytest.raises(InputError, match=r"\(11, 10, 11\)"):
        FinDimAlgebra(2, table)
    loose = FinDimAlgebra(2, table, validate=False)
    with pytest.raises(InputError, match=r"\(11, 10, 11\)"):
        json_to_algebra(algebra_to_json(loose))
    path = tmp_path / "hole.json"
    path.write_text(dumps_canonical(hma_to_json(trivial_action(loose))))
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input" and message in diag["message"]


# -- the radical against the hull and the loop ----------------------------------


def _old_radical(alg):
    """jacobson_radical before the trace form's closed form: the unital
    hull, its left multiplication matrices and the four-deep loop for
    trace(L_y L_i), y over the hull and i over A."""
    hull = unital_hull(alg)
    n = hull.dim
    lops = [hull.left_mult_basis(i) for i in range(n)]
    rows = []
    for y in range(n):
        ly = lops[y]
        row = []
        for i in range(1, n):
            li = lops[i]
            acc = CycNum.zero(alg.m)
            for p in range(n):
                for q in range(n):
                    u = li.entry(p, q)
                    if not u.is_zero():
                        w = ly.entry(q, p)
                        if not w.is_zero():
                            acc = acc + u * w
            row.append(acc)
        rows.append(tuple(row))
    return Subspace.from_vectors(alg.m, alg.dim,
                                 kernel(Matrix(alg.m, tuple(rows))))


def _assert_radical_matches(alg):
    got = jacobson_radical(alg)
    assert (got.m, got.ambient, got.basis) == \
        (alg.m, alg.dim, _old_radical(alg).basis)
    return got


def _loose(m, table):
    return FinDimAlgebra(m, table, validate=False, autodetect_unit=False)


def _shifted(m, table, at, by):
    """table with by added to the constant at (i, j, a), or to every
    constant when at is None."""
    big = CycNum.rational(m, by)
    return tuple(tuple(tuple(
        x + big if at is None or (i, j, a) == at else x
        for a, x in enumerate(cell)) for j, cell in enumerate(row))
        for i, row in enumerate(table))


@st.composite
def _radical_tables(draw):
    """Tables, associative or not: rational ones (one-column entries) as
    _random_tables draws them, or over Q(zeta_m) with test_law_checks'
    entries, of dim 0 to 4; some with one constant or all of them moved
    by 2^70, past int64, so that the sum runs on Python ints."""
    if draw(st.booleans()):
        m, table = draw(_random_tables())
    else:
        m = draw(st.sampled_from([2, 3, 4, 5, 8]))
        n = draw(st.integers(0, 4))
        cell = st.lists(_cyclotomic_entries(m), min_size=n,
                        max_size=n).map(tuple)
        table = tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))
    n = len(table)
    where = draw(st.sampled_from(["none", "one", "all"])) if n else "none"
    if where != "none":
        at = None if where == "all" else tuple(
            draw(st.integers(0, n - 1)) for _ in range(3))
        table = _shifted(m, table, at, 1 << 70)
    return m, table


@given(_radical_tables())
@settings(max_examples=150, deadline=None)
def test_radical_matches_the_hull_loop_on_random_tables(drawn):
    _assert_radical_matches(_loose(*drawn))


def test_radical_matches_the_hull_loop_on_edge_tables():
    zero = CycNum.zero(3)
    empty = _loose(3, ())
    assert _assert_radical_matches(empty).basis == ()
    for n in (1, 2, 4):
        nothing = _loose(3, tuple(tuple((zero,) * n for _ in range(n))
                                  for _ in range(n)))
        assert _assert_radical_matches(nothing).dim == n
    assert _assert_radical_matches(strictly_upper_21(4)).dim == 1
    # not associative: the rows trace(L_j L_i) alone have a kernel, and
    # the row trace(L_i) of the adjoined unit rules it out
    mult = tuple(tuple(tuple(CycNum.rational(2, x) for x in cell)
                       for cell in row)
                 for row in (((-1, -1), (1, -1)), ((1, 0), (0, -1))))
    assert _assert_radical_matches(_loose(2, mult)).dim == 0
    for m in (2, 3, 5):
        for d in range(4):
            jets = jet_algebra(m, d)
            assert _assert_radical_matches(jets).dim == d
            # every constant past 2^62: the sum runs on Python ints
            big = _loose(m, _shifted(m, jets.mult, None, 1 << 62))
            assert big._entries()[2].dtype == object
            _assert_radical_matches(big)


@pytest.mark.parametrize("index", range(len(CORPUS_ALGEBRAS)))
def test_radical_matches_the_hull_loop_on_the_corpus(index):
    _assert_radical_matches(CORPUS_ALGEBRAS[index])


@given(st.sampled_from(range(len(CORPUS_ALGEBRAS))), st.data())
@settings(max_examples=30, deadline=None)
def test_radical_matches_the_hull_loop_on_perturbed_corpus(index, data):
    alg = CORPUS_ALGEBRAS[index]
    m, dim = alg.m, alg.dim
    at = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([1, -1, 2])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    table = [list(map(list, row)) for row in alg.mult]
    table[at[0]][at[1]][at[2]] = table[at[0]][at[1]][at[2]] + delta
    _assert_radical_matches(_loose(m, tuple(tuple(map(tuple, row))
                                            for row in table)))


@pytest.mark.parametrize("name", sorted(ss_specs()))
def test_semisimple_corpus_has_zero_radical(name):
    assert jacobson_radical(build_semisimple(ss_specs()[name]).algebra).dim == 0


@pytest.mark.parametrize("name,kind", sorted(
    DENSE_COPIES + [key for _, key in SEED_COPIES]))
def test_radical_matches_the_hull_loop_on_dense_copies(name, kind):
    _assert_radical_matches(_dense_copy(name, kind).algebra)
