"""The exact law checks on integer numerators against their CycNum oracles:
associativity (FinDimAlgebra._check_associative) and the module-algebra law
on generators (hma_verify)."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab import algebra_core, hmodule
from taftlab.algebra_core import FinDimAlgebra
from taftlab.constructions import build_semisimple, grid_spec
from taftlab.cyclotomic import (CycNum, add_products, fold, raw_sums,
                                vanishes, zeta_power)
from taftlab.errors import InputError
from taftlab.fixtures import negative_modules, positive_modules
from taftlab.hmodule import HmaReport, HModuleAlgebra, hma_verify
from taftlab.linalg import Matrix, vec_is_zero
from taftlab.taft_hopf import TaftAlgebra


# -- the oracles: the CycNum loops the integer checks replaced ---------------


def _cycnum_first_failure(alg):
    """The lexicographically first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    or None: the sparse CycNum sum FinDimAlgebra used before it summed
    integer numerators."""
    dim = alg.dim
    nz = alg._nonzero()
    by_row = [[(k, cell) for k, cell in enumerate(row) if cell] for row in nz]
    for i in range(dim):
        row_i = nz[i]
        for j in range(dim):
            diff = {}
            for a, cij in row_i[j]:
                for k, cell in by_row[a]:
                    base = k * dim
                    for c, x in cell:
                        p = cij * x
                        key = base + c
                        diff[key] = diff[key] + p if key in diff else p
            for k, cell in by_row[j]:
                base = k * dim
                for b, cjk in cell:
                    for c, x in row_i[b]:
                        p = cjk * x
                        key = base + c
                        diff[key] = diff[key] - p if key in diff else -p
            bad = [key for key, v in diff.items() if any(v.num)]
            if bad:
                return (i, j, min(bad) // dim)
    return None


def _cycnum_hma_verify(mod):
    """hma_verify as it was on CycNum vectors: the module-algebra law applied
    per basis pair, with the last failing pair as each law's witness."""
    rep = HmaReport()
    A, m = mod.algebra, mod.m
    n = A.dim
    ident = Matrix.identity(m, n)
    z = zeta_power(m, 1)

    rep.add("c_order", mod.c_op ** m == ident)
    rep.add("v_nilpotent", (mod.v_op ** m).is_zero())
    rep.add("vc_commutation", mod.v_op @ mod.c_op == (mod.c_op @ mod.v_op) * z)

    c_mult_ok, c_wit = True, None
    v_leibniz_ok, v_wit = True, None
    basis = [A.basis_vector(j) for j in range(n)]
    c_cols = [mod.c_op.col(j) for j in range(n)]
    v_cols = [mod.v_op.col(j) for j in range(n)]
    for i in range(n):
        cei, vei = c_cols[i], v_cols[i]
        for j in range(n):
            ej = basis[j]
            prod = A.mult[i][j]
            if mod.c_op.apply(prod) != A.multiply(cei, c_cols[j]):
                c_mult_ok, c_wit = False, (i, j)
            lhs = mod.v_op.apply(prod)
            rhs_vec = A.multiply(cei, v_cols[j])
            rhs_vec = tuple(a + b for a, b in
                            zip(rhs_vec, A.multiply(vei, ej)))
            if lhs != rhs_vec:
                v_leibniz_ok, v_wit = False, (i, j)
    rep.add("c_multiplicative", c_mult_ok, c_wit)
    rep.add("v_skew_derivation", v_leibniz_ok, v_wit)

    if A.unit is not None:
        rep.add("c_fixes_unit", mod.c_op.apply(A.unit) == tuple(A.unit))
        rep.add("v_kills_unit", vec_is_zero(mod.v_op.apply(A.unit)))
    return rep


def _assert_associativity_matches(m, table):
    """FinDimAlgebra accepts the table iff the oracle finds no failing
    triple, and otherwise names the oracle's triple."""
    loose = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    expect = _cycnum_first_failure(loose)
    if expect is None:
        FinDimAlgebra(m, table, autodetect_unit=False)
    else:
        with pytest.raises(InputError) as err:
            FinDimAlgebra(m, table, autodetect_unit=False)
        assert str(err.value) == ("structure constants are not associative "
                                  "at basis triple (%d, %d, %d)" % expect)
    return expect


def _assert_report_matches(mod):
    got = hma_verify(mod)
    assert got.to_json() == _cycnum_hma_verify(mod).to_json()
    return got


# -- inputs -------------------------------------------------------------------


@cache
def _corpus():
    out = dict(positive_modules())
    out.update(negative_modules())
    # phi(5) = 4 and phi(8) = 4: the widest numerators the checks meet
    for m, k, t in ((5, 1, 5), (5, 2, 1), (8, 1, 4), (8, 2, 2)):
        out["grid_m%d_k%d_t%d" % (m, k, t)] = build_semisimple(grid_spec(m, k, t))
    return out


def _change_basis(mod, t):
    """The same module algebra written in the basis given by the columns of t."""
    A = mod.algebra
    t_inv = t.inverse()
    cols = [t.col(i) for i in range(A.dim)]
    mult = tuple(tuple(t_inv.apply(A.multiply(x, y)) for y in cols)
                 for x in cols)
    unit = None if A.unit is None else t_inv.apply(A.unit)
    algebra = FinDimAlgebra(mod.m, mult, unit=unit, validate=False)
    return HModuleAlgebra(hopf=mod.hopf, algebra=algebra,
                          c_op=t_inv @ mod.c_op @ t, v_op=t_inv @ mod.v_op @ t)


def _dense_basis(m, n, kind):
    """I + J (rational, det n + 1) or I + zeta J (det 1 + n zeta != 0 for
    m > 2): every entry nonzero, so the copy's tables are dense."""
    off = CycNum.one(m) if kind == "rational" else zeta_power(m, 1)
    return Matrix(m, tuple(tuple(off + 1 if i == j else off for j in range(n))
                           for i in range(n)))


# the corpus modules of dim 2-4 get both copies (a dim-1 copy is only a
# rescaled basis vector); of the dim-8 ones, three
DENSE_COPIES = sorted(
    [(name, "rational") for name, mod in _corpus().items()
     if 2 <= mod.algebra.dim <= 4]
    + [(name, "cyclotomic") for name, mod in _corpus().items()
       if 2 <= mod.algebra.dim <= 4 and mod.m > 2]
    + [("ext_base_mat2_elem_m2", "rational"), ("ss_grid_m4_k2_t2", "cyclotomic"),
       ("grid_m8_k2_t2", "cyclotomic")])


@cache
def _dense_copy(name, kind):
    mod = _corpus()[name]
    return _change_basis(mod, _dense_basis(mod.m, mod.algebra.dim, kind))


# -- corpus modules and their dense copies -------------------------------------


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_corpus_matches_the_oracles(name):
    mod = _corpus()[name]
    assert _assert_associativity_matches(mod.m, mod.algebra.mult) is None
    assert _assert_report_matches(mod).ok


@pytest.mark.parametrize("name,kind", DENSE_COPIES)
def test_dense_copies_match_the_oracles(name, kind):
    mod = _dense_copy(name, kind)
    assert any(x.den > 1 for row in mod.algebra.mult for cell in row for x in cell)
    assert _assert_associativity_matches(mod.m, mod.algebra.mult) is None
    assert _assert_report_matches(mod).ok


def _perturbed(mod, which, b, a, delta):
    name = which + "_op"
    rows = [list(r) for r in getattr(mod, name).rows]
    rows[b][a] = rows[b][a] + delta
    return replace(mod, **{name: Matrix(mod.m, tuple(map(tuple, rows)))})


SOURCES = [("corpus", name) for name in sorted(_corpus())
           if _corpus()[name].algebra.dim <= 9] + \
          [("dense", pair) for pair in DENSE_COPIES]


def _source(where, key):
    return _corpus()[key] if where == "corpus" else _dense_copy(*key)


@given(st.sampled_from(SOURCES), st.data())
@settings(max_examples=60, deadline=None)
def test_one_perturbed_operator_entry_matches_the_oracle(source, data):
    mod = _source(*source)
    n, m = mod.algebra.dim, mod.m
    which = data.draw(st.sampled_from("cv"))
    b, a = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(st.sampled_from([1, -1, 2, CycNum.rational(m, "1/3")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    _assert_report_matches(_perturbed(mod, which, b, a, delta))


@given(st.sampled_from(SOURCES), st.data())
@settings(max_examples=40, deadline=None)
def test_one_perturbed_structure_constant_matches_the_oracle(source, data):
    mod = _source(*source)
    alg, m = mod.algebra, mod.m
    table = [list(map(list, row)) for row in alg.mult]
    i, j, a = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([1, -1, CycNum.rational(m, "1/2")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    table[i][j][a] = table[i][j][a] + delta
    table = tuple(tuple(map(tuple, row)) for row in table)
    _assert_associativity_matches(m, table)
    # the module law on the perturbed table, whether associative or not
    loose = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    _assert_report_matches(HModuleAlgebra(hopf=mod.hopf, algebra=loose,
                                          c_op=mod.c_op, v_op=mod.v_op))


# -- random tables and operators -----------------------------------------------


def _entries(m):
    deg = len(zeta_power(m, 0).num)
    dense = st.tuples(st.lists(st.integers(-3, 3), min_size=deg, max_size=deg),
                      st.integers(1, 4)).map(
        lambda p: CycNum.make(m, [Fraction(c, p[1]) for c in p[0]]))
    power = st.integers(0, m - 1).map(lambda e: zeta_power(m, e))
    zero = st.just(CycNum.zero(m))
    # mostly zeros, so that some tables are associative and some laws hold
    return st.one_of(zero, zero, zero, zero, power, power.map(lambda x: -x), dense)


@st.composite
def _random_modules(draw):
    m = draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = draw(st.integers(1, 4))
    entry = _entries(m)

    def square(strategy):
        return tuple(tuple(draw(strategy) for _ in range(n)) for _ in range(n))

    cell = st.lists(entry, min_size=n, max_size=n).map(tuple)
    table = square(cell)
    c_op, v_op = Matrix(m, square(entry)), Matrix(m, square(entry))
    return m, table, c_op, v_op


@given(_random_modules())
@settings(max_examples=150, deadline=None)
def test_random_tables_and_operators_match_the_oracles(drawn):
    m, table, c_op, v_op = drawn
    _assert_associativity_matches(m, table)
    loose = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    _assert_report_matches(HModuleAlgebra(hopf=TaftAlgebra(m), algebra=loose,
                                          c_op=c_op, v_op=v_op))


# -- sums that only the fold mod Phi_m makes vanish ------------------------------


ONE, ZETA = ((0, 1),), ((1, 1),)


def test_fold_makes_one_plus_zeta_plus_zeta_squared_vanish():
    acc = raw_sums(3)
    add_products(acc, ONE, [(0, ONE), (0, ZETA)])
    add_products(acc, ZETA, [(0, ZETA)])
    assert acc[0] == [1, 1, 1]
    assert fold(3, acc[0]) == [0, 0] and vanishes(3, acc[0])


def test_fold_makes_zeta_squared_plus_one_vanish():
    acc = raw_sums(4)
    add_products(acc, ZETA, [(0, ZETA)])
    add_products(acc, ONE, [(0, ONE)])
    assert acc[0] == [1, 0, 1]
    assert fold(4, acc[0]) == [0, 0] and vanishes(4, acc[0])
    assert not vanishes(4, [1, 0, -1])


@given(st.sampled_from([2, 3, 4, 5, 8, 12]), st.data())
@settings(max_examples=60, deadline=None)
def test_fold_of_the_raw_product_is_the_cycnum_product(m, data):
    deg = len(zeta_power(m, 0).num)
    nums = st.lists(st.integers(-5, 5), min_size=deg, max_size=deg)
    x, y = data.draw(nums), data.draw(nums)
    acc = raw_sums(m)
    add_products(acc, [(s, u) for s, u in enumerate(x) if u],
                 [(7, [(t, w) for t, w in enumerate(y) if w])])
    assert CycNum.make(m, fold(m, acc[7])) == CycNum.make(m, x) * CycNum.make(m, y)


def _scaled_m2(m, scale):
    """M_2 over Q(zeta_m) in the basis f_ij = s_ij E_ij, s = scale[i][j]:
    f_ij f_jl = (s_ij s_jl / s_il) f_il."""
    zero = CycNum.zero(m)
    table = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        row = []
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cell = [zero] * 4
            if j == p:
                cell[2 * i + q] = scale[i][j] * scale[p][q] / scale[i][q]
            row.append(tuple(cell))
        table.append(tuple(row))
    return tuple(table)


def _without_fold(monkeypatch, module):
    # the zero test a check would make if it skipped the fold mod Phi_m
    monkeypatch.setattr(module, "vanishes", lambda m, raw: not any(raw))


def test_associative_table_whose_raw_sums_vanish_only_after_folding(monkeypatch):
    z = zeta_power(3, 1)
    # (f01 f10) f01 = z * z f01, f01 (f10 f01) = 1 * z^2 f01: equal in the
    # field, but z * z is the raw zeta^2 and z^2 is stored as -1 - zeta
    table = _scaled_m2(3, ((z, z), (z, z * z)))
    assert _assert_associativity_matches(3, table) is None
    with monkeypatch.context() as patch:
        _without_fold(patch, algebra_core)
        with pytest.raises(InputError, match="not associative"):
            FinDimAlgebra(3, table, autodetect_unit=False)

    # a near copy: one constant moved by a factor zeta is not associative
    near = [list(map(list, row)) for row in table]
    near[1][2][0] = near[1][2][0] * z
    near = tuple(tuple(map(tuple, row)) for row in near)
    assert _assert_associativity_matches(3, near) is not None


def test_valid_module_whose_raw_sums_vanish_only_after_folding(monkeypatch):
    # M_2 over Q(zeta_4) with c acting by zeta-power weights, written in a
    # zeta-scaled basis, so its law sums need zeta^2 = -1 to cancel
    z = zeta_power(4, 1)
    base = build_semisimple(grid_spec(4, 2, 1))
    diag = (z, z, z, z * z)
    t = Matrix(4, tuple(tuple(diag[i] if i == j else CycNum.zero(4)
                              for j in range(4)) for i in range(4)))
    mod = _change_basis(base, t)
    assert _assert_report_matches(mod).ok
    with monkeypatch.context() as patch:
        _without_fold(patch, hmodule)
        failed = {name for name, _ in hma_verify(mod).failed()}
        assert failed and failed <= {"c_multiplicative", "v_skew_derivation"}

    assert _assert_associativity_matches(4, mod.algebra.mult) is None
    with monkeypatch.context() as patch:
        _without_fold(patch, algebra_core)
        with pytest.raises(InputError, match="not associative"):
            FinDimAlgebra(4, mod.algebra.mult)
