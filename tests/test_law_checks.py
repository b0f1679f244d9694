"""The exact law checks on integer numerators against their CycNum oracles:
associativity and the unit (FinDimAlgebra._check_associative and
_check_unit), the Taft product (hopf_verify_axioms), and the laws
T(ab) = sum S(a) U(b) that algebra_core.law_witnesses decides: the
module-algebra law on generators (hma_verify), algebra maps
(_verify_module_iso, hma_isomorphic_generic and the q-binomial product law
of recover_structure) and derivations."""

import importlib.util
import itertools
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab import algebra_core, hmodule, linalg
from taftlab.algebra_core import FinDimAlgebra, law_witnesses, subalgebra_on
from taftlab.constructions import (NilpotentExtensionSpec, aut_compose,
                                   aut_module_map, aut_pair,
                                   build_nilpotent_extension, build_semisimple,
                                   grid_spec, iso_block_map, iso_semisimple,
                                   recover_structure)
from taftlab.cyclotomic import CycNum, fold, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (negative_modules, nilext_specs, positive_modules,
                              ss_specs)
from taftlab.hmodule import (HmaReport, HModuleAlgebra, hma_isomorphic_generic,
                             hma_verify)
from taftlab.linalg import (Matrix, ModReductionError, combination,
                            intertwiner_space, rank, small_coefficients,
                            vec_is_zero)
from taftlab.qcombinatorics import QBinomTable
from taftlab.taft_hopf import TaftAlgebra, _product_table, hopf_verify_axioms


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
    per basis pair, with the first failing pair in row-major order as each
    law's witness."""
    rep = HmaReport()
    A, m = mod.algebra, mod.m
    n = A.dim
    ident = Matrix.identity(m, n)
    z = zeta_power(m, 1)

    rep.add("c_order", mod.c_op ** m == ident)
    rep.add("v_nilpotent", (mod.v_op ** m).is_zero())
    rep.add("vc_commutation", mod.v_op @ mod.c_op == (mod.c_op @ mod.v_op) * z)

    c_wit = v_wit = None
    basis = [A.basis_vector(j) for j in range(n)]
    c_cols = [mod.c_op.col(j) for j in range(n)]
    v_cols = [mod.v_op.col(j) for j in range(n)]
    for i in range(n):
        cei, vei = c_cols[i], v_cols[i]
        for j in range(n):
            ej = basis[j]
            prod = A.mult[i][j]
            if c_wit is None and \
                    mod.c_op.apply(prod) != A.multiply(cei, c_cols[j]):
                c_wit = (i, j)
            lhs = mod.v_op.apply(prod)
            rhs_vec = A.multiply(cei, v_cols[j])
            rhs_vec = tuple(a + b for a, b in
                            zip(rhs_vec, A.multiply(vei, ej)))
            if v_wit is None and lhs != rhs_vec:
                v_wit = (i, j)
    rep.add("c_multiplicative", c_wit is None, c_wit)
    rep.add("v_skew_derivation", v_wit is None, v_wit)

    if A.unit is not None:
        rep.add("c_fixes_unit", mod.c_op.apply(A.unit) == tuple(A.unit))
        rep.add("v_kills_unit", vec_is_zero(mod.v_op.apply(A.unit)))
    return rep


def _cycnum_law_witnesses(src, dst, laws):
    """law_witnesses as a CycNum pair loop: per law (T, [(S, U), ...]), the
    first basis pair (i, j) in row-major order where T(e_i e_j) differs from
    the sum of the products S(e_i) U(e_j) in dst, or None."""
    out = []
    for T, terms in laws:
        found = None
        for i in range(src.dim):
            for j in range(src.dim):
                rhs = tuple(sum(xs, CycNum.zero(src.m)) for xs in zip(*(
                    dst.multiply(S.col(i), U.col(j)) for S, U in terms)))
                if T.apply(src.mult[i][j]) != rhs:
                    found = (i, j)
                    break
            if found is not None:
                break
        out.append(found)
    return out


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


@cache
def _benchmark_dense():
    """perfbench/dense.py, loaded from its file and left unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("_benchmark_dense", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seed_basis(m, n, name):
    """The basis T that perfbench/dense.py draws for the module `name` from
    seed 1, as its dense_copy does: the basis of the benchmark's dense copy
    of that module."""
    t, _ = _benchmark_dense().draw_basis_change(random.Random("1/" + name), n)
    return Matrix(m, tuple(tuple(CycNum.rational(m, x) for x in row)
                           for row in t))


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
    n = mod.algebra.dim
    return _change_basis(mod, _seed_basis(mod.m, n, name) if kind == "seed 1"
                         else _dense_basis(mod.m, n, kind))


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


def test_fold_makes_one_plus_zeta_plus_zeta_squared_vanish():
    assert fold(3, [1, 1, 1]) == [0, 0]
    # 1 * 1 + 1 * zeta + zeta * zeta through the shift table
    shifts = linalg._shifts(3)
    assert (shifts[0, 0] + shifts[0, 1] + shifts[1, 1]).tolist() == [0, 0]


def test_fold_makes_zeta_squared_plus_one_vanish():
    assert fold(4, [1, 0, 1]) == [0, 0]
    assert fold(4, [1, 0, -1]) != [0, 0]
    shifts = linalg._shifts(4)
    assert (shifts[1, 1] + shifts[0, 0]).tolist() == [0, 0]
    assert (shifts[1, 1] - shifts[0, 0]).any()


@given(st.sampled_from([2, 3, 4, 5, 8, 12]), st.data())
@settings(max_examples=60, deadline=None)
def test_fold_of_the_raw_product_is_the_cycnum_product(m, data):
    deg = len(zeta_power(m, 0).num)
    nums = st.lists(st.integers(-5, 5), min_size=deg, max_size=deg)
    x, y = data.draw(nums), data.draw(nums)
    raw = [0] * (2 * deg - 1)
    for s, u in enumerate(x):
        for t, w in enumerate(y):
            raw[s + t] += u * w
    want = CycNum.make(m, x) * CycNum.make(m, y)
    assert CycNum.make(m, fold(m, raw)) == want
    # the same product as the join forms it, one coefficient row each
    _, got = algebra_core._sum(m, [(np.array([0]), 1, (
        (np.array([x]), None), (np.array([y]), None)))])
    assert CycNum.make(m, got[0].tolist() if len(got) else [0]) == want


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


def _without_fold(monkeypatch):
    # the zero test a check would make if it skipped the fold mod Phi_m,
    # on both routes: the join and the planes fold through a shift table
    # without the rows past zeta^(phi(m) - 1)
    monkeypatch.setattr(linalg, "_shifts", _unfolded_shifts)


def _unfolded_shifts(m):
    deg = len(zeta_power(m, 0).num)
    out = np.zeros((deg, deg, deg), dtype=np.int64)
    for i, t in itertools.product(range(deg), repeat=2):
        if i + t < deg:
            out[i, t, i + t] = 1
    return out


def _route(monkeypatch, planes):
    # decide every law check on one route, planes or the join; None leaves
    # the choice to the costs
    if planes is not None:
        monkeypatch.setattr(algebra_core, "_takes_planes",
                            lambda cost, pairs: planes)


def test_associative_table_whose_raw_sums_vanish_only_after_folding(monkeypatch):
    z = zeta_power(3, 1)
    # (f01 f10) f01 = z * z f01, f01 (f10 f01) = 1 * z^2 f01: equal in the
    # field, but z * z is the raw zeta^2 and z^2 is stored as -1 - zeta
    table = _scaled_m2(3, ((z, z), (z, z * z)))
    for planes in (None, False, True):
        with monkeypatch.context() as route:
            _route(route, planes)
            assert _assert_associativity_matches(3, table) is None
            with monkeypatch.context() as patch:
                _without_fold(patch)
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
    for planes in (None, False, True):
        with monkeypatch.context() as route:
            _route(route, planes)
            assert _assert_report_matches(mod).ok
            with monkeypatch.context() as patch:
                _without_fold(patch)
                failed = {name for name, _ in hma_verify(mod).failed()}
                # the operator relations fold through the same shift table
                assert failed & {"c_multiplicative", "v_skew_derivation"}
                assert failed <= {"c_multiplicative", "v_skew_derivation",
                                  "c_order", "vc_commutation"}

            assert _assert_associativity_matches(4, mod.algebra.mult) is None
            with monkeypatch.context() as patch:
                _without_fold(patch)
                with pytest.raises(InputError, match="not associative"):
                    FinDimAlgebra(4, mod.algebra.mult)


# -- the unit check -------------------------------------------------------------


def _cycnum_unit_failure(alg, unit):
    """The first basis index j with u e_j != e_j or e_j u != e_j, or None:
    the multiply loop FinDimAlgebra._check_unit ran before the integer view."""
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        if alg.multiply(unit, e) != e or alg.multiply(e, unit) != e:
            return j
    return None


def _assert_unit_matches(m, table, unit):
    loose = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    expect = _cycnum_unit_failure(loose, unit)
    assert loose._unit_witness(unit) == expect
    if expect is None:
        FinDimAlgebra(m, table, unit=unit, validate=False)
    else:
        with pytest.raises(InputError) as err:
            FinDimAlgebra(m, table, unit=unit, validate=False)
        assert str(err.value) == "claimed unit fails at basis index %d" % expect
    return expect


UNITAL = [("corpus", name) for name in sorted(_corpus())
          if _corpus()[name].algebra.unit is not None] + \
         [("dense", pair) for pair in DENSE_COPIES
          if _dense_copy(*pair).algebra.unit is not None]


@pytest.mark.parametrize("source", UNITAL)
def test_units_of_the_corpus_and_dense_copies_match_the_oracle(source):
    alg = _source(*source).algebra
    assert _assert_unit_matches(alg.m, alg.mult, alg.unit) is None


@given(st.sampled_from(UNITAL), st.data())
@settings(max_examples=60, deadline=None)
def test_one_perturbed_unit_entry_matches_the_oracle(source, data):
    alg = _source(*source).algebra
    m = alg.m
    unit = list(alg.unit)
    a = data.draw(st.integers(0, alg.dim - 1))
    unit[a] = unit[a] + data.draw(st.sampled_from(
        [1, -1, CycNum.rational(m, "1/2")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    assert _assert_unit_matches(m, alg.mult, tuple(unit)) is not None


@given(_random_modules(), st.data())
@settings(max_examples=100, deadline=None)
def test_random_tables_and_units_match_the_oracle(drawn, data):
    m, table = drawn[0], drawn[1]
    unit = tuple(data.draw(_entries(m)) for _ in range(len(table)))
    _assert_unit_matches(m, table, unit)


# -- the Taft product: associativity and unit -------------------------------------


def _hopf_element_failures(H):
    """The associativity failures hopf_verify_axioms reported from its
    HopfElement loops: the first basis triple with (xy)z != x(yz) and the
    first basis monomial x with 1x != x or x1 != x, as witness strings."""
    keys = H.basis_keys()
    out = []
    for a in keys:
        x = H.monomial(*a)
        for b in keys:
            y = H.monomial(*b)
            xy = x * y
            for c in keys:
                z = H.monomial(*c)
                if xy * z != x * (y * z):
                    out.append("associativity: keys %r %r %r" % (a, b, c))
                    break
            if out:
                break
        if out:
            break
    one = H.one()
    for key in keys:
        x = H.monomial(*key)
        if not (one * x == x and x * one == x):
            out.append("associativity: unit fails at %r" % (key,))
            break
    return out


def _corrupted(H, pair, kind):
    """H with key_product changed at one pair of basis keys."""
    m, right = H.m, H.key_product

    def key_product(a, b):
        hit = right(a, b)
        if (a, b) != pair:
            return hit
        if kind == "zero":
            return None
        if hit is None:
            # a product past the top layer made nonzero
            return (a[0], a[1]), CycNum.one(m)
        key, factor = hit
        if kind == "factor":
            return key, factor * 2
        if kind == "drop_zeta":
            return key, CycNum.one(m)
        return ((key[0] + 1) % m, key[1]), factor  # kind == "key"

    H.key_product = key_product
    return H


def _associativity_failures(report):
    return [f for f in report.failures if f.startswith("associativity")]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_taft_product_matches_the_hopf_element_loops(m):
    H = TaftAlgebra(m)
    report = hopf_verify_axioms(H)
    assert report.associativity and _associativity_failures(report) == []
    assert _hopf_element_failures(H) == []


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=30, deadline=None)
def test_corrupted_taft_product_matches_the_hopf_element_loops(m, data):
    keys = TaftAlgebra(m).basis_keys()
    pair = (data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys)))
    kind = data.draw(st.sampled_from(["zero", "factor", "drop_zeta", "key"]))
    expect = _hopf_element_failures(_corrupted(TaftAlgebra(m), pair, kind))
    report = hopf_verify_axioms(_corrupted(TaftAlgebra(m), pair, kind))
    assert _associativity_failures(report) == expect
    assert report.associativity == (not expect)


def test_hopf_check_catches_a_product_that_sampling_missed():
    # v c = zeta c v written as v c = c v at m = 6: none of the 200 triples
    # the seeded sample used to draw evaluates this product
    v, c = (0, 1), (1, 0)
    report = hopf_verify_axioms(_corrupted(TaftAlgebra(6), (v, c), "drop_zeta"))
    assert report.associativity is False
    # (v v) c = zeta^2 c v^2, but v (v c) now gives zeta c v^2
    assert _associativity_failures(report) == ["associativity: keys %r %r %r"
                                               % (v, v, c)]


# -- algebra maps: T(e_i e_j) = T(e_i) T(e_j) --------------------------------------


def _cycnum_first_nonmultiplicative(a1, a2, T):
    """The first basis pair (i, j) in row-major order with
    T(e_i e_j) != T(e_i) T(e_j), or None: the CycNum pair loop that
    _verify_module_iso and hma_isomorphic_generic each ran."""
    for i in range(a1.dim):
        ti = T.apply(a1.basis_vector(i))
        for j in range(a1.dim):
            if T.apply(a1.mult[i][j]) != a2.multiply(ti, T.apply(a1.basis_vector(j))):
                return i, j
    return None


def _map_witness(a1, a2, T):
    """law_witnesses on the one law "T is an algebra map"."""
    got, = law_witnesses(a1, a2, [(T, [(T, T)])])
    return got


def _cycnum_verify_module_iso(src, dst, T):
    """_verify_module_iso with the CycNum pair loop; the message or None."""
    try:
        T.inverse()
    except InputError:
        return "candidate isomorphism is singular"
    if T @ src.c_op != dst.c_op @ T:
        return "candidate isomorphism does not intertwine c"
    if T @ src.v_op != dst.v_op @ T:
        return "candidate isomorphism does not intertwine v"
    bad = _cycnum_first_nonmultiplicative(src.algebra, dst.algebra, T)
    if bad is not None:
        return ("candidate isomorphism is not multiplicative at basis pair "
                "(%d, %d)" % bad)
    a1, a2 = src.algebra, dst.algebra
    if a1.unit is not None and a2.unit is not None:
        if T.apply(a1.unit) != tuple(a2.unit):
            return "candidate isomorphism does not preserve the unit"
    return None


def _verify_module_iso_message(src, dst, T):
    try:
        hmodule._verify_module_iso(src, dst, T)
    except InputError as err:
        return str(err)
    return None


def _assert_map_matches(src, dst, T):
    expect = _cycnum_first_nonmultiplicative(src.algebra, dst.algebra, T)
    assert _map_witness(src.algebra, dst.algebra, T) == expect
    assert _verify_module_iso_message(src, dst, T) == \
        _cycnum_verify_module_iso(src, dst, T)
    return expect


@cache
def _maps():
    """(label, src, dst, T) with T an H-module-algebra isomorphism src -> dst."""
    specs = ss_specs()
    out = []
    for name, mod in sorted(_corpus().items()):
        if mod.algebra.dim <= 9:
            out.append(("identity " + name, mod, mod,
                        Matrix.identity(mod.m, mod.algebra.dim)))
    spec = specs["pair2_diag_1"]
    one, zero = CycNum.one(2), CycNum.zero(2)
    g = aut_pair(spec, Matrix(2, ((zero, one), (one, zero))), 1)
    h = aut_pair(spec, Matrix(2, ((one, zero), (zero, one + one))), 0)
    mod = build_semisimple(spec)
    for label, pair in (("g", g), ("h", h), ("gh", aut_compose(spec, g, h))):
        out.append(("aut %s pair2_diag_1" % label, mod, mod,
                    aut_module_map(spec, pair)))
    pairs = [(name, name) for name in sorted(specs)] + [
        ("pair_alpha_1", "pair_alpha_neg1"), ("pair2_diag_1", "pair2_diag_neg1")]
    for a, b in pairs:
        w = iso_semisimple(specs[a], specs[b])
        out.append(("iso_block_map %s %s" % (a, b), build_semisimple(specs[a]),
                    build_semisimple(specs[b]),
                    iso_block_map(specs[a], w.T, w.r)))
    for name, kind in DENSE_COPIES:
        mod, copy = _corpus()[name], _dense_copy(name, kind)
        t = _dense_basis(mod.m, mod.algebra.dim, kind)
        out.append(("dense %s %s" % (name, kind), copy, mod, t))
        out.append(("dense inverse %s %s" % (name, kind), mod, copy, t.inverse()))
    return out


MAP_LABELS = [label for label, _, _, _ in _maps()]


def _map(label):
    return next(x[1:] for x in _maps() if x[0] == label)


@pytest.mark.parametrize("label", MAP_LABELS)
def test_isomorphisms_match_the_pair_loop(label):
    src, dst, T = _map(label)
    assert _assert_map_matches(src, dst, T) is None
    assert _verify_module_iso_message(src, dst, T) is None


@given(st.sampled_from(MAP_LABELS), st.data())
@settings(max_examples=80, deadline=None)
def test_one_perturbed_map_entry_matches_the_pair_loop(label, data):
    src, dst, T = _map(label)
    m, n = src.m, src.algebra.dim
    rows = [list(r) for r in T.rows]
    b, a = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[b][a] = rows[b][a] + data.draw(st.sampled_from(
        [1, -1, CycNum.rational(m, "1/3")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    _assert_map_matches(src, dst, Matrix(m, tuple(map(tuple, rows))))


@given(_random_modules(), st.data())
@settings(max_examples=100, deadline=None)
def test_random_tables_and_maps_match_the_pair_loop(drawn, data):
    m, table, T = drawn[0], drawn[1], drawn[2]

    def rows(strategy):
        n = len(table)
        return st.lists(strategy, min_size=n, max_size=n).map(tuple)

    # the target table is the source's or a second random one
    other = data.draw(st.one_of(st.just(table), rows(rows(rows(_entries(m))))))
    a1 = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    a2 = FinDimAlgebra(m, other, validate=False, autodetect_unit=False)
    assert _map_witness(a1, a2, T) == \
        _cycnum_first_nonmultiplicative(a1, a2, T)


# -- derivations: D(ab) = D(a) b + a D(b), a law with two terms -------------------


def _inner_derivation(A, x):
    """ad_x: a -> x a - a x, as a matrix; a derivation when A is associative."""
    cols = [tuple(p - q for p, q in zip(A.multiply(x, e), A.multiply(e, x)))
            for e in (A.basis_vector(i) for i in range(A.dim))]
    return Matrix(A.m, tuple(tuple(col[r] for col in cols)
                             for r in range(A.dim)))


def _derivation_law(D):
    one = Matrix.identity(D.m, D.nrows)
    return D, [(D, one), (one, D)]


def _small_vector(data, m, n):
    return tuple(data.draw(st.sampled_from([0, 1, -1, 2])) *
                 zeta_power(m, data.draw(st.integers(0, m - 1)))
                 for _ in range(n))


@given(st.sampled_from(SOURCES), st.data())
@settings(max_examples=40, deadline=None)
def test_inner_derivations_of_the_corpus_pass_the_derivation_law(source, data):
    mod = _source(*source)
    A = mod.algebra
    law = _derivation_law(_inner_derivation(A, _small_vector(data, A.m, A.dim)))
    assert law_witnesses(A, A, [law]) == [None]
    assert _cycnum_law_witnesses(A, A, [law]) == [None]


@given(st.sampled_from(SOURCES), st.data())
@settings(max_examples=60, deadline=None)
def test_perturbed_derivations_match_the_pair_loop(source, data):
    mod = _source(*source)
    A, m, n = mod.algebra, mod.m, mod.algebra.dim
    D = _inner_derivation(A, _small_vector(data, m, n))
    rows = [list(r) for r in D.rows]
    b, a = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[b][a] = rows[b][a] + data.draw(st.sampled_from(
        [1, -1, CycNum.rational(m, "1/3")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    # with the module's own laws in the same call, so c's left
    # multiplications serve two laws and the identity serves two terms
    one = Matrix.identity(m, n)
    laws = [_derivation_law(Matrix(m, tuple(map(tuple, rows)))),
            (mod.c_op, [(mod.c_op, mod.c_op)]),
            (mod.v_op, [(mod.c_op, mod.v_op), (mod.v_op, one)])]
    got = law_witnesses(A, A, laws)
    assert got == _cycnum_law_witnesses(A, A, laws)
    assert got[1:] == [None, None]


@given(_random_modules(), st.data())
@settings(max_examples=100, deadline=None)
def test_random_tables_and_derivations_match_the_pair_loop(drawn, data):
    m, table = drawn[0], drawn[1]
    A = FinDimAlgebra(m, table, validate=False, autodetect_unit=False)
    inner = _inner_derivation(A, _small_vector(data, m, A.dim))
    laws = [_derivation_law(inner), _derivation_law(drawn[2])]
    got = law_witnesses(A, A, laws)
    assert got == _cycnum_law_witnesses(A, A, laws)
    if A._associativity_witness() is None:
        assert got[0] is None


GENERIC_PAIRS = [
    ("ss_pair_alpha_1", "ss_pair_alpha_neg1"),
    ("ss_pair_alpha_1", "ss_pair_alpha_2"),
    ("ss_pair2_diag_1", "ss_pair2_diag_neg1"),
    ("sweedler2dim", "sweedler2dim"),
    ("ss_mat2_trivial", ("ss_mat2_trivial", "rational")),
    ("sweedler2dim", ("sweedler2dim", "rational")),
]


def _pair(a, b):
    return _corpus()[a], _dense_copy(*b) if isinstance(b, tuple) else _corpus()[b]


@pytest.mark.parametrize("a,b", GENERIC_PAIRS)
def test_generic_isomorphism_search_matches_the_pair_loop(monkeypatch, a, b):
    mod1, mod2 = _pair(a, b)
    got = hma_isomorphic_generic(mod1, mod2)
    if got is not None:
        assert _cycnum_verify_module_iso(mod1, mod2, got) is None
    monkeypatch.setattr(hmodule, "law_witnesses", _cycnum_law_witnesses)
    assert got == hma_isomorphic_generic(mod1, mod2)


def _seeded_isomorphic_generic(mod1, mod2, budget=64):
    """hma_isomorphic_generic as it drew its candidates before the fixed
    grid: the identity when equivariant, the basis of the intertwiner space,
    its prefix sums (the first of them the first basis element again), then
    random.Random(0) combinations with coefficients in -3..3, at most
    budget + 2 dim(space) candidates in all."""
    A1, A2 = mod1.algebra, mod2.algebra
    if A1.dim != A2.dim:
        return None
    m, n = mod1.m, A1.dim
    one = CycNum.one(m)
    space = intertwiner_space(m, n, n, [(mod1.c_op, mod2.c_op, one),
                                        (mod1.v_op, mod2.v_op, one)])
    if not space:
        return None

    def candidates():
        if mod1.c_op == mod2.c_op and mod1.v_op == mod2.v_op:
            yield Matrix.identity(m, n)
        yield from space
        acc = None
        for b in space:
            acc = b if acc is None else acc + b
            yield acc
        rng = random.Random(0)
        for _ in range(budget):
            coeffs = [rng.randint(-3, 3) for _ in space]
            if any(coeffs):
                yield combination(coeffs, space)

    for tried, T in enumerate(candidates(), 1):
        if tried > budget + 2 * len(space):
            break
        T = hmodule._scale_to_unit(mod1, mod2, T)
        if T is None or rank(T) != n:
            continue
        if _map_witness(A1, A2, T) is None:
            return T
    return None


# the two pairs of the benchmark's iso jobs, the pairs above, and each
# corpus module of dim <= 4 with its dense copy (every intertwiner space of
# dim <= 2 among the dense copies is one of these)
SEEDED_PAIRS = ([("ss_pair2_diag_1", "ss_pair2_diag_neg1"),
                 ("ss_pair2_diag_1", "ss_pair2_diag_2")] + GENERIC_PAIRS
                + [(name, (name, kind)) for name, kind in DENSE_COPIES
                   if _corpus()[name].algebra.dim <= 4])


@pytest.mark.parametrize("a,b", SEEDED_PAIRS)
def test_generic_isomorphism_search_matches_the_seeded_search(a, b):
    mod1, mod2 = _pair(a, b)
    assert hma_isomorphic_generic(mod1, mod2) == \
        _seeded_isomorphic_generic(mod1, mod2)


GRID_VALUES = (0, 1, -1, 2, -2, 3, -3)


def _intertwiners(mod1, mod2):
    one = CycNum.one(mod1.m)
    n = mod1.algebra.dim
    return intertwiner_space(mod1.m, n, n, [(mod1.c_op, mod2.c_op, one),
                                            (mod1.v_op, mod2.v_op, one)])


def _unscreened_isomorphic_generic(mod1, mod2, budget=64):
    """hma_isomorphic_generic before the mod-p screen: the identity when
    equivariant, then the small_coefficients grid, each candidate built
    over Q(zeta_m), rescaled to the unit and decided exactly, at most
    budget + 2 dim(space) candidates in all."""
    A1, A2 = mod1.algebra, mod2.algebra
    if A1.dim != A2.dim:
        return None
    m, n = mod1.m, A1.dim
    space = _intertwiners(mod1, mod2)
    if not space:
        return None
    grid = small_coefficients(len(space), GRID_VALUES)
    candidates = (combination(coeffs, space) for coeffs in grid)
    if mod1.c_op == mod2.c_op and mod1.v_op == mod2.v_op:
        candidates = itertools.chain([Matrix.identity(m, n)], candidates)
    for T in itertools.islice(candidates, budget + 2 * len(space)):
        T = hmodule._scale_to_unit(mod1, mod2, T)
        if T is None or rank(T) != n:
            continue
        if law_witnesses(A1, A2, [(T, [(T, T)])]) == [None]:
            return T
    return None


def _same_shape_pairs():
    corpus = _corpus()
    names = sorted(name for name, mod in corpus.items() if mod.algebra.dim <= 9)
    shape = {name: (corpus[name].m, corpus[name].algebra.dim) for name in names}
    return [(a, b) for a in names for b in names if shape[a] == shape[b]]


# every ordered corpus pair of one conductor and dim <= 9, and each corpus
# module against its dense copies
SCREEN_PAIRS = _same_shape_pairs() + [(name, (name, kind))
                                      for name, kind in DENSE_COPIES]


@pytest.mark.parametrize("a,b", SCREEN_PAIRS)
def test_screened_search_matches_the_unscreened_loop(a, b):
    mod1, mod2 = _pair(a, b)
    for budget in (0, 1, 3, 64):
        assert hma_isomorphic_generic(mod1, mod2, budget=budget) == \
            _unscreened_isomorphic_generic(mod1, mod2, budget=budget)


# the benchmark's two iso pairs and three dense pairs over Q, Q(zeta_4) and
# Q with a survivor that is the witness
SOUNDNESS_PAIRS = [("ss_pair2_diag_1", "ss_pair2_diag_neg1"),
                   ("ss_pair2_diag_1", "ss_pair2_diag_2"),
                   ("ss_mat2_trivial", ("ss_mat2_trivial", "rational")),
                   ("ss_grid_m4_k2_t2", ("ss_grid_m4_k2_t2", "cyclotomic")),
                   ("ss_grid_m2_k2_t1", ("ss_grid_m2_k2_t1", "rational"))]


@pytest.mark.parametrize("a,b", SOUNDNESS_PAIRS)
def test_screen_drops_only_candidates_that_fail_exactly(a, b):
    mod1, mod2 = _pair(a, b)
    A1, A2 = mod1.algebra, mod2.algebra
    space = _intertwiners(mod1, mod2)
    keep = hmodule._algebra_map_screen(mod1, mod2, space)
    assert keep is not None
    grid = list(itertools.islice(small_coefficients(len(space), GRID_VALUES),
                                 64 + 2 * len(space)))
    dropped = [coeffs for coeffs, ok in zip(grid, keep(grid)) if not ok]
    assert dropped
    for coeffs in dropped:
        T = hmodule._scale_to_unit(mod1, mod2, combination(coeffs, space))
        assert T is None or law_witnesses(A1, A2, [(T, [(T, T)])]) != [None]


# a witness in the identity, before any screen, and one after it
@pytest.mark.parametrize("a,b", [("ss_grid_m2_k2_t2", "ss_pair2_diag_1"),
                                 ("ss_pair_alpha_0", ("ss_pair_alpha_0",
                                                      "rational"))])
def test_a_huge_budget_with_an_early_witness_returns_at_once(a, b):
    mod1, mod2 = _pair(a, b)
    expect = hma_isomorphic_generic(mod1, mod2, budget=64)
    assert expect is not None
    tracemalloc.start()
    try:
        got = hma_isomorphic_generic(mod1, mod2, budget=10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    assert peak < 5 << 20


def _refuse_reduction(*args):
    raise ModReductionError("forced")


# the prime 2^61 - 1, with zeta = -1 for m = 2: p^2 alone passes 2^63
_HUGE_PRIME = [(2 ** 61 - 1, 2 ** 61 - 2)]


@pytest.mark.parametrize("a,b", [("ss_pair2_diag_1", "ss_pair2_diag_neg1"),
                                 ("ss_pair_alpha_1", "ss_pair_alpha_neg1"),
                                 ("ss_pair_alpha_0", ("ss_pair_alpha_0",
                                                      "rational"))])
@pytest.mark.parametrize("name,value", [
    ("_table_modp", _refuse_reduction),
    ("reduction_primes", lambda m: iter(_HUGE_PRIME))])
def test_unbuilt_screen_decides_every_candidate_exactly(monkeypatch, a, b,
                                                        name, value):
    mod1, mod2 = _pair(a, b)
    expect = hma_isomorphic_generic(mod1, mod2)
    monkeypatch.setattr(hmodule, name, value)
    assert hmodule._algebra_map_screen(
        mod1, mod2, _intertwiners(mod1, mod2)) is None
    assert hma_isomorphic_generic(mod1, mod2) == expect
    for budget in (0, 3):
        assert hma_isomorphic_generic(mod1, mod2, budget=budget) == \
            _unscreened_isomorphic_generic(mod1, mod2, budget=budget)


# -- recover: the q-binomial product law -----------------------------------------


def _qbinom_law_failures(A, phi, hom):
    """Every layer pair (p, l) where phi^p(a) phi^l(b) =
    binom(p+l, p)_zeta zeta^(l deg a) phi^(p+l)(ab) fails for homogeneous
    basis vectors a, b of ker v, as recover_structure checked it before it
    verified the rebuilt isomorphism instead."""
    m, n = phi.m, A.dim
    qtable = QBinomTable.build(zeta_power(m, 1), bound=2 * m)
    zero_vec = tuple(CycNum.zero(m) for _ in range(n))
    phi_pows = [Matrix.identity(m, n)]
    for _ in range(m):
        phi_pows.append(phi @ phi_pows[-1])
    out = []
    for p in range(m):
        for l in range(m):
            ok = True
            for deg_a, avec in hom:
                pa = phi_pows[p].apply(avec)
                for _, bvec in hom:
                    lhs = A.multiply(pa, phi_pows[l].apply(bvec))
                    if p + l >= m:
                        rhs = zero_vec
                    else:
                        coeff = qtable.value(p + l, p) * zeta_power(m, l * deg_a)
                        rhs = tuple(coeff * x for x in
                                    phi_pows[p + l].apply(A.multiply(avec, bvec)))
                    ok = ok and lhs == rhs
            if not ok:
                out.append((p, l))
    return out


@cache
def _recovered():
    out = {}
    for name, spec in sorted(nilext_specs().items()):
        mod = build_nilpotent_extension(spec).module
        rec = recover_structure(mod)
        m, n, d = mod.m, mod.algebra.dim, rec.b_space.dim
        hom = [(deg, tuple(sum((coords[j] * rec.b_space.basis[j][i]
                                for j in range(d)), CycNum.zero(m))
                           for i in range(n)))
               for deg, coords in rec.b_grading.degree_of_basis()]
        out[name] = (mod, rec, hom)
    return out


def _iso_from(phi, hom):
    m, n = phi.m, phi.nrows
    cols, power = [], Matrix.identity(m, n)
    for _ in range(m):
        cols.extend(power.apply(vec) for _, vec in hom)
        power = phi @ power
    return Matrix(m, tuple(tuple(col[i] for col in cols) for i in range(n)))


def _assert_qbinom_matches(rebuilt, A, phi, hom):
    expect = _qbinom_law_failures(A, phi, hom)
    got = _map_witness(rebuilt, A, _iso_from(phi, hom))
    assert (got is None) == (not expect)
    if got is not None:
        d = len(hom)
        # the first failing pair lies in a failing layer pair with the
        # smallest first layer
        assert (got[0] // d, got[1] // d) in expect
        assert got[0] // d == expect[0][0]


@pytest.mark.parametrize("name", sorted(nilext_specs()))
def test_recovered_isomorphism_matches_the_qbinom_loop(name):
    mod, rec, hom = _recovered()[name]
    assert _iso_from(rec.phi, hom) == rec.iso
    _assert_qbinom_matches(rec.rebuilt.module.algebra, mod.algebra, rec.phi, hom)


@given(st.sampled_from(sorted(nilext_specs())), st.data())
@settings(max_examples=60, deadline=None)
def test_perturbed_recovery_inputs_match_the_qbinom_loop(name, data):
    mod, rec, hom = _recovered()[name]
    m, n = mod.m, mod.algebra.dim
    delta = data.draw(st.sampled_from([1, -1, CycNum.rational(m, "1/2")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    i, j, a = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    A, phi, rebuilt = mod.algebra, rec.phi, rec.rebuilt.module.algebra
    if data.draw(st.booleans()):
        rows = [list(r) for r in phi.rows]
        rows[i][j] = rows[i][j] + delta
        phi = Matrix(m, tuple(map(tuple, rows)))
    else:
        table = [list(map(list, row)) for row in A.mult]
        table[i][j][a] = table[i][j][a] + delta
        A = FinDimAlgebra(m, tuple(tuple(map(tuple, row)) for row in table),
                          validate=False, autodetect_unit=False)
        # B, its grading and the rebuilt extension come from the input table,
        # as in recover_structure; inputs they reject never reach the law
        try:
            b_alg = subalgebra_on(A, rec.b_space)
            if rec.b_grading.verify_multiplication(b_alg) is not None:
                return
            spec = NilpotentExtensionSpec(m=m, B=b_alg, grading=rec.b_grading)
            rebuilt = build_nilpotent_extension(spec).module.algebra
        except InputError:
            return
    _assert_qbinom_matches(rebuilt, A, phi, hom)


# -- the two routes of the law checks: join and coefficient planes -------------


def _dense_entries(m):
    deg = len(zeta_power(m, 0).num)
    dense = st.tuples(st.lists(st.integers(-3, 3), min_size=deg, max_size=deg),
                      st.integers(1, 4)).map(
        lambda p: CycNum.make(m, [Fraction(c, p[1]) for c in p[0]]))
    power = st.integers(0, m - 1).map(lambda e: zeta_power(m, e))
    return st.one_of(power, power.map(lambda x: -x), dense)


@st.composite
def _route_inputs(draw):
    """(m, src, dst, laws): random dense or sparse tables of dims 1-5 and
    laws of every shape law_witnesses takes, over random maps."""
    m = draw(st.sampled_from([2, 3, 4, 5, 6]))

    def table(n):
        entry = draw(st.sampled_from([_entries, _dense_entries]))(m)
        cell = st.lists(entry, min_size=n, max_size=n).map(tuple)
        return FinDimAlgebra(m, tuple(tuple(draw(cell) for _ in range(n))
                                      for _ in range(n)),
                             validate=False, autodetect_unit=False)

    def square(rows, cols):
        entry = draw(st.sampled_from([_entries, _dense_entries]))(m)
        return Matrix(m, tuple(tuple(draw(entry) for _ in range(cols))
                               for _ in range(rows)))

    src = table(draw(st.integers(1, 5)))
    n = src.dim
    one = Matrix.identity(m, n)
    c, v = square(n, n), square(n, n)
    laws = [(c, [(c, c)]), (v, [(c, v), (v, one)]),
            _derivation_law(square(n, n))]
    dst = src
    if draw(st.booleans()):
        dst = table(draw(st.integers(1, 5)))
        T = square(dst.dim, n)
        laws = [(T, [(T, T)])]
    return m, src, dst, laws


def _on_planes(decide):
    """[decide()] with every law check sent to the planes, or None when a
    guard refuses them and the join decides."""
    done = []

    def spy(*args, real=algebra_core._laws_on_planes):
        done.append(real(*args))
        return done[-1]

    with pytest.MonkeyPatch.context() as patch:
        _route(patch, True)
        patch.setattr(algebra_core, "_laws_on_planes", spy)
        got = decide()
    return [got] if done and done[-1] is not None else None


def _plane_witness(alg):
    """[alg's first failing triple] decided on planes, or None when a guard
    refuses them."""
    return _on_planes(alg._associativity_witness)


def _plane_laws(src, dst, laws):
    """law_witnesses decided on planes, or None when a guard refuses them."""
    got = _on_planes(lambda: law_witnesses(src, dst, laws))
    return None if got is None else got[0]


def _join_witness(alg):
    """alg's first failing triple decided by the join."""
    with pytest.MonkeyPatch.context() as patch:
        _route(patch, False)
        return alg._associativity_witness()


def _identity_without_product(src, dst, laws):
    """_laws_on_planes on the laws with every identity U given as None, the
    form associativity uses, so that its terms take no product."""
    maps = algebra_core._distinct_maps(laws)
    at = {key: k for k, key in enumerate(maps)}
    one = Matrix.identity(src.m, src.dim)

    def key(u):
        return None if src.dim == dst.dim and u == one else at[id(u)]

    return algebra_core._laws_on_planes(
        src.m, *algebra_core._map_planes(src, dst, maps),
        [(at[id(t)], [(at[id(s)], key(u)) for s, u in terms])
         for t, terms in laws])


def _law_routes(src, dst, laws):
    """[law_witnesses by the join, the same on planes, never refused]."""
    with pytest.MonkeyPatch.context() as patch:
        _route(patch, False)
        join = law_witnesses(src, dst, laws)
    return [join, _plane_laws(src, dst, laws)]


@given(_route_inputs())
@settings(max_examples=150, deadline=None)
def test_both_routes_give_the_oracles_witnesses(drawn):
    m, src, dst, laws = drawn
    for alg in {id(x): x for x in (src, dst)}.values():
        expect = _cycnum_first_failure(alg)
        assert _join_witness(alg) == expect
        assert _plane_witness(alg) == [expect]
    expect = _cycnum_law_witnesses(src, dst, laws)
    assert _law_routes(src, dst, laws) == [expect] * 2
    assert _identity_without_product(src, dst, laws) == expect


def _copy(alg):
    """A fresh algebra on alg's cells, with no entries built yet."""
    return FinDimAlgebra(alg.m, alg.mult, validate=False, autodetect_unit=False)


@given(_route_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_the_join_on_python_ints_gives_the_int64_witnesses(drawn, data):
    m, src, dst, laws = drawn
    unit = tuple(data.draw(_entries(m)) for _ in range(src.dim))

    def witnesses(a, b):
        with pytest.MonkeyPatch.context() as patch:
            _route(patch, False)
            return ([x._associativity_witness() for x in (a, b)],
                    a._unit_witness(unit), law_witnesses(a, b, laws))

    small = witnesses(src, dst)
    assert all(x.dtype == np.int64 for alg in (src, dst)
               for x in alg._entries()[2:])
    with pytest.MonkeyPatch.context() as patch:
        # every nonzero coefficient counts as past 2^62
        patch.setattr(linalg, "_INT_LIMIT", 1)
        a = _copy(src)
        b = a if dst is src else _copy(dst)
        assert witnesses(a, b) == small
        assert all(x.dtype == object for alg in (a, b)
                   for x in alg._entries()[2:] if len(x))


# the benchmark's seed-1 dense copies of dim 4 and 8
SEED_COPIES = [("dense", (name, "seed 1")) for name in (
    "ss_mat2_trivial", "ss_sweedler_p_gamma3", "ext_base_mat2_elem_m2",
    "ss_grid_m4_k2_t2")]


@given(st.sampled_from(SOURCES + SEED_COPIES), st.data())
@settings(max_examples=60, deadline=None)
def test_both_routes_give_the_oracles_witnesses_on_perturbed_copies(source,
                                                                   data):
    mod = _source(*source)
    alg, m, n = mod.algebra, mod.m, mod.algebra.dim
    delta = data.draw(st.sampled_from([1, -1, CycNum.rational(m, "1/2")])) * \
        zeta_power(m, data.draw(st.integers(0, m - 1)))
    i, j, a = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if data.draw(st.booleans()):
        table = [list(map(list, row)) for row in alg.mult]
        table[i][j][a] = table[i][j][a] + delta
        alg = FinDimAlgebra(m, tuple(tuple(map(tuple, row)) for row in table),
                            validate=False, autodetect_unit=False)
    else:
        mod = _perturbed(mod, data.draw(st.sampled_from("cv")), i, a, delta)
    expect = _cycnum_first_failure(alg)
    assert _join_witness(alg) == expect
    assert _plane_witness(alg) == [expect]
    c, v = mod.c_op, mod.v_op
    laws = [(c, [(c, c)]), (v, [(c, v), (v, Matrix.identity(m, n))])]
    assert _law_routes(alg, alg, laws) == [_cycnum_law_witnesses(alg, alg,
                                                                 laws)] * 2


def _huge_m2(k, bump):
    """M_2 over Q in the basis f_01 = 2^k E_01, so that f_01 f_10 = 2^k f_00,
    with bump added to the e_1-coefficient of f_00 f_01 (a failing triple
    when nonzero)."""
    big = CycNum.rational(2, 2 ** k)
    one = CycNum.one(2)
    rows = [list(map(list, row)) for row in _scaled_m2(2, ((one, big),
                                                            (one, one)))]
    rows[0][1][1] = rows[0][1][1] + bump
    return tuple(tuple(map(tuple, row)) for row in rows)


@pytest.mark.parametrize("k", [26, 27, 30])
@pytest.mark.parametrize("bump", [0, 1])
def test_plane_products_past_2_to_the_53_stay_exact(k, bump):
    # a product of two constants reaches 2^(2k) >= 2^52: the sums run in
    # float64 chunks of one term, or in int64 once a term passes 2^53
    alg = FinDimAlgebra(2, _huge_m2(k, bump), validate=False,
                        autodetect_unit=False)
    expect = _cycnum_first_failure(alg)
    assert (expect is None) == (bump == 0)
    assert _plane_witness(alg) == [expect]


def _spy_sums(monkeypatch):
    """The dtypes of the sums the join forms, in call order."""
    kinds = []

    def spy(m, pieces, real=algebra_core._sum):
        got = real(m, pieces)
        kinds.append(got[1].dtype)
        return got

    monkeypatch.setattr(algebra_core, "_sum", spy)
    monkeypatch.setattr(hmodule, "_sum", spy)
    return kinds


@pytest.mark.parametrize("bump", [0, 1])
def test_a_refused_plane_product_is_decided_by_the_join(monkeypatch, bump):
    # 4 terms of 2^31 * 2^31 pass 2^63: the product's guard refuses, and
    # the join sums them as Python ints
    table = _huge_m2(31, bump)
    alg = FinDimAlgebra(2, table, validate=False, autodetect_unit=False)
    assert _plane_witness(alg) is None
    _route(monkeypatch, True)
    kinds = _spy_sums(monkeypatch)
    assert (_assert_associativity_matches(2, table) is None) == (bump == 0)
    assert object in kinds
    # T = 2^40 times the identity: T(e_i) T(e_j) reaches 2^80
    T = Matrix.identity(2, 4) * CycNum.rational(2, 2 ** 40)
    laws = [(T, [(T, T)])]
    assert _plane_laws(alg, alg, laws) is None
    kinds.clear()
    assert law_witnesses(alg, alg, laws) == \
        _cycnum_law_witnesses(alg, alg, laws) != [None]
    assert object in kinds
    # a claimed unit with an entry of 2^40 meets the entry 2^31
    one, zero = CycNum.one(2), CycNum.zero(2)
    for unit in ((one, CycNum.rational(2, 2 ** 40), zero, one),
                 (one, zero, CycNum.rational(2, 2 ** 40), one)):
        kinds.clear()
        assert _assert_unit_matches(2, table, unit) is not None
        assert object in kinds


@pytest.mark.parametrize("value,python", [
    (2 ** 62 - 1, False), (-(2 ** 62) + 1, False), (2 ** 62, True),
    (-(2 ** 62), True), (-(2 ** 63), True), (2 ** 80, True)])
def test_entries_hold_python_ints_from_2_to_the_62(value, python):
    # -2^63 fits an int64, but its size does not fit the bound
    _, _, x = algebra_core._numerators(2, [(0, CycNum.one(2)),
                                           (1, CycNum.rational(2, value))])
    assert (x.dtype == object) == python
    assert x[:, 0].tolist() == [1, value]


@pytest.mark.parametrize("name", ["sweedler2dim", "ss_grid_m3_k1_t3",
                                  "ss_grid_m4_k2_t2"])
@pytest.mark.parametrize("entry", [2 ** 62 - 1, -(2 ** 62) + 3])
def test_operator_relations_past_2_to_the_63_match_the_oracle(monkeypatch,
                                                              name, entry):
    # c with one entry near 2^62: the entries stay int64, and C^m passes
    # 2^63, so the powers are summed as Python ints
    mod = _perturbed(_corpus()[name], "c", 0, 0, entry)
    kinds = _spy_sums(monkeypatch)
    got = dict((name, ok) for name, ok in hmodule._operator_relations(mod))
    assert object in kinds
    want = {name: ok for name, ok, _ in _cycnum_hma_verify(mod).checks}
    assert got == {key: want[key] for key in got}
    assert not got["c_order"]
    assert _assert_report_matches(mod).failed()


def _spy_routes(monkeypatch):
    """The number of laws of each check that the plane route decides, and
    the number of checks the join decides, in call order: associativity
    passes one law per basis vector, a module's c and v laws are two."""
    calls = []

    def spy(m, src, dst, maps, laws, real=algebra_core._laws_on_planes):
        got = real(m, src, dst, maps, laws)
        if got is not None:
            calls.append(len(laws))
        return got

    def joined(real):
        def prepare(*args):
            pairs, decide = real(*args)

            def counted():
                calls.append("join")
                return decide()

            return pairs, counted

        return prepare

    monkeypatch.setattr(algebra_core, "_laws_on_planes", spy)
    for name in ("_associativity_join", "_law_join"):
        monkeypatch.setattr(algebra_core, name,
                            joined(getattr(algebra_core, name)))
    return calls


DENSE_DIM_8 = [(name, kind) for name, kind in DENSE_COPIES
               if _corpus()[name].algebra.dim == 8]


@pytest.mark.parametrize("name,kind", DENSE_DIM_8)
def test_dense_dim_8_copies_take_the_planes(monkeypatch, name, kind):
    mod = _dense_copy(name, kind)
    calls = _spy_routes(monkeypatch)
    FinDimAlgebra(mod.m, mod.algebra.mult, unit=mod.algebra.unit)
    assert hma_verify(mod).ok
    assert calls == [mod.algebra.dim, 2]


def test_sparse_dim_36_tables_take_the_join(monkeypatch):
    mod = build_semisimple(grid_spec(4, 3, 4))
    calls = _spy_routes(monkeypatch)
    FinDimAlgebra(mod.m, mod.algebra.mult, unit=mod.algebra.unit)
    assert hma_verify(mod).ok
    assert _product_table(TaftAlgebra(6))._associativity_witness() is None
    assert calls == ["join"] * 3


@given(_route_inputs(), st.sampled_from([1, 3, 40]))
@settings(max_examples=60, deadline=None)
def test_the_join_in_small_blocks_gives_the_oracles_witnesses(drawn, budget):
    # blocks of at most `budget` pairs, or of one basis index each
    m, src, dst, laws = drawn
    with pytest.MonkeyPatch.context() as patch:
        _route(patch, False)
        patch.setattr(algebra_core, "_BLOCK_ENTRIES", budget)
        assert _copy(src)._associativity_witness() == _cycnum_first_failure(src)
        assert law_witnesses(src, dst, laws) == \
            _cycnum_law_witnesses(src, dst, laws)


@cache
def _large_sparse(name):
    """The dim-27 and dim-36 constructed modules, and the m = 8 Taft
    table (dim 64) with its unit e_(0,0)."""
    if name == "taft_8":
        table = _product_table(TaftAlgebra(8))
        return None, table, table.basis_vector(0)
    m, k, t = (int(x[1:]) for x in name.split("_")[1:])
    mod = build_semisimple(grid_spec(m, k, t))
    return mod, mod.algebra, mod.algebra.unit


@given(st.sampled_from(["grid_m3_k3_t3", "grid_m4_k3_t4", "taft_8"]),
       st.data())
@settings(max_examples=24, deadline=None)
def test_perturbed_large_sparse_tables_match_the_oracles(name, data):
    # keys reach n^4 = 1.7e7 at dim 64; one structure constant, or one c or
    # v entry, moved by 1, -1 or zeta
    mod, alg, unit = _large_sparse(name)
    m, n = alg.m, alg.dim
    delta = data.draw(st.sampled_from([1, -1, zeta_power(m, 1)]))
    which = "t" if mod is None else data.draw(st.sampled_from("tcv"))
    if which == "t":
        # an existing constant, or any cell
        keys = alg._entries()[1].tolist()
        key = data.draw(st.one_of(st.sampled_from(keys),
                                  st.integers(0, n ** 3 - 1)))
        i, j, a = key // (n * n), key // n % n, key % n
        table = [list(row) for row in alg.mult]
        cell = list(table[i][j])
        cell[a] = cell[a] + delta
        table[i][j] = tuple(cell)
        alg = FinDimAlgebra(m, tuple(map(tuple, table)), validate=False,
                            autodetect_unit=False)
    else:
        b, a = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        mod = _perturbed(mod, which, b, a, delta)
    assert alg._associativity_witness() == _cycnum_first_failure(alg)
    assert alg._unit_witness(unit) == _cycnum_unit_failure(alg, unit)
    if mod is not None:
        c, v = mod.c_op, mod.v_op
        laws = [(c, [(c, c)]), (v, [(c, v), (v, Matrix.identity(m, n))])]
        assert law_witnesses(alg, alg, laws) == \
            _cycnum_law_witnesses(alg, alg, laws)
        if which != "t":
            got = dict((name, ok) for name, ok in
                       hmodule._operator_relations(mod))
            assert got["c_order"] == (mod.c_op ** m == Matrix.identity(m, n))
            assert got["v_nilpotent"] == (mod.v_op ** m).is_zero()
            assert got["vc_commutation"] == (
                mod.v_op @ mod.c_op == (mod.c_op @ mod.v_op) * zeta_power(m, 1))


@pytest.mark.parametrize("name,kind", [("ss_grid_m4_k2_t2", None),
                                       ("ss_grid_m4_k2_t2", "cyclotomic"),
                                       ("ext_base_mat2_elem_m2", "rational")])
def test_a_self_comparison_returns_the_identity_before_the_intertwiners(
        monkeypatch, name, kind):
    mod = _corpus()[name] if kind is None else _dense_copy(name, kind)

    def unsolved(*args):
        raise AssertionError("intertwiner_space called")

    monkeypatch.setattr(hmodule, "intertwiner_space", unsolved)
    got = hma_isomorphic_generic(mod, mod)
    assert got == Matrix.identity(mod.m, mod.algebra.dim)
