"""Multilinear polynomials with Hopf labels: evaluation, alternation,
codimension ranks."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taftlab.algebra_core import FinDimAlgebra, field_algebra, matrix_algebra
from taftlab.constructions import build_semisimple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import BudgetExceeded, InputError
from taftlab.fixtures import (negative_modules, positive_modules, ss_specs,
                              sweedler_two_dim, trivial_action)
from taftlab.hmodule import HModuleAlgebra
from taftlab.identities import (
    CodimResult,
    HMonomial,
    MultilinearHPoly,
    alternate,
    codim_growth_report,
    codimension,
    evaluate,
    perm_sign,
)
from taftlab.linalg import Matrix, echelon
from test_linalg import gauss_det


def test_perm_sign_basics():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((3, 2, 1)) == -1


def test_monomial_validation():
    with pytest.raises(InputError, match="not a permutation"):
        HMonomial(n=2, sigma=(1, 1), hcoeffs=((0, 0), (0, 0)))
    with pytest.raises(InputError, match="needs 2 positions"):
        HMonomial(n=2, sigma=(1, 2), hcoeffs=((0, 0),))
    with pytest.raises(InputError, match="nonnegative"):
        HMonomial(n=1, sigma=(1,), hcoeffs=((-1, 0),))


def test_poly_normalization():
    mono = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 0),))
    one = CycNum.one(2)
    p = MultilinearHPoly.from_terms(1, [(mono, one), (mono, one)])
    assert len(p.terms) == 1
    assert p.terms[0][1] == one + one
    cancel = p + p.scale(CycNum.rational(2, -1))
    assert cancel.is_zero()
    with pytest.raises(InputError, match="degree"):
        MultilinearHPoly.single(HMonomial(n=2, sigma=(1, 2),
                                          hcoeffs=((0, 0), (0, 0))),
                                one) + MultilinearHPoly.single(mono, one)


def test_evaluate_plain_product():
    # x1 x2 with no Hopf labels is just multiplication
    a = matrix_algebra(2, 2)
    mod = trivial_action(a)
    mono = HMonomial(n=2, sigma=(1, 2), hcoeffs=((0, 0), (0, 0)))
    p = MultilinearHPoly.single(mono, CycNum.one(2))
    e12, e21 = a.basis_vector(1), a.basis_vector(2)
    assert evaluate(p, mod, [e12, e21]) == a.multiply(e12, e21)
    # reversed variable order evaluates the product the other way round
    rev = HMonomial(n=2, sigma=(2, 1), hcoeffs=((0, 0), (0, 0)))
    q = MultilinearHPoly.single(rev, CycNum.one(2))
    assert evaluate(q, mod, [e12, e21]) == a.multiply(e21, e12)


def test_evaluate_applies_hopf_labels():
    mod = sweedler_two_dim()
    w = mod.algebra.basis_vector(1)
    unit = mod.algebra.basis_vector(0)
    # v . w = 1, so the labeled variable turns w into the unit
    mono = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 1),))
    p = MultilinearHPoly.single(mono, CycNum.one(2))
    assert evaluate(p, mod, [w]) == unit
    # c . w = -w
    cmono = HMonomial(n=1, sigma=(1,), hcoeffs=((1, 0),))
    img = evaluate(MultilinearHPoly.single(cmono, CycNum.one(2)), mod, [w])
    assert img == tuple(CycNum.zero(2) - x for x in w)


def test_evaluate_is_linear_in_terms():
    mod = sweedler_two_dim()
    w = mod.algebra.basis_vector(1)
    m1 = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 1),))
    m2 = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 0),))
    p = MultilinearHPoly.from_terms(1, [
        (m1, CycNum.rational(2, 2)),
        (m2, CycNum.rational(2, -1)),
    ])
    img = evaluate(p, mod, [w])
    two_units = tuple(CycNum.rational(2, 2) * x
                      for x in mod.algebra.basis_vector(0))
    assert img == tuple(a - b for a, b in zip(two_units, w))


def test_evaluate_argument_checks():
    mod = sweedler_two_dim()
    mono = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 0),))
    p = MultilinearHPoly.single(mono, CycNum.one(2))
    with pytest.raises(InputError, match="got 2 arguments"):
        evaluate(p, mod, [mod.algebra.unit, mod.algebra.unit])
    with pytest.raises(InputError, match="out of range"):
        big = HMonomial(n=1, sigma=(1,), hcoeffs=((0, 2),))
        evaluate(MultilinearHPoly.single(big, CycNum.one(2)), mod, [mod.algebra.unit])


def test_alternate_antisymmetry_and_idempotence():
    base = HMonomial(n=2, sigma=(1, 2), hcoeffs=((0, 0), (0, 1)))
    p = MultilinearHPoly.single(base, CycNum.one(2))
    alt = alternate(p, {1, 2})
    mod = sweedler_two_dim()
    w = mod.algebra.basis_vector(1)
    # repeated arguments in alternated slots give zero
    assert all(x.is_zero() for x in evaluate(alt, mod, [w, w]))
    # alternating twice multiplies by |set|!
    twice = alternate(alt, {1, 2})
    assert twice + alt.scale(CycNum.rational(2, -2)) == \
        MultilinearHPoly.from_terms(2, [])
    with pytest.raises(InputError, match="outside"):
        alternate(p, {1, 3})


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=15, deadline=None)
def test_alternate_vanishes_on_equal_arguments(a0, a1):
    mod = sweedler_two_dim()
    arg = (CycNum.rational(2, a0), CycNum.rational(2, a1))
    base = HMonomial(n=2, sigma=(1, 2), hcoeffs=((1, 0), (0, 1)))
    alt = alternate(MultilinearHPoly.single(base, CycNum.one(2)), {1, 2})
    assert all(x.is_zero() for x in evaluate(alt, mod, [arg, arg]))


def test_codim_result_bound_enforced():
    with pytest.raises(InputError, match="exceeds the matrix shape"):
        CodimResult(n=1, value=9, matrix_shape=(4, 8), method="x", wall_ms=0.0)


def test_codimension_trivial_field_action():
    mod = trivial_action(field_algebra(2))
    for n in (1, 2, 3):
        res = codimension(mod, n)
        assert res.value == 1
        assert res.matrix_shape[0] == math.factorial(n) * 4 ** n
        assert res.matrix_shape[1] == 1 ** (n + 1)


def test_codimension_sweedler_values():
    mod = sweedler_two_dim()
    for n, expect in ((1, 3), (2, 7), (3, 15)):
        res = codimension(mod, n)
        assert res.value == expect, n
        assert res.matrix_shape == (math.factorial(n) * 4 ** n, 2 ** (n + 1))


def test_codimension_backends_agree():
    mod = sweedler_two_dim()
    for n in (1, 2):
        auto = codimension(mod, n, backend="auto")
        exact = codimension(mod, n, backend="exact")
        assert auto.value == exact.value
        assert exact.method == "exact-echelon"


def test_codimension_budget():
    mod = sweedler_two_dim()
    with pytest.raises(BudgetExceeded, match="budget"):
        codimension(mod, 3, budget_rows=100)
    # explicit larger budget unlocks the same computation
    assert codimension(mod, 3, budget_rows=10 ** 6).value == 15


def test_codimension_input_checks():
    mod = sweedler_two_dim()
    with pytest.raises(InputError, match="positive"):
        codimension(mod, 0)
    with pytest.raises(InputError, match="backend"):
        codimension(mod, 1, backend="sketchy")


def test_growth_report_rows():
    mod = sweedler_two_dim()
    rows = codim_growth_report(mod, 3)
    assert [r.n for r in rows] == [1, 2, 3]
    assert [r.value for r in rows] == [3, 7, 15]
    assert all(r.bound_ok for r in rows)
    # c_n = 2^{n+1} - 1, so the n-th roots decrease toward dim A = 2
    assert rows[0].nth_root > rows[1].nth_root > rows[2].nth_root > 2.0


def _small_corpus():
    """The dim-2 and dim-4 corpus modules, each with the highest degree the
    growth comparison takes."""
    mods = {**positive_modules(), **negative_modules()}
    return {name: (mod, 4 if mod.algebra.dim == 2 and mod.m < 4
                   else 2 if mod.m == 4 else 3)
            for name, mod in mods.items() if mod.algebra.dim in (2, 4)}


@pytest.mark.parametrize("name", sorted(_small_corpus()))
def test_growth_report_matches_codimension_per_degree(name):
    # the report builds W_1..W_n once; each row is what codimension gives
    mod, n_max = _small_corpus()[name]
    budget = 10 ** 7
    report = codim_growth_report(mod, n_max, budget_rows=budget)
    assert [r.n for r in report] == list(range(1, n_max + 1))
    for row in report:
        res = codimension(mod, row.n, budget_rows=budget)
        assert (row.value, (row.rows, row.cols)) == (res.value,
                                                    res.matrix_shape)
        assert row.bound_ok == (res.value <= mod.algebra.dim ** (row.n + 1))
        assert row.nth_root == res.value ** (1.0 / row.n)


def test_growth_report_backends_and_budget():
    mod = sweedler_two_dim()
    exact = codim_growth_report(mod, 3, backend="exact")
    assert [r.value for r in exact] == [
        codimension(mod, n, backend="exact").value for n in (1, 2, 3)]
    # every degree is checked against the budget before any is built, and
    # the first one over it is named as codimension names it
    with pytest.raises(BudgetExceeded) as per_degree:
        codimension(mod, 3, budget_rows=100)
    with pytest.raises(BudgetExceeded) as report:
        codim_growth_report(mod, 4, budget_rows=100)
    assert str(report.value) == str(per_degree.value)
    assert codim_growth_report(mod, 0) == []
    with pytest.raises(InputError, match="backend"):
        codim_growth_report(mod, 2, backend="sketchy")
    # a bound below 1 builds nothing, but is checked as codimension checks
    # its degree and backend
    with pytest.raises(InputError, match="backend"):
        codim_growth_report(mod, 0, backend="sketchy")
    with pytest.raises(InputError, match="degree"):
        codim_growth_report(mod, -2)


# ---------------------------------------------------------------------------
# the full evaluation matrix, kept as the oracle for the ordered-span engine


def _label_products(mod, n, app):
    """For each label tuple (h_1..h_n) in mixed-radix order, the map
    key -> (h_1 e_{key_1}) ... (h_n e_{key_n}) over all basis tuples key.

    Depth-first over label positions so prefix products are shared among
    label tuples that agree on an initial segment; none of this depends on
    the permutation, so every permutation reuses it.
    """
    m2 = mod.m * mod.m
    multiply = mod.algebra.multiply
    dim = mod.algebra.dim
    out = []

    def rec(j, pref):
        if j == n:
            out.append(pref)
            return
        for b in range(m2):
            nxt = {}
            for key, vec in pref.items():
                for tv in range(dim):
                    factor = app[b][tv]
                    nxt[key + (tv,)] = (factor if vec is None
                                        else multiply(vec, factor))
            rec(j + 1, nxt)

    rec(0, {(): None})
    return out


def _rows_for_sigma(sigma, products, arg_tuples):
    """All rows for one permutation, Hopf labels in mixed-radix order."""
    rows = []
    for pref in products:
        row = []
        for t in arg_tuples:
            row.extend(pref[tuple(t[s - 1] for s in sigma)])
        rows.append(tuple(row))
    return rows


def _oracle_codimension(mod, n):
    """Exact rank of all n! * m^{2n} evaluation rows (sigma, h_1..h_n)."""
    m, dim = mod.m, mod.algebra.dim
    # app[b][t] = (c^i v^k)(e_t) with b = i*m + k
    app = [[mod.monomial_operator(i, k).apply(mod.algebra.basis_vector(t))
            for t in range(dim)] for i in range(m) for k in range(m)]
    products = _label_products(mod, n, app)
    arg_tuples = list(itertools.product(range(dim), repeat=n))
    rows = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        rows.update(dict.fromkeys(_rows_for_sigma(sigma, products, arg_tuples)))
    return echelon(m, dim ** (n + 1), rows).dim


CORPUS = {**positive_modules(), **negative_modules()}
SMALL_CORPUS = sorted(name for name, mod in CORPUS.items()
                      if mod.algebra.dim <= 4)


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_ordered_span_matches_full_matrix(name):
    mod = CORPUS[name]
    for n in (1, 2, 3):
        assert codimension(mod, n).value == _oracle_codimension(mod, n), n


@pytest.mark.parametrize("name", ["sweedler2dim", "ss_pair_alpha_1",
                                  "ss_pair_alpha_neg1"])
def test_ordered_span_matches_full_matrix_degree_4(name):
    mod = CORPUS[name]
    for backend in ("auto", "exact"):
        assert codimension(mod, 4, backend=backend).value == \
            _oracle_codimension(mod, 4)


def _change_basis(mod, t):
    """The same module algebra written in the basis given by the columns of t."""
    m, dim = mod.m, mod.algebra.dim
    t_inv = t.inverse()
    cols = [t.col(i) for i in range(dim)]
    mult = tuple(tuple(t_inv.apply(mod.algebra.multiply(x, y)) for y in cols)
                 for x in cols)
    unit = t_inv.apply(mod.algebra.unit)
    algebra = FinDimAlgebra(m, mult, unit=unit)
    return HModuleAlgebra(hopf=mod.hopf, algebra=algebra,
                          c_op=t_inv @ mod.c_op @ t,
                          v_op=t_inv @ mod.v_op @ t)


@given(st.sampled_from(["sweedler2dim", "pair_alpha_1"]),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=4,
                max_size=4),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=12, deadline=None)
def test_ordered_span_matches_full_matrix_after_basis_change(name, entries, n):
    base = (sweedler_two_dim() if name == "sweedler2dim"
            else build_semisimple(ss_specs()[name]))
    t = Matrix.from_rows(2, [entries[:2], entries[2:]])
    assume(not gauss_det(t).is_zero())
    mod = _change_basis(base, t)
    got = codimension(mod, n)
    assert got.value == _oracle_codimension(mod, n)
    assert got.value == codimension(base, n).value


def test_codimension_beyond_the_full_matrix():
    # Procesi: c_n(M_2) = C_{n+1} - binom(n, 3) + 1 - 2^n; with the trivial
    # action H-codimensions are the ordinary ones
    mat2 = build_semisimple(ss_specs()["mat2_trivial"])
    assert codimension(mat2, 4).value == 42 - 4 + 1 - 16 == 23
    # c_n = 2^{n+1} - 1 for the 2-dimensional algebra
    res = codimension(sweedler_two_dim(), 5, budget_rows=10 ** 7)
    assert res.value == 63
    assert res.matrix_shape == (math.factorial(5) * 4 ** 5, 2 ** 6)
