"""The Hopf algebra on generators c, v: relations, coproduct, antipode, and
the axiom battery against its exhaustive oracle."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.qcombinatorics import q_binom
from taftlab.taft_hopf import (AxiomReport, TaftAlgebra, _coassoc_sides,
                               _product_table, hopf_verify_axioms)

FLAGS = ("associativity", "coassociativity", "counit", "bialgebra", "antipode")


def test_defining_relations():
    for m in (2, 3, 4, 5):
        H = TaftAlgebra(m)
        c, v = H.c(), H.v()
        z = zeta_power(m, 1)
        assert c ** m == H.one()
        assert v ** m == H.zero()
        assert v * c == (c * v).scale(z)


def test_normal_ordering_product():
    # (c^i v^k)(c^j v^l) = zeta^{kj} c^{i+j} v^{k+l}, truncated at v^m = 0
    for m in (2, 3, 4):
        H = TaftAlgebra(m)
        z = zeta_power(m, 1)
        for i, k, j, l in itertools.product(range(m), repeat=4):
            got = H.monomial(i, k) * H.monomial(j, l)
            if k + l >= m:
                assert got.is_zero(), (m, i, k, j, l)
            else:
                assert got == H.monomial((i + j) % m, k + l, z ** (k * j))


def test_counit_values():
    H = TaftAlgebra(4)
    assert H.counit(H.c()) == CycNum.one(4)
    assert H.counit(H.v()).is_zero()
    assert H.counit(H.monomial(2, 0)) == CycNum.one(4)
    assert H.counit(H.monomial(0, 3)).is_zero()
    assert H.counit(H.monomial(1, 2)).is_zero()


def test_coproduct_of_v_powers():
    # Delta(v^k) = sum_j binom(k, j)_zeta c^j v^{k-j} (x) v^j; the Gaussian
    # binomial appears because (c (x) v) and (v (x) 1) q-commute
    for m in (2, 3, 4, 5):
        H = TaftAlgebra(m)
        z = zeta_power(m, 1)
        for k in range(m):
            got = H.coproduct(H.monomial(0, k))
            expected = H.tensor2({})
            for j in range(k + 1):
                expected = expected + H.tensor2(
                    {((j, k - j), (0, j)): q_binom(k, j, z)})
            assert got == expected, (m, k)


def test_antipode_on_generators():
    for m in (2, 3, 4):
        H = TaftAlgebra(m)
        assert H.antipode(H.c()) == H.monomial(m - 1, 0)
        assert H.antipode(H.v()) == H.monomial(m - 1, 1, -1)


def test_antipode_squared_is_conjugation_by_c_inverse():
    # S^2(x) = c^{-1} x c; on a basis monomial that is the scalar zeta^k
    for m in (2, 3, 4, 5):
        H = TaftAlgebra(m)
        z = zeta_power(m, 1)
        for i in range(m):
            for k in range(m):
                x = H.monomial(i, k)
                ss = H.antipode(H.antipode(x))
                assert ss == x.scale(z ** k), (m, i, k)
                conj = H.monomial(m - 1, 0) * x * H.monomial(1, 0)
                assert ss == conj, (m, i, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_antipode_is_an_antihomomorphism(m, data):
    H = TaftAlgebra(m)
    keys = list(H.basis_keys())
    small = st.integers(-3, 3)

    def draw_elem():
        picks = data.draw(st.lists(st.tuples(st.sampled_from(keys), small),
                                   min_size=1, max_size=3))
        return H.element({k: CycNum.rational(m, c) for k, c in picks})

    x, y = draw_elem(), draw_elem()
    assert H.antipode(x * y) == H.antipode(y) * H.antipode(x)


def test_axiom_battery_small():
    for m in range(2, 9):
        report = hopf_verify_axioms(TaftAlgebra(m))
        assert report.ok, report.failures


def test_axiom_battery_catches_broken_coproduct(monkeypatch):
    # same algebra, but Delta(v) missing the twist; the battery must object
    broken = TaftAlgebra(2)
    monkeypatch.setattr(broken, "_delta_v",
                        broken.tensor2({((0, 1), (0, 0)): 1}))
    report = hopf_verify_axioms(broken)
    assert not report.ok
    assert report.failures


# -- the oracle: the Hopf axioms checked key by key over the whole basis ---------


def exhaustive_axioms(H):
    """The axiom battery that checked every basis monomial: coassociativity,
    the counit and the antipode on each of the m^2 keys, and Delta(xy) =
    Delta(x) Delta(y), eps(xy) = eps(x) eps(y) on each of the m^4 pairs."""
    report = AxiomReport(m=H.m)
    keys = H.basis_keys()

    def fail(axiom: str, witness: str):
        setattr(report, axiom, False)
        if len(report.failures) < 32:
            report.failures.append("%s: %s" % (axiom, witness))

    table = _product_table(H)
    triple = table._associativity_witness()
    if triple is not None:
        fail("associativity", "keys %r %r %r" % tuple(keys[t] for t in triple))
    bad = table._unit_witness(table.basis_vector(0))
    if bad is not None:
        fail("associativity", "unit fails at %r" % (keys[bad],))

    for key in keys:
        left, right = _coassoc_sides(H, key)
        if left != right:
            fail("coassociativity", "key %r" % (key,))
        delta = H.coproduct_basis(key)
        lhs = H.zero()
        rhs = H.zero()
        for (a, b), c in delta.terms.items():
            lhs = lhs + H.monomial(*b).scale(c * H.counit(H.monomial(*a)))
            rhs = rhs + H.monomial(*a).scale(c * H.counit(H.monomial(*b)))
        x = H.monomial(*key)
        if lhs != x or rhs != x:
            fail("counit", "key %r" % (key,))

    one = H.one()
    if H.coproduct(one) != H.tensor_unit(2):
        fail("bialgebra", "coproduct of 1")
    if H.counit(one) != CycNum.one(H.m):
        fail("bialgebra", "counit of 1")
    monomials = {key: H.monomial(*key) for key in keys}
    deltas = {key: H.coproduct(x) for key, x in monomials.items()}
    counits = {key: H.counit(x) for key, x in monomials.items()}
    for a in keys:
        for b in keys:
            xy = monomials[a] * monomials[b]
            if H.coproduct(xy) != deltas[a] * deltas[b]:
                fail("bialgebra", "coproduct at %r * %r" % (a, b))
                break
            if H.counit(xy) != counits[a] * counits[b]:
                fail("bialgebra", "counit at %r * %r" % (a, b))
                break
        if not report.bialgebra:
            break

    for key in keys:
        x = H.monomial(*key)
        delta = H.coproduct_basis(key)
        lhs = H.zero()
        rhs = H.zero()
        for (a, b), c in delta.terms.items():
            lhs = lhs + (H.antipode_basis(a) * H.monomial(*b)).scale(c)
            rhs = rhs + (H.monomial(*a) * H.antipode_basis(b)).scale(c)
        want = one.scale(H.counit(x))
        if lhs != want or rhs != want:
            fail("antipode", "key %r" % (key,))

    return report


def _flags(report):
    return {name: getattr(report, name) for name in FLAGS}


c_, v_, one_ = (1, 0), (0, 1), (0, 0)
BROKEN = {
    "delta_v = v(x)1": ("_delta_v", lambda H: H.tensor2({(v_, one_): 1})),
    "delta_v = v(x)c + 1(x)v": (
        "_delta_v", lambda H: H.tensor2({(v_, c_): 1, (one_, v_): 1})),
    "delta_v = v(x)1 + 1(x)v": (
        "_delta_v", lambda H: H.tensor2({(v_, one_): 1, (one_, v_): 1})),
    # Delta an algebra map, one side of the counit / antipode law broken
    "delta_v = 1(x)v": ("_delta_v", lambda H: H.tensor2({(one_, v_): 1})),
    "delta_v = 1(x)v - c(x)cv": (
        "_delta_v", lambda H: H.tensor2({(one_, v_): 1, (c_, (1, 1)): -1})),
    "delta_c = c(x)1": ("_delta_c", lambda H: H.tensor2({(c_, one_): 1})),
    "eps_c = 2": ("_eps_c", lambda H: CycNum.rational(H.m, 2)),
    "eps_v = 1": ("_eps_v", lambda H: CycNum.one(H.m)),
    "s_c = 1": ("_s_c", lambda H: H.one()),
    "s_v = +c^-1 v": ("_s_v", lambda H: H.monomial(H.m - 1, 1)),
    "s_v = -zeta c^-1 v": (
        "_s_v", lambda H: H.monomial(H.m - 1, 1, -zeta_power(H.m, 1))),
}


def _broken(m, case):
    H = TaftAlgebra(m)
    attr, value = BROKEN[case]
    setattr(H, attr, value(H))
    return H


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_battery_matches_the_oracle_on_the_taft_structure(m):
    H = TaftAlgebra(m)
    assert _flags(hopf_verify_axioms(H)) == _flags(exhaustive_axioms(H))
    assert hopf_verify_axioms(H).ok


@pytest.mark.parametrize("case", sorted(BROKEN))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_battery_matches_the_oracle_on_broken_generator_values(m, case):
    report = hopf_verify_axioms(_broken(m, case))
    expect = exhaustive_axioms(_broken(m, case))
    assert not expect.ok
    assert _flags(report) == _flags(expect), (report.failures, expect.failures)


def test_broken_relation_witnesses():
    report = hopf_verify_axioms(_broken(3, "delta_v = v(x)1 + 1(x)v"))
    assert report.failures[0] == "bialgebra: coproduct breaks v^m = 0"
    report = hopf_verify_axioms(_broken(3, "eps_v = 1"))
    assert report.failures[:2] == ["bialgebra: counit breaks v^m = 0",
                                   "bialgebra: counit breaks v c = zeta c v"]
    report = hopf_verify_axioms(_broken(3, "s_c = 1"))
    assert report.failures[0] == "antipode: antipode breaks v c = zeta c v"


@st.composite
def _generator_values(draw):
    """(m, values): Delta, eps and S on c and v, each value the Taft one or,
    half the time, a random sparse element with coefficients in
    {-1, 1, zeta}."""
    m = draw(st.sampled_from([2, 3]))
    H = TaftAlgebra(m)
    keys = H.basis_keys()
    coeffs = st.sampled_from([-1, 1, zeta_power(H.m, 1)])

    def sparse(key):
        return draw(st.dictionaries(key, coeffs, min_size=1, max_size=3))

    out = {}
    for attr, key, build in (
            ("_delta_c", st.tuples(st.sampled_from(keys), st.sampled_from(keys)),
             H.tensor2),
            ("_delta_v", st.tuples(st.sampled_from(keys), st.sampled_from(keys)),
             H.tensor2),
            ("_s_c", st.sampled_from(keys), H.element),
            ("_s_v", st.sampled_from(keys), H.element)):
        if draw(st.booleans()):
            out[attr] = build(sparse(key))
    for attr in ("_eps_c", "_eps_v"):
        if draw(st.booleans()):
            out[attr] = draw(st.sampled_from(
                [CycNum.zero(H.m), CycNum.one(H.m), zeta_power(H.m, 1)]))
    return m, out


# Delta(v) = e_(0,2) (x) e_(0,2) keeps Delta an algebra map but fails the
# counit, and S(v) = -c^2 v^2 breaks v c = zeta c v while the antipode axiom
# holds on every basis key
_H3 = TaftAlgebra(3)
_COUNIT_FAILS = (3, {"_delta_v": _H3.tensor2({((0, 2), (0, 2)): 1}),
                     "_s_v": _H3.monomial(2, 2, -1)})


@settings(max_examples=60, deadline=None)
@given(_generator_values())
@example(_COUNIT_FAILS)
def test_battery_matches_the_oracle_on_random_generator_values(drawn):
    m, values = drawn
    H, G = TaftAlgebra(m), TaftAlgebra(m)
    for attr, value in values.items():
        setattr(H, attr, value)
        setattr(G, attr, value)
    report, expect = hopf_verify_axioms(H), exhaustive_axioms(G)
    assert report.ok == expect.ok, (report.failures, expect.failures)
    if report.bialgebra and expect.bialgebra:
        # Delta and eps are algebra maps: every flag is the oracle's
        assert _flags(report) == _flags(expect)
