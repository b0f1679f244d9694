"""The Hopf algebra on generators c, v: relations, coproduct, antipode."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.qcombinatorics import q_binom
from taftlab.taft_hopf import TaftAlgebra, hopf_verify_axioms


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
    for m in (2, 3):
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
