"""Module-algebra verification, simplicity certificates, generic isomorphism."""

import itertools
import random
from functools import cache

import pytest

from taftlab.algebra_core import (FinDimAlgebra, direct_sum, field_algebra,
                                  ideal_generated_by, matrix_algebra)
from taftlab.constructions import build_semisimple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (
    negative_modules,
    positive_modules,
    ss_specs,
    sweedler_two_dim,
    trivial_action,
)
from taftlab import linalg
from taftlab.hmodule import (
    CertifiedSimple,
    HModuleAlgebra,
    Inconclusive,
    NotSimple,
    act,
    hma_isomorphic_generic,
    hma_verify,
    is_h_simple,
    operator_span_dim,
    verify_invariant_ideal,
)
from taftlab.linalg import Matrix, kernel, vec_is_zero
from taftlab.taft_hopf import TaftAlgebra


def test_verify_passes_on_sweedler_two_dim():
    mod = sweedler_two_dim()
    rep = hma_verify(mod)
    assert rep.ok, rep.failed()
    names = [n for n, _, _ in rep.checks]
    assert "v_skew_derivation" in names and "c_fixes_unit" in names


def test_verify_names_the_broken_law():
    good = sweedler_two_dim()
    # v 1 = w satisfies all three operator relations (v^2 = 0, vc = zeta cv)
    # but fails the derivation law at (1, 1): v(1) = w while the expansion
    # gives c(1) v(1) + v(1) 1 = 2w
    bad_v = Matrix(2, ((CycNum.zero(2), CycNum.zero(2)),
                       (CycNum.one(2), CycNum.zero(2))))
    bad = HModuleAlgebra(hopf=good.hopf, algebra=good.algebra,
                         c_op=good.c_op, v_op=bad_v)
    rep = hma_verify(bad)
    assert not rep.ok
    failed = dict(rep.failed())
    assert "v_skew_derivation" in failed
    assert failed["v_skew_derivation"] == (0, 0)
    assert "v_kills_unit" in failed


def test_verify_catches_wrong_operator_order():
    good = sweedler_two_dim()
    # c w = +w gives an order-1 operator that no longer skew-commutes with v
    bad = HModuleAlgebra(hopf=good.hopf, algebra=good.algebra,
                         c_op=Matrix.identity(2, 2), v_op=good.v_op)
    rep = hma_verify(bad)
    failed = [name for name, _ in rep.failed()]
    assert "vc_commutation" in failed


def test_operator_shape_validation():
    mod = sweedler_two_dim()
    with pytest.raises(InputError, match="operator must be"):
        HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra,
                       c_op=Matrix.identity(2, 3), v_op=mod.v_op)
    with pytest.raises(InputError, match="conductor mismatch"):
        HModuleAlgebra(hopf=TaftAlgebra(3), algebra=mod.algebra,
                       c_op=mod.c_op, v_op=mod.v_op)


def test_act_matches_monomial_operators():
    mod = sweedler_two_dim()
    H = mod.hopf
    w = mod.algebra.basis_vector(1)
    # (c v) . w through act equals the composed operator
    h = H.monomial(1, 1)
    assert act(mod, h, w) == mod.monomial_operator(1, 1).apply(w)
    # sums and scalars pass through linearly
    h2 = H.c() + H.v().scale(zeta_power(2, 1))
    lhs = act(mod, h2, w)
    rhs = tuple(a + b for a, b in zip(
        mod.c_op.apply(w),
        (mod.v_op * zeta_power(2, 1)).apply(w)))
    assert lhs == rhs


def test_act_rejects_conductor_mismatch():
    mod = sweedler_two_dim()
    other = TaftAlgebra(3)
    with pytest.raises(InputError):
        act(mod, other.c(), mod.algebra.basis_vector(0))


def test_simplicity_of_sweedler_two_dim():
    verdict = is_h_simple(sweedler_two_dim())
    assert isinstance(verdict, CertifiedSimple)
    assert verdict.operator_algebra_dim == 4


def test_simplicity_of_constructed_semisimple():
    specs = ss_specs()
    for name in ("mat2_trivial", "sweedler_p_gamma3", "pair_alpha_1"):
        mod = build_semisimple(specs[name])
        verdict = is_h_simple(mod)
        assert isinstance(verdict, CertifiedSimple), (name, verdict)


def test_negatives_come_with_verified_witnesses():
    for name, mod in negative_modules().items():
        verdict = is_h_simple(mod)
        assert isinstance(verdict, NotSimple), name
        assert verdict.witness is not None
        assert 0 < verdict.witness.dim < mod.algebra.dim
        assert verify_invariant_ideal(mod, verdict.witness), name


# -- tier 2 against the candidate list it replaced ------------------------------


def _listed_tier2_witness(mod):
    """The witness of the tier-2 search is_h_simple ran before it took its
    candidates from ker(c - zeta^i) and ker v: c-eigenvectors, basis vectors,
    ker v, two kernel vectors of every L(e_i) and five seeded random
    vectors, each closed in turn; None when no closure is proper."""
    A, m, n = mod.algebra, mod.m, mod.algebra.dim
    ident = Matrix.identity(m, n)
    candidates = []
    for i in range(m):
        candidates.extend(kernel(mod.c_op - ident * zeta_power(m, i)))
    candidates.extend(A.basis_vector(i) for i in range(n))
    candidates.extend(kernel(mod.v_op))
    for i in range(n):
        candidates.extend(kernel(A.left_mult_basis(i))[:2])
    rng = random.Random(0)
    for _ in range(5):
        candidates.append(tuple(CycNum.rational(m, rng.randint(-3, 3))
                                for _ in range(n)))
    seen = set()
    for cand in candidates:
        if vec_is_zero(cand) or tuple(cand) in seen:
            continue
        seen.add(tuple(cand))
        ideal = ideal_generated_by(A, [cand], extra_ops=(mod.c_op, mod.v_op))
        if 0 < ideal.dim < n:
            return ideal
    return None


def _block_diagonal(m, x, y):
    zero = CycNum.zero(m)
    return Matrix(m, tuple(r + (zero,) * y.ncols for r in x.rows)
                  + tuple((zero,) * x.ncols + r for r in y.rows))


def _module_sum(mod1, mod2):
    return HModuleAlgebra(hopf=mod1.hopf,
                          algebra=direct_sum(mod1.algebra, mod2.algebra),
                          c_op=_block_diagonal(mod1.m, mod1.c_op, mod2.c_op),
                          v_op=_block_diagonal(mod1.m, mod1.v_op, mod2.v_op))


def _truncated_polynomials(m, k):
    """F[t]/(t^k) on the basis 1, t, ..., t^(k-1)."""
    one, zero = CycNum.one(m), CycNum.zero(m)
    mult = tuple(tuple(tuple(one if a == i + j else zero for a in range(k))
                       for j in range(k)) for i in range(k))
    return FinDimAlgebra(m, mult, unit=(one,) + (zero,) * (k - 1))


@cache
def _reducible():
    """Module algebras with a proper nonzero invariant ideal: the corpus
    negatives, the direct sums of two positive corpus modules of dim <= 4
    over one conductor, and F[t]/(t^k) with the trivial action."""
    out = dict(negative_modules())
    small = sorted((name, mod) for name, mod in positive_modules().items()
                   if mod.algebra.dim <= 4)
    for (a, x), (b, y) in itertools.combinations_with_replacement(small, 2):
        if x.m == y.m:
            out["%s + %s" % (a, b)] = _module_sum(x, y)
    for k in (2, 3, 4):
        out["F[t]/(t^%d)" % k] = trivial_action(_truncated_polynomials(2, k))
    return out


def test_reducible_modules_are_the_listed_ones():
    assert len(_reducible()) == 103


@pytest.mark.parametrize("name", sorted(_reducible()))
def test_tier2_witness_matches_the_listed_candidates(name):
    mod = _reducible()[name]
    verdict = is_h_simple(mod)
    assert isinstance(verdict, NotSimple)
    assert verdict.witness == _listed_tier2_witness(mod)
    assert verify_invariant_ideal(mod, verdict.witness)


def test_square_zero_algebra_is_not_simple():
    from taftlab.algebra_core import FinDimAlgebra
    zero = CycNum.zero(2)
    a = FinDimAlgebra(2, (((zero,),),))
    mod = trivial_action(a)
    verdict = is_h_simple(mod)
    assert isinstance(verdict, NotSimple)
    assert verdict.reason == "A * A = 0"


def test_verify_invariant_ideal_rejects_non_ideal():
    # in F + F the span of (1, 0) is an ideal, the span of (1, 1)+(0,1)... is
    # not stable under multiplication by (1, 0)
    a = direct_sum(field_algebra(2), field_algebra(2))
    mod = trivial_action(a)
    from taftlab.linalg import Subspace
    one, zero = CycNum.one(2), CycNum.zero(2)
    good = Subspace.from_vectors(2, 2, [(one, zero)])
    assert verify_invariant_ideal(mod, good)
    bad = Subspace.from_vectors(2, 2, [(one, one)])
    assert not verify_invariant_ideal(mod, bad)


def test_operator_span_backends_agree(monkeypatch):
    mod = sweedler_two_dim()
    d_auto, method = operator_span_dim(mod)
    monkeypatch.setattr(linalg, "_spans", lambda *a, **k: False)
    d_exact, _ = operator_span_dim(mod)
    assert d_auto == d_exact == 4
    assert "mod p" in method or "exact" in method


def test_self_isomorphism_is_identity():
    mod = sweedler_two_dim()
    T = hma_isomorphic_generic(mod, mod)
    assert T == Matrix.identity(2, 2)


def test_isomorphism_respects_dimension():
    m1 = trivial_action(field_algebra(2))
    m2 = trivial_action(matrix_algebra(2, 2))
    assert hma_isomorphic_generic(m1, m2) is None


def test_isomorphism_rejects_a_negative_budget():
    mod = sweedler_two_dim()
    with pytest.raises(InputError, match="budget must be >= 0, got -3"):
        hma_isomorphic_generic(mod, mod, budget=-3)
    assert hma_isomorphic_generic(mod, mod, budget=0) == Matrix.identity(2, 2)


def test_isomorphism_conductor_mismatch_rejected():
    m1 = trivial_action(field_algebra(2))
    m2 = trivial_action(field_algebra(3))
    with pytest.raises(InputError, match="conductor mismatch"):
        hma_isomorphic_generic(m1, m2)


def _check_hma_iso(mod1, mod2, T):
    """Independent replay of the witness conditions."""
    assert T @ mod1.c_op == mod2.c_op @ T
    assert T @ mod1.v_op == mod2.v_op @ T
    T.inverse()  # raises if singular
    A1, A2 = mod1.algebra, mod2.algebra
    if A1.unit is not None:
        assert T.apply(A1.unit) == tuple(A2.unit)
    for i in range(A1.dim):
        for j in range(A1.dim):
            x, y = A1.basis_vector(i), A1.basis_vector(j)
            assert T.apply(A1.multiply(x, y)) == \
                A2.multiply(T.apply(x), T.apply(y))


def test_alpha_sign_flip_found_by_generic_search():
    specs = ss_specs()
    m1 = build_semisimple(specs["pair_alpha_1"])
    m2 = build_semisimple(specs["pair_alpha_neg1"])
    T = hma_isomorphic_generic(m1, m2)
    assert T is not None
    _check_hma_iso(m1, m2, T)


def test_distinct_alpha_magnitudes_not_found():
    specs = ss_specs()
    m1 = build_semisimple(specs["pair_alpha_1"])
    m2 = build_semisimple(specs["pair_alpha_2"])
    assert hma_isomorphic_generic(m1, m2) is None
