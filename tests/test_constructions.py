"""Block-rotation semisimple builds, their classification, nilpotent
extensions, and structure recovery."""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.algebra_core import (
    FinDimAlgebra,
    direct_sum,
    field_algebra,
    grading_from_c,
    jacobson_radical,
    matrix_algebra,
    nilpotency_index,
    quotient_algebra,
    trivial_grading,
)
from taftlab import constructions
from taftlab.constructions import (
    AutPair,
    IsoWitness,
    NilpotentExtensionSpec,
    SemisimpleSpec,
    aut_compose,
    aut_identity,
    aut_inverse,
    aut_module_map,
    aut_pair,
    blocks_to_vec,
    build_nilpotent_extension,
    build_semisimple,
    certify_graded_simple,
    grid_spec,
    iso_block_map,
    iso_semisimple,
    mutate_p_nonscalar,
    recover_structure,
    semisimple_operators,
    v_power_closed_form,
    vec_to_blocks,
)
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import nilext_specs, ss_specs
from taftlab.hmodule import hma_verify
from taftlab.linalg import Matrix, combination, intertwiner_space
from taftlab.taft_hopf import TaftAlgebra, _product_table


def _mat(m, rows):
    return Matrix(m, tuple(tuple(CycNum.rational(m, x) for x in row)
                           for row in rows))


# -- spec validation -------------------------------------------------------


def test_spec_rejects_bad_t():
    P = Matrix.zeros(4, 1, 1)
    Q = Matrix.identity(4, 1)
    with pytest.raises(InputError, match="does not divide"):
        SemisimpleSpec(m=4, k=1, t=3, P=P, Q=Q)


def test_spec_rejects_singular_q():
    with pytest.raises(InputError, match="singular"):
        SemisimpleSpec(m=2, k=1, t=1, P=Matrix.zeros(2, 1, 1),
                       Q=Matrix.zeros(2, 1, 1))


def test_spec_rejects_wrong_q_order():
    # Q = 2E is invertible but no power of it is the identity
    two = _mat(2, [[2, 0], [0, 2]])
    with pytest.raises(InputError, match="identity"):
        SemisimpleSpec(m=2, k=2, t=1, P=Matrix.zeros(2, 2, 2), Q=two)


def test_spec_rejects_broken_qp_commutation():
    # t=1, m=2 needs QPQ^{-1} = -P; a P commuting with Q fails
    Q = _mat(2, [[1, 0], [0, -1]])
    P = _mat(2, [[1, 0], [0, 1]])
    with pytest.raises(InputError, match="zeta"):
        SemisimpleSpec(m=2, k=2, t=1, P=P, Q=Q)


def test_spec_rejects_nonscalar_p_power():
    # t=m leaves the commutation vacuous; P = E11 has P^m = E11, not scalar
    Q = Matrix.identity(2, 2)
    P = _mat(2, [[1, 0], [0, 0]])
    with pytest.raises(InputError, match="scalar"):
        SemisimpleSpec(m=2, k=2, t=2, P=P, Q=Q)


# (m, k, t, P, Q, message): each fails one block-rotation check, and the
# first two fail the later ones as well
_BAD_ROTATION_DATA = [
    (4, 1, 3, Matrix.zeros(4, 1, 1), Matrix.zeros(4, 1, 1), "does not divide"),
    (2, 2, 1, Matrix.zeros(2, 1, 1), Matrix.zeros(2, 1, 1),
     "P must be a 2 x 2"),
    (2, 2, 1, Matrix.zeros(2, 2, 2), Matrix.identity(3, 2),
     "Q must be a 2 x 2"),
    (2, 1, 1, Matrix.zeros(2, 1, 1), Matrix.zeros(2, 1, 1), "singular"),
    (2, 2, 1, Matrix.zeros(2, 2, 2), _mat(2, [[2, 0], [0, 2]]),
     "Q^(m/t) is not the identity"),
    (2, 2, 1, _mat(2, [[1, 0], [0, 1]]), _mat(2, [[1, 0], [0, -1]]),
     "QPQ^{-1} = zeta^{-t} P fails"),
]


@pytest.mark.parametrize("m,k,t,P,Q,message", _BAD_ROTATION_DATA)
def test_spec_and_operators_reject_rotation_data_alike(m, k, t, P, Q, message):
    with pytest.raises(InputError, match=re.escape(message)):
        SemisimpleSpec(m=m, k=k, t=t, P=P, Q=Q)
    with pytest.raises(InputError, match=re.escape(message)):
        semisimple_operators(m, k, t, P, Q)


def test_build_does_not_recheck_a_validated_spec(monkeypatch):
    spec = ss_specs()["grid_m3_k2_t3"]
    want = semisimple_operators(spec.m, spec.k, spec.t, spec.P, spec.Q)
    calls = []
    check = constructions._check_rotation_data
    monkeypatch.setattr(constructions, "_check_rotation_data",
                        lambda *args: calls.append(args) or check(*args))
    mod = build_semisimple(spec)
    assert calls == []
    assert (mod.algebra.mult, mod.c_op, mod.v_op) == (want[0].mult, want[1],
                                                      want[2])
    semisimple_operators(spec.m, spec.k, spec.t, spec.P, spec.Q)
    assert len(calls) == 1


def test_alpha_and_dim():
    spec = ss_specs()["sweedler_p_gamma3"]
    assert spec.alpha == CycNum.rational(2, 3)
    assert spec.dim == 4
    pair = ss_specs()["pair_alpha_2"]
    assert pair.alpha == CycNum.rational(2, 4)  # P^2 = diag(4, 4)
    assert pair.dim == 2


def test_block_vec_round_trip():
    m, k, t = 2, 2, 2
    blocks = (_mat(m, [[1, 2], [3, 4]]), _mat(m, [[5, 6], [7, 8]]))
    vec = blocks_to_vec(blocks)
    assert len(vec) == t * k * k
    assert vec_to_blocks(m, k, t, vec) == blocks


# -- the action itself -----------------------------------------------------


def test_swap_action_on_pair_of_fields():
    # t=2, k=1, m=2, Q=E: c swaps the two copies, v(a, b) = (Pa - bP, aP - Pb)
    spec = ss_specs()["pair_alpha_2"]
    _, c_op, v_op = semisimple_operators(spec.m, spec.k, spec.t, spec.P, spec.Q)
    a, b = CycNum.rational(2, 5), CycNum.rational(2, 7)
    alpha = CycNum.rational(2, 2)
    vec = (a, b)
    assert c_op.apply(vec) == (b, a)
    # blocks are 1x1: v(a, b) = (alpha a - b alpha, a alpha - alpha b)
    d = alpha * (a - b)
    assert v_op.apply(vec) == (d, d)


def test_matrix_conjugation_action():
    # t=1: c a = Q a Q^{-1} and v a = P a - (Q a Q^{-1}) P
    spec = ss_specs()["sweedler_p_gamma3"]
    _, c_op, v_op = semisimple_operators(spec.m, spec.k, spec.t, spec.P, spec.Q)
    qinv = spec.Q.inverse()
    rng = random.Random(11)
    for _ in range(10):
        a = _mat(2, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
        vec = blocks_to_vec((a,))
        ca = spec.Q @ a @ qinv
        assert vec_to_blocks(2, 2, 1, c_op.apply(vec)) == (ca,)
        va = spec.P @ a - ca @ spec.P
        assert vec_to_blocks(2, 2, 1, v_op.apply(vec)) == (va,)


def test_sweedler_gamma_spot_image():
    spec = ss_specs()["sweedler_p_gamma3"]
    _, _, v_op = semisimple_operators(spec.m, spec.k, spec.t, spec.P, spec.Q)
    e11 = blocks_to_vec((_mat(2, [[1, 0], [0, 0]]),))
    img = vec_to_blocks(2, 2, 1, v_op.apply(e11))[0]
    assert img == _mat(2, [[0, -1], [3, 0]])


def test_operators_satisfy_module_algebra_laws():
    for name, spec in ss_specs().items():
        mod = build_semisimple(spec)
        rep = hma_verify(mod)
        assert rep.ok, (name, rep.failed())


# -- the closed-form operator columns against block products -----------------


def _oracle_operators(m, k, t, P, Q):
    """(c_op, v_op) by block matrix products, as the operators were built
    before their columns were read off closed forms: the column of E_ij in
    block s is the image of that block tuple, three k x k products each."""
    qinv = Q.inverse()
    n = t * k * k
    zero_k = Matrix.zeros(m, k, k)
    units = constructions._block_matrix_units(m, k)

    def op_columns(block_fn):
        cols = []
        for s in range(t):
            for u in units:
                blocks = [zero_k] * t
                blocks[s] = u
                cols.append(blocks_to_vec(block_fn(blocks)))
        return Matrix(m, tuple(tuple(cols[j][i] for j in range(n))
                               for i in range(n)))

    def c_blocks(a):
        return tuple([Q @ a[t - 1] @ qinv] + [a[s] for s in range(t - 1)])

    def v_blocks(a):
        prev = Q @ a[t - 1] @ qinv
        out = []
        for s in range(t):
            out.append((P @ a[s] - prev @ P) * zeta_power(m, s))
            prev = a[s]
        return tuple(out)

    return op_columns(c_blocks), op_columns(v_blocks)


def _assert_operators_match_the_oracle(m, k, t, P, Q):
    _, c_op, v_op = semisimple_operators(m, k, t, P, Q)
    want_c, want_v = _oracle_operators(m, k, t, P, Q)
    for got, want in ((c_op, want_c), (v_op, want_v)):
        assert got.m == m
        assert [[(type(x), x) for x in row] for row in got.rows] == \
            [[(CycNum, x) for x in row] for row in want.rows], (m, k, t)


def test_operators_match_the_oracle_on_every_spec():
    specs = ss_specs()
    assert len(specs) == 32
    for name, spec in specs.items():
        _assert_operators_match_the_oracle(spec.m, spec.k, spec.t, spec.P,
                                           spec.Q)


def test_operators_match_the_oracle_on_non_scalar_p_powers():
    tried = 0
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            for t in (x for x in range(1, m + 1) if m % x == 0):
                Q = grid_spec(m, k, t).Q
                P = mutate_p_nonscalar(m, k, t, Q)
                if P is not None:
                    assert (P ** m).is_scalar() is None
                    _assert_operators_match_the_oracle(m, k, t, P, Q)
                    tried += 1
    assert tried == 8


@st.composite
def _rotation_data(draw):
    """(m, k, t, P, Q): a grid point's Q and a P from the space that
    QPQ^{-1} = zeta^{-t} P allows, P^m scalar or not, both conjugated by
    g = L U with L, U unitriangular of small integers."""
    m = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 3))
    t = draw(st.sampled_from([x for x in range(1, m + 1) if m % x == 0]))
    Q = grid_spec(m, k, t).Q
    space = intertwiner_space(m, k, k, [(Q, Q, zeta_power(m, t))])
    coeffs = st.sampled_from([0, 1, -2, Fraction(1, 3), zeta_power(m, 1)])
    P = combination([draw(coeffs) for _ in space], space) or Matrix.zeros(m, k, k)
    small = st.integers(-2, 2)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(k)]
             for i in range(k)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(k)]
             for i in range(k)]
    g = _mat(m, lower) @ _mat(m, upper)
    ginv = g.inverse()
    return m, k, t, g @ P @ ginv, g @ Q @ ginv


@given(_rotation_data())
@settings(max_examples=40, deadline=None)
def test_operators_match_the_oracle_on_drawn_rotation_data(data):
    m, k, t, P, Q = data
    constructions._check_rotation_data(m, k, t, P, Q)
    _assert_operators_match_the_oracle(m, k, t, P, Q)


# -- the nonzero index each construction hands over ---------------------------


def _constructed_tables():
    out = {"ss_" + name: build_semisimple(spec).algebra
           for name, spec in ss_specs().items()}
    out.update(("ext_" + name, build_nilpotent_extension(spec).module.algebra)
               for name, spec in nilext_specs().items())
    out.update(("taft_%d" % m, _product_table(TaftAlgebra(m)))
               for m in range(2, 9))
    return out


def _same_entries(a, b):
    """Whether two algebras have the same integer entries: denominator,
    keys, and coefficient rows of one dtype."""
    (d1, k1, x1), (d2, k2, x2) = a._entries(), b._entries()
    return (d1 == d2 and np.array_equal(k1, k2) and x1.dtype == x2.dtype
            and x1.shape == x2.shape and np.array_equal(x1, x2))


def test_constructions_hand_over_the_nonzero_index_of_their_table():
    tables = _constructed_tables()
    assert len(tables) == 32 + 4 + 7
    for name, alg in tables.items():
        handed = alg._nz
        assert handed is not None, name
        # the constructor scans the table for its own index
        fresh = FinDimAlgebra(alg.m, alg.mult, alg.unit, validate=False,
                              autodetect_unit=False)
        assert handed == fresh._nonzero(), name
        assert _same_entries(alg, fresh), name
        (den, planes), (want_den, want) = alg._planes(), fresh._planes()
        assert den == want_den and np.array_equal(planes, want), name


def test_closed_form_matches_iterated_action():
    rng = random.Random(7)
    for name in ("pair_alpha_2", "sweedler_p_gamma3", "pair2_nilblock",
                 "grid_m3_k2_t3", "grid_m4_k2_t2"):
        spec = ss_specs()[name]
        _, _, v_op = semisimple_operators(spec.m, spec.k, spec.t,
                                          spec.P, spec.Q)
        for _ in range(5):
            blocks = tuple(
                _mat(spec.m, [[rng.randint(-3, 3) for _ in range(spec.k)]
                              for _ in range(spec.k)])
                for _ in range(spec.t))
            vec = blocks_to_vec(blocks)
            for ell in range(1, spec.m + 1):
                iterated = vec
                for _ in range(ell):
                    iterated = v_op.apply(iterated)
                closed = blocks_to_vec(
                    v_power_closed_form(spec, ell, blocks))
                assert closed == iterated, (name, ell)


def test_closed_form_range_checks():
    spec = ss_specs()["pair_alpha_1"]
    blocks = vec_to_blocks(2, 1, 2, (CycNum.one(2), CycNum.zero(2)))
    with pytest.raises(InputError, match="between 1 and"):
        v_power_closed_form(spec, 0, blocks)
    with pytest.raises(InputError, match="expected 2 blocks"):
        v_power_closed_form(spec, 1, blocks[:1])


def test_nonscalar_p_breaks_nilpotency():
    # the scalar-P^m condition is exactly what makes v_op^m vanish
    for m, k, t in ((2, 2, 2), (3, 2, 3), (4, 2, 4)):
        Q = Matrix.identity(m, k)
        P = mutate_p_nonscalar(m, k, t, Q)
        assert P is not None
        assert (P ** m).is_scalar() is None
        _, _, v_op = semisimple_operators(m, k, t, P, Q)
        assert not (v_op ** m).is_zero(), (m, k, t)
        with pytest.raises(InputError, match="scalar"):
            SemisimpleSpec(m=m, k=k, t=t, P=P, Q=Q)


def test_mutation_impossible_for_scalar_blocks():
    # k = 1 with t = m: the commutation constraint is vacuous but every
    # 1x1 matrix has scalar powers, so no mutation exists
    assert mutate_p_nonscalar(2, 1, 2, Matrix.identity(2, 1)) is None


def _listed_mutate_p_nonscalar(m, k, t, Q):
    """mutate_p_nonscalar as it listed its candidates before it took them
    from linalg.small_coefficients: the basis, every a + b and a + 2b of two
    basis elements, then the first 2000 points of the grid {0, 1, 2}^s."""
    space = intertwiner_space(m, k, k, [(Q, Q, zeta_power(m, t))])
    pairs = list(itertools.combinations(space, 2))
    grid = itertools.islice(itertools.product(range(3), repeat=len(space)), 2000)
    candidates = itertools.chain(
        space, (a + b for a, b in pairs), (a + b * 2 for a, b in pairs),
        (combination(coeffs, space) for coeffs in grid if any(coeffs)))
    return next((P for P in candidates if (P ** m).is_scalar() is None), None)


# the criterion-04 grid with each spec's Q, and the inputs above with Q = 1
MUTATION_INPUTS = (
    [pytest.param(m, k, t, grid_spec(m, k, t).Q, id="grid_m%d_k%d_t%d" % (m, k, t))
     for m in (2, 3, 4) for k in (1, 2, 3) for t in range(1, m + 1)
     if m % t == 0]
    + [pytest.param(m, k, m, Matrix.identity(m, k), id="one_m%d_k%d" % (m, k))
       for m, k in ((2, 2), (3, 2), (4, 2), (2, 1))])


@pytest.mark.parametrize("m,k,t,Q", MUTATION_INPUTS)
def test_mutation_matches_the_listed_candidates(m, k, t, Q):
    assert mutate_p_nonscalar(m, k, t, Q) == _listed_mutate_p_nonscalar(m, k, t, Q)


# -- isomorphism decisions --------------------------------------------------


def test_alpha_sign_flip_is_isomorphic():
    specs = ss_specs()
    w = iso_semisimple(specs["pair_alpha_1"], specs["pair_alpha_neg1"])
    assert w is not None
    assert w.r == 1
    assert w.beta == CycNum.one(2)


def test_distinct_alpha_not_isomorphic():
    specs = ss_specs()
    assert iso_semisimple(specs["pair_alpha_1"], specs["pair_alpha_2"]) is None
    assert iso_semisimple(specs["pair_alpha_0"], specs["pair_alpha_1"]) is None


def test_diag_vs_nilpotent_blocks_not_isomorphic():
    specs = ss_specs()
    assert iso_semisimple(specs["pair2_diag_1"], specs["pair2_nilblock"]) is None


def test_self_isomorphism_exists():
    for name in ("mat2_trivial", "sweedler_p_gamma3", "pair2_diag_1"):
        spec = ss_specs()[name]
        w = iso_semisimple(spec, spec)
        assert w is not None, name


def test_shape_mismatch_gives_none_conductor_mismatch_raises():
    specs = ss_specs()
    assert iso_semisimple(specs["pair_alpha_1"], specs["pair2_diag_1"]) is None
    with pytest.raises(InputError, match="conductor"):
        iso_semisimple(specs["pair_alpha_1"], ss_specs()["grid_m3_k1_t1"])


def test_witness_expands_to_module_isomorphism():
    from taftlab.hmodule import _verify_module_iso

    specs = ss_specs()
    s1, s2 = specs["pair2_diag_1"], specs["pair2_diag_neg1"]
    w = iso_semisimple(s1, s2)
    assert w is not None
    big = iso_block_map(s1, w.T, w.r)
    _verify_module_iso(build_semisimple(s1), build_semisimple(s2), big)


# -- automorphism pairs ------------------------------------------------------


def test_aut_pair_validation():
    spec = ss_specs()["pair2_diag_1"]
    one, zero = CycNum.one(2), CycNum.zero(2)
    swap = Matrix(2, ((zero, one), (one, zero)))
    with pytest.raises(InputError, match="singular"):
        aut_pair(spec, Matrix.zeros(2, 2, 2), 0)
    with pytest.raises(InputError, match="0 <= r < t"):
        aut_pair(spec, swap, 2)
    # swap conjugates diag(1,-1) to its negative: valid only with r = 1
    with pytest.raises(InputError, match="P = zeta"):
        aut_pair(spec, swap, 0)
    g = aut_pair(spec, swap, 1)
    assert g.r == 1


def test_aut_group_laws_with_wrap():
    spec = ss_specs()["pair2_diag_1"]
    one, zero = CycNum.one(2), CycNum.zero(2)
    g = aut_pair(spec, Matrix(2, ((zero, one), (one, zero))), 1)
    h = aut_pair(spec, Matrix(2, ((one, zero), (zero, one + one))), 0)
    e = aut_identity(spec)

    assert aut_compose(spec, g, e) == g
    assert aut_compose(spec, e, g) == g
    # r + r = 2 wraps past t = 2, landing back at offset 0
    assert aut_compose(spec, g, g) == e
    assert aut_compose(spec, g, aut_inverse(spec, g)) == e
    assert aut_compose(spec, aut_inverse(spec, h), h) == e
    # associativity on a mixed word
    lhs = aut_compose(spec, aut_compose(spec, g, h), g)
    rhs = aut_compose(spec, g, aut_compose(spec, h, g))
    assert lhs == rhs


def test_aut_module_map_is_a_homomorphism_of_the_group():
    spec = ss_specs()["pair2_diag_1"]
    one, zero = CycNum.one(2), CycNum.zero(2)
    g = aut_pair(spec, Matrix(2, ((zero, one), (one, zero))), 1)
    h = aut_pair(spec, Matrix(2, ((one, zero), (zero, one + one))), 0)
    Mg, Mh = aut_module_map(spec, g), aut_module_map(spec, h)
    assert aut_module_map(spec, aut_compose(spec, g, h)) == Mg @ Mh
    # and each map is an actual automorphism of the module algebra
    from taftlab.hmodule import _verify_module_iso
    mod = build_semisimple(spec)
    _verify_module_iso(mod, mod, Mg)
    _verify_module_iso(mod, mod, Mh)


def test_projective_normalization_collapses_scalars():
    spec = ss_specs()["pair2_diag_1"]
    one, zero = CycNum.one(2), CycNum.zero(2)
    swap = Matrix(2, ((zero, one), (one, zero)))
    scaled = swap * CycNum.rational(2, 5)
    assert aut_pair(spec, swap, 1) == aut_pair(spec, scaled, 1)


# -- nilpotent extensions ----------------------------------------------------


def test_extension_layer_structure():
    for name, spec in nilext_specs().items():
        ext = build_nilpotent_extension(spec)
        m, d = spec.m, ext.layer_dim
        assert d == spec.B.dim
        assert ext.module.algebra.dim == m * d
        assert ext.radical_span().dim == (m - 1) * d
        for i in range(m):
            assert ext.layer(i).dim == d
        # v maps layer i+1 onto layer i and kills layer 0
        v = ext.module.v_op
        for i in range(m):
            for b in ext.layer(i).basis:
                img = v.apply(b)
                if i == 0:
                    assert all(x.is_zero() for x in img)
                else:
                    assert ext.layer(i - 1).contains(img)


def test_extension_radical_and_quotient():
    spec = nilext_specs()["base_mat2_elem_m2"]
    ext = build_nilpotent_extension(spec)
    A = ext.module.algebra
    rad = jacobson_radical(A)
    assert rad == ext.radical_span()
    assert nilpotency_index(A, rad) == spec.m
    q, _ = quotient_algebra(A, rad)
    assert q.dim == spec.B.dim
    assert jacobson_radical(q).dim == 0


def test_extension_spec_rejects_non_graded_simple_base():
    # F + F with everything in degree zero has the graded ideal F + 0
    B = direct_sum(field_algebra(2), field_algebra(2))
    with pytest.raises(InputError, match="graded-simple"):
        NilpotentExtensionSpec(m=2, B=B, grading=trivial_grading(B))


def test_extension_spec_rejects_non_unital_base():
    from taftlab.algebra_core import FinDimAlgebra
    zero = CycNum.zero(2)
    B = FinDimAlgebra(2, (((zero,),),))
    with pytest.raises(InputError, match="unital"):
        NilpotentExtensionSpec(m=2, B=B, grading=trivial_grading(B))


def test_certificate_none_for_graded_non_simple():
    B = direct_sum(field_algebra(2), field_algebra(2))
    assert certify_graded_simple(B, trivial_grading(B)) is None
    assert certify_graded_simple(matrix_algebra(2, 2),
                                 trivial_grading(matrix_algebra(2, 2))) is not None


# -- structure recovery -------------------------------------------------------


def test_recover_round_trips_the_build():
    for name, spec in nilext_specs().items():
        ext = build_nilpotent_extension(spec)
        rec = recover_structure(ext.module)
        assert rec.nil_index == spec.m, name
        assert rec.b_algebra.dim == spec.B.dim, name
        assert rec.spec.m == spec.m
        # the returned iso was verified inside; replay the intertwining
        T = rec.iso
        assert T @ rec.rebuilt.module.c_op == ext.module.c_op @ T
        assert T @ rec.rebuilt.module.v_op == ext.module.v_op @ T


def test_recover_grading_dims_match():
    spec = nilext_specs()["base_mat2_elem_m3"]
    ext = build_nilpotent_extension(spec)
    rec = recover_structure(ext.module)
    assert sorted(rec.b_grading.dims) == sorted(spec.grading.dims)


def test_recover_rejects_semisimple_input():
    mod = build_semisimple(ss_specs()["mat2_trivial"])
    with pytest.raises(InputError, match="semisimple"):
        recover_structure(mod)


def test_recover_rejects_non_simple_input():
    from taftlab.fixtures import trivial_action

    # jet algebra with trivial action: radical nonzero, but not H-simple
    zero, one = CycNum.zero(2), CycNum.one(2)
    from taftlab.algebra_core import FinDimAlgebra
    B = FinDimAlgebra(2, (
        ((one, zero), (zero, one)),
        ((zero, one), (zero, zero)),
    ))
    with pytest.raises(InputError, match="not certified H-simple"):
        recover_structure(trivial_action(B))


# -- grid ---------------------------------------------------------------------


def test_grid_specs_are_valid_and_nontrivial():
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            for t in (x for x in (1, 2, 3, 4) if m % x == 0):
                spec = grid_spec(m, k, t)
                assert spec.dim == t * k * k
                if k > 1:
                    assert not spec.P.is_zero(), (m, k, t)


@given(st.sampled_from([(2, 2, 2), (3, 2, 3), (2, 2, 1), (4, 2, 2)]))
@settings(max_examples=8, deadline=None)
def test_grid_operators_verify(shape):
    m, k, t = shape
    mod = build_semisimple(grid_spec(m, k, t))
    assert hma_verify(mod).ok
