"""Acceptance battery: one test per contract criterion, exact arithmetic
throughout, zero tolerances.

Each test is self-contained and re-derives what it checks rather than
trusting intermediate layers; `pytest -v` prints one pass/fail line per
criterion.
"""

import math
import random
import time

import pytest

from taftlab.algebra_core import (
    direct_sum,
    field_algebra,
    jacobson_radical,
    matrix_algebra,
    quotient_algebra,
)
from taftlab.constructions import (
    AutPair,
    SemisimpleSpec,
    aut_compose,
    aut_identity,
    aut_inverse,
    aut_module_map,
    aut_pair,
    blocks_to_vec,
    build_nilpotent_extension,
    build_semisimple,
    grid_spec,
    iso_block_map,
    iso_semisimple,
    mutate_p_nonscalar,
    normalize_projective,
    recover_structure,
    semisimple_operators,
    v_power_closed_form,
)
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.fixtures import (
    negative_modules,
    nilext_specs,
    positive_modules,
    ss_specs,
    sweedler_two_dim,
    trivial_action,
)
from taftlab.hmodule import (
    CertifiedSimple,
    NotSimple,
    hma_verify,
    is_h_simple,
    verify_invariant_ideal,
)
from taftlab.identities import codimension
from taftlab.linalg import Matrix
from taftlab.qcombinatorics import q_binom
from taftlab.taft_hopf import TaftAlgebra, hopf_verify_axioms

GRID = [(m, k, t)
        for m in (2, 3, 4)
        for k in (1, 2, 3)
        for t in (1, 2, 3, 4)
        if t <= m and m % t == 0]


def _rand_blocks(rng, m, k, t):
    return tuple(
        Matrix(m, tuple(tuple(CycNum.rational(m, rng.randint(-3, 3))
                              for _ in range(k)) for _ in range(k)))
        for _ in range(t))


def test_criterion_01_hopf_axioms_exhaustive():
    start = time.perf_counter()
    for m in (2, 3, 4, 5, 6):
        report = hopf_verify_axioms(TaftAlgebra(m))
        assert report.ok, (m, report.failures)
        assert report.coassociativity and report.counit
        assert report.bialgebra and report.antipode
    assert time.perf_counter() - start < 5.0


def test_criterion_02_module_algebra_fixtures():
    specs = ss_specs()
    examples = ["mat2_trivial", "mat2_graded_v0", "sweedler_p_gamma3",
                "pair_alpha_1", "pair_alpha_neg1", "pair_alpha_2",
                "pair_alpha_0"]
    for name in examples:
        report = hma_verify(build_semisimple(specs[name]))
        assert report.ok, (name, report.failed())
    report = hma_verify(sweedler_two_dim())
    assert report.ok, report.failed()


def test_criterion_03_closed_form_matches_iterated_action():
    rng = random.Random(20260819)
    for m, k, t in GRID:
        spec = grid_spec(m, k, t)
        _, _, v_op = semisimple_operators(m, k, t, spec.P, spec.Q)
        for _ in range(20):
            blocks = _rand_blocks(rng, m, k, t)
            vec = blocks_to_vec(blocks)
            iterated = vec
            for ell in range(1, m + 1):
                iterated = v_op.apply(iterated)
                closed = blocks_to_vec(v_power_closed_form(spec, ell, blocks))
                assert closed == iterated, (m, k, t, ell)


def test_criterion_04_scalar_p_power_forces_nilpotency():
    for m, k, t in GRID:
        spec = grid_spec(m, k, t)
        _, _, v_op = semisimple_operators(m, k, t, spec.P, spec.Q)
        assert (v_op ** m).is_zero(), (m, k, t)

        mutated = mutate_p_nonscalar(m, k, t, spec.Q)
        if mutated is None:
            continue
        assert (mutated ** m).is_scalar() is None
        _, _, bad_v = semisimple_operators(m, k, t, mutated, spec.Q)
        assert not (bad_v ** m).is_zero(), (m, k, t)


def test_criterion_05_q_binomial_vanishing_and_pascal():
    for m in range(2, 7):
        q = zeta_power(m, -1)
        for j in range(1, m):
            assert q_binom(m, j, q).is_zero(), (m, j)
        assert q_binom(m, 0, q) == CycNum.one(m)
        assert q_binom(m, m, q) == CycNum.one(m)
        # q-Pascal on the zeta_m grid up to n = 2m
        z = zeta_power(m, 1)
        for n in range(1, 2 * m + 1):
            for k in range(1, n):
                lhs = q_binom(n, k, z)
                rhs = q_binom(n - 1, k - 1, z) + \
                    (z ** k) * q_binom(n - 1, k, z)
                assert lhs == rhs, (m, n, k)


def test_criterion_06_simplicity_certificates_corpus():
    verdicts = {}
    for name, mod in positive_modules().items():
        verdicts[name] = verdict = is_h_simple(mod)
        assert isinstance(verdict, CertifiedSimple), (name, verdict)
        assert verdict.operator_algebra_dim == mod.algebra.dim ** 2
    for name, mod in negative_modules().items():
        verdict = is_h_simple(mod)
        assert isinstance(verdict, NotSimple), (name, verdict)
        assert verdict.witness is not None
        assert 0 < verdict.witness.dim < mod.algebra.dim
        assert verify_invariant_ideal(mod, verdict.witness), name
    # zero Inconclusive anywhere on the corpus
    assert all(isinstance(v, CertifiedSimple) for v in verdicts.values())


def test_criterion_07_isomorphism_verdicts():
    specs = ss_specs()

    def check_witness(s1, s2, w):
        tinv = w.T.inverse()
        assert s2.P == (w.T @ s1.P @ tinv) * zeta_power(s1.m, w.r)
        assert s2.Q == (w.T @ s1.Q @ tinv) * w.beta

    # alpha and -alpha: isomorphic, witness re-verified by conjugation
    for a, b in [("pair_alpha_1", "pair_alpha_neg1"),
                 ("pair2_diag_1", "pair2_diag_neg1")]:
        w = iso_semisimple(specs[a], specs[b])
        assert w is not None, (a, b)
        check_witness(specs[a], specs[b], w)

    # distinct |alpha|: no isomorphism
    assert iso_semisimple(specs["pair_alpha_1"], specs["pair_alpha_2"]) is None
    assert iso_semisimple(specs["pair_alpha_0"], specs["pair_alpha_1"]) is None
    assert iso_semisimple(specs["pair2_diag_1"], specs["pair2_diag_2"]) is None

    # diagonal P versus nilpotent-block P: never isomorphic
    assert iso_semisimple(specs["pair2_diag_1"], specs["pair2_nilblock"]) is None
    assert iso_semisimple(specs["pair2_diag_neg1"],
                          specs["pair2_nilblock"]) is None


def test_criterion_08_structure_recovery_round_trip():
    for name, spec in nilext_specs().items():
        m = spec.m
        ext = build_nilpotent_extension(spec)
        rec = recover_structure(ext.module)

        # recovered base is graded-isomorphic to the input base: the
        # layer-0 inclusion is bijective, multiplicative, unital, and
        # degree-preserving
        B = spec.B
        d = B.dim
        A = ext.module.algebra
        imgs = [rec.b_space.coords(A.basis_vector(s)) for s in range(d)]
        assert all(im is not None for im in imgs)
        img_mat = Matrix(m, tuple(tuple(imgs[j][i] for j in range(d))
                                  for i in range(d)))
        img_mat.inverse()  # bijective on the base

        hom = list(ext.hom_basis)
        cob = Matrix(m, tuple(tuple(hom[j][i] for j in range(d))
                              for i in range(d)))
        cob_inv = cob.inverse()

        def push(coords):
            out = tuple(CycNum.zero(m) for _ in range(d))
            for w, cw in enumerate(coords):
                out = tuple(x + cw * y for x, y in zip(out, imgs[w]))
            return out

        bq = rec.b_algebra
        for s in range(d):
            for u in range(d):
                prod_hom = cob_inv.apply(B.multiply(hom[s], hom[u]))
                assert bq.multiply(imgs[s], imgs[u]) == push(prod_hom), name
        assert push(cob_inv.apply(B.unit)) == tuple(bq.unit), name
        for s, deg in enumerate(ext.degrees):
            assert rec.b_grading.components[deg % m].contains(imgs[s]), name

        # the q-binomial product law on the recovered layers, re-derived
        # here from phi and the recovered grading
        from taftlab.qcombinatorics import QBinomTable

        qtable = QBinomTable.build(zeta_power(m, 1), bound=2 * m)
        phi_pows = [Matrix.identity(m, A.dim)]
        for _ in range(m):
            phi_pows.append(rec.phi @ phi_pows[-1])
        hom_vecs = []
        for deg, coords in rec.b_grading.degree_of_basis():
            vec = tuple(
                sum((coords[j] * rec.b_space.basis[j][i] for j in range(d)),
                    CycNum.zero(m)) for i in range(A.dim))
            hom_vecs.append((deg, vec))
        zero_vec = tuple(CycNum.zero(m) for _ in range(A.dim))
        for p in range(m):
            for ell in range(m):
                for deg_a, avec in hom_vecs:
                    pa = phi_pows[p].apply(avec)
                    for _, bvec in hom_vecs:
                        lhs = A.multiply(pa, phi_pows[ell].apply(bvec))
                        if p + ell >= m:
                            assert lhs == zero_vec, (name, p, ell)
                        else:
                            coeff = qtable.value(p + ell, p) * \
                                zeta_power(m, ell * deg_a)
                            rhs = tuple(coeff * x for x in phi_pows[p + ell]
                                        .apply(A.multiply(avec, bvec)))
                            assert lhs == rhs, (name, p, ell)


def test_criterion_09_radical_two_ways_and_quotient():
    for name, spec in nilext_specs().items():
        ext = build_nilpotent_extension(spec)
        A = ext.module.algebra
        m, d = spec.m, ext.layer_dim

        # trace-form kernel against the known layer span
        rad = jacobson_radical(A)
        assert rad == ext.radical_span(), name

        # A / J(A) is isomorphic to B via the layer-0 projection
        q, project = quotient_algebra(A, rad)
        assert q.dim == d
        imgs = [project(A.basis_vector(s)) for s in range(d)]
        img_mat = Matrix(m, tuple(tuple(imgs[j][i] for j in range(d))
                                  for i in range(d)))
        img_mat.inverse()  # linear bijection B -> A/J

        hom = list(ext.hom_basis)
        cob = Matrix(m, tuple(tuple(hom[j][i] for j in range(d))
                              for i in range(d)))
        cob_inv = cob.inverse()
        B = spec.B

        def push(coords):
            out = tuple(CycNum.zero(m) for _ in range(d))
            for w, cw in enumerate(coords):
                out = tuple(x + cw * y for x, y in zip(out, imgs[w]))
            return out

        for s in range(d):
            for u in range(d):
                prod_hom = cob_inv.apply(B.multiply(hom[s], hom[u]))
                assert q.multiply(imgs[s], imgs[u]) == push(prod_hom), name
        assert push(cob_inv.apply(B.unit)) == tuple(q.unit), name


def test_criterion_10_codimension_desk_scale():
    start = time.perf_counter()
    specs = ss_specs()

    # c_1 = 3 for the 2-dim algebra, confirmed by both rank backends
    sw = sweedler_two_dim()
    r_auto = codimension(sw, 1, backend="auto")
    r_exact = codimension(sw, 1, backend="exact")
    assert r_auto.value == r_exact.value == 3
    assert r_exact.method == "exact-echelon"
    assert r_auto.method != r_exact.method  # genuinely independent paths

    # the (dim A)^{n+1} evaluation-rank bound on every computed pair;
    # small algebras to degree 4, the 4-dim ones to degree 3 (n = 4 at
    # dim 4 takes seconds: c_4 = 460 for sweedler_p_gamma3 in 2.6 s on a
    # 2-CPU Xeon host)
    suite = [(sw, 4), (build_semisimple(specs["pair_alpha_1"]), 4),
             (build_semisimple(specs["pair_alpha_neg1"]), 4),
             (build_semisimple(specs["mat2_trivial"]), 3),
             (build_semisimple(specs["sweedler_p_gamma3"]), 3)]
    values = {}
    for idx, (mod, n_max) in enumerate(suite):
        dim = mod.algebra.dim
        for n in range(1, n_max + 1):
            res = codimension(mod, n)
            assert res.value <= dim ** (n + 1), (idx, n)
            assert res.matrix_shape[0] == math.factorial(n) * (mod.m ** 2) ** n
            values[(idx, n)] = res.value

    # isomorphic pair (alpha = 1 vs alpha = -1) has identical codimensions
    for n in range(1, 5):
        assert values[(1, n)] == values[(2, n)], n

    assert time.perf_counter() - start < 120.0


def test_criterion_11_automorphism_group_law():
    specs = ss_specs()
    one2, zero2 = CycNum.one(2), CycNum.zero(2)

    # three specs, each with a sampled set of valid pairs
    samples = []

    diag = specs["pair2_diag_1"]
    swap = Matrix(2, ((zero2, one2), (one2, zero2)))
    stretch = Matrix(2, ((one2, zero2), (zero2, one2 + one2)))
    samples.append((diag, [aut_pair(diag, swap, 1),
                           aut_pair(diag, stretch, 0)]))

    # the only projective classes commuting with this P and Q-compatible
    # are E and P itself
    gamma = specs["sweedler_p_gamma3"]
    samples.append((gamma, [aut_pair(gamma, gamma.P, 0),
                            aut_identity(gamma)]))

    # t = 2 with a nontrivial Q, so the wrap branch multiplies by Q^{-1}
    m4 = 4
    one4 = CycNum.one(m4)
    zero4 = CycNum.zero(m4)
    i4 = zeta_power(m4, 1)
    Q4 = Matrix(m4, ((one4, zero4), (zero4, -one4)))
    P4 = Matrix(m4, ((zero4, one4), (zero4, zero4)))
    wrap_spec = SemisimpleSpec(m=m4, k=2, t=2, P=P4, Q=Q4)
    T4 = Matrix(m4, ((one4, zero4), (zero4, i4)))
    g4 = aut_pair(wrap_spec, T4, 1)
    samples.append((wrap_spec, [g4, aut_identity(wrap_spec)]))

    for spec, pairs in samples:
        e = aut_identity(spec)
        for g in pairs:
            assert aut_compose(spec, g, e) == g
            assert aut_compose(spec, e, g) == g
            assert aut_compose(spec, g, aut_inverse(spec, g)) == e
            assert aut_compose(spec, aut_inverse(spec, g), g) == e
        for g in pairs:
            for h in pairs:
                gh = aut_compose(spec, g, h)
                # closure: the composite is again a valid pair, and its
                # module map is the composition of module maps
                assert aut_module_map(spec, gh) == \
                    aut_module_map(spec, g) @ aut_module_map(spec, h)
                for f in pairs:
                    assert aut_compose(spec, aut_compose(spec, f, g), h) == \
                        aut_compose(spec, f, aut_compose(spec, g, h))

    # the wrapping branch follows the explicit Q-correction formula
    wrapped = aut_compose(wrap_spec, g4, g4)
    expected = AutPair(
        tbar=normalize_projective(T4 @ T4 @ wrap_spec.Q.inverse()),
        r=0)
    assert wrapped == expected
    assert wrapped == aut_identity(wrap_spec)
