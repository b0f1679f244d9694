"""The normal-form operator rank against the word spin it replaced.

hmodule.operator_span_dim and constructions.certify_graded_simple rank
span{L' R' h} in blocks on linalg.ModpEchelon.insert_block.  The oracles
here are the breadth-first word spins they replaced, over F_p on the old
re-stacking echelon and exactly on EchelonBasis, together with the prime
logic: a short span's exact dim is certified at the first usable prime or,
with certificates switched off, reached by the exact fallback.  So
dimensions and method strings are compared as the `simple` command prints
them.
"""

import json
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab.algebra_core import (FinDimAlgebra, GradingDecomposition,
                                  _table_modp, direct_sum, field_algebra,
                                  matrix_algebra, trivial_grading)
from taftlab.cli import main
from taftlab.constructions import certify_graded_simple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import nilext_specs, sweedler_two_dim, trivial_action
from taftlab import hmodule
from taftlab.hmodule import (CertifiedSimple, HModuleAlgebra, NotSimple,
                             _normal_form_dim, _normal_form_exact,
                             taft_monomials, hma_verify,
                             is_h_simple, operator_span_dim)
from taftlab.linalg import (EchelonBasis, Matrix, ModpEchelon,
                            ModReductionError, Subspace, matrix_to_modp,
                            modular_prime, rank_mod_p, root_of_unity_mod)
from taftlab.serialize import dumps_canonical, hma_to_json
from test_law_checks import (DENSE_COPIES, _change_basis, _corpus,
                             _dense_copy, _random_modules)
from test_linalg import gauss_det


# -- the oracles: the word spins operator_span_dim ran before ------------------


class _StackedEchelon:
    """The incremental F_p echelon the spin used: one np.vstack per row."""

    def __init__(self, ncols, p):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivcols = []

    @property
    def dim(self):
        return len(self.pivcols)

    def insert(self, vec):
        v = vec % self.p
        if self.pivcols:
            coeffs = v[self.pivcols]
            if coeffs.any():
                v = (v - coeffs @ self.rows) % self.p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), self.p - 2, self.p)) % self.p
        if self.dim:
            col = self.rows[:, piv].copy()
            mask = np.nonzero(col)[0]
            if mask.size:
                self.rows[mask] = (self.rows[mask]
                                   - np.outer(col[mask], v)) % self.p
        self.rows = np.vstack([self.rows, v[None, :]])
        self.pivcols.append(piv)
        return True


def _spin_dim_modp(gens, n, m, p):
    """Dimension of the span of all words in gens (with identity) over F_p."""
    w = root_of_unity_mod(m, p)
    gmods = [matrix_to_modp(g, p, w) for g in gens]
    eb = _StackedEchelon(n * n, p)
    ident = np.eye(n, dtype=np.int64)
    eb.insert(ident.reshape(-1))
    queue = [ident]
    while queue:
        word = queue.pop()
        for g in gmods:
            prod = (word @ g) % p
            if eb.insert(prod.reshape(-1)):
                queue.append(prod)
                if eb.dim == n * n:
                    return eb.dim
    return eb.dim


def _spin_dim_exact(gens, n, m):
    eb = EchelonBasis(m, n * n)
    ident = Matrix.identity(m, n)

    def flat(mat):
        return tuple(x for row in mat.rows for x in row)

    eb.insert(flat(ident))
    queue = [ident]
    while queue:
        word = queue.pop()
        for g in gens:
            prod = word @ g
            if eb.insert(flat(prod)):
                queue.append(prod)
                if eb.dim == n * n:
                    return eb.dim
    return eb.dim


def _spin_span_dim(gens, n, m, certify=True):
    """operator_span_dim on a raw generator list: a full modular spin as it
    was, and a short one at its exact dim, certified at the first prime
    that reduces the generators or else ranked exactly."""
    first = None
    for skip in range(3):
        p = modular_prime(m, skip)
        try:
            d = _spin_dim_modp(gens, n, m, p)
        except ModReductionError:
            continue
        if d == n * n:
            return (d, "operator span mod p=%d" % p)
        first = p
        break
    if certify and first is not None:
        return (_spin_dim_exact(gens, n, m),
                "operator span, certified(p=%d)" % first)
    return (_spin_dim_exact(gens, n, m), "operator span, exact")


def _action_generators(mod):
    A = mod.algebra
    return ([A.left_mult_basis(i) for i in range(A.dim)]
            + [A.right_mult_basis(i) for i in range(A.dim)]
            + [mod.c_op, mod.v_op])


@contextmanager
def _certificates(allowed):
    """Inside the with block, hmodule finds no certificate unless allowed,
    so a short span takes the exact fallback."""
    with pytest.MonkeyPatch.context() as mp:
        if not allowed:
            mp.setattr(hmodule, "certified_rank", lambda *a, **k: None)
        yield


def _first_prime_only(method):
    """A certified method with the later primes dropped: how many primes the
    reconstruction takes is not the spin's to say."""
    return re.sub(r"(certified\(p=\d+)(,\d+)*\)", r"\1)", method)


def _assert_matches_spin(mod, certify=True):
    n, m = mod.algebra.dim, mod.m
    with _certificates(certify):
        got = operator_span_dim(mod)
    assert (got[0], _first_prime_only(got[1])) == \
        _spin_span_dim(_action_generators(mod), n, m, certify)
    return got


# -- module algebras ----------------------------------------------------------

# the word spin takes about 12 s at dim 27 and over a minute at dim 36;
# there the normal form is full, and span{L' R' c^s v^k} lies inside the
# spin's span, so a full normal form is the spin's answer too
SPIN_MAX_DIM = 18


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_corpus_matches_the_spin(name):
    mod = _corpus()[name]
    n = mod.algebra.dim
    if n > SPIN_MAX_DIM:
        d, method = operator_span_dim(mod)
        assert d == n * n
        assert method == "operator span mod p=%d" % modular_prime(mod.m)
        return
    d, method = _assert_matches_spin(mod)
    # the certified rank and the exact fallback agree with the spin too
    if d < n * n:
        _assert_matches_spin(mod, certify=False)
    elif n <= 4:
        assert _normal_form_exact_dim(mod) == n * n


def _normal_form_exact_dim(mod):
    """The exact normal-form rank, which operator_span_dim only reaches
    after a short modular rank."""
    A, m, n = mod.algebra, mod.m, mod.algebra.dim
    hs = taft_monomials((mod.c_op, mod.v_op), Matrix.__matmul__,
                         Matrix.identity(m, n), m)
    return _normal_form_exact([A.left_mult_basis(i) for i in range(n)],
                              [A.right_mult_basis(i) for i in range(n)],
                              hs, n, m)


@pytest.mark.parametrize("name,kind", DENSE_COPIES)
def test_dense_copies_match_the_spin(name, kind):
    mod = _dense_copy(name, kind)
    d, _ = _assert_matches_spin(mod)
    # dim O does not depend on the basis
    assert d == operator_span_dim(_corpus()[name])[0]


def _small_modules():
    return {name: mod for name, mod in _corpus().items()
            if mod.algebra.dim <= 4}


def _module_sum(a, b):
    """a + b with block-diagonal c and v: a module algebra whenever a and b
    are, and never H-simple."""
    def block(x, y):
        zero = CycNum.zero(x.m)
        rows = [tuple(r) + (zero,) * y.ncols for r in x.rows]
        rows += [(zero,) * x.ncols + tuple(r) for r in y.rows]
        return Matrix(x.m, tuple(rows))

    return HModuleAlgebra(hopf=a.hopf,
                          algebra=direct_sum(a.algebra, b.algebra),
                          c_op=block(a.c_op, b.c_op),
                          v_op=block(a.v_op, b.v_op))


@st.composite
def _lawful_modules(draw):
    """Small corpus modules, maybe summed with a second one of the same m,
    with v scaled by a scalar (0 included) and the basis changed by a random
    integer matrix: each step keeps the laws."""
    small = _small_modules()
    name = draw(st.sampled_from(sorted(small)))
    mod = small[name]
    partners = sorted(k for k, x in small.items()
                      if x.m == mod.m and x.algebra.dim + mod.algebra.dim <= 5)
    if partners and draw(st.booleans()):
        mod = _module_sum(mod, small[draw(st.sampled_from(partners))])
    m, n = mod.m, mod.algebra.dim
    scale = draw(st.sampled_from([1, 1, 0, -1, 2])) * \
        zeta_power(m, draw(st.integers(0, m - 1)))
    mod = HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra, c_op=mod.c_op,
                         v_op=mod.v_op * scale)
    entries = st.integers(-2, 2)
    t = Matrix.from_rows(m, [[draw(entries) for _ in range(n)]
                             for _ in range(n)])
    if gauss_det(t).is_zero():
        t = Matrix.identity(m, n)
    return _change_basis(mod, t)


@given(_lawful_modules())
@settings(max_examples=40, deadline=None)
def test_lawful_perturbed_modules_match_the_spin(mod):
    assert hma_verify(mod).ok
    d, _ = _assert_matches_spin(mod)
    if d < mod.algebra.dim ** 2:
        _assert_matches_spin(mod, certify=False)


def test_scaling_v_to_zero_shortens_the_span():
    # with v = 0 the sweedler algebra's operators are lower triangular in
    # the basis (1, w): the invariant ideal Fw keeps the span at 3 of 4
    mod = sweedler_two_dim()
    flat = HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra, c_op=mod.c_op,
                          v_op=Matrix.zeros(2, 2, 2))
    assert _assert_matches_spin(flat) == \
        (3, "operator span, certified(p=%d)" % modular_prime(2))
    assert _assert_matches_spin(flat, certify=False) == \
        (3, "operator span, exact")


# -- the mod-p L and R stacks ---------------------------------------------------


def _stacks_by_entry(A, p, w):
    """The L(e_i) and R(e_i) stacks as operator_span_dim reduced them before
    it read the integer table: every entry through cyc_to_modp."""
    return ([matrix_to_modp(A.left_mult_basis(i), p, w) for i in range(A.dim)],
            [matrix_to_modp(A.right_mult_basis(i), p, w)
             for i in range(A.dim)])


def _assert_table_matches(A, p, w):
    """True when both reductions give the same stacks, False when both
    refuse the prime."""
    try:
        lefts, rights = _stacks_by_entry(A, p, w)
    except ModReductionError:
        with pytest.raises(ModReductionError):
            _table_modp(A, p, w)
        return False
    table = _table_modp(A, p, w)
    assert table.dtype == np.int64
    assert np.array_equal(table.transpose(0, 2, 1), np.array(lefts))
    assert np.array_equal(table.transpose(1, 2, 0), np.array(rights))
    return True


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _assert_tables_match(A):
    """Over the three primes operator_span_dim tries (the first never fails
    on these) and small primes, some of which divide a denominator; returns
    the small primes refused."""
    for skip in range(3):
        p = modular_prime(A.m, skip)
        assert _assert_table_matches(A, p, root_of_unity_mod(A.m, p))
    return [q for q in SMALL_PRIMES if not _assert_table_matches(A, q, 2 % q)]


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_corpus_tables_match_the_entrywise_reduction(name):
    assert _assert_tables_match(_corpus()[name].algebra) == []


def test_dense_tables_match_the_entrywise_reduction():
    refused = [_assert_tables_match(_dense_copy(name, kind).algebra)
               for name, kind in DENSE_COPIES]
    # the rational copies' denominators make some small primes unusable
    assert any(refused) and not all(refused)


@given(_random_modules())
@settings(max_examples=100, deadline=None)
def test_random_tables_match_the_entrywise_reduction(drawn):
    m, table, _, _ = drawn
    _assert_tables_match(FinDimAlgebra(m, table, validate=False,
                                       autodetect_unit=False))


# -- graded bases ---------------------------------------------------------------


def _graded_dim(B, grading, certify=True):
    with _certificates(certify):
        return _normal_form_dim(
            B, grading.projectors(), lambda gens, mul, one: list(gens),
            lambda: None)


def _graded_spin(B, grading, certify=True):
    gens = ([B.left_mult_basis(i) for i in range(B.dim)]
            + [B.right_mult_basis(i) for i in range(B.dim)]
            + grading.projectors())
    return _spin_span_dim(gens, B.dim, B.m, certify)


def _graded_cases():
    cases = {name: (spec.B, spec.grading)
             for name, spec in nilext_specs().items()}
    # short spans: a sum of fields, and M_2 with the trivial grading
    sums = direct_sum(field_algebra(3), field_algebra(3))
    cases["sum_trivial"] = (sums, trivial_grading(sums))
    mat2 = matrix_algebra(2, 2)
    cases["mat2_trivial"] = (mat2, trivial_grading(mat2))
    return cases


@pytest.mark.parametrize("name", sorted(_graded_cases()))
def test_graded_form_matches_the_spin(name):
    B, grading = _graded_cases()[name]
    got = _graded_dim(B, grading)
    assert got == _graded_spin(B, grading)
    cert = certify_graded_simple(B, grading)
    if got[0] == B.dim ** 2:
        assert (cert.operator_algebra_dim, cert.method) == got
    else:
        assert cert is None
        assert _graded_dim(B, grading, False) == \
            _graded_spin(B, grading, False)


def test_graded_short_span_rechecks_the_grading():
    B, _ = _graded_cases()["sum_trivial"]
    # e_0 in degree 1 of F + F, so the idempotent e_0 e_0 = e_0 would have
    # to lie in degree 2; the span of L, R and the projectors is diagonal
    one, zero = CycNum.one(3), CycNum.zero(3)
    comps = (Subspace.from_vectors(3, 2, [(zero, one)]),
             Subspace.from_vectors(3, 2, [(one, zero)]),
             Subspace.from_vectors(3, 2, []))
    bad = GradingDecomposition(m=3, ambient=2, components=comps)
    assert bad.verify_multiplication(B) is not None
    with pytest.raises(InputError, match="grading incompatible"):
        certify_graded_simple(B, bad)


# -- the block kernel -------------------------------------------------------------


def sweep_rank_mod_p(a, p):
    """The column sweep rank_mod_p replaced: forward elimination column by
    column, swapping a pivot row up and clearing the rows below it."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rest = a[r + 1:, col]
        mask = np.nonzero(rest)[0]
        if mask.size:
            a[r + 1 + mask] = (a[r + 1 + mask] - np.outer(rest[mask], a[r])) % p
        r += 1
    return r


@st.composite
def _blocks(draw):
    p = draw(st.sampled_from([2, 3, 7, 101, modular_prime(4)]))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "tall", "wide"]))
    if kind == "tall":
        k, w = draw(st.integers(30, 120)), draw(st.integers(1, 20))
        r = draw(st.integers(0, min(4, w)))
    elif kind == "wide":
        k, w = draw(st.integers(1, 6)), draw(st.integers(40, 300))
        r = draw(st.integers(0, k))
    else:
        k, w = draw(st.integers(1, 40)), draw(st.integers(1, 30))
        r = 0 if kind == "zero" else draw(st.integers(0, min(k, w)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (k, r)) @ rng.integers(0, 3, (r, w)) if r else \
        np.zeros((k, w), dtype=np.int64)
    if kind == "sparse":
        # sparse rows touch few pivot columns, so few basis rows reduce them
        a = a * (rng.random((k, w)) < 0.15)
    cuts = sorted(draw(st.lists(st.integers(0, k), max_size=4)))
    return p, a % p, cuts


def _assert_reduced(eb):
    rows = eb.rows
    piv = eb.pivcols
    assert len(set(piv)) == len(piv)
    assert (rows[:, piv] == np.eye(len(piv), dtype=np.int64)).all()
    assert ((rows >= 0) & (rows < eb.p)).all()
    for row, col in zip(rows, piv):
        assert not row[:col].any()


@given(_blocks(), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_rank_mod_p_matches_the_column_sweep(drawn, shift):
    p, a, _ = drawn
    # entries outside [0, p) reduce first, on rank_mod_p's own copy
    b = a + shift * p
    kept = b.copy()
    assert rank_mod_p(b, p) == sweep_rank_mod_p(a, p)
    assert np.array_equal(b, kept)


@given(_blocks())
@settings(max_examples=150, deadline=None)
def test_block_insert_matches_rank_mod_p(drawn):
    p, a, cuts = drawn
    eb = ModpEchelon(a.shape[1], p)
    one = ModpEchelon(a.shape[1], p)
    grown = sum(eb.insert_block(part) for part in np.split(a, cuts))
    assert grown == eb.dim == rank_mod_p(a, p) == sweep_rank_mod_p(a, p)
    _assert_reduced(eb)
    assert not eb.residual(a).any()
    # the one-row insert is the same kernel
    assert sum(one.insert(row) for row in a) == eb.dim
    assert np.array_equal(np.sort(one.pivcols), np.sort(eb.pivcols))


def test_block_insert_chunks_a_tall_block():
    p = modular_prime(3)
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, (150, 40)) @ rng.integers(0, p, (40, 90)) % p
    eb = ModpEchelon(90, p)
    assert eb.insert_block(a[:20]) == 20
    assert eb.insert_block(a) == 20 and eb.dim == sweep_rank_mod_p(a, p)
    _assert_reduced(eb)
    assert eb.insert_block(a[:7]) == 0
    assert not eb.residual(a).any()
    # sparse rows: the block's new rows meet only a few of the older ones
    s = a * (rng.random(a.shape) < 0.04)
    eb = ModpEchelon(90, p)
    eb.insert_block(s[:10])
    eb.insert_block(s)
    assert eb.dim == sweep_rank_mod_p(s, p)
    _assert_reduced(eb)
    assert not eb.residual(s).any()


def test_rank_mod_p_ranks_a_wide_block():
    # no width x width buffer: at 2^20 columns it would be 8 TiB
    p, width = modular_prime(4), 1 << 20
    a = np.zeros((4, width), dtype=np.int64)
    a[0, width - 1] = 1
    a[1, 5] = 3
    a[2] = a[0] + 2 * a[1]
    a[3, width // 2] = p - 1
    a[3, 7:100] = np.arange(93)
    tracemalloc.start()
    try:
        assert rank_mod_p(a, p) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * a.nbytes


def test_full_rank_insert_fills_the_rows_in_place():
    # every row a basis can hold is allocated once; filling them copies none
    p = modular_prime(4)
    rng = np.random.default_rng(7)
    eb = ModpEchelon(70, p)
    rows = eb._rows
    assert rows.shape == (70, 70)
    for part in np.split(rng.integers(0, p, (90, 70)), [33, 60]):
        eb.insert_block(part)
    assert eb.dim == 70 and eb._rows is rows
    _assert_reduced(eb)


def test_products_are_exact_up_to_the_overflow_bound():
    big = 1073741827  # a prime near 2^30: p^2 * 4 < 2^63 <= p^2 * 8
    eb = ModpEchelon(4, big)
    a = np.array([[big - 1, 2, 3, 5], [1, big - 2, big - 3, big - 5],
                  [0, 1, 1, 0]], dtype=np.int64)
    assert eb.insert_block(a) == rank_mod_p(a, big) == 2
    with pytest.raises(OverflowError):
        ModpEchelon(8, big)


def test_overflow_guard_refuses_before_allocating():
    p = modular_prime(2)
    width = (1 << 63) // (p * p) + 1
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="overflows"):
            ModpEchelon(width, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- documents whose laws fail --------------------------------------------------


def _sum_with_bad_v():
    """F + F with c = 1 and v(e_0) = e_1: v c = c v != zeta c v, and the
    operators generate diagonals plus E_10, 3 of 4 dimensions."""
    mod = trivial_action(direct_sum(field_algebra(2), field_algebra(2)))
    one, zero = CycNum.one(2), CycNum.zero(2)
    v = Matrix(2, ((zero, zero), (one, zero)))
    return HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra, c_op=mod.c_op,
                          v_op=v)


def _fields_with_bad_v():
    """F + F + F with c = 1 and v = E_01 + E_10 + E_12 + E_21: v c != zeta c v.
    Its words span End(A), 9 dimensions, while the diagonals and their
    products with v span 6."""
    mod = trivial_action(direct_sum(field_algebra(2),
                                    direct_sum(field_algebra(2),
                                               field_algebra(2))))
    one, zero = CycNum.one(2), CycNum.zero(2)
    near = {(0, 1), (1, 0), (1, 2), (2, 1)}
    v = Matrix(2, tuple(tuple(one if (i, j) in near else zero
                              for j in range(3)) for i in range(3)))
    return HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra, c_op=mod.c_op,
                          v_op=v)


def _mat2_with_bad_v():
    """M_2 with c = 1 and v = E_00 on the basis (E_00, E_01, E_10, E_11):
    not a skew-derivation, but L(A) R(A) already spans End(A)."""
    mod = trivial_action(matrix_algebra(2, 2))
    rows = [[CycNum.zero(2)] * 4 for _ in range(4)]
    rows[0][0] = CycNum.one(2)
    return HModuleAlgebra(hopf=mod.hopf, algebra=mod.algebra, c_op=mod.c_op,
                          v_op=Matrix(2, tuple(map(tuple, rows))))


@pytest.mark.parametrize("make", [_sum_with_bad_v, _fields_with_bad_v])
def test_short_span_with_failing_laws_is_rejected(make):
    mod = make()
    assert not hma_verify(mod).ok
    with pytest.raises(InputError, match="module-algebra laws fail"):
        operator_span_dim(mod)
    with pytest.raises(InputError, match="module-algebra laws fail"):
        is_h_simple(mod)


def test_the_spin_of_a_lawless_module_is_no_normal_form():
    # why a short normal form needs the laws: without them the words can
    # reach End(A), and the word spin certified this document as simple
    mod = _fields_with_bad_v()
    assert _spin_span_dim(_action_generators(mod), 3, 2) == \
        (9, "operator span mod p=%d" % modular_prime(2))
    assert _normal_form_dim(
        mod.algebra, (mod.c_op, mod.v_op),
        lambda gens, mul, one: taft_monomials(gens, mul, one, 2),
        lambda: None)[0] == 6


def test_full_span_with_failing_laws_still_certifies():
    mod = _mat2_with_bad_v()
    assert not hma_verify(mod).ok
    got = is_h_simple(mod)
    assert isinstance(got, CertifiedSimple)
    assert (got.operator_algebra_dim, got.method) == \
        _spin_span_dim(_action_generators(mod), 4, 2)


def _simple_cli(capsys, tmp_path, mod):
    path = tmp_path / "doc.json"
    path.write_text(dumps_canonical(hma_to_json(mod)))
    code = main(["simple", "--in", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_simple_command_exits_2_on_a_short_lawless_document(capsys, tmp_path):
    code, out, err = _simple_cli(capsys, tmp_path, _sum_with_bad_v())
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert "vc_commutation" in diag["message"]


def test_simple_command_certifies_a_full_lawless_document(capsys, tmp_path):
    code, out, err = _simple_cli(capsys, tmp_path, _mat2_with_bad_v())
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "certified_simple"
    assert doc["operator_algebra_dim"] == 16


def test_lawful_short_span_still_reaches_tier_two():
    # the reducible negatives pass hma_verify and get their witness ideals
    mod = trivial_action(direct_sum(matrix_algebra(3, 2), matrix_algebra(3, 2)))
    assert hma_verify(mod).ok
    assert operator_span_dim(mod) == \
        (32, "operator span, certified(p=%d)" % modular_prime(3))
    got = is_h_simple(mod)
    assert isinstance(got, NotSimple) and got.witness.dim == 4


def test_short_span_past_dim_ten_is_exact():
    # M_3 + M_2 has dim 13: the span L'R' c^s v^k of the trivial action is
    # End(M_3) + End(M_2), 81 + 16 of 169, which the modular rank alone
    # only bounds from below; the certificate and the exact fallback agree
    mod = trivial_action(direct_sum(matrix_algebra(2, 3),
                                    matrix_algebra(2, 2)))
    assert mod.algebra.dim == 13
    got = operator_span_dim(mod)
    assert got == (97, "operator span, certified(p=%d)" % modular_prime(2))
    with _certificates(False):
        assert operator_span_dim(mod) == (97, "operator span, exact")
    assert is_h_simple(mod).method == got[1]
