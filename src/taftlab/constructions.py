"""The two classification constructions and their inverse.

Semisimple family: A = M_k(F)^t (t | m) with the c-action rotating blocks
through a Q-conjugation and the v-action an inner skew-derivation driven by
P, subject to Q^{m/t} = E, QPQ^{-1} = zeta^{-t} P, and P^m scalar.  The
closed form for v^ell, the exact isomorphism decision (conjugating pair
search over the finite (r, beta) range), and the automorphism pair group
law all live here.

Nilpotent extension: from a graded-simple unital algebra B, the m-layer
algebra A = B + phi(B) + ... + phi^{m-1}(B) with the q-binomial twisted
multiplication.  recover_structure inverts the construction: it finds the
layer decomposition inside any certified H-simple algebra with nonzero
radical, rebuilds the spec, and verifies an explicit isomorphism.

Block tuples are 0-indexed throughout; the negative-index convention for
the closed form is a_i = Q a_{i+t} Q^{-1} applied repeatedly until the
index is in range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum, zeta_power
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, Subspace, combination,
                     intertwiner_space, kernel, rank, small_coefficients)
from .algebra_core import (FinDimAlgebra, GradingDecomposition,
                           grading_from_c, jacobson_radical,
                           ideal_generated_by, subalgebra_on,
                           subspace_product)
from .hmodule import (CertifiedSimple, HModuleAlgebra, _normal_form_dim,
                      _verify_module_iso, hma_verify, is_h_simple)
from .qcombinatorics import QBinomTable
from .taft_hopf import TaftAlgebra


# -- semisimple family ---------------------------------------------------------


def _check_square(name: str, mat: Matrix, m: int, k: int):
    if not isinstance(mat, Matrix) or mat.m != m or mat.nrows != k or mat.ncols != k:
        raise InputError("%s must be a %d x %d matrix over Q(zeta_%d)" % (name, k, k, m))


def _check_rotation_data(m: int, k: int, t: int, P: Matrix,
                         Q: Matrix) -> Matrix:
    """Q^{-1}, after checking t | m, P and Q square, Q invertible,
    Q^{m/t} = E and QPQ^{-1} = zeta^{-t} P, in that order."""
    if t < 1 or m % t != 0:
        raise InputError("t = %r does not divide m = %r" % (t, m))
    _check_square("P", P, m, k)
    _check_square("Q", Q, m, k)
    try:
        qinv = Q.inverse()
    except InputError:
        raise InputError("Q is singular")
    if Q ** (m // t) != Matrix.identity(m, k):
        raise InputError("Q^(m/t) is not the identity")
    if Q @ P @ qinv != P * zeta_power(m, -t):
        raise InputError("QPQ^{-1} = zeta^{-t} P fails")
    return qinv


@dataclass(frozen=True)
class SemisimpleSpec:
    """Defining data (m, k, t, P, Q) for a block-rotation module algebra.

    Validates every invariant on construction, each with its own message:
    t | m, Q invertible, Q^{m/t} = E, QPQ^{-1} = zeta^{-t} P, P^m scalar.
    """

    m: int
    k: int
    t: int
    P: Matrix
    Q: Matrix

    def __post_init__(self):
        m, k, t = self.m, self.k, self.t
        if m < 2:
            raise InputError("conductor must be at least 2")
        if k < 1:
            raise InputError("matrix size must be positive")
        _check_rotation_data(m, k, t, self.P, self.Q)
        if (self.P ** m).is_scalar() is None:
            raise InputError("P^m is not a scalar matrix")

    @property
    def alpha(self) -> CycNum:
        return (self.P ** self.m).is_scalar()

    @property
    def dim(self) -> int:
        return self.t * self.k * self.k


def blocks_to_vec(blocks) -> tuple:
    out = []
    for b in blocks:
        for row in b.rows:
            out.extend(row)
    return tuple(out)


def vec_to_blocks(m: int, k: int, t: int, vec) -> tuple:
    blocks = []
    for s in range(t):
        rows = []
        for i in range(k):
            base = s * k * k + i * k
            rows.append(tuple(vec[base + j] for j in range(k)))
        blocks.append(Matrix(m, tuple(rows)))
    return tuple(blocks)


def _block_matrix_units(m: int, k: int):
    units = []
    zero = CycNum.zero(m)
    one = CycNum.one(m)
    for i in range(k):
        for j in range(k):
            units.append(Matrix(m, tuple(
                tuple(one if (a, b) == (i, j) else zero for b in range(k))
                for a in range(k))))
    return units


def semisimple_operators(m: int, k: int, t: int, P: Matrix, Q: Matrix):
    """(algebra, c_op, v_op) for M_k^t with the block-rotation action.

    Enforces t | m, Q invertibility, Q^{m/t} = E, and the QP commutation,
    but deliberately NOT the scalar-P^m condition: dropping it is exactly
    what lets tests exhibit v_op^m != 0, the obstruction that forces the
    condition in the first place.
    """
    qinv = _check_rotation_data(m, k, t, P, Q)
    return _rotation_operators(m, k, t, P, Q, qinv)


def _rotation_operators(m: int, k: int, t: int, P: Matrix, Q: Matrix,
                        qinv: Matrix):
    """semisimple_operators on data _check_rotation_data has passed.

    The basis is E_ij in block s at index s k^2 + i k + j.  The table is
    built with its nonzero index, every zero product one shared all-zero
    cell and the products equal to one E_ij one shared cell, and checked
    as a table read from a document is.  The operator columns are read off
    closed forms, with O(k^2) field products per E_ij in block s:
      c: E_ij in block s + 1, or Q E_ij Q^{-1} = Q[:, i] (x) Q^{-1}[j, :]
         in block 0 when s = t - 1;
      v: zeta^s P E_ij in block s, plus -zeta^{s+1} E_ij P in block s + 1,
         or -Q E_ij Q^{-1} P in block 0 when s = t - 1 (for t = 1 both
         terms land in block 0).
    """
    n, kk = t * k * k, k * k
    zero, one = CycNum.zero(m), CycNum.one(m)

    # structure constants: block-diagonal product of matrix units,
    # E_ij E_jl = E_il in each block
    zeros = (zero,) * n
    units = [(zeros[:a] + (one,) + zeros[a + 1:], ((a, one),))
             for a in range(n)]
    mult = [[zeros] * n for _ in range(n)]
    nz = [[()] * n for _ in range(n)]
    unit = list(zeros)
    for base in range(0, n, kk):
        for i in range(k):
            unit[base + i * k + i] = one
            for j in range(k):
                row, index = mult[base + i * k + j], nz[base + i * k + j]
                for l in range(k):
                    row[base + j * k + l], index[base + j * k + l] = \
                        units[base + i * k + l]
    algebra = FinDimAlgebra._of_cells(m, tuple(map(tuple, mult)), tuple(unit),
                                      tuple(map(tuple, nz)))

    # c_rows[r][col], v_rows[r][col]: entry r of the image of basis col
    c_rows = [[zero] * n for _ in range(n)]
    v_rows = [[zero] * n for _ in range(n)]

    def add(r, col, x):
        cur = v_rows[r][col]
        v_rows[r][col] = x if cur is zero else cur + x

    # columns i of Q, rows j of Q^{-1} and of -Q^{-1} P, nonzero only
    qcols = [[(p, row[i]) for p, row in enumerate(Q.rows) if row[i]]
             for i in range(k)]
    qinv_rows = [[(q, x) for q, x in enumerate(row) if x] for row in qinv.rows]
    neg_qp = [[(q, -x) for q, x in enumerate(row) if x]
              for row in (qinv @ P).rows]
    for s in range(t):
        last = s == t - 1
        zs, zn = zeta_power(m, s), -zeta_power(m, s + 1)
        # columns i of zeta^s P and rows j of -zeta^{s+1} P, nonzero only
        pcols = [[(p, zs * row[i]) for p, row in enumerate(P.rows) if row[i]]
                 for i in range(k)]
        prows = [[(q, zn * x) for q, x in enumerate(row) if x]
                 for row in P.rows]
        for i in range(k):
            for j in range(k):
                col = s * kk + i * k + j
                for p, x in pcols[i]:
                    add(s * kk + p * k + j, col, x)
                if not last:
                    c_rows[col + kk][col] = one
                    for q, x in prows[j]:
                        add((s + 1) * kk + i * k + q, col, x)
                    continue
                for p, x in qcols[i]:
                    for q, y in qinv_rows[j]:
                        c_rows[p * k + q][col] = x * y
                    for q, y in neg_qp[j]:
                        add(p * k + q, col, x * y)
    return (algebra, Matrix(m, tuple(map(tuple, c_rows))),
            Matrix(m, tuple(map(tuple, v_rows))))


def build_semisimple(spec: SemisimpleSpec, hopf: TaftAlgebra | None = None) -> HModuleAlgebra:
    # the spec checked its data when it was made
    algebra, c_op, v_op = _rotation_operators(spec.m, spec.k, spec.t, spec.P,
                                              spec.Q, spec.Q.inverse())
    H = hopf if hopf is not None else TaftAlgebra(spec.m)
    return HModuleAlgebra(H, algebra, c_op, v_op)


def v_power_closed_form(spec: SemisimpleSpec, ell: int, blocks) -> tuple:
    """v^ell on a block tuple, evaluated by the q-binomial closed form
    rather than by iterating the operator."""
    m, k, t = spec.m, spec.k, spec.t
    if not 1 <= ell <= m:
        raise InputError("power must be between 1 and m")
    blocks = tuple(blocks)
    if len(blocks) != t:
        raise InputError("expected %d blocks" % t)
    for b in blocks:
        _check_square("input block", b, m, k)
    qinv_mat = spec.Q.inverse()
    zinv = zeta_power(m, -1)
    table = QBinomTable.build(zinv, bound=m)
    ppow = [Matrix.identity(m, k)]
    for _ in range(ell):
        ppow.append(ppow[-1] @ spec.P)

    def block_at(i: int) -> Matrix:
        wraps = 0
        while i < 0:
            i += t
            wraps += 1
        b = blocks[i]
        for _ in range(wraps):
            b = spec.Q @ b @ qinv_mat
        return b

    out = []
    for s in range(t):
        acc = Matrix.zeros(m, k, k)
        for j in range(ell + 1):
            coeff = table.value(ell, j) * zeta_power(m, -(j * (j - 1)) // 2)
            if j % 2 == 1:
                coeff = -coeff
            if coeff.is_zero():
                continue
            acc = acc + (ppow[ell - j] @ block_at(s - j) @ ppow[j]) * coeff
        out.append(acc * zeta_power(m, ell * s))
    return tuple(out)


# -- isomorphism decision -------------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    T: Matrix
    r: int
    beta: CycNum


def _invertible_in_span(basis, k: int, m: int):
    """An invertible element of span(basis), or None if none exists.

    det over the span is a polynomial of total degree <= k in the
    coordinates, so vanishing on the full grid {0..k}^s forces it to vanish
    identically; scanning that grid is a complete decision.  The candidates
    are linalg.small_coefficients over 0..k: the single elements and the
    prefix sums, which are cheap and often invertible, then the grid.  A
    candidate is invertible when its rank is k, and the first one is
    returned at once.
    """
    for coeffs in small_coefficients(len(basis), range(k + 1)):
        cand = combination(coeffs, basis)
        if rank(cand) == k:
            return cand
    return None


def iso_semisimple(s1: SemisimpleSpec, s2: SemisimpleSpec):
    """Decide H-module-algebra isomorphism of two block-rotation specs.

    Complete: the classification reduces isomorphism to P2 = zeta^r T P1
    T^{-1}, Q2 = beta T Q1 T^{-1} with 0 <= r < t and beta an (m/t)-th root
    of unity, so the (r, beta) range is finite and each case is a linear
    intertwiner system plus an invertibility decision.
    """
    if s1.m != s2.m:
        raise InputError("conductor mismatch")
    if s1.k != s2.k or s1.t != s2.t:
        return None
    m, k, t = s1.m, s1.k, s1.t
    one = CycNum.one(m)
    for r in range(t):
        for j in range(m // t):
            beta = zeta_power(m, t * j)
            space = intertwiner_space(m, k, k, [
                (s1.P, s2.P, zeta_power(m, -r)),
                (s1.Q, s2.Q, beta.inverse()),
            ])
            T = _invertible_in_span(space, k, m)
            if T is None:
                continue
            tinv = T.inverse()
            assert s2.P == (T @ s1.P @ tinv) * zeta_power(m, r)
            assert s2.Q == (T @ s1.Q @ tinv) * beta
            return IsoWitness(T=T, r=r, beta=beta)
    return None


def iso_block_map(s1: SemisimpleSpec, T: Matrix, r: int) -> Matrix:
    """The explicit block-level map realizing an isomorphism witness (T, r).

    Sends (a_0, ..., a_{t-1}) to the tuple whose first t-r blocks are
    T a_{r+j} T^{-1} and whose last r blocks are T Q^{-1} a_j Q T^{-1};
    a witness of iso_semisimple(s1, s2) turns this into an isomorphism
    from the algebra of s1 onto the algebra of s2.
    """
    m, k, t = s1.m, s1.k, s1.t
    tinv = T.inverse()
    qinv = s1.Q.inverse()
    n = t * k * k
    units = _block_matrix_units(m, k)
    zero_k = Matrix.zeros(m, k, k)
    cols = []
    for s in range(t):
        for u in units:
            out = [zero_k] * t
            if s >= r:
                out[s - r] = T @ u @ tinv
            else:
                out[s + t - r] = T @ qinv @ u @ s1.Q @ tinv
            cols.append(blocks_to_vec(out))
    return Matrix(m, tuple(tuple(cols[j][i] for j in range(n))
                           for i in range(n)))


# -- automorphism pairs ---------------------------------------------------------


def normalize_projective(T: Matrix) -> Matrix:
    """Scale so the first nonzero entry (row-major) is 1; canonical in PGL."""
    for row in T.rows:
        for x in row:
            if not x.is_zero():
                return T * x.inverse()
    raise InputError("zero matrix has no projective representative")


@dataclass(frozen=True)
class AutPair:
    """An automorphism of a block-rotation algebra: a projective matrix
    class together with the rotation offset r."""

    tbar: Matrix
    r: int


def aut_pair(spec: SemisimpleSpec, T: Matrix, r: int) -> AutPair:
    _check_square("T", T, spec.m, spec.k)
    if not 0 <= r < spec.t:
        raise InputError("rotation offset must satisfy 0 <= r < t")
    try:
        tinv = T.inverse()
    except InputError:
        raise InputError("T is singular")
    if (spec.Q @ T @ spec.Q.inverse() @ tinv).is_scalar() is None:
        raise InputError("QTQ^{-1}T^{-1} is not scalar")
    if spec.P != (T @ spec.P @ tinv) * zeta_power(spec.m, r):
        raise InputError("P = zeta^r T P T^{-1} fails")
    return AutPair(tbar=normalize_projective(T), r=r)


def aut_identity(spec: SemisimpleSpec) -> AutPair:
    return AutPair(tbar=Matrix.identity(spec.m, spec.k), r=0)


def aut_compose(spec: SemisimpleSpec, first: AutPair, second: AutPair) -> AutPair:
    """Product first*second of automorphism pairs (W,s)(T,r): WT with offset
    r+s, corrected by Q^{-1} when the offsets wrap past t."""
    w, s = first.tbar, first.r
    t_mat, r = second.tbar, second.r
    total = r + s
    if total < spec.t:
        return AutPair(tbar=normalize_projective(w @ t_mat), r=total)
    return AutPair(tbar=normalize_projective(w @ t_mat @ spec.Q.inverse()),
                   r=total - spec.t)


def aut_inverse(spec: SemisimpleSpec, pair: AutPair) -> AutPair:
    tinv = pair.tbar.inverse()
    if pair.r == 0:
        return AutPair(tbar=normalize_projective(tinv), r=0)
    return AutPair(tbar=normalize_projective(spec.Q @ tinv), r=spec.t - pair.r)


def aut_module_map(spec: SemisimpleSpec, pair: AutPair) -> Matrix:
    """Expand a pair to the explicit module-algebra automorphism matrix."""
    return iso_block_map(spec, pair.tbar, pair.r)


# -- nilpotent extensions -------------------------------------------------------


@dataclass(frozen=True)
class GradedSimpleCertificate:
    operator_algebra_dim: int
    method: str


def certify_graded_simple(B: FinDimAlgebra, grading: GradingDecomposition):
    """Burnside-style certificate that B has no proper nonzero graded ideal.

    A graded ideal is invariant under left and right multiplications and the
    grading projectors, so density of the algebra those generate rules out
    any proper invariant subspace, graded ideals included.  That algebra is
    span{L' R' P_g} (L' in F 1 + L(B), R' in F 1 + R(B)), since
    P_g L_a = L_a P_{g-|a|} and P_g R_a = R_a P_{g-|a|} for homogeneous a,
    and it is ranked in that form (hmodule._normal_form_dim).  The identity
    needs a grading compatible with the multiplication, so a short span is
    trusted only after verify_multiplication passes again, and InputError
    is raised if it fails.
    Returns the certificate, or None when density is not reached (which
    does NOT mean a graded ideal exists; callers must treat None as
    not-certified).
    """
    if B.square_is_zero():
        return None

    def laws():
        bad = grading.verify_multiplication(B)
        if bad is not None:
            raise InputError("grading incompatible with multiplication "
                             "at components %r" % (bad,))

    dim, method = _normal_form_dim(
        B, grading.projectors(), lambda gens, mul, one: list(gens), laws)
    if dim != B.dim * B.dim:
        return None
    return GradedSimpleCertificate(operator_algebra_dim=dim, method=method)


@dataclass(frozen=True)
class NilpotentExtensionSpec:
    """A graded-simple unital base algebra plus its grading; the extension
    is determined by these and the conductor m."""

    m: int
    B: FinDimAlgebra
    grading: GradingDecomposition

    def __post_init__(self):
        if self.m < 2:
            raise InputError("conductor must be at least 2")
        if self.B.m != self.m:
            raise InputError("base algebra field conductor must match m")
        if self.grading.m != self.m or self.grading.ambient != self.B.dim:
            raise InputError("grading shape does not match the base algebra")
        if self.B.unit is None:
            raise InputError("base algebra must be unital")
        bad = self.grading.verify_multiplication(self.B)
        if bad is not None:
            raise InputError("grading incompatible with multiplication "
                             "at components %r" % (bad,))
        if certify_graded_simple(self.B, self.grading) is None:
            raise InputError("base algebra is not certified graded-simple")


@dataclass(frozen=True)
class NilpotentExtension:
    """The built m-layer algebra, with the bookkeeping tests need: the
    homogeneous basis of B that indexes layer slots, and its degrees."""

    spec: NilpotentExtensionSpec
    module: HModuleAlgebra
    hom_basis: tuple   # vectors in B coordinates
    degrees: tuple

    @property
    def layer_dim(self) -> int:
        return len(self.hom_basis)

    def layer(self, i: int) -> Subspace:
        n = self.module.algebra.dim
        d = self.layer_dim
        vecs = [self.module.algebra.basis_vector(i * d + s) for s in range(d)]
        return Subspace.from_vectors(self.module.m, n, vecs)

    def radical_span(self) -> Subspace:
        n = self.module.algebra.dim
        d = self.layer_dim
        vecs = [self.module.algebra.basis_vector(i * d + s)
                for i in range(1, self.spec.m) for s in range(d)]
        return Subspace.from_vectors(self.module.m, n, vecs)


def build_nilpotent_extension(spec: NilpotentExtensionSpec,
                              hopf: TaftAlgebra | None = None) -> NilpotentExtension:
    """Stack m shifted copies of B with the q-binomial multiplication.

    Basis element (i, s) is the i-th shift of the s-th homogeneous basis
    vector of B; the product of (p, s) and (l, u) is zero past the top
    layer and otherwise binom(p+l, p)_zeta * zeta^{l*deg(s)} times the
    (p+l)-shift of the B-product.  The degree of (i, s) is deg(s)+i, which
    fixes the c operator; v drops the shift index by one.
    """
    m = spec.m
    B = spec.B
    hom = spec.grading.degree_of_basis()
    degrees = tuple(g for g, _ in hom)
    hom_basis = tuple(v for _, v in hom)
    d = len(hom_basis)
    n = m * d

    # Coordinates must come back in hom-basis order, not echelon order, so
    # solve against the explicit change-of-basis matrix.
    cob = _columns_matrix(m, hom_basis)
    try:
        cob_inv = cob.inverse()
    except InputError:
        raise InputError("homogeneous basis does not span the base algebra")
    prod_coords = []
    for x in hom_basis:
        row = []
        for y in hom_basis:
            row.append(cob_inv.apply(B.multiply(x, y)))
        prod_coords.append(row)

    zeta_seq = [zeta_power(m, e) for e in range(m)]
    qtable = QBinomTable.build(zeta_seq[1 % m], bound=2 * m)
    zero = CycNum.zero(m)
    one = CycNum.one(m)

    # the table with its nonzero index, every zero product one shared cell
    zeros = (zero,) * n
    mult, nz = [], []
    for p in range(m):
        for s in range(d):
            row, index = [], []
            for l in range(m):
                for u in range(d):
                    hits = ()
                    if p + l < m:
                        coeff = qtable.value(p + l, p) * zeta_seq[(l * degrees[s]) % m]
                        if not coeff.is_zero():
                            base = (p + l) * d
                            hits = tuple((base + w, coeff * cw) for w, cw
                                         in enumerate(prod_coords[s][u])
                                         if not cw.is_zero())
                    cell = zeros
                    if hits:
                        cell = list(zeros)
                        for a, x in hits:
                            cell[a] = x
                        cell = tuple(cell)
                    row.append(cell)
                    index.append(hits)
            mult.append(tuple(row))
            nz.append(tuple(index))

    unit_b = cob_inv.apply(B.unit)
    unit = [zero] * n
    for w in range(d):
        unit[w] = unit_b[w]
    algebra = FinDimAlgebra._of_cells(m, tuple(mult), tuple(unit), tuple(nz))

    c_rows = [[zero] * n for _ in range(n)]
    v_rows = [[zero] * n for _ in range(n)]
    for i in range(m):
        for s in range(d):
            idx = i * d + s
            c_rows[idx][idx] = zeta_seq[(i + degrees[s]) % m]
            if i >= 1:
                v_rows[(i - 1) * d + s][idx] = one
    c_op = Matrix(m, tuple(tuple(r) for r in c_rows))
    v_op = Matrix(m, tuple(tuple(r) for r in v_rows))

    H = hopf if hopf is not None else TaftAlgebra(m)
    module = HModuleAlgebra(H, algebra, c_op, v_op)
    report = hma_verify(module)
    if not report.ok:
        raise InputError("constructed extension violates the module-algebra "
                         "law: %r" % (report.failed(),))
    return NilpotentExtension(spec=spec, module=module,
                              hom_basis=hom_basis, degrees=degrees)


# -- structure recovery ---------------------------------------------------------


@dataclass(frozen=True)
class RecoveredStructure:
    radical: Subspace
    nil_index: int
    min_ideal: Subspace
    layers: tuple          # layer i is v^i(min_ideal); the last one is B
    phi: Matrix
    b_space: Subspace
    b_algebra: FinDimAlgebra
    b_grading: GradingDecomposition
    spec: NilpotentExtensionSpec
    rebuilt: NilpotentExtension
    iso: Matrix            # rebuilt.module -> the input module


def _columns_matrix(m: int, cols) -> Matrix:
    n = len(cols[0])
    return Matrix(m, tuple(tuple(cols[j][i] for j in range(len(cols)))
                           for i in range(n)))


def recover_structure(mod: HModuleAlgebra) -> RecoveredStructure:
    """Invert build_nilpotent_extension on a certified H-simple algebra.

    Walks the radical down to its last nonzero power, closes the first
    basis vector of that power into a graded ideal, fans the ideal out
    through powers of v into m independent layers, reads the shift map phi
    off the layer basis, rebuilds the spec from ker v and hands back a
    verified isomorphism from the rebuilt extension.  That the isomorphism
    is multiplicative is the q-binomial product law on the recovered layers.
    Every structural deviation raises with a pointed diagnostic, since each
    one certifies the input was not of the advertised shape.
    """
    A = mod.algebra
    m, n = mod.m, A.dim
    radical = jacobson_radical(A)
    if radical.dim == 0:
        raise InputError("radical is zero; the input is semisimple and "
                         "there is no nilpotent structure to recover")
    if A.unit is None:
        raise InputError("input algebra has no unit")
    verdict = is_h_simple(mod)
    if not isinstance(verdict, CertifiedSimple):
        raise InputError("input is not certified H-simple: %r" % (verdict,))

    chain = [radical]
    while chain[-1].dim > 0:
        if len(chain) > n:
            raise InputError("radical powers do not reach zero")
        chain.append(subspace_product(A, chain[-1], radical))
    nil_index = len(chain)    # chain[-1] is the first zero power
    last_power = chain[-2]

    x = last_power.basis[0]
    min_ideal = ideal_generated_by(A, [x], extra_ops=(mod.c_op,))
    d = min_ideal.dim
    if d * m != n:
        raise InputError(
            "graded ideal closure has dimension %d, but the layer structure "
            "needs dim(A) = m * %d; got %d" % (d, d, n))

    layer_cols = []
    layers = []
    eb = EchelonBasis(m, n)
    vec_images = [tuple(b) for b in min_ideal.basis]
    for i in range(m):
        layers.append(Subspace.from_vectors(m, n, vec_images))
        if layers[-1].dim != d:
            raise InputError("v^%d collapses the minimal ideal "
                             "(dim %d -> %d)" % (i, d, layers[-1].dim))
        for b in vec_images:
            if not eb.insert(b):
                raise InputError("layers v^i(ideal) are not independent at "
                                 "power %d" % i)
            layer_cols.append(b)
        vec_images = [mod.v_op.apply(b) for b in vec_images]
    layers = tuple(layers)

    # phi on the layer basis: kill layer 0, shift layer i to layer i-1
    basis_mat = _columns_matrix(m, layer_cols)
    zero_vec = tuple(CycNum.zero(m) for _ in range(n))
    target_cols = []
    for i in range(m):
        for s in range(d):
            if i == 0:
                target_cols.append(zero_vec)
            else:
                target_cols.append(layer_cols[(i - 1) * d + s])
    phi = _columns_matrix(m, target_cols) @ basis_mat.inverse()

    if mod.c_op @ phi != (phi @ mod.c_op) * zeta_power(m, 1):
        raise InputError("shift map does not satisfy c phi = zeta phi c")
    if not (phi ** m).is_zero():
        raise InputError("shift map is not nilpotent of index m")

    b_space = Subspace.from_vectors(m, n, kernel(mod.v_op))
    if b_space.dim != d:
        raise InputError("ker v has dimension %d, expected the layer "
                         "dimension %d" % (b_space.dim, d))
    if b_space != layers[m - 1]:
        raise InputError("ker v is not the top v-power of the minimal ideal")
    if b_space.coords(A.unit) is None:
        raise InputError("unit is not in ker v")
    comp = EchelonBasis(m, n)
    for b in b_space.basis:
        comp.insert(b)
    for b in radical.basis:
        if not comp.insert(b):
            raise InputError("ker v meets the radical; it cannot be a "
                             "semisimple complement")
    if comp.dim != n:
        raise InputError("ker v and the radical do not span the algebra")

    b_algebra = subalgebra_on(A, b_space)  # raises if not mult-closed
    if b_algebra.unit is None:
        raise InputError("ker v is not unital")

    c_cols = []
    for b in b_space.basis:
        img = mod.c_op.apply(b)
        coords = b_space.coords(img)
        if coords is None:
            raise InputError("ker v is not invariant under the c operator")
        c_cols.append(coords)
    c_b = _columns_matrix(m, c_cols)
    b_grading = grading_from_c(b_algebra, c_b)

    spec = NilpotentExtensionSpec(m=m, B=b_algebra, grading=b_grading)
    rebuilt = build_nilpotent_extension(spec, hopf=mod.hopf)

    # explicit isomorphism: rebuilt basis (i, s) -> phi^i(b_s), with b_s the
    # homogeneous basis of B written in A
    layer = [tuple(sum((coords[j] * b_space.basis[j][i] for j in range(d)),
                       CycNum.zero(m)) for i in range(n))
             for _, coords in b_grading.degree_of_basis()]
    iso_cols = []
    for _ in range(m):
        iso_cols.extend(layer)
        layer = [phi.apply(x) for x in layer]
    iso = _columns_matrix(m, iso_cols)
    _verify_module_iso(rebuilt.module, mod, iso)

    return RecoveredStructure(radical=radical, nil_index=nil_index,
                              min_ideal=min_ideal, layers=layers, phi=phi,
                              b_space=b_space, b_algebra=b_algebra,
                              b_grading=b_grading, spec=spec,
                              rebuilt=rebuilt, iso=iso)


# -- canonical corpus helpers ---------------------------------------------------


def grid_spec(m: int, k: int, t: int) -> SemisimpleSpec:
    """A canonical valid spec per grid point, with nonzero P when the
    constraints allow one.

    t = m leaves P unconstrained by Q, so a diagonal of roots of unity
    works; t < m forces the eigenvalue-shift block shape, implemented as a
    superdiagonal chain truncated to nilpotency index <= m, with the cyclic
    wrap-around corner added when it closes into a root-of-unity cycle.
    """
    if t < 1 or m % t != 0:
        raise InputError("t = %r does not divide m = %r" % (t, m))
    zero, one = CycNum.zero(m), CycNum.one(m)

    def diag(vals):
        return Matrix(m, tuple(tuple(vals[i] if i == j else zero
                                     for j in range(k)) for i in range(k)))

    if t == m:
        Q = Matrix.identity(m, k)
        P = diag([zeta_power(m, i) for i in range(k)])
        return SemisimpleSpec(m=m, k=k, t=t, P=P, Q=Q)

    u = m // t
    Q = diag([zeta_power(m, t * (j % u)) for j in range(k)])
    rows = [[zero] * k for _ in range(k)]
    for i in range(min(k - 1, m - 1)):
        rows[i][i + 1] = one
    if k % u == 0 and m % k == 0:
        rows[k - 1][0] = one
    P = Matrix(m, tuple(tuple(r) for r in rows))
    return SemisimpleSpec(m=m, k=k, t=t, P=P, Q=Q)


def mutate_p_nonscalar(m: int, k: int, t: int, Q: Matrix):
    """A matrix P compatible with Q's commutation constraint but with P^m
    not scalar, or None when no candidate is (k = 1, say, where every P^m
    is scalar).

    The candidates are the combinations of the constraint's solution space
    with coefficients from linalg.small_coefficients over 0..2: its basis
    elements, their prefix sums, then the grid {0, 1, 2}^s.
    """
    space = intertwiner_space(m, k, k, [(Q, Q, zeta_power(m, t))])
    for coeffs in small_coefficients(len(space), range(3)):
        P = combination(coeffs, space)
        if (P ** m).is_scalar() is None:
            return P
    return None
