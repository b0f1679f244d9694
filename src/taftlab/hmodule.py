"""Module algebras over the Taft algebra: verification, actions, simplicity.

An HModuleAlgebra packages a finite-dimensional algebra A with the two
operator matrices c_op and v_op.  Checking the module-algebra law on the
generators c and v is enough: c and v generate H as an algebra, and the law
h(ab) = sum (h_1 a)(h_2 b) is multiplicative in h (if it holds for g and h
it holds for gh, because Delta is an algebra map).  hma_verify spells the
generator checks out and records that derivation in its report.  The
operator relations c^m = 1, v^m = 0 and vc = zeta cv, and the two laws
c(ab) = c(a)c(b) and v(ab) = c(a)v(b) + v(a)b, are decided exactly in
integers on the nonzero entries of the operators and the table.  The laws
have the form T(ab) = sum S(a)U(b), as has "T: A -> B is an algebra map",
and one routine, algebra_core.law_witnesses, decides all of them on every
basis pair: by sparse products of the entries, or, on dense tables, by
products of coefficient planes.  hma_verify checks both module laws in one
call, and _verify_module_iso and the generic isomorphism search check T; a
failing law is reported at its first failing pair in row-major order.

is_h_simple is a decision with three honest outcomes.  Tier 1 (Burnside
density): rank the unital operator algebra O generated by all left/right
multiplications together with c_op and v_op; if it has dimension (dim A)^2
it acts irreducibly, so no proper nonzero H-invariant ideal can exist, and
with A*A != 0 that certifies simplicity.  The module-algebra laws put
every element of O in the normal form L' R' c^s v^k (L' in F 1 + L(A),
R' in F 1 + R(A)), so operator_span_dim ranks those (n+1)^2 m^2 explicit
operators in blocks instead of spinning words.  linalg.certified_rank,
the one modular-rank decision, ranks them over a prime field F_p (p = 1
mod m, zeta sent to an order-m element), which can only underestimate the
true span; reaching (dim A)^2 mod p is therefore a sound certificate
(a pin), whether or not the laws hold, since every L' R' c^s v^k is a word
in the generators.  A shortfall is the dimension of O only when the laws
hold, so hma_verify runs after a short modular rank and before it is
trusted, and a module that fails it raises InputError; certified_rank's
certificate proves the modular rank exact at any dim, with an exact rank
over Q(zeta_m) as its fallback.
Tier 2 therefore runs only on modules whose laws hold, and looks for a
witness among highest-weight vectors, which needs exactly what those laws
give: v is nilpotent (v^m = 0), and c^m = 1 with v c = zeta c v.  A
nonzero invariant ideal I is stable under the nilpotent v, so W, the
intersection of I and ker v, is nonzero.  c maps W into itself, since I is
c-stable and v c x = zeta c v x = 0 for x in ker v.  c^m = 1 makes c
diagonalizable over Q(zeta_m), so W is the sum of its intersections with
the eigenspaces ker(c - zeta^i).  Hence every nonzero invariant ideal contains a nonzero x
in some K_i, the intersection of ker(c - zeta^i) and ker v.  Tier 2 closes
each canonical basis vector of K_0, ..., K_{m-1} under both
multiplications, c and v, and returns the first closure that is proper as
the witness.  A proper ideal that contains none of those basis vectors is
missed, so if both tiers come back empty the result is Inconclusive, never
a guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import CycNum, zeta_power
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, ModpEchelon, ModReductionError,
                     Subspace, at_degree, certified_rank, combination,
                     cyc_to_modp, integer_planes, intertwiner_space, kernel,
                     matrix_to_modp, rank, reduction_primes,
                     small_coefficients, vec_is_zero, zmatmul)
from .algebra_core import (FinDimAlgebra, _groups, _join, _numerators, _sum,
                           _table_modp, ideal_generated_by, law_witnesses)
from .taft_hopf import HopfElement, TaftAlgebra


@dataclass(frozen=True)
class HModuleAlgebra:
    """An algebra with a Taft-algebra action given by the c and v operators."""

    hopf: TaftAlgebra
    algebra: FinDimAlgebra
    c_op: Matrix
    v_op: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        m = self.hopf.m
        if self.algebra.m != m:
            raise InputError("conductor mismatch between algebra and Hopf algebra")
        for name, op in (("c", self.c_op), ("v", self.v_op)):
            if op.nrows != n or op.ncols != n or op.m != m:
                raise InputError("%s operator must be %d x %d over Q(zeta_%d)"
                                 % (name, n, n, m))

    @property
    def m(self) -> int:
        return self.hopf.m

    def monomial_operator(self, i: int, k: int) -> Matrix:
        """Operator of the basis monomial c^i v^k: c_op^i composed after v_op^k."""
        return (self.c_op ** i) @ (self.v_op ** k)


def act(mod: HModuleAlgebra, h: HopfElement, vec) -> tuple:
    """Action of a Hopf element on a coordinate vector of A.

    Convention: the basis monomial c^i v^k acts as c_op^i after v_op^k
    (v first), matching operator composition under the representation.
    """
    if h.algebra.m != mod.m:
        raise InputError("conductor mismatch between element and module")
    n = mod.algebra.dim
    acc = [CycNum.zero(mod.m)] * n
    for (i, k), coeff in h.terms.items():
        img = mod.monomial_operator(i, k).apply(vec)
        for a in range(n):
            if not img[a].is_zero():
                acc[a] = acc[a] + coeff * img[a]
    return tuple(acc)


@dataclass
class HmaReport:
    """Outcome of the module-algebra law battery."""

    checks: list = field(default_factory=list)  # (name, ok, witness-or-None)
    notes: str = ("generator checks suffice: c and v generate the Taft algebra, "
                  "and the module-algebra law for a product gh follows from the "
                  "laws for g and h since the coproduct is an algebra map")

    def add(self, name: str, ok: bool, witness=None):
        self.checks.append((name, ok, witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self) -> list:
        return [(n, w) for n, ok, w in self.checks if not ok]

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": n, "ok": ok,
                            "witness": None if w is None else str(w)}
                           for n, ok, w in self.checks],
                "notes": self.notes}


def hma_verify(mod: HModuleAlgebra) -> HmaReport:
    """Check the Taft relations on operators and the module-algebra law on
    generators, over all basis pairs."""
    rep = HmaReport()
    A = mod.algebra

    for name, ok in _operator_relations(mod):
        rep.add(name, ok)

    c, v = mod.c_op, mod.v_op
    c_wit, v_wit = law_witnesses(A, A, [
        (c, [(c, c)]), (v, [(c, v), (v, Matrix.identity(mod.m, A.dim))])])
    rep.add("c_multiplicative", c_wit is None, c_wit)
    rep.add("v_skew_derivation", v_wit is None, v_wit)

    if A.unit is not None:
        rep.add("c_fixes_unit", mod.c_op.apply(A.unit) == tuple(A.unit))
        rep.add("v_kills_unit", vec_is_zero(mod.v_op.apply(A.unit)))
    return rep


def _operator_relations(mod: HModuleAlgebra) -> list:
    """(name, holds) for c^m = 1, v^m = 0 and v c = zeta c v: over the
    common denominator E of both operators' entries, C^m = E^m 1, V^m = 0
    and V C = C (zeta V) for C = E c and V = E v, powers by repeated
    squaring, the k-th difference at the keys k n^2 + r n + c of one sum
    (algebra_core._sum)."""
    m, n = mod.m, mod.algebra.dim
    big, at, x = _numerators(m, [
        ((k * n + b) * n + a, v) for k, op in enumerate((mod.c_op, mod.v_op))
        for b, row in enumerate(op.rows) for a, v in enumerate(row)
        if any(v.num)])
    split = int(at.searchsorted(n * n))
    c, v = (at[:split], x[:split]), (at[split:] - n * n, x[split:])
    zeta = np.array([zeta_power(m, 1).num], dtype=np.int64)
    got, _ = _sum(m, [
        _power(m, c, m, n), (np.arange(n) * (n + 1), -big ** m,
                             ((np.ones((n, 1), dtype=np.int64), None),)),
        _power(m, v, m, n, 1), _product(v, c, n, 2),
        _product(c, v, n, 2, -1, zeta)])
    hit = set((got // (n * n)).tolist())
    return [(name, k not in hit) for k, name in enumerate(
        ("c_order", "v_nilpotent", "vc_commutation"))]


def _product(a, b, n: int, shift: int = 0, scale: int = 1, z=None) -> tuple:
    """The piece (algebra_core._sum) of the product a b of two n x n
    matrices, each the keys r n + c and coefficient rows of its nonzero
    entries in row order, at the keys shift n^2 + r n + c, times scale and
    the coefficient row z, when given."""
    (ak, ax), (bk, bx) = a, b
    ia, ib = _join(ak % n, _groups(bk // n, n))
    factors = ((ax, ia), (bx, ib))
    if z is not None:
        factors += ((z, np.zeros(len(ia), dtype=np.int64)),)
    return (shift * n + ak[ia] // n) * n + bk[ib] % n, scale, factors


def _power(m: int, a, e: int, n: int, shift: int = 0) -> tuple:
    """The piece of a^e (e >= 2) as _product gives it: every power before
    the last product summed, by repeated squaring."""
    half = a if e < 4 else _sum(m, [_power(m, a, e // 2, n)])
    if e % 2:
        return _product(_sum(m, [_product(half, half, n)]), a, n, shift)
    return _product(half, half, n, shift)


def _verify_module_iso(src: HModuleAlgebra, dst: HModuleAlgebra, T: Matrix):
    """Exact check that T is an H-module-algebra isomorphism src -> dst."""
    if T.nrows != T.ncols or rank(T) != T.nrows:
        raise InputError("candidate isomorphism is singular")
    if T @ src.c_op != dst.c_op @ T:
        raise InputError("candidate isomorphism does not intertwine c")
    if T @ src.v_op != dst.v_op @ T:
        raise InputError("candidate isomorphism does not intertwine v")
    a1, a2 = src.algebra, dst.algebra
    bad, = law_witnesses(a1, a2, [(T, [(T, T)])])
    if bad is not None:
        raise InputError("candidate isomorphism is not multiplicative "
                         "at basis pair (%d, %d)" % bad)
    if a1.unit is not None and a2.unit is not None:
        if T.apply(a1.unit) != tuple(a2.unit):
            raise InputError("candidate isomorphism does not preserve the unit")


# -- simplicity ---------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedSimple:
    operator_algebra_dim: int
    method: str


@dataclass(frozen=True)
class NotSimple:
    witness: Subspace | None
    reason: str = "proper nonzero H-invariant ideal"
    # how tier 1 ranked the short operator span, when it ran
    method: str | None = None


@dataclass(frozen=True)
class Inconclusive:
    detail: str


# elements of U per block of U h: small blocks keep the temporaries small
# and let the span stop as soon as it is full
_UH_BLOCK = 32


def _normal_form_modp(lefts, rights, twists, n: int, p: int) -> ModpEchelon:
    """Echelon basis over F_p of span{L' R' h}: the products L' R' first,
    one block per L', then U h for U the basis of their span, until the
    span is full."""
    eb = ModpEchelon(n * n, p)
    one = np.eye(n, dtype=np.int64)
    rs = np.concatenate([one[None], np.array(rights, dtype=np.int64)])
    for x in [one] + list(lefts):
        eb.insert_block((x @ rs).reshape(-1, n * n))
        if eb.dim == n * n:
            return eb
    # U h row-major: row (u, i) of the stacked U, times h, is row i of U_u h
    us = eb.rows.reshape(-1, n).copy()
    step = _UH_BLOCK * n
    for h in twists:
        for lo in range(0, len(us), step):
            eb.insert_block((us[lo:lo + step] @ h).reshape(-1, n * n))
            if eb.dim == n * n:
                return eb
    return eb


def _normal_form_exact(lefts, rights, twists, n: int, m: int) -> int:
    """_normal_form_modp over Q(zeta_m), on EchelonBasis."""
    eb = EchelonBasis(m, n * n)
    one = Matrix.identity(m, n)

    def flat(mat):
        return tuple(x for row in mat.rows for x in row)

    for x in [one] + lefts:
        for y in [one] + rights:
            eb.insert(flat(x @ y))
            if eb.dim == n * n:
                return eb.dim
    us = [Matrix(m, tuple(row[i * n:(i + 1) * n] for i in range(n)))
          for row in eb.rows()]
    for h in twists:
        for u in us:
            eb.insert(flat(u @ h))
            if eb.dim == n * n:
                return eb.dim
    return eb.dim


def taft_monomials(gens, mul, one, m: int) -> list:
    """The operators c^s v^k for 0 <= s, k < m but (s, k) != (0, 0), from
    gens = (c, v), products taken by mul, in order of degree s + k: the
    generators come first, and often fill the span alone."""
    c, v = gens
    cs, vs = [one], [one]
    for _ in range(m - 1):
        cs.append(mul(cs[-1], c))
        vs.append(mul(vs[-1], v))
    keys = sorted((s + k, s, k) for s in range(m) for k in range(m))
    return [mul(cs[s], vs[k]) for _, s, k in keys[1:]]


def structure_planes(A: FinDimAlgebra, gens):
    """(table, [g, ...]) as int64 planes at one degree: table[i, j, a]
    those of the coefficient of e_a in e_i e_j (FinDimAlgebra._planes),
    and each g (n, n, deg) those of one of the matrices gens
    (integer_planes), every array over its own common denominator; None
    when a coefficient reaches 2^62."""
    n = A.dim
    planes = A._planes()
    hs = integer_planes(A.m, [[x for row in g.rows for x in row] for g in gens])
    if planes is None or hs is None:
        return None
    table = planes[1]
    deg = max([table.shape[-1]] + [h.shape[-1] for _, h in hs])
    return (at_degree(table, deg),
            [at_degree(h, deg).reshape(n, n, deg) for _, h in hs])


def _span_generators(A: FinDimAlgebra, gens):
    """certified_rank's generators for span{L' R' h}: the L' R' as rows,
    and right multiplication by each of gens as the maps the span must be
    closed under, so it holds every L' R' times a word in gens; None when
    an overflow guard refuses."""
    n, m = A.dim, A.m
    planes = structure_planes(A, gens)
    if planes is None:
        return None
    table, hs = planes
    deg = table.shape[-1]
    one = np.zeros((1, n, n, deg), dtype=np.int64)
    one[0, range(n), range(n), 0] = 1
    # L(e_i)[a, j] = T[i, j, a] and R(e_i)[a, j] = T[j, i, a]; row (x, a)
    # times column (y, b) of the product is (L'_x R'_y)[a, b]
    lefts = np.concatenate([one, table.transpose(0, 2, 1, 3)])
    rights = np.concatenate([one, table.transpose(1, 2, 0, 3)])
    prod = zmatmul(lefts.reshape(-1, n, deg),
                   rights.transpose(1, 0, 2, 3).reshape(n, -1, deg), m)
    if prod is None:
        return None
    prod = prod.reshape(n + 1, n, n + 1, n, deg).transpose(0, 2, 1, 3, 4)

    def right_by(h):
        def apply(rows):
            out = zmatmul(rows.reshape(-1, n, deg), h, m)
            return None if out is None else out.reshape(len(rows), -1, deg)
        return apply

    return prod.reshape(-1, n * n, deg), [right_by(h) for h in hs]


def _normal_form_dim(A: FinDimAlgebra, gens, twists, laws):
    """(dim, method) of span{L' R' h}, L' over 1 and the L(e_i), R' over 1
    and the R(e_i) of A, h over twists(gens, mul, one) and 1.

    Each L' R' h is a word in the L(e_i), R(e_i) and gens, so a full span
    certifies density whatever the input.  A short span is the dimension
    of the algebra they generate only when its laws put every word in that
    form, so laws() runs before a short rank is trusted and raises
    InputError if they fail.  linalg.certified_rank ranks the span over F_p
    for the first of three primes that reduces the structure constants and
    gens, with the L and R stacks read off one reduced table.  A full rank
    there is pinned ("operator span mod p=...").  A short one is a lower
    bound, and the certificate confirms it at every dim: its integer check
    shows that the span of the reconstructed echelon form holds every
    L' R' and is closed under right multiplication by each of gens
    ("operator span, certified(p=...)").  Without a certificate the span
    is ranked over Q(zeta_m) ("operator span, exact").
    """
    n, m = A.dim, A.m

    def images(p, w):
        table = _table_modp(A, p, w)
        gs = [matrix_to_modp(x, p, w) for x in gens]
        hs = twists(gs, lambda x, y: x @ y % p, np.eye(n, dtype=np.int64))
        # L(e_i)[a, j] = T[i, j, a] and R(e_i)[a, j] = T[j, i, a]
        eb = _normal_form_modp(table.transpose(0, 2, 1),
                               table.transpose(1, 2, 0), hs, n, p)
        # a full span is pinned on its dim alone: no echelon form is copied
        return (range(n * n), None) if eb.dim == n * n else eb.reduced()

    got = certified_rank(m, images, lambda: _span_generators(A, gens), n * n)
    if got is not None and got[2] is None:
        return got[0], "operator span mod p=%d" % got[1][0]
    laws()
    if got is not None:
        return got[0], "operator span, certified(p=%s)" % ",".join(
            map(str, got[1]))
    hs = twists(list(gens), Matrix.__matmul__, Matrix.identity(m, n))
    return (_normal_form_exact([A.left_mult_basis(i) for i in range(n)],
                               [A.right_mult_basis(i) for i in range(n)],
                               hs, n, m),
            "operator span, exact")


def operator_span_dim(mod: HModuleAlgebra):
    """(dim, method) for the unital operator algebra O generated by the
    L(e_i), R(e_i), c and v of a module algebra.

    The module-algebra laws normal-order every word: v L_a = L_{c(a)} v +
    L_{v(a)}, v R_b = R_b v + R_{v(b)} c, c L_a = L_{c(a)} c,
    c R_b = R_{c(b)} c, and L_a R_b = R_b L_a by associativity.  So
    O = span{L' R' c^s v^k} with L' in F 1 + L(A) and R' in F 1 + R(A),
    at most (n+1)^2 m^2 explicit operators, which are ranked instead of
    spinning words.  A full span certifies density even when the laws fail;
    a short one is trusted only after hma_verify passes, and a module that
    fails it raises InputError.  Modular and exact ranks, primes and method
    strings are those of the word spin on every module whose laws hold.
    """
    m = mod.m

    def laws():
        failed = [name for name, _ in hma_verify(mod).failed()]
        if failed:
            raise InputError("module-algebra laws fail: %s; a short operator "
                             "span decides nothing without them"
                             % ", ".join(failed))

    return _normal_form_dim(
        mod.algebra, (mod.c_op, mod.v_op),
        lambda gens, mul, one: taft_monomials(gens, mul, one, m),
        laws)


def is_h_simple(mod: HModuleAlgebra):
    """Decide H-simplicity: CertifiedSimple / NotSimple(witness) / Inconclusive.

    Tier 1 is operator_span_dim: a full normal-form span certifies, and a
    short one is trusted only after hma_verify passes (InputError if not).
    Tier 2 runs after that check, so the laws hold: it closes the canonical
    basis vectors of each K_i, the intersection of ker(c - zeta^i) and
    ker v, i = 0..m-1, under both multiplications, c and v, and the first
    proper closure is the NotSimple witness.  Every nonzero invariant ideal meets some K_i (see
    the module docstring), but it need not contain one of those basis
    vectors, so when none closes to a proper ideal the result is
    Inconclusive.
    """
    A = mod.algebra
    n = A.dim
    if n == 0 or A.square_is_zero():
        return NotSimple(witness=None, reason="A * A = 0")

    dim, method = operator_span_dim(mod)
    if dim == n * n:
        return CertifiedSimple(operator_algebra_dim=dim, method=method)

    # tier 2: K_i is the kernel of c - zeta^i stacked over v
    ident = Matrix.identity(mod.m, n)
    for i in range(mod.m):
        shifted = mod.c_op - ident * zeta_power(mod.m, i)
        for x in kernel(Matrix(mod.m, shifted.rows + mod.v_op.rows)):
            ideal = ideal_generated_by(A, [x], extra_ops=(mod.c_op, mod.v_op))
            if ideal.dim < n:
                return NotSimple(witness=ideal, method=method)
    return Inconclusive(detail="operator span reached %d of %d (%s); no witness "
                               "ideal found" % (dim, n * n, method))


def verify_invariant_ideal(mod: HModuleAlgebra, s: Subspace) -> bool:
    """Exact check that s is an H-invariant two-sided ideal of the algebra:
    its closure under both multiplications, c and v, is s itself."""
    closure = ideal_generated_by(mod.algebra, s.basis,
                                 extra_ops=(mod.c_op, mod.v_op))
    return closure.dim == s.dim


# -- generic isomorphism search -------------------------------------------------


def _scale_to_unit(mod1, mod2, T: Matrix):
    """Rescale T so it sends unit to unit, when both algebras are unital."""
    u1, u2 = mod1.algebra.unit, mod2.algebra.unit
    if u1 is None or u2 is None:
        return T
    img = T.apply(u1)
    # img must be mu * u2 for a nonzero scalar mu
    mu = None
    for a, b in zip(img, u2):
        if not b.is_zero():
            cand = a / b
            if mu is None:
                mu = cand
            elif mu != cand:
                return None
        elif not a.is_zero():
            return None
    if mu is None or mu.is_zero():
        return None
    return T * mu.inverse()


# candidates per screened block: enough to amortise numpy's per-call cost,
# few enough that memory stays bounded and an early witness returns at once
_SCREEN_BLOCK = 32


def _algebra_map_screen(mod1, mod2, space):
    """A necessary test over F_p for the candidates of the generic search:
    keep(block) maps a list of coefficient vectors over space to a bool
    array, False where combination(coeffs, space) is sure to fail
    _scale_to_unit or the exact algebra-map law.  None when the screen
    cannot be built: a denominator vanishes mod the first reduction prime p,
    the second unit vanishes mod p, or n p^2 would not fit in an int64.

    Reduction Z[zeta_m] -> F_p (zeta to its image, denominators prime to p)
    is a ring homomorphism.  When both algebras are unital, T passes the
    exact path only if T(u1) = mu u2 and T/mu is multiplicative, that is
    mu T(ab) = T(a) T(b); mu is p-integral, since u2's k0-th coordinate is
    a unit mod p, so both equations hold mod p with mu_p = T_p(u1)[k0] /
    u2_p[k0].  Otherwise mu = 1.  The screen never tests rank.
    """
    A1, A2 = mod1.algebra, mod2.algebra
    n = A1.dim
    p, w = next(reduction_primes(mod1.m))
    if n * p * p >= 1 << 63:
        return None
    unital = A1.unit is not None and A2.unit is not None
    try:
        basis = np.array([matrix_to_modp(b, p, w).ravel() for b in space])
        t1, t2 = _table_modp(A1, p, w), _table_modp(A2, p, w)
        if unital:
            u1, u2 = (np.array([cyc_to_modp(x, p, w) for x in u], dtype=np.int64)
                      for u in (A1.unit, A2.unit))
    except ModReductionError:
        return None
    if unital:
        nz = np.flatnonzero(u2)
        if not nz.size:
            return None
        k0 = nz[0]
        inv = pow(int(u2[k0]), p - 2, p)
    t2_rows = t2.reshape(n, n * n)

    def keep(block):
        T = (np.array(block, dtype=np.int64) @ basis % p).reshape(-1, n, n)
        if unital:
            img = T @ u1 % p
            mu = img[:, k0] * inv % p
            ok = (img == mu[:, None] * u2 % p).all(axis=1)
        else:
            mu = np.ones(len(T), dtype=np.int64)
            ok = np.ones(len(T), dtype=bool)
        Tt = T.transpose(0, 2, 1)
        # mu T(e_i e_j) against T(e_i) T(e_j) for every j, one i at a
        # time on the candidates still alive
        for i in range(n):
            live = np.flatnonzero(ok)
            if not live.size:
                break
            t, tt = T[live], Tt[live]
            lhs = t1[i] @ tt % p * mu[live, None, None] % p
            rhs = tt @ (t[:, :, i] @ t2_rows % p).reshape(-1, n, n) % p
            ok[live] = (lhs == rhs).all(axis=(1, 2))
        return ok

    return keep


def hma_isomorphic_generic(mod1: HModuleAlgebra, mod2: HModuleAlgebra, *,
                           budget: int = 64):
    """Search for an H-module algebra isomorphism; None = none found in budget.

    The intertwiner conditions T c1 = c2 T and T v1 = v2 T are linear, so the
    candidate space is solved exactly; multiplicativity is not linear, so
    candidates are drawn from that space: the identity first when it is
    equivariant (decided before the space is solved), then the combinations
    with coefficients from linalg.small_coefficients over 0, 1, -1, 2, -2,
    3, -3 (basis elements, prefix sums, then that grid), at most
    budget + 2 dim(space) of them.
    Each is rescaled to send unit to unit when possible and checked exactly
    (algebra_core.law_witnesses).  A None answer is a budget statement, not a
    proof.  A negative budget raises InputError.

    The grid candidates are taken lazily in blocks and screened first over
    F_p (_algebra_map_screen): unit to a multiple of the unit and
    mu T(ab) = T(a) T(b), both images of exact equations under reduction mod
    p.  A candidate the screen drops would fail the exact check, so only the
    survivors are built over Q(zeta_m) and decided exactly, in grid order,
    and the answer is the one the unscreened loop gives.  When the screen
    cannot be built, every candidate is decided exactly.
    """
    if budget < 0:
        raise InputError("budget must be >= 0, got %d" % budget)
    if mod1.m != mod2.m:
        raise InputError("conductor mismatch")
    A1, A2 = mod1.algebra, mod2.algebra
    if A1.dim != A2.dim:
        return None
    m, n = mod1.m, A1.dim

    def decide(T):
        T = _scale_to_unit(mod1, mod2, T)
        if T is None or rank(T) != n:
            return None
        return T if law_witnesses(A1, A2, [(T, [(T, T)])]) == [None] else None

    # the identity first when it is equivariant: it lies in the intertwiner
    # space, so deciding it before solving for that space settles every
    # self-comparison at once; later candidates are equivariant by
    # construction, so this is the only one needing its own check (at dim
    # 0 the space is empty, and the answer None)
    tried = n > 0 and mod1.c_op == mod2.c_op and mod1.v_op == mod2.v_op
    if tried:
        T = decide(Matrix.identity(m, n))
        if T is not None:
            return T
    one = CycNum.one(m)
    space = intertwiner_space(m, n, n, [
        (mod1.c_op, mod2.c_op, one),
        (mod1.v_op, mod2.v_op, one),
    ])
    if not space:
        return None
    limit = budget + 2 * len(space) - tried
    keep = _algebra_map_screen(mod1, mod2, space)
    grid = itertools.islice(
        small_coefficients(len(space), (0, 1, -1, 2, -2, 3, -3)), limit)
    for block in iter(lambda: list(itertools.islice(grid, _SCREEN_BLOCK)), []):
        alive = [True] * len(block) if keep is None else keep(block)
        for coeffs, ok in zip(block, alive):
            if ok:
                T = decide(combination(coeffs, space))
                if T is not None:
                    return T
    return None
