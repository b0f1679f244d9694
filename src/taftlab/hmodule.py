"""Module algebras over the Taft algebra: verification, actions, simplicity.

An HModuleAlgebra packages a finite-dimensional algebra A with the two
operator matrices c_op and v_op.  Checking the module-algebra law on the
generators c and v is enough: c and v generate H as an algebra, and the law
h(ab) = sum (h_1 a)(h_2 b) is multiplicative in h (if it holds for g and h
it holds for gh, because Delta is an algebra map).  hma_verify spells the
generator checks out and records that derivation in its report.  The two
laws c(ab) = c(a)c(b) and v(ab) = c(a)v(b) + v(a)b are checked exactly on
every basis pair, in integers: the structure constants and both operators
are written over one common denominator, each side becomes a sum of raw
integer convolutions of their numerators, and a sum is reduced mod Phi_m
only at its zero test.  The left multiplications by c(e_i) and v(e_i) are
built once per i, so a dense table costs O(dim^4) numerator products
instead of O(dim^5) field products per law.

Whether a linear map T: A -> B is multiplicative is decided by the same
integer check in one routine, _multiplicative_witness, which
_verify_module_iso and the generic isomorphism search call.

is_h_simple is a decision with three honest outcomes.  Tier 1 (Burnside
density): spin the unital operator algebra generated by all left/right
multiplications together with c_op and v_op; if it has dimension (dim A)^2
it acts irreducibly, so no proper nonzero H-invariant ideal can exist, and
with A*A != 0 that certifies simplicity.  The spin runs over a prime field
F_p (p = 1 mod m, zeta sent to an order-m element), which can only
underestimate the true span; reaching (dim A)^2 mod p is therefore a sound
certificate, and a shortfall falls back to exact spinning on small
algebras (dim A <= 10).  Tier 2 hunts for a witness: invariant-ideal
closures seeded from eigenvectors, basis vectors, kernels, and five fixed
pseudo-random vectors (seed 0); any proper nonzero closed subspace is
returned as a verified witness.  If both tiers come back empty the result
is Inconclusive, never a guess.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .cyclotomic import (CycNum, add_products, fold, raw_sums, vanishes,
                         zeta_power)
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, ModpEchelon, ModReductionError,
                     Subspace, intertwiner_space, kernel, matrix_to_modp,
                     modular_prime, root_of_unity_mod, vec_is_zero)
from .algebra_core import FinDimAlgebra, ideal_generated_by
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
    A, m = mod.algebra, mod.m
    n = A.dim
    ident = Matrix.identity(m, n)
    z = zeta_power(m, 1)

    rep.add("c_order", mod.c_op ** m == ident)
    rep.add("v_nilpotent", (mod.v_op ** m).is_zero())
    rep.add("vc_commutation", mod.v_op @ mod.c_op == (mod.c_op @ mod.v_op) * z)

    c_wit, v_wit = _module_law_witnesses(mod)
    rep.add("c_multiplicative", c_wit is None, c_wit)
    rep.add("v_skew_derivation", v_wit is None, v_wit)

    if A.unit is not None:
        rep.add("c_fixes_unit", mod.c_op.apply(A.unit) == tuple(A.unit))
        rep.add("v_kills_unit", vec_is_zero(mod.v_op.apply(A.unit)))
    return rep


def _scaled(cells, factor: int) -> list:
    """An integer view's cells with every numerator multiplied by factor."""
    return [[[(a, tuple((s, u * factor) for s, u in y)) for a, y in cell]
             for cell in row] for row in cells]


def _columns(op: Matrix, sign: int, big: int) -> list:
    """cols[a]: the (b, sign * numerators of op[b][a] over big), nonzero only;
    big must be a multiple of every entry's denominator."""
    return [[(b, tuple((s, sign * u * (big // row[a].den))
                       for s, u in enumerate(row[a].num) if u))
             for b, row in enumerate(op.rows) if any(row[a].num)]
            for a in range(op.ncols)]


def _left_mult(m: int, table, col) -> list:
    """out[q]: the (b, numerators over E^2) of x e_q, for x the vector col
    over E and table the cells over E."""
    n = len(table)
    acc = raw_sums(m)
    for p, x in col:
        for q, cell in enumerate(table[p]):
            add_products(acc, x, cell, q * n)
    out = [[] for _ in range(n)]
    for key, raw in acc.items():
        y = tuple((s, u) for s, u in enumerate(fold(m, raw)) if u)
        if y:
            q, b = divmod(key, n)
            out[q].append((b, y))
    return out


def _holds(m: int, acc) -> bool:
    return all(vanishes(m, raw) for raw in acc.values())


def _module_law_witnesses(mod: HModuleAlgebra) -> tuple:
    """The last basis pair (i, j) in row-major order where
    c(e_i e_j) = c(e_i) c(e_j) fails, and the last where
    v(e_i e_j) = c(e_i) v(e_j) + v(e_i) e_j fails; None where a law holds.

    Over the common denominator E of the table and both operators, c(e_i e_j)
    and v(e_i) e_j carry E^2 and c(e_i) c(e_j) and c(e_i) v(e_j) carry E^3
    (c(e_i) e_q is folded first, as the left multiplication by c(e_i)), so
    the E^2 terms are scaled by E and each difference is a sum of raw
    numerator convolutions (cyclotomic.add_products).
    """
    A, m, n = mod.algebra, mod.m, mod.algebra.dim
    den, cells = A._integer_view()
    big = lcm(den, *(x.den for op in (mod.c_op, mod.v_op)
                     for row in op.rows for x in row))
    table = _scaled(cells, big // den)
    table_e = _scaled(cells, big // den * big)
    c_cols, v_cols = _columns(mod.c_op, 1, big), _columns(mod.v_op, 1, big)
    c_neg, v_neg = _columns(mod.c_op, -1, big), _columns(mod.v_op, -1, big)
    minus_e = ((0, -big),)

    c_wit = v_wit = None
    # backwards, so the first failure found is the last in row-major order
    for i in reversed(range(n)):
        lc = _left_mult(m, table, c_cols[i])
        lv = _left_mult(m, table, v_cols[i])
        for j in reversed(range(n)):
            prod = table_e[i][j]
            if c_wit is None:
                # E c(e_i e_j) - c(e_i) c(e_j)
                acc = raw_sums(m)
                for a, x in prod:
                    add_products(acc, x, c_cols[a])
                for q, x in c_neg[j]:
                    add_products(acc, x, lc[q])
                if not _holds(m, acc):
                    c_wit = (i, j)
            if v_wit is None:
                # E v(e_i e_j) - c(e_i) v(e_j) - E v(e_i) e_j
                acc = raw_sums(m)
                for a, x in prod:
                    add_products(acc, x, v_cols[a])
                for q, x in v_neg[j]:
                    add_products(acc, x, lc[q])
                add_products(acc, minus_e, lv[j])
                if not _holds(m, acc):
                    v_wit = (i, j)
            if c_wit is not None and v_wit is not None:
                return c_wit, v_wit
    return c_wit, v_wit


def _multiplicative_witness(src: FinDimAlgebra, dst: FinDimAlgebra,
                            T: Matrix):
    """The first basis pair (i, j) in row-major order with
    T(e_i e_j) != T(e_i) T(e_j), or None: the c law of _module_law_witnesses
    for a map T: src -> dst, over the common denominator of both tables and
    T, with the left multiplication by T(e_i) in dst built once per i.
    """
    m = src.m
    den1, cells1 = src._integer_view()
    den2, cells2 = dst._integer_view()
    big = lcm(den1, den2, *(x.den for row in T.rows for x in row))
    target = _scaled(cells2, big // den2)
    source_e = _scaled(cells1, big // den1 * big)
    cols, neg = _columns(T, 1, big), _columns(T, -1, big)
    for i in range(src.dim):
        lt = _left_mult(m, target, cols[i])
        for j in range(src.dim):
            # E T(e_i e_j) - T(e_i) T(e_j)
            acc = raw_sums(m)
            for a, x in source_e[i][j]:
                add_products(acc, x, cols[a])
            for q, x in neg[j]:
                add_products(acc, x, lt[q])
            if not _holds(m, acc):
                return i, j
    return None


def _verify_module_iso(src: HModuleAlgebra, dst: HModuleAlgebra, T: Matrix):
    """Exact check that T is an H-module-algebra isomorphism src -> dst."""
    try:
        T.inverse()
    except InputError:
        raise InputError("candidate isomorphism is singular")
    if T @ src.c_op != dst.c_op @ T:
        raise InputError("candidate isomorphism does not intertwine c")
    if T @ src.v_op != dst.v_op @ T:
        raise InputError("candidate isomorphism does not intertwine v")
    a1, a2 = src.algebra, dst.algebra
    bad = _multiplicative_witness(a1, a2, T)
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


@dataclass(frozen=True)
class Inconclusive:
    detail: str


def _action_generators(mod: HModuleAlgebra) -> list:
    A = mod.algebra
    gens = [A.left_mult_basis(i) for i in range(A.dim)]
    gens += [A.right_mult_basis(i) for i in range(A.dim)]
    gens += [mod.c_op, mod.v_op]
    return gens


def _spin_dim_modp(gens, n: int, m: int, p: int) -> int:
    """Dimension of the span of all words in gens (with identity) over F_p."""
    w = root_of_unity_mod(m, p)
    gmods = [matrix_to_modp(g, p, w) for g in gens]
    eb = ModpEchelon(n * n, p)
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


def _spin_dim_exact(gens, n: int, m: int) -> int:
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


def operator_span_dim(mod_or_gens, n: int | None = None, *, m: int | None = None,
                      exact_max_dim: int = 10):
    """(dim, method) for the unital operator algebra generated by the inputs.

    Tries prime-field spinning first (sound upper certificate when the span
    fills); falls back to exact spinning when the modular result is short
    and the algebra is small enough to afford it, else reports the modular
    dimension as a lower bound.
    """
    if isinstance(mod_or_gens, HModuleAlgebra):
        gens = _action_generators(mod_or_gens)
        n = mod_or_gens.algebra.dim
        m = mod_or_gens.m
    else:
        gens = list(mod_or_gens)
        if n is None or m is None:
            raise InputError("operator_span_dim needs n and m with a raw generator list")
    last = None
    # up to three primes: the first that reduces all the generators is used
    for skip in range(3):
        p = modular_prime(m, skip)
        try:
            d = _spin_dim_modp(gens, n, m, p)
        except ModReductionError:
            continue
        last = (d, "operator span mod p=%d" % p)
        if d == n * n:
            return last
        break
    if n <= exact_max_dim:
        d = _spin_dim_exact(gens, n, m)
        return (d, "operator span, exact")
    if last is not None:
        return (last[0], last[1] + " (lower bound)")
    return (0, "no usable reduction prime")


def is_h_simple(mod: HModuleAlgebra):
    """Decide H-simplicity: CertifiedSimple / NotSimple(witness) / Inconclusive."""
    A = mod.algebra
    n = A.dim
    if n == 0 or A.square_is_zero():
        return NotSimple(witness=None, reason="A * A = 0")

    dim, method = operator_span_dim(mod)
    if dim == n * n:
        return CertifiedSimple(operator_algebra_dim=dim, method=method)

    # tier 2: witness search
    ident = Matrix.identity(mod.m, n)
    candidates = []
    for i in range(mod.m):
        shifted = mod.c_op - ident * zeta_power(mod.m, i)
        candidates.extend(kernel(shifted))
    candidates.extend(A.basis_vector(i) for i in range(n))
    candidates.extend(kernel(mod.v_op))
    for i in range(n):
        candidates.extend(kernel(A.left_mult_basis(i))[:2])
    rng = random.Random(0)
    for _ in range(5):
        candidates.append(tuple(CycNum.rational(mod.m, rng.randint(-3, 3))
                                for _ in range(n)))
    seen = set()
    for cand in candidates:
        if vec_is_zero(cand) or tuple(cand) in seen:
            continue
        seen.add(tuple(cand))
        ideal = ideal_generated_by(A, [cand], extra_ops=(mod.c_op, mod.v_op))
        if 0 < ideal.dim < n:
            return NotSimple(witness=ideal)
    return Inconclusive(detail="operator span reached %d of %d (%s); no witness "
                               "ideal found" % (dim, n * n, method))


def verify_invariant_ideal(mod: HModuleAlgebra, s: Subspace) -> bool:
    """Exact check that s is an H-invariant two-sided ideal of the algebra."""
    A = mod.algebra
    eb = EchelonBasis(mod.m, A.dim)
    for v in s.basis:
        eb.insert(v)
    for x in s.basis:
        for i in range(A.dim):
            e = A.basis_vector(i)
            if not eb.contains(A.multiply(e, x)):
                return False
            if not eb.contains(A.multiply(x, e)):
                return False
        if not eb.contains(mod.c_op.apply(x)):
            return False
        if not eb.contains(mod.v_op.apply(x)):
            return False
    return True


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


def hma_isomorphic_generic(mod1: HModuleAlgebra, mod2: HModuleAlgebra, *,
                           budget: int = 64):
    """Search for an H-module algebra isomorphism; None = none found in budget.

    The intertwiner conditions T c1 = c2 T and T v1 = v2 T are linear, so the
    candidate space is solved exactly; multiplicativity is not linear, so
    candidates are sampled from that space (basis elements, prefix sums, then
    pseudo-random combinations from seed 0), rescaled to send unit to unit
    when possible, and checked exactly (_multiplicative_witness).  A None
    answer is a budget statement, not a proof.
    """
    if mod1.m != mod2.m:
        raise InputError("conductor mismatch")
    A1, A2 = mod1.algebra, mod2.algebra
    if A1.dim != A2.dim:
        return None
    m, n = mod1.m, A1.dim
    one = CycNum.one(m)
    space = intertwiner_space(m, n, n, [
        (mod1.c_op, mod2.c_op, one),
        (mod1.v_op, mod2.v_op, one),
    ])
    if not space:
        return None

    def candidates():
        # the identity first when it is equivariant: it settles every
        # self-comparison immediately; later candidates are equivariant by
        # construction, so this is the only one needing its own check
        if mod1.c_op == mod2.c_op and mod1.v_op == mod2.v_op:
            yield Matrix.identity(m, n)
        for b in space:
            yield b
        acc = None
        for b in space:
            acc = b if acc is None else acc + b
            yield acc
        rng = random.Random(0)
        for _ in range(budget):
            coeffs = [rng.randint(-3, 3) for _ in space]
            if not any(coeffs):
                continue
            t = None
            for cf, b in zip(coeffs, space):
                if cf:
                    part = b * cf
                    t = part if t is None else t + part
            yield t

    tried = 0
    for T in candidates():
        tried += 1
        if tried > budget + 2 * len(space):
            break
        T2 = _scale_to_unit(mod1, mod2, T)
        if T2 is None:
            continue
        T = T2
        try:
            T.inverse()
        except InputError:
            continue
        if _multiplicative_witness(A1, A2, T) is None:
            return T
    return None
