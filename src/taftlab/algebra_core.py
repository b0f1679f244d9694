"""Finite-dimensional associative algebras over Q(zeta_m) by structure constants.

An algebra is a dim x dim table of coordinate vectors: mult[i][j] is the
basis expansion of e_i * e_j.  Everything downstream (radical, gradings,
ideal closures, module structures) works on these tables with the exact
linear algebra from linalg.

The Jacobson radical uses the characteristic-zero trace-form criterion on
the unital hull: x lies in the radical iff trace(L_x L_y) vanishes for all
y, with L the left regular representation of the hull.  That keeps the
computation one exact kernel, with nilpotency and semisimple-quotient as
checkable properties rather than part of the algorithm.

The laws are decided exactly on the integer view of a table (its structure
constants' numerators over one common denominator), each sum reduced mod
Phi_m only at its zero test: associativity on basis triples, the unit, and,
in one routine, every law of the form T(ab) = sum S(a) U(b) on basis pairs
(law_witnesses).  That form covers "T is an algebra map", the c and v laws
of a module algebra over the Taft algebra and derivations; it suffices to
check such a law on basis pairs, since both sides are bilinear.  The mod-p
image of a table (_table_modp) is read from the same view, so no other
module reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .cyclotomic import (CycNum, add_products, fold, raw_sums, vanishes,
                         zeta_power)
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, ModReductionError, Subspace, kernel,
                     solve, subspaces_independent, vec_is_zero, vec_zero)


class FinDimAlgebra:
    """Associative algebra by structure constants; optionally unital."""

    __slots__ = ("m", "dim", "mult", "unit", "_nz", "_iv")

    def __init__(self, m: int, mult: tuple, unit=None, *,
                 validate: bool = True, autodetect_unit: bool = True):
        dim = len(mult)
        norm = []
        for row in mult:
            if len(row) != dim:
                raise InputError("structure constant table must be dim x dim")
            cells = []
            for cell in row:
                vec = tuple(x if isinstance(x, CycNum) else CycNum.rational(m, x)
                            for x in cell)
                if len(vec) != dim:
                    raise InputError("structure constant vectors must have length dim")
                cells.append(vec)
            norm.append(tuple(cells))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mult", tuple(norm))
        object.__setattr__(self, "_nz", None)
        object.__setattr__(self, "_iv", None)
        if unit is not None:
            unit = tuple(x if isinstance(x, CycNum) else CycNum.rational(m, x)
                         for x in unit)
            if len(unit) != dim:
                raise InputError("unit vector must have length dim")
        object.__setattr__(self, "unit", unit)
        if validate:
            self._check_associative()
        if unit is not None:
            self._check_unit(unit)
        elif autodetect_unit and dim:
            found = self.find_unit()
            if found is not None:
                object.__setattr__(self, "unit", found)

    def __setattr__(self, *a):
        raise AttributeError("FinDimAlgebra is immutable")

    # -- construction helpers ------------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        return tuple(CycNum.one(self.m) if j == i else CycNum.zero(self.m)
                     for j in range(self.dim))

    def _nonzero(self) -> tuple:
        """nz[i][j]: the (a, c) with c = mult[i][j][a] nonzero, ascending in a."""
        nz = self._nz
        if nz is None:
            nz = tuple(tuple(tuple((a, c) for a, c in enumerate(cell) if any(c.num))
                             for cell in row) for row in self.mult)
            object.__setattr__(self, "_nz", nz)
        return nz

    def _integer_view(self) -> tuple:
        """(D, cells): D the common denominator of the nonzero structure
        constants, cells[i][j] the (a, numerators) of each nonzero
        mult[i][j][a] = numerators / D, ascending in a, with numerators the
        nonzero (slot, int) pairs of the zeta-power coefficients."""
        iv = self._iv
        if iv is None:
            nz = self._nonzero()
            den = lcm(1, *(c.den for row in nz for cell in row for _, c in cell))
            iv = den, tuple(tuple(tuple(
                (a, tuple((s, u * (den // c.den)) for s, u in enumerate(c.num) if u))
                for a, c in cell) for cell in row) for row in nz)
            object.__setattr__(self, "_iv", iv)
        return iv

    def multiply(self, x, y) -> tuple:
        nz = self._nonzero()
        ys = [(j, yj) for j, yj in enumerate(y) if any(yj.num)]
        acc = list(vec_zero(self.m, self.dim))
        for i, xi in enumerate(x):
            if not any(xi.num):
                continue
            row = nz[i]
            for j, yj in ys:
                cell = row[j]
                if cell:
                    coeff = xi * yj
                    for a, c in cell:
                        acc[a] = acc[a] + coeff * c
        return tuple(acc)

    def left_mult_basis(self, i: int) -> Matrix:
        return Matrix(self.m, tuple(tuple(self.mult[i][j][a] for j in range(self.dim))
                                    for a in range(self.dim)))

    def right_mult_basis(self, i: int) -> Matrix:
        return Matrix(self.m, tuple(tuple(self.mult[j][i][a] for j in range(self.dim))
                                    for a in range(self.dim)))

    def find_unit(self):
        """Solve the two-sided unit equations; None if the algebra has no 1."""
        rows = []
        rhs = []
        zero = CycNum.zero(self.m)
        for j in range(self.dim):
            for a in range(self.dim):
                rows.append(tuple(self.mult[i][j][a] for i in range(self.dim)))
                rhs.append(CycNum.one(self.m) if a == j else zero)
                rows.append(tuple(self.mult[j][i][a] for i in range(self.dim)))
                rhs.append(CycNum.one(self.m) if a == j else zero)
        return solve(Matrix(self.m, tuple(rows)), tuple(rhs))

    def _check_unit(self, unit):
        j = self._unit_witness(unit)
        if j is not None:
            raise InputError("claimed unit fails at basis index %d" % j)

    def _unit_witness(self, unit):
        """The first basis index j with u e_j != e_j or e_j u != e_j, or None.

        Over the common denominator U of u and D of the table both products
        carry U D, so e_j is scaled by U D and each difference (keys a for
        u e_j, dim + a for e_j u) is a sum of raw numerator convolutions.
        """
        m, dim = self.m, self.dim
        den, cells = self._integer_view()
        uden = lcm(1, *(x.den for x in unit))
        us = [(i, tuple((s, u * (uden // x.den)) for s, u in enumerate(x.num) if u))
              for i, x in enumerate(unit) if any(x.num)]
        for j in range(dim):
            acc = raw_sums(m)
            acc[j][0] = acc[dim + j][0] = -uden * den
            for i, x in us:
                add_products(acc, x, cells[i][j])
                add_products(acc, x, cells[j][i], dim)
            if not all(vanishes(m, raw) for raw in acc.values()):
                return j
        return None

    def _check_associative(self):
        triple = self._associativity_witness()
        if triple is not None:
            raise InputError("structure constants are not associative at basis "
                             "triple (%d, %d, %d)" % triple)

    def _associativity_witness(self):
        """The first basis triple (i, j, k) in lexicographic order with
        (e_i e_j) e_k != e_i (e_j e_k), or None.

        Both sides are sums of products of two structure constants, so over
        the table's common denominator D both carry D^2 and the check is an
        integer identity: the raw numerator convolutions are summed and each
        nonzero sum is reduced mod Phi_m once.  For each (i, j), the
        differences for all k at once are summed from the nonzero structure
        constants only, so the cost is dim^2 plus the products that exist.
        """
        m, dim = self.m, self.dim
        _, cells = self._integer_view()
        # rows[a]: the (k * dim + c, numerators of the e_c-coefficient of
        # e_a e_k), one entry per nonzero structure constant in row a
        rows = [[(k * dim + c, y) for k, cell in enumerate(row) for c, y in cell]
                for row in cells]
        # minus[j]: (k * dim, the (b, -numerators) of e_j e_k) per nonzero cell
        minus = [[(k * dim, [(b, tuple((s, -u) for s, u in y)) for b, y in cell])
                  for k, cell in enumerate(row) if cell] for row in cells]
        for i in range(dim):
            row_i = cells[i]
            for j in range(dim):
                # diff[k * dim + c]: e_c-coefficient of (e_i e_j) e_k - e_i (e_j e_k)
                diff = raw_sums(m)
                for a, x in row_i[j]:
                    add_products(diff, x, rows[a])
                for base, cell in minus[j]:
                    for b, y in cell:
                        add_products(diff, y, row_i[b], base)
                bad = [key for key, raw in diff.items() if not vanishes(m, raw)]
                if bad:
                    return i, j, min(bad) // dim
        return None

    def square_is_zero(self) -> bool:
        return all(vec_is_zero(self.mult[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        return "FinDimAlgebra(m=%d, dim=%d, unital=%s)" % (
            self.m, self.dim, self.unit is not None)


# -- laws on basis pairs: T(ab) = sum S(a) U(b) ---------------------------------


def _columns(op: Matrix, factor: int, big: int) -> list:
    """cols[a]: the (b, factor * numerators of op[b][a] over big), nonzero
    only; big must be a multiple of every entry's denominator."""
    return [[(b, tuple((s, factor * u * (big // row[a].den))
                       for s, u in enumerate(row[a].num) if u))
             for b, row in enumerate(op.rows) if any(row[a].num)]
            for a in range(op.ncols)]


def _left_mult(m: int, table, col) -> list:
    """out[q]: the (b, numerators over E D) of x e_q, for x the vector col
    over E and table the cells of an integer view over D."""
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


def law_witnesses(src: FinDimAlgebra, dst: FinDimAlgebra, laws) -> list:
    """For each law (T, [(S, U), ...]) of linear maps src -> dst (matrices),
    the first basis pair (i, j) in row-major order where
    T(e_i e_j) != sum S(e_i) U(e_j), products taken in dst; None where
    the law holds.

    "T is an algebra map" is (T, [(T, T)]); a module algebra's c and v laws
    are (c, [(c, c)]) and (v, [(c, v), (v, 1)]), and a derivation D is
    (D, [(D, 1), (1, D)]), with 1 the identity matrix.  Each pair is decided
    exactly, in integers.  Let D and D' be the common denominators of the
    src and dst tables and E that of D and every map.  S(e_i) e_q is folded
    over E D' as the left multiplication by S(e_i), built once per i and
    shared by every law with that S, so each S(e_i) U(e_j) carries E^2 D'.
    T(e_i e_j) carries D E and is scaled by E D' / D, so each difference is
    a sum of raw numerator convolutions (cyclotomic.add_products), reduced
    mod Phi_m only at its zero test.
    """
    m = src.m
    den1, cells1 = src._integer_view()
    den2, cells2 = dst._integer_view()
    maps = {id(x): x for t, terms in laws
            for x in (t, *(y for pair in terms for y in pair))}
    big = lcm(den1, *(x.den for op in maps.values() for row in op.rows
                      for x in row))
    cols = {key: _columns(op, 1, big) for key, op in maps.items()}
    neg = {key: _columns(op, -1, big) for key, op in maps.items()}
    # per law: T's columns scaled to E^2 D', and (id of S, -U's columns)
    checks = [(_columns(t, big * den2 // den1, big),
               [(id(s), neg[id(u)]) for s, u in terms]) for t, terms in laws]
    found = [None] * len(laws)
    for i in range(src.dim):
        todo = [k for k, w in enumerate(found) if w is None]
        if not todo:
            break
        lefts = {}
        for k in todo:
            for s, _ in checks[k][1]:
                if s not in lefts:
                    lefts[s] = _left_mult(m, cells2, cols[s][i])
        for j in range(src.dim):
            prod = cells1[i][j]
            for k in todo:
                if found[k] is not None:
                    continue
                lhs, terms = checks[k]
                acc = raw_sums(m)
                for a, x in prod:
                    add_products(acc, x, lhs[a])
                for s, u in terms:
                    left = lefts[s]
                    for q, x in u[j]:
                        add_products(acc, x, left[q])
                if not all(vanishes(m, raw) for raw in acc.values()):
                    found[k] = (i, j)
    return found


def _table_modp(A: FinDimAlgebra, p: int, zeta_mod: int) -> np.ndarray:
    """T[i, j, a] = mult[i][j][a] over F_p, read from the integer view.

    Raises ModReductionError exactly when cyc_to_modp would on some
    structure constant: the common denominator D is divisible by the prime
    p just when one of their denominators is.
    """
    den, cells = A._integer_view()
    if den % p == 0:
        raise ModReductionError("denominator divisible by %d" % p)
    n = A.dim
    zpow = [pow(zeta_mod, s, p) for s in range(A.m)]
    dinv = pow(den, p - 2, p)
    index, values = [], []
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for a, nums in cell:
                index.append((i * n + j) * n + a)
                values.append(sum(u * zpow[s] for s, u in nums) * dinv % p)
    table = np.zeros(n ** 3, dtype=np.int64)
    table[index] = values
    return table.reshape(n, n, n)


# -- canonical small algebras -------------------------------------------------


def field_algebra(m: int) -> FinDimAlgebra:
    one = (CycNum.one(m),)
    return FinDimAlgebra(m, ((one,),), unit=one, validate=False)


def matrix_algebra(m: int, k: int) -> FinDimAlgebra:
    """M_k with the basis e_{ij} flattened row-major: index i*k + j."""
    dim = k * k
    zero = CycNum.zero(m)
    one = CycNum.one(m)
    table = []
    for a in range(dim):
        i, j = divmod(a, k)
        row = []
        for b in range(dim):
            p, q = divmod(b, k)
            vec = [zero] * dim
            if j == p:
                vec[i * k + q] = one
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = [zero] * dim
    for i in range(k):
        unit[i * k + i] = one
    return FinDimAlgebra(m, tuple(table), unit=tuple(unit), validate=False)


def direct_sum(a: FinDimAlgebra, b: FinDimAlgebra) -> FinDimAlgebra:
    if a.m != b.m:
        raise InputError("conductor mismatch in direct sum")
    m, d = a.m, a.dim + b.dim
    zero_vec = vec_zero(m, d)
    table = [[zero_vec] * d for _ in range(d)]
    for i in range(a.dim):
        for j in range(a.dim):
            table[i][j] = tuple(a.mult[i][j]) + vec_zero(m, b.dim)
    for i in range(b.dim):
        for j in range(b.dim):
            table[a.dim + i][a.dim + j] = vec_zero(m, a.dim) + tuple(b.mult[i][j])
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    return FinDimAlgebra(m, tuple(tuple(r) for r in table), unit=unit, validate=False)


def unital_hull(a: FinDimAlgebra) -> FinDimAlgebra:
    """F*1 + A with 1 adjoined at basis index 0 (even if A already has a unit)."""
    m, d = a.m, a.dim
    zero = CycNum.zero(m)
    one = CycNum.one(m)

    def emb(vec):
        return (zero,) + tuple(vec)

    unit = (one,) + vec_zero(m, d)
    table = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i == 0 and j == 0:
                row.append(unit)
            elif i == 0:
                row.append(emb(a.basis_vector(j - 1)))
            elif j == 0:
                row.append(emb(a.basis_vector(i - 1)))
            else:
                row.append(emb(a.mult[i - 1][j - 1]))
        table.append(tuple(row))
    return FinDimAlgebra(m, tuple(table), unit=unit, validate=False)


# -- radical ------------------------------------------------------------------


def jacobson_radical(a: FinDimAlgebra) -> Subspace:
    """Kernel of the regular trace form, taken in the unital hull.

    Characteristic-zero criterion: x in J(A) iff trace(L_x L_y) = 0 for all
    y in the hull.  The hull keeps the criterion valid for non-unital input,
    and J(hull) automatically lands inside A (no nilpotent element carries a
    component of the adjoined unit).
    """
    hull = unital_hull(a)
    n = hull.dim
    lops = [hull.left_mult_basis(i) for i in range(n)]
    rows = []
    for y in range(n):
        ly = lops[y]
        row = []
        for i in range(1, n):
            li = lops[i]
            acc = CycNum.zero(a.m)
            for p in range(n):
                for q in range(n):
                    u = li.entry(p, q)
                    if not u.is_zero():
                        w = ly.entry(q, p)
                        if not w.is_zero():
                            acc = acc + u * w
            row.append(acc)
        rows.append(tuple(row))
    ker = kernel(Matrix(a.m, tuple(rows)))
    return Subspace.from_vectors(a.m, a.dim, ker)


def subspace_product(a: FinDimAlgebra, s: Subspace, t: Subspace) -> Subspace:
    prods = [a.multiply(x, y) for x in s.basis for y in t.basis]
    return Subspace.from_vectors(a.m, a.dim, prods)


def nilpotency_index(a: FinDimAlgebra, s: Subspace, cap: int | None = None):
    """Smallest l with S^l = 0, or None if S is not nilpotent within cap."""
    cap = cap if cap is not None else a.dim + 1
    power = s
    for l in range(1, cap + 1):
        if power.dim == 0:
            return l
        power = subspace_product(a, power, s)
    return None


def quotient_algebra(a: FinDimAlgebra, ideal: Subspace):
    """(A/I, projection) for a two-sided ideal I, basis = non-pivot coordinates."""
    eb = EchelonBasis(a.m, a.dim)
    for v in ideal.basis:
        eb.insert(v)
    pivots = set(eb.pivots())
    rest = [j for j in range(a.dim) if j not in pivots]
    qdim = len(rest)

    def project(vec):
        red = eb.reduce(vec)
        return tuple(red[j] for j in rest)

    table = []
    for i in rest:
        row = []
        for j in rest:
            row.append(project(a.mult[i][j]))
        table.append(tuple(row))
    unit = project(a.unit) if a.unit is not None else None
    if unit is not None and vec_is_zero(unit):
        unit = None
    q = FinDimAlgebra(a.m, tuple(table), unit=unit, validate=False,
                      autodetect_unit=False)
    return q, project


def subalgebra_on(a: FinDimAlgebra, s: Subspace) -> FinDimAlgebra:
    """The algebra structure on a multiplication-closed subspace, in its basis."""
    eb = EchelonBasis.from_reduced(a.m, a.dim, s.basis)
    table = []
    for x in s.basis:
        row = []
        for y in s.basis:
            c = eb.coords(a.multiply(x, y))
            if c is None:
                raise InputError("subspace is not closed under multiplication")
            row.append(c)
        table.append(tuple(row))
    unit = None
    if a.unit is not None:
        unit = eb.coords(a.unit)  # None when the unit is outside the subspace
    return FinDimAlgebra(a.m, tuple(table), unit=unit, validate=False,
                         autodetect_unit=True)


# -- gradings -----------------------------------------------------------------


@dataclass(frozen=True)
class GradingDecomposition:
    """A Z_m-grading: component[i] collects the degree-i homogeneous elements."""

    m: int
    ambient: int
    components: tuple

    @property
    def dims(self) -> tuple:
        return tuple(c.dim for c in self.components)

    def degree_of_basis(self):
        """(degree, vector) pairs in degree order; the homogeneous basis."""
        out = []
        for g, comp in enumerate(self.components):
            for v in comp.basis:
                out.append((g, v))
        return out

    def projectors(self) -> list:
        """Projection matrices onto each component along the others."""
        m, n = self.m, self.ambient
        cols = [v for comp in self.components for v in comp.basis]
        if len(cols) != n:
            raise InputError("grading components do not fill the space")
        cmat = Matrix(m, tuple(tuple(cols[j][i] for j in range(n))
                               for i in range(n)))
        cinv = cmat.inverse()
        outs = []
        start = 0
        zero, one = CycNum.zero(m), CycNum.one(m)
        for comp in self.components:
            d = Matrix(m, tuple(tuple(
                one if (i == j and start <= i < start + comp.dim) else zero
                for j in range(n)) for i in range(n)))
            outs.append(cmat @ d @ cinv)
            start += comp.dim
        return outs

    def verify_multiplication(self, a: FinDimAlgebra):
        """Check comp_i * comp_k lands in comp_{i+k mod m}; witness or None."""
        for i, ci in enumerate(self.components):
            for k, ck in enumerate(self.components):
                target = self.components[(i + k) % self.m]
                eb = EchelonBasis.from_reduced(self.m, self.ambient,
                                               target.basis)
                for x in ci.basis:
                    for y in ck.basis:
                        if not eb.contains(a.multiply(x, y)):
                            return (i, k)
        return None


def grading_from_c(a: FinDimAlgebra, c_op: Matrix) -> GradingDecomposition:
    """Eigenspace decomposition of an order-m automorphism into a Z_m-grading.

    Rejects (structured InputError) when c_op is over another conductor
    than the algebra, when c_op^m != id, when the eigenspaces for the powers
    of zeta_m fail to fill the algebra (the action does not diagonalize over
    Q(zeta_m); we reject rather than extend the field), and when some
    product lands outside its expected component.
    """
    m, n = a.m, a.dim
    if c_op.m != m:
        raise InputError("conductor mismatch: c operator over Q(zeta_%d), "
                         "algebra over Q(zeta_%d)" % (c_op.m, m))
    if c_op.nrows != n or c_op.ncols != n:
        raise InputError("c operator must be %d x %d" % (n, n))
    if c_op ** m != Matrix.identity(m, n):
        raise InputError("c operator does not satisfy c^m = id")
    comps = []
    ident = Matrix.identity(m, n)
    for i in range(m):
        shifted = c_op - ident * zeta_power(m, i)
        comps.append(Subspace.from_vectors(m, n, kernel(shifted)))
    total = sum(c.dim for c in comps)
    if total != n or not subspaces_independent(comps):
        raise InputError(
            "c action does not split into zeta-power eigenspaces over "
            "Q(zeta_%d): eigenspace dims %r against dim %d"
            % (m, [c.dim for c in comps], n))
    grading = GradingDecomposition(m=m, ambient=n, components=tuple(comps))
    bad = grading.verify_multiplication(a)
    if bad is not None:
        raise InputError(
            "grading incompatible with multiplication at components %r" % (bad,))
    return grading


def trivial_grading(a: FinDimAlgebra, m: int | None = None) -> GradingDecomposition:
    """Everything in degree zero."""
    m = m if m is not None else a.m
    full = Subspace.from_vectors(a.m, a.dim,
                                 [a.basis_vector(i) for i in range(a.dim)])
    empty = Subspace(a.m, a.dim, ())
    return GradingDecomposition(m=m, ambient=a.dim,
                                components=(full,) + (empty,) * (m - 1))


# -- invariant closures ---------------------------------------------------------


def ideal_generated_by(a: FinDimAlgebra, vectors, extra_ops=()) -> Subspace:
    """Smallest subspace containing vectors, closed under both-sided
    multiplication by A and under the extra operators.

    Monotone fixed-point worklist; the result is independent of insertion
    order because it is the unique smallest closed subspace.
    """
    eb = EchelonBasis(a.m, a.dim)
    queue = []
    for v in vectors:
        if eb.insert(v):
            queue.append(tuple(v))
    basis_vecs = [a.basis_vector(i) for i in range(a.dim)]
    while queue:
        x = queue.pop()
        images = []
        for e in basis_vecs:
            images.append(a.multiply(e, x))
            images.append(a.multiply(x, e))
        for op in extra_ops:
            images.append(op.apply(x))
        for y in images:
            if eb.insert(y):
                queue.append(tuple(y))
    return Subspace(a.m, a.dim, eb.rows())
