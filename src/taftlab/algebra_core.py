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
constants' numerators over one common denominator): associativity on basis
triples, the unit, and, in one routine, every law of the form
T(ab) = sum S(a) U(b) on basis pairs (law_witnesses).  That form covers
"T is an algebra map", the c and v laws of a module algebra over the Taft
algebra and derivations; it suffices to check such a law on basis pairs,
since both sides are bilinear.  Associativity and law_witnesses each take
one of two routes, chosen by costs read off the nonzero pattern
(_takes_planes), and both name the same first failing triple or pair.  A
loop sums the raw numerator convolutions of the nonzero constants, each sum
reduced mod Phi_m only at its zero test; it suits sparse tables.  Dense
tables go to integer planes: both sides are products of the table's
coefficient planes with itself or with the maps over Z[zeta_m]
(linalg.zright), run in float64 where a bound computed from the entries
keeps every partial sum below 2^53, else in int64 below 2^63.  Past that
bound the loop decides.  The mod-p image of a table (_table_modp) is read
from the same view, so no other module reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .cyclotomic import (CycNum, add_products, fold, raw_sums, vanishes,
                         zeta_power)
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, ModReductionError, Subspace,
                     at_degree, integer_planes, kernel, solve,
                     subspaces_independent, vec_is_zero, vec_zero, zright)

# a law check runs on coefficient planes when their products cost at most
# _PLANE_RATIO multiply-adds per numerator product that the loop forms past
# its first _PLANE_FIXED, which pay for the plane route's fixed cost (numpy
# calls and lifts); both measured, see _takes_planes
_PLANE_RATIO = 256
_PLANE_FIXED = 256

# entries of the planes one block of a plane check holds at once
_BLOCK_ENTRIES = 1 << 16


class FinDimAlgebra:
    """Associative algebra by structure constants; optionally unital."""

    __slots__ = ("m", "dim", "mult", "unit", "_nz", "_iv", "_pl")

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
        object.__setattr__(self, "_pl", None)
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

    def _planes(self):
        """(D, planes) with D the common denominator of the table and
        planes[i, j, a] the int64 coefficient planes of D mult[i][j][a]
        (linalg.integer_planes); None when a coefficient reaches 2^62."""
        pl = self._pl
        if pl is None:
            n, pl = self.dim, False
            got = integer_planes(self.m, [[x for row in self.mult
                                           for cell in row for x in cell]])
            if got is not None:
                (den, flat), = got
                pl = den, flat.reshape(n, n, n, flat.shape[-1])
            object.__setattr__(self, "_pl", pl)
        return pl or None

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
        integer identity, decided one of two ways, as _takes_planes routes
        it.  The loop sums the raw numerator convolutions of the nonzero
        structure constants only: for each (i, j), the differences for all
        k at once, each nonzero sum reduced mod Phi_m once, so it forms P
        numerator products.  The plane route (_associativity_on_planes)
        forms the two sides as two products over Z[zeta_m], the r nonzero
        cells times the table and the table times the cells, each of
        r n^3 multiply-adds.  Where a guard refuses the planes, the loop
        decides.
        """
        if _takes_planes(*_associativity_costs(self)):
            got = _associativity_on_planes(self)
            if got is not None:
                return got[0]
        return self._associativity_loop()

    def _associativity_loop(self):
        """_associativity_witness by summing raw numerator convolutions."""
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


# -- the plane route ----------------------------------------------------------


def _takes_planes(cost: int, loop: int) -> bool:
    """Whether a check whose plane products cost `cost` multiply-adds runs
    on planes rather than by a loop that forms `loop` numerator products:
    when cost <= _PLANE_RATIO * (loop - _PLANE_FIXED).  Measured on every
    table the benchmark's workloads check (one thread, 2-CPU Xeon host):
    planes win by 12-65x on the dense dim-8 tables (cost / loop at most 6),
    lose by 1.8-2.4x on the sparse tables of dim 25-36 (5800 and above)
    and break even near 1000; below about 256 loop products their fixed
    cost loses up to 0.5 ms."""
    return cost <= _PLANE_RATIO * (loop - _PLANE_FIXED)


def _associativity_costs(alg: FinDimAlgebra) -> tuple:
    """(cost, loop) for _takes_planes: the r n^3 phi(m)^2 multiply-adds of
    each plane product, r the number of nonzero cells, and the numerator
    products _associativity_loop forms, one per constant of e_a e_k and of
    e_i e_a for each constant at e_a."""
    cells, n = alg._nonzero(), alg.dim
    # sizes[i, j]: constants of e_i e_j; at[a]: constants at e_a
    sizes = np.array([[len(cell) for cell in row] for row in cells],
                     dtype=np.int64).reshape(n, n)
    at = np.bincount([a for row in cells for cell in row for a, _ in cell],
                     minlength=n)
    loop = int(at @ (sizes.sum(axis=0) + sizes.sum(axis=1)))
    phi = len(CycNum.zero(alg.m).num)
    return np.count_nonzero(sizes) * n ** 3 * phi ** 2, loop


def _first_hit(bad: np.ndarray):
    """The first index of a True entry of bad in C order, or None."""
    hit = np.flatnonzero(bad)
    return None if not hit.size else tuple(
        int(x) for x in np.unravel_index(hit[0], bad.shape))


def _block_rows(n: int, entries: int):
    """Ascending (lo, hi) blocks of range(n), each of about _BLOCK_ENTRIES
    entries at `entries` per index."""
    step = max(1, _BLOCK_ENTRIES // max(1, entries))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _cell_rows(table: np.ndarray, cells: np.ndarray, lo: int, hi: int,
               times) -> np.ndarray:
    """The products times(table rows) of rows lo..hi-1 of the table, indexed
    (i, j, ...) for i in the block: each nonzero cell (i, j) in cells (flat
    i * n + j) as a row, zero elsewhere; None when a guard refuses."""
    n = table.shape[0]
    sel = cells[(cells >= lo * n) & (cells < hi * n)]
    flat = table.reshape(n * n, n, -1)
    got = times(flat[sel])
    if got is None:
        return None
    out = np.zeros(((hi - lo) * n,) + got.shape[1:], dtype=np.int64)
    out[sel - lo * n] = got
    return out.reshape((hi - lo, n) + got.shape[1:])


def _associativity_on_planes(alg: FinDimAlgebra):
    """[the witness of _associativity_witness], decided on the table's
    coefficient planes t (FinDimAlgebra._planes); None when a guard refuses.

    With t[i, j, a] the numerators of the e_a-coefficient of e_i e_j over
    D, (e_i e_j) e_k is row (i, j) of t times Y[a, (k, c)] = t[a, k, c],
    and e_i (e_j e_k) is row (i, c) of t[i, b, c] times the nonzero cells
    Z[b, (j, k)] = t[j, k, b], both over D^2 and folded mod Phi_m by zright.
    Each product is exact under its guards (_right_product), run over i in
    ascending blocks, so the first failing triple is the loop's.
    """
    got = alg._planes()
    if got is None:
        return None
    t = got[1]
    n, deg, m = alg.dim, t.shape[-1], alg.m
    cells = np.flatnonzero(t.any(axis=(2, 3)))
    times_y = zright(t.reshape(n, n * n, deg), m)
    times_z = zright(t.reshape(n * n, n, deg)[cells].transpose(1, 0, 2), m)
    if times_y is None or times_z is None:
        return None
    lefts = t.transpose(0, 2, 1, 3)
    for lo, hi in _block_rows(n, n ** 3 * deg):
        lhs = _cell_rows(t, cells, lo, hi, times_y)
        rhs = times_z(lefts[lo:hi].reshape(-1, n, deg))
        if lhs is None or rhs is None:
            return None
        # rhs[(i, c), cell (j, k)] onto [i, j, k, c]
        full = np.zeros((hi - lo, n, n * n, deg), dtype=np.int64)
        full[:, :, cells] = rhs.reshape(hi - lo, n, len(cells), deg)
        full = full.reshape(hi - lo, n, n, n, deg).transpose(0, 2, 3, 1, 4)
        bad = _first_hit((lhs.reshape(full.shape) != full).any(axis=(3, 4)))
        if bad is not None:
            i, j, k = bad
            return [(lo + i, j, k)]
    return [None]


# -- laws on basis pairs: T(ab) = sum S(a) U(b) ---------------------------------


def _columns(op: Matrix, big: int) -> list:
    """cols[a]: the (b, numerators of op[b][a] over big), nonzero only; big
    must be a multiple of every entry's denominator."""
    return [[(b, tuple((s, u * (big // row[a].den))
                       for s, u in enumerate(row[a].num) if u))
             for b, row in enumerate(op.rows) if any(row[a].num)]
            for a in range(op.ncols)]


def _scaled(cols: list, factor: int) -> list:
    """_columns cols with every numerator times factor."""
    return [[(b, tuple((s, factor * u) for s, u in y)) for b, y in col]
            for col in cols]


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
    exactly, in integers, one of two ways, as _takes_planes routes it.

    The loop: let D and D' be the common denominators of the src and dst
    tables and E that of D and every map.  S(e_i) e_q is folded over E D'
    as the left multiplication by S(e_i), built once per i and shared by
    every law with that S, so each S(e_i) U(e_j) carries E^2 D'.
    T(e_i e_j) carries D E and is scaled by E D' / D, so each difference is
    a sum of raw numerator convolutions (cyclotomic.add_products), reduced
    mod Phi_m only at its zero test.  The plane route (_laws_on_planes)
    forms both sides as products of coefficient planes; where a guard
    refuses it, the loop decides.
    """
    maps = _distinct_maps(laws)
    big = lcm(src._integer_view()[0], *(x.den for op in maps.values()
                                        for row in op.rows for x in row))
    cols = {key: _columns(op, big) for key, op in maps.items()}
    if _takes_planes(*_law_costs(src, dst, laws, cols)):
        got = _laws_on_planes(src, dst, laws, maps)
        if got is not None:
            return got
    return _laws_loop(src, dst, laws, big, cols)


def _distinct_maps(laws) -> dict:
    """Every map of the laws, once, keyed by its id."""
    return {id(x): x for t, terms in laws
            for x in (t, *(y for pair in terms for y in pair))}


def _law_costs(src: FinDimAlgebra, dst: FinDimAlgebra, laws, cols) -> tuple:
    """(cost, loop) for _takes_planes: the multiply-adds of
    _laws_on_planes's products at phi(m) planes, and the numerator products
    _laws_loop forms when every law holds, counted as if the nonzero
    constants of each table and the nonzero entries of each map's columns
    cols were spread evenly."""
    n1, n2 = src.dim, dst.dim
    if not n1 or not n2:
        return 0, 0
    lens = [len(cell) for row in src._nonzero() for cell in row]
    size1, cells = sum(lens), len(lens) - lens.count(0)
    size2 = sum(len(cell) for row in dst._nonzero() for cell in row)
    nonzero = {key: sum(map(len, c)) for key, c in cols.items()}
    lefts = {id(s) for _, terms in laws for s, _ in terms}
    # each nonzero S[p, i] meets the constants of row p of dst
    loop = sum(nonzero[key] for key in lefts) * size2 / n2
    cost = len(lefts) * n1 * n2 ** 3
    for t, terms in laws:
        # each constant of src at e_a meets column a of T
        loop += size1 * nonzero[id(t)] / n1
        cost += cells * n1 * n2
        for s, u in terms:
            # each nonzero U[q, j] meets the constants of S(e_i) e_q, each i
            width = min(n2, nonzero[id(s)] * size2 / (n1 * n2 * n2))
            loop += n1 * nonzero[id(u)] * width
            cost += n1 * n1 * n2 * n2
    return cost * len(CycNum.zero(src.m).num) ** 2, loop


def _laws_on_planes(src: FinDimAlgebra, dst: FinDimAlgebra, laws, maps):
    """law_witnesses decided on coefficient planes; None when a guard
    refuses.

    With t and t' the planes of the src and dst tables over D and D'
    (FinDimAlgebra._planes) and every map over one common denominator E,
    T(e_i e_j) is row (i, j) of t times T^T, over D E, and S(e_i) U(e_j)
    is row i of S^T times t'[p, (q, c)], then row (i, c) of that times U,
    over E^2 D'.  The sides are compared scaled to one denominator.  Each
    product is exact under its guards (_right_product), run over i in
    ascending blocks, so each law's first failing pair is the loop's.
    """
    m, n1, n2 = src.m, src.dim, dst.dim
    tabs = src._planes(), dst._planes()
    ops = integer_planes(m, [[x for op in maps.values() for row in op.rows
                              for x in row]])
    if None in tabs or ops is None:
        return None
    (d1, t1), (d2, t2) = tabs
    (big, ops), = ops
    deg = max(t1.shape[-1], t2.shape[-1], ops.shape[-1])
    t1, t2 = at_degree(t1, deg), at_degree(t2, deg)
    # each map's planes over big, (n2, n1, deg)
    ops = at_degree(ops, deg).reshape(len(maps), n2, n1, deg)
    planes = dict(zip(maps, ops))
    # lhs * scale_l and rhs * scale_r over one denominator
    g = gcd(big * d2, d1)
    scale_l, scale_r = big * d2 // g, d1 // g
    times_t2 = zright(t2.reshape(n2, n2 * n2, deg), m)
    lhs_by = {id(t): zright(planes[id(t)].transpose(1, 0, 2), m)
              for t, _ in laws}
    rhs_by = {id(u): zright(planes[id(u)], m)
              for _, terms in laws for _, u in terms}
    if times_t2 is None or None in lhs_by.values() or None in rhs_by.values():
        return None
    cells = np.flatnonzero(t1.any(axis=(2, 3)))
    found = [None] * len(laws)
    for lo, hi in _block_rows(n1, n2 * max(n1, n2) * deg):
        todo = [k for k, w in enumerate(found) if w is None]
        if not todo:
            break
        # S(e_i) e_q for i in the block, as rows (i, c) over q
        lefts = {}
        for k in todo:
            for s, _ in laws[k][1]:
                if id(s) not in lefts:
                    got = times_t2(planes[id(s)][:, lo:hi].transpose(1, 0, 2))
                    if got is None:
                        return None
                    lefts[id(s)] = got.reshape(hi - lo, n2, n2, deg).transpose(
                        0, 2, 1, 3).reshape(-1, n2, deg)
        for k in todo:
            t, terms = laws[k]
            lhs = _cell_rows(t1, cells, lo, hi, lhs_by[id(t)])
            # each term [(i, c), j]
            parts = [rhs_by[id(u)](lefts[id(s)]) for s, u in terms]
            if lhs is None or any(x is None for x in parts):
                return None
            # every sum below stays below 2^63
            if max(int(np.abs(lhs).max(initial=0)) * scale_l,
                   sum(int(np.abs(x).max(initial=0)) for x in parts) * scale_r,
                   scale_l, scale_r) >= 1 << 63:
                return None
            rhs = sum(parts[1:], parts[0]) * scale_r
            rhs = rhs.reshape(hi - lo, n2, n1, deg).transpose(0, 2, 1, 3)
            bad = _first_hit((lhs * scale_l != rhs).any(axis=(2, 3)))
            if bad is not None:
                found[k] = (lo + bad[0], bad[1])
    return found


def _laws_loop(src: FinDimAlgebra, dst: FinDimAlgebra, laws, big: int,
               cols: dict) -> list:
    """law_witnesses by summing raw numerator convolutions, with cols the
    maps' _columns over big."""
    m = src.m
    den1, cells1 = src._integer_view()
    den2, cells2 = dst._integer_view()
    neg = {id(u): _scaled(cols[id(u)], -1)
           for _, terms in laws for _, u in terms}
    # per law: T's columns scaled to E^2 D', and (id of S, -U's columns)
    checks = [(_scaled(cols[id(t)], big * den2 // den1),
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
