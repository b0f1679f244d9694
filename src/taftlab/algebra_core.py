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
tables go to integer planes, where associativity is the laws
L_i(ab) = L_i(a) b (_laws_on_planes): both sides are products of whole
tables' coefficient planes with the stacked maps over Z[zeta_m]
(linalg.zright), run in float64 where a bound computed from the entries
keeps every partial sum below 2^53, else in int64 below 2^63.  Past that
bound the loop decides.  The mod-p image of a table (_table_modp) is read
from the same view, so no other module reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

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
        if unit is not None:
            unit = tuple(x if isinstance(x, CycNum) else CycNum.rational(m, x)
                         for x in unit)
            if len(unit) != dim:
                raise InputError("unit vector must have length dim")
        self._settle(m, tuple(norm), unit, None, validate, autodetect_unit)

    @classmethod
    def _of_cells(cls, m: int, mult: tuple, unit, nz: tuple) -> "FinDimAlgebra":
        """The algebra of a table read by serialize: mult a dim x dim tuple
        of tuples of dim CycNums of conductor m, unit None or such a tuple,
        and nz the table's _nonzero index.  Checked, and its unit found, as
        by the constructor with its defaults."""
        alg = cls.__new__(cls)
        alg._settle(m, mult, unit, nz, True, True)
        return alg

    def _settle(self, m, mult, unit, nz, validate, autodetect_unit):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", len(mult))
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "_nz", nz)
        object.__setattr__(self, "_iv", None)
        object.__setattr__(self, "_pl", None)
        object.__setattr__(self, "unit", unit)
        if validate:
            self._check_associative()
        if unit is not None:
            self._check_unit(unit)
        elif autodetect_unit and self.dim:
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
        numerator products.  The plane route is the law engine's
        (_laws_on_planes) on the n laws L_i(ab) = L_i(a) b, with L_i the
        left multiplication by e_i read off the table's planes: the least
        i whose law fails, at its first failing pair (j, k), is the first
        failing triple.  Where a guard refuses the planes, the loop decides.
        """
        if _takes_planes(*_associativity_costs(self)):
            got = self._planes()
            if got is not None:
                # the laws (L_i, [(L_i, 1)]) with L_i[a, j] = t[i, j, a]
                ops = got[0], got[1].transpose(0, 2, 1, 3)
                got = _laws_on_planes(self.m, got, got, ops, [
                    (i, [(i, None)]) for i in range(self.dim)])
            if got is not None:
                return next(((i,) + w for i, w in enumerate(got)
                             if w is not None), None)
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
    """(cost, loop) for _takes_planes: the n^5 phi(m)^2 multiply-adds of
    each plane product, n^2 rows of n entries times n^2 columns, and the
    numerator products _associativity_loop forms, one per constant of
    e_a e_k and of e_i e_a for each constant at e_a."""
    cells, n = alg._nonzero(), alg.dim
    # sizes[i, j]: constants of e_i e_j; at[a]: constants at e_a
    sizes = np.array([[len(cell) for cell in row] for row in cells],
                     dtype=np.int64).reshape(n, n)
    at = np.bincount([a for row in cells for cell in row for a, _ in cell],
                     minlength=n)
    loop = int(at @ (sizes.sum(axis=0) + sizes.sum(axis=1)))
    phi = len(CycNum.zero(alg.m).num)
    return n ** 5 * phi ** 2, loop


def _block_rows(n: int, entries: int):
    """Ascending (lo, hi) blocks of range(n), each of about _BLOCK_ENTRIES
    entries at `entries` per index."""
    step = max(1, _BLOCK_ENTRIES // max(1, entries))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


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
        got = _map_planes(src, dst, maps)
        if got is not None:
            at = {key: k for k, key in enumerate(maps)}
            got = _laws_on_planes(src.m, *got, [
                (at[id(t)], [(at[id(s)], at[id(u)]) for s, u in terms])
                for t, terms in laws])
        if got is not None:
            return got
    return _laws_loop(src, dst, laws, big, cols)


def _distinct_maps(laws) -> dict:
    """Every map of the laws, once, keyed by its id."""
    return {id(x): x for t, terms in laws
            for x in (t, *(y for pair in terms for y in pair))}


def _law_costs(src: FinDimAlgebra, dst: FinDimAlgebra, laws, cols) -> tuple:
    """(cost, loop) for _takes_planes: the multiply-adds of
    _laws_on_planes's products over whole tables at phi(m) planes, and the
    numerator products _laws_loop forms when every law holds, counted as if
    the nonzero constants of each table and the nonzero entries of each
    map's columns cols were spread evenly."""
    n1, n2 = src.dim, dst.dim
    if not n1 or not n2:
        return 0, 0
    size1 = sum(len(cell) for row in src._nonzero() for cell in row)
    size2 = sum(len(cell) for row in dst._nonzero() for cell in row)
    nonzero = {key: sum(map(len, c)) for key, c in cols.items()}
    lefts = {id(s) for _, terms in laws for s, _ in terms}
    # each nonzero S[p, i] meets the constants of row p of dst
    loop = sum(nonzero[key] for key in lefts) * size2 / n2
    cost = len(lefts) * n1 * n2 ** 3
    for t, terms in laws:
        # each constant of src at e_a meets column a of T
        loop += size1 * nonzero[id(t)] / n1
        cost += n1 ** 3 * n2
        for s, u in terms:
            # each nonzero U[q, j] meets the constants of S(e_i) e_q, each i
            width = min(n2, nonzero[id(s)] * size2 / (n1 * n2 * n2))
            loop += n1 * nonzero[id(u)] * width
            cost += n1 * n1 * n2 * n2
    return cost * len(CycNum.zero(src.m).num) ** 2, loop


def _map_planes(src: FinDimAlgebra, dst: FinDimAlgebra, maps: dict):
    """_laws_on_planes's src, dst and maps (E, ops) for law_witnesses, ops
    the maps' planes over their common denominator E, all at one degree;
    None when a coefficient reaches 2^62."""
    tabs = src._planes(), dst._planes()
    ops = integer_planes(src.m, [[x for op in maps.values() for row in op.rows
                                  for x in row]])
    if None in tabs or ops is None:
        return None
    (d1, t1), (d2, t2) = tabs
    (big, ops), = ops
    deg = max(t1.shape[-1], t2.shape[-1], ops.shape[-1])
    ops = at_degree(ops, deg).reshape(len(maps), dst.dim, src.dim, deg)
    return (d1, at_degree(t1, deg)), (d2, at_degree(t2, deg)), (big, ops)


def _laws_on_planes(m: int, src, dst, maps, laws):
    """law_witnesses decided on coefficient planes; None when a guard
    refuses.

    src and dst are (D, t) and (D', t'), the planes of two tables
    (FinDimAlgebra._planes), and maps is (E, ops), ops[k] the (n2, n1)
    planes of the k-th map over one denominator E, all at one degree.
    Each law (T, [(S, U), ...]) names its maps by index, U = None being
    the identity.  T(e_i e_j) is row (i, j) of t times T^T, over D E;
    S(e_i) e_q is row i of S^T times t'[p, (q, c)], over E D'; a term
    S(e_i) U(e_j) is row (i, c) of that times U, over E^2 D', and an
    identity term is S(e_i) e_j itself, with no product.  The sides are
    compared scaled to one denominator.  Each role's maps are stacked into
    one product: the laws' T maps side by side, their distinct S maps, and
    for each S the U maps it meets.  Each product is exact under its guards
    (_right_product), run over i in ascending blocks, so each law's first
    failing pair is the loop's; the blocks stop once every law has failed.
    """
    (d1, t1), (d2, t2) = src, dst
    big, ops = maps
    n1, n2, deg = len(t1), len(t2), t1.shape[-1]
    # us[s]: the U maps that S meets, None among them for the identity
    us = {}
    for _, terms in laws:
        for s, u in terms:
            us.setdefault(s, {})[u] = None
    ss = list(us)
    # the slots of the terms' values: S(e_i) e_j for each S when some term
    # is an identity one, then S(e_i) U(e_j) for each S and each U it meets
    ones = any(None in x for x in us.values())
    slot = {(s, None): k for k, s in enumerate(ss)} if ones else {}
    for s in ss:
        us[s] = [u for u in us[s] if u is not None]
        for u in us[s]:
            slot[s, u] = len(slot)
    # lhs * scale_l and each term * scales[its slot] over one denominator
    dens = [big * d2 * (1 if u is None else big) for _, u in slot]
    common = lcm(d1 * big, *dens)
    scale_l, scales = common // (d1 * big), [common // d for d in dens]
    if max(scale_l, *scales) >= 1 << 63:
        return None
    groups = [[slot[term] for term in terms] for _, terms in laws]
    index = [k for group in groups for k in group]
    # nth[p]: the slot and scale of each law's p-th term; a law with fewer
    # terms gets slot 0 at scale 0
    nth = [([g[p] if p < len(g) else 0 for g in groups],
            np.array([scales[g[p]] if p < len(g) else 0 for g in groups],
                     dtype=np.int64)[:, None])
           for p in range(max(map(len, groups)))]
    times_t = zright(ops[[t for t, _ in laws]].transpose(2, 0, 1, 3).reshape(
        n1, -1, deg), m)
    times_s = zright(t2.reshape(n2, n2 * n2, deg), m)
    times_u = {s: zright(ops[us[s]].transpose(1, 0, 2, 3).reshape(
        n2, -1, deg), m) for s in ss if us[s]}
    if times_t is None or times_s is None or None in times_u.values():
        return None
    found = [None] * len(laws)
    for lo, hi in _block_rows(n1, max(len(laws), len(ss), len(index)) * n2
                              * max(n1, n2) * deg):
        if None not in found:
            break
        b = hi - lo
        # lhs[(i, j), (law, a)]: coefficient a of T(e_i e_j)
        lhs = times_t(t1[lo:hi].reshape(-1, n1, deg))
        # rows S(e_i), then lefts[s, i, q, c]: coefficient c of S(e_i) e_q
        lefts = times_s(ops[ss, :, lo:hi].transpose(0, 2, 1, 3).reshape(
            -1, n2, deg))
        if lhs is None or lefts is None:
            return None
        lefts = lefts.reshape(len(ss), b, n2, n2, deg)
        pool = [lefts] if ones else []
        for k, s in enumerate(ss):
            if us[s]:
                got = times_u[s](lefts[k].transpose(0, 2, 1, 3).reshape(
                    -1, n2, deg))
                if got is None:
                    return None
                # [(i, c), (u, j)] onto [u, i, j, c]
                pool.append(got.reshape(b, n2, len(us[s]), n1, deg).transpose(
                    2, 0, 3, 1, 4))
        pool = (np.concatenate(pool) if len(pool) > 1 else pool[0]).reshape(
            len(slot), -1)
        # every sum below stays below 2^63
        tops = [int(x) * y for x, y in zip(np.abs(pool).max(axis=1), scales)]
        if max([int(np.abs(lhs).max()) * scale_l]
               + [sum(tops[k] for k in group) for group in groups]) >= 1 << 63:
            return None
        # rhs[law]: the sum of its terms, the p-th terms of all laws at once
        rhs = pool[nth[0][0]] * nth[0][1]
        for at, weight in nth[1:]:
            rhs += pool[at] * weight
        lhs = lhs * scale_l
        # each differing coefficient's law * b n1 + (i - lo) n1 + j, ascending
        hit = np.flatnonzero(
            lhs.reshape(b * n1, len(laws), -1).transpose(1, 0, 2)
            != rhs.reshape(len(laws), b * n1, -1)) // (n2 * deg)
        if hit.size:
            ks, first = np.unique(hit // (b * n1), return_index=True)
            for k, x in zip(ks.tolist(), (hit[first] % (b * n1)).tolist()):
                if found[k] is None:
                    found[k] = (lo + x // n1, x % n1)
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
