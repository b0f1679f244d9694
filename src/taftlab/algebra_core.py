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

The laws are decided exactly in integers: the unit, and, in one engine
(_witnesses), every law T(ab) = sum S(a) U(b) on basis pairs, which covers
associativity (the laws L_i(ab) = L_i(a) b for L_i left multiplication by
e_i), algebra maps, the c and v laws of a module algebra over the Taft
algebra and derivations (both sides are bilinear, so basis pairs
suffice).  A table's and a matrix's one integer form is its entries
(linalg._numerators): the key and the numerators over one common
denominator of each nonzero value.  A sparse check joins entries into
sparse products over Z[zeta_m] (_sum), both sides of a law in one sum,
whose least key is the first failing triple or pair.  Dense tables go to
coefficient planes scattered from the entries (_laws_on_planes), as
_takes_planes routes them; where a guard refuses the planes, the join
decides.  The mod-p image of a table (_table_modp) is read from the
entries too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import linalg
from .cyclotomic import CycNum, zeta_power
from .errors import InputError
from .linalg import (EchelonBasis, Matrix, Subspace, _numerators,
                     entries_mod_p, entry_planes, kernel, solve,
                     stacked_entries, subspaces_independent, vec_is_zero,
                     vec_zero, zright)

# a law check runs on coefficient planes when their products form fewer
# than _PLANE_RATIO products per pair that the join forms (_takes_planes)
_PLANE_RATIO = 2

# entries of the planes one block of a plane check holds at once, and
# pairs one block of a join forms
_BLOCK_ENTRIES = 1 << 16


class FinDimAlgebra:
    """Associative algebra by structure constants; optionally unital."""

    __slots__ = ("m", "dim", "mult", "unit", "_nz", "_ent")

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
    def _of_cells(cls, m: int, mult: tuple, unit, nz: tuple,
                  checked: bool = True) -> "FinDimAlgebra":
        """The algebra of a table built together with its nonzero index, as
        serialize's walk and the constructions build theirs: mult a
        dim x dim tuple of tuples of dim CycNums of conductor m, unit None
        or such a tuple, and nz the table's _nonzero index.  Checked, and
        its unit found, as by the constructor with its defaults; with
        checked False, as with validate and autodetect_unit False."""
        alg = cls.__new__(cls)
        alg._settle(m, mult, unit, nz, checked, checked)
        return alg

    def _settle(self, m, mult, unit, nz, validate, autodetect_unit):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", len(mult))
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "_nz", nz)
        object.__setattr__(self, "_ent", None)
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

    def _entries(self) -> tuple:
        """(D, keys, x): mult[i][j][a] = x[k] / D for each nonzero constant,
        at the ascending keys[k] = (i dim + j) dim + a (linalg._numerators)."""
        ent = self._ent
        if ent is None:
            n = self.dim
            ent = _numerators(self.m, [
                ((i * n + j) * n + a, c) for i, row in enumerate(self._nonzero())
                for j, cell in enumerate(row) for a, c in cell])
            object.__setattr__(self, "_ent", ent)
        return ent

    def _planes(self, deg: int = 0):
        """(D, planes): planes[i, j, a] the int64 coefficients of
        D mult[i][j][a] at deg planes, or the entries' width
        (linalg.entry_planes); None past 2^62."""
        ent = self._entries()
        n = self.dim
        planes = entry_planes(ent, (n, n, n), deg or ent[2].shape[1])
        return None if planes is None else (ent[0], planes)

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

        Over the common denominator U of u and D of the table, u e_j and
        e_j u less U D e_j go into one sum at the keys (2 j + side) dim + a.
        """
        m, n = self.m, self.dim
        den, keys, x = self._entries()
        uden, at, ux = _numerators(m, [(i, c) for i, c in enumerate(unit) if c])
        # u e_j = sum_i u_i t[i, j, a]; e_j u = sum_i t[j, i, a] u_i
        ia, ib = _join(at, _groups(keys // (n * n), n))
        ja, jb = _join(keys // n % n, _groups(at, n))
        got, _ = _sum(m, [
            (keys[ib] // n % n * 2 * n + keys[ib] % n, 1, ((ux, ia), (x, ib))),
            ((keys[ja] // (n * n) * 2 + 1) * n + keys[ja] % n, 1,
             ((x, ja), (ux, jb))),
            (np.arange(2 * n) * n + np.arange(2 * n) // 2, -uden * den,
             ((np.ones((2 * n, 1), dtype=np.int64), None),))])
        return int(got[0]) // (2 * n) if len(got) else None

    def _check_associative(self):
        triple = self._associativity_witness()
        if triple is not None:
            raise InputError("structure constants are not associative at basis "
                             "triple (%d, %d, %d)" % triple)

    def _associativity_witness(self, lefts=None):
        """The first basis triple (i, j, k) in lexicographic order with
        (e_i e_j) e_k != e_i (e_j e_k), or None; with lefts, an ascending
        list of basis indices, the first such triple with i among them.

        These are the laws L_i(ab) = L_i(a) b, L_i left multiplication by
        e_i, decided by the law engine (_witnesses): the triple is the least
        failing i at its first failing pair (j, k).  L_i[a, j] = t[i, j, a],
        so the maps' entries are the table's, in its order, at the keys
        (i dim + a) dim + j.
        """
        n = self.dim
        rows = range(n) if lefts is None else lefts
        den, keys, x = self._entries()
        keys = keys - keys % (n * n) + keys % n * n + keys // n % n
        found = _witnesses(self, self, (den, keys, x), n,
                           [(i, [(i, None)]) for i in rows])
        return next(((i,) + w for i, w in zip(rows, found) if w is not None),
                    None)

    def square_is_zero(self) -> bool:
        return all(vec_is_zero(self.mult[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        return "FinDimAlgebra(m=%d, dim=%d, unital=%s)" % (
            self.m, self.dim, self.unit is not None)


# -- the join: sparse products over Z[zeta_m] -----------------------------------


def _groups(rows: np.ndarray, n: int) -> tuple:
    """(starts, counts): entries with ascending rows in range(n) grouped by
    row, row r at starts[r], ..., starts[r] + counts[r] - 1."""
    counts = np.bincount(rows, minlength=n)
    return counts.cumsum() - counts, counts


def _join(at: np.ndarray, groups: tuple) -> tuple:
    """(ia, ib): each left entry e, in order, paired with every right entry
    of the group at[e] (_groups)."""
    starts, counts = groups
    cnt = counts[at]
    ia = np.arange(len(at)).repeat(cnt)
    ib = np.arange(len(ia)) - (cnt.cumsum() - cnt - starts[at]).repeat(cnt)
    return ia, ib


def _sum(m: int, pieces: list) -> tuple:
    """(keys, x): the ascending distinct keys of the pieces and the sum of
    their coefficient rows at each, zero rows dropped.  A piece (keys,
    scale, factors) holds scale times the products over Z[zeta_m] of its
    factors (x, at), the rows x[at] (x when at is None), folded through
    linalg._shifts; a one-column row is a rational.  The sums run in int64
    when the most terms at one key times the largest term, bounded from the
    factors' largest entries and the fold's growth, stays below 2^63, and
    on Python ints otherwise.
    """
    keys = np.concatenate([p[0] for p in pieces])
    if not len(keys):
        return keys, np.zeros((0, 1), dtype=np.int64)
    order = keys.argsort()
    keys = keys[order]
    starts = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
    tops, top, exact = {}, 0, True
    deg = max(x.shape[1] for _, _, factors in pieces for x, _ in factors)
    for _, scale, factors in pieces:
        bound, wide = abs(scale), -1
        for x, _ in factors:
            exact = exact and x.dtype != object
            if exact and id(x) not in tops:
                tops[id(x)] = int(np.abs(x).max()) if len(x) else 0
            bound *= tops.get(id(x), 0)
            wide += x.shape[1] > 1
        if wide > 0:
            bound *= int(np.abs(linalg._shifts(m)).sum(axis=(0, 1)).max()) ** wide
        top = max(top, bound, abs(scale))
    if exact and len(keys) * top >= 1 << 63:
        exact = int(np.diff(starts, append=len(keys)).max()) * top < 1 << 63
    values = []
    for _, scale, factors in pieces:
        v = None
        for x, at in factors:
            x = x if at is None else x[at]
            x = x if exact else x.astype(object)
            if v is None:
                v = x
            elif min(v.shape[1], x.shape[1]) == 1:
                v = v * x
            else:
                v = (v[:, :, None] * x[:, None, :]).reshape(len(x), deg * deg) \
                    @ linalg._shifts(m).reshape(deg * deg, deg)
        v = v if scale == 1 else v * scale
        if v.shape[1] < deg:
            v = np.concatenate([v, np.zeros((len(v), deg - v.shape[1]),
                                            dtype=v.dtype)], axis=1)
        values.append(v)
    values = np.add.reduceat(np.concatenate(values)[order], starts, axis=0)
    live = (values != 0).any(axis=1)
    return keys[starts[live]], values[live]


def _blocks(per: np.ndarray) -> list:
    """Ascending (lo, hi) ranges of range(len(per)), a new one at each
    multiple of _BLOCK_ENTRIES pairs by per: each holds at most
    _BLOCK_ENTRIES pairs past its first index."""
    start = (per.cumsum() - per) // _BLOCK_ENTRIES
    cuts = [0] + ((start[1:] != start[:-1]).nonzero()[0] + 1).tolist()
    return list(zip(cuts, cuts[1:] + [len(per)]))


# -- the plane route ----------------------------------------------------------


def _takes_planes(cost: int, pairs: int) -> bool:
    """Whether a check whose plane products form `cost` products of two
    coefficients runs on planes rather than by the join, which forms
    `pairs`.  Measured on every table the benchmark's workloads check (one
    thread, 2-CPU Xeon host): planes win 6-16x on the dense dim-8 copies
    (cost / pairs at most 0.7), the join 1.1-51x on the sparse constructed
    and Taft tables (16 and above); only tables of dim <= 4 are misrouted,
    by at most 0.04 ms."""
    return cost < _PLANE_RATIO * pairs


# -- laws on basis pairs: T(ab) = sum S(a) U(b) ---------------------------------


def law_witnesses(src: FinDimAlgebra, dst: FinDimAlgebra, laws) -> list:
    """For each law (T, [(S, U), ...]) of linear maps src -> dst (matrices),
    the first basis pair (i, j) in row-major order where
    T(e_i e_j) != sum S(e_i) U(e_j), products taken in dst; None where
    the law holds.  U may be None, the identity map (src and dst of one
    dim), whose terms S(e_i) e_j take no product with U.

    "T is an algebra map" is (T, [(T, T)]); a module algebra's c and v laws
    are (c, [(c, c)]) and (v, [(c, v), (v, None)]), and a derivation D is
    (D, [(D, None), (1, D)]), with 1 the identity matrix.  Each pair is
    decided exactly, in integers, on the maps' entries (Matrix._entries)
    by _witnesses.
    """
    maps = {id(x): x for t, terms in laws
            for x in (t, *(y for pair in terms for y in pair))
            if x is not None}
    at = {key: k for k, key in enumerate(maps)}
    laws = [(at[id(t)], [(at[id(s)], None if u is None else at[id(u)])
                         for s, u in terms]) for t, terms in laws]
    # map k's entry (b, a) at the key (k n2 + b) n1 + a
    return _witnesses(src, dst, stacked_entries(
        [op._entries() for op in maps.values()], src.dim * dst.dim),
        len(maps), laws)


def _witnesses(src: FinDimAlgebra, dst: FinDimAlgebra, maps: tuple,
               count: int, laws) -> list:
    """law_witnesses on count maps given by their entries (E, at, y), entry
    (b, a) of map k at the key (k n2 + b) n1 + a, ascending in k, and within
    each map some term takes as U; a law (t, [(s, u), ...]) names its maps
    by index, u None the identity.  Decided by the join (_law_join) or, as
    _takes_planes routes it, on coefficient planes (_laws_on_planes); where
    a guard refuses the planes, the join decides."""
    n1, n2 = src.dim, dst.dim
    if not n1 or not n2 or not laws:
        return [None] * len(laws)
    pairs, decide = _law_join(src, dst, maps, count, laws)
    # the plane products' products of two coefficients: S(e_i) e_q for
    # each distinct S, T(e_i e_j) per law, and one product per term with a
    # map U
    terms = [term for _, group in laws for term in group]
    cost = len({s for s, _ in terms}) * n1 * n2 ** 3 + len(laws) * n1 ** 3 \
        * n2 + sum(u is not None for _, u in terms) * n1 * n1 * n2 * n2
    if _takes_planes(cost, pairs):
        # the tables' and the maps' planes at one degree
        deg = max(x.shape[1] for _, _, x in (src._entries(), dst._entries(),
                                             maps))
        ops = entry_planes(maps, (count, n2, n1), deg)
        tab = src._planes(deg)
        tabs = tab, tab if dst is src else dst._planes(deg)
        got = None if ops is None or None in tabs else _laws_on_planes(
            src.m, *tabs, (maps[0], ops), laws)
        if got is not None:
            return got
    return decide()


def _law_join(src: FinDimAlgebra, dst: FinDimAlgebra, maps: tuple,
              count: int, laws):
    """(pairs, decide) for _witnesses on the join: the pairs it forms, and
    decide(), each law's first failing pair or None.

    With D, D' the tables' denominators, T(e_i e_j) = sum t[i, j, a] T[b, a]
    e_b pairs each entry (b, a) of T with the src entries (i, j, a), over
    D E, and a term S(e_i) U(e_j) = sum S[p, i] t'[p, q, c] U[q, j] e_c
    each entry of S with row p of the dst table, then row q of U, over
    E^2 D'; an identity term S(e_i) e_j, q = j, stops after the dst table,
    over E D'.  All laws go into one sum, law k at the keys
    ((k n1 + i) n1 + j) n2 + c, so its least key is its first failing pair;
    i runs in ascending blocks, one when it holds every pair.
    """
    m, n1, n2 = src.m, src.dim, dst.dim
    d1, k1, x1 = src._entries()
    d2, k2, x2 = dst._entries()
    big, at, y = maps
    rows, cols = at // n1 % n2, at % n1
    by_map = _groups(at // (n2 * n1), count)
    first1, last1 = k1 // (n1 * n1), k1 % n1
    # the src entries in the order of their last index a
    by_last = last1.argsort(kind="stable")
    last_groups = _groups(last1[by_last], n1)
    dst_rows = _groups(k2 // (n2 * n2), n2)
    # each law's T, and each term's law, S and U, the identity as U = -1
    ts = [t for t, _ in laws]
    terms = [(k, s, -1 if u is None else u)
             for k, (_, group) in enumerate(laws) for s, u in group]
    some_ones = any(u < 0 for _, _, u in terms)
    all_ones = all(u < 0 for _, _, u in terms)
    same = [s for _, s, _ in terms] == ts
    ks, ss, us = np.array(terms, dtype=np.int64).reshape(-1, 3).T
    ones = us < 0
    # the pairs a term forms per entry (p, i) of its S: row p of the dst
    # table, then row q of U per entry (p, q, c); the identity's row last
    spread = dst_rows[1][None]
    if not all_ones:
        by_row, mid2 = _groups(at // n1, count * n2), k2 // n2 % n2
        spread = np.concatenate([by_row[1].reshape(count, n2) @ np.bincount(
            mid2 * n2 + k2 // (n2 * n2), minlength=n2 * n2).reshape(n2, n2),
            spread])
    # every law with every entry of its T (map k's entries when law k's T
    # is map k), every term with every entry of its S (the same when each
    # law's one term has S = T), and their pairs
    law_t, t_all = (at // (n2 * n1), np.arange(len(at))) if ts == list(
        range(count)) else _join(np.array(ts), by_map)
    task, s_all = (law_t, t_all) if same else _join(ss, by_map)
    rhs = spread[us[task], rows[s_all]]
    pairs = int(last_groups[1][cols[t_all]].sum() + rhs.sum())
    common = lcm(d1 * big, 1 if all_ones else big * big * d2,
                 big * d2 if some_ones else 1)
    scale_l, scale_r = common // (d1 * big), common // (big * big * d2)
    scale_one, span = common // (big * d2), n1 * n1 * n2
    blocks = [(0, n1)] if pairs <= _BLOCK_ENTRIES else _blocks(
        np.bincount(first1, minlength=n1, weights=np.bincount(
            cols[t_all], minlength=n1)[last1])
        + np.bincount(cols[s_all], weights=rhs, minlength=n1))

    def decide():
        found = [None] * len(laws)
        for lo, hi in blocks:
            todo = [k for k, w in enumerate(found) if w is None]
            if not todo:
                break
            whole, every = hi - lo == n1, len(todo) == len(laws)
            pending = np.array([w is None for w in found])
            # T(e_i e_j): each pending law's T entries (b, a) with the src
            # entries (i, j, a) of the block
            order, groups = by_last, last_groups
            if not whole:
                e = np.arange(first1.searchsorted(lo), first1.searchsorted(hi))
                order = e[last1[e].argsort(kind="stable")]
                groups = _groups(last1[order], n1)
            keep = slice(None) if every else pending[law_t]
            ia, ib = _join(cols[t_all[keep]], groups)
            law, t_at, src_at = law_t[keep][ia], t_all[keep][ia], order[ib]
            pieces = [(law * span + k1[src_at] // n1 * n2 + rows[t_at],
                       scale_l, ((x1, src_at), (y, t_at)))]
            # each pending term's entries (p, i) of S with i in the block,
            # each with row p of the dst table, then with row q of U
            keep = slice(None) if whole and every else pending[ks[task]] & (
                cols[s_all] >= lo) & (cols[s_all] < hi)
            ja, d_at = _join(rows[s_all[keep]], dst_rows)
            term, s_at = task[keep][ja], s_all[keep][ja]
            if some_ones:
                one = slice(None) if all_ones else ones[term]
                s_one, d_one = s_at[one], d_at[one]
                pieces.append(((ks[term[one]] * n1 + cols[s_one]) * n1 * n2
                               + k2[d_one] % (n2 * n2), -scale_one,
                               ((y, s_one), (x2, d_one))))
                if not all_ones:
                    term, s_at, d_at = term[~one], s_at[~one], d_at[~one]
            if not all_ones:
                ja, u_at = _join(us[term] * n2 + mid2[d_at], by_row)
                term, s_at, d_at = term[ja], s_at[ja], d_at[ja]
                pieces.append((
                    ((ks[term] * n1 + cols[s_at]) * n1 + cols[u_at]) * n2
                    + k2[d_at] % n2, -scale_r,
                    ((y, s_at), (x2, d_at), (y, u_at))))
            got, _ = _sum(m, pieces)
            heads = got.searchsorted([k * span for k in todo]).tolist()
            for k, h in zip(todo, heads):
                if h < len(got) and got[h] < (k + 1) * span:
                    found[k] = divmod(int(got[h]) % span // n2, n1)
        return found

    return pairs, decide


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
    for lo, hi in _blocks(np.full(n1, max(len(laws), len(ss), len(index))
                                  * n2 * max(n1, n2) * deg)):
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


def _table_modp(A: FinDimAlgebra, p: int, zeta_mod: int) -> np.ndarray:
    """T[i, j, a] = mult[i][j][a] over F_p (linalg.entries_mod_p)."""
    n = A.dim
    return entries_mod_p(A._entries(), n ** 3, p, zeta_mod).reshape(n, n, n)


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
