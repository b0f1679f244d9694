"""Multilinear Hopf-coefficient polynomials and codimension computation.

A degree-n basis monomial is x^{h_1}_{sigma(1)} ... x^{h_n}_{sigma(n)}:
position j in the product carries a Hopf basis label h_j = c^i v^k and the
variable index sigma(j).  The span of all such monomials has dimension
n! * (m^2)^n.  Evaluating every basis monomial on every basis tuple of a
module algebra A gives the evaluation matrix, whose rank is the n-th
codimension of A: the dimension of the multilinear component modulo the
identities of A.  Evaluating on basis tuples suffices: the monomials are
multilinear, so a matrix row determines the evaluation everywhere.  Columns
are (argument tuple, output coordinate) with argument tuples in mixed radix
over the algebra basis, first argument most significant.

The evaluation matrix is never written out.  Its rows for sigma = id span
the ordered space W_n of the maps t -> (h_1 e_{t_1}) ... (h_n e_{t_n}), and
W_n is built by recursion: W_1 holds the images h_b(e_t), and W_j is spanned
by t -> f(t_1..t_{j-1}) * h_b(e_{t_j}) for f in the canonical basis of
W_{j-1} and each of the m^2 labels b.  Under backend "auto" every level is
built on int64 coefficient planes over Z[zeta_m]: its generating rows are
one product of the previous level's planes with those of the maps
e_s -> e_s h_b(e_t), they are reduced mod the first reduction prime, and
linalg.certified_rank reads the exact canonical basis back from that
echelon form (CRT, rational reconstruction and an integer check that
every generating row lies in its span), so no CycNum arithmetic runs.
From a level whose lift an overflow guard or the certificate refuses on,
and always under backend "exact", the levels are echelonized exactly over
Q(zeta_m) and read only until they fill their dim^{j+1} columns; both
ways give the same canonical basis, which is unique.  The row of (sigma, h) is
the identity-order row of h with its argument columns permuted,
row_sigma[t] = row[t o sigma] with (t o sigma)_j = t_{sigma(j)}, so the row
space is the sum of the n! permuted copies P_sigma(W_n).  The rank is taken
over the n! permuted blocks of the canonical basis of W_n, exact duplicates
dropped: at most n! * dim^{n+1} rows, and far fewer where the copies
coincide, instead of n! * m^{2n}.  ``CodimResult.matrix_shape`` and the
``rows`` field of the ``codim`` output still give the nominal evaluation
matrix (n! * m^{2n}, dim^{n+1}), and the row budget caps that nominal count.

The rank of those rows is taken mod the first reduction prime that keeps
their common denominator, on the planes of the canonical basis over that
denominator, permuted and deduplicated as bytes.  That is a lower bound,
and the value when it fills the shape of the rows or when the certificate
proves it exact; only without either are the rows eliminated over
Q(zeta_m) on EchelonBasis.  The level lifts and this rank make one call
each, _span_rank, into linalg.certified_rank, which owns the choice of
prime, the pin and the certificate.  codim_growth_report builds W_1, ...,
W_n once and ranks each level as it is built.

Orderings are fixed so bases and ranks are bit-reproducible: permutations
in lexicographic order, labels b = i*m + k in increasing order, every span
kept in canonical reduced echelon form.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycNum
from .errors import BudgetExceeded, InputError
from .hmodule import HModuleAlgebra, structure_planes, taft_monomials
from .linalg import (EchelonBasis, certified_rank, echelon, echelon_mod_p,
                     fit_planes, integer_planes, planes_mod_p, vec_add,
                     vec_scale, vec_zero, zmatmul)


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


@dataclass(frozen=True)
class HMonomial:
    """x^{h_1}_{sigma(1)} ... x^{h_n}_{sigma(n)} with h_j = c^{i_j} v^{k_j}.

    ``sigma`` lists the variable index (1-based) at each product position;
    ``hcoeffs`` lists the (i, k) exponent pair applied there.  The pairs are
    not range-checked here because the conductor m is only known once the
    monomial meets a module algebra.
    """

    n: int
    sigma: tuple
    hcoeffs: tuple

    def __post_init__(self):
        if len(self.sigma) != self.n or len(self.hcoeffs) != self.n:
            raise InputError("monomial of degree %d needs %d positions"
                             % (self.n, self.n))
        if sorted(self.sigma) != list(range(1, self.n + 1)):
            raise InputError("sigma = %r is not a permutation of 1..%d"
                             % (self.sigma, self.n))
        for pair in self.hcoeffs:
            if len(pair) != 2 or pair[0] < 0 or pair[1] < 0:
                raise InputError("Hopf label %r is not a pair of nonnegative "
                                 "exponents" % (pair,))

    def sort_key(self):
        return (self.sigma, self.hcoeffs)

    def rename(self, mapping: dict) -> "HMonomial":
        """Apply the variable renaming x_i -> x_{mapping[i]} (identity off-keys)."""
        new_sigma = tuple(mapping.get(s, s) for s in self.sigma)
        return HMonomial(self.n, new_sigma, self.hcoeffs)


@dataclass(frozen=True)
class MultilinearHPoly:
    """A finite CycNum-combination of degree-n basis monomials.

    ``terms`` is normalized: like monomials combined, zero coefficients
    dropped, sorted by the fixed monomial order.  Build through
    ``from_terms`` so the invariant holds.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        for mono, _ in self.terms:
            if mono.n != self.n:
                raise InputError("term of degree %d in a degree-%d polynomial"
                                 % (mono.n, self.n))

    @staticmethod
    def from_terms(n: int, pairs: Iterable) -> "MultilinearHPoly":
        acc = {}
        for mono, coeff in pairs:
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = coeff
        kept = [(mono, c) for mono, c in acc.items() if not c.is_zero()]
        kept.sort(key=lambda mc: mc[0].sort_key())
        return MultilinearHPoly(n, tuple(kept))

    @staticmethod
    def single(mono: HMonomial, coeff: CycNum) -> "MultilinearHPoly":
        return MultilinearHPoly.from_terms(mono.n, [(mono, coeff)])

    def __add__(self, other: "MultilinearHPoly") -> "MultilinearHPoly":
        if self.n != other.n:
            raise InputError("cannot add polynomials of degrees %d and %d"
                             % (self.n, other.n))
        return MultilinearHPoly.from_terms(
            self.n, list(self.terms) + list(other.terms))

    def scale(self, coeff: CycNum) -> "MultilinearHPoly":
        return MultilinearHPoly.from_terms(
            self.n, [(mono, coeff * c) for mono, c in self.terms])

    def is_zero(self) -> bool:
        return not self.terms


def evaluate(p: MultilinearHPoly, mod: HModuleAlgebra, args) -> tuple:
    """Substitute coordinate vectors for the variables of p.

    Position j contributes monomial_operator(i_j, k_j) applied to
    args[sigma(j)-1]; the factors multiply left to right in product order.
    """
    args = [tuple(a) for a in args]
    if len(args) != p.n:
        raise InputError("degree-%d polynomial got %d arguments"
                         % (p.n, len(args)))
    m = mod.m
    dim = mod.algebra.dim
    for a in args:
        if len(a) != dim:
            raise InputError("argument of length %d; the algebra has "
                             "dimension %d" % (len(a), dim))
    out = vec_zero(m, dim)
    for mono, coeff in p.terms:
        prod = None
        for (i, k), s in zip(mono.hcoeffs, mono.sigma):
            if i >= m or k >= m:
                raise InputError("Hopf label (%d, %d) out of range for "
                                 "conductor %d" % (i, k, m))
            factor = mod.monomial_operator(i, k).apply(args[s - 1])
            prod = factor if prod is None else mod.algebra.multiply(prod, factor)
        out = vec_add(out, vec_scale(coeff, prod))
    return out


def alternate(p: MultilinearHPoly, varset) -> MultilinearHPoly:
    """Sum of signed copies of p over all permutations of ``varset``.

    The result is antisymmetric under swapping any two variables of the set,
    so it vanishes whenever two of them receive the same argument.
    Alternating twice over the same set multiplies by |varset|!.
    """
    varlist = sorted(set(varset))
    for x in varlist:
        if not (1 <= x <= p.n):
            raise InputError("variable %d outside 1..%d" % (x, p.n))
    pieces = []
    for tau in itertools.permutations(varlist):
        mapping = dict(zip(varlist, tau))
        sign = perm_sign(tau)
        for mono, coeff in p.terms:
            signed = coeff if sign == 1 else -coeff
            pieces.append((mono.rename(mapping), signed))
    return MultilinearHPoly.from_terms(p.n, pieces)


@dataclass(frozen=True)
class CodimResult:
    """Exact n-th codimension together with the matrix that produced it."""

    n: int
    value: int
    matrix_shape: tuple
    method: str
    wall_ms: float

    def __post_init__(self):
        rows, cols = self.matrix_shape
        if self.value > min(rows, cols):
            raise InputError("codimension %d exceeds the matrix shape %r"
                             % (self.value, self.matrix_shape))


def _basis_images(mod: HModuleAlgebra):
    # app[b][t] = (c^i v^k)(e_t) with b = i*m + k.
    m = mod.m
    dim = mod.algebra.dim
    app = []
    for i in range(m):
        for k in range(m):
            op = mod.monomial_operator(i, k)
            app.append([op.apply(mod.algebra.basis_vector(t))
                        for t in range(dim)])
    return app


def _products(basis, right, dim: int, zero: CycNum):
    """The maps t -> f(t_1..t_{j-1}) * h_b(e_{t_j}), f over basis, b inner.

    Column (prefix, t_j, o) of the product is prefix*dim^2 + t_j*dim + o, and
    right[b][s] lists the nonzero (t*dim + o, coefficient) of e_s * h_b(e_t),
    so each nonzero entry f[(prefix, s)] scatters one short list.
    """
    for f in basis:
        entries = [(divmod(q, dim), x) for q, x in enumerate(f)
                   if not x.is_zero()]
        for right_b in right:
            acc = [zero] * (len(f) * dim)
            for (prefix, s), x in entries:
                base = prefix * dim * dim
                for off, y in right_b[s]:
                    acc[base + off] = acc[base + off] + x * y
            yield tuple(acc)


def _exact_spans(mod: HModuleAlgebra, count: int, start=None):
    """EchelonBasis of `count` levels in turn, each echelonized exactly over
    Q(zeta_m): W_1, W_2, ... when start is None, else the levels after the
    one whose EchelonBasis start is."""
    m, dim = mod.m, mod.algebra.dim
    alg = mod.algebra
    app = _basis_images(mod)
    right = [[[(t * dim + o, x)
               for t in range(dim)
               for o, x in enumerate(alg.multiply(alg.basis_vector(s),
                                                  images[t]))
               if not x.is_zero()]
              for s in range(dim)]
             for images in app]
    span = start
    if span is None:
        span = echelon(m, dim * dim, [tuple(x for img in images for x in img)
                                      for images in app])
        yield span
        count -= 1
    for _ in range(count):
        span = echelon(m, span.ncols * dim,
                       _products(span.rows(), right, dim, CycNum.zero(m)))
        yield span


def _span_rank(planes: np.ndarray, d: int, m: int, full=None):
    """certified_rank on the rows planes / d, their images mod p taken by
    echelon_mod_p and the rows themselves generating the span."""

    def images(q, z):
        return echelon_mod_p(planes_mod_p(planes, d, q, z), q)

    return certified_rank(m, images, lambda: (planes, ()), full)


def _lift_level(m: int, rows: np.ndarray):
    """(d, d E) for E the canonical basis of the span of the int64 planes
    rows, read back by certified_rank from their reduced echelon form mod
    the first reduction prime; None when the lift is refused."""
    got = _span_rank(rows, 1, m)
    return None if got is None else got[2]


def _plane_spans(mod: HModuleAlgebra, n: int):
    """Canonical bases of W_1, ..., W_n in turn as planes (d, d E), built
    in integers and lifted level by level (_lift_level); stops before the
    first level whose products or lift a guard or certificate refuses.

    The inputs come from the integer planes of the table and of c and v
    (hmodule.structure_planes): the operators h_b = c^i v^k as zmatmul
    products (hmodule.taft_monomials), the images h_b(e_t) that generate
    W_1, and right[s, (b, t, o)], the planes of (e_s h_b(e_t))_o.  The
    labels b come in taft_monomials' order, which changes no canonical
    basis.  The generating rows of W_j are then (d E_{j-1}) times right,
    one zmatmul, each row of them an integer multiple of the map f * h_b
    for f a row of E_{j-1}.
    """
    m, dim = mod.m, mod.algebra.dim
    planes = structure_planes(mod.algebra, (mod.c_op, mod.v_op))
    if planes is None:
        return
    table, gens = planes
    deg = table.shape[-1]
    one = np.zeros_like(gens[0])
    one[..., 0] = np.eye(dim, dtype=np.int64)

    def mul(x, y):
        return None if x is None or y is None else zmatmul(x, y, m)

    ops = [one] + taft_monomials(gens, mul, one, m)
    if any(h is None for h in ops):
        return
    # images[b, t, a] = (h_b e_t)_a
    images = np.stack(ops).transpose(0, 2, 1, 3)
    right = zmatmul(images.reshape(-1, dim, deg),
                    table.transpose(1, 0, 2, 3).reshape(dim, -1, deg), m)
    if right is None:
        return
    right = right.reshape(m * m, dim, dim, dim, deg).transpose(2, 0, 1, 3, 4)
    right = right.reshape(dim, -1, deg)
    rows = images.reshape(m * m, dim * dim, deg)
    for j in range(n):
        if j:
            de = level[1]
            rows = zmatmul(de.reshape(-1, dim, deg), right, m)
            if rows is None:
                return
            prefixes = de.shape[1] // dim
            rows = rows.reshape(len(de), prefixes, m * m, dim * dim, deg)
            rows = rows.transpose(0, 2, 1, 3, 4).reshape(
                len(de) * m * m, prefixes * dim * dim, deg)
        level = _lift_level(m, rows)
        if level is None:
            return
        yield level


def _cyc_rows(m: int, d: int, planes: np.ndarray):
    """The rows planes / d as tuples of CycNum, each distinct entry built
    once."""
    deg = planes.shape[-1]
    uniq, codes = np.unique(planes.reshape(-1, deg), axis=0,
                            return_inverse=True)
    pad = (0,) * (len(CycNum.zero(m).num) - deg)
    scale = CycNum.rational(m, Fraction(1, d))
    values = [CycNum(m, tuple(u) + pad, 1) * scale for u in uniq.tolist()]
    for row in codes.reshape(planes.shape[:-1]).tolist():
        yield tuple(map(values.__getitem__, row))


def _ordered_spans(mod: HModuleAlgebra, n: int, backend: str):
    """Canonical bases of W_1, ..., W_n in turn, W_j the span of
    t -> (h_1 e_{t_1}) ... (h_j e_{t_j}), each as (rows, planes): the
    CycNum rows or None, and the int64 planes (d, d E) or None.

    Rows are flattened over (argument tuple, output coordinate) like the
    columns of the evaluation matrix.  W_1 holds the images h_b(e_t); W_j is
    spanned by the products of a basis of W_{j-1} with each label.  Under
    backend "auto" the levels come from _plane_spans; from the first level
    it refuses on, and always under "exact", they are echelonized exactly
    (_exact_spans), starting from the last lifted level.
    """
    m = mod.m
    done, last = 0, None
    if backend == "auto":
        for last in _plane_spans(mod, n):
            done += 1
            yield None, last
    if done == n:
        return
    start = None if last is None else EchelonBasis.from_reduced(
        m, last[1].shape[1], list(_cyc_rows(m, *last)))
    for span in _exact_spans(mod, n - done, start):
        yield span.rows(), None


def _argument_permutations(dim: int, n: int):
    """For each sigma in lexicographic order, the column map of P_sigma.

    Column (t, o) of the permuted row reads column (t o sigma, o) of the
    ordered row, where (t o sigma)_j = t_{sigma(j)}.
    """
    digits = np.array(list(itertools.product(range(dim), repeat=n)),
                      dtype=np.intp).reshape(-1, n)
    place = dim ** np.arange(n - 1, -1, -1, dtype=np.intp)
    out = np.arange(dim, dtype=np.intp)
    for sigma in itertools.permutations(range(n)):
        source = digits[:, list(sigma)] @ place
        yield (source[:, None] * dim + out).ravel()


def _planes_rank(planes: np.ndarray, d: int, m: int):
    """(rank, method) of the rows planes / d when their mod-p rank at the
    first reduction prime that keeps d fills their shape or certified_rank
    confirms it; None when neither does."""
    got = _span_rank(planes, d, m, min(planes.shape[:2]))
    if got is None:
        return None
    value, primes, basis = got
    return value, "modp-%s(p=%s)" % ("pinned" if basis is None
                                     else "certified",
                                     ",".join(map(str, primes)))


def _exact_rank(m: int, cols: int, rows, r: int):
    """(rank, "exact-echelon") of rows over Q(zeta_m), the first r of them
    a canonical basis, adopted as it is."""
    rows = iter(rows)
    eb = EchelonBasis.from_reduced(m, cols, list(itertools.islice(rows, r)))
    for row in rows:
        if eb.dim == cols:
            break
        eb.insert(row)
    return eb.dim, "exact-echelon"


def _nominal_rows(m: int, n: int, budget_rows: int) -> int:
    """n! * m^{2n}, the rows of the degree-n evaluation matrix, checked
    against the budget."""
    rows_total = math.factorial(n) * (m * m) ** n
    if rows_total > budget_rows:
        raise BudgetExceeded(
            "degree %d needs %d evaluation rows; the budget is %d — pass a "
            "larger budget explicitly to proceed" % (n, rows_total, budget_rows))
    return rows_total


def _level_rank(mod: HModuleAlgebra, n: int, level, backend: str):
    """(value, method): the rank of the n! permuted copies of the canonical
    basis of W_n, exact duplicates dropped; level is (rows, planes) as
    _ordered_spans gives it."""
    m, dim = mod.m, mod.algebra.dim
    cols = dim ** (n + 1)
    rows, planes = level
    if rows is None:
        d, keys = planes
        keys, = fit_planes([keys])
    else:
        # an exactly built basis: its entries as small ints, equal codes
        # equal CycNums, so permuting and deduplicating rows is integer work
        index = {}
        keys = np.array([[index.setdefault((x.num, x.den), len(index))
                          for x in row] for row in rows],
                        dtype=np.intp).reshape(len(rows), cols)
        values = [CycNum(m, *x) for x in index]
    distinct = np.frombuffer(b"".join(dict.fromkeys(
        row.tobytes() for perm in _argument_permutations(dim, n)
        for row in keys[:, perm])), dtype=keys.dtype).reshape(
            (-1,) + keys.shape[1:])
    if backend == "auto" and len(distinct):
        if rows is None:
            planes = d, distinct
        else:
            # None when a coefficient reaches 2^62: no modular rank then
            planes = integer_planes(m, [values])
            if planes is not None:
                (d, ints), = planes
                planes = d, ints[distinct]
        if planes is not None:
            got = _planes_rank(planes[1], planes[0], m)
            if got is not None:
                return got
    # no pin and no certificate: the identity block leads and is already
    # canonical
    if rows is None:
        copies = _cyc_rows(m, d, distinct)
    else:
        copies = (tuple(map(values.__getitem__, codes))
                  for codes in distinct.tolist())
    return _exact_rank(m, cols, copies, len(keys))


def _check_request(n: int, backend: str, budget_rows: int) -> None:
    if n < 1:
        raise InputError("degree must be positive, got %d" % n)
    if backend not in ("auto", "exact"):
        raise InputError("unknown rank backend %r" % backend)
    if budget_rows < 0:
        raise InputError("budget must be >= 0, got %d" % budget_rows)


def codimension(mod: HModuleAlgebra, n: int, *,
                budget_rows: int = 10 ** 6,
                backend: str = "auto") -> CodimResult:
    """Exact rank of the degree-n evaluation matrix of the module algebra.

    The matrix itself is never formed.  Its identity-order rows span W_n,
    which is built by recursion (see the module docstring); the row of a
    permutation sigma is an identity-order row with its argument columns
    permuted, so the rank is that of the n! permuted copies of the
    canonical basis of W_n, with exact duplicates dropped.
    ``matrix_shape`` still reports the nominal (n! * m^{2n}, dim^{n+1})
    matrix, and ``budget_rows`` caps that nominal row count.

    backend "auto" first takes the rank over a prime field, a lower bound
    on the exact rank.  It is the value when it reaches min(rows, cols)
    (method "modp-pinned") or when linalg.certified_rank confirms it from
    modular images and an exact integer check ("modp-certified", with the
    primes used).  Without either, and always under backend "exact", the
    rank is taken by elimination over the cyclotomic field
    ("exact-echelon").  The reported value is exact every way.
    """
    _check_request(n, backend, budget_rows)
    rows_total = _nominal_rows(mod.m, n, budget_rows)
    started = time.perf_counter()
    *_, level = _ordered_spans(mod, n, backend)
    value, method = _level_rank(mod, n, level, backend)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return CodimResult(n=n, value=value,
                       matrix_shape=(rows_total, mod.algebra.dim ** (n + 1)),
                       method=method, wall_ms=wall_ms)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    value: int
    nth_root: float
    bound_ok: bool
    rows: int
    cols: int
    wall_ms: float


def codim_growth_report(mod: HModuleAlgebra, n_max: int, *,
                        budget_rows: int = 10 ** 6,
                        backend: str = "auto"):
    """Codimensions for n = 1..n_max with the (dim A)^{n+1} bound check.

    Each row holds what codimension(mod, n) gives, but W_1..W_{n_max} are
    built once, each level ranked as it is built, and every degree is
    checked against the budget before any is built.  wall_ms is the time
    of the level's build and rank.  Only the upper bound is asserted per
    row; the matching exponential lower bound involves constants this
    toolkit does not compute.  n_max = 0 gives no rows; a negative n_max
    or an unknown backend raises InputError.
    """
    dim = mod.algebra.dim
    degrees = range(1, n_max + 1)
    # n_max = 0 asks for no degree: only the backend and budget are checked
    _check_request(n_max or 1, backend, budget_rows)
    nominal = [_nominal_rows(mod.m, n, budget_rows) for n in degrees]
    report = []
    started = time.perf_counter()
    for n, rows_total, level in zip(degrees, nominal,
                                    _ordered_spans(mod, n_max, backend)):
        value, _ = _level_rank(mod, n, level, backend)
        now = time.perf_counter()
        report.append(GrowthRow(
            n=n,
            value=value,
            nth_root=value ** (1.0 / n),
            bound_ok=value <= dim ** (n + 1),
            rows=rows_total,
            cols=dim ** (n + 1),
            wall_ms=(now - started) * 1000.0,
        ))
        started = now
    return report
