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
W_{j-1} and each of the m^2 labels b, each level echelonized exactly and
read only until it fills its dim^{j+1} columns.  The row of (sigma, h) is
the identity-order row of h with its argument columns permuted,
row_sigma[t] = row[t o sigma] with (t o sigma)_j = t_{sigma(j)}, so the row
space is the sum of the n! permuted copies P_sigma(W_n).  The rank is taken
over the n! permuted blocks of the canonical basis of W_n, exact duplicates
dropped: at most n! * dim^{n+1} rows, and far fewer where the copies
coincide, instead of n! * m^{2n}.  ``CodimResult.matrix_shape`` and the
``rows`` field of the ``codim`` output still give the nominal evaluation
matrix (n! * m^{2n}, dim^{n+1}), and the row budget caps that nominal count.

Orderings are fixed so bases and ranks are bit-reproducible: permutations
in lexicographic order, labels b = i*m + k in increasing order, every span
kept in canonical reduced echelon form.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycNum
from .errors import BudgetExceeded, InputError
from .hmodule import HModuleAlgebra
from .linalg import (EchelonBasis, ModReductionError, cyc_to_modp, echelon,
                     rank_mod_p, reduction_primes, vec_add, vec_scale,
                     vec_zero)


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


def _ordered_span(mod: HModuleAlgebra, n: int) -> tuple:
    """Canonical basis of W_n, the span of t -> (h_1 e_{t_1}) ... (h_n e_{t_n}).

    Rows are flattened over (argument tuple, output coordinate) like the
    columns of the evaluation matrix.  W_1 holds the images h_b(e_t); W_j is
    spanned by the products of a basis of W_{j-1} with each label.
    """
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
    span = echelon(m, dim * dim,
                   [tuple(x for img in images for x in img) for images in app])
    for _ in range(n - 1):
        span = echelon(m, span.ncols * dim,
                       _products(span.rows(), right, dim, CycNum.zero(m)))
    return span.rows()


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


def _modp_rank(codes, values, m: int):
    """(rank, p) over the first reduction prime p that reduces values, of
    the rows values[codes], or None if none does."""
    for p, zmod in reduction_primes(m):
        try:
            image = np.array([cyc_to_modp(x, p, zmod) for x in values],
                             dtype=np.int64)
        except ModReductionError:
            continue
        return rank_mod_p(image[codes], p), p
    return None


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

    backend "auto" first takes the rank over a prime field; that is a lower
    bound on the exact rank, so when it already reaches min(rows, cols) the
    exact elimination is skipped.  backend "exact" always eliminates over
    the cyclotomic field.  The reported value is exact either way.
    """
    if n < 1:
        raise InputError("degree must be positive, got %d" % n)
    if backend not in ("auto", "exact"):
        raise InputError("unknown rank backend %r" % backend)
    m = mod.m
    dim = mod.algebra.dim
    m2 = m * m
    rows_total = math.factorial(n) * m2 ** n
    if rows_total > budget_rows:
        raise BudgetExceeded(
            "degree %d needs %d evaluation rows; the budget is %d — pass a "
            "larger budget explicitly to proceed" % (n, rows_total, budget_rows))
    cols = dim ** (n + 1)
    started = time.perf_counter()

    basis = _ordered_span(mod, n)
    # entries as small ints: equal codes are equal CycNums, so permuting and
    # deduplicating rows is integer work
    index = {}
    coded = np.array([[index.setdefault((x.num, x.den), len(index)) for x in f]
                      for f in basis], dtype=np.intp).reshape(len(basis), cols)
    values = [CycNum(m, num, den) for num, den in index]
    blocks = dict.fromkeys(row.tobytes()
                           for perm in _argument_permutations(dim, n)
                           for row in coded[:, perm])
    distinct = np.frombuffer(b"".join(blocks),
                             dtype=np.intp).reshape(len(blocks), cols)

    bound = min(len(distinct), cols)
    method = None
    value = None
    if backend == "auto" and len(distinct):
        got = _modp_rank(distinct, values, m)
        if got is not None and got[0] == bound:
            value, method = got[0], "modp-pinned(p=%d)" % got[1]
    if value is None:
        # the identity block leads and is already canonical
        eb = EchelonBasis.from_reduced(m, cols, basis)
        for codes in distinct[len(basis):].tolist():
            if eb.dim == cols:
                break
            eb.insert(tuple(map(values.__getitem__, codes)))
        value, method = eb.dim, "exact-echelon"

    wall_ms = (time.perf_counter() - started) * 1000.0
    return CodimResult(n=n, value=value, matrix_shape=(rows_total, cols),
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

    Only the upper bound is asserted per row; the matching exponential lower
    bound involves constants this toolkit does not compute.
    """
    dim = mod.algebra.dim
    report = []
    for n in range(1, n_max + 1):
        res = codimension(mod, n, budget_rows=budget_rows, backend=backend)
        report.append(GrowthRow(
            n=n,
            value=res.value,
            nth_root=res.value ** (1.0 / n),
            bound_ok=res.value <= dim ** (n + 1),
            rows=res.matrix_shape[0],
            cols=res.matrix_shape[1],
            wall_ms=res.wall_ms,
        ))
    return report
