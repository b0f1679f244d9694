"""Exact dense linear algebra over Q(zeta_m), plus a prime-field reduction kit.

Matrices are immutable tuples of tuples of CycNum.  Subspaces are kept in
reduced row echelon form with unit pivots and no zero rows; that form is
canonical, so subspace equality is plain tuple equality and results are
bit-reproducible run to run.  Every exact elimination runs on that echelon
basis (EchelonBasis / echelon): rank, kernel, solve, Subspace and
Matrix.inverse, which reads A^{-1} off the echelon basis of [A | I].

Exact values have one integer form, their entries (_numerators): the key
and the numerators over one common denominator of each nonzero value, kept
once per Matrix (Matrix._entries) and per table.  Integer coefficient
planes are scattered from the entries (entry_planes), and so is the image
over F_p (entries_mod_p, through planes_mod_p).

The modular half maps Q(zeta_m) into a prime field F_p with p = 1 (mod m),
sending zeta to an element of multiplicative order m.  Ranks computed there
are exact lower bounds for the true rank (a nonzero minor mod p lifts to a
nonzero minor over the field).  One in-place F_p row reduction (_row_reduce)
is the only modular elimination: echelon_mod_p runs it on a matrix, and
ModpEchelon.insert_block on the residual of each block against its basis.
rank_mod_p, the same reduction on a copy, has no caller in the package; it
stays for the benchmark's per-layer wrapper and the tests.  certified_rank
is the one modular-rank decision: it takes the rank at the first reduction
prime that reduces the rows and reports it as exact only when it meets an
exact bound from the other side, the full rank the caller names (a pin) or
a certificate.  The certificate reconstructs the reduced echelon form E of
the row space over Q(zeta_m) from its images at every root of Phi_m mod a
few primes (CRT, then rational reconstruction) and checks in integers that
every generating row lies in the span of E, so the rank is at most the
modular one.  The check also proves E exact, and it is returned as int64
coefficient planes: the codimension engine builds each level W_j of its
ordered span this way, from the image of integer planes (planes_mod_p) at
one prime, instead of by an echelon over Q(zeta_m).  The reduction primes
are the primes p = 1 (mod m) above 2^20 in ascending order, found in one
upward scan once per conductor, each candidate tested by deterministic
Miller-Rabin.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cyclotomic import CycNum, fold
from .errors import InputError


def vec_zero(m: int, n: int) -> tuple:
    z = CycNum.zero(m)
    return (z,) * n


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))

def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(c, a):
    return tuple(c * x for x in a)

def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def _support(a) -> list:
    """Ascending indices of the nonzero entries of a."""
    # any(x.num) is CycNum.is_zero inlined: this scan runs once per
    # echelon insert over the full width
    return [j for j, x in enumerate(a) if any(x.num)]


class Matrix:
    """Immutable exact matrix over Q(zeta_m)."""

    __slots__ = ("m", "rows", "_ent")

    def __init__(self, m: int, rows: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_ent", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def _entries(self) -> tuple:
        """(D, keys, x): rows[r][c] = x[k] / D for each nonzero entry, at
        the ascending keys[k] = r ncols + c (_numerators); built once."""
        ent = self._ent
        if ent is None:
            n = self.ncols
            ent = _numerators(self.m, [
                (r * n + c, x) for r, row in enumerate(self.rows)
                for c, x in enumerate(row) if any(x.num)])
            object.__setattr__(self, "_ent", ent)
        return ent

    @staticmethod
    def from_rows(m: int, rows) -> "Matrix":
        conv = []
        width = None
        for r in rows:
            row = tuple(x if isinstance(x, CycNum) else CycNum.rational(m, x) for x in r)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputError("ragged matrix rows")
            for x in row:
                if x.m != m:
                    raise InputError("conductor mismatch in matrix entries")
            conv.append(row)
        return Matrix(m, tuple(conv))

    @staticmethod
    def identity(m: int, n: int) -> "Matrix":
        one, zero = CycNum.one(m), CycNum.zero(m)
        return Matrix(m, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zeros(m: int, nrows: int, ncols: int) -> "Matrix":
        zero = CycNum.zero(m)
        return Matrix(m, tuple((zero,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> CycNum:
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.m, tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.m, tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(self.m, tuple(tuple(-x for x in r) for r in self.rows))

    def __mul__(self, scalar):
        if isinstance(scalar, Matrix):
            return NotImplemented
        c = scalar if isinstance(scalar, CycNum) else CycNum.rational(self.m, scalar)
        return Matrix(self.m, tuple(vec_scale(c, r) for r in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError("matmul shape mismatch: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        cols = other.ncols
        zero = CycNum.zero(self.m)
        # the nonzero (j, y) of each row of other, collected once
        support = [[(j, y) for j, y in enumerate(r) if any(y.num)]
                   for r in other.rows]
        out = []
        for r in self.rows:
            acc = [zero] * cols
            for k, c in enumerate(r):
                if any(c.num):
                    for j, y in support[k]:
                        acc[j] = acc[j] + c * y
            out.append(tuple(acc))
        return Matrix(self.m, tuple(out))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise InputError("matrix powers take nonnegative integer exponents")
        if self.nrows != self.ncols:
            raise InputError("matrix power needs a square matrix")
        result = Matrix.identity(self.m, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def apply(self, vec) -> tuple:
        """Matrix times column vector (vec as a tuple)."""
        if len(vec) != self.ncols:
            raise InputError("apply shape mismatch")
        support = [(j, x) for j, x in enumerate(vec) if any(x.num)]
        zero = CycNum.zero(self.m)
        out = []
        for r in self.rows:
            acc = zero
            for j, x in support:
                c = r[j]
                if any(c.num):
                    acc = acc + c * x
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.m == other.m and self.rows == other.rows

    def __hash__(self):
        return hash((self.m, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return "Matrix(%d, [%s])" % (self.m, body)

    def inverse(self) -> "Matrix":
        """The right half of the echelon basis of [A | I]; A is singular
        exactly when the pivots are not the first n columns."""
        if self.nrows != self.ncols:
            raise InputError("inverse needs a square matrix")
        n = self.nrows
        ident = Matrix.identity(self.m, n).rows
        eb = echelon(self.m, 2 * n, (a + e for a, e in zip(self.rows, ident)))
        if eb.pivots() != tuple(range(n)):
            raise InputError("matrix is singular")
        return Matrix(self.m, tuple(r[n:] for r in eb.rows()))

    def is_scalar(self):
        """The scalar c with self == c*I, or None."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        c = self.rows[0][0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                want = c if i == j else CycNum.zero(self.m)
                if self.rows[i][j] != want:
                    return None
        return c


class EchelonBasis:
    """Mutable reduced-row-echelon accumulator; canonical at all times.

    Rows are mutually reduced with unit pivots and kept sorted by pivot
    column, so .rows() is the canonical basis of the span after any
    sequence of inserts.  Each row carries its support, the ascending list
    of its nonzero columns, so reductions touch only those entries.
    """

    def __init__(self, m: int, ncols: int):
        self.m = m
        self.ncols = ncols
        self._rows = []
        self._pivots = []
        self._supports = []

    @staticmethod
    def from_reduced(m: int, ncols: int, rows) -> "EchelonBasis":
        """Adopt rows that are already the canonical basis of their span.

        Nothing is eliminated: each pivot is the row's first nonzero
        column, which is what ``rows()`` of any EchelonBasis satisfies.
        """
        eb = EchelonBasis(m, ncols)
        for row in rows:
            supp = _support(row)
            eb._rows.append(row)
            eb._pivots.append(supp[0])
            eb._supports.append(supp)
        return eb

    def __len__(self):
        return len(self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> tuple:
        return tuple(self._rows)

    def pivots(self) -> tuple:
        return tuple(self._pivots)

    def reduce(self, vec, want_coords: bool = False):
        """Residual of vec against the span; optionally the combination used."""
        v = list(vec)
        coords = [CycNum.zero(self.m)] * len(self._rows) if want_coords else None
        for idx, (p, row, supp) in enumerate(zip(self._pivots, self._rows,
                                                 self._supports)):
            c = v[p]
            if any(c.num):
                for j in supp:
                    v[j] = v[j] - c * row[j]
                if want_coords:
                    coords[idx] = c
        return (tuple(v), coords) if want_coords else tuple(v)

    def contains(self, vec) -> bool:
        return vec_is_zero(self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec over rows(), or None if vec is outside the span."""
        res, coords = self.reduce(vec, want_coords=True)
        if not vec_is_zero(res):
            return None
        return tuple(coords)

    def insert(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        res = self.reduce(vec)
        supp = _support(res)
        if not supp:
            return False
        piv = supp[0]
        inv = res[piv].inverse()
        new = list(res)
        for j in supp:
            new[j] = inv * new[j]
        new = tuple(new)
        # clear the new pivot column from the existing rows; only the
        # columns in the new row's support change
        for i, row in enumerate(self._rows):
            c = row[piv]
            if any(c.num):
                cleared = list(row)
                for j in supp:
                    cleared[j] = cleared[j] - c * new[j]
                self._rows[i] = tuple(cleared)
                self._supports[i] = [j for j in sorted(set(self._supports[i])
                                                       .union(supp))
                                     if any(cleared[j].num)]
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < piv:
            pos += 1
        self._rows.insert(pos, new)
        self._pivots.insert(pos, piv)
        self._supports.insert(pos, supp)
        return True


def echelon(m: int, ncols: int, vectors) -> EchelonBasis:
    """Echelon basis of the span of vectors, read until the span is full."""
    eb = EchelonBasis(m, ncols)
    for v in vectors:
        if eb.dim == ncols:
            break
        eb.insert(v)
    return eb


def rank(matrix: Matrix) -> int:
    return echelon(matrix.m, matrix.ncols, matrix.rows).dim


def kernel(matrix: Matrix) -> tuple:
    """Canonical basis of the right null space {x : A x = 0}."""
    eb = echelon(matrix.m, matrix.ncols, matrix.rows)
    rows, pivots = eb.rows(), eb.pivots()
    n = matrix.ncols
    free = [j for j in range(n) if j not in set(pivots)]
    one, zero = CycNum.one(matrix.m), CycNum.zero(matrix.m)
    basis = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    out = echelon(matrix.m, n, basis)
    return out.rows()


def solve(matrix: Matrix, rhs) -> tuple | None:
    """One particular solution of A x = b, or None."""
    n = matrix.ncols
    aug = [tuple(matrix.rows[i]) + (rhs[i],) for i in range(matrix.nrows)]
    eb = echelon(matrix.m, n + 1, aug)
    zero = CycNum.zero(matrix.m)
    x = [zero] * n
    for piv, row in zip(eb.pivots(), eb.rows()):
        if piv == n:
            return None  # inconsistent: pivot in the constants column
        # the rows are mutually reduced and the free variables stay zero,
        # so each pivot variable reads its row's constant
        x[piv] = row[n]
    check = matrix.apply(tuple(x))
    if tuple(check) != tuple(rhs):
        return None
    return tuple(x)


class Subspace:
    """A subspace of F^n in canonical reduced echelon form."""

    __slots__ = ("m", "ambient", "basis")

    def __init__(self, m: int, ambient: int, basis: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(m: int, ambient: int, vectors) -> "Subspace":
        return Subspace(m, ambient, echelon(m, ambient, vectors).rows())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return self._eb().contains(vec)

    def coords(self, vec):
        return self._eb().coords(vec)

    def _eb(self) -> EchelonBasis:
        return EchelonBasis.from_reduced(self.m, self.ambient, self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.m, self.ambient, self.basis) == (other.m, other.ambient, other.basis)

    def __hash__(self):
        return hash((self.m, self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def subspaces_independent(parts) -> bool:
    """True if the given subspaces intersect pairwise trivially and sum directly."""
    parts = list(parts)
    if not parts:
        return True
    total = sum(p.dim for p in parts)
    joined = Subspace.from_vectors(parts[0].m, parts[0].ambient,
                                   [v for p in parts for v in p.basis])
    return joined.dim == total


def intertwiner_space(m: int, n_out: int, n_in: int, constraints) -> list:
    """Basis of {T : n_out x n_in | T @ X == s * (Y @ T) for each (X, Y, s)}.

    constraints: iterable of (X, Y, s) with X n_in-square, Y n_out-square,
    s a CycNum scalar.  Returns a list of Matrix spanning the solution
    space, echelonized over the flattened coordinates (row-major).
    """
    nvars = n_out * n_in
    rows = []
    zero = CycNum.zero(m)
    for X, Y, s in constraints:
        for i in range(n_out):
            for j in range(n_in):
                row = [zero] * nvars
                # (T @ X)[i, j] = sum_k T[i, k] X[k, j]
                for k in range(n_in):
                    c = X.entry(k, j)
                    if not c.is_zero():
                        row[i * n_in + k] = row[i * n_in + k] + c
                # - s * (Y @ T)[i, j] = - s * sum_k Y[i, k] T[k, j]
                for k in range(n_out):
                    c = Y.entry(i, k)
                    if not c.is_zero():
                        row[k * n_in + j] = row[k * n_in + j] - s * c
                rows.append(tuple(row))
    coeff = Matrix(m, tuple(rows)) if rows else Matrix.zeros(m, 0, nvars)
    basis = kernel(coeff) if rows else tuple(
        Matrix.identity(m, nvars).rows)
    out = []
    for v in basis:
        out.append(Matrix(m, tuple(tuple(v[i * n_in + j] for j in range(n_in))
                                   for i in range(n_out))))
    return out


def small_coefficients(s: int, values):
    """The integer coefficient vectors of length s that the span searches
    try, each once (for distinct values) and never all zero: the unit
    vectors, then the prefix sums (1, ..., 1, 0, ..., 0) of two or more
    ones, then itertools.product(values, repeat=s) in its order."""
    cheap = [tuple(int(j == i) for j in range(s)) for i in range(s)]
    cheap += [tuple(int(j <= i) for j in range(s)) for i in range(1, s)]
    yield from cheap
    seen = set(cheap)
    for coeffs in itertools.product(values, repeat=s):
        if any(coeffs) and coeffs not in seen:
            yield coeffs


def combination(coeffs, basis):
    """sum cf * b over the nonzero small integers cf, in basis order; None
    when every cf is 0."""
    acc = None
    for cf, b in zip(coeffs, basis):
        if cf:
            part = b * cf
            acc = part if acc is None else acc + part
    return acc


# ---------------------------------------------------------------------------
# prime-field reduction


# Miller-Rabin to the bases 2, 3, 5 and 7 decides every n below the first
# strong pseudoprime to all four, 3215031751 (Pomerance, Selfridge and
# Wagstaff, Math. Comp. 35, 1980)
_PRIME_BASES = (2, 3, 5, 7)
_PRIME_TEST_LIMIT = 3215031751


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n must be below
    _PRIME_TEST_LIMIT, far past any reduction prime of a usable conductor."""
    if n >= _PRIME_TEST_LIMIT:
        raise OverflowError("the prime test decides n < %d, not %d"
                            % (_PRIME_TEST_LIMIT, n))
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_one_mod(m: int):
    """The primes p = 1 (mod m) above 2**20, ascending, in one upward scan."""
    p = (1 << 20) // m * m + 1
    while True:
        p += m
        if _is_prime(p):
            yield p


def modular_prime(m: int, skip: int = 0) -> int:
    """Deterministic prime p = 1 (mod m), p > 2**20; skip steps to the next ones."""
    return _reduction_primes(m, skip + 1)[skip][0]


def root_of_unity_mod(m: int, p: int) -> int:
    """An element of exact multiplicative order m in F_p (needs m | p-1)."""
    if (p - 1) % m != 0:
        raise InputError("no order-%d element mod %d" % (m, p))
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for g in range(2, p):
        x = pow(g, (p - 1) // m, p)
        if x != 1 and all(pow(x, m // q, p) != 1 for q in primes):
            return x
    raise RuntimeError("no order-%d element found mod %d" % (m, p))


@functools.lru_cache(maxsize=None)
def _reduction_primes(m: int, count: int) -> tuple:
    return tuple((p, root_of_unity_mod(m, p))
                 for p in itertools.islice(_primes_one_mod(m), count))


def reduction_primes(m: int, count: int = 3):
    """The primes a modular rank tries in turn, each with its image of zeta:
    (p, zeta mod p) for the first `count` primes p = 1 (mod m) above 2**20,
    found once per conductor and count."""
    return iter(_reduction_primes(m, count))


class ModReductionError(ArithmeticError):
    """A denominator vanished mod p; retry with another prime."""


def cyc_to_modp(x: CycNum, p: int, zeta_mod: int) -> int:
    """Image of x under the reduction Q(zeta_m) -> F_p, zeta -> zeta_mod."""
    den = x.den % p
    if den == 0:
        raise ModReductionError("denominator divisible by %d" % p)
    acc = 0
    zpow = 1
    for c in x.num:
        if c:
            acc += c * zpow
        zpow = zpow * zeta_mod % p
    acc %= p
    return acc if den == 1 else acc * pow(den, p - 2, p) % p


def matrix_to_modp(mat: Matrix, p: int, zeta_mod: int) -> np.ndarray:
    """cyc_to_modp on every entry of mat, read from its entries."""
    return entries_mod_p(mat._entries(), mat.nrows * mat.ncols, p,
                         zeta_mod).reshape(mat.nrows, mat.ncols)


def _row_reduce(a: np.ndarray, p: int) -> list:
    """Reduce the int64 rows of a, entries in [0, p), in place over F_p; the
    (row, pivot column) of each nonzero row left, in row order.

    Each row in turn takes its leading column as pivot, is scaled to a unit
    pivot, and has that column cleared from every other row.  Rows that
    depend on the earlier ones end up zero, and the pivot rows, taken in
    pivot column order, are in reduced row echelon form.  Every entry of a
    product stays below p^2.
    """
    pivots = []
    for i in range(len(a)):
        nz = np.flatnonzero(a[i])
        if nz.size == 0:
            continue
        col = int(nz[0])
        row = a[i]
        if row[col] != 1:
            row *= pow(int(row[col]), p - 2, p)
            row %= p
        hit = np.flatnonzero(a[:, col])
        hit = hit[hit != i]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, col], row)) % p
        pivots.append((i, col))
    return pivots


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, by _row_reduce on a reduced copy."""
    return len(_row_reduce(np.remainder(np.asarray(a, dtype=np.int64), p), p))


def echelon_mod_p(a: np.ndarray, p: int):
    """(pivots, E): the reduced row echelon form over F_p of the int64 rows
    of a, entries in [0, p), which _row_reduce reduces in place; pivots
    ascending, and E the nonzero rows in that order."""
    found = sorted(_row_reduce(a, p), key=lambda rc: rc[1])
    return [c for _, c in found], a[[i for i, _ in found]]


class ModpEchelon:
    """Reduced row echelon accumulator over F_p on preallocated int64 rows.

    The rows have unit pivots and are mutually reduced, so the residual of
    a whole block against the span is one matrix product,
    B - B[:, pivots] @ rows.  Entries stay in [0, p), so every product sums
    at most ncols terms below p^2 and is exact while p^2 * ncols < 2^63; a
    wider accumulator is refused before anything is allocated.  All ncols
    rows a basis can hold are allocated at once: np.zeros pages cost no
    memory until a row is written.
    """

    def __init__(self, ncols: int, p: int):
        bound = p * p * max(ncols, 1)
        if bound >= 1 << 63:
            raise OverflowError("p^2 * width = %d overflows a 64-bit "
                                "accumulator (p = %d, width %d)"
                                % (bound, p, ncols))
        self.p = p
        self.ncols = ncols
        self._rows = np.zeros((ncols, ncols), dtype=np.int64)
        self._piv = np.zeros(ncols, dtype=np.intp)
        self._dim = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rows(self) -> np.ndarray:
        """The basis rows (a view), in insertion order."""
        return self._rows[:self._dim]

    @property
    def pivcols(self) -> list:
        return self._piv[:self._dim].tolist()

    def reduced(self):
        """(pivots, E) as echelon_mod_p gives them: the basis rows sorted by
        pivot column."""
        piv = self._piv[:self._dim]
        order = np.argsort(piv)
        return piv[order].tolist(), self._rows[order]

    def residual(self, block) -> np.ndarray:
        """The rows of block (or one vector) reduced against the span: zero
        in every pivot column, entries in [0, p)."""
        res = np.remainder(block, self.p).astype(np.int64, copy=False)
        if self._dim == 0:
            return res
        coef = res[..., self._piv[:self._dim]]
        rows = self.rows
        # only the rows whose pivot column res touches contribute
        used = np.flatnonzero(np.atleast_2d(coef).any(axis=0))
        if len(used) < len(rows):
            coef, rows = coef[..., used], rows[used]
        out = coef @ rows
        np.subtract(res, out, out=out)
        return np.remainder(out, self.p, out=out)

    def insert(self, vec) -> bool:
        """Add one vector; True if the dimension grew."""
        return self.insert_block(np.asarray(vec)[None, :]) > 0

    def insert_block(self, block) -> int:
        """Add every row of block to the span; the number of new pivots.

        The block is reduced against the basis with one product, _row_reduce
        turns its residual into new basis rows, and one product more clears
        their pivots from the older rows.
        """
        res = self.residual(block)
        res = res[res.any(axis=1)]
        new = _row_reduce(res, self.p)
        if not new:
            return 0
        old, self._dim = self._dim, self._dim + len(new)
        rows, piv = self._rows, self._piv
        idx, cols = zip(*new)
        rows[old:self._dim] = res[list(idx)]
        piv[old:self._dim] = cols
        if old:
            coef = rows[:old][:, piv[old:self._dim]]
            hit = np.flatnonzero(coef.any(axis=1))
            if hit.size:
                rows[hit] = (rows[hit] - coef[hit] @ rows[old:self._dim]) % self.p
        return len(new)


# ---------------------------------------------------------------------------
# certified ranks: integer planes over Z[zeta_m] and modular reconstruction

# integers kept in int64 stay below this, so one sum of two never wraps
_INT_LIMIT = 1 << 62

# the primes a certificate may take, the caller's first one included: three
# primes just above 2^20 multiply to below 2^62, so their CRT stays in int64
CERTIFY_PRIMES = 3


def _numerators(m: int, pairs: list) -> tuple:
    """(D, at, x), the entries of (index, value) pairs of nonzero CycNums:
    D the lcm of their denominators, at the indices, and x[k] the
    coefficients of D times value k, int64 below 2^62 in size, else Python
    ints (object dtype), cut to the constant column when no other is
    nonzero."""
    deg = len(CycNum.zero(m).num)
    den = math.lcm(1, *(c.den for _, c in pairs))
    at = np.array([k for k, _ in pairs], dtype=np.int64)
    rows = [c.num if c.den == den else [u * (den // c.den) for u in c.num]
            for _, c in pairs]
    try:
        x = np.array(rows, dtype=np.int64).reshape(len(rows), deg)
        if len(x) and not -_INT_LIMIT < x.min() <= x.max() < _INT_LIMIT:
            raise OverflowError
    except OverflowError:
        x = np.array(rows, dtype=object).reshape(len(rows), deg)
    return den, at, x if deg == 1 or x[:, 1:].any() else x[:, :1]


def stacked_entries(parts: list, size: int) -> tuple:
    """The entries of lists of `size` values each, list k's keys moved up
    by k size, over one denominator: _numerators on all the values."""
    big = math.lcm(1, *(d for d, _, _ in parts))
    deg = max(x.shape[1] for _, _, x in parts)
    xs = []
    for d, _, x in parts:
        wide = x.dtype == object or \
            int(np.abs(x).max(initial=0)) * (big // d) >= _INT_LIMIT
        xs.append(np.zeros((len(x), deg), dtype=object if wide else np.int64))
        xs[-1][:, :x.shape[1]] = (x.astype(object) if wide else x) * (big // d)
    return big, np.concatenate([at + k * size for k, (_, at, _)
                                in enumerate(parts)]), np.concatenate(xs)


def entry_planes(ent: tuple, shape: tuple, deg: int):
    """The int64 coefficient planes (shape + (deg,)) of the values whose
    entries are ent, deg at least their width: x[k] at the flat row keys[k],
    zero elsewhere; None when a coefficient reaches 2^62 (object dtype)."""
    _, keys, x = ent
    if x.dtype == object:
        return None
    out = np.zeros((math.prod(shape), deg), dtype=np.int64)
    out[keys, :x.shape[1]] = x
    return out.reshape(shape + (deg,))


def entries_mod_p(ent: tuple, size: int, p: int, zeta_mod: int) -> np.ndarray:
    """The `size` values whose entries are ent over F_p, zeta -> zeta_mod,
    as int64 (planes_mod_p); raises ModReductionError exactly when
    cyc_to_modp would on some value: p divides their denominator."""
    den, keys, x = ent
    out = np.zeros(size, dtype=np.int64)
    out[keys] = planes_mod_p(x, den, p, zeta_mod)
    return out


def planes_mod_p(planes: np.ndarray, den: int, p: int,
                 zeta_mod: int) -> np.ndarray:
    """Image over F_p, zeta -> zeta_mod, of the values planes / den, planes
    integer coefficient planes (entry_planes, or the rows x of entries);
    raises ModReductionError when p divides den, as cyc_to_modp does."""
    if den % p == 0:
        raise ModReductionError("denominator divisible by %d" % p)
    scale = pow(den, -1, p)
    out = None
    for s in range(planes.shape[-1]):
        # each term stays below p^2 and at most phi(m) of them are summed
        term = np.remainder(planes[..., s], p)
        c = pow(zeta_mod, s, p) * scale % p
        if c != 1:
            term *= c
        out = term if out is None else np.add(out, term, out=out)
    return np.remainder(out, p, out=out)


@functools.lru_cache(maxsize=None)
def _shifts(m: int) -> np.ndarray:
    """shifts[i, t] is zeta^(i + t) mod Phi_m, as phi(m) ints, for i and t
    below phi(m): the fold of a product of two coefficient planes."""
    deg = len(CycNum.zero(m).num)
    out = np.array([[fold(m, [int(j == i + t) for j in range(2 * deg - 1)])
                     for t in range(deg)] for i in range(deg)], dtype=np.int64)
    out.flags.writeable = False
    return out


def _lift(b: np.ndarray, m: int):
    """The integer matrix of right multiplication by b over Z[zeta_m].

    b holds the coefficient planes (q, s, deg) of a q x s matrix; row
    (k, i), column (j, l) of the result is coefficient l of zeta^i b[k, j].
    So a row vector's planes, flattened over (k, i), times the result are
    the planes of the vector times b, folded mod Phi_m (_shifts).  deg = 1
    is plain integers.  None when an entry would reach 2^62.
    """
    q, s, deg = b.shape
    if deg == 1:
        return b.reshape(q, s)
    shifts = _shifts(m)
    growth = int(np.abs(shifts).sum(axis=1).max())
    if int(np.abs(b).max(initial=0)) * growth >= _INT_LIMIT:
        return None
    out = np.zeros((q, deg, s, deg), dtype=np.int64)
    for i in range(deg):
        for t in range(deg):
            for l in np.flatnonzero(shifts[i, t]):
                out[:, i, :, l] += shifts[i, t, l] * b[..., t]
    return out.reshape(q * deg, s * deg)


def _exact_in_int64(width: int, amax: int, bmax: int) -> bool:
    """Whether a @ b is exact in int64, for a of the given width and
    entries up to amax, b up to bmax: every partial sum is an integer of
    size at most width * amax * bmax, exact below 2^63."""
    return width * amax * bmax < 1 << 63


def _right_product(big: np.ndarray):
    """a -> a @ big for int64 matrices a, exactly, as int64; None when
    _exact_in_int64 refuses.  The product runs in float64 (BLAS) on chunks
    of the inner dimension narrow enough that each chunk's partial sums
    stay below 2^53, where float64 is exact, and the chunks are summed in
    int64; where one term alone may reach 2^53 it runs in int64."""
    bmax = int(np.abs(big).max(initial=0))
    as_float = big.astype(np.float64)

    def product(a):
        width, amax = a.shape[1], int(np.abs(a).max(initial=0))
        if not _exact_in_int64(width, amax, bmax):
            return None
        step = ((1 << 53) - 1) // max(1, amax * bmax)
        if not step:
            return a @ big
        out = None
        for lo in range(0, max(width, 1), step):
            part = (a[:, lo:lo + step].astype(np.float64)
                    @ as_float[lo:lo + step]).astype(np.int64)
            out = part if out is None else np.add(out, part, out=out)
        return out

    return product


def zright(b: np.ndarray, m: int):
    """a -> a @ b over Z[zeta_m] on coefficient planes, (p, q, deg) @
    (q, s, deg) -> (p, s, deg), exact, the function returning None when
    _exact_in_int64 refuses a; None when b's lift refuses.  b is lifted
    once, so one b may multiply many a."""
    big = _lift(b, m)
    if big is None:
        return None
    product = _right_product(big)
    s, deg = b.shape[1], b.shape[2]

    def times(a):
        out = product(a.reshape(len(a), a.shape[1] * a.shape[2]))
        return None if out is None else out.reshape(len(a), s, deg)

    return times


def zmatmul(a: np.ndarray, b: np.ndarray, m: int):
    """a @ b over Z[zeta_m] on coefficient planes, (p, q, deg) @ (q, s, deg)
    -> (p, s, deg), exact; None when an overflow guard refuses."""
    times = zright(b, m)
    return None if times is None else times(a)


def _coefficients(images, roots, p: int) -> np.ndarray:
    """Coefficient planes mod p of the matrix whose image at each root of
    Phi_m in roots is the matching entry of images: the roots are distinct,
    so their Vandermonde matrix V is invertible, and V^-1 is the right half
    of the echelon form of [V | I] over F_p."""
    deg = len(roots)
    if deg == 1:
        return images[0][..., None]
    aug = np.array([[pow(z, s, p) for s in range(deg)]
                    + [int(i == j) for j in range(deg)]
                    for i, z in enumerate(roots)], dtype=np.int64)
    _, reduced = echelon_mod_p(aug, p)
    return np.stack([sum(c * img % p for c, img in zip(row, images)) % p
                     for row in reduced[:, deg:].tolist()], axis=-1)


def _crt(x: np.ndarray, modulus: int, y: np.ndarray, p: int):
    """The int64 residues mod modulus * p that are x mod modulus and y mod
    p; None when modulus * p reaches 2^62, so nothing wraps."""
    if modulus * p >= _INT_LIMIT:
        return None
    t = (y - x % p) % p * pow(modulus, -1, p) % p
    return x + np.int64(modulus) * t


def _rational_reconstruction(u: np.ndarray, modulus: int):
    """(num, den) with num = den * u mod modulus, |num| and 0 < den at
    most sqrt(modulus / 2), and gcd(num, den) = 1, for each entry of the
    1-d array u; such a fraction is unique (Wang, Guy and Davenport 1982).
    None when an entry has none.

    The extended Euclidean algorithm runs on all entries at once, each
    stopping at its first remainder within the bound.
    """
    bound = math.isqrt((modulus - 1) // 2)
    r0, r1 = np.full_like(u, modulus), u.copy()
    t0, t1 = np.zeros_like(u), np.ones_like(u)
    todo = np.flatnonzero(r1 > bound)
    while todo.size:
        q = r0[todo] // r1[todo]
        r0[todo], r1[todo] = r1[todo], r0[todo] - q * r1[todo]
        t0[todo], t1[todo] = t1[todo], t0[todo] - q * t1[todo]
        todo = todo[r1[todo] > bound]
    if (np.abs(t1) > bound).any() or (np.gcd(r1, t1) != 1).any():
        return None
    sign = np.where(t1 < 0, -1, 1)
    return r1 * sign, t1 * sign


def _cleared(x: np.ndarray, modulus: int):
    """(D, D * E) as int64 for the matrix E whose residues mod modulus are
    x, each nonzero entry the fraction _rational_reconstruction finds; None
    when some entry has none or D * E reaches 2^62."""
    flat = x.ravel()
    nz = np.flatnonzero(flat)
    got = _rational_reconstruction(flat[nz], modulus)
    if got is None:
        return None
    num, den = got
    d = math.lcm(1, *set(den.tolist()))
    if d * int(np.abs(num).max(initial=0)) >= _INT_LIMIT:
        return None
    scaled = np.zeros(flat.shape, dtype=np.int64)
    scaled[nz] = num.astype(np.int64) * (d // den).astype(np.int64)
    return d, scaled.reshape(x.shape)


def _with_pivots(d: int, de: np.ndarray, pivots, free) -> np.ndarray:
    """The planes of d E: de in the free columns, d in the pivot ones."""
    rank, _, deg = de.shape
    full = np.zeros((rank, len(pivots) + len(free), deg), dtype=np.int64)
    full[:, free] = de
    full[np.arange(rank), pivots, 0] = d
    return full


# entries per block of the integer check: bounds the planes and products
# it holds at once
_CHECK_ENTRIES = 1 << 16


def _spans(d: int, de: np.ndarray, pivots, free, rows, maps, m: int) -> bool:
    """Whether every generating row, and every image of a row of E under
    maps, equals its pivot entries times E, where E is the matrix with the
    unit pivots and de / d in the free columns; False when a guard refuses.

    The test is in integers: y[free] * d == y[pivots] @ (d E)[free] over
    Z[zeta_m], the product under _exact_in_int64, on the rows
    in blocks of about _CHECK_ENTRIES entries.
    """
    big = _lift(de, m)
    if big is None:
        return False
    times_de = _right_product(big)

    def inside(y):
        if y is None or d * int(np.abs(y).max(initial=0)) >= 1 << 63:
            return False
        rhs = times_de(y[:, pivots].reshape(len(y), -1))
        return rhs is not None and np.array_equal(
            y[:, free].reshape(len(y), -1) * d, rhs)

    step = max(1, _CHECK_ENTRIES // rows.shape[1])
    blocks = (rows[lo:lo + step] for lo in range(0, len(rows), step))
    if maps:
        full = _with_pivots(d, de, pivots, free)
        blocks = itertools.chain(blocks, (g(full) for g in maps))
    return all(inside(y) for y in blocks)


def certified_rank(m: int, images, generators, full=None):
    """(r, primes, basis) for the exact rank r of a row space of
    Q(zeta_m)^ncols, its rank mod the first reduction prime p whose image
    does not raise ModReductionError; None when that rank is not shown
    exact.  A pin (r == full) gives primes (p,) and basis None; a
    certificate gives basis (d, dE), E the canonical basis of the row space
    (its reduced echelon form, which is unique) and dE its int64
    coefficient planes (r, ncols, deg) over the least common denominator d.

    images(p, z) gives (pivots, E) of the row space mod p, zeta -> z, as
    echelon_mod_p does (E may be None when the rank is full).  Only past
    the pin, generators() gives (rows, maps), or None when a guard refuses:
    rows the generating rows as int64 coefficient planes (b, ncols, deg),
    each row scaled by any nonzero rational, deg 1 when every entry lies in
    Q, so one root per prime suffices, and phi(m) otherwise.  maps are
    linear maps on such planes (or None from an overflow guard), and the
    span must be closed under each.

    The reduced echelon form E of the span is read off its images at every
    root of Phi_m mod each prime, p = 1 (mod m) and at most CERTIFY_PRIMES
    of them, combined by CRT and recovered by rational reconstruction.
    Every image must have the first one's pivots.  Then every generating
    row y, and every image of a row of E under maps, must equal
    y[pivots] @ E exactly (_spans).  So the span of E holds the row space
    and rank <= r.  The check never decides past an overflow guard: a
    refusal counts as a failed check, and a modulus that would reach 2^62
    ends the search.
    """
    primes = reduction_primes(m, CERTIFY_PRIMES)
    for p1, w1 in primes:
        try:
            pivots, image = images(p1, w1)
        except ModReductionError:
            continue
        break
    else:
        return None
    if len(pivots) == full:
        return len(pivots), (p1,), None
    got = generators()
    if got is None:
        return None
    rows, maps = got
    deg = rows.shape[-1]
    free = np.ones(image.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    used, x, modulus = [], None, 1
    for p, w in itertools.chain([(p1, w1)], primes):
        roots = [pow(w, k, p) for k in range(1, m)
                 if math.gcd(k, m) == 1][:deg]
        try:
            found = [(pivots, image) if (p, z) == (p1, w1) else images(p, z)
                     for z in roots]
        except ModReductionError:
            continue
        if any(list(piv) != list(pivots) for piv, _ in found):
            return None
        planes = _coefficients([e[:, free] for _, e in found], roots, p)
        x = planes if x is None else _crt(x, modulus, planes, p)
        if x is None:
            return None
        modulus *= p
        used.append(p)
        got = _cleared(x, modulus)
        if got is None:
            continue
        # a guard may refuse a wrong reconstruction whose denominators are
        # too large, so a refusal moves on to the next prime as a failed
        # check does
        if _spans(*got, pivots, free, rows, maps, m):
            d, de = got
            return (len(pivots), tuple(used),
                    (d, _with_pivots(d, de, pivots, free)))
    return None
