"""Exact dense linear algebra over Q(zeta_m), plus a prime-field reduction kit.

Matrices are immutable tuples of tuples of CycNum.  Subspaces are kept in
reduced row echelon form with unit pivots and no zero rows; that form is
canonical, so subspace equality is plain tuple equality and results are
bit-reproducible run to run.  Every exact elimination runs on that echelon
basis (EchelonBasis / echelon): rank, kernel, solve, Subspace and
Matrix.inverse, which reads A^{-1} off the echelon basis of [A | I].

The modular half maps Q(zeta_m) into a prime field F_p with p = 1 (mod m),
sending zeta to an element of multiplicative order m.  Ranks computed there
are exact lower bounds for the true rank (a nonzero minor mod p lifts to a
nonzero minor over the field), which is what the fast filters in hmodule
and identities rely on; they never report a modular rank as exact unless it
meets an exact bound from the other side.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import CycNum
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

    __slots__ = ("m", "rows")

    def __init__(self, m: int, rows: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

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

    def row(self, i: int) -> tuple:
        return self.rows[i]

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


# ---------------------------------------------------------------------------
# prime-field reduction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def modular_prime(m: int, skip: int = 0) -> int:
    """Deterministic prime p = 1 (mod m), p > 2**20; skip steps to the next ones."""
    p = (1 << 20) // m * m + 1
    found = 0
    while True:
        p += m
        if _is_prime(p):
            if found == skip:
                return p
            found += 1


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


def reduction_primes(m: int):
    """The primes a modular rank tries in turn, each with its image of zeta:
    (p, zeta mod p) for the first three primes p = 1 (mod m) above 2**20."""
    for skip in range(3):
        p = modular_prime(m, skip)
        yield p, root_of_unity_mod(m, p)


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
    return np.array([[cyc_to_modp(x, p, zeta_mod) for x in row] for row in mat.rows],
                    dtype=np.int64)


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p (forward elimination, vectorized)."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rest = a[r + 1:, col]
        mask = np.nonzero(rest)[0]
        if mask.size:
            a[r + 1 + mask] = (a[r + 1 + mask] - np.outer(rest[mask], a[r])) % p
        r += 1
    return r




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

    CHUNK = 32  # new rows eliminated among themselves before one basis update

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

    def residual(self, block) -> np.ndarray:
        """The rows of block (or one vector) reduced against the span: zero
        in every pivot column, entries in [0, p)."""
        res = np.remainder(block, self.p).astype(np.int64, copy=False)
        return self._reduce(res, 0)

    def _reduce(self, res, start: int) -> np.ndarray:
        """res reduced against the basis rows from start on."""
        if self._dim == start:
            return res
        coef = res[..., self._piv[start:self._dim]]
        rows = self._rows[start:self._dim]
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

        The block is reduced against the basis with one product, its nonzero
        residuals are eliminated CHUNK rows at a time, and each chunk's new
        pivots are cleared from the older rows with one product more.
        """
        res = self.residual(block)
        keep = res.any(axis=1)
        if not keep.all():
            res = res[keep]
        start = self._dim
        for lo in range(0, len(res), self.CHUNK):
            if self._dim == self.ncols:
                break
            self._absorb(self._reduce(res[lo:lo + self.CHUNK], start))
        return self._dim - start

    def _absorb(self, chunk) -> None:
        """Append the independent rows of chunk, which is zero in every pivot
        column, and keep the whole basis reduced."""
        p, old = self.p, self._dim
        rows, piv = self._rows, self._piv
        for i in range(len(chunk)):
            nz = np.flatnonzero(chunk[i])
            if nz.size == 0:
                continue
            col = int(nz[0])
            row = chunk[i] * pow(int(chunk[i, col]), p - 2, p) % p
            # clear the new pivot column from the rows of this chunk only;
            # the older rows get all of the chunk's pivots at once below
            for part in (rows[old:self._dim], chunk[i + 1:]):
                hit = np.flatnonzero(part[:, col])
                if hit.size:
                    part[hit] = (part[hit]
                                 - np.outer(part[hit, col], row)) % p
            rows[self._dim] = row
            piv[self._dim] = col
            self._dim += 1
        if old and self._dim > old:
            coef = rows[:old][:, piv[old:self._dim]]
            hit = np.flatnonzero(coef.any(axis=1))
            if hit.size:
                rows[hit] = (rows[hit] - coef[hit] @ rows[old:self._dim]) % p
