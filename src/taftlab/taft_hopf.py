"""The Taft Hopf algebra of dimension m**2 over Q(zeta_m).

Generators c (grouplike) and v (skew-primitive) with relations

    c**m = 1,   v**m = 0,   v c = zeta c v,

and basis monomials c^i v^k for 0 <= i, k < m.  Products are normal ordered
into that basis with the commutation factor zeta^(k*j) when v^k crosses c^j.

The coalgebra structure is *generated*: Delta(c) = c (x) c,
Delta(v) = c (x) v + v (x) 1, eps(c) = 1, eps(v) = 0, S(c) = c^{-1},
S(v) = -c^{-1} v.  Coproducts and antipodes of basis monomials are expanded
from the generator values through the (anti)homomorphism property, so any
closed formula for Delta(v^k) is a checked consequence, not an input.

hopf_verify_axioms checks the unit and associativity by algebra_core's
exact integer checks on the product written as a structure-constant table.
Associativity is decided on the generators through the left nucleus
N = {x : (xa)b = x(ab)}, a subalgebra by the Teichmueller identity that
holds any two-sided unit (Schafer, An Introduction to Nonassociative
Algebras, 1966): on 2 m^4 basis pairs where c and v reach every basis key
from the unit, on all m^6 basis triples otherwise.  For the coalgebra maps
generator checks suffice: c and v generate the Taft algebra, so Delta,
eps and S are well-defined (anti)homomorphisms exactly when their values on
c and v satisfy the three relations, and each axiom for a product gh follows
from the axioms for g and h (Montgomery, Hopf Algebras and Their Actions on
Rings, CBMS 82, 1993).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .algebra_core import FinDimAlgebra
from .cyclotomic import CycNum, zeta, zeta_power
from .errors import InputError


class HopfElement:
    """A linear combination of basis monomials c^i v^k, keyed by (i, k)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "TaftAlgebra", terms: dict):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms",
                           {k: c for k, c in terms.items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("HopfElement is immutable")

    def _check(self, other):
        if other.algebra.m != self.algebra.m:
            raise InputError("conductor mismatch: %d vs %d"
                             % (self.algebra.m, other.algebra.m))

    def __add__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, CycNum.zero(self.algebra.m)) + c
        return HopfElement(self.algebra, out)

    def __sub__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HopfElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "HopfElement":
        c = c if isinstance(c, CycNum) else CycNum.rational(self.algebra.m, c)
        return HopfElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HopfElement):
            self._check(other)
            H = self.algebra
            out = {}
            for (i, k), a in self.terms.items():
                for (j, l), b in other.terms.items():
                    hit = H.key_product((i, k), (j, l))
                    if hit is None:
                        continue
                    key, factor = hit
                    out[key] = out.get(key, CycNum.zero(H.m)) + a * b * factor
            return HopfElement(H, out)
        if isinstance(other, (int, CycNum)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, CycNum)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = self.algebra.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        return self.algebra.m == other.algebra.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra.m, tuple(sorted(self.terms.items(),
                                                  key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, k) in sorted(self.terms):
            mon = []
            if i:
                mon.append("c" if i == 1 else "c^%d" % i)
            if k:
                mon.append("v" if k == 1 else "v^%d" % k)
            name = "*".join(mon) if mon else "1"
            parts.append("(%s)%s" % (self.terms[(i, k)], name))
        return " + ".join(parts)


class TensorElement:
    """An element of H^(x)deg with coordinates keyed by key tuples."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: "TaftAlgebra", degree: int, terms: dict):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms",
                           {k: c for k, c in terms.items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("TensorElement is immutable")

    def __add__(self, other):
        if not isinstance(other, TensorElement) or other.degree != self.degree:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, CycNum.zero(self.algebra.m)) + c
        return TensorElement(self.algebra, self.degree, out)

    def __sub__(self, other):
        if not isinstance(other, TensorElement) or other.degree != self.degree:
            return NotImplemented
        return self + other.scale(CycNum.rational(self.algebra.m, -1))

    def scale(self, c) -> "TensorElement":
        c = c if isinstance(c, CycNum) else CycNum.rational(self.algebra.m, c)
        return TensorElement(self.algebra, self.degree,
                             {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Componentwise product in the tensor-power algebra (no braiding)."""
        if not isinstance(other, TensorElement) or other.degree != self.degree:
            return NotImplemented
        H = self.algebra
        out = {}
        for keys_a, ca in self.terms.items():
            for keys_b, cb in other.terms.items():
                coeff = ca * cb
                slots = []
                dead = False
                for ka, kb in zip(keys_a, keys_b):
                    hit = H.key_product(ka, kb)
                    if hit is None:
                        dead = True
                        break
                    key, factor = hit
                    slots.append(key)
                    coeff = coeff * factor
                if dead or coeff.is_zero():
                    continue
                key = tuple(slots)
                out[key] = out.get(key, CycNum.zero(H.m)) + coeff
        return TensorElement(H, self.degree, out)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra.m, self.degree, self.terms) == \
               (other.algebra.m, other.degree, other.terms)

    def __hash__(self):
        return hash((self.algebra.m, self.degree,
                     tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return "TensorElement(deg=%d, %d terms)" % (self.degree, len(self.terms))


class TaftAlgebra:
    """Structure constants and the coalgebra generator values, each value
    built on first use (_GENERATOR_VALUES): a module document needs m and
    dim alone."""

    def __init__(self, m: int):
        if m < 2:
            raise InputError("Taft algebra needs m >= 2, got %r" % (m,))
        self.m = m
        self.dim = m * m

    def __getattr__(self, name):
        if name not in _GENERATOR_VALUES:
            raise AttributeError(name)
        value = _GENERATOR_VALUES[name](self)
        setattr(self, name, value)
        return value

    # -- element constructors ------------------------------------------------

    def basis_keys(self):
        return [(i, k) for i in range(self.m) for k in range(self.m)]

    def monomial(self, i: int, k: int, coeff=1) -> HopfElement:
        if not (0 <= i < self.m and 0 <= k < self.m):
            raise InputError("basis key out of range: (%d, %d)" % (i, k))
        c = coeff if isinstance(coeff, CycNum) else CycNum.rational(self.m, coeff)
        return HopfElement(self, {(i, k): c})

    def element(self, terms: dict) -> HopfElement:
        out = {}
        for (i, k), c in terms.items():
            if not (0 <= i < self.m and 0 <= k < self.m):
                raise InputError("basis key out of range: (%d, %d)" % (i, k))
            out[(i, k)] = c if isinstance(c, CycNum) else CycNum.rational(self.m, c)
        return HopfElement(self, out)

    def zero(self) -> HopfElement:
        return HopfElement(self, {})

    def one(self) -> HopfElement:
        return self.monomial(0, 0)

    def c(self) -> HopfElement:
        return self.monomial(1, 0)

    def v(self) -> HopfElement:
        return self.monomial(0, 1)

    def tensor2(self, terms: dict) -> TensorElement:
        return TensorElement(self, 2, {
            k: (c if isinstance(c, CycNum) else CycNum.rational(self.m, c))
            for k, c in terms.items()})

    def tensor_unit(self, degree: int) -> TensorElement:
        return TensorElement(self, degree,
                             {((0, 0),) * degree: CycNum.one(self.m)})

    # -- structure maps --------------------------------------------------------

    def key_product(self, a, b):
        """(c^i v^k)(c^j v^l) in the basis: ((i', k'), coeff) or None if zero."""
        (i, k), (j, l) = a, b
        if k + l >= self.m:
            return None
        return ((i + j) % self.m, k + l), zeta_power(self.m, k * j)

    def counit(self, x: HopfElement) -> CycNum:
        acc = CycNum.zero(self.m)
        for (i, k), c in x.terms.items():
            acc = acc + c * self._eps_c ** i * self._eps_v ** k
        return acc

    def coproduct_basis(self, key) -> TensorElement:
        i, k = key
        acc = self.tensor_unit(2)
        for _ in range(i):
            acc = acc * self._delta_c
        for _ in range(k):
            acc = acc * self._delta_v
        return acc

    def coproduct(self, x: HopfElement) -> TensorElement:
        acc = TensorElement(self, 2, {})
        for key, c in x.terms.items():
            acc = acc + self.coproduct_basis(key).scale(c)
        return acc

    def antipode_basis(self, key) -> HopfElement:
        i, k = key
        # antihomomorphism: S(c^i v^k) = S(v)^k * S(c)^i
        acc = self.one()
        for _ in range(k):
            acc = acc * self._s_v
        for _ in range(i):
            acc = acc * self._s_c
        return acc

    def antipode(self, x: HopfElement) -> HopfElement:
        acc = self.zero()
        for key, c in x.terms.items():
            acc = acc + self.antipode_basis(key).scale(c)
        return acc

    def __repr__(self):
        return "TaftAlgebra(m=%d)" % self.m


# zeta and the values of Delta, eps and S on c and v, by attribute name
_GENERATOR_VALUES = {
    "zeta": lambda H: zeta(H.m),
    "_delta_c": lambda H: H.tensor2({((1, 0), (1, 0)): 1}),
    "_delta_v": lambda H: H.tensor2({((1, 0), (0, 1)): 1,
                                     ((0, 1), (0, 0)): 1}),
    "_eps_c": lambda H: CycNum.one(H.m),
    "_eps_v": lambda H: CycNum.zero(H.m),
    "_s_c": lambda H: H.monomial(H.m - 1, 0),
    "_s_v": lambda H: H.monomial(H.m - 1, 1, -1)}


@dataclass
class AxiomReport:
    """Outcome of the Hopf axiom battery; failures carry witness strings."""

    m: int
    associativity: bool = True
    coassociativity: bool = True
    counit: bool = True
    bialgebra: bool = True
    antipode: bool = True
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.associativity and self.coassociativity and self.counit
                and self.bialgebra and self.antipode)

    def to_json(self) -> dict:
        return {"m": self.m, "ok": self.ok,
                "axioms": {"associativity": self.associativity,
                           "coassociativity": self.coassociativity,
                           "counit": self.counit,
                           "bialgebra": self.bialgebra,
                           "antipode": self.antipode},
                "failures": list(self.failures)}


def _coassoc_sides(H: TaftAlgebra, key):
    delta = H.coproduct_basis(key)
    left = {}
    right = {}
    for (a, b), c in delta.terms.items():
        for (p, q), c2 in H.coproduct_basis(a).terms.items():
            k3 = (p, q, b)
            left[k3] = left.get(k3, CycNum.zero(H.m)) + c * c2
        for (p, q), c2 in H.coproduct_basis(b).terms.items():
            k3 = (a, p, q)
            right[k3] = right.get(k3, CycNum.zero(H.m)) + c * c2
    return (TensorElement(H, 3, left), TensorElement(H, 3, right))


def _product_table(H: TaftAlgebra) -> FinDimAlgebra:
    """The product of H read from key_product, as an unvalidated table
    without unit on the basis c^i v^k at index i * m + k (basis_keys order).

    The table is built with its nonzero index: every zero product is one
    shared all-zero cell, and equal products one shared cell, so neither
    FinDimAlgebra's re-wrap nor its scan for the index runs."""
    zeros = (CycNum.zero(H.m),) * H.dim
    # (index, factor) -> the cell factor * e_index and its nonzero index
    made = {}
    mult, nz = [], []
    keys = H.basis_keys()
    for a in keys:
        cells, index = [], []
        for b in keys:
            hit = H.key_product(a, b)
            if hit is None:
                cells.append(zeros)
                index.append(())
                continue
            (i, k), factor = hit
            at = i * H.m + k
            got = made.get((at, factor))
            if got is None:
                got = made[at, factor] = (
                    zeros[:at] + (factor,) + zeros[at + 1:],
                    ((at, factor),) if factor else ())
            cells.append(got[0])
            index.append(got[1])
        mult.append(tuple(cells))
        nz.append(tuple(index))
    return FinDimAlgebra._of_cells(H.m, tuple(mult), None, tuple(nz),
                                   checked=False)


def _generated(nz: tuple, start: int, gens) -> bool:
    """Whether every basis index of a table with nonzero index nz is
    reached from e_start by left multiplication by the e_g, g in gens, up
    to a nonzero scalar: g e_x a nonzero multiple of e_y reaches y from x."""
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for g in gens:
            cell = nz[g][x]
            if len(cell) == 1 and cell[0][0] not in seen:
                seen.add(cell[0][0])
                todo.append(cell[0][0])
    return len(seen) == len(nz)


def _broken_relations(m: int, c, v, one, z, mul) -> list:
    """The relations c^m = 1, v^m = 0, v c = zeta c v that the images c and
    v break in an algebra with unit one, product mul and zeta * 1 = z."""
    cm = vm = one
    for _ in range(m):
        cm, vm = mul(cm, c), mul(vm, v)
    holds = (("c^m = 1", cm == one), ("v^m = 0", vm.is_zero()),
             ("v c = zeta c v", mul(v, c) == mul(z, mul(c, v))))
    return [relation for relation, ok in holds if not ok]


def hopf_verify_axioms(H: TaftAlgebra) -> AxiomReport:
    """Check the Hopf axioms: the product on c and v, or on every basis
    triple, the coalgebra maps on c and v.

    The unit e_(0,0) and associativity are checked on the product table by
    FinDimAlgebra's sparse joins.  The table is associative when e_(0,0)
    is a unit, every basis key is reached from it by left multiplication by
    c or v up to a nonzero scalar (read off the table's nonzero index), and
    (c a) b = c (ab), (v a) b = v (ab) on all basis pairs: the left nucleus
    is a subalgebra that holds the unit, c and v, so it holds every key.
    Where one of the three fails, every basis triple is checked, and the
    first failing one is reported.  For the coalgebra maps generator checks
    suffice: c and v generate the Taft algebra, so Delta and eps are
    algebra maps and S an antihomomorphism exactly when their values on c
    and v satisfy the three relations, in H (x) H, in the field and in H^op
    (a broken relation fails bialgebra or antipode).  Then coassociativity, the counit and the antipode for a
    product gh follow from the same axiom for g and h, so they are checked
    on c and v only, also when a relation is broken.  That S breaks a
    relation fails the antipode only where the counit holds: a bialgebra
    has at most one antipode, an antihomomorphism.  Where the counit fails,
    m(S (x) id) Delta = eta eps is checked on every basis key instead, S
    read on the basis through the antihomomorphism property.
    """
    report = AxiomReport(m=H.m)
    keys = H.basis_keys()

    def fail(axiom: str, witness: str):
        setattr(report, axiom, False)
        if len(report.failures) < 32:
            report.failures.append("%s: %s" % (axiom, witness))

    # associativity and unit of the basis product: where e_(0,0) is a
    # unit, c and v reach every basis key from it and both lie in the left
    # nucleus, the table is associative; else every triple is checked
    table = _product_table(H)
    bad = table._unit_witness(table.basis_vector(0))
    gens = [keys.index((0, 1)), keys.index((1, 0))]
    if (bad is not None or not _generated(table._nonzero(), 0, gens)
            or table._associativity_witness(gens) is not None):
        triple = table._associativity_witness()
        if triple is not None:
            fail("associativity",
                 "keys %r %r %r" % tuple(keys[t] for t in triple))
    if bad is not None:
        fail("associativity", "unit fails at %r" % (keys[bad],))

    # Delta and eps are algebra maps
    one, one2, z = H.one(), H.tensor_unit(2), H.zeta
    for name, images in (
            ("coproduct", (H._delta_c, H._delta_v, one2, one2.scale(z),
                           operator.mul)),
            ("counit", (H._eps_c, H._eps_v, CycNum.one(H.m), z,
                        operator.mul))):
        for relation in _broken_relations(H.m, *images):
            fail("bialgebra", "%s breaks %s" % (name, relation))

    # coassociativity and the counit on the generators c and v
    for key in ((1, 0), (0, 1)):
        left, right = _coassoc_sides(H, key)
        if left != right:
            fail("coassociativity", "key %r" % (key,))
        x = H.monomial(*key)
        counit_l = counit_r = H.zero()
        for (a, b), c in H.coproduct_basis(key).terms.items():
            xa, xb = H.monomial(*a), H.monomial(*b)
            counit_l = counit_l + xb.scale(c * H.counit(xa))
            counit_r = counit_r + xa.scale(c * H.counit(xb))
        if counit_l != x or counit_r != x:
            fail("counit", "key %r" % (key,))

    # the antipode: S an antihomomorphism and the axiom on c and v, or,
    # where the counit fails, the axiom on every basis key
    antipode_keys = keys
    if report.counit:
        for relation in _broken_relations(H.m, H._s_c, H._s_v, one,
                                          one.scale(z), lambda x, y: y * x):
            fail("antipode", "antipode breaks %s" % relation)
        antipode_keys = ((1, 0), (0, 1))
    for key in antipode_keys:
        left = right = H.zero()
        for (a, b), c in H.coproduct_basis(key).terms.items():
            left = left + (H.antipode_basis(a) * H.monomial(*b)).scale(c)
            right = right + (H.monomial(*a) * H.antipode_basis(b)).scale(c)
        want = one.scale(H.counit(H.monomial(*key)))
        if left != want or right != want:
            fail("antipode", "key %r" % (key,))

    return report
