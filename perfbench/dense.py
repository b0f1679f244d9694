"""Dense isomorphic copies of module-algebra documents.

A copy is the same module algebra written in the basis f_i = T e_i for an
invertible small-integer matrix T = F S, where F = I + (all ones) and S is
a signed permutation matrix drawn from the seed.  Every entry of T is
non-zero and det T = +-(n + 1), so every copy has dense tables and
denominators n + 1.  The copy is the F-copy with its basis vectors
reordered and negated by S, so the seed never changes the size of the
numbers a copy holds, and every seed asks for about the same arithmetic.  Its structure constants are
T^-1 (f_i f_j), its operators are T^-1 c T and T^-1 v T, and its unit is
T^-1 1.  Every field element in a document is a coefficient vector over
Q, and T is rational, so the change of basis acts on each coefficient slot
separately.  The arithmetic here is plain Fraction code and does not use
taftlab, so the same seed writes byte-identical documents at every commit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

def inverse(t):
    """Inverse of a square rational matrix, or None when it is singular."""
    n = len(t)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(t)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _signed_permutation(rng: random.Random, n: int):
    order = list(range(n))
    rng.shuffle(order)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
            for i in range(n)]


def draw_basis_change(rng: random.Random, n: int):
    """(T, T^-1) for T = F S as in the module docstring."""
    s = _signed_permutation(rng, n)
    t = [[sum((1 + (i == k)) * s[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return t, inverse(t)


def _read(entry):
    return [Fraction(s) for s in entry["coeffs"]]


def _write(m, coeffs):
    return {"m": m, "coeffs": [str(c) for c in coeffs]}


def _combine(weights, vectors, deg):
    """sum_k weights[k] * vectors[k], slot by slot."""
    acc = [Fraction(0)] * deg
    for w, vec in zip(weights, vectors):
        if w:
            for s, c in enumerate(vec):
                if c:
                    acc[s] += w * c
    return acc


def _conjugate_matrix(rows, t, t_inv, deg):
    """T^-1 X T for X given as rows of coefficient vectors."""
    n = len(t)
    xt = [[_combine([t[k][j] for k in range(n)], row, deg) for j in range(n)]
          for row in rows]
    return [[_combine(t_inv[i], [xt[k][j] for k in range(n)], deg)
             for j in range(n)] for i in range(n)]


def conjugate(doc: dict, t, t_inv) -> dict:
    """The module-algebra document `doc` rewritten in the basis T e_i."""
    m = doc["m"]
    alg = doc["algebra"]
    n = alg["dim"]
    deg = len(alg["mult"][0][0][0]["coeffs"])
    mult = [[[_read(x) for x in cell] for cell in row] for row in alg["mult"]]
    # half[i][l] = (T e_i) e_l, then prod[i][j] = (T e_i)(T e_j)
    half = [[[_combine([t[k][i] for k in range(n)],
                       [mult[k][l][a] for k in range(n)], deg)
              for a in range(n)] for l in range(n)] for i in range(n)]
    new_mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = [_combine([t[l][j] for l in range(n)],
                             [half[i][l][a] for l in range(n)], deg)
                    for a in range(n)]
            row.append([_write(m, _combine(t_inv[c], prod, deg))
                        for c in range(n)])
        new_mult.append(row)
    unit = alg.get("unit")
    if unit is not None:
        vec = [_read(x) for x in unit]
        unit = [_write(m, _combine(t_inv[c], vec, deg)) for c in range(n)]

    def op(rows):
        conj = _conjugate_matrix([[_read(x) for x in r] for r in rows],
                                 t, t_inv, deg)
        return [[_write(m, x) for x in r] for r in conj]

    return {"format": doc["format"], "m": m,
            "algebra": {"dim": n, "mult": new_mult, "unit": unit},
            "c": op(doc["c"]), "v": op(doc["v"])}


def dense_copy(doc: dict, seed: int, name: str) -> dict:
    """Copy of `doc` under a change of basis drawn from (seed, name)."""
    rng = random.Random("%d/%s" % (seed, name))
    t, t_inv = draw_basis_change(rng, doc["algebra"]["dim"])
    return conjugate(doc, t, t_inv)


def dumps(doc: dict) -> str:
    """The canonical layout of taftlab documents: sorted keys, indent 2."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
