"""The shipped corpus: named inputs every test and CLI demo builds on.

Three families:

* semisimple action specs — the matrix-algebra variants for m = 2 (trivial
  action; diagonal grading with v = 0; diagonal grading with an inner v,
  gamma = 3), the two-block swap family over scalars with P = (alpha), the
  two-block k = 2 family separating diagonal from nilpotent P, and the
  canonical construction grid over m in {2, 3, 4}, k in {1, 2, 3}, t | m;
* base algebras for the nilpotent extension — F and M_2 with an elementary
  grading, for m in {2, 3};
* module algebras given directly — the two-dimensional non-semisimple
  algebra F1 + Fw (w^2 = 0, cw = -w, vw = 1), and the deliberately
  reducible trivial-action direct sums used as negatives.

Builders are deterministic; ``write_fixtures`` emits each document as
canonical JSON so byte-level round trips can be asserted.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algebra_core import (FinDimAlgebra, direct_sum, field_algebra,
                           grading_from_c, matrix_algebra, trivial_grading)
from .constructions import (NilpotentExtensionSpec, SemisimpleSpec,
                            build_nilpotent_extension, build_semisimple,
                            grid_spec)
from .cyclotomic import CycNum, zeta_power
from .errors import InputError
from .hmodule import HModuleAlgebra
from .linalg import Matrix
from .serialize import (dumps_canonical, grading_to_c_matrix, hma_to_json,
                        nilext_spec_to_json, ss_spec_to_json, write_text)
from .taft_hopf import TaftAlgebra

GRID_MS = (2, 3, 4)
GRID_KS = (1, 2, 3)


def _rat(m: int, x) -> CycNum:
    return CycNum.rational(m, Fraction(x))


def _mat(m: int, rows) -> Matrix:
    return Matrix.from_rows(m, rows)


def two_block_scalar_spec(alpha) -> SemisimpleSpec:
    """F + F with the swap c-action and v built from P = (alpha); m = 2."""
    m = 2
    return SemisimpleSpec(m=m, k=1, t=2,
                          P=_mat(m, [[_rat(m, alpha)]]),
                          Q=Matrix.identity(m, 1))


def two_block_diag_spec(alpha) -> SemisimpleSpec:
    """M_2 + M_2 with the swap c-action, P = diag(alpha, -alpha); m = 2."""
    m = 2
    return SemisimpleSpec(m=m, k=2, t=2,
                          P=_mat(m, [[_rat(m, alpha), 0], [0, _rat(m, -alpha)]]),
                          Q=Matrix.identity(m, 2))


def two_block_nilpotent_spec() -> SemisimpleSpec:
    """M_2 + M_2 with the swap c-action and the nilpotent block P; m = 2."""
    m = 2
    return SemisimpleSpec(m=m, k=2, t=2,
                          P=_mat(m, [[0, 1], [0, 0]]),
                          Q=Matrix.identity(m, 2))


def mat2_inner_v_spec(gamma) -> SemisimpleSpec:
    """M_2, diagonal grading by Q = diag(1, -1), inner v from the
    antidiagonal P with corner gamma; m = 2."""
    m = 2
    return SemisimpleSpec(m=m, k=2, t=1,
                          P=_mat(m, [[0, 1], [_rat(m, gamma), 0]]),
                          Q=_mat(m, [[1, 0], [0, -1]]))


def ss_specs() -> dict:
    """All named semisimple action specs, plus the construction grid."""
    m = 2
    out = {
        "mat2_trivial": SemisimpleSpec(
            m=m, k=2, t=1,
            P=Matrix.zeros(m, 2, 2), Q=Matrix.identity(m, 2)),
        "mat2_graded_v0": SemisimpleSpec(
            m=m, k=2, t=1,
            P=Matrix.zeros(m, 2, 2), Q=_mat(m, [[1, 0], [0, -1]])),
        "sweedler_p_gamma3": mat2_inner_v_spec(3),
        "pair_alpha_1": two_block_scalar_spec(1),
        "pair_alpha_neg1": two_block_scalar_spec(-1),
        "pair_alpha_2": two_block_scalar_spec(2),
        "pair_alpha_0": two_block_scalar_spec(0),
        "pair2_diag_1": two_block_diag_spec(1),
        "pair2_diag_neg1": two_block_diag_spec(-1),
        "pair2_diag_2": two_block_diag_spec(2),
        "pair2_nilblock": two_block_nilpotent_spec(),
    }
    for gm in GRID_MS:
        for gk in GRID_KS:
            for gt in range(1, gm + 1):
                if gm % gt == 0:
                    out["grid_m%d_k%d_t%d" % (gm, gk, gt)] = grid_spec(gm, gk, gt)
    return out


def elementary_c_matrix(m: int, weights) -> Matrix:
    """Conjugation by diag(zeta^w_i) on a matrix algebra in flat coordinates.

    Sends e_ij to zeta^{w_j - w_i} e_ij, so every matrix unit is homogeneous
    of degree w_j - w_i.
    """
    k = len(weights)
    zero = CycNum.zero(m)
    rows = [[zero] * (k * k) for _ in range(k * k)]
    for i in range(k):
        for j in range(k):
            idx = i * k + j
            rows[idx][idx] = zeta_power(m, (weights[j] - weights[i]) % m)
    return Matrix(m, tuple(tuple(r) for r in rows))


def base_field_spec(m: int) -> NilpotentExtensionSpec:
    B = field_algebra(m)
    return NilpotentExtensionSpec(m=m, B=B, grading=trivial_grading(B))


def base_mat2_elementary_spec(m: int) -> NilpotentExtensionSpec:
    B = matrix_algebra(m, 2)
    grading = grading_from_c(B, elementary_c_matrix(m, (0, 1)))
    return NilpotentExtensionSpec(m=m, B=B, grading=grading)


def nilext_specs() -> dict:
    return {
        "base_field_m2": base_field_spec(2),
        "base_field_m3": base_field_spec(3),
        "base_mat2_elem_m2": base_mat2_elementary_spec(2),
        "base_mat2_elem_m3": base_mat2_elementary_spec(3),
    }


def sweedler_two_dim() -> HModuleAlgebra:
    """F1 + Fw with w^2 = 0, cw = -w, vw = 1: the smallest non-semisimple
    module algebra with no invariant ideals."""
    m = 2
    one, zero = CycNum.one(m), CycNum.zero(m)
    mult = (
        ((one, zero), (zero, one)),
        ((zero, one), (zero, zero)),
    )
    algebra = FinDimAlgebra(m, mult, unit=(one, zero))
    return HModuleAlgebra(
        hopf=TaftAlgebra(m), algebra=algebra,
        c_op=_mat(m, [(one, zero), (zero, -one)]),
        v_op=_mat(m, [(zero, one), (zero, zero)]))


def trivial_action(algebra: FinDimAlgebra) -> HModuleAlgebra:
    """c = id, v = 0; every ideal of the algebra is then invariant."""
    m = algebra.m
    n = algebra.dim
    return HModuleAlgebra(hopf=TaftAlgebra(m), algebra=algebra,
                          c_op=Matrix.identity(m, n),
                          v_op=Matrix.zeros(m, n, n))


def negative_modules() -> dict:
    """Module algebras that must be recognized as not simple."""
    return {
        "trivial_sum_scalars": trivial_action(
            direct_sum(field_algebra(2), field_algebra(2))),
        "trivial_sum_mat2": trivial_action(
            direct_sum(matrix_algebra(2, 2), matrix_algebra(2, 2))),
    }


def positive_modules() -> dict:
    """Everything the corpus asserts to be simple, built and keyed by source."""
    out = {"sweedler2dim": sweedler_two_dim()}
    for name, spec in ss_specs().items():
        out["ss_" + name] = build_semisimple(spec)
    for name, spec in nilext_specs().items():
        out["ext_" + name] = build_nilpotent_extension(spec).module
    return out


def write_fixtures(directory: str) -> dict:
    """Emit the whole corpus as canonical JSON; returns name -> path."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (directory, exc))
    paths = {}

    def put(name, doc):
        path = os.path.join(directory, name + ".json")
        write_text(path, dumps_canonical(doc))
        paths[name] = path

    for name, spec in sorted(ss_specs().items()):
        put(name, ss_spec_to_json(spec))
    for name, spec in sorted(nilext_specs().items()):
        put(name, nilext_spec_to_json(spec, grading_to_c_matrix(spec.grading)))
    put("sweedler2dim", hma_to_json(sweedler_two_dim()))
    for name, mod in sorted(negative_modules().items()):
        put(name, hma_to_json(mod))
    return paths
