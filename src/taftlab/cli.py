"""The ``taft`` command line: JSON in, JSON (or CSV) out.

Exit codes are stable: 0 success, 2 rejected input (malformed JSON, schema
or semantic validation, budget refusals, failed verification), 1 internal
error.  Stdout carries data only; diagnostics go to stderr as one JSON
object per failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .algebra_core import grading_from_c, jacobson_radical
from .constructions import (build_nilpotent_extension, build_semisimple,
                            iso_semisimple, recover_structure)
from .errors import BudgetExceeded, InputError
from .hmodule import (CertifiedSimple, Inconclusive, NotSimple,
                      hma_isomorphic_generic, hma_verify, is_h_simple)
from .identities import codim_growth_report, codimension
from .qcombinatorics import q_binom
from .cyclotomic import zeta_power
from .fixtures import write_fixtures
from .serialize import (FORMAT_TAG, dumps_canonical, grading_to_c_matrix,
                        hma_to_json, json_to_algebra, json_to_hma,
                        json_to_matrix_doc, json_to_nilext_spec,
                        json_to_ss_spec, loads, matrix_to_json,
                        nilext_spec_to_json, vector_to_json)
from .taft_hopf import TaftAlgebra, hopf_verify_axioms


def _read_doc(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    return loads(text)


def _emit(doc, out: str | None, *, csv_text: str | None = None) -> None:
    text = csv_text if csv_text is not None else dumps_canonical(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diag(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


# ----------------------------------------------------------------- commands

def cmd_hopf_check(args) -> int:
    report = hopf_verify_axioms(TaftAlgebra(args.m))
    doc = {"format": FORMAT_TAG}
    doc.update(report.to_json())
    _emit(doc, args.out)
    if not report.ok:
        _diag("axiom-failure", "Hopf axiom battery failed; see report")
        return 2
    return 0


def cmd_qbinom(args) -> int:
    value = q_binom(args.n, args.k, zeta_power(args.m, args.e))
    _emit({"format": FORMAT_TAG, "n": args.n, "k": args.k, "m": args.m,
           "e": args.e, "value": value.to_json()}, args.out)
    return 0


def cmd_construct_ss(args) -> int:
    spec = json_to_ss_spec(_read_doc(args.infile))
    _emit(hma_to_json(build_semisimple(spec)), args.out)
    return 0


def cmd_construct_nilext(args) -> int:
    doc = _read_doc(args.infile)
    spec = json_to_nilext_spec(doc)
    if args.m is not None and args.m != spec.m:
        raise InputError("--m %d does not match the document conductor %d"
                         % (args.m, spec.m))
    _emit(hma_to_json(build_nilpotent_extension(spec).module), args.out)
    return 0


def cmd_verify(args) -> int:
    report = hma_verify(json_to_hma(_read_doc(args.infile)))
    doc = {"format": FORMAT_TAG}
    doc.update(report.to_json())
    _emit(doc, args.out)
    if not report.ok:
        _diag("verification-failure",
              "module-algebra laws fail: %s"
              % ", ".join(name for name, _ in report.failed()))
        return 2
    return 0


def cmd_simple(args) -> int:
    result = is_h_simple(json_to_hma(_read_doc(args.infile)))
    if isinstance(result, CertifiedSimple):
        doc = {"verdict": "certified_simple",
               "operator_algebra_dim": result.operator_algebra_dim,
               "method": result.method}
    elif isinstance(result, NotSimple):
        doc = {"verdict": "not_simple", "reason": result.reason}
        if result.witness is not None:
            doc["witness_dim"] = result.witness.dim
            doc["witness_basis"] = [vector_to_json(v)
                                    for v in result.witness.basis]
    else:
        assert isinstance(result, Inconclusive)
        doc = {"verdict": "inconclusive", "detail": result.detail}
    doc["format"] = FORMAT_TAG
    _emit(doc, args.out)
    return 0


def cmd_iso_ss(args) -> int:
    s1 = json_to_ss_spec(_read_doc(args.a))
    s2 = json_to_ss_spec(_read_doc(args.b))
    witness = iso_semisimple(s1, s2)
    if witness is None:
        doc = {"format": FORMAT_TAG, "isomorphic": False}
    else:
        doc = {"format": FORMAT_TAG, "isomorphic": True,
               "T": matrix_to_json(witness.T), "r": witness.r,
               "beta": witness.beta.to_json()}
    _emit(doc, args.out)
    return 0


def cmd_iso(args) -> int:
    m1 = json_to_hma(_read_doc(args.a))
    m2 = json_to_hma(_read_doc(args.b))
    witness = hma_isomorphic_generic(m1, m2, budget=args.budget)
    if witness is None:
        # the generic search is one-sided: exhausting the budget proves nothing
        doc = {"format": FORMAT_TAG, "verdict": "no_witness_found",
               "budget": args.budget}
    else:
        doc = {"format": FORMAT_TAG, "verdict": "isomorphic",
               "witness": matrix_to_json(witness)}
    _emit(doc, args.out)
    return 0


def cmd_radical(args) -> int:
    algebra = json_to_algebra(_read_doc(args.infile))
    rad = jacobson_radical(algebra)
    _emit({"format": FORMAT_TAG, "dim": rad.dim,
           "basis": [vector_to_json(v) for v in rad.basis]}, args.out)
    return 0


def cmd_grading(args) -> int:
    algebra = json_to_algebra(_read_doc(args.infile))
    c_op = json_to_matrix_doc(_read_doc(args.c))
    if args.m is not None and args.m != algebra.m:
        raise InputError("--m %d does not match the document conductor %d"
                         % (args.m, algebra.m))
    grading = grading_from_c(algebra, c_op)
    _emit({"format": FORMAT_TAG, "m": grading.m,
           "dims": list(grading.dims),
           "components": [[vector_to_json(v) for v in comp.basis]
                          for comp in grading.components]}, args.out)
    return 0


def cmd_recover(args) -> int:
    rec = recover_structure(json_to_hma(_read_doc(args.infile)))
    _emit({"format": FORMAT_TAG, "m": rec.spec.m,
           "nil_index": rec.nil_index,
           "base_dim": rec.b_algebra.dim,
           "grading_dims": list(rec.b_grading.dims),
           "layer_dims": [layer.dim for layer in rec.layers]}, args.out)
    if args.out_base:
        base_doc = nilext_spec_to_json(rec.spec,
                                       grading_to_c_matrix(rec.spec.grading))
        with open(args.out_base, "w") as fh:
            fh.write(dumps_canonical(base_doc))
    return 0


def _growth_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "rows", "cols", "c_n", "bound_ok", "wall_ms"])
    for g in rows:
        writer.writerow([g.n, g.rows, g.cols, g.value, g.bound_ok,
                         "%.3f" % g.wall_ms])
    return buf.getvalue()


def cmd_codim(args) -> int:
    mod = json_to_hma(_read_doc(args.infile))
    if args.report is None:
        res = codimension(mod, args.n, budget_rows=args.budget,
                          backend=args.backend)
        _emit({"format": FORMAT_TAG, "n": res.n, "c": res.value,
               "rows": res.matrix_shape[0], "cols": res.matrix_shape[1],
               "bound_ok": res.value <= mod.algebra.dim ** (res.n + 1),
               "method": res.method, "wall_ms": res.wall_ms}, args.out)
        return 0
    rows = codim_growth_report(mod, args.n, budget_rows=args.budget,
                               backend=args.backend)
    if args.report == "csv":
        _emit(None, args.out, csv_text=_growth_csv(rows))
    else:
        _emit({"format": FORMAT_TAG,
               "rows": [{"n": g.n, "c": g.value, "nth_root": g.nth_root,
                         "bound_ok": g.bound_ok, "rows": g.rows,
                         "cols": g.cols, "wall_ms": g.wall_ms}
                        for g in rows]}, args.out)
    return 0


def cmd_fixtures(args) -> int:
    paths = write_fixtures(args.out_dir)
    _emit({"format": FORMAT_TAG, "directory": args.out_dir,
           "count": len(paths), "files": sorted(paths)}, args.out)
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taft",
        description="Exact tools for algebras with a Taft-algebra action.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the result here instead of stdout")
        return p

    p = add("hopf-check", cmd_hopf_check, help="verify the Hopf axioms")
    p.add_argument("--m", type=int, required=True)

    p = add("qbinom", cmd_qbinom,
            help="Gaussian binomial binom(n, k) at a root of unity")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("e", type=int)

    construct = sub.add_parser("construct", help="build module algebras")
    csub = construct.add_subparsers(dest="what", required=True)

    p = csub.add_parser("ss", help="block-rotation algebra from a (P, Q) spec")
    p.set_defaults(fn=cmd_construct_ss)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = csub.add_parser("nilext",
                        help="layered extension of a graded-simple base")
    p.set_defaults(fn=cmd_construct_nilext)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, help="cross-check against the document")
    p.add_argument("--out")

    p = add("verify", cmd_verify, help="check the module-algebra laws")
    p.add_argument("--in", dest="infile", required=True)

    p = add("simple", cmd_simple, help="decide simplicity under the action")
    p.add_argument("--in", dest="infile", required=True)

    p = add("iso-ss", cmd_iso_ss,
            help="decide isomorphism of two block-rotation specs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("iso", cmd_iso, help="search for a module-algebra isomorphism")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--budget", type=int, default=64,
                   help="candidate combinations to try")

    p = add("radical", cmd_radical, help="Jacobson radical of an algebra")
    p.add_argument("--in", dest="infile", required=True)

    p = add("grading", cmd_grading,
            help="eigenspace grading from an order-m automorphism")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--c", required=True, help="matrix document for the action")
    p.add_argument("--m", type=int, help="cross-check against the documents")

    p = add("recover", cmd_recover,
            help="layer structure of a non-semisimple simple module algebra")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-base", dest="out_base",
                   help="also write the recovered base-algebra document here")

    p = add("codim", cmd_codim, help="codimension of multilinear identities")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="maximum evaluation-matrix rows")
    p.add_argument("--report", choices=["csv", "json"],
                   help="emit all degrees 1..n as a table")
    p.add_argument("--backend", choices=["auto", "exact"], default="auto")

    p = add("fixtures", cmd_fixtures, help="write the example corpus")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args reads the parser and never changes
    # it, and the cmd_* functions look their helpers up when they run
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        _diag("budget-exceeded", str(exc))
        return 2
    except InputError as exc:
        _diag("invalid-input", str(exc))
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        _diag("internal-error", "%s: %s" % (type(exc).__name__, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
