"""The layers of taftlab as the traced run sees them.

PLAN names every function and method the traced run wraps, the metric
group it feeds, and whether a call becomes a span (public entry points) or
only adds to a counter (hot methods).  layer_metrics turns the recorded spans
and counters into the per-layer metrics listed in METRICS.

Counts (every ``*.calls``, ``*.grew``, ``linalg.modp.ops`` / ``bytes``,
``serialize.bytes_*``, ``identities.codim.rows_nominal``) repeat exactly for
the same inputs; times (``*.self_s``, ``*_s``) do not.
"""

from __future__ import annotations

import importlib

SPAN, COUNTER = "span", "counter"


def _rc(args, kwargs, result, exc):
    return {"rc": result if exc is None else "raised"}


def _bytes_in(args, kwargs, result, exc):
    return {"bytes": len(args[0].encode("utf-8"))}


def _span_method(args, kwargs, result, exc):
    return {"method": result[1]} if exc is None else {}


def _verdict(args, kwargs, result, exc):
    return {"verdict": type(result).__name__} if exc is None else {}


def _codim(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"rows": result.matrix_shape[0], "method": result.method,
            "backend": kwargs.get("backend", "auto")}


def _grew(args, result, exc):
    return {"grew": 1} if result else None


def _modp_insert(args, result, exc):
    # the residual is one product of the rank x width row block
    eb = args[0]
    rank = eb.dim - (1 if result else 0)
    return {"grew": 1 if result else 0, "ops": rank * eb.ncols}


def _modp_rank(args, result, exc):
    # dense forward elimination: pivot k updates the rows below it
    if exc is not None:
        return None
    rows = args[0]
    nrows, ncols = len(rows), len(rows[0]) if len(rows) else 0
    return {"ops": ncols * (result * nrows - result * (result + 1) // 2)}


def _reduction_failure(args, result, exc):
    return {"failures": 1} if isinstance(exc, ArithmeticError) else None


# (metric group, module, attribute, span or counter, hook)
PLAN = [
    ("cli.main", "cli", "main", SPAN, _rc),

    ("serialize.read", "serialize", "loads", SPAN, _bytes_in),
    ("serialize.read", "serialize", "json_to_hma", SPAN, None),
    ("serialize.read", "serialize", "json_to_ss_spec", SPAN, None),
    ("serialize.read", "serialize", "json_to_nilext_spec", SPAN, None),
    ("serialize.read", "serialize", "json_to_algebra", SPAN, None),
    ("serialize.read", "serialize", "json_to_matrix_doc", SPAN, None),
    ("serialize.validate", "serialize", "validate", SPAN, None),
    ("serialize.write", "serialize", "dumps_canonical", SPAN, None),
    ("serialize.write", "serialize", "hma_to_json", SPAN, None),
    ("serialize.write", "serialize", "ss_spec_to_json", SPAN, None),
    ("serialize.write", "serialize", "nilext_spec_to_json", SPAN, None),
    ("serialize.write", "serialize", "algebra_to_json", SPAN, None),
    ("serialize.write", "serialize", "grading_to_c_matrix", SPAN, None),
    ("serialize.write", "serialize", "matrix_to_json", COUNTER, None),
    ("serialize.write", "serialize", "vector_to_json", COUNTER, None),

    ("algebra_core.init", "algebra_core", "FinDimAlgebra.__init__", SPAN, None),
    ("algebra_core.multiply", "algebra_core", "FinDimAlgebra.multiply",
     COUNTER, None),
    ("algebra_core.structure", "algebra_core", "jacobson_radical", SPAN, None),
    ("algebra_core.structure", "algebra_core", "ideal_generated_by", SPAN, None),
    ("algebra_core.structure", "algebra_core", "grading_from_c", SPAN, None),
    ("algebra_core.structure", "algebra_core", "quotient_algebra", SPAN, None),
    ("algebra_core.structure", "algebra_core", "subalgebra_on", SPAN, None),
    ("algebra_core.structure", "algebra_core", "nilpotency_index", SPAN, None),
    ("algebra_core.structure", "algebra_core", "subspace_product", SPAN, None),
    ("algebra_core.structure", "algebra_core", "direct_sum", SPAN, None),
    ("algebra_core.structure", "algebra_core", "unital_hull", SPAN, None),

    ("cyclotomic.mul", "cyclotomic", "CycNum.__mul__", COUNTER, None),
    ("cyclotomic.addsub", "cyclotomic", "CycNum.__add__", COUNTER, None),
    ("cyclotomic.addsub", "cyclotomic", "CycNum.__sub__", COUNTER, None),
    ("cyclotomic.addsub", "cyclotomic", "CycNum.__rsub__", COUNTER, None),
    ("cyclotomic.addsub", "cyclotomic", "CycNum.__neg__", COUNTER, None),
    ("cyclotomic.inverse", "cyclotomic", "CycNum.inverse", COUNTER, None),
    ("cyclotomic.inverse", "cyclotomic", "CycNum.__truediv__", COUNTER, None),
    ("cyclotomic.inverse", "cyclotomic", "CycNum.__rtruediv__", COUNTER, None),
    ("cyclotomic.is_zero", "cyclotomic", "CycNum.is_zero", COUNTER, None),

    ("linalg.exact.insert", "linalg", "EchelonBasis.insert", COUNTER, _grew),
    ("linalg.exact.matmul", "linalg", "Matrix.__matmul__", COUNTER, None),
    ("linalg.exact.other", "linalg", "EchelonBasis.reduce", COUNTER, None),
    ("linalg.exact.other", "linalg", "Matrix.apply", COUNTER, None),
    ("linalg.exact.other", "linalg", "Matrix.inverse", COUNTER, None),
    ("linalg.exact.other", "linalg", "kernel", COUNTER, None),
    ("linalg.exact.other", "linalg", "solve", COUNTER, None),
    ("linalg.exact.other", "linalg", "intertwiner_space", COUNTER, None),
    ("linalg.exact.other", "linalg", "rank", COUNTER, None),

    ("linalg.modp.insert", "linalg", "ModpEchelon.insert", COUNTER, _modp_insert),
    ("linalg.modp.rank", "linalg", "rank_mod_p", COUNTER, _modp_rank),
    ("linalg.modp.other", "linalg", "ModpEchelon.residual", COUNTER, None),
    ("linalg.modp.other", "linalg", "cyc_to_modp", COUNTER, _reduction_failure),
    ("linalg.modp.other", "linalg", "matrix_to_modp", COUNTER, None),

    ("hmodule.verify", "hmodule", "hma_verify", SPAN, None),
    ("hmodule.span", "hmodule", "operator_span_dim", SPAN, _span_method),
    ("hmodule.simple", "hmodule", "is_h_simple", SPAN, _verdict),
    ("hmodule.iso_generic", "hmodule", "hma_isomorphic_generic", SPAN, None),

    ("identities.codim", "identities", "codimension", SPAN, _codim),

    ("taft_hopf.verify", "taft_hopf", "hopf_verify_axioms", SPAN, None),
    ("taft_hopf.product", "taft_hopf", "HopfElement.__mul__", COUNTER, None),

    ("constructions.build", "constructions", "build_semisimple", SPAN, None),
    ("constructions.build", "constructions", "build_nilpotent_extension",
     SPAN, None),
    ("constructions.build", "constructions", "semisimple_operators", SPAN, None),
    ("constructions.build", "constructions", "certify_graded_simple", SPAN, None),
    ("constructions.recover", "constructions", "recover_structure", SPAN, None),
    ("constructions.iso", "constructions", "iso_semisimple", SPAN, None),

    ("qcombinatorics", "qcombinatorics", "q_int", COUNTER, None),
    ("qcombinatorics", "qcombinatorics", "q_factorial", COUNTER, None),
    ("qcombinatorics", "qcombinatorics", "q_binom", COUNTER, None),
    ("qcombinatorics", "qcombinatorics", "QBinomTable.build", COUNTER, None),
    ("qcombinatorics", "qcombinatorics", "QBinomTable.value", COUNTER, None),
]

PACKAGE = "taftlab"


def name_of(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr)


def install(tracer) -> None:
    """Wrap everything in PLAN; tracer.restore() undoes it."""
    for _, module, attr, kind, hook in PLAN:
        mod = importlib.import_module("%s.%s" % (PACKAGE, module))
        make = tracer.span if kind == SPAN else tracer.counter

        def wrap(fn, make=make, name=name_of(module, attr), hook=hook):
            return make(name, fn, hook)

        if "." in attr:
            cls_name, meth = attr.split(".")
            tracer.patch_method(getattr(mod, cls_name), meth, wrap)
        else:
            tracer.patch_function(mod, attr, wrap, PACKAGE)


# (metric, unit, better)
METRICS = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("serialize.read.calls", "count", "lower"),
    ("serialize.read.self_s", "s", "lower"),
    ("serialize.validate.self_s", "s", "lower"),
    ("serialize.write.self_s", "s", "lower"),
    ("serialize.bytes_read", "B", "lower"),
    ("serialize.bytes_written", "B", "lower"),
    ("algebra_core.init.calls", "count", "lower"),
    ("algebra_core.init.self_s", "s", "lower"),
    ("algebra_core.multiply.calls", "count", "lower"),
    ("algebra_core.multiply.self_s", "s", "lower"),
    ("algebra_core.structure.self_s", "s", "lower"),
    ("cyclotomic.mul.calls", "count", "lower"),
    ("cyclotomic.mul.self_s", "s", "lower"),
    ("cyclotomic.addsub.calls", "count", "lower"),
    ("cyclotomic.addsub.self_s", "s", "lower"),
    ("cyclotomic.inverse.calls", "count", "lower"),
    ("cyclotomic.inverse.self_s", "s", "lower"),
    ("cyclotomic.is_zero.calls", "count", "lower"),
    ("cyclotomic.is_zero.self_s", "s", "lower"),
    ("cyclotomic.self_s", "s", "lower"),
    ("linalg.exact.insert.calls", "count", "lower"),
    ("linalg.exact.insert.grew", "count", "higher"),
    ("linalg.exact.insert.useful_ratio", "ratio", "higher"),
    ("linalg.exact.matmul.calls", "count", "lower"),
    ("linalg.exact.self_s", "s", "lower"),
    ("linalg.modp.insert.calls", "count", "lower"),
    ("linalg.modp.insert.grew", "count", "higher"),
    ("linalg.modp.insert.useful_ratio", "ratio", "higher"),
    ("linalg.modp.rank.calls", "count", "lower"),
    ("linalg.modp.self_s", "s", "lower"),
    ("linalg.modp.ops", "count", "lower"),
    ("linalg.modp.bytes", "B", "lower"),
    ("linalg.modp.reduction_failures", "count", "lower"),
    ("hmodule.verify.self_s", "s", "lower"),
    ("hmodule.span.self_s", "s", "lower"),
    ("hmodule.span.words", "count", "lower"),
    ("hmodule.span.exact_fallbacks", "count", "lower"),
    ("hmodule.simple.tier2_s", "s", "lower"),
    ("hmodule.inconclusive", "count", "lower"),
    ("hmodule.iso_generic.self_s", "s", "lower"),
    ("identities.codim.calls", "count", "lower"),
    ("identities.codim.self_s", "s", "lower"),
    ("identities.codim.rows_nominal", "count", "lower"),
    ("identities.codim.pinned_ratio", "ratio", "higher"),
    ("identities.codim.exact_fallbacks", "count", "lower"),
    ("taft_hopf.verify.self_s", "s", "lower"),
    ("taft_hopf.product.calls", "count", "lower"),
    ("constructions.build.self_s", "s", "lower"),
    ("constructions.recover.self_s", "s", "lower"),
    ("constructions.iso.self_s", "s", "lower"),
    ("qcombinatorics.calls", "count", "lower"),
    ("qcombinatorics.self_s", "s", "lower"),
]


def _totals(tracer) -> dict:
    """name -> summed calls, self time and numeric extras over all jobs."""
    out = {}

    def add(name, fields):
        t = out.setdefault(name, {})
        for k, v in fields.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                t[k] = t.get(k, 0) + v

    for (_, _, name), c in tracer.counters.items():
        add(name, c)
    for sp in tracer.spans:
        add(sp.name, dict(sp.info, calls=1, self_s=sp.self_s))
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, bytes_written: int) -> dict:
    """Every metric in METRICS, from one traced pass.

    bytes_written is the size of the documents the pass wrote to files;
    stdout is left out because codim's reports carry their own timings.
    """
    totals = _totals(tracer)
    members = {}
    for group, module, attr, _, _ in PLAN:
        members.setdefault(group, []).append(name_of(module, attr))

    def g(group, field="calls"):
        return sum(totals.get(n, {}).get(field, 0) for n in members[group])

    def layer_self(prefix):
        return sum(g(grp, "self_s") for grp in members
                   if grp == prefix or grp.startswith(prefix + "."))

    spans = tracer.spans
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    span_end = {}
    for sp in by_name.get(name_of("hmodule", "operator_span_dim"), []):
        if sp.parent is not None:
            span_end[sp.parent] = sp.end
    tier2 = 0.0
    for sp in by_name.get(name_of("hmodule", "is_h_simple"), []):
        if sp.info.get("verdict") != "CertifiedSimple" and sp.id in span_end:
            tier2 += sp.end - span_end[sp.id]
    words = sum(c["calls"] for (_, parent, name), c in tracer.counters.items()
                if parent == name_of("hmodule", "operator_span_dim")
                and name in (name_of("linalg", "ModpEchelon.insert"),
                             name_of("linalg", "EchelonBasis.insert")))
    codims = by_name.get(name_of("identities", "codimension"), [])
    ops = g("linalg.modp.insert", "ops") + g("linalg.modp.rank", "ops")

    values = {
        "cli.main.calls": g("cli.main"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "cli.exit_nonzero": sum(
            1 for sp in by_name.get(name_of("cli", "main"), [])
            if sp.info.get("rc") != 0),
        "serialize.read.calls": g("serialize.read"),
        "serialize.read.self_s": g("serialize.read", "self_s"),
        "serialize.validate.self_s": g("serialize.validate", "self_s"),
        "serialize.write.self_s": g("serialize.write", "self_s"),
        "serialize.bytes_read": totals.get(
            name_of("serialize", "loads"), {}).get("bytes", 0),
        "serialize.bytes_written": bytes_written,
        "algebra_core.init.calls": g("algebra_core.init"),
        "algebra_core.init.self_s": g("algebra_core.init", "self_s"),
        "algebra_core.multiply.calls": g("algebra_core.multiply"),
        "algebra_core.multiply.self_s": g("algebra_core.multiply", "self_s"),
        "algebra_core.structure.self_s": g("algebra_core.structure", "self_s"),
        "cyclotomic.self_s": layer_self("cyclotomic"),
        "linalg.exact.insert.calls": g("linalg.exact.insert"),
        "linalg.exact.insert.grew": g("linalg.exact.insert", "grew"),
        "linalg.exact.insert.useful_ratio": _ratio(
            g("linalg.exact.insert", "grew"), g("linalg.exact.insert")),
        "linalg.exact.matmul.calls": g("linalg.exact.matmul"),
        "linalg.exact.self_s": layer_self("linalg.exact"),
        "linalg.modp.insert.calls": g("linalg.modp.insert"),
        "linalg.modp.insert.grew": g("linalg.modp.insert", "grew"),
        "linalg.modp.insert.useful_ratio": _ratio(
            g("linalg.modp.insert", "grew"), g("linalg.modp.insert")),
        "linalg.modp.rank.calls": g("linalg.modp.rank"),
        "linalg.modp.self_s": layer_self("linalg.modp"),
        "linalg.modp.ops": ops,
        "linalg.modp.bytes": 8 * ops,
        "linalg.modp.reduction_failures": g("linalg.modp.other", "failures"),
        "hmodule.verify.self_s": g("hmodule.verify", "self_s"),
        "hmodule.span.self_s": g("hmodule.span", "self_s"),
        "hmodule.span.words": words,
        "hmodule.span.exact_fallbacks": sum(
            1 for sp in by_name.get(name_of("hmodule", "operator_span_dim"), [])
            if "exact" in sp.info.get("method", "")),
        "hmodule.simple.tier2_s": tier2,
        "hmodule.inconclusive": sum(
            1 for sp in by_name.get(name_of("hmodule", "is_h_simple"), [])
            if sp.info.get("verdict") == "Inconclusive"),
        "hmodule.iso_generic.self_s": g("hmodule.iso_generic", "self_s"),
        "identities.codim.calls": g("identities.codim"),
        "identities.codim.self_s": g("identities.codim", "self_s"),
        "identities.codim.rows_nominal": g("identities.codim", "rows"),
        "identities.codim.pinned_ratio": _ratio(
            sum(1 for sp in codims
                if sp.info.get("method", "").startswith("modp-pinned")),
            len(codims)),
        "identities.codim.exact_fallbacks": sum(
            1 for sp in codims if sp.info.get("backend") == "auto"
            and sp.info.get("method") == "exact-echelon"),
        "taft_hopf.verify.self_s": g("taft_hopf.verify", "self_s"),
        "taft_hopf.product.calls": g("taft_hopf.product"),
        "constructions.build.self_s": g("constructions.build", "self_s"),
        "constructions.recover.self_s": g("constructions.recover", "self_s"),
        "constructions.iso.self_s": g("constructions.iso", "self_s"),
        "qcombinatorics.calls": g("qcombinatorics"),
        "qcombinatorics.self_s": g("qcombinatorics", "self_s"),
    }
    for op in ("mul", "addsub", "inverse", "is_zero"):
        values["cyclotomic.%s.calls" % op] = g("cyclotomic." + op)
        values["cyclotomic.%s.self_s" % op] = g("cyclotomic." + op, "self_s")
    return {name: values[name] for name, _, _ in METRICS}
