"""JSON document round trips, schema rejection paths, canonical bytes."""

import copy
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import taftlab
from taftlab import serialize
from taftlab.algebra_core import FinDimAlgebra, grading_from_c
from taftlab.cli import main as cli_main
from taftlab.constructions import (NilpotentExtensionSpec, SemisimpleSpec,
                                   build_nilpotent_extension, build_semisimple)
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (negative_modules, nilext_specs,
                              positive_modules, ss_specs, sweedler_two_dim)
from taftlab.hmodule import HModuleAlgebra, hma_verify
from taftlab.identities import codim_growth_report, codimension
from taftlab.linalg import Matrix
from taftlab.serialize import (
    ALGEBRA_SCHEMA,
    FORMAT_TAG,
    HMA_SCHEMA,
    HOPF_SCHEMA,
    MATRIX_SCHEMA,
    NILEXT_SCHEMA,
    SS_SPEC_SCHEMA,
    algebra_to_json,
    compile_schema,
    cyc_to_json,
    dumps_canonical,
    grading_to_c_matrix,
    hma_to_json,
    hopf_to_json,
    json_to_algebra,
    json_to_cyc,
    json_to_hma,
    json_to_hopf,
    json_to_matrix_doc,
    json_to_nilext_spec,
    json_to_ss_spec,
    loads,
    matrix_doc_to_json,
    nilext_spec_to_json,
    ss_spec_to_json,
    validate,
    vector_to_json,
)
from taftlab.taft_hopf import TaftAlgebra, hopf_verify_axioms


def test_cyc_round_trip():
    x = zeta_power(12, 5) + CycNum.rational(12, "3/7")
    doc = cyc_to_json(x)
    assert json_to_cyc(doc) == x
    assert json_to_cyc(doc, m=12) == x
    with pytest.raises(InputError, match="conductor"):
        json_to_cyc(doc, m=5)


def test_cyc_rejects_bad_fraction():
    bad = {"m": 2, "coeffs": ["1/0", "0"]}
    with pytest.raises(InputError):
        json_to_cyc(bad)
    worse = {"m": 2, "coeffs": ["pi", "0"]}
    with pytest.raises(InputError):
        json_to_cyc(worse)


def test_algebra_round_trip():
    a = sweedler_two_dim().algebra
    doc = algebra_to_json(a)
    assert doc["format"] == FORMAT_TAG
    b = json_to_algebra(doc)
    assert b.m == a.m and b.dim == a.dim
    assert b.mult == a.mult and b.unit == a.unit


def test_algebra_schema_violation_reports_path():
    a = sweedler_two_dim().algebra
    # the writer shares one dict per distinct entry; edit a parsed copy
    doc = loads(dumps_canonical(algebra_to_json(a)))
    doc["mult"][0][0][0][0] = "not a number"
    with pytest.raises(InputError) as err:
        json_to_algebra(doc)
    assert "mult" in str(err.value)


def test_algebra_dim_mismatch_caught():
    a = sweedler_two_dim().algebra
    doc = algebra_to_json(a)
    doc["dim"] = 3
    with pytest.raises(InputError):
        json_to_algebra(doc)


def test_hma_round_trip():
    mod = sweedler_two_dim()
    doc = hma_to_json(mod)
    back = json_to_hma(doc)
    assert back.c_op == mod.c_op and back.v_op == mod.v_op
    assert back.algebra.mult == mod.algebra.mult
    assert back.m == mod.m


def test_writers_share_one_dict_per_distinct_entry():
    doc = hma_to_json(build_semisimple(ss_specs()["sweedler_p_gamma3"]))
    entries = [e for row in doc["algebra"]["mult"] for cell in row for e in cell]
    entries += doc["algebra"]["unit"] or []
    entries += [e for key in ("c", "v") for row in doc[key] for e in row]
    assert len({id(e) for e in entries}) == len(
        {json.dumps(e, sort_keys=True) for e in entries}) < len(entries)
    # one list per distinct cell object of the table, shared where it stands
    mod = build_semisimple(ss_specs()["grid_m4_k3_t4"])
    doc = hma_to_json(mod)
    pairs = {(id(x), id(y)) for row, lists in zip(mod.algebra.mult,
                                                  doc["algebra"]["mult"])
             for x, y in zip(row, lists)}
    assert len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs}) \
        == 37
    # sharing does not change the bytes
    fresh = json.loads(json.dumps(doc))
    assert dumps_canonical(doc) == dumps_canonical(fresh) == \
        json.dumps(fresh, sort_keys=True, indent=2) + "\n"


def test_vector_to_json_on_objects_made_one_at_a_time():
    # values a, b, a, b, c, d, c, d, ...: each second copy is freed while
    # the next objects are made, so a later value may take its id
    def value(i):
        return 2 * (i // 4) + i % 2

    nums = {v: CycNum.rational(5, v).num for v in range(200)}
    made = (CycNum(5, nums[value(i)], 1) for i in range(400))
    assert vector_to_json(made) == [CycNum.rational(5, value(i)).to_json()
                                    for i in range(400)]


def test_hma_missing_field_rejected():
    doc = hma_to_json(sweedler_two_dim())
    del doc["v"]
    with pytest.raises(InputError, match="invalid"):
        json_to_hma(doc)


def test_ss_spec_round_trip_echoes_alpha():
    spec = ss_specs()["sweedler_p_gamma3"]
    doc = ss_spec_to_json(spec)
    assert doc["format"] == FORMAT_TAG
    assert "alpha" in doc
    back = json_to_ss_spec(doc)
    assert back == spec
    # alpha is derived; a document without it still loads
    del doc["alpha"]
    assert json_to_ss_spec(doc) == spec


def test_ss_spec_alpha_tamper_detected():
    spec = ss_specs()["sweedler_p_gamma3"]
    doc = ss_spec_to_json(spec)
    doc["alpha"] = cyc_to_json(CycNum.rational(2, 99))
    with pytest.raises(InputError, match="alpha"):
        json_to_ss_spec(doc)


def test_nilext_round_trip():
    spec = nilext_specs()["base_mat2_elem_m2"]
    c_op = grading_to_c_matrix(spec.grading)
    doc = nilext_spec_to_json(spec, c_op)
    back = json_to_nilext_spec(doc)
    assert back.m == spec.m
    assert back.B.mult == spec.B.mult
    assert back.grading.dims == spec.grading.dims
    # both specs drive the builder to the same extension
    e1 = build_nilpotent_extension(spec)
    e2 = build_nilpotent_extension(back)
    assert e1.module.algebra.mult == e2.module.algebra.mult
    assert e1.module.c_op == e2.module.c_op


def test_grading_to_c_matrix_is_the_eigenvalue_operator():
    spec = nilext_specs()["base_mat2_elem_m3"]
    c = grading_to_c_matrix(spec.grading)
    # each homogeneous vector is scaled by zeta^degree
    for g, vec in spec.grading.degree_of_basis():
        assert c.apply(vec) == tuple(zeta_power(3, g) * x for x in vec)


def test_matrix_doc_round_trip():
    mat = sweedler_two_dim().v_op
    doc = matrix_doc_to_json(mat)
    assert json_to_matrix_doc(doc) == mat


def test_hopf_round_trip_and_rejection():
    H = TaftAlgebra(3)
    x = H.c() * H.v() + H.one().scale(CycNum.rational(3, "2/5"))
    doc = hopf_to_json(x)
    assert json_to_hopf(doc) == x
    bad = {"format": FORMAT_TAG, "m": 3,
           "terms": [{"c": 0, "v": 3, "coeff": cyc_to_json(CycNum.one(3))}]}
    with pytest.raises(InputError, match="range"):
        json_to_hopf(bad)


def test_hopf_duplicate_keys_accumulate():
    H = TaftAlgebra(2)
    one = cyc_to_json(CycNum.one(2))
    doc = {"format": FORMAT_TAG, "m": 2,
           "terms": [{"c": 1, "v": 0, "coeff": one},
                     {"c": 1, "v": 0, "coeff": one}]}
    assert json_to_hopf(doc) == H.c().scale(CycNum.rational(2, 2))


def test_malformed_json_text():
    with pytest.raises(InputError, match="malformed"):
        loads("{not json")


def test_canonical_dump_is_stable_and_sorted():
    spec = ss_specs()["pair_alpha_1"]
    doc = ss_spec_to_json(spec)
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    assert text == dumps_canonical(loads(text))
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_format_tag_enforced():
    doc = algebra_to_json(sweedler_two_dim().algebra)
    doc["format"] = "taftlab/99"
    with pytest.raises(InputError, match="format"):
        json_to_algebra(doc)


# ------------------------------------------- compiled schema check vs jsonschema

SCHEMAS = {"algebra": ALGEBRA_SCHEMA, "module algebra": HMA_SCHEMA,
           "semisimple spec": SS_SPEC_SCHEMA, "base algebra": NILEXT_SCHEMA,
           "matrix": MATRIX_SCHEMA, "Hopf element": HOPF_SCHEMA}


def _fixture_documents():
    """Every shipped fixture document plus one of each remaining kind, as
    plain JSON values, each with the name of its own schema."""
    mod = sweedler_two_dim()
    H = TaftAlgebra(3)
    docs = [("semisimple spec", ss_spec_to_json(spec))
            for _, spec in sorted(ss_specs().items())]
    docs += [("base algebra",
              nilext_spec_to_json(spec, grading_to_c_matrix(spec.grading)))
             for _, spec in sorted(nilext_specs().items())]
    docs += [("module algebra", hma_to_json(mod))]
    docs += [("module algebra", hma_to_json(m))
             for _, m in sorted(negative_modules().items())]
    docs += [("algebra", algebra_to_json(mod.algebra)),
             ("matrix", matrix_doc_to_json(mod.v_op)),
             ("Hopf element", hopf_to_json(
                 H.c() * H.v() + H.one().scale(CycNum.rational(3, "2/5"))))]
    return [(what, loads(dumps_canonical(doc))) for what, doc in docs]


DOCS = _fixture_documents()


def _jsonschema_message(doc, schema, what):
    """The InputError text of the validator before schemas were compiled."""
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    err = jsonschema.exceptions.best_match(errors)
    return "invalid %s document: %s (at %s)" % (what, err.message, err.json_path)


def _agrees(doc, schema, what):
    valid = jsonschema.Draft202012Validator(schema).is_valid(doc)
    assert compile_schema(schema)(doc) == valid
    if valid:
        validate(doc, schema, what)
    else:
        with pytest.raises(InputError) as err:
            validate(doc, schema, what)
        assert str(err.value) == _jsonschema_message(doc, schema, what)
    return valid


def test_compiled_schemas_agree_on_every_fixture_document():
    for own, doc in DOCS:
        for what, schema in SCHEMAS.items():
            assert _agrees(doc, schema, what) or what != own


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40),
    st.sampled_from([2.0, 1.5, 0.0, -1.0, 1e300, float("inf"), float("nan")]),
    st.sampled_from(["1", "-3/4", "3/-4", "7\n", "1/0", "x", "", FORMAT_TAG,
                     "taftlab/2"]),
    # copied, since edits may later land inside them
    st.sampled_from([{"m": 2, "coeffs": ["1"]}, [], {}]).map(copy.deepcopy),
)
_KEYS = st.sampled_from(["m", "coeffs", "format", "dim", "mult", "unit", "c",
                         "v", "alpha", "terms", "coeff", "extra"])


@st.composite
def _mutated(draw):
    """(schema name, document): a fixture document with one to three random
    edits, each a replaced, dropped or added value at a random depth."""
    what, doc = draw(st.sampled_from(DOCS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 8))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(list(keys)))
            node = node[key]
        op = draw(st.sampled_from(["replace", "drop", "add"]))
        if op == "replace":
            value = draw(_LEAVES)
            if parent is None:
                doc = value
            else:
                parent[key] = value
        elif isinstance(node, dict) and node:
            if op == "drop":
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                node[draw(_KEYS)] = draw(_LEAVES)
        elif isinstance(node, list) and node:
            if op == "drop":
                del node[draw(st.integers(0, len(node) - 1))]
            else:
                node.append(copy.deepcopy(draw(st.sampled_from(node))))
    return what, doc


@given(_mutated())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_schemas_agree_on_mutated_documents(drawn):
    what, doc = drawn
    _agrees(doc, SCHEMAS[what], what)


def test_compiled_schemas_agree_on_edge_cases():
    hma = loads(dumps_canonical(hma_to_json(sweedler_two_dim())))
    hopf = next(d for what, d in DOCS if what == "Hopf element")
    cases = []
    for m in (True, False, 2.0, 1.5, 1, 3.0, "2", None):
        doc = copy.deepcopy(hma)
        doc["m"] = m
        cases.append((doc, "module algebra"))
        doc = copy.deepcopy(hma)
        doc["algebra"]["mult"][0][0][0]["m"] = m
        cases.append((doc, "module algebra"))
    for dim in (True, 0, 2.0):
        doc = copy.deepcopy(hma)
        doc["algebra"]["dim"] = dim
        cases.append((doc, "module algebra"))
    doc = copy.deepcopy(hopf)
    doc["terms"][0]["c"] = False
    cases.append((doc, "Hopf element"))
    for coeff in ("7\n", "3/-4", "7 ", " 7", "+7", "1/2/3"):
        doc = copy.deepcopy(hma)
        doc["c"][0][0]["coeffs"] = [coeff]
        cases.append((doc, "module algebra"))
    # each value replaced by one of another JSON type
    for key, value in (("c", {}), ("v", None), ("algebra", []), ("m", "2")):
        doc = copy.deepcopy(hma)
        doc[key] = value
        cases.append((doc, "module algebra"))
    for value in ("1", {"coeffs": []}, [1], [None], [["1"]]):
        doc = copy.deepcopy(hma)
        doc["c"][0][0]["coeffs"] = value
        cases.append((doc, "module algebra"))
    doc = copy.deepcopy(hma)
    doc["algebra"]["unit"] = "none"
    cases.append((doc, "module algebra"))
    doc = copy.deepcopy(hma)
    doc["extra"] = 1
    cases.append((doc, "module algebra"))
    doc = copy.deepcopy(hma)
    doc["algebra"]["mult"][0][0][0]["extra"] = 1
    cases.append((doc, "module algebra"))
    doc = copy.deepcopy(hma)
    del doc["format"]
    cases.append((doc, "module algebra"))
    for tag in ("taftlab/2", "", None, 1):
        doc = copy.deepcopy(hma)
        doc["format"] = tag
        cases.append((doc, "module algebra"))
    for top in ([], [hma], "taftlab/1", 3, None, True):
        cases.append((top, "module algebra"))
    verdicts = [_agrees(doc, SCHEMAS[what], what) for doc, what in cases]
    assert True in verdicts and False in verdicts


def test_schema_accepts_what_fraction_rejects():
    doc = loads(dumps_canonical(hma_to_json(sweedler_two_dim())))
    doc["c"][0][0]["coeffs"] = ["3/-4"]
    validate(doc, HMA_SCHEMA, "module algebra")
    with pytest.raises(InputError, match="bad rational coefficient"):
        json_to_hma(doc)


def test_compiled_schema_refuses_keywords_it_does_not_cover():
    for schema in ({"type": "number"}, {"maxItems": 2},
                   {"additionalProperties": {"type": "string"}}, {}):
        with pytest.raises(ValueError):
            compile_schema(schema)


def test_cli_import_leaves_jsonschema_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(taftlab.__file__)))
    code = "import sys, taftlab.cli; print('jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "False"


def test_cyc_parse_is_shared_and_conductor_checked():
    doc = {"m": 3, "coeffs": ["1/2", "-1"]}
    a, b = json_to_cyc(doc), json_to_cyc(dict(doc))
    assert a is b and a == CycNum.make(3, [Fraction(1, 2), -1])
    with pytest.raises(InputError, match="conductor"):
        json_to_cyc(doc, m=4)
    with pytest.raises(InputError, match="bad rational coefficient"):
        json_to_cyc({"m": 3, "coeffs": ["3/-4"]})


# ------------------------------------ per-document memo of the reader


def _entry_paths(node, path=()):
    """The path of every field element in node, in the order validate and
    the decoders visit them (sorted keys, then list order)."""
    if isinstance(node, dict):
        if set(node) == {"m", "coeffs"}:
            yield path
            return
        for key in sorted(node):
            yield from _entry_paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _entry_paths(item, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# each turns an exact entry into one the memo must not answer for; True
# where the schema still accepts the edited entry
_LAST_COPY_EDITS = {
    "m = True": (lambda e: e.update(m=True), False),
    "m = False": (lambda e: e.update(m=False), False),
    "m = 1": (lambda e: e.update(m=1), False),
    "m = 2.0": (lambda e: e.update(m=2.0), True),
    "m as float": (lambda e: e.update(m=float(e["m"])), True),
    "extra key": (lambda e: e.update(extra=1), False),
    "no coeffs": (lambda e: e.pop("coeffs"), False),
    "int coeff": (lambda e: e["coeffs"].append(1), False),
    "bool coeff": (lambda e: e["coeffs"].append(True), False),
    "bad coeff": (lambda e: e["coeffs"].append("x"), False),
    "3/-4 coeff": (lambda e: e["coeffs"].append("3/-4"), True),
    "tuple coeffs": (lambda e: e.update(coeffs=tuple(e["coeffs"])), False),
}
_REPEATED = [(what, doc, path) for what, doc in DOCS
             for path in [list(_entry_paths(doc))]
             if len({json.dumps(_at(doc, p), sort_keys=True) for p in path})
             < len(path)]
# decoder, then the writer giving its document back
_CODECS = {
    "algebra": (json_to_algebra, algebra_to_json),
    "module algebra": (json_to_hma, hma_to_json),
    "semisimple spec": (json_to_ss_spec, ss_spec_to_json),
    "base algebra": (json_to_nilext_spec, lambda spec: nilext_spec_to_json(
        spec, grading_to_c_matrix(spec.grading))),
    "matrix": (json_to_matrix_doc, matrix_doc_to_json),
    "Hopf element": (json_to_hopf, hopf_to_json),
}


def _read_back(what, doc):
    """The canonical text of what the decoder reads, or its InputError."""
    read, write = _CODECS[what]
    try:
        return dumps_canonical(write(read(doc)))
    except InputError as exc:
        return str(exc)


@given(st.sampled_from(_REPEATED), st.sampled_from(sorted(_LAST_COPY_EDITS)),
       st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_schemas_agree_when_the_last_copy_is_edited(drawn, edit,
                                                             data):
    what, doc, paths = drawn
    texts = [json.dumps(_at(doc, p), sort_keys=True) for p in paths]
    repeated = sorted({t for t in texts if texts.count(t) > 1})
    text = data.draw(st.sampled_from(repeated))
    last = max(i for i, t in enumerate(texts) if t == text)
    edited = copy.deepcopy(doc)
    apply, accepted = _LAST_COPY_EDITS[edit]
    apply(_at(edited, paths[last]))
    assert _agrees(edited, SCHEMAS[what], what) == accepted
    if not accepted:
        return
    # the decoder reads the edited copy on its own, not as the good ones;
    # an algebra document takes its conductor from its first entry
    got = _read_back(what, edited)
    m = doc.get("m", _at(doc, paths[0])["m"])
    if edit == "m as float" or (edit == "m = 2.0" and m == 2):
        assert got == _read_back(what, doc)
    elif edit == "m = 2.0":
        assert got == "field element has conductor 2; expected %d" % m
    else:
        assert got.startswith("bad rational coefficient")


# ------------------------------ the one walk against the two-walk oracle


def _oracle_vector(obj, m):
    """The decoder before the walk: validate, then one json_to_cyc per
    entry (its per-document memo gave what json_to_cyc gives)."""
    return tuple(json_to_cyc(x, m) for x in obj)


def _oracle_matrix(obj, m, what):
    if not obj:
        raise InputError("%s must have at least one row" % what)
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise InputError("%s row %d has length %d; expected %d"
                             % (what, i, len(row), width))
        rows.append(_oracle_vector(row, m))
    return Matrix.from_rows(m, rows)


def _oracle_algebra(obj, m=None):
    dim = serialize._integer(obj["dim"])
    mult = obj["mult"]
    if len(mult) != dim:
        raise InputError("mult table has %d rows; dim is %d" % (len(mult), dim))
    if m is None:
        # conductor lives on the entries; find any one of them
        for row in mult:
            for cell in row:
                for entry in cell:
                    m = serialize._integer(entry["m"])
                    break
                if m is not None:
                    break
            if m is not None:
                break
        if m is None:
            raise InputError("cannot infer the conductor from an empty table")
    table = []
    for i, row in enumerate(mult):
        if len(row) != dim:
            raise InputError("mult row %d has %d cells; dim is %d"
                             % (i, len(row), dim))
        cells = []
        for j, cell in enumerate(row):
            if len(cell) != dim:
                raise InputError("mult entry (%d, %d) has length %d; dim is %d"
                                 % (i, j, len(cell), dim))
            cells.append(_oracle_vector(cell, m))
        table.append(tuple(cells))
    unit = obj.get("unit")
    if unit is not None:
        if len(unit) != dim:
            raise InputError("unit has length %d; dim is %d" % (len(unit), dim))
        unit = _oracle_vector(unit, m)
    return FinDimAlgebra(m, tuple(table), unit=unit)


def _oracle_hma(doc):
    validate(doc, HMA_SCHEMA, "module algebra")
    m = serialize._integer(doc["m"])
    algebra = _oracle_algebra(doc["algebra"], m)
    c_op = _oracle_matrix(doc["c"], m, "c operator")
    v_op = _oracle_matrix(doc["v"], m, "v operator")
    return HModuleAlgebra(hopf=TaftAlgebra(m), algebra=algebra,
                          c_op=c_op, v_op=v_op)


def _oracle_algebra_doc(doc):
    validate(doc, ALGEBRA_SCHEMA, "algebra")
    return _oracle_algebra(doc)


def _oracle_ss_spec(doc):
    validate(doc, SS_SPEC_SCHEMA, "semisimple spec")
    m = serialize._integer(doc["m"])
    spec = SemisimpleSpec(
        m=m, k=serialize._integer(doc["k"]), t=serialize._integer(doc["t"]),
        P=_oracle_matrix(doc["P"], m, "P"), Q=_oracle_matrix(doc["Q"], m, "Q"))
    if "alpha" in doc:
        claimed = json_to_cyc(doc["alpha"], m)
        if claimed != spec.alpha:
            raise InputError("document claims alpha = %r but P^m gives %r"
                             % (claimed, spec.alpha))
    return spec


def _oracle_nilext_spec(doc):
    validate(doc, NILEXT_SCHEMA, "base algebra")
    m = serialize._integer(doc["m"])
    B = _oracle_algebra(doc["algebra"], m)
    c_op = _oracle_matrix(doc["c"], m, "grading operator")
    return NilpotentExtensionSpec(m=m, B=B, grading=grading_from_c(B, c_op))


def _oracle_matrix_doc(doc):
    validate(doc, MATRIX_SCHEMA, "matrix")
    return _oracle_matrix(doc["rows"], serialize._integer(doc["m"]), "matrix")


_ORACLES = {"module algebra": _oracle_hma, "algebra": _oracle_algebra_doc,
            "semisimple spec": _oracle_ss_spec,
            "base algebra": _oracle_nilext_spec, "matrix": _oracle_matrix_doc}


def _algebras(obj):
    if isinstance(obj, HModuleAlgebra):
        return [obj.algebra]
    if isinstance(obj, FinDimAlgebra):
        return [obj]
    if isinstance(obj, NilpotentExtensionSpec):
        return [obj.B]
    return []


def _outcome_of(read, what, doc):
    """The canonical text of what read gives, or its exception's type and
    text, and the algebras read."""
    try:
        got = read(doc)
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return (type(exc).__name__, str(exc)), []
    return dumps_canonical(_CODECS[what][1](got)), _algebras(got)


def _assert_walk_matches_the_oracle(what, doc):
    """The walk and the oracle give the same object or the same error; an
    algebra read by the walk has the indexes of one built directly."""
    got, mine = _outcome_of(_CODECS[what][0], what, doc)
    want, theirs = _outcome_of(_ORACLES[what], what, doc)
    assert got == want
    for a, b in zip(mine, theirs):
        assert (a.m, a.mult, a.unit) == (b.m, b.mult, b.unit)
        assert a._nonzero() == b._nonzero()
        assert a._integer_view() == b._integer_view()
        pa, pb = a._planes(), b._planes()
        assert (pa is None) == (pb is None)
        if pa is not None:
            assert pa[0] == pb[0] and np.array_equal(pa[1], pb[1])
    return got


@cache
def _benchmark_dense():
    """perfbench/dense.py, loaded from its file and left unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("_benchmark_dense", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def _module_documents():
    """Every corpus module, as a canonical document."""
    mods = dict(positive_modules())
    mods.update(negative_modules())
    return {name: loads(dumps_canonical(hma_to_json(mod)))
            for name, mod in sorted(mods.items())}


def _dense_sources():
    """The modules whose dense copies the walk reads; a dim-1 copy is only
    a rescaled basis vector."""
    return sorted(name for name, doc in _module_documents().items()
                  if 2 <= doc["algebra"]["dim"] <= 9)


def _dense_document(name, seed):
    """The dense copy of a corpus module that perfbench/dense.py writes for
    seed: every structure constant over denominators dim + 1."""
    dense = _benchmark_dense()
    return json.loads(dense.dumps(dense.dense_copy(
        _module_documents()[name], seed, name)))


def test_walk_matches_the_oracle_on_every_document():
    for what, doc in DOCS:
        if what != "Hopf element":
            assert not _assert_walk_matches_the_oracle(what, doc)[0] \
                .startswith("InputError")
    for name, doc in _module_documents().items():
        _assert_walk_matches_the_oracle("module algebra", doc)
        algebra = {"format": FORMAT_TAG}
        algebra.update(doc["algebra"])
        _assert_walk_matches_the_oracle("algebra", algebra)
    assert len(_dense_sources()) >= 20
    for name in _dense_sources():
        doc = _dense_document(name, 1)
        assert any(x["coeffs"][0].count("/")
                   for row in doc["algebra"]["mult"] for cell in row
                   for x in cell)
        _assert_walk_matches_the_oracle("module algebra", doc)


@given(st.deferred(lambda: st.sampled_from(_dense_sources())),
       st.integers(0, 2**32))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_walk_matches_the_oracle_on_dense_copies(name, seed):
    _assert_walk_matches_the_oracle("module algebra",
                                    _dense_document(name, seed))


@given(_mutated())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_walk_matches_the_oracle_on_mutated_documents(drawn):
    what, doc = drawn
    if what != "Hopf element":
        _assert_walk_matches_the_oracle(what, doc)


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _dropped(doc, path):
    doc = copy.deepcopy(doc)
    del _at(doc, path[:-1])[path[-1]]
    return doc


def test_walk_matches_the_oracle_on_rejections():
    hma = loads(dumps_canonical(hma_to_json(sweedler_two_dim())))
    first = ("algebra", "mult", 0, 0, 0)
    two = {"m": 2, "coeffs": ["2"]}
    # e_0 e_1 = 2 e_1 with e_0 e_0 = e_0: (e_0 e_0) e_1 = 2 e_1 but
    # e_0 (e_0 e_1) = 4 e_1
    assoc = _edited(hma, ("algebra", "mult", 0, 1, 1), two)
    cases = {
        "wrong conductor": (
            _edited(hma, first, {"m": 3, "coeffs": ["1"]}),
            "field element has conductor 3; expected 2"),
        "1/0": (_edited(hma, first, {"m": 2, "coeffs": ["1/0"]}),
                "bad rational coefficient: Fraction(1, 0)"),
        "3/-4 in c": (_edited(hma, ("c", 1, 1), {"m": 2, "coeffs": ["3/-4"]}),
                      "bad rational coefficient: Invalid literal for "
                      "Fraction: '3/-4'"),
        "m = 2.0": (_edited(hma, ("m",), 2.0), ""),
        "entry m = 2.0": (_edited(hma, first + ("m",), 2.0), ""),
        "m = true": (_edited(hma, ("m",), True), None),
        "entry m = true": (_edited(hma, first + ("m",), True), None),
        "extra entry key": (_edited(hma, first + ("extra",), 1), None),
        "extra top key": (_edited(hma, ("extra",), 1), None),
        "no unit key": (_dropped(hma, ("algebra", "unit")), ""),
        "ragged mult row": (
            _edited(hma, ("algebra", "mult", 1), hma["algebra"]["mult"][1][:1]),
            "mult row 1 has 1 cells; dim is 2"),
        "short mult cell": (
            _edited(hma, ("algebra", "mult", 1, 0), [two]),
            "mult entry (1, 0) has length 1; dim is 2"),
        "bad unit length": (
            _edited(hma, ("algebra", "unit"), hma["algebra"]["unit"] * 2),
            "unit has length 4; dim is 2"),
        "ragged c": (_edited(hma, ("c", 1), [two]),
                     "c operator row 1 has length 1; expected 2"),
        "empty v": (_edited(hma, ("v",), []), "v operator must have at least one row"),
        "3 x 3 c": (_edited(hma, ("c",), [[two] * 3] * 3),
                    "c operator must be 2 x 2 over Q(zeta_2)"),
        "non-associative": (
            assoc, "structure constants are not associative at basis "
                   "triple (0, 0, 1)"),
        # the table's error comes before c's, as it did before the walk
        "non-associative, bad conductor in c": (
            _edited(assoc, ("c", 0, 0), {"m": 3, "coeffs": ["1"]}),
            "structure constants are not associative at basis triple (0, 0, 1)"),
        "non-associative, 1/0 in c": (
            _edited(assoc, ("c", 0, 0), {"m": 2, "coeffs": ["1/0"]}),
            "structure constants are not associative at basis triple (0, 0, 1)"),
        # ... but a schema error anywhere comes first
        "non-associative, extra key in c": (
            _edited(assoc, ("c", 0, 0, "extra"), 1), None),
        "non-associative, ragged c, bad v": (
            _edited(_edited(assoc, ("c", 1), [two]), ("v", 0, 0), "x"), None),
        "unhashable coefficient": (
            _edited(hma, first + ("coeffs",), [["1"]]), None),
    }
    for name, (doc, message) in cases.items():
        got = _assert_walk_matches_the_oracle("module algebra", doc)
        if message is None:
            assert got[0] == "InputError" and got[1].startswith(
                "invalid module algebra document: "), name
        elif message:
            assert got == ("InputError", message), name
        else:
            assert got == dumps_canonical(hma_to_json(json_to_hma(hma))), name
    # an algebra document takes its conductor from its first entry
    algebra = loads(dumps_canonical(algebra_to_json(sweedler_two_dim().algebra)))
    for doc, message in (
            (_edited(algebra, ("mult",), [[]] * 2),
             "cannot infer the conductor from an empty table"),
            (_edited(algebra, ("mult", 0, 0, 0, "m"), 3),
             "field element has conductor 2; expected 3"),
            (_edited(algebra, ("mult", 0, 0, 0, "m"), 2.0), "")):
        got = _assert_walk_matches_the_oracle("algebra", doc)
        assert got == (("InputError", message) if message else
                       dumps_canonical(algebra_to_json(json_to_algebra(algebra))))


def test_walk_keeps_each_entry_check(monkeypatch):
    one = {"m": 3, "coeffs": ["1", "0"]}
    parsed = []
    real = serialize.json_to_cyc
    monkeypatch.setattr(serialize, "json_to_cyc",
                        lambda obj, m=None: parsed.append(obj) or real(obj, m))

    def doc(*rows, m=3):
        return {"format": FORMAT_TAG, "m": m, "rows": [list(r) for r in rows]}

    got = json_to_matrix_doc(doc([one, dict(one), {"m": 3.0, "coeffs": ["1", "0"]}]))
    assert got.rows == ((CycNum.one(3),) * 3,)
    # the copy of the first entry is looked up; the float conductor is read
    # on its own
    assert parsed == [one, {"m": 3.0, "coeffs": ["1", "0"]}]
    with pytest.raises(InputError, match="conductor 3; expected 4"):
        json_to_matrix_doc(doc([one], m=4))
    with pytest.raises(InputError, match="bad rational coefficient"):
        json_to_matrix_doc(doc([one, {"m": 3, "coeffs": ["3/-4"]}]))
    with pytest.raises(InputError, match="Additional properties"):
        json_to_matrix_doc(doc([one, dict(one, extra=1)]))


def test_no_memo_state_leaks_between_documents(monkeypatch):
    doc = loads(dumps_canonical(hma_to_json(
        build_semisimple(ss_specs()["grid_m3_k2_t3"]))))
    distinct = {json.dumps(_at(doc, p)) for p in _entry_paths(doc)}
    parsed = []
    real = serialize.json_to_cyc
    monkeypatch.setattr(serialize, "json_to_cyc",
                        lambda obj, m=None: parsed.append(1) or real(obj, m))
    for _ in range(2):
        parsed.clear()
        json_to_hma(doc)
        assert len(parsed) == len(distinct)
    # the verdicts: one pattern search per coefficient of each distinct
    # entry, in every call
    searched = []

    class Pattern:
        def __init__(self, pattern):
            self.real = re.compile(pattern)

        def search(self, text):
            searched.append(text)
            return self.real.search(text)

    monkeypatch.setattr(serialize, "re", type(
        "re", (), {"compile": staticmethod(Pattern)}))
    schema = copy.deepcopy(HMA_SCHEMA)
    coeffs = sum(len(json.loads(e)["coeffs"]) for e in distinct)
    for check in (lambda d: validate(d, schema, "module algebra"),
                  compile_schema(schema)):
        for _ in range(2):
            searched.clear()
            check(doc)
            assert len(searched) == coeffs


# ------------------------------------------ integral floats are integers


def _floats(node, names):
    """A copy of node with every int held under a key in names a float."""
    if isinstance(node, dict):
        return {k: float(v) if k in names and type(v) is int
                else _floats(v, names) for k, v in node.items()}
    if isinstance(node, list):
        return [_floats(v, names) for v in node]
    return node


def _one_float(doc, path):
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    parent[path[-1]] = float(parent[path[-1]])
    return doc


def _cli_outcome(capsys, tmp_path, argv, docs):
    """Exit code, stderr and written text of one command on documents."""
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / ("in%d.json" % i)
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    code = cli_main([a if type(a) is str else paths[a] for a in argv]
                    + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    return code, capsys.readouterr().err, text


def test_integral_float_integers_read_as_their_int_twins(capsys, tmp_path):
    def canonical(doc):
        return loads(dumps_canonical(doc))

    hma = canonical(hma_to_json(sweedler_two_dim()))
    ss = canonical(ss_spec_to_json(ss_specs()["mat2_trivial"]))
    base = nilext_specs()["base_mat2_elem_m2"]
    grading = grading_to_c_matrix(base.grading)
    nilext = canonical(nilext_spec_to_json(base, grading))
    algebra = canonical(algebra_to_json(base.B))
    matrix = canonical(matrix_doc_to_json(grading))
    first = ("algebra", "mult", 0, 0, 0, "m")
    cases = [
        (["verify", "--in", 0], [hma], [
            [_one_float(hma, ("m",))], [_one_float(hma, first)],
            [_one_float(hma, ("algebra", "dim"))],
            [_floats(hma, {"m", "dim"})]]),
        (["simple", "--in", 0], [hma], [[_floats(hma, {"m", "dim"})]]),
        (["construct", "ss", "--in", 0], [ss], [
            [_one_float(ss, (key,))] for key in ("m", "k", "t")]
            + [[_one_float(ss, ("P", 0, 0, "m"))],
               [_floats(ss, {"m", "k", "t"})]]),
        (["construct", "nilext", "--in", 0], [nilext], [
            [_one_float(nilext, ("m",))], [_one_float(nilext, first)],
            [_floats(nilext, {"m", "dim"})]]),
        (["radical", "--in", 0], [algebra], [
            [_one_float(algebra, ("dim",))],
            [_floats(algebra, {"m", "dim"})]]),
        (["grading", "--in", 0, "--c", 1], [algebra, matrix], [
            [algebra, _one_float(matrix, ("m",))],
            [_floats(algebra, {"m", "dim"}), _floats(matrix, {"m"})]]),
    ]
    for argv, docs, twins in cases:
        want = _cli_outcome(capsys, tmp_path, argv, docs)
        assert want[0] == 0 and want[2], argv
        for floated in twins:
            assert json.dumps(floated) != json.dumps(docs)
            assert _cli_outcome(capsys, tmp_path, argv, floated) == want, argv
    # Hopf elements have no command; the decoder gives the int twin's value
    H = TaftAlgebra(3)
    hopf = canonical(hopf_to_json(
        H.c() * H.v() + H.c().scale(zeta_power(3, 1))))
    for floated in (_one_float(hopf, ("m",)),
                    _one_float(hopf, ("terms", 0, "c")),
                    _one_float(hopf, ("terms", 0, "v")),
                    _floats(hopf, {"m", "c", "v"})):
        back = json_to_hopf(floated)
        assert back == json_to_hopf(hopf)
        assert all(type(i) is int and type(k) is int for i, k in back.terms)
        assert dumps_canonical(hopf_to_json(back)) == dumps_canonical(hopf)


# ------------------------------------ canonical writer vs json.dumps (oracle)


def _oracle(doc):
    """The canonical bytes as json.dumps writes them with its Python encoder."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _outcome(write, doc):
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_canonical(doc):
    assert _outcome(dumps_canonical, doc) == _outcome(_oracle, doc)


_NASTY = ["", "é", " ", "\x00\x1f\x7f", 'quote " and \\ back', "\ud800",
          "tab\tnew\nline", "日本", "\U0001f600", "m", "coeffs"]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 63, max_value=10 ** 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 2.0 ** 70, float("nan"),
                     float("inf"), -float("inf")]),
    st.text(), st.sampled_from(_NASTY))
# keys of one comparable kind per dict, as sort_keys needs; both writers
# raise the same TypeError on the mixed dicts
_KEYED = [st.text(), st.sampled_from(_NASTY),
          st.one_of(st.integers(), st.floats(), st.booleans()), st.none(),
          st.one_of(st.text(), st.integers())]
# field elements and near misses, from a small pool so that entries repeat
_ENTRIES = st.one_of(
    st.builds(lambda m, c: {"m": m, "coeffs": c}, st.integers(-3, 5),
              st.lists(st.sampled_from(["0", "1", "-1/2", "é"]), max_size=3)),
    st.builds(lambda m, c: {"m": m, "coeffs": c},
              st.sampled_from([True, False, 2.0, None, "2"]),
              st.lists(st.sampled_from(["0", "1"]), max_size=2)),
    st.builds(lambda m, c: {"m": m, "coeffs": c}, st.integers(2, 3),
              st.sampled_from([("1", "0"), ["1", 0], ["1", False], ["1", 1],
                               ["1", True], ["1", None], [1], [1.0], "10",
                               {"0": "1"}])),
    st.builds(lambda e: dict(e, extra=1), st.just({"m": 2, "coeffs": ["1"]})))


def _trees(kids):
    return st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(_ENTRIES, min_size=1, max_size=3).map(lambda xs: xs * 3),
        *[st.dictionaries(keys, kids, max_size=4) for keys in _KEYED])


_JSON = st.recursive(st.one_of(_SCALARS, _ENTRIES), _trees, max_leaves=30)


@given(_JSON)
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_canonical_writer_matches_json_dumps(doc):
    _assert_canonical(doc)


def test_canonical_writer_edge_cases():
    entry = {"coeffs": ["1", "-1/2"], "m": 3}
    deep = entry
    for i in range(150):
        deep = [deep, entry] if i % 2 else {"k%d" % i: deep, "e": entry}
    for doc in ([], {}, (), [[]], [{}], {"": {}}, [(), ()], (1, (2, ())),
                [True, 1, False, 0, 1.0, None], {True: 1, 2: 3, 1.5: 4},
                {None: []}, {float("nan"): 1, -0.0: 2, 1e16: 3},
                {"é": "\x00", "\n": 1}, -0.0, 1e16, float("nan"),
                float("inf"), 10 ** 40, "\ud800", True, None, deep,
                # one entry at several depths, and under a tuple
                [entry, [entry, [entry]], {"x": entry}, (entry, entry)],
                # equal as Python values, not as JSON
                [{"m": 2, "coeffs": c} for c in (["1", True], ["1", 1],
                                                 [1.0], [1], [0], [False])],
                [{"m": m, "coeffs": ["1"]} for m in (1, True, 1.0)],
                # sort_keys compares mixed keys: a TypeError from both
                {1: 2, "a": 3}):
        _assert_canonical(doc)
    for bad in ({(1, 2): 3}, [object()], {"x": {1, 2}}):
        with pytest.raises(TypeError):
            dumps_canonical(bad)
        assert _outcome(dumps_canonical, bad) == _outcome(_oracle, bad)


def test_canonical_writer_leaves_no_reference_cycle():
    entry = {"coeffs": ["1", "-1/2"], "m": 3}
    doc = {"rows": [[entry, {"a": [1, entry]}]] * 500, "t": (True, None)}
    for bad in (doc, [doc, object()]):
        enabled = gc.isenabled()
        gc.disable()
        try:
            _outcome(dumps_canonical, bad)  # warm
            gc.collect()
            _outcome(dumps_canonical, bad)
            # the TypeError's traceback is gone with _outcome's frame
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class _LooksLikeM(str):
    """A key that finds the value of "m" but is written as its own text."""

    def __eq__(self, other):
        return other == "m" or str.__eq__(self, other)

    def __hash__(self):
        return hash("m")


def test_canonical_writer_on_aliased_documents():
    entry = {"coeffs": ["1", "-1/2"], "m": 3}
    twin = {"coeffs": ["1", "-1/2"], "m": 3}
    coeffs = ["0", "1"]
    looks = [{"m": True, "coeffs": ["1"]}, {"m": 2.0, "coeffs": ["1"]},
             {"m": 2, "coeffs": [1]}, {"m": 2, "coeffs": ["1", None]},
             {"m": 2, "coeffs": ("1",)}, {"m": 2, "coeffs": ["1"], "x": 1},
             {}, {"m": 2}, {"m": 2, "x": ["1"]}, {"coeffs": ["1"], "x": 2},
             {_LooksLikeM("mass"): 2, "coeffs": ["1"]}]
    row = [entry, twin, entry]
    for doc in (
            # one entry dict at several indentation levels, deep ones first
            [[[entry]], entry, [entry, [entry]], {"x": [entry]}],
            {"a": entry, "b": [entry], "c": {"d": entry}},
            # the same level reached as a dict value and as a list item
            [{"a": entry}, [entry], ({"b": entry}, [entry])],
            # equal entries held as distinct objects
            [entry, twin, [twin, entry], {"a": twin, "b": entry}],
            # look-alikes, repeated at one level and at others
            looks + looks + [looks, [looks], {"x": looks}],
            # one list object repeated
            [row, row, [row, row], {"r": row, "s": row}],
            # as the writers share a table's cells: one cell list repeated
            # within a row, across rows, and at two indentation levels
            {"mult": [[row, row, [entry]], [row, [row]], [[[row]]]],
             "unit": row},
            # entries that share one coefficient list
            [{"m": 2, "coeffs": coeffs}, {"m": 3, "coeffs": coeffs},
             [{"m": 2, "coeffs": coeffs}], coeffs]):
        _assert_canonical(doc)


@st.composite
def _aliased(draw):
    """A document built from a pool of drawn values: each new list, tuple
    or dict takes its items from the pool, which holds every value drawn or
    built so far, so one object sits at several places and depths.  Dicts
    whose keys are "m" and "coeffs" are entries or look-alikes made of
    shared parts."""
    pool = draw(st.lists(st.one_of(
        _SCALARS, _ENTRIES, st.integers(2, 4),
        st.lists(st.sampled_from(["0", "1", "-1/2"]), max_size=3)),
        min_size=1, max_size=6))
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["list", "tuple", "dict", "entry"]))
        if kind == "entry":
            node = {"m": draw(st.sampled_from(pool)),
                    "coeffs": draw(st.sampled_from(pool))}
        elif kind == "dict":
            keys = draw(st.lists(st.sampled_from(
                ["m", "coeffs", "a", "b", "extra"]), unique=True, max_size=4))
            node = {k: draw(st.sampled_from(pool)) for k in keys}
        else:
            node = draw(st.lists(st.sampled_from(pool), max_size=5))
            if kind == "tuple":
                node = tuple(node)
        pool.append(node)
    return pool[-1] if draw(st.booleans()) else pool


@given(_aliased())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_canonical_writer_matches_json_dumps_on_shared_objects(doc):
    _assert_canonical(doc)


def _write_documents(directory):
    """Every document `taft fixtures`, `construct ss` and `construct nilext`
    write, and the verify, codim and hopf-check reports, as name -> text."""
    fx = directory / "fx"
    out = directory / "out"
    out.mkdir()

    def run(name, *argv):
        assert cli_main([*argv, "--out", str(out / name)]) == 0

    run("fixtures.json", "fixtures", "--out-dir", str(fx))
    for name in sorted(ss_specs()):
        run("ss_%s.json" % name, "construct", "ss",
            "--in", str(fx / (name + ".json")))
    for name in sorted(nilext_specs()):
        run("ext_%s.json" % name, "construct", "nilext",
            "--in", str(fx / (name + ".json")))
    run("verify_sweedler.json", "verify", "--in", str(fx / "sweedler2dim.json"))
    for name in sorted(negative_modules()):
        run("verify_%s.json" % name, "verify",
            "--in", str(fx / (name + ".json")))
    run("codim.json", "codim", "--in", str(fx / "sweedler2dim.json"),
        "--n", "3")
    run("codim_report.json", "codim", "--in", str(fx / "sweedler2dim.json"),
        "--n", "3", "--report", "json")
    for m in (2, 3):
        run("hopf_%d.json" % m, "hopf-check", "--m", str(m))
    texts = {p.name: p.read_text() for p in sorted(fx.glob("*.json"))}
    texts.update((p.name, p.read_text()) for p in sorted(out.glob("*.json")))
    return texts


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return _write_documents(tmp_path_factory.mktemp("written"))


def test_written_documents_are_json_dumps_bytes(written):
    assert len(written) == 39 + 1 + 32 + 4 + 3 + 2 + 2
    for name, text in written.items():
        doc = loads(text)
        assert text == _oracle(doc), name
        assert dumps_canonical(doc) == text, name


def test_report_objects_are_json_dumps_bytes():
    reports = [hma_verify(sweedler_two_dim()).to_json()]
    reports += [hma_verify(mod).to_json()
                for _, mod in sorted(negative_modules().items())]
    reports += [hopf_verify_axioms(TaftAlgebra(m)).to_json() for m in (2, 3)]
    mod = sweedler_two_dim()
    res = codimension(mod, 2)
    reports.append({"format": FORMAT_TAG, "n": res.n, "c": res.value,
                    "method": res.method, "wall_ms": res.wall_ms})
    reports += [vars(row) for row in codim_growth_report(mod, 3)]
    for doc in reports:
        assert dumps_canonical(doc) == _oracle(doc)
