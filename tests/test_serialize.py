"""JSON document round trips, schema rejection paths, canonical bytes."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import taftlab
from taftlab.constructions import build_nilpotent_extension, build_semisimple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (negative_modules, nilext_specs, ss_specs,
                              sweedler_two_dim)
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
)
from taftlab.taft_hopf import TaftAlgebra


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
    doc = algebra_to_json(a)
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
