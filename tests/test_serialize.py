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
from taftlab.cli import main as cli_main
from taftlab.constructions import build_nilpotent_extension, build_semisimple
from taftlab.cyclotomic import CycNum, zeta_power
from taftlab.errors import InputError
from taftlab.fixtures import (negative_modules, nilext_specs, ss_specs,
                              sweedler_two_dim)
from taftlab.hmodule import hma_verify
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
    # sharing does not change the bytes
    fresh = json.loads(json.dumps(doc))
    assert dumps_canonical(doc) == dumps_canonical(fresh) == \
        json.dumps(fresh, sort_keys=True, indent=2) + "\n"


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
