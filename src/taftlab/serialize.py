"""JSON encoding, decoding, and schema validation for every document type.

Every document carries a top-level ``"format": "taftlab/1"``.  Field
elements are ``{"m": m, "coeffs": ["p/q", ...]}`` with exact rational
strings (the coefficient list is the canonical residue, shortest first);
matrices are row-major nested lists of those.  The ``*_to_json`` writers
give each distinct field element of one document a single dict that all its
entries share, so a caller edits only a copy rebuilt through
``loads(dumps_canonical(doc))`` (``copy.deepcopy`` keeps the sharing).
``dumps_canonical`` emits sorted-key two-space-indented JSON so parse ->
emit -> parse is the identity on canonical files.  Its bytes are those of
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, but it does not run
json's generator-based Python encoder (which ``indent`` selects): it appends
the pieces of one walk to a list, joins once, and renders each distinct field
element once per indentation level.  The text of an entry is found by the
entry dict's identity, and by its content only the first time that dict is
met at that level, so a table of shared dicts costs one dict lookup per
entry; a new entry's text is built in one expression.  On a 2-CPU Xeon
host (medians of 11, three runs) the 5.9 MB dim-36 M_3(F)^4 module takes
0.014-0.023 s (json.dumps: 0.55-0.62 s), and a dim-20 table whose entries
are all distinct 0.045-0.060 s (json.dumps: 0.09-0.10 s).

Decoders validate against a JSON schema first, then rebuild the domain
object, whose own constructor re-checks the semantic invariants
(associativity, Hopf relations, grading compatibility, and so on).  Each
schema is compiled once into a plain-Python predicate with the Draft 2020-12
verdict for the keywords these schemas use; ``jsonschema`` is imported and
run only when that predicate rejects a document, to word the InputError with
the offending path.  Each ``validate`` call, and each decoder call, keeps one
memo for its document, keyed on an entry's content ``(m, *coeffs)`` when it
has just those two keys, an int m and a list of coefficients (``validate``
also asks for exact ``str`` coefficients): each distinct entry is
schema-checked once and parsed once, and every other entry costs one key and
one dict lookup.  Equal keys give equal verdicts, so nothing is sampled;
any other entry is checked and parsed on its own.  The memo dies with the
call, so no state carries from one document to the next.  Draft 2020-12
counts an integral float such as ``2.0`` as an integer; the decoders read
every schema integer as an int, so such a document reads as its int twin.
"""

from __future__ import annotations

import json
import numbers
import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .algebra_core import FinDimAlgebra, GradingDecomposition, grading_from_c
from .constructions import NilpotentExtensionSpec, SemisimpleSpec
from .cyclotomic import CycNum
from .errors import InputError
from .hmodule import HModuleAlgebra
from .linalg import Matrix
from .taft_hopf import HopfElement, TaftAlgebra

FORMAT_TAG = "taftlab/1"

_RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/-?[0-9]+)?$"}
_CYC = {
    "type": "object",
    "required": ["m", "coeffs"],
    "additionalProperties": False,
    "properties": {
        "m": {"type": "integer", "minimum": 2},
        "coeffs": {"type": "array", "items": _RATIONAL},
    },
}
_VECTOR = {"type": "array", "items": _CYC}
_MATRIX = {"type": "array", "items": _VECTOR}
_ALGEBRA_FIELDS = {
    "dim": {"type": "integer", "minimum": 1},
    "mult": {"type": "array", "items": {"type": "array", "items": _VECTOR}},
    "unit": {"anyOf": [{"type": "null"}, _VECTOR]},
}
_ALGEBRA_OBJ = {
    "type": "object",
    "required": ["dim", "mult"],
    "additionalProperties": False,
    "properties": dict(_ALGEBRA_FIELDS),
}
_FORMAT = {"const": FORMAT_TAG}


def _doc(required, properties):
    props = {"format": _FORMAT}
    props.update(properties)
    return {
        "type": "object",
        "required": ["format"] + required,
        "additionalProperties": False,
        "properties": props,
    }


ALGEBRA_SCHEMA = _doc(["dim", "mult"], _ALGEBRA_FIELDS)
HMA_SCHEMA = _doc(["m", "algebra", "c", "v"], {
    "m": {"type": "integer", "minimum": 2},
    "algebra": _ALGEBRA_OBJ,
    "c": _MATRIX,
    "v": _MATRIX,
})
SS_SPEC_SCHEMA = _doc(["m", "k", "t", "P", "Q"], {
    "m": {"type": "integer", "minimum": 2},
    "k": {"type": "integer", "minimum": 1},
    "t": {"type": "integer", "minimum": 1},
    "P": _MATRIX,
    "Q": _MATRIX,
    "alpha": _CYC,
})
NILEXT_SCHEMA = _doc(["m", "algebra", "c"], {
    "m": {"type": "integer", "minimum": 2},
    "algebra": _ALGEBRA_OBJ,
    "c": _MATRIX,
})
MATRIX_SCHEMA = _doc(["m", "rows"], {
    "m": {"type": "integer", "minimum": 2},
    "rows": _MATRIX,
})
HOPF_SCHEMA = _doc(["m", "terms"], {
    "m": {"type": "integer", "minimum": 2},
    "terms": {
        "type": "array",
        "items": {
            "type": "object",
            "required": ["c", "v", "coeff"],
            "additionalProperties": False,
            "properties": {
                "c": {"type": "integer", "minimum": 0},
                "v": {"type": "integer", "minimum": 0},
                "coeff": _CYC,
            },
        },
    },
})


_KEYWORDS = frozenset(("type", "const", "minimum", "pattern", "required",
                       "properties", "additionalProperties", "items", "anyOf"))


def _is_integer(x) -> bool:
    # bool subclasses int but is no JSON integer; an integral float is one
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _integer(x):
    """A schema integer as an int: Draft 2020-12 counts 2.0 as one."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


_TYPES = {
    "object": lambda x, memo: isinstance(x, dict),
    "array": lambda x, memo: isinstance(x, list),
    "string": lambda x, memo: isinstance(x, str),
    "null": lambda x, memo: x is None,
    "integer": lambda x, memo: _is_integer(x),
}

_STR_ONLY = frozenset((str,))


def _entry_key(x):
    """``(m, *coeffs)`` for a field element whose values have exactly the
    types json.loads gives them (int m, a list of str), else None.  Such
    entries with equal keys are equal JSON values."""
    if type(x) is dict and len(x) == 2:
        m = x.get("m")
        coeffs = x.get("coeffs")
        if (type(m) is int and type(coeffs) is list
                and _STR_ONLY.issuperset(map(type, coeffs))):
            return (m, *coeffs)
    return None


def _both(first, rest):
    return lambda x, memo: first(x, memo) and rest(x, memo)


def compile_schema(schema):
    """A predicate giving the Draft 2020-12 verdict of ``schema`` on a document.

    Covers exactly the keywords the schemas above use; any other keyword, or
    a form of one not used here, raises ValueError rather than being
    ignored.  As in the specification, each keyword but ``type`` passes
    instances of the types it does not apply to.  Each call checks each
    distinct field element of the document once (see ``_compile``).
    """
    check = _compile(schema)
    return lambda doc: check(doc, {})


def _compile(schema):
    """``compile_schema``'s predicate as ``test(x, memo)``.  An array of
    field elements looks each exact entry up in memo, one dict per document
    mapping ``_entry_key`` to the verdict: the verdict depends on the key
    alone, so equal entries are checked once."""
    if not (isinstance(schema, dict) and _KEYWORDS.issuperset(schema)
            and schema.get("type", "object") in _TYPES):
        raise ValueError("no compiled check for schema %r" % (schema,))
    kind = schema.get("type")
    tests = []
    # a keyword test for the schema's own type also checks that type, which
    # then needs no test of its own (kind = None)
    if "const" in schema:
        const = schema["const"]
        if not isinstance(const, str):
            raise ValueError("only string constants are compiled")
        tests.append(lambda x, memo: x == const)
    if "minimum" in schema:
        low = schema["minimum"]
        if kind == "integer":
            tests.append(lambda x, memo: _is_integer(x) and not x < low)
            kind = None
        else:
            tests.append(lambda x, memo: not (_is_number(x) and x < low))
    if "pattern" in schema:
        search = re.compile(schema["pattern"]).search
        if kind == "string":
            tests.append(lambda x, memo: isinstance(x, str)
                         and search(x) is not None)
            kind = None
        else:
            tests.append(lambda x, memo: not isinstance(x, str)
                         or search(x) is not None)
    if "items" in schema:
        item = _compile(schema["items"])
        if schema["items"] == _CYC:
            tests.append(_entries_test(item, kind == "array"))
        else:
            tests.append(_items_test(item, kind == "array"))
        if kind == "array":
            kind = None
    if not {"required", "properties", "additionalProperties"}.isdisjoint(schema):
        tests.append(_object_test(schema, kind == "object"))
        if kind == "object":
            kind = None
    if "anyOf" in schema:
        options = tuple(_compile(s) for s in schema["anyOf"])
        tests.append(lambda x, memo: any(f(x, memo) for f in options))
    if kind is not None:
        tests.insert(0, _TYPES[kind])
    if not tests:
        raise ValueError("empty schema")
    check = tests.pop()
    while tests:
        check = _both(tests.pop(), check)
    return check


def _items_test(item, strict):
    def test(x, memo):
        if not isinstance(x, list):
            return not strict
        for y in x:
            if not item(y, memo):
                return False
        return True
    return test


def _entries_test(check, strict):
    """_items_test for a list of field elements: each exact entry's verdict
    is looked up in memo, which maps ``_entry_key`` (inlined) to it."""
    def test(x, memo):
        if not isinstance(x, list):
            return not strict
        for y in x:
            if type(y) is dict and len(y) == 2:
                m = y.get("m")
                coeffs = y.get("coeffs")
                if (type(m) is int and type(coeffs) is list
                        and _STR_ONLY.issuperset(map(type, coeffs))):
                    key = (m, *coeffs)
                    verdict = memo.get(key)
                    if verdict is None:
                        verdict = memo[key] = check(y, memo)
                    if verdict:
                        continue
                    return False
            if not check(y, memo):
                return False
        return True
    return test


def _object_test(schema, strict):
    required = tuple(schema.get("required", ()))
    props = schema.get("properties", {})
    fields = tuple((k, _compile(s)) for k, s in props.items())
    closed = schema.get("additionalProperties", True)
    if closed is not True and closed is not False:
        raise ValueError("only boolean additionalProperties are compiled")
    names = frozenset(props)

    def test(x, memo):
        if not isinstance(x, dict):
            return not strict
        for k in required:
            if k not in x:
                return False
        if not closed and not names.issuperset(x):
            return False
        for k, f in fields:
            if k in x and not f(x[k], memo):
                return False
        return True
    return test


_CHECKS = {id(s): _compile(s) for s in (
    ALGEBRA_SCHEMA, HMA_SCHEMA, SS_SPEC_SCHEMA, NILEXT_SCHEMA, MATRIX_SCHEMA,
    HOPF_SCHEMA)}


def dumps_canonical(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs its generator-based Python
    encoder, one frame per chunk.  This writer walks the same tree with the
    same type dispatch (``str`` first, ``True``/``False`` before ``int``,
    tuples as arrays, keys sorted on their original values and then
    converted as json converts them), appends the pieces to one list and
    joins once.  Strings go through json's C ``encode_basestring_ascii``;
    floats and anything else not handled here go to ``json.dumps`` itself,
    so ``NaN``, ``-0.0`` and the TypeError for unserialisable objects are
    json's own.  A field element ``{"coeffs": [str, ...], "m": int}`` is
    rendered once per indentation level and its text reused: a table
    repeats a handful of distinct entries thousands of times, and the
    ``*_to_json`` writers give those a handful of shared dicts.  So the text
    is found by the dict's identity first, and by its content the first time
    that dict is met at that level.  The document keeps every dict alive
    for the call, so no id is reused.
    """
    out = []
    append = out.append
    # level -> {id of a two-key dict: its text, or False if no entry}
    by_id = defaultdict(dict)
    by_content = {}

    def write(value, level):
        # an exact dict is no other JSON type, so the entry test can go first
        if type(value) is dict and len(value) == 2:
            seen = by_id[level]
            text = seen.get(id(value))
            if text is None:
                text = seen[id(value)] = entry_text(value, level)
            if text:
                append(text)
                return
        if isinstance(value, str):
            append(_quote(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            write_list(value, level)
        elif isinstance(value, dict):
            write_dict(value, level)
        else:
            append(json.dumps(value))

    def entry_text(value, level):
        """value's text if it is a field element of exact types, str keys
        included, else False."""
        key = _entry_key(value)
        if key is None or not _STR_ONLY.issuperset(map(type, value)):
            return False
        key = (level, *key)
        text = by_content.get(key)
        if text is None:
            # write_dict's text for the keys "coeffs" < "m"
            inner = "\n" + "  " * (level + 1)
            coeffs = value["coeffs"]
            if coeffs:
                deeper = inner + "  "
                coeffs = ("[" + deeper
                          + ("," + deeper).join(map(_quote, coeffs))
                          + inner + "]")
            else:
                coeffs = "[]"
            text = by_content[key] = (
                "{" + inner + '"coeffs": ' + coeffs + "," + inner + '"m": '
                + int.__repr__(value["m"]) + "\n" + "  " * level + "}")
        return text

    def write_list(items, level):
        if not items:
            append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        between = "," + inner
        # a hit is an entry met before: no other live object has its id
        seen = by_id[level + 1]
        for item in items:
            append(sep)
            sep = between
            if isinstance(item, str):
                append(_quote(item))
                continue
            text = seen.get(id(item))
            if text is None and type(item) is dict and len(item) == 2:
                text = seen[id(item)] = entry_text(item, level + 1)
            if text:
                append(text)
            else:
                write(item, level + 1)
        append("\n" + "  " * level + "]")

    def write_dict(dct, level):
        if not dct:
            append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        between = "," + inner
        for key, value in sorted(dct.items()):
            if isinstance(key, str):
                pass
            elif isinstance(key, float):
                key = json.dumps(key)
            elif key is True:
                key = "true"
            elif key is False:
                key = "false"
            elif key is None:
                key = "null"
            elif isinstance(key, int):
                key = int.__repr__(key)
            else:
                raise TypeError("keys must be str, int, float, bool or None, "
                                "not %s" % key.__class__.__name__)
            append(sep)
            sep = between
            append(_quote(key))
            append(": ")
            write(value, level + 1)
        append("\n" + "  " * level + "}")

    write(doc, 0)
    append("\n")
    return "".join(out)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON: %s" % exc)


def validate(doc, schema, what: str) -> None:
    """Schema check with the failing path in the error message."""
    check = _CHECKS.get(id(schema)) or _compile(schema)
    if check(doc, {}):
        return
    import jsonschema  # only to word the rejection
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise InputError("invalid %s document: %s (at %s)"
                         % (what, err.message, err.json_path))


# ---------------------------------------------------------------- scalars

def cyc_to_json(x: CycNum) -> dict:
    return x.to_json()


def json_to_cyc(obj, m: int | None = None) -> CycNum:
    own = _integer(obj["m"])
    if m is not None and own != m:
        raise InputError("field element has conductor %d; expected %d"
                         % (own, m))
    return _parse_cyc(own, tuple(obj["coeffs"]))


# typed: m = 2.0 must not share the entries of m = 2
@lru_cache(maxsize=4096, typed=True)
def _parse_cyc(m, coeffs: tuple) -> CycNum:
    try:
        fracs = [Fraction(s) for s in coeffs]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad rational coefficient: %s" % exc)
    return CycNum.make(m, fracs)


def matrix_to_json(mat: Matrix, memo: _EntryDicts | None = None) -> list:
    """Row-major entry dicts; equal entries share one (see vector_to_json)."""
    memo = _EntryDicts() if memo is None else memo
    return [vector_to_json(row, memo) for row in mat.rows]


def json_to_matrix(obj, m: int, *, what: str = "matrix",
                   memo: dict | None = None) -> Matrix:
    if not obj:
        raise InputError("%s must have at least one row" % what)
    memo = {} if memo is None else memo
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise InputError("%s row %d has length %d; expected %d"
                             % (what, i, len(row), width))
        rows.append(json_to_vector(row, m, memo))
    return Matrix.from_rows(m, rows)


def matrix_doc_to_json(mat: Matrix) -> dict:
    return {"format": FORMAT_TAG, "m": mat.m, "rows": matrix_to_json(mat)}


def json_to_matrix_doc(doc) -> Matrix:
    validate(doc, MATRIX_SCHEMA, "matrix")
    return json_to_matrix(doc["rows"], _integer(doc["m"]))


class _EntryDicts:
    """The entry dicts of one document being written.  ``by_value`` maps
    each CycNum value to its one dict; ``by_id`` maps the id of each CycNum
    object met to the same dict, so a repeated object is not hashed again,
    and ``alive`` keeps those objects, so no id in it is reused."""

    __slots__ = ("by_id", "by_value", "alive")

    def __init__(self):
        self.by_id = {}
        self.by_value = {}
        self.alive = []


def vector_to_json(vec, memo: _EntryDicts | None = None) -> list:
    """The entries' dicts.  memo holds every CycNum already written into
    the document, so equal entries share one dict."""
    memo = _EntryDicts() if memo is None else memo
    by_id, by_value = memo.by_id, memo.by_value
    out = []
    for x in vec:
        d = by_id.get(id(x))
        if d is None:
            d = by_value.get(x)
            if d is None:
                d = by_value[x] = x.to_json()
            by_id[id(x)] = d
            memo.alive.append(x)
        out.append(d)
    return out


def json_to_vector(obj, m: int, memo: dict | None = None) -> tuple:
    """The entries as CycNums.  memo maps the key ``(m, *coeffs)`` of each
    entry of conductor m already read from the document to its CycNum, so
    each distinct entry is parsed once; any other entry (a bool or float m,
    another conductor, a key besides "m" and "coeffs") goes through
    json_to_cyc.  Unlike ``_entry_key`` this does not test the coefficients'
    types, which costs more than the memo saves: a key holding a
    non-``str`` coefficient equals no key of strings, and equal keys parse
    to equal values."""
    memo = {} if memo is None else memo
    out = []
    for x in obj:
        if type(x) is dict and len(x) == 2:
            own = x.get("m")
            coeffs = x.get("coeffs")
            if own == m and type(own) is int and type(coeffs) is list:
                key = (own, *coeffs)
                y = memo.get(key)
                if y is None:
                    y = memo[key] = json_to_cyc(x, m)
                out.append(y)
                continue
        out.append(json_to_cyc(x, m))
    return tuple(out)


# --------------------------------------------------------------- algebras

def _algebra_body(a: FinDimAlgebra, memo: _EntryDicts) -> dict:
    return {
        "dim": a.dim,
        "mult": [[vector_to_json(cell, memo) for cell in row] for row in a.mult],
        "unit": None if a.unit is None else vector_to_json(a.unit, memo),
    }


def algebra_to_json(a: FinDimAlgebra) -> dict:
    doc = {"format": FORMAT_TAG}
    doc.update(_algebra_body(a, _EntryDicts()))
    return doc


def _algebra_from_body(obj, m: int | None = None,
                       memo: dict | None = None) -> FinDimAlgebra:
    memo = {} if memo is None else memo
    dim = _integer(obj["dim"])
    mult = obj["mult"]
    if len(mult) != dim:
        raise InputError("mult table has %d rows; dim is %d" % (len(mult), dim))
    if m is None:
        # conductor lives on the entries; find any one of them
        for row in mult:
            for cell in row:
                for entry in cell:
                    m = _integer(entry["m"])
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
            cells.append(json_to_vector(cell, m, memo))
        table.append(tuple(cells))
    unit = obj.get("unit")
    if unit is not None:
        if len(unit) != dim:
            raise InputError("unit has length %d; dim is %d" % (len(unit), dim))
        unit = json_to_vector(unit, m, memo)
    return FinDimAlgebra(m, tuple(table), unit=unit)


def json_to_algebra(doc) -> FinDimAlgebra:
    validate(doc, ALGEBRA_SCHEMA, "algebra")
    return _algebra_from_body(doc)


# ---------------------------------------------------------- module algebras

def hma_to_json(mod: HModuleAlgebra) -> dict:
    memo = _EntryDicts()
    return {
        "format": FORMAT_TAG,
        "m": mod.m,
        "algebra": _algebra_body(mod.algebra, memo),
        "c": matrix_to_json(mod.c_op, memo),
        "v": matrix_to_json(mod.v_op, memo),
    }


def json_to_hma(doc) -> HModuleAlgebra:
    validate(doc, HMA_SCHEMA, "module algebra")
    m = _integer(doc["m"])
    memo = {}
    algebra = _algebra_from_body(doc["algebra"], m, memo)
    c_op = json_to_matrix(doc["c"], m, what="c operator", memo=memo)
    v_op = json_to_matrix(doc["v"], m, what="v operator", memo=memo)
    return HModuleAlgebra(hopf=TaftAlgebra(m), algebra=algebra,
                          c_op=c_op, v_op=v_op)


# ------------------------------------------------------------------- specs

def ss_spec_to_json(spec: SemisimpleSpec) -> dict:
    memo = _EntryDicts()
    return {
        "format": FORMAT_TAG,
        "m": spec.m,
        "k": spec.k,
        "t": spec.t,
        "P": matrix_to_json(spec.P, memo),
        "Q": matrix_to_json(spec.Q, memo),
        "alpha": cyc_to_json(spec.alpha),
    }


def json_to_ss_spec(doc) -> SemisimpleSpec:
    validate(doc, SS_SPEC_SCHEMA, "semisimple spec")
    m = _integer(doc["m"])
    memo = {}
    spec = SemisimpleSpec(
        m=m, k=_integer(doc["k"]), t=_integer(doc["t"]),
        P=json_to_matrix(doc["P"], m, what="P", memo=memo),
        Q=json_to_matrix(doc["Q"], m, what="Q", memo=memo),
    )
    if "alpha" in doc:
        claimed = json_to_cyc(doc["alpha"], m)
        if claimed != spec.alpha:
            raise InputError("document claims alpha = %r but P^m gives %r"
                             % (claimed, spec.alpha))
    return spec


def nilext_spec_to_json(spec: NilpotentExtensionSpec, c_op: Matrix) -> dict:
    """The base-algebra document; the grading travels as its c operator."""
    memo = _EntryDicts()
    return {
        "format": FORMAT_TAG,
        "m": spec.m,
        "algebra": _algebra_body(spec.B, memo),
        "c": matrix_to_json(c_op, memo),
    }


def grading_to_c_matrix(grading: GradingDecomposition) -> Matrix:
    """The diagonalizable operator acting by zeta^i on component i."""
    from .cyclotomic import zeta_power
    from .linalg import vec_scale
    m, n = grading.m, grading.ambient
    cols = []
    vecs = []
    for g, comp in enumerate(grading.components):
        for v in comp.basis:
            vecs.append(v)
            cols.append(vec_scale(zeta_power(m, g), v))
    basis_mat = Matrix(m, tuple(zip(*vecs)))
    image_mat = Matrix(m, tuple(zip(*cols)))
    return image_mat @ basis_mat.inverse()


def json_to_nilext_spec(doc) -> NilpotentExtensionSpec:
    validate(doc, NILEXT_SCHEMA, "base algebra")
    m = _integer(doc["m"])
    memo = {}
    B = _algebra_from_body(doc["algebra"], m, memo)
    c_op = json_to_matrix(doc["c"], m, what="grading operator", memo=memo)
    grading = grading_from_c(B, c_op)
    return NilpotentExtensionSpec(m=m, B=B, grading=grading)


# ------------------------------------------------------------ Hopf elements

def hopf_to_json(x: HopfElement) -> dict:
    terms = [{"c": i, "v": k, "coeff": cyc_to_json(coeff)}
             for (i, k), coeff in sorted(x.terms.items())]
    return {"format": FORMAT_TAG, "m": x.algebra.m, "terms": terms}


def json_to_hopf(doc) -> HopfElement:
    validate(doc, HOPF_SCHEMA, "Hopf element")
    m = _integer(doc["m"])
    H = TaftAlgebra(m)
    terms = {}
    for entry in doc["terms"]:
        i, k = _integer(entry["c"]), _integer(entry["v"])
        if i >= m or k >= m:
            raise InputError("basis monomial (c=%d, v=%d) out of range for "
                             "conductor %d" % (i, k, m))
        key = (i, k)
        coeff = json_to_cyc(entry["coeff"], m)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return HopfElement(H, terms)
