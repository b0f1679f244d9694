"""JSON encoding, decoding, and schema validation for every document type.

Every document carries a top-level ``"format": "taftlab/1"``.  Field
elements are ``{"m": m, "coeffs": ["p/q", ...]}`` with exact rational
strings (the coefficient list is the canonical residue, shortest first);
matrices are row-major nested lists of those.  The ``*_to_json`` writers
give each distinct field element of one document a single dict that all its
entries share, and each distinct cell object of a table a single list, so a
caller edits only a copy rebuilt through ``loads(dumps_canonical(doc))``
(``copy.deepcopy`` keeps the sharing).  ``dumps_canonical`` emits
sorted-key two-space-indented JSON so parse -> emit -> parse is the identity
on canonical files.  Its bytes are those of
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, but it does not run
json's generator-based Python encoder (which ``indent`` selects): it appends
the pieces of one walk to a list, joins once, and renders each field element
dict and each list once per indentation level.  The text of an entry or a
list met before is found by its identity, so a table of shared cells costs
one dict lookup per cell; a new entry's text is built in one expression.
On a 2-CPU Xeon host (medians of 11, three runs) the 5.9 MB dim-36
M_3(F)^4 module takes 1.9 ms (9-17 ms with one text per entry,
json.dumps: 0.55-0.62 s), and a dim-20 table whose entries are all
distinct 0.045-0.060 s (json.dumps: 0.09-0.10 s).

Decoders read a table-holding document in one walk (``_Walk``) that
checks, parses and indexes each distinct entry once, then rebuild the domain
object, whose own constructor re-checks the semantic invariants
(associativity, grading compatibility, and so on).  The walk accepts only
what a valid document holds in the exact types json.loads gives it: dicts
with the schema's keys, ints where it asks for integers, lists for arrays
and field elements.  It keys each entry on its content ``(m, *coeffs)`` and
keeps the parsed CycNum only once the entry has passed the entry schema
(just the keys m and coeffs, an int m equal to the document's conductor,
str coefficients matching the rational pattern); a later entry with an
equal key needs no check, since a str equals only a str, and costs one key
and one dict lookup.  Cells are built as tuples of those CycNums, every
zero entry the field's one zero, so the same walk gives the algebra its
nonzero index.  ``validate`` runs only on the first thing the walk does not
accept, and before any InputError leaves a decoder: a schema error anywhere
in the document is raised first, as when every document was validated
before it was decoded, and a semantic error only for a valid document, in
the order the walk meets it (the table and the algebra's own checks before
c and v).  A valid document the walk does not accept reads on in the
schema's other forms: Draft 2020-12 counts an integral float such as
``2.0`` as an integer, and the decoders read every schema integer as an
int, so such a document reads as its int twin.  The memo dies with the
call, so no state carries from one document to the next.  On a 2-CPU Xeon
host the 34 module algebras of the benchmark's certify workload read in
0.012-0.015 s, against 0.023-0.025 s when each was validated and then
decoded (in process, best of 7 to 9 passes, seven alternating runs).  A
Hopf element, a short list of terms, is validated and then decoded.

``validate`` is the one schema authority.  Each schema is compiled once
into a plain-Python predicate with the Draft 2020-12 verdict for the
keywords these schemas use; ``jsonschema`` is imported and run only when
that predicate rejects a document, to word the InputError with the
offending path.  Each call keeps one memo for its document, keyed on an
entry's ``(m, *coeffs)`` when it has just those two keys, an int m and a
list of exact ``str`` coefficients, so each distinct entry is checked once;
equal keys give equal verdicts, so nothing is sampled.
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
    rendered once per dict and indentation level and its text reused: a
    table repeats a handful of distinct entries thousands of times, and the
    ``*_to_json`` writers give those a handful of shared dicts, so the text
    is found by the dict's identity.  A list or tuple met again at the same
    indentation level is written as the text of its first rendering, joined
    from its pieces at the first repeat: the writers give each distinct
    cell object of a table one shared list.  The document keeps every dict
    and list alive for the call, so no id is reused.
    """
    out = []
    append = out.append
    # level -> {id of a two-key dict: its text, or False if no entry}
    by_id = defaultdict(dict)
    # level -> {id of a list or tuple: its (start, end) in out, or its text}
    lists = defaultdict(dict)

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
        if (_entry_key(value) is None
                or not _STR_ONLY.issuperset(map(type, value))):
            return False
        # write_dict's text for the keys "coeffs" < "m"
        inner = "\n" + "  " * (level + 1)
        coeffs = value["coeffs"]
        if coeffs:
            deeper = inner + "  "
            coeffs = ("[" + deeper + ("," + deeper).join(map(_quote, coeffs))
                      + inner + "]")
        else:
            coeffs = "[]"
        return ("{" + inner + '"coeffs": ' + coeffs + "," + inner + '"m": '
                + int.__repr__(value["m"]) + "\n" + "  " * level + "}")

    def write_list(items, level):
        # a list met before at this level: its text, joined from its pieces
        # in out at the first repeat
        met = lists[level]
        got = met.get(id(items))
        if got is not None:
            if type(got) is tuple:
                got = met[id(items)] = "".join(out[got[0]:got[1]])
            append(got)
            return
        if not items:
            append("[]")
            return
        start = len(out)
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
        met[id(items)] = start, len(out)

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

    try:
        write(doc, 0)
    finally:
        # the three writers call each other through closure cells: empty
        # the cells so that the pieces and caches go when the call returns,
        # not when the cyclic collector next runs
        del write, write_list, write_dict
    append("\n")
    return "".join(out)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is the
    caller's input at fault, so it raises InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc))


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


# ---------------------------------------------------------------- reading

_RATIONAL_SEARCH = re.compile(_RATIONAL["pattern"]).search
_ALGEBRA_KEYS = frozenset(ALGEBRA_SCHEMA["required"])
_UNIT = frozenset(("unit",))
_BODY_KEYS = frozenset(_ALGEBRA_OBJ["required"])
_HMA_KEYS = frozenset(HMA_SCHEMA["required"])
_SS_SPEC_KEYS = frozenset(SS_SPEC_SCHEMA["required"])
_NILEXT_KEYS = frozenset(NILEXT_SCHEMA["required"])
_MATRIX_KEYS = frozenset(MATRIX_SCHEMA["required"])


class _Walk:
    """One decoding walk over one document (see the module docstring).

    Used as ``with walk:`` around a decoder's body.  Reading checks what
    it reads, in the order the decoder reads it, and accepts only what a
    valid document holds in the exact types json.loads gives it.  At the
    first thing it does not accept it calls ``check``, which validates the
    whole document once and so raises the schema's error; a valid
    document then reads on in the schema's other forms (an integral float
    where an integer is asked for).  An InputError leaving the body also
    calls ``check`` first, so a semantic error is raised only for a valid
    document.
    """

    __slots__ = ("doc", "schema", "what", "checked", "m", "memo")

    def __init__(self, doc, schema, what: str):
        self.doc, self.schema, self.what = doc, schema, what
        self.checked = False
        # the document's conductor, set by the decoder or, for an algebra
        # document, read off its first entry
        self.m = None
        # (m, *coeffs) of each exact entry read -> its CycNum
        self.memo = {}

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, InputError):
            self.check()
        return False

    def check(self) -> None:
        if not self.checked:
            validate(self.doc, self.schema, self.what)
            self.checked = True

    def fields(self, obj, keys, optional=frozenset()) -> None:
        """obj a dict with keys and perhaps some of optional; where keys
        hold the format, its tag."""
        if (type(obj) is not dict or not obj.keys() >= keys
                or not obj.keys() <= keys | optional
                or ("format" in keys and obj["format"] != FORMAT_TAG)):
            self.check()

    def integer(self, x, low: int) -> int:
        if type(x) is not int or x < low:
            self.check()
            return _integer(x)
        return x

    def entry(self, x) -> CycNum:
        """A field element the memo does not hold.  One of exact types
        that the entry schema accepts with the document's conductor is
        parsed and kept under its key; any other first has the document
        checked.  A zero entry reads as the field's one zero, which the
        nonzero index of the algebra tests by identity."""
        m = self.m
        if type(x) is dict and len(x) == 2:
            own, coeffs = x.get("m"), x.get("coeffs")
            if (type(own) is int and own == m and type(coeffs) is list
                    and all(type(s) is str and _RATIONAL_SEARCH(s)
                            for s in coeffs)):
                y = self.memo[(m, *coeffs)] = json_to_cyc(x, m) or CycNum.zero(m)
                return y
        self.check()
        return json_to_cyc(x, m) or CycNum.zero(m)

    def vector(self, obj) -> tuple:
        """The field elements of the list obj.  An exact entry met before
        costs one key and one lookup: its key equals only the key of an
        entry the schema accepted, since a str equals only a str."""
        get = self.memo.get
        out = []
        try:
            for x in obj:
                if type(x) is dict and len(x) == 2:
                    own = x["m"]
                    coeffs = x["coeffs"]
                    if type(own) is int and type(coeffs) is list:
                        y = get((own, *coeffs))
                        if y is not None:
                            out.append(y)
                            continue
                out.append(self.entry(x))
        except (KeyError, TypeError):
            # a two-key entry missing m or coeffs, or an unhashable
            # coefficient: no valid document has either
            self.check()
            raise
        return tuple(out)

    def matrix(self, obj, what: str) -> Matrix:
        if type(obj) is not list:
            self.check()
        if not obj:
            raise InputError("%s must have at least one row" % what)
        if type(obj[0]) is not list:
            self.check()
        width = len(obj[0])
        rows = []
        for i, row in enumerate(obj):
            if type(row) is not list:
                self.check()
            if len(row) != width:
                raise InputError("%s row %d has length %d; expected %d"
                                 % (what, i, len(row), width))
            rows.append(self.vector(row))
        return Matrix(self.m, tuple(rows))

    def algebra(self, body, keys) -> FinDimAlgebra:
        """The algebra of an object with keys, dim and mult among them, and
        perhaps unit; its conductor the walk's or, if none is set, its
        first entry's."""
        self.fields(body, keys, _UNIT)
        dim = self.integer(body["dim"], 1)
        mult = body["mult"]
        if type(mult) is not list:
            self.check()
        if len(mult) != dim:
            raise InputError("mult table has %d rows; dim is %d"
                             % (len(mult), dim))
        if self.m is None:
            self.m = self.first_conductor(mult)
        table = []
        for i, row in enumerate(mult):
            if type(row) is not list:
                self.check()
            if len(row) != dim:
                raise InputError("mult row %d has %d cells; dim is %d"
                                 % (i, len(row), dim))
            cells = []
            for j, cell in enumerate(row):
                if type(cell) is not list:
                    self.check()
                if len(cell) != dim:
                    raise InputError("mult entry (%d, %d) has length %d; "
                                     "dim is %d" % (i, j, len(cell), dim))
                cells.append(self.vector(cell))
            table.append(tuple(cells))
        unit = body.get("unit")
        if unit is not None:
            if type(unit) is not list:
                self.check()
            if len(unit) != dim:
                raise InputError("unit has length %d; dim is %d"
                                 % (len(unit), dim))
            unit = self.vector(unit)
        # every zero entry is the one zero, so an all-zero cell compares
        # equal by identity alone
        zero = CycNum.zero(self.m)
        zeros = (zero,) * dim
        nz = tuple(tuple(() if cell == zeros else tuple(
            [(a, x) for a, x in enumerate(cell) if x is not zero])
            for cell in row) for row in table)
        return FinDimAlgebra._of_cells(self.m, tuple(table), unit, nz)

    def first_conductor(self, mult) -> int:
        """The conductor of the table's first entry."""
        for row in mult:
            if type(row) is not list:
                self.check()
            for cell in row:
                if type(cell) is not list:
                    self.check()
                for entry in cell:
                    m = entry.get("m") if type(entry) is dict else None
                    if type(m) is not int or m < 2:
                        self.check()
                        m = _integer(entry["m"])
                    return m
        raise InputError("cannot infer the conductor from an empty table")


def matrix_to_json(mat: Matrix, memo: _EntryDicts | None = None) -> list:
    """Row-major entry dicts; equal entries share one (see vector_to_json)."""
    memo = _EntryDicts() if memo is None else memo
    return [vector_to_json(row, memo) for row in mat.rows]


def matrix_doc_to_json(mat: Matrix) -> dict:
    return {"format": FORMAT_TAG, "m": mat.m, "rows": matrix_to_json(mat)}


def json_to_matrix_doc(doc) -> Matrix:
    with _Walk(doc, MATRIX_SCHEMA, "matrix") as walk:
        walk.fields(doc, _MATRIX_KEYS)
        walk.m = walk.integer(doc["m"], 2)
        return walk.matrix(doc["rows"], "matrix")


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


# --------------------------------------------------------------- algebras

def _algebra_body(a: FinDimAlgebra, memo: _EntryDicts) -> dict:
    """dim, mult and unit of a; each distinct cell object of the table is
    written once, as one list that every place it stands shares."""
    lists = {}
    mult = []
    for row in a.mult:
        out = []
        for cell in row:
            got = lists.get(id(cell))
            if got is None:
                got = lists[id(cell)] = vector_to_json(cell, memo)
            out.append(got)
        mult.append(out)
    return {
        "dim": a.dim,
        "mult": mult,
        "unit": None if a.unit is None else vector_to_json(a.unit, memo),
    }


def algebra_to_json(a: FinDimAlgebra) -> dict:
    doc = {"format": FORMAT_TAG}
    doc.update(_algebra_body(a, _EntryDicts()))
    return doc


def json_to_algebra(doc) -> FinDimAlgebra:
    with _Walk(doc, ALGEBRA_SCHEMA, "algebra") as walk:
        return walk.algebra(doc, _ALGEBRA_KEYS)


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
    with _Walk(doc, HMA_SCHEMA, "module algebra") as walk:
        walk.fields(doc, _HMA_KEYS)
        m = walk.m = walk.integer(doc["m"], 2)
        algebra = walk.algebra(doc["algebra"], _BODY_KEYS)
        c_op = walk.matrix(doc["c"], "c operator")
        v_op = walk.matrix(doc["v"], "v operator")
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
    with _Walk(doc, SS_SPEC_SCHEMA, "semisimple spec") as walk:
        walk.fields(doc, _SS_SPEC_KEYS, frozenset(("alpha",)))
        m = walk.m = walk.integer(doc["m"], 2)
        spec = SemisimpleSpec(
            m=m, k=walk.integer(doc["k"], 1), t=walk.integer(doc["t"], 1),
            P=walk.matrix(doc["P"], "P"), Q=walk.matrix(doc["Q"], "Q"))
        if "alpha" in doc:
            claimed, = walk.vector([doc["alpha"]])
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
    with _Walk(doc, NILEXT_SCHEMA, "base algebra") as walk:
        walk.fields(doc, _NILEXT_KEYS)
        m = walk.m = walk.integer(doc["m"], 2)
        B = walk.algebra(doc["algebra"], _BODY_KEYS)
        c_op = walk.matrix(doc["c"], "grading operator")
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
