"""Bit-exact JSON interchange for structure-constant algebras.

A document carries the format tag ``liealg-v1``, a field marker ("Q",
or "Fp" with a prime ``p``), the dimension, the bracket table with
i < j only, and optionally labels, an integer grading, and a metric
(dim x dim array).  Scalars are canonical strings: digits with a minus
sign only before a nonzero numerator, optional '/' and positive digits,
in lowest terms, with "0" for zero; prime-field residues are plain
decimal digits below p.  The canonical encoding makes serialization
deterministic, so parsing a serialized algebra reproduces it
bit-exactly.

One checker (``_scalar_ints``) reads a scalar string straight into
kernel integers: (numerator, denominator) over Q, (residue, 1) over
F_p; ``string_to_scalar`` converts its result to a field scalar.
``document_to_algebra`` reads a document in one pass and checks each
distinct scalar string once per document.  The bracket terms are
cleared over the lcm of their denominators, zero terms are dropped and
each record is sorted by target index: that is the algebra's integer
table, handed to ``LieAlgebra._of_cleared`` as it is, so no scalar
bracket table is built.  The metric goes the same way to the integer
rows of its form: "0" cells, canonical zero in every field, are
skipped, symmetry is checked on the integer rows, and the form's scalar
``matrix`` is built only when it is read.  Error messages are formatted
only when a check fails.  On the way out each scalar is formatted once
(``scalar_to_string``).

``load_algebra`` memoises by content: the key is the file's whole text
(read as ``read_json`` reads it), and the ``_MEMO_SIZE`` (16) texts
loaded most recently keep their parsed (algebra, metric) pair for the
life of the process.  A hit hands back the same objects;
``LieAlgebra`` and ``BilinearForm`` are immutable and their lazy views
are deterministic, so sharing them changes no answer.  Errors are not
memoised.  A one-shot CLI process reads each file once anyway; the memo
pays in a library caller or an in-process loop that loads the same
content again.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from math import gcd, lcm

from .core import BilinearForm, LieAlgebra, _is_symmetric
from .fields import FpElement, PrimeField, QQ
from .linalg import Matrix, _scalars

__all__ = [
    "FORMAT_TAG",
    "AlgebraFileError",
    "scalar_to_string",
    "string_to_scalar",
    "algebra_to_document",
    "document_to_algebra",
    "dump_document",
    "save_algebra",
    "load_algebra",
    "read_json",
    "parse_grid",
]

FORMAT_TAG = "liealg-v1"

# how many file texts load_algebra keeps parsed
_MEMO_SIZE = 16

_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(/[1-9][0-9]*)?\Z")
_RESIDUE_RE = re.compile(r"(0|[1-9][0-9]*)\Z")


class AlgebraFileError(ValueError):
    """The document is not a well-formed liealg-v1 file."""


def scalar_to_string(x) -> str:
    """Canonical string of an exact scalar (Fraction or residue)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, FpElement):
        return str(x.r)
    return str(Fraction(x))


def string_to_scalar(field, s: str):
    """Parse a canonical scalar string, rejecting non-canonical spellings."""
    num, den = _scalar_ints(field, s)
    return _scalars(field, den)(num)


def _scalar_ints(field, s) -> tuple[int, int]:
    """(numerator, denominator) of a canonical scalar string: in lowest
    terms over Q (denominator written only when it is not 1), the
    residue below p and 1 over F_p.  Any other spelling raises
    AlgebraFileError."""
    if not isinstance(s, str):
        raise AlgebraFileError(f"scalar must be a string, got {s!r}")
    p = field.characteristic
    if not p:
        m = _RATIONAL_RE.match(s)
        if not m:
            raise AlgebraFileError(f"not a canonical rational: {s!r}")
        num, den = int(m[1]), int(m[2][1:]) if m[2] else 1
        if m[2] and (den == 1 or gcd(num, den) != 1):
            raise AlgebraFileError(f"rational not in lowest terms: {s!r}")
        return num, den
    if not _RESIDUE_RE.match(s):
        raise AlgebraFileError(f"not a canonical residue: {s!r}")
    value = int(s)
    if value >= p:
        raise AlgebraFileError(f"residue {s} out of range for characteristic {p}")
    return value, 1


def _checked(field, memo: dict, s) -> tuple[int, int]:
    """``_scalar_ints`` of s, checked once per document: ``memo`` keeps
    the result for each string seen before."""
    got = memo.get(s) if isinstance(s, str) else None
    if got is None:
        got = memo[s] = _scalar_ints(field, s)  # raises for a non-string s
    return got


def _is_int(x) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _field_of_document(doc) -> object:
    marker = doc.get("field", "Q")
    if marker == "Q":
        return QQ
    if marker == "Fp":
        p = doc.get("p")
        if not _is_int(p):
            raise AlgebraFileError("field 'Fp' requires an integer 'p'")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from None
    raise AlgebraFileError(f"unknown field marker {marker!r}")


def algebra_to_document(alg: LieAlgebra,
                        metric: BilinearForm | None = None) -> dict:
    """Serializable document for an algebra (and optional metric)."""
    doc: dict = {"format": FORMAT_TAG}
    if alg.field == QQ:
        doc["field"] = "Q"
    else:
        doc["field"] = "Fp"
        doc["p"] = alg.field.characteristic
    doc["dim"] = alg.dim
    if alg.labels is not None:
        doc["labels"] = list(alg.labels)
    brackets = []
    for (i, j) in sorted(alg.sc):
        terms = [{"k": k, "c": scalar_to_string(c)} for k, c in alg.sc[(i, j)]]
        brackets.append({"i": i, "j": j, "terms": terms})
    doc["brackets"] = brackets
    if alg.grading is not None:
        doc["grading"] = list(alg.grading)
    if metric is not None:
        if metric.dim != alg.dim or metric.field != alg.field:
            raise AlgebraFileError("metric does not match the algebra")
        doc["metric"] = [[scalar_to_string(x) for x in r] for r in metric.matrix.rows]
    return doc


def _expect(cond: bool, message: str):
    if not cond:
        raise AlgebraFileError(message)


def _check_grid(raw, what: str, shape: tuple[int, int] | None) -> None:
    """A rectangular list of rows, of the given (rows, cols) if any."""
    if not (isinstance(raw, list) and all(isinstance(r, list) for r in raw)):
        raise AlgebraFileError(f"{what} must be a list of rows")
    width = len(raw[0]) if raw else 0
    if not all(len(r) == width for r in raw):
        raise AlgebraFileError(f"{what} has rows of unequal length")
    if shape is not None and (len(raw), width) != shape:
        raise AlgebraFileError(f"{what} must be a {shape[0]} x {shape[1]} array")


def parse_grid(field, raw, what: str,
               shape: tuple[int, int] | None = None) -> Matrix:
    """A rectangular JSON array of canonical scalar strings as a Matrix.

    ``what`` names the array in error messages; ``shape`` (rows, cols),
    when given, must match exactly.
    """
    _check_grid(raw, what, shape)
    return Matrix(field, [[string_to_scalar(field, x) for x in r] for r in raw])


def _parse_metric(field, raw, dim: int, memo: dict, what: str, where: str) -> BilinearForm:
    """A dim x dim grid ``what`` as its form's integer rows: cells other than
    "0" are checked row-major (once per string in ``memo``) and cleared
    once; errors start with ``where``."""
    _check_grid(raw, where + what, (dim, dim))
    cells = [{c: _checked(field, memo, x) for c, x in enumerate(r) if x != "0"} for r in raw]
    scale = lcm(*(d for r in cells for _, d in r.values()))
    rows = [{c: n * (scale // d) for c, (n, d) in r.items()} for r in cells]
    _expect(_is_symmetric(rows), f"{where}bilinear form matrix must be symmetric")
    return BilinearForm._of_cleared(field, scale, rows)


def document_to_algebra(doc) -> tuple[LieAlgebra, BilinearForm | None]:
    """Parse a document back into (algebra, metric or None)."""
    _expect(isinstance(doc, dict), "document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise AlgebraFileError(f"format tag must be {FORMAT_TAG!r}")
    field = _field_of_document(doc)
    dim = doc.get("dim")
    _expect(_is_int(dim) and dim >= 0,
            "dim must be a non-negative integer")
    raw = doc.get("brackets", [])
    _expect(isinstance(raw, list), "brackets must be a list")
    memo: dict = {}
    brackets = {}
    for rec in raw:
        if not isinstance(rec, dict):
            raise AlgebraFileError("bracket record must be an object")
        i, j = rec.get("i"), rec.get("j")
        if not (_is_int(i) and _is_int(j)):
            raise AlgebraFileError("bracket indices must be integers")
        if not 0 <= i < j < dim:
            raise AlgebraFileError(
                f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
        if (i, j) in brackets:
            raise AlgebraFileError(f"duplicate bracket record ({i},{j})")
        terms = rec.get("terms")
        if not isinstance(terms, list):
            raise AlgebraFileError("bracket terms must be a list")
        parsed = brackets[(i, j)] = {}
        for t in terms:
            if not isinstance(t, dict):
                raise AlgebraFileError("bracket term must be an object")
            k = t.get("k")
            if not (_is_int(k) and 0 <= k < dim):
                raise AlgebraFileError(f"term index {k!r} out of range")
            if k in parsed:
                raise AlgebraFileError(f"duplicate term index {k} in ({i},{j})")
            parsed[k] = _checked(field, memo, t.get("c"))
    labels = doc.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and len(labels) == dim
                and all(isinstance(x, str) for x in labels),
                "labels must be a list of dim strings")
    grading = doc.get("grading")
    if grading is not None:
        _expect(isinstance(grading, list) and len(grading) == dim
                and all(_is_int(x) for x in grading),
                "grading must be a list of dim integers")
    # the memo holds exactly the distinct bracket strings so far
    scale = lcm(*(d for _, d in memo.values()))
    isc = {}
    for key, r in brackets.items():
        terms = tuple(sorted((k, n * (scale // d)) for k, (n, d) in r.items() if n))
        if terms:
            isc[key] = terms
    alg = LieAlgebra._of_cleared(
        field, dim, scale, isc,
        None if labels is None else tuple(labels), None if grading is None else tuple(grading))
    raw_metric = doc.get("metric")
    if raw_metric is None:
        return alg, None
    return alg, _parse_metric(field, raw_metric, dim, memo, "metric", "")


def dump_document(doc) -> str:
    """Deterministic textual form of a document."""
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def save_algebra(path, alg: LieAlgebra, metric: BilinearForm | None = None):
    """Write the document of ``alg`` and ``metric`` to ``path``.

    The text is built before the file is opened, so a metric that does
    not match the algebra raises ``AlgebraFileError`` and leaves whatever
    was at ``path`` as it was.
    """
    text = dump_document(algebra_to_document(alg, metric))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _NotJSON(Exception):
    """``json.loads`` failed on a text; args[0] is its error."""


def _decode(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _NotJSON(exc) from None


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _parse(text: str) -> tuple[LieAlgebra, BilinearForm | None]:
    """The algebra and metric of a document's text, memoised by text."""
    return document_to_algebra(_decode(text))


def _from_file(path, parse):
    """parse(text of the file at path, read as UTF-8 with newlines
    translated); a file that is not UTF-8 JSON is an AlgebraFileError
    naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError as exc:  # not UTF-8 (or a NUL in the path)
        error = exc
    else:
        try:
            return parse(text)
        except _NotJSON as exc:
            error = exc.args[0]
    raise AlgebraFileError(f"invalid JSON in {path}: {error}")


def read_json(path):
    """The JSON value stored at path; a file that is not UTF-8 JSON is
    an AlgebraFileError."""
    return _from_file(path, _decode)


def load_algebra(path) -> tuple[LieAlgebra, BilinearForm | None]:
    """The algebra and metric (or None) stored at path.

    The file's text is looked up in a process-local memo of the
    ``_MEMO_SIZE`` (16) texts loaded most recently.  The key is the
    whole text, so a file rewritten with other content is parsed again,
    and the same content under another path is not.  A hit returns the
    same shared, immutable objects as the first load.  Errors are not
    memoised: a malformed text fails on every load with the same
    message, naming that load's path.
    """
    return _from_file(path, _parse)
