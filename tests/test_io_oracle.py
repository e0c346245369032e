"""The one-pass loader against the loader it replaced, and its work count.

The reference below is the earlier path from a liealg-v1 document to an
algebra and a metric, kept here as an oracle: the bracket terms are
parsed into lists and handed to ``LieAlgebra``, and the metric goes
through ``parse_grid`` into a ``Matrix`` and from there into
``BilinearForm``, with every error message formatted before its check.
On derandomized documents over Q, F_2, F_3 and F_5, with and without a
metric, labels and grading, ``document_to_algebra`` must give the same
integer state; on a mutated document it must fail with the reference's
exact message.  The scalar check is compared with the earlier one, which
went through ``Fraction``, and the loaded integer table, in order, with
the one ``LieAlgebra.__init__`` clears from the same terms.
"""

import copy
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg import io  # noqa: E402
from liealg.core import BilinearForm, LieAlgebra  # noqa: E402
from liealg.family import canonical_metric, truncated_algebra  # noqa: E402
from liealg.fields import QQ, PrimeField  # noqa: E402
from liealg.io import (FORMAT_TAG, AlgebraFileError, algebra_to_document,  # noqa: E402
                       document_to_algebra, parse_grid, string_to_scalar)
from liealg.linalg import Matrix  # noqa: E402

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


# -- the reference loader ----------------------------------------------------------

def _ref_expect(cond, message):
    if not cond:
        raise AlgebraFileError(message)


def _ref_is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _ref_field(doc):
    marker = doc.get("field", "Q")
    if marker == "Q":
        return QQ
    if marker == "Fp":
        p = doc.get("p")
        if not _ref_is_int(p):
            raise AlgebraFileError("field 'Fp' requires an integer 'p'")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from None
    raise AlgebraFileError(f"unknown field marker {marker!r}")


def _ref_document_to_algebra(doc):
    _ref_expect(isinstance(doc, dict), "document must be a JSON object")
    _ref_expect(doc.get("format") == FORMAT_TAG, f"format tag must be {FORMAT_TAG!r}")
    field = _ref_field(doc)
    dim = doc.get("dim")
    _ref_expect(_ref_is_int(dim) and dim >= 0, "dim must be a non-negative integer")
    raw = doc.get("brackets", [])
    _ref_expect(isinstance(raw, list), "brackets must be a list")
    brackets = {}
    for rec in raw:
        _ref_expect(isinstance(rec, dict), "bracket record must be an object")
        i, j = rec.get("i"), rec.get("j")
        _ref_expect(_ref_is_int(i) and _ref_is_int(j), "bracket indices must be integers")
        _ref_expect(0 <= i < j < dim,
                    f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
        _ref_expect((i, j) not in brackets, f"duplicate bracket record ({i},{j})")
        terms = rec.get("terms")
        _ref_expect(isinstance(terms, list), "bracket terms must be a list")
        seen = set()
        parsed = []
        for t in terms:
            _ref_expect(isinstance(t, dict), "bracket term must be an object")
            k = t.get("k")
            _ref_expect(_ref_is_int(k) and 0 <= k < dim, f"term index {k!r} out of range")
            _ref_expect(k not in seen, f"duplicate term index {k} in ({i},{j})")
            seen.add(k)
            parsed.append((k, string_to_scalar(field, t.get("c"))))
        brackets[(i, j)] = parsed
    labels = doc.get("labels")
    if labels is not None:
        _ref_expect(isinstance(labels, list) and len(labels) == dim
                    and all(isinstance(x, str) for x in labels),
                    "labels must be a list of dim strings")
    grading = doc.get("grading")
    if grading is not None:
        _ref_expect(isinstance(grading, list) and len(grading) == dim
                    and all(_ref_is_int(x) for x in grading),
                    "grading must be a list of dim integers")
    try:
        alg = LieAlgebra(field, dim, brackets, labels=labels, grading=grading)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from None
    metric = None
    raw_metric = doc.get("metric")
    if raw_metric is not None:
        grid = parse_grid(field, raw_metric, "metric", (dim, dim))
        try:
            metric = BilinearForm(grid)
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from None
    return alg, metric


def _ref_string_to_scalar(field, s):
    """The earlier scalar check: a spelling regex, then ``Fraction`` and a
    round trip through ``str`` over Q."""
    if not isinstance(s, str):
        raise AlgebraFileError(f"scalar must be a string, got {s!r}")
    if field == QQ:
        if not re.match(r"(0|-?[1-9][0-9]*)(/[1-9][0-9]*)?\Z", s):
            raise AlgebraFileError(f"not a canonical rational: {s!r}")
        value = Fraction(s)
        if str(value) != s:
            raise AlgebraFileError(f"rational not in lowest terms: {s!r}")
        return value
    if not re.match(r"(0|[1-9][0-9]*)\Z", s):
        raise AlgebraFileError(f"not a canonical residue: {s!r}")
    if int(s) >= field.characteristic:
        raise AlgebraFileError(
            f"residue {s} out of range for characteristic {field.characteristic}")
    return field(int(s))


def _outcome(loader, doc):
    """What a loader makes of a document: its error message, or the
    algebra's and the metric's integer and scalar state."""
    try:
        alg, metric = loader(copy.deepcopy(doc))
    except AlgebraFileError as exc:
        return "error", str(exc)
    return ("ok", alg.field, alg.dim, alg.labels, alg.grading, alg.sc, alg._isc,
            alg._scale, None if metric is None else (metric._cleared(), metric.matrix))


# -- documents ---------------------------------------------------------------------

MUTATIONS = ("asymmetric", "2/4", "07", "-0", "non-string", "ragged", "shape",
             "duplicate term", "duplicate record", "index out of range", "bool index")


def _scalar_strings(field):
    if field == QQ:
        return st.one_of(st.just("0"), st.builds(
            lambda a, b: str(Fraction(a, b)), st.integers(-6, 6), st.integers(1, 4)))
    return st.integers(0, field.characteristic - 1).map(str)


@st.composite
def _documents(draw, mutations=st.none()):
    """(mutation, document): a valid document of dim <= 6, or, for a
    mutation drawn from ``mutations``, one broken by it."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    scalars = _scalar_strings(field)
    mutation = draw(mutations)
    dim = draw(st.integers(0 if mutation is None else 2, 6))
    doc = {"format": FORMAT_TAG}
    if field == QQ:
        if draw(st.booleans()):
            doc["field"] = "Q"
    else:
        doc["field"], doc["p"] = "Fp", field.characteristic
    doc["dim"] = dim
    if draw(st.booleans()):
        doc["labels"] = [f"x{i}" for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    records = []
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                     else st.just([])):
        ks = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=3))
        records.append({"i": i, "j": j,
                        "terms": [{"k": k, "c": draw(scalars)} for k in ks]})
    doc["brackets"] = records
    if draw(st.booleans()):
        doc["grading"] = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    if draw(st.booleans()) or mutation in ("asymmetric", "ragged", "shape"):
        grid = [["0"] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                grid[i][j] = grid[j][i] = draw(scalars)
        doc["metric"] = grid
    if mutation is not None:
        _mutate(draw, doc, mutation, scalars)
    return mutation, doc


def _mutate(draw, doc, mutation, scalars):
    dim, records = doc["dim"], doc["brackets"]
    grid = doc.get("metric")
    if not any(rec["terms"] for rec in records):
        if not records:
            records.append({"i": 0, "j": 1, "terms": []})
        records[0]["terms"].append({"k": 0, "c": "1"})
    rec = draw(st.sampled_from([r for r in records if r["terms"]]))
    term = draw(st.sampled_from(rec["terms"]))
    if mutation == "asymmetric":
        i, j = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                                    unique=True)))
        grid[i][j] = draw(scalars.filter(lambda s: s != grid[j][i]))
    elif mutation in ("2/4", "07", "-0", "non-string"):
        bad = mutation if mutation != "non-string" else draw(
            st.sampled_from([0, 1, 1.5, None, True, ["1"]]))
        if grid is not None and draw(st.booleans()):
            grid[draw(st.integers(0, dim - 1))][draw(st.integers(0, dim - 1))] = bad
        else:
            term["c"] = bad
    elif mutation == "ragged":
        row = grid[draw(st.integers(0, dim - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    elif mutation == "shape":
        if draw(st.booleans()):
            grid.pop()
        else:
            grid.append(["0"] * dim)
    elif mutation == "duplicate term":
        rec["terms"].insert(draw(st.integers(0, len(rec["terms"]))), dict(term))
    elif mutation == "duplicate record":
        records.append(copy.deepcopy(rec))
    else:
        target, key = draw(st.sampled_from([(rec, "i"), (rec, "j"), (term, "k")]))
        if mutation == "index out of range":
            target[key] = draw(st.sampled_from([dim, -1, dim + 3]))
        else:
            target[key] = draw(st.booleans())


# -- tests -------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_documents())
def test_loader_matches_the_reference_loader(case):
    _, doc = case
    expected = _outcome(_ref_document_to_algebra, doc)
    assert expected[0] == "ok"
    assert _outcome(document_to_algebra, doc) == expected


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_documents(st.sampled_from(MUTATIONS)))
def test_loader_fails_like_the_reference_loader(case):
    _, doc = case
    expected = _outcome(_ref_document_to_algebra, doc)
    assert expected[0] == "error"
    assert _outcome(document_to_algebra, doc) == expected


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(field=st.sampled_from([QQ, F2, F5]),
       s=st.text("-/0123456789", max_size=6) | st.sampled_from(
           ["0/1", "3/1", "-0/1", "0/5", "-6/4", "-7/12", "1/-2", 7, None]))
def test_scalar_check_matches_the_reference_check(field, s):
    def outcome(parse):
        try:
            value = parse(field, s)
        except AlgebraFileError as exc:
            return "error", str(exc)
        return "ok", value, type(value)
    assert outcome(string_to_scalar) == outcome(_ref_string_to_scalar)


def _edge_documents():
    """Zero terms, mixed denominators, F_2 and F_5, and empty tables."""
    def doc(dim, records, **extra):
        return {"format": FORMAT_TAG, "dim": dim, **extra, "brackets": [
            {"i": i, "j": j, "terms": [{"k": k, "c": c} for k, c in terms]}
            for (i, j), terms in records.items()]}
    yield doc(0, {})
    yield doc(3, {})
    yield doc(3, {(0, 1): [], (1, 2): [(0, "0")]})
    yield doc(4, {(0, 1): [(2, "1/2"), (3, "0")], (0, 2): [(3, "-2/3")],
                  (1, 3): [(0, "0")], (2, 3): [(1, "5"), (0, "7/12")]})
    yield doc(3, {(1, 2): [(0, "3/4")], (0, 1): [(2, "-1/6"), (0, "1/4")]})
    for p, scalars in ((2, ("1", "0")), (5, ("4", "0", "3"))):
        yield doc(3, {(0, 1): [(2, scalars[0]), (0, scalars[1])],
                      (0, 2): [(1, scalars[-1])], (1, 2): [(0, "0")]}, field="Fp", p=p)


def _check_loaded_table(doc):
    alg, _ = document_to_algebra(copy.deepcopy(doc))
    reference, _ = _ref_document_to_algebra(doc)
    assert alg._sc is None
    assert alg._scale == reference._scale
    assert list(alg._isc.items()) == list(reference._isc.items())
    assert list(alg.sc.items()) == list(reference.sc.items())
    assert alg == reference and hash(alg) == hash(reference)


def test_loaded_table_is_the_constructed_table_on_edge_documents():
    for doc in _edge_documents():
        _check_loaded_table(doc)
    for doc in _documents_for_counting():
        _check_loaded_table(doc)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=_documents())
def test_loaded_table_is_the_constructed_table(case):
    # the integer table of LieAlgebra(field, dim, brackets), in the same
    # order, with the scalar table a view that loading does not build
    _check_loaded_table(case[1])


def _documents_for_counting():
    a12 = algebra_to_document(truncated_algebra(12), canonical_metric(12, 1))
    f5 = algebra_to_document(truncated_algebra(6, field=F5), canonical_metric(6, 2, field=F5))
    dense = {"format": FORMAT_TAG, "dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1/2"}, {"k": 0, "c": "0"}]},
        {"i": 1, "j": 2, "terms": [{"k": 0, "c": "1/2"}]}],
        "metric": [["1/2", "-3", "0"], ["-3", "1/2", "7"], ["0", "7", "2/3"]]}
    return a12, f5, dense


def test_loading_parses_each_distinct_string_once_and_builds_no_matrix(monkeypatch):
    for doc in _documents_for_counting():
        parsed, built = [], []
        real_parse, real_init = io._scalar_ints, Matrix.__init__
        monkeypatch.setattr(io, "_scalar_ints",
                            lambda field, s: parsed.append(s) or real_parse(field, s))
        monkeypatch.setattr(Matrix, "__init__",
                            lambda self, *a: built.append(a) or real_init(self, *a))
        alg, metric = document_to_algebra(doc)
        assert built == []
        assert metric._matrix is None
        assert alg._sc is None
        monkeypatch.undo()
        assert sorted(parsed) == sorted(set(parsed))
        assert set(parsed) == ({t["c"] for rec in doc["brackets"] for t in rec["terms"]}
                               | {x for row in doc["metric"] for x in row if x != "0"})
        # the scalar matrix, built on first read, is the grid as parsed cell by cell
        assert metric.matrix == parse_grid(alg.field, doc["metric"], "metric")
