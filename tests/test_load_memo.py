"""The parse memo of ``load_algebra``: repeated requests answer as fresh ones,
shared objects stay unchanged, and errors are never kept."""

import json

import pytest

from liealg import io
from liealg.cli import main
from liealg.core import BilinearForm, LieAlgebra
from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import QQ
from liealg.io import AlgebraFileError, document_to_algebra, load_algebra, read_json, save_algebra


def _inputs(tmp_path):
    """Files for every subcommand that loads one, with passing and failing checks."""
    files = {name: str(tmp_path / f"{name}.json")
             for name in ("a6", "a4", "broken", "skew", "flat", "line")}
    save_algebra(files["a6"], truncated_algebra(6), canonical_metric(6, 1))
    save_algebra(files["a4"], truncated_algebra(4),
                 BilinearForm.from_entries(QQ, [[int(i == j) for j in range(5)]
                                                for i in range(5)]))
    save_algebra(files["broken"], LieAlgebra(QQ, 3, {(0, 1): [(0, 1)], (0, 2): [(1, 1)],
                                                     (1, 2): [(1, 1)]}))
    save_algebra(files["skew"], LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]}, grading=(0, 1, 0)))
    save_algebra(files["flat"], LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    save_algebra(files["line"], LieAlgebra(QQ, 1, {}))
    action = str(tmp_path / "act.json")
    with open(action, "w", encoding="utf-8") as fh:
        json.dump([[["-1", "0"], ["0", "1"]]], fh)
    return files, action


def _requests(tmp_path, files, action):
    """(argv, output files) of each request; every report also goes to --json."""
    out = str(tmp_path / "out.json")
    argvs = [["check", prop, files[name]]
             for prop in ("jacobi", "invariance", "grading")
             for name in ("a6", "a4", "broken", "skew")]
    argvs += [["analyze", files[name]] for name in ("a6", "a4", "broken")]
    argvs += [["classify", files[name]] for name in ("a6", "a4", "skew")]
    argvs += [["ideals", files["a6"], "--classify-an"], ["ideals", files["skew"]]]
    argvs += [["dext", "--base", files["flat"], "--by", files["line"], "--action", action,
               "-o", out],
              ["wigner", "--algebra", files["a6"], "--subalgebra", "0", "-o", out],
              ["wigner", "--algebra", files["a4"], "--subalgebra", "0", "-o", out]]
    report = str(tmp_path / "report.json")
    return [(argv + ["--porcelain", "--json", report],
             (report, out) if "-o" in argv else (report,)) for argv in argvs]


def _respond(capsys, argv, outputs):
    for path in outputs:
        with open(path, "wb"):
            pass  # a request that writes nothing leaves the file empty
    code = main(argv)
    captured = capsys.readouterr()
    files = []
    for path in outputs:
        with open(path, "rb") as fh:
            files.append(fh.read())
    return code, captured.out, tuple(files)


def test_repeated_requests_answer_as_fresh_ones(tmp_path, capsys):
    files, action = _inputs(tmp_path)
    requests = _requests(tmp_path, files, action)
    fresh = []
    for argv, outputs in requests:
        io._parse.cache_clear()
        fresh.append(_respond(capsys, argv, outputs))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    for _ in range(2):
        for (argv, outputs), expected in zip(requests, fresh):
            assert _respond(capsys, argv, outputs) == expected, argv

    # the memoised objects still hold what a fresh parse of their file gives
    for path in files.values():
        hits = io._parse.cache_info().hits
        alg, metric = load_algebra(path)
        assert io._parse.cache_info().hits == hits + 1
        ref, ref_metric = document_to_algebra(read_json(path))
        assert (alg._scale, list(alg._isc.items()), alg.labels, alg.grading) == (
            ref._scale, list(ref._isc.items()), ref.labels, ref.grading)
        assert (metric is None) == (ref_metric is None)
        if metric is not None:
            assert metric._cleared() == ref_metric._cleared()


def test_a_hit_returns_the_same_objects(tmp_path):
    path = tmp_path / "a5.json"
    save_algebra(path, truncated_algebra(5), canonical_metric(5, 2))
    first = load_algebra(path)
    second = load_algebra(str(tmp_path / "." / "a5.json"))
    assert second[0] is first[0] and second[1] is first[1]


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "a.json"
    save_algebra(path, truncated_algebra(3))
    a3, _ = load_algebra(path)
    save_algebra(path, truncated_algebra(4), canonical_metric(4, 1))
    assert load_algebra(path) == (truncated_algebra(4), canonical_metric(4, 1))
    assert a3 == truncated_algebra(3)


def test_the_memo_is_bounded(tmp_path):
    path = tmp_path / "a.json"
    for n in range(1, io._MEMO_SIZE + 4):
        save_algebra(path, truncated_algebra(n))
        assert load_algebra(path)[0] == truncated_algebra(n)
    assert io._parse.cache_info().currsize <= io._MEMO_SIZE == io._parse.cache_info().maxsize


@pytest.mark.parametrize("text, message", [
    ("not json {", "invalid JSON in {}: Expecting value: line 1 column 1 (char 0)"),
    ('{"format": "liealg-v2"}', "format tag must be 'liealg-v1'"),
])
def test_errors_are_not_kept(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    size = io._parse.cache_info().currsize
    for _ in range(3):
        with pytest.raises(AlgebraFileError) as info:
            load_algebra(path)
        assert str(info.value) == message.format(path)
    assert io._parse.cache_info().currsize == size
    save_algebra(path, truncated_algebra(3))
    assert load_algebra(path) == (truncated_algebra(3), None)


def test_the_same_malformed_text_names_each_path(tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        path.write_text('{"dim": 3,}')
    for path in paths + paths:
        with pytest.raises(AlgebraFileError) as info:
            load_algebra(path)
        assert str(info.value) == (f"invalid JSON in {path}: Expecting property name "
                                   "enclosed in double quotes: line 1 column 11 (char 10)")


@pytest.mark.parametrize("raw, message", [
    (b'{"a": 1}\xff\n',
     "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    (b'\xef\xbb\xbf{"format": "liealg-v1"}',
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # newlines are translated before decoding, so CRLF counts one character
    (b'{\r\n  "format": "liealg-v1",\r\n  "dim": 3,\r\n  oops\r\n}\r\n',
     "Expecting property name enclosed in double quotes: line 4 column 3 (char 41)"),
])
def test_decoding_errors_keep_their_messages(tmp_path, raw, message):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    for load in (load_algebra, load_algebra, read_json):
        with pytest.raises(AlgebraFileError) as info:
            load(path)
        assert str(info.value) == f"invalid JSON in {path}: {message}"
