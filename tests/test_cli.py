"""Command-line surface and the JSON file format."""

import json
import sys

import pytest

from liealg import selfdual
from liealg.cli import main
from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import canonical_metric, enumerate_coordinate_ideals, truncated_algebra
from liealg.fields import QQ, PrimeField
from liealg.hats import ZModHat
from liealg.io import (
    FORMAT_TAG,
    AlgebraFileError,
    algebra_to_document,
    document_to_algebra,
    dump_document,
    load_algebra,
    save_algebra,
    scalar_to_string,
    string_to_scalar,
)
from liealg.linalg import Matrix, Subspace
from liealg.selfdual import (
    ContractionInput,
    decomposability_check,
    invariant_form_space,
    invariant_profile,
    is_self_dual,
    wigner_contract,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _porcelain(capsys, argv):
    code, out, _ = _run(capsys, argv + ["--porcelain"])
    return code, json.loads(out)


def _so21_file(path):
    alg = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)],
                             (1, 2): [(0, -1)],
                             (0, 2): [(1, -1)]},
                     labels=("J0", "J1", "J2"))
    metric = BilinearForm(alg.killing_form().matrix.scale(QQ(1, 2)))
    save_algebra(path, alg, metric)
    return path


def test_scalar_strings_round_trip():
    for value in (QQ(0), QQ(7), QQ(-7, 3), QQ(12, 5)):
        assert string_to_scalar(QQ, scalar_to_string(value)) == value
    f5 = PrimeField(5)
    assert scalar_to_string(f5(7)) == "2"
    assert string_to_scalar(f5, "4") == f5(4)
    assert scalar_to_string(3) == "3"


def test_document_rejects_a_metric_of_another_dimension():
    alg = truncated_algebra(3)
    with pytest.raises(AlgebraFileError, match="metric does not match"):
        algebra_to_document(alg, canonical_metric(2))


def test_scalar_strings_reject_noncanonical():
    for bad in ("2/4", "+3", "03", "1/0", " 1", "1 ", "1.5", "-0",
                "4/-3", "", "7/1"):
        with pytest.raises(AlgebraFileError):
            string_to_scalar(QQ, bad)
    for bad in ("5", "-1", "2/3"):
        with pytest.raises(AlgebraFileError):
            string_to_scalar(PrimeField(5), bad)
    # "-0" is a non-canonical spelling of zero, not a fraction to reduce
    with pytest.raises(AlgebraFileError, match=r"^not a canonical rational: '-0'$"):
        string_to_scalar(QQ, "-0")


def test_document_shape():
    doc = algebra_to_document(truncated_algebra(3), canonical_metric(3, 5))
    assert doc["format"] == FORMAT_TAG == "liealg-v1"
    assert doc["field"] == "Q"
    assert doc["dim"] == 4
    assert doc["labels"] == ["T0", "T1", "T2", "T3"]
    assert doc["grading"] == [0, 1, 2, 3]
    assert doc["brackets"][0] == {"i": 0, "j": 1,
                                  "terms": [{"k": 1, "c": "-1"}]}
    assert doc["metric"][0] == ["5", "0", "0", "1"]


def test_document_round_trip_is_bit_exact(tmp_path):
    cases = [
        (truncated_algebra(0), None),
        (truncated_algebra(6), canonical_metric(6, QQ(-7, 3))),
        (truncated_algebra(4, field=PrimeField(5)), None),
        (LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]}), None),
    ]
    for idx, (alg, metric) in enumerate(cases):
        first = tmp_path / f"case{idx}a.json"
        second = tmp_path / f"case{idx}b.json"
        save_algebra(first, alg, metric)
        save_algebra(second, *load_algebra(first))
        assert first.read_bytes() == second.read_bytes()


def test_document_validation():
    good = algebra_to_document(truncated_algebra(3))

    def corrupt(**changes):
        doc = json.loads(dump_document(good))
        doc.update(changes)
        return doc

    document_to_algebra(corrupt())
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(format="other-v9"))
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(field="R"))
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(labels=["x"]))
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(grading=[0, 1]))
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(metric=[["1", "0"], ["0", "1"]]))
    with pytest.raises(AlgebraFileError):
        document_to_algebra(corrupt(metric=[["0", "1", "0", "0"],
                                            ["0", "0", "1", "0"],
                                            ["0", "0", "0", "1"],
                                            ["1", "0", "0", "0"]]))
    dup_pair = corrupt()
    dup_pair["brackets"].append(dup_pair["brackets"][0])
    with pytest.raises(AlgebraFileError):
        document_to_algebra(dup_pair)
    dup_term = corrupt()
    dup_term["brackets"][0]["terms"] = [{"k": 1, "c": "1"}, {"k": 1, "c": "2"}]
    with pytest.raises(AlgebraFileError):
        document_to_algebra(dup_term)


def test_repeated_scalar_strings_are_still_checked():
    """Each scalar string of a document is parsed once; a string that
    fails is reported where it first occurs, and a non-string scalar
    after memoised strings is still a file error."""
    doc = {"format": FORMAT_TAG, "field": "Q", "dim": 4, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1/2"}, {"k": 3, "c": "1/2"}]},
        {"i": 0, "j": 2, "terms": [{"k": 3, "c": "1/2"}]}]}
    alg, _ = document_to_algebra(doc)
    assert alg.bracket_basis(0, 1) == ((2, QQ(1, 2)), (3, QQ(1, 2)))
    for bad, message in (("2/4", "lowest terms: '2/4'"), (["1/2"], "must be a string")):
        doc["brackets"][1]["terms"] = [{"k": 3, "c": bad}, {"k": 1, "c": "3/6"}]
        with pytest.raises(AlgebraFileError, match=message):
            document_to_algebra(doc)
    with pytest.raises(AlgebraFileError, match="residue 7 out of range"):
        document_to_algebra({**doc, "field": "Fp", "p": 5, "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "3"}, {"k": 3, "c": "7"}]}]})


def test_gen_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "a6.json"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "6",
                                       "--metric", "b=1", "-o", str(out)])
    assert code == 0
    assert report["ok"] is True and report["exit_code"] == 0
    assert report["command"] == "gen"
    assert report["dim"] == 7
    assert report["stored_brackets"] == 9
    assert report["metric_included"] is True
    alg, metric = load_algebra(out)
    assert alg.dim == 7
    assert metric.entry(0, 0) == 1
    assert metric.entry(0, 6) == 1


def test_gen_other_hats(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "5",
                                       "--hat", "identity", "-o", str(out)])
    assert code == 0 and report["hat"] == "identity"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "4",
                                       "--hat", "zmod:5", "--field", "Fp",
                                       "-o", str(out)])
    assert code == 0 and report["field"] == "F5"
    alg, _ = load_algebra(out)
    assert alg.field == PrimeField(5)


def test_gen_metric_refused_off_lattice(tmp_path, capsys):
    out = tmp_path / "a4.json"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "4",
                                       "--metric", "b=0", "-o", str(out)])
    assert code == 1
    assert report["ok"] is False and report["exit_code"] == 1
    assert "exists iff n mod 3 = 0" in report["error"]
    assert not out.exists()


def test_gen_metric_refused_when_the_form_fails_invariance(tmp_path, capsys):
    """hat(n) = 0 is not enough: for zmod:5 at n = 5 the diagonal form
    fails invariance, so no file is written."""
    out = tmp_path / "z5.json"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "5",
                                       "--hat", "zmod:5", "--field", "Fp",
                                       "--metric", "b=0", "-o", str(out)])
    assert code == 1 and report["ok"] is False
    assert "invariance fails at triple (1, 0, 4)" in report["error"]
    assert not out.exists()


def test_gen_metric_refused_when_the_form_is_degenerate(tmp_path, capsys):
    """At n = 0, b = -1 the form is the zero 1 x 1 form: invariant, not a
    metric."""
    out = tmp_path / "z0.json"
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "0",
                                       "--metric", "b=-1", "-o", str(out)])
    assert code == 1 and report["ok"] is False
    assert "degenerate" in report["error"]
    assert not out.exists()
    code, _ = _porcelain(capsys, ["gen", "--family", "an", "--n", "0",
                                  "--metric", "b=0", "-o", str(out)])
    assert code == 0 and out.exists()


def test_gen_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, err = _run(capsys, ["gen", "--family", "an", "--n", "-1",
                                 "-o", out])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["gen", "--family", "an", "--n", "3",
                                 "--hat", "zmod:6", "--field", "Fp",
                                 "-o", out])
    assert code == 2
    code, _, err = _run(capsys, ["gen", "--family", "an", "--n", "3",
                                 "--metric", "b=2/4", "-o", out])
    assert code == 2
    code, _, err = _run(capsys, ["gen", "--family", "an", "--n", "3",
                                 "--hat", "zmod:0", "-o", out])
    assert code == 2


def test_check_jacobi(tmp_path, capsys):
    good = tmp_path / "good.json"
    save_algebra(good, truncated_algebra(4))
    code, report = _porcelain(capsys, ["check", "jacobi", str(good)])
    assert code == 0 and report["holds"] is True

    sc = dict(truncated_algebra(4).sc)
    sc[(0, 1)] = [(1, 1)]  # flipped sign breaks the identity
    bad = tmp_path / "bad.json"
    save_algebra(bad, LieAlgebra(QQ, 5, sc))
    code, report = _porcelain(capsys, ["check", "jacobi", str(bad)])
    assert code == 1 and report["holds"] is False
    assert {"i", "j", "k"} <= set(report["witness"])


def test_check_invariance(tmp_path, capsys):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6), canonical_metric(6))
    code, report = _porcelain(capsys, ["check", "invariance", str(path)])
    assert code == 0 and report["holds"] is True

    save_algebra(path, truncated_algebra(4), canonical_metric(4))
    code, report = _porcelain(capsys, ["check", "invariance", str(path)])
    assert code == 1 and report["holds"] is False

    # over F_2, B([x_k,x_i],x_i) enters the identity twice at (k, i, i) and
    # vanishes, so the first failure of [x0, x1] = x0 is at k = 1, not (0, 1, 1)
    f2 = PrimeField(2)
    save_algebra(path, LieAlgebra(f2, 2, {(0, 1): [(0, 1)]}),
                 BilinearForm.from_entries(f2, [[0, 1], [1, 0]]))
    code, report = _porcelain(capsys, ["check", "invariance", str(path)])
    assert code == 1 and report["witness"] == {"k": 1, "i": 0, "j": 1}

    bare = tmp_path / "bare.json"
    save_algebra(bare, truncated_algebra(6))
    code, _, _ = _run(capsys, ["check", "invariance", str(bare)])
    assert code == 2


def test_check_grading(tmp_path, capsys):
    path = tmp_path / "a3.json"
    save_algebra(path, truncated_algebra(3))
    code, report = _porcelain(capsys, ["check", "grading", str(path)])
    assert code == 0 and report["degrees"] == [0, 1, 2, 3]

    doc = json.loads(path.read_text())
    doc["grading"] = [0, 1, 1, 3]
    path.write_text(dump_document(doc))
    code, report = _porcelain(capsys, ["check", "grading", str(path)])
    assert code == 1
    assert report["witness"] == {"i": 1, "j": 2, "k": 3}

    ungraded = tmp_path / "plain.json"
    save_algebra(ungraded, LieAlgebra(QQ, 2, {}))
    code, _, _ = _run(capsys, ["check", "grading", str(ungraded)])
    assert code == 2


def test_ideals_enumeration(tmp_path, capsys):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6))
    code, report = _porcelain(capsys, ["ideals", str(path)])
    assert code == 0
    assert report["count"] == 10
    assert [4, 6] in report["ideals"]
    assert [1, 3, 4, 5, 6] in report["ideals"]


def test_ideals_classification_cross_check(tmp_path, capsys):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6))
    code, report = _porcelain(capsys, ["ideals", str(path), "--classify-an"])
    assert code == 0
    closed = report["closed_form"]
    assert closed["match"] is True
    assert closed["skip_starts"] == [3, 6]
    assert closed["suffix_starts"] == list(range(0, 8))


def test_ideals_classify_an_refuses_the_zero_algebra(tmp_path, capsys):
    """A 0-dimensional file would be the member n = -1, which does not
    exist: a usage error, not a closed form."""
    path = tmp_path / "zero.json"
    save_algebra(path, LieAlgebra(QQ, 0, {}))
    code, out, err = _run(capsys, ["ideals", str(path), "--classify-an"])
    assert code == 2
    assert out == ""
    assert "--classify-an needs a family member" in err
    assert "dimension 0" in err
    code, report = _porcelain(capsys, ["ideals", str(path)])
    assert code == 0 and report["count"] == 1


def test_brute_cap_environment_knob(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6))
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "100")
    code, _, err = _run(capsys, ["ideals", str(path)])
    assert code == 2
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "not-a-number")
    code, _, _ = _run(capsys, ["ideals", str(path)])
    assert code == 2
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "0")
    code, _, _ = _run(capsys, ["ideals", str(path)])
    assert code == 2
    monkeypatch.delenv("LIEALG_BRUTE_CAP")
    code, _, _ = _run(capsys, ["ideals", str(path)])
    assert code == 0


def test_family_classify_does_not_read_the_brute_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6), canonical_metric(6))
    family = ["classify", "--family", "an", "--n", "6"]
    expected = _run(capsys, family)
    assert expected[0] == 0
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "abc")
    assert _run(capsys, family) == expected
    code, _, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and "LIEALG_BRUTE_CAP must be an integer" in err


def test_analyze_family_member(tmp_path, capsys):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6), canonical_metric(6))
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0
    assert report["dim"] == 7
    assert report["derived_dims"] == [7, 6, 4, 0]
    assert report["center_dim"] == 1
    assert report["solvable"] is True and report["nilpotent"] is False
    assert report["self_dual"] == "yes"
    assert report["file_metric_invariant"] is True
    assert report["file_metric_nondegenerate"] is True
    assert report["killing"][0][0] == "4"


def test_analyze_certificate(tmp_path, capsys):
    path = tmp_path / "r01.json"
    save_algebra(path, LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]}))
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0
    assert report["self_dual"] == "no"
    assert report["certificate"]["kind"] == "generic-determinant-zero"
    assert "reason" not in report

    path = tmp_path / "a7.json"
    save_algebra(path, truncated_algebra(7))
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0 and report["self_dual"] == "no"
    assert report["certificate"] == {
        "kind": "common-radical", "space_dim": 3, "matrix_dim": 8,
        "witness": ["0", "0", "0", "0", "0", "0", "0", "1"]}


def test_analyze_zero_dimensional_algebra_is_self_dual(tmp_path, capsys):
    """The empty metric of the 0-dim algebra is non-degenerate (det 1)."""
    path = tmp_path / "zero.json"
    save_algebra(path, LieAlgebra(QQ, 0, {}))
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0 and report["dim"] == 0
    assert report["self_dual"] == "yes" and report["invariant_metric"] == []
    assert "certificate" not in report and "reason" not in report
    code, out, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0 and "self-dual: yes" in out


def test_analyze_unknown_carries_reason(tmp_path, capsys, monkeypatch):
    a3 = truncated_algebra(3)
    path = tmp_path / "a33.json"
    save_algebra(path, direct_sum(a3, a3))
    monkeypatch.setattr(selfdual, "_SEARCH_BUDGET", 0)
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0 and report["self_dual"] == "unknown"
    assert "certificate" not in report and "invariant_metric" not in report
    assert "common radical" in report["reason"]
    code, out, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0 and "reason: " in out


def test_classify_family_mode(capsys):
    code, report = _porcelain(capsys, ["classify", "--family", "an",
                                       "--n", "6"])
    assert code == 0
    assert report["decomposable"] is False and report["split"] is None
    assert report["candidates"] == [2]
    assert report["verdict"] == "abelian-double-extension-only"
    code, report = _porcelain(capsys, ["classify", "--family", "an",
                                       "--n", "3"])
    assert report["verdict"] == "wigner-obtainable"
    code, report = _porcelain(capsys, ["classify", "--family", "an",
                                       "--n", "9"])
    assert report["verdict"] == "deeper"


def test_classify_usage_errors(tmp_path, capsys):
    code, _, _ = _run(capsys, ["classify", "--family", "an", "--n", "4"])
    assert code == 2
    code, _, _ = _run(capsys, ["classify"])
    assert code == 2
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6), canonical_metric(6))
    code, _, _ = _run(capsys, ["classify", str(path), "--n", "6"])
    assert code == 2
    bare = tmp_path / "bare.json"
    save_algebra(bare, truncated_algebra(6))
    code, _, _ = _run(capsys, ["classify", str(bare)])
    assert code == 2


def test_classify_file_mode(tmp_path, capsys):
    path = tmp_path / "plane.json"
    save_algebra(path, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["1", "0"], ["0", "1"]]))
    code, report = _porcelain(capsys, ["classify", str(path)])
    assert code == 0
    assert report["decomposable"] is True
    assert report["split"]["component"] == [["1", "0"]]
    assert report["split"]["complement"] == [["0", "1"]]


def test_dext_pipeline(tmp_path, capsys):
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    out = tmp_path / "d.json"
    code, report = _porcelain(capsys, ["dext", "--base", str(base),
                                       "--by", str(by),
                                       "--action", str(action),
                                       "-o", str(out)])
    assert code == 0
    assert report["dim"] == 4 and report["decomposable"] == "no"
    alg, metric = load_algebra(out)
    assert invariant_profile(alg) == invariant_profile(truncated_algebra(3))
    assert metric.invariance_witness(alg) is None

    # trivial action gives a decomposable result
    action.write_text(json.dumps([[["0", "0"], ["0", "0"]]]))
    code, report = _porcelain(capsys, ["dext", "--base", str(base),
                                       "--by", str(by),
                                       "--action", str(action),
                                       "-o", str(out)])
    assert code == 0 and report["decomposable"] == "yes"

    # a non-skew action is a construction failure, not a usage error
    action.write_text(json.dumps([[["1", "0"], ["0", "1"]]]))
    code, report = _porcelain(capsys, ["dext", "--base", str(base),
                                       "--by", str(by),
                                       "--action", str(action),
                                       "-o", str(out)])
    assert code == 1 and "skew" in report["error"]

    # a ragged action matrix is malformed input, not a traceback
    action.write_text(json.dumps([[["-1", "0"], ["0"]]]))
    code, _, err = _run(capsys, ["dext", "--base", str(base), "--by", str(by),
                                 "--action", str(action), "-o", str(out)])
    assert code == 3 and "malformed" in err


def test_dext_malformed_pairing_form(tmp_path, capsys):
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    pairing = tmp_path / "F.json"
    argv = ["dext", "--base", str(base), "--by", str(by), "--action",
            str(action), "--F", str(pairing), "-o", str(tmp_path / "d.json")]
    pairing.write_text(json.dumps({"metric": [["9"]]}))
    code, report = _porcelain(capsys, argv)
    assert code == 0
    for bad in ([1], {"metric": [["1"], 7]}, [["1"], ["1", "0"]],
                [["1", "2"], ["3", "4"]], {"metric": None}, [["x"]]):
        pairing.write_text(json.dumps(bad))
        code, _, err = _run(capsys, argv)
        assert code == 3 and "malformed" in err


def test_dext_pairing_form_sizes_and_messages(tmp_path, capsys):
    """The pairing grid sets its own size: a non-square grid is malformed
    input, a square grid of the wrong size fails validation, and the
    messages name the file and the pairing form."""
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    pairing = tmp_path / "F.json"
    argv = ["dext", "--base", str(base), "--by", str(by), "--action",
            str(action), "--F", str(pairing), "-o", str(tmp_path / "d.json")]
    for grid, message in (
            ([["1", "0"]], f"{pairing}: the pairing form must be a 1 x 1 array"),
            ([["1"], ["1", "0"]], f"{pairing}: the pairing form has rows of unequal length"),
            ({"metric": 7}, f"{pairing}: the pairing form must be a list of rows"),
            ([["1", "2"], ["3", "4"]], f"{pairing}: bilinear form matrix must be symmetric")):
        pairing.write_text(json.dumps(grid))
        code, _, err = _run(capsys, argv)
        assert code == 3 and err == f"malformed input: {message}\n"
    for grid in ([["1", "0"], ["0", "1"]], []):
        pairing.write_text(json.dumps(grid))
        code, report = _porcelain(capsys, argv)
        assert code == 1 and report["error"] == (
            "pairing form must be a symmetric form on the acting algebra")


def test_output_errors_exit_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a4.json"
    save_algebra(path, truncated_algebra(4))
    code, out, err = _run(capsys, ["analyze", str(path), "--json",
                                   str(tmp_path / "missing" / "x.json")])
    assert code == 3 and out == "" and "cannot read or write" in err

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    metric_file = tmp_path / "a3.json"
    save_algebra(metric_file, truncated_algebra(3), canonical_metric(3))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    for flags in (["--porcelain"], []):
        assert main(["analyze", str(path), *flags]) == 3
        # a failure report (exit 1) is written the same way
        assert main(["wigner", "--algebra", str(metric_file), "--subalgebra",
                     "3", "-o", str(tmp_path / "w.json"), *flags]) == 3
    monkeypatch.undo()
    assert "Broken pipe" in capsys.readouterr().err


def test_dext_decomposability_capped(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    out = tmp_path / "d.json"
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "8")
    code, report = _porcelain(capsys, ["dext", "--base", str(base),
                                       "--by", str(by),
                                       "--action", str(action),
                                       "-o", str(out)])
    assert code == 0 and report["decomposable"] == "unknown"


def test_dext_decomposability_above_the_default_cap(tmp_path, capsys,
                                                    monkeypatch):
    """A 17-dim output has 2^17 subsets: over the default cap, within
    the raised one, so the verdict is computed rather than refused."""
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 15, {}),
                 BilinearForm(Matrix.identity(QQ, 15)))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    # rotations in the planes (e0, e1) .. (e12, e13); e14 stays fixed
    grid = [["0"] * 15 for _ in range(15)]
    for a in range(0, 14, 2):
        grid[a + 1][a], grid[a][a + 1] = "1", "-1"
    action = tmp_path / "act.json"
    action.write_text(json.dumps([grid]))
    monkeypatch.setenv("LIEALG_BRUTE_CAP", str(1 << 17))
    code, report = _porcelain(capsys, ["dext", "--base", str(base),
                                       "--by", str(by),
                                       "--action", str(action),
                                       "-o", str(tmp_path / "d.json")])
    assert code == 0 and report["decomposable"] == "yes"


def test_wigner_pipeline(tmp_path, capsys):
    so21 = _so21_file(tmp_path / "so21.json")
    out = tmp_path / "contracted.json"
    code, report = _porcelain(capsys, ["wigner", "--algebra", str(so21),
                                       "--subalgebra", "0",
                                       "-o", str(out)])
    assert code == 0
    assert report["dim"] == 4 and report["subalgebra_indices"] == [0]
    alg, metric = load_algebra(out)
    assert invariant_profile(alg) == invariant_profile(truncated_algebra(3))
    assert metric.is_nondegenerate()

    code, report = _porcelain(capsys, ["wigner", "--algebra", str(so21),
                                       "--subalgebra", "0,1",
                                       "-o", str(out)])
    assert code == 1 and "subalgebra" in report["error"]

    code, _, _ = _run(capsys, ["wigner", "--algebra", str(so21),
                               "--subalgebra", "7", "-o", str(out)])
    assert code == 2
    code, _, _ = _run(capsys, ["wigner", "--algebra", str(so21),
                               "--subalgebra", "0,0", "-o", str(out)])
    assert code == 2


def test_wigner_on_the_zero_algebra_names_the_empty_basis(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_algebra(path, LieAlgebra(QQ, 0, {}), BilinearForm.zero(QQ, 0))
    code, _, err = _run(capsys, ["wigner", "--algebra", str(path),
                                 "--subalgebra", "0", "-o", str(tmp_path / "c.json")])
    assert code == 2
    assert "subalgebra index 0 out of range (the basis is empty)" in err
    assert "0..-1" not in err


def test_wigner_degenerate_restriction(tmp_path, capsys):
    path = tmp_path / "a3.json"
    save_algebra(path, truncated_algebra(3), canonical_metric(3))
    out = tmp_path / "c.json"
    code, report = _porcelain(capsys, ["wigner", "--algebra", str(path),
                                       "--subalgebra", "3",
                                       "-o", str(out)])
    assert code == 1 and "non-degenerate" in report["error"]


def test_malformed_input_exit_code(tmp_path, capsys):
    code, _, err = _run(capsys, ["check", "jacobi",
                                 str(tmp_path / "missing.json")])
    assert code == 3 and "cannot read" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    code, _, err = _run(capsys, ["check", "jacobi", str(garbage)])
    assert code == 3 and "malformed" in err
    for raw in (b"\xff\xfe{", b"[" * 100000 + b"]" * 100000):
        garbage.write_bytes(raw)  # not UTF-8; nested past the recursion limit
        code, _, err = _run(capsys, ["check", "jacobi", str(garbage)])
        assert code == 3 and "malformed" in err

    noncanon = tmp_path / "noncanon.json"
    doc = algebra_to_document(truncated_algebra(3))
    doc["brackets"][0]["terms"][0]["c"] = "2/4"
    noncanon.write_text(dump_document(doc))
    code, _, err = _run(capsys, ["check", "jacobi", str(noncanon)])
    assert code == 3

    # JSON booleans are not indices, even where they equal the right one
    boolean = tmp_path / "boolean.json"
    for key, value in (("i", False), ("j", True), ("k", True)):
        doc = algebra_to_document(truncated_algebra(3))
        record = doc["brackets"][0]
        (record["terms"][0] if key == "k" else record)[key] = value
        boolean.write_text(dump_document(doc))
        code, _, err = _run(capsys, ["check", "jacobi", str(boolean)])
        assert code == 3 and "malformed" in err


def test_json_report_file(tmp_path, capsys):
    path = tmp_path / "a6.json"
    save_algebra(path, truncated_algebra(6))
    sink = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["ideals", str(path), "--json", str(sink)])
    assert code == 0
    assert "coordinate ideals" in out  # human lines still printed
    envelope = json.loads(sink.read_text())
    assert envelope["command"] == "ideals"
    assert envelope["ok"] is True and envelope["count"] == 10


def test_porcelain_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["classify", "--family", "an", "--n", "6",
                                "--porcelain"])
    _, second, _ = _run(capsys, ["classify", "--family", "an", "--n", "6",
                                 "--porcelain"])
    assert first == second


def test_large_moduli_are_decided_or_refused_at_once(tmp_path, capsys):
    path = tmp_path / "big.json"
    for p, expected in ((10 ** 18 + 3, 0), (2 ** 89 - 1, 3)):
        path.write_text(json.dumps({"format": FORMAT_TAG, "field": "Fp", "p": p,
                                    "dim": 2, "brackets": []}))
        code, _, err = _run(capsys, ["analyze", str(path)])
        assert code == expected
    assert "out of range" in err
    code, _, err = _run(capsys, ["gen", "--family", "an", "--n", "3", "--hat",
                                 f"zmod:{2 ** 89 - 1}", "--field", "Fp",
                                 "-o", str(tmp_path / "x.json")])
    assert code == 2 and "out of range" in err


def test_usage_errors_leave_the_reused_parser_intact(tmp_path, capsys):
    """The parser is built once per process; an argparse usage error in
    between does not change what a valid call prints."""
    path = str(_so21_file(tmp_path / "so21.json"))
    calls = [["classify", "--family", "an", "--n", "6", "--porcelain"],
             ["classify", path, "--porcelain"],
             ["check", "invariance", path]]
    first = [_run(capsys, argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0]
    for bad in (["nope"], ["analyze"], ["classify", "--n", "x"],
                ["check", "jacobi", path, "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert [_run(capsys, argv) for argv in calls] == first


def test_rebound_command_functions_are_called_with_the_reused_parser(capsys, monkeypatch):
    """A _cmd_* function rebound after the parser was built (a tracing
    wrapper, say) is the one ``main`` calls."""
    from liealg import cli
    argv = ["classify", "--family", "an", "--n", "6"]
    expected = _run(capsys, argv)
    calls = []

    def wrapper(args):
        calls.append(args.command)
        return original(args)

    original = cli._cmd_classify
    monkeypatch.setattr(cli, "_cmd_classify", wrapper)
    assert _run(capsys, argv) == expected and calls == ["classify"]


def _strings(form):
    """A form's matrix as the rows of canonical strings a report holds."""
    return [[scalar_to_string(x) for x in row] for row in form.matrix.rows]


def test_prime_field_member_through_every_command(tmp_path, capsys):
    """A6 over F_3, generated and run through each command that reads a
    file: the answers are the library's over the same field."""
    f3 = PrimeField(3)
    alg = truncated_algebra(6, field=f3)
    path, contracted = str(tmp_path / "a6.json"), str(tmp_path / "w.json")
    code, report = _porcelain(capsys, ["gen", "--family", "an", "--n", "6", "--field", "Fp",
                                       "--metric", "b=1", "-o", path])
    assert code == 0 and report["field"] == "F3"
    loaded, metric = load_algebra(path)
    assert loaded == alg and metric == canonical_metric(6, f3.one, f3)

    duality = is_self_dual(alg)
    code, report = _porcelain(capsys, ["analyze", path])
    assert code == 0
    assert report["derived_dims"] == [s.dim for s in alg.derived_series()] == [7, 6, 4, 0]
    assert report["lower_central_dims"] == [s.dim for s in alg.lower_central_series()] == [7, 6]
    assert report["center_dim"] == alg.center().dim == 1
    assert report["killing"] == _strings(alg.killing_form())
    assert report["self_dual"] == duality.verdict == "yes"
    assert report["invariant_metric"] == _strings(duality.metric)
    assert report["file_metric_invariant"] is report["file_metric_nondegenerate"] is True

    for prop in ("jacobi", "invariance", "grading"):
        code, report = _porcelain(capsys, ["check", prop, path])
        assert code == 0 and report["holds"] is True

    code, report = _porcelain(capsys, ["classify", path])
    assert code == 0 and report["decomposable"] is False
    assert decomposability_check(alg, metric) is None

    code, report = _porcelain(capsys, ["ideals", path, "--classify-an"])
    assert code == 0 and report["closed_form"]["match"] is True
    assert report["ideals"] == [list(s.pivot_columns()) for s in enumerate_coordinate_ideals(alg)]

    code, report = _porcelain(capsys, ["wigner", "--algebra", path, "--subalgebra", "0",
                                       "-o", contracted])
    assert code == 0 and report["dim"] == 8
    b0 = Subspace.coordinate(f3, alg.dim, [0])
    assert load_algebra(contracted) == wigner_contract(ContractionInput(alg, metric, b0))
    code, report = _porcelain(capsys, ["check", "invariance", contracted])
    assert code == 0 and report["holds"] is True


def test_zmod_member_over_its_prime_field_is_not_self_dual(tmp_path, capsys):
    path = str(tmp_path / "a9.json")
    code, _ = _porcelain(capsys, ["gen", "--family", "an", "--n", "9", "--hat", "zmod:5",
                                  "--field", "Fp", "-o", path])
    assert code == 0
    duality = is_self_dual(truncated_algebra(9, ZModHat(5), PrimeField(5)))
    code, report = _porcelain(capsys, ["analyze", path])
    assert code == 0 and report["self_dual"] == duality.verdict == "no"
    assert report["certificate"] == duality.certificate


def test_analyze_finds_the_first_seeded_sum(tmp_path, capsys):
    """A3 + A3 has five invariant forms, each degenerate, and its 9^5 grid
    is over the budget: the metric is the first seeded sum, -(F_1 + ... + F_5)."""
    a3 = truncated_algebra(3)
    alg = direct_sum(a3, a3)
    path = tmp_path / "a33.json"
    save_algebra(path, alg)
    forms = invariant_form_space(alg)
    assert len(forms) == 5 and not any(f.is_nondegenerate() for f in forms)
    total = forms[0].matrix
    for form in forms[1:]:
        total = total + form.matrix
    duality = is_self_dual(alg)
    assert duality.metric == BilinearForm(total.scale(QQ(-1)))
    assert duality.metric.is_invariant(alg) and duality.metric.is_nondegenerate()
    code, report = _porcelain(capsys, ["analyze", str(path)])
    assert code == 0 and report["self_dual"] == "yes"
    assert report["invariant_metric"] == _strings(duality.metric)
