"""The CLI exit-code contract on the branches the other CLI tests leave:
each call ends with its exit code and its one-line message, never a
traceback (0 success, 1 determinate negative, 2 usage or budget, 3
malformed input)."""

import json

import pytest

from liealg.cli import main
from liealg.core import BilinearForm, LieAlgebra
from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import QQ, PrimeField
from liealg.io import FORMAT_TAG, load_algebra, save_algebra


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def _abelian_plane(path):
    save_algebra(path, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    return str(path)


@pytest.mark.parametrize("flags, message", [
    (["--hat", "zmod:x"], "bad modulus in --hat 'zmod:x'"),
    (["--hat", "foo"], "unknown hat 'foo' (expected mod3, identity, or zmod:P)"),
    (["--metric", "1"], "--metric takes the form b=RATIONAL"),
    (["--hat", "identity", "--field", "Fp"], "--field Fp needs a hat with a finite modulus"),
])
def test_gen_usage_messages(tmp_path, capsys, flags, message):
    out = tmp_path / "x.json"
    code, stdout, err = _run(capsys, ["gen", "--family", "an", "--n", "3", *flags,
                                      "-o", str(out)])
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_gen_over_fp_takes_the_field_of_the_default_hat(tmp_path, capsys):
    out = tmp_path / "f3.json"
    code, stdout, _ = _run(capsys, ["gen", "--family", "an", "--n", "4", "--field", "Fp",
                                    "-o", str(out), "--porcelain"])
    report = json.loads(stdout)
    assert code == 0 and report["field"] == "F3" and report["hat"] == "mod3"
    alg, metric = load_algebra(out)
    assert alg.field == PrimeField(3) and alg.dim == 5 and metric is None


def test_classify_usage_messages(tmp_path, capsys):
    code, stdout, err = _run(capsys, ["classify", "--family", "bn", "--n", "6"])
    assert (code, stdout, err) == (2, "", "error: only --family an is supported\n")
    path = tmp_path / "a18.json"
    save_algebra(path, truncated_algebra(18), canonical_metric(18))
    code, stdout, err = _run(capsys, ["classify", str(path)])
    assert (code, stdout) == (2, "")
    assert err == "error: 2^19 subsets exceed the enumeration cap 65536\n"


def test_check_rejects_an_unknown_property(tmp_path, capsys):
    path = tmp_path / "a3.json"
    save_algebra(path, truncated_algebra(3))
    with pytest.raises(SystemExit) as exc:
        main(["check", "foo", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'foo'" in err and "Traceback" not in err


def test_dext_usage_messages(tmp_path, capsys):
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    line = tmp_path / "line.json"
    save_algebra(line, LieAlgebra(QQ, 1, {}))
    bare = tmp_path / "bare.json"
    save_algebra(bare, LieAlgebra(QQ, 2, {}))
    a3 = tmp_path / "a3.json"
    save_algebra(a3, truncated_algebra(3), canonical_metric(3))
    f3_line = tmp_path / "f3line.json"
    save_algebra(f3_line, LieAlgebra(PrimeField(3), 1, {}))
    plane = _abelian_plane(tmp_path / "plane.json")
    for base, by, message in (
            (bare, line, "--base file must carry the metric of the Abelian part"),
            (a3, line, "--base algebra must be Abelian"),
            (plane, f3_line, "--base and --by files use different fields")):
        code, stdout, err = _run(capsys, ["dext", "--base", str(base), "--by", str(by),
                                          "--action", str(action),
                                          "-o", str(tmp_path / "d.json")])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "d.json").exists()


def test_dext_reads_the_action_bare_or_under_its_key(tmp_path, capsys):
    plane = _abelian_plane(tmp_path / "plane.json")
    line = tmp_path / "line.json"
    save_algebra(line, LieAlgebra(QQ, 1, {}))
    matrices = [[["-1", "0"], ["0", "1"]]]
    outputs = []
    for name, doc in (("bare", matrices), ("keyed", {"action": matrices})):
        action = tmp_path / f"{name}.act.json"
        action.write_text(json.dumps(doc))
        out = tmp_path / f"{name}.json"
        code, _, err = _run(capsys, ["dext", "--base", plane, "--by", str(line),
                                     "--action", str(action), "-o", str(out)])
        assert (code, err) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_wigner_usage_messages(tmp_path, capsys):
    bare = tmp_path / "a3.json"
    save_algebra(bare, truncated_algebra(3))
    metric = tmp_path / "a3m.json"
    save_algebra(metric, truncated_algebra(3), canonical_metric(3))
    for path, indices, message in (
            (bare, "0", "--algebra file must carry an invariant metric"),
            (metric, "a,b", "bad index list 'a,b'"),
            (metric, ",", "subalgebra index list is empty")):
        code, stdout, err = _run(capsys, ["wigner", "--algebra", str(path),
                                          "--subalgebra", indices,
                                          "-o", str(tmp_path / "c.json")])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_ideals_classify_an_mismatch_is_a_negative(tmp_path, capsys):
    """The Abelian d = 7 table has every one of its 128 coordinate
    subsets as an ideal, not the closed form of the member n = 6."""
    path = tmp_path / "ab7.json"
    save_algebra(path, LieAlgebra(QQ, 7, {}))
    code, stdout, err = _run(capsys, ["ideals", str(path), "--classify-an", "--porcelain"])
    report = json.loads(stdout)
    assert (code, err) == (1, "")
    assert report["exit_code"] == 1 and report["ok"] is False
    assert report["count"] == 128 and report["closed_form"]["match"] is False


@pytest.mark.parametrize("changes, message", [
    ({"field": "Fp"}, "field 'Fp' requires an integer 'p'"),
    ({"field": "Fp", "p": "5"}, "field 'Fp' requires an integer 'p'"),
    ({"brackets": [7]}, "bracket record must be an object"),
])
def test_analyze_malformed_documents(tmp_path, capsys, changes, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format": FORMAT_TAG, "field": "Q", "dim": 2,
                                "brackets": [], **changes}))
    code, stdout, err = _run(capsys, ["analyze", str(path)])
    assert (code, stdout, err) == (3, "", f"malformed input: {message}\n")
