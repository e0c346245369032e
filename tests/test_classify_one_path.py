"""``classify`` on one path: a family member and its file agree.

``classify --family an --n N`` takes the closed-form ideal list and
``classify FILE`` the enumerated one; everything after that is shared.
The same path checks ``--family`` in both forms, and every subcommand
that enumerates reads ``LIEALG_BRUTE_CAP`` before any file.
"""

import json

import pytest

from liealg.cli import main
from liealg.core import BilinearForm, LieAlgebra
from liealg.fields import QQ
from liealg.io import save_algebra


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_member_and_its_file_give_the_same_split(n, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LIEALG_BRUTE_CAP", raising=False)
    path = str(tmp_path / f"a{n}.json")
    assert _run(capsys, ["gen", "--family", "an", "--n", str(n),
                         "--metric", "b=0", "-o", path])[0] == 0
    code, out, _ = _run(capsys, ["classify", path, "--porcelain"])
    from_file = json.loads(out)
    code_m, out_m, _ = _run(capsys, ["classify", "--family", "an", "--n", str(n),
                                     "--porcelain"])
    member = json.loads(out_m)
    assert code == code_m == 0
    assert (from_file["decomposable"], from_file["split"]) == \
        (member["decomposable"], member["split"]) == (False, None)
    assert list(member) == ["command", "ok", "exit_code", "n", "decomposable",
                            "split", "candidates", "verdict"]
    assert list(from_file) == ["command", "ok", "exit_code", "decomposable", "split"]

    code, human, err = _run(capsys, ["classify", "--family", "an", "--n", str(n)])
    lines = human.splitlines()
    assert (code, err, len(lines)) == (0, "", 4)
    assert lines[0] == f"family member n={n} (dim {n + 1})"
    assert lines[1] == "decomposable: False"
    assert lines[2] == f"double-extension candidates m: {member['candidates']}"
    assert lines[3] == f"verdict: {member['verdict']}"
    assert _run(capsys, ["classify", path]) == (0, "decomposable: False\n", "")


def test_classify_file_checks_the_family(tmp_path, capsys):
    path = tmp_path / "plane.json"
    assert _run(capsys, ["gen", "--family", "an", "--n", "3", "--metric", "b=0",
                         "-o", str(path)])[0] == 0
    for argv in (["classify", "--family", "xyz", "--n", "6"],
                 ["classify", str(path), "--family", "xyz"]):
        assert _run(capsys, argv) == (2, "", "error: only --family an is supported\n")


def _dext_inputs(tmp_path):
    base = tmp_path / "base.json"
    save_algebra(base, LieAlgebra(QQ, 2, {}),
                 BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
    by = tmp_path / "line.json"
    save_algebra(by, LieAlgebra(QQ, 1, {}))
    action = tmp_path / "act.json"
    action.write_text(json.dumps([[["-1", "0"], ["0", "1"]]]))
    return ["--base", str(base), "--by", str(by), "--action", str(action)]


def test_dext_reads_a_malformed_cap_before_it_writes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "d.json"
    argv = ["dext", *_dext_inputs(tmp_path), "-o", str(out)]
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "abc")
    code, stdout, err = _run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err == "error: LIEALG_BRUTE_CAP must be an integer, got 'abc'\n"
    assert not out.exists()
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "8")
    code, stdout, _ = _run(capsys, argv + ["--porcelain"])
    assert code == 0 and json.loads(stdout)["decomposable"] == "unknown"
    assert out.exists()


def test_enumerating_commands_read_the_cap_before_the_file(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.json")
    monkeypatch.setenv("LIEALG_BRUTE_CAP", "0")
    for argv in (["ideals", missing], ["classify", missing]):
        assert _run(capsys, argv) == (2, "", "error: LIEALG_BRUTE_CAP must be positive\n")
