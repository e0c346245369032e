"""Property tests of the CLI input boundary.

Whatever a mutated ``liealg-v1`` document, ``--action`` file or ``--F``
file holds, ``main`` ends with an exit code of the contract (0, 1, 2,
3) and never with an exception.
"""

import copy
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg.cli import main  # noqa: E402
from liealg.core import BilinearForm, LieAlgebra  # noqa: E402
from liealg.family import canonical_metric, truncated_algebra  # noqa: E402
from liealg.fields import QQ, PrimeField  # noqa: E402
from liealg.io import FORMAT_TAG, algebra_to_document, save_algebra  # noqa: E402

_SETTINGS = dict(deadline=None, database=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])

# Integers stay small because a document's dim is drawn from them and the
# work of a command grows with dim; the exit codes are what is under test.
_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from(["0", "1", "-1", "1/2", "2/4", "3", "x", "", "Q", "Fp",
                     FORMAT_TAG]))
_KEYS = st.sampled_from(["format", "field", "p", "dim", "brackets", "i", "j",
                         "k", "c", "terms", "labels", "grading", "metric",
                         "action"])
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8)

_DOCUMENTS = (
    algebra_to_document(truncated_algebra(3), canonical_metric(3)),
    algebra_to_document(truncated_algebra(2, field=PrimeField(3))),
)
_ACTION = [[["-1", "0"], ["0", "1"]]]
_PAIRINGS = ({"metric": [["9"]]}, [["0"]])


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, seed, changes=st.integers(1, 3)):
    """seed with some values replaced, deleted or added."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(changes)):
        path = draw(st.sampled_from(list(_paths(doc))))
        new = draw(_JSON)
        if not path:
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["replace", "delete", "add"]))
        if how == "replace":
            parent[path[-1]] = new
        elif how == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], new)
        else:
            parent[draw(_KEYS)] = new
    return doc


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@settings(max_examples=60, **_SETTINGS)
@given(doc=st.sampled_from(_DOCUMENTS).flatmap(_mutated),
       command=st.sampled_from([["check", "jacobi"], ["check", "invariance"],
                                ["check", "grading"], ["analyze"], ["ideals"],
                                ["classify"]]))
def test_mutated_documents_keep_the_exit_code_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(os.path.join(tmp, "doc.json"), doc)
        assert main([*command, path, "--porcelain"]) in (0, 1, 2, 3)


@settings(max_examples=100, **_SETTINGS)
@given(action=_mutated(_ACTION, st.integers(0, 2)),
       pairing=st.sampled_from(_PAIRINGS).flatmap(_mutated))
def test_mutated_action_and_pairing_files_keep_the_exit_code_contract(
        action, pairing):
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        save_algebra(base, LieAlgebra(QQ, 2, {}),
                     BilinearForm.from_entries(QQ, [["0", "1"], ["1", "0"]]))
        by = os.path.join(tmp, "line.json")
        save_algebra(by, LieAlgebra(QQ, 1, {}))
        argv = ["dext", "--base", base, "--by", by,
                "--action", _write(os.path.join(tmp, "act.json"), action),
                "--F", _write(os.path.join(tmp, "F.json"), pairing),
                "-o", os.path.join(tmp, "out.json"), "--porcelain"]
        assert main(argv) in (0, 1, 2, 3)
