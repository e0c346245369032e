"""Checks of the benchmark's own machinery on small inputs.

Run from the repository root: ``python -m pytest perfbench``.  These
use the liealg modules already imported (no re-import), and restore
every binding the tracer patches.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import liealg.cli  # noqa: E402
import liealg.core  # noqa: E402
import liealg.linalg  # noqa: E402

import inputs as gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


def _requests(workdir):
    """A non-metric member (self-duality search), a metric member, a construction."""
    files = workloads._Files(workdir)
    a4 = gen.family(4)
    a6, m6 = gen.family(6), gen.canonical_metric(6)
    p4 = files.algebra("a4.json", a4)
    p6 = files.algebra("a6.json", a6, m6)
    out = files.path("w6.out.json")
    return [
        Request("analyze", ("analyze", p4, "--porcelain"), "analyze A4"),
        Request("analyze", ("analyze", p6, "--porcelain"), "analyze A6"),
        Request("classify", ("classify", p6, "--porcelain"), "classify A6"),
        Request("construct", ("wigner", "--algebra", p6, "--subalgebra", "0",
                              "-o", out, "--porcelain"), "wigner A6", outputs=(out,)),
    ]


def _nested(spans, child, ancestor):
    return [s for sid, s in enumerate(spans)
            if s[0] == child and tracer._has_ancestor(spans, sid, ancestor)]


def test_traced_pass_nests_kernel_spans_and_repeats_responses(tmp_path):
    requests = _requests(str(tmp_path))
    original = liealg.linalg.nullspace
    plain = run.run_pass(liealg.cli, requests)
    spans = tracer.Tracer()
    with spans:
        assert liealg.core.nullspace is not original
        traced = run.run_pass(liealg.cli, requests)
    assert liealg.core.nullspace is original
    assert liealg.linalg.Subspace.__init__.__name__ == "__init__"
    assert "__wrapped__" not in vars(liealg.linalg.Subspace.__init__)

    for child, ancestor in (("linalg.nullspace", "selfdual.invariant_form_space"),
                            ("linalg.det", "selfdual.is_self_dual")):
        nested = _nested(spans.spans, child, ancestor)
        assert nested and sum(end - start for _, _, _, start, end, _ in nested) > 0
    for a, b in zip(plain, traced):
        assert (a.code, a.stdout, a.files) == (b.code, b.stdout, b.files)
        assert a.code == 0 and a.stdout


def test_fraction_ops_repeat_exactly(tmp_path):
    requests = _requests(str(tmp_path))[:2]
    counts = [tracer.profile_fields(lambda: run.run_pass(liealg.cli, requests))[1]
              ["fraction_ops"] for _ in range(2)]
    assert counts[0] == counts[1] > 0


def test_spec_lists_every_workload():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(spec["workloads"]) == set(workloads.WORKLOADS) == {
        w["name"] for w in bench["workloads"]}


def test_rotated_a3_sum_mixes_the_blocks_and_stays_integral():
    for seed in range(5):
        p = workloads.signed_rotation("rotated-dense:a33", 8, random.Random(seed))
        assert any(p[i][j] for i in range(4) for j in range(4, 8))
        assert any(p[i][j] for i in range(4, 8) for j in range(4))
        a3 = gen.family(3)
        rot = gen.rotate(gen.direct_sum(a3, a3), p)
        assert all(c.denominator == 1 for terms in rot.table.values()
                   for c in terms.values())
