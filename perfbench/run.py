"""liealg benchmark: seeded CLI workloads, checked answers, layer timings.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload family-sparse --seed 1 --seconds 20 --trace 0

One client, one process, one thread, closed loop: each request is
``liealg.cli.main(argv)`` called in-process with stdout captured, and
the next request starts when the previous one has returned.  The
package is imported from ``src/`` of the checkout this file sits in; if
it is missing the benchmark exits with code 2 and prints no result.

``--trace 0`` reports the end-to-end metrics: set-up (median of several
imports plus input generations), medians over a fixed number of passes
sized to about ``--seconds`` seconds, in seconds and in units of a
reference computation timed alongside, latency percentiles and peak
memory.  ``--trace 1`` runs one untraced pass, one pass under the layer
tracer and one under cProfile, and reports the per-layer metrics.
Every response is checked against known answers and re-verified with
sympy after the timed passes.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUPS_PER_PASS = 5
MIN_PASSES = 2


@dataclass
class Response:
    latency: float
    code: object
    stdout: str
    files: tuple


def import_liealg_cli():
    """Import liealg.cli from this checkout's src/, freshly (timed as set-up)."""
    for name in [m for m in sys.modules if m == "liealg" or m.startswith("liealg.")]:
        del sys.modules[name]
    cli = importlib.import_module("liealg.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"liealg imported from {cli.__file__}, not from {SRC}")
    return sys.modules["liealg.cli"]


def setup(workload: str, seed: int, workdir: str):
    """Import plus generating and writing the inputs; returns (cli, requests, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    cli = import_liealg_cli()
    os.makedirs(workdir)
    requests = workloads.build(workload, seed, workdir)
    return cli, requests, perf_counter() - start


def run_request(cli, req) -> Response:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crashed run
        code = f"raised {exc!r}"
    latency = perf_counter() - start
    files = []
    for path in req.outputs:
        try:
            with open(path, "rb") as fh:
                files.append(fh.read())
        except OSError:
            files.append(None)
    return Response(latency, code, out.getvalue(), tuple(files))


_REF_ROWS = [[Fraction(random.Random(i * 18 + j).randint(-9, 9)) for j in range(18)]
             for i in range(18)]


def reference_seconds() -> float:
    """Time of a fixed exact elimination over Q that uses no liealg code.

    Sampled before every request, it tracks how fast the host runs this
    kind of Python code at that moment; the ``*_ref`` metrics divide a
    pass's seconds by the pass's median reference time.
    """
    rows = [list(r) for r in _REF_ROWS]
    start = perf_counter()
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return perf_counter() - start


def run_pass(cli, requests, on_request=None) -> list[Response]:
    responses = []
    for idx, req in enumerate(requests):
        if on_request is not None:
            on_request(idx)
        responses.append(run_request(cli, req))
    return responses


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def judge(requests, passes):
    """Check the first pass against known answers; later passes must repeat it.

    Returns (attempted, failed, unexpected, decided, verdicts, problems).
    """
    import verify  # imports sympy: only after every timed pass

    attempted = failed = unexpected = decided = verdicts = 0
    problems = []
    for idx, req in enumerate(requests):
        first = passes[0][idx]
        outcome = verify.check(req, first.code, first.stdout)
        if not outcome.ok:
            tag = "known defect" if outcome.known else "FAILED"
            problems.append(f"{tag}: {req.label}: {outcome.problem}")
        for number, responses in enumerate(passes):
            resp = responses[idx]
            attempted += 1
            if req.verdict_bearing:
                verdicts += 1
                decided += verify.decided(req, resp.code, resp.stdout)
            repeated = (resp.code, resp.stdout, resp.files) == (first.code, first.stdout,
                                                                first.files)
            if not repeated:
                problems.append(f"FAILED: {req.label}: pass {number + 1} differs from pass 1")
            if not (outcome.ok and repeated):
                failed += 1
                unexpected += not (outcome.known and repeated)
    return attempted, failed, unexpected, decided, verdicts, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, (100 * (n - 10)) // n)


def pass_count(workload: str, seconds: float) -> int:
    """Passes for a run of about ``seconds``, fixed by the run length, not timed,
    so every commit measured with the same settings makes the same number."""
    return max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))


def end_to_end(args, workdir):
    setups, passes, refs = [], [], []
    for _ in range(pass_count(args.workload, args.seconds)):
        for _ in range(SETUPS_PER_PASS):
            cli, requests, seconds = setup(args.workload, args.seed, workdir)
            setups.append(seconds)
        pass_refs = []
        passes.append(run_pass(cli, requests,
                               lambda idx: pass_refs.append(reference_seconds())))
        refs.append(statistics.median(pass_refs))
    rss = peak_rss_mb()
    attempted, failed, unexpected, decided, verdicts, problems = judge(requests, passes)

    def timed(name, select):
        """Median over passes, in seconds and in reference units (see README)."""
        per_pass = [sum(r.latency for req, r in zip(requests, p) if select(req))
                    for p in passes]
        metrics[f"{name}_s"] = (statistics.median(per_pass), "s")
        metrics[f"{name}_ref"] = (statistics.median(t / ref for t, ref in zip(per_pass, refs)),
                                  "ref")

    metrics = {"setup_s": (statistics.median(setups), "s"),
               "reference_s": (statistics.median(refs), "s")}
    timed("batch", lambda req: True)
    for kind in workloads.KINDS:
        if any(req.kind == kind for req in requests):
            timed(kind, lambda req, kind=kind: req.kind == kind)
    latencies = [statistics.median(p[idx].latency for p in passes)
                 for idx in range(len(requests))]
    pct = tail_percentile(len(latencies))
    metrics["request_p50_s"] = (statistics.median(latencies), "s")
    metrics["request_tail_s"] = (nearest_rank(latencies, pct), "s")
    metrics["decided_share"] = (decided / verdicts, "ratio")
    metrics["failed_share"] = (failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (rss, "MB")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(requests)} requests, closed loop, 1 client; medians over passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6g} {unit}")
    print(f"  request_tail_s is p{pct} of {len(latencies)} request latencies "
          f"({sum(1 for x in latencies if x > metrics['request_tail_s'][0])} above it); "
          f"setup_s is the median of {len(setups)} set-ups")
    for line in problems:
        print(f"  {line}")
    return attempted, failed, unexpected, metrics


def write_spans(spans, requests, path):
    """One JSON line per span: id, parent, request label, name, start, end, counters."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, parent, request, start, end, info) in enumerate(spans):
            fh.write(json.dumps({"id": sid, "parent": parent,
                                 "request": requests[request].label, "name": name,
                                 "start": start, "end": end, "info": info}) + "\n")


def traced(args, workdir):
    import tracer

    cli, requests, _ = setup(args.workload, args.seed, workdir)
    plain = run_pass(cli, requests)
    spans = tracer.Tracer()

    def mark(idx):
        spans.request = idx

    with spans:
        with_spans = run_pass(cli, requests, mark)
    with_profile, fields = tracer.profile_fields(lambda: run_pass(cli, requests))
    passes = [plain, with_spans, with_profile]
    attempted, failed, unexpected, _, _, problems = judge(requests, passes)

    untraced_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in with_spans)
    write_spans(spans.spans, requests,
                os.path.join(HERE, "_out", f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = tracer.layer_metrics(spans.spans, untraced_s, traced_s, fields)
    top = tracer.top_level_s(spans.spans)
    print(f"workload {args.workload} seed {args.seed}: traced pass of "
          f"{len(requests)} requests, {len(spans.spans)} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:12.6g} {unit}")
    print(f"  top-level spans + cli.main.self_s = {top:.4f} s; untraced batch_s = "
          f"{untraced_s:.4f} s; traced batch_s = {traced_s:.4f} s")
    for line in problems:
        print(f"  {line}")
    return attempted, failed, unexpected, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liealg", "cli.py")):
        print(f"error: no liealg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            attempted, failed, unexpected, metrics = traced(args, workdir)
        else:
            attempted, failed, unexpected, metrics = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": metrics[m["name"]][1]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
