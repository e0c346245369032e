"""
The JSON interchange format and the command line
================================================

Round-trips an algebra through the on-disk format and drives the same
pipeline through the CLI entry point.  Scalars are stored as canonical
rational strings, so a load/save cycle is byte-identical.
"""

import json
import tempfile
from pathlib import Path

from liealg import canonical_metric, load_algebra, save_algebra, truncated_algebra
from liealg.cli import main

with tempfile.TemporaryDirectory(prefix="liealg-demo-") as tmp:
    workdir = Path(tmp)

    # save a member together with its metric
    path = workdir / "a6.json"
    save_algebra(path, truncated_algebra(6), canonical_metric(6, 1))
    print("document head:")
    print("\n".join(path.read_text().splitlines()[:12]))

    # loading restores the exact same objects, byte for byte on re-save
    alg, metric = load_algebra(path)
    copy = workdir / "copy.json"
    save_algebra(copy, alg, metric)
    print("\nbit-exact round trip:", path.read_bytes() == copy.read_bytes())

    # the same flow through the CLI: generate, check, analyze, classify
    print("\n$ liealg gen --family an --n 6 --metric b=1 -o gen.json")
    main(["gen", "--family", "an", "--n", "6", "--metric", "b=1",
          "-o", str(workdir / "gen.json")])

    print("\n$ liealg check invariance gen.json")
    main(["check", "invariance", str(workdir / "gen.json")])

    print("\n$ liealg ideals gen.json --classify-an")
    main(["ideals", str(workdir / "gen.json"), "--classify-an"])

    print("\n$ liealg classify --family an --n 6 --porcelain")
    main(["classify", "--family", "an", "--n", "6", "--porcelain"])

    # machine consumers use --porcelain or --json FILE; exit codes are
    # 0 success, 1 determinate negative, 2 usage, 3 unreadable input
    code = main(["gen", "--family", "an", "--n", "4", "--metric", "b=0",
                 "-o", str(workdir / "refused.json")])
    print("\nmetric refused off the lattice, exit code:", code)
