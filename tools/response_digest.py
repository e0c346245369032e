"""Print one sha256 per benchmark request, to compare two checkouts' answers.

Usage, from the root of a checkout:

    python3 tools/response_digest.py > digests.txt

Runs one pass of every ``perfbench`` workload for seeds 7 and 8 with the
package under this checkout's ``src/`` and hashes each response: exit
code, stdout and output files, with the work directory masked.  Two
checkouts answer byte-identically when their outputs diff empty.

Each pass then runs a second time under the same import, so every file
it loads was loaded before in that process; if a second-pass response
differs from the first, the script names the request on stderr and
exits 1.  Only the first pass is printed.
"""

import hashlib
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


def digests(cli, requests, workdir) -> list[str]:
    """One pass of requests: a sha256 per response, work directory masked."""
    hashes = []
    for resp in run.run_pass(cli, requests):
        seen = repr((resp.code, resp.stdout, resp.files)).replace(workdir, "<work>")
        hashes.append(hashlib.sha256(seen.encode()).hexdigest())
    return hashes


differing = []
for name in sorted(workloads.WORKLOADS):
    for seed in (7, 8):
        workdir = tempfile.mkdtemp(prefix="liealg-digest-")
        try:
            cli, requests, _ = run.setup(name, seed, workdir)
            first = digests(cli, requests, workdir)
            second = digests(cli, requests, workdir)
            for req, digest, again in zip(requests, first, second):
                print(name, seed, req.label, digest)
                if again != digest:
                    differing.append(f"{name} {seed} {req.label}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
for label in differing:
    print(f"second pass differs from the first: {label}", file=sys.stderr)
sys.exit(1 if differing else 0)
