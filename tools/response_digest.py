"""Print one sha256 per benchmark request, to compare two checkouts' answers.

Usage, from the root of a checkout:

    python3 tools/response_digest.py > digests.txt

Runs one pass of every ``perfbench`` workload for seeds 7 and 8 with the
package under this checkout's ``src/`` and hashes each response: exit
code, stdout and output files, with the work directory masked.  Two
checkouts answer byte-identically when their outputs diff empty.
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
for name in sorted(workloads.WORKLOADS):
    for seed in (7, 8):
        workdir = tempfile.mkdtemp(prefix="liealg-digest-")
        try:
            cli, requests, _ = run.setup(name, seed, workdir)
            for req, resp in zip(requests, run.run_pass(cli, requests)):
                seen = repr((resp.code, resp.stdout, resp.files)).replace(workdir, "<work>")
                print(name, seed, req.label, hashlib.sha256(seen.encode()).hexdigest())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
