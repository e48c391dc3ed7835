"""Print the golden digests of the fixed golden inputs as JSON.

    python3 bench/golden.py > bench/golden.json

golden.json pins the sweep CSV bytes, the SimStats rows, the final ledger
snapshot of shared_ledger and the multiparty payouts, as produced by the
commit that introduced the benchmark.  A speed-up must leave every digest
unchanged; rewrite the file only in a change that means to alter outputs.
"""

import hashlib
import json
import sys

from run import BENCH, SRC

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

lab = workloads.load_lab()
digests = {
    name: hashlib.sha256(cls(lab, workloads.GOLDEN_SEED, **workloads.GOLDEN_ARGS[name]).golden()).hexdigest()
    for name, cls in workloads.WORKLOADS.items()
}
print(json.dumps(digests, indent=2))
