"""Rewrite ``digests.json``: the digest of the serving traces of each seed.

    python3 perfbench/digests.py

Run from the root of a checkout.  Do this only when a change to
``repro.sim`` is meant to change the traces; otherwise a digest mismatch
in a run is the signal that the inputs moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

STORED_SEEDS = 200


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    digests = {str(seed): workloads.trace_digest(seed) for seed in range(STORED_SEEDS)}
    path = workloads.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=False) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
