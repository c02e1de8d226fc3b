#!/usr/bin/env python3
"""Record the committed simulated fingerprints in ``perfbench/reference.json``.

    python3 perfbench/record_reference.py --seeds 1 2 3 [--workload paper_trio ...]

Each (workload, seed) runs twice in fresh processes and the two fingerprints
must agree.  An existing entry that differs is reported and kept, and the
script exits 1, unless ``--replace`` is given: replacing an entry means the
simulated outcome changed on purpose, which a change that only speeds the
simulator up must never need.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, launch
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    parser.add_argument("--replace", action="store_true")
    args = parser.parse_args()

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    status = 0
    for workload in args.workload:
        entries = reference.setdefault(workload, {})
        for seed in args.seeds:
            fingerprints = []
            for _ in range(2):
                report, error = launch(workload, seed, traced=False)
                if report is None:
                    print(f"{workload} seed {seed}: {error}", file=sys.stderr)
                    return 1
                fingerprints.append(report["fingerprint"])
            if fingerprints[0] != fingerprints[1]:
                print(f"{workload} seed {seed}: two runs disagree", file=sys.stderr)
                return 1
            old = entries.get(str(seed))
            if old is not None and old != fingerprints[0] and not args.replace:
                print(f"{workload} seed {seed}: differs from the committed entry; kept")
                status = 1
                continue
            entries[str(seed)] = fingerprints[0]
            print(f"{workload} seed {seed}: recorded")
    ordered = {
        workload: dict(sorted(entries.items(), key=lambda item: int(item[0])))
        for workload, entries in sorted(reference.items())
    }
    REFERENCE.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
