"""One repetition of a benchmark workload, in a fresh process.

``run.py`` launches this script once per repetition, one at a time, and
reads the JSON object it prints as its last line.  A fresh process per
repetition keeps ``ru_maxrss`` (a lifetime high-water mark) per run and
stops the workload registry's ``lru_cache`` from hiding set-up cost::

    python3 perfbench/rep.py --workload replay_jsq --seed 1 --traced 0 \\
        --spawned-at <time.monotonic() of the launching process>

``--spawned-at`` is the launcher's ``time.monotonic()`` just before it
started this process; ``setup_s`` runs from there to the moment the
scenario is handed to the simulator.
"""

from __future__ import annotations

import time

_ENTERED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    """Lifetime peak resident set of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=_ENTERED)
    args = parser.parse_args()

    from workloads import WORKLOADS, fingerprint, scenario_hash

    import repro.scenario  # noqa: F401  (the program's import cost)
    import repro.sweep  # noqa: F401

    imported = time.monotonic()
    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(args.seed)

    tracer = None
    if args.traced:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    ready = time.monotonic()
    cpu_start = time.process_time()
    start = time.perf_counter()
    outcome = workload.execute(prepared)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    trace = tracer.snapshot() if tracer is not None else None

    description = prepared.to_dict()
    headline, _ = outcome[workload.headline]
    engine = headline.result
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        "setup_s": ready - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "workload_s": ready - imported,
        "wall_s": wall,
        "cpu_s": cpu,
        "loop_s": sum(result.result.wall_clock_seconds for result, _ in outcome.values()),
        "tasks": sum(int(result.result.tasks_submitted) for result, _ in outcome.values()),
        "events": sum(int(result.result.events_processed) for result, _ in outcome.values()),
        "ingress_wait_s": (
            float(engine.mean_ingress_wait()) if headline.is_cluster else 0.0
        ),
        "peak_rss_mb": _peak_rss_mb(),
        "scenario": description,
        "scenario_sha256": scenario_hash(description),
        "fingerprint": fingerprint(outcome),
        "trace": trace,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
