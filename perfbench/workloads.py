"""The benchmark's three workloads: seeded inputs, scenarios and fingerprints.

Each workload has two halves that a repetition times separately:

* ``prepare(seed)`` is set-up: it generates and extracts the trace and
  builds the scenario (or the sweep spec).  Its cost, with the imports, is
  ``setup_s``.
* ``execute(prepared)`` hands the scenario to ``repro.scenario.run`` (or the
  sweep) and returns ``{variant: (RunResult, billed_cost_usd)}``.  Its cost
  is ``wall_s``.

The benchmark seed only shapes the *inputs*: it is the workload generators'
own seed, which draws each invocation's memory size.  Arrivals and
durations are the trace's.  Every scheduler, dispatcher and cluster seed
keeps the program's default.  A :func:`fingerprint` pins each variant's
simulated outcome so a change that only speeds the simulator up must
reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

#: Invocations of each replay: a prefix of the ``azure_day`` stream.  Sized
#: so that one repetition takes a few seconds and a run holds a dozen or so:
#: on a shared host the median of many short repetitions is steadier than
#: that of a few long ones.
REPLAY_JSQ_INVOCATIONS = 25_000
REPLAY_P2C_INVOCATIONS = 15_000
#: Rows kept by the reservoir metrics store of the replays; counts, means and
#: billing stay exact, percentiles come from the seeded sample.
REPLAY_METRICS_CAP = 10_000
#: Dispatcher-to-node round trip of both replays (simulated seconds).
REPLAY_RTT = 0.002
#: The ``ten_minute`` trace with the generator seed as a parameter; the
#: program's ``ten_minute`` workload is this one at the generator's default
#: seed (7).
TRIO_WORKLOAD = "perfbench_ten_minute"


@dataclass(frozen=True)
class BenchWorkload:
    """One workload: its set-up and run, headline variant and bypassed layers.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    headline: str
    bypassed: Tuple[str, ...]
    prepare: Callable[[int], Any]
    execute: Callable[[Any], Dict[str, Tuple[Any, float]]]


# ---------------------------------------------------------------------------
# paper_trio: Table I's fifo / cfs / hybrid on the materialised ten_minute trace
# ---------------------------------------------------------------------------


def _trio_tasks_builder(seed: int):
    """A ``ten_minute`` workload builder whose seed shapes the inputs.

    The trace and its extraction are the canonical ones
    (``AzureTraceConfig`` defaults, the paper calibration); the seed is the
    generator's own, drawing each invocation's memory size.
    """
    from repro.workload.azure import AzureTraceConfig, generate_trace
    from repro.workload.calibration import default_calibration_table
    from repro.workload.extraction import ExtractionPipeline
    from repro.workload.generator import WorkloadGenerator, WorkloadSpec, items_to_tasks

    trace = generate_trace(AzureTraceConfig(minutes=10))
    buckets = ExtractionPipeline(calibration=default_calibration_table()).run(trace)
    items = WorkloadGenerator(buckets).generate_items(
        WorkloadSpec(minutes=10, seed=seed)
    )

    def build(scale: float = 1.0, seed: int = seed) -> list:
        return items_to_tasks(items)

    return build


def _trio_prepare(seed: int):
    from repro.experiments.common import hybrid_kwargs, variant_sweep
    from repro.scenario import Scenario, Workload
    from repro.scenario.workloads import register_workload

    register_workload(TRIO_WORKLOAD, _trio_tasks_builder(seed), overwrite=True)
    base = Scenario(
        workload=Workload(TRIO_WORKLOAD, params={"seed": seed}),
        scheduler="fifo",
        num_cores=50,
        name="paper_trio",
    )
    variants = {
        "fifo": {},
        "cfs": {"scheduler": "cfs"},
        "hybrid": {"scheduler": "hybrid", "scheduler_kwargs": hybrid_kwargs()},
    }
    return variant_sweep(base, variants, name="paper_trio")


def _trio_execute(spec) -> Dict[str, Tuple[Any, float]]:
    """The sweep with one job, then Table I's per-function-memory costing."""
    from repro.cost.cost_model import CostModel
    from repro.sweep import sweep_results

    results = sweep_results(spec, jobs=1)
    model = CostModel()
    return {
        label: (result, model.workload_cost(result.finished_tasks).total)
        for label, result in results.items()
    }


# ---------------------------------------------------------------------------
# The two azure_day replays
# ---------------------------------------------------------------------------


def _replay_scenario(seed: int, invocations: int, **fields):
    from repro.cluster.config import NetworkSpec
    from repro.scenario import Scenario, Workload
    from repro.workload.streaming import StreamSpec

    return Scenario(
        workload=Workload(
            "azure_day", scale=invocations / 1_000_000, params={"seed": seed}
        ),
        scheduler="fifo",
        cores_per_node=8,
        network=NetworkSpec(rtt=REPLAY_RTT),
        stream=StreamSpec(metrics_cap=REPLAY_METRICS_CAP),
        **fields,
    )


def _warm_stream(scenario):
    """Generate and extract the replay trace so ``run`` finds it cached."""
    from repro.scenario.workloads import build_stream_source

    build_stream_source(scenario.workload, scenario.stream)
    return scenario


def _jsq_prepare(seed: int):
    return _warm_stream(
        _replay_scenario(
            seed,
            REPLAY_JSQ_INVOCATIONS,
            num_nodes=16,
            dispatcher="jsq",
            name="replay_jsq",
        )
    )


def _p2c_prepare(seed: int):
    from repro.telemetry.spec import TelemetrySpec

    return _warm_stream(
        _replay_scenario(
            seed,
            REPLAY_P2C_INVOCATIONS,
            num_nodes=4,
            dispatcher="power_of_two",
            middleware=(
                {
                    "name": "deadline_shed",
                    "params": {"relative_deadline": 30.0, "load_aware": True},
                },
                {"name": "timeout_retry", "params": {"timeout": 20.0}},
                {"name": "slo_tracker", "params": {"target": 30.0}},
            ),
            telemetry=TelemetrySpec(trace=False, sample_interval=10.0),
            name="replay_p2c_mw",
        )
    )


def _replay_execute(scenario) -> Dict[str, Tuple[Any, float]]:
    from repro.scenario.run import run

    result = run(scenario)
    return {scenario.name: (result, result.cost.user_cost)}


WORKLOADS: Dict[str, BenchWorkload] = {
    workload.name: workload
    for workload in (
        BenchWorkload(
            name="paper_trio",
            headline="hybrid",
            bypassed=(
                "cluster.dispatchers",
                "cluster.load_index",
                "cluster.node",
                "cluster.simulator",
                "middleware",
                "workload.streaming",
                "telemetry",
            ),
            prepare=_trio_prepare,
            execute=_trio_execute,
        ),
        BenchWorkload(
            name="replay_jsq",
            headline="replay_jsq",
            bypassed=("core.hybrid", "ghost", "middleware", "telemetry"),
            prepare=_jsq_prepare,
            execute=_replay_execute,
        ),
        BenchWorkload(
            name="replay_p2c_mw",
            headline="replay_p2c_mw",
            bypassed=("core.hybrid", "ghost"),
            prepare=_p2c_prepare,
            execute=_replay_execute,
        ),
    )
}


def variant_fingerprint(result, billed_cost: float) -> Dict[str, Any]:
    """The simulated outcome of one variant, compared exactly across runs."""
    engine = result.result
    summary = result.summary()
    submitted = int(engine.tasks_submitted)
    finished = int(engine.finished_count)
    rejected = int(getattr(engine, "tasks_rejected", 0))
    lost = int(getattr(engine, "tasks_lost", 0))
    fp: Dict[str, Any] = {
        "submitted": submitted,
        "finished": finished,
        "rejected": rejected,
        "lost": lost,
        "unfinished": submitted - finished - rejected - lost,
        "p50_turnaround_s": float(summary.p50_turnaround),
        "p99_turnaround_s": float(summary.p99_turnaround),
        "billed_cost_usd": float(billed_cost),
    }
    if result.is_cluster:
        fp["node_cost_usd"] = float(result.cost.node_cost)
        fp["middleware_stats"] = {
            name: {key: float(value) for key, value in stats.items()}
            for name, stats in engine.middleware_stats.items()
        }
    return fp


def fingerprint(outcome: Dict[str, Tuple[Any, float]]) -> Dict[str, Any]:
    return {label: variant_fingerprint(*pair) for label, pair in outcome.items()}


def scenario_hash(description: Dict[str, Any]) -> str:
    text = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
