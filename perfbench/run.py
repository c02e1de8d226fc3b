#!/usr/bin/env python3
"""The repository benchmark: one workload, measured end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_trio --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``perfbench/README.md``):
``paper_trio``, ``replay_jsq``, ``replay_p2c_mw``.

``--trace 0`` launches fresh repetitions of the workload (``rep.py``), one
at a time, for about ``--seconds`` (at least two), and reports the
end-to-end metrics: medians of the host-time and memory figures, and the
headline variant's simulated cost, p99 turnaround and served fraction.
Every host time is rescaled to the reference host speed by the probe
(``probe.py``) timed around its own repetition; the raw figures stay in the
record.
``--trace 1`` launches pairs of one untraced and one traced repetition and
reports the per-layer metrics.

Every repetition's simulated fingerprint is compared exactly with the
committed one in ``reference.json`` when that holds the seed; for any other
seed the repetitions must agree with each other.  A repetition that raises
or mismatches counts as failed.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with the run manifest, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]

from layers import LAYERS, coverage_problems, trace_problems  # noqa: E402
from probe import ProbeProcess, host_scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
#: Two repetitions at least, so a held-out seed is checked for determinism
#: (a traced pair is two repetitions already).
MIN_REPS = 2
MIN_PAIRS = 1
#: Wall-clock budget of one invocation; no repetition starts that would
#: likely end past it.
DEADLINE_S = 165.0
REP_TIMEOUT_S = 150.0
#: Host probes timed just before and just after each repetition.
PROBES = 2
#: The paper's CFS/hybrid cost ratio, as quoted in
#: ``src/repro/experiments/table1_p99_summary.py``.
PAPER_CFS_OVER_HYBRID_COST = 41.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def calibration_s() -> float:
    """Seconds of ``benchmarks/hotpath.py``'s fixed pure-Python loop here."""
    from hotpath import calibration_units

    return calibration_units()


def git_revision() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content: the code measured."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def launch(workload: str, seed: int, traced: bool) -> Tuple[Optional[dict], str]:
    """Run one repetition in a fresh process; ``(report, error)``."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spawned = time.monotonic()
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", str(int(traced)),
        "--spawned-at", repr(spawned),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {REP_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "repetition printed no result"


class Session:
    """The repetitions of one invocation and the checks made on them."""

    def __init__(self, workload: str, seed: int, probe: ProbeProcess) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = probe
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.expected = reference.get(workload, {}).get(str(seed))
        self.reference_kind = "committed" if self.expected is not None else "held-out"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reports: List[dict] = []

    def run(self, traced: bool) -> Optional[dict]:
        self.attempted += 1
        probes = self.probe.times(PROBES)
        report, error = launch(self.workload, self.seed, traced)
        probes += self.probe.times(PROBES)
        if report is None:
            self.failed += 1
            self.problems.append(f"repetition {self.attempted}: {error}")
            return None
        report["index"] = self.attempted
        report["probe_s"] = probes
        self.reports.append(report)
        if self.expected is None:
            self.expected = report["fingerprint"]
        elif report["fingerprint"] != self.expected:
            self.failed += 1
            self.problems.append(
                f"repetition {self.attempted}: fingerprint differs from the "
                f"{self.reference_kind} one"
            )
        return report

    @property
    def observed(self) -> dict:
        """The simulated outcome the first completed repetition produced."""
        return self.reports[0]["fingerprint"]


def repeat(seconds: float, minimum: int, body) -> None:
    """Call ``body`` at least ``minimum`` times and for about ``seconds``.

    Past the minimum, a call starts only if it would likely end less than
    half a call after ``seconds`` (judged by the median call so far), so a
    run lasts about ``seconds`` however long one call takes.  No call starts
    that would likely end after :data:`DEADLINE_S`.
    """
    start = time.monotonic()
    durations: List[float] = []
    while True:
        now = time.monotonic()
        if durations:
            typical = median(durations)
            if now - _STARTED + 1.2 * max(durations) > DEADLINE_S:
                break
            if len(durations) >= minimum and now - start + typical / 2 > seconds:
                break
        body()
        durations.append(time.monotonic() - now)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def scaled(report: dict, seconds: float) -> float:
    """``seconds`` measured in ``report``'s repetition, at the reference host speed."""
    return seconds * host_scale(report["probe_s"])


def end_to_end(session: Session, headline: str) -> Dict[str, float]:
    reps = session.reports
    head = session.observed[headline]
    return {
        "setup_s": median([scaled(r, r["setup_s"]) for r in reps]),
        "wall_s": median([scaled(r, r["wall_s"]) for r in reps]),
        "us_per_task": median([scaled(r, r["wall_s"]) / r["tasks"] * 1e6 for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "sim_cost_usd": head["billed_cost_usd"],
        "sim_p99_turnaround_s": head["p99_turnaround_s"],
        "sim_served_frac": head["finished"] / head["submitted"],
    }


def per_layer(session: Session, headline: str) -> Dict[str, float]:
    plain = [r for r in session.reports if not r["traced"]]
    traced = [r for r in session.reports if r["traced"]]
    tasks = traced[-1]["tasks"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_task"] = median(
            [r["trace"]["layers"][layer]["calls"] / tasks for r in traced]
        )
        metrics[f"{layer}.self_us_per_task"] = median(
            [scaled(r, r["trace"]["layers"][layer]["self_s"]) / tasks * 1e6 for r in traced]
        )
    counts = traced[-1]["trace"]["counts"]
    stats = session.observed[headline].get("middleware_stats", {})
    metrics.update({
        "simulation.events.pushed": counts["pushed"],
        "simulation.events.cancelled": counts["cancelled"],
        "simulation.events.cancel_frac": counts["cancelled"] / counts["pushed"],
        "simulation.events.compactions": counts["compactions"],
        "engine.events_per_task": plain[-1]["events"] / tasks,
        "cluster.load_index.touches": counts["touches"],
        "cluster.load_index.queries": counts["queries"],
        "sim.ingress_wait_s": plain[-1]["ingress_wait_s"],
        "middleware.timeouts_armed": stats.get("timeout_retry", {}).get("timeouts_armed", 0.0),
        "middleware.retries": stats.get("timeout_retry", {}).get("retries", 0.0),
        "middleware.shed": stats.get("deadline_shed", {}).get("shed", 0.0),
        "simulation.columns.appends_per_task": counts["appends"] / tasks,
        "workload.streaming.chunks": counts["chunks"],
        "results.build_s": median([scaled(r, r["wall_s"] - r["loop_s"]) for r in plain]),
        "setup.import_s": median([scaled(r, r["import_s"]) for r in plain]),
        "setup.workload_s": median([scaled(r, r["workload_s"]) for r in plain]),
        "trace.overhead_frac": median([scaled(r, r["wall_s"]) for r in traced])
        / median([scaled(r, r["wall_s"]) for r in plain]) - 1.0,
        "trace.remainder_us_per_task": median(
            [scaled(r, r["wall_s"] - r["trace"]["covered_s"]) / tasks * 1e6 for r in traced]
        ),
        "host.wall_s": median([r["wall_s"] for r in plain]),
        "host.probe_s": median([p for r in session.reports for p in r["probe_s"]]),
    })
    return metrics


def trace_checks(session: Session, bypassed) -> None:
    """Layer coverage and span-accounting checks of every traced repetition.

    That a traced fingerprint equals the untraced one is checked as each
    repetition completes (:meth:`Session.run`).
    """
    traced = [r for r in session.reports if r["traced"]]
    for report in traced:
        trace = report["trace"]
        for problem in coverage_problems(trace["layers"], bypassed):
            session.problems.append(f"coverage: {problem}")
        runs = len(report["fingerprint"])
        for problem in trace_problems(trace, report["wall_s"], report["events"], runs):
            session.problems.append(f"trace: {problem}")


def fidelity(session: Session) -> Optional[Dict[str, float]]:
    """paper_trio's CFS/hybrid billed-cost ratio next to the paper's figure."""
    fp = session.observed
    if "cfs" not in fp or "hybrid" not in fp:
        return None
    return {
        "cfs_over_hybrid_cost": fp["cfs"]["billed_cost_usd"] / fp["hybrid"]["billed_cost_usd"],
        "paper_cfs_over_hybrid_cost": PAPER_CFS_OVER_HYBRID_COST,
    }


def declared_units(trace: int) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no simulator sources under {ROOT / 'src'}; run from a checkout")
    units = declared_units(args.trace)
    workload = WORKLOADS[args.workload]
    record: Dict[str, Any] = {"manifest": manifest(
        args.workload, args.seed, args.seconds, args.trace
    )}
    with ProbeProcess() as probe:
        session = Session(args.workload, args.seed, probe)
        record["manifest"]["reference"] = session.reference_kind
        if args.trace:
            def pair() -> None:
                session.run(traced=False)
                session.run(traced=True)
            repeat(args.seconds, MIN_PAIRS, pair)
        else:
            repeat(args.seconds, MIN_REPS, lambda: session.run(traced=False))

    reports = session.reports
    kinds = {r["traced"] for r in reports}
    if not reports or (args.trace and kinds != {False, True}):
        for problem in session.problems:
            print(problem, file=sys.stderr)
        return fail("no repetition completed")
    if len({json.dumps(r["scenario"], sort_keys=True) for r in reports}) != 1:
        session.problems.append("repetitions ran different scenarios")
    if args.trace:
        trace_checks(session, workload.bypassed)
        values = per_layer(session, workload.headline)
    else:
        values = end_to_end(session, workload.headline)
    if set(values) != set(units):
        return fail(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    scenario = reports[0]["scenario"]
    record["manifest"].update({
        "scenario": scenario,
        "scenario_sha256": reports[0]["scenario_sha256"],
        "calibration_after_s": calibration_s(),
        "fidelity": fidelity(session),
    })
    record["expected_fingerprint"] = session.expected
    record["repetitions"] = session.reports
    record["problems"] = session.problems
    result = {
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for problem in session.problems:
        print(f"problem: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  reference {session.reference_kind}"
          f"  repetitions {session.attempted}  record {out.relative_to(ROOT)}")
    for name in units:
        print(f"  {name:42s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
