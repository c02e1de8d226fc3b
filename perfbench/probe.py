"""A fixed pure-Python workload that gauges how fast this host runs now.

On a shared host the speed available to one process drifts by tens of per
cent over minutes.  :func:`probe_s` times a fixed amount of work shaped
like the simulator's (a heap of tuples over slotted objects spread across
tens of MiB, attribute updates) that uses nothing from the program, so a
change to the program does not move it.  The cyclic garbage collector is
off while it runs.

The probe runs in a helper process of its own (:class:`ProbeProcess`,
which starts this file as a script), never in a repetition and never in
the launcher: on Linux a child's ``ru_maxrss`` includes the launcher's
resident set at the moment it was spawned, so the probe's table must not
live in the launcher.  The helper waits on its pipe while a repetition
runs, so only one process is busy at a time.

Each repetition is bracketed by probes just before and just after it.
:func:`host_scale` turns those probes into the factor that rescales the
repetition's times to the reference host speed: a time ``t`` measured while
the probe took ``p`` seconds is reported as ``t * REFERENCE_PROBE_S / p``.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

#: The probe's time on the reference host, a 2-vCPU 2.0 GHz Intel Xeon VM
#: at a quiet moment.  It only sets the scale of host-normalised times.
REFERENCE_PROBE_S = 0.05
#: Slotted objects the probe reaches into: about 40 MiB, more than a cache
#: holds, so the probe feels memory contention as well as CPU contention.
PROBE_OBJECTS = 400_000
#: Heap operations of one probe; about 0.05 s on the reference host.
PROBE_OPS = 30_000


class _Slot:
    __slots__ = ("key", "load", "done")

    def __init__(self, key: int) -> None:
        self.key = key
        self.load = 0.0
        self.done = 0


_table: List[_Slot] = []


def _work() -> int:
    if not _table:
        _table.extend(_Slot(key) for key in range(PROBE_OBJECTS))
        gc.freeze()
    heap: list = []
    now = 0.0
    done = 0
    for i in range(PROBE_OPS):
        slot = _table[i * 2_654_435_761 % PROBE_OBJECTS]
        slot.load += 0.5
        heapq.heappush(heap, (now + (i * 104_729 % 1000) * 1e-3, i, slot))
        if len(heap) > 4096:
            now, _, slot = heapq.heappop(heap)
            slot.done += 1
            done += 1
    return done


def probe_s() -> float:
    """Seconds the fixed probe workload takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale(probes: Sequence[float]) -> float:
    """Factor from times measured alongside ``probes`` to the reference host."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)


class ProbeProcess:
    """The helper process that times the probe when asked.

    Use it as a context manager: leaving the block closes the helper's
    input, which ends it, and waits for it (killing it if it lingers).
    """

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "ProbeProcess":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times(1)  # builds the table before any repetition starts
        return self

    def times(self, count: int) -> List[float]:
        """Time the probe ``count`` times now, one after another."""
        assert self._proc is not None and self._proc.stdin and self._proc.stdout
        self._proc.stdin.write(f"{count}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process ended early")
        return json.loads(line)

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


def _serve() -> int:
    """Answer each line ``<count>`` on stdin with that many probe times."""
    for line in sys.stdin:
        print(json.dumps([probe_s() for _ in range(int(line))]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
