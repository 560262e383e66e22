"""Measure how much busy pool workers slow the host-speed probe.

Usage, from the root of a checkout::

    python3 perfbench/contention.py

Each of :data:`ROUNDS` rounds times the probe of :mod:`perfbench.speed`
with no worker running, then with :data:`WORKERS` processes spinning
(as many as ``campaign-modes`` runs), then with none again, and
prints the contended median over the idle medians.  A round counts as
steady when its two idle medians agree within 5%; the steady rounds'
ratios show how much of a pooled workload's speed factor is the
program's own contention rather than the host.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import REFERENCE_PROBE_S, probe  # noqa: E402

ROUNDS = 6
WORKERS = 2
PROBES = 60
GAP_S = 0.005


def _spin(stop) -> None:
    while not stop.is_set():
        sum(range(100_000))


def _probe_median() -> float:
    times = []
    for _ in range(PROBES):
        started = time.perf_counter()
        probe()
        times.append(time.perf_counter() - started)
        time.sleep(GAP_S)
    return statistics.median(times) / REFERENCE_PROBE_S


def main() -> int:
    steady = []
    for _ in range(ROUNDS):
        before = _probe_median()
        stop = multiprocessing.Event()
        workers = [multiprocessing.Process(target=_spin, args=(stop,))
                   for _ in range(WORKERS)]
        for worker in workers:
            worker.start()
        try:
            time.sleep(0.2)
            busy = _probe_median()
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        after = _probe_median()
        ratio = busy / ((before + after) / 2)
        is_steady = abs(before / after - 1) <= 0.05
        if is_steady:
            steady.append(ratio)
        print(f"idle {before:.3f}  busy {busy:.3f}  idle {after:.3f}  "
              f"ratio {ratio:.3f}{'' if is_steady else '  (host moved)'}")
    if steady:
        print(f"steady rounds {len(steady)}: median ratio "
              f"{statistics.median(steady):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
