"""Host-speed meter: adjusts measured seconds for host slowdowns.

Shared hosts run the same code at speeds that drift by tens of percent
over seconds to minutes (co-tenants, frequency scaling), which no
amount of in-run repetition averages out.  The meter samples the
host's current speed while the benchmark works: every
:data:`PERIOD_S` a ``SIGALRM`` handler times a fixed pure-Python probe
between two bytecodes of whatever the main thread is running.  An
interval's *speed factor* is the trimmed harmonic mean of its probe times over
:data:`REFERENCE_PROBE_S`; seconds divided by it read as seconds at
the reference speed.  Adjusted seconds are therefore not wall-clock
seconds.

The probe shares the cores with the program.  Where the program runs
pool workers on every core, the probe's wake-up preempts one of them
and the probe runs at once, so their contention barely reaches the
factor: probe times with two busy workers on a 2-vCPU host were
0.96-1.02 times those with none in rounds where the host held steady
(``python3 perfbench/contention.py`` measures this ratio).  A host whose
cores share execution units (SMT siblings) would show a larger ratio,
and a program change that loads the shared caches or memory harder can
still move the factor a little.  Sampling only between pooled phases,
with the workers idle, was tried and rejected: it samples a host whose
speed steps by tens of percent within seconds at a handful of moments.

Work that must not carry a probe inside its own timing (a timed
micro-batch) runs under :meth:`SpeedMeter.paused`; a sample that falls
due inside the block is taken when it ends.
"""

from __future__ import annotations

import contextlib
import signal
import time

from perfbench.layers import layer

__all__ = ["SpeedMeter", "probe", "trimmed_harmonic_mean"]

PERIOD_S = 0.02
#: Probe time at the reference speed (the probe's typical time on an
#: unloaded 2-vCPU Xeon host under CPython 3.11).
REFERENCE_PROBE_S = 2.0e-4
#: Intervals holding fewer samples take this many probes on closing.
MIN_SAMPLES = 9


def probe() -> float:
    """A fixed interpreter-bound kernel: dict, float and loop work."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    return total


def trimmed_harmonic_mean(values, share: float = 0.1) -> float:
    """Harmonic mean of the values left after trimming both tails.

    Samples come at a fixed wall-clock period, and an interval of
    ``dt`` at factor ``s`` does ``dt / s`` reference seconds of work, so
    the interval's work is its wall over the harmonic mean of its
    factors.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return len(kept) / sum(1.0 / v for v in kept)


class SpeedMeter:
    """Samples probe times on a ``SIGALRM`` timer while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None
        self._paused = False
        self._due = 0

    def _on_alarm(self, *_args) -> None:
        if self._paused:
            self._due += 1
        else:
            self._sample()

    def _sample(self) -> None:
        started = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        """Install the sampler; only one meter per process may run."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self):
        """Holds samples off for the block and takes them when it ends,
        so the block's own timing carries no probe."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            due, self._due = self._due, 0
            if due:
                # Named in traced runs, so the probe is not counted as
                # unattributed pass time.
                with layer("speed.probe"):
                    for _ in range(due):
                        self._sample()

    def mark(self) -> int:
        """Opens an interval; pass the mark to :meth:`factor`."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Speed factor of the interval since ``mark`` (1.0 = reference)."""
        while len(self.samples) - mark < MIN_SAMPLES:
            self._sample()
        return trimmed_harmonic_mean(self.samples[mark:]) / REFERENCE_PROBE_S

