"""Serial replay of a campaign's cells through public entry points.

A traced run replays the cells its timed campaigns resolved, outside
the timed section, to split campaign time into layers without touching
the program:

* ``capture_golden_run`` -- golden capture;
* ``target.run`` under :class:`~perfbench.harnesses.NullHarness` --
  target compute; the golden harness's extra time is probe overhead;
* ``target.run`` under :class:`~perfbench.harnesses.PrefixStopHarness`
  -- the fault-free prefix of each (test case, injection time);
* ``target.run`` under an ``InjectionHarness`` -- the whole injected
  run, whose time beyond its prefix is the injected suffix;
* ``target.is_failure`` -- failure classification.

Prefix, null and golden runs do not depend on the flipped bit, so they
are measured once per test case (and injection time) and charged to
every cell that shares them.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.injection import BitFlip, InjectionHarness
from repro.injection.golden import capture_golden_run
from repro.orchestration import plan_pairs

from perfbench.harnesses import NullHarness, PrefixStopHarness, run_prefix

__all__ = ["CellOutcome", "ReplayTotals", "replay_cell", "replay_campaign"]


@dataclasses.dataclass
class ReplayTotals:
    """Summed layer seconds over the replayed cells."""

    cells: int = 0
    crashes: int = 0
    golden_s: float = 0.0
    null_s: float = 0.0
    probe_s: float = 0.0
    probe_calls: int = 0
    prefix_s: float = 0.0
    suffix_s: float = 0.0
    classify_s: float = 0.0

    def add(self, other: "ReplayTotals") -> None:
        for field in dataclasses.fields(self):
            setattr(
                self, field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    def adjusted(self, speed: float) -> "ReplayTotals":
        """The totals with every time divided by a host-speed factor."""
        times = ("golden_s", "null_s", "probe_s", "prefix_s", "suffix_s", "classify_s")
        return dataclasses.replace(
            self, **{name: getattr(self, name) / speed for name in times}
        )

    @property
    def replayed_s(self) -> float:
        """Seconds the campaign spends in replayed layers."""
        return self.golden_s + self.prefix_s + self.suffix_s + self.classify_s


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    failed: bool
    crashed: bool
    run_s: float
    classify_s: float


def replay_cell(target, config, flip: BitFlip, injection_time: int,
                test_case: int, golden_output) -> CellOutcome:
    """One injected run, classified as ``Campaign.run`` classifies it."""
    harness = InjectionHarness(
        config.injection_probe, flip, injection_time,
        sample_probe=config.sample_probe,
    )
    started = time.perf_counter()
    try:
        output = target.run(test_case, harness)
    except Exception:
        now = time.perf_counter()
        return CellOutcome(True, True, now - started, 0.0)
    ran = time.perf_counter()
    try:
        failed = target.is_failure(golden_output, output)
    except Exception:
        now = time.perf_counter()
        return CellOutcome(True, True, ran - started, now - ran)
    return CellOutcome(bool(failed), False, ran - started, time.perf_counter() - ran)


#: Repeats of each per-test-case measurement (golden, null, prefix); the
#: median is charged to every cell that shares it.
REPEATS = 5


def _timed(fn) -> tuple[float, object]:
    """Median seconds of :data:`REPEATS` calls, and the last call's value."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


def _null_run(target, test_case: int) -> int:
    """Run under the null harness; returns its probe-call count."""
    harness = NullHarness()
    target.run(test_case, harness)
    return harness.calls


def replay_campaign(campaign, captured: set | None = None) -> ReplayTotals:
    """Replay every cell of ``campaign`` serially; returns layer totals.

    ``captured`` holds the ``(target fingerprint, test case)`` golden
    runs the timed campaigns found already cached; those are not
    charged again (a campaign over a target another dataset already ran
    reuses its golden runs).
    """
    target, config = campaign.target, campaign.config
    totals = ReplayTotals()
    fingerprint = target.fingerprint()
    golden = {}
    null_s, golden_s, calls = {}, {}, {}
    for tc in config.test_cases:
        golden_s[tc], golden[tc] = _timed(lambda: capture_golden_run(target, tc))
        null_s[tc], calls[tc] = _timed(lambda: _null_run(target, tc))
        key = (fingerprint, tc)
        if captured is None or key not in captured:
            totals.golden_s += golden_s[tc]
            if captured is not None:
                captured.add(key)
    pairs = plan_pairs(campaign)
    prefix_s = {}
    if pairs:
        name, kind, bit = pairs[0]
        for time_ in config.injection_times:
            for tc in config.test_cases:
                prefix_s[(time_, tc)], _ = _timed(lambda: run_prefix(
                    target, tc, PrefixStopHarness(
                        config.injection_probe, BitFlip(name, kind, bit), time_,
                        sample_probe=config.sample_probe,
                    ),
                ))
    for name, kind, bit in pairs:
        flip = BitFlip(name, kind, bit)
        for time_ in config.injection_times:
            for tc in config.test_cases:
                cell = replay_cell(target, config, flip, time_, tc, golden[tc].output)
                prefix = min(prefix_s[(time_, tc)], cell.run_s)
                totals.cells += 1
                totals.crashes += cell.crashed
                totals.prefix_s += prefix
                totals.suffix_s += cell.run_s - prefix
                totals.classify_s += cell.classify_s
                totals.null_s += null_s[tc]
                totals.probe_s += max(golden_s[tc] - null_s[tc], 0.0)
                totals.probe_calls += calls[tc]
    return totals
