"""Prefix resume: each fault-free prefix executes once per campaign.

Every injected run of one (test case, injection time) executes the
same fault-free prefix up to the injection occurrence -- about three
quarters of a 7Z/MG campaign's time.  Targets that implement the step
protocol of :class:`repro.targets.base.TargetSystem` keep their whole
run state in one object between steps, so the prefix can be executed
once, snapshotted at the step boundary just before the injection, and
every injected run resumed from a deep copy of that snapshot.

A :class:`PrefixSnapshot` holds everything an injected run's harness
and target would have accumulated by that boundary: the probe
occurrence counters, the fault-free samples an injection harness would
have kept (it keeps samples at or after its injection time, so only
those are stored), and a deep copy of the target state.  The boundary
is the last one before the step in which the injection probe fires
for the wanted occurrence, so the prefix contains no injection and the
resumed run is the full run minus re-execution.

Snapshots live in :data:`PREFIX_CACHE`, a bounded process-local
:class:`~repro.mining.cache.ContentCache` governed like every reuse
cache: inside ``reuse_caches_disabled()`` the campaign replays every
run from ``begin()`` -- the full-replay oracle the differential tests
compare against.

Fork was the alternative (run to the injection point and ``os.fork``
there, as ZOFI does).  On a 2-vCPU Intel Xeon VM a fork + pipe +
waitpid round trip from a 38-65 MB worker measured 1.8-1.9 ms median,
about a whole bench-scale MG run under a null harness (1.6-2.4 ms),
while a resumed run pays one snapshot deep copy (2-60 us at bench
scale); so snapshot/resume is the mechanism.
"""

from __future__ import annotations

import copy
import dataclasses

from repro.injection.instrument import Harness, Probe, StateSample
from repro.mining.cache import ContentCache

__all__ = ["PrefixSnapshot", "PREFIX_CACHE", "capture_prefixes", "uses_step_driver"]

#: Prefix snapshots keyed by ``(target fingerprint, module, injection
#: location, sample location, injection times)`` plus the test case.
#: Campaigns cycle through their test cases once per (variable, bit)
#: pair, so a campaign with more test cases than this bound would miss
#: on every lookup; such campaigns replay in full instead.  The name
#: keeps its counters under ``cache.golden.*``, apart from the mining
#: caches' hit ratio.
PREFIX_CACHE = ContentCache(maxsize=64, name="golden.prefix")


@dataclasses.dataclass(frozen=True)
class PrefixSnapshot:
    """The fault-free run of one test case, stopped at a step boundary.

    ``step`` steps have executed; ``occurrences`` and ``samples`` are
    what a :meth:`~repro.injection.instrument.Harness.resume` needs,
    ``state`` what :meth:`~repro.targets.base.TargetSystem.run_from`
    continues from.  Treat it as immutable: resumed runs step a deep
    copy of ``state``, never the snapshot's own.
    """

    step: int
    occurrences: dict
    samples: tuple[StateSample, ...]
    state: object


def uses_step_driver(target) -> bool:
    """Whether ``target`` runs through the base step-protocol driver."""
    from repro.targets.base import TargetSystem

    return getattr(type(target), "run", None) is TargetSystem.run


def capture_prefixes(
    target,
    test_case: int,
    injection_probe: Probe,
    sample_probe: Probe,
    times,
) -> dict[int, PrefixSnapshot]:
    """Snapshots of ``test_case``'s fault-free run, one per injection time.

    Two fault-free passes: the first finds, for every time, the step
    during which the injection probe reaches that occurrence (times
    past the end of the run resume at the final boundary, where only
    ``end`` remains); the second re-runs to each such boundary and
    snapshots it, stopping after the last.
    """
    pending = sorted(set(times))
    boundary: dict[int, int] = {}
    state = target.begin(test_case)
    n_steps = target.n_steps(state)
    harness = Harness(sample_probe=sample_probe)
    index = 0
    while pending and index < n_steps:
        target.step(state, index, harness)
        fired = harness.occurrences(injection_probe)
        while pending and pending[0] < fired:
            boundary[pending.pop(0)] = index
        index += 1
    for time in pending:
        boundary[time] = n_steps

    harness = Harness(sample_probe=sample_probe)
    state = target.begin(test_case)
    taken: dict[int, tuple] = {}
    index = 0
    for step in sorted(set(boundary.values())):
        while index < step:
            target.step(state, index, harness)
            index += 1
        taken[step] = (
            harness.occurrence_counts(),
            tuple(harness.samples),
            copy.deepcopy(state),
        )
    snapshots = {}
    for time, step in boundary.items():
        occurrences, samples, snapshot_state = taken[step]
        snapshots[time] = PrefixSnapshot(
            step,
            occurrences,
            tuple(s for s in samples if s.occurrence >= time),
            snapshot_state,
        )
    return snapshots
