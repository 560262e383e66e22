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

Reconvergence exit
------------------
A flip is often masked within a step or two: the injected run's state
becomes equal to the fault-free run's at a later step boundary, and
from there the two runs are one.  :func:`capture_prefixes` therefore
runs its fault-free pass to the end and records a :class:`GoldenTrail`
shared by the test case's snapshots.  :func:`run_resumed` compares the
injected state against the trail 1, 2, 4, 8, ... steps after its
resume boundary, once the harness has injected and holds its first
sample, so the trail holds exactly those boundaries of every snapshot:
at each, a 32-byte BLAKE2b digest of the pickled state and the
injection probe's occurrence count; plus the count and the output of
the whole run.  On a match the run stops: the rest of it is the golden
run's, so its output is the trail's and its remaining probe
occurrences are the trail's.

The exit is exact.  By the step contract a run's future depends only
on its state; after the flip an
:class:`~repro.injection.instrument.InjectionHarness` is passive and
the record reads only its first sample.  Pickle bytes are stricter
than ``==``: they keep ``-0.0`` apart from ``0.0``, NaN payloads
apart, dict order and aliasing (two references to one list pickle
differently from two equal lists).  A state pickle cannot serialise
gets no trail and runs to its end as before.

The digest covers the whole state, read-only inputs included (MG's
frozen PCM tracks, 7Z's files), though a resumed run shares those
with the fault-free run.  Leaving them out would need a per-target
list of fields that are never written, and the saving is small: at
bench scale on a 2-vCPU Intel Xeon VM an MG state digests in 68 us
against 0.9 ms per step, a 7Z state in 10 us against 0.18 ms.

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
import hashlib
import pickle

from repro.injection.instrument import Harness, InjectionHarness, Probe, StateSample
from repro.mining.cache import ContentCache

__all__ = [
    "GoldenTrail",
    "PrefixSnapshot",
    "PREFIX_CACHE",
    "capture_prefixes",
    "run_resumed",
    "state_digest",
    "uses_step_driver",
]

#: Prefix snapshots keyed by ``(target fingerprint, module, injection
#: location, sample location, injection times)`` plus the test case.
#: Campaigns cycle through their test cases once per (variable, bit)
#: pair, so a campaign with more test cases than this bound would miss
#: on every lookup; such campaigns replay in full instead.  The name
#: keeps its counters under ``cache.golden.*``, apart from the mining
#: caches' hit ratio.
PREFIX_CACHE = ContentCache(maxsize=64, name="golden.prefix")


def state_digest(state: object) -> bytes:
    """32-byte BLAKE2b digest of ``state``'s protocol-5 pickle."""
    return hashlib.blake2b(
        pickle.dumps(state, protocol=5), digest_size=32
    ).digest()


def _check_boundaries(start: int, n_steps: int) -> list[int]:
    """The boundaries a run resumed at ``start`` checks: 1, 2, 4, 8,
    ... steps on, up to the one before the final step."""
    boundaries = []
    offset = 1
    while start + offset < n_steps:
        boundaries.append(start + offset)
        offset *= 2
    return boundaries


@dataclasses.dataclass(frozen=True)
class GoldenTrail:
    """The fault-free run of one test case where resumed runs check it.

    ``points`` maps every boundary a run resumed from one of the test
    case's snapshots checks to the :func:`state_digest` and the
    injection probe's occurrence count there.  ``final`` is that count
    after the whole run of ``n_steps`` steps, and ``output`` the run's
    output, built by its own ``end`` call so that a reconverged run
    hands the failure specification a fresh output, as a full replay
    does.
    """

    points: dict[int, tuple[bytes, int]]
    n_steps: int
    final: int
    output: object

    def matches(self, boundary: int, state: object) -> bool:
        """Whether ``state`` at ``boundary`` is the fault-free state."""
        point = self.points.get(boundary)
        return point is not None and state_digest(state) == point[0]

    def remaining(self, boundary: int) -> int:
        """Injection probe occurrences of the steps after ``boundary``."""
        return self.final - self.points[boundary][1]

    def steps_after(self, boundary: int) -> int:
        """Steps of the run after ``boundary``."""
        return self.n_steps - boundary


@dataclasses.dataclass(frozen=True)
class PrefixSnapshot:
    """The fault-free run of one test case, stopped at a step boundary.

    ``step`` steps have executed; ``occurrences`` and ``samples`` are
    what a :meth:`~repro.injection.instrument.Harness.resume` needs,
    ``state`` what :func:`run_resumed` continues from.  Treat it as
    immutable: resumed runs step a deep copy of ``state``, never the
    snapshot's own.  ``trail`` is the test case's golden trail, shared
    by all its snapshots, or ``None`` when the state cannot be
    pickled.
    """

    step: int
    occurrences: dict
    samples: tuple[StateSample, ...]
    state: object
    trail: GoldenTrail | None = None


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
    ``end`` remains); the second re-runs to the end, snapshotting each
    such boundary and recording the :class:`GoldenTrail` at the
    boundaries runs resumed from them check.
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
    wanted = set(boundary.values())
    checked = {
        point for step in wanted for point in _check_boundaries(step, n_steps)
    }
    keep_trail = True
    points: dict[int, tuple[bytes, int]] = {}
    taken: dict[int, tuple] = {}
    for index in range(n_steps + 1):
        if index in wanted:
            taken[index] = (
                harness.occurrence_counts(),
                tuple(harness.samples),
                copy.deepcopy(state),
            )
        if keep_trail and index in checked:
            try:
                digest = state_digest(state)
            except Exception:  # any state pickle cannot serialise
                keep_trail = False
            else:
                points[index] = (digest, harness.occurrences(injection_probe))
        if index == n_steps:
            break
        target.step(state, index, harness)
    trail = None
    if keep_trail:
        trail = GoldenTrail(
            points,
            n_steps,
            harness.occurrences(injection_probe),
            target.end(state),
        )
    snapshots = {}
    for time, step in boundary.items():
        occurrences, samples, snapshot_state = taken[step]
        snapshots[time] = PrefixSnapshot(
            step,
            occurrences,
            tuple(s for s in samples if s.occurrence >= time),
            snapshot_state,
            trail,
        )
    return snapshots


def run_resumed(
    target, snapshot: PrefixSnapshot, harness: InjectionHarness
) -> tuple[object, int | None]:
    """Continue an injected run from a deep copy of ``snapshot``.

    Returns the run's output and ``None`` for a run stepped to its
    end, or the trail's output and the boundary at which its state
    matched the golden trail: the steps after it are the golden run's,
    so the injection probe fires :meth:`GoldenTrail.remaining` more
    times.  Checks fall 1, 2, 4, 8, ... steps after the resume
    boundary, and only once ``harness`` has injected and holds the
    sample its record reads.
    """
    state = copy.deepcopy(snapshot.state)
    trail = snapshot.trail
    n_steps = target.n_steps(state)
    checks = () if trail is None else _check_boundaries(snapshot.step, n_steps)
    for index in range(snapshot.step, n_steps):
        target.step(state, index, harness)
        if (
            index + 1 in checks
            and harness.injected
            and harness.samples
            and trail.matches(index + 1, state)
        ):
            return trail.output, index + 1
    return target.end(state), None
