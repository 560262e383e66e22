"""Benchmark-owned harnesses for replaying campaign cells.

Both harnesses talk to a target only through the public
``probe(module, location, variables)`` call, so replaying a cell under
them measures the target exactly as a campaign drives it:

* :class:`NullHarness` returns every state untouched and only counts
  calls -- a run under it is the target's own compute;
* :class:`PrefixStopHarness` behaves like the campaign's
  :class:`~repro.injection.InjectionHarness` up to the injection
  occurrence and raises :class:`PrefixStop` there, so a run under it is
  the fault-free prefix every injected run of that (test case,
  injection time) replays.
"""

from __future__ import annotations

from repro.injection import InjectionHarness

__all__ = ["NullHarness", "PrefixStop", "PrefixStopHarness", "run_prefix"]


class NullHarness:
    """A no-op harness: no copies, no samples, no injection."""

    def __init__(self) -> None:
        self.calls = 0

    def probe(self, module, location, variables):
        self.calls += 1
        return variables


class PrefixStop(BaseException):
    """Raised at the injection occurrence to end a prefix replay.

    A ``BaseException`` so target code that catches ``Exception`` (a
    crash-tolerant module) cannot swallow it.
    """


class PrefixStopHarness(InjectionHarness):
    """An injection harness that stops the run where it would inject.

    It keeps the injection harness's per-probe bookkeeping, so the
    prefix it times costs what the injected run's prefix costs.  When
    ``stop_at`` lies past the end of the run, the run completes
    fault-free.
    """

    def __init__(self, injection_probe, flip, stop_at: int, sample_probe=None):
        super().__init__(injection_probe, flip, stop_at, sample_probe=sample_probe)
        self._stop_key = (injection_probe.module, injection_probe.location)
        self._stop_at = stop_at
        self._seen = 0
        self.stopped = False

    def probe(self, module, location, variables):
        if (module, location) == self._stop_key:
            if self._seen == self._stop_at:
                self.stopped = True
                raise PrefixStop()
            self._seen += 1
        return super().probe(module, location, variables)


def run_prefix(target, test_case: int, harness: PrefixStopHarness) -> bool:
    """Run ``test_case`` until the harness stops it; True if it stopped."""
    try:
        target.run(test_case, harness)
    except PrefixStop:
        return True
    return False
