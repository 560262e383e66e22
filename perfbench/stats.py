"""Statistics helpers: spreads, tail percentiles, the error ledger and
timed passes."""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from collections.abc import Callable, Sequence

__all__ = [
    "ErrorLedger",
    "TailPercentile",
    "quarantined_shards",
    "quartile_spread",
    "tail_percentile",
    "timed_passes",
]

#: Percentiles a tail statistic may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a reported percentile needs strictly beyond its rank.
MIN_BEYOND = 10


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


@dataclasses.dataclass(frozen=True)
class TailPercentile:
    """A percentile reported with the samples that support it."""

    percentile: float  # the percentile actually reported
    value: float
    samples: int       # how many samples the percentile was taken over
    beyond: int        # how many samples lie strictly beyond its rank

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def tail_percentile(samples: Sequence[float], want: float) -> TailPercentile:
    """The highest percentile up to ``want`` with :data:`MIN_BEYOND`
    samples beyond it (nearest-rank, so the value is one that was
    measured).

    Too few samples for ``want`` walk down :data:`PERCENTILE_LADDER`;
    fewer than ``MIN_BEYOND + 1`` samples report the maximum at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    for p in (want,) + tuple(q for q in PERCENTILE_LADDER if q < want):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return TailPercentile(p, float(ordered[rank - 1]), n, n - rank)
    return TailPercentile(100.0, float(ordered[-1]), n, 0)


def quarantined_shards(result) -> list[str]:
    """The shards the pool quarantined in a campaign run."""
    orchestration = getattr(result, "orchestration", None) or {}
    return list(orchestration.get("quarantined", ()))


class ErrorLedger:
    """Counts operations and failures for ``error_rate``.

    An operation is a dataset pipeline, a campaign-mode run, a
    refinement trial, a micro-batch or an in-run correctness check.
    Injected runs that crash the target are campaign *outcomes*; they
    are never recorded here.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def operation(self, ok: bool = True, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what or "operation failed")
        return ok

    def campaign(self, result, what: str = "campaign") -> bool:
        """Record one campaign run as an operation.

        Crashed injected runs are outcomes the campaign measured; only
        shards the executor had to quarantine make the run a failure.
        """
        quarantined = quarantined_shards(result)
        return self.operation(
            not quarantined, f"{what}: quarantined shards {quarantined}"
        )

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check (a failed check is a failure)."""
        return self.operation(bool(ok), f"check {name} failed {detail}".strip())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_passes(
    run_pass: Callable[[], object],
    seconds: float,
    before_pass: Callable[[], object] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> list[tuple[float, object]]:
    """Run whole passes until ``seconds`` have been measured (at least
    one); returns ``(wall, result)`` per pass.

    ``before_pass`` runs untimed ahead of every pass (e.g. emptying the
    program's reuse caches so each pass measures the cold path).
    """
    passes: list[tuple[float, object]] = []
    measured = 0.0
    while not passes or measured < seconds:
        if before_pass is not None:
            before_pass()
        started = clock()
        result = run_pass()
        wall = clock() - started
        measured += wall
        passes.append((wall, result))
    return passes
