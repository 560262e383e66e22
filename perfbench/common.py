"""Shared plumbing of the workloads: run context, repeated set-up,
digests, peak RSS and the metric vocabulary."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pathlib
import resource
import shutil
import time
from collections.abc import Callable, Iterable

from perfbench.speed import SpeedMeter
from perfbench.stats import ErrorLedger

__all__ = [
    "Context",
    "Digest",
    "END_TO_END",
    "PER_LAYER",
    "SETUP_BUDGET_S",
    "SETUP_MIN_RUNS",
    "SETUP_RUNS",
    "Timing",
    "peak_rss_mb",
    "repeated_setup",
    "timed",
    "tree_bytes",
]

#: End-to-end metrics every workload reports on an untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports on a traced run (0 where
#: the workload's timed section never enters the layer).
PER_LAYER = {
    "golden.capture_s": "s",
    "targets.run_null_s": "s",
    "instrument.probe_s": "s",
    "instrument.probes_per_run": "count",
    "campaign.prefix_s": "s",
    "campaign.suffix_s": "s",
    "campaign.prefix_share": "ratio",
    "campaign.executor_s": "s",
    "failure.classify_s": "s",
    "failure.crash_ratio": "ratio",
    "readout.to_dataset_s": "s",
    "prune.plan_s": "s",
    "prune.pruned_share": "ratio",
    "prune.contradictions": "count",
    "sampling.drawn_share": "ratio",
    "sampling.rounds": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "B",
    "journal.bytes": "B",
    "pool.tasks": "count",
    "pool.retries": "count",
    "pool.quarantined": "count",
    "pool.busy_share": "ratio",
    "preprocess.undersample_s": "s",
    "preprocess.oversample_s": "s",
    "preprocess.smote_s": "s",
    "c45.fit_s": "s",
    "c45.fits": "count",
    "c45.predict_s": "s",
    "crossval.self_s": "s",
    "mining.cache.hit_ratio": "ratio",
    "extraction.predicate_s": "s",
    "compile.compile_s": "s",
    "pack.states_s": "s",
    "compile.eval_rows_s": "s",
    "engine.overhead_s": "s",
    "engine.flag_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Set-up runs at least :data:`SETUP_MIN_RUNS` times, then repeats
#: until :data:`SETUP_RUNS` set-ups or :data:`SETUP_BUDGET_S` raw
#: seconds, whichever comes first, and reports the median.
SETUP_MIN_RUNS = 2
SETUP_RUNS = 3
SETUP_BUDGET_S = 4.0


@dataclasses.dataclass
class Context:
    """What one benchmark run was asked to do, and its error ledger."""

    seed: int
    seconds: float
    trace: bool
    workdir: pathlib.Path   # scratch space inside the checkout
    meter: SpeedMeter = dataclasses.field(default_factory=SpeedMeter)
    ledger: ErrorLedger = dataclasses.field(default_factory=ErrorLedger)

    def scratch(self, name: str) -> pathlib.Path:
        """A fresh, empty directory under the run's work directory."""
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


@dataclasses.dataclass(frozen=True)
class Timing:
    """Measured seconds and the host-speed factor of their interval."""

    raw_s: float
    speed: float

    @property
    def seconds(self) -> float:
        """The seconds at reference host speed."""
        return self.raw_s / self.speed


def timed(meter: SpeedMeter, fn: Callable[[], object]) -> tuple[Timing, object]:
    mark = meter.mark()
    started = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - started
    return Timing(raw, meter.factor(mark)), value


def repeated_setup(
    meter: SpeedMeter,
    build: Callable[[], object],
    reset: Callable[[], object] | None = None,
    budget_s: float = SETUP_BUDGET_S,
) -> tuple[object, list[Timing]]:
    """Build the workload's state several times; returns the last state
    and every set-up's timing.

    ``reset`` runs untimed before each build (emptying the program's
    reuse caches so no set-up inherits another's work).
    """
    timings: list[Timing] = []
    state = None
    while len(timings) < SETUP_MIN_RUNS or (
        len(timings) < SETUP_RUNS and sum(t.raw_s for t in timings) < budget_s
    ):
        state = None
        gc.collect()
        if reset is not None:
            reset()
        timing, state = timed(meter, build)
        timings.append(timing)
    return state, timings


class Digest:
    """Order-sensitive sha256 over canonical JSON chunks."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
        self._hash.update(payload.encode())
        self._hash.update(b"\n")

    def add_records(self, records: Iterable) -> None:
        for record in records:
            self.add(record.to_dict())

    def add_bytes(self, data: bytes) -> None:
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def tree_bytes(path: pathlib.Path) -> int:
    """Total size of the regular files under ``path``."""
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
