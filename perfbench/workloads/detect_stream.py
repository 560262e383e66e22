"""detect-stream: six deployed detectors serving resampled campaign states.

Set-up builds one detector per instrumented module from a smoke-scale
dataset (campaign, readout, Steps 2-4, compile) and installs each on
its own ``StreamingEngine``.  The traffic is resampled with the seed
from the campaigns' real sampled states, so it carries the +-inf, NaN
and near-1e308 values bit flips produce.  The timed section feeds
256-state micro-batches to the six engines in round robin: the runtime
layer is all of the timed work.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.detector import Detector
from repro.experiments.scale import get_scale
from repro.runtime import StreamingEngine

from perfbench.common import Digest
from perfbench.layers import layer
from perfbench.stats import tail_percentile
from perfbench.workloads.base import (
    PassOutput,
    Workload,
    check_passes_agree,
    layer_metrics,
)
from perfbench.workloads.pipeline import run_dataset

SCALE = get_scale("smoke")
#: One dataset per instrumented module (entry/entry location pair).
DATASETS = ("7Z-A1", "7Z-B1", "FG-A1", "FG-B1", "MG-A1", "MG-B1")
BATCH = 256
#: Round-robin rounds per pass (each round is one batch per engine).
ROUNDS = 160
#: Methodology seed of the detectors: the run's seed picks the traffic
#: only, so every seed serves the same six detectors.
DETECTOR_SEED = 0
#: Traffic states per module checked against ``Predicate.evaluate``.
CHECKED_STATES = 512


@dataclasses.dataclass
class StreamState:
    engines: dict       # module -> StreamingEngine
    predicates: dict    # module -> Predicate
    traffic: dict       # module -> list of state dicts
    runs: list          # DatasetRun per module
    cells: int
    campaign_s: float


class DetectStream(Workload):
    name = "detect-stream"

    def setup(self, ctx):
        rng = np.random.default_rng(ctx.seed)
        engines, predicates, traffic, runs = {}, {}, {}, []
        for name in DATASETS:
            run = run_dataset(name, SCALE, DETECTOR_SEED)
            runs.append(run)
            module = run.campaign.config.module
            detector = Detector(run.predicate, run.campaign.config.sample_probe, module)
            engine = StreamingEngine(batch_size=BATCH)
            engine.add(detector, compiled=run.compiled)
            engines[module] = engine
            predicates[module] = run.predicate
            states = [r.sample for r in run.result.records if r.sample is not None]
            picks = rng.integers(0, len(states), size=ROUNDS * BATCH)
            traffic[module] = [states[i] for i in picks]
        return StreamState(
            engines, predicates, traffic, runs,
            cells=sum(len(r.result.records) for r in runs),
            campaign_s=sum(r.campaign_s for r in runs),
        )

    def check_before(self, ctx, state):
        rng = np.random.default_rng((ctx.seed, 1))
        for module, engine in state.engines.items():
            traffic = state.traffic[module]
            picks = rng.choice(len(traffic), size=CHECKED_STATES, replace=False)
            states = [traffic[i] for i in picks]
            flags = engine.evaluate_batch(states).flags[module]
            expected = np.array(
                [state.predicates[module].evaluate(s) for s in states], dtype=bool
            )
            ctx.ledger.check(f"{module}-flags", np.array_equal(flags, expected))

    def run_pass(self, ctx, state):
        # Each batch's flags are counted and hashed as they arrive (a few
        # microseconds a batch) rather than kept: holding a pass's results
        # would add megabytes to the peak RSS this workload reports.
        latencies, flagged, digest = [], 0, Digest()
        for round_ in range(ROUNDS):
            lo = round_ * BATCH
            for module, engine in state.engines.items():
                batch = state.traffic[module][lo:lo + BATCH]
                # The speed probe waits until the batch is timed, so no
                # batch latency carries it.
                with ctx.meter.paused(), layer("engine.batch", module=module):
                    started = time.perf_counter()
                    result = engine.evaluate_batch(batch)
                    latencies.append(time.perf_counter() - started)
                ctx.ledger.operation(not result.faults, f"{module}: {result.faults}")
                flags = result.flags[module]
                flagged += int(flags.sum())
                digest.add_bytes(np.packbits(flags).tobytes())
        return PassOutput(data={
            "latencies": latencies,
            "states": ROUNDS * BATCH * len(state.engines),
            "flagged": flagged,
            "flags": digest.hexdigest(),
        })

    def runs_per_s(self, state, outputs, setup_speed):
        # The timed section runs no campaign; these are set-up's six.
        return state.cells * setup_speed / state.campaign_s

    def check_after(self, ctx, state, outputs):
        flags = [o.data["flags"] for o in outputs]
        check_passes_agree(ctx, flags)
        digest = Digest()
        for run in state.runs:
            digest.add(run.name)
            digest.add_records(run.result.records)
            digest.add(run.predicate.to_source())
        digest.add(sorted(set(flags)))
        return digest.hexdigest()

    def report(self, state, walls, outputs):
        # Milliseconds at reference host speed, like states_per_s.
        latencies_ms = [
            s * 1e3 / o.speed for o in outputs for s in o.data["latencies"]
        ]
        states = sum(o.data["states"] for o in outputs)
        p50 = tail_percentile(latencies_ms, 50.0)
        p99 = tail_percentile(latencies_ms, 99.0)
        return {
            "states": states,
            "states_per_s": states / sum(walls),
            "batch_ms_p50": p50.to_dict(),
            "batch_ms_p99": p99.to_dict(),
            "mean_auc": sum(r.auc for r in state.runs) / len(state.runs),
            "flag_ratio": sum(o.data["flagged"] for o in outputs) / states,
        }

    def layers(self, ctx, state, output, totals):
        m = layer_metrics(totals)
        m["engine.flag_ratio"] = output.data["flagged"] / output.data["states"]
        return m
