"""pipeline-smoke: all 18 Table II datasets at smoke scale, serial.

Each dataset runs the default ``Campaign.run()``, ``to_dataset``,
``Methodology.run`` with the scale's grid and folds, and
``compile_predicate`` -- the paper's loop, and the path the Table
III/IV drivers take.  FlightGear rows cross ~880 probes per run, 7Z/MG
rows a handful, so probe and prefix work shows on the FG rows only.
"""

from __future__ import annotations

import traceback

from repro.experiments.datasets import DATASET_SPECS
from repro.experiments.scale import get_scale

from perfbench.common import Digest
from perfbench.workloads.base import (
    PassOutput,
    Workload,
    check_passes_agree,
    layer_metrics,
    replay_all,
)
from perfbench.workloads.pipeline import detector_flags, run_dataset

SCALE = get_scale("smoke")
#: The small dataset whose pipeline warms the interpreter before timing.
WARM_UP = "MG-B1"


class PipelineSmoke(Workload):
    name = "pipeline-smoke"

    def setup(self, ctx):
        # Warm-up: the first pipeline of a process pays for lazy imports
        # and cold allocator/branch state the later ones do not.
        run_dataset(WARM_UP, SCALE, ctx.seed)
        return list(DATASET_SPECS)

    def run_pass(self, ctx, names):
        runs = []
        for name in names:
            try:
                run = run_dataset(name, SCALE, ctx.seed)
            except Exception:  # noqa: BLE001 -- counted, not fatal
                ctx.ledger.operation(False, f"{name}: {traceback.format_exc()}")
            else:
                ctx.ledger.campaign(run.result, name)
                runs.append(run)
        return PassOutput(
            cells=sum(len(r.result.records) for r in runs),
            campaign_s=sum(r.campaign_s for r in runs),
            data=runs,
        )

    def check_after(self, ctx, names, outputs):
        digests = []
        for output in outputs:
            digest = Digest()
            for run in output.data:
                flags, ok = detector_flags(run.compiled, run.predicate, run.dataset)
                ctx.ledger.check(f"{run.name}-compiled-flags", ok)
                digest.add(run.name)
                digest.add_records(run.result.records)
                digest.add(run.predicate.to_source())
                digest.add_bytes(flags.tobytes())
            digests.append(digest.hexdigest())
        check_passes_agree(ctx, digests)
        return digests[0]

    def report(self, names, walls, outputs):
        runs = outputs[0].data
        if not runs:
            return {"datasets": 0}
        trials = sum(r.trials for r in runs)
        mining_s = sum(r.mining_s for r in runs) / outputs[0].speed
        return {
            "datasets": len(runs),
            "cells": outputs[0].cells,
            "trials": trials,
            "trials_per_s": trials / mining_s,
            "mean_auc": sum(r.auc for r in runs) / len(runs),
            "campaign_share": outputs[0].campaign_s / outputs[0].speed / walls[0],
        }

    def layers(self, ctx, names, output, totals):
        replay = replay_all(ctx, [run.campaign for run in output.data], captured=set())
        return layer_metrics(totals, replay)
