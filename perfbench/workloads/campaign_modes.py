"""campaign-modes: the injection layer's other paths, on a 2-worker pool.

MG-A1 and 7Z-B1 at bench scale, each run four times in a row:

1. exhaustive, with a journal and a cold ``CampaignStore`` (writes);
2. the same campaign again, warm from the store (reads);
3. ``prune="static"``;
4. ``mode="sample"``.

Fewer executions, plus planning, synthesis and shard I/O: an executor
or journal change that helps the exhaustive path but costs the pruned,
sampled or store paths shows here.
"""

from __future__ import annotations

import dataclasses
import random
import time
import traceback

from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection import Campaign, CampaignStore
from repro.orchestration import Journal, ProcessPool, plan_pairs
from repro.runtime import RuntimeMetrics

from perfbench.common import Digest, tree_bytes
from perfbench.layers import layer
from perfbench.stats import quarantined_shards
from perfbench.workloads.base import (
    PassOutput,
    Workload,
    check_passes_agree,
    layer_metrics,
    replay_all,
)

SCALE = get_scale("bench")
DATASETS = ("MG-A1", "7Z-B1")
JOBS = 2
MODES = ("exhaustive", "warm", "pruned", "sampled")
#: (variable, bit) pairs per dataset re-run serially as the reference.
REFERENCE_PAIRS = 4
#: The sampling seed.  Which cells a seed draws decides how many rounds
#: the strata need, which moves the sampled runs' work by up to 40%, so
#: every run samples with the same seed; the run's seed picks the
#: prune audit's cells and the serial reference pairs.
SAMPLE_SEED = 0


@dataclasses.dataclass
class ModesState:
    campaigns: dict
    pool: ProcessPool
    metrics: RuntimeMetrics  # the pool's per-task counts and seconds
    references: dict  # dataset -> serially re-run reference records


def _identical(a, b) -> bool:
    return [r.to_dict() for r in a] == [r.to_dict() for r in b]


def _cell_key(record):
    flip = record.flip
    return (flip.variable, flip.bit, record.injection_time, record.test_case)


class CampaignModes(Workload):
    name = "campaign-modes"

    def __init__(self) -> None:
        self._pools: list[ProcessPool] = []

    def setup(self, ctx):
        self.close()
        campaigns = {}
        for name in DATASETS:
            spec = DATASET_SPECS[name]
            campaigns[name] = Campaign(
                build_target(spec.target, SCALE), campaign_config(spec, SCALE)
            )
        metrics = RuntimeMetrics()
        pool = ProcessPool(JOBS, metrics=metrics)
        self._pools.append(pool)
        # Warm-up: start the workers with a one-pair campaign.
        first = campaigns[DATASETS[0]]
        name, kind, bit = plan_pairs(first)[0]
        warm = dataclasses.replace(first.config, variables=(name,), bits=(bit,))
        Campaign(first.target, warm).run(pool=pool)
        return ModesState(campaigns, pool, metrics, {})

    def close(self) -> None:
        for pool in self._pools:
            pool.close()
        self._pools.clear()

    def check_before(self, ctx, state):
        # Serial reference for a seeded handful of (variable, bit) pairs:
        # the pooled runs of the timed pass must reproduce these records.
        rng = random.Random(ctx.seed)
        for name, campaign in state.campaigns.items():
            pairs = rng.sample(plan_pairs(campaign), REFERENCE_PAIRS)
            records = []
            for variable, _kind, bit in pairs:
                config = dataclasses.replace(
                    campaign.config, variables=(variable,), bits=(bit,)
                )
                records.extend(Campaign(campaign.target, config).run().records)
            state.references[name] = records

    def run_pass(self, ctx, state):
        workdir = ctx.scratch("campaign-modes")
        state.metrics.reset()
        results, seconds, task_s = {}, {}, {}
        for name, campaign in state.campaigns.items():
            store = CampaignStore(workdir / f"{name}.store")
            journal = Journal(workdir / f"{name}.journal.jsonl")
            calls = {
                "exhaustive": lambda: campaign.run(
                    pool=state.pool, journal=journal, store=store
                ),
                "warm": lambda: campaign.run(pool=state.pool, store=store),
                "pruned": lambda: campaign.run(
                    pool=state.pool, prune="static", audit_seed=ctx.seed
                ),
                "sampled": lambda: campaign.run(
                    pool=state.pool, mode="sample", sample_seed=SAMPLE_SEED
                ),
            }
            for mode in MODES:
                busy = state.metrics.report()["totals"]["seconds"]
                with layer(f"campaign.{mode}", dataset=name):
                    started = time.perf_counter()
                    try:
                        result = calls[mode]()
                    except Exception:  # noqa: BLE001 -- counted
                        result = None
                        ctx.ledger.operation(
                            False, f"{name} {mode}: {traceback.format_exc()}"
                        )
                    else:
                        ctx.ledger.campaign(result, f"{name} {mode}")
                    seconds[(name, mode)] = time.perf_counter() - started
                task_s[(name, mode)] = (
                    state.metrics.report()["totals"]["seconds"] - busy
                )
                results[(name, mode)] = result
        done = [r for r in results.values() if r is not None]
        # Tasks done, failed attempts and task seconds the pool recorded.
        totals = state.metrics.report()["totals"]
        quarantined = sum(len(quarantined_shards(r)) for r in done)
        counts = {
            # A quarantined task never completes; each of its failed
            # attempts but the last was retried.
            "tasks": totals["batches"] + quarantined,
            "retries": totals["faults"] - quarantined,
            "quarantined": quarantined,
            "task_s": totals["seconds"],
            "store_bytes": sum(tree_bytes(workdir / f"{n}.store") for n in DATASETS),
            "journal_bytes": sum(
                tree_bytes(workdir / f"{n}.journal.jsonl") for n in DATASETS
            ),
        }
        return PassOutput(
            cells=sum(len(r.records) for r in done),
            campaign_s=sum(seconds.values()),
            data={
                "results": results, "seconds": seconds, "task_s": task_s,
                "pool": counts,
            },
        )

    def check_after(self, ctx, state, outputs):
        digests = []
        for output in outputs:
            results = output.data["results"]
            digest = Digest()
            for name in DATASETS:
                modes = {mode: results[(name, mode)] for mode in MODES}
                if any(r is None for r in modes.values()):
                    ctx.ledger.check(f"{name}-modes-ran", False)
                    continue
                exhaustive = modes["exhaustive"].records
                by_cell = {_cell_key(r): r.to_dict() for r in exhaustive}
                ctx.ledger.check(
                    f"{name}-pooled-serial",
                    all(by_cell.get(_cell_key(r)) == r.to_dict()
                        for r in state.references[name]),
                )
                ctx.ledger.check(
                    f"{name}-store-warm", _identical(modes["warm"].records, exhaustive)
                )
                ctx.ledger.check(
                    f"{name}-pruned", _identical(modes["pruned"].records, exhaustive)
                )
                ctx.ledger.check(
                    f"{name}-prune-audit",
                    modes["pruned"].prune["audit"]["contradictions"] == 0,
                )
                ctx.ledger.check(
                    f"{name}-sampled-subset",
                    all(by_cell.get(_cell_key(r)) == r.to_dict()
                        for r in modes["sampled"].records),
                )
                digest.add(name)
                digest.add_records(exhaustive)
                digest.add_records(modes["sampled"].records)
                digest.add(modes["sampled"].sampling.to_dict())
                digest.add(modes["pruned"].prune["runs_pruned"])
            digests.append(digest.hexdigest())
        check_passes_agree(ctx, digests)
        self.close()
        return digests[0]

    def report(self, state, walls, outputs):
        seconds = outputs[0].data["seconds"]
        return {
            "cells": outputs[0].cells,
            "mode_s": {f"{n}/{m}": s for (n, m), s in seconds.items()},
        }

    def layers(self, ctx, state, output, totals):
        results = output.data["results"]
        replay = replay_all(ctx, [state.campaigns[name] for name in DATASETS])
        m = layer_metrics(totals, replay)
        # On the pool, the worker seconds the pool measured for the
        # exhaustive shards stand in for the replayed layers (which the
        # serial replay splits into golden, prefix, suffix and classify).
        worker_s = sum(output.data["task_s"][(n, "exhaustive")] for n in DATASETS)
        m["campaign.executor_s"] = (
            totals.get("campaign.exhaustive") - worker_s / output.speed / JOBS
        )
        pruned = [results[(n, "pruned")].prune for n in DATASETS]
        sampled = [results[(n, "sampled")].sampling for n in DATASETS]
        warm = [results[(n, "warm")].orchestration["store"] for n in DATASETS]
        pool = output.data["pool"]
        pool_wall = totals.program.get("pool.run", 0.0)  # the program's spans
        hits = sum(w["hits"] for w in warm)
        lookups = hits + sum(w["misses"] for w in warm)
        m.update({
            "prune.plan_s": totals.program.get("prune.plan", 0.0),
            "prune.pruned_share": sum(p["runs_pruned"] for p in pruned)
            / sum(p["runs_planned"] for p in pruned),
            "prune.contradictions": sum(p["audit"]["contradictions"] for p in pruned),
            "sampling.drawn_share": sum(s.cells_sampled for s in sampled)
            / sum(s.cells_total for s in sampled),
            "sampling.rounds": sum(s.rounds for s in sampled),
            "store.hit_ratio": hits / lookups if lookups else 0.0,
            "store.bytes": pool["store_bytes"],
            "journal.bytes": pool["journal_bytes"],
            "pool.tasks": pool["tasks"],
            "pool.retries": pool["retries"],
            "pool.quarantined": pool["quarantined"],
            "pool.busy_share": pool["task_s"] / output.speed / (JOBS * pool_wall)
            if pool_wall else 0.0,
        })
        self.close()
        return m
