"""One Table II dataset through the paper's pipeline: Step 1 campaign,
readout, Steps 2-4 and the compiled detector."""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.injection import Campaign
from repro.runtime import compile_predicate

from perfbench.layers import layer

__all__ = ["DatasetRun", "detector_flags", "run_dataset"]


@dataclasses.dataclass
class DatasetRun:
    name: str
    campaign: Campaign
    result: object      # CampaignResult
    dataset: object     # repro.mining.dataset.Dataset
    outcome: object     # MethodologyOutcome
    compiled: object    # CompiledPredicate
    campaign_s: float
    mining_s: float     # seconds inside Methodology.run

    @property
    def predicate(self):
        return self.outcome.refined.predicate

    @property
    def trials(self) -> int:
        """Cross-validated plans: the baseline plus every grid plan."""
        return 1 + len(self.outcome.refinement.trials)

    @property
    def auc(self) -> float:
        return float(self.outcome.refined.evaluation.mean_auc)


def run_dataset(name: str, scale, seed: int) -> DatasetRun:
    """Campaign, readout, methodology and compile for one dataset."""
    spec = DATASET_SPECS[name]
    campaign = Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
    with layer("campaign.run", dataset=name):
        started = time.perf_counter()
        result = campaign.run()
        campaign_s = time.perf_counter() - started
    with layer("readout.to_dataset", dataset=name):
        dataset = result.to_dataset(name)
    with layer("methodology.run", dataset=name):
        started = time.perf_counter()
        outcome = Methodology(
            MethodologyConfig(folds=scale.folds, seed=seed)
        ).run(dataset, scale.grid)
        mining_s = time.perf_counter() - started
    with layer("compile.compile", dataset=name):
        compiled = compile_predicate(outcome.refined.predicate)
    return DatasetRun(
        name, campaign, result, dataset, outcome, compiled, campaign_s, mining_s
    )


def detector_flags(compiled, predicate, dataset) -> tuple[np.ndarray, bool]:
    """The compiled detector's flags over the dataset's instances, and
    whether they equal the interpreted predicate's on every row."""
    index = {attr.name: i for i, attr in enumerate(dataset.attributes)}
    flags = np.asarray(compiled.evaluate_rows(dataset.x, index), dtype=bool)
    interpreted = np.asarray(predicate.evaluate_rows(dataset.x, index), dtype=bool)
    return flags, bool(np.array_equal(flags, interpreted))
