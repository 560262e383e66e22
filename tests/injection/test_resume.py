"""Prefix resume: resumed injected runs are bit-identical to full replay.

The contracts, in test order:

* a resumed ``_run_one`` equals the same call under
  ``reuse_caches_disabled()`` (the full-replay oracle) for any smoke
  Table II dataset, pair, injection time and test case (Hypothesis);
* a resumed run cannot mutate its snapshot: two resumes from one
  snapshot of a target with nested mutable state agree;
* ``Campaign.run()`` equals the full-replay campaign on all 18 smoke
  datasets, serially and on a two-worker pool;
* run-only targets and observing campaigns (``ValidationCampaign``)
  take the full-replay path with unchanged records and verdicts;
* the shipped targets are resume-eligible at every scale whose test
  case count fits the snapshot cache.
"""

import copy
import dataclasses
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.core.detector import Detector
from repro.core.predicate import Comparison
from repro.core.validate import ValidationCampaign
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import SCALES, get_scale
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.golden import golden_runs_for
from repro.injection.instrument import (
    InjectionHarness,
    InstrumentationError,
    Location,
    Probe,
    StateSample,
    VariableSpec,
)
from repro.injection.resume import PREFIX_CACHE, uses_step_driver
from repro.injection.sampling import SamplingSpec, run_sampled_campaign
from repro.mining.cache import reuse_caches_disabled
from repro.observability import names
from repro.orchestration import ProcessPool, plan_pairs, run_campaign
from repro.targets.base import TargetSystem

from tests.orchestration._targets import run_grid_campaign

SMOKE = get_scale("smoke")
DATASETS = sorted(DATASET_SPECS)


@lru_cache(maxsize=None)
def _smoke_campaign(name: str) -> Campaign:
    spec = DATASET_SPECS[name]
    return Campaign(build_target(spec.target, SMOKE), campaign_config(spec, SMOKE))


def _tables(result):
    return [record.to_dict() for record in result.records]


def _run_counts(fn):
    """``fn()`` under an in-memory tracer, plus its resumed/replayed
    run counts."""
    with obs.tracing() as tracer:
        value = fn()
    totals = Counter(tracer.counters)
    for span in tracer.spans:
        totals.update(span.counters)
    return value, totals[names.COUNTER_RESUMED], totals[names.COUNTER_REPLAYED]


class TestResumedRunEqualsFullReplay:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_run_one(self, data):
        campaign = _smoke_campaign(data.draw(st.sampled_from(DATASETS)))
        config = campaign.config
        name, kind, bit = data.draw(st.sampled_from(plan_pairs(campaign)))
        time = data.draw(st.sampled_from(config.injection_times))
        tc = data.draw(st.sampled_from(config.test_cases))
        golden = golden_runs_for(campaign.target, (tc,))[tc]
        flip = BitFlip(name, kind, bit)

        resumed, n_resumed, _ = _run_counts(
            lambda: campaign._run_one(flip, time, tc, golden)
        )
        with reuse_caches_disabled():
            replayed, _, n_replayed = _run_counts(
                lambda: campaign._run_one(flip, time, tc, golden)
            )
        assert (n_resumed, n_replayed) == (1, 1)
        assert resumed.to_dict() == replayed.to_dict()


class TestHarnessResume:
    def test_presets_counters_and_filters_samples(self):
        probe = Probe("Acc", Location.ENTRY)
        samples = [
            StateSample(probe, occurrence, {"acc": occurrence})
            for occurrence in range(4)
        ]
        harness = InjectionHarness(
            probe, BitFlip("acc", "int32", 0), 2, sample_probe=probe,
            sample_budget=1,
        )
        harness.resume({probe.key: 4}, samples)
        assert harness.occurrences(probe) == 4
        # At/after the injection time, within the budget, and copied.
        assert [s.occurrence for s in harness.samples] == [2]
        assert harness.samples[0].variables is not samples[2].variables

    def test_needs_a_fresh_harness(self):
        probe = Probe("Acc", Location.ENTRY)
        harness = InjectionHarness(probe, BitFlip("acc", "int32", 0), 2)
        harness.probe("Acc", Location.ENTRY, {"acc": 1})
        with pytest.raises(InstrumentationError):
            harness.resume({probe.key: 3}, ())


class NestedTarget(TargetSystem):
    """A step target whose state is nested mutable lists.

    Every step appends to and rewrites inner lists in place, so a
    resumed run that stepped the snapshot's own state (instead of a
    deep copy) would corrupt every later resume from it.
    """

    name = "NT"

    @property
    def modules(self):
        return ("Acc",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (VariableSpec("acc", "int32"), VariableSpec("depth", "int32"))

    def begin(self, test_case):
        return {"rows": [[test_case]], "history": []}

    def n_steps(self, state):
        return 5

    def step(self, state, index, harness):
        rows = state["rows"]
        probed = harness.probe(
            "Acc", Location.ENTRY, {"acc": rows[-1][-1], "depth": len(rows)}
        )
        acc = int(probed["acc"]) + index
        rows[-1].append(acc)
        rows[-1][0] += 1
        rows.append([acc])
        state["history"].append([len(row) for row in rows])

    def end(self, state):
        return (tuple(map(tuple, state["rows"])), len(state["history"]))

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def _nested_campaign():
    config = CampaignConfig(
        module="Acc",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 3),
        injection_times=(2, 4),
        bits=(0, 3),
    )
    return Campaign(NestedTarget(), config)


class OffsetTarget(NestedTarget):
    """A nested target whose start value is part of its configuration."""

    name = "OT"

    def __init__(self, offset=0):
        self.offset = offset

    def begin(self, test_case):
        return {"rows": [[test_case + self.offset]], "history": []}


class TestResumeKeyFollowsTarget:
    """Each executor call re-derives the prefix cache key, so a target
    reconfigured between direct calls never resumes from the prefixes
    of its old configuration."""

    @pytest.mark.parametrize(
        "execute",
        [
            run_campaign,
            lambda campaign: run_sampled_campaign(campaign, SamplingSpec()),
        ],
        ids=["run_campaign", "run_sampled_campaign"],
    )
    def test_reconfigured_target(self, execute):
        config = _nested_campaign().config
        campaign = Campaign(OffsetTarget(), config)
        execute(campaign)
        campaign.target.offset = 7
        reconfigured = execute(campaign)
        with reuse_caches_disabled():
            fresh = execute(Campaign(OffsetTarget(7), config))
        assert _tables(reconfigured) == _tables(fresh)


class TestSnapshotIsolation:
    def test_two_resumes_from_one_snapshot_agree(self):
        campaign = _nested_campaign()
        golden = golden_runs_for(campaign.target, (3,))[3]
        flip = BitFlip("acc", "int32", 3)
        snapshot = campaign._prefix_snapshot(3, 4)
        assert snapshot is not None and snapshot.step == 4
        before = copy.deepcopy(snapshot.state)

        first, n_first, _ = _run_counts(lambda: campaign._run_one(flip, 4, 3, golden))
        second = campaign._run_one(flip, 4, 3, golden)
        assert n_first == 1
        assert first.to_dict() == second.to_dict()
        assert snapshot.state == before
        with reuse_caches_disabled():
            assert campaign._run_one(flip, 4, 3, golden).to_dict() == first.to_dict()

    def test_nested_campaign_equals_full_replay(self):
        resumed, n_resumed, n_replayed = _run_counts(_nested_campaign().run)
        with reuse_caches_disabled():
            replayed = _nested_campaign().run()
        assert n_replayed == 0 and n_resumed == len(resumed.records)
        assert _tables(resumed) == _tables(replayed)

    def test_time_past_the_end_resumes_at_the_final_boundary(self):
        campaign = _nested_campaign()
        config = dataclasses.replace(campaign.config, injection_times=(2, 99))
        late = Campaign(campaign.target, config)
        assert late._prefix_snapshot(0, 99).step == 5
        resumed = late.run()
        with reuse_caches_disabled():
            assert _tables(late.run()) == _tables(resumed)


@lru_cache(maxsize=None)
def _full_replay_tables():
    """Full-replay records of every smoke dataset, computed once per
    session and shared with ``test_reconverge``."""
    with reuse_caches_disabled():
        return {name: _tables(_smoke_campaign(name).run()) for name in DATASETS}


@pytest.fixture(scope="module")
def full_replay_tables():
    return _full_replay_tables()


class TestCampaignEqualsFullReplay:
    def test_serial_all_smoke_datasets(self, full_replay_tables):
        for name in DATASETS:
            result, n_resumed, n_replayed = _run_counts(_smoke_campaign(name).run)
            assert n_replayed == 0 and n_resumed == len(result.records), name
            assert _tables(result) == full_replay_tables[name], name

    def test_pooled_all_smoke_datasets(self, full_replay_tables):
        with ProcessPool(2, backoff=0) as pool:
            for name in DATASETS:
                result = _smoke_campaign(name).run(pool=pool)
                assert _tables(result) == full_replay_tables[name], name


class TestFullReplayFallback:
    def test_run_only_target_replays(self):
        campaign = run_grid_campaign()
        assert not uses_step_driver(campaign.target)
        result, n_resumed, n_replayed = _run_counts(campaign.run)
        assert n_resumed == 0 and n_replayed == len(result.records)
        with reuse_caches_disabled():
            assert _tables(run_grid_campaign().run()) == _tables(result)

    def test_validation_campaign_replays(self):
        campaign = _smoke_campaign("MG-B1")
        name, _kind, _bit = plan_pairs(campaign)[0]
        config = dataclasses.replace(campaign.config, variables=(name,))
        detector = Detector(Comparison(name, ">", 0.5))

        def verdicts():
            validation = ValidationCampaign(campaign.target, config, detector)
            report = validation.validate()
            return [
                (v.record.to_dict(), v.flagged, v.detection_occurrence)
                for v in report.verdicts
            ]

        observed, n_resumed, n_replayed = _run_counts(verdicts)
        assert n_resumed == 0 and n_replayed == len(observed) > 0
        with reuse_caches_disabled():
            assert verdicts() == observed

    def test_unfingerprintable_target_replays(self):
        campaign = _nested_campaign()
        campaign.target.hook = lambda: None  # opaque state: no fingerprint
        assert campaign.target.fingerprint() is None
        result, n_resumed, _ = _run_counts(campaign.run)
        assert n_resumed == 0
        assert _tables(result) == _tables(_nested_campaign().run())


class TestShippedTargetsResume:
    @pytest.mark.parametrize("scale", sorted(SCALES))
    @pytest.mark.parametrize("target", ["7Z", "FG", "MG"])
    def test_fingerprintable_step_targets(self, scale, target):
        built = build_target(target, get_scale(scale))
        assert uses_step_driver(built)
        assert built.fingerprint() is not None

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_resume_engages_where_the_cache_holds_every_test_case(self, scale):
        for name in DATASETS:
            spec = DATASET_SPECS[name]
            campaign = Campaign(
                build_target(spec.target, get_scale(scale)),
                campaign_config(spec, get_scale(scale)),
            )
            fits = len(campaign.config.test_cases) <= PREFIX_CACHE.maxsize
            assert (campaign._resume_key is not None) == fits, name
            if scale != "paper":
                assert fits, name
