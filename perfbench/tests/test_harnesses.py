"""The benchmark-owned harnesses and the campaign replay."""

import dataclasses

import pytest

from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection import BitFlip, Campaign, GoldenHarness
from repro.orchestration import plan_pairs

from perfbench.harnesses import NullHarness, PrefixStopHarness, run_prefix
from perfbench.replay import replay_campaign, replay_cell

SMOKE = get_scale("smoke")


def _campaign(name, **changes):
    spec = DATASET_SPECS[name]
    config = dataclasses.replace(campaign_config(spec, SMOKE), **changes)
    return Campaign(build_target(spec.target, SMOKE), config)


def _golden(target, test_case):
    harness = GoldenHarness()
    output = target.run(test_case, harness)
    probes = {sample.probe for sample in harness.samples}
    return harness, output, probes


@pytest.mark.parametrize("name", ["FG-B2", "MG-A3", "7Z-A1"])
def test_prefix_stop_past_the_end_leaves_golden_probe_counts(name):
    campaign = _campaign(name)
    target, config = campaign.target, campaign.config
    golden, output, probes = _golden(target, 0)
    variable, kind, bit = plan_pairs(campaign)[0]
    harness = PrefixStopHarness(
        config.injection_probe, BitFlip(variable, kind, bit), 10**9,
        sample_probe=config.sample_probe,
    )
    assert run_prefix(target, 0, harness) is False
    assert not harness.stopped
    for probe in probes:
        assert harness.occurrences(probe) == golden.occurrences(probe)


def test_prefix_stop_halts_at_the_injection_occurrence():
    campaign = _campaign("FG-B2")
    target, config = campaign.target, campaign.config
    variable, kind, bit = plan_pairs(campaign)[0]
    stop_at = config.injection_times[0]
    harness = PrefixStopHarness(
        config.injection_probe, BitFlip(variable, kind, bit), stop_at,
        sample_probe=config.sample_probe,
    )
    assert run_prefix(target, 0, harness) is True
    assert harness.occurrences(config.injection_probe) == stop_at
    assert not harness.injected


def test_null_harness_runs_the_target_unchanged():
    campaign = _campaign("MG-B1")
    golden, output, probes = _golden(campaign.target, 1)
    null = NullHarness()
    assert campaign.target.run(1, null) == output
    assert null.calls == sum(golden.occurrences(p) for p in probes)


@pytest.mark.parametrize("name", ["7Z-B3", "MG-A1"])
def test_replayed_outcomes_match_campaign_records(name):
    variable, kind, bit = plan_pairs(_campaign(name))[0]
    bits = (bit, 31, 62) if kind == "float64" else (bit, 31)
    campaign = _campaign(name, variables=(variable,), bits=bits)
    result = campaign.run()
    golden = {tc: campaign.target.run(tc, GoldenHarness()) for tc in campaign.config.test_cases}
    assert result.records
    for record in result.records:
        cell = replay_cell(
            campaign.target, campaign.config, record.flip,
            record.injection_time, record.test_case, golden[record.test_case],
        )
        assert (cell.failed, cell.crashed) == (record.failed, record.crashed)


def test_replay_campaign_accounts_every_cell():
    campaign = _campaign("MG-B2")
    records = campaign.run().records
    captured = set()
    totals = replay_campaign(campaign, captured)
    assert totals.cells == len(records)
    assert totals.crashes == sum(r.crashed for r in records)
    assert totals.prefix_s > 0 and totals.suffix_s > 0 and totals.golden_s > 0
    assert captured  # a second campaign on the same target reuses them
    again = replay_campaign(campaign, captured)
    assert again.golden_s == 0.0
