"""Independent serial oracle for the campaign executor's tests.

A plain nested loop over ``Campaign._run_one`` in canonical order --
variable, bit, injection time, test case -- with no pool, no injection
hints and no task graph.  Comparing an executor's records against it
checks serial == pooled and pruned == exhaustive against a path that
shares none of the executor's machinery.
"""

from repro.injection.bitflip import BitFlip
from repro.injection.campaign import CampaignResult
from repro.injection.golden import golden_runs_for


def execute_pairs(campaign, pairs, golden_runs):
    """The records of ``pairs`` ((variable, kind, bit) triples), in order."""
    config = campaign.config
    return [
        campaign._run_one(BitFlip(name, kind, bit), time, tc, golden_runs[tc])
        for name, kind, bit in pairs
        for time in config.injection_times
        for tc in config.test_cases
    ]


def serial_result(campaign):
    """The whole campaign, run by the oracle loop."""
    golden_runs = golden_runs_for(campaign.target, campaign.config.test_cases)
    pairs = [
        (spec.name, spec.kind, bit)
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]
    return CampaignResult(
        campaign.target.name,
        campaign.config,
        execute_pairs(campaign, pairs, golden_runs),
        golden_runs,
        campaign.variable_specs,
    )
