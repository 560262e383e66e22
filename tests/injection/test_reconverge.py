"""Reconvergence exit: an injected run that rejoins the golden run stops.

The contracts, in test order:

* a ``_run_one`` that may take the exit equals the same call under
  ``reuse_caches_disabled()`` (full replay) for any smoke Table II
  dataset, pair, injection time and test case (Hypothesis);
* toy step targets pin the exit's edges: a flip overwritten in the
  next step takes it, checking the trail only at the boundaries its
  geometric schedule reaches, and hands the failure specification a
  fresh output (a NaN in it still fails under ``!=``); states that differ only in ``0.0`` vs ``-0.0``,
  only in a NaN payload, or only in aliasing (two references to one
  list vs two equal lists) do not; a flip that changes how often the
  injection probe fires keeps ``temporal_impact`` exact; a state that
  cannot be pickled gets no trail and no exits;
* ``Campaign.run()`` equals the full-replay campaign on all 18 smoke
  datasets, serially and on a two-worker pool, with runs taking the
  exit (the references are ``test_resume``'s).
"""

import math
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.golden import golden_runs_for
from repro.injection.instrument import Location, VariableSpec
from repro.mining.cache import reuse_caches_disabled
from repro.observability import names
from repro.orchestration import ProcessPool, plan_pairs
from repro.targets.base import TargetSystem

from tests.injection.test_resume import (
    DATASETS,
    _full_replay_tables,
    _smoke_campaign,
    _tables,
)


def _traced(fn):
    """``fn()`` under an in-memory tracer, plus every counter's total."""
    with obs.tracing() as tracer:
        value = fn()
    totals = Counter(tracer.counters)
    for span in tracer.spans:
        totals.update(span.counters)
    return value, totals


class TestExitEqualsFullReplay:
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

        resumed, totals = _traced(lambda: campaign._run_one(flip, time, tc, golden))
        with reuse_caches_disabled():
            replayed = campaign._run_one(flip, time, tc, golden)
        assert totals[names.COUNTER_RESUMED] == 1
        assert totals[names.COUNTER_RECONVERGED] <= 1
        assert resumed.to_dict() == replayed.to_dict()


class ToyTarget(TargetSystem):
    """One float (or int) ``acc`` probed at ``Acc`` entry every step.

    ``behaviour`` picks what a step does with the probed value:

    * ``overwrite`` -- keeps it in ``scratch`` until the next step
      overwrites that with the fault-free ``acc``;
    * ``nan-output`` -- ``overwrite``, with a fresh NaN in the output
      tuple, so no output equals another under ``!=``;
    * ``sticky`` -- stores it back into ``acc`` for good, and the
      output is ``acc``'s bytes (``0.0`` vs ``-0.0``, NaN payloads);
    * ``alias`` -- appends to ``a``; a changed value then splits ``b``
      off from it (equal contents, no longer one list);
    * ``repeat`` -- fires the probe ``reps`` more times, then resets
      ``reps``;
    * ``unpicklable`` -- ``overwrite`` with a local function in the
      state.
    """

    name = "TOY"

    def __init__(self, behaviour: str) -> None:
        self.behaviour = behaviour

    @property
    def modules(self):
        return ("Acc",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        kind = "int32" if self.behaviour == "repeat" else "float64"
        return (VariableSpec("acc", kind),)

    def begin(self, test_case):
        if self.behaviour == "repeat":
            return {"acc": 1, "total": 0}
        state = {"acc": (0.0, math.nan)[test_case], "scratch": 0.0}
        if self.behaviour == "alias":
            shared = [test_case]
            state.update(acc=1.0, a=shared, b=shared)
        if self.behaviour == "unpicklable":

            def identity(value):
                return value

            state["fn"] = identity
        return state

    def n_steps(self, state):
        return 9

    def step(self, state, index, harness):
        value = harness.probe("Acc", Location.ENTRY, {"acc": state["acc"]})["acc"]
        if self.behaviour in ("overwrite", "nan-output", "unpicklable"):
            state["scratch"] = value
            state["acc"] = float(index)
        elif self.behaviour == "sticky":
            state["acc"] = value
        elif self.behaviour == "alias":
            state["a"].append(index)
            if value != state["acc"]:
                state["b"] = list(state["b"])
        else:  # repeat
            for _ in range(max(0, min(int(value), 6))):
                harness.probe("Acc", Location.ENTRY, {"acc": 0})
            state["total"] += 1
            state["acc"] = 1

    def end(self, state):
        if self.behaviour == "alias":
            return (tuple(state["a"]), tuple(state["b"]))
        if self.behaviour == "repeat":
            return state["total"]
        if self.behaviour == "nan-output":
            return (float("nan"), state["acc"])
        return struct.pack("<dd", state["acc"], state["scratch"])

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def _toy(behaviour, time=2):
    config = CampaignConfig(
        module="Acc",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=(0, 1),
        injection_times=(time,),
    )
    return Campaign(ToyTarget(behaviour), config)


def _toy_run(behaviour, flip, test_case=0, time=2):
    """The toy run resumed (with its counters) and fully replayed."""
    campaign = _toy(behaviour, time)
    golden = golden_runs_for(campaign.target, (test_case,))[test_case]
    resumed, totals = _traced(
        lambda: campaign._run_one(flip, time, test_case, golden)
    )
    with reuse_caches_disabled():
        replayed = campaign._run_one(flip, time, test_case, golden)
    assert totals[names.COUNTER_RESUMED] == 1
    assert resumed.to_dict() == replayed.to_dict()
    return resumed, totals


class TestToyEdges:
    def test_overwritten_flip_takes_the_exit(self):
        record, totals = _toy_run("overwrite", BitFlip("acc", "float64", 62))
        assert totals[names.COUNTER_RECONVERGED] == 1
        # Injected in step 2, masked by step 3: equal again at boundary
        # 4, the second check, so steps 4-8 are skipped.
        assert totals[names.COUNTER_STEPS_SKIPPED] == 5
        assert not record.failed and record.sample is not None

    def test_trail_holds_the_checked_boundaries_only(self):
        # Resumed at boundary 2 of 9 steps: checks at 3, 4 and 6.
        snapshot = _toy("overwrite")._prefix_snapshot(0, 2)
        assert snapshot.step == 2
        assert sorted(snapshot.trail.points) == [3, 4, 6]

    def test_reconverged_output_is_fresh(self):
        # The golden output holds a NaN, so under ``!=`` no output
        # equals it, not even the fault-free one: full replay fails
        # the run, and so must the exit.
        record, totals = _toy_run("nan-output", BitFlip("acc", "float64", 62))
        assert totals[names.COUNTER_RECONVERGED] == 1
        assert record.failed

    @pytest.mark.parametrize(
        "test_case, bit",
        [(0, 63), (1, 0)],
        ids=["signed-zero", "nan-payload"],
    )
    def test_equal_looking_floats_do_not_exit(self, test_case, bit):
        record, totals = _toy_run(
            "sticky", BitFlip("acc", "float64", bit), test_case=test_case
        )
        assert totals[names.COUNTER_RECONVERGED] == 0
        assert record.failed

    def test_aliasing_is_state(self):
        record, totals = _toy_run("alias", BitFlip("acc", "float64", 1))
        assert totals[names.COUNTER_RECONVERGED] == 0
        assert record.failed

    def test_probe_count_change_keeps_temporal_impact(self):
        # Bit 1 turns reps 1 into 3: two extra fires before the reset.
        record, totals = _toy_run("repeat", BitFlip("acc", "int32", 1), time=4)
        assert totals[names.COUNTER_RECONVERGED] == 1
        campaign = _toy("repeat", 4)
        golden = golden_runs_for(campaign.target, (0,))[0]
        fires = len(golden.samples_at(campaign.config.injection_probe))
        assert record.temporal_impact == fires + 2 - 4

    def test_unpicklable_state_has_no_trail(self):
        campaign = _toy("unpicklable")
        snapshot = campaign._prefix_snapshot(0, 2)
        assert snapshot is not None and snapshot.trail is None
        result, totals = _traced(campaign.run)
        assert totals[names.COUNTER_RESUMED] == len(result.records) > 0
        assert totals[names.COUNTER_RECONVERGED] == 0
        with reuse_caches_disabled():
            assert _tables(_toy("unpicklable").run()) == _tables(result)


@pytest.fixture(scope="module")
def full_replay_tables():
    """``test_resume``'s references: one full replay per session."""
    return _full_replay_tables()


class TestCampaignEqualsFullReplay:
    def test_serial_all_smoke_datasets(self, full_replay_tables):
        reconverged = 0
        for name in DATASETS:
            result, totals = _traced(_smoke_campaign(name).run)
            reconverged += totals[names.COUNTER_RECONVERGED]
            assert _tables(result) == full_replay_tables[name], name
        assert reconverged > 0

    def test_pooled_all_smoke_datasets(self, full_replay_tables):
        with ProcessPool(2, backoff=0) as pool:
            for name in DATASETS:
                result = _smoke_campaign(name).run(pool=pool)
                assert _tables(result) == full_replay_tables[name], name
