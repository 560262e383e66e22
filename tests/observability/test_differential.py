"""Differential suite: tracing changes nothing; engines agree.

Three contracts, each phrased as an equality between two independent
computation paths:

* the streaming engine's micro-batched verdicts equal a one-shot
  compiled batch evaluation of the same predicate over the same
  states, for every batch size (hypothesis-driven);
* the ``presort`` and ``naive`` induction engines produce bit-identical
  refinement rankings *while a tracer is actively recording*;
* a fully traced ``Methodology.run`` serializes identically to an
  untraced one -- the tracer reads clocks, never results.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.core.detector import Detector
from repro.core.methodology import Methodology, MethodologyConfig
from repro.core.predicate import And, Comparison, Or
from repro.core.refine import RefinementGrid, refine
from repro.core.preprocess import model_complexity
from repro.mining.tree.induction import C45DecisionTree
from repro.runtime.compile import compile_predicate
from repro.runtime.engine import StreamingEngine
from repro.runtime.pack import build_index, pack_states

from tests.conftest import make_imbalanced

VARIABLES = ("u", "v", "w")

comparisons = st.builds(
    Comparison,
    st.sampled_from(VARIABLES),
    st.sampled_from(("<=", ">", "==", "!=")),
    st.floats(-5.0, 5.0, allow_nan=False),
)
predicates = st.one_of(
    comparisons,
    st.builds(And, st.lists(comparisons, min_size=1, max_size=3)),
    st.builds(
        Or,
        st.lists(
            st.one_of(
                comparisons,
                st.builds(And, st.lists(comparisons, min_size=1, max_size=2)),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
)
values = st.one_of(
    st.floats(-6.0, 6.0),
    st.just(float("nan")),
)
states = st.lists(
    st.dictionaries(st.sampled_from(VARIABLES), values, max_size=3),
    min_size=1,
    max_size=25,
)


class TestEngineMatchesOneShotBatch:
    @given(predicate=predicates, states=states, batch_size=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_micro_batched_equals_one_shot(self, predicate, states, batch_size):
        engine = StreamingEngine(batch_size=batch_size)
        name = engine.add(Detector(predicate, name="d"))
        streamed = [
            batch.flags[name]
            for batch in engine.evaluate_stream(states, batch_size)
        ]
        micro = np.concatenate(streamed)

        compiled = compile_predicate(predicate)
        index = build_index(predicate.variables())
        one_shot = np.asarray(
            compiled.evaluate_rows(pack_states(states, index), index),
            dtype=bool,
        )
        assert np.array_equal(micro, one_shot)

    @given(predicate=predicates, states=states, batch_size=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_submit_flush_path_agrees(self, predicate, states, batch_size):
        engine = StreamingEngine(batch_size=batch_size)
        name = engine.add(Detector(predicate, name="d"))
        chunks = []
        for state in states:
            result = engine.submit(state)
            if result is not None:
                chunks.append(result.flags[name])
        tail = engine.flush()
        if tail is not None:
            chunks.append(tail.flags[name])
        compiled = compile_predicate(predicate)
        index = build_index(predicate.variables())
        expected = np.asarray(
            compiled.evaluate_rows(pack_states(states, index), index),
            dtype=bool,
        )
        assert np.array_equal(np.concatenate(chunks), expected)


def _small_grid() -> RefinementGrid:
    return RefinementGrid(
        undersample_levels=(25.0, 60.0),
        oversample_levels=(200.0,),
        neighbour_counts=(3,),
    )


def _ranking(result):
    return [
        (trial.plan.describe(), trial.key) for trial in result.ranked()
    ]


class TestEnginesAgreeUnderTracing:
    def test_presort_and_naive_rankings_identical_while_traced(self):
        dataset = make_imbalanced(n=150)
        grid = _small_grid()
        with obs.tracing() as tracer:
            presort = refine(
                dataset,
                lambda: C45DecisionTree(engine="presort"),
                grid,
                folds=3,
                seed=11,
                complexity=model_complexity,
            )
            naive = refine(
                dataset,
                lambda: C45DecisionTree(engine="naive"),
                grid,
                folds=3,
                seed=11,
                complexity=model_complexity,
            )
        assert _ranking(presort) == _ranking(naive)
        assert presort.best.plan == naive.best.plan
        # The tracer really was recording both sweeps.
        engines = {
            record.attributes.get("engine")
            for record in tracer.spans
            if record.name == "c45.fit"
        }
        assert engines == {"presort", "naive"}


def _outcome_signature(outcome):
    """Every result-bearing field of a MethodologyOutcome, serialized."""
    return {
        "baseline": outcome.baseline.summary(),
        "refined": outcome.refined.summary(),
        "predicate": outcome.refined.predicate.to_source("state"),
        "plan": dataclasses.asdict(outcome.refined.plan),
        "ranking": [
            (t.plan.describe(), t.key) for t in outcome.refinement.ranked()
        ],
    }


class TestTracedEqualsUntraced:
    def test_methodology_run_bit_identical(self, tmp_path):
        dataset = make_imbalanced(n=150)
        grid = _small_grid()
        config = MethodologyConfig(folds=3, seed=5)

        untraced = Methodology(config).run(dataset, grid)
        with obs.tracing_to(tmp_path / "trace.jsonl"):
            traced = Methodology(config).run(dataset, grid)

        assert _outcome_signature(untraced) == _outcome_signature(traced)
        # And the trace itself is non-trivial: phases + trials landed.
        spans = obs.load_trace(tmp_path / "trace.jsonl")
        names = {record.name for record in spans}
        assert {"methodology.run", "phase.baseline", "phase.refine",
                "refine.trial", "crossval.fold", "c45.fit"} <= names

    def test_resumed_campaign_bit_identical(self, tmp_path):
        from repro.experiments.datasets import (
            DATASET_SPECS,
            build_target,
            campaign_config,
        )
        from repro.experiments.scale import get_scale
        from repro.injection.campaign import Campaign
        from repro.mining.cache import clear_reuse_caches

        scale = get_scale("smoke")
        spec = DATASET_SPECS["7Z-B1"]

        def run():
            clear_reuse_caches()
            campaign = Campaign(
                build_target(spec.target, scale), campaign_config(spec, scale)
            )
            return [record.to_dict() for record in campaign.run().records]

        untraced = run()
        with obs.tracing_to(tmp_path / "trace.jsonl"):
            traced = run()

        assert traced == untraced
        # The traced campaign really resumed its runs.
        spans = obs.load_trace(tmp_path / "trace.jsonl")
        resumed = sum(
            record.counters.get(obs.names.COUNTER_RESUMED, 0) for record in spans
        )
        replayed = sum(
            record.counters.get(obs.names.COUNTER_REPLAYED, 0) for record in spans
        )
        assert (resumed, replayed) == (len(untraced), 0)

    def test_reconverging_campaign_bit_identical(self, tmp_path):
        from repro.experiments.datasets import (
            DATASET_SPECS,
            build_target,
            campaign_config,
        )
        from repro.experiments.scale import get_scale
        from repro.injection.campaign import Campaign
        from repro.mining.cache import clear_reuse_caches

        scale = get_scale("smoke")
        spec = DATASET_SPECS["FG-A3"]

        def run():
            clear_reuse_caches()
            campaign = Campaign(
                build_target(spec.target, scale), campaign_config(spec, scale)
            )
            return [record.to_dict() for record in campaign.run().records]

        untraced = run()
        with obs.tracing_to(tmp_path / "trace.jsonl"):
            traced = run()

        assert traced == untraced
        # The traced campaign's runs really took the reconvergence exit.
        spans = obs.load_trace(tmp_path / "trace.jsonl")
        reconverged = sum(
            record.counters.get(obs.names.COUNTER_RECONVERGED, 0)
            for record in spans
        )
        skipped = sum(
            record.counters.get(obs.names.COUNTER_STEPS_SKIPPED, 0)
            for record in spans
        )
        assert 0 < reconverged < len(untraced)
        assert skipped > reconverged
