"""Refinement-grid orchestration: parity, resume, incremental reuse."""

import dataclasses

import pytest

from repro.core.preprocess import LearnerFactory, model_complexity
from repro.core.refine import RefinementGrid, refine
from repro.orchestration import (
    Journal,
    ProcessPool,
    SerialPool,
    dataset_fingerprint,
    run_refinement,
)
from repro.orchestration.grids import _callable_tag

from tests.oracle import serial_result
from tests.orchestration._targets import run_grid_campaign


@pytest.fixture(scope="module")
def dataset():
    return serial_result(run_grid_campaign()).to_dataset("GT-ds")


GRID = RefinementGrid(
    undersample_levels=(25.0, 60.0),
    oversample_levels=(200.0,),
    neighbour_counts=(3,),
)


def _serial(dataset, seed=3):
    return refine(
        dataset,
        LearnerFactory("c45"),
        GRID,
        folds=3,
        seed=seed,
        complexity=model_complexity,
    )


def _assert_trials_equal(a, b):
    assert len(a.trials) == len(b.trials)
    for ta, tb in zip(a.trials, b.trials):
        assert ta.plan == tb.plan
        assert ta.evaluation.summary() == tb.evaluation.summary()
        for fa, fb in zip(ta.evaluation.folds, tb.evaluation.folds):
            assert (fa.confusion.matrix == fb.confusion.matrix).all()
            assert fa.complexity == fb.complexity
    assert a.best.plan == b.best.plan
    assert a.best.evaluation.summary() == b.best.evaluation.summary()


class TestParity:
    def test_serial_pool_matches_serial_loop(self, dataset):
        parallel = run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity, pool=SerialPool(),
        )
        _assert_trials_equal(_serial(dataset), parallel)

    def test_process_pool_matches_serial_loop(self, dataset):
        with ProcessPool(3, backoff=0) as pool:
            parallel = run_refinement(
                dataset, LearnerFactory("c45"), GRID,
                folds=3, seed=3, complexity=model_complexity, pool=pool,
            )
        _assert_trials_equal(_serial(dataset), parallel)

    def test_refine_delegates_to_pool(self, dataset):
        with ProcessPool(2, backoff=0) as pool:
            via_refine = refine(
                dataset, LearnerFactory("c45"), GRID,
                folds=3, seed=3, complexity=model_complexity, pool=pool,
            )
        _assert_trials_equal(_serial(dataset), via_refine)

    def test_empty_grid_rejected(self, dataset):
        empty = RefinementGrid(
            undersample_levels=(), oversample_levels=(), neighbour_counts=()
        )
        with pytest.raises(ValueError):
            run_refinement(
                dataset, LearnerFactory("c45"), empty, pool=SerialPool()
            )


class TestJournalledRefinement:
    def test_second_run_fully_cached(self, dataset, tmp_path):
        journal = Journal(tmp_path / "g.jsonl")
        first = run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        entries_before = len(journal.load())
        assert entries_before == GRID.size()
        again = run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        _assert_trials_equal(first, again)
        # No new journal lines: nothing was re-executed.
        assert len(journal.path.read_text().splitlines()) == entries_before

    def test_grid_growth_reuses_existing_trials(self, dataset, tmp_path):
        journal = Journal(tmp_path / "g.jsonl")
        run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        lines_before = len(journal.path.read_text().splitlines())
        # Oversample levels enumerate last, so appending one keeps every
        # earlier plan's (index, plan) identity: their checkpoints are
        # reused and only the new trials execute.
        grown = dataclasses.replace(GRID, oversample_levels=(200.0, 400.0))
        run_refinement(
            dataset, LearnerFactory("c45"), grown,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        lines_after = len(journal.path.read_text().splitlines())
        assert lines_after - lines_before == grown.size() - GRID.size()

    def test_seed_change_invalidates_trials(self, dataset, tmp_path):
        journal = Journal(tmp_path / "g.jsonl")
        run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        lines_before = len(journal.path.read_text().splitlines())
        run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=4, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        assert (
            len(journal.path.read_text().splitlines())
            == lines_before + GRID.size()
        )


class TestSharedJournalIncremental:
    def test_campaign_shards_survive_grid_changes(self, tmp_path):
        """The FastFlip property: one journal, campaign + trials; when
        only the grid changes, every campaign shard is reused."""
        journal = Journal(tmp_path / "shared.jsonl")
        campaign = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        dataset = campaign.to_dataset("GT-ds")
        run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        # Re-run the campaign against the shared journal: all cached.
        again = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert again.orchestration["executed"] == 0
        assert again.records == campaign.records
        # A different grid re-executes trials but no campaign shards.
        other = dataclasses.replace(GRID, neighbour_counts=(5,))
        run_refinement(
            dataset, LearnerFactory("c45"), other,
            folds=3, seed=3, complexity=model_complexity,
            pool=SerialPool(), journal=journal,
        )
        final = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert final.orchestration["executed"] == 0


class TestFingerprints:
    def test_dataset_fingerprint_stable_and_sensitive(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)
        other = serial_result(run_grid_campaign(test_cases=(0, 2))).to_dataset("x")
        assert dataset_fingerprint(dataset) != dataset_fingerprint(other)

    def test_callable_tag_prefers_fingerprint(self):
        factory = LearnerFactory("c45")
        assert _callable_tag(factory) == "learner:c45"
        assert _callable_tag(model_complexity).endswith("model_complexity")
        assert _callable_tag(None) is None
