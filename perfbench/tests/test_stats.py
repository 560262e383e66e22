"""Statistics helpers, the speed meter and traced-run accounting."""

import pathlib
import signal
import time

import pytest

from repro.observability import SpanRecord

from perfbench.common import Context, repeated_setup
from perfbench.layers import span_totals
from perfbench.speed import SpeedMeter, trimmed_harmonic_mean
from perfbench.stats import ErrorLedger, quartile_spread, tail_percentile, timed_passes
from perfbench.workloads.base import check_passes_agree


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond_it(self):
        tail = tail_percentile(range(1, 1001), 99.0)
        assert (tail.percentile, tail.value, tail.samples, tail.beyond) == (99.0, 990.0, 1000, 10)

    def test_falls_back_to_the_highest_supported_percentile(self):
        tail = tail_percentile(range(1, 501), 99.0)
        assert tail.percentile == 95.0
        assert tail.value == 475.0
        assert tail.beyond == 25

    def test_too_few_samples_report_the_maximum(self):
        tail = tail_percentile([3.0, 1.0, 2.0], 99.0)
        assert (tail.percentile, tail.value, tail.beyond) == (100.0, 3.0, 0)

    def test_values_are_measured_samples(self):
        samples = [0.5 * i for i in range(37)]
        assert tail_percentile(samples, 50.0).value in samples

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([], 50.0)


class _Result:
    def __init__(self, crashed, quarantined=()):
        self.records = crashed
        self.orchestration = {"quarantined": list(quarantined)}


class TestErrorLedger:
    def test_crashed_injected_runs_are_not_errors(self):
        ledger = ErrorLedger()
        ledger.campaign(_Result(crashed=[True, True, False]))
        assert (ledger.attempted, ledger.failed, ledger.error_rate) == (1, 0, 0.0)

    def test_quarantined_shards_fail_the_run(self):
        ledger = ErrorLedger()
        ledger.campaign(_Result(crashed=[], quarantined=["shard-3"]))
        ledger.operation()
        assert ledger.error_rate == 0.5
        assert "shard-3" in ledger.failures[0]

    def test_failed_checks_count(self):
        ledger = ErrorLedger()
        assert ledger.check("identity", True)
        assert not ledger.check("subset", False, "3 cells differ")
        assert (ledger.attempted, ledger.failed) == (2, 1)

    def test_empty_ledger(self):
        assert ErrorLedger().error_rate == 0.0


class _FixedMeter:
    def mark(self):
        return 0

    def factor(self, mark):
        return 2.0


class TestWarmUpAndTiming:
    def test_set_up_and_its_warm_up_finish_before_timing(self):
        calls = []

        def build():
            calls.append("build")
            calls.append("warm-up")  # set-up ends with its warm-up
            return len(calls)

        state, setups = repeated_setup(
            _FixedMeter(), build, reset=lambda: calls.append("reset")
        )
        assert len(setups) == 3  # cheap set-ups repeat three times
        assert state == 9
        assert setups[0].seconds == setups[0].raw_s / 2.0
        now = [0.0]

        def run_pass():
            calls.append("pass")
            now[0] += 2.0

        passes = timed_passes(run_pass, 5.0, before_pass=lambda: calls.append("cold"),
                              clock=lambda: now[0])
        assert [wall for wall, _ in passes] == [2.0, 2.0, 2.0]
        assert calls[:3] == ["reset", "build", "warm-up"]
        assert calls.index("pass") > calls.index("warm-up")
        assert calls.count("cold") == 3

    def test_slow_set_up_runs_twice(self):
        state, setups = repeated_setup(_FixedMeter(), lambda: 1, budget_s=0.0)
        assert len(setups) == 2

    def test_at_least_one_pass(self):
        assert len(timed_passes(lambda: None, 0.0)) == 1


def test_quartile_spread():
    assert quartile_spread([1.0] * 8) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_trimmed_harmonic_mean_drops_the_tails():
    assert trimmed_harmonic_mean([1.0] * 8 + [100.0, 1e-9]) == 1.0
    # Half the wall at factor 1 and half at factor 3 does 1/2 + 1/6 of the
    # reference work: the interval's factor is 1.5, not the mean 2.
    assert trimmed_harmonic_mean([1.0, 3.0] * 5, share=0.0) == pytest.approx(1.5)


def test_speed_meter_fills_short_intervals_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    meter.start()
    try:
        mark = meter.mark()
        assert meter.factor(mark) > 0
        assert len(meter.samples) - mark >= 9
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGALRM) == previous


def test_paused_meter_takes_the_samples_due_once_the_block_ends():
    meter = SpeedMeter()
    meter.start()
    try:
        mark = meter.mark()
        with meter.paused():
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
            inside = len(meter.samples) - mark
        after = len(meter.samples) - mark
    finally:
        meter.stop()
    assert inside == 0
    assert after >= 5  # about one per 20 ms period of the block


def test_passes_agree_is_checked_only_across_passes():
    ctx = Context(1, 1.0, False, pathlib.Path("."))
    check_passes_agree(ctx, ["a"])
    assert ctx.ledger.attempted == 0
    check_passes_agree(ctx, ["a", "a"])
    check_passes_agree(ctx, ["a", "b"])
    assert (ctx.ledger.attempted, ctx.ledger.failed) == (2, 1)


def _span(name, span_id, parent, duration):
    return SpanRecord(name, span_id, parent, 1, 1, 0, int(duration * 1e9), {}, {})


def test_span_totals_attribute_self_time_through_program_spans():
    spans = [
        _span("bench.pass", 1, None, 10.0),
        _span("bench.methodology.run", 2, 1, 6.0),
        _span("crossval", 3, 2, 5.0),          # program span, rides along
        _span("bench.c45.fit", 4, 3, 4.0),     # nested under a program span
        _span("bench.campaign.run", 5, 1, 3.5),
    ]
    totals = span_totals(spans)
    assert totals.get("c45.fit") == pytest.approx(4.0)
    assert totals.get("methodology.run") == pytest.approx(2.0)
    assert totals.get("campaign.run") == pytest.approx(3.5)
    assert totals.get("pass") == pytest.approx(0.5)
    assert totals.coverage == pytest.approx(0.95)
    assert totals.program["crossval"] == pytest.approx(5.0)
