"""The workload protocol and the two ways of running one."""

from __future__ import annotations

import contextlib
import dataclasses
from statistics import median

from repro import observability as obs
from repro.core import methodology as methodology_module
from repro.core import preprocess as preprocess_module
from repro.mining.cache import clear_reuse_caches
from repro.mining.tree import C45DecisionTree
from repro.runtime import engine as engine_module
from repro.runtime.compile import CompiledPredicate

from perfbench.common import (
    END_TO_END,
    PER_LAYER,
    Context,
    Timing,
    peak_rss_mb,
    repeated_setup,
)
from perfbench.layers import ROOT, SpanTotals, layer, span_totals, wrapped
from perfbench.replay import ReplayTotals, replay_campaign
from perfbench.stats import timed_passes

__all__ = [
    "PassOutput",
    "Workload",
    "check_passes_agree",
    "layer_metrics",
    "replay_all",
    "run_traced",
    "run_untraced",
]


@dataclasses.dataclass
class PassOutput:
    """What one timed pass produced (inspected only after timing)."""

    cells: int = 0            # injection cells resolved by campaigns
    campaign_s: float = 0.0   # seconds spent inside Campaign.run
    data: object = None
    speed: float = 1.0        # host-speed factor of the pass


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""

    def setup(self, ctx: Context):
        raise NotImplementedError

    def check_before(self, ctx: Context, state) -> None:
        """Correctness checks that need work of their own (untimed)."""

    def run_pass(self, ctx: Context, state) -> PassOutput:
        raise NotImplementedError

    def check_after(self, ctx: Context, state, outputs: list[PassOutput]) -> str:
        """Check the passes' outputs; returns the run's output digest."""
        raise NotImplementedError

    def runs_per_s(self, state, outputs: list[PassOutput], setup_speed: float) -> float:
        """Cells per campaign second (at reference host speed)."""
        cells = sum(o.cells for o in outputs)
        seconds = sum(o.campaign_s / o.speed for o in outputs)
        return cells / seconds

    def report(self, state, walls: list[float], outputs: list[PassOutput]) -> dict:
        """Workload-specific figures for the run's detail line."""
        return {}

    def layers(self, ctx: Context, state, output: PassOutput,
               totals: SpanTotals) -> dict:
        """The per-layer metrics of one traced pass."""
        return layer_metrics(totals)

    def close(self) -> None:
        """Stop whatever the workload started (worker pools)."""


def check_passes_agree(ctx: Context, digests: list) -> None:
    """Check that every pass of the run gave the same output digest.

    A run of one pass has nothing to compare, so it records no check;
    across runs, ``spread.py --expect`` compares each seed's digest with
    a recorded one.
    """
    if len(digests) > 1:
        ctx.ledger.check("passes-agree", len(set(digests)) == 1, str(digests))


def _reset() -> None:
    clear_reuse_caches()


def _passes(ctx: Context, workload: Workload, state, traced: bool):
    """Timed passes; returns their timings and outputs."""

    def one_pass():
        mark = ctx.meter.mark()
        if traced:
            with layer(ROOT):
                output = workload.run_pass(ctx, state)
        else:
            output = workload.run_pass(ctx, state)
        output.speed = ctx.meter.factor(mark)
        return output

    runs = timed_passes(one_pass, ctx.seconds, before_pass=_reset)
    timings = [Timing(wall, output.speed) for wall, output in runs]
    return timings, [output for _, output in runs]


def _seconds(timings: list[Timing]) -> list[float]:
    return [t.seconds for t in timings]


def run_untraced(ctx: Context, workload: Workload) -> tuple[dict, dict]:
    state, setups = repeated_setup(ctx.meter, lambda: workload.setup(ctx), reset=_reset)
    workload.check_before(ctx, state)
    timings, outputs = _passes(ctx, workload, state, traced=False)
    digest = workload.check_after(ctx, state, outputs)
    walls = _seconds(timings)
    values = {
        "setup_s": median(_seconds(setups)),
        "wall_s": median(walls),
        "runs_per_s": workload.runs_per_s(state, outputs, setups[-1].speed),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "digest": digest,
        "setups": [dataclasses.asdict(t) for t in setups],
        "passes": [dataclasses.asdict(t) for t in timings],
        **workload.report(state, walls, outputs),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}, detail


@contextlib.contextmanager
def _layer_wrappers():
    """Span the public calls the program makes inside its own layers."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(wrapped(C45DecisionTree, "fit", "c45.fit"))
        stack.enter_context(wrapped(C45DecisionTree, "predict", "c45.predict"))
        stack.enter_context(wrapped(
            preprocess_module, "apply_sampling",
            lambda dataset, kind, *rest, **kw: f"preprocess.{kind or 'none'}",
        ))
        stack.enter_context(wrapped(
            methodology_module, "tree_to_predicate", "extraction.predicate"
        ))
        stack.enter_context(wrapped(engine_module, "pack_states", "pack.states"))
        stack.enter_context(wrapped(
            CompiledPredicate, "evaluate_rows", "compile.eval_rows"
        ))
        yield


def layer_metrics(totals: SpanTotals, replay: ReplayTotals | None = None) -> dict:
    """The per-layer metrics a trace and a campaign replay give.

    ``totals`` are one pass's figures and ``replay`` covers that pass's
    campaigns, both in seconds at reference host speed.
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["readout.to_dataset_s"] = totals.get("readout.to_dataset")
    for kind in ("undersample", "oversample", "smote"):
        m[f"preprocess.{kind}_s"] = totals.get(f"preprocess.{kind}")
    m["c45.fit_s"] = totals.get("c45.fit")
    m["c45.fits"] = float(totals.calls.get("c45.fit", 0))
    m["c45.predict_s"] = totals.get("c45.predict")
    m["crossval.self_s"] = totals.get("methodology.run")
    m["extraction.predicate_s"] = totals.get("extraction.predicate")
    m["compile.compile_s"] = totals.get("compile.compile")
    m["pack.states_s"] = totals.get("pack.states")
    m["compile.eval_rows_s"] = totals.get("compile.eval_rows")
    m["engine.overhead_s"] = totals.get("engine.batch")
    hits = misses = 0.0
    for counter, value in totals.counters.items():
        if counter.startswith("cache.") and not counter.startswith("cache.golden."):
            if counter.endswith(".hits"):
                hits += value
            elif counter.endswith(".misses"):
                misses += value
    m["mining.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if replay is not None and replay.cells:
        m["golden.capture_s"] = replay.golden_s
        m["targets.run_null_s"] = replay.null_s
        m["instrument.probe_s"] = replay.probe_s
        m["instrument.probes_per_run"] = replay.probe_calls / replay.cells
        m["campaign.prefix_s"] = replay.prefix_s
        m["campaign.suffix_s"] = replay.suffix_s
        ran = replay.prefix_s + replay.suffix_s
        m["campaign.prefix_share"] = replay.prefix_s / ran if ran else 0.0
        m["failure.classify_s"] = replay.classify_s
        m["failure.crash_ratio"] = replay.crashes / replay.cells
        m["campaign.executor_s"] = totals.get("campaign.run") - replay.replayed_s
    m["trace.coverage"] = totals.coverage
    return m


def replay_all(ctx: Context, campaigns, captured: set | None = None) -> ReplayTotals:
    """Replay every campaign; totals in seconds at reference speed."""
    mark = ctx.meter.mark()
    totals = ReplayTotals()
    for campaign in campaigns:
        totals.add(replay_campaign(campaign, captured))
    return totals.adjusted(ctx.meter.factor(mark))


def run_traced(ctx: Context, workload: Workload) -> tuple[dict, dict]:
    _reset()
    state = workload.setup(ctx)
    workload.check_before(ctx, state)
    plain, plain_outputs = _passes(ctx, workload, state, traced=False)
    with obs.tracing() as tracer, _layer_wrappers():
        traced, traced_outputs = _passes(ctx, workload, state, traced=True)
    digest = workload.check_after(ctx, state, plain_outputs + traced_outputs)
    speed = median([t.speed for t in traced])
    totals = span_totals(tracer.spans).per_pass(speed)
    values = workload.layers(ctx, state, traced_outputs[0], totals)
    values["trace.overhead_ratio"] = (
        median(_seconds(traced)) / median(_seconds(plain))
    )
    detail = {
        "digest": digest,
        "untraced_passes": [dataclasses.asdict(t) for t in plain],
        "traced_passes": [dataclasses.asdict(t) for t in traced],
        "layer_self_s": dict(sorted(totals.self_s.items())),
        "traced_speed": speed,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}, detail
